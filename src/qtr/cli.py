"""Command-line surface and batch scan engine.

Usage:
    qtr rank --ell 37 --n 13            # both rank paths + character table
    qtr scan --ell 13 --n-max 3000 --format csv
    qtr scan --ell 5 --n-max 100 --rank 0
    qtr verify --ell 37 --n-max 3000    # run all internal cross-checks
    qtr unit --ell 29
    qtr conductor --ell 13 --n 3
    qtr poly --ell 13 --n 2
    qtr table --ell 53 --n 67
    qtr classify --ell 61 --n 14467

Output format is text unless --format or QTR_DEFAULT_FORMAT says otherwise.
Exit codes: 0 ok, 2 invalid input, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .classify import classify_small_rank
from .errors import FieldInputError, InternalCheckError, JobsNotPositive, NotCoprime, NotSquarefree
from .ntheory import squarefree_window
from .quad import SplittingType, fundamental_unit
from .quartic import FieldInput, conductor, defining_polynomial, to_williams, validate, validate_ell
from .rank import NShape, PrimeTable, RankResult, agree, character_table, rank_closed, rank_unified

FORMATS = ("text", "csv", "json")
SCAN_FIELDS = ("n", "delta", "shape", "mu", "r_star", "rank", "case", "conductor")
_CHUNK = 512


def shape_string(shape: NShape) -> str:
    """Compact shape of n: kind letters for the odd primes ascending, with
    their split/inert tags, e.g. 'p·q·q [I,S,I]'; '1' when n is 1 or 2."""
    if not shape.tagged:
        return "1"
    kinds = "·".join("p" if p % 4 == 1 else "q" for p, _ in shape.tagged)
    tags = ",".join("S" if tag is SplittingType.SPLIT else "I" for _, tag in shape.tagged)
    return f"{kinds} [{tags}]"


def _row(field: FieldInput, closed: RankResult) -> dict:
    return {
        "n": field.n,
        "delta": field.shape.delta,
        "shape": shape_string(field.shape),
        "mu": closed.mu,
        "r_star": closed.r_star,
        "rank": closed.rank,
        "case": closed.case_tag,
        "conductor": conductor(to_williams(field), field.ell).f,
    }


def _windows(n_max: int):
    """The windows [lo, hi) of n = 1..n_max, ascending, _CHUNK wide."""
    for lo in range(1, n_max + 1, _CHUNK):
        yield lo, min(lo + _CHUNK, n_max + 1)


def _window_fields(primes: PrimeTable, lo: int, hi: int):
    """(n, record) for each n in [lo, hi), read off the squarefree sieve; a
    rejected n comes with the name of the hypothesis it fails instead."""
    for n, factors in zip(range(lo, hi), squarefree_window(lo, hi)):
        try:
            yield n, FieldInput.from_sieve(primes.ell, n, factors, primes.tag)
        except (NotSquarefree, NotCoprime) as exc:
            yield n, type(exc).__name__


def _ranks(field: FieldInput, primes: PrimeTable | None = None) -> tuple[RankResult, RankResult]:
    """The field's rank by both paths, once they agree.  Any failed check
    inside either path, or their disagreement, is raised as an
    InternalCheckError that names (ell, n) and the cross_path check."""
    try:
        closed = rank_closed(field)
        unified = rank_unified(field, primes)
        if not agree(closed, unified):
            raise InternalCheckError(f"rank paths disagree: closed={closed} unified={unified}")
    except InternalCheckError as exc:
        raise InternalCheckError(f"ell={field.ell} n={field.n} check=cross_path: {exc}") from exc
    return closed, unified


def _window_rows(primes: PrimeTable, lo: int, hi: int) -> list:
    """('row', row) for each valid n in [lo, hi), once both rank paths agree,
    and ('skip', {n, reason}) for each rejected one."""
    out = []
    for n, field in _window_fields(primes, lo, hi):
        if isinstance(field, str):
            out.append(("skip", {"n": n, "reason": field}))
            continue
        closed, _ = _ranks(field, primes)
        out.append(("row", _row(field, closed)))
    return out


def _scan_chunk(args: tuple[int, int, int]) -> list:
    """One window of a scan in a pool worker, with its own prime table."""
    ell, lo, hi = args
    return _window_rows(PrimeTable(ell), lo, hi)


def pool_size(jobs: int, chunks: int, cpus: int | None) -> int:
    """Worker processes for a scan: at most one per chunk and one per CPU."""
    return max(1, min(jobs, chunks, cpus or 1))


def _pooled(workers: int, chunks: list):
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(_scan_chunk, chunks)


def _scan_windows(ell: int, n_max: int, jobs: int):
    """The results of each window of a scan, in window order.  ell and jobs
    are checked here, before any window is computed."""
    primes = PrimeTable(ell)
    if jobs < 1:
        raise JobsNotPositive(f"jobs = {jobs}: a scan needs at least one worker")
    windows = list(_windows(n_max))
    workers = pool_size(jobs, len(windows), os.cpu_count())
    if workers == 1:
        return (_window_rows(primes, lo, hi) for lo, hi in windows)
    return _pooled(workers, [(ell, lo, hi) for lo, hi in windows])


def _selected(results: list, include_skipped: bool, rank_filter: int | None) -> list[dict]:
    rows = []
    for kind, payload in results:
        if kind == "skip":
            if include_skipped:
                row = {field: "" for field in SCAN_FIELDS}
                row["n"] = payload["n"]
                row["reason"] = payload["reason"]
                rows.append(row)
            continue
        if rank_filter is not None and payload["rank"] != rank_filter:
            continue
        if include_skipped:
            payload = dict(payload, reason="")
        rows.append(payload)
    return rows


def scan_rows(ell: int, n_max: int, jobs: int = 1, include_skipped: bool = False,
              rank_filter: int | None = None) -> list[dict]:
    """ScanRows ascending by n.  Windows are merged in order, so the output
    is identical for every jobs count."""
    return [row for results in _scan_windows(ell, n_max, jobs)
            for row in _selected(results, include_skipped, rank_filter)]


def _emit_table_rows(rows: list[dict], fields: tuple[str, ...], fmt: str,
                     header: bool = True) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if header:
            writer.writerow(fields)
        for row in rows:
            writer.writerow([row[f] for f in fields])
        sys.stdout.write(buf.getvalue())
    elif fmt == "json":
        print(json.dumps(rows, indent=2))
    else:
        if not rows:
            return
        cells = [[str(row[f]) for f in fields] for row in rows]
        widths = [max(len(f), *(len(c[i]) for c in cells)) for i, f in enumerate(fields)]
        print("  ".join(f.ljust(w) for f, w in zip(fields, widths)).rstrip())
        for c in cells:
            print("  ".join(x.ljust(w) for x, w in zip(c, widths)).rstrip())


def cmd_rank(args, fmt: str) -> int:
    field = validate(args.ell, args.n)
    closed, unified = _ranks(field)
    shape, table = field.shape, unified.table
    if fmt == "json":
        print(json.dumps({
            "ell": field.ell,
            "n": field.n,
            "rank": closed.rank,
            "mu": closed.mu,
            "r_star": closed.r_star,
            "case": closed.case_tag,
            "closed_rank": closed.rank,
            "unified_rank": unified.rank,
            "agree": True,
            "table": table.to_json_obj(),
        }, indent=2))
    elif fmt == "csv":
        _emit_table_rows([_row(field, closed)], SCAN_FIELDS, "csv")
    else:
        print(f"ell = {field.ell}  n = {field.n}  shape {shape_string(shape)}  delta={shape.delta}")
        print(f"closed form : rank {closed.rank}  (case {closed.case_tag})")
        print(f"class formula: rank {unified.rank}  (mu={unified.mu}, r*={unified.r_star})")
        print(table.to_text())
        print("paths agree: yes")
    return 0


def cmd_scan(args, fmt: str) -> int:
    """CSV streams one window at a time; text needs every row for its column
    widths, and JSON is one document."""
    fields = (SCAN_FIELDS + ("reason",)) if args.include_skipped else SCAN_FIELDS
    if fmt != "csv":
        _emit_table_rows(scan_rows(args.ell, args.n_max, jobs=args.jobs,
                                   include_skipped=args.include_skipped, rank_filter=args.rank),
                         fields, fmt)
        return 0
    windows = _scan_windows(args.ell, args.n_max, args.jobs)
    _emit_table_rows([], fields, fmt)
    for results in windows:
        _emit_table_rows(_selected(results, args.include_skipped, args.rank), fields, fmt,
                         header=False)
    return 0


def cmd_verify(args, fmt: str) -> int:
    """Re-check every built-in invariant over all valid n <= n_max."""
    primes = PrimeTable(args.ell)
    checks = {"cross_path": 0, "hilbert": 0, "bridge": 0, "classify": 0}
    failures: list[tuple[int, str]] = []
    fields_checked = 0
    for lo, hi in _windows(args.n_max):
        for n, field in _window_fields(primes, lo, hi):
            if isinstance(field, str):
                continue
            fields_checked += 1
            try:
                closed, unified = _ranks(field, primes)
            except InternalCheckError as exc:
                print(exc, file=sys.stderr)
                closed = unified = None
            e = conductor(to_williams(field), field.ell).e
            small = classify_small_rank(field).rank  # None from rank 4 on
            # hilbert and classify read the rank results, so they fail with them
            passed = {
                "cross_path": closed is not None,
                "hilbert": unified is not None and unified.table.row_products() == (1, 1, 1),
                "bridge": (e == 0) == (not field.shape.dyadic_ramifies),
                "classify": closed is not None
                            and small == (closed.rank if closed.rank <= 3 else None),
            }
            for check, ok in passed.items():
                if ok:
                    checks[check] += 1
                else:
                    failures.append((n, check))
    summary = {
        "ell": args.ell,
        "n_max": args.n_max,
        "fields_checked": fields_checked,
        "passed": checks,
        "failures": [{"n": n, "check": c} for n, c in failures],
    }
    if fmt == "json":
        print(json.dumps(summary, indent=2))
    else:
        print(f"ell = {args.ell}, n <= {args.n_max}: {fields_checked} fields checked")
        for name, count in checks.items():
            print(f"  {name}: {count} pass, {sum(1 for _, c in failures if c == name)} fail")
        for n, c in failures:
            print(f"  FAIL ell={args.ell} n={n} check={c}")
    return 0 if not failures else 3


def cmd_unit(args, fmt: str) -> int:
    ell = validate_ell(args.ell)
    unit = fundamental_unit(ell)
    if fmt == "json":
        print(json.dumps({"ell": ell, "u": unit.u, "v": unit.v}, indent=2))
    elif fmt == "csv":
        _emit_table_rows([{"ell": ell, "u": unit.u, "v": unit.v}], ("ell", "u", "v"), "csv")
    else:
        print(f"eps0 = ({unit.u} + {unit.v}*sqrt({ell}))/2")
        print(f"u = {unit.u}")
        print(f"v = {unit.v}")
        lhs = unit.u ** 2 - ell * unit.v ** 2
        print(f"check: u^2 - {ell}*v^2 = {lhs} (expected -4)")
    return 0


def cmd_conductor(args, fmt: str) -> int:
    field = validate(args.ell, args.n)
    w = to_williams(field)
    cond = conductor(w, field.ell)
    payload = {"ell": field.ell, "n": field.n, "a": w.a, "b": w.b, "c": w.c,
               "e": cond.e, "f": cond.f}
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    elif fmt == "csv":
        _emit_table_rows([payload], tuple(payload), "csv")
    else:
        print(f"canonical form: a={w.a}, b={w.b}, c={w.c}  ({w.b}^2 + {w.c}^2 = {field.ell})")
        print(f"e = {cond.e}")
        print(f"f = 2^{cond.e} * {w.a} * {field.ell} = {cond.f}")
    return 0


def cmd_poly(args, fmt: str) -> int:
    field = validate(args.ell, args.n)
    poly = defining_polynomial(field)
    if fmt == "json":
        print(json.dumps({"ell": field.ell, "n": field.n,
                          "coefficients": list(poly.coefficients),
                          "pretty": str(poly)}, indent=2))
    elif fmt == "csv":
        c4, c3, c2, c1, c0 = poly.coefficients
        _emit_table_rows([{"ell": field.ell, "n": field.n,
                           "c4": c4, "c3": c3, "c2": c2, "c1": c1, "c0": c0}],
                         ("ell", "n", "c4", "c3", "c2", "c1", "c0"), "csv")
    else:
        print(str(poly))
        print(f"coefficients: {', '.join(str(c) for c in poly.coefficients)}")
    return 0


def cmd_table(args, fmt: str) -> int:
    field = validate(args.ell, args.n)
    table = character_table(field.shape, field.ell)
    if fmt == "json":
        print(json.dumps({"ell": field.ell, "n": field.n, **table.to_json_obj()}, indent=2))
    elif fmt == "csv":
        labels = table.column_labels()
        rows = [dict({"unit": unit}, **dict(zip(labels, row)))
                for unit, row in zip(("-1", "eps", "-eps"), table.entries)]
        _emit_table_rows(rows, ("unit", *labels), "csv")
    else:
        print(table.to_text())
    return 0


def cmd_classify(args, fmt: str) -> int:
    field = validate(args.ell, args.n)
    cls = classify_small_rank(field)
    if fmt == "json":
        print(json.dumps({
            "ell": field.ell, "n": field.n,
            "rank": cls.rank,
            "pattern": cls.pattern.pattern_id if cls.pattern else None,
            "description": cls.pattern.description if cls.pattern else None,
        }, indent=2))
    elif fmt == "csv":
        _emit_table_rows([{"ell": field.ell, "n": field.n,
                           "rank": "" if cls.rank is None else cls.rank,
                           "pattern": cls.pattern.pattern_id if cls.pattern else ""}],
                         ("ell", "n", "rank", "pattern"), "csv")
    else:
        if cls.pattern is None:
            print("rank >= 4 (matches no small-rank shape)")
        else:
            print(f"rank {cls.rank} (pattern {cls.pattern.pattern_id}: {cls.pattern.description})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qtr",
                                     description="2-rank of the class group of "
                                                 "Q(sqrt(n*eps0*sqrt(ell))), ell prime = 5 (mod 8)")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default=None,
                        help="output format (default: text, or QTR_DEFAULT_FORMAT)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, *, n=False, n_max=False, scan_opts=False):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("--ell", type=int, required=True, help="prime = 5 (mod 8)")
        if n:
            p.add_argument("--n", type=int, required=True,
                           help="squarefree positive integer coprime to ell")
        if n_max:
            p.add_argument("--n-max", type=int, required=True, help="scan bound for n")
        if scan_opts:
            p.add_argument("--rank", type=int, default=None, help="keep only rows of this rank")
            p.add_argument("--jobs", type=int, default=1, help="worker processes")
            p.add_argument("--include-skipped", action="store_true",
                           help="also list invalid n with the reason")
        p.set_defaults(func=func)
        return p

    add("rank", cmd_rank, "rank by both paths, with the character table", n=True)
    add("scan", cmd_scan, "census of all valid n up to a bound", n_max=True, scan_opts=True)
    add("verify", cmd_verify, "run all cross-checks over a range", n_max=True)
    add("unit", cmd_unit, "fundamental unit of Q(sqrt(ell))")
    add("conductor", cmd_conductor, "conductor of the field of (ell, n)", n=True)
    add("poly", cmd_poly, "defining polynomial of the field of (ell, n)", n=True)
    add("table", cmd_table, "character table of (ell, n)", n=True)
    add("classify", cmd_classify, "small-rank shape classification", n=True)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built by build_parser() at first use;
    parse_args leaves it unchanged, so every call in a process can share it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    fmt = args.format or os.environ.get("QTR_DEFAULT_FORMAT") or "text"
    if fmt not in FORMATS:
        print(f"error: unknown format {fmt!r} (choose from {', '.join(FORMATS)})",
              file=sys.stderr)
        return 2
    # Answers are exact ints, and the unit and the polynomial of a large ell
    # pass CPython's 4300-digit int-to-str limit; input was parsed under it.
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args, fmt)
    except (FieldInputError, JobsNotPositive) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    finally:
        sys.set_int_max_str_digits(previous)


if __name__ == "__main__":
    sys.exit(main())
