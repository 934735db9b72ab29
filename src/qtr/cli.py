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
Exit codes: 0 ok, 1 stdout closed before the output was written (e.g. piped
into head), 2 invalid input, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from math import prod

from .classify import classify_small_rank, small_rank_pattern
from .errors import FieldInputError, InternalCheckError, JobsNotPositive
from .ntheory import squarefree_window, two_squares
from .quad import fundamental_unit
from .quartic import (KIND_LETTERS, FieldInput, conductor, conductor_parts, defining_polynomial,
                      dyadic_ramifies, prime_kind, to_williams, validate, validate_ell,
                      williams_abc)
from .rank import (CLASS_ID_BITS, DYADIC_PARTS, SQRT_ELL_PART, UNIT_LABELS, NShape, PrimeTable,
                   RankResult, character_table, flat_ranks, rank_closed, rank_unified, unit_rows)

FORMATS = ("text", "csv", "json")
SCAN_FIELDS = ("n", "delta", "shape", "mu", "r_star", "rank", "case", "conductor")
_RANK = SCAN_FIELDS.index("rank")
_CHUNK = 512


def _shape_text(kinds: list[str], tags: list[str]) -> str:
    """Compact shape of n from the kind and tag letters of its odd primes
    ascending, e.g. 'p·q·q [I,S,I]'; '1' when n is 1 or 2."""
    if not kinds:
        return "1"
    return f"{'·'.join(kinds)} [{','.join(tags)}]"


def shape_string(shape: NShape) -> str:
    """The compact shape of a stored shape."""
    letters = [KIND_LETTERS[prime_kind(prime, tag)] for prime, tag in shape.tagged]
    return _shape_text([kind for kind, _ in letters], [tag for _, tag in letters])


def _row(field: FieldInput, closed: RankResult) -> tuple:
    """The scan row of one field, in SCAN_FIELDS order."""
    return (field.n, field.shape.delta, shape_string(field.shape), closed.mu, closed.r_star,
            closed.rank, closed.case_tag, conductor(to_williams(field), field.ell).f)


def _windows(n_max: int):
    """The windows [lo, hi) of n = 1..n_max, ascending, _CHUNK wide."""
    for lo in range(1, n_max + 1, _CHUNK):
        yield lo, min(lo + _CHUNK, n_max + 1)


def _cross_path(ell: int, n: int, exc: InternalCheckError) -> InternalCheckError:
    """A failed check of either rank path, named by the field and cross_path."""
    return InternalCheckError(f"ell={ell} n={n} check=cross_path: {exc}")


def _ranks(field: FieldInput) -> tuple[RankResult, RankResult]:
    """The field's rank by both paths, once they agree."""
    try:
        closed = rank_closed(field)
        unified = rank_unified(field)
        if closed != unified:
            raise InternalCheckError(f"rank paths disagree: closed={closed} unified={unified}")
    except InternalCheckError as exc:
        raise _cross_path(field.ell, field.n, exc) from exc
    return closed, unified


def _fields(primes: PrimeTable, lo: int, hi: int):
    """The census step over n in [lo, hi), read off the squarefree sieve:
    ("skip", n, reason) for a rejected n, checked in FieldInput's order, or
    ("field", n, key, factors, (e, f)): the key of the shape class of n (its
    parity and its odd primes' class ids ascending, CLASS_ID_BITS each; see
    PrimeTable), its primes, and the conductor's exponent and value."""
    ell = primes.ell
    legs = two_squares(ell)
    for n, factors in zip(range(lo, hi), squarefree_window(lo, hi)):
        if factors is None:
            yield "skip", n, "NotSquarefree"
            continue
        if prod(factors) != n:
            raise InternalCheckError(f"sieve primes {factors} do not multiply to n = {n}")
        if n % ell == 0:
            yield "skip", n, "NotCoprime"
            continue
        # digits base 2**CLASS_ID_BITS: delta (never 0) first, then the ids
        key = 2 - n % 2
        for prime in factors:
            if prime != 2:
                key = key << CLASS_ID_BITS | primes[prime][5]
        a, b, _ = williams_abc(n, legs)
        yield "field", n, key, factors, conductor_parts(a, b, ell)


def _shape_class(primes: PrimeTable, n: int, factors: list[int]) -> tuple:
    """What the census reads of the shape of n, from its primes' entries:
    (delta, dyadic, counts [t1, t2, s1, s2], the odd primes' kind and tag
    letters ascending, the rows -1, eps, -eps of the character table)."""
    counts = [0, 0, 0, 0]
    kinds, tags = [], []
    row_m1, row_eps = [*SQRT_ELL_PART.minus_one], [*SQRT_ELL_PART.eps]
    for prime in factors:
        if prime != 2:
            kind, kind_letter, tag_letter, m1, eps, _ = primes[prime]
            counts[kind] += 1
            kinds.append(kind_letter)
            tags.append(tag_letter)
            row_m1 += m1
            row_eps += eps
    delta = 2 - n % 2
    s = counts[2] + counts[3]
    dyadic = dyadic_ramifies(delta, s)
    if dyadic:
        row_m1 += DYADIC_PARTS[s % 2].minus_one
        row_eps += DYADIC_PARTS[s % 2].eps
    return delta, dyadic, counts, kinds, tags, unit_rows(row_m1, row_eps)


def _window_rows(primes: PrimeTable, lo: int, hi: int) -> list:
    """("row", values in SCAN_FIELDS order) for each field with n in
    [lo, hi), once both rank paths agree, and ("skip", n, reason) for each
    rejected n.  The first field of each shape class builds its shape and
    ranks (flat_ranks) and keeps them in primes.rows, unless a check fails;
    the rest of the class reads them there."""
    ell = primes.ell
    memo = primes.rows
    out = []
    for step in _fields(primes, lo, hi):
        if step[0] == "skip":
            out.append(step)
            continue
        _, n, key, factors, (_, f) = step
        shape = memo.get(key)
        if shape is None:
            delta, dyadic, counts, kinds, tags, rows = _shape_class(primes, n, factors)
            try:
                mu, r_star, rank, case = flat_ranks(ell, n, dyadic, *counts, rows)
            except InternalCheckError as exc:
                raise _cross_path(ell, n, exc) from exc
            shape = memo[key] = (delta, _shape_text(kinds, tags), mu, r_star, rank, case)
        out.append(("row", (n, *shape, f)))
    return out


_NO_ROW = ("",) * (len(SCAN_FIELDS) - 1)


def _window_step(primes: PrimeTable, lo: int, hi: int, include_skipped: bool,
                 rank_filter: int | None, as_csv: bool) -> list[tuple] | str:
    """One window of a scan: its output rows as value tuples, or as CSV text.
    With include_skipped, each row has a reason, and a rejected n has only n
    and it."""
    rows = []
    for result in _window_rows(primes, lo, hi):
        if result[0] == "skip":
            if include_skipped:
                rows.append((result[1], *_NO_ROW, result[2]))
            continue
        values = result[1]
        if rank_filter is not None and values[_RANK] != rank_filter:
            continue
        rows.append((*values, "") if include_skipped else values)
    return _csv_text(rows) if as_csv else rows


def _csv_text(rows: list) -> str:
    """rows as CSV lines."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


_worker_primes: PrimeTable | None = None


def _start_worker(ell: int) -> None:
    """The pool's one prime table, built before the workers fork, for every
    window they run."""
    global _worker_primes
    _worker_primes = PrimeTable(ell)


def _scan_chunk(args: tuple) -> list[tuple] | str:
    """One window step in a pool worker, on the worker's prime table."""
    return _window_step(_worker_primes, *args)


def _usable_cpus() -> int | None:
    """The CPUs this process may run on; os.cpu_count() counts the machine's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def pool_size(jobs: int, chunks: int, cpus: int | None) -> int:
    """Worker processes for a scan: at most one per chunk and one per CPU."""
    return max(1, min(jobs, chunks, cpus or 1))


def _run_worker(worker: int, workers: int, steps: list, write_fd: int) -> None:
    """In forked child `worker`: steps worker, worker + workers, ... in
    order, each result, or the exception it raised, pickled down write_fd."""
    import pickle

    with open(write_fd, "wb") as pipe:
        for step in steps[worker::workers]:
            try:
                message = (True, _scan_chunk(step))
            except Exception as exc:
                message = (False, exc)
            pickle.dump(message, pipe)
            pipe.flush()
            if not message[0]:
                return


def _pooled(workers: int, ell: int, steps: list):
    """The steps' results in step order, from `workers` forked children
    (_run_worker) that share one prime table built before they fork.  qtr
    starts no threads, so forking is safe, and the children inherit the
    module state a caller or a tracer has set."""
    import pickle

    _start_worker(ell)
    readers, pids = [], []
    try:
        for worker in range(workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    for reader in readers:
                        reader.close()
                    os.close(read_fd)
                    _run_worker(worker, workers, steps, write_fd)
                    code = 0
                finally:
                    # skip the parent's cleanup and its inherited stdio buffers
                    os._exit(code)
            pids.append(pid)
            os.close(write_fd)
            readers.append(open(read_fd, "rb"))
        for index, (lo, hi, *_) in enumerate(steps):
            try:
                ok, result = pickle.load(readers[index % workers])
            except (EOFError, pickle.UnpicklingError):
                raise InternalCheckError(f"ell={ell} window n={lo}..{hi - 1}: "
                                         f"its pool worker ended without a result") from None
            if not ok:
                raise result
            yield result
    finally:
        for reader in readers:
            reader.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _scan_windows(ell: int, n_max: int, jobs: int, include_skipped: bool,
                  rank_filter: int | None, as_csv: bool):
    """The output of each window of a scan (see _window_step), in window
    order.  ell and jobs are checked here, before any window is computed."""
    primes = PrimeTable(ell)
    if jobs < 1:
        raise JobsNotPositive(f"jobs = {jobs}: a scan needs at least one worker")
    steps = [(lo, hi, include_skipped, rank_filter, as_csv) for lo, hi in _windows(n_max)]
    workers = pool_size(jobs, len(steps), _usable_cpus())
    if workers == 1 or not hasattr(os, "fork"):
        return (_window_step(primes, *step) for step in steps)
    return _pooled(workers, ell, steps)


def scan_rows(ell: int, n_max: int, jobs: int = 1, include_skipped: bool = False,
              rank_filter: int | None = None) -> list[dict]:
    """ScanRows ascending by n.  Windows are merged in order, so the output
    is identical for every jobs count."""
    fields = (SCAN_FIELDS + ("reason",)) if include_skipped else SCAN_FIELDS
    return [dict(zip(fields, values))
            for rows in _scan_windows(ell, n_max, jobs, include_skipped, rank_filter, False)
            for values in rows]


def _emit_table_rows(rows: list, fields: tuple[str, ...], fmt: str) -> None:
    """Write rows, each a sequence of values in fields order."""
    if fmt == "csv":
        sys.stdout.write(_csv_text([fields, *rows]))
    elif fmt == "json":
        print(json.dumps([dict(zip(fields, row)) for row in rows], indent=2))
    else:
        if not rows:
            return
        # one column at a time, so no second, all-str copy of the rows is kept
        widths = [max(len(f), *map(len, map(str, column)))
                  for f, column in zip(fields, zip(*rows))]
        print("  ".join(f.ljust(w) for f, w in zip(fields, widths)).rstrip())
        for row in rows:
            print("  ".join(str(x).ljust(w) for x, w in zip(row, widths)).rstrip())


def cmd_rank(args, fmt: str) -> int:
    field = validate(args.ell, args.n)
    closed, unified = _ranks(field)
    shape, table = field.shape, unified.table
    if fmt == "json":
        print(json.dumps({"ell": field.ell, "n": field.n, "rank": closed.rank, "mu": closed.mu,
                          "r_star": closed.r_star, "case": closed.case_tag,
                          "closed_rank": closed.rank, "unified_rank": unified.rank,
                          "agree": True, "table": table.to_json_obj()}, indent=2))
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
    windows = _scan_windows(args.ell, args.n_max, args.jobs, args.include_skipped, args.rank,
                            fmt == "csv")
    if fmt != "csv":
        _emit_table_rows([row for rows in windows for row in rows], fields, fmt)
        return 0
    _emit_table_rows([], fields, fmt)
    try:
        for text in windows:
            sys.stdout.write(text)
    finally:
        windows.close()  # so a failed write still reaps the pool's workers
    return 0


_CHECKS = ("cross_path", "hilbert", "bridge", "classify")


def _class_checks(primes: PrimeTable, n: int, factors: list[int]) -> tuple[bool, tuple]:
    """The dyadic flag of the shape class of n, and whether the class passes
    cross_path, hilbert and classify; a cross_path failure goes to stderr,
    named by n."""
    ell = primes.ell
    delta, dyadic, counts, _, _, rows = _shape_class(primes, n, factors)
    try:
        rank = flat_ranks(ell, n, dyadic, *counts, rows)[2]
    except InternalCheckError as exc:
        print(_cross_path(ell, n, exc), file=sys.stderr)
        rank = None
    pattern = small_rank_pattern(delta, *counts, ell, n)
    small = pattern.rank if pattern else None  # None from rank 4 on
    # hilbert and classify read the rank results, so they fail with them
    return dyadic, (rank is not None,
                    rank is not None and tuple(map(prod, rows)) == (1, 1, 1),
                    rank is not None and small == (rank if rank <= 3 else None))


def cmd_verify(args, fmt: str) -> int:
    """Re-check every built-in invariant over all valid n <= n_max.  bridge
    runs on every field; the other checks run once per shape class, whose
    dyadic flag primes.checks keeps once all three pass.  A class that fails
    one is checked again at each of its fields, so each failure names its n."""
    primes = PrimeTable(args.ell)
    memo = primes.checks
    failures: list[tuple[int, str]] = []
    fields_checked = 0
    for lo, hi in _windows(args.n_max):
        for step in _fields(primes, lo, hi):
            if step[0] == "skip":
                continue
            _, n, key, factors, (e, _) = step
            fields_checked += 1
            dyadic = memo.get(key)
            if dyadic is None:
                dyadic, (cross_path, hilbert, classify) = _class_checks(primes, n, factors)
                if cross_path and hilbert and classify:
                    memo[key] = dyadic
                passed = (cross_path, hilbert, (e == 0) == (not dyadic), classify)
                failures += [(n, check) for check, ok in zip(_CHECKS, passed) if not ok]
            elif (e == 0) == dyadic:
                failures.append((n, "bridge"))
    checks = {check: fields_checked - sum(1 for _, c in failures if c == check)
              for check in _CHECKS}
    summary = {"ell": args.ell, "n_max": args.n_max, "fields_checked": fields_checked,
               "passed": checks, "failures": [{"n": n, "check": c} for n, c in failures]}
    if fmt == "json":
        print(json.dumps(summary, indent=2))
    else:
        print(f"ell = {args.ell}, n <= {args.n_max}: {fields_checked} fields checked")
        for name, count in checks.items():
            print(f"  {name}: {count} pass, {fields_checked - count} fail")
        for n, c in failures:
            print(f"  FAIL ell={args.ell} n={n} check={c}")
    return 0 if not failures else 3


def cmd_unit(args, fmt: str) -> int:
    ell = validate_ell(args.ell)
    unit = fundamental_unit(ell)
    if fmt == "json":
        print(json.dumps({"ell": ell, "u": unit.u, "v": unit.v}, indent=2))
    elif fmt == "csv":
        _emit_table_rows([(ell, unit.u, unit.v)], ("ell", "u", "v"), "csv")
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
        _emit_table_rows([tuple(payload.values())], tuple(payload), "csv")
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
        _emit_table_rows([(field.ell, field.n, *poly.coefficients)],
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
        rows = [(unit, *row) for unit, row in zip(UNIT_LABELS, table.entries)]
        _emit_table_rows(rows, ("unit", *table.column_labels()), "csv")
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
        _emit_table_rows([(field.ell, field.n, "" if cls.rank is None else cls.rank,
                           cls.pattern.pattern_id if cls.pattern else "")],
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
    except BrokenPipeError:
        # stdout was closed early, e.g. by `| head`: point it at devnull so
        # the flush at shutdown does not raise again (the Python docs' recipe)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    finally:
        sys.set_int_max_str_digits(previous)


if __name__ == "__main__":
    sys.exit(main())
