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
from itertools import islice
from math import isqrt, prod

from .classify import classify_small_rank, small_rank_pattern
from .errors import FieldInputError, InternalCheckError, JobsNotPositive
from .ntheory import base_primes, legendre, two_squares
from .quad import SplittingType, fundamental_unit, splitting_type
from .quartic import (KIND_LETTERS, NShape, conductor, conductor_parts, defining_polynomial,
                      prime_kind, shape_class, to_williams, validate, validate_ell, williams_abc)
from .rank import UNIT_LABELS, character_table, flat_ranks

FORMATS = ("text", "csv", "json")
SCAN_FIELDS = ("n", "delta", "shape", "mu", "r_star", "rank", "case", "conductor")
_CHUNK = 512
_WHEEL = 2 * 3 * 5 * 7  # the period of PrimeTable.wheel


def _shape_text(shape: NShape) -> str:
    """Compact shape of n from the kind and tag letters (KIND_LETTERS) of its
    odd primes ascending, e.g. 'p·q·q [I,S,I]'; '1' when n is 1 or 2."""
    if not shape.kinds:
        return "1"
    kinds, tags = zip(*(KIND_LETTERS[kind] for kind in shape.kinds))
    return f"{'·'.join(kinds)} [{','.join(tags)}]"


# Bits of one kind in the census's key (_keyed_fields): four kinds fit.
CLASS_ID_BITS = 2


class PrimeTable(dict):
    """The kinds (prime_kind) of the odd primes p != ell of n in a census of
    one ell, keyed by p mod 4 * ell, which fixes p mod 4 and, by reciprocity,
    (p/ell): each class's kind is filled from its least residue.  One serves
    a scan or a verify call; under --jobs J the scan's own process fills it
    in its windows, and each of the J - 1 forked workers its own copy in
    theirs.  It keeps a memo per shape class, `classes`: a scan row's parts
    (_shape_row) or verify's conductor exponent (_class_checks).  A
    FieldInput never builds one."""

    def __init__(self, ell: int):
        self.ell = validate_ell(ell)
        self.classes: dict[int, tuple | int] = {}

    def __missing__(self, r: int) -> int:
        kind = self[r] = prime_kind(r, splitting_type(r, self.ell))
        return kind

    @functools.cached_property
    def wheel(self) -> tuple[list[int], list[int]]:
        """Where each window of _keyed_fields starts, built at a process's first
        window: the keys and products mod _WHEEL of delta, 3, 5 and 7 (ell = 5
        only in the product)."""
        keys = [2 - r % 2 for r in range(_WHEEL)]
        product = keys[:]
        for p in (3, 5, 7):
            for r in range(0, _WHEEL, p):
                product[r] *= p
                if p != self.ell:
                    keys[r] = keys[r] << CLASS_ID_BITS | self[p % (4 * self.ell)]
        return keys, product


def _windows(n_max: int):
    """The windows [lo, hi) of n = 1..n_max, ascending, _CHUNK wide."""
    for lo in range(1, n_max + 1, _CHUNK):
        yield lo, min(lo + _CHUNK, n_max + 1)


def _keyed_fields(primes: PrimeTable, lo: int, hi: int) -> list[int | str]:
    """The census step over n in [lo, hi), 1 <= lo: for each n, the
    hypothesis it fails, checked in FieldInput's order ("NotSquarefree" or
    "NotCoprime"), or else the int key of its shape class.

    A keyed segmented sieve: the product of the primes dividing n starts at
    delta, and each odd prime p <= sqrt(hi - 1) is multiplied in (0 at a
    multiple of p^2 or 4), so a squarefree n is its product times 1 or one
    larger prime.  The key's digits base 2**CLASS_ID_BITS are delta (never
    0), then the odd primes' kinds ascending (PrimeTable), a base prime's
    looked up once per window, the leftover's last.  A window starts from the
    table's wheel of delta, 3, 5 and 7, so its prime loops begin at 11; its
    square loops run for every base prime.  ell is never looked up, and each
    other odd prime p is first looked up at n = p, by first_kind.
    """
    ell = primes.ell
    modulus, size = 4 * ell, hi - lo
    split = [prime_kind(r, SplittingType.SPLIT) for r in range(4)]  # by p mod 4

    def first_kind(p: int) -> int:  # at n = p, where a split p's (ell/p) = +1 is checked
        kind = primes[p % modulus]
        if kind == split[p % 4] and legendre(ell, p) != 1:
            raise InternalCheckError(f"ell={ell} prime={p}: split, but ({ell}/{p}) != 1")
        return kind

    start, copies = lo % _WHEEL, (lo % _WHEEL + size) // _WHEEL + 1
    keys, product = ((wheel * copies)[start : start + size] for wheel in primes.wheel)
    for p in (3, 5, 7):
        if lo <= p < hi and p != ell:
            first_kind(p)
    for p in base_primes(max(2, isqrt(hi - 1))):
        if p == ell and p > 7:
            for i in range(-lo % p, size, p):
                product[i] *= p
        elif p > 7:
            kind = first_kind(p) if lo <= p else primes[p % modulus]
            for i in range(-lo % p, size, p):
                keys[i] = keys[i] << CLASS_ID_BITS | kind
                product[i] *= p
        for i in range(-lo % (p * p), size, p * p):
            product[i] = 0
    out = []
    for n, key, d in zip(range(lo, hi), keys, product):
        if not d:
            out.append("NotSquarefree")
        elif n % d:
            raise InternalCheckError(f"sieve product {d} times rest {n // d} is not n = {n}")
        elif n % ell == 0:
            out.append("NotCoprime")
        elif n == d:
            out.append(key)
        elif d == 1:  # n is a prime, at its first lookup
            out.append(key << CLASS_ID_BITS | first_kind(n))
        else:  # the leftover n // d is a prime looked up before
            out.append(key << CLASS_ID_BITS | primes[n // d % modulus])
    return out


def _class_step(key: int) -> NShape:
    """The shape record of the shape class of key (quartic.shape_class, with
    no primes), whose digits (see _keyed_fields) are delta and the kinds of
    its odd primes."""
    kinds = []
    while key >> CLASS_ID_BITS:
        key, kind = divmod(key, 1 << CLASS_ID_BITS)
        kinds.append(kind)
    return shape_class(key, kinds[::-1])


def _shape_row(ell: int, n: int, shape: NShape) -> tuple[tuple, str, int]:
    """What a field (ell, n) of the given shape writes in a scan row, once
    both rank paths agree at n: the values between n and the conductor in
    SCAN_FIELDS order, their CSV text (_csv_text, so the csv module does the
    quoting), and f/n = 2^e * ell/delta, the same on the whole shape class:
    for even n, b is the odd leg of ell, so e = 3; for odd n, b = 2 (mod 4)
    and n = (-1)^s (mod 4), so e = 2 or 0 by the parity of s, which the
    class fixes.  verify's bridge check still reads e at every field."""
    mu, r_star, rank, case = flat_ranks(ell, n, shape)
    f = conductor_parts(*williams_abc(n, two_squares(ell))[:2], ell)[1]
    if f % n:
        raise InternalCheckError(f"ell={ell} n={n} check=conductor: f = {f} is not a multiple of n")
    values = (shape.delta, _shape_text(shape), mu, r_star, rank, case)
    return values, _csv_text([values])[:-1], f // n


_NO_ROW = ("",) * (len(SCAN_FIELDS) - 1)
_NO_ROW_CSV = "," * len(SCAN_FIELDS)
_CLASS_RANK = SCAN_FIELDS.index("rank") - 1  # the rank's index in a class's values


def _window_step(primes: PrimeTable, lo: int, hi: int, include_skipped: bool,
                 rank_filter: int | None, as_csv: bool) -> list[tuple] | str:
    """One window of a scan: the rows of n in [lo, hi) that include_skipped
    and rank_filter keep, as value tuples in SCAN_FIELDS order, or as CSV
    text.  With include_skipped, each row has a reason, and a rejected n has
    only n and it.  The first field of each shape class builds its values,
    their text and f/n (_shape_row) and keeps them in primes.classes, unless a
    check fails; the rest of the class reads them there, so its CSV line is
    n, the class's text and n * f/n."""
    memo, ell = primes.classes, primes.ell
    end, reason = (",\n", ("",)) if include_skipped else ("\n", ())
    out = []
    for n, key in zip(range(lo, hi), _keyed_fields(primes, lo, hi)):
        if type(key) is str:
            if include_skipped:
                out.append(f"{n}{_NO_ROW_CSV}{key}\n" if as_csv else (n, *_NO_ROW, key))
            continue
        shape = memo.get(key)
        if shape is None:
            shape = memo[key] = _shape_row(ell, n, _class_step(key))
        values, text, ratio = shape
        if rank_filter is not None and values[_CLASS_RANK] != rank_filter:
            continue
        f = n * ratio
        out.append(f"{n},{text},{f}{end}" if as_csv else (n, *values, f, *reason))
    return "".join(out) if as_csv else out


def _csv_text(rows) -> str:
    """rows as CSV lines."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _scan_chunk(args: tuple) -> list[tuple] | str:
    """One step in a forked pool worker (_run_worker): _window_step on the
    step, headed by the prime table.  The scan's own process calls
    _window_step for its windows, so rebinding this reaches the forked
    workers alone."""
    return _window_step(*args)


def _usable_cpus() -> int | None:
    """The CPUs this process may run on; os.cpu_count() counts the machine's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def pool_size(jobs: int, chunks: int, cpus: int | None) -> int:
    """Processes that compute a scan's windows: at most one per chunk and one
    per CPU.  The scan's own process is one of them, so a pool of J forks
    J - 1 workers."""
    return max(1, min(jobs, chunks, cpus or 1))


def _run_worker(worker: int, workers: int, steps, write_fd: int) -> None:
    """In forked child `worker`, 1 <= worker < workers (the scan's own
    process is worker 0): steps worker, worker + workers, ... in order,
    each result, or the exception it raised, pickled down write_fd."""
    import pickle

    with open(write_fd, "wb") as pipe:
        for step in islice(steps, worker, None, workers):
            try:
                message = (True, _scan_chunk(step))
            except Exception as exc:
                message = (False, exc)
            pickle.dump(message, pipe)
            pipe.flush()
            if not message[0]:
                return


def _pooled(workers: int, steps):
    """The steps' results in step order, from `workers` processes: this one
    runs steps 0, workers, 2 * workers, ... itself (_window_step), all of
    them when workers is 1, and workers - 1 forked children (_run_worker)
    run the rest, dealt round-robin.  The children inherit the steps, an
    iterator none has started, each headed by the scan's prime table, and
    are forked before this process's first step, so it overlaps their
    start-up.  qtr starts no threads, so forking is safe, and the children
    inherit the module state a caller or a tracer has set."""
    readers, pids = [], []
    try:
        for worker in range(1, workers):
            import pickle  # before the first fork, so no child imports it; not with one worker
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
        for index, step in enumerate(steps):
            if index % workers == 0:
                yield _window_step(*step)
                continue
            primes, lo, hi, *_ = step
            try:
                ok, result = pickle.load(readers[index % workers - 1])
            except (EOFError, pickle.UnpicklingError):
                raise InternalCheckError(f"ell={primes.ell} window n={lo}..{hi - 1}: "
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
    order from _pooled, each step made as it runs, in one process without
    os.fork.  ell and jobs are checked here, before any window is computed."""
    primes = PrimeTable(ell)
    if jobs < 1:
        raise JobsNotPositive(f"jobs = {jobs}: a scan needs at least one worker")
    steps = ((primes, lo, hi, include_skipped, rank_filter, as_csv) for lo, hi in _windows(n_max))
    workers = pool_size(jobs, -(-n_max // _CHUNK), _usable_cpus()) if hasattr(os, "fork") else 1
    return _pooled(workers, steps)


def scan_rows(ell: int, n_max: int, jobs: int = 1, include_skipped: bool = False,
              rank_filter: int | None = None) -> list[dict]:
    """The scan's rows as dicts keyed by SCAN_FIELDS (and "reason" with
    include_skipped), ascending by n.  Windows are merged in order, so the
    output is identical for every jobs count."""
    fields = (SCAN_FIELDS + ("reason",)) if include_skipped else SCAN_FIELDS
    return [dict(zip(fields, values))
            for rows in _scan_windows(ell, n_max, jobs, include_skipped, rank_filter, False)
            for values in rows]


def _answer(fmt: str, record, text, table=None) -> None:
    """Write one answer in fmt.  record, text and table are functions, and
    only the one fmt reads runs: JSON is the dict record(), CSV the rows
    table(), header first, or else record()'s keys over its values, and
    text the lines text()."""
    if fmt == "json":
        print(json.dumps(record(), indent=2))
    elif fmt == "csv":
        sys.stdout.write(_csv_text(table() if table else zip(*record().items())))
    else:
        print(*text(), sep="\n")


def _emit_table_rows(rows: list, fields: tuple[str, ...]) -> None:
    """Write the scan's rows, each a sequence of values in fields order, as a
    text table."""
    if not rows:
        return
    # one column at a time, so no second, all-str copy of the rows is kept
    widths = [max(len(f), *map(len, map(str, column)))
              for f, column in zip(fields, zip(*rows))]
    print("  ".join(f.ljust(w) for f, w in zip(fields, widths)).rstrip())
    for row in rows:
        print("  ".join(str(x).ljust(w) for x, w in zip(row, widths)).rstrip())


def cmd_rank(args, fmt: str) -> int:
    """Both rank paths on the field's shape (flat_ranks, as in the census),
    and the character table of its rows; in CSV, the field's scan row
    (_shape_row)."""
    field = validate(args.ell, args.n)
    ell, n, shape = field.ell, field.n, field.shape

    def scan_row():
        values, _, ratio = _shape_row(ell, n, shape)
        return [SCAN_FIELDS, (n, *values, n * ratio)]

    def ranks():
        return flat_ranks(ell, n, shape), character_table(shape, ell)

    def record():
        (mu, r_star, rank, case), table = ranks()
        return {"ell": ell, "n": n, "rank": rank, "mu": mu, "r_star": r_star, "case": case,
                "closed_rank": rank, "unified_rank": rank, "agree": True,
                "table": table.to_json_obj()}

    def text():
        (mu, r_star, rank, case), table = ranks()
        return [f"ell = {ell}  n = {n}  shape {_shape_text(shape)}  delta={shape.delta}",
                f"closed form : rank {rank}  (case {case})",
                f"class formula: rank {rank}  (mu={mu}, r*={r_star})",
                table.to_text(), "paths agree: yes"]

    _answer(fmt, record, text, scan_row)
    return 0


def cmd_scan(args, fmt: str) -> int:
    """CSV streams one window at a time; text needs every row for its column
    widths, and JSON is one document, of scan_rows."""
    options = (args.ell, args.n_max, args.jobs, args.include_skipped, args.rank)
    fields = (SCAN_FIELDS + ("reason",)) if args.include_skipped else SCAN_FIELDS
    if fmt == "json":
        _answer(fmt, lambda: scan_rows(*options), None)
    elif fmt == "text":
        _emit_table_rows([row for rows in _scan_windows(*options, False) for row in rows], fields)
    else:
        windows = _scan_windows(*options, True)
        sys.stdout.write(_csv_text([fields]))
        try:
            for text in windows:
                sys.stdout.write(text)
        finally:
            windows.close()  # so a failed write still reaps the pool's workers
    return 0


_CHECKS = ("cross_path", "hilbert", "bridge", "classify")


def _class_checks(ell: int, n: int, shape: NShape) -> tuple[int, tuple]:
    """The conductor exponent e of a shape class, and whether the class
    passes cross_path, hilbert and classify at its field n; a cross_path
    failure goes to stderr, named by n.  e is 3 for even n (b odd) and, for
    odd n, 2 or 0 as the dyadic prime ramifies or not (see _shape_row)."""
    try:
        rank = flat_ranks(ell, n, shape).rank
    except InternalCheckError as exc:
        print(exc, file=sys.stderr)
        rank = None
    pattern = small_rank_pattern(shape, ell, n)
    small = pattern.rank if pattern else None  # None from rank 4 on
    e = 3 if shape.delta == 2 else (2 if shape.dyadic_ramifies else 0)
    # hilbert and classify read the rank results, so they fail with them
    return e, (rank is not None,
               rank is not None and tuple(map(prod, shape.rows)) == (1, 1, 1),
               rank is not None and small == (rank if rank <= 3 else None))


def cmd_verify(args, fmt: str) -> int:
    """Re-check every built-in invariant over all valid n <= n_max.  bridge
    compares each field's conductor exponent with its class's; the other
    checks run once per shape class, whose exponent primes.classes keeps
    once all three pass.  A class that fails one is checked again at each of
    its fields, so each failure names its n."""
    primes = PrimeTable(args.ell)
    memo = primes.classes
    ell, legs = primes.ell, two_squares(primes.ell)
    failures: list[tuple[int, str]] = []
    fields_checked = 0
    for lo, hi in _windows(args.n_max):
        for n, key in zip(range(lo, hi), _keyed_fields(primes, lo, hi)):
            if type(key) is str:
                continue
            a, b, _ = williams_abc(n, legs)
            e = conductor_parts(a, b, ell)[0]
            fields_checked += 1
            expected = memo.get(key)
            if expected is None:
                expected, (cross_path, hilbert, classify) = _class_checks(ell, n, _class_step(key))
                if cross_path and hilbert and classify:
                    memo[key] = expected
                passed = (cross_path, hilbert, e == expected, classify)
                failures += [(n, check) for check, ok in zip(_CHECKS, passed) if not ok]
            elif e != expected:
                failures.append((n, "bridge"))
    checks = {check: fields_checked - sum(1 for _, c in failures if c == check)
              for check in _CHECKS}
    counts = [(check, count, fields_checked - count) for check, count in checks.items()]
    fails = [f"FAIL ell={args.ell} n={n} check={c}" for n, c in failures]
    _answer(fmt, lambda: {"ell": args.ell, "n_max": args.n_max, "fields_checked": fields_checked,
                          "passed": checks,
                          "failures": [{"n": n, "check": c} for n, c in failures]},
            lambda: [f"ell = {args.ell}, n <= {args.n_max}: {fields_checked} fields checked",
                     *(f"  {check}: {count} pass, {fail} fail" for check, count, fail in counts),
                     *(f"  {line}" for line in fails)],
            lambda: [("check", "pass", "fail"), *counts])
    if fmt == "csv" and fails:
        print(*fails, sep="\n", file=sys.stderr)
    return 0 if not failures else 3


def cmd_unit(args, fmt: str) -> int:
    ell = validate_ell(args.ell)
    u, v = fundamental_unit(ell)
    _answer(fmt, lambda: {"ell": ell, "u": u, "v": v},
            lambda: [f"eps0 = ({u} + {v}*sqrt({ell}))/2", f"u = {u}", f"v = {v}",
                     f"check: u^2 - {ell}*v^2 = {u ** 2 - ell * v ** 2} (expected -4)"])
    return 0


def cmd_conductor(args, fmt: str) -> int:
    field = validate(args.ell, args.n)
    ell, w = field.ell, to_williams(field)
    (a, b, c), (e, f) = w, conductor(w, ell)
    _answer(fmt, lambda: {"ell": ell, "n": field.n, "a": a, "b": b, "c": c, "e": e, "f": f},
            lambda: [f"canonical form: a={a}, b={b}, c={c}  ({b}^2 + {c}^2 = {ell})",
                     f"e = {e}", f"f = 2^{e} * {a} * {ell} = {f}"])
    return 0


def cmd_poly(args, fmt: str) -> int:
    field = validate(args.ell, args.n)
    poly = defining_polynomial(field)
    ell, n, coefficients = field.ell, field.n, poly.coefficients
    _answer(fmt, lambda: {"ell": ell, "n": n, "coefficients": coefficients, "pretty": str(poly)},
            lambda: [str(poly), f"coefficients: {', '.join(map(str, coefficients))}"],
            lambda: [("ell", "n", "c4", "c3", "c2", "c1", "c0"), (ell, n, *coefficients)])
    return 0


def cmd_table(args, fmt: str) -> int:
    field = validate(args.ell, args.n)
    table = character_table(field.shape, field.ell)
    _answer(fmt, lambda: {"ell": field.ell, "n": field.n, **table.to_json_obj()},
            lambda: [table.to_text()],
            lambda: [("unit", *table.column_labels()),
                     *((unit, *row) for unit, row in zip(UNIT_LABELS, table.entries))])
    return 0


def cmd_classify(args, fmt: str) -> int:
    """The small-rank pattern of the field; CSV writes no description, and
    an empty rank and pattern (the csv module's None) from rank 4 on."""
    field = validate(args.ell, args.n)
    cls = classify_small_rank(field)
    pattern = cls.pattern
    record = {"ell": field.ell, "n": field.n, "rank": cls.rank,
              "pattern": pattern.pattern_id if pattern else None,
              "description": pattern.description if pattern else None}
    _answer(fmt, lambda: record,
            lambda: [f"rank {cls.rank} (pattern {pattern.pattern_id}: {pattern.description})"
                     if pattern else "rank >= 4 (matches no small-rank shape)"],
            lambda: [tuple(record)[:4], tuple(record.values())[:4]])
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
        p = sub.add_parser(name, parents=[common], help=help_text, description=help_text)
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
    add("verify", cmd_verify, "run all cross-checks over a range (--format csv: one row per "
                              "check, failures on stderr)", n_max=True)
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
