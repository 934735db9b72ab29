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
from itertools import compress, islice
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
    """The census state of one scan or verify call for one ell, built once by
    the census driver (_census).  Its items are the kinds (prime_kind) of the
    odd primes p != ell of n, keyed by p mod 4 * ell, which fixes p mod 4
    and, by reciprocity, (p/ell): each class's kind is filled from its least
    residue.  `classes` is its memo of one record per shape class, which
    _keyed_fields builds with `record(ell, n, shape)` at the class's first
    field n: a scan row's parts (_shape_row, the default) or verify's class
    checks (_class_checks).  `split_kinds` is a split prime's kind by p mod
    4.  Under --jobs J the scan's own process fills the table in its
    windows, and each of the J - 1 forked workers its own copy in theirs.  A
    FieldInput never builds one."""

    def __init__(self, ell: int, record=None):
        self.ell = validate_ell(ell)
        self.record = record or _shape_row
        self.classes: dict[int, tuple] = {}
        self.split_kinds = [prime_kind(r, SplittingType.SPLIT) for r in range(4)]

    def __missing__(self, r: int) -> int:
        kind = self[r] = prime_kind(r, splitting_type(r, self.ell))
        return kind

    @functools.cached_property
    def wheel(self) -> tuple[list[int], list[int]]:
        """The keys and products of delta, 3, 5 and 7 other than ell at
        n = 0, 1, ..., _WHEEL + _CHUNK - 1, built at a process's first window:
        a window of _keyed_fields at most _CHUNK wide starts as one slice of
        each."""
        keys = [2 - r % 2 for r in range(_WHEEL)]
        product = keys[:]
        for p in (3, 5, 7):
            if p != self.ell:
                for r in range(0, _WHEEL, p):
                    product[r] *= p
                    keys[r] = keys[r] << CLASS_ID_BITS | self[p % (4 * self.ell)]
        copies = _CHUNK // _WHEEL + 2
        return (keys * copies)[:_WHEEL + _CHUNK], (product * copies)[:_WHEEL + _CHUNK]


def _windows(n_max: int):
    """The windows [lo, hi) of n = 1..n_max, ascending, _CHUNK wide."""
    for lo in range(1, n_max + 1, _CHUNK):
        yield lo, min(lo + _CHUNK, n_max + 1)


def _keyed_fields(primes: PrimeTable, lo: int, hi: int,
                  skipped: bool = False) -> tuple[list[int], list[tuple | str]]:
    """The census kernel of scan and verify over n in [lo, hi), 1 <= lo: the
    valid n ascending and, in a parallel list, the record of each one's shape
    class in primes.classes, built by primes.record at the class's first
    field.  With skipped, every n is listed, and a rejected n's record is the
    hypothesis it fails, in FieldInput's order: "NotSquarefree", then
    "NotCoprime".

    A keyed segmented sieve: the product of the primes dividing n starts at
    delta, and each odd prime p != ell up to sqrt(hi - 1) is multiplied in,
    so a squarefree n prime to ell is its product times 1 or one larger
    prime.  ell's multiples are then checked (the product times ell divides
    n) and marked None, and the multiples of each base prime's square or 4
    marked 0 after them, so NotSquarefree wins; itertools.compress drops
    both marks.  The key's digits base 2**CLASS_ID_BITS are delta (never 0),
    then the odd primes' kinds ascending (PrimeTable), a base prime's looked
    up once per window, the leftover's last.  A window starts from the
    table's wheel of delta, 3, 5 and 7, so its prime loops begin at 11.  ell
    is never looked up, and each other odd prime p is first looked up at n =
    p, by first_kind.
    """
    ell, memo, record, bits = primes.ell, primes.classes, primes.record, CLASS_ID_BITS
    modulus, size, split = 4 * ell, hi - lo, primes.split_kinds

    def first_kind(p: int) -> int:  # at n = p, where a split p's (ell/p) = +1 is checked
        kind = primes[p % modulus]
        if kind == split[p % 4] and legendre(ell, p) != 1:
            raise InternalCheckError(f"ell={ell} prime={p}: split, but ({ell}/{p}) != 1")
        return kind

    start, wheel = lo % _WHEEL, primes.wheel
    if start + size > len(wheel[0]):  # a window wider than _CHUNK
        wheel = [w[:_WHEEL] * ((start + size) // _WHEEL + 1) for w in wheel]
    keys, product = (w[start:start + size] for w in wheel)
    for p in (3, 5, 7):
        if lo <= p < hi and p != ell:
            first_kind(p)
    base = base_primes(max(2, isqrt(hi - 1)))
    for p in base:
        if p > 7 and p != ell:
            kind = first_kind(p) if lo <= p else primes[p % modulus]
            for i in range(-lo % p, size, p):
                keys[i] = keys[i] << bits | kind
                product[i] *= p
    for i in range(-lo % ell, size, ell):  # NotCoprime, once the product is whole
        if (lo + i) % (d := product[i] * ell):
            raise _product_error(lo + i, d)
        product[i] = None
    for p in base:  # NotSquarefree, after ell's marks
        for i in range(-lo % (p * p), size, p * p):
            product[i] = 0
    fields, records = list(compress(range(lo, hi), product)), []
    append = records.append
    for n, key, d in zip(fields, compress(keys, product), compress(product, product)):
        if n % d:
            raise _product_error(n, d)
        if n != d:  # the leftover prime: at its first lookup if n is prime, else looked up before
            key = key << bits | (first_kind(n) if d == 1 else primes[n // d % modulus])
        try:
            found = memo[key]
        except KeyError:
            found = memo[key] = record(ell, n, _class_step(key))
        append(found)
    if not skipped:
        return fields, records
    kept = iter(records)
    return list(range(lo, hi)), [next(kept) if d else "NotCoprime" if d is None else "NotSquarefree"
                                 for d in product]


def _product_error(n: int, d: int) -> InternalCheckError:
    return InternalCheckError(f"sieve product {d} times rest {n // d} is not n = {n}")


# The base of the key's digits, as _class_step reads them back.
_KIND_BASE = 1 << CLASS_ID_BITS


def _class_step(key: int) -> NShape:
    """The shape record of the shape class of key (quartic.shape_class, with
    no primes), whose digits base _KIND_BASE (see _keyed_fields) are delta
    and the kinds of its odd primes."""
    kinds = []
    while key >= _KIND_BASE:
        key, kind = divmod(key, _KIND_BASE)
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
_CLASS_RANK = SCAN_FIELDS.index("rank") - 1  # the rank's index in a class's values


def _scan_chunk(args: tuple) -> tuple | list[tuple] | str:
    """One census window, args = (primes, lo, hi, *options), from one pass
    of _keyed_fields over n in [lo, hi): the step of every process of the
    pool (_pooled), so a wrapper of this name sees every window.  verify
    gives no options and reads the pass itself.  A scan's options give the
    rows that include_skipped and rank_filter keep, as value tuples in
    SCAN_FIELDS order, or as CSV text (as_csv), from the class parts of
    _shape_row: a field's CSV line is n, its class's text and n * f/n.  With
    include_skipped, each row has a reason, a rejected n has only n and it,
    and the csv module writes the rows."""
    if len(args) == 3:
        return _keyed_fields(*args)
    primes, lo, hi, include_skipped, rank_filter, as_csv = args
    if include_skipped:
        rows = [(n, *_NO_ROW, r) if type(r) is str else (n, *r[0], n * r[2], "")
                for n, r in zip(*_keyed_fields(primes, lo, hi, True))
                if type(r) is str or rank_filter is None or r[0][_CLASS_RANK] == rank_filter]
        return _csv_text(rows) if as_csv else rows
    fields = zip(*_keyed_fields(primes, lo, hi))
    if rank_filter is not None:
        fields = [(n, r) for n, r in fields if r[0][_CLASS_RANK] == rank_filter]
    if as_csv:
        return "".join([f"{n},{text},{n * ratio}\n" for n, (_, text, ratio) in fields])
    return [(n, *values, n * ratio) for n, (values, _, ratio) in fields]


def _csv_text(rows) -> str:
    """rows as CSV lines."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


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


def _run_worker(worker: int, workers: int, step, windows, write_fd: int) -> None:
    """In forked child `worker`, 1 <= worker < workers (the census's own
    process is worker 0): step on windows worker, worker + workers, ... in
    order, each result, or the exception it raised, pickled down write_fd."""
    import pickle

    with open(write_fd, "wb") as pipe:
        for window in islice(windows, worker, None, workers):
            try:
                message = (True, step(window))
            except Exception as exc:
                message = (False, exc)
            pickle.dump(message, pipe)
            pipe.flush()
            if not message[0]:
                return


def _pooled(workers: int, step, windows):
    """The census's one window driver: step's result on each of the windows,
    in window order, from `workers` processes.  This one runs windows 0,
    workers, 2 * workers, ... itself, all of them when workers is 1, and
    workers - 1 forked children (_run_worker) run the rest, dealt
    round-robin.  The children inherit step and the windows, an iterator
    none has started, each headed by the census's prime table, and are
    forked before this process's first window, so it overlaps their
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
                    _run_worker(worker, workers, step, windows, write_fd)
                    code = 0
                finally:
                    # skip the parent's cleanup and its inherited stdio buffers
                    os._exit(code)
            pids.append(pid)
            os.close(write_fd)
            readers.append(open(read_fd, "rb"))
        for index, window in enumerate(windows):
            if index % workers == 0:
                yield step(window)
                continue
            primes, lo, hi, *_ = window
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


def _census(ell: int, n_max: int, jobs: int, record, step, *options):
    """The one census driver of scan and verify: step's result on (primes,
    lo, hi, *options) for each window of n = 1..n_max, in order from
    _pooled, each made as it runs, in one process when there is no os.fork.
    primes is the census's one PrimeTable(ell, record), and ell and jobs
    are checked here, before any window is computed."""
    primes = PrimeTable(ell, record)
    if jobs < 1:
        raise JobsNotPositive(f"jobs = {jobs}: a scan needs at least one worker")
    windows = ((primes, lo, hi, *options) for lo, hi in _windows(n_max))
    workers = pool_size(jobs, -(-n_max // _CHUNK), _usable_cpus()) if hasattr(os, "fork") else 1
    return _pooled(workers, step, windows)


def scan_rows(ell: int, n_max: int, jobs: int = 1, include_skipped: bool = False,
              rank_filter: int | None = None) -> list[dict]:
    """The scan's rows as dicts keyed by SCAN_FIELDS (and "reason" with
    include_skipped), ascending by n.  Windows are merged in order, so the
    output is identical for every jobs count."""
    fields = (SCAN_FIELDS + ("reason",)) if include_skipped else SCAN_FIELDS
    return [dict(zip(fields, values))
            for rows in _census(ell, n_max, jobs, _shape_row, _scan_chunk,
                                include_skipped, rank_filter, False)
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
    census, options = (args.ell, args.n_max, args.jobs), (args.include_skipped, args.rank)
    fields = (SCAN_FIELDS + ("reason",)) if args.include_skipped else SCAN_FIELDS
    if fmt == "json":
        _answer(fmt, lambda: scan_rows(*census, *options), None)
    elif fmt == "text":
        windows = _census(*census, _shape_row, _scan_chunk, *options, False)
        _emit_table_rows([row for rows in windows for row in rows], fields)
    else:
        windows = _census(*census, _shape_row, _scan_chunk, *options, True)
        sys.stdout.write(_csv_text([fields]))
        try:
            for text in windows:
                sys.stdout.write(text)
        finally:
            windows.close()  # so a failed write still reaps the pool's workers
    return 0


_CHECKS = ("cross_path", "hilbert", "bridge", "classify")


def _class_checks(ell: int, n: int, shape: NShape) -> tuple:
    """verify's record of a shape class, from its field n: the conductor
    exponent e, the checks of cross_path, hilbert and classify that fail at
    n, the cross_path error there (None if it passes), and the shape, from
    which a failing class is checked again at each of its fields.  e is 3
    for even n (b odd) and, for odd n, 2 or 0 as the dyadic prime ramifies
    or not (see _shape_row)."""
    try:
        rank, error = flat_ranks(ell, n, shape).rank, None
    except InternalCheckError as exc:
        rank, error = None, exc
    pattern = small_rank_pattern(shape, ell, n)
    small = pattern.rank if pattern else None  # None from rank 4 on
    e = 3 if shape.delta == 2 else (2 if shape.dyadic_ramifies else 0)
    # hilbert and classify read the rank results, so they fail with them
    cross_path = rank is not None
    hilbert = cross_path and tuple(map(prod, shape.rows)) == (1, 1, 1)
    classify = cross_path and small == (rank if rank <= 3 else None)
    failed = () if hilbert and classify else tuple(
        check for check, ok in (("cross_path", cross_path), ("hilbert", hilbert),
                                ("classify", classify)) if not ok)
    return e, failed, error, shape


def cmd_verify(args, fmt: str) -> int:
    """Re-check every built-in invariant over all valid n <= n_max, from one
    pass of _keyed_fields per window (_census, _scan_chunk with no options),
    whose records are the class checks (_class_checks), built once per shape
    class.  bridge compares each field's conductor exponent with its class's.
    A class that fails another check is checked again at each of its fields,
    so each failure, and each cross_path error on stderr, names its n."""
    windows = _census(args.ell, args.n_max, 1, _class_checks, _scan_chunk)
    ell, legs = args.ell, two_squares(args.ell)
    failures: list[tuple[int, str]] = []
    fields_checked = 0
    for fields, records in windows:
        fields_checked += len(fields)
        for n, (expected, failed, _, shape) in zip(fields, records):
            a, b, _ = williams_abc(n, legs)
            e = conductor_parts(a, b, ell)[0]
            if failed:
                expected, failed, error, _ = _class_checks(ell, n, shape)
                if error:
                    print(error, file=sys.stderr)
                failures += [(n, check) for check in _CHECKS
                             if check in failed or check == "bridge" and e != expected]
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
