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

import csv
import functools
import io
import json.encoder
import os
import sys
import types
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
_CHUNK = 4096
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
    def wheel(self) -> list[list[int]]:
        """The keys and products of delta, 3, 5 and 7 other than ell at
        n = 0, 1, ..., _WHEEL - 1, built at a process's first window.
        _keyed_fields repeats this period in place the first time a window
        outruns it, once per width, so every window starts as one slice of
        each and no window repeats the period for itself."""
        keys = [2 - r % 2 for r in range(_WHEEL)]
        product = keys[:]
        for p in (3, 5, 7):
            if p != self.ell:
                for r in range(0, _WHEEL, p):
                    product[r] *= p
                    keys[r] = keys[r] << CLASS_ID_BITS | self[p % (4 * self.ell)]
        return [keys, product]


def _windows(n_max: int):
    """The windows [lo, hi) of n = 1..n_max, ascending, the last clipped to
    n_max: each as wide as the power of two above sqrt(lo), but at least
    _CHUNK (as every window below 2**24 is) and at most 8 * _CHUNK.  A
    window loops over every base prime up to sqrt(hi), so a width near
    sqrt(n), as in any segmented sieve, keeps that loop from outweighing the
    window's own n; the cap bounds a window's lists (4-5 MiB at 1e10)."""
    lo = 1
    while lo <= n_max:
        hi = min(lo + max(_CHUNK, min(8 * _CHUNK, 1 << isqrt(lo).bit_length())), n_max + 1)
        yield lo, hi
        lo = hi


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
    table's wheel of delta, 3, 5 and 7, one slice of it, lengthened first if
    the window outruns it, so its prime loops begin at 11.  ell is never
    looked up, and each other odd prime p is first looked up at n = p, by
    first_kind.
    """
    ell, memo, record, bits = primes.ell, primes.classes, primes.record, CLASS_ID_BITS
    modulus, size, split = 4 * ell, hi - lo, primes.split_kinds

    def first_kind(p: int) -> int:  # at n = p, where a split p's (ell/p) = +1 is checked
        kind = primes[p % modulus]
        if kind == split[p % 4] and legendre(ell, p) != 1:
            raise InternalCheckError(f"ell={ell} prime={p}: split, but ({ell}/{p}) != 1")
        return kind

    start, wheel = lo % _WHEEL, primes.wheel
    if start + size > len(wheel[0]):  # the first window wider than any before
        wheel[:] = [w[:_WHEEL] * (size // _WHEEL + 2) for w in wheel]
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
    of _keyed_fields over n in [lo, hi): what every process of the pool
    (_pooled) runs on a window, so a wrapper of this name sees every
    window.  verify gives no options and reads the pass itself.  A scan's
    options give the rows that include_skipped and rank_filter keep, as
    value tuples in SCAN_FIELDS order, or as CSV text (as_csv), from the
    class parts of _shape_row: a field's CSV line is n, its class's text and
    n * f/n.  With include_skipped, each row has a reason, a rejected n has
    only n and it, and the csv module writes the rows."""
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


# The stdlib's quoting, bound once: a tracer may rebind this module's json
# to a namespace that holds only a traced dumps.
_json_str = json.encoder.encode_basestring_ascii


def _json_text(obj, pad: str = "\n") -> str:
    """The json module's dumps(obj, indent=2), with pad in place of each line
    break, from dicts with str keys, lists, tuples, strs (the stdlib's own
    quoting), ints, True, False and None; anything else, a float among them,
    raises TypeError.  Given an indent, dumps skips its C encoder on CPython
    3.10-3.12 and takes about twice this writer's time there; on 3.13 its C
    path is the faster."""
    kind = type(obj)
    if kind is str:
        return _json_str(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is dict or kind is list or kind is tuple:
        if not obj:
            return "{}" if kind is dict else "[]"
        inner = pad + "  "
        if kind is dict:
            items = [f"{_json_str(key)}: {_json_text(value, inner)}" for key, value in obj.items()]
            return f"{{{inner}{(',' + inner).join(items)}{pad}}}"
        return f"[{inner}{(',' + inner).join([_json_text(value, inner) for value in obj])}{pad}]"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if obj is None:
        return "null"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _usable_cpus() -> int | None:
    """The CPUs this process may run on; os.cpu_count() counts the machine's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def _pooled(workers: int, windows):
    """The census's one window driver: _scan_chunk's result on each of the
    windows, in window order, from `workers` processes.  This one runs
    windows 0, workers, 2 * workers, ... itself, all of them when workers is
    1, and workers - 1 forked children run the rest, dealt round-robin: child
    k, 1 <= k < workers, runs windows k, k + workers, ... in order and pickles
    each result, or the exception it raised, down its pipe.  Every process
    looks up _scan_chunk at each window, so a rebinding of that module global
    (a tracer's wrapper) sees every window.  The children inherit the
    windows, an iterator none has started, each headed by the census's prime
    table, and are forked before this process's first window, so it overlaps
    their start-up.  qtr starts no threads, so forking is safe, and the
    children inherit the module state a caller or a tracer has set."""
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
                    with open(write_fd, "wb") as pipe:
                        for window in islice(windows, worker, None, workers):
                            try:
                                message = (True, _scan_chunk(window))
                            except Exception as exc:
                                message = (False, exc)
                            pickle.dump(message, pipe)
                            pipe.flush()
                            if not message[0]:
                                break
                    code = 0
                finally:
                    # skip the parent's cleanup and its inherited stdio buffers
                    os._exit(code)
            pids.append(pid)
            os.close(write_fd)
            readers.append(open(read_fd, "rb"))
        for index, window in enumerate(windows):
            if index % workers == 0:
                yield _scan_chunk(window)
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


def _census(ell: int, n_max: int, jobs: int, record, *options):
    """The one census driver of scan and verify: _scan_chunk's result on
    (primes, lo, hi, *options) for each window of n = 1..n_max, in order
    from _pooled, each made as it runs.  primes is the census's one
    PrimeTable(ell, record), and ell and jobs are checked here, before any
    window is computed.  The pool has one process per window and per usable
    CPU, at most jobs, so sizing it walks at most min(jobs, CPUs) windows;
    an unknown CPU count, or no os.fork, runs the census in this process."""
    primes = PrimeTable(ell, record)
    if jobs < 1:
        raise JobsNotPositive(f"jobs = {jobs}: a scan needs at least one worker")
    cpus = (_usable_cpus() or 1) if hasattr(os, "fork") else 1
    workers = max(1, len(list(islice(_windows(n_max), min(jobs, cpus)))))
    return _pooled(workers, ((primes, lo, hi, *options) for lo, hi in _windows(n_max)))


def scan_rows(ell: int, n_max: int, jobs: int = 1, include_skipped: bool = False,
              rank_filter: int | None = None):
    """The scan's rows as dicts keyed by SCAN_FIELDS (and "reason" with
    include_skipped), ascending by n: one list per window of _census, each
    made as it runs.  Closing it reaps the census's pool."""
    fields = (SCAN_FIELDS + ("reason",)) if include_skipped else SCAN_FIELDS
    windows = _census(ell, n_max, jobs, _shape_row, include_skipped, rank_filter, False)
    try:
        for rows in windows:
            yield [dict(zip(fields, values)) for values in rows]
    finally:
        windows.close()


def _answer(fmt: str, record, text, table=None) -> None:
    """Write one answer in fmt.  record, text and table are functions, and
    only the one fmt reads runs: JSON is the dict record(), CSV the rows
    table(), header first, or else record()'s keys over its values, and
    text the lines text()."""
    if fmt == "json":
        print(_json_text(record()))
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
    """CSV and JSON stream one window at a time, JSON from scan_rows; text
    needs every row for its column widths.  A scan that fails leaves the
    rows of the windows before the failure on stdout: in JSON, a document
    with no closing bracket."""
    census, options = (args.ell, args.n_max, args.jobs), (args.include_skipped, args.rank)
    fields = (SCAN_FIELDS + ("reason",)) if args.include_skipped else SCAN_FIELDS
    if fmt == "text":
        windows = _census(*census, _shape_row, *options, False)
        _emit_table_rows([row for rows in windows for row in rows], fields)
        return 0
    if fmt == "csv":
        windows = _census(*census, _shape_row, *options, True)
        sys.stdout.write(_csv_text([fields]))
    else:
        windows = scan_rows(*census, *options)
    opening = "[\n  "
    try:
        for window in windows:
            if fmt == "csv":
                sys.stdout.write(window)
            elif window:
                rows = [_json_text(row, "\n  ") for row in window]
                sys.stdout.write(opening + ",\n  ".join(rows))
                opening = ",\n  "
    finally:
        windows.close()  # so a failed write still reaps the pool's workers
    if fmt == "json":
        sys.stdout.write("[]\n" if opening == "[\n  " else "\n]\n")
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
    pass of _keyed_fields per window (_census with no options),
    whose records are the class checks (_class_checks), built once per shape
    class.  bridge compares each field's conductor exponent with its class's.
    A class that fails another check is checked again at each of its fields,
    so each failure, and each cross_path error on stderr, names its n."""
    windows = _census(args.ell, args.n_max, 1, _class_checks)
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


# Each option's help; every command takes --format and --ell.
_OPTION_HELP = {
    "--format": "output format (default: text, or QTR_DEFAULT_FORMAT)",
    "--ell": "prime = 5 (mod 8)",
    "--n": "squarefree positive integer coprime to ell",
    "--n-max": "scan bound for n",
    "--rank": "keep only rows of this rank",
    "--jobs": "worker processes",
    "--include-skipped": "also list invalid n with the reason",
}

# The command table, which both readers of a command line read (_strict_args
# and build_parser): each command's handler, help, the int options it
# requires, and the options it may give besides --format, with their
# defaults (False: a flag, which takes no value).
COMMANDS = {
    "rank": (cmd_rank, "rank by both paths, with the character table", ("--ell", "--n"), {}),
    "scan": (cmd_scan, "census of all valid n up to a bound", ("--ell", "--n-max"),
             {"--rank": None, "--jobs": 1, "--include-skipped": False}),
    "verify": (cmd_verify, "run all cross-checks over a range (--format csv: one row per "
                           "check, failures on stderr)", ("--ell", "--n-max"), {}),
    "unit": (cmd_unit, "fundamental unit of Q(sqrt(ell))", ("--ell",), {}),
    "conductor": (cmd_conductor, "conductor of the field of (ell, n)", ("--ell", "--n"), {}),
    "poly": (cmd_poly, "defining polynomial of the field of (ell, n)", ("--ell", "--n"), {}),
    "table": (cmd_table, "character table of (ell, n)", ("--ell", "--n"), {}),
    "classify": (cmd_classify, "small-rank shape classification", ("--ell", "--n"), {}),
}


def _strict_args(argv: list[str]) -> types.SimpleNamespace | None:
    """The namespace argparse makes of argv, when argv is a command of
    COMMANDS and then options of that command, each once and spelled in
    full: --format's value one of FORMATS, and an int option's a str that
    int() reads and that starts with '-' only as '-' and decimal digits, as
    argparse reads a negative number.  None for any other argv, which
    argparse parses, for its help, its errors and its other spellings."""
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, required, optional = COMMANDS[argv[0]]
    defaults, given = {"--format": None, **optional}, {}
    tokens = iter(argv[1:])
    for option in tokens:
        if option in given or option not in defaults and option not in required:
            return None
        if defaults.get(option) is False:
            given[option] = True
            continue
        value = next(tokens, "")
        if option == "--format":
            if value not in FORMATS:
                return None
            given[option] = value
            continue
        if value[:1] == "-" and not value[1:].isdecimal():
            return None
        try:
            given[option] = int(value)
        except ValueError:  # not an int, or past the int-to-str digit limit
            return None
    if not given.keys() >= set(required):
        return None
    return types.SimpleNamespace(command=argv[0], func=func, **{
        option[2:].replace("-", "_"): value for option, value in {**defaults, **given}.items()})


def build_parser() -> argparse.ArgumentParser:
    """argparse's parser of COMMANDS, which reads every argv that
    _strict_args leaves and writes the help and the usage errors."""
    import argparse

    parser = argparse.ArgumentParser(prog="qtr",
                                     description="2-rank of the class group of "
                                                 "Q(sqrt(n*eps0*sqrt(ell))), ell prime = 5 (mod 8)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, required, optional) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--format", choices=FORMATS, default=None, help=_OPTION_HELP["--format"])
        for option in required:
            p.add_argument(option, type=int, required=True, help=_OPTION_HELP[option])
        for option, default in optional.items():
            if default is False:
                p.add_argument(option, action="store_true", help=_OPTION_HELP[option])
            else:
                p.add_argument(option, type=int, default=default, help=_OPTION_HELP[option])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _strict_args(argv) or build_parser().parse_args(argv)
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
