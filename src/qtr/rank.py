"""The 2-rank of the class group of K, computed along two independent paths.

Path one ("closed"): name the family of the shape of n (_case_tag) and look
up its rank expression in the paper's case table (_CLOSED_RANK).

Path two ("unified"): build the table of norm-residue characters of the units
-1, eps, -eps at every prime of k = Q(sqrt(ell)) that ramifies in K, read off
which units are norms, and evaluate rank = mu + r* - 3.  Here mu counts the
ramified primes of k (the real places never ramify: K is totally real), and
k has one fundamental unit and contains -1, which fixes the constant 3.

One shape step (shape_class) turns n's delta and its odd primes' entries
into the counts t1, t2, s1, s2, letters, dyadic flag and rows -1, eps, -eps;
the census reads the entries from its PrimeTable, the single-field path
(fresh_step) computes them afresh.  Each path is stated once, over plain
ints (_closed_rank, _unified_rank): flat_ranks runs both on one step,
rank_closed and rank_unified one each.  They share the family name and the
shape's r*, but the closed rank comes only from the case table and the
unified rank only from the rows, so their agreement everywhere is the
central correctness check of the package.
"""

from __future__ import annotations

from math import prod
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import InternalCheckError
from .ntheory import quartic_symbol
from .quad import SplittingType, splitting_type
from .quartic import (KIND_LETTERS, FieldInput, NShape, dyadic_ramifies, prime_kind, ramified_count,
                      validate_ell)

UNIT_LABELS = ("-1", "eps", "-eps")


class Column(NamedTuple):
    """One ramified prime of k: the kind determines its character entries."""

    kind: str  # sqrt_ell | inert_p | split_p | inert_q | split_q | dyadic
    prime: Optional[int] = None
    conjugate: bool = False

    def label(self, ell: int) -> str:
        if self.kind == "sqrt_ell":
            return f"sqrt({ell})"
        if self.kind == "dyadic":
            return "2"
        return f"{self.prime}'" if self.conjugate else f"{self.prime}"


class RamProfile(NamedTuple):
    columns: tuple[Column, ...]
    mu: int


class CharacterTable(NamedTuple):
    """3 x mu matrix of +-1: rows -1, eps, -eps; one column per ramified prime."""

    ell: int
    columns: tuple[Column, ...]
    entries: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

    def row_products(self) -> tuple[int, int, int]:
        return tuple(prod(row) for row in self.entries)

    def column_labels(self) -> list[str]:
        return [col.label(self.ell) for col in self.columns]

    def to_text(self) -> str:
        labels = self.column_labels()
        head = "unit \\ chi"
        unit_w = max(len(head), max(len(u) for u in UNIT_LABELS))
        widths = [max(len(lab), 1) for lab in labels]
        lines = [
            "  ".join([head.ljust(unit_w)] + [lab.rjust(w) for lab, w in zip(labels, widths)])
        ]
        for unit, row in zip(UNIT_LABELS, self.entries):
            marks = ["+" if x == 1 else "-" for x in row]
            lines.append(
                "  ".join([unit.ljust(unit_w)] + [m.rjust(w) for m, w in zip(marks, widths)])
            )
        return "\n".join(lines)

    def to_json_obj(self) -> dict:
        return {
            "columns": self.column_labels(),
            "units": list(UNIT_LABELS),
            "entries": [list(row) for row in self.entries],
        }


class _RankFields(NamedTuple):
    mu: int
    r_star: int
    rank: int
    case_tag: str


class RankResult(_RankFields):
    """A rank with its mu, r* and family, checked on construction."""

    __slots__ = ()

    def __new__(cls, mu: int, r_star: int, rank: int, case_tag: str):
        _check_rank(mu, r_star, rank, case_tag)
        return super().__new__(cls, mu, r_star, rank, case_tag)


def _check_rank(mu: int, r_star: int, rank: int, case_tag: str) -> None:
    if rank != mu + r_star - 3 or rank < 0:
        raise InternalCheckError(
            f"inconsistent rank result: mu={mu} r*={r_star} rank={rank} case={case_tag}"
        )


def n_shape(field: FieldInput) -> NShape:
    """The shape of n, built once with the field record."""
    return field.shape


_SQRT_ELL = Column("sqrt_ell")
_DYADIC = Column("dyadic", 2)


def _odd_columns(prime: int, tag: SplittingType) -> tuple[Column, ...]:
    """The primes of k above an odd prime of n: one inert column, or a split
    pair with the unbarred conjugate first."""
    kind = "p" if prime % 4 == 1 else "q"
    if tag is SplittingType.SPLIT:
        return (Column(f"split_{kind}", prime), Column(f"split_{kind}", prime, conjugate=True))
    return (Column(f"inert_{kind}", prime),)


def ram_profile(shape: NShape) -> RamProfile:
    """Ramified primes of k in K, in the output order of the table columns:
    sqrt(ell) first, the odd primes ascending, the dyadic prime last."""
    columns = [_SQRT_ELL]
    for prime, tag in shape.tagged:
        columns += _odd_columns(prime, tag)
    if shape.dyadic_ramifies:
        columns.append(_DYADIC)
    return RamProfile(tuple(columns), len(columns))


def _split_sign(prime: int, ell: int, p_ell4: Optional[int] = None) -> int:
    """The sign rule of a split prime: sigma or tau = (p/ell)_4 * (ell/p)_4.
    (p/ell)_4 depends only on p mod ell, so a caller that keeps it per
    residue class passes it in; (ell/p)_4 runs at every call."""
    return (p_ell4 or quartic_symbol(prime, ell)) * quartic_symbol(ell, prime)


def _prime_entries(prime: int, tag: SplittingType, sign: int) -> tuple[tuple, tuple]:
    """The character-table entry rule for one odd prime of n: its -1 and eps
    entries, one per column of _odd_columns, from p mod 4, its tag and, for
    a split prime, its sign from _split_sign (unread otherwise).

    (-1, eps) entries per column kind (eps = (u + v*sqrt(ell))/2, norm -1):
      inert p = 1 (mod 4): (+, +); inert q = 3 (mod 4): (+, -) -- the eps
        character at an inert prime r is (-1/r) because eps^(r+1) = -1 there.
      split p = 1 (mod 4): (+, sigma) in both conjugate columns.
      split q = 3 (mod 4): -1 entries for the unit -1, and tau, -tau for eps
        in the two conjugate columns.
    """
    if tag is not SplittingType.SPLIT:
        return (1,), (1 if prime % 4 == 1 else -1,)
    if prime % 4 == 1:
        return (1, 1), (sign, sign)
    return (-1, -1), (sign, -sign)


def _entry(prime: int, tag: SplittingType, sign: int) -> tuple:
    """What the shape step reads about one odd prime of n: which of t1, t2,
    s1, s2 it bumps, its kind and tag letters, and its -1 and eps entries."""
    kind = prime_kind(prime, tag)
    return (kind, *KIND_LETTERS[kind], *_prime_entries(prime, tag, sign))


def shape_class(delta: int, entries: Sequence[tuple]) -> tuple:
    """The shape step: from n's delta and its odd primes' entries ascending
    (_entry), (dyadic flag, counts [t1, t2, s1, s2], kind letters, tag
    letters, rows -1, eps, -eps of the character table).  The rows are lists
    in column order: sqrt(ell) with (+, -), as eps reduces to a non-residue
    there; each odd prime's entries; and, when it ramifies, the dyadic prime
    with (+, (-1)^(s+1)) for the number s of q-factors.  The -eps row is the
    entrywise product of the other two."""
    counts = [0, 0, 0, 0]
    kinds, tags = [], []
    row_m1, row_eps = [1], [-1]
    for kind, kind_letter, tag_letter, m1, eps in entries:
        counts[kind] += 1
        kinds.append(kind_letter)
        tags.append(tag_letter)
        row_m1 += m1
        row_eps += eps
    s = counts[2] + counts[3]
    dyadic = dyadic_ramifies(delta, s)
    if dyadic:
        row_m1.append(1)
        row_eps.append(1 if s % 2 else -1)
    return dyadic, counts, kinds, tags, (row_m1, row_eps, [a * b for a, b in zip(row_m1, row_eps)])


def fresh_step(shape: NShape, ell: int) -> tuple:
    """shape_class of a stored shape, each odd prime's sign computed afresh
    by _split_sign: the single-field path, which builds no PrimeTable."""
    return shape_class(shape.delta, [
        _entry(prime, tag, _split_sign(prime, ell) if tag is SplittingType.SPLIT else 0)
        for prime, tag in shape.tagged])


def table_from_rows(shape: NShape, ell: int, rows: Sequence[Sequence[int]]) -> CharacterTable:
    """The character table of a shape, with the rows of its step."""
    return CharacterTable(ell, ram_profile(shape).columns, tuple(map(tuple, rows)))


def character_table(shape: NShape, ell: int) -> CharacterTable:
    """Norm-residue characters of -1, eps and -eps at each ramified prime,
    from the shape's fresh step."""
    return table_from_rows(shape, ell, fresh_step(shape, ell)[-1])


# Bits of one class id in the census's shape-class key (cli._keyed_fields).
CLASS_ID_BITS = 8


class PrimeTable(dict):
    """The class ids a census of one ell reads for the odd primes of n, each
    computed at its first lookup: table[prime] is an id, and table.entries[id]
    what the census reads about every prime with that id (which of t1, t2,
    s1, s2 it bumps, its kind and tag letters, its -1 and eps entries).
    The id is a function of the prime's code, 4 * sign + p mod 4, with sign 0
    unless p splits in k (_split_sign).  The splitting and (p/ell)_4 run once
    per residue class mod ell, (ell/p)_4 once per split prime, and the entry
    rule (_prime_entries) once per code, as codes first appear, which numbers
    the ids from 0.  So a field's shape (counts, letters, rows, ranks, checks)
    depends on its parity and its odd primes' ids ascending: shape_class reads
    the entries of those ids.  Building it validates ell.  One lives for one
    scan or verify call (a scan's pool forks with it) and keeps the census's
    memo per shape class: `rows` for scan (the class's values, their CSV text
    and f/n), `checks` for verify.  The single-field path (fresh_step) never
    builds one.
    """

    def __init__(self, ell: int):
        super().__init__()
        self.ell = validate_ell(ell)
        self.entries: list[tuple] = []
        self._ids: dict[int, int] = {}
        self._residues: dict[int, int] = {}  # p mod ell: (p/ell)_4, or 0 unsplit
        self.rows: dict[int, tuple] = {}
        self.checks: dict[int, bool] = {}

    def __missing__(self, prime: int) -> int:
        ell = self.ell
        p_ell4 = self._residues.get(prime % ell)
        if p_ell4 is None:
            split = splitting_type(prime, ell) is SplittingType.SPLIT
            p_ell4 = self._residues[prime % ell] = quartic_symbol(prime, ell) if split else 0
        sign = _split_sign(prime, ell, p_ell4) if p_ell4 else 0
        code = 4 * sign + prime % 4
        class_id = self._ids.get(code)
        if class_id is None:
            # six codes without a fault: inert p or q, split p or q with sign +-1
            if len(self.entries) == 1 << CLASS_ID_BITS:
                raise InternalCheckError(f"ell={ell} prime={prime}: more than "
                                         f"{1 << CLASS_ID_BITS} distinct prime entries")
            tag = SplittingType.SPLIT if sign else SplittingType.INERT
            self.entries.append(_entry(prime, tag, sign))
            class_id = self._ids[code] = len(self.entries) - 1
        self[prime] = class_id
        return class_id


def r_star(table: CharacterTable) -> int:
    """Index exponent of norm units, read off the table's rows."""
    return _rows_r_star(table.entries)


def _rows_r_star(rows: Sequence[Sequence[int]]) -> int:
    """r* of the rows -1, eps, -eps: a unit is a norm from K exactly when its
    character row is all +1.  The all-plus rows generate a subgroup of
    {+-1, +-eps} modulo squares, and r* is its 2-log.  Over F_2 x F_2 the
    units -1, eps, -eps are (1,0), (0,1), (1,1): any two are independent,
    so k of them span a group of 2-log min(k, 2)."""
    return min([-1 not in row for row in rows].count(True), 2)


def _case_tag(dyadic: bool, t1: int, t2: int, s1: int, s2: int) -> str:
    """Which shape family (and q-tag subcase) the field falls in.

    Families split by which odd primes occur and whether the dyadic prime
    ramifies ("with2"/"no2"); subcases by the split/inert mix.
    """
    if s1 + s2 == 0:
        if t1 + t2 == 0:
            return "trivial"
        sub = "inert" if t2 == 0 else ("split" if t1 == 0 else "both")
        return f"p-only:{sub}"
    two = "with2" if dyadic else "no2"
    sub = "inert" if s2 == 0 else ("split" if s1 == 0 else "both")
    if t1 + t2 == 0:
        return f"q-{two}:{sub}"
    return f"pq-{two}:q-{sub}"


# The paper's case table: the closed-form 2-rank of each family of _case_tag,
# over the counts t1, t2, s1, s2 (t1 + 2*t2 primes of k lie above the p's).
# With no split q the unit -1 stays a norm, so each q-inert entry is one more
# than its q-both entry at s2 = 0; an unramified dyadic prime lowers it by one.
_CLOSED_RANK: dict[str, Callable[[int, int, int, int], int]] = {
    "trivial": lambda t1, t2, s1, s2: 0,
    "p-only:inert": lambda t1, t2, s1, s2: t1 + t2,
    "p-only:split": lambda t1, t2, s1, s2: 2 * (t1 + t2),
    "p-only:both": lambda t1, t2, s1, s2: t1 + 2 * t2,
    "q-no2:inert": lambda t1, t2, s1, s2: s1 + s2 - 1,
    "q-no2:split": lambda t1, t2, s1, s2: 2 * (s1 + s2) - 2,
    "q-no2:both": lambda t1, t2, s1, s2: s1 + 2 * s2 - 2,
    "q-with2:inert": lambda t1, t2, s1, s2: s1 + s2,
    "q-with2:split": lambda t1, t2, s1, s2: 2 * (s1 + s2) - 1,
    "q-with2:both": lambda t1, t2, s1, s2: s1 + 2 * s2 - 1,
    "pq-no2:q-inert": lambda t1, t2, s1, s2: t1 + 2 * t2 + s1 + s2 - 1,
    "pq-no2:q-split": lambda t1, t2, s1, s2: t1 + 2 * t2 + 2 * (s1 + s2) - 2,
    "pq-no2:q-both": lambda t1, t2, s1, s2: t1 + 2 * t2 + s1 + 2 * s2 - 2,
    "pq-with2:q-inert": lambda t1, t2, s1, s2: t1 + 2 * t2 + s1 + s2,
    "pq-with2:q-split": lambda t1, t2, s1, s2: t1 + 2 * t2 + 2 * (s1 + s2) - 1,
    "pq-with2:q-both": lambda t1, t2, s1, s2: t1 + 2 * t2 + s1 + 2 * s2 - 1,
}


def _shape_r_star(s2: int) -> int:
    """r* from the shape alone: 1 exactly when no q-factor splits in k."""
    return 1 if s2 == 0 else 0


def _closed_rank(case: str, mu: int, rs: int, t1: int, t2: int, s1: int, s2: int) -> int:
    """The closed path: the case table's rank of the family, checked against
    the shape's mu and r*."""
    rank = _CLOSED_RANK[case](t1, t2, s1, s2)
    _check_rank(mu, rs, rank, case)
    return rank


def _unified_rank(rows: Sequence[Sequence[int]], mu: int, rs: int, case: str,
                  ell: int, n: int) -> int:
    """The unified path: mu + r* - 3 with mu and r* read off the rows -1,
    eps, -eps, each checked against the shape's."""
    table_mu, table_rs = len(rows[0]), _rows_r_star(rows)
    if table_mu != mu:
        raise InternalCheckError(
            f"mu mismatch: {table_mu} table columns but {mu} ramified primes (ell={ell}, n={n})")
    if table_rs != rs:
        raise InternalCheckError(
            f"r* from table = {table_rs} but shape shortcut gives {rs} (ell={ell}, n={n})")
    rank = table_mu + table_rs - 3
    _check_rank(table_mu, table_rs, rank, case)
    return rank


def rank_closed(field: FieldInput) -> RankResult:
    """2-rank from the case table entry of the field's family; reads no
    character entries."""
    d = field.shape
    case, rs = _case_tag(d.dyadic_ramifies, d.t1, d.t2, d.s1, d.s2), _shape_r_star(d.s2)
    return RankResult(d.mu, rs, _closed_rank(case, d.mu, rs, d.t1, d.t2, d.s1, d.s2), case)


def rank_unified(field: FieldInput) -> RankResult:
    """2-rank via mu + r* - 3, read off the rows of the field's fresh step."""
    d = field.shape
    case, rs = _case_tag(d.dyadic_ramifies, d.t1, d.t2, d.s1, d.s2), _shape_r_star(d.s2)
    rows = fresh_step(d, field.ell)[-1]
    return RankResult(d.mu, rs, _unified_rank(rows, d.mu, rs, case, field.ell, field.n), case)


def flat_ranks(ell: int, n: int, dyadic: bool, t1: int, t2: int, s1: int, s2: int,
               rows: Sequence[Sequence[int]]) -> tuple[int, int, int, str]:
    """(mu, r*, rank, case) of one field by both paths, from the counts and
    rows of its step, once the two ranks agree.  A failed check raises
    InternalCheckError named by (ell, n) and cross_path."""
    case = _case_tag(dyadic, t1, t2, s1, s2)
    mu, rs = ramified_count(t1, t2, s1, s2, dyadic), _shape_r_star(s2)
    try:
        closed = _closed_rank(case, mu, rs, t1, t2, s1, s2)
        unified = _unified_rank(rows, mu, rs, case, ell, n)
        if closed != unified:
            raise InternalCheckError(
                f"rank paths disagree: closed rank {closed}, unified {unified}")
    except InternalCheckError as exc:
        raise InternalCheckError(f"ell={ell} n={n} check=cross_path: {exc}") from exc
    return mu, rs, closed, case
