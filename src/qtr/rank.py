"""The 2-rank of the class group of K, computed along two independent paths.

Path one ("closed"): name the family of the shape of n (_case_tag) and look
up its rank expression in the paper's case table (_CLOSED_RANK).

Path two ("unified"): build the table of norm-residue characters of the units
-1, eps, -eps at every prime of k = Q(sqrt(ell)) that ramifies in K, read off
which units are norms, and evaluate rank = mu + r* - 3.  Here mu counts the
ramified primes of k (the real places never ramify: K is totally real), and
k has one fundamental unit and contains -1, which fixes the constant 3.

The two paths share the shape extraction (the counts t1, t2, s1, s2, the
splitting of each prime, the dyadic rule and mu), the family name that both
results carry, and the shape's r* (_shape_r_star), which the closed path
reports and the unified path checks its table against.  The closed rank
comes only from the case table and the unified rank only from the character
table, so their agreement everywhere is the central correctness check of
the package.

Each rule and check is a function of plain ints, called by the single-field
paths over a stored NShape and by the census (flat_ranks) over its counts.
"""

from __future__ import annotations

from math import prod
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import InternalCheckError
from .ntheory import quartic_symbol
from .quad import SplittingType, splitting_type
from .quartic import KIND_LETTERS, FieldInput, NShape, prime_kind, ramified_count, validate_ell

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


class PrimePart(NamedTuple):
    """One odd prime's columns of the character table, with their entries
    for the units -1 and eps."""

    columns: tuple[Column, ...]
    minus_one: tuple[int, ...]
    eps: tuple[int, ...]


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
    table: Optional[CharacterTable]


class RankResult(_RankFields):
    """A rank with its mu, r* and family, checked on construction; the
    unified path's result carries its table, which equality, hashing and
    repr leave out."""

    __slots__ = ()

    def __new__(cls, mu: int, r_star: int, rank: int, case_tag: str,
                table: Optional[CharacterTable] = None):
        _check_rank(mu, r_star, rank, case_tag)
        return super().__new__(cls, mu, r_star, rank, case_tag, table)

    def __eq__(self, other):
        return self[:4] == other[:4] if isinstance(other, RankResult) else NotImplemented

    def __ne__(self, other):
        return self[:4] != other[:4] if isinstance(other, RankResult) else NotImplemented

    def __hash__(self):
        return hash(self[:4])

    def __repr__(self):
        return (f"RankResult(mu={self.mu!r}, r_star={self.r_star!r}, rank={self.rank!r}, "
                f"case_tag={self.case_tag!r})")


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
# sqrt(ell): (+, -) -- eps reduces to a non-residue mod sqrt(ell).
SQRT_ELL_PART = PrimePart((_SQRT_ELL,), (1,), (-1,))
# dyadic: (+, (-1)^(s+1)), indexed by the parity of s, the number of q-factors.
DYADIC_PARTS = (PrimePart((_DYADIC,), (1,), (-1,)), PrimePart((_DYADIC,), (1,), (1,)))


def _odd_columns(prime: int, tag: SplittingType) -> tuple[Column, ...]:
    """The primes of k above an odd prime of n: one inert column, or a split
    pair with the unbarred conjugate first."""
    kind = "p" if prime % 4 == 1 else "q"
    if tag is SplittingType.SPLIT:
        return (Column(f"split_{kind}", prime), Column(f"split_{kind}", prime, conjugate=True))
    return (Column(f"inert_{kind}", prime),)


def _in_column_order(shape: NShape, sqrt_ell, odd, dyadic) -> list:
    """The output order of the ramified primes of k: sqrt(ell) first, the odd
    primes ascending with odd(prime, tag) each, dyadic last."""
    out = [sqrt_ell]
    out += [odd(prime, tag) for prime, tag in shape.tagged]
    if shape.dyadic_ramifies:
        out.append(dyadic)
    return out


def ram_profile(shape: NShape) -> RamProfile:
    """Ramified primes of k in K, in the output order of the table columns."""
    groups = _in_column_order(shape, (_SQRT_ELL,), _odd_columns, (_DYADIC,))
    columns = tuple(col for group in groups for col in group)
    return RamProfile(columns, len(columns))


def _prime_part(prime: int, tag: SplittingType, ell: int) -> PrimePart:
    """The character-table entry rule for one odd prime of n.

    (-1, eps) entries per column kind (eps = (u + v*sqrt(ell))/2, norm -1):
      inert p = 1 (mod 4): (+, +); inert q = 3 (mod 4): (+, -) -- the eps
        character at an inert prime r is (-1/r) because eps^(r+1) = -1 there.
      split p = 1 (mod 4): (+, sigma) in both conjugate columns, where
        sigma = (p/ell)_4 * (ell/p)_4.
      split q = 3 (mod 4): -1 entries for the unit -1, and tau, -tau for eps
        in the two conjugate columns, tau = (q/ell)_4 * (ell/q)_4.
    sigma and tau take two quartic symbols, once per call.
    """
    columns = _odd_columns(prime, tag)
    if tag is not SplittingType.SPLIT:
        return PrimePart(columns, (1,), (1 if prime % 4 == 1 else -1,))
    sym = quartic_symbol(prime, ell) * quartic_symbol(ell, prime)
    if prime % 4 == 1:
        return PrimePart(columns, (1, 1), (sym, sym))
    return PrimePart(columns, (-1, -1), (sym, -sym))


def character_table(shape: NShape, ell: int) -> CharacterTable:
    """Norm-residue characters of -1 and eps at each ramified prime: the
    fixed sqrt(ell) and dyadic columns, and each odd prime's _prime_part,
    computed afresh.  The -eps row is the entrywise product of the other two."""
    groups = _in_column_order(shape, SQRT_ELL_PART, lambda prime, tag: _prime_part(prime, tag, ell),
                              DYADIC_PARTS[shape.s % 2])
    columns: list[Column] = []
    row_m1: list[int] = []
    row_eps: list[int] = []
    for cols, m1, eps in groups:
        columns += cols
        row_m1 += m1
        row_eps += eps
    return CharacterTable(ell, tuple(columns), unit_rows(tuple(row_m1), tuple(row_eps)))


def unit_rows(row_m1: Sequence[int], row_eps: Sequence[int]) -> tuple:
    """The rows -1, eps, -eps; the -eps row is the entrywise product of the
    other two."""
    return row_m1, row_eps, tuple([a * b for a, b in zip(row_m1, row_eps)])


# Bits of one class id in the census's shape-class key (cli._fields).
CLASS_ID_BITS = 8


class PrimeTable(dict):
    """What a census of one ell reads about an odd prime of n, computed at its
    first lookup: table[prime] is (which of t1, t2, s1, s2 it bumps, its kind
    and tag letters, its -1 and eps entries, its class id).  Primes whose
    first five values are equal share one entry and one id, numbered from 0
    in the order they first appear, so a field's shape (its counts, letters,
    rows, ranks and checks) depends only on its parity and the class ids of
    its odd primes ascending.  Building it validates ell.

    One lives for one scan or verify call, and a scan's pool builds one per
    worker (cli._start_worker); each keeps the census's memo per shape class,
    `rows` for scan and `checks` for verify.  character_table never reads it.
    """

    def __init__(self, ell: int):
        super().__init__()
        self.ell = validate_ell(ell)
        self._entries: dict[tuple, tuple] = {}
        self.rows: dict[int, tuple] = {}
        self.checks: dict[int, bool] = {}

    def __missing__(self, prime: int) -> tuple:
        tag = splitting_type(prime, self.ell)
        kind = prime_kind(prime, tag)
        part = _prime_part(prime, tag, self.ell)
        value = (kind, *KIND_LETTERS[kind], part.minus_one, part.eps)
        entry = self._entries.get(value)
        if entry is None:
            # at most six without a fault (inert p, inert q, and split p or q
            # with sigma or tau = +-1); past the id width, keys would collide
            if len(self._entries) == 1 << CLASS_ID_BITS:
                raise InternalCheckError(f"ell={self.ell} prime={prime}: more than "
                                         f"{1 << CLASS_ID_BITS} distinct prime entries")
            entry = self._entries[value] = (*value, len(self._entries))
        self[prime] = entry
        return entry


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


def _check_table(mu: int, rs: int, shape_mu: int, shape_rs: int, ell: int, n: int) -> None:
    """The table's mu and r* against the shape's."""
    if mu != shape_mu:
        raise InternalCheckError(
            f"mu mismatch: {mu} table columns but {shape_mu} ramified primes (ell={ell}, n={n})"
        )
    if rs != shape_rs:
        raise InternalCheckError(
            f"r* from table = {rs} but shape shortcut gives {shape_rs} (ell={ell}, n={n})"
        )


def rank_closed(field: FieldInput) -> RankResult:
    """2-rank from the case table entry of the field's family; never builds
    a table."""
    d = field.shape
    tag = _case_tag(d.dyadic_ramifies, d.t1, d.t2, d.s1, d.s2)
    return RankResult(d.mu, _shape_r_star(d.s2), _CLOSED_RANK[tag](d.t1, d.t2, d.s1, d.s2), tag)


def rank_unified(field: FieldInput) -> RankResult:
    """2-rank via mu + r* - 3 with r* read off the explicit character table,
    which the result carries."""
    d = field.shape
    table = character_table(d, field.ell)
    mu, rs = len(table.columns), r_star(table)
    _check_table(mu, rs, d.mu, _shape_r_star(d.s2), field.ell, field.n)
    tag = _case_tag(d.dyadic_ramifies, d.t1, d.t2, d.s1, d.s2)
    return RankResult(mu, rs, mu + rs - 3, tag, table)


def flat_ranks(ell: int, n: int, dyadic: bool, t1: int, t2: int, s1: int, s2: int,
               rows: Sequence[Sequence[int]]) -> tuple[int, int, int, str]:
    """(mu, r*, rank, case) of one census field by both paths, from its
    counts and the flat rows -1, eps, -eps of its character table, with
    every check that rank_closed, rank_unified and RankResult make, and
    the two ranks' agreement."""
    case = _case_tag(dyadic, t1, t2, s1, s2)
    mu, rs = ramified_count(t1, t2, s1, s2, dyadic), _shape_r_star(s2)
    closed = _CLOSED_RANK[case](t1, t2, s1, s2)
    _check_rank(mu, rs, closed, case)
    table_mu, table_rs = len(rows[0]), _rows_r_star(rows)
    _check_table(table_mu, table_rs, mu, rs, ell, n)
    unified = table_mu + table_rs - 3
    _check_rank(table_mu, table_rs, unified, case)
    if closed != unified:
        raise InternalCheckError(f"rank paths disagree: closed rank {closed}, unified {unified}")
    return mu, rs, closed, case

