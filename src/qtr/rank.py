"""The 2-rank of the class group of K, computed along two independent paths.

Path one ("closed"): name the family of the shape of n (_case_tag) and look
up its rank expression in the paper's case table (_CLOSED_RANK).

Path two ("unified"): build the table of norm-residue characters of the units
-1, eps, -eps at every prime of k = Q(sqrt(ell)) that ramifies in K, read off
which units are norms, and evaluate rank = mu + r* - 3.  Here mu counts the
ramified primes of k (the real places never ramify: K is totally real), and
k has one fundamental unit and contains -1, which fixes the constant 3.

Both paths read one record, the NShape of quartic.shape_class: a
FieldInput's shape for the single-field path, or a shape class's record for
the census, whose kinds come from its cli.PrimeTable.  Each path is stated
once, over that record (_closed_rank, _unified_rank): flat_ranks runs both,
rank_closed and rank_unified one each.  They share the family name and the
shape's r* (_case_r_star), but the closed rank comes only from the case
table and the unified rank only from the rows, so their agreement
everywhere is the central correctness check of the package.
"""

from __future__ import annotations

from math import prod
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import InternalCheckError
from .ntheory import quartic_symbol
from .quartic import KIND_ENTRIES, FieldInput, NShape

UNIT_LABELS = ("-1", "eps", "-eps")


class Column(NamedTuple):
    """One ramified prime of k: sqrt(ell) (prime None), the dyadic one (2),
    or one above an odd prime of n, the second of a split pair conjugate."""

    prime: Optional[int] = None
    conjugate: bool = False

    def label(self, ell: int) -> str:
        if self.prime is None:
            return f"sqrt({ell})"
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
        """A header of the column labels, then a row of + and - per unit: the
        head is wider than every unit label, and no column label is empty."""
        head, labels = "unit \\ chi", self.column_labels()
        lines = ["  ".join([head, *labels])]
        for unit, row in zip(UNIT_LABELS, self.entries):
            marks = ("+" if x == 1 else "-" for x in row)
            lines.append("  ".join([unit.ljust(len(head)),
                                    *(m.rjust(len(lab)) for m, lab in zip(marks, labels))]))
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
        if rank != mu + r_star - 3 or rank < 0:
            raise InternalCheckError(
                f"inconsistent rank result: mu={mu} r*={r_star} rank={rank} case={case_tag}"
            )
        return super().__new__(cls, mu, r_star, rank, case_tag)


def n_shape(field: FieldInput) -> NShape:
    """The shape of n, built once with the field record."""
    return field.shape


def ram_profile(shape: NShape) -> RamProfile:
    """Ramified primes of k in K, in the output order of the table columns:
    sqrt(ell) first, the odd primes ascending, each with one column per
    entry of its kind (KIND_ENTRIES; a split pair has the unbarred
    conjugate first), the dyadic prime last."""
    columns = [Column()]
    for prime, kind in zip(shape.primes, shape.kinds):
        columns += [Column(prime, i > 0) for i in range(len(KIND_ENTRIES[kind][0]))]
    if shape.dyadic_ramifies:
        columns.append(Column(2))
    return RamProfile(tuple(columns), len(columns))


def _split_sign(prime: int, ell: int) -> int:
    """The sign of a split prime: sigma or tau = (p/ell)_4 * (ell/p)_4."""
    return quartic_symbol(prime, ell) * quartic_symbol(ell, prime)


def character_table(shape: NShape, ell: int) -> CharacterTable:
    """Norm-residue characters of -1, eps and -eps at each ramified prime:
    the shape's rows under the columns of its ram_profile, with each split
    prime's sign (_split_sign) multiplied into its eps and -eps entries: a
    split prime is one with a conjugate column."""
    columns = ram_profile(shape).columns
    signs = {col.prime: _split_sign(col.prime, ell) for col in columns if col.conjugate}
    signed = [signs.get(col.prime, 1) for col in columns]
    rows = (shape.rows[0], *(tuple(x * s for x, s in zip(row, signed)) for row in shape.rows[1:]))
    return CharacterTable(ell, columns, rows)


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


def _case_r_star(shape: NShape) -> tuple[str, int]:
    """The shape's family (_case_tag) and r* from the shape alone, 1 exactly
    when no q-factor splits in k, by which both paths name their result and
    against which they check it."""
    return (_case_tag(shape.dyadic_ramifies, shape.t1, shape.t2, shape.s1, shape.s2),
            1 if shape.s2 == 0 else 0)


def _closed_rank(shape: NShape, case: str) -> int:
    """The closed path: the case table's rank of the shape's family."""
    return _CLOSED_RANK[case](shape.t1, shape.t2, shape.s1, shape.s2)


def _unified_rank(shape: NShape, rs: int, ell: int, n: int) -> int:
    """The unified path: mu + r* - 3 with mu and r* read off the shape's rows
    -1, eps, -eps, each checked against the shape's.  A split sign, which
    the rows leave out, multiplies the eps and -eps entries of both its
    prime's columns, so it keeps each row's product; and those two rows are
    never all-plus (both are -1 at sqrt(ell)), so r* reads the -1 row alone."""
    table_mu, table_rs = len(shape.rows[0]), _rows_r_star(shape.rows)
    if table_mu != shape.mu:
        raise InternalCheckError(f"mu mismatch: {table_mu} table columns but {shape.mu} "
                                 f"ramified primes (ell={ell}, n={n})")
    if table_rs != rs:
        raise InternalCheckError(
            f"r* from table = {table_rs} but shape shortcut gives {rs} (ell={ell}, n={n})")
    return table_mu + table_rs - 3


def rank_closed(field: FieldInput) -> RankResult:
    """2-rank from the case table entry of the field's family; reads no
    character entries."""
    case, rs = _case_r_star(field.shape)
    return RankResult(field.shape.mu, rs, _closed_rank(field.shape, case), case)


def rank_unified(field: FieldInput) -> RankResult:
    """2-rank via mu + r* - 3, read off the rows of the field's shape."""
    case, rs = _case_r_star(field.shape)
    return RankResult(field.shape.mu, rs, _unified_rank(field.shape, rs, field.ell, field.n), case)


def flat_ranks(ell: int, n: int, shape: NShape) -> RankResult:
    """The rank of the field (ell, n) with the given shape, by both paths.
    RankResult checks the closed rank against the shape's mu + r* - 3, and
    the unified path checks that its mu and r* are the shape's, so two ranks
    that both pass are equal: the unified rank needs no check of its own.  A
    failed check raises InternalCheckError named by (ell, n) and cross_path."""
    case, rs = _case_r_star(shape)
    try:
        closed = RankResult(shape.mu, rs, _closed_rank(shape, case), case)
        _unified_rank(shape, rs, ell, n)
    except InternalCheckError as exc:
        raise InternalCheckError(f"ell={ell} n={n} check=cross_path: {exc}") from exc
    return closed
