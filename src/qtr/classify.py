"""Shape characterizations of the fields with 2-rank 0, 1, 2 or 3.

Each pattern is a predicate on the factorization shape alone (counts of
primes = 1 / = 3 (mod 4), their split/inert tags, and the parity of n, as
the plain ints delta, t1, t2, s1, s2); no residue symbols are re-derived
here.  Fields matching no pattern have rank at least 4.  Pattern ids group
by the rank they pin down: r2.4 is the fourth rank-2 pattern.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .errors import InternalCheckError
from .quartic import FieldInput


class ShapePattern(NamedTuple):
    """A shape with exactly t primes = 1 (mod 4) and s primes = 3 (mod 4) in
    n, on which rest(delta, t1, t2, s1, s2) holds."""

    pattern_id: str
    rank: int
    t: int
    s: int
    description: str
    rest: Callable[[int, int, int, int, int], bool]


_p = ShapePattern


PATTERNS: tuple[ShapePattern, ...] = (
    # rank 0
    _p("r0.1", 0, 0, 0, "n = 1 or 2",
       lambda delta, t1, t2, s1, s2: True),
    _p("r0.2", 0, 0, 1, "n = q",
       lambda delta, t1, t2, s1, s2: delta == 1),
    # rank 1
    _p("r1.1", 1, 1, 0, "n = delta*p, p inert",
       lambda delta, t1, t2, s1, s2: t1 == 1),
    _p("r1.2", 1, 0, 1, "n = 2q",
       lambda delta, t1, t2, s1, s2: delta == 2),
    _p("r1.3", 1, 1, 1, "n = p*q, p inert",
       lambda delta, t1, t2, s1, s2: delta == 1 and t1 == 1),
    # rank 2
    _p("r2.1", 2, 1, 0, "n = delta*p, p split",
       lambda delta, t1, t2, s1, s2: t2 == 1),
    _p("r2.2", 2, 2, 0, "n = delta*p1*p2, both inert",
       lambda delta, t1, t2, s1, s2: t1 == 2),
    _p("r2.3", 2, 1, 1, "n = p*q, p split",
       lambda delta, t1, t2, s1, s2: delta == 1 and t2 == 1),
    _p("r2.4", 2, 1, 1, "n = 2*p*q, p inert",
       lambda delta, t1, t2, s1, s2: delta == 2 and t1 == 1),
    _p("r2.5", 2, 2, 1, "n = p1*p2*q, both p inert",
       lambda delta, t1, t2, s1, s2: delta == 1 and t1 == 2),
    _p("r2.6", 2, 0, 2, "n = delta*q1*q2, at least one inert",
       lambda delta, t1, t2, s1, s2: s1 >= 1),
    _p("r2.7", 2, 0, 3, "n = q1*q2*q3, at most one split",
       lambda delta, t1, t2, s1, s2: delta == 1 and s2 <= 1),
    # rank 3
    _p("r3.1", 3, 2, 0, "n = delta*p1*p2, one split one inert",
       lambda delta, t1, t2, s1, s2: t1 == 1),
    _p("r3.2", 3, 3, 0, "n = delta*p1*p2*p3, all inert",
       lambda delta, t1, t2, s1, s2: t1 == 3),
    _p("r3.3", 3, 1, 1, "n = 2*p*q, p split",
       lambda delta, t1, t2, s1, s2: delta == 2 and t2 == 1),
    _p("r3.4", 3, 0, 2, "n = delta*q1*q2, both split",
       lambda delta, t1, t2, s1, s2: s2 == 2),
    _p("r3.5", 3, 0, 3, "n = q1*q2*q3, exactly one inert",
       lambda delta, t1, t2, s1, s2: delta == 1 and s1 == 1),
    _p("r3.6", 3, 0, 3, "n = 2*q1*q2*q3, at most one split",
       lambda delta, t1, t2, s1, s2: delta == 2 and s2 <= 1),
    _p("r3.7", 3, 2, 1, "n = p1*p2*q, one p split one inert",
       lambda delta, t1, t2, s1, s2: delta == 1 and t1 == 1),
    _p("r3.8", 3, 2, 1, "n = 2*p1*p2*q, both p inert",
       lambda delta, t1, t2, s1, s2: delta == 2 and t1 == 2),
    _p("r3.9", 3, 1, 2, "n = delta*p*q1*q2, p inert, at least one q inert",
       lambda delta, t1, t2, s1, s2: t1 == 1 and s1 >= 1),
    _p("r3.10", 3, 1, 3, "n = p*q1*q2*q3, p inert, at most one q split",
       lambda delta, t1, t2, s1, s2: delta == 1 and t1 == 1 and s2 <= 1),
    _p("r3.11", 3, 3, 1, "n = p1*p2*p3*q, all p inert",
       lambda delta, t1, t2, s1, s2: delta == 1 and t1 == 3),
)

# The patterns of each (t, s): no other pattern can match a shape with it.
_BY_T_S: dict[tuple[int, int], tuple[ShapePattern, ...]] = {
    key: tuple(pat for pat in PATTERNS if (pat.t, pat.s) == key)
    for key in {(pat.t, pat.s) for pat in PATTERNS}
}


class Classification(NamedTuple):
    """rank is 0..3 with the matching pattern, or None meaning rank >= 4."""

    rank: Optional[int]
    pattern: Optional[ShapePattern]


def small_rank_pattern(delta: int, t1: int, t2: int, s1: int, s2: int,
                       ell: int, n: int) -> Optional[ShapePattern]:
    """The one pattern the counts of the field (ell, n) match, or None for
    rank >= 4; ell and n only name the field if two patterns overlap."""
    hits = [pat for pat in _BY_T_S.get((t1 + t2, s1 + s2), ()) if pat.rest(delta, t1, t2, s1, s2)]
    if len(hits) > 1:
        raise InternalCheckError(
            f"patterns {[p.pattern_id for p in hits]} overlap on ell={ell} n={n}"
        )
    return hits[0] if hits else None


def classify_small_rank(field: FieldInput) -> Classification:
    d = field.shape
    pat = small_rank_pattern(d.delta, d.t1, d.t2, d.s1, d.s2, field.ell, field.n)
    return Classification(pat.rank, pat) if pat else Classification(None, None)

