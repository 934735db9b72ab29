"""Shape characterizations of the fields with 2-rank 0, 1, 2 or 3.

Each pattern is a predicate on the factorization shape alone (counts of
primes = 1 / = 3 (mod 4), their split/inert tags, and the parity of n); no
residue symbols are re-derived here.  Fields matching no pattern have rank
at least 4.  Pattern ids group by the rank they pin down: r2.4 is the fourth
rank-2 pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import InternalCheckError
from .quartic import FieldInput, NShape


@dataclass(frozen=True)
class ShapePattern:
    """A shape with exactly t primes = 1 (mod 4) and s primes = 3 (mod 4) in
    n, on which rest holds; rest reads only the shape's counts and delta."""

    pattern_id: str
    rank: int
    t: int
    s: int
    description: str
    rest: Callable[[NShape], bool]

    def matches(self, shape: NShape) -> bool:
        return shape.t == self.t and shape.s == self.s and self.rest(shape)


_p = ShapePattern


PATTERNS: tuple[ShapePattern, ...] = (
    # rank 0
    _p("r0.1", 0, 0, 0, "n = 1 or 2",
       lambda d: True),
    _p("r0.2", 0, 0, 1, "n = q",
       lambda d: d.delta == 1),
    # rank 1
    _p("r1.1", 1, 1, 0, "n = delta*p, p inert",
       lambda d: d.t1 == 1),
    _p("r1.2", 1, 0, 1, "n = 2q",
       lambda d: d.delta == 2),
    _p("r1.3", 1, 1, 1, "n = p*q, p inert",
       lambda d: d.delta == 1 and d.t1 == 1),
    # rank 2
    _p("r2.1", 2, 1, 0, "n = delta*p, p split",
       lambda d: d.t2 == 1),
    _p("r2.2", 2, 2, 0, "n = delta*p1*p2, both inert",
       lambda d: d.t1 == 2),
    _p("r2.3", 2, 1, 1, "n = p*q, p split",
       lambda d: d.delta == 1 and d.t2 == 1),
    _p("r2.4", 2, 1, 1, "n = 2*p*q, p inert",
       lambda d: d.delta == 2 and d.t1 == 1),
    _p("r2.5", 2, 2, 1, "n = p1*p2*q, both p inert",
       lambda d: d.delta == 1 and d.t1 == 2),
    _p("r2.6", 2, 0, 2, "n = delta*q1*q2, at least one inert",
       lambda d: d.s1 >= 1),
    _p("r2.7", 2, 0, 3, "n = q1*q2*q3, at most one split",
       lambda d: d.delta == 1 and d.s2 <= 1),
    # rank 3
    _p("r3.1", 3, 2, 0, "n = delta*p1*p2, one split one inert",
       lambda d: d.t1 == 1),
    _p("r3.2", 3, 3, 0, "n = delta*p1*p2*p3, all inert",
       lambda d: d.t1 == 3),
    _p("r3.3", 3, 1, 1, "n = 2*p*q, p split",
       lambda d: d.delta == 2 and d.t2 == 1),
    _p("r3.4", 3, 0, 2, "n = delta*q1*q2, both split",
       lambda d: d.s2 == 2),
    _p("r3.5", 3, 0, 3, "n = q1*q2*q3, exactly one inert",
       lambda d: d.delta == 1 and d.s1 == 1),
    _p("r3.6", 3, 0, 3, "n = 2*q1*q2*q3, at most one split",
       lambda d: d.delta == 2 and d.s2 <= 1),
    _p("r3.7", 3, 2, 1, "n = p1*p2*q, one p split one inert",
       lambda d: d.delta == 1 and d.t1 == 1),
    _p("r3.8", 3, 2, 1, "n = 2*p1*p2*q, both p inert",
       lambda d: d.delta == 2 and d.t1 == 2),
    _p("r3.9", 3, 1, 2, "n = delta*p*q1*q2, p inert, at least one q inert",
       lambda d: d.t1 == 1 and d.s1 >= 1),
    _p("r3.10", 3, 1, 3, "n = p*q1*q2*q3, p inert, at most one q split",
       lambda d: d.delta == 1 and d.t1 == 1 and d.s2 <= 1),
    _p("r3.11", 3, 3, 1, "n = p1*p2*p3*q, all p inert",
       lambda d: d.delta == 1 and d.t1 == 3),
)

# The patterns of each (t, s): no other pattern can match a shape with it.
_BY_T_S: dict[tuple[int, int], tuple[ShapePattern, ...]] = {
    key: tuple(pat for pat in PATTERNS if (pat.t, pat.s) == key)
    for key in {(pat.t, pat.s) for pat in PATTERNS}
}


@dataclass(frozen=True)
class Classification:
    """rank is 0..3 with the matching pattern, or None meaning rank >= 4."""

    rank: Optional[int]
    pattern: Optional[ShapePattern]


def classify_small_rank(field: FieldInput) -> Classification:
    shape = field.shape
    hits = [pat for pat in _BY_T_S.get((shape.t, shape.s), ()) if pat.matches(shape)]
    if len(hits) > 1:
        raise InternalCheckError(
            f"patterns {[p.pattern_id for p in hits]} overlap on ell={field.ell} n={field.n}"
        )
    if hits:
        return Classification(hits[0].rank, hits[0])
    return Classification(None, None)

