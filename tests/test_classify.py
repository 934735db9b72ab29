from itertools import product

import pytest

from qtr import classify
from qtr.classify import PATTERNS, classify_small_rank
from qtr.errors import InternalCheckError
from qtr.quad import SplittingType
from qtr.quartic import prime_kind, shape_class, validate
from qtr.rank import rank_closed

from .test_quartic import valid_n_values

I, S = SplittingType.INERT, SplittingType.SPLIT


def matches(pattern, shape):
    """Whether the shape has the pattern's (t, s) and satisfies its rest."""
    return ((shape.t1 + shape.t2, shape.s1 + shape.s2) == (pattern.t, pattern.s)
            and pattern.rest(shape.delta, shape.t1, shape.t2, shape.s1, shape.s2))


def synthetic_shape(delta, t1, t2, s1, s2):
    """A shape with the requested counts; the predicates read only counts.
    The stand-in primes are 1 (mod 4) for p and 3 (mod 4) for q."""
    ps = [(5 + 4 * i, I) for i in range(t1)] + [(997 + 4 * i, S) for i in range(t2)]
    qs = [(3 + 4 * j, I) for j in range(s1)] + [(999 + 4 * j, S) for j in range(s2)]
    tagged = sorted(ps + qs)
    return shape_class(delta, [prime_kind(p, tag) for p, tag in tagged],
                       tuple(p for p, _ in tagged))


class TestPatternTable:
    def test_counts_per_rank(self):
        by_rank = {r: [p for p in PATTERNS if p.rank == r] for r in range(4)}
        assert [len(by_rank[r]) for r in range(4)] == [2, 3, 7, 11]

    def test_ids_unique(self):
        ids = [p.pattern_id for p in PATTERNS]
        assert len(set(ids)) == len(ids) == 23

    def test_mutually_exclusive_over_all_small_shapes(self):
        for delta, t1, t2, s1, s2 in product((1, 2), range(5), range(5), range(5), range(5)):
            shape = synthetic_shape(delta, t1, t2, s1, s2)
            hits = [p.pattern_id for p in PATTERNS if matches(p, shape)]
            assert len(hits) <= 1, (delta, t1, t2, s1, s2, hits)


    def test_index_by_t_s_partitions_the_patterns(self):
        buckets = classify._BY_T_S
        indexed = [p for bucket in buckets.values() for p in bucket]
        assert sorted(p.pattern_id for p in indexed) == sorted(p.pattern_id for p in PATTERNS)
        for key, bucket in buckets.items():
            assert all((p.t, p.s) == key for p in bucket)
        for delta, t1, t2, s1, s2 in product((1, 2), range(5), range(5), range(5), range(5)):
            shape = synthetic_shape(delta, t1, t2, s1, s2)
            for p in PATTERNS:
                if matches(p, shape):
                    assert (shape.t1 + shape.t2, shape.s1 + shape.s2) == (p.t, p.s), p.pattern_id


class TestClassify:
    def test_trivial(self):
        cls = classify_small_rank(validate(173, 1))
        assert (cls.rank, cls.pattern.pattern_id) == (0, "r0.1")

    def test_two_q(self):
        cls = classify_small_rank(validate(53, 2 * 19))
        assert (cls.rank, cls.pattern.pattern_id) == (1, "r1.2")

    def test_three_q(self):
        cls = classify_small_rank(validate(61, 23 * 71 * 83))
        assert (cls.rank, cls.pattern.pattern_id) == (2, "r2.7")

    def test_at_least_four(self):
        # 29 * 2 * 41 * 53 * 89: three p-factors with a split among them
        cls = classify_small_rank(validate(29, 2 * 41 * 53 * 89))
        assert cls.rank is None and cls.pattern is None

    def test_agreement_with_closed_rank(self, panel_ells):
        for ell in panel_ells:
            for n in valid_n_values(ell, 400):
                field = validate(ell, n)
                rank = rank_closed(field).rank
                cls = classify_small_rank(field)
                if rank <= 3:
                    assert cls.rank == rank, (ell, n)
                else:
                    assert cls.rank is None, (ell, n)


    def test_overlap_in_a_bucket_is_an_internal_error(self, monkeypatch):
        bucket = classify._BY_T_S[0, 0]
        monkeypatch.setitem(classify._BY_T_S, (0, 0), bucket + bucket)
        with pytest.raises(InternalCheckError, match="overlap on ell=173 n=1"):
            classify_small_rank(validate(173, 1))


class TestEnumerate:
    """Ranks over small ranges of n, read off classify_small_rank."""

    def test_rank0_bound_two(self):
        assert [classify_small_rank(validate(37, n)).rank for n in (1, 2)] == [0, 0]

    def test_rank1_contains_inert_p(self):
        assert classify_small_rank(validate(37, 13)).rank == 1

    def test_rank3_contains_two_prime_product(self):
        # 3293 = 37 * 89 lies past the panel's n <= 3000
        assert classify_small_rank(validate(5, 3293)).rank == 3

    def test_matches_closed_rank_for_large_target(self):
        ns = [n for n in valid_n_values(29, 800) if rank_closed(validate(29, n)).rank == 4]
        assert ns
        assert all(classify_small_rank(validate(29, n)).rank is None for n in ns)

    def test_rank0_prefix_for_ell_5(self):
        ns = [n for n in valid_n_values(5, 10) if classify_small_rank(validate(5, n)).rank == 0]
        assert ns == [1, 2, 3, 7]
