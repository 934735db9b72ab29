import pickle
from itertools import product

import pytest

from qtr import rank
from qtr.errors import EllNotFiveMod8, InternalCheckError
from qtr.ntheory import is_prime
from qtr.quad import SplittingType
from qtr.quartic import KIND_LETTERS, prime_kind, validate
from qtr.rank import (
    CharacterTable,
    Column,
    PrimeTable,
    RankResult,
    character_table,
    n_shape,
    r_star,
    ram_profile,
    rank_closed,
    rank_unified,
)

from .test_classify import synthetic_shape
from .test_quartic import valid_n_values

I, S = SplittingType.INERT, SplittingType.SPLIT


class TestNShape:
    def test_empty(self):
        shape = n_shape(validate(173, 1))
        assert (shape.delta, shape.tagged, shape.t, shape.s) == (1, (), 0, 0)

    def test_even_mixed(self):
        # 374 = 2 * 11 * 17; both odd primes are non-residues mod 29
        squares = {x * x % 29 for x in range(1, 29)}
        assert 17 % 29 not in squares and 11 % 29 not in squares
        shape = n_shape(validate(29, 374))
        assert shape.delta == 2
        assert shape.tagged == ((11, I), (17, I))
        assert (shape.t, shape.s, shape.t2, shape.s2) == (1, 1, 0, 0)

    def test_inert_and_split_p(self):
        # 3293 = 37 * 89; mod 5: 37 = 2 (non-residue), 89 = 4 (residue)
        shape = n_shape(validate(5, 3293))
        assert shape.tagged == ((37, I), (89, S))
        assert (shape.t, shape.s) == (2, 0)
        assert (shape.t1, shape.t2, shape.h) == (1, 1, 3)

    def test_counts(self):
        shape = n_shape(validate(13, 5 * 43 * 31 * 71))
        assert (shape.t, shape.s) == (1, 3)
        assert shape.t == shape.t1 + shape.t2
        assert shape.s == shape.s1 + shape.s2

    def test_counts_are_stored_at_build(self):
        shape = n_shape(validate(13, 5 * 43 * 31 * 71))
        stored = {"t", "s", "t1", "t2", "s1", "s2", "h", "w", "dyadic_ramifies", "mu"}
        # fields of the record, filled once by NShape(delta, tagged)
        assert stored <= set(shape._fields)
        # odd n with three q: the dyadic prime does not ramify
        assert (shape.h, shape.w, shape.dyadic_ramifies, shape.mu) == (1, 4, False, 6)


class TestRamProfile:
    def test_inert_p_profile(self):
        shape = n_shape(validate(37, 13))
        profile = ram_profile(shape)
        assert (profile.mu, shape.dyadic_ramifies, shape.h) == (3, True, 1)

    def test_inert_q_profile(self):
        shape = n_shape(validate(53, 67))
        profile = ram_profile(shape)
        assert (profile.mu, shape.dyadic_ramifies, shape.w) == (2, False, 1)

    def test_split_p_profile(self):
        shape = n_shape(validate(101, 13))
        profile = ram_profile(shape)
        assert (profile.mu, shape.dyadic_ramifies, shape.h) == (4, True, 2)
        kinds = [col.kind for col in profile.columns]
        assert kinds == ["sqrt_ell", "split_p", "split_p", "dyadic"]

    def test_column_order_is_ascending_with_pairs_adjacent(self):
        # 4757 = 67 * 71 over ell = 37: 67 splits, 71 splits (both q)
        profile = ram_profile(n_shape(validate(37, 4757)))
        labels = [col.label(37) for col in profile.columns]
        assert labels == ["sqrt(37)", "67", "67'", "71", "71'", "2"]

    def test_mu_formula(self, panel_ells):
        for ell in panel_ells[:4]:
            for n in valid_n_values(ell, 150):
                shape = n_shape(validate(ell, n))
                profile = ram_profile(shape)
                assert profile.mu == 1 + shape.h + shape.w + (1 if shape.dyadic_ramifies else 0)


class TestCharacterTable:
    def test_inert_p_table(self):
        table = character_table(n_shape(validate(37, 13)), 37)
        assert table.column_labels() == ["sqrt(37)", "13", "2"]
        assert table.entries == ((1, 1, 1), (-1, 1, -1), (-1, 1, -1))

    def test_inert_q_table(self):
        table = character_table(n_shape(validate(53, 67)), 53)
        assert table.column_labels() == ["sqrt(53)", "67"]
        assert table.entries == ((1, 1), (-1, -1), (-1, -1))

    def test_split_q_table(self):
        # 79 = 1 (mod 13) so 79 splits; tau = (79/13)_4 * (13/79)_4 = 1 * 1:
        assert pow(79, (13 - 1) // 4, 13) == 1
        table = character_table(n_shape(validate(13, 79)), 13)
        assert table.column_labels() == ["sqrt(13)", "79", "79'"]
        assert table.entries == ((1, -1, -1), (-1, 1, -1), (-1, -1, 1))

    def test_split_p_table_carries_sigma(self):
        # sigma = (13/101)_4 * (101/13)_4, both factors genuine quartic values
        sigma = (1 if pow(13, 25, 101) == 1 else -1) * (1 if pow(101, 3, 13) == 1 else -1)
        table = character_table(n_shape(validate(101, 13)), 101)
        assert table.entries[1] == (-1, sigma, sigma, -1)
        assert table.entries[0] == (1, 1, 1, 1)

    def test_row_invariants_over_sweep(self, panel_ells):
        for ell in panel_ells[:6]:
            for n in valid_n_values(ell, 200):
                table = character_table(n_shape(validate(ell, n)), ell)
                minus1, eps, minus_eps = table.entries
                assert eps[0] == -1  # eps is never a norm at sqrt(ell)
                assert minus_eps == tuple(a * b for a, b in zip(minus1, eps))
                assert table.row_products() == (1, 1, 1)

    def test_text_rendering(self):
        text = character_table(n_shape(validate(53, 67)), 53).to_text()
        assert text.splitlines()[0].split() == ["unit", "\\", "chi", "sqrt(53)", "67"]
        assert text.splitlines()[1].split() == ["-1", "+", "+"]

    def test_symbol_computed_once_per_split_prime(self, monkeypatch):
        # 4757 = 67 * 71 over ell = 37: two split q, four conjugate columns
        calls = []
        real = rank.quartic_symbol
        monkeypatch.setattr(rank, "quartic_symbol", lambda a, p: calls.append((a, p)) or real(a, p))
        table = character_table(n_shape(validate(37, 4757)), 37)
        assert sorted(calls) == [(37, 67), (37, 71), (67, 37), (71, 37)]
        minus1, eps, _ = table.entries
        assert minus1[1:5] == (-1, -1, -1, -1)
        assert eps[1] == -eps[2] and eps[3] == -eps[4]


class TestPrimeTable:
    def test_memo_table_equals_fresh_table(self, panel_ells):
        # each odd prime's memo entry: its count, its letters, and its -1 and
        # eps entries, which in column order are the fresh table's odd columns
        for ell in panel_ells[:6]:
            primes = PrimeTable(ell)
            for n in valid_n_values(ell, 400):
                shape = n_shape(validate(ell, n))
                entries = [primes[prime] for prime, _ in shape.tagged]
                kinds = [prime_kind(prime, tag) for prime, tag in shape.tagged]
                assert [entry[:3] for entry in entries] == [(k, *KIND_LETTERS[k]) for k in kinds]
                minus_one, eps = sum((e[3] for e in entries), ()), sum((e[4] for e in entries), ())
                fresh = character_table(shape, ell).entries
                odd = slice(1, 1 + len(minus_one))
                assert (fresh[0][odd], fresh[1][odd]) == (minus_one, eps), (ell, n)

    def test_symbols_once_per_prime_per_table(self, monkeypatch):
        calls = []
        real = rank.quartic_symbol
        monkeypatch.setattr(rank, "quartic_symbol", lambda a, p: calls.append((a, p)) or real(a, p))
        primes = PrimeTable(37)
        for n in (67, 71, 4757, 2 * 4757):
            for prime, _ in n_shape(validate(37, n)).tagged:
                primes[prime]
        assert sorted(calls) == [(37, 67), (37, 71), (67, 37), (71, 37)]

    def test_validates_ell(self):
        with pytest.raises(EllNotFiveMod8):
            PrimeTable(17)

    def test_equal_entries_share_a_class_id(self, monkeypatch):
        primes = PrimeTable(37)
        ids = {p: primes[p][5] for p in (3, 5, 7, 13, 17, 19)}
        assert ids[5] == ids[13] == ids[17]  # inert p
        assert primes[3][:3] == primes[7][:3] and ids[3] != ids[7]  # split q, tau -1 and +1
        assert sorted(set(ids.values())) == [0, 1, 2, 3]
        real = rank._prime_part

        def prime_part(prime, tag, ell):
            # a wrong entry at 29, otherwise an inert p like 5
            part = real(prime, tag, ell)
            return part._replace(eps=(-1,)) if prime == 29 else part

        monkeypatch.setattr(rank, "_prime_part", prime_part)
        assert primes[29][5] == 4 and primes[41][5] == 5  # 41 splits

    def test_a_class_id_fits_its_bits(self, monkeypatch):
        # past 2**CLASS_ID_BITS distinct entries the census keys would collide
        monkeypatch.setattr(rank, "_prime_part",
                            lambda prime, tag, ell: rank.PrimePart((), (prime,), (1,)))
        primes = PrimeTable(37)
        odd = [p for p in range(3, 5000, 2) if is_prime(p) and p != 37]
        for p in odd[:1 << rank.CLASS_ID_BITS]:
            primes[p]
        with pytest.raises(InternalCheckError, match="more than 256 distinct prime entries"):
            primes[odd[1 << rank.CLASS_ID_BITS]]


class TestRStar:
    def _table(self, *rows):
        cols = (Column("sqrt_ell"),) * len(rows[0])
        return CharacterTable(5, cols, tuple(tuple(r) for r in rows))

    @pytest.mark.parametrize("pattern", range(8))
    def test_closed_form_matches_span_enumeration(self, pattern):
        # bit i set: row i (-1, eps, -eps) is all-plus
        rows = [[1, 1] if pattern >> i & 1 else [1, -1] for i in range(3)]
        span = {(0, 0)}
        for vec, row in zip(((1, 0), (0, 1), (1, 1)), rows):
            if all(x == 1 for x in row) and vec not in span:
                span |= {(a ^ vec[0], b ^ vec[1]) for a, b in span}
        assert r_star(self._table(*rows)) == {1: 0, 2: 1, 4: 2}[len(span)]

    def test_from_real_fields(self):
        assert r_star(character_table(n_shape(validate(37, 13)), 37)) == 1
        assert r_star(character_table(n_shape(validate(13, 79)), 13)) == 0

    def test_only_minus_one_is_norm(self):
        assert r_star(self._table([1, 1], [1, -1], [1, -1])) == 1

    def test_no_norms(self):
        assert r_star(self._table([-1, 1], [1, -1], [-1, -1])) == 0

    def test_two_independent_norm_units(self):
        assert r_star(self._table([1, 1], [1, 1], [1, 1])) == 2

    def test_single_eps_row(self):
        assert r_star(self._table([-1, 1], [1, 1], [-1, 1])) == 1


class TestRankClosed:
    @pytest.mark.parametrize("ell,n,rank", [
        (173, 1, 0),
        (37, 13, 1),
        (5, 3293, 3),
    ])
    def test_examples(self, ell, n, rank):
        result = rank_closed(validate(ell, n))
        assert result.rank == rank

    def test_trivial_fields(self, panel_ells):
        for ell in panel_ells:
            assert rank_closed(validate(ell, 1)).rank == 0
            assert rank_closed(validate(ell, 2)).rank == 0

    def test_result_contains_case(self):
        assert rank_closed(validate(37, 13)).case_tag == "p-only:inert"
        assert rank_closed(validate(53, 67)).case_tag == "q-no2:inert"
        assert rank_closed(validate(13, 79)).case_tag == "q-no2:split"


class TestCaseTable:
    def test_one_entry_per_family_equal_to_the_class_formula(self):
        # delta in {1, 2}, t1, t2, s1, s2 in 0..4: 1,250 shapes, including
        # t = 4, which needs n >= 5*13*17*29 and so lies past the panel
        reached = set()
        for delta, t1, t2, s1, s2 in product((1, 2), range(5), range(5), range(5), range(5)):
            shape = synthetic_shape(delta, t1, t2, s1, s2)
            tag = rank._case_tag(shape.dyadic_ramifies, t1, t2, s1, s2)
            reached.add(tag)
            expected = shape.mu + (1 if shape.s2 == 0 else 0) - 3
            assert rank._CLOSED_RANK[tag](t1, t2, s1, s2) == expected, (delta, t1, t2, s1, s2, tag)
        assert len(reached) == 16
        assert sorted(rank._CLOSED_RANK) == sorted(reached)


class TestRankResultGate:
    def test_inconsistent_result_rejected(self):
        with pytest.raises(InternalCheckError):
            RankResult(mu=3, r_star=1, rank=0, case_tag="p-only:inert")
        with pytest.raises(InternalCheckError):
            RankResult(mu=1, r_star=1, rank=-1, case_tag="trivial")

    def test_consistent_result_accepted(self):
        result = RankResult(mu=3, r_star=1, rank=1, case_tag="p-only:inert")
        assert result.rank == result.mu + result.r_star - 3

    def test_results_compare_without_their_table(self):
        field = validate(101, 13)
        closed, unified = rank_closed(field), rank_unified(field)
        assert closed.table is None and unified.table is not None
        assert closed == unified and not closed != unified
        assert hash(closed) == hash(unified)
        assert repr(unified) == "RankResult(mu=4, r_star=1, rank=2, case_tag='p-only:split')"


class TestRecords:
    def test_immutable(self):
        field = validate(37, 2 * 17 * 31 * 83)
        for record, name in ((field, "n"), (field.shape, "mu"), (rank_unified(field), "rank")):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)

    def test_pickle_round_trip(self):
        # the derived records pickle by their constructor's arguments
        field = validate(37, 2 * 17 * 31 * 83)
        unified = rank_unified(field)
        for record in (field, field.shape, unified, unified.table):
            assert pickle.loads(pickle.dumps(record)) == record
        assert pickle.loads(pickle.dumps(unified)).table == unified.table


class TestRankUnified:
    def test_split_p_example(self):
        result = rank_unified(validate(101, 13))
        assert (result.mu, result.r_star, result.rank) == (4, 1, 2)

    def test_split_q_example(self):
        result = rank_unified(validate(13, 79))
        assert (result.mu, result.r_star, result.rank) == (3, 0, 0)

    def test_four_factor_example(self):
        assert rank_unified(validate(37, 2 * 17 * 31 * 83)).rank == 3

    def test_carries_its_table(self):
        field = validate(101, 13)
        table = rank_unified(field).table
        assert table == character_table(field.shape, 101)
        assert rank_closed(field).table is None


class TestCrossPath:
    def test_paths_agree_over_sweep(self, panel_ells):
        for ell in panel_ells:
            for n in valid_n_values(ell, 300):
                field = validate(ell, n)
                closed = rank_closed(field)
                unified = rank_unified(field)
                assert closed.rank == unified.rank, (ell, n)
                assert closed.mu == unified.mu
                assert closed.r_star == unified.r_star
                assert closed.case_tag == unified.case_tag
                assert closed.rank >= 0

    def test_r_star_shape_shortcut(self, panel_ells):
        for ell in panel_ells[:6]:
            for n in valid_n_values(ell, 200):
                field = validate(ell, n)
                shape = n_shape(field)
                rs = r_star(character_table(shape, ell))
                assert rs in (0, 1)
                assert (rs == 1) == (shape.s2 == 0), (ell, n)
