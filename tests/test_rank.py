import pickle
from itertools import product
from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtr import cli, quartic, rank
from qtr.cli import main
from qtr.errors import EllNotFiveMod8, InternalCheckError
from qtr.ntheory import is_prime
from qtr.quad import SplittingType, splitting_type
from qtr.quartic import KIND_LETTERS, prime_kind, ramified_count, validate
from qtr.cli import CLASS_ID_BITS, PrimeTable
from qtr.rank import (
    CharacterTable,
    Column,
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
        assert (shape.delta, shape.primes, shape.kinds) == (1, (), ())
        assert (shape.t1 + shape.t2, shape.s1 + shape.s2) == (0, 0)

    def test_even_mixed(self):
        # 374 = 2 * 11 * 17; both odd primes are non-residues mod 29
        squares = {x * x % 29 for x in range(1, 29)}
        assert 17 % 29 not in squares and 11 % 29 not in squares
        shape = n_shape(validate(29, 374))
        assert shape.delta == 2
        # 11 is an inert q and 17 an inert p
        assert (shape.primes, shape.kinds) == ((11, 17), (2, 0))
        assert (shape.t1 + shape.t2, shape.s1 + shape.s2, shape.t2, shape.s2) == (1, 1, 0, 0)

    def test_inert_and_split_p(self):
        # 3293 = 37 * 89; mod 5: 37 = 2 (non-residue), 89 = 4 (residue)
        shape = n_shape(validate(5, 3293))
        assert (shape.primes, shape.kinds) == ((37, 89), (prime_kind(37, I), prime_kind(89, S)))
        assert (shape.t1 + shape.t2, shape.s1 + shape.s2) == (2, 0)
        assert (shape.t1, shape.t2) == (1, 1)
        # one prime of k above the inert p, two above the split one
        assert ramified_count(shape.t1, shape.t2, 0, 0, False) - 1 == 3

    def test_counts(self):
        shape = n_shape(validate(13, 5 * 43 * 31 * 71))
        assert (shape.t1 + shape.t2, shape.s1 + shape.s2) == (1, 3)
        # 5, 31 and 71 are inert mod 13, 43 splits
        assert (shape.t1, shape.t2, shape.s1, shape.s2) == (1, 0, 2, 1)

    def test_counts_are_stored_at_build(self):
        shape = n_shape(validate(13, 5 * 43 * 31 * 71))
        stored = {"t1", "t2", "s1", "s2", "dyadic_ramifies", "mu", "kinds", "rows"}
        # fields of the record, filled once by shape_class
        assert stored <= set(shape._fields)
        # odd n with three q: the dyadic prime does not ramify; one prime of
        # k above the p, four above the q's
        assert (shape.t1 + 2 * shape.t2, shape.s1 + 2 * shape.s2) == (1, 4)
        assert (shape.dyadic_ramifies, shape.mu) == (False, 6)
        assert shape.mu == ramified_count(shape.t1, shape.t2, shape.s1, shape.s2, False)


class TestRamProfile:
    def test_inert_p_profile(self):
        shape = n_shape(validate(37, 13))
        profile = ram_profile(shape)
        assert (profile.mu, shape.dyadic_ramifies, shape.t1 + 2 * shape.t2) == (3, True, 1)

    def test_inert_q_profile(self):
        shape = n_shape(validate(53, 67))
        profile = ram_profile(shape)
        assert (profile.mu, shape.dyadic_ramifies, shape.s1 + 2 * shape.s2) == (2, False, 1)

    def test_split_p_profile(self):
        shape = n_shape(validate(101, 13))
        profile = ram_profile(shape)
        assert (profile.mu, shape.dyadic_ramifies, shape.t1 + 2 * shape.t2) == (4, True, 2)
        # 13 is a split p over 101: one column per entry of its kind
        assert shape.kinds == (1,) and len(quartic.KIND_ENTRIES[1][0]) == 2
        labels = [col.label(101) for col in profile.columns]
        assert labels == ["sqrt(101)", "13", "13'", "2"]

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
                h, w = shape.t1 + 2 * shape.t2, shape.s1 + 2 * shape.s2
                assert profile.mu == 1 + h + w + (1 if shape.dyadic_ramifies else 0) == shape.mu


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
        monkeypatch.setattr(rank, "quartic_symbol",
                            lambda a, p: calls.append((a, p)) or real(a, p))
        shape = n_shape(validate(37, 4757))
        assert calls == []  # the record computes no sign
        table = character_table(shape, 37)
        assert sorted(calls) == [(37, 67), (37, 71), (67, 37), (71, 37)]
        minus1, eps, _ = table.entries
        assert minus1[1:5] == (-1, -1, -1, -1)
        assert eps[1] == -eps[2] and eps[3] == -eps[4]


class TestPrimeTable:
    def test_memo_table_equals_fresh_table(self, panel_ells):
        # each odd prime's table value is its kind, and the kinds' entries
        # (KIND_ENTRIES), in column order, are the odd columns of the
        # field's own sign-free rows
        for ell in panel_ells[:6]:
            primes = PrimeTable(ell)
            for n in valid_n_values(ell, 400):
                shape = n_shape(validate(ell, n))
                kinds = [primes[prime] for prime in shape.primes]
                assert kinds == list(shape.kinds)
                assert kinds == [prime_kind(p, splitting_type(p, ell)) for p in shape.primes]
                entries = [quartic.KIND_ENTRIES[kind] for kind in kinds]
                minus_one, eps = sum((e[0] for e in entries), ()), sum((e[1] for e in entries), ())
                odd = slice(1, 1 + len(minus_one))
                assert (shape.rows[0][odd], shape.rows[1][odd]) == (minus_one, eps), (ell, n)
        # at ell = 5 each residue class holds hundreds of these primes; at
        # 1000000021 none holds two, and with the census's bound none is kept
        for ell, bound in ((5, {}), (1000000021, {}), (1000000021, {"n_max": 20000})):
            primes = PrimeTable(ell, **bound)
            for p in range(3, 20000, 2):
                if p != ell and is_prime(p):
                    assert primes[p] == prime_kind(p, splitting_type(p, ell)), (ell, p)
            assert len(primes._residues) == (0 if bound else min(ell - 1, len(primes)))

    def test_residue_classes_kept_while_a_later_prime_can_occur(self):
        # the next odd number of p's class mod 37 is p + 74: 127 + 74 = 201
        # is the bound, 131 + 74 passes it (127 = 16 and 131 = 20 mod 37)
        primes = PrimeTable(37, 201)
        for p in (3, 5, 127, 131, 139):
            primes[p]
        assert sorted(primes._residues) == [3, 5, 16]

    def test_symbols_once_per_prime_per_table(self, monkeypatch):
        # the table computes no quartic symbol; each split prime gets one
        # Euler's-criterion check, (ell/p) by reciprocity, at its first lookup
        odd = [prime for n in (41, 67, 71, 4757, 2 * 4757, 5 * 41)
               for prime in n_shape(validate(37, n)).primes]
        symbols, checks = [], []
        monkeypatch.setattr(rank, "quartic_symbol", lambda a, p: symbols.append((a, p)))
        real = cli.legendre
        monkeypatch.setattr(cli, "legendre", lambda a, p: checks.append((a, p)) or real(a, p))
        primes = PrimeTable(37)
        for prime in odd:
            primes[prime]
        assert symbols == [] and sorted(checks) == [(37, 41), (37, 67), (37, 71)]

    def test_a_misreported_splitting_exits_3(self, capsys, monkeypatch):
        # 5 is inert over 37; a splitting rule that calls it split fails the
        # reciprocity check at its first lookup, named by (ell, prime)
        real = cli.splitting_type
        monkeypatch.setattr(cli, "splitting_type",
                            lambda r, ell: S if r == 5 else real(r, ell))
        monkeypatch.delenv("QTR_DEFAULT_FORMAT", raising=False)
        for command in ("scan", "verify"):
            assert main([command, "--ell", "37", "--n-max", "100", "--format", "csv"]) == 3
            err = capsys.readouterr().err
            assert err == "internal error: ell=37 prime=5: split, but (37/5) != 1\n"

    def test_validates_ell(self):
        with pytest.raises(EllNotFiveMod8):
            PrimeTable(17)

    def test_equal_entries_share_a_class_id(self, monkeypatch):
        # 3, 7 split q; 5, 13, 17 inert p; 19 inert q; 41 split p: a prime's
        # key digit is its kind, so primes with equal entries share it
        primes = PrimeTable(37)
        kinds = {p: primes[p] for p in (3, 5, 7, 13, 17, 19, 41)}
        assert kinds == {3: 3, 5: 0, 7: 3, 13: 0, 17: 0, 19: 2, 41: 1}
        assert [KIND_LETTERS[kinds[p]] for p in (3, 5, 19, 41)] == [
            ("q", "S"), ("p", "I"), ("q", "I"), ("p", "S")]
        # the table keeps no entries: the shape step reads the kind table,
        # so a wrong entry there is that of every inert p, 29 and 5 alike
        monkeypatch.setattr(quartic, "KIND_ENTRIES", (((1,), (-1,)), *quartic.KIND_ENTRIES[1:]))
        for p in (5, 29):
            assert cli._class_step(1 << CLASS_ID_BITS | primes[p]).rows[1][1] == -1

    def test_a_class_id_fits_its_bits(self):
        # four kinds, whatever the primes; a key's digits base
        # 2**CLASS_ID_BITS are delta and the kinds, and read back to them
        for ell in (5, 37, 1000000021):
            primes = PrimeTable(ell)
            odd = [p for p in range(3, 5000, 2) if p != ell and is_prime(p)]
            kinds = [primes[p] for p in odd]
            assert sorted(set(kinds)) == [0, 1, 2, 3] == list(range(1 << CLASS_ID_BITS))
            for delta in (1, 2):
                key = delta
                for kind in kinds[:12]:
                    key = key << CLASS_ID_BITS | kind
                assert cli._class_step(key) == quartic.shape_class(delta, kinds[:12])


@given(delta=st.sampled_from((1, 2)), kinds=st.lists(st.integers(0, 3), max_size=8),
       data=st.data())
def test_signs_change_no_r_star_and_no_row_product(delta, kinds, data):
    # any kind sequence, any sign per split prime: multiplying the signs
    # into the eps and -eps entries of each split prime's two columns, as a
    # printed table does, keeps r* and each row's product; and the key of
    # delta and the kinds reads back to the same shape
    shape = quartic.shape_class(delta, kinds)
    key = delta
    for kind in kinds:
        key = key << CLASS_ID_BITS | kind
    assert cli._class_step(key) == shape
    signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=len(kinds), max_size=len(kinds)))
    signed = [1]  # sqrt(ell)
    for kind, sign in zip(kinds, signs):
        signed += [sign if kind & 1 else 1] * len(quartic.KIND_ENTRIES[kind][0])  # split
    signed += [1] * (shape.mu - len(signed))  # the dyadic prime
    rows = (shape.rows[0], *(tuple(x * s for x, s in zip(row, signed)) for row in shape.rows[1:]))
    assert rank._rows_r_star(rows) == rank._rows_r_star(shape.rows)
    assert [prod(row) for row in rows] == [prod(row) for row in shape.rows]


class TestRStar:
    def _table(self, *rows):
        cols = (Column(),) * len(rows[0])
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

    def test_both_paths_return_equal_records(self):
        field = validate(101, 13)
        closed, unified = rank_closed(field), rank_unified(field)
        assert closed == unified and hash(closed) == hash(unified)
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
        for record in (field, field.shape, unified, character_table(field.shape, 37)):
            assert pickle.loads(pickle.dumps(record)) == record


class TestRankUnified:
    def test_split_p_example(self):
        result = rank_unified(validate(101, 13))
        assert (result.mu, result.r_star, result.rank) == (4, 1, 2)

    def test_split_q_example(self):
        result = rank_unified(validate(13, 79))
        assert (result.mu, result.r_star, result.rank) == (3, 0, 0)

    def test_four_factor_example(self):
        assert rank_unified(validate(37, 2 * 17 * 31 * 83)).rank == 3


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
