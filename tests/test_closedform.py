import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coxwalk as cw
from coxwalk import closedform, verify
from coxwalk import (
    Family,
    Gens,
    GroupSpec,
    InvalidRank,
    InvalidStepCount,
    Measure,
    closed_form,
    expected_abslength_G_EH,
    expected_abslength_I2_S,
    expected_abslength_I2_T,
    expected_length_A_S_bm,
    expected_length_A_S_eriksen,
    expected_length_A_T,
    expected_length_B_T,
    expected_length_D_T,
    expected_length_I2_S_troili,
    expected_length_I2_T,
    formula_for,
    lemma_bd_v,
    pair_prob_A,
    pair_prob_B,
    pair_prob_D,
)
from helpers import (
    bfs_word_length,
    brute_force_expectation,
    eriksen_double_sums,
    eriksen_g_by_images,
    eh_double_sums,
    troili_double_sums,
)

INF = math.inf


class TestTypeA:
    def test_frozen_values(self):
        assert expected_length_A_T(2, 1) == 1
        assert expected_length_A_T(3, 1) == Fraction(5, 3)
        assert expected_length_A_T(3, 2) == Fraction(4, 3)
        for n in range(2, 9):
            assert expected_length_A_T(n, 0) == 0

    def test_against_brute_force(self):
        for n, t in ((3, 1), (3, 2), (4, 2)):
            spec = GroupSpec(Family.A, n)
            assert expected_length_A_T(n, t) == brute_force_expectation(
                spec, cw.reflections_of(spec), cw.make_statistic(spec, Measure.LENGTH), t
            )

    def test_pair_prob(self):
        assert pair_prob_A(5, 2, 4, 0) == 0
        assert pair_prob_A(2, 1, 2, 1) == 1
        assert pair_prob_A(3, 1, 2, 1) == Fraction(2, 3)
        with pytest.raises(IndexError):
            pair_prob_A(4, 3, 3, 1)
        with pytest.raises(IndexError):
            pair_prob_A(4, 2, 5, 1)

    def test_translation_invariance_of_formula(self):
        for n in (4, 7):
            for t in (1, 3):
                for gap in range(1, n):
                    vals = {pair_prob_A(n, i, i + gap, t) for i in range(1, n - gap + 1)}
                    assert len(vals) == 1

    def test_large_t_limit(self):
        for n in (6, 9, 12):
            diff = expected_length_A_T(n, 10**4) - Fraction(n * (n - 1), 4)
            assert abs(diff) < Fraction(1, 10**6)


class TestTypeB:
    def test_frozen_values(self):
        assert expected_length_B_T(1, 1) == 1
        assert expected_length_B_T(1, 2) == 0
        assert expected_length_B_T(2, 1) == 2
        for n in range(1, 8):
            assert expected_length_B_T(n, 0) == 0

    def test_against_brute_force(self):
        spec = GroupSpec(Family.B, 2)
        for t in range(0, 4):
            assert expected_length_B_T(2, t) == brute_force_expectation(
                spec, cw.reflections_of(spec), cw.make_statistic(spec, Measure.LENGTH), t
            )

    def test_pair_prob_diagonal(self):
        assert pair_prob_B(2, -1, 1, 1) == Fraction(1, 2)
        for n in (1, 3, 5):
            for i in range(1, n + 1):
                assert pair_prob_B(n, -i, i, 0) == 0

    def test_pair_prob_generic(self):
        assert pair_prob_B(2, 1, 2, 0) == 0
        with pytest.raises(IndexError):
            pair_prob_B(3, 2, 1, 1)
        with pytest.raises(IndexError):
            pair_prob_B(3, 1, -2, 1)
        with pytest.raises(IndexError):
            pair_prob_B(1, 1, 2, 1)  # rank 1 has only the sign pair


class TestTypeD:
    def test_frozen_values(self):
        assert expected_length_D_T(2, 1) == 1
        assert expected_length_D_T(2, 2) == 1
        for n in range(2, 8):
            assert expected_length_D_T(n, 0) == 0
        with pytest.raises(InvalidRank):
            expected_length_D_T(1, 1)

    def test_against_brute_force(self):
        spec = GroupSpec(Family.D, 2)
        for t in range(0, 4):
            assert expected_length_D_T(2, t) == brute_force_expectation(
                spec, cw.reflections_of(spec), cw.make_statistic(spec, Measure.LENGTH), t
            )

    def test_pair_prob(self):
        assert pair_prob_D(4, -2, 3, 0) == 0
        assert pair_prob_D(2, 1, 2, 1) == Fraction(1, 2)
        assert pair_prob_D(3, -1, 2, 1) == Fraction(1, 2)
        assert pair_prob_D(3, -1, 2, 1) == cw.evolve_pairtable(Family.D, 3, 1).entry(2, -1)
        with pytest.raises(IndexError):
            pair_prob_D(3, 3, 2, 1)


class TestPairProbRangeAndSums:
    def test_probabilities_in_unit_interval(self):
        for n in (2, 3, 6):
            for t in range(0, 8):
                for i in range(1, n + 1):
                    for j in range(i + 1, n + 1):
                        assert 0 <= pair_prob_A(n, i, j, t) <= 1
        for n in (2, 4):
            for t in range(0, 8):
                for (i, j) in cw.index_pairs(n):
                    if j > abs(i):
                        assert 0 <= pair_prob_B(n, i, j, t) <= 1
                        assert 0 <= pair_prob_D(n, i, j, t) <= 1
                for i in range(1, n + 1):
                    assert 0 <= pair_prob_B(n, -i, i, t) <= 1

    def test_summation_identities(self):
        for n in range(1, 31):
            assert sum(j - i for i in range(1, n + 1) for j in range(i + 1, n + 1)) \
                == n * (n * n - 1) // 6
            assert sum(j - i for (i, j) in cw.index_pairs(n) if j > abs(i)) \
                == 2 * n * (n * n - 1) // 3

    def test_pair_sums_equal_expected_length(self):
        for n in range(2, 9):
            for t in range(0, 11):
                total_a = sum(
                    pair_prob_A(n, i, j, t)
                    for i in range(1, n + 1)
                    for j in range(i + 1, n + 1)
                )
                assert total_a == expected_length_A_T(n, t)
                total_b = sum(
                    pair_prob_B(n, i, j, t)
                    for (i, j) in cw.index_pairs(n)
                    if j > abs(i)
                ) + sum(pair_prob_B(n, -i, i, t) for i in range(1, n + 1))
                assert total_b == expected_length_B_T(n, t)
                total_d = sum(
                    pair_prob_D(n, i, j, t)
                    for (i, j) in cw.index_pairs(n)
                    if j > abs(i)
                )
                assert total_d == expected_length_D_T(n, t)


class TestDihedral:
    def test_reflection_walk_length(self):
        assert expected_length_I2_T(4, 7) == 2
        assert expected_length_I2_T(3, 1) == Fraction(5, 3)
        assert expected_length_I2_T(3, 2) == Fraction(4, 3)
        assert expected_length_I2_T(6, 0) == 0

    def test_generator_walk_abs(self):
        for m in (2, 5, 8, INF):
            for t in (1, 3, 9):
                assert expected_abslength_I2_S(m, t) == 1
        assert expected_abslength_I2_S(2, 2) == 1
        assert expected_abslength_I2_S(INF, 2) == 1
        assert expected_abslength_I2_S(5, 0) == 0

    def test_reflection_walk_abs(self):
        assert expected_abslength_I2_T(5, 3) == 1
        assert expected_abslength_I2_T(2, 2) == 1
        assert expected_abslength_I2_T(3, 2) == Fraction(4, 3)
        assert expected_abslength_I2_T(7, 0) == 0

    def test_generator_walk_length(self):
        for m in (2, 3, 7, INF):
            assert expected_length_I2_S_troili(m, 0) == 0
        assert expected_length_I2_S_troili(3, 2) == 1
        assert expected_length_I2_S_troili(3, 4) == Fraction(5, 4)

    def test_troili_infinite_matches_far_boundary(self):
        for t in range(0, 14):
            assert expected_length_I2_S_troili(INF, t) == expected_length_I2_S_troili(t + 2, t)

    # from m = 20 up the walk reaches the first image late (m = 199..201 near
    # t = 200) or never (m = 10**9)
    @pytest.mark.parametrize("m", [*range(2, 14), 20, 50, 199, 200, 201, 10**9, INF])
    def test_troili_equals_image_by_image_double_sum(self, m):
        expected = troili_double_sums(m, 200)
        assert [expected_length_I2_S_troili(m, t) for t in range(201)] == expected

    def test_troili_equals_exact_chain(self):
        for m in range(2, 13):
            spec = GroupSpec(Family.I2, m)
            stat = cw.make_statistic(spec, Measure.LENGTH)
            t_max = 1000 if m in (5, 8) else 300  # 1000: the benchmark's longest walks
            for t, dist in enumerate(cw.iterate_distributions(spec, Gens.SIMPLE, t_max)):
                assert expected_length_I2_S_troili(m, t) == cw.expectation(dist, stat), (m, t)

    def test_troili_infinite_central_binomial_identity(self):
        # sum_{j <= J} C(2j, j) / 4^j = (2J + 1) C(2J, J) / 4^J; the sum
        # runs to J = (t - 1) // 2, so t = 2J + 1 and 2J + 2 share it
        for big_j in range(300):
            closed = Fraction((2 * big_j + 1) * math.comb(2 * big_j, big_j), 4**big_j)
            assert expected_length_I2_S_troili(INF, 2 * big_j + 1) == closed
            assert expected_length_I2_S_troili(INF, 2 * big_j + 2) == closed

    def test_against_brute_force(self):
        spec = GroupSpec(Family.I2, 5)
        gens = cw.simple_reflections_of(spec)
        table = bfs_word_length(spec.identity(), gens)
        for t in range(0, 5):
            assert expected_length_I2_S_troili(5, t) == brute_force_expectation(
                spec, gens, table.__getitem__, t
            )


class TestAdjacentWalk:
    def test_eriksen_small(self):
        for n in range(1, 6):
            assert expected_length_A_S_eriksen(n, 0) == 0
        for t in range(0, 9):
            assert expected_length_A_S_eriksen(1, t) == Fraction(1 - (-1) ** t, 2)
        assert expected_length_A_S_eriksen(2, 3) == Fraction(3, 2)

    def test_eriksen_equals_sum_of_fractions(self):
        # the synthetic-division sum equals the literal double sum, n = 4
        # (where the base n - 4 vanishes) and t = 0 included
        for n in range(1, 9):
            reference = eriksen_double_sums(n, 80)
            for t, expected in enumerate(reference):
                assert expected_length_A_S_eriksen(n, t) == expected, (n, t)

    def test_eriksen_agrees_with_bm_at_long_walks(self):
        for n in (2, 5, 8, 12):
            exact = float(expected_length_A_S_eriksen(n, 400))
            assert abs(exact - expected_length_A_S_bm(n, 400)) < 1e-9, n

    def test_eriksen_g_scan_equals_image_sums(self):
        # the product of the two factors equals the image-by-image reference;
        # the uncached functions are called, so every (s, n) is computed afresh
        from coxwalk.closedform import _eriksen_even, _eriksen_odd

        for n in range(1, 13):
            for s in range(1, 301):
                g = _eriksen_odd.__wrapped__((s + 1) // 2, n) * _eriksen_even.__wrapped__(s // 2, n)
                assert g == eriksen_g_by_images(s, n), (s, n)

    def test_bm_small(self):
        assert abs(expected_length_A_S_bm(1, 2)) < 1e-12
        for n in (1, 3, 6):
            assert abs(expected_length_A_S_bm(n, 0)) < 1e-9
        assert abs(
            expected_length_A_S_bm(4, 5) - float(expected_length_A_S_eriksen(4, 5))
        ) < 1e-9

    def test_bm_large_t_limit(self):
        assert abs(expected_length_A_S_bm(16, 10**6) - 68.0) < 1e-9

    def test_eriksen_caches_bounded_and_reused(self):
        from coxwalk.closedform import _eriksen_even, _eriksen_odd

        caches = (_eriksen_odd, _eriksen_even)
        for cache in caches:
            cache.cache_clear()
        before = [expected_length_A_S_eriksen(4, t) for t in range(121)]
        # a t-grid computes each factor once, for a = 1..60 and b = 0..60
        assert [c.cache_info().misses for c in caches] == [60, 61]
        hits = [c.cache_info().hits for c in caches]
        assert [expected_length_A_S_eriksen(4, t) for t in range(121)] == before
        # a second t-grid reuses every factor
        assert [c.cache_info().misses for c in caches] == [60, 61]
        assert [c.cache_info().hits - h for c, h in zip(caches, hits)] == [7260, 7260]
        for n in range(1, 13):
            expected_length_A_S_eriksen(n, 240)  # 1440 (a, n) and (b, n) pairs
        for cache in caches:
            info = cache.cache_info()
            assert info.maxsize is not None and info.currsize <= info.maxsize < 1440
        assert [expected_length_A_S_eriksen(4, t) for t in range(121)] == before


class TestColoredGroups:
    def test_pins(self):
        for r in (1, 2, 3, 4):
            for n in (1, 2, 4, 6):
                if r == 1 and n == 1:
                    continue
                assert expected_abslength_G_EH(r, n, 0) == 0
                assert expected_abslength_G_EH(r, n, 1) == 1

    def test_frozen_value(self):
        assert expected_abslength_G_EH(1, 4, 3) == Fraction(17, 9)

    def test_eh_equals_sum_of_fractions(self):
        # the one integer sum over L * denom^t equals the term-by-term
        # Fraction sums, t = 0 (every base to the power 0) included
        ts = list(range(41)) + [200]
        for r in range(1, 6):
            for n in range(2 if r == 1 else 1, 10):
                for t, expected in zip(ts, eh_double_sums(r, n, ts)):
                    assert expected_abslength_G_EH(r, n, t) == expected, (r, n, t)

    def test_invalid_rank(self):
        with pytest.raises(InvalidRank):
            expected_abslength_G_EH(1, 1, 2)


class TestLemmaClosedForm:
    def test_start_condition(self):
        for n in (2, 3, 5):
            for (i, j) in cw.index_pairs(n):
                assert lemma_bd_v(n, 7, 0, i, j) == (1 if j > i else -1)

    def test_one_recurrence_step(self):
        # apply the recurrence directly: v'(i,j) = x v(i,j) + col + row sums
        n, x = 2, Fraction(7)
        support = [v for v in range(-n, n + 1) if v != 0]
        v0 = {(i, j): Fraction(1 if j > i else -1) for (i, j) in cw.index_pairs(n)}
        for (i, j) in cw.index_pairs(n):
            rhs = x * v0[(i, j)]
            rhs += sum(v0[(ip, j)] for ip in support if abs(ip) != abs(j))
            rhs += sum(v0[(i, jp)] for jp in support if abs(jp) != abs(i))
            assert rhs == lemma_bd_v(n, x, 1, i, j)

    def test_symmetries(self):
        for n in (2, 4):
            for x in (Fraction(3, 2), Fraction(-2)):
                for t in (1, 3):
                    for (i, j) in cw.index_pairs(n):
                        assert lemma_bd_v(n, x, t, j, i) == -lemma_bd_v(n, x, t, i, j)
                        assert lemma_bd_v(n, x, t, -j, -i) == lemma_bd_v(n, x, t, i, j)

    def test_domain_errors(self):
        with pytest.raises(IndexError):
            lemma_bd_v(3, 1, 1, 2, -2)
        with pytest.raises(IndexError):
            lemma_bd_v(3, 1, 1, 0, 2)
        with pytest.raises(InvalidRank):
            lemma_bd_v(1, 1, 1, 1, 2)

    @given(
        st.integers(min_value=2, max_value=5),
        st.fractions(min_value=-10, max_value=10, max_denominator=8),
        st.integers(min_value=0, max_value=9),
    )
    @settings(max_examples=40, deadline=None)
    def test_recurrence_property(self, n, x, t):
        support = [v for v in range(-n, n + 1) if v != 0]
        vt = {ij: lemma_bd_v(n, x, t, *ij) for ij in cw.index_pairs(n)}
        for (i, j) in cw.index_pairs(n):
            rhs = Fraction(x) * vt[(i, j)]
            rhs += sum(vt[(ip, j)] for ip in support if abs(ip) != abs(j))
            rhs += sum(vt[(i, jp)] for jp in support if abs(jp) != abs(i))
            assert rhs == lemma_bd_v(n, x, t + 1, i, j)


# every closed form at the first rank outside its domain and the first
# inside it, as t -> value
DOMAIN_EDGES = {
    "A_T": (lambda t: expected_length_A_T(1, t), lambda t: expected_length_A_T(2, t)),
    "pair_prob_B": (lambda t: pair_prob_B(0, -1, 1, t), lambda t: pair_prob_B(1, -1, 1, t)),
    "B_T": (lambda t: expected_length_B_T(0, t), lambda t: expected_length_B_T(1, t)),
    "D_T": (lambda t: expected_length_D_T(1, t), lambda t: expected_length_D_T(2, t)),
    "pair_prob_D": (lambda t: pair_prob_D(1, 1, 2, t), lambda t: pair_prob_D(2, 1, 2, t)),
    "lemma_bd_v": (lambda t: lemma_bd_v(1, 3, t, 1, 2), lambda t: lemma_bd_v(2, 3, t, 1, 2)),
    "I2_T": (lambda t: expected_length_I2_T(1, t), lambda t: expected_length_I2_T(2, t)),
    "troili": (lambda t: expected_length_I2_S_troili(1, t),
               lambda t: expected_length_I2_S_troili(2, t)),
    "I2_S_abs": (lambda t: expected_abslength_I2_S(1, t),
                 lambda t: expected_abslength_I2_S(2, t)),
    "I2_T_abs": (lambda t: expected_abslength_I2_T(1, t),
                 lambda t: expected_abslength_I2_T(2, t)),
    "eriksen": (lambda t: expected_length_A_S_eriksen(0, t),
                lambda t: expected_length_A_S_eriksen(1, t)),
    "bm": (lambda t: expected_length_A_S_bm(0, t), lambda t: expected_length_A_S_bm(1, t)),
    "EH(1,1)-G(2,1,1)": (lambda t: expected_abslength_G_EH(1, 1, t),
                         lambda t: expected_abslength_G_EH(2, 1, t)),
    "EH(0,3)-G(1,1,2)": (lambda t: expected_abslength_G_EH(0, 3, t),
                         lambda t: expected_abslength_G_EH(1, 2, t)),
}


@pytest.mark.parametrize("outside, inside", DOMAIN_EDGES.values(), ids=DOMAIN_EDGES.keys())
def test_domain_edges(outside, inside):
    with pytest.raises(InvalidRank):
        outside(3)
    assert inside(3) is not None
    # the walk length is checked before the rank
    with pytest.raises(InvalidStepCount):
        outside(-1)


class TestDispatch:
    def test_edge_specs(self):
        # B1 and G(r,1,1) keep their cells; D1, which has no reflections, has none
        edges = [
            (GroupSpec(Family.B, 1), Measure.LENGTH, "B_T_length", expected_length_B_T(1, 3)),
            (GroupSpec(Family.G, 1, 2), Measure.ABSLENGTH, "eh",
             expected_abslength_G_EH(2, 1, 3)),
            (GroupSpec(Family.D, 2), Measure.LENGTH, "D_T_length", expected_length_D_T(2, 3)),
        ]
        for spec, measure, tag, value in edges:
            got, fn = formula_for(spec, Gens.REFLECTIONS, measure)
            assert (got, fn(3)) == (tag, value)
        for formula in ("auto", "paper"):
            assert formula_for(GroupSpec(Family.D, 1), Gens.REFLECTIONS, Measure.LENGTH,
                               formula) is None

    def test_cells_take_the_plain_values(self):
        # Gens and Measure members equal their string values; the cell table finds either
        spec = GroupSpec(Family.I2, 5)
        assert formula_for(spec, "simple", "abslength")[0] == "I2_S_abslength"
        assert closed_form(spec, "reflections", "length", 3).value == expected_length_I2_T(5, 3)

    def test_cells(self):
        cases = {
            (Family.A, Gens.REFLECTIONS, Measure.LENGTH): "A_T_length",
            (Family.A, Gens.SIMPLE, Measure.LENGTH): "eriksen",
            (Family.B, Gens.REFLECTIONS, Measure.LENGTH): "B_T_length",
            (Family.D, Gens.REFLECTIONS, Measure.LENGTH): "D_T_length",
            (Family.I2, Gens.REFLECTIONS, Measure.LENGTH): "I2_T_length",
            (Family.I2, Gens.SIMPLE, Measure.LENGTH): "troili",
            (Family.I2, Gens.SIMPLE, Measure.ABSLENGTH): "I2_S_abslength",
            (Family.I2, Gens.REFLECTIONS, Measure.ABSLENGTH): "I2_T_abslength",
            (Family.A, Gens.REFLECTIONS, Measure.ABSLENGTH): "eh",
            (Family.B, Gens.REFLECTIONS, Measure.ABSLENGTH): "eh",
        }
        for (family, gens, measure), tag in cases.items():
            spec = GroupSpec(family, 3)
            got = formula_for(spec, gens, measure)
            assert got is not None and got[0] == tag

    def test_missing_cells(self):
        assert formula_for(GroupSpec(Family.B, 3), Gens.SIMPLE, Measure.LENGTH) is None
        assert formula_for(GroupSpec(Family.A, 3), Gens.SIMPLE, Measure.ABSLENGTH) is None
        assert formula_for(GroupSpec(Family.D, 3), Gens.REFLECTIONS, Measure.ABSLENGTH) is None
        assert formula_for(GroupSpec(Family.A, 3), Gens.REFLECTIONS, Measure.LENGTH, "paper") \
            is not None
        assert formula_for(GroupSpec(Family.A, 3), Gens.SIMPLE, Measure.LENGTH, "paper") is None

    def test_closed_form_without_a_formula_raises_unsupported_family(self):
        calls = [
            # a cell with no closed form
            lambda: closed_form(GroupSpec(Family.D, 3), Gens.REFLECTIONS, Measure.ABSLENGTH, 2),
            # an unknown formula name on a cell that has one
            lambda: closed_form(GroupSpec(Family.A, 3), Gens.REFLECTIONS, Measure.LENGTH, 2,
                                "nope"),
        ]
        for call in calls:
            with pytest.raises(cw.UnsupportedFamily, match="no closed form for family="):
                call()
        assert issubclass(cw.UnsupportedFamily, cw.CoxwalkError)
        assert issubclass(cw.UnsupportedFamily, ValueError)

    def test_missing_cell_message_takes_the_plain_values(self):
        # a missing cell named by member strings is reported in the members'
        # words, and a gens or measure that names no member names the choices
        for family, measure in ((Family.B, "length"), (Family.A, "abslength")):
            with pytest.raises(cw.UnsupportedFamily,
                               match=f"family={family.value}, gens=simple, measure={measure} "):
                closed_form(GroupSpec(family, 3), "simple", measure, 2)
        with pytest.raises(cw.UnsupportedFamily, match="'bogus' names no Gens; choose from simple"):
            closed_form(GroupSpec(Family.A, 3), "bogus", "length", 2)
        with pytest.raises(cw.UnsupportedFamily, match="'bogus' names no Measure; choose from"):
            closed_form(GroupSpec("I2", 5), Gens.SIMPLE, "bogus", 2)

    def test_unknown_formula_name_raises_unsupported_family(self):
        # a name outside FORMULAS is refused, not read as a cell without a
        # closed form, on every cell (D1, which has none, included)
        for spec in (GroupSpec(Family.A, 3), GroupSpec(Family.D, 1)):
            with pytest.raises(cw.UnsupportedFamily, match="'nope'; choose from auto, eriksen"):
                formula_for(spec, Gens.REFLECTIONS, Measure.LENGTH, "nope")
        with pytest.raises(cw.UnsupportedFamily, match="choose from auto, eriksen, bm"):
            closed_form(GroupSpec(Family.I2, 5), Gens.SIMPLE, Measure.LENGTH, 2, "Troili")

    @pytest.mark.parametrize("check, cell", [
        ("check_type_a_expectation", (Family.A, Gens.REFLECTIONS, Measure.LENGTH)),
        ("check_dihedral_closed_forms", (Family.I2, Gens.SIMPLE, Measure.LENGTH)),
        ("check_dihedral_closed_forms", (Family.I2, Gens.REFLECTIONS, Measure.ABSLENGTH)),
        ("check_known_formula_concordance", (Family.A, Gens.SIMPLE, Measure.LENGTH)),
        ("check_eriksen_hultman", (Family.A, Gens.REFLECTIONS, Measure.ABSLENGTH)),
        ("check_eriksen_hultman", (Family.B, Gens.REFLECTIONS, Measure.ABSLENGTH)),
        ("check_type_a_pairwise", (Family.A, Gens.REFLECTIONS, Measure.LENGTH)),
        ("check_type_b", (Family.B, Gens.REFLECTIONS, Measure.LENGTH)),
        ("check_type_d", (Family.D, Gens.REFLECTIONS, Measure.LENGTH)),
    ], ids=lambda x: x if isinstance(x, str) else "-".join(x))
    def test_verify_reads_the_cell_table(self, monkeypatch, check, cell):
        # verify holds each cell's routed formula to the exact chain: a cell
        # whose formulas are off by one at t = 3 fails the check that reads it
        wrong = tuple((tag, lambda s, t, fn=fn: fn(s, t) + (t == 3))
                      for tag, fn in closedform._CELLS[cell])
        monkeypatch.setitem(closedform._CELLS, cell, wrong)
        res = getattr(verify, check)()
        assert not res.ok and " t=3: " in res.detail, res.detail

    def test_bm_variant_selectable(self):
        res = closed_form(GroupSpec(Family.A, 5), Gens.SIMPLE, Measure.LENGTH, 4, "bm")
        assert res.method == "bm" and isinstance(res.value, float)
        exact = closed_form(GroupSpec(Family.A, 5), Gens.SIMPLE, Measure.LENGTH, 4)
        assert exact.method == "eriksen" and exact.is_exact
        assert abs(res.value - float(exact.value)) < 1e-9

    def test_values_within_max_length(self):
        max_len = {
            Family.A: lambda n: n * (n - 1) // 2,
            Family.B: lambda n: n * n,
            Family.D: lambda n: n * (n - 1),
            Family.I2: lambda n: n,
        }
        for family, n in ((Family.A, 5), (Family.B, 3), (Family.D, 3), (Family.I2, 6)):
            spec = GroupSpec(family, n)
            for t in range(0, 12):
                res = closed_form(spec, Gens.REFLECTIONS, Measure.LENGTH, t)
                assert 0 <= res.value <= max_len[family](n)


class TestNegativeSteps:
    def test_reported_cases_raise(self):
        with pytest.raises(cw.InvalidStepCount):
            expected_length_A_T(4, -1)
        with pytest.raises(cw.InvalidStepCount):
            pair_prob_B(3, -1, 1, -2)
        with pytest.raises(cw.InvalidStepCount):
            expected_length_I2_S_troili(5, -2)

    def test_every_evaluator_and_dispatch_reject(self):
        calls = [
            lambda t: expected_length_A_T(4, t),
            lambda t: pair_prob_A(4, 1, 2, t),
            lambda t: expected_length_B_T(3, t),
            lambda t: pair_prob_B(3, 1, 2, t),
            lambda t: expected_length_D_T(3, t),
            lambda t: pair_prob_D(3, 1, 2, t),
            lambda t: expected_length_I2_T(5, t),
            lambda t: expected_abslength_I2_S(5, t),
            lambda t: expected_abslength_I2_S(INF, t),
            lambda t: expected_abslength_I2_T(5, t),
            lambda t: expected_length_I2_S_troili(INF, t),
            lambda t: expected_length_A_S_eriksen(3, t),
            lambda t: expected_length_A_S_bm(3, t),
            lambda t: expected_abslength_G_EH(3, 2, t),
            lambda t: lemma_bd_v(3, 1, t, 1, 2),
            lambda t: closed_form(GroupSpec(Family.A, 4), Gens.REFLECTIONS, Measure.LENGTH, t),
        ]
        for call in calls:
            call(0)
            for t in (-1, -5):
                with pytest.raises(cw.InvalidStepCount):
                    call(t)


class TestNonIntegralArguments:
    def test_reported_cases_raise(self):
        a5 = GroupSpec(Family.A, 5)
        for measure in (Measure.ABSLENGTH, Measure.LENGTH):
            with pytest.raises(InvalidStepCount):
                closed_form(a5, Gens.REFLECTIONS, measure, 2.5)
        with pytest.raises(InvalidRank):
            GroupSpec(Family.A, 4.5)
        with pytest.raises(InvalidRank):
            GroupSpec(Family.G, 3, 1.5)
        with pytest.raises(InvalidStepCount):
            expected_length_A_S_eriksen(3, 2.5)
        with pytest.raises(InvalidStepCount):
            expected_length_A_S_bm(3, 2.5)
        with pytest.raises(InvalidStepCount):
            cw.simulate(a5, Gens.REFLECTIONS, Measure.LENGTH, 2.5, 10, 1)

    def test_every_evaluator_and_engine_reject(self):
        # (n, t) -> a value; t = 2.0 and n = 4.0 are floats, not integers
        calls = [
            lambda n, t: expected_length_A_T(n, t),
            lambda n, t: pair_prob_A(n, 1, 2, t),
            lambda n, t: expected_length_B_T(n, t),
            lambda n, t: pair_prob_B(n, 1, 2, t),
            lambda n, t: expected_length_D_T(n, t),
            lambda n, t: pair_prob_D(n, 1, 2, t),
            lambda n, t: expected_length_I2_T(n, t),
            lambda n, t: expected_abslength_I2_S(n, t),
            lambda n, t: expected_abslength_I2_T(n, t),
            lambda n, t: expected_length_I2_S_troili(n, t),
            lambda n, t: expected_length_A_S_eriksen(n, t),
            lambda n, t: expected_length_A_S_bm(n, t),
            lambda n, t: expected_abslength_G_EH(2, n, t),
            lambda n, t: lemma_bd_v(n, 1, t, 1, 2),
            lambda n, t: cw.evolve_pairtable(Family.B, n, t),
            lambda n, t: cw.evolve_distribution(GroupSpec(Family.B, n), Gens.REFLECTIONS, t),
            lambda n, t: cw.simulate(GroupSpec(Family.B, n), Gens.SIMPLE, Measure.LENGTH, t, 10, 1),
        ]
        for call in calls:
            call(4, 2)
            for t in (2.5, 2.0, Fraction(2)):
                with pytest.raises(InvalidStepCount):
                    call(4, t)
            for n in (4.5, 4.0):
                with pytest.raises(InvalidRank):
                    call(n, 2)

    def test_pair_indices_outside_the_domain_raise_invalid_pair(self):
        # indices that are not integers, and pairs outside the domain, are
        # InvalidPair: a CoxwalkError and still an IndexError
        calls = [
            lambda: pair_prob_A(4, 1.5, 2, 1),
            lambda: pair_prob_A(4, 1.0, 3, 2),
            lambda: pair_prob_B(4, 1, Fraction(2), 1),
            lambda: pair_prob_D(4, -1.0, 3, 2),
            lambda: lemma_bd_v(3, 1, 1, 1.5, 2),
            lambda: pair_prob_A(4, 3, 3, 1),
            lambda: pair_prob_B(3, 1, -2, 1),
            lambda: pair_prob_D(3, -2, 2, 1),
            lambda: lemma_bd_v(3, 1, 1, 2, -2),
        ]
        for call in calls:
            with pytest.raises(cw.InvalidPair):
                call()
        assert issubclass(cw.InvalidPair, cw.CoxwalkError)
        assert issubclass(cw.InvalidPair, IndexError)

    def test_pair_indices_take_numpy_integers_and_bools(self):
        for pp in (pair_prob_A, pair_prob_B, pair_prob_D):
            assert pp(4, np.int64(1), np.int32(3), 2) == pp(4, 1, 3, 2)
            assert pp(4, True, 2, 2) == pp(4, 1, 2, 2)
        assert lemma_bd_v(3, 1, 2, True, np.int64(-2)) == lemma_bd_v(3, 1, 2, 1, -2)

    def test_numpy_integers_and_infinite_m_accepted(self):
        for k in (np.int64(3), np.int32(3), np.uint8(3)):
            assert expected_length_A_T(np.int64(5), k) == expected_length_A_T(5, 3)
            assert GroupSpec(Family.G, k, np.int64(2)) == GroupSpec(Family.G, 3, 2)
        assert expected_length_I2_S_troili(INF, 6) == expected_length_I2_S_troili(10**6, 6)
        with pytest.raises(InvalidRank):
            GroupSpec(Family.A, INF)  # only the dihedral family has m = inf
