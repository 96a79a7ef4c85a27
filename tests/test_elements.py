import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxwalk import (
    DihedralElement,
    Family,
    Gens,
    GroupSpec,
    InvalidRank,
    Measure,
    OrderLimitExceeded,
    Permutation,
    RankedGroup,
    SignedPermutation,
    SpecMismatch,
    UnsupportedFamily,
    enumerate_group,
    in_index_domain,
    index_pairs,
    iterate_distributions,
    make_statistic,
    multiply,
    reflections_of,
    simple_reflections_of,
)
from coxwalk.elements import generator_moves, num_generators

A3 = GroupSpec(Family.A, 3)
B2 = GroupSpec(Family.B, 2)
D2 = GroupSpec(Family.D, 2)
I5 = GroupSpec(Family.I2, 5)


class TestGroupSpec:
    def test_validation(self):
        with pytest.raises(InvalidRank):
            GroupSpec(Family.A, 1)
        with pytest.raises(InvalidRank):
            GroupSpec(Family.B, 0)
        with pytest.raises(InvalidRank):
            GroupSpec(Family.I2, 1)
        with pytest.raises(InvalidRank):
            GroupSpec(Family.G, 1, 1)
        with pytest.raises(InvalidRank):
            GroupSpec(Family.A, 3, 2)  # r is G-only
        GroupSpec(Family.G, 1, 2)
        GroupSpec(Family.D, 1)

    def test_orders(self):
        assert A3.order() == 6
        assert B2.order() == 8
        assert GroupSpec(Family.D, 4).order() == 192
        assert I5.order() == 10
        assert GroupSpec(Family.G, 3, 2).order() == 48  # same as B_3

    def test_m_alias(self):
        assert I5.m == 5
        with pytest.raises(InvalidRank):
            _ = A3.m

    def test_element_model(self):
        assert GroupSpec(Family.G, 4, 1).element_model() == GroupSpec(Family.A, 4)
        assert GroupSpec(Family.G, 3, 2).element_model() == GroupSpec(Family.B, 3)
        with pytest.raises(UnsupportedFamily):
            GroupSpec(Family.G, 3, 3).element_model()

    def test_family_g_is_named_but_has_no_elements(self):
        # G(r,1,n) has closed forms only; its elements, full-engine walks and
        # statistics are refused (G(1,1,n) and G(2,1,n) reach them through
        # element_model)
        spec = GroupSpec(Family.G, 3, 2)
        assert str(spec) == "G(2,1,3)"
        for call in (spec.identity,
                     lambda: list(iterate_distributions(spec, Gens.REFLECTIONS, 1)),
                     lambda: make_statistic(spec, Measure.LENGTH)):
            with pytest.raises(UnsupportedFamily, match="family G"):
                call()


class TestWindows:
    def test_permutation_validation(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 2))
        with pytest.raises(ValueError):
            Permutation((0, 1))

    def test_signed_validation(self):
        with pytest.raises(ValueError):
            SignedPermutation((1, 1))
        SignedPermutation((-2, 1))

    def test_signed_negative_values(self):
        w = SignedPermutation((-2, 1))
        assert w.value(1) == -2 and w.value(-1) == 2
        assert w.value(2) == 1 and w.value(-2) == -1

    def test_value_outside_the_domain_raises(self):
        # 0, -1 and n + 1 must not wrap around the window by Python's negative indexing
        a, b = Permutation((2, 1, 3)), SignedPermutation((2, -1, 3))
        for w, outside in ((a, (0, -1, 4)), (b, (0, -4, 4))):
            for i in outside:
                with pytest.raises(IndexError):
                    w.value(i)
        assert b.value(-1) == -2 and b.value(-3) == -3

    def test_type_d_flag(self):
        assert SignedPermutation((-1, -2)).in_type_d
        assert not SignedPermutation((-1, 2)).in_type_d

    def test_dihedral_canonical(self):
        with pytest.raises(ValueError):
            DihedralElement(4, 4, 0)
        with pytest.raises(ValueError):
            DihedralElement(4, 0, 2)


class TestMultiply:
    def test_identity_law(self):
        for spec in (A3, B2, I5):
            e = spec.identity()
            for r in reflections_of(spec):
                assert multiply(r, e) == r
                assert multiply(e, r) == r

    def test_reflections_are_involutions(self):
        for spec in (A3, B2, D2, I5, GroupSpec(Family.B, 3), GroupSpec(Family.D, 3)):
            e = spec.identity()
            for r in reflections_of(spec):
                assert multiply(r, r) == e

    def test_s3_product_has_length_two(self):
        a = Permutation((2, 1, 3))  # (1,2)
        b = Permutation((1, 3, 2))  # (2,3)
        ab = multiply(a, b)
        assert ab == Permutation((2, 3, 1))
        from coxwalk import Measure, make_statistic

        assert make_statistic(A3, Measure.LENGTH)(ab) == 2

    def test_convention_b_acts_first(self):
        # (a*b)(x) = a(b(x))
        a = Permutation((3, 1, 2))
        b = Permutation((2, 3, 1))
        ab = multiply(a, b)
        for x in (1, 2, 3):
            assert ab.value(x) == a.value(b.value(x))

    def test_mismatch(self):
        with pytest.raises(SpecMismatch):
            multiply(Permutation((1, 2)), Permutation((1, 2, 3)))
        with pytest.raises(SpecMismatch):
            multiply(Permutation((1, 2)), SignedPermutation((1, 2)))
        with pytest.raises(SpecMismatch):
            multiply(DihedralElement(3, 0, 1), DihedralElement(4, 0, 1))

    def test_inverse(self):
        for spec in (A3, B2, GroupSpec(Family.I2, 6)):
            for w in enumerate_group(spec):
                assert multiply(w, w.inverse()) == spec.identity()


class TestReflectionSets:
    def test_counts(self):
        for n in range(2, 7):
            assert len(reflections_of(GroupSpec(Family.A, n))) == n * (n - 1) // 2
        for n in range(1, 6):
            assert len(reflections_of(GroupSpec(Family.B, n))) == n * n
        for n in range(2, 6):
            assert len(reflections_of(GroupSpec(Family.D, n))) == n * (n - 1)
        for m in range(2, 9):
            assert len(reflections_of(GroupSpec(Family.I2, m))) == m

    def test_no_duplicates(self):
        for spec in (GroupSpec(Family.A, 5), GroupSpec(Family.B, 3), GroupSpec(Family.D, 4), I5):
            refl = reflections_of(spec)
            assert len(set(refl)) == len(refl)

    def test_b2_reflection_windows(self):
        # the four: both signed swaps, and the two sign changes
        windows = [w.window for w in reflections_of(B2)]
        assert windows == [(2, 1), (-2, -1), (-1, 2), (1, -2)]

    def test_d2_and_i5(self):
        assert len(reflections_of(D2)) == 2
        assert len(reflections_of(I5)) == 5
        assert all(w.flip == 1 for w in reflections_of(I5))

    def test_family_g_unsupported(self):
        with pytest.raises(UnsupportedFamily):
            reflections_of(GroupSpec(Family.G, 3, 3))

    def test_simple_counts(self):
        assert [w.window for w in simple_reflections_of(A3)] == [(2, 1, 3), (1, 3, 2)]
        assert [w.window for w in simple_reflections_of(GroupSpec(Family.B, 1))] == [(-1,)]
        assert len(simple_reflections_of(GroupSpec(Family.B, 4))) == 4
        assert len(simple_reflections_of(GroupSpec(Family.D, 4))) == 4
        assert simple_reflections_of(GroupSpec(Family.D, 1)) == []
        gens = simple_reflections_of(I5)
        assert [(g.rot, g.flip) for g in gens] == [(0, 1), (1, 1)]

    def test_reflections_are_conjugates_of_simples(self):
        # T = { w s w^-1 } exactly, checked by brute force on small groups
        for spec in (GroupSpec(Family.A, 4), GroupSpec(Family.B, 2),
                     GroupSpec(Family.D, 3), GroupSpec(Family.I2, 7)):
            group = enumerate_group(spec)
            simples = simple_reflections_of(spec)
            conjugates = {
                multiply(multiply(w, s), w.inverse()) for w in group for s in simples
            }
            assert conjugates == set(reflections_of(spec))

    def test_d_reflections_preserve_parity(self):
        refl = reflections_of(GroupSpec(Family.D, 3))
        for a in refl:
            for b in refl:
                assert multiply(a, b).in_type_d


class TestEnumerate:
    def test_orders(self):
        assert len(enumerate_group(GroupSpec(Family.I2, 4))) == 8
        assert len(enumerate_group(B2)) == 8
        assert len(enumerate_group(GroupSpec(Family.D, 3))) == 24
        assert len(enumerate_group(GroupSpec(Family.D, 1))) == 1

    def test_identity_first_and_unique(self):
        for spec in (A3, B2, I5):
            group = enumerate_group(spec)
            assert group[0] == spec.identity()
            assert len(set(group)) == len(group)

    def test_closed_under_multiplication(self):
        group = set(enumerate_group(GroupSpec(Family.D, 3)))
        sample = list(group)[:8]
        for a in sample:
            for b in sample:
                assert multiply(a, b) in group

    def test_reflections_inside_group(self):
        for spec in (GroupSpec(Family.A, 4), GroupSpec(Family.B, 3), I5):
            group = set(enumerate_group(spec))
            assert set(reflections_of(spec)) <= group

    def test_guard(self, monkeypatch):
        monkeypatch.setenv("COXWALK_GUARD_LIMIT", "1000")
        with pytest.raises(OrderLimitExceeded):
            enumerate_group(GroupSpec(Family.A, 12))

    def test_guard_env_override(self, monkeypatch):
        monkeypatch.setenv("COXWALK_GUARD_LIMIT", "5")
        with pytest.raises(OrderLimitExceeded):
            enumerate_group(A3)
        monkeypatch.setenv("COXWALK_GUARD_LIMIT", "6")
        assert len(enumerate_group(A3)) == 6

    def test_ranked_group_refuses_before_building(self, monkeypatch):
        # the guard sits in RankedGroup itself, ahead of the windows
        def no_windows(n):
            raise AssertionError("windows built for an over-order group")

        monkeypatch.setattr("coxwalk.elements._perm_windows", no_windows)
        monkeypatch.setenv("COXWALK_GUARD_LIMIT", "100")
        with pytest.raises(OrderLimitExceeded) as exc:
            RankedGroup(GroupSpec(Family.A, 6))
        assert str(exc.value) == "group order 720 exceeds guard 100"


class TestActionTables:
    def test_action_equals_multiply(self):
        # every generator move's rank table, against a table built without
        # conjugation chains (the move applied to every window, then ranked)
        # and against the element product: at every rank of the groups of
        # order <= 384, at a fixed sample of ranks in the larger A6, B5, D5
        # and D6, where the chains are longest
        specs = ([GroupSpec(Family.A, n) for n in range(2, 7)]
                 + [GroupSpec(Family.B, n) for n in range(1, 6)]
                 + [GroupSpec(Family.D, n) for n in range(1, 7)]
                 + [GroupSpec(Family.I2, m) for m in (2, 3, 5, 8)])
        for spec in specs:
            group = RankedGroup(spec)
            sample = range(group.order) if group.order <= 384 else range(0, group.order, 97)
            elements = [group.element(k) for k in sample]
            for gens, gen_list in ((Gens.SIMPLE, simple_reflections_of(spec)),
                                   (Gens.REFLECTIONS, reflections_of(spec))):
                moves = list(generator_moves(spec, gens))
                assert len(moves) == len(gen_list) == num_generators(spec.family, spec.n, gens)
                actions = group.actions(gens)
                assert actions.shape == (len(moves), group.order)
                assert actions.dtype == np.intp
                for move, g, row in zip(moves, gen_list, actions):
                    products = [multiply(w, g) for w in elements]
                    if spec.family == Family.I2:
                        got = [group.rank_of(wg) for wg in products]
                    else:
                        a, b, s = move
                        cols = group.windows.T.copy()
                        cols[[b - 1, a - 1]] = group.windows.T[[a - 1, b - 1]] * s
                        assert np.array_equal(group.ranks(cols), row), (spec, move)
                        got = group.ranks(np.array([wg.window for wg in products], dtype=np.int8).T)
                    assert np.array_equal(got, row[sample]), (spec, move)


class TestRanks:
    @pytest.mark.parametrize("spec", [A3, B2, GroupSpec(Family.D, 3), I5], ids=str)
    def test_element_rejects_ranks_outside_the_group(self, spec):
        group = RankedGroup(spec)
        for k in (-1, group.order):
            with pytest.raises(KeyError):
                group.element(k)
        for k in range(group.order):
            assert group.rank_of(group.element(k)) == k


class TestIndexPairs:
    def test_domain(self):
        assert in_index_domain(2, 1, 2)
        assert in_index_domain(2, -2, 1)
        assert not in_index_domain(2, 1, -1)
        assert not in_index_domain(2, 0, 1)
        assert not in_index_domain(2, 1, 3)

    def test_count(self):
        # 2n choices for i, 2n - 2 for j
        for n in range(1, 6):
            assert len(index_pairs(n)) == 2 * n * (2 * n - 2)


@st.composite
def signed_perms(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    perm = draw(st.permutations(list(range(1, n + 1))))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return SignedPermutation(tuple(p * s for p, s in zip(perm, signs)))


@given(signed_perms())
def test_signed_value_antisymmetry(w):
    for i in range(1, w.n + 1):
        assert w.value(-i) == -w.value(i)


@given(signed_perms(max_n=4), signed_perms(max_n=4), signed_perms(max_n=4))
@settings(max_examples=60)
def test_signed_associativity(a, b, c):
    if a.n == b.n == c.n:
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
