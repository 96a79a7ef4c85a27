from fractions import Fraction

import numpy as np
import pytest

from coxwalk import (
    DihedralElement,
    DParityViolation,
    Family,
    Gens,
    GroupSpec,
    Measure,
    Permutation,
    RankedGroup,
    SignedPermutation,
    SpecMismatch,
    enumerate_group,
    make_statistic,
    multiply,
    reflections_of,
    simple_reflections_of,
)
from coxwalk.elements import window_dtype
from coxwalk.lengths import block_statistic
from helpers import bfs_word_length, signed_abs_length_by_lift, signed_length_by_pairs


class TestInversions:
    def test_examples(self):
        length = make_statistic(GroupSpec(Family.A, 3), Measure.LENGTH)
        assert length(Permutation((1, 2, 3))) == 0
        assert length(Permutation((3, 2, 1))) == 3
        assert length(Permutation((2, 1, 3))) == 1

    def test_b_examples(self):
        length = make_statistic(GroupSpec(Family.B, 2), Measure.LENGTH)
        assert length(SignedPermutation((2, 1))) == 1
        assert length(SignedPermutation((1, -2))) == 3
        b4 = make_statistic(GroupSpec(Family.B, 4), Measure.LENGTH)
        assert b4(SignedPermutation((1, 2, 3, 4))) == 0

    def test_d_examples(self):
        length = make_statistic(GroupSpec(Family.D, 2), Measure.LENGTH)
        assert length(SignedPermutation((2, 1))) == 1
        assert length(SignedPermutation((-1, -2))) == 2
        d3 = make_statistic(GroupSpec(Family.D, 3), Measure.LENGTH)
        assert d3(SignedPermutation((1, 2, 3))) == 0

    def test_d_parity_guard(self):
        with pytest.raises(DParityViolation):
            make_statistic(GroupSpec(Family.D, 2), Measure.LENGTH)(SignedPermutation((-1, 2)))

    def test_max_lengths(self):
        # longest elements: reversal, minus-identity, and minus-identity for
        # even rank in type D
        a4, b3, d4 = (make_statistic(GroupSpec(f, n), Measure.LENGTH)
                      for f, n in ((Family.A, 4), (Family.B, 3), (Family.D, 4)))
        assert a4(Permutation((4, 3, 2, 1))) == 6
        assert b3(SignedPermutation((-1, -2, -3))) == 9
        assert d4(SignedPermutation((-1, -2, -3, -4))) == 12


@pytest.mark.parametrize("spec, measure, w", [
    (GroupSpec(Family.A, 3), Measure.ABSLENGTH, Permutation((2, 1, 4, 3))),
    (GroupSpec(Family.B, 3), Measure.LENGTH, Permutation((3, 2, 1))),
    (GroupSpec(Family.I2, 5), Measure.LENGTH, DihedralElement(7, 6, 0)),
    (GroupSpec(Family.A, 3), Measure.LENGTH, DihedralElement(7, 6, 0)),
], ids=["A3-four-letters", "B3-unsigned", "I2(5)-of-I2(7)", "A3-dihedral"])
def test_foreign_element_raises_spec_mismatch(spec, measure, w):
    # the one-row path and rank_of share one membership test
    with pytest.raises(SpecMismatch):
        make_statistic(spec, measure)(w)
    with pytest.raises(KeyError):
        RankedGroup(spec).rank_of(w)


class TestAgainstWordLength:
    def test_a_inversions_equal_word_length(self):
        for n in range(2, 6):
            spec = GroupSpec(Family.A, n)
            length = make_statistic(spec, Measure.LENGTH)
            table = bfs_word_length(spec.identity(), simple_reflections_of(spec))
            assert len(table) == spec.order()
            for w, d in table.items():
                assert length(w) == d

    def test_b_inversions_equal_word_length(self):
        for n in range(1, 4):
            spec = GroupSpec(Family.B, n)
            length = make_statistic(spec, Measure.LENGTH)
            table = bfs_word_length(spec.identity(), simple_reflections_of(spec))
            assert len(table) == spec.order()
            for w, d in table.items():
                assert length(w) == d

    def test_d_inversions_equal_word_length(self):
        for n in range(2, 5):
            spec = GroupSpec(Family.D, n)
            length = make_statistic(spec, Measure.LENGTH)
            table = bfs_word_length(spec.identity(), simple_reflections_of(spec))
            assert len(table) == spec.order()
            for w, d in table.items():
                assert length(w) == d


def dihedral_length_table(m):
    """Word length of every element of I2(m), by the closed expression."""
    spec = GroupSpec(Family.I2, m)
    length = make_statistic(spec, Measure.LENGTH)
    return {w: length(w) for w in enumerate_group(spec)}


class TestDihedralTable:
    def test_m3_multiset(self):
        assert sorted(dihedral_length_table(3).values()) == [0, 1, 1, 2, 2, 3]

    def test_identity_and_longest(self):
        for m in range(2, 10):
            table = dihedral_length_table(m)
            assert table[DihedralElement(m, 0, 0)] == 0
            assert sorted(table.values())[-1] == m
            assert sum(1 for v in table.values() if v == m) == 1

    def test_odd_lengths_are_reflections(self):
        for m in range(2, 10):
            table = dihedral_length_table(m)
            odd = {w for w, v in table.items() if v % 2 == 1}
            assert odd == set(reflections_of(GroupSpec(Family.I2, m)))
            assert len(odd) == m

    def test_reflection_average_i2_3(self):
        table = dihedral_length_table(3)
        refl = reflections_of(GroupSpec(Family.I2, 3))
        assert sum(Fraction(table[r]) for r in refl) / 3 == Fraction(5, 3)


def one_row_and_block_values(spec, measure):
    """element -> (its one-row value, its value in the block over the group)."""
    stat, group = make_statistic(spec, measure), RankedGroup(spec)
    elements = group.elements()
    return dict(zip(elements, zip(map(stat, elements), stat.values(group).tolist())))


class TestAbsLength:
    def test_cycle_formula_examples(self):
        a3, a4 = (make_statistic(GroupSpec(Family.A, n), Measure.ABSLENGTH) for n in (3, 4))
        assert a4(Permutation((1, 2, 3, 4))) == 0
        assert a3(Permutation((2, 1, 3))) == 1
        assert a3(Permutation((2, 3, 1))) == 2

    def test_cycle_formula_equals_bfs(self):
        for n in range(2, 6):
            spec = GroupSpec(Family.A, n)
            table = bfs_word_length(spec.identity(), reflections_of(spec))
            for w, (row, block) in one_row_and_block_values(spec, Measure.ABSLENGTH).items():
                assert row == block == table[w]

    def test_reflections_have_abs_length_one(self):
        for spec in (GroupSpec(Family.B, 3), GroupSpec(Family.D, 3), GroupSpec(Family.I2, 6)):
            absolute = make_statistic(spec, Measure.ABSLENGTH)
            for r in reflections_of(spec):
                assert absolute(r) == 1

    def test_dihedral_rotations(self):
        absolute = make_statistic(GroupSpec(Family.I2, 5), Measure.ABSLENGTH)
        for rot in range(1, 5):
            assert absolute(DihedralElement(5, rot, 0)) == 2

    def test_abs_at_most_length_same_parity(self):
        for spec in (GroupSpec(Family.A, 4), GroupSpec(Family.B, 3),
                     GroupSpec(Family.D, 3), GroupSpec(Family.I2, 7)):
            absolute = make_statistic(spec, Measure.ABSLENGTH)
            length = make_statistic(spec, Measure.LENGTH)
            for w in enumerate_group(spec):
                a, l = absolute(w), length(w)
                assert a <= l
                assert a % 2 == l % 2

    def test_abs_length_dihedral_rule(self):
        m = 5
        absolute = make_statistic(GroupSpec(Family.I2, m), Measure.ABSLENGTH)
        assert absolute(DihedralElement(m, 0, 0)) == 0
        for rot in range(m):
            assert absolute(DihedralElement(m, rot, 1)) == 1
        for rot in range(1, m):
            assert absolute(DihedralElement(m, rot, 0)) == 2

    def test_dihedral_rule_equals_bfs(self):
        for m in (2, 3, 6):
            spec = GroupSpec(Family.I2, m)
            table = bfs_word_length(spec.identity(), reflections_of(spec))
            for w, (row, block) in one_row_and_block_values(spec, Measure.ABSLENGTH).items():
                assert row == block == table[w]


class TestDescents:
    def test_identity_has_none(self):
        for spec in (GroupSpec(Family.A, 4), GroupSpec(Family.B, 2), GroupSpec(Family.I2, 5)):
            assert make_statistic(spec, Measure.DESCENTS)(spec.identity()) == 0

    def test_longest_element_has_all(self):
        a3 = make_statistic(GroupSpec(Family.A, 3), Measure.DESCENTS)
        b2 = make_statistic(GroupSpec(Family.B, 2), Measure.DESCENTS)
        assert a3(Permutation((3, 2, 1))) == 2
        assert b2(SignedPermutation((-1, -2))) == 2


# every element of these groups is checked against the breadth-first oracle
ORACLE_GROUPS = (
    [GroupSpec(Family.A, n) for n in range(2, 8)]
    + [GroupSpec(Family.B, n) for n in range(1, 6)]
    + [GroupSpec(Family.D, n) for n in range(2, 7)]
    + [GroupSpec(Family.I2, m) for m in range(2, 41)]
)


def rank_bfs(group, gens):
    """Word length over the generators of gens by rank, breadth-first over
    the group's right-action table."""
    actions = group.actions(gens)
    dist = np.full(group.order, -1)
    dist[0], frontier, d = 0, np.zeros(1, dtype=np.intp), 0
    while frontier.size:
        d += 1
        reached = np.unique(actions[:, frontier])
        frontier = reached[dist[reached] < 0]
        dist[frontier] = d
    return dist


def bfs_statistics(spec):
    """Word length, absolute length and descents of every element, from
    breadth-first searches built on ``multiply`` alone; the search over all
    reflections of D6 (550 000 products, seconds) runs over the rank action
    tables instead."""
    simple, refl, order = simple_reflections_of(spec), reflections_of(spec), spec.order()
    length = bfs_word_length(spec.identity(), simple, order)
    # w and w * s differ in length by one: s is a descent of the longer one
    descents = dict.fromkeys(length, 0)
    for s in simple:
        seen = set()
        for w in length:
            if w not in seen:
                ws = multiply(w, s)
                seen.add(ws)
                descents[w if length[w] > length[ws] else ws] += 1
    if order * len(refl) > 200_000:
        group = RankedGroup(spec)
        absolute = dict(zip(group.elements(), rank_bfs(group, Gens.REFLECTIONS).tolist()))
    else:
        absolute = bfs_word_length(spec.identity(), refl, order)
    return {Measure.LENGTH: length, Measure.ABSLENGTH: absolute, Measure.DESCENTS: descents}


@pytest.mark.parametrize("spec", ORACLE_GROUPS, ids=str)
def test_closed_expressions_equal_bfs_oracle(spec):
    oracle = bfs_statistics(spec)
    group = RankedGroup(spec)
    elements = group.elements()
    for measure, table in oracle.items():
        assert len(table) == group.order
        stat = make_statistic(spec, measure)
        expected = [table[w] for w in elements]
        # the block path over all windows (ranks in I2), as the exact engine
        # and Monte Carlo use it
        assert stat.values(group).tolist() == expected, measure
        # the one-row path on a spread of elements
        step = 1 if group.order <= 400 else 13
        assert [stat(w) for w in elements[::step]] == expected[::step], measure


@pytest.mark.parametrize("spec", [GroupSpec(Family.B, n) for n in range(1, 7)]
                         + [GroupSpec(Family.D, n) for n in range(2, 7)], ids=str)
def test_signed_statistics_equal_pair_and_lift_references(spec):
    # every window of the group, as the full engine holds them (int8, column-major)
    windows = RankedGroup(spec).windows
    length = block_statistic(spec, Measure.LENGTH)(windows)
    assert length.tolist() == signed_length_by_pairs(windows, spec.family).tolist()
    absolute = block_statistic(spec, Measure.ABSLENGTH)(windows)
    assert absolute.tolist() == signed_abs_length_by_lift(windows).tolist()


@pytest.mark.parametrize("family", [Family.B, Family.D])
@pytest.mark.parametrize("n", [3, 12, 40])
def test_random_signed_blocks_equal_pair_and_lift_references(family, n):
    rng = np.random.default_rng(n)
    w = rng.permuted(np.tile(np.arange(1, n + 1), (300, 1)), axis=1)
    w *= rng.choice([-1, 1], size=w.shape)
    if family == Family.D:
        w[:, 0] *= np.prod(np.sign(w), axis=1)  # an even number of negative entries
    spec = GroupSpec(family, n)
    length = signed_length_by_pairs(w, family).tolist()
    absolute = signed_abs_length_by_lift(w).tolist()
    # Monte Carlo's row-major state and a column-major block
    for block in (w, np.asfortranarray(w)):
        assert block_statistic(spec, Measure.LENGTH)(block).tolist() == length
        assert block_statistic(spec, Measure.ABSLENGTH)(block).tolist() == absolute


@pytest.mark.parametrize("family", [Family.A, Family.B, Family.D])
@pytest.mark.parametrize("n", [20, 63, 64])
def test_narrow_windows_equal_int64_windows(family, n):
    # every measure on windows held in window_dtype(n) (int8 up to n = 63,
    # int16 from 64) equals it on the same windows as int64; the first rows
    # put +-n and +-(n - 1) at positions 1 and 2, where D's w(1) + w(2) and
    # B/D's sums over the negative entries reach their extremes
    rng = np.random.default_rng(n)
    top = np.arange(n, 0, -1)
    w = np.vstack([top, top[::-1], rng.permuted(np.tile(top, (300, 1)), axis=1)])
    if family != Family.A:
        w = np.vstack([w, -top, -top[::-1]])
        w[4:] *= rng.choice([-1, 1], size=w[4:].shape)
        if family == Family.D:
            w[:, -1] *= np.prod(np.sign(w), axis=1)  # an even number of negative entries
    narrow = w.astype(window_dtype(n))
    assert narrow.dtype == (np.int8 if n <= 63 else np.int16)
    spec = GroupSpec(family, n)
    for measure in Measure:
        statistic = block_statistic(spec, measure)
        assert statistic(narrow).tolist() == statistic(w).tolist(), measure
