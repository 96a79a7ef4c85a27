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
    abs_length_A,
    abs_length_bfs,
    abs_length_dihedral,
    b_inversion_count,
    coxeter_length,
    d_inversion_count,
    descent_count,
    enumerate_group,
    inversion_count,
    make_statistic,
    multiply,
    reflections_of,
    simple_reflections_of,
)
from coxwalk.elements import generator_moves
from helpers import bfs_word_length


class TestInversions:
    def test_examples(self):
        assert inversion_count(Permutation((1, 2, 3))) == 0
        assert inversion_count(Permutation((3, 2, 1))) == 3
        assert inversion_count(Permutation((2, 1, 3))) == 1

    def test_b_examples(self):
        assert b_inversion_count(SignedPermutation((2, 1))) == 1
        assert b_inversion_count(SignedPermutation((1, -2))) == 3
        assert b_inversion_count(SignedPermutation((1, 2, 3, 4))) == 0

    def test_d_examples(self):
        assert d_inversion_count(SignedPermutation((2, 1))) == 1
        assert d_inversion_count(SignedPermutation((-1, -2))) == 2
        assert d_inversion_count(SignedPermutation((1, 2, 3))) == 0

    def test_d_parity_guard(self):
        with pytest.raises(DParityViolation):
            d_inversion_count(SignedPermutation((-1, 2)))

    def test_max_lengths(self):
        # longest elements: reversal, minus-identity, and minus-identity for
        # even rank in type D
        assert inversion_count(Permutation((4, 3, 2, 1))) == 6
        assert b_inversion_count(SignedPermutation((-1, -2, -3))) == 9
        assert d_inversion_count(SignedPermutation((-1, -2, -3, -4))) == 12


class TestAgainstWordLength:
    def test_a_inversions_equal_word_length(self):
        for n in range(2, 6):
            spec = GroupSpec(Family.A, n)
            table = bfs_word_length(spec.identity(), simple_reflections_of(spec))
            assert len(table) == spec.order()
            for w, d in table.items():
                assert inversion_count(w) == d

    def test_b_inversions_equal_word_length(self):
        for n in range(1, 4):
            spec = GroupSpec(Family.B, n)
            table = bfs_word_length(spec.identity(), simple_reflections_of(spec))
            assert len(table) == spec.order()
            for w, d in table.items():
                assert b_inversion_count(w) == d

    def test_d_inversions_equal_word_length(self):
        for n in range(2, 5):
            spec = GroupSpec(Family.D, n)
            table = bfs_word_length(spec.identity(), simple_reflections_of(spec))
            assert len(table) == spec.order()
            for w, d in table.items():
                assert d_inversion_count(w) == d


def dihedral_length_table(m):
    """Word length of every element of I2(m), by the closed expression."""
    spec = GroupSpec(Family.I2, m)
    return {w: coxeter_length(spec, w) for w in enumerate_group(spec)}


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


class TestAbsLength:
    def test_cycle_formula_examples(self):
        assert abs_length_A(Permutation((1, 2, 3, 4))) == 0
        assert abs_length_A(Permutation((2, 1, 3))) == 1
        assert abs_length_A(Permutation((2, 3, 1))) == 2

    def test_cycle_formula_equals_bfs(self):
        for n in range(2, 6):
            spec = GroupSpec(Family.A, n)
            table = bfs_word_length(spec.identity(), reflections_of(spec))
            for w in enumerate_group(spec):
                assert abs_length_A(w) == abs_length_bfs(spec, w) == table[w]

    def test_reflections_have_abs_length_one(self):
        for spec in (GroupSpec(Family.B, 3), GroupSpec(Family.D, 3), GroupSpec(Family.I2, 6)):
            for r in reflections_of(spec):
                assert abs_length_bfs(spec, r) == 1

    def test_dihedral_rotations(self):
        spec = GroupSpec(Family.I2, 5)
        for rot in range(1, 5):
            assert abs_length_bfs(spec, DihedralElement(5, rot, 0)) == 2

    def test_abs_at_most_length_same_parity(self):
        for spec in (GroupSpec(Family.A, 4), GroupSpec(Family.B, 3),
                     GroupSpec(Family.D, 3), GroupSpec(Family.I2, 7)):
            for w in enumerate_group(spec):
                a, l = abs_length_bfs(spec, w), coxeter_length(spec, w)
                assert a <= l
                assert a % 2 == l % 2

    def test_abs_length_dihedral_rule(self):
        m = 5
        assert abs_length_dihedral(m, DihedralElement(m, 0, 0)) == 0
        for rot in range(m):
            assert abs_length_dihedral(m, DihedralElement(m, rot, 1)) == 1
        for rot in range(1, m):
            assert abs_length_dihedral(m, DihedralElement(m, rot, 0)) == 2

    def test_dihedral_rule_equals_bfs(self):
        for m in (2, 3, 6):
            spec = GroupSpec(Family.I2, m)
            table = bfs_word_length(spec.identity(), reflections_of(spec))
            for w in enumerate_group(spec):
                assert abs_length_dihedral(m, w) == abs_length_bfs(spec, w) == table[w]


class TestDescents:
    def test_identity_has_none(self):
        for spec in (GroupSpec(Family.A, 4), GroupSpec(Family.B, 2), GroupSpec(Family.I2, 5)):
            assert descent_count(spec, spec.identity()) == 0

    def test_longest_element_has_all(self):
        assert descent_count(GroupSpec(Family.A, 3), Permutation((3, 2, 1))) == 2
        assert descent_count(GroupSpec(Family.B, 2), SignedPermutation((-1, -2))) == 2


# every element of these groups is checked against the breadth-first oracle
ORACLE_GROUPS = (
    [GroupSpec(Family.A, n) for n in range(2, 8)]
    + [GroupSpec(Family.B, n) for n in range(1, 6)]
    + [GroupSpec(Family.D, n) for n in range(2, 7)]
    + [GroupSpec(Family.I2, m) for m in range(2, 41)]
)


def rank_bfs(group, moves):
    """Word length over the generators of the given ``generator_moves``
    entries by rank, breadth-first over the group's right-action tables."""
    actions = group.actions(moves)
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
        moves = generator_moves(spec, Gens.REFLECTIONS)
        absolute = dict(zip(group.elements(), rank_bfs(group, moves).tolist()))
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
