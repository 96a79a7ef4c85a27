"""Length statistics: inversion counts, word lengths from the Cayley graph,
and minimal reflection factorizations.

Word length over the simple generators equals the inversion count in type A,
the count over pairs with j >= |i| in type B, and the count over pairs with
j > |i| in type D; the two signed variants differ exactly in whether the
pairs (-i, i) participate.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .elements import (
    DihedralElement,
    Family,
    GroupElement,
    GroupSpec,
    Permutation,
    RankedGroup,
    SignedPermutation,
    check_order,
    reflections_of,
    simple_reflections_of,
)
from .errors import DParityViolation, UnsupportedFamily


def inversion_count(p: Permutation) -> int:
    """Number of pairs i < j with p(i) > p(j)."""
    w = p.window
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def b_inversion_count(w: SignedPermutation) -> int:
    """Count of pairs (i, j), j >= |i|, i != j, with w(i) > w(j)."""
    n = w.n
    count = 0
    for j in range(1, n + 1):
        wj = w.window[j - 1]
        for i in range(-j, j):
            if i == 0:
                continue
            if w.value(i) > wj:
                count += 1
    return count


def d_inversion_count(w: SignedPermutation) -> int:
    """Count of pairs (i, j), j > |i|, with w(i) > w(j).

    Raises DParityViolation unless the window has an even number of negative
    entries.
    """
    if not w.in_type_d:
        raise DParityViolation(f"odd number of sign changes in {w.window}")
    n = w.n
    count = 0
    for j in range(1, n + 1):
        wj = w.window[j - 1]
        for i in range(-(j - 1), j):
            if i == 0:
                continue
            if w.value(i) > wj:
                count += 1
    return count


def _bfs_lengths(spec: GroupSpec, gens: list[GroupElement]) -> dict:
    """Word length over ``gens`` of every group element, by one breadth-first
    search over the ranked group's action tables."""
    group = RankedGroup(spec)
    actions = [group.action(g) for g in gens]
    dist = np.full(group.order, -1, dtype=np.int32)
    dist[0] = 0
    frontier, d = np.zeros(1, dtype=np.int32), 0
    while frontier.size:
        d += 1
        reached = np.zeros(group.order, dtype=bool)
        for act in actions:
            reached[act[frontier]] = True
        reached &= dist < 0
        dist[reached] = d
        frontier = np.flatnonzero(reached)
    return dict(zip(group.elements(), dist.tolist()))


@lru_cache(maxsize=8)
def dihedral_length_table(m: int) -> dict:
    """Word length of every element of the dihedral group of order 2m over
    its two standard generators."""
    spec = GroupSpec(Family.I2, m)
    return _bfs_lengths(spec, simple_reflections_of(spec))


def coxeter_length(spec: GroupSpec, w: GroupElement) -> int:
    """Word length over the simple generators, by the family's inversion
    statistic (type I2 uses the cached breadth-first table)."""
    f = spec.family
    if f == Family.A:
        return inversion_count(w)
    if f == Family.B:
        return b_inversion_count(w)
    if f == Family.D:
        return d_inversion_count(w)
    if f == Family.I2:
        return dihedral_length_table(spec.n)[w]
    raise UnsupportedFamily("no element-level length for family G")


def abs_length_A(p: Permutation) -> int:
    """Minimal number of transpositions multiplying to p: n minus the number
    of cycles (fixed points count as cycles)."""
    return p.n - p.cycle_count()


@lru_cache(maxsize=4)
def _abs_length_table_cached(spec: GroupSpec) -> dict:
    return _bfs_lengths(spec, reflections_of(spec))


def abs_length_table(spec: GroupSpec, limit: int | None = None) -> dict:
    """Minimal reflection-word length of every group element, breadth-first
    over the full reflection set.  Subject to the group-order guard."""
    check_order(spec, limit)
    return _abs_length_table_cached(spec)


def abs_length_bfs(spec: GroupSpec, w: GroupElement, limit: int | None = None) -> int:
    """Exact minimal number of reflections multiplying to w."""
    return abs_length_table(spec, limit)[w]


def abs_length_dihedral(m: int, w: DihedralElement) -> int:
    """0 for the identity, 1 for reflections, 2 for nontrivial rotations."""
    if w.flip:
        return 1
    return 0 if w.rot == 0 else 2


def descent_count(spec: GroupSpec, w: GroupElement) -> int:
    """Number of simple generators s with length(w*s) < length(w)."""
    lw = coxeter_length(spec, w)
    return sum(1 for s in simple_reflections_of(spec) if coxeter_length(spec, w * s) < lw)
