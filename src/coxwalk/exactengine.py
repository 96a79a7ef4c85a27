"""Exact rational walk engines.

Two complementary engines:

* a full-distribution engine that evolves the probability vector over the
  whole group under uniform right-multiplication by a generating set, and
* a pairwise engine that evolves, for every admissible index pair (i, j),
  the exact probability that the walk's window satisfies w(i) < w(j),
  by one linear recurrence per family.

Both engines are exact and hold integer numerators over |R|^t, so a step is
integer arithmetic without a gcd, and reduced fractions are formed only when
entries are read.  Each engine is a setup plus a step function run by one
walk loop, ``_walk``, which holds the numerators in int64 while the engine's
growth bound keeps the next step below 2^63 and in Python ints beyond, and
yields them read-only, as they are the state for the next step.  The full
engine keeps counts = |R|^t * P over the ranks of ``elements.RankedGroup``
(identity 0) and sums their gathers through ``RankedGroup.actions``, one
block of generators at a time.  The pairwise state, U = |R|^t * P in one
numpy table, scales as O(n^2) and so reaches ranks far beyond full enumeration.

Also here: the row-plus-column summation operator Q of the pairwise
recurrence, which the pair step (``_pair_step``, also run by ``verify``'s
proof) evaluates as one row sum and ``apply_Q_A`` / ``apply_Q_BD`` apply to
pair-table arrays, where Q.Q = n.Q (antisymmetric tables) and
Q.Q = (2n-2).Q (doubly symmetric signed-pair tables), as the pairwise
closed forms use.  The pair engine, its tables, ``pair_probability`` and Q
all read one cached index layout per (family, n), ``_layout``.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Callable

import numpy as np

from .elements import (
    Family,
    Gens,
    GroupElement,
    GroupSpec,
    Measure,
    RankedGroup,
    _BLOCK,
    check_walk_rank,
    check_work,
    num_generators,
    ranked_group,
)
from .errors import UnsupportedFamily, as_member, check_step_count
from . import lengths

_INT64_LIMIT = 2**63


def _exact(num: np.ndarray, bound: int) -> np.ndarray:
    """num as it is while it is int64 and bound < 2^63, else num as Python
    ints (object dtype).  bound caps every value the caller's next operation
    on num can produce, so int64 arithmetic under it is exact."""
    if num.dtype != object and bound < _INT64_LIMIT:
        return num
    return num.astype(object, copy=False)


def _walk(start: np.ndarray, step: Callable, n_gens: int, growth: int, t_max: int):
    """Yield read-only (num, den) for t = 0..t_max: num = start, then
    step(num, den) per step, over den = n_gens^t.  A step from cells in
    [0, den] computes no value beyond growth * den in magnitude."""
    num, den = start, 1
    num.flags.writeable = False
    yield num, den
    for _ in range(t_max):
        num = step(_exact(num, den * growth), den)
        num.flags.writeable = False
        den *= n_gens
        yield num, den


class _Probs(Mapping):
    """Read-only element -> reduced Fraction view of a distribution's
    support; KeyError off the support."""

    def __init__(self, dist: "ExactDist"):
        self._dist = dist

    def __len__(self) -> int:
        return int(np.count_nonzero(self._dist.counts))

    def __iter__(self):
        group = self._dist.group
        return (group.element(k) for k in np.flatnonzero(self._dist.counts).tolist())

    def __getitem__(self, w) -> Fraction:
        c = int(self._dist.counts[self._dist.group.rank_of(w)])
        if not c:
            raise KeyError(w)
        return Fraction(c, self._dist.den)


@dataclass(frozen=True, eq=False)
class ExactDist:
    """Exact distribution over a finite group, as integer counts over one
    denominator: the probability of the element of rank k is
    counts[k] / den, with den = |R|^t and counts summing to den.

    ``group`` is the ranked group shared by every distribution of one walk;
    ``counts`` is read-only and in rank order.
    """

    group: RankedGroup
    counts: np.ndarray
    den: int

    @property
    def spec(self) -> GroupSpec:
        return self.group.spec

    @property
    def probs(self) -> Mapping:
        """element -> probability over the support, as a read-only mapping
        that compares equal to the matching dict."""
        return _Probs(self)

    def total(self) -> Fraction:
        return Fraction(int(self.counts.sum()), self.den)


def iterate_distributions(spec: GroupSpec, gens: Gens, t_max: int):
    """Yield the walk distribution at t = 0, 1, ..., t_max in order.

    Work is t_max * |W| * |R| index operations after a setup that ranks the
    group and builds the table of gens (``RankedGroup.actions``), both kept
    for the next walk on the same spec (``ranked_group``).
    Every generator is an involution, so the counts arriving at w are the
    counts at w * g, summed over g; a new count is at most |R| * den.
    """
    t_max = check_step_count(t_max)
    group = ranked_group(spec)  # its order guard runs before any table is built
    check_walk_rank(spec.family, spec.n, spec.r)
    n_gens = num_generators(spec.family, spec.n, gens)
    check_work(group.order * n_gens * max(t_max, 1), "walk work estimate")
    actions = group.actions(gens)
    rows = max(1, _BLOCK // group.order)

    def step(counts, den):
        new = counts[actions[:rows]].sum(axis=0)
        for lo in range(rows, n_gens, rows):
            new += counts[actions[lo:lo + rows]].sum(axis=0)
        return new

    start = np.zeros(group.order, dtype=np.int64)
    start[0] = 1  # the identity
    for counts, den in _walk(start, step, n_gens, n_gens, t_max):
        yield ExactDist(group, counts, den)


def evolve_distribution(spec: GroupSpec, gens: Gens, t: int) -> ExactDist:
    """Distribution of a product of t generators drawn uniformly with
    replacement, starting from the identity."""
    for dist in iterate_distributions(spec, gens, t):
        pass
    return dist


def expectation(dist: ExactDist, statistic: Callable[[GroupElement], int]) -> Fraction:
    """Exact expected value of an integer statistic under the distribution.

    A ``make_statistic`` statistic is evaluated once per walk over every
    window of the group, and each call is then one integer sum of counts
    times values.  Any other callable is evaluated on the support elements
    and memoized by rank, so each element is evaluated once per walk and
    statistic object.  Both are memoized on the walk's group, which
    ``ranked_group`` shares with the next walk on the same spec, so the
    values outlive the walk.
    """
    group, counts = dist.group, dist.counts
    if isinstance(statistic, lengths.Statistic):
        if (entry := group.memo.get(statistic)) is None:
            values = statistic.values(group)
            entry = group.memo[statistic] = values, int(values.max())
        values, top = entry
        # the counts sum to den, so the sum is at most den * top
        return Fraction(int(_exact(counts, dist.den * top) @ values), dist.den)
    memo = group.memo.setdefault(statistic, {})
    support = np.flatnonzero(counts)
    total = 0
    for k, c in zip(support.tolist(), counts[support].tolist()):
        v = memo.get(k)
        if v is None:
            v = memo[k] = statistic(group.element(k))
        total += c * v
    return Fraction(total, dist.den)


def pair_probability(dist: ExactDist, i: int, j: int) -> Fraction:
    """Prob(w(i) < w(j)) under the distribution, summed over the support.
    Takes the keys ``PairTable.entry`` takes, and raises KeyError off its
    domain as it does."""
    win = dist.group.windows
    if win is None:
        raise UnsupportedFamily("pair probabilities need a permutation window")
    layout = _layout(dist.spec.family, dist.spec.n)
    a, b = layout.pos[i], layout.pos[j]
    if not layout.domain[a, b]:
        raise KeyError((i, j))

    def value(p: int) -> np.ndarray:  # w(x) for the label x at position p
        x = layout.labels[p]
        return win[:, x - 1] if x > 0 else -win[:, -x - 1]

    return Fraction(int(dist.counts[value(a) < value(b)].sum()), dist.den)


def make_statistic(spec: GroupSpec, measure: Measure) -> lengths.Statistic:
    """Statistic for the measure on this group's elements: called on one
    element it returns that element's value, and ``expectation`` evaluates
    it over the whole group at once.  Every measure is a closed expression in
    the window (or the rank in I2), so no group is enumerated to build it."""
    return lengths.Statistic(spec, measure)


# ---------------------------------------------------------------------------
# Pairwise engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False, slots=True)
class _Layout:
    """Index layout of a (family, n) pair table, shared read-only by the pair
    engine, its tables, ``pair_probability`` and Q.  ``labels``: the labels
    along each axis in increasing order, 1..n in A and -n..-1, 1..n in B and
    D (so positions p and 2n-1-p carry i and -i); ``pos``: label -> position,
    KeyError off the labels; ``domain``: the cells i != j, in D also
    i != -j, so in A and D the cells |i| != |j| on which Q sums;
    ``inversions``: flat positions of the pairs (i, j) with j > |i|, plus
    (-i, i) in B.  The fields are slots, which ``PairTable.entry`` reads as
    fast as its own fields (a NamedTuple's read slower).
    """

    labels: tuple
    pos: Mapping
    domain: np.ndarray
    inversions: np.ndarray


@lru_cache(maxsize=128)
def _layout(family: Family, n: int) -> _Layout:
    lab = np.arange(1, n + 1)
    if family != Family.A:
        lab = np.concatenate([-lab[::-1], lab])
    i, j = lab[:, None], lab[None, :]
    domain = abs(i) != abs(j) if family == Family.D else i != j
    inv = j > abs(i)
    if family == Family.B:
        inv |= (i == -j) & (j > 0)
    inversions = np.flatnonzero(inv)
    for a in (domain, inversions):
        a.flags.writeable = False
    labels = tuple(lab.tolist())
    pos = MappingProxyType({x: p for p, x in enumerate(labels)})
    return _Layout(labels, pos, domain, inversions)


@dataclass(frozen=True, eq=False)
class PairTable:
    """The probabilities Prob(w(i) < w(j)) of the walk after t steps, indexed
    by ordered index pairs, held as integer numerators num = |R|^t * P over
    one common denominator den = |R|^t.

    Family A indexes ordered pairs (i, j) with 1 <= i != j <= n; families B
    and D index signed pairs, with the pairs (i, -i) present for B only.
    ``layout`` is the read-only ``_layout`` of (family, n), shared by every
    table of a walk: reads find cells through ``layout.pos`` and
    ``layout.domain`` without a lookup by family.  Every cell of ``num`` off
    ``layout.domain`` is zero.  ``num`` is read-only, int64 while the
    engine's step bound holds (see ``_pair_step``) and object
    (Python ints) beyond it.
    """

    family: Family
    n: int
    t: int
    num: np.ndarray
    den: int
    layout: _Layout

    @cached_property
    def entries(self) -> dict:
        """(i, j) -> reduced Fraction over the domain in row-major order,
        built on first access."""
        lab, num = self.layout.labels, self.num.tolist()
        return {
            (lab[a], lab[b]): Fraction(num[a][b], self.den)
            for a, b in np.argwhere(self.layout.domain).tolist()
        }

    def entry(self, i: int, j: int) -> Fraction:
        layout = self.layout
        a, b = layout.pos[i], layout.pos[j]
        if not layout.domain[a, b]:
            raise KeyError((i, j))
        return Fraction(self.num.item(a, b), self.den)

    def expected_length(self) -> Fraction:
        """Expected inversion-type length: the sum of Prob(w(i) > w(j)) over
        the family's inversion pairs (i, j) with j > |i|, plus (-i, i) in B."""
        inv = self.layout.inversions
        top = inv.size * self.den
        # cells lie in [0, den], so their sum is at most top
        cells = _exact(self.num.take(inv), top)
        return Fraction(top - int(cells.sum()), self.den)


def _pair_step(family: Family, n: int):
    """(step, growth): the pair engine's step(U, den) and its ``_walk`` bound.

    The state is the integer table U = |R|^t * P.  One step maps it to
    c*U + U^T (+ U[-j,-i] for B and D) + Q(U), less U[-i,j] + U[i,-j] in D,
    on the cells |i| != |j|; B's sign pairs (i, -i) map to
    c_sign*U[i,-i] + the sum of U[k,-k], and every other cell stays zero.
    No step divides or takes a gcd.

    The step evaluates that map on two rules every table keeps: U + U^T =
    den on the domain, and U[-j,-i] = U in B and D.  With r_i the row sum
    of U over Q's mask, Q's column sum at j is (n-1)*den - r_j in A and
    r_{-j} in B and D, so the map is (c-1)*U + r_i - r_j + n*den in A and
    c*U + den + r_i + r_{-j} in B and D: one row sum and a few passes.
    It is linear in (U, den) jointly, which ``verify``'s pair proof relies on.

    U is int64 while den * (|c| + |c_sign| + 4n + 4) < 2^63 before a step,
    and Python ints from the first step where that fails.  Every cell of U
    lies in [0, den], and a row has at most 2n - 1 nonzero cells, so in
    that step, in units of den: |(c-1)*U| <= |c| + 1 and |c*U| <= |c|;
    n*den + r_i (A) and den + r_i (B, D) are at most 2n; r_j and r_{-j}
    are at most 2n - 1; D's two cells sum to at most 2; and B's sign pairs,
    c_sign*U plus a sum of 2n cells, are at most |c_sign| + 2n.  So every
    intermediate is at most |c| + 4n + 1 or |c_sign| + 2n, and neither it
    nor a new cell reaches 2^63.
    """
    # the reflections that fix i and j (those of rank n - 2), less the two
    # copies of U[i,j] inside Q(U); for B's (-i, i), those of rank n - 1,
    # less the copy inside the sum over the sign pairs
    c = num_generators(family, n - 2, Gens.REFLECTIONS) - 2
    c_sign = num_generators(family, n - 1, Gens.REFLECTIONS) - 1

    def step(u, den):
        r = u.sum(axis=1)  # over Q's mask once B's sign cells are taken off
        if family == Family.A:
            new = (c - 1) * u + (r + n * den)[:, None] - r
            np.fill_diagonal(new, 0)
            return new
        sign = u[:, ::-1].diagonal()  # U[i, -i]
        if family == Family.B:
            r -= sign
        new = c * u + (r + den)[:, None] + r[::-1]  # r[::-1] holds r_{-j}
        if family == Family.D:
            new -= u[::-1, :] + u[:, ::-1]  # U[-i, j] and U[i, -j]
        np.fill_diagonal(new, 0)
        np.fill_diagonal(new[:, ::-1], c_sign * sign + sign.sum() if family == Family.B else 0)
        return new

    return step, abs(c) + abs(c_sign) + 4 * n + 4


def iterate_pairtables(family: Family, n: int, t_max: int):
    """Yield the pair tables for t = 0..t_max: ``_pair_step``'s walk from P(i, j) = [i < j]."""
    family = as_member(Family, family)
    if family not in (Family.A, Family.B, Family.D):
        raise UnsupportedFamily(f"pairwise engine supports families A, B, D, not {family}")
    n, t_max = check_walk_rank(family, n)[0], check_step_count(t_max)
    check_work(4 * n * n * max(t_max, 1), "pair-table work estimate")
    layout = _layout(family, n)
    step, growth = _pair_step(family, n)
    # the labels increase along each axis, so i < j above the diagonal
    start = np.triu(layout.domain, 1).astype(np.int64)
    nrefl = num_generators(family, n, Gens.REFLECTIONS)
    for t, (u, den) in enumerate(_walk(start, step, nrefl, growth, t_max)):
        yield PairTable(family, n, t, u, den, layout)


def evolve_pairtable(family: Family, n: int, t: int) -> PairTable:
    """The pair table after t uniform reflection steps."""
    for table in iterate_pairtables(family, n, t):
        pass
    return table


# ---------------------------------------------------------------------------
# Row-plus-column summation operators
# ---------------------------------------------------------------------------


def _q(u: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row sum plus column sum at every cell of mask, both sums taken over
    the cells of mask; zero off mask.  The one Q, of apply_Q_A / apply_Q_BD
    and of the pair recurrence that ``iterate_pairtables`` evaluates."""
    m = np.where(mask, u, 0)
    return np.where(mask, m.sum(axis=1)[:, None] + m.sum(axis=0)[None, :], 0)


def apply_Q_A(v: np.ndarray) -> np.ndarray:
    """Q on an (n, n) table in the family-A pair-table layout (cell
    (i-1, j-1) holds v(i, j)): row sum plus column sum off the diagonal.
    Satisfies Q.Q = n.Q on antisymmetric tables."""
    return _q(v, _layout(Family.A, len(v)).domain)


def apply_Q_BD(v: np.ndarray) -> np.ndarray:
    """Q on a (2n, 2n) table in the B/D pair-table layout (axes labelled
    -n..-1, 1..n): row sum over |j'| != |i| plus column sum over |i'| != |j|
    at every cell with |i| != |j|.  Satisfies Q.Q = (2n-2).Q on tables with
    v(j,i) = -v(i,j) and v(-j,-i) = v(i,j)."""
    return _q(v, _layout(Family.D, len(v) // 2).domain)
