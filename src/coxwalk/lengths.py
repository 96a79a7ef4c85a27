"""Length statistics: word length over the simple generators, absolute
(minimal reflection) length and descents, each as one vectorized function of
a block of elements.

A block is a (k, n) array of windows in A, B and D, row r holding
w(1)..w(n), and a length-k array of ranks 2 * rot + flip in I2.  The exact
full-distribution engine evaluates a statistic once over every window of the
group and Monte Carlo over its final walk states.  Length and descents sum
comparisons of columns per row, so ``block_statistic``'s functions take the
block column-major (``np.asfortranarray``), whatever layout the caller holds,
and sum down contiguous columns; cycles are found by gathers, in any layout.
``Statistic`` (``make_statistic``) is the one per-element entry: on one
element it evaluates ``elements._row``'s one-row block, so an element of
another group raises SpecMismatch, as in ranks; G is refused in ``elements``.

* Word length is the inversion count inv(w), the pairs i < j with
  w(i) > w(j) on the window, in type A; inv(w) less the sum of the negative
  entries w(i) in type B, and inv(w) less the sum of w(i) + 1 over them in
  type D (Bjorner and Brenti, Combinatorics of Coxeter Groups, 8.1-8.2).
* Absolute length is n minus the number of cycles of |w| with an even number
  of sign changes (negative entries), the codimension of the fixed space
  (Carter 1972); A has no signs, and every cycle counts.  One pointer-doubling
  pass gives each position its cycle's leader; B and D then count each
  cycle's negative entries with one bincount over the leaders of the
  negative positions.
* Descents are the positions i with w(i) > w(i + 1), plus w(1) < 0 in B and
  w(1) + w(2) < 0 in D (the generator acting on positions 1 and 2).
* In I2(m), with x = rank - 2 * flip, the word length is min(|x|, 2m - x);
  the absolute length is 0, 1 on reflections and 2 on the other rotations;
  every element but the identity and the longest one has one descent.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .elements import Family, GroupElement, GroupSpec, Measure, RankedGroup, _element_class, _row
from .errors import SpecMismatch, as_member

# rows of windows per block when a statistic runs over a whole group
_ROWS = 2**10


def _inversions(w: np.ndarray) -> np.ndarray:
    """Pairs i < j with w(i) > w(j), per row."""
    start = np.zeros(len(w), dtype=np.intp)
    return sum(((w[:, :-d] > w[:, d:]).sum(axis=1) for d in range(1, w.shape[1])), start)


def _descents(w: np.ndarray) -> np.ndarray:
    """Positions i with w(i) > w(i + 1), per row."""
    return (w[:, :-1] > w[:, 1:]).sum(axis=1)


def _absolute_length(w: np.ndarray, signed: bool) -> np.ndarray:
    """n less the cycles of each row's |w|, in B and D less only those with
    an even number of negative entries.  A cycle's leader is its least
    position, found by pointer doubling."""
    k, n = w.shape
    # on the flattened block, step holds the flat index of the reach-th
    # image of each point, and least the least position among its first
    # ``reach`` points
    offsets = np.arange(0, k * n, n)[:, None]
    step = (np.abs(w) - 1 + offsets).ravel()
    least, reach = np.tile(np.arange(n, dtype=step.dtype), k), 1
    # both gathers of a round write to one spare array; mode "clip" (the
    # indices are in range) lets take write to it unbuffered
    spare = np.empty_like(step)
    while reach < n:
        np.minimum(least, least.take(step, out=spare, mode="clip"), out=least)
        step, spare = step.take(step, out=spare, mode="clip"), step
        reach *= 2
    least = least.reshape(k, n)
    length = n - (least == np.arange(n)).sum(axis=1)
    if signed:
        # a cycle with an odd number of negative entries is not counted
        odd = np.bincount((least + offsets)[w < 0], minlength=k * n) & 1
        length += odd.reshape(k, n).sum(axis=1)
    return length


def _dihedral_length(k: np.ndarray, m: int) -> np.ndarray:
    x = k - 2 * (k & 1)
    return np.minimum(np.abs(x), 2 * m - x)


def block_statistic(spec: GroupSpec, measure: Measure) -> Callable[[np.ndarray], np.ndarray]:
    """The measure on a block of elements of this group: (k, n) windows in
    A, B and D, ranks 2 * rot + flip in I2.  Needs no enumeration, so it
    applies to groups of any order."""
    f, n = spec.family, spec.n
    _element_class(f)  # UnsupportedFamily for G
    measure = as_member(Measure, measure)
    if f == Family.I2:
        if measure == Measure.LENGTH:
            return lambda k: _dihedral_length(k, n)
        if measure == Measure.ABSLENGTH:
            return lambda k: np.where(k & 1, 1, np.where(k == 0, 0, 2))
        return lambda k: (k != 0).astype(np.intp) + (_dihedral_length(k, n) == n)  # descents
    if measure == Measure.ABSLENGTH:
        return lambda w: _absolute_length(w, f != Family.A)
    if measure == Measure.LENGTH:
        if f == Family.A:
            per_row = _inversions
        elif f == Family.B:
            per_row = lambda w: _inversions(w) - np.minimum(w, 0).sum(axis=1)
        else:
            per_row = lambda w: _inversions(w) - np.minimum(w + 1, 0).sum(axis=1)
    elif f == Family.B:  # descents from here on
        per_row = lambda w: _descents(w) + (w[:, 0] < 0)
    elif f == Family.D and n > 1:  # reads w(2), which D1's window lacks
        per_row = lambda w: _descents(w) + (w[:, 0] + w[:, 1] < 0)
    else:
        per_row = _descents
    return lambda w: per_row(np.asfortranarray(w))


@dataclass(frozen=True)
class Statistic:
    """A measure on the elements of one group.

    Called on one element it returns that element's value, as a one-row
    block (SpecMismatch for an element of another group); ``values`` gives
    the value at every rank of a ranked group of the same spec, evaluated
    block by block over its windows (its ranks in I2).
    """

    spec: GroupSpec
    measure: Measure
    block: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "measure", as_member(Measure, self.measure))
        object.__setattr__(self, "block", block_statistic(self.spec, self.measure))

    def __call__(self, w: GroupElement) -> int:
        return int(self.block(_row(self.spec, w))[0])

    def values(self, group: RankedGroup) -> np.ndarray:
        """int64 values of the statistic in rank order."""
        if group.spec != self.spec:
            raise SpecMismatch(f"statistic on {self.spec} applied to {group.spec}")
        rows = np.arange(group.order) if group.windows is None else group.windows
        return np.concatenate([
            self.block(rows[lo:lo + _ROWS]) for lo in range(0, group.order, _ROWS)
        ]).astype(np.int64)
