"""Concrete group elements for the families A, B, D and I2, and their
integer ranks.

Elements are immutable and hashable.  Permutations are stored in one-line
window notation, signed permutations as a length-n window with the negative
half of the domain implicit through w(-i) = -w(i), dihedral elements as a
(rotation, flip) pair.  The two kinds of window share one implementation.

``RankedGroup`` numbers every element of a group 0..|W|-1, the identity 0:
the Lehmer rank of |w| shifted past its sign bits (none in A, all n in B,
all but the last in D, which parity fixes), and 2 * rot + flip in I2.
Enumeration, the action tables (only the base moves' tables are ranked, the
rest conjugated from them) and the exact full engine work on these ranks.
``ranked_group`` keeps the last ranked group for the next walk on its spec.

An element's integer form is a row of a block: its window (typed by
``window_dtype``) in A/B/D, its rank in I2.  ``_row``, the one membership
test, and ``_element`` convert; ``_element_class`` maps a family to its
class and is the one refusal of G.  ``generator_moves`` is the one list of a
walk's generators: moves (a, b, s) on window positions in A/B/D, rotation
parts in I2, counted unlisted by ``num_generators``.  ``walker`` applies them
to blocks of rows, for Monte Carlo and for the one step from the identity
that lists ``reflections_of`` / ``simple_reflections_of``; the full engine's
action tables (``RankedGroup.actions``) read the moves too.

Composition convention: (a * b)(x) = a(b(x)), i.e. b acts first.  All walk
statistics in this package are invariant under the opposite convention at the
distribution level, but every element-level test assumes this one.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial
from math import factorial
from typing import Union

import numpy as np

from .errors import (
    DParityViolation,
    InvalidGuardLimit,
    InvalidRank,
    OrderLimitExceeded,
    SpecMismatch,
    UnsupportedFamily,
    as_int,
    as_member,
)

DEFAULT_GUARD_LIMIT = 10**7
# entries per ranking call of RankedGroup.actions and per gathered block of a full-engine step
_BLOCK = 2**15
GUARD_ENV_VAR = "COXWALK_GUARD_LIMIT"
# bits of the largest estimate a refusal writes in decimal: at most 4215
# digits, under the 4300 to which Python limits int-to-str by default
_SHOWN_BITS = 14000


def guard_limit() -> int:
    """Current group-order guard (COXWALK_GUARD_LIMIT overrides the default)."""
    raw = os.environ.get(GUARD_ENV_VAR)
    if not raw:
        return DEFAULT_GUARD_LIMIT
    try:
        if (limit := int(raw)) >= 0:
            return limit
    except ValueError:
        pass
    raise InvalidGuardLimit(f"{GUARD_ENV_VAR} must be a decimal integer >= 0, got {raw!r}")


def check_work(work: int, what: str) -> None:
    """Raise OrderLimitExceeded when work, the estimate named what, exceeds the
    guard.  An estimate past _SHOWN_BITS bits is shown by its bit length."""
    cap = guard_limit()
    if work > cap:
        bits = work.bit_length()
        shown = work if bits <= _SHOWN_BITS else f"of {bits} bits"
        raise OrderLimitExceeded(f"{what} {shown} exceeds guard {cap}")


class Family(str, Enum):
    __hash__ = str.__hash__  # as in Gens
    A = "A"
    B = "B"
    D = "D"
    I2 = "I2"
    G = "G"


def check_rank(family: Family, n: int, r: int = 1) -> tuple[int, int]:
    """(n, r) as Python ints; InvalidRank unless they are integers naming a
    group of the family, which is never infinite (two closed forms let I2(inf)
    past this themselves).  It runs on every closed-form call, so it compares
    the family with the members' string values, far cheaper than Enum reads."""
    n, r = as_int(n, InvalidRank, "n"), as_int(r, InvalidRank, "r")
    if family == "A" and n < 2:
        raise InvalidRank(f"family A needs at least 2 letters, got {n}")
    if family in ("B", "D") and n < 1:
        raise InvalidRank(f"family {family.value} needs rank >= 1, got {n}")
    if family == "I2" and n < 2:
        raise InvalidRank(f"family I2 needs m >= 2, got {n}")
    if family == "G":
        if n < 1 or r < 1:
            raise InvalidRank(f"family G needs r, n >= 1, got r={r}, n={n}")
        if n == 1 and r == 1:
            raise InvalidRank("family G needs r, n not both 1")
    elif r != 1:
        raise InvalidRank(f"parameter r is only meaningful for family G, got r={r}")
    return n, r


def has_reflections(family: Family, n: int) -> bool:
    """False for D1 alone, the one group ``check_rank`` admits (order 1) with no reflections."""
    return family != "D" or n >= 2


def check_walk_rank(family: Family, n: int, r: int = 1) -> tuple[int, int]:
    """``check_rank``, and InvalidRank for D1: the rank rule of walks on reflections."""
    ranks = check_rank(family, n, r)
    if not has_reflections(family, n):
        raise InvalidRank("family D needs n >= 2")
    return ranks


class Gens(str, Enum):
    """Which generating set drives the walk."""

    # hash as the value the member equals, so that member-keyed dicts (closedform's
    # cell table, RankedGroup's action tables) find the plain strings too
    __hash__ = str.__hash__
    SIMPLE = "simple"
    REFLECTIONS = "reflections"


class Measure(str, Enum):
    """Which length statistic is averaged."""

    __hash__ = str.__hash__  # as in Gens
    LENGTH = "length"
    ABSLENGTH = "abslength"
    DESCENTS = "descents"


@dataclass(frozen=True)
class GroupSpec:
    """A group in one of the families.

    ``n`` is the number of letters for A (the group is the symmetric group on
    n letters), the rank for B and D, the polygon size m for I2, and the
    number of letters for G(r,1,n).  ``r`` is only meaningful for family G.
    """

    family: Family
    n: int
    r: int = 1

    def __post_init__(self):
        object.__setattr__(self, "family", as_member(Family, self.family))
        for name, value in zip(("n", "r"), check_rank(self.family, self.n, self.r)):
            object.__setattr__(self, name, value)  # a numpy integer is stored as its int

    def __str__(self) -> str:
        """The group's usual name: A4, B3, D1, I2(5), G(3,1,4)."""
        f, n = self.family, self.n
        if f == Family.I2:
            return f"I2({n})"
        if f == Family.G:
            return f"G({self.r},1,{n})"
        return f"{f.value}{n}"

    @property
    def m(self) -> int:
        """Alias for n under family I2."""
        if self.family != Family.I2:
            raise InvalidRank("m is only defined for family I2")
        return self.n

    def order(self) -> int:
        f, n = self.family, self.n
        if f == Family.I2:
            return 2 * n
        if f == Family.D:  # half of B: an even number of sign changes
            return 2 ** (n - 1) * factorial(n)
        # r^n * n! in G(r,1,n); A is G(1,1,n) (r is 1 outside G) and B is G(2,1,n)
        return (2 if f == Family.B else self.r) ** n * factorial(n)

    def identity(self) -> "GroupElement":
        return _element(self, 0 if self.family == Family.I2 else np.arange(1, self.n + 1))

    def element_model(self) -> "GroupSpec":
        """The isomorphic A/B spec carrying the element model of G(r,1,n)
        for r in {1, 2}."""
        if self.family != Family.G:
            return self
        if self.r == 1:
            return GroupSpec(Family.A, self.n)
        if self.r == 2:
            return GroupSpec(Family.B, self.n)
        raise UnsupportedFamily(f"no element model for G(r,1,n) with r={self.r}")


@dataclass(frozen=True)
class _Window:
    """A window w(1)..w(n), read with w(-i) = -w(i).  ``_signed`` admits
    negative entries and i in -n..-1; ``_kind`` names the window in messages."""

    window: tuple[int, ...]

    def __post_init__(self):
        entries = map(abs, self.window) if self._signed else self.window
        if sorted(entries) != list(range(1, len(self.window) + 1)):
            raise ValueError(f"not a {self._kind} window: {self.window}")

    @property
    def n(self) -> int:
        return len(self.window)

    def value(self, i: int) -> int:
        """Image of i for i in 1..n, and in a signed window for i in -n..-1;
        IndexError for any other i."""
        if 0 < i <= self.n:
            return self.window[i - 1]
        if self._signed and 0 < -i <= self.n:
            return -self.window[-i - 1]
        raise IndexError(f"{i} is outside the domain of {self}")

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.n != other.n:
            raise SpecMismatch(f"{self._kind} sizes differ")
        w = self.window
        return type(self)(tuple(w[x - 1] if x > 0 else -w[-x - 1] for x in other.window))

    def inverse(self):
        inv = [0] * self.n
        for i, x in enumerate(self.window, 1):
            inv[abs(x) - 1] = i if x > 0 else -i
        return type(self)(tuple(inv))


class Permutation(_Window):
    """Permutation of 1..n in one-line notation: window[i-1] is the image
    of i."""

    _signed, _kind = False, "permutation"


class SignedPermutation(_Window):
    """Signed permutation stored as the positive window w(1)..w(n); the
    negative half of the domain is implicit through w(-i) = -w(i)."""

    _signed, _kind = True, "signed permutation"

    @property
    def in_type_d(self) -> bool:
        """True iff the number of negative window entries is even."""
        return sum(x < 0 for x in self.window) % 2 == 0


@dataclass(frozen=True)
class DihedralElement:
    """Element rho^rot * sigma^flip of the dihedral group of order 2m, where
    rho is the unit rotation and sigma a fixed reflection: integers m >= 2
    (else InvalidRank), 0 <= rot < m and flip in {0, 1} (else ValueError)."""

    m: int
    rot: int
    flip: int

    def __post_init__(self):
        m = check_rank(Family.I2, self.m)[0]
        rot, flip = as_int(self.rot, ValueError, "rot"), as_int(self.flip, ValueError, "flip")
        if not (0 <= rot < m and flip in (0, 1)):
            raise ValueError(f"no element of I2({m}) has rot={rot}, flip={flip}")
        for name, value in (("m", m), ("rot", rot), ("flip", flip)):
            object.__setattr__(self, name, value)  # as in GroupSpec

    def __mul__(self, other: "DihedralElement") -> "DihedralElement":
        if not isinstance(other, DihedralElement):
            return NotImplemented
        if self.m != other.m:
            raise SpecMismatch("dihedral group sizes differ")
        sign = -1 if self.flip else 1
        return DihedralElement(
            self.m, (self.rot + sign * other.rot) % self.m, self.flip ^ other.flip
        )

    def inverse(self) -> "DihedralElement":
        if self.flip:
            return self
        return DihedralElement(self.m, (-self.rot) % self.m, 0)


GroupElement = Union[Permutation, SignedPermutation, DihedralElement]
_ELEMENT_CLASS = {Family.A: Permutation, Family.B: SignedPermutation,
                  Family.D: SignedPermutation, Family.I2: DihedralElement}


def _element_class(family: Family) -> type:
    """The class of the family's elements; UnsupportedFamily for G, which has
    none (``GroupSpec.element_model`` maps G(1,1,n) and G(2,1,n) to A and B)."""
    if (cls := _ELEMENT_CLASS.get(family)) is None:
        raise UnsupportedFamily("no element model for family G")
    return cls


def _row(spec: GroupSpec, w) -> np.ndarray:
    """w as a one-row block of the group spec: its window as a (1, n) array
    in ``window_dtype(n)``, or its rank 2 * rot + flip as a length-1 array in
    I2.  The one membership test: SpecMismatch unless w is an element of
    spec, DParityViolation for an odd number of sign changes under D."""
    cls = _element_class(spec.family)
    if type(w) is not cls or (w.m if cls is DihedralElement else w.n) != spec.n:
        raise SpecMismatch(f"{w} is not an element of {spec}")
    if cls is DihedralElement:
        return np.array([2 * w.rot + w.flip])
    if spec.family == Family.D and not w.in_type_d:
        raise DParityViolation(f"odd number of sign changes in {w.window}")
    return np.array([w.window], dtype=window_dtype(spec.n))


def _element(spec: GroupSpec, row) -> GroupElement:
    """The element of the group spec held in one row of a block: a window
    (a 1-d array), or in I2 a rank 2 * rot + flip.  The inverse of ``_row``."""
    cls = _element_class(spec.family)
    return cls(spec.n, *divmod(int(row), 2)) if cls is DihedralElement else cls(tuple(row.tolist()))


def multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    """Group product a * b, with b acting first: (a*b)(x) = a(b(x))."""
    if type(a) is not type(b):
        raise SpecMismatch(f"cannot multiply {type(a).__name__} by {type(b).__name__}")
    return a * b


def in_index_domain(n: int, i: int, j: int) -> bool:
    """True iff (i, j) is an admissible off-diagonal index pair: both nonzero
    in [-n, n] with distinct absolute values."""
    return 0 < abs(i) <= n and 0 < abs(j) <= n and abs(i) != abs(j)


def index_pairs(n: int) -> list[tuple[int, int]]:
    """All admissible pairs (i, j), ordered lexicographically."""
    support = [i for i in range(-n, n + 1) if i != 0]
    return [(i, j) for i in support for j in support if abs(i) != abs(j)]


# ---------------------------------------------------------------------------
# Generators.  ``generator_moves`` alone fixes them and their order, so a
# walk's choice index k names the same generator in every route.
# ---------------------------------------------------------------------------


def num_generators(family: Family, n: int, gens: Gens) -> int:
    """len(generator_moves) for the group (family, n), counted without
    listing a move, so that a walk can check its size first."""
    gens = as_member(Gens, gens)
    if _element_class(family) is DihedralElement:
        return 2 if gens == Gens.SIMPLE else n
    if gens == Gens.SIMPLE:
        return n - 1 if family == Family.A or not has_reflections(family, n) else n
    if family == Family.A:
        return n * (n - 1) // 2
    return n * n if family == Family.B else n * (n - 1)


def generator_moves(spec: GroupSpec, gens: Gens):
    """The walk's generators as moves, in their fixed order.

    An A/B/D generator g is a move (a, b, s) on positions 1..n: w * g maps
    the window entries w(a), w(b) to s * w(b), s * w(a).  So (a, b, 1) is a
    transposition, (a, b, -1) the signed pair map a -> -b, b -> -a, and
    (a, a, -1) the sign change at a; the moves are the rows of one read-only
    (count, 3) intp array.  An I2(m) generator is its rotation part:
    range(2) or range(m), so no list of m entries is built.
    """
    f, n = spec.family, spec.n
    count = num_generators(f, n, gens)  # UnsupportedFamily for G or an unknown gens
    if f == Family.I2:  # a rotation part is its index
        return range(count)
    moves, positions = np.empty((count, 3), dtype=np.intp), np.arange(1, n + 1)
    if gens == Gens.SIMPLE:
        # the adjacent transpositions (i, i + 1, 1), after B's (1, 1, -1) or D's (1, 2, -1)
        first = count - (n - 1)
        moves[first:, 0], moves[first:, 1], moves[first:, 2] = positions[:-1], positions[1:], 1
        moves[:first] = (1, 1 if f == Family.B else 2, -1)
    else:
        # each pair a < b in lexicographic order, in B and D as (a, b, 1), (a, b, -1)
        a, b = np.nonzero(positions[:, None] < positions)
        signs = (1,) if f == Family.A else (1, -1)
        pairs = moves[:len(a) * len(signs)].reshape(len(a), len(signs), 3)
        pairs[..., 0], pairs[..., 1], pairs[..., 2] = positions[a, None], positions[b, None], signs
        if f == Family.B:  # then the sign changes (a, a, -1)
            moves[-n:, 0], moves[-n:, 1], moves[-n:, 2] = positions, positions, -1
    moves.flags.writeable = False
    return moves


def _window_moves(spec: GroupSpec, gens: Gens, dtype: np.dtype):
    """The moves (a, b, s) as ``_walk_windows`` reads them: (a - 1, b - 1) as
    one (2, count) array, and s in dtype, or None if every s is 1."""
    moves = generator_moves(spec, gens)
    signs = moves[:, 2].astype(dtype)
    return np.subtract(moves[:, :2].T, 1, order="C"), None if (signs == 1).all() else signs


def _walk_windows(state: np.ndarray, choices: np.ndarray, moves) -> None:
    """Apply generator choices[s, k] at step s to row k of the windows state,
    a C-contiguous (rows, n) array, in place; ValueError for another layout,
    whose flat view would be a copy.  moves is ``_window_moves``' pair of
    positions and signs."""
    if not state.flags.c_contiguous:
        raise ValueError("the walk state must be a C-contiguous array")
    rows, n = state.shape
    positions, signs = moves
    # the flat state indices of entries a and b of every row, per step, as
    # one array filled in place: each large temporary costs page faults
    ia, ib = ab = positions.take(choices, axis=1)
    ab += np.arange(0, rows * n, n)
    flat = state.reshape(-1)
    # both gathers are read before either scatter writes, so a sign change
    # (a, a, -1) writes -w(a) twice
    if signs is None:  # transpositions only: skip the sign product
        for i, j in zip(ia, ib):
            flat[i], flat[j] = flat[j], flat[i]
    else:
        for i, j, sign in zip(ia, ib, signs[choices]):
            flat[i], flat[j] = flat[j] * sign, flat[i] * sign


def _walk_dihedral(rank: np.ndarray, choices: np.ndarray, m: int) -> None:
    """Advance the ranks 2 * rot + flip of I2(m) walks, in place, by the
    reflections choices[s, k] chosen by index, a chunk that starts at an
    even step (so flip 0); by ``generator_moves``, reflection k, simple or
    not, has rotation part k.  Before step s the flip is s mod 2, so step s
    adds (-1)^s times its rotation part."""
    rot = (rank >> 1) + choices[::2].sum(axis=0) - choices[1::2].sum(axis=0)
    rank[:] = 2 * (rot % m) + len(choices) % 2


def walker(spec: GroupSpec, gens: Gens):
    """(identity, advance) of walks on gens: the identity as a one-row block,
    and advance(state, choices), which multiplies row k of a block in place
    by generator choices[s, k] at step s, as ``_walk_windows`` and
    ``_walk_dihedral`` state."""
    if _element_class(spec.family) is DihedralElement:
        return np.zeros(1, dtype=np.int64), partial(_walk_dihedral, m=spec.n)
    identity = np.arange(1, spec.n + 1, dtype=window_dtype(spec.n))[None, :]
    return identity, partial(_walk_windows, moves=_window_moves(spec, gens, identity.dtype))


def _generators(spec: GroupSpec, gens: Gens) -> list[GroupElement]:
    """The elements of the moves: one ``walker`` step on a block of identity
    rows, generator k on row k."""
    identity, advance = walker(spec, gens)
    count = num_generators(spec.family, spec.n, gens)
    state = np.repeat(identity, count, axis=0)
    advance(state, np.arange(count)[None, :])
    return [_element(spec, row) for row in state]


def reflections_of(spec: GroupSpec) -> list[GroupElement]:
    """The full reflection set in a fixed, documented order.

    A on n letters: transpositions (i,j), lexicographic.  B_n: the signed
    pair maps ordered by (|i|, j) with the positive-sign copy first, then the
    sign changes by position.  D_n: the signed pair maps only.  I2(m): the m
    reflections ordered by rotation part.
    """
    return _generators(spec, Gens.REFLECTIONS)


def simple_reflections_of(spec: GroupSpec) -> list[GroupElement]:
    """The standard generating set.

    A: adjacent transpositions.  B: sign change at 1, then adjacents.
    D: the signed map exchanging 1 and 2 with a double sign flip, then
    adjacents (empty for n = 1, where the group is trivial).  I2: the two
    reflections with rotation part 0 and 1.
    """
    return _generators(spec, Gens.SIMPLE)


def enumerate_group(spec: GroupSpec) -> list[GroupElement]:
    """Every group element exactly once, in rank order (identity first).

    Raises OrderLimitExceeded when the group order exceeds the guard.
    """
    return RankedGroup(spec).elements()


# ---------------------------------------------------------------------------
# Integer ranks
# ---------------------------------------------------------------------------


def window_dtype(n: int) -> np.dtype:
    """The smallest signed integer type holding +-2n, so that no sum of two
    entries of an n-entry window wraps: the smallest one holding -2n - 1."""
    return np.min_scalar_type(-2 * n - 1)


def _perm_windows(n: int) -> np.ndarray:
    """All permutations of 1..n as a (n!, n) array in ``window_dtype(n)``,
    in lexicographic order, so that row k has Lehmer rank k."""
    w = np.zeros((1, 0), dtype=window_dtype(n))
    for k in range(1, n + 1):
        # rows starting with v: v, then each (k-1)-permutation shifted past v
        v = np.repeat(np.arange(1, k + 1, dtype=w.dtype), len(w))[:, None]
        rest = np.tile(w, (k, 1))
        rest += rest >= v
        w = np.hstack([v, rest])
    return w


def _perm_rank(cols: np.ndarray) -> np.ndarray:
    """Lehmer rank of every permutation of 1..n held column-wise in the
    (n, N) array cols: position i of permutation k is cols[i, k]."""
    n = len(cols)
    rank = np.zeros(cols.shape[1], dtype=np.int64)
    for i in range(n - 1):
        # Horner form of the sum of digit_i * (n-1-i)!; digit_i counts the
        # later positions holding a smaller value
        rank *= n - i
        rank += (cols[i + 1:] < cols[i]).sum(axis=0, dtype=np.int8)
    return rank


class RankedGroup:
    """A group of family A, B, D or I2 with its elements ranked 0..|W|-1.

    ``windows`` holds every element's window as one ``window_dtype(n)``
    (|W|, n) array in rank order (None for I2), stored column by column and
    built on first read; element objects are built on demand.  ``actions``
    tabulates right multiplication by the generators, once per generating
    set.  ``memo`` maps a statistic to its values by rank: at every rank for
    a ``make_statistic`` statistic, on the supports asked about otherwise.
    OrderLimitExceeded when the group order exceeds the guard; nothing is
    built before the guard runs.  ``ranked_group`` shares one group, with
    its tables and memo, between the walks on its spec.
    """

    def __init__(self, spec: GroupSpec):
        f, n = spec.family, spec.n
        check_work(spec.order(), "group order")
        _element_class(f)  # UnsupportedFamily for G
        self.spec = spec
        self.order = spec.order()
        # sign bits in the rank: all n in B, all but the last in D
        self._bits = {Family.B: n, Family.D: n - 1}.get(f, 0)
        self.memo: dict = {}
        self._actions: dict = {}

    @cached_property
    def windows(self):
        f, n = self.spec.family, self.spec.n
        if f == Family.I2:
            return None
        perms = _perm_windows(n)
        s = np.arange(2**self._bits)[:, None] >> np.arange(n) & 1
        if f == Family.D:
            s[:, n - 1] = s.sum(axis=1) & 1  # parity fixes the last sign
        signs = (1 - 2 * s).astype(perms.dtype)
        full = np.repeat(perms, len(signs), axis=0) * np.tile(signs, (len(perms), 1))
        return np.ascontiguousarray(full.T).T

    def ranks(self, cols: np.ndarray) -> np.ndarray:
        """Rank of every window of this group held column-wise in the (n, N)
        array cols; in I2 cols holds the ranks, and is returned."""
        if self.spec.family == Family.I2:
            return cols
        rank = _perm_rank(np.abs(cols)) << self._bits
        for i in range(self._bits):
            rank += (cols[i] < 0).astype(np.int64) << i
        return rank

    def rank_of(self, w) -> int:
        """Rank of one element; KeyError if w does not belong to the group."""
        try:
            row = _row(self.spec, w)
        except (SpecMismatch, DParityViolation):
            raise KeyError(w) from None
        return int(self.ranks(row.T)[0])

    def element(self, k: int) -> GroupElement:
        """The element of rank k; KeyError unless k is an integer in [0, |W|)."""
        if not 0 <= (k := as_int(k, KeyError, "rank")) < self.order:
            raise KeyError(k)
        return _element(self.spec, k if self.windows is None else self.windows[k])

    def elements(self) -> list[GroupElement]:
        """Every element, in rank order."""
        return [self.element(k) for k in range(self.order)]

    def actions(self, gens: Gens) -> np.ndarray:
        """Right multiplication by the generators of gens, as one read-only
        (n_gens, |W|) array whose row k holds the rank of w * g_k at the rank
        of w (an involution), k in ``generator_moves`` order.  Its dtype is
        intp, numpy's index type, which a gather through it uses without a
        conversion.  Built on the first call for a generating set and kept on
        the group.  A move (a, b, s) maps the window columns as ``walker``
        does; an I2 rotation part r is the reflection rho^r * sigma, a closed
        expression in the rank.

        Only the base moves (k, k+1, 1), (1, 1, -1) and (1, 2, -1) are ranked.
        Any other move is tau * m' * tau for an adjacent transposition tau and
        a move m' one step nearer the base: its row is act_tau[act_m'[act_tau]]."""
        if (out := self._actions.get(gens)) is None:
            out = self._actions[gens] = self._tabulate(generator_moves(self.spec, gens))
            out.flags.writeable = False
        return out

    def _tabulate(self, moves) -> np.ndarray:
        """The table of ``actions`` for the moves of one generating set, built afresh."""
        out = np.empty((len(moves), self.order), dtype=np.intp)
        if self.spec.family == Family.I2:
            # rank 2*rot + flip goes to 2*((rot +- r) % m) + 1 - flip
            m, r = self.spec.n, np.asarray(moves, dtype=np.intp)[:, None]
            pairs, rot = out.reshape(len(moves), m, 2), np.arange(m, dtype=np.intp)
            pairs[:, :, 0] = (rot + r) % m * 2 + 1
            pairs[:, :, 1] = (rot - r) % m * 2
            return out
        # in a generator_moves set every link is a move of the same set:
        # REFLECTIONS is closed under the two rules, and SIMPLE has only base moves
        moves = list(map(tuple, moves.tolist()))
        row, links = {move: k for k, move in enumerate(moves)}, {}
        for a, b, s in moves:
            if a > 1 and (b, s) != (a + 1, 1):
                links[a, b, s] = (a - 1, a, 1), (a - 1, b if b > a else a - 1, s)
            elif a == 1 and b > 2:
                links[a, b, s] = (b - 1, b, 1), (1, b - 1, s)
        base = [move for move in moves if move not in links]
        wt, size, per = self.windows.T, self.order, max(1, _BLOCK // self.order)
        for lo in range(0, len(base), per):
            block = base[lo:lo + per]
            cols = np.tile(wt, len(block))
            for j, (a, b, s) in enumerate(block):
                cols[[b - 1, a - 1], j * size:(j + 1) * size] = wt[[a - 1, b - 1]] * s
            for move, rank in zip(block, self.ranks(cols).reshape(len(block), size)):
                out[row[move]] = rank
            del cols, rank  # freed before the next block is tiled
        # tau is a base move, and m' has a smaller a + b than its move
        for move in sorted(links, key=lambda move: move[0] + move[1]):
            tau, prev = (out[row[link]] for link in links[move])
            out[row[move]] = tau[prev[tau]]
        return out


_shared: RankedGroup | None = None  # the group ranked_group returned last


def ranked_group(spec: GroupSpec) -> RankedGroup:
    """RankedGroup(spec), the one of the previous call when that was on the
    same spec.  A run of walks on one group thus ranks it, builds its action
    tables and fills its ``memo`` once, and the one slot keeps at most one
    group alive between walks.  The order guard runs on every call, before
    the slot is read, so a guard lowered since the group was built refuses it."""
    global _shared
    check_work(spec.order(), "group order")
    group = _shared
    if group is None or group.spec != spec:
        _shared = None  # the old group's tables go before the new ones are built
        group = _shared = RankedGroup(spec)
    return group
