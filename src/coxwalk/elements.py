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
rest conjugated from them) and the exact full engine work on these ranks;
element objects are built from a rank on demand.
``ranked_group`` keeps the last ranked group for the next walk on its spec.

``generator_moves`` is the one list of a walk's generators: integer moves
(a, b, s) on window positions in A/B/D and rotation parts in I2.  The element
lists ``reflections_of`` / ``simple_reflections_of``, Monte Carlo's moves and
the full engine's action tables (``RankedGroup.actions``) all read it, and
``num_generators`` counts it without listing it.

Composition convention: (a * b)(x) = a(b(x)), i.e. b acts first.  All walk
statistics in this package are invariant under the opposite convention at the
distribution level, but every element-level test assumes this one.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
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
        return int(raw)
    except ValueError:
        raise InvalidGuardLimit(
            f"{GUARD_ENV_VAR} must be a decimal integer, got {raw!r}"
        ) from None


def check_work(work: int, what: str) -> None:
    """Raise OrderLimitExceeded when work, the estimate named what, exceeds the
    guard.  An estimate past _SHOWN_BITS bits is shown by its bit length."""
    cap = guard_limit()
    if work > cap:
        bits = work.bit_length()
        shown = work if bits <= _SHOWN_BITS else f"of {bits} bits"
        raise OrderLimitExceeded(f"{what} {shown} exceeds guard {cap}")


class Family(str, Enum):
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
        f, n = self.family, self.n
        if f == Family.A:
            return Permutation(tuple(range(1, n + 1)))
        if f in (Family.B, Family.D):
            return SignedPermutation(tuple(range(1, n + 1)))
        if f == Family.I2:
            return DihedralElement(n, 0, 0)
        raise UnsupportedFamily("no element model for family G")

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


def multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    """Group product a * b, with b acting first: (a*b)(x) = a(b(x))."""
    if type(a) is not type(b):
        raise SpecMismatch(f"cannot multiply {type(a).__name__} by {type(b).__name__}")
    return a * b


def in_index_domain(n: int, i: int, j: int) -> bool:
    """True iff (i, j) is an admissible off-diagonal index pair: both nonzero
    in [-n, n] with distinct absolute values."""
    return (
        i != 0
        and j != 0
        and -n <= i <= n
        and -n <= j <= n
        and abs(i) != abs(j)
    )


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
    if family == Family.I2:
        return 2 if gens == Gens.SIMPLE else n
    if family == Family.G:
        raise UnsupportedFamily(
            "no element-level generators for family G; use the A/B model for r in {1, 2}"
        )
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
    (a, a, -1) the sign change at a.  An I2(m) generator is its rotation
    part: range(2) or range(m), so no list of m entries is built.
    """
    f, n = spec.family, spec.n
    count = num_generators(f, n, gens)  # UnsupportedFamily for G or an unknown gens
    if f == Family.I2:  # a rotation part is its index
        return range(count)
    if gens == Gens.SIMPLE:
        adjacent = [(i, i + 1, 1) for i in range(1, n)]
        if f == Family.A:
            return adjacent
        if f == Family.B:
            return [(1, 1, -1)] + adjacent
        return [(1, 2, -1)] + adjacent if has_reflections(f, n) else []
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    if f == Family.A:
        return [(a, b, 1) for a, b in pairs]
    moves = [(a, b, s) for a, b in pairs for s in (1, -1)]
    if f == Family.B:
        moves += [(a, a, -1) for a in range(1, n + 1)]
    return moves


def _generator(spec: GroupSpec, move) -> GroupElement:
    """The element of one move: the identity's window moved, or the I2
    reflection with the given rotation part."""
    if spec.family == Family.I2:
        return DihedralElement(spec.n, move, 1)
    a, b, s = move
    w = list(range(1, spec.n + 1))
    w[a - 1], w[b - 1] = s * b, s * a
    return (Permutation if spec.family == Family.A else SignedPermutation)(tuple(w))


def reflections_of(spec: GroupSpec) -> list[GroupElement]:
    """The full reflection set in a fixed, documented order.

    A on n letters: transpositions (i,j), lexicographic.  B_n: the signed
    pair maps ordered by (|i|, j) with the positive-sign copy first, then the
    sign changes by position.  D_n: the signed pair maps only.  I2(m): the m
    reflections ordered by rotation part.
    """
    return [_generator(spec, g) for g in generator_moves(spec, Gens.REFLECTIONS)]


def simple_reflections_of(spec: GroupSpec) -> list[GroupElement]:
    """The standard generating set.

    A: adjacent transpositions.  B: sign change at 1, then adjacents.
    D: the signed map exchanging 1 and 2 with a double sign flip, then
    adjacents (empty for n = 1, where the group is trivial).  I2: the two
    reflections with rotation part 0 and 1.
    """
    return [_generator(spec, g) for g in generator_moves(spec, Gens.SIMPLE)]


def enumerate_group(spec: GroupSpec) -> list[GroupElement]:
    """Every group element exactly once, in rank order (identity first).

    Raises OrderLimitExceeded when the group order exceeds the guard.
    """
    return RankedGroup(spec).elements()


def _check_member(spec: GroupSpec, w) -> None:
    """Raise SpecMismatch unless w is an element of the A, B, D or I2 group
    spec, and DParityViolation for a signed window with an odd number of sign
    changes under D.  The one membership test of ranks and statistics."""
    f = spec.family
    cls = {Family.A: Permutation, Family.I2: DihedralElement}.get(f, SignedPermutation)
    if type(w) is not cls or (w.m if f == Family.I2 else w.n) != spec.n:
        raise SpecMismatch(f"{w} is not an element of {spec}")
    if f == Family.D and not w.in_type_d:
        raise DParityViolation(f"odd number of sign changes in {w.window}")


# ---------------------------------------------------------------------------
# Integer ranks
# ---------------------------------------------------------------------------


def _perm_windows(n: int) -> np.ndarray:
    """All permutations of 1..n as an int8 (n!, n) array in lexicographic
    order, so that row k has Lehmer rank k."""
    w = np.zeros((1, 0), dtype=np.int8)
    for k in range(1, n + 1):
        # rows starting with v: v, then each (k-1)-permutation shifted past v
        v = np.repeat(np.arange(1, k + 1, dtype=np.int8), len(w))[:, None]
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

    ``windows`` holds every element's window as one int8 (|W|, n) array in
    rank order (None for I2), stored column by column and built on first
    read; element objects are built on demand.  ``actions`` tabulates right
    multiplication by the generators, once per generating set.
    ``memo`` maps a statistic to its values by rank: at every rank for a
    ``make_statistic`` statistic, on the supports asked about otherwise.
    OrderLimitExceeded when the group order exceeds the guard; nothing is
    built before the guard runs.  ``ranked_group`` shares one group, with
    its tables and memo, between the walks on its spec.
    """

    def __init__(self, spec: GroupSpec):
        f, n = spec.family, spec.n
        check_work(spec.order(), "group order")
        if f == Family.G:
            raise UnsupportedFamily("no element model for family G")
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
        signs = (1 - 2 * s).astype(np.int8)
        full = np.repeat(perms, len(signs), axis=0) * np.tile(signs, (len(perms), 1))
        return np.ascontiguousarray(full.T).T

    def ranks(self, cols: np.ndarray) -> np.ndarray:
        """Rank of every window of this group held column-wise in the (n, N)
        array cols."""
        rank = _perm_rank(np.abs(cols)) << self._bits
        for i in range(self._bits):
            rank += (cols[i] < 0).astype(np.int64) << i
        return rank

    def rank_of(self, w) -> int:
        """Rank of one element; KeyError if w does not belong to the group."""
        try:
            _check_member(self.spec, w)
        except (SpecMismatch, DParityViolation):
            raise KeyError(w) from None
        if self.spec.family == Family.I2:
            return 2 * w.rot + w.flip
        return int(self.ranks(np.array(w.window, dtype=np.int8)[:, None])[0])

    def element(self, k: int) -> GroupElement:
        """The element of rank k; KeyError unless k is an integer in [0, |W|)."""
        if not 0 <= (k := as_int(k, KeyError, "rank")) < self.order:
            raise KeyError(k)
        f = self.spec.family
        if f == Family.I2:
            return DihedralElement(self.spec.n, k >> 1, k & 1)
        cls = Permutation if f == Family.A else SignedPermutation
        return cls(tuple(self.windows[k].tolist()))

    def elements(self) -> list[GroupElement]:
        """Every element, in rank order."""
        return [self.element(k) for k in range(self.order)]

    def actions(self, gens: Gens) -> np.ndarray:
        """Right multiplication by the generators of gens, as one read-only
        (n_gens, |W|) array whose row k holds the rank of w * g_k at the rank
        of w (an involution), k in ``generator_moves`` order.  Its dtype is
        intp, numpy's index type, which a gather through it uses without a
        conversion.  Built on the first call for a generating set and kept on
        the group.  A move (a, b, s) maps the window columns as Monte Carlo
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
