"""Closed-form evaluators for the expected length of reflection products.

Every rational formula is evaluated with exact big-rational arithmetic; the
only float-valued evaluator is the trigonometric alternative for the
adjacent-transposition walk, which targets 1e-9 absolute accuracy for up to
16 generators and walk lengths up to 1e6.

Convention: 0**0 = 1 throughout, which makes every formula correct at t = 0
and at boundary ranks where a geometric base vanishes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import comb
from typing import Callable, Union

from .elements import (
    Family,
    Gens,
    GroupSpec,
    Measure,
    check_walk_rank,
    has_reflections,
    in_index_domain,
)
from .errors import InvalidPair, UnsupportedFamily, as_int, as_member, check_step_count

Value = Union[Fraction, float]

# m of the infinite dihedral group: expected_length_I2_S_troili and
# expected_abslength_I2_S let it past the rank check, and no group takes it
INFINITE = math.inf


def _sgn(x: int) -> int:
    return (x > 0) - (x < 0)


def _check(t: int, family: Family, n: int) -> tuple[int, int]:
    """A closed form's domain: ``check_step_count``, then ``check_walk_rank``;
    t and n as Python ints, so that no numpy scalar enters a formula."""
    return check_step_count(t), check_walk_rank(family, n)[0]


@dataclass(frozen=True)
class ExpectationResult:
    """A computed expectation with its provenance (gens, measure as members)."""

    value: Value
    group: GroupSpec
    gens: Gens
    measure: Measure
    t: int
    method: str

    @property
    def is_exact(self) -> bool:
        return isinstance(self.value, Fraction)


# ---------------------------------------------------------------------------
# Walks over all reflections, measured by length (types A, B, D): the pair
# theorem's one two-eigenvalue form, half - c b1^t + (c - half) b2^t.  On an
# inversion pair, half = 1/2 and c is the pair's (``_pair_c``, the one check
# of an inversion pair's domain); the expected length sums the form over the N
# inversion pairs, so half = N/2 and c is the sum of their c.
# ---------------------------------------------------------------------------

_HALF = Fraction(1, 2)


def _pair_c(family: Family, n: int, i: int, j: int) -> Fraction:
    """c of the inversion pair (i, j): (j - i)/n in A (1 <= i < j <= n),
    (j - i - 1 + sgn i)/(2n - 2) in B and D (j > |i|), and 1/2 on B's sign
    pairs (-i, i), 1 <= i <= n; InvalidPair for any other (i, j)."""
    i, j = (as_int(x, InvalidPair, "a pair index") for x in (i, j))
    if family == "A":
        if 1 <= i < j <= n:
            return Fraction(j - i, n)
    elif family == "B" and i == -j and 1 <= j <= n:
        return _HALF
    elif i != 0 and abs(i) < j <= n:  # in rank 1, only B's sign pair passes
        return Fraction(j - i - 1 + _sgn(i), 2 * (n - 1))
    raise InvalidPair(f"({i}, {j}) is not an inversion pair of {family.value} with n={n}")


def _pair_form(family: Family, n: int, t: int, pair: tuple | None = None) -> Fraction:
    """The form on pair = (i, j), or else the expected length, after the
    closed forms' domain check.  In B1, b1 = b2 = -1, so the length's c,
    stated for n >= 2, drops out."""
    t, n = _check(t, family, n)
    if pair is not None:
        half, c = _HALF, _pair_c(family, n, *pair)
    elif family == "A":  # n(n-1)/2 pairs; their (j - i)/n sum to (n+1)(n-1)/6
        half, c = Fraction(n * (n - 1), 4), Fraction((n + 1) * (n - 1), 6)
    elif family == "B":  # D's pairs, plus n sign pairs of c = 1/2
        half, c = Fraction(n * n, 2), Fraction(n * (n + 1), 3)
    else:  # n(n-1) pairs j > |i|; their c sum to n(2n-1)/6
        half, c = Fraction(n * (n - 1), 2), Fraction(n * (2 * n - 1), 6)
    b1, b2 = _pair_bases(family, n)
    return half - c * b1**t + (c - half) * b2**t


def _pair_bases(family: Family, n: int) -> tuple[Fraction, Fraction]:
    """The form's two bases (b1, b2) on (family, n), n letters in A."""
    if family == "A":
        return 1 - Fraction(2, n - 1), 1 - Fraction(4, n - 1)
    return 1 - Fraction(2, n), 1 - Fraction(4, n) + (Fraction(2, n * n) if family == "B" else 0)


def expected_length_A_T(n_letters: int, t: int) -> Fraction:
    """Expected inversion count after t uniform transpositions on the
    symmetric group on n_letters letters."""
    return _pair_form(Family.A, n_letters, t)


def pair_prob_A(n_letters: int, i: int, j: int, t: int) -> Fraction:
    """Probability that positions i < j hold an inversion after t uniform
    transpositions.  Depends on (i, j) only through j - i."""
    return _pair_form(Family.A, n_letters, t, (i, j))


def expected_length_B_T(n: int, t: int) -> Fraction:
    """Expected signed-inversion length after t uniform reflections in the
    signed permutation group of rank n."""
    return _pair_form(Family.B, n, t)


def pair_prob_B(n: int, i: int, j: int, t: int) -> Fraction:
    """Probability that w(i) > w(j) after t uniform reflections in rank-n
    signed permutations.

    Accepts either a generic pair with j > |i| (requires n >= 2) or a sign
    pair (-i, i) with 1 <= i <= n.
    """
    return _pair_form(Family.B, n, t, (i, j))


def expected_length_D_T(n: int, t: int) -> Fraction:
    """Expected length after t uniform reflections in the even-signed
    permutation group of rank n >= 2."""
    return _pair_form(Family.D, n, t)


def pair_prob_D(n: int, i: int, j: int, t: int) -> Fraction:
    """Probability that w(i) > w(j), j > |i|, after t uniform reflections in
    rank-n even-signed permutations."""
    return _pair_form(Family.D, n, t, (i, j))


# ---------------------------------------------------------------------------
# Dihedral walks
# ---------------------------------------------------------------------------


def expected_length_I2_T(m: int, t: int) -> Fraction:
    """Expected length after t >= 1 uniform reflections in the dihedral group
    of order 2m: m/2 for even m, and m/2 - (-1)^t/(2m) for odd m.

    t = 0 returns 0 (empty product), an extension beyond the t >= 1 statement.
    """
    t, m = _check(t, Family.I2, m)
    if t == 0:
        return Fraction(0)
    if m % 2 == 0:
        return Fraction(m, 2)
    return Fraction(m, 2) - Fraction((-1) ** t, 2 * m)


def expected_abslength_I2_S(m, t: int) -> Fraction:
    """Expected minimal reflection-word length after t uniform generator
    steps in the dihedral group of order 2m (m may be math.inf).

    1 for odd t; for even t, 2 minus 2^(1-t) times the central section of
    binomial row t sampled with period 2m.
    """
    t, m = (check_step_count(t), m) if m == INFINITE else _check(t, Family.I2, m)
    if t % 2 == 1:
        return Fraction(1)
    if m == INFINITE:
        total = comb(t, t // 2)
    else:
        kmax = t // (2 * m)
        total = sum(comb(t, t // 2 - k * m) for k in range(-kmax, kmax + 1))
    return 2 - total * Fraction(2) ** (1 - t)


def expected_abslength_I2_T(m: int, t: int) -> Fraction:
    """Expected minimal reflection-word length after t >= 1 uniform
    reflections in the dihedral group of order 2m: 1 for odd t, 2 - 2/m for
    even t.  t = 0 returns 0 (empty product)."""
    t, m = _check(t, Family.I2, m)
    if t == 0:
        return Fraction(0)
    if t % 2 == 1:
        return Fraction(1)
    return 2 - Fraction(2, m)


def expected_length_I2_S_troili(m, t: int) -> Fraction:
    """Expected length after t uniform generator steps in the dihedral group
    of order 2m (m may be math.inf), by Troili's (2002) binomial double sum
    read as expected visits of the simple +-1 walk S_r.

    With F_r[c] the sum of C(r, i) over i = c (mod m), the sum's terms are
    4^-j F_2j[j] = P(S_2j in 2mZ), the even-m boundary 4^-j F_2j[j + m/2] =
    P(S_2j in m + 2mZ) and the odd-m boundary 2 4^-j F_(2j-1)[(2j-1-m)/2] =
    P(S_(2j-1) in m + 2mZ), so E = sum_{r<t} E chi(S_r) with chi = +1 on 2mZ,
    -1 on m + 2mZ, 0 elsewhere.  The discrete Tanaka identity
    E|S_t - x| - |x| = sum_{r<t} P(S_r = x) gives E = E h(S_t) with
    h(s) = sum_{|x|<t} chi(x)(|s - x| - |x|): even, and on [0, t] linear
    between images with slope +-1, the distance from s to 2mZ (the length
    on the group's Cayley graph, a 2m-cycle).  Hence
    E = 2^(1-t) sum_{i<t/2} C(t, i) h(t - 2i).  Writing h(s) as s plus
    2 (-1)^k (s - km) past each image 0 < km < s, and telescoping
    sum_{i<=q} C(t, i)(t - 2i) = (q + 1) C(t, q + 1), leaves the partial row
    sums B(q) = sum_{i<=q} C(t, i) at q = (t - km - 1)//2: one scan over
    half of row t, O(t) big-int multiply-adds for every m (none for
    m >= t), and one Fraction at the end.
    """
    t, m = (check_step_count(t), m) if m == INFINITE else _check(t, Family.I2, m)
    num = (t + 1) // 2 * comb(t, (t + 1) // 2)  # h(s) = s, telescoped
    c, below, i = 1, 0, 0  # c = C(t, i), below = B(i - 1)
    # images km < t, outermost first so that the scan runs upwards in i;
    # int() since (t - 1) // inf is the float 0.0
    for k in range(int((t - 1) // m), 0, -1):
        x = k * m
        q = (t - x - 1) // 2  # the last i with t - 2i > x
        for j in range(i, q + 1):
            below += c
            c = c * (t - j) // (j + 1)
        i = q + 1
        kink = 2 * ((q + 1) * c - x * below)  # c = C(t, q + 1), below = B(q)
        num += kink if k % 2 == 0 else -kink
    return Fraction(2 * num, 2**t)


# ---------------------------------------------------------------------------
# Adjacent-transposition walk on the symmetric group
# ---------------------------------------------------------------------------


# entries per Eriksen factor cache: enough that one generator count evaluated
# over t = 0..2047, as `table` does, reuses every factor of the smaller t
# (s = 1..t needs a = 1..ceil(t/2) in the first factor and b = 0..t//2 in
# the second)
_ERIKSEN_CACHE = 1024


@lru_cache(maxsize=_ERIKSEN_CACHE)
def _eriksen_odd(a: int, n: int) -> int:
    """First method-of-images factor of Eriksen's inner coefficient, for n
    generators and a >= 1: one scan of the odd row 2a - 1 from its middle.
    C(2a-1, a+d) enters with sign (-1)^k and weight n - 2l, where
    d = k*p + l, 0 <= l < p and p = n + 1."""
    p = n + 1
    first, c = 0, comb(2 * a - 1, a)
    for d in range(a):
        k, l = divmod(d, p)
        first += (-1 if k % 2 else 1) * (n - 2 * l) * c
        c = c * (a - 1 - d) // (a + d + 1)  # C(2a-1, a+d+1)
    return first


@lru_cache(maxsize=_ERIKSEN_CACHE)
def _eriksen_even(b: int, n: int) -> int:
    """Second factor: the even row 2b summed at the images b + j*p,
    |j| <= b // p, with sign (-1)^j, where p = n + 1."""
    p = n + 1
    return sum(
        (-1 if j % 2 else 1) * comb(2 * b, b + j * p) for j in range(-(b // p), b // p + 1)
    )


def expected_length_A_S_eriksen(n_gens: int, t: int) -> Fraction:
    """Exact expected inversion count after t uniform adjacent transpositions
    on the symmetric group with n_gens generators (n_gens + 1 letters), by
    Eriksen's binomial expansion (2005).

    The expansion is the sum over 1 <= r <= t of C(t, r) h(r) / n^r, where
    h(r) = ((E - 4)^(r-1) g)(1) for the shift E g(s) = g(s + 1) and the inner
    coefficient g(s) = _eriksen_odd(ceil(s/2)) * _eriksen_even(floor(s/2)).
    Over n^t the numerator is (P(E) g)(1) with
    P(E) = ((E + n - 4)^t - n^t) / (E - 4), whose coefficients come from one
    synthetic division: P_{t-1} = A_t and P_{k-1} = A_k + 4 P_k, where
    A_k = C(t, k) (n - 4)^(t - k).  That is t big-integer terms."""
    t, letters = _check(t, Family.A, n_gens + 1)
    n = letters - 1
    num, p, c, power = 0, 0, 1, 1  # p = P_k, c = C(t, k), power = (n - 4)^(t - k)
    for k in range(t, 0, -1):
        p = c * power + 4 * p  # P_{k-1}
        num += p * _eriksen_odd((k + 1) // 2, n) * _eriksen_even(k // 2, n)
        c = c * k // (t - k + 1)
        power *= n - 4
    return Fraction(num, n**t)


def expected_length_A_S_bm(n_gens: int, t: int) -> float:
    """Expected inversion count after t uniform adjacent transpositions, by
    the trigonometric eigenexpansion of Bousquet-Melou (2010).  Float valued;
    agrees with the exact expansion to about 1e-9."""
    t, letters = _check(t, Family.A, n_gens + 1)
    n = letters - 1
    alphas = [(2 * k + 1) * math.pi / (2 * n + 2) for k in range(n + 1)]
    coss = [math.cos(a) for a in alphas]
    sins2 = [math.sin(a) ** 2 for a in alphas]
    terms = []
    for k in range(n + 1):
        for j in range(n + 1):
            if j + k == n:
                continue  # cos(a_j) + cos(a_k) = 0 exactly; in floats the
                # residual coefficient would multiply a base beyond 1
            coeff = (coss[j] + coss[k]) ** 2 / (sins2[j] * sins2[k])
            base = 1.0 - (4.0 / n) * (1.0 - coss[j] * coss[k])
            terms.append(coeff * base**t)
    return n * (n + 1) / 4 - math.fsum(terms) / (8 * (n + 1) ** 2)


# ---------------------------------------------------------------------------
# Reflection walk on r-colored permutations, measured by absolute length
# ---------------------------------------------------------------------------


def expected_abslength_G_EH(r: int, n: int, t: int) -> Fraction:
    """Expected minimal reflection-word length after t uniform reflections in
    the r-colored permutation group on n letters, by the character expansion
    of Eriksen and Hultman (2005).  r = 1 is the symmetric group on n
    letters; r = 2 the signed permutations of rank n.

    Every term, the harmonic head n - H_n / r included, is (c / d) (N / denom)^t
    with small integers c, d and N; over L denom^t, with L = lcm(d), the sum is
    one integer, sum c (L / d) N^t, and one Fraction is formed at the end."""
    t, (n, r) = check_step_count(t), check_walk_rank(Family.G, n, r)
    denom = r * comb(n + 1, 2) - n
    terms = [(n, 1, denom)] + [(-1, r * k, denom) for k in range(1, n + 1)]  # (c, d, N)
    for p in range(1, n):
        for q in range(1, min(p, n - p) + 1):
            c = (-1) ** (n - p - q + 1) * (p - q + 1) ** 2 * comb(n, p) * comb(n - p - 1, q - 1)
            base = r * (comb(p, 2) + comb(q - 1, 2) - comb(n - p - q + 2, 2) + n) - n
            terms.append((c, r * (n - q + 1) ** 2 * (n - p), base))
    if r > 1:
        for p in range(n):
            for q in range(1, n - p + 1):
                c = (r - 1) * (-1) ** (n - p - q + 1) * comb(n, p) * comb(n - p - 1, q - 1)
                base = r * (comb(p, 2) + comb(q, 2) - comb(n - p - q + 1, 2) + p) - n
                terms.append((c, r * (n - p), base))
    lcm = math.lcm(*(d for _, d, _ in terms))
    return Fraction(sum(c * (lcm // d) * base**t for c, d, base in terms), lcm * denom**t)


# ---------------------------------------------------------------------------
# The shared B/D pairwise closed form
# ---------------------------------------------------------------------------


def lemma_bd_v(n: int, x, t: int, i: int, j: int) -> Fraction:
    """Closed form for the signed-pair recurrence v' = (Q + x I) v started
    from v(i,j) = sign(j - i): a two-eigenvalue combination of (2n - 2 + x)^t
    and x^t.  Its rank rule is D's, n >= 2, for B as well."""
    t, n = _check(t, Family.D, n)
    i, j = (as_int(x, InvalidPair, "a pair index") for x in (i, j))
    if not in_index_domain(n, i, j):
        raise InvalidPair(f"({i}, {j}) is not an admissible pair for n={n}")
    x = Fraction(x)
    slope = Fraction(j - i - _sgn(j) + _sgn(i), n - 1)
    return slope * (2 * n - 2 + x) ** t + (_sgn(j - i) - slope) * x**t


# ---------------------------------------------------------------------------
# Dispatch: which closed form covers a (group, generators, measure) cell
# ---------------------------------------------------------------------------

# method tags of the direct theorems, as opposed to the previously published
# formulas they are checked against
DIRECT_METHODS = (
    "A_T_length",
    "B_T_length",
    "D_T_length",
    "I2_T_length",
    "I2_S_abslength",
    "I2_T_abslength",
)

# the values of formula_for's ``formula``
FORMULAS = ("auto", "eriksen", "bm", "troili", "eh", "paper")


_L, _ABS, _R, _S = Measure.LENGTH, Measure.ABSLENGTH, Gens.REFLECTIONS, Gens.SIMPLE

# (family, gens, measure) -> the cell's closed forms as (method tag,
# (spec, t) -> value), the exact variant first
_CELLS: dict[tuple, tuple[tuple[str, Callable[[GroupSpec, int], Value]], ...]] = {
    (Family.A, _R, _L): (("A_T_length", lambda s, t: expected_length_A_T(s.n, t)),),
    (Family.B, _R, _L): (("B_T_length", lambda s, t: expected_length_B_T(s.n, t)),),
    (Family.D, _R, _L): (("D_T_length", lambda s, t: expected_length_D_T(s.n, t)),),
    (Family.I2, _R, _L): (("I2_T_length", lambda s, t: expected_length_I2_T(s.n, t)),),
    (Family.A, _S, _L): (
        ("eriksen", lambda s, t: expected_length_A_S_eriksen(s.n - 1, t)),
        ("bm", lambda s, t: expected_length_A_S_bm(s.n - 1, t)),
    ),
    (Family.I2, _S, _L): (("troili", lambda s, t: expected_length_I2_S_troili(s.n, t)),),
    (Family.I2, _R, _ABS): (("I2_T_abslength", lambda s, t: expected_abslength_I2_T(s.n, t)),),
    (Family.G, _R, _ABS): (("eh", lambda s, t: expected_abslength_G_EH(s.r, s.n, t)),),
    (Family.A, _R, _ABS): (("eh", lambda s, t: expected_abslength_G_EH(1, s.n, t)),),
    (Family.B, _R, _ABS): (("eh", lambda s, t: expected_abslength_G_EH(2, s.n, t)),),
    (Family.I2, _S, _ABS): (("I2_S_abslength", lambda s, t: expected_abslength_I2_S(s.n, t)),),
}


def formula_for(
    spec: GroupSpec, gens: Gens, measure: Measure, formula: str = "auto"
) -> tuple[str, Callable[[int], Value]] | None:
    """The closed form covering this cell, as (method tag, t -> value), or
    None when the cell has no closed form (D1, which has no reflections,
    has none).

    ``formula`` narrows the choice: "auto" picks the exact variant, "paper"
    restricts to the direct theorems, and "eriksen", "bm", "troili", "eh"
    force a specific published formula; any other name, or a gens or
    measure naming no member, is UnsupportedFamily."""
    gens, measure = as_member(Gens, gens), as_member(Measure, measure)
    if formula not in FORMULAS:
        raise UnsupportedFamily(
            f"no closed form for family={spec.family.value} is named {formula!r}; "
            f"choose from {', '.join(FORMULAS)}"
        )
    if not has_reflections(spec.family, spec.n):
        return None
    for tag, fn in _CELLS.get((spec.family, gens, measure), ()):
        if formula in ("auto", tag) or (formula == "paper" and tag in DIRECT_METHODS):
            return tag, partial(fn, spec)
    return None


def closed_form(
    spec: GroupSpec, gens: Gens, measure: Measure, t: int, formula: str = "auto"
) -> ExpectationResult:
    """Evaluate the closed form for this cell, raising UnsupportedFamily when
    the cell has none or formula names no formula of the cell."""
    t = check_step_count(t)
    gens, measure = as_member(Gens, gens), as_member(Measure, measure)
    found = formula_for(spec, gens, measure, formula)
    if found is None:
        raise UnsupportedFamily(
            f"no closed form for family={spec.family.value}, gens={gens.value}, "
            f"measure={measure.value} (formula={formula!r})"
        )
    tag, fn = found
    return ExpectationResult(fn(t), spec, gens, measure, t, tag)
