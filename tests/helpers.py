"""Independent brute-force oracles for the test suite.

These deliberately avoid the package's engines: expectations are computed by
enumerating every generator tuple, word lengths by a fresh breadth-first
search, Troili's dihedral sum term by term with math.comb, Eriksen's
expansion as its double sum over image-by-image inner coefficients, and
Eriksen and Hultman's character expansion term by term in Fractions, and the
B/D length and absolute length of signed windows by pair counts and by the
cycles of a lift to 2n points, and the A/B/D generator moves and their
elements by a loop of tuples, so that engine bugs cannot mask each other.
"""
import math
from fractions import Fraction
from itertools import product

import numpy as np

from coxwalk import multiply


def generator_moves_by_tuples(family, n, gens):
    """The moves (a, b, s) of the A, B or D group of rank n under gens
    ("simple" or "reflections"), listed one tuple at a time: simple walks
    take the adjacent transpositions (i, i + 1, 1), after (1, 1, -1) in B and
    (1, 2, -1) in D (none in D1); reflection walks take every pair a < b in
    lexicographic order, as (a, b, 1) in A and as (a, b, 1), (a, b, -1) in
    B and D, and then in B the sign changes (a, a, -1)."""
    if gens == "simple":
        adjacent = [(i, i + 1, 1) for i in range(1, n)]
        if family == "A":
            return adjacent
        if family == "B":
            return [(1, 1, -1)] + adjacent
        return [(1, 2, -1)] + adjacent if n >= 2 else []
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    if family == "A":
        return [(a, b, 1) for a, b in pairs]
    moves = [(a, b, s) for a, b in pairs for s in (1, -1)]
    if family == "B":
        moves += [(a, a, -1) for a in range(1, n + 1)]
    return moves


def generators_by_tuples(family, n, gens):
    """The generators of the group (family, n) under gens ("simple" or
    "reflections") as tuples of Python ints: in A, B and D the window of each
    move of ``generator_moves_by_tuples`` applied to the identity window, in
    I2(m) the (rot, flip) of the reflections with rotation part 0, 1
    (simple) or 0..m-1."""
    if family == "I2":
        return [(r, 1) for r in range(2 if gens == "simple" else n)]
    windows = []
    for a, b, s in generator_moves_by_tuples(family, n, gens):
        w = list(range(1, n + 1))
        w[a - 1], w[b - 1] = s * b, s * a
        windows.append(tuple(w))
    return windows


def brute_force_expectation(spec, generators, statistic, t):
    """Average of statistic over all |R|^t ordered generator products."""
    total = Fraction(0)
    count = 0
    for combo in product(generators, repeat=t):
        w = spec.identity()
        for g in combo:
            w = multiply(w, g)
        total += statistic(w)
        count += 1
    return total / count


def brute_force_distribution(spec, generators, t):
    """Exact distribution over all |R|^t ordered generator products."""
    counts = {}
    total = 0
    for combo in product(generators, repeat=t):
        w = spec.identity()
        for g in combo:
            w = multiply(w, g)
        counts[w] = counts.get(w, 0) + 1
        total += 1
    return {w: Fraction(c, total) for w, c in counts.items()}


def bfs_word_length(identity, generators, order=None):
    """Word length of every reachable element over the generators; with the
    group order given, the search stops once every element is reached."""
    dist = {identity: 0}
    frontier = [identity]
    d = 0
    while frontier and len(dist) != order:
        d += 1
        nxt = []
        for w in frontier:
            for g in generators:
                wg = multiply(w, g)
                if wg not in dist:
                    dist[wg] = d
                    nxt.append(wg)
        frontier = nxt
    return dist


def signed_length_by_pairs(w, family):
    """B or D word length of each row of the signed windows w: its
    inversions, plus the pairs i < j with w(i) + w(j) < 0, plus in B its
    negative entries."""
    w = np.asarray(w, dtype=np.int64)
    i, j = np.triu_indices(w.shape[1], 1)
    length = (w[:, i] > w[:, j]).sum(axis=1) + (w[:, i] + w[:, j] < 0).sum(axis=1)
    return length + (w < 0).sum(axis=1) if family == "B" else length


def _cycle_count(p):
    """Cycles of each row of the (k, N) array of permutations of 0..N-1: the
    points least in their orbit, found by N plain steps."""
    rows, least, image = np.arange(len(p))[:, None], np.arange(p.shape[1]), p
    for _ in range(p.shape[1]):
        least = np.minimum(least, image)
        image = p[rows, image]
    return (least == np.arange(p.shape[1])).sum(axis=1)


def signed_abs_length_by_lift(w):
    """Absolute length of each row of the signed windows w: n less its cycles
    with an even number of sign changes.  Such a cycle lifts to two cycles
    of the points +1..+n, -1..-n and an odd one to one, so their count is the
    lift's cycles less those of |w|."""
    w = np.asarray(w, dtype=np.int64)
    n = w.shape[1]
    # point +i is index i - 1 and point -i index n + i - 1
    lift = np.concatenate([np.where(w > 0, w, n - w), np.where(w > 0, n + w, -w)], axis=1) - 1
    return n - (_cycle_count(lift) - _cycle_count(np.abs(w) - 1))


def troili_double_sums(m, t_max):
    """Troili's (2002) expected length after t = 0..t_max generator steps in
    I2(m) (m may be math.inf), summed image by image with one binomial
    each.  Row j's terms carry the denominator 4^j and enter every t whose
    sum reaches row j, so the values are prefix sums over j."""
    comb = math.comb
    rows = range(t_max // 2 + 1)

    def images(r, c):
        """C(r, c) + C(r, c - m) + C(r, c - 2m) + ... over c - km >= 0."""
        return 0 if c < 0 else sum(comb(r, c - k * m) for k in range(c // m + 1))

    odd = m != math.inf and m % 2 == 1
    if m == math.inf:
        main = [comb(2 * j, j) for j in rows]
        boundary = [0] * len(rows)
    else:
        main = [2 * images(2 * j, j) - comb(2 * j, j) for j in rows]
        if odd:
            boundary = [4 * images(2 * j - 1, (2 * j - 1 - m) // 2) if j else 0 for j in rows]
        else:
            boundary = [2 * images(2 * j, j - m // 2) if j else 0 for j in rows]

    def prefix(terms):
        out = [Fraction(0)]
        for j, x in enumerate(terms):
            out.append(out[-1] + Fraction(x, 4**j))
        return out

    main, boundary = prefix(main), prefix(boundary)
    # the main sum and the even-m boundary run to row j = (t-1)//2, the odd-m
    # boundary to j = t//2
    return [
        main[(t - 1) // 2 + 1] - boundary[(t // 2 if odd else (t - 1) // 2) + 1]
        for t in range(t_max + 1)
    ]


def eriksen_g_by_images(s, n):
    """Eriksen's (2005) inner coefficient for n generators and s >= 1, as two
    method-of-images sums with period n + 1 and one binomial per image: the
    odd row 2*ceil(s/2) - 1 shifted by l = 0..n with weight n - 2l, times the
    even row 2*floor(s/2)."""
    a = (s + 1) // 2
    b = s // 2
    first = 0
    for l in range(n + 1):
        k = 0
        while a + l + k * (n + 1) <= 2 * a - 1:
            first += (-1) ** k * (n - 2 * l) * math.comb(2 * a - 1, a + l + k * (n + 1))
            k += 1
    second = 0
    j = 0
    while b + j * (n + 1) <= 2 * b:
        second += (-1 if j % 2 else 1) * math.comb(2 * b, b + j * (n + 1))
        j += 1
    j = -1
    while b + j * (n + 1) >= 0:
        second += (-1 if j % 2 else 1) * math.comb(2 * b, b + j * (n + 1))
        j -= 1
    return first * second


def eriksen_double_sums(n, t_max):
    """Eriksen's (2005) expected inversion count after t = 0..t_max adjacent
    transpositions with n generators, as the literal double sum
    sum_r C(t, r) h(r) / n^r with h(r) = sum_s C(r-1, s-1) (-4)^(r-s) g(s)."""
    g = [None] + [eriksen_g_by_images(s, n) for s in range(1, t_max + 1)]
    h = [None] + [
        sum(math.comb(r - 1, s - 1) * (-4) ** (r - s) * g[s] for s in range(1, r + 1))
        for r in range(1, t_max + 1)
    ]
    return [
        sum((Fraction(math.comb(t, r), n**r) * h[r] for r in range(1, t + 1)), Fraction(0))
        for t in range(t_max + 1)
    ]


def eh_double_sums(r, n, ts):
    """Eriksen and Hultman's (2005) expected absolute length after each t in
    ts uniform reflections of the r-colored permutation group on n letters,
    as the literal double sums of Fraction terms."""
    denom = r * math.comb(n + 1, 2) - n
    head = n - Fraction(sum(Fraction(1, k) for k in range(1, n + 1)), r)
    terms = []  # (coefficient, base), both Fractions
    for p in range(1, n):
        for q in range(1, min(p, n - p) + 1):
            a_pq = (
                (-1) ** (n - p - q + 1)
                * Fraction((p - q + 1) ** 2, (n - q + 1) ** 2 * (n - p))
                * math.comb(n, p)
                * math.comb(n - p - 1, q - 1)
            )
            base = Fraction(
                r * (math.comb(p, 2) + math.comb(q - 1, 2) - math.comb(n - p - q + 2, 2) + n)
                - n,
                denom,
            )
            terms.append((Fraction(a_pq, r), base))
    if r > 1:
        for p in range(n):
            for q in range(1, n - p + 1):
                b_pq = (
                    Fraction((-1) ** (n - p - q + 1), n - p)
                    * math.comb(n, p)
                    * math.comb(n - p - 1, q - 1)
                )
                base = Fraction(
                    r * (math.comb(p, 2) + math.comb(q, 2) - math.comb(n - p - q + 1, 2) + p)
                    - n,
                    denom,
                )
                terms.append((Fraction(r - 1, r) * b_pq, base))
    return [head + sum((a * base**t for a, base in terms), Fraction(0)) for t in ts]
