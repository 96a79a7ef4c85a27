"""Cross-verification suites tying the closed forms, the exact engines, and
the Monte Carlo estimator to one another.

Every check compares two independent routes to the same quantity and demands
exact rational equality (or the stated float tolerance where one side is
float valued); the A/B/D pair check proves its cells at every t on the pair
engine's own step, ``_pair_step``.  ``coxwalk verify`` prints one line per
check, and the acceptance test module asserts each check.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

import numpy as np

from . import closedform as cf
from .elements import Family, Gens, GroupSpec, Measure, num_generators
from .exactengine import (
    _layout,
    _pair_step,
    apply_Q_A,
    apply_Q_BD,
    expectation,
    iterate_distributions,
    iterate_pairtables,
    make_statistic,
    pair_probability,
)
from .montecarlo import simulate

CheckResult = namedtuple("CheckResult", ["name", "ok", "detail"])

# shared grids (chain = full-distribution engine, pair = pairwise engine)
CHAIN_A_NS = range(2, 7)
CHAIN_A_TMAX = 10
PAIR_NS = (2, 3, 4, 6, 12, 25, 40)
PAIR_TMAX = 30
MARGINAL_TMAX = 8


class _Tally:
    """Counts comparisons and remembers the first failure."""

    def __init__(self):
        self.count = 0
        self.first_bad = None

    def eq(self, lhs, rhs, label):
        self.count += 1
        if lhs != rhs and self.first_bad is None:
            self.first_bad = f"{label}: {lhs} != {rhs}"

    def ok(self, cond, label):
        self.count += 1
        if not cond and self.first_bad is None:
            self.first_bad = label

    def result(self, name: str, unit: str = "equalities") -> CheckResult:
        if self.first_bad is None:
            return CheckResult(name, True, f"{self.count} {unit}")
        return CheckResult(name, False, self.first_bad)


def _chain_agrees(tally: _Tally, spec: GroupSpec, gens: Gens, t_max: int, *cells) -> None:
    """Over one walk, ``closed_form``'s value == the exact chain's expectation
    at every t in 0..t_max, for each (measure, formula) cell: a check of the
    closed form's routing through the cell table as well as of its value."""
    stats = [(measure, formula, make_statistic(spec, measure)) for measure, formula in cells]
    for t, dist in enumerate(iterate_distributions(spec, gens, t_max)):
        for measure, formula, stat in stats:
            tally.eq(cf.closed_form(spec, gens, measure, t, formula).value, expectation(dist, stat),
                     f"{spec} {gens.value}/{measure.value} {formula} t={t}")


def check_type_a_expectation() -> CheckResult:
    """Closed-form expected inversion count == full-distribution engine."""
    tally = _Tally()
    for n in CHAIN_A_NS:
        _chain_agrees(tally, GroupSpec(Family.A, n), Gens.REFLECTIONS, CHAIN_A_TMAX,
                      (Measure.LENGTH, "auto"))
    return tally.result("typeA expectation: closed form == exact chain")


def _basis(family: Family, n: int):
    """Yield ((i, j), v) per inversion cell: v is 1 on (i, j) and (-j, -i), -1 on (j, i) and
    (-i, -j), a basis of the tables with v(j,i) = -v(i,j) and, in B/D, v(-j,-i) = v(i,j)."""
    layout = _layout(family, n)
    lab, size = layout.labels, len(layout.labels)
    for a, b in zip(*np.divmod(layout.inversions, size)):
        v = np.zeros((size, size), dtype=np.int64)
        v[a, b], v[b, a] = 1, -1
        if family != Family.A:  # position -1 - p carries -i where p carries i
            v[-1 - b, -1 - a], v[-1 - a, -1 - b] = 1, -1
        yield (lab[a], lab[b]), v


def _check_pair_theorem(family: Family, chain_ns, pair_ns, closed_pair,
                        name: str) -> CheckResult:
    """The A/B/D pair theorem, one family: pair tables == the full engine's
    marginals (chain_ns, t <= MARGINAL_TMAX; B and D: length == the chain
    too); at each rank of pair_ns, every inversion pair == closed_pair at
    every t, and the length through ``closed_form``'s cell table == the
    tables' sum at t <= PAIR_TMAX.  Every t: ``_pair_step`` is linear in
    (U, den); with L = step(., 0), (1) fixed point: step(domain, 2) ==
    |R| domain, so U_t = den_t/2 domain + L^t(W), W = start - domain/2 =
    half the sum of the ``_basis`` tables; (2) quadratic: (L - |R|b1)(L -
    |R|b2) == 0 on that basis, in int64 (entries < 2^32), with |R|b1, |R|b2
    integers and (b1, b2) = ``_pair_bases``, so every cell is 1/2 + a b1^t
    + b b2^t; (3) three values of t: the closed pair is k + a b1^t + b b2^t,
    and as 1, b1, b2 are distinct, t = 0, 1 and 2 fix a sequence of that
    shape (in B1, b1 = b2, and t = 0, 1, 2 fix k + (a + b t) b1^t too)."""
    tally, f = _Tally(), family.value
    for n in chain_ns:
        spec = GroupSpec(family, n)
        if family != Family.A:
            _chain_agrees(tally, spec, Gens.REFLECTIONS, MARGINAL_TMAX, (Measure.LENGTH, "auto"))
        dists = iterate_distributions(spec, Gens.REFLECTIONS, MARGINAL_TMAX)
        for dist, table in zip(dists, iterate_pairtables(family, n, MARGINAL_TMAX)):
            for (i, j), p in table.entries.items():
                tally.eq(pair_probability(dist, i, j), p,
                         f"{f} marginal n={n} t={table.t} ({i},{j})")
    for n in pair_ns:
        spec, step = GroupSpec(family, n), _pair_step(family, n)[0]
        nrefl = num_generators(family, n, Gens.REFLECTIONS)
        s1, s2 = (nrefl * b for b in cf._pair_bases(family, n))
        tally.ok(s1.denominator == s2.denominator == 1, f"{f} bases n={n} |R|b = {s1}, {s2}")
        domain = _layout(family, n).domain.astype(np.int64)
        tally.ok(np.array_equal(step(domain, 2), nrefl * domain),
                 f"{f} fixed point n={n} step(domain, 2) != {nrefl} domain")
        cells = []
        for (i, j), v in _basis(family, n):
            lv = step(v, 0)
            tally.ok(not (step(lv, 0) - int(s1 + s2) * lv + int(s1 * s2) * v).any(),
                     f"{f} quadratic n={n} ({i},{j})")
            cells.append((i, j))
        closed = {}  # the closed pair depends on (i, j) only through its c
        for table in iterate_pairtables(family, n, PAIR_TMAX):
            t = table.t
            for i, j in cells if t <= 2 else ():
                if (key := (cf._pair_c(family, n, i, j), t)) not in closed:
                    closed[key] = closed_pair(n, i, j, t)
                tally.eq(closed[key], 1 - table.entry(i, j), f"{f} pair n={n} ({i},{j}) t={t}")
            tally.eq(cf.closed_form(spec, Gens.REFLECTIONS, Measure.LENGTH, t).value,
                     table.expected_length(), f"{f} pair-sum n={n} t={t}")
    return tally.result(name)


def check_type_a_pairwise() -> CheckResult:
    return _check_pair_theorem(Family.A, CHAIN_A_NS, PAIR_NS, cf.pair_prob_A,
                               "typeA pairwise: closed == pair engine == marginals")


def check_type_b() -> CheckResult:
    return _check_pair_theorem(Family.B, range(1, 5), (1,) + PAIR_NS, cf.pair_prob_B,
                               "typeB: closed forms == chain == pair engine")


def check_type_d() -> CheckResult:
    return _check_pair_theorem(Family.D, range(2, 5), PAIR_NS, cf.pair_prob_D,
                               "typeD: closed forms == chain == pair engine")


def check_dihedral_closed_forms() -> CheckResult:
    """All four dihedral closed forms == full-distribution engine for
    m in 2..12, t in 0..20."""
    tally = _Tally()
    for m in range(2, 13):
        for gens in (Gens.REFLECTIONS, Gens.SIMPLE):
            _chain_agrees(tally, GroupSpec(Family.I2, m), gens, 20,
                          (Measure.LENGTH, "auto"), (Measure.ABSLENGTH, "auto"))
    return tally.result("dihedral: all four closed forms == exact chain")


def check_known_formula_concordance() -> CheckResult:
    """Binomial expansion == exact chain on the adjacent-transposition walk
    (n_gens 1..5, t 0..30); trigonometric expansion agrees within 1e-9."""
    tally = _Tally()
    for n_gens in range(1, 6):
        _chain_agrees(tally, GroupSpec(Family.A, n_gens + 1), Gens.SIMPLE, 30,
                      (Measure.LENGTH, "eriksen"))
    for n_gens in range(1, 9):
        for t in range(0, 51):
            exact = float(cf.expected_length_A_S_eriksen(n_gens, t))
            approx = cf.expected_length_A_S_bm(n_gens, t)
            tally.ok(
                abs(exact - approx) < 1e-9,
                f"bm n={n_gens} t={t}: |{exact} - {approx}| >= 1e-9",
            )
    return tally.result("known formulas: eriksen == chain, bm == eriksen @1e-9")


def check_eriksen_hultman() -> CheckResult:
    """Colored-group absolute-length formula == exact chains (r = 1 on the
    symmetric groups, r = 2 on the signed permutations), plus the t = 0 and
    t = 1 pins."""
    tally = _Tally()
    for family, ns in ((Family.A, range(2, 6)), (Family.B, range(1, 4))):
        for n in ns:
            _chain_agrees(tally, GroupSpec(family, n), Gens.REFLECTIONS, 8,
                          (Measure.ABSLENGTH, "eh"))
    for r in range(1, 5):
        for n in range(1, 7):
            if r == 1 and n == 1:
                continue
            tally.eq(cf.expected_abslength_G_EH(r, n, 0), Fraction(0), f"EH({r},{n},0)")
            tally.eq(cf.expected_abslength_G_EH(r, n, 1), Fraction(1), f"EH({r},{n},1)")
    return tally.result("eriksen-hultman: formula == chain, E(0)=0, E(1)=1")


def check_operator_identities() -> CheckResult:
    """Q.Q = n.Q (A) and Q.Q = (2n-2).Q (B, D) on ``_basis`` (D's in B/D) at every
    rank in PAIR_NS, so on every antisymmetric (and in B/D doubly symmetric) table."""
    tally = _Tally()
    for n in PAIR_NS:
        for family, apply_q, k in ((Family.A, apply_Q_A, n), (Family.D, apply_Q_BD, 2 * n - 2)):
            for (i, j), v in _basis(family, n):
                qv = apply_q(v)
                tally.ok(np.array_equal(apply_q(qv), k * qv), f"Q^2={k}Q n={n} ({i},{j})")
    return tally.result("operator identities: Q.Q = n.Q and Q.Q = (2n-2).Q")


def check_translation_invariance() -> CheckResult:
    """Engine pair probabilities depend on (i, j) only through j - i."""
    tally = _Tally()
    for n in range(2, 7):
        for table in iterate_pairtables(Family.A, n, 6):
            for gap in range(1, n):
                ref = table.entry(1, 1 + gap)
                for i in range(2, n - gap + 1):
                    tally.eq(
                        table.entry(i, i + gap), ref,
                        f"shift n={n} t={table.t} gap={gap} i={i}",
                    )
    return tally.result("translation invariance of engine pair probabilities")


# Monte Carlo calibration grid: 20 points spanning the four families, both
# generating sets and both measures, every cell backed by a closed form.
MC_GRID = (
    (Family.A, 6, Gens.REFLECTIONS, Measure.LENGTH, 3),
    (Family.A, 10, Gens.REFLECTIONS, Measure.LENGTH, 5),
    (Family.A, 7, Gens.SIMPLE, Measure.LENGTH, 6),
    (Family.A, 5, Gens.SIMPLE, Measure.LENGTH, 9),
    (Family.A, 8, Gens.REFLECTIONS, Measure.ABSLENGTH, 4),
    (Family.A, 12, Gens.REFLECTIONS, Measure.ABSLENGTH, 6),
    (Family.B, 3, Gens.REFLECTIONS, Measure.LENGTH, 2),
    (Family.B, 5, Gens.REFLECTIONS, Measure.LENGTH, 6),
    (Family.B, 4, Gens.REFLECTIONS, Measure.LENGTH, 10),
    (Family.B, 3, Gens.REFLECTIONS, Measure.ABSLENGTH, 3),
    (Family.D, 3, Gens.REFLECTIONS, Measure.LENGTH, 3),
    (Family.D, 4, Gens.REFLECTIONS, Measure.LENGTH, 5),
    (Family.D, 6, Gens.REFLECTIONS, Measure.LENGTH, 8),
    (Family.I2, 5, Gens.REFLECTIONS, Measure.LENGTH, 3),
    (Family.I2, 6, Gens.REFLECTIONS, Measure.LENGTH, 2),
    (Family.I2, 7, Gens.REFLECTIONS, Measure.ABSLENGTH, 4),
    (Family.I2, 6, Gens.SIMPLE, Measure.ABSLENGTH, 6),
    (Family.I2, 4, Gens.SIMPLE, Measure.ABSLENGTH, 4),
    (Family.I2, 5, Gens.SIMPLE, Measure.LENGTH, 7),
    (Family.I2, 9, Gens.SIMPLE, Measure.LENGTH, 12),
)
MC_TRIALS = 10**5
MC_BASE_SEED = 7000


def check_montecarlo_calibration() -> CheckResult:
    """Every grid point within 4 standard errors of its closed form, and
    bit-identical reruns under a different worker count."""
    tally = _Tally()
    for idx, (family, n, gens, measure, t) in enumerate(MC_GRID):
        spec, seed = GroupSpec(family, n), MC_BASE_SEED + idx
        target = float(cf.closed_form(spec, gens, measure, t).value)
        sim = simulate(spec, gens, measure, t, trials=MC_TRIALS, seed=seed)
        tally.ok(
            abs(sim.mean - target) < 4 * sim.stderr,
            f"point {idx} {family.value} n={n} {gens.value}/{measure.value} t={t}: "
            f"|{sim.mean} - {target}| >= 4*{sim.stderr}",
        )
        if idx in (0, 6):  # a rerun over 3 workers is bit-identical
            par = simulate(spec, gens, measure, t, trials=MC_TRIALS, seed=seed, workers=3)
            tally.ok((sim.mean, sim.stderr) == (par.mean, par.stderr),
                     f"point {idx}: parallel rerun differs")
    return tally.result("monte carlo calibration within 4 sigma, reruns identical", "checks")


def check_dihedral_spot_values() -> CheckResult:
    """Pinned dihedral values: m/2 for even m, 2 - 2/m for even t, and 1 for
    odd t under the generator walk."""
    tally = _Tally()
    for m in range(2, 13, 2):
        for t in range(1, 21):
            tally.eq(cf.expected_length_I2_T(m, t), Fraction(m, 2), f"T,len m={m} t={t}")
    for m in range(2, 13):
        for t in range(2, 21, 2):
            tally.eq(cf.expected_abslength_I2_T(m, t), 2 - Fraction(2, m), f"T,abs m={m} t={t}")
        for t in range(1, 21, 2):
            tally.eq(cf.expected_abslength_I2_S(m, t), Fraction(1), f"S,abs m={m} t={t}")
    for t in range(1, 21, 2):
        tally.eq(cf.expected_abslength_I2_S(cf.INFINITE, t), Fraction(1), f"S,abs m=inf t={t}")
    return tally.result("dihedral spot values pinned")


SUITES = {
    "typeA": (check_type_a_expectation, check_type_a_pairwise, check_translation_invariance),
    "typeB": (check_type_b,),
    "typeD": (check_type_d,),
    "dihedral": (check_dihedral_closed_forms, check_dihedral_spot_values),
    "known-formulas": (check_known_formula_concordance, check_eriksen_hultman),
    "operators": (check_operator_identities,),
    "montecarlo": (check_montecarlo_calibration,),
}


def run_suite(name: str) -> list[CheckResult]:
    """Run one named suite, capturing exceptions as failed checks."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    results = []
    for check in SUITES[name]:
        try:
            results.append(check())
        except Exception as exc:  # a crashed check is a failed check
            results.append(CheckResult(check.__name__, False, f"raised {exc!r}"))
    return results
