"""How many reflections does it take to undo a random reflection product?

Measure a walk not by inversions but by the minimal number of reflections
whose product equals the current element (in the symmetric group: n minus
the number of cycles).  The colored-permutation formula covers the symmetric
groups (r = 1), the signed permutations (r = 2), and every r beyond, where no
element model is needed at all -- the formula is a finite rational sum.
"""
from fractions import Fraction

from coxwalk import (
    Family,
    Gens,
    GroupSpec,
    Measure,
    evolve_distribution,
    expectation,
    expected_abslength_G_EH,
    make_statistic,
)

print("symmetric group on 5 letters (r = 1): formula vs exact chain")
spec = GroupSpec(Family.A, 5)
stat = make_statistic(spec, Measure.ABSLENGTH)
for t in range(0, 7):
    formula = expected_abslength_G_EH(1, 5, t)
    chain = expectation(evolve_distribution(spec, Gens.REFLECTIONS, t), stat)
    assert formula == chain
    print(f"  t={t}: {str(formula):>12} = {float(formula):.6f}")

print("\nsigned permutations of rank 3 (r = 2): formula vs exact chain (cycle count)")
spec_b = GroupSpec(Family.B, 3)
stat_b = make_statistic(spec_b, Measure.ABSLENGTH)
for t in range(0, 7):
    formula = expected_abslength_G_EH(2, 3, t)
    chain = expectation(evolve_distribution(spec_b, Gens.REFLECTIONS, t), stat_b)
    assert formula == chain
    print(f"  t={t}: {str(formula):>12} = {float(formula):.6f}")

print("\nhigher color counts need no element model; the stationary value is")
print("n minus a 1/r fraction of the harmonic number:")
n = 6
harmonic = sum(Fraction(1, k) for k in range(1, n + 1))
for r in (1, 2, 3, 5, 10):
    stationary = n - harmonic / r
    at_40 = expected_abslength_G_EH(r, n, 40)
    print(f"  r={r:>2}: E(40) = {float(at_40):.9f}, n - H_n/r = {float(stationary):.9f}")
