"""How scrambled is a deck after t random transpositions?

Start from the sorted arrangement of n cards and repeatedly swap two
uniformly chosen cards.  The expected number of inversions has an exact
two-geometric closed form; here we watch it converge to the stationary value
n(n-1)/4 and confirm the closed form three independent ways: by exact
rational chain evolution, by the pairwise engine, and by Monte Carlo.
"""
from fractions import Fraction

from coxwalk import (
    Family,
    Gens,
    GroupSpec,
    Measure,
    evolve_pairtable,
    expectation,
    expected_length_A_T,
    iterate_distributions,
    make_statistic,
    pair_prob_A,
    simulate,
)

N = 6
T_MAX = 12
spec = GroupSpec(Family.A, N)
inversions = make_statistic(spec, Measure.LENGTH)

print(f"deck of {N} cards, uniform random transpositions")
print(f"stationary expectation n(n-1)/4 = {Fraction(N * (N - 1), 4)}\n")

print(f"{'t':>3} {'closed form':>16} {'exact chain':>16} {'mc (1e4 trials)':>16}")
for t, dist in enumerate(iterate_distributions(spec, Gens.REFLECTIONS, T_MAX)):
    closed = expected_length_A_T(N, t)
    chain = expectation(dist, inversions)
    assert closed == chain
    mc = simulate(spec, Gens.REFLECTIONS, Measure.LENGTH, t, trials=10**4, seed=100 + t)
    print(f"{t:>3} {str(closed):>16} {str(chain):>16} {mc.mean:>16.3f}")

print("\nper-pair inversion probabilities after t = 4 swaps (they depend")
print("only on the distance j - i between the positions):")
table = evolve_pairtable(Family.A, N, 4)
for gap in range(1, N):
    closed = pair_prob_A(N, 1, 1 + gap, 4)
    engine = 1 - table.entry(1, 1 + gap)
    assert closed == engine
    print(f"  gap {gap}: {closed}  (= {float(closed):.6f})")
