"""Exact rational answers far beyond full enumeration.

The full-distribution engine needs the whole group in memory (n! grows fast).
The pairwise engine instead evolves one integer numerator per ordered index
pair over the common denominator |R|^t, so rank 60 costs a few thousand
integer updates per step and the answers stay exact.  Here we run a rank-60 symmetric group walk for 40 steps, a rank-30
type-B walk, and confirm the closed forms entry by entry.
"""
import time
from coxwalk import (
    Family,
    evolve_pairtable,
    expected_length_A_T,
    expected_length_B_T,
    iterate_pairtables,
    pair_prob_A,
    pair_prob_B,
)

t0 = time.time()
N, T = 60, 40
table = evolve_pairtable(Family.A, N, T)
expected = table.expected_length()
closed = expected_length_A_T(N, T)
assert expected == closed
print(f"symmetric group on {N} letters ({N}! ~ 1e82 elements), t = {T}:")
print(f"  expected inversions = {float(closed):.6f}")
print(f"  exact value has denominator with {len(str(closed.denominator))} digits")
print(f"  [{time.time() - t0:.1f}s]")

print("\nsample pair probabilities at distance 1 and n-1:")
print(f"  adjacent:  {float(pair_prob_A(N, 1, 2, T)):.9f}")
print(f"  extremes:  {float(pair_prob_A(N, 1, N, T)):.9f}")

t0 = time.time()
N_B, T_B = 30, 25
table_b = evolve_pairtable(Family.B, N_B, T_B)
assert table_b.expected_length() == expected_length_B_T(N_B, T_B)
sign_prob = 1 - table_b.entry(-1, 1)
assert sign_prob == pair_prob_B(N_B, -1, 1, T_B)
print(f"\ntype B rank {N_B} (2^{N_B} {N_B}! elements), t = {T_B}:")
print(f"  expected length     = {float(expected_length_B_T(N_B, T_B)):.6f}")
print(f"  P(entry 1 negative) = {float(sign_prob):.9f}")
print(f"  [{time.time() - t0:.1f}s]")

print("\ntranslation invariance, visible in the exact numbers (rank 12, t = 6):")
for table in iterate_pairtables(Family.A, 12, 6):
    pass
by_gap = {}
for (i, j), p in table.entries.items():
    if j > i:
        by_gap.setdefault(j - i, set()).add(p)
for gap in sorted(by_gap)[:4]:
    vals = by_gap[gap]
    assert len(vals) == 1
    print(f"  gap {gap:>2}: all {12 - gap} pairs share P(inversion) = {float(1 - vals.pop()):.9f}")
