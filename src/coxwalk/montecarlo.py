"""Seeded, reproducible Monte Carlo estimation of expected walk lengths.

Reproducibility contract: the generator drawn at step s of trial k is a pure
function of (seed, k, s) — each trial owns a counter-based Philox stream
keyed by (seed, trial index).  Aggregation uses exactly rounded summation of
the per-trial values in trial order, so the result is bit-identical for any
split of the trial range across workers.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import fsum, sqrt

import numpy as np

from .elements import (
    DihedralElement,
    Family,
    Gens,
    GroupSpec,
    Measure,
    Permutation,
    SignedPermutation,
    reflection_descriptors,
    simple_reflection_descriptors,
)
from .errors import InvalidRank, InvalidTrialCount, check_step_count
from .exactengine import make_statistic

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SimResult:
    """Sample mean and normal-approximation standard error of the walk
    statistic over independent trials."""

    mean: float
    stderr: float
    trials: int
    seed: int
    spec: GroupSpec
    gens: Gens
    measure: Measure
    t: int


def trial_choices(seed: int, trial: int, n_choices: int, steps: int) -> np.ndarray:
    """The generator indices used by the given trial: steps draws from the
    Philox stream keyed by (seed, trial)."""
    rng = np.random.Generator(np.random.Philox(key=(seed & _MASK64, trial & _MASK64)))
    return rng.integers(0, n_choices, size=steps)


def _moves_and_state(spec: GroupSpec, descriptors):
    """Per-generator in-place state updates plus a fresh-state factory and a
    state -> element converter."""
    n = spec.n
    if spec.family == Family.I2:
        def fresh():
            return [0, 0]

        def convert(st):
            return DihedralElement(n, st[0], st[1])

        moves = []
        for _, rot in descriptors:
            def mv(st, rot=rot, m=n):
                sign = -1 if st[1] else 1
                st[0] = (st[0] + sign * rot) % m
                st[1] ^= 1

            moves.append(mv)
        return moves, fresh, convert

    def fresh():
        return list(range(n + 1))  # 1-based; slot 0 unused

    if spec.family == Family.A:
        def convert(st):
            return Permutation(tuple(st[1:]))
    else:
        def convert(st):
            return SignedPermutation(tuple(st[1:]))

    moves = []
    for desc in descriptors:
        kind = desc[0]
        if kind == "swap":
            _, a, b = desc

            def mv(st, a=a, b=b):
                st[a], st[b] = st[b], st[a]
        elif kind == "sswap":
            _, a, b, s = desc

            def mv(st, a=a, b=b, s=s):
                st[a], st[b] = s * st[b], s * st[a]
        elif kind == "neg":
            a = desc[1]

            def mv(st, a=a):
                st[a] = -st[a]
        else:
            raise ValueError(f"unknown descriptor {desc!r}")
        moves.append(mv)
    return moves, fresh, convert


def simulate(
    spec: GroupSpec,
    gens: Gens,
    measure: Measure,
    t: int,
    trials: int,
    seed: int,
    workers: int = 1,
) -> SimResult:
    """Estimate the expected walk statistic from independent trials.

    Identical (spec, gens, measure, t, trials, seed) give a bit-identical
    result for any number of workers.
    """
    if trials < 2:
        raise InvalidTrialCount(f"need at least 2 trials, got {trials}")
    check_step_count(t)
    descriptors = (
        simple_reflection_descriptors(spec)
        if gens == Gens.SIMPLE
        else reflection_descriptors(spec)
    )
    if not descriptors:
        raise InvalidRank(f"{spec} has no generators to walk on")
    statistic = make_statistic(spec, measure)
    moves, fresh, convert = _moves_and_state(spec, descriptors)
    n_gens = len(descriptors)

    def run_block(lo: int, hi: int) -> list[float]:
        # Per-trial stream keyed by (seed, k), exactly as trial_choices, but
        # rekeying one Philox per block instead of constructing 10^5 of them.
        bg = np.random.Philox(key=(0, 0))
        rng = np.random.Generator(bg)
        vals = []
        for k in range(lo, hi):
            state = fresh()
            if t:
                st = bg.state
                st["state"]["key"][0] = seed & _MASK64
                st["state"]["key"][1] = k & _MASK64
                st["state"]["counter"][:] = 0
                st["buffer_pos"] = 4
                st["has_uint32"] = 0
                st["uinteger"] = 0
                bg.state = st
                for c in rng.integers(0, n_gens, size=t):
                    moves[c](state)
            vals.append(float(statistic(convert(state))))
        return vals

    if workers <= 1:
        values = run_block(0, trials)
    else:
        bounds = [trials * w // workers for w in range(workers + 1)]
        blocks = [(bounds[w], bounds[w + 1]) for w in range(workers)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(lambda b: run_block(*b), blocks))
        values = [v for chunk in chunks for v in chunk]

    mean = fsum(values) / trials
    var = fsum((v - mean) ** 2 for v in values) / (trials - 1)
    stderr = sqrt(var / trials)
    return SimResult(mean, stderr, trials, seed, spec, gens, measure, t)
