"""Seeded, reproducible Monte Carlo estimation of expected walk lengths.

Stream contract.  Trial k of a run with seed s (both in [0, 2^64)) draws its
t generator indices from the Philox4x64-10 stream keyed by (s, k), exactly
as ``np.random.Generator(np.random.Philox(key=[s, k])).integers(0, n, t)``
does for n <= 2^32 generators (``trial_choices``):

* the counter blocks are (1, 0, 0, 0), (2, 0, 0, 0), ... in order, each
  giving four 64-bit words, and each 64-bit word gives two 32-bit words,
  its low half first;
* a draw takes the next 32-bit word x, forms m = x * n and returns m >> 32,
  unless m mod 2^32 < (2^32 - n) mod n, in which case the word is rejected
  and the next one tried (Lemire's bounded draw).  For n = 1 every draw is 0.

Choice index k is generator k of ``elements.generator_moves``, the list
that also orders ``reflections_of`` and ``simple_reflections_of``.

``simulate`` computes these words for a block of trials at once; the rare
trial whose row hits a rejection is redrawn by ``trial_choices``.  It then
applies each move (a, b, s) as a gather and a scatter on a (trials, n)
state array and evaluates the statistic over the block.  The per-trial
values are summed with exactly rounded summation in trial order.
``workers`` only splits the trial range into contiguous blocks, processed
in order, so the result is bit-identical for any number of workers.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import fsum, sqrt

import numpy as np

from .elements import Family, Gens, GroupSpec, Measure, generator_moves
from .errors import (
    InvalidRank,
    InvalidSeed,
    InvalidTrialCount,
    InvalidTrialIndex,
    check_step_count,
)
from .lengths import block_statistic

# Philox4x64-10 multipliers and Weyl key increments (Salmon et al., SC'11)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)
# bound on draws (and on state entries) held per block of trials
_BLOCK_WORDS = 2**15


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 2**64:
        raise InvalidSeed(f"seed must be in [0, 2**64), got {seed}")


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
    Philox stream keyed by (seed, trial).  This is the stream contract's
    reference; a seed outside [0, 2^64) raises InvalidSeed, and a trial
    outside it InvalidTrialIndex."""
    _check_seed(seed)
    if not 0 <= trial < 2**64:
        raise InvalidTrialIndex(f"trial must be in [0, 2**64), got {trial}")
    key = np.array([seed, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).integers(0, n_choices, size=steps)


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit halves of the 128-bit products a * b, built from
    32-bit halves so that no partial sum passes 2^64 (b is uint64, and
    numpy's uint64 products wrap mod 2^64)."""
    a0, a1 = np.uint64(a & 0xFFFFFFFF), np.uint64(a >> 32)
    b0, b1 = b & _LOW32, b >> _32
    mid = a1 * b0
    mid += (a0 * b0) >> _32
    low = mid & _LOW32
    low += a0 * b1
    hi = a1 * b1
    hi += mid >> _32
    hi += low >> _32
    return hi, np.uint64(a) * b


def _philox_words(seed: int, lo: int, hi: int, steps: int) -> np.ndarray:
    """The first ``steps`` 32-bit stream words of every trial lo..hi-1, as a
    uint64 (hi - lo, steps) array."""
    blocks = -(-steps // 8)
    zero = np.zeros((1, 1), dtype=np.uint64)
    c = [np.arange(1, blocks + 1, dtype=np.uint64)[None, :], zero, zero, zero]
    k1 = np.arange(lo, hi, dtype=np.uint64)[:, None]
    for r in range(10):
        if r:
            k1 = k1 + np.uint64(_PHILOX_W[1])
        # the seed half of the key stays a scalar; bump it in Python ints
        k0 = np.uint64((seed + r * _PHILOX_W[0]) % 2**64)
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c[0])
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c[2])
        c = [hi1 ^ c[1] ^ k0, lo1, hi0 ^ c[3] ^ k1, lo0]
    lanes = np.stack(np.broadcast_arrays(*c), axis=-1)
    words = np.stack([lanes & _LOW32, lanes >> _32], axis=-1)
    return words.reshape(hi - lo, 8 * blocks)[:, :steps]


def _draws(seed: int, lo: int, hi: int, n_choices: int, steps: int) -> np.ndarray:
    """``trial_choices(seed, k, n_choices, steps)`` for every trial k in
    lo..hi-1, as one (hi - lo, steps) array."""
    if n_choices > 2**32:
        raise InvalidRank(f"at most 2**32 generators per draw, got {n_choices}")
    m = _philox_words(seed, lo, hi, steps) * np.uint64(n_choices)
    choices = (m >> _32).astype(np.intp)
    threshold = (2**32 - n_choices) % n_choices
    rejected = ((m & _LOW32) < threshold).any(axis=1)
    for row in np.flatnonzero(rejected).tolist():
        choices[row] = trial_choices(seed, lo + row, n_choices, steps)
    return choices


def _blocks(trials: int, workers: int, rows: int):
    """Contiguous (lo, hi) trial ranges of at most ``rows`` trials, in trial
    order, within each worker's share of the trial range."""
    workers = max(workers, 1)
    bounds = [trials * w // workers for w in range(workers + 1)]
    for start, stop in zip(bounds, bounds[1:]):
        for lo in range(start, stop, rows):
            yield lo, min(lo + rows, stop)


def _walk_windows(choices: np.ndarray, moves, n: int) -> np.ndarray:
    """Final windows, (trials, n), of the walks that apply generator
    choices[k, s] at step s of trial k, starting from the identity.  moves
    holds the generators' (a - 1, b - 1, s) as three arrays, from the moves
    (a, b, s) of ``generator_moves``."""
    rows, steps = choices.shape
    a, b, s = moves
    # one contiguous row of flat state indices per step
    by_step = np.ascontiguousarray(choices.T)
    base = np.arange(rows) * n
    ia, ib = a[by_step] + base, b[by_step] + base
    src = np.concatenate([ia, ib], axis=1)
    dst = np.concatenate([ib, ia], axis=1)
    state = np.tile(np.arange(1, n + 1), rows)
    if (s == 1).all():  # transpositions only: skip the sign product
        for step in range(steps):
            state[dst[step]] = state[src[step]]
    else:
        sign = np.tile(s[by_step], 2)
        for step in range(steps):
            state[dst[step]] = state[src[step]] * sign[step]
    return state.reshape(rows, n)


def _walk_dihedral(choices: np.ndarray, m: int) -> np.ndarray:
    """Final ranks 2 * rot + flip of I2(m) walks over reflections chosen by
    index; by ``generator_moves``, reflection k, simple or not, has rotation
    part k.  Before step s the flip is s mod 2, so step s adds (-1)^s times
    its rotation part."""
    rot = (choices[:, ::2].sum(axis=1) - choices[:, 1::2].sum(axis=1)) % m
    return 2 * rot + choices.shape[1] % 2


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
    result for any number of workers.  A seed outside [0, 2^64) raises
    InvalidSeed.
    """
    if trials < 2:
        raise InvalidTrialCount(f"need at least 2 trials, got {trials}")
    check_step_count(t)
    _check_seed(seed)
    n = width = spec.n
    if spec.family == Family.I2 and n >= 2**62:
        raise InvalidRank(f"Monte Carlo ranks I2(m) in int64 and needs m < 2**62, got {n}")
    gen_moves = generator_moves(spec, gens)
    if not gen_moves:
        raise InvalidRank(f"{spec} has no generators to walk on")
    if spec.family == Family.I2:
        width = 1

        def walk(choices):
            return _walk_dihedral(choices, n)
    else:
        a, b, s = np.array(gen_moves, dtype=np.intp).T
        moves = a - 1, b - 1, s

        def walk(choices):
            return _walk_windows(choices, moves, n)

    statistic = block_statistic(spec, measure)
    values: list[float] = []
    for lo, hi in _blocks(trials, workers, max(1, _BLOCK_WORDS // max(t, width))):
        choices = _draws(seed, lo, hi, len(gen_moves), t)
        values += statistic(walk(choices)).astype(float).tolist()

    mean = fsum(values) / trials
    # the values are few distinct integers: square each deviation once
    square = {v: (v - mean) ** 2 for v in set(values)}
    var = fsum(map(square.__getitem__, values)) / (trials - 1)
    stderr = sqrt(var / trials)
    return SimResult(mean, stderr, trials, seed, spec, gens, measure, t)
