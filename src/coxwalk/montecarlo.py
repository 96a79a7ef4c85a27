"""Seeded, reproducible Monte Carlo estimation of expected walk lengths.

Stream contract.  Trial k of a run with seed s (both integers, Python or
numpy, in [0, 2^64); any other value is refused) draws its t generator
indices from the Philox4x64-10 stream keyed by (s, k), exactly
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

``simulate`` walks the trials in blocks: contiguous trial ranges of up to
_BLOCK_WORDS / 8 = 8192 trials, fewer where trials times n would pass
_BLOCK_STATE, each carrying its states (a (trials, n) window array, or the
ranks 2 * rot + flip in I2) through the whole walk.  A block advances one chunk
of steps at a time: a multiple of 8 steps, so a whole number of counter
blocks per trial, with at most _BLOCK_WORDS words over the block.  A chunk
computes its words for every trial of the block at once, maps them to
choices and the choices to the flat state indices of entries a and b of
every row; a step then applies its moves (a, b, s) as two gathers and two
scatters on the state array.  A trial that hits a rejection in any chunk
took its later choices from the wrong words; after its block it is walked
again from ``trial_choices``.  The statistic is evaluated over each block, and
the values of all trials are counted per distinct value; the mean and
variance are exact sums over those counts rounded once, as exactly rounded
sums over the trials are.
``workers`` only splits the trial range into contiguous shares, processed
in order, so the result is bit-identical for any number of workers.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import sqrt
from operator import mul

import numpy as np

from .elements import (
    Family,
    Gens,
    GroupSpec,
    Measure,
    check_walk_rank,
    generator_moves,
    num_generators,
)
from .errors import (
    InvalidRank,
    InvalidSeed,
    InvalidTrialCount,
    InvalidTrialIndex,
    as_int,
    as_member,
    check_step_count,
)
from .lengths import block_statistic

# Philox4x64-10 multipliers and Weyl key increments (Salmon et al., SC'11)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)
# the low halves, the high halves and the whole multipliers of the lanes
# (c0, c2), each as a (2, 1, 1) array
_MULTIPLIERS = np.array(_PHILOX_M, dtype=np.uint64).reshape(2, 1, 1)
_M = (_MULTIPLIERS & _LOW32, _MULTIPLIERS >> _32, _MULTIPLIERS)
_W1 = np.uint64(_PHILOX_W[1])
# bound on stream words drawn per chunk (rows times steps)
_BLOCK_WORDS = 2**16
# bound on state entries per block (rows times n)
_BLOCK_STATE = 2**17


def _key(value, error, what: str) -> int:
    """A seed or trial index as a Python int in [0, 2^64), the key range of
    the streams, else error naming what."""
    if not 0 <= (key := as_int(value, error, what)) < 2**64:
        raise error(f"{what} must be in [0, 2**64), got {value}")
    return key


@dataclass(frozen=True)
class SimResult:
    """Sample mean and normal-approximation standard error of the walk
    statistic over independent trials (gens, measure as members)."""

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
    reference.  Each argument is an integer: a seed outside [0, 2^64) raises
    InvalidSeed, a trial outside it InvalidTrialIndex, an n_choices below 1
    InvalidRank and steps below 0 InvalidStepCount."""
    key = np.array([_key(seed, InvalidSeed, "seed"), _key(trial, InvalidTrialIndex, "trial")],
                   dtype=np.uint64)
    if (n_choices := as_int(n_choices, InvalidRank, "n_choices")) < 1:
        raise InvalidRank(f"n_choices must be >= 1, got {n_choices}")
    steps = check_step_count(steps)
    return np.random.Generator(np.random.Philox(key=key)).integers(0, n_choices, size=steps)


def _mulhi(x: np.ndarray, a0: np.ndarray, a1: np.ndarray, out: np.ndarray,
           tmp: list[np.ndarray]) -> None:
    """out = the high 64 bits of the 128-bit products a * x, built from the
    32-bit halves a0, a1 of the multipliers a and those of x so that no
    partial sum passes 2^64 (numpy's uint64 products wrap mod 2^64).  tmp
    holds three scratch arrays of x's shape."""
    lo, hi, mid = tmp
    np.bitwise_and(x, _LOW32, out=lo)
    np.right_shift(x, _32, out=hi)
    np.multiply(lo, a1, out=mid)
    lo *= a0
    lo >>= _32
    mid += lo
    np.multiply(hi, a1, out=out)
    hi *= a0
    np.bitwise_and(mid, _LOW32, out=lo)
    lo += hi
    mid >>= _32
    out += mid
    lo >>= _32
    out += lo


def _philox_words(seed: int, lo: int, hi: int, first_block: int, blocks: int) -> np.ndarray:
    """The 32-bit stream words of every trial lo..hi-1 from counter blocks
    first_block + 1 .. first_block + blocks, by step: word 8 * (first_block
    + b) + 2 * lane + half of trial lo + r is at [b, lane, half, r].

    The lanes (c0, c2), which a round multiplies, are one (2, blocks, rows)
    array x and (c1, c3) another, y, so a round is a few passes over each.
    Every operand of a pass has the pass's full shape: numpy runs that as
    one flat loop, about twice as fast as a broadcast operand.  Round 0 runs
    on the broadcast counter and the others in place, in buffers allocated
    once per call.  The four lanes are written to one '<u8' array, whose
    '<u4' view holds each lane's low half first on any host byte order."""
    rows = hi - lo
    shape = (2, blocks, rows)
    counter = np.zeros((2, blocks, 1), dtype=np.uint64)
    counter[0, :, 0] = np.arange(first_block + 1, first_block + blocks + 1, dtype=np.uint64)
    h, tmp = np.empty_like(counter), [np.empty_like(counter) for _ in range(3)]
    _mulhi(counter, _M[0], _M[1], h, tmp)
    # the key is (seed, trial): k0 one scalar, k1 one value per row
    k0, k1 = seed, np.empty((blocks, rows), dtype=np.uint64)
    k1[:] = np.arange(lo, hi, dtype=np.uint64)
    # a round maps (c0, c1, c2, c3) to (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0)
    x, y = np.empty(shape, dtype=np.uint64), np.empty(shape, dtype=np.uint64)
    np.bitwise_xor(h[1], np.uint64(k0), out=x[0])
    np.bitwise_xor(h[0], k1, out=x[1])
    np.multiply(counter, _M[2], out=y[::-1])  # (lo0, lo1) reversed
    multipliers = [np.empty(shape, dtype=np.uint64) for _ in _M]
    for full, constant in zip(multipliers, _M):
        full[:] = constant
    h, tmp = np.empty(shape, dtype=np.uint64), [np.empty(shape, dtype=np.uint64) for _ in range(3)]
    for _ in range(9):
        k0 = (k0 + _PHILOX_W[0]) % 2**64
        k1 += _W1
        _mulhi(x, multipliers[0], multipliers[1], h, tmp)
        x *= multipliers[2]
        y[0] ^= h[1]
        y[0] ^= np.uint64(k0)
        y[1] ^= h[0]
        y[1] ^= k1
        # y now holds the new (c0, c2); x holds (lo0, lo1), which reversed
        # (a view, not a copy) is the new (c1, c3)
        x, y = y, x[::-1]
    lanes = np.empty((blocks, 4, rows), dtype="<u8")
    np.stack([x[0], y[0], x[1], y[1]], axis=1, out=lanes)
    return lanes.view("<u4").reshape(blocks, 4, rows, 2).transpose(0, 1, 3, 2)


def _draws(seed: int, lo: int, hi: int, n_choices: int, first_step: int, steps: int):
    """Choices of steps first_step .. first_step + steps - 1 (first_step a
    multiple of 8) of every trial lo..hi-1, as a (steps, hi - lo) array by
    step, and a flag per trial for a rejected word among them.  A trial's
    choices equal ``trial_choices``' while no word up to there was
    rejected; after a rejection they are still in range(n_choices)."""
    words = _philox_words(seed, lo, hi, first_step // 8, -(-steps // 8))
    m = np.multiply(words, np.uint64(n_choices), order="C").reshape(-1, hi - lo)[:steps]
    rejected = ((m & _LOW32) < (2**32 - n_choices) % n_choices).any(axis=0)
    m >>= _32
    return m.view(np.int64), rejected


def _blocks(trials: int, workers: int, rows: int):
    """Contiguous (lo, hi) trial ranges of at most ``rows`` trials, as even
    as possible, in trial order, within each worker's share of the trial
    range; at most one share per trial, as any more would be empty."""
    workers = min(max(workers, 1), trials)
    bounds = [trials * w // workers for w in range(workers + 1)]
    for start, stop in zip(bounds, bounds[1:]):
        count = -(-(stop - start) // rows)
        for i in range(count):
            yield (start + (stop - start) * i // count,
                   start + (stop - start) * (i + 1) // count)


def _walk_windows(state: np.ndarray, choices: np.ndarray, moves) -> None:
    """Apply generator choices[s, k] at step s to row k of the windows state,
    a C-contiguous (rows, n) array, in place.  moves holds the generators'
    (a - 1, b - 1, s) as three arrays, from the moves (a, b, s) of
    ``generator_moves``."""
    rows, n = state.shape
    a, b, s = moves
    # the flat state indices of entries a and b of every row, per step, as
    # one array filled in place: each large temporary costs page faults
    ia, ib = ab = np.stack((a, b)).take(choices, axis=1)
    ab += np.arange(0, rows * n, n)
    flat = state.reshape(-1)
    # both gathers are read before either scatter writes, so a sign change
    # (a, a, -1) writes -w(a) twice
    if (s == 1).all():  # transpositions only: skip the sign product
        for i, j in zip(ia, ib):
            flat[i], flat[j] = flat[j], flat[i]
    else:
        for i, j, sign in zip(ia, ib, s[choices]):
            flat[i], flat[j] = flat[j] * sign, flat[i] * sign


def _walk_dihedral(rank: np.ndarray, choices: np.ndarray, m: int) -> None:
    """Advance the ranks 2 * rot + flip of I2(m) walks, in place, by the
    reflections choices[s, k] chosen by index, a chunk that starts at an
    even step (so flip 0); by ``generator_moves``, reflection k, simple or
    not, has rotation part k.  Before step s the flip is s mod 2, so step s
    adds (-1)^s times its rotation part."""
    rot = (rank >> 1) + choices[::2].sum(axis=0) - choices[1::2].sum(axis=0)
    rank[:] = 2 * (rot % m) + len(choices) % 2


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
    result for any number of workers.  A seed that is not an integer in
    [0, 2^64) raises InvalidSeed, and a trial count that is not an integer or
    is below 2, or a worker count that is not an integer, InvalidTrialCount.
    """
    trials = as_int(trials, InvalidTrialCount, "trials")
    workers = as_int(workers, InvalidTrialCount, "workers")
    if trials < 2:
        raise InvalidTrialCount(f"need at least 2 trials, got {trials}")
    t = check_step_count(t)
    seed = _key(seed, InvalidSeed, "seed")
    n = spec.n
    if spec.family == Family.I2 and n >= 2**62:
        raise InvalidRank(f"Monte Carlo ranks I2(m) in int64 and needs m < 2**62, got {n}")
    check_walk_rank(spec.family, n, spec.r)
    gens, measure = as_member(Gens, gens), as_member(Measure, measure)
    n_choices = num_generators(spec.family, n, gens)
    if n_choices > 2**32:  # checked before a move is listed
        raise InvalidRank(f"at most 2**32 generators per draw, got {n_choices}")
    # one trial's starting state: the identity's rank in I2, else its window
    if spec.family == Family.I2:
        width, identity = 1, np.zeros(1, dtype=np.int64)
        advance = partial(_walk_dihedral, m=n)
    else:
        a, b, s = np.array(generator_moves(spec, gens), dtype=np.intp).T
        width, identity = n, np.arange(1, n + 1)[None, :]
        advance = partial(_walk_windows, moves=(a - 1, b - 1, s))

    statistic = block_statistic(spec, measure)
    blocks = []  # each block's statistic values
    for lo, hi in _blocks(trials, workers, min(_BLOCK_WORDS // 8, max(1, _BLOCK_STATE // width))):
        state = np.repeat(identity, hi - lo, axis=0)
        rejected = np.zeros(hi - lo, dtype=bool)
        # a chunk of 8 * k steps draws k counter blocks for every row
        chunk = 8 * max(1, _BLOCK_WORDS // (8 * (hi - lo)))
        for first in range(0, t, chunk):
            choices, chunk_rejected = _draws(seed, lo, hi, n_choices, first, min(chunk, t - first))
            rejected |= chunk_rejected
            advance(state, choices)
        # a trial that rejected a word took its later choices from the wrong
        # words: walk it again from its own draws
        for row in np.flatnonzero(rejected).tolist():
            one = identity.copy()
            advance(one, trial_choices(seed, lo + row, n_choices, t)[:, None])
            state[row] = one[0]
        blocks.append(statistic(state))

    values, counts = (col.tolist() for col in np.unique(np.concatenate(blocks), return_counts=True))
    # the exact integer sum, rounded once as the per-trial fsum rounded it
    mean = float(sum(map(mul, values, counts))) / trials
    # each value's squared deviation p / 2^k is the float the per-trial sum
    # added c times: sum them exactly over the largest 2^k, then round once
    squares = [((v - mean) ** 2).as_integer_ratio() for v in values]
    den = max(q for _, q in squares)
    var = sum(p * c * (den // q) for (p, q), c in zip(squares, counts)) / den / (trials - 1)
    stderr = sqrt(var / trials)
    return SimResult(mean, stderr, trials, seed, spec, gens, measure, t)
