import os
import subprocess
import sys
import tracemalloc
from math import fsum, sqrt
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from coxwalk import (
    CoxwalkError,
    Family,
    Gens,
    GroupSpec,
    InvalidSeed,
    InvalidTrialCount,
    InvalidTrialIndex,
    Measure,
    RankedGroup,
    enumerate_group,
    expected_abslength_I2_T,
    expected_length_A_T,
    expected_length_I2_S_troili,
    make_statistic,
    multiply,
    reflections_of,
    simple_reflections_of,
    simulate,
    trial_choices,
)
from coxwalk.lengths import block_statistic
from coxwalk.elements import (
    _walk_dihedral,
    _walk_windows,
    _window_moves,
    generator_moves,
    walker,
    window_dtype,
)
from coxwalk import montecarlo
from coxwalk.montecarlo import _draws, _philox_words
from coxwalk.verify import MC_BASE_SEED, MC_GRID

A10 = GroupSpec(Family.A, 10)


def test_deterministic_walk():
    r = simulate(GroupSpec(Family.B, 1), Gens.REFLECTIONS, Measure.LENGTH, 1,
                 trials=50, seed=3)
    assert r.mean == 1.0 and r.stderr == 0.0


def test_t0_is_zero():
    r = simulate(A10, Gens.REFLECTIONS, Measure.LENGTH, 0, trials=10, seed=0)
    assert r.mean == 0.0 and r.stderr == 0.0


def test_reproducible_and_parallel_identical():
    kwargs = dict(t=5, trials=4000, seed=42)
    a = simulate(A10, Gens.REFLECTIONS, Measure.LENGTH, **kwargs)
    b = simulate(A10, Gens.REFLECTIONS, Measure.LENGTH, **kwargs)
    c = simulate(A10, Gens.REFLECTIONS, Measure.LENGTH, **kwargs, workers=2)
    d = simulate(A10, Gens.REFLECTIONS, Measure.LENGTH, **kwargs, workers=5)
    assert (a.mean, a.stderr) == (b.mean, b.stderr) == (c.mean, c.stderr) == (d.mean, d.stderr)


def test_seed_changes_result():
    a = simulate(A10, Gens.REFLECTIONS, Measure.LENGTH, 5, trials=2000, seed=1)
    b = simulate(A10, Gens.REFLECTIONS, Measure.LENGTH, 5, trials=2000, seed=2)
    assert a.mean != b.mean


def test_calibration_type_a():
    r = simulate(A10, Gens.REFLECTIONS, Measure.LENGTH, 5, trials=10**5, seed=1)
    assert abs(r.mean - float(expected_length_A_T(10, 5))) < 4 * r.stderr


def test_calibration_dihedral_abs():
    r = simulate(GroupSpec(Family.I2, 7), Gens.REFLECTIONS, Measure.ABSLENGTH, 4,
                 trials=10**5, seed=11)
    assert abs(r.mean - float(expected_abslength_I2_T(7, 4))) < 4 * r.stderr


def test_calibration_dihedral_simple_walk():
    r = simulate(GroupSpec(Family.I2, 5), Gens.SIMPLE, Measure.LENGTH, 6,
                 trials=4 * 10**4, seed=8)
    assert abs(r.mean - float(expected_length_I2_S_troili(5, 6))) < 4 * r.stderr


def test_generator_frequencies_uniform_chi_square():
    spec = GroupSpec(Family.A, 5)
    n_gens = len(reflections_of(spec))
    trials = 10**5
    first = _draws(1234, 0, trials, n_gens, 0, 1)[0][0]
    assert first[:300].tolist() == [trial_choices(1234, k, n_gens, 1)[0] for k in range(300)]
    counts = np.bincount(first, minlength=n_gens)
    expected = trials / n_gens
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    threshold = scipy.stats.chi2.ppf(1 - 1e-3, df=n_gens - 1)
    assert chi2 < threshold


def test_trial_choices_pure():
    a = trial_choices(7, 123, 45, 9)
    b = trial_choices(7, 123, 45, 9)
    assert (a == b).all()
    assert not (a == trial_choices(7, 124, 45, 9)).all()


def test_result_fields():
    r = simulate(GroupSpec(Family.D, 3), Gens.REFLECTIONS, Measure.LENGTH, 2,
                 trials=100, seed=5)
    assert r.trials == 100 and r.seed == 5 and r.t == 2
    assert r.gens == Gens.REFLECTIONS and r.measure == Measure.LENGTH
    assert r.stderr >= 0.0


def test_trials_validation():
    for trials in (1, 0, -3, 2.5, 2.0, "5", None):
        with pytest.raises(InvalidTrialCount) as info:
            simulate(A10, Gens.REFLECTIONS, Measure.LENGTH, 1, trials=trials, seed=0)
        assert isinstance(info.value, CoxwalkError) and isinstance(info.value, ValueError)
    want = simulate(A10, Gens.REFLECTIONS, Measure.LENGTH, 3, trials=40, seed=0)
    got = simulate(A10, Gens.REFLECTIONS, Measure.LENGTH, 3, trials=np.int64(40), seed=0)
    assert (got.mean, got.stderr) == (want.mean, want.stderr)


def test_workers_validation():
    for workers in (2.5, "2", None):
        with pytest.raises(InvalidTrialCount, match="workers") as info:
            simulate(A10, Gens.REFLECTIONS, Measure.LENGTH, 1, trials=10, seed=0,
                     workers=workers)
        assert isinstance(info.value, CoxwalkError) and isinstance(info.value, ValueError)
    want = simulate(A10, Gens.REFLECTIONS, Measure.LENGTH, 3, trials=40, seed=0)
    got = simulate(A10, Gens.REFLECTIONS, Measure.LENGTH, 3, trials=40, seed=0,
                   workers=np.int64(2))
    assert (got.mean, got.stderr) == (want.mean, want.stderr)


def test_workers_beyond_trials_allocate_no_shares():
    # every share past one per trial is empty, so a million workers over 10
    # trials must not list a million share bounds (about 15 MB)
    spec = GroupSpec(Family.A, 4)
    want = simulate(spec, Gens.REFLECTIONS, Measure.LENGTH, 6, trials=10, seed=3)
    tracemalloc.start()
    try:
        got = simulate(spec, Gens.REFLECTIONS, Measure.LENGTH, 6, trials=10, seed=3,
                       workers=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert (got.mean, got.stderr) == (want.mean, want.stderr)


def numpy_bitgen(seed, k, first_block):
    """numpy's Philox bit generator keyed by (seed, k), advanced past
    first_block counter blocks."""
    bitgen = np.random.Philox(key=np.array([seed, k], dtype=np.uint64))
    bitgen.advance(first_block)
    return bitgen


def numpy_choices(seed, k, n, steps, first_block=0):
    """numpy's own bounded draws from the Philox stream keyed by (seed, k),
    from counter block first_block + 1 on."""
    return np.random.Generator(numpy_bitgen(seed, k, first_block)).integers(0, n, size=steps)


def numpy_words(seed, k, first_block, blocks):
    """The 32-bit words of counter blocks first_block + 1 .. first_block +
    blocks of that stream, each 64-bit output's low half first."""
    raw = numpy_bitgen(seed, k, first_block).random_raw(4 * blocks)
    return [int(w) >> shift & 0xFFFFFFFF for w in raw for shift in (0, 32)]


@pytest.mark.parametrize("n", [1, 2, 45, 780, 2**31 + 11, 3 * 2**30 + 1])
@pytest.mark.parametrize("seed", [0, 7, 2**63 - 1, 2**63, 2**64 - 1])
def test_block_draws_match_numpy(seed, n):
    # n = 2^31 + 11 and 3 * 2^30 + 1 reject about half and a quarter of the
    # words, so most rows there are flagged for simulate to walk again;
    # first_step > 0 starts at a later counter block
    threshold = (2**32 - n) % n
    for steps in (0, 1, 7, 8, 9, 17, 64):
        for first_step in (0, 8, 40):
            lo, blocks = 3 * steps + first_step, -(-steps // 8)
            words = _philox_words(seed, lo, lo + 6, first_step // 8, blocks)
            got, rejected = _draws(seed, lo, lo + 6, n, first_step, steps)
            assert got.shape == (steps, 6) and rejected.shape == (6,)
            assert ((0 <= got) & (got < n)).all()
            for row, k in enumerate(range(lo, lo + 6)):
                want = numpy_words(seed, k, first_step // 8, blocks)
                assert np.reshape(words, (8 * blocks, 6))[:, row].tolist() == want
                assert rejected[row] == any(w * n % 2**32 < threshold for w in want[:steps])
                if not rejected[row]:
                    want = numpy_choices(seed, k, n, steps, first_step // 8)
                    assert (got[:, row] == want).all(), (seed, n, steps, first_step, k)


@pytest.mark.parametrize("seed", [0, 7, 2**63, 2**64 - 1])
def test_trial_choices_match_numpy(seed):
    # the block words' bounded draws are numpy's, including n whose words
    # reject about half and a quarter of the time, n = 2^32 (no rejection)
    # and walks of more words than one counter block
    for k in (0, 1, 5, 2**63 + 3):
        for n in (1, 2, 3, 45, 1000, 2**31 + 11, 3 * 2**30 + 1, 2**32):
            for t in (0, 1, 7, 8, 9, 99):
                got = trial_choices(seed, k, n, t)
                assert got.dtype == np.int64 and got.shape == (t,)
                assert got.tolist() == numpy_choices(seed, k, n, t).tolist(), (k, n, t)


def test_simulate_leaves_numpy_random_unimported():
    # trials that reject a word are walked again from trial_choices, which
    # draws from the block words: numpy.random (and the hashlib, hmac and
    # secrets imports it brings) stays out of the process
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "import sys\n"
        "from coxwalk import Family, GroupSpec, simulate\n"
        "from coxwalk.montecarlo import _draws\n"
        "m = 2**31 + 11\n"
        "assert _draws(7, 0, 151, m, 0, 7)[1].any()\n"
        "simulate(GroupSpec(Family.I2, m), 'reflections', 'length', 7, trials=151, seed=7)\n"
        "assert 'numpy.random' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# (mean, stderr) of simulate before it was vectorized, as exact float
# literals: the 20 calibration grid points at 2000 trials, then a long walk,
# seeds at and above 2^63, and one cell of every family/measure kind
PINNED_GRID = (
    ('A', 6, 'reflections', 'length', 3, 2000, 7000, 6.275, 0.06480962616634901),
    ('A', 10, 'reflections', 'length', 5, 2000, 7001, 17.585, 0.138692123974746),
    ('A', 7, 'simple', 'length', 6, 2000, 7002, 3.377, 0.0336675251707868),
    ('A', 5, 'simple', 'length', 9, 2000, 7003, 3.38, 0.03811202255367151),
    ('A', 8, 'reflections', 'abslength', 4, 2000, 7004, 3.477, 0.02006082546554801),
    ('A', 12, 'reflections', 'abslength', 6, 2000, 7005, 5.333, 0.022689488898016776),
    ('B', 3, 'reflections', 'length', 2, 2000, 7006, 4.048, 0.04990083212255344),
    ('B', 5, 'reflections', 'length', 6, 2000, 7007, 11.798, 0.09814486337605015),
    ('B', 4, 'reflections', 'length', 10, 2000, 7008, 7.911, 0.07086289773314078),
    ('B', 3, 'reflections', 'abslength', 3, 2000, 7009, 2.147, 0.022123295869061983),
    ('D', 3, 'reflections', 'length', 3, 2000, 7010, 2.892, 0.032135406363870446),
    ('D', 4, 'reflections', 'length', 5, 2000, 7011, 5.804, 0.05323729054480775),
    ('D', 6, 'reflections', 'length', 8, 2000, 7012, 14.518, 0.1039675075266819),
    ('I2', 5, 'reflections', 'length', 3, 2000, 7013, 2.604, 0.03286536270959164),
    ('I2', 6, 'reflections', 'length', 2, 2000, 7014, 2.996, 0.042625115251751666),
    ('I2', 7, 'reflections', 'abslength', 4, 2000, 7015, 1.725, 0.015404744498904818),
    ('I2', 6, 'simple', 'abslength', 6, 2000, 7016, 1.387, 0.020623485740340817),
    ('I2', 4, 'simple', 'abslength', 4, 2000, 7017, 1.195, 0.021936912135873374),
    ('I2', 5, 'simple', 'length', 7, 2000, 7018, 2.115, 0.030097182928143045),
    ('I2', 9, 'simple', 'length', 12, 2000, 7019, 2.649, 0.04742914991997079),
)
PINNED_EXTRA = (
    ('A', 30, 'reflections', 'length', 300, 300, 31, 214.27333333333334, 1.670991890518657),
    ('B', 6, 'reflections', 'abslength', 5, 500, 2**63 + 12345, 3.936, 0.04911856335982422),
    ('D', 5, 'reflections', 'descents', 7, 500, 2**64 - 1, 2.46, 0.03537375588215677),
    ('A', 9, 'simple', 'descents', 11, 500, 5, 2.934, 0.04018105317270985),
    ('B', 4, 'simple', 'descents', 8, 500, 6, 1.574, 0.030772420830469854),
    ('B', 5, 'reflections', 'descents', 4, 500, 2**63, 2.354, 0.0318023706909269),
    ('I2', 8, 'reflections', 'descents', 5, 500, 7, 1.0, 0.0),
    ('I2', 3, 'simple', 'descents', 3, 500, 0, 1.234, 0.018952741564893752),
    ('D', 4, 'simple', 'abslength', 6, 500, 8, 2.08, 0.0433469481720647),
    ('D', 2, 'simple', 'length', 3, 100, 1, 1.0, 0.0),
    ('A', 7, 'simple', 'abslength', 10, 500, 9, 3.328, 0.05305149311606307),
    ('B', 1, 'simple', 'descents', 3, 50, 10, 1.0, 0.0),
    ('A', 2, 'reflections', 'descents', 3, 50, 11, 1.0, 0.0),
)


@pytest.mark.parametrize("workers", [1, 3])
def test_pinned_results(workers):
    assert [row[:5] for row in PINNED_GRID] == [
        (f.value, n, g.value, m.value, t) for f, n, g, m, t in MC_GRID
    ]
    assert [row[6] for row in PINNED_GRID] == [MC_BASE_SEED + i for i in range(20)]
    for f, n, g, m, t, trials, seed, mean, stderr in PINNED_GRID + PINNED_EXTRA:
        r = simulate(GroupSpec(Family(f), n), Gens(g), Measure(m), t,
                     trials=trials, seed=seed, workers=workers)
        assert (r.mean, r.stderr) == (mean, stderr), (f, n, g, m, t, seed)


@pytest.mark.parametrize("spec", [GroupSpec(Family.A, 5), GroupSpec(Family.B, 4),
                                  GroupSpec(Family.D, 4), GroupSpec(Family.I2, 7)])
@pytest.mark.parametrize("measure", list(Measure))
def test_block_statistic_matches_make_statistic(spec, measure):
    group = RankedGroup(spec)
    states = (np.arange(group.order) if spec.family == Family.I2
              else group.windows.astype(np.intp))
    got = block_statistic(spec, measure)(states)
    statistic = make_statistic(spec, measure)
    assert got.tolist() == [statistic(w) for w in enumerate_group(spec)]


@pytest.mark.parametrize("spec", [GroupSpec(Family.A, n) for n in range(2, 8)]
                         + [GroupSpec(Family.B, n) for n in range(1, 6)]
                         + [GroupSpec(Family.D, n) for n in range(2, 7)])
def test_block_statistic_any_layout(spec):
    # the statistic reads a block in any memory layout: C-ordered (Monte
    # Carlo's state), column-major, strided row slices and a column window
    # of a wider array all give the C-ordered block's values
    windows = RankedGroup(spec).windows.astype(np.int64)
    wide = np.zeros((len(windows), spec.n + 3), dtype=np.int64)
    wide[:, 1:spec.n + 1] = windows
    for measure in Measure:
        statistic = block_statistic(spec, measure)
        want = statistic(np.ascontiguousarray(windows))
        assert (statistic(np.asfortranarray(windows)) == want).all(), measure
        assert (statistic(windows[1::3]) == want[1::3]).all(), measure
        assert (statistic(windows[::-2]) == want[::-2]).all(), measure
        assert (statistic(wide[:, 1:spec.n + 1]) == want).all(), measure


@pytest.mark.parametrize("spec, gens", [(GroupSpec(Family.A, 6), Gens.REFLECTIONS),
                                        (GroupSpec(Family.B, 5), Gens.REFLECTIONS),
                                        (GroupSpec(Family.D, 5), Gens.SIMPLE)])
def test_walk_of_many_rows_equals_walk_of_each_row(spec, gens):
    # a multi-row walk writes every row in place, as walking it alone does
    moves = _window_moves(spec, gens, np.dtype(np.int64))
    choices = np.random.default_rng(5).integers(0, len(generator_moves(spec, gens)),
                                                size=(24, 37))
    state = np.repeat(np.arange(1, spec.n + 1)[None, :], 37, axis=0)
    _walk_windows(state, choices, moves)
    for row in range(37):
        one = np.arange(1, spec.n + 1)[None, :].copy()
        _walk_windows(one, choices[:, row:row + 1], moves)
        assert state[row].tolist() == one[0].tolist(), row
    assert (state != np.arange(1, spec.n + 1)).any()


def test_walk_refuses_a_state_that_is_not_c_contiguous():
    # a column-major block's flat view is a copy: walking it would write
    # nothing and leave the identity, so the walk refuses it
    spec = GroupSpec(Family.A, 4)
    identity, advance = walker(spec, Gens.REFLECTIONS)
    state = np.asfortranarray(np.repeat(identity, 3, axis=0))
    with pytest.raises(ValueError, match="C-contiguous"):
        advance(state, np.array([[0, 1, 2]]))
    assert state.tolist() == [[1, 2, 3, 4]] * 3


@pytest.mark.parametrize("spec, gens", [(GroupSpec(Family.A, 63), Gens.REFLECTIONS),
                                        (GroupSpec(Family.B, 63), Gens.REFLECTIONS),
                                        (GroupSpec(Family.D, 64), Gens.REFLECTIONS),
                                        (GroupSpec(Family.B, 30), Gens.SIMPLE)])
def test_walk_on_narrow_windows_equals_int64_walk(spec, gens):
    # the walk state in window_dtype(n), as simulate holds it, ends where an
    # int64 state does, signs and all
    dtype = window_dtype(spec.n)
    choices = np.random.default_rng(spec.n).integers(0, len(generator_moves(spec, gens)),
                                                     size=(200, 50))
    wide = np.repeat(np.arange(1, spec.n + 1)[None, :], 50, axis=0)
    narrow = wide.astype(dtype)
    _walk_windows(wide, choices, _window_moves(spec, gens, wide.dtype))
    _walk_windows(narrow, choices, _window_moves(spec, gens, dtype))
    assert narrow.dtype == dtype and narrow.tolist() == wide.tolist()
    assert (wide < 0).any() == (spec.family != Family.A)


@pytest.mark.parametrize("spec", [GroupSpec(Family.A, 4), GroupSpec(Family.B, 3),
                                  GroupSpec(Family.D, 4), GroupSpec(Family.D, 1),
                                  GroupSpec(Family.B, 1), GroupSpec(Family.I2, 5)])
@pytest.mark.parametrize("gens", list(Gens))
def test_walk_moves_are_the_element_generators(spec, gens):
    # the Monte Carlo walk and the element model read one generator list:
    # choice index k applies the k-th element of reflections_of /
    # simple_reflections_of
    g = simple_reflections_of(spec) if gens == Gens.SIMPLE else reflections_of(spec)
    moves = generator_moves(spec, gens)
    assert len(moves) == len(g)
    if spec.family != Family.I2:
        arrays = _window_moves(spec, gens, np.dtype(np.int64))
    for k1 in range(len(g)):
        for k2 in range(len(g)):
            product = multiply(g[k1], g[k2])
            choices = np.array([[k1], [k2]])
            if spec.family == Family.I2:
                rank = np.zeros(1, dtype=np.int64)
                _walk_dihedral(rank, choices, spec.n)
                assert rank.tolist() == [2 * product.rot + product.flip]
            else:
                state = np.arange(1, spec.n + 1)[None, :].copy()
                _walk_windows(state, choices, arrays)
                assert state.tolist() == [list(product.window)]


def test_seeds_above_2_63_are_distinct_streams():
    a = trial_choices(2**63 + 1, 0, 1000, 5)
    assert not (a == trial_choices(2**63 + 1000, 0, 1000, 5)).all()
    assert (a == numpy_choices(2**63 + 1, 0, 1000, 5)).all()


@pytest.mark.parametrize("seed", [-1, -2**63, 2**64, 2**70])
def test_seed_outside_key_range_rejected(seed):
    with pytest.raises(InvalidSeed):
        trial_choices(seed, 0, 10, 5)
    with pytest.raises(InvalidSeed):
        simulate(A10, Gens.REFLECTIONS, Measure.LENGTH, 3, trials=10, seed=seed)


@pytest.mark.parametrize("trial", [-1, 2**64])
def test_trial_outside_key_range_rejected(trial):
    with pytest.raises(InvalidTrialIndex) as info:
        trial_choices(1, trial, 10, 3)
    assert isinstance(info.value, CoxwalkError) and isinstance(info.value, ValueError)


def per_trial_reference(spec, gens, measure, t, trials, seed):
    """(mean, stderr) as simulate computes them, from each trial's own
    draws walked as a one-row block of one chunk."""
    moves = generator_moves(spec, gens)
    statistic = block_statistic(spec, measure)
    values = []
    for k in range(trials):
        choices = trial_choices(seed, k, len(moves), t)[:, None]
        if spec.family == Family.I2:
            state = np.zeros(1, dtype=np.int64)
            _walk_dihedral(state, choices, spec.n)
        else:
            state = np.arange(1, spec.n + 1)[None, :].copy()
            _walk_windows(state, choices, _window_moves(spec, gens, state.dtype))
        values.append(float(statistic(state)[0]))
    mean = fsum(values) / trials
    var = fsum((v - mean) ** 2 for v in values) / (trials - 1)
    return mean, sqrt(var / trials)


@pytest.mark.parametrize("spec, gens, measure", [
    (GroupSpec(Family.B, 5), Gens.REFLECTIONS, Measure.LENGTH),
    (GroupSpec(Family.D, 6), Gens.SIMPLE, Measure.ABSLENGTH),
    (GroupSpec(Family.A, 7), Gens.REFLECTIONS, Measure.DESCENTS),
    (GroupSpec(Family.I2, 9), Gens.REFLECTIONS, Measure.LENGTH),
    (GroupSpec(Family.I2, 6), Gens.SIMPLE, Measure.ABSLENGTH),
    # about half and a quarter of the words reject here, so most rows are
    # walked again after their block
    (GroupSpec(Family.I2, 2**31 + 11), Gens.REFLECTIONS, Measure.LENGTH),
    (GroupSpec(Family.I2, 3 * 2**30 + 1), Gens.REFLECTIONS, Measure.LENGTH),
])
def test_chunks_match_per_trial_walks(monkeypatch, spec, gens, measure):
    # with 512 words per chunk, 151 trials are blocks of 50 or 51 rows for
    # one and for three workers, and each chunk is S = 8 steps: t = S - 1,
    # S, S + 1 and 2S + 3 end a walk before, at and after a chunk boundary
    monkeypatch.setattr(montecarlo, "_BLOCK_WORDS", 512)
    n_choices = len(generator_moves(spec, gens))
    for t in (7, 8, 9, 19):
        want = per_trial_reference(spec, gens, measure, t, 151, seed=t)
        if n_choices > 2**31:
            _, rejected = _draws(t, 0, 151, n_choices, 0, t)
            assert rejected.mean() > 0.8, t
        for workers in (1, 3):
            r = simulate(spec, gens, measure, t, trials=151, seed=t, workers=workers)
            assert (r.mean, r.stderr) == want, (t, workers)


def test_chunks_at_full_size_match_per_trial_walks():
    # 2000 trials fill one block of 32-step chunks; with three workers they
    # are blocks of 666 or 667 rows and 96-step chunks.  t = 3 * 32 + 3 =
    # 96 + 3 ends past a boundary of both
    for rows, chunk in ((2000, 32), (667, 96), (666, 96)):
        assert 8 * (montecarlo._BLOCK_WORDS // (8 * rows)) == chunk
    assert [lo for lo, _ in montecarlo._blocks(2000, 3, 8192)] == [0, 666, 1333]
    spec = GroupSpec(Family.I2, 12)
    want = per_trial_reference(spec, Gens.REFLECTIONS, Measure.LENGTH, 99, 2000, seed=4)
    for workers in (1, 3):
        r = simulate(spec, Gens.REFLECTIONS, Measure.LENGTH, 99, trials=2000, seed=4,
                     workers=workers)
        assert (r.mean, r.stderr) == want


@pytest.mark.parametrize("workers", [1, 3])
def test_rejected_rows_are_walked_again(workers):
    # A580 has 167 910 reflections, so a word is rejected with probability
    # about 3.8e-5; four of these 2000 trials reject one within 20 steps.
    # Walking them on their flawed choices reads a mean of 37.3735
    spec = GroupSpec(Family.A, 580)
    n_choices = len(generator_moves(spec, Gens.REFLECTIONS))
    _, rejected = _draws(1, 0, 2000, n_choices, 0, 20)
    assert np.flatnonzero(rejected).tolist() == [667, 761, 935, 1740]
    r = simulate(spec, Gens.REFLECTIONS, Measure.DESCENTS, 20, trials=2000, seed=1,
                 workers=workers)
    assert (r.mean, r.stderr) == (37.373, 0.03368238042917525)
