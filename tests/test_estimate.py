import math
import multiprocessing
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest

from gatecert import (
    CertFlags,
    UnitaryOperator,
    build_cz_error,
    build_model_error,
    certify_from_estimates,
    estimate_moments,
    fd_from_unitary,
    haar_mc_moments,
    run_protocol,
    run_protocols,
    simulate_protocol,
    substream,
)
from gatecert import estimate
from gatecert.estimate import (
    _CHUNK_STATES,
    _WORKER_NORMALS,
    _MC_BATCH,
    _haar_fidelities,
    _stacked_fidelities,
    sample_haar_state,
)
from gatecert.moments import single_fidelity


def chunk_states(d, lanes=1):
    """States in one chunk of the batched simulator at dimension d, in a run
    of one lane or of two, a split run's."""
    return max(1, min(_CHUNK_STATES, _MC_BATCH // (lanes * d)))


QFT8_CHUNK = chunk_states(256)


def traced_peak(run):
    """run()'s result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def sequential_counts(x, n_states, n_shots, seed):
    """The reference loop: state by state, a Haar draw from the amplitude
    stream, its fidelity, then one binomial draw from the shot stream."""
    amplitudes, shots = substream(seed, 0), substream(seed, 1)
    counts = []
    for _ in range(n_states):
        f = single_fidelity(x, sample_haar_state(x.dim, amplitudes))
        counts.append(int(shots.binomial(n_shots, f)))
    return counts


@pytest.fixture(scope="module")
def qft8_across_chunk():
    """qft n = 8 pass counts at M = c - 1, c and c + 1, c states per chunk."""
    x = build_model_error("qft", 0.03, 8)
    c = QFT8_CHUNK
    runs = {m: simulate_protocol(x, m, 1000, 11) for m in (c - 1, c, c + 1)}
    return x, runs


@pytest.fixture(scope="module")
def qft8_sequential(qft8_across_chunk):
    """The sequential loop's first c + 1 qft n = 8 pass counts at seeds 11, 12
    and 13, in the setting of qft8_across_chunk."""
    x, _ = qft8_across_chunk
    return {seed: sequential_counts(x, QFT8_CHUNK + 1, 1000, seed) for seed in (11, 12, 13)}


# a split run at d = 1024 has chunks of half a one-lane chunk's states
QFT10_LANE_CHUNK = chunk_states(1024, lanes=2)


@pytest.fixture(scope="module")
def qft10_split():
    """qft n = 10 at seeds 0 and 1, one past a split run's chunk: the run's
    results and its traced peak."""
    x = build_model_error("qft", 0.03, 10)
    return x, *traced_peak(lambda: run_protocols(x, QFT10_LANE_CHUNK + 1, 1000, [0, 1]))


def test_sample_haar_state_norm():
    for i in range(20):
        psi = sample_haar_state(4, substream(1, i))
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12


def test_sample_haar_state_first_moment():
    # Haar first moment of |psi><psi| is the maximally mixed state
    d, n = 4, 100_000
    rng = np.random.Generator(np.random.Philox(123))
    z = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    mean_proj = (z.conj()[:, :, None] * z[:, None, :]).mean(axis=0)
    assert np.abs(mean_proj - np.eye(d) / d).max() <= 5.0 / math.sqrt(n)

    # unitary invariance: a fixed traceless Hermitian observable averages to 0
    a = np.diag([1.0, -1.0, 1.0, -1.0])
    vals = np.einsum("ij,jk,ik->i", z.conj(), a, z).real
    assert abs(vals.mean()) <= 5 * vals.std(ddof=1) / math.sqrt(n)


def test_simulate_identity_all_pass():
    x = UnitaryOperator(np.eye(4))
    assert simulate_protocol(x, M=50, N=200, seed=9) == [200] * 50


def test_simulate_determinism():
    x = build_cz_error(0.3)
    a = simulate_protocol(x, M=40, N=100, seed=42)
    b = simulate_protocol(x, M=40, N=100, seed=42)
    assert a == b
    c = simulate_protocol(x, M=40, N=100, seed=43)
    assert a != c


def test_simulate_protocol_matches_per_state_draws(qft8_across_chunk, qft8_sequential):
    # the counts are exactly the sequential loop's: state i's normals are
    # [2d i, 2d (i+1)) of substream(seed, 0), its count the i-th binomial
    # draw of substream(seed, 1)
    seed, m_states, n_shots = 3, 64, 1000
    for model, param, n in (("toffoli", 0.1, None), ("qft", 0.05, 3), ("qft", 0.03, 8)):
        x = build_model_error(model, param, n)
        expected = sequential_counts(x, m_states, n_shots, seed)
        assert simulate_protocol(x, m_states, n_shots, seed) == expected
    # past one chunk: every state of both chunks
    x, runs = qft8_across_chunk
    assert runs[QFT8_CHUNK + 1] == qft8_sequential[11]


def test_haar_mc_reads_the_protocol_states():
    # the oracle's samples are the fidelities of the protocol's amplitude
    # stream, past one chunk too: the mean of the sequential loop's
    x = build_model_error("qft", 0.03, 8)
    seed, m_states = 13, QFT8_CHUNK + 1
    amplitudes = substream(seed, 0)
    f = [single_fidelity(x, sample_haar_state(x.dim, amplitudes)) for _ in range(m_states)]
    mc = haar_mc_moments(x, m_states, seed)
    assert mc.F_mc == pytest.approx(math.fsum(f) / m_states, rel=1e-13, abs=0.0)


def test_haar_mc_stderr_matches_two_pass_near_identity():
    # a one-pass variance cancels near the identity: at phi = 1e-4 it read
    # stderr_F 19 times too wide and stderr_E2 as 0
    for phi in (1e-5, 1e-4, 1e-2):
        x = build_cz_error(phi)
        f = np.concatenate(list(_haar_fidelities(x, 10_000, [0])))
        mc = haar_mc_moments(x, 10_000, seed=0)
        for got, v in ((mc.stderr_F, f), (mc.stderr_E2, f * f)):
            want = np.std(v, ddof=1) / math.sqrt(v.size)
            assert got == pytest.approx(want, rel=1e-8, abs=0.0)


def test_protocol_fidelities_match_single_fidelity():
    # the stacked product sums in another order than single_fidelity's
    # matrix-vector product: agreement to a tolerance set from float64
    x = build_model_error("qft", 0.03, 8)
    states = [sample_haar_state(x.dim, substream(5, i)) for i in range(32)]
    z = np.array(states)
    f = _stacked_fidelities(z, np.ascontiguousarray(x.matrix.T), np.empty_like(z))
    ref = [single_fidelity(x, psi) for psi in states]
    np.testing.assert_allclose(f, ref, rtol=1e-13, atol=0.0)


def test_substream_extension_stability(qft8_across_chunk):
    # growing M must not perturb earlier states' draws
    x = build_cz_error(0.3)
    short = simulate_protocol(x, M=5, N=50, seed=7)
    long = simulate_protocol(x, M=10, N=50, seed=7)
    assert long[:5] == short
    # nor across a chunk boundary
    _, runs = qft8_across_chunk
    c = QFT8_CHUNK
    assert runs[c][: c - 1] == runs[c - 1]
    assert runs[c + 1][:c] == runs[c]


def test_run_protocols_match_per_seed_runs(qft8_across_chunk, qft8_sequential, monkeypatch):
    # a run of two, three or five seeds reads, seed by seed, the states and
    # counts of one-seed runs and of the sequential loop, with the first half
    # of the seeds on the caller and the rest on the worker: around a chunk
    # boundary at d = 256, in one chunk at d = 8, and at d = 4 past three
    # chunks, split or all on the caller
    n_shots = 1000
    x, _ = qft8_across_chunk
    c, seeds = QFT8_CHUNK, tuple(qft8_sequential)
    for m_states in (c - 1, c, c + 1):
        counts = [qft8_sequential[seed][:m_states] for seed in seeds]
        want = [estimate_moments(k, n_shots, seed=seed) for seed, k in zip(seeds, counts)]
        assert [run_protocol(x, m_states, n_shots, seed) for seed in seeds] == want
        assert run_protocols(x, m_states, n_shots, seeds) == want
    assert run_protocols(x, c + 1, n_shots, seeds[:2]) == want[:2]
    for model, m_states, seeds in (("toffoli", 500, range(1, 6)), ("cz", 3 * chunk_states(4) + 1, (11, 12, 13))):
        x = build_model_error(model, 0.3)
        want = [
            estimate_moments(sequential_counts(x, m_states, n_shots, seed), n_shots, seed=seed)
            for seed in seeds
        ]
        assert run_protocols(x, m_states, n_shots, seeds) == want
        assert [run_protocol(x, m_states, n_shots, seed) for seed in seeds] == want
    monkeypatch.setattr(estimate, "_WORKER_NORMALS", _MC_BATCH + 1)
    assert run_protocols(x, m_states, n_shots, seeds) == want


def test_split_run_matches_past_its_halved_chunk(qft10_split):
    # at d = 1024 a split run's chunk is half a one-seed run's, so each seed
    # of the split takes two chunks where a one-seed run takes one
    x, got, _ = qft10_split
    m_states, n_shots = QFT10_LANE_CHUNK + 1, 1000
    assert chunk_states(x.dim) >= m_states
    assert got == [run_protocol(x, m_states, n_shots, seed) for seed in (0, 1)]
    # the worker's seed against the sequential loop
    assert got[1] == estimate_moments(sequential_counts(x, m_states, n_shots, 1), n_shots, seed=1)


class _RecordedStream:
    """A substream that notes its seed and the thread of each call it takes."""

    def __init__(self, rng, calls, seed=None):
        self.rng, self.calls, self.seed = rng, calls, seed

    def standard_normal(self, *args, **kwargs):
        self.calls.append(("standard_normal", self.seed, threading.get_ident()))
        return self.rng.standard_normal(*args, **kwargs)

    def binomial(self, *args, **kwargs):
        self.calls.append(("binomial", self.seed, threading.get_ident()))
        return self.rng.binomial(*args, **kwargs)


def test_run_protocols_keeps_its_calls_on_the_calling_thread(monkeypatch):
    # the streams, the binomials and the estimates are the caller's. A run of
    # several seeds splits them: the caller draws the first half's normals and
    # the worker the rest's; a run of one seed draws every chunk but the
    # first ahead on the worker
    x = build_cz_error(0.3)
    m_states = chunk_states(x.dim, lanes=2) + 1  # two chunks per seed
    real_substream, real_estimate = estimate.substream, estimate.estimate_moments
    caller = threading.get_ident()
    for seeds in ([3], [3, 4], [3, 4, 5]):
        want = run_protocols(x, m_states, 100, seeds)
        calls = []

        def recorded_substream(seed, index):
            calls.append(("substream", seed, threading.get_ident()))
            return _RecordedStream(real_substream(seed, index), calls, seed)

        def recorded_estimate(*args, **kwargs):
            calls.append(("estimate_moments", kwargs["seed"], threading.get_ident()))
            return real_estimate(*args, **kwargs)

        monkeypatch.setattr(estimate, "substream", recorded_substream)
        monkeypatch.setattr(estimate, "estimate_moments", recorded_estimate)
        assert run_protocols(x, m_states, 100, seeds) == want
        monkeypatch.setattr(estimate, "substream", real_substream)
        monkeypatch.setattr(estimate, "estimate_moments", real_estimate)
        others = [(name, thread) for name, _, thread in calls if name != "standard_normal"]
        assert sorted({name for name, _ in others}) == ["binomial", "estimate_moments", "substream"]
        assert [name for name, _ in others].count("substream") == 2 * len(seeds)
        assert all(thread == caller for _, thread in others)
        normals = {}
        for name, seed, thread in calls:
            if name == "standard_normal":
                normals.setdefault(seed, []).append(thread)
        assert sorted(normals) == seeds and all(len(t) == 2 for t in normals.values())
        if len(seeds) == 1:
            first, later = normals[3]
            assert first == caller and later != caller
        else:
            half = len(seeds) // 2
            assert all(t == [caller, caller] for seed, t in normals.items() if seed in seeds[:half])
            on_worker = {t for seed in seeds[half:] for t in normals[seed]}
            assert len(on_worker) == 1 and caller not in on_worker


def test_small_chunks_are_drawn_on_the_calling_thread(monkeypatch):
    # below _WORKER_NORMALS normals a chunk costs less to draw than to
    # hand over, so a run of such chunks hands none to the worker
    x = build_cz_error(0.3)
    m_states = _WORKER_NORMALS // (2 * x.dim) - 1
    calls = []
    real_substream = estimate.substream

    def recorded(*key):
        return _RecordedStream(real_substream(*key), calls)

    monkeypatch.setattr(estimate, "substream", recorded)
    threads = threading.active_count()
    got = run_protocols(x, m_states, 100, [3, 4, 5])
    monkeypatch.setattr(estimate, "substream", real_substream)
    assert got == [run_protocol(x, m_states, 100, seed) for seed in (3, 4, 5)]
    caller = threading.get_ident()
    assert [name for name, _, _ in calls].count("standard_normal") == 3
    assert all(thread == caller for _, _, thread in calls)
    assert threading.active_count() == threads


# the fewest cz states (d = 4) per chunk that the worker takes part in
WORKER_STATES = _WORKER_NORMALS // (2 * 4)
# (M, seeds) of cz runs that hand the worker a share: seeds of a split run,
# and a one-seed run of two chunks, drawn ahead
WORKER_RUNS = [(WORKER_STATES, [1, 2, 3]), (chunk_states(4) + 1, [1])]


def test_a_failed_draw_on_the_worker_reaches_the_caller(monkeypatch):
    caller = threading.get_ident()
    real_substream = estimate.substream

    class Failing(_RecordedStream):
        def standard_normal(self, *args, **kwargs):
            if threading.get_ident() != caller:
                raise RuntimeError("draw failed on the worker")
            return self.rng.standard_normal(*args, **kwargs)

    x = build_cz_error(0.3)
    for m_states, seeds in WORKER_RUNS:
        monkeypatch.setattr(estimate, "substream", lambda *key: Failing(real_substream(*key), []))
        with pytest.raises(RuntimeError, match="draw failed on the worker"):
            run_protocols(x, m_states, 100, seeds)
        # the worker survives the failure
        monkeypatch.setattr(estimate, "substream", real_substream)
        want = [run_protocol(x, m_states, 100, s) for s in seeds]
        assert run_protocols(x, m_states, 100, seeds) == want


def test_a_reader_that_stops_early_waits_out_the_draw(monkeypatch):
    # closing the chunk generator after its first chunk returns only once the
    # worker has finished its share: the second chunk's draw, or the later
    # seed of a split run, so no work on the worker outlives a run
    caller = threading.get_ident()
    real_substream = estimate.substream

    class Slow(_RecordedStream):
        def standard_normal(self, *args, **kwargs):
            if threading.get_ident() != caller:
                time.sleep(0.05)
            self.rng.standard_normal(*args, **kwargs)
            self.calls.append(threading.get_ident())

    x = build_cz_error(0.3)
    for m_states, seeds in ((WORKER_STATES, [1, 2]), WORKER_RUNS[1]):
        finished = []
        monkeypatch.setattr(estimate, "substream", lambda *key: Slow(real_substream(*key), finished))
        fidelities = _haar_fidelities(x, m_states, seeds)
        next(fidelities)
        fidelities.close()
        assert len(finished) == 2 and finished[1] != caller


def test_run_protocols_checks_every_seed_before_drawing(monkeypatch):
    # a bad seed anywhere in the list stops the run before its first stream
    streams = []
    monkeypatch.setattr(estimate, "substream", lambda *key: streams.append(key))
    x = build_cz_error(0.1)
    top = (1 << 64) - 1
    for M, N, seeds in (
        (10, 100, [top - 1, top, top + 1]),
        (10, 100, [1, 2, -1]),
        (10, 100, [1, 2, 2.5]),
        (1, 100, [1, 2]),
        (10, 1, [1, 2]),
    ):
        with pytest.raises(ValueError):
            run_protocols(x, M, N, seeds)
    assert streams == []
    assert run_protocols(x, 10, 100, []) == []


def _child_runs(x, expected):
    os._exit(0 if run_protocols(x, WORKER_STATES, 100, [1, 2]) == expected else 1)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_starts_its_own_worker():
    # a forked child inherits the parent's executor but not its thread
    x = build_cz_error(0.3)
    expected = run_protocols(x, WORKER_STATES, 100, [1, 2])  # the worker is running now
    child = multiprocessing.get_context("fork").Process(target=_child_runs, args=(x, expected))
    child.start()
    child.join(60)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0


@pytest.mark.parametrize("model,n", [("qft", 10), ("qft", 8), ("cz", None)])
def test_simulate_protocol_memory_is_flat_in_M(model, n, request):
    # four chunks peak as high as two: at d = 1024 a chunk is bounded by its
    # amplitudes, at d = 4 by _CHUNK_STATES
    if n == 10:
        x, _, split_peak = request.getfixturevalue("qft10_split")
    else:
        x = build_model_error(model, 0.03, n)
    c, lane = chunk_states(x.dim), chunk_states(x.dim, lanes=2)
    peaks = {m: traced_peak(lambda: simulate_protocol(x, m, 100, 0))[1] for m in (c, 2 * c, 4 * c)}
    assert abs(peaks[4 * c] - peaks[2 * c]) < 0.1 * peaks[2 * c]
    if 2 * x.dim * c > _MC_BATCH:
        # two buffers would hold more than _MC_BATCH amplitudes, so the
        # caller draws every chunk into one: a long run peaks as one chunk
        assert peaks[2 * c] < 2.5 * c * x.dim * 16
    if x.dim >= 256:
        # one chunk holds its amplitudes, the product z X^T and X^T itself,
        # no normalized or conjugated copy of the amplitudes
        assert peaks[c] < 2.5 * c * x.dim * 16
        # nor do the seeds: a split run holds X^T and, in each of its two
        # lanes, the amplitudes and product of `lane` states
        if n != 10:
            split_peak = traced_peak(lambda: run_protocols(x, lane, 100, [0, 1]))[1]
        assert split_peak < 1.05 * (4 * lane + x.dim) * x.dim * 16


def test_simulate_input_validation():
    x = build_cz_error(0.1)
    bad = (
        dict(M=1, N=10, seed=0),
        dict(M=10, N=1, seed=0),
        # M, N and seed must be integers, as GateSpec's targets must
        dict(M=10, N=100, seed=1.5),  # would run as seed 1
        dict(M=10, N=100.7, seed=1),  # would draw 100 shots and divide by 100.7
        dict(M=10.0, N=100, seed=1),
        # range checks come before the uint64 key is built
        dict(M=10, N=100, seed=-1),
        dict(M=10, N=100, seed=np.int64(-1)),
        dict(M=10, N=100, seed=1 << 64),
    )
    for kwargs in bad:
        with pytest.raises(ValueError):
            simulate_protocol(x, **kwargs)
    # numpy integers are integers
    top = (1 << 64) - 1
    ints = dict(M=np.int64(10), N=np.int32(100), seed=np.uint64(top))
    assert simulate_protocol(x, **ints) == simulate_protocol(x, 10, 100, top)
    with pytest.raises(ValueError):
        substream(-1, 0)
    with pytest.raises(ValueError):
        substream(1.5, 0)
    # the Philox key holds two 64-bit words
    for seed, index in ((1 << 64, 0), (0, 1 << 64), (top, 1 << 64)):
        with pytest.raises(ValueError):
            substream(seed, index)
    substream(top, top)


def test_estimator_rejects_invalid_counts():
    # one shot per state leaves K(K-1)/(N(N-1)) at 0/0: NaN moments, not an
    # estimate
    with pytest.raises(ValueError):
        estimate_moments([1, 0], 1)
    for counts in ([1.5, 2], [5, 2], [-1, 2], np.array([1.0, 2.0])):
        with pytest.raises(ValueError):
            estimate_moments(counts, 4)
    # one count per state: a 2-D array would be read as its rows
    for counts in (np.array([[10, 20], [30, 40]]), np.array([[1, 2, 3]]), np.int64(3)):
        with pytest.raises(ValueError):
            estimate_moments(counts, 50)


def test_estimators_all_pass():
    res = estimate_moments([10] * 4, 10)
    assert res.F_hat == 1.0
    assert res.E2_hat == 1.0
    assert res.F2_hat == pytest.approx(1.0)
    assert res.D_hat == 0.0
    assert not res.truncated


def test_estimators_hand_computed_pair():
    # M=2, N=4, K=(3,2): each formula evaluated by hand
    res = estimate_moments([3, 2], 4)
    assert res.F_hat == pytest.approx(0.625)
    assert res.E2_hat == pytest.approx(1.0 / 3.0)
    assert res.F2_hat == pytest.approx(0.375)
    assert res.D2_hat == pytest.approx(-1.0 / 24.0)
    assert res.truncated
    assert res.D_hat == 0.0


def test_estimator_input_validation():
    with pytest.raises(ValueError):
        estimate_moments([1], 4)
    for N, seed in ((3.5, None), (4.0, None), (4, 2.5), (4, -1)):
        with pytest.raises(ValueError):
            estimate_moments([1, 2, 3], N, seed=seed)
    assert estimate_moments([1, 2, 3], np.int64(4), seed=np.int64(2)).N == 4


def test_factorial_moment_identity():
    # K(K-1)/(N(N-1)) averaged equals (N fhat^2 - fhat)/(N-1) averaged
    x = build_cz_error(0.4)
    n = 25
    counts = simulate_protocol(x, M=100, N=n, seed=3)
    res = estimate_moments(counts, n)
    f = np.array(counts) / n
    alt = np.mean((n * f**2 - f) / (n - 1))
    assert abs(res.E2_hat - alt) <= 1e-14


def test_cross_average_identity_vs_double_sum():
    x = build_cz_error(0.4)
    counts = simulate_protocol(x, M=60, N=30, seed=5)
    res = estimate_moments(counts, 30)
    f = np.array(counts) / 30
    m = len(f)
    double = sum(
        f[i] * f[j] for i in range(m) for j in range(m) if i != j
    ) / (m * (m - 1))
    assert abs(res.F2_hat - double) <= 1e-13


def test_exhaustive_unbiasedness_small_N():
    # complete combinatorial oracle over all 2^N shot outcomes
    for n in range(2, 7):
        for f in (0.0, 0.25, 0.5, 0.75, 1.0):
            e_f = e_f2 = 0.0
            for outcome in range(1 << n):
                k = outcome.bit_count()
                w = f**k * (1.0 - f) ** (n - k)
                e_f += w * k / n
                e_f2 += w * k * (k - 1) / (n * (n - 1))
            assert abs(e_f - f) <= 1e-14
            assert abs(e_f2 - f * f) <= 1e-14


def test_seed_mean_unbiasedness_reduced():
    x = build_cz_error(0.3)
    s = fd_from_unitary(x)
    seeds = 300
    f_hats = np.empty(seeds)
    d2_hats = np.empty(seeds)
    for i in range(seeds):
        res = run_protocol(x, 100, 50, seed=1000 + i)
        f_hats[i] = res.F_hat
        d2_hats[i] = res.D2_hat
    assert abs(f_hats.mean() - s.F) <= 4 * f_hats.std(ddof=1) / math.sqrt(seeds)
    assert abs(d2_hats.mean() - s.D**2) <= 4 * d2_hats.std(ddof=1) / math.sqrt(seeds)


def test_variance_scaling_over_mn_grid():
    x = build_cz_error(0.7)
    s = fd_from_unitary(x)
    seeds = 600
    for m_states, n_shots in ((50, 20), (100, 10), (200, 5)):
        f_hats = np.empty(seeds)
        for i in range(seeds):
            f_hats[i] = run_protocol(x, m_states, n_shots, seed=4000 + i).F_hat
        predicted = s.D**2 / m_states + (s.F - (s.D**2 + s.F**2)) / (m_states * n_shots)
        ratio = f_hats.var(ddof=1) / predicted
        assert 1.0 / 1.5 <= ratio <= 1.5


def test_naive_second_moment_bias_is_visible():
    # naive mean of fhat^2 exceeds the corrected estimator by E[f(1-f)]/N
    x = build_cz_error(0.7)
    s = fd_from_unitary(x)
    seeds, m_states, n_shots = 2000, 200, 20
    gaps = np.empty(seeds)
    for i in range(seeds):
        k = np.array(simulate_protocol(x, m_states, n_shots, seed=20_000 + i))
        f = k / n_shots
        fi2 = k * (k - 1) / (n_shots * (n_shots - 1))
        gaps[i] = (f**2).mean() - fi2.mean()
    expected = (s.F - (s.D**2 + s.F**2)) / n_shots
    assert abs(gaps.mean() - expected) <= 0.3 * expected


def test_certify_from_estimates_perfect_data():
    x = UnitaryOperator(np.eye(4))
    res = run_protocol(x, 50, 100, seed=0)
    bundle = certify_from_estimates(res, 4)
    assert bundle.b_fidelity_only == 0.0
    assert bundle.b_fd == pytest.approx(0.0, abs=1e-12)
    assert bundle.b_hybrid == pytest.approx(0.0, abs=1e-12)


def test_certify_from_estimates_truncation_flag():
    res = estimate_moments([3, 2], 4)
    assert res.truncated
    bundle = certify_from_estimates(res, 4)
    assert bundle.flags & CertFlags.D_TRUNCATED


def test_certify_from_estimates_requires_d4():
    res = estimate_moments([4, 4], 4)
    with pytest.raises(ValueError):
        certify_from_estimates(res, 2)


def test_data_driven_bound_tracks_theory():
    # median over seeds of the data-driven moment bound stays near the
    # theory value |sin(phi/2)| (the protocol-based overlay behavior)
    phi = 0.3
    x = build_cz_error(phi)
    values = []
    for seed in range(50):
        res = run_protocol(x, 500, 1000, seed=seed)
        values.append(certify_from_estimates(res, 4).b_fd)
    theory = abs(math.sin(phi / 2))
    assert abs(np.median(values) - theory) <= 0.1 * theory
