import math
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
    simulate_protocol,
    substream,
)
from gatecert.estimate import (
    _CHUNK_STATES,
    _MC_BATCH,
    _haar_fidelities,
    _stacked_fidelities,
    sample_haar_state,
)
from gatecert.moments import single_fidelity


def chunk_states(d):
    """States in one chunk of the batched simulator at dimension d."""
    return max(1, min(_CHUNK_STATES, _MC_BATCH // d))


QFT8_CHUNK = chunk_states(256)


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


def test_simulate_protocol_matches_per_state_draws(qft8_across_chunk):
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
    assert runs[QFT8_CHUNK + 1] == sequential_counts(x, QFT8_CHUNK + 1, 1000, 11)


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
        f = np.concatenate(list(_haar_fidelities(x, 10_000, 0)))
        mc = haar_mc_moments(x, 10_000, seed=0)
        for got, v in ((mc.stderr_F, f), (mc.stderr_E2, f * f)):
            want = np.std(v, ddof=1) / math.sqrt(v.size)
            assert got == pytest.approx(want, rel=1e-8, abs=0.0)


def test_protocol_fidelities_match_single_fidelity():
    # the stacked product sums in another order than single_fidelity's
    # matrix-vector product: agreement to a tolerance set from float64
    x = build_model_error("qft", 0.03, 8)
    states = [sample_haar_state(x.dim, substream(5, i)) for i in range(32)]
    f = _stacked_fidelities(np.array(states), np.ascontiguousarray(x.matrix.T))
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


@pytest.mark.parametrize("model,n", [("qft", 10), ("qft", 8), ("cz", None)])
def test_simulate_protocol_memory_is_flat_in_M(model, n):
    # four chunks peak as high as two: at d = 1024 a chunk is bounded by its
    # amplitudes, at d = 4 by _CHUNK_STATES
    x = build_model_error(model, 0.03, n)
    c = chunk_states(x.dim)
    peaks = {}
    for m_states in (c, 2 * c, 4 * c):
        tracemalloc.start()
        try:
            simulate_protocol(x, m_states, 100, 0)
            peaks[m_states] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert abs(peaks[4 * c] - peaks[2 * c]) < 0.1 * peaks[2 * c]
    if x.dim >= 256:
        # one chunk holds its amplitudes, the product z X^T and X^T itself,
        # no normalized or conjugated copy of the amplitudes
        assert peaks[c] < 2.5 * c * x.dim * 16


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
