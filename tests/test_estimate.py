import math

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
    run_protocol,
    sample_haar_state,
    simulate_protocol,
    single_fidelity,
    substream,
)


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


def test_simulate_protocol_matches_per_state_draws():
    # the counts are exactly one binomial draw per state, each from its own
    # substream right after that state's Haar draw
    seed, m_states, n_shots = 3, 64, 1000
    for model, param, n in (("toffoli", 0.1, None), ("qft", 0.05, 3)):
        x = build_model_error(model, param, n)
        expected = []
        for i in range(m_states):
            rng = substream(seed, i)
            f = single_fidelity(x, sample_haar_state(x.dim, rng))
            expected.append(int(rng.binomial(n_shots, f)))
        assert simulate_protocol(x, m_states, n_shots, seed) == expected


def test_substream_extension_stability():
    # growing M must not perturb earlier states' draws
    x = build_cz_error(0.3)
    short = simulate_protocol(x, M=5, N=50, seed=7)
    long = simulate_protocol(x, M=10, N=50, seed=7)
    assert long[:5] == short


def test_simulate_input_validation():
    x = build_cz_error(0.1)
    with pytest.raises(ValueError):
        simulate_protocol(x, M=1, N=10, seed=0)
    with pytest.raises(ValueError):
        simulate_protocol(x, M=10, N=1, seed=0)
    with pytest.raises(ValueError):
        substream(-1, 0)


def test_estimator_rejects_invalid_counts():
    # one shot per state leaves K(K-1)/(N(N-1)) at 0/0: NaN moments, not an
    # estimate
    with pytest.raises(ValueError):
        estimate_moments([1, 0], 1)
    for counts in ([1.5, 2], [5, 2], [-1, 2], np.array([1.0, 2.0])):
        with pytest.raises(ValueError):
            estimate_moments(counts, 4)


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
