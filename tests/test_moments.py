import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from gatecert import (
    UnitaryOperator,
    build_cz_error,
    build_model_error,
    eigenvalues_unitary,
    fd_from_unitary,
    haar_mc_moments,
    haar_random_unitary,
    pq_from_fd,
)
from gatecert.moments import _spectral_moments, single_fidelity

SQRT_17_7 = math.sqrt(17.0 / 7.0)


def cz_closed_F(phi):
    return 1.0 - 0.6 * math.sin(phi / 2.0) ** 2


def cz_closed_D(phi):
    return 0.2 * SQRT_17_7 * math.sin(phi / 2.0) ** 2


def test_identity_moments():
    s = fd_from_unitary(UnitaryOperator(np.eye(4)))
    assert s.F == 1.0
    assert s.D == 0.0
    assert s.r == 0.0
    assert s.D**2 + s.F**2 == pytest.approx(1.0, abs=1e-15)


def test_cz_closed_forms():
    # independent oracle: the closed forms evaluated directly
    for phi in (0.05, 0.3, 0.8, math.pi / 2):
        s = fd_from_unitary(build_cz_error(phi))
        assert s.F == pytest.approx(cz_closed_F(phi), abs=1e-13)
        assert s.D == pytest.approx(cz_closed_D(phi), abs=1e-13)
    s = fd_from_unitary(build_cz_error(math.pi / 2))
    assert s.F == pytest.approx(0.7, abs=1e-14)
    assert s.D == pytest.approx(0.15583874449479593, abs=1e-12)


def test_single_qubit_rotation_infidelity():
    for delta in (0.05, 0.3, 1.0):
        x = UnitaryOperator(np.diag([np.exp(-1j * delta), np.exp(1j * delta)]))
        s = fd_from_unitary(x)
        assert s.r == pytest.approx((2.0 / 3.0) * math.sin(delta) ** 2, abs=1e-14)


def _mpmath_moments(theta):
    """(r, D^2) of diag(e^{i theta}) from its traces at 60 digits, which
    absorb the fourth-order cancellation of E2 - F^2."""
    with mpmath.workdps(60):
        lam = [mpmath.expj(mpmath.mpf(float(t))) for t in theta]
        d = len(lam)
        t1 = mpmath.fsum(lam)
        t2 = mpmath.fsum(v * v for v in lam)
        n = d * (d + 1)
        F = (d + abs(t1) ** 2) / n
        E2 = (2 * d * (d + 3) + 4 * (d + 2) * abs(t1) ** 2 + abs(t2 + t1 * t1) ** 2) / (
            n * (d + 2) * (d + 3)
        )
        return 1 - F, E2 - F * F


@pytest.mark.parametrize("model,n", [("cz", None), ("toffoli", None), ("qft", 3), ("qft", 4)])
def test_eigenphase_moments_against_mpmath(model, n):
    # r and D from the float64 eigenphases, against the same phases in
    # mpmath, down to errors where 1 - F and E2 - F^2 keep no digit in float64
    for phi in np.geomspace(1e-8, 1e-1, 15):
        x = build_model_error(model, float(phi), n)
        r_ref, d2_ref = _mpmath_moments(np.angle(eigenvalues_unitary(x)))
        s = fd_from_unitary(x)
        assert abs(s.r - r_ref) <= 1e-13 * r_ref
        assert abs(s.D - mpmath.sqrt(d2_ref)) <= 1e-13 * mpmath.sqrt(d2_ref)


def _kernel_spectra(d, scale, rng):
    """Eigenphases of four kinds at this scale. Clusters that straddle +-pi
    are left out: float64 phases near +-pi keep only about 4e-16 absolute,
    which cannot resolve a cluster of width 1e-8 split across the cut, so
    any kernel reading them loses digits there (about 1e-8 relative in D^2
    at d = 8), below the resolution of X itself."""
    pair = np.zeros(d)
    pair[-2:] = scale, 1.3 * scale
    two_point = np.zeros(d)
    two_point[rng.integers(1, d) :] = scale
    return {
        "gaussian": scale * rng.standard_normal(d),
        "split-off pair": pair,
        # |a_j| equal for even d, so every d |a_j|^2 - s2 vanishes
        "conjugate pairs": np.where(np.arange(d) < d // 2, scale, -scale),
        "two-point": two_point,
    }


@pytest.mark.parametrize("d", [4, 5, 8, 16, 64, 256])
def test_spectral_moments_against_mpmath(d):
    # odd d and d > 16, which the model grids never reach, against the
    # traces at 60 digits on the same float64 phases
    rng = np.random.default_rng([14, d])
    for scale in np.geomspace(1e-8, 3.0, 9):
        for kind, phases in _kernel_spectra(d, scale, rng).items():
            lam = np.exp(1j * (phases + rng.uniform(-2.5, 2.5)))
            r_ref, d2_ref = _mpmath_moments(np.angle(lam))
            r, d2 = _spectral_moments(lam)
            assert abs(r - r_ref) <= 1e-13 * r_ref, (kind, scale)
            D_ref = mpmath.sqrt(d2_ref)
            assert abs(math.sqrt(d2) - D_ref) <= 1e-13 * D_ref, (kind, scale)


def test_spectral_moments_hold_no_pair_matrix():
    # three O(d) sums: one d x d float64 array would take 8.4 MB here
    lam = np.exp(1j * np.random.default_rng(15).uniform(-math.pi, math.pi, 1024))
    tracemalloc.start()
    try:
        _spectral_moments(lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def _trace_invariants(x):
    """(P^2, Q^2) from tr X and tr X^2 = sum_ij X_ij X_ji of the matrix, in
    extended precision."""
    t1 = np.sum(np.diag(x.matrix).astype(np.clongdouble))
    t2 = np.sum(x.matrix.astype(np.clongdouble) * x.matrix.T)
    return abs(t1) ** 2, abs(t2 + t1 * t1) ** 2


def _trace_fd(x):
    """(F, D) from tr X and tr X^2 in extended precision, the trace route
    the eigenphase form replaced. D^2 = E2 - F^2 cancels to fourth order in
    the error angle, so this is an oracle only away from the identity."""
    d = x.dim
    P2, Q2 = _trace_invariants(x)
    n = d * (d + 1)
    F = (d + P2) / n
    E2 = (2 * d * (d + 3) + 4 * (d + 2) * P2 + Q2) / (n * (d + 2) * (d + 3))
    return float(F), float(np.sqrt(E2 - F * F))


def test_moments_match_trace_route_away_from_identity():
    for model, n in (("cz", None), ("toffoli", None), ("qft", 3), ("qft", 4)):
        for phi in (1e-2, 0.1, 0.5, 1.5):
            x = build_model_error(model, phi, n)
            s = fd_from_unitary(x)
            F, D = _trace_fd(x)
            assert s.F == F
            assert abs(s.D - D) <= 1e-6 * D


def test_pq_identity_case():
    pq = pq_from_fd(1.0, 0.0, 4)
    assert pq.P2 == pytest.approx(16.0)
    assert pq.Q2 == pytest.approx(400.0)  # Q = d + d^2 = 20


def test_pq_cz_first_invariant():
    for phi in (0.2, 0.9):
        s = fd_from_unitary(build_cz_error(phi))
        pq = pq_from_fd(s.F, s.D, 4)
        assert pq.P2 == pytest.approx(10.0 + 6.0 * math.cos(phi), abs=1e-12)


def test_pq_roundtrip_random_unitaries():
    rng = np.random.default_rng(7)
    for d in (4, 8):
        for _ in range(100):
            x = UnitaryOperator(haar_random_unitary(d, rng))
            s = fd_from_unitary(x)
            pq = pq_from_fd(s.F, s.D, d)
            P2, Q2 = map(float, _trace_invariants(x))
            assert abs(pq.P2 - P2) <= 1e-9 * P2
            assert abs(pq.Q2 - Q2) <= 1e-9 * Q2


def test_pq_clamps_inconsistent_data():
    pq = pq_from_fd(0.1, 0.0, 4)  # F below 1/(d+1): raw P^2 negative
    assert pq.P2 == 0.0
    assert 0.0 <= pq.Q2 <= 20.0**2


def test_pq_rejects_data_no_error_produces():
    # the certificate's input rule: F outside [0, 1], a negative D and
    # non-finite data are no error's moments, so they map to no invariants
    for F, D in ((1.5, 0.0), (0.99, -0.01), (0.99, math.nan), (math.inf, 0.0)):
        with pytest.raises(ValueError):
            pq_from_fd(F, D, 4)


def test_pq_small_dimension_warns():
    with pytest.warns(UserWarning):
        pq_from_fd(0.9, 0.02, 2)
    # the moment map has invariants at d = 4.5, of no system
    for d in (1, 4.5, np.float64(8.0)):
        with pytest.raises(ValueError):
            pq_from_fd(0.99, 0.002, d)


def test_single_fidelity_examples():
    x = UnitaryOperator(np.eye(4))
    psi = np.array([0.5, 0.5, 0.5, 0.5])
    assert single_fidelity(x, psi) == pytest.approx(1.0)

    phi = 1.3
    x = UnitaryOperator(np.diag([1, 1, 1, np.exp(1j * phi)]))
    e11 = np.array([0, 0, 0, 1.0])
    assert single_fidelity(x, e11) == pytest.approx(1.0)

    x = UnitaryOperator(np.diag([1, 1, 1, -1.0]))
    bell = np.array([1, 0, 0, 1.0]) / math.sqrt(2)
    assert single_fidelity(x, bell) == pytest.approx(0.0, abs=1e-15)


def test_single_fidelity_rejects_unnormalized():
    x = UnitaryOperator(np.eye(2))
    with pytest.raises(ValueError):
        single_fidelity(x, np.array([1.0, 1.0]))


def test_single_fidelity_rejects_nan_state():
    # a NaN norm compares False with every bound, so it must fail the check
    # rather than pass it
    x = build_cz_error(0.3)
    for psi in ([math.nan, 0, 0, 0], [1.0, 0, 0, complex(0, math.nan)]):
        with pytest.raises(ValueError):
            single_fidelity(x, psi)


def test_d2_collapse_on_random_unitaries():
    rng = np.random.default_rng(8)
    for _ in range(200):
        s = fd_from_unitary(UnitaryOperator(haar_random_unitary(2, rng)))
        assert abs(s.D - (1.0 - s.F) / math.sqrt(5.0)) <= 1e-12


def test_variance_bound():
    rng = np.random.default_rng(9)
    for d in (2, 4, 8):
        for _ in range(50):
            s = fd_from_unitary(UnitaryOperator(haar_random_unitary(d, rng)))
            assert s.D**2 <= s.F * (1.0 - s.F) + 1e-12


def test_basis_invariance():
    rng = np.random.default_rng(10)
    for d in (4, 8):
        x = UnitaryOperator(haar_random_unitary(d, rng))
        v = haar_random_unitary(d, rng)
        y = UnitaryOperator(v @ x.matrix @ v.conj().T)
        sx, sy = fd_from_unitary(x), fd_from_unitary(y)
        assert abs(sx.F - sy.F) <= 1e-10
        assert abs(sx.D - sy.D) <= 1e-10


def test_global_phase_invariance():
    rng = np.random.default_rng(11)
    x = UnitaryOperator(haar_random_unitary(4, rng))
    y = UnitaryOperator(np.exp(1j * 0.7) * x.matrix)
    sx, sy = fd_from_unitary(x), fd_from_unitary(y)
    for field in ("F", "D", "r"):
        assert abs(getattr(sx, field) - getattr(sy, field)) <= 1e-12 * max(
            1.0, abs(getattr(sx, field))
        )


def test_full_fourth_moment_formula_reduces_to_packaged_form():
    # the explicit fourth-moment numerator (with the interference term written
    # out) must agree with D^2 + F^2 of fd_from_unitary
    rng = np.random.default_rng(12)
    for d in (4, 8):
        for _ in range(20):
            x = haar_random_unitary(d, rng)
            t1 = np.trace(x)
            t2 = np.trace(x @ x)
            numerator = (
                2 * d * (d + 3)
                + 4 * (d + 2) * abs(t1) ** 2
                + abs(t2) ** 2
                + abs(t1) ** 4
                + 2 * (t2 * np.conj(t1) ** 2).real
            )
            e2_explicit = numerator / (d * (d + 1) * (d + 2) * (d + 3))
            s = fd_from_unitary(UnitaryOperator(x))
            assert e2_explicit == pytest.approx(s.D**2 + s.F**2, abs=1e-13)


def test_haar_mc_identity():
    x = UnitaryOperator(np.eye(4))
    mc = haar_mc_moments(x, 1000, seed=3)
    assert mc.F_mc == pytest.approx(1.0, abs=1e-13)
    assert mc.E2_mc == pytest.approx(1.0, abs=1e-13)


def test_haar_mc_matches_closed_form_cz():
    x = build_cz_error(0.3)
    s = fd_from_unitary(x)
    mc = haar_mc_moments(x, 200_000, seed=42)
    assert abs(mc.F_mc - s.F) <= 4 * mc.stderr_F
    assert abs(mc.E2_mc - (s.D**2 + s.F**2)) <= 4 * mc.stderr_E2


def test_haar_mc_matches_closed_form_toffoli():
    x = build_model_error("toffoli", 0.2)
    s = fd_from_unitary(x)
    mc = haar_mc_moments(x, 100_000, seed=7)
    assert abs(mc.E2_mc - (s.D**2 + s.F**2)) <= 4 * mc.stderr_E2


def test_haar_mc_deterministic():
    x = build_cz_error(0.5)
    a = haar_mc_moments(x, 5000, seed=11)
    b = haar_mc_moments(x, 5000, seed=11)
    assert a == b


def test_haar_mc_input_validation():
    x = UnitaryOperator(np.eye(2))
    # samples and seed are integers, the seed one Philox key word, as in
    # simulate_protocol
    bad = ((50, 0), (1000, -1), (1000, 1.5), (1000.0, 1), (1000, 1 << 64), (1000, 1 << 130))
    for samples, seed in bad:
        with pytest.raises(ValueError):
            haar_mc_moments(x, samples, seed=seed)
