import math
import warnings

import mpmath
import numpy as np
import pytest

from gatecert import (
    CertFlags,
    UnitaryOperator,
    bound_fd,
    bound_fidelity_only,
    bound_hybrid,
    bound_ru,
    build_cz_error,
    build_model_error,
    certificate_bundle,
    certified_overlap,
    diamond_exact,
    fd_from_unitary,
    min_overlap_exact,
    tightness_witness,
)

CZ_GRID = (0.01, 0.05, 0.1, 0.3, 0.7, 1.2)


def near_identity_unitary(d, rng, scale):
    herm = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    herm = (herm + herm.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(herm)
    vals = vals / np.abs(vals).max() * scale
    return UnitaryOperator((vecs * np.exp(-1j * vals)) @ vecs.conj().T)


def test_min_overlap_identity():
    assert min_overlap_exact(UnitaryOperator(np.eye(4))) == pytest.approx(1.0)


def test_min_overlap_cz():
    x = build_cz_error(math.pi / 2)
    assert min_overlap_exact(x) == pytest.approx(math.cos(math.pi / 4), abs=1e-12)
    for phi in CZ_GRID:
        assert min_overlap_exact(build_cz_error(phi)) == pytest.approx(
            math.cos(phi / 2), abs=1e-12
        )


def test_min_overlap_enclosing_spectrum():
    x = UnitaryOperator(np.diag([1, 1j, -1, -1j]))
    assert min_overlap_exact(x) == 0.0


def test_diamond_exact_examples():
    assert diamond_exact(UnitaryOperator(np.eye(8))) == 0.0
    for phi in CZ_GRID:
        assert diamond_exact(build_cz_error(phi)) == pytest.approx(
            abs(math.sin(phi / 2)), abs=1e-12
        )
    for delta in (0.01, 0.1, 0.5):
        x = UnitaryOperator(np.diag([np.exp(-1j * delta), np.exp(1j * delta)]))
        assert diamond_exact(x) == pytest.approx(abs(math.sin(delta)), abs=1e-12)


def _mpmath_diamond(x):
    """Diamond distance from the eigenphases of x.matrix, found by mpmath."""
    with mpmath.workdps(40):
        lam = mpmath.eig(mpmath.matrix(x.matrix.tolist()), left=False, right=False)
        th = sorted(mpmath.arg(v) for v in lam)
        gap = max([b - a for a, b in zip(th, th[1:])] + [th[0] + 2 * mpmath.pi - th[-1]])
        return float(mpmath.sin((2 * mpmath.pi - gap) / 2)) if gap > mpmath.pi else 1.0


def test_diamond_exact_high_fidelity_references():
    # clustered spectra down to 1e-7: the hull route lost vertices here and
    # read Toffoli at 1e-7 as 2.99e-7 against 4.54e-7
    grid = np.geomspace(1e-7, 1.0, 15)
    for phi in grid:
        assert diamond_exact(build_cz_error(phi)) == pytest.approx(
            abs(math.sin(phi / 2)), rel=1e-9
        )
    for model, n in (("toffoli", None), ("qft", 3)):
        for param in grid:
            x = build_model_error(model, float(param), n)
            assert diamond_exact(x) == pytest.approx(_mpmath_diamond(x), rel=1e-9)


def test_bound_fidelity_only_values():
    assert bound_fidelity_only(0.0, 4) == 0.0
    assert bound_fidelity_only(0.01, 4) == pytest.approx(0.4472135954999579)
    assert bound_fidelity_only(0.9, 4) == 1.0  # clamped
    assert bound_fidelity_only(0.9, 4, clamp=False) > 1.0
    with pytest.raises(ValueError):
        bound_fidelity_only(1.5, 4)


def test_bound_ru_values():
    assert bound_ru(0.0, 1.0, 4) == 0.0
    assert bound_ru(0.01, 1.0, 2) == pytest.approx(0.34641016151377546)
    with pytest.raises(ValueError):
        bound_ru(0.001, 0.5, 4)  # strongly negative radicand


def test_bound_ru_u1_collapse_ratio():
    for d in (2, 4, 8, 1024):
        target = d / math.sqrt(2.0)
        for r in (1e-8, 1e-5, 0.3 / (d * (d + 1))):
            ratio = bound_ru(r, 1.0, d, clamp=False) / bound_fidelity_only(
                r, d, clamp=False
            )
            assert abs(ratio - target) <= 1e-12 * target


def test_certified_overlap_identity():
    assert certified_overlap(1.0, 0.0, 4) == pytest.approx(1.0)
    assert bound_fd(1.0, 0.0, 4) == pytest.approx(0.0, abs=1e-12)


def test_certified_overlap_cz_saturates():
    for phi in CZ_GRID + (math.pi / 2, math.pi):
        s = fd_from_unitary(build_cz_error(phi))
        assert certified_overlap(s.F, s.D, 4) == pytest.approx(
            math.cos(phi / 2), abs=1e-10
        )


def test_certified_overlap_small_dimension_rejected():
    with pytest.raises(ValueError):
        certified_overlap(0.99, 0.001, 2)


def test_certified_overlap_toffoli_validity():
    x = build_model_error("toffoli", 0.1)
    s = fd_from_unitary(x)
    assert certified_overlap(s.F, s.D, 8) <= min_overlap_exact(x) + 1e-9


def test_bound_fd_cz_tightness():
    for phi in CZ_GRID:
        s = fd_from_unitary(build_cz_error(phi))
        assert abs(bound_fd(s.F, s.D, 4) - abs(math.sin(phi / 2))) <= 1e-9


def test_bound_fd_qft_orderings():
    x = build_model_error("qft", 0.05, 4)
    s = fd_from_unitary(x)
    b_fd = bound_fd(s.F, s.D, 16)
    assert diamond_exact(x) <= b_fd + 1e-9
    if b_fd > bound_fidelity_only(s.r, 16):
        warnings.warn("moment-assisted bound looser than fidelity-only at this point")


def test_bound_hybrid():
    with pytest.raises(ValueError):
        bound_hybrid()
    assert bound_hybrid(b_fd=0.3) == 0.3
    assert bound_hybrid(b_ru=0.1, b_fd=0.3) == 0.1


def test_hybrid_selects_fd_in_coherent_regime():
    x = build_model_error("toffoli", 0.05)
    s = fd_from_unitary(x)
    bundle = certificate_bundle(8, s.F, s.D, u=1.0, x=x)
    assert bundle.b_fd < bundle.b_ru
    assert bundle.b_hybrid == bundle.b_fd
    assert bundle.hybrid_winner == "fd"


def test_bundle_invariants():
    for model, n in (("cz", None), ("toffoli", None), ("qft", 3)):
        x = build_model_error(model, 0.12, n)
        s = fd_from_unitary(x)
        bundle = certificate_bundle(x.dim, s.F, s.D, u=1.0, x=x)
        assert bundle.d_exact <= bundle.b_fd + 1e-9
        assert bundle.d_exact <= bundle.b_fidelity_only + 1e-9
        assert bundle.d_exact <= bundle.b_ru + 1e-9
        assert bundle.b_hybrid == min(bundle.b_ru, bundle.b_fd)
        assert 0.0 <= bundle.c_value <= 1.0
        for b in (bundle.b_fidelity_only, bundle.b_ru, bundle.b_fd, bundle.b_hybrid):
            assert 0.0 <= b <= 1.0


def test_bundle_without_unitarity():
    s = fd_from_unitary(build_cz_error(0.2))
    bundle = certificate_bundle(4, s.F, s.D)
    assert bundle.b_ru is None
    assert bundle.b_hybrid == bundle.b_fd
    assert bundle.d_exact is None


def test_bundle_flags_clamped_bound():
    s = fd_from_unitary(build_cz_error(1.5))
    bundle = certificate_bundle(4, s.F, s.D, u=1.0)
    assert bundle.b_ru == 1.0
    assert bundle.b_ru_raw > 1.0
    assert bundle.flags & CertFlags.BOUND_CLAMPED


def _relaxation_attainable(F, D, d):
    # branch predicate: the conjugate-pair equality spectrum exists
    from gatecert import pq_from_fd

    pq = pq_from_fd(F, D, d)
    P, Q = math.sqrt(pq.P2), math.sqrt(pq.Q2)
    rad = (d - 2) * (d * Q + d * d - (d + 2) * pq.P2)
    if rad < 0:
        return False
    b = P / d - math.sqrt(rad) / (2 * d)
    return (P - 2 * b) / (d - 2) <= 1.0


def test_monotonicity_of_c_in_deviation():
    # at fixed F, larger fluctuations cannot improve the certificate. This
    # holds throughout the closed-form regime; the boundary-corrected branch
    # can rise slightly when D crosses the attainability seam (a property of
    # the exact extremal solution, checked against a global optimizer), so
    # the grid check is scoped to the relaxation-attainable region.
    d = 4
    for F in (0.999, 0.99, 0.95):
        ds = np.linspace(0.0, 2.0 * (1 - F), 40)
        last = None
        for dv in ds:
            if not _relaxation_attainable(F, float(dv), d):
                continue
            c = certified_overlap(F, float(dv), d)
            if last is not None:
                assert c <= last + 1e-10
            last = c
        assert last is not None  # the grid did exercise the branch


def test_witness_identity():
    w = tightness_witness(1.0, 0.0, 4)
    assert np.abs(w.matrix - np.eye(4)).max() < 1e-12


def test_witness_roundtrip_random():
    rng = np.random.default_rng(21)
    done = 0
    while done < 20:
        d = 4 if done % 2 == 0 else 8
        x = near_identity_unitary(d, rng, scale=rng.uniform(0.05, 0.3))
        s = fd_from_unitary(x)
        try:
            w = tightness_witness(s.F, s.D, d)
        except ValueError:
            continue
        done += 1
        ws = fd_from_unitary(w)
        assert abs(ws.F - s.F) <= 1e-9
        assert abs(ws.D - s.D) <= 1e-9
        c = certified_overlap(s.F, s.D, d)
        assert abs(min_overlap_exact(w) - c) <= 1e-9
        assert c <= min_overlap_exact(x) + 1e-9


def test_witness_rejects_odd_or_small_dimension():
    with pytest.raises(ValueError):
        tightness_witness(0.99, 0.001, 5)
    with pytest.raises(ValueError):
        tightness_witness(0.99, 0.001, 2)


def test_witness_rejects_inadmissible_cz_moments():
    # the CZ family needs a bulk cosine above 1: no two-angle witness exists
    s = fd_from_unitary(build_cz_error(0.3))
    with pytest.raises(ValueError):
        tightness_witness(s.F, s.D, 4)


def test_radicand_clamp_flag_on_inconsistent_data():
    # deep-error inputs inconsistent with a unitary: P^2 clamps, c vacuous
    bundle = certificate_bundle(4, 0.15, 0.3)
    assert bundle.c_value == 0.0
    assert bundle.b_fd == 1.0
    assert bundle.flags & (CertFlags.P2_CLAMPED | CertFlags.Q2_CLAMPED)
