import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.optimize import minimize

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
from gatecert.certify import (
    _CLD,
    _ENDPOINT_TOL,
    _LD,
    _PINNED_GRID,
    _TWO_POINT_RTOL,
    _pinned_max_span,
    _two_point_span,
)
from gatecert.moments import _pq_from_fd_ld

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


def _mpmath_arc(x):
    """Arc 2 pi - G covered by the eigenphases of x.matrix, found by mpmath,
    with G their largest gap on the circle."""
    with mpmath.workdps(40):
        lam = mpmath.eig(mpmath.matrix(x.matrix.tolist()), left=False, right=False)
        th = sorted(mpmath.arg(v) for v in lam)
        gap = max([b - a for a, b in zip(th, th[1:])] + [th[0] + 2 * mpmath.pi - th[-1]])
        return 2 * mpmath.pi - gap


def test_diamond_exact_high_fidelity_references():
    # clustered spectra down to 1e-7: the hull route lost vertices here and
    # read the Toffoli diamond distance at 1e-7 as 2.99e-7 against 4.54e-7
    grid = np.geomspace(1e-7, 1.0, 15)
    for phi in grid:
        assert diamond_exact(build_cz_error(phi)) == pytest.approx(
            abs(math.sin(phi / 2)), rel=1e-9
        )
    for model, n in (("toffoli", None), ("qft", 3)):
        for param in grid:
            x = build_model_error(model, float(param), n)
            arc = _mpmath_arc(x)
            ref = float(mpmath.sin(arc / 2)) if arc < mpmath.pi else 1.0
            assert diamond_exact(x) == pytest.approx(ref, rel=1e-9)
            assert min_overlap_exact(x) == pytest.approx(
                max(0.0, float(mpmath.cos(arc / 2))), abs=1e-12
            )


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


def _pinned_max_span_scalar(P, Q, d, family_rtol):
    """The three-point search as one scalar loop per grid interval, sub-scan
    point and bisection step: the reference that the batched
    _pinned_max_span must reproduce bit for bit."""
    P = _LD(P)
    Q = _LD(Q)
    two_point = _two_point_span(P, Q, d, family_rtol)
    if two_point is not None:
        return two_point
    best = None

    def consider(span):
        nonlocal best
        if best is None or span > best:
            best = span

    grid = np.linspace(1e-9, np.pi, _PINNED_GRID)
    eg = np.exp(1j * grid)
    eg2 = eg * eg
    resid_floor = 1e-16 * (1 + float(Q))
    for p in range(1, d - 1):
        for q in range(1, d - p):
            r = d - p - q
            A = q + p * eg
            aA = np.abs(A)
            cos_gap = (float(P * P) - aA * aA - r * r) / (2.0 * r * aA)
            in_domain = (np.abs(cos_gap) <= 1.0) & (aA > 1e-12)
            for sgn in (1.0, -1.0):

                def resid_ld(g):
                    Ag = q + p * np.exp(1j * _CLD(g))
                    aAg = np.abs(Ag)
                    if aAg <= 1e-12:
                        return None, None
                    cd = (P * P - aAg * aAg - r * r) / (2 * r * aAg)
                    if not -1 <= cd <= 1:
                        return None, None
                    hg = np.angle(Ag) + _LD(sgn) * np.arccos(cd)
                    t1g = Ag + r * np.exp(1j * _CLD(hg))
                    wg = q + p * np.exp(2j * _CLD(g)) + r * np.exp(2j * _CLD(hg)) + t1g * t1g
                    return np.abs(wg) - Q, hg

                def refine(lo, hi, flo):
                    for _ in range(90):
                        mid = (lo + hi) / 2
                        fm, _ = resid_ld(mid)
                        if fm is None:
                            return
                        if flo * fm <= 0:
                            hi = mid
                        else:
                            lo, flo = mid, fm
                    groot = (lo + hi) / 2
                    fr, hroot = resid_ld(groot)
                    if fr is None or abs(fr) > resid_floor:
                        return
                    hf, gf = float(hroot), float(groot)
                    if min(abs(hf), abs(gf), abs(hf - gf)) < _ENDPOINT_TOL:
                        return
                    angles = (0.0, hf, gf)
                    consider(max(angles) - min(angles))

                with np.errstate(invalid="ignore"):
                    h = np.angle(A) + sgn * np.arccos(np.clip(cos_gap, -1.0, 1.0))
                t1 = A + r * np.exp(1j * h)
                w = q + p * eg2 + r * np.exp(2j * h) + t1 * t1
                resid = np.abs(w) - float(Q)
                near = np.abs(resid) <= 1e-12 * (1 + float(Q))
                for i in range(_PINNED_GRID - 1):
                    if not (in_domain[i] and in_domain[i + 1]):
                        continue
                    if resid[i] * resid[i + 1] > 0 and not (near[i] or near[i + 1]):
                        continue
                    sub = np.linspace(grid[i], grid[i + 1], 33)
                    prev_g = prev_f = None
                    for gsub in sub:
                        fsub, _ = resid_ld(_LD(gsub))
                        if fsub is None:
                            prev_g = prev_f = None
                            continue
                        if prev_f is not None and prev_f * fsub <= 0:
                            refine(prev_g, _LD(gsub), prev_f)
                        prev_g, prev_f = _LD(gsub), fsub
    return best


def _spectrum_fd(phases):
    s = fd_from_unitary(UnitaryOperator(np.diag(np.exp(1j * np.asarray(phases)))))
    return s.F, s.D


def _pq(F, D, d):
    """(P, Q) in extended precision as _certified_overlap_ld derives them."""
    P2, Q2, _, _ = _pq_from_fd_ld(F, D, d)
    return np.sqrt(P2), np.sqrt(Q2)


def _three_point_spectrum(rng, d):
    """Bulk at 1 plus two clusters at angles in [-1.2, 1.2] whose relaxation
    root is positive and needs a bulk cosine of at least 1 + 1e-6, so that
    c(F, D) comes from the three-point search."""
    top = max(1, d // 4)
    while True:
        n1, n2 = (int(v) for v in rng.integers(1, top + 1, size=2))
        h, k = rng.uniform(-1.2, 1.2, size=2)
        if min(abs(h), abs(k), abs(h - k)) < 0.05:
            continue
        phases = np.repeat([0.0, h, k], [d - n1 - n2, n1, n2])
        F, D = _spectrum_fd(phases)
        P, Q = _pq(F, D, d)
        rad = (d - 2) * (d * Q + d * d - (d + 2) * P * P)
        if rad < 0:
            continue
        b = P / d - np.sqrt(rad) / (2 * d)
        if b > 0 and (P - 2 * b) / (d - 2) >= 1 + 1e-6:
            return phases, F, D


def test_pinned_search_matches_scalar_oracle():
    # batching changes no arithmetic: every span is the oracle's bits
    for d, count in ((4, 8), (8, 6), (16, 3), (24, 2)):
        rng = np.random.default_rng([2024, d])
        for _ in range(count):
            _, F, D = _three_point_spectrum(rng, d)
            P, Q = _pq(F, D, d)
            span = _pinned_max_span(P, Q, d, _TWO_POINT_RTOL)
            assert span is not None
            assert span == _pinned_max_span_scalar(P, Q, d, _TWO_POINT_RTOL)


def test_pinned_search_two_point_and_no_bracket():
    for d, gap, p in ((4, 0.7, 1), (8, 1.3, 3), (8, 0.4, 2), (16, 0.4, 5)):
        F, D = _spectrum_fd(np.repeat([0.0, gap], [d - p, p]))
        P, Q = _pq(F, D, d)
        span = _pinned_max_span(P, Q, d, _TWO_POINT_RTOL)
        assert span == pytest.approx(gap, abs=1e-9)
        assert span == _pinned_max_span_scalar(P, Q, d, _TWO_POINT_RTOL)
        if d > 8:
            continue
        # just off the family the search runs, through the tangential
        # valleys around it
        for rel in (-1e-9, 1e-9):
            P, Q = _pq(F, D * (1 + rel), d)
            span = _pinned_max_span(P, Q, d, _TWO_POINT_RTOL)
            assert span == _pinned_max_span_scalar(P, Q, d, _TWO_POINT_RTOL)
    # Q = 0 is off every two-point family and the residual |w| - Q never
    # changes sign: no bracket, no span
    for d in (4, 8):
        P = _LD(d - 0.5)
        assert _pinned_max_span(P, _LD(0), d, _TWO_POINT_RTOL) is None
        assert _pinned_max_span_scalar(P, _LD(0), d, _TWO_POINT_RTOL) is None


def test_bundle_b_fd_equals_bound_fd_bitwise():
    # both read sqrt(1 - c^2) off one helper, on every branch of c(F, D)
    rng = np.random.default_rng(31)
    spectra = [np.repeat([0.0, 0.7], [3, 1]), np.repeat([0.0, 0.9], [1, 7])]  # two-point
    spectra += [rng.uniform(-0.3, 0.3, d) for d in (4, 8, 16)]  # relaxation
    spectra += [_three_point_spectrum(rng, d)[0] for d in (4, 8)]  # three-point search
    spectra.append(np.repeat([0.0, 0.5, -0.9], [70, 1, 1]))  # beyond the search cap
    for phases in spectra:
        F, D = _spectrum_fd(phases)
        d = len(phases)
        assert certificate_bundle(d, F, D).b_fd == bound_fd(F, D, d)


def _slsqp_max_span(P, Q, d, starts):
    """Largest spread theta_1 - theta_0 that multistart SLSQP finds over d
    free phases with theta_0 = 0 <= theta_i <= theta_1 <= pi (the global phase
    is free), |tr X| = P and |tr X^2 + (tr X)^2| = Q."""

    def traces(t):
        e = np.exp(1j * np.concatenate([[0.0], t]))
        t1 = e.sum()
        return t1, (e * e).sum() + t1 * t1

    cons = [
        {"type": "eq", "fun": lambda t: abs(traces(t)[0]) - P},
        {"type": "eq", "fun": lambda t: abs(traces(t)[1]) - Q},
        {"type": "ineq", "fun": lambda t: t[0] - t[1:]},
    ]
    grad = -np.eye(d - 1)[0]
    best = None
    for x0 in starts:
        res = minimize(
            lambda t: -t[0], x0, jac=lambda t: grad, method="SLSQP",
            bounds=[(0.0, math.pi)] * (d - 1), constraints=cons,
            options={"maxiter": 500, "ftol": 1e-14},
        )
        t1, t2 = traces(res.x)
        feasible = abs(abs(t1) - P) < 1e-9 and abs(abs(t2) - Q) < 1e-9
        feasible = feasible and np.all(res.x[1:] <= res.x[0] + 1e-12)
        if res.success and feasible and (best is None or res.x[0] > best):
            best = float(res.x[0])
    return best


def test_pinned_search_against_constrained_optimization():
    # the three-point search claims the global optimum over all spectra: a
    # general optimizer finds the same spread and nothing wider, and the
    # generating spectrum's exact diamond distance stays below the certificate
    for d in (4, 8):
        for seed in range(6):
            rng = np.random.default_rng([seed, d])
            phases, F, D = _three_point_spectrum(rng, d)
            P, Q = _pq(F, D, d)
            span = _pinned_max_span(P, Q, d, _TWO_POINT_RTOL)
            # the generating spectrum turned to start at 0 and listed with its
            # largest phase first, then random spreads
            t = np.sort(phases - phases.min())
            starts = [np.concatenate([[t[-1]], t[1:-1]])]
            for _ in range(3):
                top = rng.uniform(0.5, 1.5) * span
                starts.append(np.concatenate([[top], rng.uniform(0, top, d - 2)]))
            found = _slsqp_max_span(float(P), float(Q), d, starts)
            assert found is not None
            assert abs(found - span) <= 1e-6

            th = np.sort(phases)
            gap = max(np.diff(th).max(), th[0] + 2 * math.pi - th[-1])
            d_ref = math.sin((2 * math.pi - gap) / 2) if gap > math.pi else 1.0
            assert bound_fd(F, D, d) >= d_ref - 1e-12
