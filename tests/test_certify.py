import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.optimize import minimize

from gatecert import (
    CertFlags,
    UnitaryOperator,
    bound_fidelity_only,
    bound_ru,
    build_cz_error,
    build_model_error,
    certificate_bundle,
    diamond_exact,
    fd_from_unitary,
    tightness_witness,
)
from gatecert.certify import (
    _CLD,
    _ENDPOINT_TOL,
    _FAMILY_RTOL,
    _LD,
    _pinned_max_span,
    _relaxation_root,
    _split_resultant,
    _two_point_sin2,
)
from gatecert.verify import _near_identity_unitary

CZ_GRID = (0.01, 0.05, 0.1, 0.3, 0.7, 1.2)


def _min_overlap(x):
    """Minimum overlap min |<psi|x|psi>| over states, read from the diamond
    distance D = sqrt(1 - m^2) (D = 1 where the spectrum's hull holds 0)."""
    return math.sqrt(1.0 - diamond_exact(x) ** 2)


def test_min_overlap_identity():
    assert _min_overlap(UnitaryOperator(np.eye(4))) == pytest.approx(1.0)


def test_min_overlap_cz():
    x = build_cz_error(math.pi / 2)
    assert _min_overlap(x) == pytest.approx(math.cos(math.pi / 4), abs=1e-12)
    for phi in CZ_GRID:
        assert _min_overlap(build_cz_error(phi)) == pytest.approx(
            math.cos(phi / 2), abs=1e-12
        )


def test_diamond_exact_enclosing_spectrum():
    # the origin lies in the spectrum's convex hull: the minimum overlap is 0
    x = UnitaryOperator(np.diag([1, 1j, -1, -1j]))
    assert diamond_exact(x) == 1.0


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


def test_bound_fidelity_only_values():
    assert bound_fidelity_only(0.0, 4) == 0.0
    assert bound_fidelity_only(0.01, 4) == pytest.approx(0.4472135954999579)
    assert bound_fidelity_only(0.9, 4) > 1.0  # raw; certificate_bundle clamps
    with pytest.raises(ValueError):
        bound_fidelity_only(1.5, 4)


def test_bound_ru_values():
    assert bound_ru(0.0, 1.0, 4) == 0.0
    assert bound_ru(0.01, 1.0, 2) == pytest.approx(0.34641016151377546)
    with pytest.raises(ValueError):
        bound_ru(0.001, 0.5, 4)  # strongly negative radicand


def test_unitarity_outside_unit_interval_is_rejected():
    # a NaN u gave b_ru = b_hybrid = NaN with "ru" as the hybrid winner, an
    # infinite one an infinite bound, and u = 2 a clamped one
    for u in (math.nan, math.inf, 2.0, 1.0 + 1e-9, -0.1):
        with pytest.raises(ValueError):
            bound_ru(0.01, u, 4)
        with pytest.raises(ValueError):
            certificate_bundle(4, 0.99, 0.005, u=u)
    # within the 1e-12 rounding slack above 1, u is a unitary's
    assert bound_ru(0.01, 1.0 + 1e-13, 4) == pytest.approx(bound_ru(0.01, 1.0, 4))


def test_bound_ru_u1_collapse_ratio():
    for d in (2, 4, 8, 1024):
        target = d / math.sqrt(2.0)
        for r in (1e-8, 1e-5, 0.3 / (d * (d + 1))):
            ratio = bound_ru(r, 1.0, d) / bound_fidelity_only(r, d)
            assert abs(ratio - target) <= 1e-12 * target


def test_certified_overlap_identity():
    bundle = certificate_bundle(4, 1.0, 0.0)
    assert bundle.c_value == pytest.approx(1.0)
    assert bundle.b_fd == pytest.approx(0.0, abs=1e-12)


def test_certified_overlap_cz_saturates():
    for phi in CZ_GRID + (math.pi / 2, math.pi):
        s = fd_from_unitary(build_cz_error(phi))
        assert certificate_bundle(4, s.F, s.D).c_value == pytest.approx(
            math.cos(phi / 2), abs=1e-10
        )


def test_certified_overlap_small_dimension_rejected():
    with pytest.raises(ValueError):
        certificate_bundle(2, 0.99, 0.001)


def test_out_of_range_data_is_rejected():
    # no error has F outside [0, 1], a negative D or a non-finite moment:
    # certificate_bundle and tightness_witness refuse such data
    bad = [
        (1.5, 0.0),
        (1.0 + 1e-9, 0.0),
        (-0.1, 0.01),
        (0.99, -0.01),
        (0.99, math.nan),
        (math.nan, 0.001),
        (0.99, math.inf),
    ]
    for F, D in bad:
        with pytest.raises(ValueError):
            tightness_witness(F, D, 4)
        with pytest.raises(ValueError):
            certificate_bundle(4, F, D)
    # F within the 1e-12 rounding slack above 1 is the identity's data
    assert certificate_bundle(4, 1.0 + 1e-13, 0.0).b_fd == 0.0


def test_dimension_that_does_not_exist_is_rejected():
    # d = 4.5 was certified (b_fd = 0.1106), and bound_ru divided by zero at
    # d = 1; the certificate core checks d for the bundle and the witness
    for d in (4.5, 4.0, np.float64(8.0)):
        with pytest.raises(ValueError):
            certificate_bundle(d, 0.99, 0.002)
        with pytest.raises(ValueError):
            tightness_witness(0.99, 0.002, d)
    # the conversions too: sqrt(d (d+1) r) is finite at d = 4.5 or -3
    for d in (1, 0, -3, 4.5, np.float64(8.0)):
        with pytest.raises(ValueError):
            bound_ru(0.1, 1.0, d)
        with pytest.raises(ValueError):
            bound_fidelity_only(0.1, d)
    assert certificate_bundle(np.int64(4), 0.99, 0.002) == certificate_bundle(4, 0.99, 0.002)


def test_certified_overlap_toffoli_validity():
    x = build_model_error("toffoli", 0.1)
    s = fd_from_unitary(x)
    assert certificate_bundle(8, s.F, s.D).b_fd >= diamond_exact(x) - 1e-9


def test_bound_fd_cz_tightness():
    for phi in CZ_GRID:
        s = fd_from_unitary(build_cz_error(phi))
        assert abs(certificate_bundle(4, s.F, s.D).b_fd - abs(math.sin(phi / 2))) <= 1e-9


def test_bound_fd_cz_tight_where_the_relaxation_is_vacuous():
    # beyond phi = 2.2774 the CZ relaxation root reaches 1 - c >= 1 without
    # being attained; the certificate returned 1 there in place of the
    # two-point family's |sin(phi/2)|, on the exact and the measured path
    for phi in (2.3, 2.5, 2.8, 3.0, math.pi):
        x = build_cz_error(phi)
        s = fd_from_unitary(x)
        for bundle in (certificate_bundle(4, s.F, s.D), certificate_bundle(4, s.F, s.D, x=x)):
            assert bundle.b_fd == pytest.approx(abs(math.sin(phi / 2)), rel=1e-9, abs=0.0)


def test_bound_fd_qft_orderings():
    x = build_model_error("qft", 0.05, 4)
    s = fd_from_unitary(x)
    b_fd = certificate_bundle(16, s.F, s.D).b_fd
    assert diamond_exact(x) <= b_fd + 1e-9
    if b_fd > bound_fidelity_only(s.r, 16):
        warnings.warn("moment-assisted bound looser than fidelity-only at this point")


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


def test_bundle_with_unitary_certifies_its_own_moments():
    # with x the bundle reads r and D off x's eigenphases: at phi = 1e-6 the
    # CZ certificate is |sin(phi/2)|, although 1 - F keeps only about four
    # digits of r there
    phi = 1e-6
    x = build_cz_error(phi)
    s = fd_from_unitary(x)
    bundle = certificate_bundle(4, s.F, s.D, u=1.0, x=x)
    assert bundle.b_fd == pytest.approx(math.sin(phi / 2), rel=1e-12)
    assert bundle.d_exact == pytest.approx(math.sin(phi / 2), rel=1e-12)
    # moments that are not x's own, beyond float64 resolution, are refused
    s = fd_from_unitary(build_cz_error(0.3))
    for F, D in ((s.F - 1e-12, s.D), (s.F, s.D * (1 + 1e-6))):
        with pytest.raises(ValueError):
            certificate_bundle(4, F, D, x=build_cz_error(0.3))


def test_bundle_rejects_unitary_of_another_dimension():
    # x's moments read as data of another dimension would be certified
    # against that dimension's invariants, not x's own
    x = build_cz_error(0.3)
    s = fd_from_unitary(x)
    for d in (2, 8, 16):
        with pytest.raises(ValueError, match="dimension"):
            certificate_bundle(d, s.F, s.D, u=1.0, x=x)


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
            c = certificate_bundle(d, F, float(dv)).c_value
            if last is not None:
                assert c <= last + 1e-10
            last = c
        assert last is not None  # the grid did exercise the branch


def test_witness_identity():
    w = tightness_witness(1.0, 0.0, 4)
    assert np.abs(w.matrix - np.eye(4)).max() < 1e-12


def test_witness_roundtrip_random():
    rng = np.random.default_rng(21)
    for done in range(20):
        d = 4 if done % 2 == 0 else 8
        x = _near_identity_unitary(d, rng, scale=rng.uniform(0.05, 0.3))
        s = fd_from_unitary(x)
        w = tightness_witness(s.F, s.D, d)
        ws = fd_from_unitary(w)
        assert abs(ws.F - s.F) <= 1e-9
        assert ws.r == pytest.approx(s.r, rel=1e-9, abs=0.0)
        assert ws.D == pytest.approx(s.D, rel=1e-9, abs=0.0)
        b_fd = certificate_bundle(d, s.F, s.D).b_fd
        assert diamond_exact(w) == pytest.approx(b_fd, rel=1e-9, abs=0.0)
        assert b_fd >= diamond_exact(x) * (1 - 1e-9)


def test_witness_rejects_odd_or_small_dimension():
    with pytest.raises(ValueError):
        tightness_witness(0.99, 0.001, 5)
    with pytest.raises(ValueError):
        tightness_witness(0.99, 0.001, 2)


def _assert_witness_attains(F, D, d):
    """tightness_witness(F, D, d) reproduces r = 1 - F and D, and its
    diamond distance is b_fd, each to 1e-9 relative; returns b_fd."""
    w = tightness_witness(F, D, d)
    ws = fd_from_unitary(w)
    assert ws.r == pytest.approx(1.0 - F, rel=1e-9, abs=0.0)
    assert ws.D == pytest.approx(D, rel=1e-9, abs=0.0)
    b_fd = certificate_bundle(d, F, D).b_fd
    assert diamond_exact(w) == pytest.approx(b_fd, rel=1e-9, abs=0.0)
    return b_fd


def test_witness_on_two_point_families():
    # the two-point branch is attained by {0^(d-p), g^p}: CZ, the paper's
    # tight example, up to phi = pi, an odd d, and p = 4 and 7 eigenvalues
    # at g (a global phase makes them the split p = 1; families with both
    # clusters of two or more lie on the relaxation branch)
    for phi in CZ_GRID + (math.pi / 2, 2.5, 3.0, math.pi):
        s = fd_from_unitary(build_cz_error(phi))
        assert _assert_witness_attains(s.F, s.D, 4) == pytest.approx(abs(math.sin(phi / 2)), rel=1e-9)
    for phases in (np.repeat([0.0, 0.8], [1, 4]), np.repeat([0.0, 1.3], [1, 7])):
        b_fd = _assert_witness_attains(*_spectrum_fd(phases), len(phases))
        assert b_fd == pytest.approx(_diamond_from_phases(phases), rel=1e-9)


def test_witness_at_the_three_point_root():
    # the three-point search's best root {0^q, g^p, h^r} attains c(F, D)
    for d in (4, 8, 16, 24):
        rng = np.random.default_rng([0, d])
        for _ in range(3):
            phases, F, D = _three_point_spectrum(rng, d)
            assert _assert_witness_attains(F, D, d) >= _diamond_from_phases(phases) - 1e-12


def test_witness_refused_where_no_spectrum_attains_c():
    unknown, missed = "no spectrum is known", "miss the data"
    cz = fd_from_unitary(build_cz_error(1e-6))
    cases = [
        # the odd-d relaxation, whose root no conjugate-pair spectrum attains
        (*_spectrum_fd([-0.12, 0.22, -0.3, 0.19, 0.18]), 5, unknown),
        # beyond the three-point search's dimension cap
        (*_spectrum_fd(np.repeat([0.0, 0.5, -0.9], [70, 1, 1])), 72, unknown),
        # CZ at 1e-6 misses its family at r = 1 - F: the relaxation root
        (cz.F, cz.D, 4, unknown),
        # data that clamp the relaxation's radicand
        (0.99, 0.002, 4, unknown),
        # a near-identity three-point root, too imprecise to reproduce the
        # data until the three-point search runs in deviation coordinates
        (*_spectrum_fd(np.repeat([0.0, 0.715e-3, -1.129e-3], [6, 1, 1])), 8, missed),
    ]
    for F, D, d, reason in cases:
        with pytest.raises(ValueError, match=reason):
            tightness_witness(F, D, d)


def test_witness_only_where_the_relaxation_is_attained():
    # at these CZ points b_fd is the relaxation root, which no spectrum
    # attains: the witness built there missed the data's D by 2.7 %
    for phi in (1e-6, 5e-6):
        s = fd_from_unitary(build_cz_error(phi))
        try:
            w = tightness_witness(s.F, s.D, 4)
        except ValueError:
            continue
        assert fd_from_unitary(w).D == pytest.approx(s.D, rel=1e-9, abs=0.0)
        b_fd = certificate_bundle(4, s.F, s.D).b_fd
        assert diamond_exact(w) == pytest.approx(b_fd, rel=1e-9, abs=0.0)


def test_radicand_clamp_flag_on_inconsistent_data():
    # deep-error inputs inconsistent with a unitary: P^2 clamps, c vacuous
    bundle = certificate_bundle(4, 0.15, 0.3)
    assert bundle.c_value == 0.0
    assert bundle.b_fd == 1.0
    assert bundle.flags & (CertFlags.P2_CLAMPED | CertFlags.Q2_CLAMPED)


def _grid_resid(g, p, q, r, sgn, P, Q):
    """(|tr X^2 + (tr X)^2| - Q, h) in extended precision at the longdouble
    angles g, for the spectrum with q atoms at 0, p at g and r at h, where h
    is the sgn branch of the angle that makes |tr X| = P; the residual is NaN
    where no such h exists. p, q, r and sgn broadcast against g."""
    with np.errstate(divide="ignore", invalid="ignore"):
        Ag = q + p * np.exp(1j * g.astype(_CLD))
        aAg = np.abs(Ag)
        cd = (P * P - aAg * aAg - r * r) / (2 * r * aAg)
        ok = (aAg > 1e-12) & (cd >= -1) & (cd <= 1)
        hg = np.angle(Ag) + sgn * np.arccos(cd)
        t1g = Ag + r * np.exp(1j * hg.astype(_CLD))
        wg = q + p * np.exp(2j * g.astype(_CLD)) + r * np.exp(2j * hg.astype(_CLD)) + t1g * t1g
        return np.where(ok, np.abs(wg) - Q, np.nan), hg


def _pinned_max_span_grid(P, Q, d):
    """The three-point search as a root search on a 4096-point grid per
    split, with a 33-point sub-scan and a 90-step bisection of every marked
    interval: the reference that the algebraic solve of _pinned_max_span
    must reproduce to 1e-12 rad. The float64 grid runs per split; the
    extended-precision sub-scan of every marked interval is one call, and
    each bisection step runs over all brackets at once."""
    grid_points = 4096
    P = _LD(P)
    Q = _LD(Q)
    grid = np.linspace(1e-9, np.pi, grid_points)
    eg = np.exp(1j * grid)
    eg2 = eg * eg
    marked = []  # (p, q, r, sgn, i) per marked grid interval [grid[i], grid[i + 1]]
    for p in range(1, d - 1):
        for q in range(1, d - p):
            r = d - p - q
            A = q + p * eg
            aA = np.abs(A)
            cos_gap = (float(P * P) - aA * aA - r * r) / (2.0 * r * aA)
            in_domain = (np.abs(cos_gap) <= 1.0) & (aA > 1e-12)
            for sgn in (1.0, -1.0):
                with np.errstate(invalid="ignore"):
                    h = np.angle(A) + sgn * np.arccos(np.clip(cos_gap, -1.0, 1.0))
                t1 = A + r * np.exp(1j * h)
                w = q + p * eg2 + r * np.exp(2j * h) + t1 * t1
                resid = np.abs(w) - float(Q)
                near = np.abs(resid) <= 1e-12 * (1 + float(Q))
                # the intervals with both ends in the domain and a sign change
                # or a near-zero end
                skip = (resid[:-1] * resid[1:] > 0) & ~(near[:-1] | near[1:])
                for i in np.flatnonzero(in_domain[:-1] & in_domain[1:] & ~skip):
                    marked.append((p, q, r, sgn, i))
    if not marked:
        return None
    p, q, r, sgn, i = (np.array(v)[:, None] for v in zip(*marked))

    # sub-scan: brackets between consecutive sub-points that both have an h
    sub = np.linspace(grid[i[:, 0]], grid[i[:, 0] + 1], 33, axis=-1).astype(_LD)
    f, _ = _grid_resid(sub, p, q, r, sgn, P, Q)
    ends = (f[:, :-1] * f[:, 1:] <= 0) & ~np.isnan(f[:, :-1]) & ~np.isnan(f[:, 1:])
    row, col = np.nonzero(ends)
    lo, hi, flo = sub[row, col], sub[row, col + 1], f[row, col]
    p, q, r, sgn = (v[row, 0] for v in (p, q, r, sgn))

    alive = np.ones(lo.shape, dtype=bool)
    for _ in range(90):
        mid = (lo + hi) / 2
        fm, _ = _grid_resid(mid, p, q, r, sgn, P, Q)
        alive &= ~np.isnan(fm)
        left = flo * fm <= 0
        hi = np.where(left, mid, hi)
        lo, flo = np.where(left, lo, mid), np.where(left, flo, fm)
    groot = (lo + hi) / 2
    fr, hroot = _grid_resid(groot, p, q, r, sgn, P, Q)
    hf, gf = hroot.astype(np.float64), groot.astype(np.float64)
    closest = np.minimum(np.minimum(np.abs(hf), np.abs(gf)), np.abs(hf - gf))
    keep = alive & (np.abs(fr) <= 1e-16 * (1 + float(Q))) & (closest >= _ENDPOINT_TOL)
    if not keep.any():
        return None
    hf, gf = hf[keep], gf[keep]
    return float((np.maximum(np.maximum(hf, gf), 0.0) - np.minimum(np.minimum(hf, gf), 0.0)).max())


def _spectrum_fd(phases):
    s = fd_from_unitary(UnitaryOperator(np.diag(np.exp(1j * np.asarray(phases)))))
    return s.F, s.D


def _pq(F, D, d):
    """(P, Q) in extended precision as the certificate derives them from
    r = 1 - F and D."""
    _, P, Q, *_ = _relaxation_root(1.0 - F, D, d)
    return P, Q


def _search_reached(F, D, d, margin):
    """Whether c(F, D) comes from the three-point search: the relaxation
    root is positive and needs a bulk cosine of at least 1 + margin."""
    P, Q = _pq(F, D, d)
    rad = (d - 2) * (d * Q + d * d - (d + 2) * P * P)
    if rad < 0:
        return False
    b = P / d - np.sqrt(rad) / (2 * d)
    return b > 0 and (P - 2 * b) / (d - 2) >= 1 + margin


def _three_point_spectrum(rng, d):
    """Bulk at 1 plus two clusters at angles in [-1.2, 1.2] for which c(F, D)
    comes from the three-point search, with a bulk-cosine margin of 1e-6."""
    top = max(1, d // 4)
    while True:
        n1, n2 = (int(v) for v in rng.integers(1, top + 1, size=2))
        h, k = rng.uniform(-1.2, 1.2, size=2)
        if min(abs(h), abs(k), abs(h - k)) < 0.05:
            continue
        phases = np.repeat([0.0, h, k], [d - n1 - n2, n1, n2])
        F, D = _spectrum_fd(phases)
        if _search_reached(F, D, d, 1e-6):
            return phases, F, D


def _assert_matches_oracle(P, Q, d, tol=1e-12):
    found = _pinned_max_span(P, Q, d)
    oracle = _pinned_max_span_grid(P, Q, d)
    assert (found is None) == (oracle is None)
    if found is None:
        return None
    span, (phases, mult) = found
    assert abs(span - oracle) <= tol
    assert sum(mult) == d and np.ptp(phases) == span
    return span


def test_pinned_search_matches_scalar_oracle():
    for d in (4, 8, 16, 24):
        for seed in range(6):
            rng = np.random.default_rng([seed, d])
            for _ in range(4):
                _, F, D = _three_point_spectrum(rng, d)
                assert _assert_matches_oracle(*_pq(F, D, d), d) is not None


def test_pinned_search_two_point_and_no_bracket():
    for d, gap, p in ((4, 0.7, 1), (8, 1.3, 3), (8, 0.4, 2), (16, 0.4, 5)):
        F, D = _spectrum_fd(np.repeat([0.0, gap], [d - p, p]))
        # on the family the gap is closed-form
        dP = _relaxation_root(1.0 - F, D, d)[0]
        sin2, split = _two_point_sin2(dP, D, d, _FAMILY_RTOL)
        assert 2 * math.asin(math.sqrt(sin2)) == pytest.approx(gap, abs=1e-9)
        assert split == p
        if d > 8:
            continue
        # just off the family the search runs, through the tangential
        # valleys around it
        for rel in (-1e-6, -1e-9, 1e-9, 1e-6):
            _assert_matches_oracle(*_pq(F, D * (1 + rel), d), d)
    # Q = 0 is off every two-point family and the residual |w| - Q never
    # changes sign: no root, no span
    for d in (4, 8):
        P = _LD(d - 0.5)
        assert _assert_matches_oracle(P, _LD(0), d) is None


def test_pinned_search_near_identity():
    # many small phases: the roots of R cluster within about 1e-4 of
    # cos g = 1, which interpolation on all of [-1, 1] does not resolve but
    # nodes on each split's own interval do. The residual is flat there, so
    # the polished and the bisected roots agree to 1e-8 rad, not 1e-12
    rng = np.random.default_rng(1)
    done = 0
    while done < 40:
        d = int(rng.integers(4, 9))
        F, D = _spectrum_fd(rng.uniform(-1.5, 1.5) * rng.random(d) ** 3)
        if _search_reached(F, D, d, 1e-9):
            _assert_matches_oracle(*_pq(F, D, d), d, tol=1e-8)
            done += 1


def test_deviation_coordinate_forms_are_identities():
    # the certificate's forms in (r, D), checked in exact arithmetic: the
    # relaxation radicand against (d-2)(dQ + d^2 - (d+2) P^2), with
    # B (r^2 + D^2) = 2N(d+1)(d+2) r - dQ, and every two-point family's
    # D^2 = kappa_p dP^2 and sin^2(g/2) = dP/(4pq) against its traces
    sp = pytest.importorskip("sympy")
    d, r, Q = sp.symbols("d r Q", positive=True)
    n, k = d * (d + 1), (d + 1) * (d + 2)
    dQ = n**2 - Q**2
    trace_form = (d - 2) * (d * Q + d**2 - (d + 2) * (d**2 - n * r))
    deviation_form = (d - 2) * d * (2 * n * k * r - dQ - k * r * dQ / (n + Q)) / (n + Q)
    assert sp.cancel(deviation_form - trace_form) == 0

    c = sp.symbols("c", real=True)
    s = sp.sqrt(1 - c**2)  # the family's gap g has cos g = c
    for d in (4, 5, 8):
        n, big = d * (d + 1), d * (d + 1) * (d + 2) * (d + 3)
        for p in range(1, d):
            q = d - p
            t1 = (q + p * c, p * s)
            w = (q + p * (2 * c**2 - 1) + t1[0] ** 2 - t1[1] ** 2, 2 * p * c * s + 2 * t1[0] * t1[1])
            P2, Q2 = t1[0] ** 2 + t1[1] ** 2, w[0] ** 2 + w[1] ** 2
            F = (d + P2) / n
            E2 = (2 * d * (d + 3) + 4 * (d + 2) * P2 + Q2) / big
            dP = d**2 - P2
            kappa = (sp.Rational((q - p) ** 2 + d, p * q * d) - sp.Rational(2, n)) / big
            assert sp.expand(E2 - F**2 - kappa * dP**2) == 0
            assert sp.expand(dP / (4 * p * q) - (1 - c) / 2) == 0


def test_split_resultant_is_degree_six_in_cos_g():
    # the 7-node interpolant reproduces the resultant everywhere on [-1, 1]
    nodes = np.cos((np.arange(7) + 0.5) * np.pi / 7)
    other = np.cos((np.arange(25) + 0.5) * np.pi / 25)
    for d, p, q, P, Q in ((4, 1, 1, 3.5, 11.0), (8, 2, 5, 7.2, 60.0),
                          (16, 5, 3, 12.0, 150.0), (24, 1, 20, 23.9, 590.0)):
        r = d - p - q
        coef = np.polyfit(nodes, _split_resultant(nodes, p, q, r, P * P, Q * Q), 6)
        exact = _split_resultant(other, p, q, r, P * P, Q * Q)
        assert np.abs(np.polyval(coef, other) - exact).max() <= 1e-12 * np.abs(exact).max()


def _diamond_from_phases(phases):
    """sin((2 pi - G)/2) with G the largest gap of the sorted phases on the
    circle, or 1 when G <= pi."""
    th = np.sort(phases)
    gap = max(np.diff(th).max(), th[0] + 2 * math.pi - th[-1])
    return math.sin((2 * math.pi - gap) / 2) if gap > math.pi else 1.0


def test_bundle_b_fd_is_valid_on_every_branch():
    # measured (F, D) on every branch of c(F, D) certify at least the
    # diamond distance of the spectrum they came from
    rng = np.random.default_rng(31)
    spectra = [np.repeat([0.0, 0.7], [3, 1]), np.repeat([0.0, 0.9], [1, 7])]  # two-point
    spectra += [rng.uniform(-0.3, 0.3, d) for d in (4, 8, 16)]  # relaxation
    spectra += [_three_point_spectrum(rng, d)[0] for d in (4, 8)]  # three-point search
    spectra.append(np.repeat([0.0, 0.5, -0.9], [70, 1, 1]))  # beyond the search cap
    for phases in spectra:
        F, D = _spectrum_fd(phases)
        assert certificate_bundle(len(phases), F, D).b_fd >= _diamond_from_phases(phases) - 1e-12


def test_pinned_search_gives_up_on_a_vanishing_leading_coefficient():
    # near the identity a split's resultant can lose its leading coefficient;
    # the search then yields to the relaxation root instead of dividing by
    # zero (RuntimeWarning) and handing numpy a non-finite companion matrix
    # (LinAlgError)
    g = 10**-3.5
    spectra = [np.repeat([0.0, g, g / 4], [6, 1, 1]), np.repeat([0.0, g, 0.75 * g], [1, 6, 1])]
    for phases in spectra:
        x = UnitaryOperator(np.diag(np.exp(1j * phases)))
        s = fd_from_unitary(x)
        d_ref = _diamond_from_phases(phases)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bundle in (certificate_bundle(8, s.F, s.D), certificate_bundle(8, s.F, s.D, x=x)):
                assert bundle.b_fd >= d_ref, phases


def test_pinned_search_newton_polish_is_silent():
    # a zero slope in the Newton polish sends g to inf or NaN; the residual
    # filter drops that root, and numpy must not warn about the division
    spectra = [
        [3.933177137647687e-05, 4.036749558857906e-05, 4.329315032189135e-05,
         4.175667364750391e-05, 3.862252012759e-05, -0.00010198250814383933],
        [0.001739439325200969, 0.0017394452038422441, 0.0017394711464082005,
         0.001739426849549089],
    ]
    for phases in spectra:
        x = UnitaryOperator(np.diag(np.exp(1j * np.array(phases))))
        s = fd_from_unitary(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bundle = certificate_bundle(len(phases), s.F, s.D, x=x)
        assert bundle.b_fd >= bundle.d_exact, phases


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
    for d, seeds in ((4, range(6)), (8, range(6)), (16, range(2))):
        for seed in seeds:
            rng = np.random.default_rng([seed, d])
            phases, F, D = _three_point_spectrum(rng, d)
            P, Q = _pq(F, D, d)
            span, _ = _pinned_max_span(P, Q, d)
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

            d_ref = _diamond_from_phases(phases)
            assert certificate_bundle(d, F, D).b_fd >= d_ref - 1e-12
