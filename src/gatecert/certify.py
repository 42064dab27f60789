"""Worst-case certificates for coherent gate errors.

Exact diamond distance and minimum overlap of a unitary error from the
largest gap between its eigenphases, the fidelity-only conversion bound, the
(r, u) unitarity-assisted bound, the (F, D) moment-assisted bound through the
certified overlap c(F, D), and the hybrid minimum of the two.

c(F, D) lower-bounds the smallest minimum-overlap m(X) among unitaries X
whose spectral invariants (P, Q) match the observed (F, D). Every compatible
spectrum lies on an arc of the unit circle whose half-width determines m, so
this is a max-spread problem with two trace-moment constraints. The
Cauchy-Schwarz relaxation of that problem has the closed-form root

    b- = P/d - sqrt((d-2) (dQ + d^2 - (d+2) P^2)) / (2d),

attained by a two-angle conjugate-pair spectrum whose bulk cosine is
a = (P - 2 b-) / (d - 2). When a <= 1 that spectrum exists, so c = [b-]_+ is
the exact optimum. When a > 1 no conjugate-pair spectrum matches the data
(the relaxation alone is strictly loose there, e.g. on the CZ-like family
with a repeated eigenvalue); the extremal spectra then concentrate on at
most three support angles, and _pinned_max_span solves that case: closed
form on the two-point families, and otherwise one algebraic solve over every
multiplicity split of three support angles (the resultant of the two trace
constraints is a degree-6 polynomial in the cosine of one angle; its roots
come from one batched companion eigensolve and a Newton polish in extended
precision). Beyond the search cap of d = 64 it falls back to the
always-valid relaxation root.
Everything runs in extended precision since the radicand cancels to fourth
order in the error angle near the identity. Unlike the plain relaxation, the
exact boundary-corrected certificate is not globally monotone in D at fixed
F: crossing the attainability seam can raise it slightly (verified against
direct constrained optimization).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntFlag

import numpy as np

# not called here: bench/run.py traces the hull routines under these names
from .geometry import convex_hull, distance_origin_to_hull  # noqa: F401
from .linalg import UnitaryOperator, eigenvalues_unitary
from .moments import _pq_from_fd_ld

_LD = np.longdouble
_CLD = np.clongdouble
_LD_ZERO = _LD(0)
_LD_ONE = _LD(1)
_LD_PI = _LD(np.pi)

_BULK_COS_TOL = _LD(1e-12)  # a <= 1 + tol keeps the relaxation branch
# membership tolerance for the two-point families: on-family data computed
# from float64 (F, D) lands below 1e-15 relative, while data merely near a
# family (all families meet at the identity) stays above 1e-13 on the
# benchmark surface
_TWO_POINT_RTOL = 5e-15
_PINNED_MAX_DIM = 64  # three-point search cap; beyond it keep the relaxation
# interior atoms closer than this to another atom form degenerate two-point
# configurations, where the search residual is tangential and root positions
# are numerically meaningless; the two-point closed form covers those exactly
_ENDPOINT_TOL = 5e-4


class CertFlags(IntFlag):
    NONE = 0
    P2_CLAMPED = 1
    Q2_CLAMPED = 2
    C_RADICAND_CLAMPED = 4
    BOUND_CLAMPED = 8
    D_TRUNCATED = 16


@dataclass(frozen=True)
class CertificateBundle:
    """All certificates for one (F, D[, u]) data point; raw values kept
    alongside the [0, 1]-clamped bounds."""

    dim: int
    d_exact: float | None
    b_fidelity_only: float
    b_ru: float | None
    b_fd: float
    b_hybrid: float
    c_value: float
    b_fidelity_only_raw: float
    b_ru_raw: float | None
    hybrid_winner: str
    flags: CertFlags


def _eigenphase_arc(x: UnitaryOperator) -> float:
    """Length 2 pi - G of the shortest arc holding the spectrum of x, where G
    is the largest gap between its sorted eigenphases on the circle."""
    th = np.sort(np.angle(eigenvalues_unitary(x)))
    # the arc is th[-1] - th[0] when the largest gap wraps through pi, so no
    # rounding of 2 pi enters the small arcs of a near-identity error
    arc = float(th[-1] - th[0])
    if th.size > 1:
        gap = float(np.diff(th).max())
        if gap > 2 * math.pi - arc:
            arc = 2 * math.pi - gap
    return arc


def min_overlap_exact(x: UnitaryOperator) -> float:
    """Distance from the origin to the convex hull of the spectrum,
    m = max(0, -cos(G/2)) with G the largest eigenphase gap, evaluated as
    max(0, cos((2 pi - G)/2))."""
    return max(0.0, math.cos(_eigenphase_arc(x) / 2))


def diamond_exact(x: UnitaryOperator) -> float:
    """Exact diamond distance of a unitary error from its eigenphases.

    With G the largest gap between the sorted phases on the circle, the
    spectrum covers an arc of 2 pi - G, and the distance is sin((2 pi - G)/2),
    or 1 when G <= pi (the origin then lies in the spectrum's convex hull).
    This equals sqrt(1 - m^2) with m = min_overlap_exact(x), without its
    cancellation.
    """
    arc = _eigenphase_arc(x)
    return math.sin(arc / 2) if arc < math.pi else 1.0


def bound_fidelity_only(r: float, d: int) -> float:
    """Fidelity-only conversion: sqrt(d (d+1) r), unclamped."""
    if not -1e-12 <= r <= 1.0 + 1e-12:
        raise ValueError(f"infidelity r must lie in [0, 1], got {r}")
    return math.sqrt(d * (d + 1) * max(r, 0.0))


def bound_ru(r: float, u: float, d: int) -> float:
    """Unitarity-assisted bound: d^2 c_d sqrt(u + 2dr/(d-1) - 1), unclamped."""
    if not -1e-12 <= r <= 1.0 + 1e-12:
        raise ValueError(f"infidelity r must lie in [0, 1], got {r}")
    # grouped as (u - 1) + ... : u + ... - 1 cancels catastrophically at u = 1
    radicand = (u - 1.0) + 2.0 * d * max(r, 0.0) / (d - 1.0)
    if radicand < -1e-12:
        raise ValueError(
            f"(r, u) = ({r}, {u}) are inconsistent: negative radicand {radicand:.3e}"
        )
    c_d = 0.5 * math.sqrt(1.0 - 1.0 / d**2)
    return d * d * c_d * math.sqrt(max(radicand, 0.0))


def _two_point_span(P, Q, d: int, family_rtol: float):
    """Angular gap of a two-point spectrum (q eigenvalues at one angle, p at
    another) matching the invariants, or None when the data is off every
    two-point curve.

    For such spectra the gap g is fixed by P alone, cos g = (P^2 - p^2 -
    q^2) / (2pq), which stays perfectly conditioned; the Q constraint then
    decides membership, at tolerance family_rtol. These spectra are the
    extremal ones whenever the relaxation's equality case is unattainable
    (cross-validated against direct constrained optimization at d = 4, 8).
    """
    P = _LD(P)
    Q = _LD(Q)
    best = None
    for p in range(1, d):
        q = d - p
        cg = (P * P - p * p - q * q) / (2 * _LD(p) * _LD(q))
        if -1 <= cg <= 1:
            g = np.arccos(cg)
            t1 = q + p * np.exp(1j * _CLD(g))
            w = q + p * np.exp(2j * _CLD(g)) + t1 * t1
            if abs(np.abs(w) - Q) <= family_rtol * (1 + Q):
                if best is None or float(g) > best:
                    best = float(g)
    return best


def _split_resultant(x, p, q, r, P2, Q2):
    """Resultant in w = e^{ih} of the two trace constraints on the spectrum
    with q atoms at 0, p at g and r at h, at x = cos g, in float64.

    With z = e^{ig} and alpha = q + p z, |tr X|^2 = P^2 times w is

        a(w) = r conj(alpha) w^2 + (|alpha|^2 + r^2 - P^2) w + r alpha,

    whose two roots w+- are the two branches of h, and |tr X^2 + (tr X)^2|^2
    = Q^2 times w^2 is b(w) = U(w) w^2 conj(U)(1/w) - Q^2 w^2 with
    U(w) = (q + p z^2 + alpha^2) + 2 r alpha w + r (r + 1) w^2. The resultant
    R = a_2^4 b(w+) b(w-) is a real polynomial of degree 6 in x. a_2 =
    r conj(alpha) vanishes only at x = -1 when p = q.
    """
    z = x + 1j * np.sqrt((1 - x) * (1 + x))
    alpha = q + p * z
    a2 = r * np.conj(alpha)
    a1 = np.abs(alpha) ** 2 + r * r - P2
    root = np.sqrt(a1 * a1 - 4 * a2 * r * alpha)
    u0, u1, u2 = q + p * z * z + alpha * alpha, 2 * r * alpha, r * (r + 1)

    def b(w):
        return (u0 + (u1 + u2 * w) * w) * ((np.conj(u0) * w + np.conj(u1)) * w + u2) - Q2 * w * w

    return (a2**4 * b((root - a1) / (2 * a2)) * b((-root - a1) / (2 * a2))).real


def _pinned_resid(g, p, q, r, sgn, P, Q):
    """Residual |tr X^2 + (tr X)^2| - Q, in extended precision, of the
    spectrum with q atoms at 0, p at g and r at h, where h is the sgn branch
    of the angle that makes |tr X| = P. Returns (residual, h, d residual/dg
    along the branch), all NaN where no such h exists. g is longdouble; p, q,
    r and sgn broadcast against it."""
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.exp(1j * g.astype(_CLD))
        a = q + p * z
        aa = np.abs(a)
        cd = (P * P - aa * aa - r * r) / (2 * r * aa)
        ok = (aa > 1e-12) & (cd >= -1) & (cd <= 1)
        h = np.where(ok, np.angle(a) + sgn * np.arccos(cd), np.nan)
        e = np.exp(1j * h.astype(_CLD))
        t1 = a + r * e
        w = q + p * z * z + r * e * e + t1 * t1
        # |t1| = P along the branch: Im(conj(t1) (p z + r e h')) = 0
        dh = -np.imag(np.conj(t1) * p * z) / np.imag(np.conj(t1) * r * e)
        dw = 2j * (p * z * (z + t1) + dh * r * e * (e + t1))
        return np.abs(w) - Q, h, np.real(np.conj(w) * dw) / np.abs(w)


def _pinned_max_span(P, Q, d: int, family_rtol: float):
    """Maximal angular spread over spectra with at most three support angles
    {0, h, g} matching the invariants (the extremal structure when the
    relaxation's equality case is unattainable; cross-validated against
    direct constrained optimization at d = 4, 8 and 16 in the tests).

    Along the curve where the first invariant holds, the angle h of the r
    atoms is closed-form in the angle g of the p atoms, so each multiplicity
    split (p, q, r) and branch of h leaves one equation in g. Eliminating h
    turns it into R(cos g) = 0 for the degree-6 polynomial of
    _split_resultant, solved for every split at once:

    1. per split, R is interpolated at the 7 Chebyshev nodes of the interval
       of x = cos g on which h exists, |P - r| <= |alpha| <= P + r, and one
       batched companion-matrix eigensolve gives the roots of every split;
    2. each real part inside its interval gives g = arccos(x), on both
       branches of h, and 4 Newton steps on the extended-precision residual
       polish it.

    Only roots driven to the extended-precision noise floor count, which
    drops the tangential valleys surrounding two-point data at double
    precision, as do roots whose atoms lie within _ENDPOINT_TOL of each other
    and roots that Newton moved out of g in (0, pi]. The span max(0, h, g) -
    min(0, h, g) of the best root is returned, or None when no root survives.
    """
    P = _LD(P)
    Q = _LD(Q)
    two_point = _two_point_span(P, Q, d, family_rtol)
    if two_point is not None:
        # data sits on a two-point family at its own resolution; finer
        # structure is unresolvable and the family gap is exact
        return two_point

    p, q = np.array([(p, q) for p in range(1, d - 1) for q in range(1, d - p)]).T
    r = d - p - q
    P64 = float(P)
    lo = np.maximum(((P64 - r) ** 2 - p * p - q * q) / (2 * p * q), -1.0)
    hi = np.minimum(((P64 + r) ** 2 - p * p - q * q) / (2 * p * q), 1.0)
    split = lo < hi
    p, q, r, lo, hi = (v[split, None] for v in (p, q, r, lo, hi))
    mid, half = (hi + lo) / 2, (hi - lo) / 2
    t = np.cos((np.arange(7) + 0.5) * np.pi / 7)
    R = _split_resultant(mid + half * t, p, q, r, P64 * P64, float(Q) ** 2)
    coef = np.linalg.solve(np.vander(t), R.T)
    companion = np.zeros((p.size, 6, 6))
    companion[:, 1:, :-1] = np.eye(5)
    companion[:, 0] = -(coef[1:] / coef[0]).T
    roots = np.linalg.eigvals(companion).real
    inside = np.abs(roots) <= 1
    g = np.arccos((mid + half * roots)[inside]).astype(_LD)
    p, q, r = (np.broadcast_to(v, roots.shape)[inside] for v in (p, q, r))
    g, p, q, r, sgn = np.broadcast_arrays(g, p, q, r, np.array([[1.0], [-1.0]]))

    for _step in range(4):
        f, _, slope = _pinned_resid(g, p, q, r, sgn, P, Q)
        g = g - f / slope
    fr, hroot, _ = _pinned_resid(g, p, q, r, sgn, P, Q)
    hf = hroot.astype(np.float64)
    gf = g.astype(np.float64)
    closest = np.minimum(np.minimum(np.abs(hf), np.abs(gf)), np.abs(hf - gf))
    keep = (np.abs(fr) <= 1e-16 * (1 + float(Q))) & (closest >= _ENDPOINT_TOL)
    keep &= (gf > 0) & (gf <= np.pi)
    if not keep.any():
        return None
    hf, gf = hf[keep], gf[keep]
    span = np.maximum(np.maximum(hf, gf), 0.0) - np.minimum(np.minimum(hf, gf), 0.0)
    return float(span.max())


def _relaxation_root(P2, Q2, d: int):
    """(P, Q, radicand, b-, a): the invariants' square roots, the radicand
    (d-2) (dQ + d^2 - (d+2) P^2), the relaxation root b- and the bulk cosine
    a = (P - 2 b-)/(d - 2), in extended precision. The radicand is returned
    as computed, so callers see its sign; b- uses it clamped at 0."""
    P = np.sqrt(P2)
    Q = np.sqrt(Q2)
    dd = _LD(d)
    radicand = (dd - 2) * (dd * Q + dd * dd - (dd + 2) * P2)
    b_minus = P / dd - np.sqrt(max(radicand, _LD_ZERO)) / (2 * dd)
    return P, Q, radicand, b_minus, (P - 2 * b_minus) / (dd - 2)


def _bound_from_overlap(c) -> float:
    """sqrt(1 - c^2), as sqrt((1 - c)(1 + c)) in extended precision."""
    return float(np.sqrt(np.maximum((_LD_ONE - c) * (_LD_ONE + c), _LD_ZERO)))


def _check_fd(F: float, D: float) -> None:
    """Reject (F, D) that no error can produce: non-finite values, F outside
    [0, 1] beyond the 1e-12 rounding slack, or a negative D."""
    if not (math.isfinite(F) and math.isfinite(D)):
        raise ValueError(f"F and D must be finite, got F = {F}, D = {D}")
    if not 0.0 <= F <= 1.0 + 1e-12:
        raise ValueError(f"fidelity F must lie in [0, 1], got {F}")
    if D < 0:
        raise ValueError(f"deviation D must be nonnegative, got {D}")


def _certified_overlap_ld(F: float, D: float, d: int, family_rtol: float = _TWO_POINT_RTOL):
    """Certified overlap in longdouble, plus warning flags."""
    if d < 4:
        raise ValueError(
            "certified_overlap requires d >= 4; at d = 2, D = (1 - F)/sqrt(5) is fixed by F"
        )
    _check_fd(F, D)
    flags = CertFlags.NONE
    P2, Q2, P2_raw, Q2_raw = _pq_from_fd_ld(F, D, d)
    if P2_raw < 0 or P2_raw > d * d:
        flags |= CertFlags.P2_CLAMPED
    if Q2_raw < 0 or Q2_raw > float((d + d * d) ** 2):
        flags |= CertFlags.Q2_CLAMPED
    P, Q, radicand, b_minus, bulk_cos = _relaxation_root(P2, Q2, d)
    if radicand < 0:
        flags |= CertFlags.C_RADICAND_CLAMPED
    if b_minus <= 0:
        return _LD_ZERO, flags
    if bulk_cos <= 1 + _BULK_COS_TOL or d > _PINNED_MAX_DIM:
        return np.clip(b_minus, _LD_ZERO, _LD_ONE), flags
    # the relaxation's equality spectrum would need a bulk cosine above 1;
    # there the extremum concentrates on at most three support angles
    span = _pinned_max_span(P, Q, d, family_rtol)
    if span is None:
        return np.clip(b_minus, _LD_ZERO, _LD_ONE), flags
    if span >= float(_LD_PI):
        return _LD_ZERO, flags
    c = np.cos(_LD(span) / 2)
    return np.clip(c, _LD_ZERO, _LD_ONE), flags


def certified_overlap(F: float, D: float, d: int) -> float:
    """Certified lower bound on the minimum overlap m(X) from (F, D)."""
    c, _ = _certified_overlap_ld(F, D, d)
    return float(c)


def bound_fd(F: float, D: float, d: int) -> float:
    """Moment-assisted worst-case bound sqrt(1 - c(F, D)^2)."""
    c, _ = _certified_overlap_ld(F, D, d)
    return _bound_from_overlap(c)


def tightness_witness(F: float, D: float, d: int) -> UnitaryOperator:
    """Two-angle diagonal unitary attaining c(F, D) with the observed moments.

    Spectrum: (d-2) eigenvalues in conjugate pairs e^{+-i alpha} and one pair
    e^{+-i beta} with cos(beta) = c(F, D), cos(alpha) = (P - 2c)/(d - 2).
    Exists only for admissible (F, D); inadmissible data (both derived
    cosines must lie in [-1, 1]) raises ValueError.
    """
    if d < 4:
        raise ValueError("tightness witness requires d >= 4")
    if d % 2:
        raise ValueError("tightness witness requires even d")
    _check_fd(F, D)
    P2, Q2, _, _ = _pq_from_fd_ld(F, D, d)
    _, _, radicand, b, a = _relaxation_root(P2, Q2, d)
    if radicand < 0:
        raise ValueError("inadmissible (F, D): negative certificate radicand")
    for name, val in (("bulk", float(a)), ("extremal", float(b))):
        if not -1 - 1e-12 <= val <= 1 + 1e-12:
            raise ValueError(
                f"inadmissible (F, D): derived {name} cosine {val} outside [-1, 1]"
            )
    alpha = float(np.arccos(np.clip(a, -_LD_ONE, _LD_ONE)))
    beta = float(np.arccos(np.clip(b, -_LD_ONE, _LD_ONE)))
    phases = [1j * alpha, -1j * alpha] * ((d - 2) // 2) + [1j * beta, -1j * beta]
    return UnitaryOperator(np.diag(np.exp(np.array(phases))))


def certificate_bundle(
    d: int,
    F: float,
    D: float,
    u: float | None = None,
    x: UnitaryOperator | None = None,
    family_rtol: float = _TWO_POINT_RTOL,
) -> CertificateBundle:
    """Assemble every certificate for one data point.

    When the error unitary x is supplied the exact diamond distance is
    included; when u is supplied the (r, u) bound is included. The hybrid is
    the minimum of the (r, u) and (F, D) bounds present. family_rtol widens
    the two-point family-membership test, used when (F, D) carry statistical
    noise.
    """
    r = min(max(1.0 - F, 0.0), 1.0)
    c, flags = _certified_overlap_ld(F, D, d, family_rtol)
    b_fd_val = _bound_from_overlap(c)

    bf_raw = bound_fidelity_only(r, d)
    if bf_raw > 1.0:
        flags |= CertFlags.BOUND_CLAMPED
    bf = min(bf_raw, 1.0)

    bru = bru_raw = None
    if u is not None:
        bru_raw = bound_ru(r, u, d)
        if bru_raw > 1.0:
            flags |= CertFlags.BOUND_CLAMPED
        bru = min(bru_raw, 1.0)

    winner = "fd" if bru is None or b_fd_val <= bru else "ru"

    d_exact = diamond_exact(x) if x is not None else None
    return CertificateBundle(
        dim=d,
        d_exact=d_exact,
        b_fidelity_only=bf,
        b_ru=bru,
        b_fd=b_fd_val,
        b_hybrid=b_fd_val if winner == "fd" else bru,
        c_value=float(c),
        b_fidelity_only_raw=bf_raw,
        b_ru_raw=bru_raw,
        hybrid_winner=winner,
        flags=flags,
    )
