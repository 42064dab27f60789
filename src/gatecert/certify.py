"""Worst-case certificates for coherent gate errors.

Exact diamond distance of a unitary error from the largest gap between its
eigenphases, the fidelity-only conversion bound, the (r, u)
unitarity-assisted bound, the (F, D) moment-assisted bound through the
certified overlap c(F, D), and the hybrid minimum of the two, all from
certificate_bundle, the one entry from (F, D) to a certificate.

c(F, D) lower-bounds the smallest minimum-overlap m(X) among unitaries X
whose spectral invariants P = |tr X| and Q = |tr X^2 + (tr X)^2| match the
observed moments. Every compatible spectrum lies on an arc of the unit
circle whose half-width determines m, so this is a max-spread problem with
two trace-moment constraints.

The certificate runs in the deviation coordinates of the infidelity r and
the deviation D. With N = d(d+1) and B = N(d+2)(d+3), two exact identities
give the distances of the invariants from the identity's,

    dP = d^2 - P^2 = N r,
    dQ = N^2 - Q^2 = 2N(d+1)(d+2) r - B (r^2 + D^2).

That inversion of the moment map lives in one place,
moments._moment_deviations, which both pq_from_fd and this certificate read.
Every quantity below is written in (r, D, dP, dQ) without cancellation at
leading order in the error angle (the trace forms cancel to fourth order
near the identity). The Cauchy-Schwarz relaxation of the problem has the
root

    b- = P/d - sqrt(R) / (2d),  R = (d-2) (dQ + d^2 - (d+2) P^2)
       = (d-2) d [B (r^2 + D^2) - (d+1)(d+2) r dQ/(N+Q)] / (N+Q),

attained by a two-angle conjugate-pair spectrum whose bulk cosine is
a = (P - 2 b-) / (d - 2). When a <= 1 that spectrum exists, so c = [b-]_+ is
the exact optimum. When a > 1 no conjugate-pair spectrum matches the data
(the relaxation alone is strictly loose there, e.g. on the CZ-like family
with a repeated eigenvalue); the extremal spectra then concentrate on at
most three support angles. On a two-point family (p eigenvalues at angle
g, d - p at 0) the gap is closed-form, sin(g/2) = sqrt(dP / (4p(d-p))).
Otherwise _pinned_max_span runs one algebraic solve over every multiplicity
split of three support angles (the resultant of the two trace constraints
is a degree-6 polynomial in the cosine of one angle; its roots come from one
batched companion eigensolve and a Newton polish in extended precision).
Beyond the search cap of d = 64 it falls back to the always-valid
relaxation root.

_certified_deficit_ld decides the branch once and returns the record
(1 - c, flags, spectrum), where spectrum() gives the phases and
multiplicities of a spectrum with the data's moments whose minimum overlap
is c, on each branch that solves the problem (the conjugate-pair spectrum of
the attained relaxation at even d, the two-point family, the three-point
search's best root), and spectrum is None on the odd-d relaxation, the
dim-cap and relaxation-root fallbacks and vacuous results.
tightness_witness is the diagonal unitary of that spectrum, kept when its
own (r, D) reproduce the data to 1e-9 relative; its diamond distance is
b_fd.

Unlike the plain relaxation, the exact boundary-corrected certificate is not
globally monotone in D at fixed r: crossing the attainability seam can raise
it slightly (verified against direct constrained optimization).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntFlag
from functools import partial

import numpy as np

# not called here: bench/run.py traces the hull routines under these names
from .geometry import convex_hull, distance_origin_to_hull  # noqa: F401
from .linalg import UnitaryOperator, eigenvalues_unitary
from .moments import _check_fd, _check_integer, _moment_deviations, fd_from_unitary

_LD = np.longdouble
_CLD = np.clongdouble
_LD_ZERO = _LD(0)
_LD_ONE = _LD(1)
_LD_PI = _LD(np.pi)

# a - 1 <= _BULK_RTOL dP keeps the relaxation branch: a - 1 and dP both
# scale as the squared error angle, so a tolerance that does not scale with
# dP sends every small enough error to the relaxation
_BULK_RTOL = 1e-12
# relative tolerance on D^2 of the two-point family test. On-family data
# lands within 4e-16 of its family curve when (r, D) come from eigenphases,
# and within about 2 eps / r when r = 1 - F (3.4e-13 on the benchmark's
# two-point spectra). The other side: a spectrum whose D^2 lies within tol
# of a family curve can span up to about 0.6 sqrt(tol) more than the family
# gap (one eigenvalue split off the cluster), which is 2e-6 here
_FAMILY_RTOL = 1e-11
# the relative float64 rounding of r = 1 - F, a few eps
_R_ROUNDING = 4 * np.finfo(np.float64).eps
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


def diamond_exact(x: UnitaryOperator) -> float:
    """Exact diamond distance of a unitary error from its eigenphases.

    With G the largest gap between the sorted phases on the circle, the
    spectrum covers an arc of 2 pi - G, and the distance is sin((2 pi - G)/2),
    or 1 when G <= pi (the origin then lies in the spectrum's convex hull).
    This equals sqrt(1 - m^2) for the minimum overlap m = max(0, -cos(G/2)),
    without its cancellation.
    """
    th = np.sort(np.angle(eigenvalues_unitary(x)))
    # the arc is th[-1] - th[0] when the largest gap wraps through pi, so no
    # rounding of 2 pi enters the small arcs of a near-identity error
    arc = float(th[-1] - th[0])
    if th.size > 1:
        gap = float(np.diff(th).max())
        if gap > 2 * math.pi - arc:
            arc = 2 * math.pi - gap
    return math.sin(arc / 2) if arc < math.pi else 1.0


def bound_fidelity_only(r: float, d: int) -> float:
    """Fidelity-only conversion: sqrt(d (d+1) r), unclamped."""
    _check_integer("dimension d", d, 2)
    if not -1e-12 <= r <= 1.0 + 1e-12:
        raise ValueError(f"infidelity r must lie in [0, 1], got {r}")
    return math.sqrt(d * (d + 1) * max(r, 0.0))


def bound_ru(r: float, u: float, d: int) -> float:
    """Unitarity-assisted bound: d^2 c_d sqrt(u + 2dr/(d-1) - 1), unclamped."""
    _check_integer("dimension d", d, 2)
    if not -1e-12 <= r <= 1.0 + 1e-12:
        raise ValueError(f"infidelity r must lie in [0, 1], got {r}")
    if not (math.isfinite(u) and 0.0 <= u <= 1.0 + 1e-12):
        raise ValueError(f"unitarity u must lie in [0, 1], got {u}")
    # grouped as (u - 1) + ... : u + ... - 1 cancels catastrophically at u = 1
    radicand = (u - 1.0) + 2.0 * d * max(r, 0.0) / (d - 1.0)
    if radicand < -1e-12:
        raise ValueError(
            f"(r, u) = ({r}, {u}) are inconsistent: negative radicand {radicand:.3e}"
        )
    c_d = 0.5 * math.sqrt(1.0 - 1.0 / d**2)
    return d * d * c_d * math.sqrt(max(radicand, 0.0))


def _two_point_sin2(dP, D, d: int, family_rtol: float):
    """(sin^2(g/2), p) of the widest two-point spectrum (p eigenvalues at
    angle g, q = d - p at 0) that matches (dP, D), or None when the data lies
    on no two-point family.

    On the family of split p both moments are closed-form in g, and so in
    each other: sin^2(g/2) = dP / (4pq) and D^2 = kappa_p dP^2 with
    kappa_p = [((q - p)^2 + d) / (pqd) - 2/N] / B. The data lies on the
    family when D^2 matches kappa_p dP^2 to family_rtol relative. These
    spectra are the extremal ones whenever the relaxation's equality case is
    unattainable (cross-validated against direct constrained optimization at
    d = 4, 8).
    """
    dd = _LD(d)
    n = dd * (dd + 1)
    p = np.arange(1, d // 2 + 1).astype(_LD)
    q = dd - p
    kappa = (((q - p) ** 2 + dd) / (p * q * dd) - 2 / n) / (n * (dd + 2) * (dd + 3))
    D2 = _LD(D) ** 2
    sin2 = dP / (4 * p * q)
    on = (sin2 <= 1 + _R_ROUNDING) & (np.abs(D2 - kappa * dP * dP) <= family_rtol * D2)
    k = on.argmax()  # sin2 falls as p grows: the first family on is the widest
    # c = sqrt(1 - sin2) resolves only about sqrt(eps) near g = pi: a 1 - sin2
    # within the float64 rounding of r is 0, the valid weaker c = 0
    sin2 = _LD_ONE if abs(1 - sin2[k]) <= _R_ROUNDING else sin2[k]
    return (sin2, k + 1) if on[k] else None


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


def _pinned_max_span(P, Q, d: int):
    """Maximal angular spread over spectra with three support angles
    {0, h, g} matching the invariants (the extremal structure when the
    relaxation's equality case is unattainable and the data lies on no
    two-point family; cross-validated against direct constrained
    optimization at d = 4, 8 and 16 in the tests).

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
    and roots that Newton moved out of g in (0, pi]. Returns the span
    max(0, h, g) - min(0, h, g) of the best root with its spectrum, the
    phases [0, g, h] and multiplicities [q, p, r], or None when no root
    survives.
    """
    P = _LD(P)
    Q = _LD(Q)
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
    with np.errstate(divide="ignore", invalid="ignore"):
        top = -(coef[1:] / coef[0]).T
    if not np.all(np.isfinite(top)):
        # a split whose leading coefficient vanished: give the search up, so
        # the caller falls back to the relaxation root, which is always valid
        return None
    companion = np.zeros((p.size, 6, 6))
    companion[:, 1:, :-1] = np.eye(5)
    companion[:, 0] = top
    roots = np.linalg.eigvals(companion).real
    inside = np.abs(roots) <= 1
    g = np.arccos((mid + half * roots)[inside]).astype(_LD)
    p, q, r = (np.broadcast_to(v, roots.shape)[inside] for v in (p, q, r))
    g, p, q, r, sgn = np.broadcast_arrays(g, p, q, r, np.array([[1.0], [-1.0]]))

    # a zero slope sends g to inf or NaN; its residual is NaN, which keep drops
    with np.errstate(divide="ignore", invalid="ignore"):
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
    hf, gf, p, q, r = (v[keep] for v in (hf, gf, p, q, r))
    span = np.maximum(np.maximum(hf, gf), 0.0) - np.minimum(np.minimum(hf, gf), 0.0)
    k = span.argmax()
    return float(span[k]), ([0.0, gf[k], hf[k]], [q[k], p[k], r[k]])


def _relaxation_root(r, D, d: int):
    """The relaxation at infidelity r and deviation D, in extended precision.

    Returns (dP, P, Q, 1 - b-, a - 1, flags): the deficit of the relaxation
    root b- and the bulk cosine's excess over 1, both in forms that do not
    cancel at leading order, with the radicand R clamped at 0,

        1 - b- = [2 (d - P) + sqrt(R)] / (2d),
        a - 1  = [sqrt(R) / (d - 2) - (d - P)] / d,

    with d - P = dP / (d + P). dP and dQ come from moments._moment_deviations,
    whose clamps to the unitarity ranges set P2_CLAMPED and Q2_CLAMPED, and
    a negative R sets C_RADICAND_CLAMPED.
    """
    dP, dQ, w, dP_clamped, dQ_clamped = _moment_deviations(r, D, d)
    flags = CertFlags.NONE
    if dP_clamped:
        flags |= CertFlags.P2_CLAMPED
    if dQ_clamped:
        flags |= CertFlags.Q2_CLAMPED
    dd = _LD(d)
    n = dd * (dd + 1)
    P = np.sqrt(dd * dd - dP)
    Q = np.sqrt(n * n - dQ)
    radicand = (dd - 2) * dd * (w - (dd + 1) * (dd + 2) * (dP / n) * dQ / (n + Q)) / (n + Q)
    if radicand < 0:
        flags |= CertFlags.C_RADICAND_CLAMPED
    root = np.sqrt(max(radicand, _LD_ZERO))
    d_less_p = dP / (dd + P)
    deficit = (2 * d_less_p + root) / (2 * dd)
    return dP, P, Q, deficit, (root / (dd - 2) - d_less_p) / dd, flags


def _bound_from_deficit(e) -> float:
    """sqrt(1 - c^2) from the deficit e = 1 - c, as sqrt(e (2 - e)) in
    extended precision."""
    return float(np.sqrt(e * (2 - e)))


def _conjugate_pairs(bulk_excess, deficit, d: int):
    """The relaxation's spectrum {+-alpha^((d-2)/2), +-beta}, from the
    half-angle forms sin^2(alpha/2) = -(a - 1)/2 and sin^2(beta/2) = (1 - b-)/2,
    which do not cancel near the identity; a may exceed 1 by the _BULK_RTOL dP
    the branch allows."""
    alpha, beta = (2 * math.asin(math.sqrt(s)) for s in (max(-bulk_excess / 2, 0), deficit / 2))
    return [alpha, -alpha, beta, -beta], [(d - 2) // 2] * 2 + [1, 1]


def _two_point(sin2, p: int, d: int):
    """The two-point family's spectrum {0^(d-p), g^p} with sin^2(g/2) = sin2."""
    return [0.0, 2 * math.asin(math.sqrt(sin2))], [d - p, p]


def _certified_deficit_ld(r, D, d: int, family_rtol: float = _FAMILY_RTOL):
    """The certificate at infidelity r and deviation D: (1 - c in extended
    precision, warning flags, spectrum). spectrum() returns (phases,
    multiplicities) of a spectrum with the data's moments whose minimum
    overlap is c, on every branch that solves the problem: the relaxation's
    conjugate-pair spectrum at even d with no clamp flag set, the two-point
    family's and the three-point search's best root. spectrum is None on the
    odd-d relaxation, the dim-cap and relaxation-root fallbacks and vacuous
    results, where c is a bound that no spectrum is known to attain. The
    phases are built only when called, so the certificate itself does not
    pay for them."""
    _check_integer("dimension d", d, 0)
    if d < 4:
        raise ValueError(
            "the (F, D) certificate requires d >= 4; at d = 2, D = (1 - F)/sqrt(5) is fixed by F"
        )
    dP, P, Q, deficit, bulk_excess, flags = _relaxation_root(r, D, d)
    if bulk_excess <= _BULK_RTOL * dP:
        if deficit >= 1 or d % 2 or flags:
            return min(deficit, _LD_ONE), flags, None
        return deficit, flags, partial(_conjugate_pairs, bulk_excess, deficit, d)
    # the relaxation's equality spectrum would need a bulk cosine above 1;
    # there the extremum concentrates on at most three support angles
    found = _two_point_sin2(dP, D, d, family_rtol)
    if found is not None:
        sin2, p = found
        return sin2 / (1 + np.sqrt(1 - sin2)), flags, partial(_two_point, sin2, p, d)
    found = _pinned_max_span(P, Q, d) if d <= _PINNED_MAX_DIM else None
    if found is None:
        return min(deficit, _LD_ONE), flags, None
    span, spectrum = found
    if span >= float(_LD_PI):
        return _LD_ONE, flags, None
    return 2 * np.sin(_LD(span) / 4) ** 2, flags, lambda: spectrum


def tightness_witness(F: float, D: float, d: int) -> UnitaryOperator:
    """Diagonal unitary with the observed moments whose diamond distance is
    the certificate b_fd: it attains c(F, D).

    Its eigenphases are the spectrum that the certificate core records with
    c: the relaxation's conjugate-pair spectrum at even d, the two-point
    family {0^(d-p), g^p}, or the three-point search's best root
    {0^q, g^p, h^r}. It is returned only when its own (r, D) reproduce the
    data's to 1e-9 relative; where the core records no spectrum, or its
    spectrum misses the data, ValueError.
    """
    _check_fd(F, D)
    r = 1.0 - F
    _, _, spectrum = _certified_deficit_ld(r, D, d)
    if spectrum is None:
        raise ValueError("no spectrum is known to attain c(F, D) at these data")
    witness = UnitaryOperator(np.diag(np.exp(1j * np.repeat(*spectrum()))))
    s = fd_from_unitary(witness)
    if abs(s.r - r) > 1e-9 * r or abs(s.D - D) > 1e-9 * D:
        raise ValueError(f"the spectrum's (r, D) = ({s.r}, {s.D}) miss the data ({r}, {D})")
    return witness


def certificate_bundle(
    d: int,
    F: float,
    D: float,
    u: float | None = None,
    x: UnitaryOperator | None = None,
    family_rtol: float = _FAMILY_RTOL,
) -> CertificateBundle:
    """Every certificate for one data point; the one way from (F, D) to b_fd
    and c_value = c(F, D), which need d >= 4.

    Measured data are certified at r = 1 - F. Given the error unitary x, of
    dimension d or ValueError, the bundle certifies x's own (r, D): the
    moments fd_from_unitary keeps on x, from the eigenphases that also give
    the exact diamond distance. F and D must then be x's own to float64
    resolution (F to 4 eps, D^2 to 8 eps), or ValueError. When u is supplied
    the (r, u) bound is included. The hybrid is the minimum of the (r, u)
    and (F, D) bounds present. family_rtol widens the two-point family test
    on D^2, used when (F, D) carry statistical noise.
    """
    _check_fd(F, D)
    r = 1.0 - F
    if x is not None:
        if d != x.dim:
            raise ValueError(f"d = {d} is not the dimension {x.dim} of x")
        s = fd_from_unitary(x)
        eps = np.finfo(float).eps
        if abs(F - s.F) > 4 * eps or abs(D * D - s.D * s.D) > 8 * eps:
            raise ValueError(
                f"(F, D) = ({F}, {D}) are not the moments ({s.F}, {s.D}) of x"
            )
        r, D = s.r, s.D
    deficit, flags, _ = _certified_deficit_ld(r, D, d, family_rtol)
    b_fd_val = _bound_from_deficit(deficit)
    r = min(max(r, 0.0), 1.0)

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
        c_value=float(1 - deficit),
        b_fidelity_only_raw=bf_raw,
        b_ru_raw=bru_raw,
        hybrid_winner=winner,
        flags=flags,
    )
