"""Closed-form Haar moments of coherent (unitary) errors.

For an error unitary X on C^d, the average fidelity F and the second moment
E2 = D^2 + F^2 are fixed by two spectral invariants,

    P = |tr X|,    Q = |tr X^2 + (tr X)^2|,

via F = (d + P^2) / (d (d+1)) and
    E2 = (2d(d+3) + 4(d+2) P^2 + Q^2) / (d (d+1) (d+2) (d+3)).

D^2 = E2 - F^2 cancels to fourth order in the error angle near the identity,
and so does r = 1 - F to second order, so neither is taken from the traces.
Both come from the centred eigenvalues a_j = lambda_j - tr X / d: with
s2 = sum |a_j|^2, m4 = sum |a_j|^4, t = sum a_j^2, N = d (d+1) and
B = N (d+2) (d+3),

    r   = s2 / (d + 1),
    D^2 = [sum_j (d |a_j|^2 - s2)^2 + d m4 + |t|^2 - 2 s2^2 / (d - 1)
           + 4 d s2^2 / (d^2 - 1)] / B,

the eigenphase pair sums over s_jk = |a_j - a_k|^2 / 2, regrouped and
evaluated in float64 in O(d). The one subtraction is (d+1)/(2d) <= 3/4 of
the last term, so D^2 keeps its relative accuracy for every d >= 2. F
itself is read off tr X, summed in extended precision (np.longdouble;
80-bit on x86-64 Linux) before rounding to float64.

The inversion of the moment map lives in one place, _moment_deviations. It
takes (r, D) to the distances of the invariants from the identity's,

    dP = d^2 - P^2 = N r,
    dQ = N^2 - Q^2 = 2N(d+1)(d+2) r - B (r^2 + D^2),

which do not cancel near the identity. pq_from_fd reads it for (P^2, Q^2),
and the certificate in certify reads it for its relaxation root.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import UnitaryOperator, _trace_ld, eigenvalues_unitary

_LD = np.longdouble
_LD_ZERO = _LD(0)


@dataclass(frozen=True)
class MomentSummary:
    """Haar-moment data of one error unitary: F, D and the infidelity r
    (1 - F without the rounding of F)."""

    dim: int
    F: float
    D: float
    r: float


class PQInvariants(NamedTuple):
    P2: float
    Q2: float


def _spectral_moments(lam: np.ndarray):
    """(r, D^2) from the eigenvalues lam of a unitary (module docstring),
    centred from e^{i(theta_j - theta_0)} - 1, whose expm1 keeps relative
    accuracy near the identity."""
    d = lam.size
    if d < 2:
        return 0.0, 0.0
    theta = np.angle(lam)
    a = np.expm1((theta - theta[0]) * 1j)
    a -= a.sum() / d  # mean() costs a quarter of this call at d = 4
    p = np.abs(a) ** 2
    s2 = float(p.sum())
    t = abs(complex(a @ a))
    dev = d * p - s2
    q = s2 * s2
    num = float(dev @ dev) + d * float(p @ p) + t * t - 2 * q / (d - 1) + 4 * d * q / (d * d - 1)
    return s2 / (d + 1), num / (d * (d + 1) * (d + 2) * (d + 3))


def fd_from_unitary(x: UnitaryOperator) -> MomentSummary:
    """Average fidelity and fidelity deviation of the error unitary x.

    F comes from tr X, and r and D from the eigenphases (module docstring).
    They are the eigenvalues that diamond_exact reads, so x is eigensolved
    once for both. The summary is kept on x beside the spectrum, and later
    calls, such as certificate_bundle's, return it without recomputing."""
    if x._moments is not None:
        return x._moments
    d = x.dim
    dd = _LD(d)
    F = (dd + np.abs(_trace_ld(x.matrix)) ** 2) / (dd * (dd + 1))
    r, D2 = _spectral_moments(eigenvalues_unitary(x))
    s = MomentSummary(dim=d, F=float(F), D=math.sqrt(D2), r=r)
    object.__setattr__(x, "_moments", s)
    return s


def _check_integer(name: str, value, low: int, high: int | None = None) -> None:
    """Raise ValueError unless value is a numbers.Integral in [low, high)."""
    # int first: it skips the ABC's instance check, 0.5 us per certificate
    if not isinstance(value, (int, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low or (high is not None and value >= high):
        bound = f"[{low}, {high})" if high is not None else f">= {low}"
        raise ValueError(f"{name} must be an integer {bound}, got {value}")


def _check_fd(F: float, D: float) -> None:
    """Reject (F, D) that no error can produce: non-finite values, F outside
    [0, 1] beyond the 1e-12 rounding slack, or a negative D."""
    if not (math.isfinite(F) and math.isfinite(D)):
        raise ValueError(f"F and D must be finite, got F = {F}, D = {D}")
    if not 0.0 <= F <= 1.0 + 1e-12:
        raise ValueError(f"fidelity F must lie in [0, 1], got {F}")
    if D < 0:
        raise ValueError(f"deviation D must be nonnegative, got {D}")


def _moment_deviations(r, D, d: int):
    """The one inversion of the moment map: (dP, dQ) at infidelity r and
    deviation D (module docstring), in extended precision.

    dP is clamped to [0, d^2] and dQ to [0, N^2], the ranges a unitary
    allows; r is taken as dP / N after its clamp. Returns (dP, dQ, w,
    dP_clamped, dQ_clamped) with w = B (r^2 + D^2) as computed, so that no
    caller rebuilds it as 2N(d+1)(d+2) r - dQ, which cancels near the
    identity; only a clamp of dQ sets w that way.
    """
    dd = _LD(d)
    n = dd * (dd + 1)
    dP = n * _LD(r)
    dP_clamped = not 0 <= dP <= dd * dd
    if dP_clamped:
        dP = np.clip(dP, _LD_ZERO, dd * dd)
    r = dP / n
    linear = 2 * n * (dd + 1) * (dd + 2) * r
    w = n * (dd + 2) * (dd + 3) * (r * r + _LD(D) ** 2)
    dQ = linear - w
    dQ_clamped = not 0 <= dQ <= n * n
    if dQ_clamped:
        dQ = np.clip(dQ, _LD_ZERO, n * n)
        w = linear - dQ
    return dP, dQ, w, dP_clamped, dQ_clamped


def pq_from_fd(F: float, D: float, d: int) -> PQInvariants:
    """Invert the moment formulas: spectral invariants (P^2, Q^2) from (F, D),
    as d^2 - dP and N^2 - dQ of _moment_deviations at r = 1 - F.

    Outputs lie in their unitarity ranges [0, d^2] and [0, (d + d^2)^2], to
    which data inconsistent with a unitary error (possible with noisy
    estimates) are clamped. Data that no error can produce raise ValueError,
    as in the certificates.
    """
    _check_fd(F, D)
    _check_integer("dimension d", d, 2)
    if d < 4:
        warnings.warn(
            "pq_from_fd at d < 4: (F, D) are not independent there; "
            "at d = 2, D = (1 - F)/sqrt(5)",
            stacklevel=2,
        )
    # 1 - F is exact in extended precision; in float64 it rounds for F < 1/2
    dP, dQ, *_ = _moment_deviations(_LD(1) - _LD(F), D, d)
    dd = _LD(d)
    return PQInvariants(float(dd * dd - dP), float((dd * (dd + 1)) ** 2 - dQ))


def single_fidelity(x: UnitaryOperator, psi) -> float:
    """Survival probability |<psi| X |psi>|^2 for a normalized state."""
    v = np.asarray(psi, dtype=np.complex128).reshape(-1)
    if v.shape[0] != x.dim:
        raise ValueError(f"state dimension {v.shape[0]} does not match d={x.dim}")
    norm = np.linalg.norm(v)
    if not abs(norm - 1.0) <= 1e-10:  # a NaN norm fails too
        raise ValueError(f"state norm {norm} deviates from 1 beyond 1e-10")
    amp = np.vdot(v, x.matrix @ v)
    return min(float(abs(amp) ** 2), 1.0)
