"""Closed-form Haar moments of coherent (unitary) errors.

For an error unitary X on C^d, the average fidelity F and the second moment
E2 = D^2 + F^2 are fixed by two spectral invariants,

    P = |tr X|,    Q = |tr X^2 + (tr X)^2|,

via F = (d + P^2) / (d (d+1)) and
    E2 = (2d(d+3) + 4(d+2) P^2 + Q^2) / (d (d+1) (d+2) (d+3)).

The map is inverted by pq_from_fd. A seeded Haar Monte Carlo estimator
provides a fully independent cross-check of the closed forms.

D^2 = E2 - F^2 cancels to fourth order in the error angle near the identity,
so the trace sums and moment combinations run in extended precision
(np.longdouble; 80-bit on x86-64 Linux) before rounding to float64.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import UnitaryOperator, _trace_ld, _trace_of_square_ld

_LD = np.longdouble
_LD_ZERO = _LD(0)


@dataclass(frozen=True)
class MomentSummary:
    """Haar-moment data of one error unitary: F, D, r = 1 - F, E2 = D^2 + F^2,
    and the squared spectral invariants P2 = P^2, Q2 = Q^2."""

    dim: int
    F: float
    D: float
    r: float
    E2: float
    P2: float
    Q2: float


class PQInvariants(NamedTuple):
    P2: float
    Q2: float
    P2_raw: float  # pre-clamp values kept for diagnostics
    Q2_raw: float


class HaarMCResult(NamedTuple):
    F_mc: float
    E2_mc: float
    stderr_F: float
    stderr_E2: float


def _moments_from_invariants_ld(d: int, P2, Q2):
    dd = _LD(d)
    F = (dd + P2) / (dd * (dd + 1))
    E2 = (2 * dd * (dd + 3) + 4 * (dd + 2) * P2 + Q2) / (
        dd * (dd + 1) * (dd + 2) * (dd + 3)
    )
    return F, E2


def fd_from_unitary(x: UnitaryOperator) -> MomentSummary:
    """Average fidelity and fidelity deviation of the error unitary x."""
    d = x.dim
    t1 = _trace_ld(x.matrix)
    t2 = _trace_of_square_ld(x.matrix)
    P2 = np.abs(t1) ** 2
    Q2 = np.abs(t2 + t1 * t1) ** 2
    F, E2 = _moments_from_invariants_ld(d, P2, Q2)
    D = np.sqrt(np.maximum(E2 - F * F, _LD_ZERO))
    return MomentSummary(
        dim=d,
        F=float(F),
        D=float(D),
        r=float(1 - F),
        E2=float(E2),
        P2=float(P2),
        Q2=float(Q2),
    )


def _pq_from_fd_ld(F, D, d: int):
    """(P^2, Q^2) from (F, D) in longdouble; raw values before clamping."""
    dd = _LD(d)
    F = _LD(F)
    D = _LD(D)
    P2_raw = dd * (dd + 1) * F - dd
    E2 = D * D + F * F
    Q2_raw = (
        dd * (dd + 1) * (dd + 2) * (dd + 3) * E2
        - 2 * dd * (dd + 3)
        - 4 * (dd + 2) * P2_raw
    )
    P2 = np.clip(P2_raw, _LD_ZERO, dd * dd)
    Q2 = np.clip(Q2_raw, _LD_ZERO, (dd + dd * dd) ** 2)
    return P2, Q2, P2_raw, Q2_raw


def pq_from_fd(F: float, D: float, d: int) -> PQInvariants:
    """Invert the moment formulas: spectral invariants (P^2, Q^2) from (F, D).

    Outputs are clamped to their unitarity caps [0, d^2] and [0, (d + d^2)^2];
    the raw values are returned alongside so callers can detect data that is
    inconsistent with a unitary error (possible with noisy estimates).
    """
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    if d < 4:
        warnings.warn(
            "pq_from_fd at d < 4: (F, D) are not independent there; "
            "at d = 2, D = (1 - F)/sqrt(5)",
            stacklevel=2,
        )
    P2, Q2, P2_raw, Q2_raw = _pq_from_fd_ld(F, D, d)
    return PQInvariants(float(P2), float(Q2), float(P2_raw), float(Q2_raw))


def single_fidelity(x: UnitaryOperator, psi) -> float:
    """Survival probability |<psi| X |psi>|^2 for a normalized state."""
    v = np.asarray(psi, dtype=np.complex128).reshape(-1)
    if v.shape[0] != x.dim:
        raise ValueError(f"state dimension {v.shape[0]} does not match d={x.dim}")
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"state norm {norm} deviates from 1 beyond 1e-10")
    amp = np.vdot(v, x.matrix @ v)
    return min(float(abs(amp) ** 2), 1.0)


_MC_BATCH = 1 << 22  # entries per chunk, keeps memory flat at large d


def haar_mc_moments(x: UnitaryOperator, samples: int, seed: int) -> HaarMCResult:
    """Monte-Carlo estimate of (F, E2) from exact Haar-random pure states.

    States are normalized vectors of independent standard complex Gaussians;
    the estimate is an independent oracle for the closed forms. Deterministic
    for fixed (x, samples, seed).
    """
    if samples < 100:
        raise ValueError(f"samples must be at least 100, got {samples}")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    d = x.dim
    rng = np.random.Generator(np.random.Philox(seed))
    chunk = max(1, _MC_BATCH // d)
    n_done = 0
    s1 = s2 = s4 = 0.0
    xt = np.ascontiguousarray(x.matrix.T)
    while n_done < samples:
        m = min(chunk, samples - n_done)
        z = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        amp = np.einsum("ij,ij->i", z.conj(), z @ xt)
        f = np.minimum(np.abs(amp) ** 2, 1.0)
        s1 += float(f.sum())
        f2 = f * f
        s2 += float(f2.sum())
        s4 += float((f2 * f2).sum())
        n_done += m
    n = float(samples)
    F_mc = s1 / n
    E2_mc = s2 / n
    var_f = max(s2 / n - F_mc**2, 0.0) * n / (n - 1)
    var_f2 = max(s4 / n - E2_mc**2, 0.0) * n / (n - 1)
    return HaarMCResult(
        F_mc=F_mc,
        E2_mc=E2_mc,
        stderr_F=math.sqrt(var_f / n),
        stderr_E2=math.sqrt(var_f2 / n),
    )
