"""Simulation of the randomized survival-probability protocol and the
unbiased moment estimators.

For each of M Haar-random input states the protocol draws a binomial pass
count K_i ~ Bin(N, f_i); the estimators use the factorial-moment correction
K(K-1)/(N(N-1)) for the second moment and a pairwise cross-average for F^2,
both unbiased under shot noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certify import CertFlags, CertificateBundle, certificate_bundle
from .linalg import UnitaryOperator
from .moments import _pq_from_fd_ld, single_fidelity


@dataclass(frozen=True)
class ShotRecord:
    """One randomized input: pass count out of N shots. true_f is the exact
    survival probability, kept for white-box tests only; it must never be
    serialized for black-box consumers."""

    pass_count: int
    shots: int
    true_f: float

    def __post_init__(self):
        if not 0 <= self.pass_count <= self.shots:
            raise ValueError("pass count must lie in [0, shots]")


@dataclass(frozen=True)
class EstimationResult:
    """Protocol outputs with (M, N, seed) provenance. D2_hat may be slightly
    negative from finite-sample fluctuations; D_hat truncates it at zero."""

    M: int
    N: int
    seed: int | None
    F_hat: float
    E2_hat: float
    F2_hat: float
    D2_hat: float
    D_hat: float
    truncated: bool


def substream(seed: int, index: int) -> np.random.Generator:
    """Counter-based per-state stream: Philox keyed by (seed, index), so
    growing M never perturbs the draws of earlier states."""
    if seed < 0 or index < 0:
        raise ValueError("seed and index must be nonnegative integers")
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_haar_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state: normalized vector of standard complex normals."""
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    z = rng.standard_normal((d, 2))
    psi = z[:, 0] + 1j * z[:, 1]
    return psi / np.linalg.norm(psi)


def simulate_protocol(
    x: UnitaryOperator, M: int, N: int, seed: int
) -> list[ShotRecord]:
    """Draw M Haar-random states and binomial pass counts for the error x.

    Fully deterministic for fixed (x, M, N, seed); state i uses the
    substream keyed by (seed, i).
    """
    if M < 2:
        raise ValueError(f"need at least 2 random states, got M={M}")
    if N < 2:
        raise ValueError(f"need at least 2 shots per state, got N={N}")
    d = x.dim
    records = []
    for i in range(M):
        rng = substream(seed, i)
        psi = sample_haar_state(d, rng)
        f = single_fidelity(x, psi)
        k = int(rng.binomial(N, f))
        records.append(ShotRecord(pass_count=k, shots=N, true_f=f))
    return records


def estimate_moments(
    records: list[ShotRecord], seed: int | None = None
) -> EstimationResult:
    """Unbiased (F, E2, F^2, D^2) estimators from shot records.

    F_hat averages K/N; E2_hat averages the factorial-moment corrected
    K(K-1)/(N(N-1)); F2_hat is the pairwise cross-average, computed stably as
    ((sum f)^2 - sum f^2) / (M (M-1)).
    """
    m = len(records)
    if m < 2:
        raise ValueError("need at least 2 records")
    shots = {rec.shots for rec in records}
    if len(shots) != 1:
        raise ValueError("records must share a common shot count")
    n = shots.pop()
    k = np.array([rec.pass_count for rec in records], dtype=float)
    f_hat = k / n
    fi2 = k * (k - 1.0) / (n * (n - 1.0))
    F_hat = float(f_hat.mean())
    E2_hat = float(fi2.mean())
    s = float(f_hat.sum())
    F2_hat = (s * s - float((f_hat * f_hat).sum())) / (m * (m - 1.0))
    D2_hat = E2_hat - F2_hat
    truncated = D2_hat < 0.0
    return EstimationResult(
        M=m,
        N=n,
        seed=seed,
        F_hat=F_hat,
        E2_hat=E2_hat,
        F2_hat=F2_hat,
        D2_hat=D2_hat,
        D_hat=math.sqrt(max(D2_hat, 0.0)),
        truncated=truncated,
    )


def run_protocol(x: UnitaryOperator, M: int, N: int, seed: int) -> EstimationResult:
    """simulate_protocol followed by estimate_moments, seed recorded."""
    return estimate_moments(simulate_protocol(x, M, N, seed), seed=seed)


def _family_tolerance(result: EstimationResult, d: int) -> float:
    """Relative tolerance for the certificate's spectral-family membership
    test, set at three standard errors of the second invariant so noisy
    estimates of family data (e.g. the CZ model) still resolve the family."""
    var_f = max(result.D2_hat, 0.0) / result.M + max(
        result.F_hat - result.E2_hat, 0.0
    ) / (result.M * result.N)
    sigma_f = math.sqrt(var_f)
    sigma_d2 = 2.0 * sigma_f  # second-moment noise, same sampling scale
    big = d * (d + 1) * (d + 2) * (d + 3)
    dq2_dF = big * 2.0 * result.F_hat - 4.0 * (d + 2) * d * (d + 1)
    sigma_q2 = abs(dq2_dF) * sigma_f + big * sigma_d2
    _, _, _, q2_raw = _pq_from_fd_ld(result.F_hat, result.D_hat, d)
    q = math.sqrt(max(float(q2_raw), 1.0))
    return 3.0 * sigma_q2 / (2.0 * q * (1.0 + q))


def certify_from_estimates(
    result: EstimationResult, d: int, u: float | None = None
) -> CertificateBundle:
    """Plug the estimated (F_hat, D_hat) into the certificate bounds.

    Family membership inside the moment-assisted certificate is decided at
    the estimate's statistical resolution, so protocol estimates of family
    models track the theory curve instead of falling back to the relaxation.
    """
    if d < 4:
        raise ValueError("certification from estimates requires d >= 4")
    extra = CertFlags.D_TRUNCATED if result.truncated else CertFlags.NONE
    return certificate_bundle(
        d,
        F=result.F_hat,
        D=result.D_hat,
        u=u,
        extra_flags=extra,
        family_rtol=_family_tolerance(result, d),
    )
