"""Simulation of the randomized survival-probability protocol and the
unbiased moment estimators.

The protocol's data is one pass count per random input: for each of M
Haar-random input states it draws K_i ~ Bin(N, f_i), all at one shot count N.
The estimators take that count vector and N; they use the factorial-moment
correction K(K-1)/(N(N-1)) for the second moment and a pairwise
cross-average for F^2, both unbiased under shot noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .certify import CertFlags, CertificateBundle, certificate_bundle
from .linalg import UnitaryOperator
from .moments import single_fidelity


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


def simulate_protocol(x: UnitaryOperator, M: int, N: int, seed: int) -> list[int]:
    """Pass counts out of N shots for M Haar-random states under the error x.

    Fully deterministic for fixed (x, M, N, seed); state i uses the
    substream keyed by (seed, i), so the first m counts do not depend on M.
    """
    if M < 2:
        raise ValueError(f"need at least 2 random states, got M={M}")
    if N < 2:
        raise ValueError(f"need at least 2 shots per state, got N={N}")
    d = x.dim
    counts = []
    for i in range(M):
        rng = substream(seed, i)
        f = single_fidelity(x, sample_haar_state(d, rng))
        counts.append(int(rng.binomial(N, f)))
    return counts


def estimate_moments(counts, N: int, seed: int | None = None) -> EstimationResult:
    """Unbiased (F, E2, F^2, D^2) estimators from pass counts out of N shots.

    F_hat averages K/N; E2_hat averages the factorial-moment corrected
    K(K-1)/(N(N-1)); F2_hat is the pairwise cross-average, computed stably as
    ((sum f)^2 - sum f^2) / (M (M-1)).
    """
    k = np.asarray(counts)
    m = len(k)
    if m < 2:
        raise ValueError(f"need at least 2 pass counts, got {m}")
    if N < 2:
        raise ValueError(f"need at least 2 shots per state, got N={N}")
    if k.dtype.kind not in "iu" or k.min() < 0 or k.max() > N:
        raise ValueError(f"pass counts must be integers in [0, N={N}]")
    k = k.astype(float)
    f_hat = k / N
    fi2 = k * (k - 1.0) / (N * (N - 1.0))
    F_hat = float(f_hat.mean())
    E2_hat = float(fi2.mean())
    s = float(f_hat.sum())
    F2_hat = (s * s - float((f_hat * f_hat).sum())) / (m * (m - 1.0))
    D2_hat = E2_hat - F2_hat
    truncated = D2_hat < 0.0
    return EstimationResult(
        M=m,
        N=N,
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
    return estimate_moments(simulate_protocol(x, M, N, seed), N, seed=seed)


def _family_tolerance(result: EstimationResult) -> float:
    """Relative tolerance on D^2 for the certificate's two-point family test,
    set at three standard errors so noisy estimates of family data (e.g. the
    CZ model) still resolve the family: D2_hat's own, and that of the family
    curve kappa dP^2, which moves with F_hat by 2 sigma_F / r relative."""
    d2 = result.D2_hat
    r = 1.0 - result.F_hat
    if d2 <= 0.0 or r <= 0.0:
        return math.inf  # the family test needs a deviation to be reached
    var_f = d2 / result.M + max(result.F_hat - result.E2_hat, 0.0) / (result.M * result.N)
    sigma_f = math.sqrt(var_f)
    sigma_d2 = 2.0 * sigma_f  # second-moment noise, same sampling scale
    return 3.0 * (sigma_d2 / d2 + 2.0 * sigma_f / r)


def certify_from_estimates(result: EstimationResult, d: int) -> CertificateBundle:
    """Plug the estimated (F_hat, D_hat) into the certificate bounds.

    Family membership inside the moment-assisted certificate is decided at
    the estimate's statistical resolution, so protocol estimates of family
    models track the theory curve instead of falling back to the relaxation.
    """
    bundle = certificate_bundle(
        d, F=result.F_hat, D=result.D_hat, family_rtol=_family_tolerance(result)
    )
    if result.truncated:
        bundle = replace(bundle, flags=bundle.flags | CertFlags.D_TRUNCATED)
    return bundle
