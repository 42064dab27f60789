"""Simulation of the randomized survival-probability protocol, its Haar
Monte Carlo oracle, and the unbiased moment estimators.

The protocol's data is one pass count per random input: for each of M
Haar-random input states it draws K_i ~ Bin(N, f_i), all at one shot count N.
The simulator reads two Philox streams in order: state i's Haar state from
normals [2d i, 2d (i+1)) of substream(seed, 0), its pass count from the i-th
binomial draw of substream(seed, 1). It takes the fidelities f_i of up to a
chunk of states in one product, so its pass counts equal those of the
sequential loop (sample_haar_state from the first stream, single_fidelity,
binomial from the second), while each f_i may differ from single_fidelity's
in the last bits: on QFT error models, up to 4.4e-15 relative over 4000
states at d = 256 and 6.1e-15 over 1000 states at d = 1024.

haar_mc_moments, the oracle for the closed-form moments, reads the same
amplitude stream: its samples are the exact fidelities of those states.

The estimators take that count vector and N; they use the factorial-moment
correction K(K-1)/(N(N-1)) for the second moment and a pairwise
cross-average for F^2, both unbiased under shot noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple

import numpy as np

from .certify import CertFlags, CertificateBundle, certificate_bundle
from .linalg import UnitaryOperator

# single_fidelity is not called here: bench/run.py traces the sequential
# reference loop under this name
from .moments import _check_integer, single_fidelity  # noqa: F401

_MC_BATCH = 1 << 22  # amplitudes per chunk at most, keeps memory flat at large d
# states per chunk at most: _MC_BATCH // d alone is a million states at d = 4,
# so the chunk and its product's temporaries would grow with M up to that size
_CHUNK_STATES = 4096


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


class HaarMCResult(NamedTuple):
    F_mc: float
    E2_mc: float
    stderr_F: float
    stderr_E2: float


def substream(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream: Philox keyed by (seed, index). The protocol
    draws its Haar states from index 0 and its pass counts from index 1, so
    growing M never perturbs the draws of earlier states."""
    _check_integer("seed", seed, 0, 1 << 64)
    _check_integer("index", index, 0, 1 << 64)
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_haar_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state: normalized vector of standard complex normals."""
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    z = rng.standard_normal((d, 2))
    psi = z[:, 0] + 1j * z[:, 1]
    return psi / np.linalg.norm(psi)


def _stacked_fidelities(z: np.ndarray, xt: np.ndarray) -> np.ndarray:
    """Survival probabilities |z^dag X z|^2 / |z|^4 of the rows of z, taken as
    unnormalized states, from one product w = z X^T (xt = X^T, C-contiguous)
    and sums over float views of z and w."""
    w = z @ xt
    zf, wf = z.view(np.float64), w.view(np.float64)  # (re, im) interleaved
    re = np.einsum("ij,ij->i", zf, wf)
    im = np.einsum("ij,ij->i", zf[:, ::2], wf[:, 1::2])
    im -= np.einsum("ij,ij->i", zf[:, 1::2], wf[:, ::2])
    norm2 = np.einsum("ij,ij->i", zf, zf)
    return np.minimum((re * re + im * im) / (norm2 * norm2), 1.0)


def _haar_fidelities(x: UnitaryOperator, M: int, seed: int) -> Iterator[np.ndarray]:
    """Fidelities under x of M Haar states, one chunk at a time: state i takes
    normals [2d i, 2d (i+1)) of substream(seed, 0) as its amplitudes. A chunk
    holds at most _MC_BATCH amplitudes and _CHUNK_STATES states, so memory
    does not grow with M; the chunking depends on d, the states do not."""
    amplitudes = substream(seed, 0)
    d = x.dim
    xt = np.ascontiguousarray(x.matrix.T)
    chunk = max(1, min(_CHUNK_STATES, _MC_BATCH // d))
    for start in range(0, M, chunk):
        m = min(chunk, M - start)
        # the (re, im) pairs are the complex amplitudes, as in sample_haar_state
        z = amplitudes.standard_normal((m, d, 2)).view(np.complex128).reshape(m, d)
        yield _stacked_fidelities(z, xt)


def simulate_protocol(x: UnitaryOperator, M: int, N: int, seed: int) -> list[int]:
    """Pass counts out of N shots for M Haar-random states under the error x.

    Fully deterministic for fixed (x, M, N, seed). State i takes its
    amplitudes from _haar_fidelities and the i-th draw of substream(seed, 1)
    as its pass count, so the first m counts do not depend on M; a chunk
    costs one normal draw, one fidelity product and one vectorised binomial
    draw. The counts equal those of the sequential two-stream loop (see the
    module docstring).
    """
    _check_integer("M", M, 2)
    _check_integer("N", N, 2)
    shots = substream(seed, 1)
    counts = []
    for f in _haar_fidelities(x, M, seed):
        counts += shots.binomial(N, f).tolist()
    return counts


def haar_mc_moments(x: UnitaryOperator, samples: int, seed: int) -> HaarMCResult:
    """Monte-Carlo estimate of (F, E2) from exact Haar-random pure states.

    The samples are the exact fidelities of the states that
    simulate_protocol(x, samples, N, seed) draws, with no shot noise; the
    estimate is an oracle for the closed forms. The variances come from sums
    of deviations from the first chunk's means: near the identity they are
    far below the squared means, which a one-pass s2/n - F^2 cancels away.
    """
    _check_integer("samples", samples, 100)
    s1 = s2 = 0.0
    shift = None
    dev, sq = np.zeros(2), np.zeros(2)  # sums of (f, f^2) - shift and of their squares
    for f in _haar_fidelities(x, samples, seed):
        f2 = f * f
        s1 += float(f.sum())
        s2 += float(f2.sum())
        e = np.stack((f, f2))
        if shift is None:
            shift = e.mean(axis=1, keepdims=True)
        e -= shift
        dev += e.sum(axis=1)
        sq += np.einsum("ij,ij->i", e, e)
    n = float(samples)
    var = np.maximum(sq - dev * dev / n, 0.0) / (n - 1)
    stderr_F, stderr_E2 = np.sqrt(var / n).tolist()
    return HaarMCResult(F_mc=s1 / n, E2_mc=s2 / n, stderr_F=stderr_F, stderr_E2=stderr_E2)


def estimate_moments(counts, N: int, seed: int | None = None) -> EstimationResult:
    """Unbiased (F, E2, F^2, D^2) estimators from pass counts out of N shots.

    F_hat averages K/N; E2_hat averages the factorial-moment corrected
    K(K-1)/(N(N-1)); F2_hat is the pairwise cross-average, computed stably as
    ((sum f)^2 - sum f^2) / (M (M-1)).
    """
    _check_integer("N", N, 2)
    if seed is not None:
        _check_integer("seed", seed, 0, 1 << 64)
    k = np.asarray(counts)
    if k.ndim != 1:
        raise ValueError(f"pass counts must be a 1-D sequence, got shape {k.shape}")
    m = len(k)
    if m < 2:
        raise ValueError(f"need at least 2 pass counts, got {m}")
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
