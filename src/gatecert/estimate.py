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

run_protocols runs one protocol per seed as one run; simulate_protocol,
run_protocol and haar_mc_moments are its one-seed case. The calling thread
makes every stream, allocates every buffer once per run, and draws every
binomial and estimate. One module-level worker thread, started by the
first run that needs it, takes a share of the draws and products. A run
of two or more seeds is split by seed: the caller draws and multiplies
the first half of the seeds, the worker the rest, and the caller then
takes back the worker's fidelities. A run of one seed and more than one
chunk has the worker draw each chunk's normals while the caller takes the
previous chunk's product and binomials. A run whose chunks have fewer than
_WORKER_NORMALS normals, which cost less to run on the caller than to
share, stays on the caller, and so does a one-seed run whose two buffers
would hold more than _MC_BATCH amplitudes (d = 1024 at more than 2048
states). Every draw keeps its place in its stream, so who draws a state
and when changes nothing else.

haar_mc_moments, the oracle for the closed-form moments, reads the same
amplitude stream: its samples are the exact fidelities of those states.

The estimators take that count vector and N; they use the factorial-moment
correction K(K-1)/(N(N-1)) for the second moment and a pairwise
cross-average for F^2, both unbiased under shot noise.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple

import numpy as np

from .certify import CertFlags, CertificateBundle, certificate_bundle
from .linalg import UnitaryOperator

# single_fidelity is not called here: bench/run.py traces the sequential
# reference loop under this name
from .moments import _check_integer, single_fidelity  # noqa: F401

# amplitudes in flight at most, in one chunk or in the amplitude buffers of a
# run that draws ahead or is split; keeps memory flat at large d
_MC_BATCH = 1 << 22
# states per chunk at most: _MC_BATCH // d alone is a million states at d = 4,
# so the chunk and its product's temporaries would grow with M up to that size
_CHUNK_STATES = 4096
# normals per chunk from which the worker takes part in a run, drawing one
# seed's chunks ahead or taking the later half of the seeds: below it, the
# worker's share costs more to hand over and to interleave under the GIL than
# it saves (measured on a 2-vCPU host with one BLAS thread)
_WORKER_NORMALS = 4000


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


def _stacked_fidelities(z: np.ndarray, xt: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Survival probabilities |z^dag X z|^2 / |z|^4 of the rows of z, taken as
    unnormalized states, from one product w = z X^T (xt = X^T, C-contiguous),
    written into w, and sums over float views of z and w."""
    np.matmul(z, xt, out=w)
    zf, wf = z.view(np.float64), w.view(np.float64)  # (re, im) interleaved
    re = np.einsum("ij,ij->i", zf, wf)
    im = np.einsum("ij,ij->i", zf[:, ::2], wf[:, 1::2])
    im -= np.einsum("ij,ij->i", zf[:, 1::2], wf[:, ::2])
    norm2 = np.einsum("ij,ij->i", zf, zf)
    return np.minimum((re * re + im * im) / (norm2 * norm2), 1.0)


@functools.cache
def _worker():
    """The one thread that draws normals ahead and takes the later seeds of
    a split run, started by the first run that needs it; concurrent.futures
    is imported then too, so code that never simulates pays for neither. A
    thread per run would cost about 0.3 ms per run (2-vCPU host), a tenth of
    a Toffoli estimate command."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="gatecert-draws")


if hasattr(os, "register_at_fork"):  # a forked child has no worker thread: start its own
    os.register_at_fork(after_in_child=_worker.cache_clear)


def _lane(xt: np.ndarray, sizes: list[int], streams, z: np.ndarray, w: np.ndarray):
    """Fidelity chunks of each amplitude stream in turn, in chunks of the
    given sizes: each is drawn into z, then multiplied into w."""
    for amplitudes in streams:
        for m in sizes:
            # the (re, im) pairs are the complex amplitudes, as in sample_haar_state
            amplitudes.standard_normal(out=z[:m].view(np.float64))
            yield _stacked_fidelities(z[:m], xt, w[:m])


def _drawn_ahead(xt: np.ndarray, sizes: list[int], amplitudes, zs, w: np.ndarray):
    """One stream's fidelity chunks, as _lane's, with chunk k + 1 drawn by
    _worker() into the other buffer of zs while the caller multiplies chunk k."""
    z, draw = zs[0][: sizes[0]], None
    amplitudes.standard_normal(out=z.view(np.float64))
    try:
        for k, m in enumerate(sizes[1:], 1):
            drawn, z = z, zs[k % 2][:m]
            draw = _worker().submit(amplitudes.standard_normal, out=z.view(np.float64))
            yield _stacked_fidelities(drawn, xt, w[: len(drawn)])
            draw.result()
        yield _stacked_fidelities(z, xt, w[: len(z)])
    finally:
        if draw is not None:
            draw.exception()  # a reader that stops early still waits out the draw in flight


def _haar_fidelities(x: UnitaryOperator, M: int, seeds: list[int]) -> Iterator[np.ndarray]:
    """Fidelities under x of M Haar states per seed, seed after seed, one
    chunk at a time: state i of a seed takes normals [2d i, 2d (i+1)) of
    substream(seed, 0) as its amplitudes. A run's amplitude buffers hold at
    most _MC_BATCH amplitudes and a chunk at most _CHUNK_STATES states, so
    the buffers do not grow with M or with the seeds; the chunking depends
    on d and on the run's path, the states do not.

    The calling thread makes every stream and allocates every buffer, once
    per run: one amplitude buffer and one product output per lane. If a
    chunk has fewer than _WORKER_NORMALS normals, the run is one lane on
    the caller. Otherwise a run of two or more seeds is split: _worker()
    draws and multiplies the later half of the seeds in a second lane,
    while the caller does the first half, and the caller then takes back
    the worker's fidelity chunks, which wait for it (8 bytes per state).
    The two amplitude buffers share _MC_BATCH, so a chunk is half as large
    at d = 1024. A run of one seed and more than one chunk has _worker()
    draw each chunk's normals ahead into a second amplitude buffer, if the
    two hold at most _MC_BATCH amplitudes (_drawn_ahead). Each stream is
    read in order, by one thread at a time, so the states do not depend on
    who draws them, and the worker's share has finished when the generator
    ends, however it ends."""
    d = x.dim
    xt = np.ascontiguousarray(x.matrix.T)
    worker = 2 * d * min(M, _CHUNK_STATES) >= _WORKER_NORMALS
    lanes = 1 + (worker and len(seeds) > 1)
    chunk = max(1, min(_CHUNK_STATES, _MC_BATCH // (lanes * d)))
    sizes = [min(chunk, M - start) for start in range(0, M, chunk)]
    ahead = worker and len(seeds) == 1 and len(sizes) > 1 and 2 * d * sizes[0] <= _MC_BATCH
    z = [np.empty((sizes[0], d), np.complex128) for _ in range(lanes + ahead)]  # amplitudes
    w = [np.empty((sizes[0], d), np.complex128) for _ in range(lanes)]  # products
    if ahead:
        yield from _drawn_ahead(xt, sizes, substream(seeds[0], 0), z, w[0])
    elif lanes == 1:
        yield from _lane(xt, sizes, (substream(seed, 0) for seed in seeds), z[0], w[0])
    else:
        half = len(seeds) // 2  # the caller also draws every binomial: the worker takes the odd seed
        later = _lane(xt, sizes, [substream(seed, 0) for seed in seeds[half:]], z[1], w[1])
        job = _worker().submit(list, later)
        try:
            yield from _lane(xt, sizes, (substream(seed, 0) for seed in seeds[:half]), z[0], w[0])
            yield from job.result()
        finally:
            job.exception()  # a reader that stops early still waits out the worker's half


def _checked_seeds(M: int, N: int, seeds) -> list[int]:
    """The seeds of a run as a list, once M, N and every seed are checked:
    a bad seed stops the run before any state is drawn."""
    _check_integer("M", M, 2)
    _check_integer("N", N, 2)
    seeds = list(seeds)
    for seed in seeds:
        _check_integer("seed", seed, 0, 1 << 64)
    return seeds


def _pass_counts(x: UnitaryOperator, M: int, N: int, seeds: list[int]) -> Iterator[list[int]]:
    """Each seed's M pass counts in turn: state i's count is the i-th draw of
    substream(seed, 1), binomial at its fidelity from _haar_fidelities. The
    binomials are drawn here, on the calling thread, in seed order, those
    of a split run's later seeds too."""
    fidelities = _haar_fidelities(x, M, seeds)
    for seed in seeds:
        shots = substream(seed, 1)
        counts = []
        while len(counts) < M:
            counts += shots.binomial(N, next(fidelities)).tolist()
        yield counts


def simulate_protocol(x: UnitaryOperator, M: int, N: int, seed: int) -> list[int]:
    """Pass counts out of N shots for M Haar-random states under the error x.

    Fully deterministic for fixed (x, M, N, seed). State i takes its
    amplitudes from _haar_fidelities and the i-th draw of substream(seed, 1)
    as its pass count, so the first m counts do not depend on M; a chunk
    costs one normal draw, one fidelity product and one vectorised binomial
    draw. The counts equal those of the sequential two-stream loop (see the
    module docstring). The one-seed case of run_protocols: the caller's
    thread makes the streams and draws the binomials; past the first chunk,
    the worker may draw the normals (see _haar_fidelities).
    """
    return next(_pass_counts(x, M, N, _checked_seeds(M, N, [seed])))


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
    for f in _haar_fidelities(x, samples, [seed]):
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


def run_protocols(x: UnitaryOperator, M: int, N: int, seeds) -> list[EstimationResult]:
    """One protocol per seed, in order: simulate_protocol followed by
    estimate_moments, seed recorded. X^T is taken once for the run. Two or
    more seeds are split between the calling thread, which draws and
    multiplies the first half, and the worker, which does the rest, unless
    their chunks are too small to share (see _haar_fidelities); every
    binomial and estimate is drawn on the caller, in seed order. M, N and
    every seed are checked before any state is drawn."""
    seeds = _checked_seeds(M, N, seeds)
    counts = _pass_counts(x, M, N, seeds)
    # one seed's counts at a time: none is kept past its estimate
    return [estimate_moments(next(counts), N, seed=seed) for seed in seeds]


def run_protocol(x: UnitaryOperator, M: int, N: int, seed: int) -> EstimationResult:
    """run_protocols at one seed."""
    return run_protocols(x, M, N, [seed])[0]


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
