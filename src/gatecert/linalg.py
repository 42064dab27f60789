"""Dense complex matrix primitives: unitary validation, eigenvalues, closed-form
exponentials for the two generator families used by the coherent error models.

All matrices are square numpy arrays of complex128, row-major, with qubit 1 as
the most significant bit of the computational-basis index.
"""

from __future__ import annotations

import numpy as np

UNITARITY_TOL = 1e-10
_DET_TOL = 1e-8
_DET_CHECK_MAX_DIM = 16
_TRACE_BLOCK_ROWS = 64
# the Hermitian eigenphase route needs cos(phase) > 0 for every phase of the
# turned matrix; it asks for cos(phase) > 1/16, because arcsin amplifies the
# eigvalsh error by 1/cos(phase): at d = 256 and cos = 1e-6 the phases are
# off by 4e-10, at 1/16 by about 2e-14, within an order of eigvals' 4e-15
_HERMITIAN_MIN_COS = 1.0 / 16.0


class UnitarityError(ValueError):
    """Raised when a matrix fails the unitarity residual check."""


class EigensolverError(RuntimeError):
    """Raised when eigenvalue extraction fails or violates its post-conditions."""


def _as_square_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


class UnitaryOperator:
    """A dense d x d matrix certified unitary at construction time.

    The residual is the max-abs entry of X†X - 1; construction fails when it
    exceeds UNITARITY_TOL. The wrapped array is made read-only so instances can
    be shared across threads.
    """

    __slots__ = ("matrix", "unitarity_residual")

    def __init__(self, matrix):
        m = _as_square_matrix(matrix)
        residual = float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())
        if residual > UNITARITY_TOL:
            raise UnitarityError(
                f"unitarity residual {residual:.3e} exceeds {UNITARITY_TOL:.1e}"
            )
        if m.shape[0] <= _DET_CHECK_MAX_DIM:
            det_err = abs(abs(np.linalg.det(m)) - 1.0)
            if det_err > _DET_TOL:
                raise UnitarityError(f"|det| deviates from 1 by {det_err:.3e}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "unitarity_residual", residual)

    def __setattr__(self, name, value):
        raise AttributeError("UnitaryOperator is immutable")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self):
        return f"UnitaryOperator(dim={self.dim}, residual={self.unitarity_residual:.2e})"


def _trace_ld(a: np.ndarray) -> np.clongdouble:
    # longdouble accumulation: downstream moment formulas cancel heavily and
    # need the trace accurate to better than d*eps
    return np.sum(np.diag(a).astype(np.clongdouble))


def _trace_of_square_ld(a: np.ndarray) -> np.clongdouble:
    """tr(A^2) in O(d^2) as sum_ij A_ij A_ji, without forming the product."""
    # the product buffer is filled in row blocks, so no full extended-precision
    # copy of `a` is held beside it; its entries and the summation over it are
    # those of np.sum(al * al.T), bit for bit
    d = a.shape[0]
    prod = np.empty((d, d), dtype=np.clongdouble)
    for i in range(0, d, _TRACE_BLOCK_ROWS):
        j = i + _TRACE_BLOCK_ROWS
        np.multiply(a[i:j].astype(np.clongdouble), a[:, i:j].T, out=prod[i:j])
    return np.sum(prod)


def _check_targets(gate: np.ndarray, targets, n: int):
    targets = tuple(int(t) for t in targets)
    k = len(targets)
    if len(set(targets)) != k:
        raise ValueError(f"duplicate target qubits: {targets}")
    if any(t < 1 or t > n for t in targets):
        raise ValueError(f"target qubits {targets} out of range [1, {n}]")
    if gate.shape[0] != 2**k:
        raise ValueError(
            f"gate dimension {gate.shape[0]} does not match {k} target qubit(s)"
        )
    return targets


def left_apply_gate(matrix, gate, targets, n: int) -> np.ndarray:
    """Return (G embedded on `targets` of n qubits) @ matrix without forming
    the 2^n x 2^n embedded gate. Qubit 1 is the most significant bit."""
    m = _as_square_matrix(matrix)
    gate = _as_square_matrix(gate)
    targets = _check_targets(gate, targets, n)
    d = 1 << n
    if m.shape[0] != d:
        raise ValueError(f"matrix dimension {m.shape[0]} does not match n={n}")
    k = len(targets)
    axes = [t - 1 for t in targets]
    rest = [i for i in range(n) if i not in axes]
    tens = m.reshape((2,) * n + (d,))
    tens = np.transpose(tens, axes + rest + [n]).reshape(1 << k, -1)
    tens = gate @ tens
    tens = tens.reshape([2] * k + [2] * (n - k) + [d])
    undo = list(np.argsort(axes + rest))
    return np.ascontiguousarray(np.transpose(tens, undo + [n]).reshape(d, d))


def embed_gate(gate, targets, n: int) -> np.ndarray:
    """Embed a 2^k x 2^k gate on the listed qubits (identity elsewhere)."""
    return left_apply_gate(np.eye(1 << n, dtype=np.complex128), gate, targets, n)


def _turned_phases(m: np.ndarray):
    """(c, phases) of a unitary m from one Hermitian eigensolve, or None.

    m is turned by the phase c of its trace, Y = e^{-ic} m. Y is normal, so
    its Hermitian part (Y + Y^dag)/2 has the eigenvalues cos(phase). When a
    Cholesky test shows them all above _HERMITIAN_MIN_COS, every phase lies
    in (-pi/2, pi/2) and is the arcsine of an eigenvalue of the skew part
    (Y - Y^dag)/2i. Both parts are built in one buffer.
    """
    d = m.shape[0]
    centre = float(np.angle(np.trace(m)))
    y = m * np.exp(-1j * centre)
    buf = np.empty_like(y)
    np.conjugate(y.T, out=buf)
    buf += y
    buf.flat[:: d + 1] -= 2.0 * _HERMITIAN_MIN_COS
    try:
        np.linalg.cholesky(buf)
    except np.linalg.LinAlgError:
        return None
    np.conjugate(y.T, out=buf)
    np.subtract(y, buf, out=buf)
    buf *= -0.5j
    s = np.linalg.eigvalsh(buf)
    return centre, np.arcsin(np.clip(s, -1.0, 1.0))


def eigenvalues_unitary(u: UnitaryOperator) -> np.ndarray:
    """All d eigenvalues of a unitary, validated to sit on the unit circle.

    A spectrum whose phases all lie within arccos(_HERMITIAN_MIN_COS) of the
    trace's phase c comes from one Hermitian eigensolve as e^{i (c + phase)};
    any other goes through the general eigensolver.
    """
    d = u.dim
    try:
        turned = _turned_phases(u.matrix)
        if turned is None:
            lam = np.linalg.eigvals(u.matrix)
        else:
            centre, phases = turned
            lam = np.exp(1j * (centre + phases))
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver failed to converge: {exc}") from exc
    circle_resid = float(np.abs(np.abs(lam) - 1.0).max())
    if circle_resid > 1e-8:
        raise EigensolverError(
            f"eigenvalues off the unit circle by {circle_resid:.3e}"
        )
    trace_resid = abs(lam.sum() - np.trace(u.matrix))
    if trace_resid > 1e-8 * d:
        raise EigensolverError(
            f"eigenvalue sum deviates from trace by {trace_resid:.3e}"
        )
    return lam


def exp_involutory(g, theta: float) -> np.ndarray:
    """exp(-i*theta*G) for Hermitian G with G^2 = 1: cos(theta) 1 - i sin(theta) G."""
    g = _as_square_matrix(g)
    eye = np.eye(g.shape[0])
    if np.abs(g - g.conj().T).max() > 1e-10 or np.abs(g @ g - eye).max() > 1e-10:
        raise ValueError("generator must be Hermitian with G^2 = 1")
    return np.cos(theta) * eye - 1j * np.sin(theta) * g


def exp_projector_squared(a, theta: float) -> np.ndarray:
    """exp(-i*theta*A) for Hermitian A whose square is a projector:
    1 + (cos(theta) - 1) A^2 - i sin(theta) A."""
    a = _as_square_matrix(a)
    if np.abs(a - a.conj().T).max() > 1e-10:
        raise ValueError("generator must be Hermitian")
    a2 = a @ a
    if np.abs(a2 @ a2 - a2).max() > 1e-10:
        raise ValueError("generator squared must be a projector")
    eye = np.eye(a.shape[0])
    return eye + (np.cos(theta) - 1.0) * a2 - 1j * np.sin(theta) * a


def haar_random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed element of U(d) via QR of a complex Ginibre matrix."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases
