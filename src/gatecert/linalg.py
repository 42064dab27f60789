"""Dense complex matrix primitives: unitary validation, traces, eigenvalues
and Haar-random unitaries.

All matrices are square numpy arrays of complex128, row-major.
"""

from __future__ import annotations

import numpy as np

UNITARITY_TOL = 1e-10
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
    be shared across threads. eigenvalues_unitary stores the spectrum on the
    instance the first time it is asked, so every reader shares one eigensolve.
    """

    __slots__ = ("matrix", "unitarity_residual", "_eigenvalues")

    def __init__(self, matrix):
        m = _as_square_matrix(matrix)
        residual = float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())
        if residual > UNITARITY_TOL:
            raise UnitarityError(
                f"unitarity residual {residual:.3e} exceeds {UNITARITY_TOL:.1e}"
            )
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "unitarity_residual", residual)
        object.__setattr__(self, "_eigenvalues", None)

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
    any other goes through the general eigensolver. The read-only result is
    kept on u, so later calls return it without solving again.
    """
    if u._eigenvalues is not None:
        return u._eigenvalues
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
    lam.setflags(write=False)
    object.__setattr__(u, "_eigenvalues", lam)
    return lam


def haar_random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed element of U(d) via QR of a complex Ginibre matrix."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases
