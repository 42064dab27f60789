"""Independent references for checking gatecert's outputs.

Nothing here imports gatecert. The error unitaries are rebuilt from the gate
definitions (Hadamard, T, CNOT and controlled phase, each with the coherent
over-rotation model of the paper), the diamond distance comes from the largest
gap between sorted eigenphases, and (F, D) come from tr X and tr X^2 evaluated
in extended precision. Only numpy and mpmath are used.

Over-rotation models (epsilon is the common error parameter):
    T, Tdag   ->  exp(-i eps sigma_z / 2) T
    H         ->  exp(-i eps H / 2) H
    CNOT      ->  exp(-i eps P1 (x) sigma_x) CNOT
    CP(theta) ->  CP((1 + eps) theta)
Qubit 1 is the most significant bit of a basis index, and the first gate of a
circuit acts first.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

mpmath.mp.dps = 50

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)
_I2 = np.eye(2, dtype=complex)


def _rot(generator: np.ndarray, theta: float) -> np.ndarray:
    """exp(-i theta G) for an involution G (G^2 = 1)."""
    return math.cos(theta) * np.eye(len(generator)) - 1j * math.sin(theta) * generator


def _t(sign: int) -> np.ndarray:
    return np.diag([1.0, np.exp(sign * 1j * math.pi / 4)])


def gate_matrix(kind: str, eps: float | None, angle: float = 0.0) -> np.ndarray:
    """Ideal gate (eps None) or its over-rotated implementation."""
    e = 0.0 if eps is None else eps
    if kind == "H":
        return _rot(_H, e / 2) @ _H
    if kind in ("T", "Tdag"):
        return _rot(_Z, e / 2) @ _t(1 if kind == "T" else -1)
    if kind == "CNOT":
        # P1 (x) sigma_x squares to P1 (x) 1, so the exponential acts as
        # exp(-i eps sigma_x) on the target when the control is set
        cnot = np.block([[_I2, 0 * _I2], [0 * _I2, _X]])
        err = np.block([[_I2, 0 * _I2], [0 * _I2, _rot(_X, e)]])
        return err @ cnot
    if kind == "CP":
        return np.diag([1, 1, 1, np.exp(1j * (1 + e) * angle)])
    raise ValueError(kind)


def toffoli_gates():
    """Clifford+T Toffoli (controls 1, 2; target 3), 15 gates in acting order."""
    return [
        ("H", (3,)), ("CNOT", (2, 3)), ("Tdag", (3,)), ("CNOT", (1, 3)),
        ("T", (3,)), ("CNOT", (2, 3)), ("Tdag", (3,)), ("CNOT", (1, 3)),
        ("T", (2,)), ("T", (3,)), ("CNOT", (1, 2)), ("H", (3,)),
        ("T", (1,)), ("Tdag", (2,)), ("CNOT", (1, 2)),
    ]


def qft_gates(n: int):
    """QFT without the final swaps: H on qubit j, then CP(pi / 2^(k-j))
    controlled by each later qubit k onto j."""
    gates = []
    for j in range(1, n + 1):
        gates.append(("H", (j,)))
        gates.extend(("CP", (k, j), math.pi / 2 ** (k - j)) for k in range(j + 1, n + 1))
    return gates


def embed(gate: np.ndarray, targets, n: int) -> np.ndarray:
    """Full 2^n x 2^n matrix of a gate on `targets`: entry (row, col) is the
    gate entry addressed by the target bits of row and col, when all other
    bits agree, and 0 otherwise."""
    d = 1 << n
    idx = np.arange(d)
    shifts = [n - t for t in targets]
    sub = sum(((idx >> s) & 1) << (len(shifts) - 1 - i) for i, s in enumerate(shifts))
    others = idx & ~sum(1 << s for s in shifts)
    return np.where(others[:, None] == others[None, :], gate[sub[:, None], sub[None, :]], 0)


def circuit_dense(n: int, gates, eps: float | None) -> np.ndarray:
    """Circuit unitary as a product of fully embedded gates (small n only)."""
    u = np.eye(1 << n, dtype=complex)
    for kind, targets, *angle in gates:
        u = embed(gate_matrix(kind, eps, *angle), targets, n) @ u
    return u


def qft_circuit(n: int, eps: float | None) -> np.ndarray:
    """QFT circuit unitary for any n: Hadamards act on one tensor axis and
    the controlled phases are diagonal, so each is a row scaling."""
    d = 1 << n
    u = np.eye(d, dtype=complex)
    bits = (np.arange(d)[:, None] >> (n - np.arange(1, n + 1))) & 1  # bits[:, q-1]
    for kind, targets, *angle in qft_gates(n):
        g = gate_matrix(kind, eps, *angle)
        if kind == "H":
            j = targets[0]
            t = u.reshape(1 << (j - 1), 2, 1 << (n - j), d)
            u = np.einsum("ab,xbyc->xayc", g, t).reshape(d, d)
        else:
            k, j = targets
            mask = (bits[:, k - 1] & bits[:, j - 1]).astype(bool)
            u[mask] *= g[3, 3]
    return u


def error_unitary(model: str, param: float, n: int | None = None) -> np.ndarray:
    """X = U_ideal^dagger U_implemented for one of the benchmark models."""
    if model == "cz":
        return np.diag([1, 1, 1, np.exp(1j * param)])
    if model == "toffoli":
        ideal = circuit_dense(3, toffoli_gates(), None)
        impl = circuit_dense(3, toffoli_gates(), param)
    elif model == "qft":
        ideal = qft_circuit(n, None)
        impl = qft_circuit(n, param)
    else:
        raise ValueError(model)
    return ideal.conj().T @ impl


def eigenphases(x: np.ndarray) -> np.ndarray:
    """Eigenphases of a unitary (any branch).

    X is first turned by the phase of its trace. When the Hermitian part
    (Y + Y^dag)/2 of the turned matrix Y is positive definite, every phase of
    Y lies in (-pi/2, pi/2); Y is normal, so its phases are then the arcsines
    of the eigenvalues of the Hermitian matrix (Y - Y^dag)/2i, one Hermitian
    eigensolve in place of a general one. Otherwise the general eigensolver
    is used.
    """
    centre = np.angle(np.trace(x))  # rotate a clustered spectrum onto phase 0
    y = x * np.exp(-1j * centre)
    try:
        np.linalg.cholesky((y + y.conj().T) / 2)
    except np.linalg.LinAlgError:
        return np.angle(np.linalg.eigvals(x))
    s = np.linalg.eigvalsh((y - y.conj().T) / 2j)
    return np.arcsin(np.clip(s, -1.0, 1.0)) + centre


def diamond_from_phases(phases) -> float:
    """Diamond distance of a unitary from its eigenphases: with G the largest
    gap between sorted phases on the circle, sin((2 pi - G) / 2) when G > pi,
    else 1 (the origin lies in the spectrum's convex hull)."""
    th = np.sort(np.mod(np.asarray(phases, dtype=float), 2 * math.pi))
    g = float(np.diff(np.concatenate([th, [th[0] + 2 * math.pi]])).max())
    return math.sin((2 * math.pi - g) / 2) if g > math.pi else 1.0


def _mp(v) -> mpmath.mpf:
    num, den = np.longdouble(v).as_integer_ratio()
    return mpmath.mpf(num) / den


def traces(x: np.ndarray):
    """(tr X, tr X^2) accumulated in long double, as mpmath complex numbers.
    tr X^2 is sum_ij X_ij X_ji, so no matrix product is rounded."""
    xl = x.astype(np.clongdouble)
    t1 = np.sum(np.diag(xl))
    t2 = np.sum(xl * xl.T)
    return mpmath.mpc(_mp(t1.real), _mp(t1.imag)), mpmath.mpc(_mp(t2.real), _mp(t2.imag))


def spectrum_traces(phases, mult):
    """(tr X, tr X^2) of a diagonal unitary given by phases and multiplicities."""
    t1 = mpmath.fsum(m * mpmath.expj(p) for p, m in zip(phases, mult))
    t2 = mpmath.fsum(m * mpmath.expj(2 * p) for p, m in zip(phases, mult))
    return t1, t2


def invariants(t1, t2):
    """Squared spectral invariants P^2 = |tr X|^2, Q^2 = |tr X^2 + (tr X)^2|^2."""
    return abs(t1) ** 2, abs(t2 + t1 * t1) ** 2


def fd_from_traces(d: int, t1, t2):
    """(F, D^2) in mpmath from the traces:
    F = (d + P^2) / (d (d+1)),
    E2 = (2d(d+3) + 4(d+2) P^2 + Q^2) / (d (d+1) (d+2) (d+3)),  D^2 = E2 - F^2.
    """
    p2, q2 = invariants(t1, t2)
    f = (d + p2) / (d * (d + 1))
    e2 = (2 * d * (d + 3) + 4 * (d + 2) * p2 + q2) / (d * (d + 1) * (d + 2) * (d + 3))
    return f, e2 - f * f


def bulk_cosine(d: int, p2, q2):
    """Relaxation quantities (b_minus, a): the closed-form root
    b- = P/d - sqrt((d-2)(dQ + d^2 - (d+2)P^2)) / (2d) and the bulk cosine
    a = (P - 2 b-)/(d - 2) of its two-angle equality spectrum, which exists
    only when a <= 1."""
    p, q = mpmath.sqrt(p2), mpmath.sqrt(q2)
    rad = (d - 2) * (d * q + d * d - (d + 2) * p2)
    b = p / d - mpmath.sqrt(max(rad, 0)) / (2 * d)
    return b, (p - 2 * b) / (d - 2)


def cz_closed_forms(phi: float):
    """CZ-like phase error diag(1, 1, 1, e^{i phi}): (F, D, diamond)."""
    s2 = math.sin(phi / 2) ** 2
    return 1 - 0.6 * s2, 0.2 * math.sqrt(17 / 7) * s2, abs(math.sin(phi / 2))


def haar_fidelities(x: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """Survival probabilities |<psi|X|psi>|^2 of `count` Haar-random states."""
    d = len(x)
    z = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return np.abs(np.einsum("ij,ij->i", z.conj(), z @ x.T)) ** 2


def protocol_variances(f_samples: np.ndarray, F: float, D2: float, N: int):
    """Per-state variances of the protocol's F and D^2 estimators.

    With K ~ Bin(N, f) shots passing, f_hat = K/N and g_hat = K(K-1)/(N(N-1)).
    Var(f_hat) = D^2 + (F - E2)/N exactly. D2_hat's leading variance is that
    of its influence function g_hat - 2 F f_hat: the variance over Haar
    states of its conditional mean f^2 - 2 F f, plus the mean of its
    conditional (shot-noise) variance, which follows from the falling
    factorials E[K^(j)] = N^(j) f^j. Both are averaged over sampled Haar
    fidelities. Divide by M for one run.
    """
    f = f_samples
    n2, n3, n4 = N * (N - 1), N * (N - 1) * (N - 2), N * (N - 1) * (N - 2) * (N - 3)
    var_g = (n4 * f**4 + 4 * n3 * f**3 + 2 * n2 * f**2) / n2**2 - f**4
    cov_gf = (n3 * f**3 + 2 * n2 * f**2) / (n2 * N) - f**3
    var_f_shot = f * (1 - f) / N
    shot = var_g - 4 * F * cov_gf + 4 * F * F * var_f_shot
    var_d2 = float(np.var(f * f - 2 * F * f) + np.mean(shot))
    var_f = D2 + (F - (D2 + F * F)) / N
    return var_f, var_d2
