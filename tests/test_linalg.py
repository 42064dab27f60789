import math

import numpy as np
import pytest

from gatecert import (
    EigensolverError,
    UnitarityError,
    GateSpec,
    UnitaryOperator,
    build_model_error,
    eigenvalues_unitary,
    gate_matrix,
    haar_random_unitary,
)
from gatecert.linalg import _trace_ld, _trace_of_square_ld

SZ = np.diag([1.0, -1.0]).astype(complex)


def random_matrix(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def test_trace_examples():
    assert complex(_trace_ld(np.eye(6, dtype=complex))) == pytest.approx(6)
    phi = 0.8
    diag = np.diag([1, 1, 1, np.exp(1j * phi)])
    assert complex(_trace_ld(diag)) == pytest.approx(3 + np.exp(1j * phi))
    assert complex(_trace_ld(SZ)) == pytest.approx(0)


def test_trace_of_square_examples():
    assert complex(_trace_of_square_ld(np.eye(5, dtype=complex))) == pytest.approx(5)
    phi = 0.8
    diag = np.diag([1, 1, 1, np.exp(1j * phi)])
    assert complex(_trace_of_square_ld(diag)) == pytest.approx(3 + np.exp(2j * phi))


def test_trace_of_square_matches_full_product():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = random_matrix(rng, 8)
        assert abs(complex(_trace_of_square_ld(a)) - np.trace(a @ a)) < 1e-12


def test_trace_cyclicity():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = random_matrix(rng, 8)
        b = random_matrix(rng, 8)
        assert abs(complex(_trace_ld(a @ b)) - np.trace(b @ a)) < 1e-12


def test_unitary_operator_validation():
    u = UnitaryOperator(np.eye(4))
    assert u.dim == 4
    assert u.unitarity_residual <= 1e-10
    with pytest.raises(UnitarityError):
        UnitaryOperator(np.eye(3) * 1.01)
    with pytest.raises(ValueError):
        UnitaryOperator(np.full((2, 2), np.nan))


def test_unitarity_residual_alone_decides_at_d16():
    # (1 + delta) U has residual 2 delta + delta^2 on the diagonal; |det| is
    # then off by about 16 delta, so no separate determinant check can fire
    u = haar_random_unitary(16, np.random.default_rng(6))
    below = UnitaryOperator((1 + 0.49e-10) * u)
    assert 0.9e-10 < below.unitarity_residual <= 1e-10
    with pytest.raises(UnitarityError, match="unitarity residual"):
        UnitaryOperator((1 + 0.51e-10) * u)


def test_unitary_operator_immutable():
    u = UnitaryOperator(np.eye(2))
    with pytest.raises(AttributeError):
        u.dim = 3
    with pytest.raises(ValueError):
        u.matrix[0, 0] = 2.0


def test_eigenvalues_identity_and_diagonal():
    assert np.allclose(eigenvalues_unitary(UnitaryOperator(np.eye(4))), np.ones(4))
    phi = 0.9
    lam = eigenvalues_unitary(UnitaryOperator(np.diag([1, 1, 1, np.exp(1j * phi)])))
    assert np.isclose(sorted(lam, key=lambda z: z.imag)[-1], np.exp(1j * phi))


def test_eigenvalues_toffoli_error_at_zero():
    lam = eigenvalues_unitary(build_model_error("toffoli", 0.0))
    assert np.abs(lam - 1.0).max() < 1e-10


def test_eigenvalues_postconditions():
    rng = np.random.default_rng(4)
    for d in (2, 8, 64):
        u = UnitaryOperator(haar_random_unitary(d, rng))
        lam = eigenvalues_unitary(u)
        assert abs(lam.sum() - np.trace(u.matrix)) <= 1e-8 * d
        assert abs(abs(np.prod(lam)) - 1.0) < 1e-6


def _by_angle(lam):
    return lam[np.argsort(np.angle(lam))]


def test_eigenvalues_hermitian_route_matches_general_solver(monkeypatch):
    # near-identity spectra take the one-eigvalsh route; the general solver
    # is disabled while it runs, so a silent fallback fails the test
    rng = np.random.default_rng(11)
    cases = []
    for d in (4, 16, 64, 256):
        for scale in (1e-6, 1e-2, 0.5):
            herm = random_matrix(rng, d)
            vals, vecs = np.linalg.eigh((herm + herm.conj().T) / 2)
            vals *= scale / np.abs(vals).max()
            u = UnitaryOperator((vecs * np.exp(1j * (0.3 + vals))) @ vecs.conj().T)
            cases.append((u, np.linalg.eigvals(u.matrix)))

    def general_solver_called(_):
        raise AssertionError("near-identity spectrum fell back to eigvals")

    monkeypatch.setattr(np.linalg, "eigvals", general_solver_called)
    for u, expected in cases:
        lam = eigenvalues_unitary(u)
        assert np.abs(_by_angle(lam) - _by_angle(expected)).max() <= 1e-12


@pytest.mark.parametrize(
    "case",
    ["trace-zero", "minus-one-after-turning", "haar-64", "phases-near-half-circle"],
)
def test_eigenvalues_fallback_is_general_solver(case):
    rng = np.random.default_rng(12)
    if case == "trace-zero":
        m = np.diag([1, 1j, -1, -1j])
    elif case == "minus-one-after-turning":
        m = np.diag([1, 1, 1, -1])
    elif case == "haar-64":
        m = haar_random_unitary(64, rng)
    else:
        # every phase lies in the open half circle, but arcsin would amplify
        # the eigvalsh error by 1/cos(phase) = 1e6 at the edge
        edge = math.pi / 2 - 1e-6
        v = haar_random_unitary(16, rng)
        m = (v * np.exp(1j * np.array([edge, -edge] * 8))) @ v.conj().T
    u = UnitaryOperator(m)
    assert np.array_equal(eigenvalues_unitary(u), np.linalg.eigvals(u.matrix))


@pytest.mark.parametrize("d", [2, 3, 8, 33, 100, 1024])
def test_blocked_trace_of_square_is_bit_identical(d):
    a = random_matrix(np.random.default_rng(d), d)
    al = a.astype(np.clongdouble)
    assert _trace_of_square_ld(a) == np.sum(al * al.T)


# The involutory and projector-squared exponentials live in
# gates.gate_matrix as closed forms: the over-rotated gate is
# exp(-i t G) @ ideal, and each ideal gate here is its own inverse, so
# gate_matrix(spec, eps) @ ideal recovers the exponential itself.
H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def _exp_of(spec, eps):
    ideal = gate_matrix(spec)
    assert np.abs(ideal @ ideal - np.eye(ideal.shape[0])).max() < 1e-15
    return gate_matrix(spec, eps) @ ideal


def test_exp_involutory_examples():
    # exp(-i (eps/2) Z) for T: identity at 0, diag(-i, i) at eps = pi
    t = GateSpec("T", (1,))
    assert np.allclose(gate_matrix(t, 0.0) @ gate_matrix(t).conj().T, np.eye(2))
    assert np.allclose(
        gate_matrix(t, math.pi) @ gate_matrix(t).conj().T, np.diag([-1j, 1j])
    )
    assert np.allclose(gate_matrix(GateSpec("H", (1,)), 0.0), H)
    assert np.allclose(_exp_of(GateSpec("H", (1,)), 0.0), np.eye(2))


def test_exp_involutory_inverse_property():
    h = GateSpec("H", (1,))
    for theta in (0.01, 0.5, 2.0):
        prod = _exp_of(h, theta) @ _exp_of(h, -theta)
        assert np.abs(prod - np.eye(2)).max() < 1e-12


def _series_expm(generator, theta, terms=60):
    acc = np.eye(generator.shape[0], dtype=complex)
    term = np.eye(generator.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ (-1j * theta * generator) / k
        acc = acc + term
    return acc


def test_exp_projector_squared_against_series():
    gen = np.kron(np.diag([0.0, 1.0]), SX)
    cnot = GateSpec("CNOT", (1, 2))
    for theta in (0.01, 0.5, 2.0):
        out = _exp_of(cnot, theta)
        assert np.abs(out - _series_expm(gen, theta)).max() < 1e-13
        # block structure: identity on the control-0 block
        assert np.allclose(out[:2, :2], np.eye(2))
        assert np.allclose(
            out[2:, 2:], math.cos(theta) * np.eye(2) - 1j * math.sin(theta) * SX
        )
        resid = np.abs(out.conj().T @ out - np.eye(4)).max()
        assert resid <= 1e-12
    assert np.allclose(_exp_of(cnot, 0.0), np.eye(4))


def test_haar_random_unitary_is_unitary():
    rng = np.random.default_rng(5)
    for d in (2, 4, 16):
        UnitaryOperator(haar_random_unitary(d, rng))


def test_eigensolver_error_type_exists():
    assert issubclass(EigensolverError, RuntimeError)
