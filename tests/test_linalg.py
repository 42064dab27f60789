import math

import numpy as np
import pytest

from gatecert import (
    EigensolverError,
    UnitarityError,
    UnitaryOperator,
    adjoint,
    build_toffoli_pair,
    eigenvalues_unitary,
    embed_gate,
    error_unitary,
    exp_involutory,
    exp_projector_squared,
    haar_random_unitary,
    kron,
    multiply,
    trace,
    trace_of_square,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def random_matrix(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def test_multiply_identity_and_involution():
    eye = np.eye(3)
    assert np.array_equal(multiply(eye, eye), eye)
    assert np.allclose(multiply(SX, SX), np.eye(2))


def test_multiply_diagonal_phases():
    phi = 0.37
    d1 = np.diag([1, 1, 1, np.exp(1j * phi)])
    out = multiply(d1, d1)
    assert np.allclose(out, np.diag([1, 1, 1, np.exp(2j * phi)]), atol=1e-15)


def test_multiply_dimension_mismatch():
    with pytest.raises(ValueError):
        multiply(np.eye(2), np.eye(3))


def test_adjoint_examples():
    assert np.array_equal(adjoint(np.eye(4)), np.eye(4))
    phi = 1.1
    assert np.allclose(
        adjoint(np.diag([1, 1, 1, np.exp(1j * phi)])),
        np.diag([1, 1, 1, np.exp(-1j * phi)]),
    )
    rng = np.random.default_rng(0)
    a = random_matrix(rng, 5)
    assert np.allclose(adjoint(adjoint(a)), a)


def test_trace_examples():
    assert trace(np.eye(6)) == pytest.approx(6)
    phi = 0.8
    assert trace(np.diag([1, 1, 1, np.exp(1j * phi)])) == pytest.approx(3 + np.exp(1j * phi))
    assert trace(SZ) == pytest.approx(0)


def test_trace_of_square_examples():
    assert trace_of_square(np.eye(5)) == pytest.approx(5)
    phi = 0.8
    assert trace_of_square(np.diag([1, 1, 1, np.exp(1j * phi)])) == pytest.approx(
        3 + np.exp(2j * phi)
    )


def test_trace_of_square_matches_full_product():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = random_matrix(rng, 8)
        assert abs(trace_of_square(a) - trace(multiply(a, a))) < 1e-12


def test_trace_cyclicity():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = random_matrix(rng, 8)
        b = random_matrix(rng, 8)
        assert abs(trace(multiply(a, b)) - trace(multiply(b, a))) < 1e-12


def test_kron_examples():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))
    out = kron(np.diag([0.0, 1.0]), SX)
    expect = np.zeros((4, 4), dtype=complex)
    expect[2:, 2:] = SX
    assert np.array_equal(out, expect)
    assert np.allclose(np.diag(kron(SZ, SZ)), [1, -1, -1, 1])


def test_embed_gate_single_qubit():
    assert np.array_equal(embed_gate(SX, [1], 1), SX)
    # sigma_x on qubit 2 of 2 maps |00> -> |01>
    out = embed_gate(SX, [2], 2)
    state = np.zeros(4)
    state[0] = 1.0
    assert np.allclose(out @ state, np.eye(4)[1])


def test_embed_gate_cnot_enumeration():
    # oracle: CNOT with control=qubit1, target=qubit2 embedded in 3 qubits,
    # enumerated over all 8 basis states directly from the CNOT definition
    out = embed_gate(CNOT, [1, 2], 3)
    for basis in range(8):
        b1, b2, b3 = (basis >> 2) & 1, (basis >> 1) & 1, basis & 1
        if b1 == 1:
            b2 ^= 1
        expect = (b1 << 2) | (b2 << 1) | b3
        col = out[:, basis]
        assert col[expect] == pytest.approx(1.0)
        assert np.count_nonzero(col) == 1
    # the spec's instance: |110> -> |100>
    assert out[0b100, 0b110] == pytest.approx(1.0)


def test_embed_gate_errors():
    with pytest.raises(ValueError):
        embed_gate(SX, [3], 2)
    with pytest.raises(ValueError):
        embed_gate(CNOT, [1, 1], 2)
    with pytest.raises(ValueError):
        embed_gate(SX, [1, 2], 2)


def test_embed_gate_disjoint_supports_commute():
    rng = np.random.default_rng(3)
    g = haar_random_unitary(2, rng)
    h = haar_random_unitary(2, rng)
    a = embed_gate(g, [1], 3) @ embed_gate(h, [3], 3)
    b = embed_gate(h, [3], 3) @ embed_gate(g, [1], 3)
    assert np.abs(a - b).max() < 1e-12


def test_unitary_operator_validation():
    u = UnitaryOperator(np.eye(4))
    assert u.dim == 4
    assert u.unitarity_residual <= 1e-10
    with pytest.raises(UnitarityError):
        UnitaryOperator(np.eye(3) * 1.01)
    with pytest.raises(ValueError):
        UnitaryOperator(np.full((2, 2), np.nan))


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
    ideal, implemented = build_toffoli_pair(0.0)
    lam = eigenvalues_unitary(error_unitary(ideal, implemented))
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


@pytest.mark.parametrize("d", [2, 3, 8, 33, 1024])
def test_blocked_trace_of_square_is_bit_identical(d):
    from gatecert.linalg import _trace_of_square_ld

    a = random_matrix(np.random.default_rng(d), d)
    al = a.astype(np.clongdouble)
    assert _trace_of_square_ld(a) == np.sum(al * al.T)


def test_exp_involutory_examples():
    assert np.allclose(exp_involutory(SZ, 0.0), np.eye(2))
    assert np.allclose(exp_involutory(SZ, math.pi / 2), np.diag([-1j, 1j]))
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    assert np.allclose(exp_involutory(h, 0.0) @ h, h)


def test_exp_involutory_inverse_property():
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    for theta in (0.01, 0.5, 2.0):
        prod = exp_involutory(h, theta) @ exp_involutory(h, -theta)
        assert np.abs(prod - np.eye(2)).max() < 1e-12


def test_exp_involutory_rejects_non_involution():
    with pytest.raises(ValueError):
        exp_involutory(np.diag([1.0, 2.0]), 0.1)


def _series_expm(generator, theta, terms=60):
    acc = np.eye(generator.shape[0], dtype=complex)
    term = np.eye(generator.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ (-1j * theta * generator) / k
        acc = acc + term
    return acc


def test_exp_projector_squared_against_series():
    gen = kron(np.diag([0.0, 1.0]), SX)
    for theta in (0.01, 0.5, 2.0):
        out = exp_projector_squared(gen, theta)
        assert np.abs(out - _series_expm(gen, theta)).max() < 1e-13
        # block structure: identity on the control-0 block
        assert np.allclose(out[:2, :2], np.eye(2))
        assert np.allclose(
            out[2:, 2:], math.cos(theta) * np.eye(2) - 1j * math.sin(theta) * SX
        )
        resid = np.abs(out.conj().T @ out - np.eye(4)).max()
        assert resid <= 1e-12
    assert np.allclose(exp_projector_squared(gen, 0.0), np.eye(4))


def test_exp_projector_squared_rejects_bad_generator():
    with pytest.raises(ValueError):
        exp_projector_squared(np.diag([1.0, 0.5]), 0.1)


def test_haar_random_unitary_is_unitary():
    rng = np.random.default_rng(5)
    for d in (2, 4, 16):
        UnitaryOperator(haar_random_unitary(d, rng))


def test_eigensolver_error_type_exists():
    assert issubclass(EigensolverError, RuntimeError)
