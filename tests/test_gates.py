import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm

from gatecert import (
    CircuitSpec,
    GateSpec,
    UnitarityError,
    UnitaryOperator,
    build_cz_error,
    build_model_error,
    circuit_unitary,
    error_unitary,
    fd_from_unitary,
    gate_matrix,
    haar_random_unitary,
    qft_circuit,
    toffoli_circuit,
)
from gatecert import gates
from gatecert.gates import CNOT_GATE, SIGMA_X, left_apply_gate


def embedded(gate, targets, n):
    """The gate embedded on `targets` of n qubits, by enumerating basis
    states bit by bit (qubit 1 the most significant bit, the first target the
    most significant bit of the gate's index): an oracle independent of
    left_apply_gate's reshapes."""
    k = len(targets)
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    for col in range(1 << n):
        bits = [(col >> (n - q)) & 1 for q in range(1, n + 1)]
        sub_in = sum(bits[t - 1] << (k - 1 - i) for i, t in enumerate(targets))
        for sub_out in range(1 << k):
            for i, t in enumerate(targets):
                bits[t - 1] = (sub_out >> (k - 1 - i)) & 1
            row = sum(b << (n - q) for q, b in enumerate(bits, start=1))
            out[row, col] = gate[sub_out, sub_in]
    return out


def test_gate_spec_validation():
    with pytest.raises(ValueError):
        GateSpec("H", (1, 2))
    with pytest.raises(ValueError):
        GateSpec("CNOT", (1,))
    with pytest.raises(ValueError):
        GateSpec("CP", (1, 2))  # missing angle
    with pytest.raises(ValueError):
        GateSpec("H", (1,), 0.5)  # spurious angle
    with pytest.raises(ValueError):
        GateSpec("XX", (1,))
    with pytest.raises(ValueError):
        GateSpec("CP", (1, 2), float("inf"))
    with pytest.raises(ValueError):
        GateSpec("CNOT", (1, 1))  # duplicate target
    with pytest.raises(ValueError):
        GateSpec("CZ_phase", (1, 2), 0.3)  # no such kind: CP carries the phase


def test_gate_spec_targets_must_be_integers():
    # a float target is not truncated onto a qubit; numpy integers are ints
    for kind, targets in (("H", (1.7,)), ("H", (2.0,)), ("CNOT", (1.2, 2.9))):
        with pytest.raises(ValueError):
            GateSpec(kind, targets)
    spec = GateSpec("CNOT", (np.int64(1), np.uint8(3)))
    assert spec.targets == (1, 3)
    assert all(type(t) is int for t in spec.targets)


def test_circuit_spec_target_range():
    with pytest.raises(ValueError):
        CircuitSpec(1, (GateSpec("H", (2,)),))
    with pytest.raises(ValueError):
        CircuitSpec(2, (GateSpec("H", (3,)),))
    with pytest.raises(ValueError):
        CircuitSpec(2, (GateSpec("CNOT", (0, 1)),))


def test_ideal_gate_examples():
    t = gate_matrix(GateSpec("T", (1,)))
    tdag = gate_matrix(GateSpec("Tdag", (1,)))
    assert np.allclose(t @ tdag, np.eye(2))
    assert np.allclose(
        gate_matrix(GateSpec("CP", (1, 2), math.pi)), np.diag([1, 1, 1, -1])
    )
    h = gate_matrix(GateSpec("H", (1,)))
    assert np.allclose(h @ h, np.eye(2))


def test_overrotation_reduces_to_ideal_at_zero():
    specs = [
        GateSpec("H", (1,)),
        GateSpec("T", (1,)),
        GateSpec("Tdag", (1,)),
        GateSpec("CNOT", (1, 2)),
        GateSpec("CP", (1, 2), 0.77),
    ]
    for spec in specs:
        assert np.array_equal(gate_matrix(spec, 0.0), gate_matrix(spec))


def test_overrotated_cp_rule():
    theta, eps = 0.6, 0.1
    out = gate_matrix(GateSpec("CP", (1, 2), theta), eps)
    assert np.allclose(out, np.diag([1, 1, 1, np.exp(1j * 1.1 * theta)]))


def test_overrotated_cnot_action_on_10():
    # multiply the two closed-form factors: on |10> the ideal CNOT gives
    # |11>, then the over-rotation mixes the target within the control-1
    # block, leaving cos(eps)|11> - i sin(eps)|10>
    eps = 0.3
    col = gate_matrix(GateSpec("CNOT", (1, 2)), eps)[:, 2]
    assert col[3] == pytest.approx(math.cos(eps))
    assert col[2] == pytest.approx(-1j * math.sin(eps))
    assert abs(col[0]) == 0 and abs(col[1]) == 0


def test_overrotation_unsupported_kind():
    with pytest.raises(ValueError):
        gate_matrix(GateSpec("CZ_phase", (1, 2), 0.3), 0.1)


def test_overrotation_matches_expm():
    # the closed forms against scipy's exponential of each generator G:
    # the implemented gate is expm(-i t G) @ ideal, at t = eps / 2 for the
    # one-qubit gates and t = eps for CNOT; CP(theta) picks up the phase
    # eps theta on |11>
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    sz = np.diag([1.0, -1.0])
    cnot_gen = np.kron(np.diag([0.0, 1.0]), np.array([[0, 1], [1, 0]]))
    cases = [
        (GateSpec("H", (1,)), h, 0.5),
        (GateSpec("T", (1,)), sz, 0.5),
        (GateSpec("Tdag", (1,)), sz, 0.5),
        (GateSpec("CNOT", (1, 2)), cnot_gen, 1.0),
        (GateSpec("CP", (1, 2), 0.6), -0.6 * np.diag([0.0, 0.0, 0.0, 1.0]), 1.0),
    ]
    for eps in (-0.4, 0.0, 1e-7, 3e-5, 0.02, 0.7, 2.0):
        for spec, gen, scale in cases:
            expect = expm(-1j * scale * eps * gen) @ gate_matrix(spec)
            assert np.abs(gate_matrix(spec, eps) - expect).max() <= 1e-14, (spec, eps)


def test_build_cz_error_examples():
    assert np.allclose(build_cz_error(0.0).matrix, np.eye(4))
    assert np.allclose(build_cz_error(math.pi).matrix, np.diag([1, 1, 1, -1]))
    phi = 0.42
    assert np.trace(build_cz_error(phi).matrix) == pytest.approx(3 + np.exp(1j * phi))


def test_toffoli_ideal_is_permutation():
    perm = np.eye(8)
    perm[[6, 7]] = perm[[7, 6]]  # swaps |110> and |111>
    assert np.abs(circuit_unitary(toffoli_circuit()) - perm).max() < 1e-12


def test_toffoli_error_identity_at_zero():
    # a zero error parameter yields the identity bitwise, not to rounding
    for eps in (0.0, -0.0):
        assert np.array_equal(build_model_error("toffoli", eps).matrix, np.eye(8))


def test_toffoli_implemented_is_unitary():
    implemented = UnitaryOperator(circuit_unitary(toffoli_circuit(), 0.1))
    assert implemented.unitarity_residual <= 1e-10


def test_toffoli_gate_count():
    circ = toffoli_circuit()
    kinds = [g.kind for g in circ.gates]
    assert len(kinds) == 15
    assert kinds.count("CNOT") == 6
    assert kinds.count("H") == 2
    assert kinds.count("T") + kinds.count("Tdag") == 7


def test_qft_n2_gate_list():
    circ = qft_circuit(2)
    assert len(circ.gates) == 3
    assert [g.kind for g in circ.gates] == ["H", "CP", "H"]
    assert circ.gates[0].targets == (1,)
    assert circ.gates[1].targets == (2, 1)
    assert circ.gates[1].angle == pytest.approx(math.pi / 2)
    assert circ.gates[2].targets == (2,)


def test_qft_error_identity_at_zero():
    for n in range(2, 7):
        x = build_model_error("qft", 0.0, n)
        assert np.array_equal(x.matrix, np.eye(1 << n))


def test_qft_uniform_superposition_from_zero_state():
    col = circuit_unitary(qft_circuit(3))[:, 0]
    assert np.abs(col - 1.0 / math.sqrt(8)).max() < 1e-12


def test_qft_range_check():
    with pytest.raises(ValueError):
        qft_circuit(1)
    with pytest.raises(ValueError):
        qft_circuit(11)


def test_error_unitary_examples():
    # one over-rotated controlled phase: CP(phi)^dag CP((1 + eps) phi)
    phi, eps = 0.5, 0.4
    circ = CircuitSpec(2, (GateSpec("CP", (1, 2), phi),))
    x = error_unitary(circ, eps)
    assert np.abs(x.matrix - np.diag([1, 1, 1, np.exp(1j * eps * phi)])).max() < 1e-15
    # one over-rotated T: its ideal part cancels, leaving exp(-i eps Z / 2)
    x = error_unitary(CircuitSpec(1, (GateSpec("T", (1,)),)), eps)
    assert np.abs(x.matrix - np.diag(np.exp([-0.5j * eps, 0.5j * eps]))).max() < 1e-15


def test_global_phase_error_is_invisible():
    # an error that is a pure global phase has F = 1 and D = 0
    s = fd_from_unitary(UnitaryOperator(np.exp(1j * 0.9) * np.eye(4)))
    assert s.F == pytest.approx(1.0, abs=1e-12)
    assert s.D**2 == pytest.approx(0.0, abs=1e-12)


def test_moments_invariant_under_global_phase_of_implemented():
    # a global phase on the implemented circuit is a global phase on X
    theta = 0.7
    x = error_unitary(toffoli_circuit(), 0.15)
    rng = np.random.default_rng(1)
    for matrix in (x.matrix, haar_random_unitary(4, rng)):
        s1 = fd_from_unitary(UnitaryOperator(matrix))
        s2 = fd_from_unitary(UnitaryOperator(np.exp(1j * theta) * matrix))
        assert abs(s1.F - s2.F) <= 1e-12
        assert abs(s1.D - s2.D) <= 1e-12


def test_builder_continuity_near_zero():
    eps = 1e-6
    for model, n in (("toffoli", None), ("qft", 3)):
        x = build_model_error(model, eps, n)
        assert np.abs(x.matrix - np.eye(8)).max() <= 1e-4
    assert np.abs(build_cz_error(eps).matrix - np.eye(4)).max() <= 1e-4


def test_circuit_unitary_matches_embedding_product():
    # qft n = 3 puts CP gates on the non-adjacent, reversed targets (3, 1)
    for circ in (toffoli_circuit(), qft_circuit(3)):
        for eps in (None, 0.13):
            u = np.eye(1 << circ.n, dtype=complex)
            for spec in circ.gates:
                u = embedded(gate_matrix(spec, eps), spec.targets, circ.n) @ u
            assert np.abs(circuit_unitary(circ, eps) - u).max() < 1e-12


def test_left_apply_gate_single_qubit():
    out = left_apply_gate(np.eye(2, dtype=complex), SIGMA_X, (1,))
    assert np.array_equal(out, SIGMA_X)
    # sigma_x on qubit 2 of 2 maps |00> -> |01>
    out = left_apply_gate(np.eye(4, dtype=complex), SIGMA_X, (2,))
    state = np.zeros(4)
    state[0] = 1.0
    assert np.allclose(out @ state, np.eye(4)[1])


def test_left_apply_gate_cnot_enumeration():
    # oracle: CNOT with control=qubit1, target=qubit2 embedded in 3 qubits,
    # enumerated over all 8 basis states directly from the CNOT definition
    out = left_apply_gate(np.eye(8, dtype=complex), CNOT_GATE, (1, 2))
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


def test_left_apply_gate_disjoint_supports_commute():
    rng = np.random.default_rng(3)
    g = haar_random_unitary(2, rng)
    h = haar_random_unitary(2, rng)
    eye = np.eye(8, dtype=complex)
    # the kernel works in place, so each product starts from its own copy
    a = left_apply_gate(left_apply_gate(eye.copy(), h, (3,)), g, (1,))
    b = left_apply_gate(left_apply_gate(eye.copy(), g, (1,)), h, (3,))
    assert np.abs(a - b).max() < 1e-12


def test_error_unitary_checks_the_implemented_matrix(monkeypatch):
    # X has the circuit's dimension, and a non-finite parameter is rejected
    assert error_unitary(toffoli_circuit(), 0.1).matrix.shape == (8, 8)
    for eps in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            error_unitary(toffoli_circuit(), eps)
    # X = U_ideal^dag U_exp with U_ideal unitary, so X's unitarity check is
    # the implemented circuit's: a corrupted over-rotated gate fails it
    real = gates.gate_matrix

    def corrupted(spec, epsilon=None):
        gate = real(spec, epsilon)
        return gate if epsilon is None else 1.01 * gate

    monkeypatch.setattr(gates, "gate_matrix", corrupted)
    for circ in (toffoli_circuit(), qft_circuit(4)):
        with pytest.raises(UnitarityError):
            error_unitary(circ, 0.1)


@pytest.mark.parametrize("model,n", [("toffoli", None), ("qft", 3)])
def test_model_errors_validate_one_unitary_per_row(model, n, monkeypatch):
    built = []

    def counted(matrix):
        built.append(matrix)
        return UnitaryOperator(matrix)

    monkeypatch.setattr(gates, "UnitaryOperator", counted)
    rows = list(gates.model_errors(model, [1e-4, 0.1, 0.3], n))
    # one error unitary per row, and no ideal circuit
    assert len(built) == len(rows)


@pytest.mark.parametrize("model,n", [("toffoli", None), ("qft", 3), ("qft", 5)])
def test_model_errors_match_single_builds_bitwise(model, n):
    from gatecert.gates import model_errors

    params = [0.0, 1e-7, 3e-4, 0.05, 0.3]
    for param, x in zip(params, model_errors(model, params, n)):
        assert np.array_equal(x.matrix, build_model_error(model, param, n).matrix)


GATE_KINDS = (("H", None), ("T", None), ("Tdag", None), ("CNOT", None), ("CP", 0.7))


@pytest.mark.parametrize("n", range(1, 6))
def test_left_apply_gate_matches_embedding_on_haar_matrix(n):
    # every kind, ideal and over-rotated, on every target tuple: adjacent,
    # non-adjacent and reversed; the product lands in the argument itself
    rng = np.random.default_rng(n)
    for kind, angle in GATE_KINDS:
        k = 2 if kind in ("CNOT", "CP") else 1
        for targets in itertools.permutations(range(1, n + 1), k):
            for eps in (None, 0.3):
                gate = gate_matrix(GateSpec(kind, targets, angle), eps)
                u = haar_random_unitary(1 << n, rng)
                expect = embedded(gate, targets, n) @ u
                out = left_apply_gate(u, gate, targets)
                assert out is u
                assert np.abs(u - expect).max() <= 1e-15 * (1 << n), (kind, targets, eps)


@pytest.mark.parametrize("spec", [GateSpec("CNOT", (1, 2)), GateSpec("CP", (1, 2), 0.7)])
def test_two_qubit_gates_are_controlled_blocks(spec):
    # left_apply_gate's contract: a two-qubit gate is the identity where its
    # first target is 0, so the kernel moves only the control-1 rows
    for eps in (None, 0.3):
        gate = gate_matrix(spec, eps)
        for g in (gate, gate.conj().T):
            assert np.array_equal(g[:2, :2], np.eye(2))
            assert not g[:2, 2:].any() and not g[2:, :2].any()


@pytest.mark.parametrize("circ", [toffoli_circuit()] + [qft_circuit(n) for n in range(2, 7)])
def test_adjoint_pass_inverts_the_circuit(circ, monkeypatch):
    # with every gate forced to its ideal, X is the adjoint circuit times
    # the circuit, built by the same passes as any other X
    real = gates.gate_matrix
    monkeypatch.setattr(gates, "gate_matrix", lambda spec, epsilon=None: real(spec))
    x = error_unitary(circ, 0.1)
    assert np.abs(x.matrix - np.eye(1 << circ.n)).max() <= 1e-13


@pytest.mark.parametrize("circ", [toffoli_circuit(), qft_circuit(3), qft_circuit(5), qft_circuit(8)])
def test_error_unitary_matches_dense_product(circ):
    ideal = circuit_unitary(circ)
    for eps in (1e-7, 3e-4, 0.05, 0.3):
        dense = ideal.conj().T @ circuit_unitary(circ, eps)
        assert np.abs(error_unitary(circ, eps).matrix - dense).max() <= 1e-14, eps
