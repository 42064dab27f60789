import math

import numpy as np
import pytest

from gatecert import (
    CircuitSpec,
    GateSpec,
    UnitaryOperator,
    build_cz_error,
    build_model_error,
    build_qft_pair,
    build_toffoli_pair,
    circuit_unitary,
    error_unitary,
    fd_from_unitary,
    ideal_gate,
    overrotated_gate,
    qft_circuit,
    toffoli_circuit,
)


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


def test_circuit_spec_target_range():
    with pytest.raises(ValueError):
        CircuitSpec(1, (GateSpec("H", (2,)),))


def test_ideal_gate_examples():
    t = ideal_gate(GateSpec("T", (1,)))
    tdag = ideal_gate(GateSpec("Tdag", (1,)))
    assert np.allclose(t @ tdag, np.eye(2))
    assert np.allclose(
        ideal_gate(GateSpec("CP", (1, 2), math.pi)), np.diag([1, 1, 1, -1])
    )
    h = ideal_gate(GateSpec("H", (1,)))
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
        assert np.array_equal(overrotated_gate(spec, 0.0), ideal_gate(spec))


def test_overrotated_cp_rule():
    theta, eps = 0.6, 0.1
    out = overrotated_gate(GateSpec("CP", (1, 2), theta), eps)
    assert np.allclose(out, np.diag([1, 1, 1, np.exp(1j * 1.1 * theta)]))


def test_overrotated_cnot_action_on_10():
    # multiply the two closed-form factors: on |10> the ideal CNOT gives
    # |11>, then the over-rotation mixes the target within the control-1
    # block, leaving cos(eps)|11> - i sin(eps)|10>
    eps = 0.3
    col = overrotated_gate(GateSpec("CNOT", (1, 2)), eps)[:, 2]
    assert col[3] == pytest.approx(math.cos(eps))
    assert col[2] == pytest.approx(-1j * math.sin(eps))
    assert abs(col[0]) == 0 and abs(col[1]) == 0


def test_overrotation_unsupported_kind():
    with pytest.raises(ValueError):
        overrotated_gate(GateSpec("CZ_phase", (1, 2), 0.3), 0.1)


def test_build_cz_error_examples():
    assert np.allclose(build_cz_error(0.0).matrix, np.eye(4))
    assert np.allclose(build_cz_error(math.pi).matrix, np.diag([1, 1, 1, -1]))
    phi = 0.42
    assert np.trace(build_cz_error(phi).matrix) == pytest.approx(3 + np.exp(1j * phi))


def test_toffoli_ideal_is_permutation():
    ideal, _ = build_toffoli_pair(0.0)
    perm = np.eye(8)
    perm[[6, 7]] = perm[[7, 6]]  # swaps |110> and |111>
    assert np.abs(ideal.matrix - perm).max() < 1e-12


def test_toffoli_error_identity_at_zero():
    ideal, implemented = build_toffoli_pair(0.0)
    x = error_unitary(ideal, implemented)
    assert np.abs(x.matrix - np.eye(8)).max() < 1e-12


def test_toffoli_implemented_is_unitary():
    _, implemented = build_toffoli_pair(0.1)
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
        ideal, implemented = build_qft_pair(n, 0.0)
        x = error_unitary(ideal, implemented)
        assert np.abs(x.matrix - np.eye(1 << n)).max() <= 1e-10


def test_qft_uniform_superposition_from_zero_state():
    ideal, _ = build_qft_pair(3, 0.0)
    col = ideal.matrix[:, 0]
    assert np.abs(col - 1.0 / math.sqrt(8)).max() < 1e-12


def test_qft_range_check():
    with pytest.raises(ValueError):
        qft_circuit(1)
    with pytest.raises(ValueError):
        qft_circuit(11)


def test_error_unitary_examples():
    rng = np.random.default_rng(0)
    from gatecert import haar_random_unitary

    u = UnitaryOperator(haar_random_unitary(4, rng))
    assert np.abs(error_unitary(u, u).matrix - np.eye(4)).max() < 1e-12

    phi, phi_eps = 0.5, 0.2
    ideal = UnitaryOperator(np.diag([1, 1, 1, np.exp(1j * phi)]))
    implemented = UnitaryOperator(np.diag([1, 1, 1, np.exp(1j * (phi + phi_eps))]))
    x = error_unitary(ideal, implemented)
    assert np.abs(x.matrix - np.diag([1, 1, 1, np.exp(1j * phi_eps)])).max() < 1e-12


def test_global_phase_error_is_invisible():
    rng = np.random.default_rng(1)
    from gatecert import haar_random_unitary

    u = UnitaryOperator(haar_random_unitary(4, rng))
    shifted = UnitaryOperator(np.exp(1j * 0.9) * u.matrix)
    x = error_unitary(u, shifted)
    s = fd_from_unitary(x)
    assert s.F == pytest.approx(1.0, abs=1e-12)
    # D is the square root of a cancellation, so rounding in the u-dagger-u
    # product leaves a sqrt(eps)-level floor; assert on D^2
    assert s.D**2 == pytest.approx(0.0, abs=1e-12)


def test_moments_invariant_under_global_phase_of_implemented():
    theta = 0.7
    ideal, implemented = build_toffoli_pair(0.15)
    x1 = error_unitary(ideal, implemented)
    x2 = error_unitary(
        ideal, UnitaryOperator(np.exp(1j * theta) * implemented.matrix)
    )
    s1, s2 = fd_from_unitary(x1), fd_from_unitary(x2)
    assert abs(s1.F - s2.F) <= 1e-12
    assert abs(s1.D - s2.D) <= 1e-12


def test_builder_continuity_near_zero():
    eps = 1e-6
    ideal, implemented = build_toffoli_pair(eps)
    x = error_unitary(ideal, implemented)
    assert np.abs(x.matrix - np.eye(8)).max() <= 1e-4
    ideal, implemented = build_qft_pair(3, eps)
    x = error_unitary(ideal, implemented)
    assert np.abs(x.matrix - np.eye(8)).max() <= 1e-4
    assert np.abs(build_cz_error(eps).matrix - np.eye(4)).max() <= 1e-4


def test_circuit_unitary_matches_embedding_product():
    from gatecert import embed_gate

    circ = toffoli_circuit()
    u = np.eye(8, dtype=complex)
    for spec in circ.gates:
        u = embed_gate(ideal_gate(spec), spec.targets, 3) @ u
    assert np.abs(circuit_unitary(circ) - u).max() < 1e-12


@pytest.mark.parametrize("model,n", [("toffoli", None), ("qft", 3), ("qft", 5)])
def test_model_errors_match_single_builds_bitwise(model, n):
    from gatecert.gates import model_errors

    params = [0.0, 1e-7, 3e-4, 0.05, 0.3]
    for param, x in zip(params, model_errors(model, params, n)):
        assert np.array_equal(x.matrix, build_model_error(model, param, n).matrix)
