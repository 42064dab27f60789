"""Gate zoo, coherent over-rotation models, and builders for the three
benchmark circuits: a CZ-like phase error (d=4), the 15-gate Clifford+T
Toffoli decomposition (d=8), and the n-qubit QFT without final swaps.

Every gate-sequence product is written in acting order: the first gate in a
CircuitSpec acts first on the state, so the circuit unitary is G_L ... G_2 G_1.
Qubit 1 is the most significant bit of the computational-basis index; this is
the one module that knows about qubits and gate targets.

Every primitive has one shape, a 2 x 2 block on its last target: a
one-qubit gate is the block, and a two-qubit gate (CNOT, CP) is the identity
where its first target is 0 and the block where it is 1, in ideal,
over-rotated and adjoint form alike. Matrices are built gate by gate with
left_apply_gate, which relies on that shape: it updates its argument in
place through reshape views, touching only the rows the block moves. The
error unitary X = U_ideal^dag U_exp of a circuit is the implemented circuit
followed by the ideal circuit's adjoint gates in reverse order, so no ideal
d x d matrix is held and no d^3 product runs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .linalg import UnitaryOperator

_SQRT_HALF = 1.0 / math.sqrt(2.0)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) * _SQRT_HALF
T_GATE = np.diag([1.0, np.exp(1j * math.pi / 4)]).astype(np.complex128)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Z = np.diag([1.0, -1.0]).astype(np.complex128)
PROJ_ONE = np.diag([0.0, 1.0]).astype(np.complex128)
CNOT_GATE = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
)
# generator of the CNOT over-rotation, P1 (x) sigma_x, and its square, the
# projector P1 (x) 1
CNOT_GENERATOR = np.kron(PROJ_ONE, SIGMA_X)
_CNOT_GENERATOR_SQ = CNOT_GENERATOR @ CNOT_GENERATOR
_EYE2 = np.eye(2)
_EYE4 = np.eye(4)

_IDEAL = {"H": HADAMARD, "T": T_GATE, "Tdag": T_GATE.conj(), "CNOT": CNOT_GATE}
_ARITY = {"H": 1, "T": 1, "Tdag": 1, "CNOT": 2, "CP": 2}


@dataclass(frozen=True)
class GateSpec:
    """One primitive gate: kind, ordered target qubits, and optional angle."""

    kind: str
    targets: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in _ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if not all(isinstance(t, numbers.Integral) for t in self.targets):
            raise ValueError(f"gate targets must be integers, got {self.targets}")
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        if len(self.targets) != _ARITY[self.kind]:
            raise ValueError(
                f"{self.kind} takes {_ARITY[self.kind]} target(s), got {self.targets}"
            )
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"duplicate target qubits: {self.targets}")
        if (self.kind == "CP") != (self.angle is not None):
            raise ValueError("an angle must be given for CP and only for CP")
        if self.angle is not None and not math.isfinite(self.angle):
            raise ValueError("angle must be finite")


@dataclass(frozen=True)
class CircuitSpec:
    """Qubit count and gate list; the first listed gate acts first."""

    n: int
    gates: tuple[GateSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if any(t < 1 or t > self.n for t in g.targets):
                raise ValueError(f"gate targets {g.targets} outside [1, {self.n}]")


def controlled_phase(theta: float) -> np.ndarray:
    return np.diag([1.0, 1.0, 1.0, np.exp(1j * theta)]).astype(np.complex128)


def gate_matrix(spec: GateSpec, epsilon: float | None = None) -> np.ndarray:
    """The primitive's 2^k x 2^k matrix: ideal when epsilon is None, else
    under the coherent over-rotation model.

    T and Tdag pick up exp(-i eps sigma_z / 2), H picks up exp(-i eps H / 2)
    and CNOT picks up exp(-i eps G) with G = P1 (x) sigma_x, each factor
    applied after the ideal gate; CP(theta) becomes CP((1+eps) theta).
    """
    if spec.kind == "CP":
        angle = spec.angle if epsilon is None else (1.0 + epsilon) * spec.angle
        return controlled_phase(angle)
    ideal = _IDEAL[spec.kind]
    if epsilon is None:
        return ideal.copy()
    if spec.kind == "CNOT":
        # G^2 is a projector: exp(-i eps G) = 1 + (cos eps - 1) G^2 - i sin eps G
        rot = (
            _EYE4
            + (np.cos(epsilon) - 1.0) * _CNOT_GENERATOR_SQ
            - 1j * np.sin(epsilon) * CNOT_GENERATOR
        )
    else:
        # G^2 = 1: exp(-i t G) = cos t - i sin t G, at t = eps / 2
        g = HADAMARD if spec.kind == "H" else SIGMA_Z
        t = epsilon / 2.0
        rot = np.cos(t) * _EYE2 - 1j * np.sin(t) * g
    return rot @ ideal


def left_apply_gate(u: np.ndarray, gate: np.ndarray, targets) -> np.ndarray:
    """Left-multiply u by the gate embedded on the target qubits, in place,
    and return u.

    Every gate has one shape, a 2 x 2 block B = gate[-2:, -2:] on the last
    target: a one-qubit gate is B itself, and a two-qubit gate is the
    identity where its first target is 0 and B where it is 1 (CNOT and CP,
    ideal, over-rotated or adjoint). So the kernel takes a view of u's rows
    with the last target's bit as axis -2, restricted to control 1 for a
    two-qubit gate, and updates only that view. A diagonal B multiplies in
    place each row block whose entry is not 1: half of the rows for ideal T
    and T^dag, a quarter for CP. Any other B replaces the view by B @ view:
    all rows for H, the control-1 half for CNOT.

    Nothing is checked: u is a C-contiguous complex array with 2^n rows, n
    qubits, so that its reshapes are views and the update lands in u; the
    gate is invertible, of shape 2^k x 2^k, and for k = 2 has the controlled
    shape above; the k targets are distinct and lie in [1, n], as a GateSpec
    inside its CircuitSpec guarantees.
    """
    c, t = targets[0], targets[-1]
    if len(targets) == 1:
        rows = u.reshape(1 << (t - 1), 2, -1)
    elif c < t:
        rows = u.reshape(1 << (c - 1), 2, 1 << (t - c - 1), 2, -1)[:, 1]
    else:
        view = u.reshape(1 << (t - 1), 2, 1 << (c - t - 1), 2, -1)
        rows = view[..., 1, :].swapaxes(1, 2)
    block = gate[-2:, -2:]
    if block[0, 1] == 0 and block[1, 0] == 0:
        for k in (0, 1):
            if block[k, k] != 1:
                rows[..., k, :] *= block[k, k]
    else:
        rows[...] = block @ rows
    return u


def _gate_matrices(circuit: CircuitSpec, epsilon: float | None) -> list[np.ndarray]:
    """The matrix of each of the circuit's gates, in acting order. A matrix
    depends on the gate's kind and angle only, so gates that share both
    share one matrix."""
    built = {}
    for spec in circuit.gates:
        key = (spec.kind, spec.angle)
        if key not in built:
            built[key] = gate_matrix(spec, epsilon)
    return [built[spec.kind, spec.angle] for spec in circuit.gates]


def circuit_unitary(circuit: CircuitSpec, epsilon: float | None = None) -> np.ndarray:
    """Product of the circuit's gates (ideal when epsilon is None)."""
    u = np.eye(1 << circuit.n, dtype=np.complex128)
    for spec, gate in zip(circuit.gates, _gate_matrices(circuit, epsilon)):
        left_apply_gate(u, gate, spec.targets)
    return u


def toffoli_circuit() -> CircuitSpec:
    """Standard 15-gate Clifford+T decomposition of the Toffoli gate
    (controls on qubits 1, 2; target on qubit 3), in acting order."""
    g = [
        GateSpec("H", (3,)),
        GateSpec("CNOT", (2, 3)),
        GateSpec("Tdag", (3,)),
        GateSpec("CNOT", (1, 3)),
        GateSpec("T", (3,)),
        GateSpec("CNOT", (2, 3)),
        GateSpec("Tdag", (3,)),
        GateSpec("CNOT", (1, 3)),
        GateSpec("T", (2,)),
        GateSpec("T", (3,)),
        GateSpec("CNOT", (1, 2)),
        GateSpec("H", (3,)),
        GateSpec("T", (1,)),
        GateSpec("Tdag", (2,)),
        GateSpec("CNOT", (1, 2)),
    ]
    return CircuitSpec(3, tuple(g))


def qft_circuit(n: int) -> CircuitSpec:
    """n-qubit QFT from Hadamards and controlled phases, final swaps omitted."""
    model_dimension("qft", n)  # rejects a qubit count outside [2, 10]
    gates = []
    for j in range(1, n + 1):
        gates.append(GateSpec("H", (j,)))
        for k in range(j + 1, n + 1):
            gates.append(GateSpec("CP", (k, j), math.pi / 2 ** (k - j)))
    return CircuitSpec(n, tuple(gates))


def build_cz_error(phi_epsilon: float) -> UnitaryOperator:
    """CZ-like coherent phase miscalibration: the ideal controlled phase
    cancels, leaving diag(1, 1, 1, e^{i phi}) directly."""
    return UnitaryOperator(controlled_phase(phi_epsilon))


def error_unitary(circuit: CircuitSpec, epsilon: float) -> UnitaryOperator:
    """The circuit's effective error unitary X = U_ideal^dag U_exp at
    over-rotation epsilon, validated unitary.

    U_exp is built gate by gate, then the ideal circuit's adjoint gates are
    applied to it in reverse order (H and CNOT are their own adjoints, T and
    T^dag swap, CP(theta) becomes CP(-theta)), all in place through
    left_apply_gate: no ideal matrix is formed and no matrix product runs.
    At epsilon = 0 every gate is its ideal and X is the identity exactly.
    """
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    if epsilon == 0:
        return UnitaryOperator(np.eye(1 << circuit.n))
    u = circuit_unitary(circuit, epsilon)
    ideal = _gate_matrices(circuit, None)
    for spec, gate in zip(reversed(circuit.gates), reversed(ideal)):
        left_apply_gate(u, gate.conj().T, spec.targets)
    return UnitaryOperator(u)


def model_errors(model: str, params, n: int | None = None):
    """Yield the effective error unitary of a named benchmark model at each
    parameter in turn; the model's circuit is built once, before the first
    step."""
    model_dimension(model, n)
    if model == "cz":
        for param in params:
            yield build_cz_error(param)
        return
    circ = toffoli_circuit() if model == "toffoli" else qft_circuit(n)
    for param in params:
        yield error_unitary(circ, param)


def build_model_error(model: str, param: float, n: int | None = None) -> UnitaryOperator:
    """Effective error unitary for one of the named benchmark models."""
    return next(model_errors(model, (param,), n))


def model_dimension(model: str, n: int | None = None) -> int:
    """Hilbert-space dimension of a named benchmark model; the one check of
    the model name and of the qubit count, which qft requires (in [2, 10])
    and cz and toffoli, whose qubits are fixed, reject."""
    if model in ("cz", "toffoli"):
        if n is not None:
            raise ValueError(f"the {model} model takes no qubit count, got {n}")
        return 4 if model == "cz" else 8
    if model == "qft":
        if n is None:
            raise ValueError("the qft model requires a qubit count")
        if not 2 <= n <= 10:
            raise ValueError(f"qubit count must be in [2, 10], got {n}")
        return 1 << n
    raise ValueError(f"unknown model {model!r}")
