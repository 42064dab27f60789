"""Worst-case (diamond-distance) certification of coherent gate errors from
the average gate fidelity F and the fidelity deviation D."""

from .certify import (
    CertFlags,
    CertificateBundle,
    bound_fidelity_only,
    bound_ru,
    certificate_bundle,
    diamond_exact,
    tightness_witness,
)
from .estimate import (
    EstimationResult,
    HaarMCResult,
    certify_from_estimates,
    estimate_moments,
    haar_mc_moments,
    run_protocol,
    simulate_protocol,
    substream,
)
from .gates import (
    CircuitSpec,
    GateSpec,
    build_cz_error,
    build_model_error,
    circuit_unitary,
    error_unitary,
    gate_matrix,
    qft_circuit,
    toffoli_circuit,
)
from .linalg import (
    EigensolverError,
    UnitarityError,
    UnitaryOperator,
    eigenvalues_unitary,
    haar_random_unitary,
)
from .moments import (
    MomentSummary,
    PQInvariants,
    fd_from_unitary,
    pq_from_fd,
)

__version__ = "0.1.0"

__all__ = [
    "CertFlags",
    "CertificateBundle",
    "CircuitSpec",
    "EigensolverError",
    "EstimationResult",
    "GateSpec",
    "HaarMCResult",
    "MomentSummary",
    "PQInvariants",
    "UnitarityError",
    "UnitaryOperator",
    "bound_fidelity_only",
    "bound_ru",
    "build_cz_error",
    "build_model_error",
    "certificate_bundle",
    "certify_from_estimates",
    "circuit_unitary",
    "diamond_exact",
    "eigenvalues_unitary",
    "error_unitary",
    "estimate_moments",
    "fd_from_unitary",
    "gate_matrix",
    "haar_mc_moments",
    "haar_random_unitary",
    "pq_from_fd",
    "qft_circuit",
    "run_protocol",
    "simulate_protocol",
    "substream",
    "tightness_witness",
    "toffoli_circuit",
]
