import dataclasses
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import gatecert
import gatecert.certify
import gatecert.cli
import gatecert.estimate
import gatecert.gates
import gatecert.linalg

BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"

# wrappers that only tests used, the hull routines that nothing in the
# package calls any more, the per-state record type that pass counts replace,
# the hybrid minimum and the (F, D) entries whose values certificate_bundle
# returns itself, and the gate builders and matrix exponentials that
# gate_matrix replaces
REMOVED = (
    "ShotRecord",
    "adjoint",
    "bound_fd",
    "bound_hybrid",
    "build_qft_pair",
    "build_toffoli_pair",
    "certified_overlap",
    "convex_hull",
    "d2_deviation",
    "distance_origin_to_hull",
    "embed_gate",
    "exp_involutory",
    "exp_projector_squared",
    "ideal_gate",
    "kron",
    "multiply",
    "overrotated_gate",
    "symmetric_subspace_dim",
    "trace",
    "trace_of_square",
)


def test_all_has_no_duplicates():
    assert len(set(gatecert.__all__)) == len(gatecert.__all__)


def test_every_exported_name_resolves():
    for name in gatecert.__all__:
        assert getattr(gatecert, name) is not None, name


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in gatecert.__all__
        assert not hasattr(gatecert, name), name


def test_removed_constants_stay_removed():
    # the three-point grid search's knobs, the fixed two-point tolerance on
    # Q, the blocked trace and the trace of the square that the eigenphase
    # moments replace, and the |det| check that the unitarity residual
    # already implies
    for module, name in (
        (gatecert.certify, "_PINNED_GRID"),
        (gatecert.certify, "_SUBSCAN_CHUNK"),
        (gatecert.certify, "_TWO_POINT_RTOL"),
        (gatecert.linalg, "_TRACE_BLOCK_ROWS"),
        (gatecert.linalg, "_trace_of_square_ld"),
        (gatecert.linalg, "_DET_TOL"),
        (gatecert.linalg, "_DET_CHECK_MAX_DIM"),
    ):
        assert not hasattr(module, name), name


def test_linalg_knows_no_qubits():
    # gates is the one module that knows about qubits, gate targets and the
    # gate model's exponentials
    for name in (
        "left_apply_gate",
        "embed_gate",
        "_check_targets",
        "exp_involutory",
        "exp_projector_squared",
    ):
        assert not hasattr(gatecert.linalg, name), name


def _load_bench_run(monkeypatch):
    """bench/run.py as a module, loaded without running it; its edits to
    sys.path and the BLAS thread variables are undone after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("gatecert_bench_run", BENCH_RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def test_bench_trace_targets_exist(monkeypatch):
    # `bench/run.py --trace 1` wraps these attributes; each must exist on the
    # package modules, and the gate kernel must be looked up through `gates`
    run = _load_bench_run(monkeypatch)
    api = SimpleNamespace(
        cli=gatecert.cli,
        certify=gatecert.certify,
        estimate=gatecert.estimate,
        gates=gatecert.gates,
        linalg=gatecert.linalg,
    )
    targets = run.trace_targets(api)
    for owner, attr, _span in targets:
        assert callable(getattr(owner, attr, None)), (owner, attr)

    with run.patched(run.SpanRecorder(), targets) as rec:
        gatecert.gates.build_model_error("toffoli", 0.1)
    # the implemented circuit's 15 gates, then the ideal circuit's 15
    # adjoint gates in reverse order
    assert rec.summary()["linalg.left_apply_gate"]["calls"] == 30


def test_moment_records_keep_only_what_is_read():
    assert tuple(f.name for f in dataclasses.fields(gatecert.MomentSummary)) == (
        "dim",
        "F",
        "D",
        "r",
    )
    assert gatecert.PQInvariants._fields == ("P2", "Q2")
