"""gatecert benchmark: one workload per run, closed loop, one caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload until S seconds of calls into gatecert have
been timed, checks every output against the independent references, and
prints one JSON object as the last line of standard output:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 the run times half of S untraced, replays
the same rounds with every layer boundary wrapped in spans, and reports the
per-layer metrics. Timings are scaled by a calibration loop run around each
round (see Tally). `--workload all` runs the four workloads in turn and
prints one such line per workload. gatecert is imported from src/ of the
checkout this file sits in; nothing is installed. Failures are listed on
standard error and in bench/out/.
"""

from __future__ import annotations

import os

# one BLAS thread, fixed before numpy loads: a threaded BLAS waits on
# whichever core the host slows, and the calibration loop below times the
# core the work runs on
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
CALIBRATION_LOOPS = 20_000
# the loop's time at full speed on the 2-vCPU host of the reference figures;
# every timing is scaled to a machine running the loop in exactly this time
CALIBRATION_REF_S = 1.25e-3

sys.path[:0] = [str(SRC), str(HERE)]

import numpy as np  # noqa: E402

from spans import SpanRecorder, patched  # noqa: E402
from workloads import WORKLOADS, Spectrum  # noqa: E402

# per-layer metrics: (name, span name, field); times and counts per item
LAYER_SPANS = (
    ("gates.circuit_unitary.calls", "gates.circuit_unitary", "calls"),
    ("gates.circuit_unitary.self_s", "gates.circuit_unitary", "self_s"),
    ("linalg.left_apply_gate.calls", "linalg.left_apply_gate", "calls"),
    ("linalg.left_apply_gate.s", "linalg.left_apply_gate", "s"),
    ("linalg.UnitaryOperator.calls", "linalg.UnitaryOperator", "calls"),
    ("linalg.UnitaryOperator.s", "linalg.UnitaryOperator", "s"),
    ("linalg.eigenvalues_unitary.s", "linalg.eigenvalues_unitary", "s"),
    ("gates.error_unitary.s", "gates.error_unitary", "s"),
    ("moments.fd_from_unitary.s", "moments.fd_from_unitary", "s"),
    ("geometry.convex_hull.s", "geometry.convex_hull", "s"),
    ("geometry.distance_origin_to_hull.s", "geometry.distance_origin_to_hull", "s"),
    ("certify.diamond_exact.s", "certify.diamond_exact", "s"),
    ("cli.self_s", "cli", "self_s"),
    ("certify.certificate_bundle.calls", "certify.certificate_bundle", "calls"),
    ("certify.certificate_bundle.self_s", "certify.certificate_bundle", "self_s"),
    ("estimate.substream.calls", "estimate.substream", "calls"),
    ("estimate.substream.s", "estimate.substream", "s"),
    ("estimate.sample_haar_state.s", "estimate.sample_haar_state", "s"),
    ("moments.single_fidelity.s", "moments.single_fidelity", "s"),
    ("estimate.estimate_moments.s", "estimate.estimate_moments", "s"),
    ("estimate.certify_from_estimates.s", "estimate.certify_from_estimates", "s"),
)


def import_gatecert() -> SimpleNamespace:
    """Import gatecert afresh from the checkout's src/ (never an installed
    copy), dropping any modules left from an earlier import."""
    for name in [m for m in sys.modules if m == "gatecert" or m.startswith("gatecert.")]:
        del sys.modules[name]
    api = SimpleNamespace(
        **{m: importlib.import_module(f"gatecert.{m}") for m in ("cli", "certify", "estimate", "gates", "linalg")}
    )
    if Path(api.cli.__file__).resolve().parent != SRC / "gatecert":
        raise ImportError(f"gatecert loaded from {api.cli.__file__}, not {SRC}")
    return api


def trace_targets(api):
    """Module attributes the callers look up, and the span each becomes."""
    cli, certify, estimate, gates, linalg = api.cli, api.certify, api.estimate, api.gates, api.linalg
    return [
        (cli, "main", "cli"),
        (cli, "build_model_error", "gates.build_model_error"),
        (cli, "fd_from_unitary", "moments.fd_from_unitary"),
        (cli, "certificate_bundle", "certify.certificate_bundle"),
        (cli, "run_protocol", "estimate.run_protocol"),
        (cli, "certify_from_estimates", "estimate.certify_from_estimates"),
        (gates, "circuit_unitary", "gates.circuit_unitary"),
        (gates, "left_apply_gate", "linalg.left_apply_gate"),
        (gates, "error_unitary", "gates.error_unitary"),
        (linalg.UnitaryOperator, "__init__", "linalg.UnitaryOperator"),
        (certify, "certificate_bundle", "certify.certificate_bundle"),
        (certify, "diamond_exact", "certify.diamond_exact"),
        (certify, "eigenvalues_unitary", "linalg.eigenvalues_unitary"),
        (certify, "convex_hull", "geometry.convex_hull"),
        (certify, "distance_origin_to_hull", "geometry.distance_origin_to_hull"),
        (estimate, "simulate_protocol", "estimate.simulate_protocol"),
        (estimate, "substream", "estimate.substream"),
        (estimate, "sample_haar_state", "estimate.sample_haar_state"),
        (estimate, "single_fidelity", "moments.single_fidelity"),
        (estimate, "estimate_moments", "estimate.estimate_moments"),
        (estimate, "certificate_bundle", "certify.certificate_bundle"),
    ]


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop: the machine's speed now.
    The collector is paused so garbage left by gatecert cannot slow it."""
    gc.disable()
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


class Tally:
    """Timed calls, items and the failure ledger of one pass over rounds.

    The host's speed swings by up to 1.6x, switching within seconds and with
    a duty cycle that drifts over minutes, so raw wall times of the same work
    spread by a third between runs. Each round is therefore bracketed by two
    calibrations, and `scaled()` reports each call's time on a machine of
    fixed speed: latency x CALIBRATION_REF_S / (mean of the two calibrations
    around its round).
    """

    def __init__(self, recorder: SpanRecorder | None = None):
        self.recorder = recorder
        self.latencies: list[float] = []
        self.speeds: list[float] = []  # calibration of each call's round
        self.labels: list[str] = []
        self.items = 0
        self.busy = 0.0
        self.attempted = 0
        self.failures: list[tuple] = []  # (call label, operation index, reasons)

    def run_round(self, calls) -> None:
        clock = time.perf_counter
        before = calibrate()
        for call in calls:
            start = clock()
            try:
                result = call.run()
            except Exception as exc:  # a crash fails the call's operations, the run goes on
                result = exc
            self.latencies.append(clock() - start)
            self.labels.append(call.label)
            self.items += call.items
            if isinstance(result, Exception):
                verdicts = [[f"exception {type(result).__name__}: {result}"]]
            else:
                if self.recorder:
                    self.recorder.active = False
                verdicts = call.check(result)
                if self.recorder:
                    self.recorder.active = True
            self.attempted += len(verdicts)
            self.failures += [(call.label, i, tuple(why)) for i, why in enumerate(verdicts) if why]
        speed = (before + calibrate()) / 2
        self.speeds += [speed] * (len(self.latencies) - len(self.speeds))
        self.busy = sum(self.latencies)

    def scaled(self) -> list[float]:
        return [t * CALIBRATION_REF_S / s for t, s in zip(self.latencies, self.speeds)]


def csv_path(name: str) -> Path:
    """Where the workload's commands write their CSV; one file per process,
    so runs sharing a checkout never read each other's output."""
    return OUT / f"{name}-{os.getpid()}.csv"


def setup(name: str, seed: int):
    """Import gatecert and generate the first round's inputs, SETUP_REPEATS
    times; returns the last workload, its first round, and each repeat's
    time with its mean calibration."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        start = time.perf_counter()
        api = import_gatecert()
        workload = WORKLOADS[name](api, seed, str(csv_path(name)))
        first = workload.round(0)
        elapsed = time.perf_counter() - start
        times.append((elapsed, (before + calibrate()) / 2))
    return api, workload, first, times


def run_rounds(workload, first, tally: Tally, seconds: float | None = None, rounds: int | None = None) -> int:
    """Whole rounds until `seconds` of calls are timed, or exactly `rounds`."""
    r = 0
    while (tally.busy < seconds) if rounds is None else (r < rounds):
        tally.run_round(first if r == 0 else workload.round(r))
        r += 1
    return r


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(tally: Tally, setup_times) -> dict:
    ms = [t * 1e3 for t in tally.scaled()]
    setup_s = statistics.median(t * CALIBRATION_REF_S / s for t, s in setup_times)
    return {
        "items_per_s": (tally.items / sum(ms) * 1e3, "1/s"),
        "call_p50_ms": (quantile(ms, 0.5), "ms"),
        "call_p90_ms": (quantile(ms, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(workload: str, rec: SpanRecorder, traced: Tally, plain: Tally) -> dict:
    summary = rec.summary()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    metrics = {}
    for metric, span, field in LAYER_SPANS:
        unit = "calls/item" if field == "calls" else "s/item"
        metrics[metric] = (summary.get(span, empty)[field] / traced.items, unit)
    # on certify_fd every call is one certificate, labelled with its class;
    # elsewhere no call is, and the class medians read 0
    cert_ms = rec.durations("certify.certificate_bundle") * 1e3 if workload == "certify_fd" else []
    for cls in Spectrum.KINDS:
        sel = [ms for ms, label in zip(cert_ms, traced.labels) if label == cls]
        metrics[f"certify.ms_p50.{cls}"] = (float(np.median(sel)) if sel else 0.0, "ms")
    overhead = sum(traced.scaled()) / traced.items - sum(plain.scaled()) / plain.items
    metrics["trace.overhead_s"] = (overhead, "s/item")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    api, workload, first, setup_times = setup(name, seed)
    plain = Tally()
    if not trace:
        run_rounds(workload, first, plain, seconds=seconds)
        tallies = [plain]
    else:
        rounds = run_rounds(workload, first, plain, seconds=seconds / 2)
        rec = SpanRecorder()
        traced = Tally(rec)
        with patched(rec, trace_targets(api)):
            run_rounds(workload, first, traced, rounds=rounds)
        rec.save(OUT / f"spans-{name}.npz")
        tallies = [plain, traced]
    csv_path(name).unlink(missing_ok=True)
    if not trace:
        metrics = end_to_end(plain, setup_times)
    else:
        metrics = per_layer(name, rec, traced, plain)
    failures = Counter(f for t in tallies for f in t.failures)
    reasons = Counter()
    for (_, _, why), count in failures.items():
        reasons.update({r: count for r in why})
    attempted = sum(t.attempted for t in tallies)
    failed = sum(failures.values())
    ledger = [{"call": c, "op": op, "reasons": why, "count": n} for (c, op, why), n in sorted(failures.items())]
    with open(OUT / f"ledger-{name}.json", "w") as fh:
        json.dump({"workload": name, "seed": seed, "attempted": attempted, "failed": failed,
                   "reasons": reasons, "failures": ledger}, fh, indent=1)
    for reason, count in sorted(reasons.items()):
        print(f"{name}: {count} x {reason}", file=sys.stderr)
    return {
        "correct": set(reasons) <= workload.known_faults,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "gatecert" / "__init__.py").is_file():
        print(f"run.py: no gatecert sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if args.workload == "all":
            result = {"workload": name, **result}
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
