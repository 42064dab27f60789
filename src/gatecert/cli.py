"""Command-line frontend: parameter sweeps over the benchmark error models
(CSV), protocol-simulation runs, single-point moment queries, and the
self-verification suite.

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 verification
failure. All CSV output uses fixed column order, '.' decimals, 17 significant
digits, and LF line endings, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import __version__
from .certify import certificate_bundle
from .estimate import certify_from_estimates, run_protocols

# run_protocol is not called here: bench/run.py wraps the name in its
# traced runs
from .estimate import run_protocol  # noqa: F401
from .gates import build_model_error, model_dimension, model_errors
from .linalg import EigensolverError, UnitarityError
from .moments import fd_from_unitary, pq_from_fd
from .verify import run_verification

# b_ru_at_u is the (r, u) bound at u = 1: every error these commands build
# is unitary
SWEEP_COLUMNS = (
    "model,n,param,F,D,r,d_exact,b_fidelity_only,b_ru_at_u,b_fd,b_hybrid,flags,"
    "b_fidelity_only_raw,b_ru_at_u_raw"
)
ESTIMATE_COLUMNS = "model,n,param,M,N,seed,F_hat,D_hat,truncated,b_fidelity_only,b_fd,flags"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _grid(lo: float, hi: float, steps: int, log: bool) -> np.ndarray:
    if steps < 2:
        raise _UsageError(f"--steps must be at least 2, got {steps}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise _UsageError(f"--min and --max must be finite, got [{lo}, {hi}]")
    if not hi > lo:
        raise _UsageError(f"--max must exceed --min, got [{lo}, {hi}]")
    if log:
        if lo <= 0:
            raise _UsageError("--log-grid requires a positive --min")
        return np.geomspace(lo, hi, steps)
    return np.linspace(lo, hi, steps)


def _sweep_row(model: str, n: int, param: float, s, bundle) -> str:
    """One CSV row in SWEEP_COLUMNS order."""
    return ",".join(
        [
            model,
            str(n),
            _fmt(param),
            _fmt(s.F),
            _fmt(s.D),
            _fmt(s.r),
            _fmt(bundle.d_exact),
            _fmt(bundle.b_fidelity_only),
            _fmt(bundle.b_ru),
            _fmt(bundle.b_fd),
            _fmt(bundle.b_hybrid),
            str(int(bundle.flags)),
            _fmt(bundle.b_fidelity_only_raw),
            _fmt(bundle.b_ru_raw),
        ]
    )


def cmd_sweep(args) -> int:
    d = model_dimension(args.model, args.n)
    n = d.bit_length() - 1
    params = [float(p) for p in _grid(args.min, args.max, args.steps, args.log_grid)]
    lines = [SWEEP_COLUMNS]
    for param, x in zip(params, model_errors(args.model, params, args.n)):
        s = fd_from_unitary(x)
        bundle = certificate_bundle(d, s.F, s.D, u=1.0, x=x)
        lines.append(_sweep_row(args.model, n, param, s, bundle))
    _write_lines(args.out, lines)
    return 0


def cmd_estimate(args) -> int:
    if args.samples < 2 or args.shots < 2:
        raise _UsageError("--samples and --shots must both be at least 2")
    if args.repeats < 1:
        raise _UsageError("--repeats must be at least 1")
    if args.seed < 0:
        raise _UsageError("--seed must be nonnegative")
    d = model_dimension(args.model, args.n)
    n = d.bit_length() - 1
    x = build_model_error(args.model, args.param, args.n)
    seeds = range(args.seed, args.seed + args.repeats)
    lines = [ESTIMATE_COLUMNS]
    for result in run_protocols(x, args.samples, args.shots, seeds):
        bundle = certify_from_estimates(result, d)
        lines.append(
            ",".join(
                [
                    args.model,
                    str(n),
                    _fmt(args.param),
                    str(args.samples),
                    str(args.shots),
                    str(result.seed),
                    _fmt(result.F_hat),
                    _fmt(result.D_hat),
                    str(int(result.truncated)),
                    _fmt(bundle.b_fidelity_only),
                    _fmt(bundle.b_fd),
                    str(int(bundle.flags)),
                ]
            )
        )
    _write_lines(args.out, lines)
    return 0


def cmd_moments(args) -> int:
    d = model_dimension(args.model, args.n)
    n = d.bit_length() - 1
    x = build_model_error(args.model, args.param, args.n)
    s = fd_from_unitary(x)
    pq = pq_from_fd(s.F, s.D, d)
    bundle = certificate_bundle(d, s.F, s.D, u=1.0, x=x)
    if args.csv:
        print(SWEEP_COLUMNS)
        print(_sweep_row(args.model, n, args.param, s, bundle))
        return 0
    rows = [
        ("model", args.model),
        ("n_qubits", n),
        ("dim", d),
        ("param", _fmt(args.param)),
        ("F", _fmt(s.F)),
        ("D", _fmt(s.D)),
        ("r", _fmt(s.r)),
        ("P2", _fmt(pq.P2)),
        ("Q2", _fmt(pq.Q2)),
        ("c_FD", _fmt(bundle.c_value)),
        ("d_exact", _fmt(bundle.d_exact)),
        ("b_fidelity_only", _fmt(bundle.b_fidelity_only)),
        ("b_ru_at_u=1", _fmt(bundle.b_ru)),
        ("b_fd", _fmt(bundle.b_fd)),
        ("b_hybrid", _fmt(bundle.b_hybrid)),
        ("hybrid_winner", bundle.hybrid_winner),
        ("flags", int(bundle.flags)),
    ]
    for key, value in rows:
        print(f"{key}: {value}")
    return 0


def cmd_verify(args) -> int:
    return 0 if run_verification(full=args.full) else 3


def _write_lines(path: str, lines: list[str]) -> None:
    try:
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}") from exc


@functools.cache
def _parser() -> _Parser:
    """The command-line parser, built on the first call. Parsing leaves it
    unchanged, so every later call in the process reuses it."""
    parser = _Parser(prog="gatecert", description=__doc__)
    parser.add_argument("--version", action="version", version=f"gatecert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="parameter sweep over an error model, CSV output")
    sweep.add_argument("--model", required=True, choices=("cz", "toffoli", "qft"))
    sweep.add_argument("--n", type=int, default=None, help="qubit count (qft only)")
    sweep.add_argument("--min", type=float, default=1e-3)
    sweep.add_argument("--max", type=float, default=1.0)
    sweep.add_argument("--steps", type=int, default=50)
    sweep.add_argument("--log-grid", action="store_true", help="geometric parameter spacing")
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(func=cmd_sweep)

    est = sub.add_parser("estimate", help="simulate the randomized estimation protocol")
    est.add_argument("--model", required=True, choices=("cz", "toffoli", "qft"))
    est.add_argument("--n", type=int, default=None, help="qubit count (qft only)")
    est.add_argument("--param", type=float, required=True)
    est.add_argument("--samples", type=int, default=500, help="random input states M")
    est.add_argument("--shots", type=int, default=1000, help="shots per state N")
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--repeats", type=int, default=1, help="rows with seeds seed, seed+1, ...")
    est.add_argument("--out", required=True)
    est.set_defaults(func=cmd_estimate)

    mom = sub.add_parser("moments", help="moments and certificates at one parameter point")
    mom.add_argument("--model", required=True, choices=("cz", "toffoli", "qft"))
    mom.add_argument("--n", type=int, default=None, help="qubit count (qft only)")
    mom.add_argument("--param", type=float, required=True)
    mom.add_argument("--csv", action="store_true", help="emit a machine-readable CSV row")
    mom.set_defaults(func=cmd_moments)

    ver = sub.add_parser("verify", help="run the self-verification suite")
    ver.add_argument("--full", action="store_true", help="acceptance-grade sample sizes")
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (EigensolverError, UnitarityError) as exc:
        print(f"gatecert: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, ValueError) as exc:
        print(f"gatecert: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
