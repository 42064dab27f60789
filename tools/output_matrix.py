"""Write a fixed matrix of `gatecert` CLI outputs to a directory, one file per
command, so that two versions of the package can be compared byte for byte.

    PYTHONPATH=src python tools/output_matrix.py OUT_DIR

The package is imported from the path, so pointing PYTHONPATH at another
checkout's `src` writes that version's matrix; `diff -r` between two output
directories then shows every output byte a change moved. The commands use
only options that every version of the CLI accepts, with their defaults.

The matrix: `sweep` for cz, toffoli and qft n = 3, 4, 6 on a 40-step log grid
from 1e-7 to 3, plus qft n = 10 at two points; `moments` text and `--csv`
output at five points; `estimate --repeats 20` at five points. No CLI output
reaches the tightness witness or the (F, D)-only three-point search, so one
more file, `certify.csv`, holds `certificate_bundle(d, F, D, u=1.0)`'s `b_fd`,
`c_value` and `flags`, and the diamond distance of `tightness_witness(F, D,
d)` or `ValueError`, on fixed inputs that reach every branch of c(F, D): the
relaxation at even and odd d, two-point families (CZ up to phi = pi, d = 5
and 8), the three-point search up to d = 24, the dim cap, the
relaxation-root fallback, clamped and vacuous data. The witness exists on
the relaxation at even d and on the two-point and three-point branches;
every other row reads `ValueError`.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
from pathlib import Path

import mpmath

from gatecert import certificate_bundle, cli, diamond_exact, tightness_witness

GRID = ["--log-grid", "--min", "1e-7", "--max", "3", "--steps", "40"]

SWEEPS = {
    "sweep_cz": ["--model", "cz", *GRID],
    "sweep_toffoli": ["--model", "toffoli", *GRID],
    "sweep_qft3": ["--model", "qft", "--n", "3", *GRID],
    "sweep_qft4": ["--model", "qft", "--n", "4", *GRID],
    "sweep_qft6": ["--model", "qft", "--n", "6", *GRID],
    "sweep_qft10": ["--model", "qft", "--n", "10", "--min", "1e-3", "--max", "0.1", "--steps", "2"],
}

POINTS = {
    "cz_0.3": ["--model", "cz", "--param", "0.3"],
    "cz_1e-6": ["--model", "cz", "--param", "1e-6"],
    "toffoli_0.1": ["--model", "toffoli", "--param", "0.1"],
    "qft3_0.05": ["--model", "qft", "--n", "3", "--param", "0.05"],
    "qft4_1e-4": ["--model", "qft", "--n", "4", "--param", "1e-4"],
}

ESTIMATES = {
    "toffoli_0.1": ["--model", "toffoli", "--param", "0.1"],
    "toffoli_0.3": ["--model", "toffoli", "--param", "0.3"],
    "cz_0.05": ["--model", "cz", "--param", "0.05"],
    "cz_0.3": ["--model", "cz", "--param", "0.3"],
    "qft3_0.05": ["--model", "qft", "--n", "3", "--param", "0.05"],
}


# diagonal error spectra (eigenphases) for certify.csv, by the branch of
# c(F, D) their (F, D) reach; _spectrum_fd takes the moments from the traces
# in mpmath, not from gatecert, so every version certifies the same inputs.
# The CZ points at and below phi = 1e-3 miss their two-point family at
# r = 1 - F and fall back to the relaxation root, which no spectrum attains
SPECTRA = {
    "two_point_d4": [0.0] * 3 + [0.7],
    "two_point_d8": [0.0] + [0.9] * 7,
    "two_point_d5": [0.0] + [0.8] * 4,
    "cz_0.3": [0.0] * 3 + [0.3],
    "cz_2.5": [0.0] * 3 + [2.5],
    "cz_pi": [0.0] * 3 + [math.pi],
    "relaxation_d4": [0.08, 0.24, 0.17, -0.16],
    "relaxation_d5": [-0.12, 0.22, -0.3, 0.19, 0.18],
    "relaxation_d6": [-0.02, -0.12, -0.13, -0.15, -0.03, 0.0],
    "relaxation_d8": [0.03, 0.3, 0.18, 0.07, 0.29, -0.17, -0.2, 0.07],
    "relaxation_d16": [-0.27, -0.28, 0.01, -0.02, 0.25, 0.08, 0.01, 0.0,
                       -0.15, -0.29, -0.18, 0.12, -0.18, -0.08, -0.3, 0.2],
    "three_point_d4": [0.0] * 2 + [-0.65, 0.92],
    "three_point_d8": [0.0] * 5 + [0.12] * 2 + [1.16],
    "three_point_d16": [0.0] * 13 + [-0.09] * 2 + [0.56],
    "three_point_d24": [0.0] * 17 + [-0.23] * 6 + [0.97],
    "dim_cap_d72": [0.0] * 70 + [0.5, -0.9],
    "cz_1e-7": [0.0] * 3 + [1e-7],
    "cz_1e-6": [0.0] * 3 + [1e-6],
    "cz_5e-6": [0.0] * 3 + [5e-6],
    "cz_1e-3": [0.0] * 3 + [1e-3],
}

# (d, F, D) given directly: the identity, data that clamp the relaxation's
# radicand, and data past the vacuous end (c = 0)
DATA = {
    "identity_d4": (4, 1.0, 0.0),
    "clamped_d4": (4, 0.99, 0.002),
    "vacuous_d4": (4, 0.15, 0.3),
}


def _spectrum_fd(phases: list[float]) -> tuple[int, float, float]:
    """(d, F, D) of the diagonal unitary with these eigenphases, from
    P = |tr X| and Q = |tr X^2 + (tr X)^2| at 50 digits."""
    with mpmath.workdps(50):
        d = len(phases)
        e = [mpmath.expj(t) for t in phases]
        t1 = mpmath.fsum(e)
        p2 = abs(t1) ** 2
        q2 = abs(mpmath.fsum(v * v for v in e) + t1 * t1) ** 2
        F = (d + p2) / (d * (d + 1))
        e2 = (2 * d * (d + 3) + 4 * (d + 2) * p2 + q2) / (d * (d + 1) * (d + 2) * (d + 3))
        return d, float(F), float(mpmath.sqrt(e2 - F * F))


def certify_rows() -> str:
    """certify.csv: one row per input, floats in repr."""
    inputs = {name: _spectrum_fd(phases) for name, phases in SPECTRA.items()}
    inputs.update(DATA)
    lines = ["name,d,F,D,b_fd,c_value,flags,witness_diamond"]
    for name, (d, F, D) in inputs.items():
        bundle = certificate_bundle(d, F, D, u=1.0)
        try:
            witness = repr(diamond_exact(tightness_witness(F, D, d)))
        except ValueError:
            witness = "ValueError"
        cells = (name, d, repr(F), repr(D), repr(bundle.b_fd), repr(bundle.c_value), int(bundle.flags), witness)
        lines.append(",".join(map(str, cells)))
    return "\n".join(lines) + "\n"


def _run(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"gatecert {' '.join(argv)} exited {code}")


def _stdout_of(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _run(argv)
    return buf.getvalue()


def write_matrix(out: Path) -> list[Path]:
    """Run every command of the matrix and return the files written."""
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, args in SWEEPS.items():
        path = out / f"{name}.csv"
        _run(["sweep", *args, "--out", str(path)])
        written.append(path)
    for name, args in POINTS.items():
        for suffix, extra in ((".txt", []), (".csv", ["--csv"])):
            path = out / f"moments_{name}{suffix}"
            path.write_text(_stdout_of(["moments", *args, *extra]), newline="")
            written.append(path)
    for name, args in ESTIMATES.items():
        path = out / f"estimate_{name}.csv"
        _run(["estimate", *args, "--repeats", "20", "--out", str(path)])
        written.append(path)
    path = out / "certify.csv"
    path.write_text(certify_rows(), newline="")
    written.append(path)
    return written


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    for path in write_matrix(Path(argv[0])):
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
