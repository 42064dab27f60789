"""Write a fixed matrix of `gatecert` CLI outputs to a directory, one file per
command, so that two versions of the package can be compared byte for byte.

    PYTHONPATH=src python tools/output_matrix.py OUT_DIR

The package is imported from the path, so pointing PYTHONPATH at another
checkout's `src` writes that version's matrix; `diff -r` between two output
directories then shows every output byte a change moved. The commands use
only options that every version of the CLI accepts, with their defaults.

The matrix: `sweep` for cz, toffoli and qft n = 3, 4, 6 on a 40-step log grid
from 1e-7 to 3, plus qft n = 10 at two points; `moments` text and `--csv`
output at five points; `estimate --repeats 20` at five points.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

from gatecert import cli

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
