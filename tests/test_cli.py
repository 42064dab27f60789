import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gatecert.certify
import gatecert.cli
import gatecert.estimate
import gatecert.linalg
import gatecert.moments
from gatecert.cli import main


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def test_sweep_cz_basic(tmp_path):
    out = tmp_path / "cz.csv"
    rc = main(
        "sweep --model cz --min 0.01 --max 1.0 --steps 5 --out".split() + [str(out)]
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert header[:12] == (
        "model,n,param,F,D,r,d_exact,b_fidelity_only,b_ru_at_u,b_fd,b_hybrid,flags"
    ).split(",")
    assert len(rows) == 5
    last = rows[-1]
    assert float(last["param"]) == 1.0
    assert float(last["d_exact"]) == pytest.approx(abs(math.sin(0.5)), abs=1e-12)
    # validity and hybrid invariants hold on every emitted row
    for row in rows:
        d_exact = float(row["d_exact"])
        assert d_exact <= float(row["b_fd"]) + 1e-9
        assert d_exact <= float(row["b_fidelity_only"]) + 1e-9
        assert d_exact <= float(row["b_ru_at_u"]) + 1e-9
        assert float(row["b_hybrid"]) == min(
            float(row["b_ru_at_u"]), float(row["b_fd"])
        )


def test_sweep_toffoli_zero_row(tmp_path):
    out = tmp_path / "tof.csv"
    rc = main(
        "sweep --model toffoli --min 0 --max 0.5 --steps 3 --out".split() + [str(out)]
    )
    assert rc == 0
    _, rows = read_csv(out)
    first = rows[0]
    assert float(first["F"]) == 1.0
    assert float(first["D"]) == 0.0
    assert float(first["d_exact"]) == 0.0


def test_sweep_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = "sweep --model cz --min 0.001 --max 0.8 --steps 7 --out".split()
    assert main(args + [str(out1)]) == 0
    assert main(args + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_floats_roundtrip_exactly(tmp_path):
    from gatecert import build_cz_error, fd_from_unitary

    out = tmp_path / "cz.csv"
    main("sweep --model cz --min 0.2 --max 0.2001 --steps 2 --out".split() + [str(out)])
    _, rows = read_csv(out)
    param = float(rows[0]["param"])
    s = fd_from_unitary(build_cz_error(param))
    assert float(rows[0]["F"]) == s.F
    assert float(rows[0]["D"]) == s.D


def test_sweep_log_grid(tmp_path):
    out = tmp_path / "log.csv"
    rc = main(
        "sweep --model cz --min 0.001 --max 1.0 --steps 4 --log-grid --out".split()
        + [str(out)]
    )
    assert rc == 0
    _, rows = read_csv(out)
    params = [float(r["param"]) for r in rows]
    ratios = [params[i + 1] / params[i] for i in range(3)]
    assert max(ratios) - min(ratios) < 1e-9


def test_sweep_usage_errors(tmp_path):
    out = str(tmp_path / "x.csv")
    assert main(["sweep", "--model", "bogus", "--out", out]) == 1
    # missing --n, on every command that takes a model
    assert main(["sweep", "--model", "qft", "--out", out]) == 1
    assert main(["estimate", "--model", "qft", "--param", "0.1", "--out", out]) == 1
    assert main(["moments", "--model", "qft", "--param", "0.1"]) == 1
    assert main(["sweep", "--model", "qft", "--n", "12", "--out", out]) == 1
    assert main(["sweep", "--model", "cz", "--steps", "1", "--out", out]) == 1
    assert (
        main(["sweep", "--model", "cz", "--min", "2", "--max", "1", "--out", out]) == 1
    )
    assert main(["sweep", "--model", "cz", "--out", "/nonexistent/dir/x.csv"]) == 1


def test_estimate_determinism_and_seeds(tmp_path):
    out1, out2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
    args = (
        "estimate --model cz --param 0.3 --samples 50 --shots 40 --seed 7 "
        "--repeats 3 --out"
    ).split()
    assert main(args + [str(out1)]) == 0
    assert main(args + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    _, rows = read_csv(out1)
    assert [int(r["seed"]) for r in rows] == [7, 8, 9]


def test_estimate_repeats_match_one_seed_commands(tmp_path):
    # one run of three seeds writes the rows of three one-seed commands; at
    # 5000 states each seed spans two chunks of the cz model
    args = "estimate --model cz --param 0.3 --samples 5000 --shots 40".split()
    out = tmp_path / "all.csv"
    assert main(args + ["--seed", "7", "--repeats", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    for i, seed in enumerate((7, 8, 9), start=1):
        one = tmp_path / f"{seed}.csv"
        assert main(args + ["--seed", str(seed), "--out", str(one)]) == 0
        assert one.read_text().splitlines() == [lines[0], lines[i]]


def test_estimate_identity_is_exact(tmp_path):
    out = tmp_path / "id.csv"
    rc = main(
        (
            "estimate --model cz --param 0 --samples 20 --shots 50 --seed 1 --out"
        ).split()
        + [str(out)]
    )
    assert rc == 0
    _, rows = read_csv(out)
    assert float(rows[0]["F_hat"]) == 1.0
    assert float(rows[0]["D_hat"]) == 0.0
    assert rows[0]["truncated"] == "0"


def test_estimate_flags_column(tmp_path):
    # the certificate's flags are the last column; every toffoli row at 0.1
    # clamps the fidelity-only bound at 1
    out = tmp_path / "tof.csv"
    argv = "estimate --model toffoli --param 0.1 --seed 3 --repeats 5 --out".split()
    assert main(argv + [str(out)]) == 0
    header, rows = read_csv(out)
    assert header == (
        "model,n,param,M,N,seed,F_hat,D_hat,truncated,b_fidelity_only,b_fd,flags"
    ).split(",")
    assert len(rows) == 5
    for row in rows:
        assert int(row["flags"]) & gatecert.certify.CertFlags.BOUND_CLAMPED


def test_sweep_row_eigensolves_once(tmp_path, monkeypatch):
    # F comes from tr X; r, D and d_exact all read one spectrum per row, and
    # the certificate reads the moments the row already took. The small
    # angles take the Hermitian route, the large ones the general solver
    # after the Hermitian route declined
    turned, general, moment_passes = [], [], []
    real_turned, real_eigvals = gatecert.linalg._turned_phases, np.linalg.eigvals
    real_moments = gatecert.moments._spectral_moments

    def count_turned(m):
        result = real_turned(m)
        turned.append(result is not None)
        return result

    def count_eigvals(a):
        if np.ndim(a) == 2:  # the three-point search's companion solves are batched
            general.append(a.shape)
        return real_eigvals(a)

    def count_moments(lam):
        moment_passes.append(lam.size)
        return real_moments(lam)

    monkeypatch.setattr(gatecert.linalg, "_turned_phases", count_turned)
    monkeypatch.setattr(np.linalg, "eigvals", count_eigvals)
    monkeypatch.setattr(gatecert.moments, "_spectral_moments", count_moments)
    for model in ("cz", "toffoli"):
        turned.clear()
        general.clear()
        moment_passes.clear()
        argv = f"sweep --model {model} --min 1e-3 --max 3 --steps 6 --log-grid --out".split()
        assert main(argv + [str(tmp_path / "s.csv")]) == 0
        assert len(turned) == 6
        assert len(moment_passes) == 6
        assert len(general) == turned.count(False)
        assert 0 < len(general) < 6


def test_estimate_usage_errors(tmp_path):
    out = str(tmp_path / "x.csv")
    base = ["estimate", "--model", "cz", "--param", "0.3", "--out", out]
    assert main(base + ["--samples", "1"]) == 1
    assert main(base + ["--shots", "1"]) == 1
    assert main(base + ["--repeats", "0"]) == 1
    assert main(base + ["--seed", "-4"]) == 1


@pytest.mark.parametrize(
    "extra",
    [
        ["--seed", str(1 << 64)],
        ["--seed", str((1 << 64) - 1), "--repeats", "2"],
        ["--seed", str((1 << 64) - 2), "--repeats", "4"],
    ],
)
def test_estimate_seed_beyond_64_bits_is_usage_error(extra, tmp_path, capsys, monkeypatch):
    # every repeat's seed keys a 64-bit Philox word: one past the range is a
    # usage error, not an OverflowError traceback, found before any seed runs
    streams = []
    monkeypatch.setattr(gatecert.estimate, "substream", lambda *key: streams.append(key))
    out = tmp_path / "x.csv"
    base = ["estimate", "--model", "cz", "--param", "0.3", "--samples", "4"]
    assert main(base + ["--shots", "4", "--out", str(out)] + extra) == 1
    assert "gatecert: error:" in capsys.readouterr().err
    assert not out.exists()
    assert streams == []


@pytest.mark.parametrize("model", ["cz", "toffoli"])
def test_qubit_count_for_a_fixed_model_is_usage_error(model, tmp_path, capsys):
    # cz and toffoli have fixed qubits: an --n was read as nothing and every
    # row said n = 2 or 3 whatever was asked
    out = tmp_path / "x.csv"
    commands = (
        ["sweep", "--min", "0.1", "--max", "0.2", "--steps", "2", "--out", str(out)],
        ["estimate", "--param", "0.1", "--out", str(out)],
        ["moments", "--param", "0.1"],
    )
    for argv in commands:
        assert main([*argv, "--model", model, "--n", "7"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"gatecert: error: the {model} model takes no qubit count")
    assert not out.exists()


@pytest.mark.parametrize(
    "bounds",
    [
        ["--min", "0.1", "--max", "inf"],
        ["--min=-inf", "--max", "1"],
        ["--log-grid", "--min", "0.1", "--max", "inf"],
    ],
)
def test_sweep_non_finite_bounds_are_usage_errors(bounds, tmp_path, capsys):
    # rejected before any grid is formed: no numpy warning, no row built
    out = tmp_path / "x.csv"
    assert main(["sweep", "--model", "cz", *bounds, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("gatecert: error: --min and --max must be finite")
    assert not out.exists()


def test_moments_text_output(capsys):
    rc = main(["moments", "--model", "cz", "--param", "0.5"])
    assert rc == 0
    out = capsys.readouterr().out
    values = dict(
        line.split(": ", 1) for line in out.strip().splitlines() if ": " in line
    )
    assert float(values["F"]) == pytest.approx(1 - 0.6 * math.sin(0.25) ** 2, abs=1e-12)
    assert float(values["d_exact"]) == pytest.approx(abs(math.sin(0.25)), abs=1e-12)
    assert "P2" in values and "Q2" in values and "c_FD" in values


def test_moments_cz_pi_exact_diamond(capsys):
    rc = main(["moments", "--model", "cz", "--param", str(math.pi)])
    assert rc == 0
    out = capsys.readouterr().out
    values = dict(
        line.split(": ", 1) for line in out.strip().splitlines() if ": " in line
    )
    assert float(values["d_exact"]) == pytest.approx(1.0, abs=1e-12)


def test_moments_csv_row(capsys):
    rc = main(["moments", "--model", "toffoli", "--param", "0.0", "--csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert row["model"] == "toffoli"
    assert float(row["F"]) == 1.0
    # c(F,D) = 1 at the identity error
    assert float(row["b_fd"]) == pytest.approx(0.0, abs=1e-12)


def test_moments_csv_row_equals_sweep_row(tmp_path, capsys):
    out = tmp_path / "tof.csv"
    args = "sweep --model toffoli --min 0.01 --max 0.2 --steps 2 --out".split()
    assert main(args + [str(out)]) == 0
    sweep_lines = out.read_text().splitlines()
    assert main(["moments", "--model", "toffoli", "--param", "0.2", "--csv"]) == 0
    assert capsys.readouterr().out.splitlines() == [sweep_lines[0], sweep_lines[2]]


def test_verify_quick_exit_code():
    assert main(["verify"]) == 0


def test_verify_detects_broken_certificate(monkeypatch, capsys):
    # mutation sanity: a broken certified overlap must fail CZ tightness
    import gatecert.certify as ce

    def broken(r, D, d, family_rtol=None):
        # 1 - c = 0: c = 1, b_fd = 0, claimed as attained by the identity's
        # spectrum
        return ce._LD(0.0), ce.CertFlags.NONE, lambda: ([0.0], [d])

    monkeypatch.setattr(ce, "_certified_deficit_ld", broken)
    rc = main(["verify"])
    assert rc == 3
    assert "[FAIL] cz-tightness" in capsys.readouterr().out


def test_witness_check_stops_when_no_pair_is_admissible(monkeypatch):
    # a core that records no attaining spectrum has no witness to check: the
    # check fails on the first draw and names it, without redrawing
    import gatecert.certify as ce
    import gatecert.verify as ve

    def unattained(r, D, d, family_rtol=None):
        return ce._LD(0.0), ce.CertFlags.NONE, None

    monkeypatch.setattr(ce, "_certified_deficit_ld", unattained)
    assert ve.check_witness_roundtrip(False) == (
        False,
        "draw 1 of 10 (d = 4) has no witness: no spectrum is known to attain c(F, D) at these data",
    )


def test_unitarity_failure_is_numerical_failure(monkeypatch, capsys):
    # UnitarityError is a ValueError, but a failed unitarity check is a
    # numerical failure (exit 2), not a usage error (exit 1)
    monkeypatch.setattr(gatecert.linalg, "UNITARITY_TOL", -1.0)
    assert main(["moments", "--model", "cz", "--param", "0.1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gatecert: numerical failure: unitarity residual")


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 1


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_commands_in_one_process_match_fresh_processes(tmp_path, capsys):
    # the parser is built once per process; a sweep, a moments query and a
    # usage error run back to back give what each gives in its own process
    commands = [
        ["sweep", "--model", "qft", "--n", "3", "--min", "1e-3", "--max", "0.3", "--steps", "4", "--out"],
        ["moments", "--model", "toffoli", "--param", "0.1"],
        ["sweep", "--model", "cz", "--steps", "1", "--out"],
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(gatecert.cli.__file__).parents[1])}
    outcomes = []
    for fresh in (False, True):
        for i, argv in enumerate(commands):
            out = tmp_path / f"{fresh}-{i}.csv"
            argv = argv + [str(out)] if argv[-1] == "--out" else argv
            if fresh:
                proc = subprocess.run(
                    [sys.executable, "-m", "gatecert.cli", *argv],
                    capture_output=True, text=True, env=env, check=False,
                )
                code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
            else:
                code = main(argv)
                stdout, stderr = capsys.readouterr()
            outcomes.append((code, stdout, stderr, out.read_bytes() if out.exists() else None))
    in_process, fresh = outcomes[:3], outcomes[3:]
    assert [o[0] for o in in_process] == [0, 0, 1]
    assert in_process == fresh
    assert gatecert.cli._parser() is gatecert.cli._parser()
