import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_diff.py"

SWEEP = "param,F,D,flags\n0.1,0.99,0.0125,8\n0.2,0.96,0.05,8\n"
MOMENTS = "model: cz\nD: 0.0125\nflags: 8\n"


def _diff(tmp_path, old_files, new_files):
    for side, files in (("old", old_files), ("new", new_files)):
        (tmp_path / side).mkdir()
        for name, text in files.items():
            (tmp_path / side / name).write_text(text)
    run = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path / "old"), str(tmp_path / "new")],
        capture_output=True,
        text=True,
    )
    return run.returncode, run.stdout


def test_float_moves_are_measured_and_pass(tmp_path):
    new = {"s.csv": SWEEP.replace("0.05,", "0.05000000000000001,"), "m.txt": MOMENTS}
    code, out = _diff(tmp_path, {"s.csv": SWEEP, "m.txt": MOMENTS}, new)
    assert code == 0
    assert "s.csv: 1 of 2 rows moved" in out
    assert "  D: max relative move 1.39e-16" in out
    assert "1 of 2 files identical" in out


def test_other_changes_are_listed_and_fail(tmp_path):
    new = {
        "s.csv": SWEEP.replace(",8\n0.2", ",12\n0.2"),
        "m.txt": MOMENTS.replace("cz", "toffoli"),
        "extra.csv": SWEEP,
    }
    code, out = _diff(tmp_path, {"s.csv": SWEEP, "m.txt": MOMENTS, "gone.txt": MOMENTS}, new)
    assert code == 1
    assert "changed: row 1 flags: '8' -> '12'" in out
    assert "changed: row 1 model: 'cz' -> 'toffoli'" in out
    assert "extra.csv: only in" in out
    assert "gone.txt: only in" in out
