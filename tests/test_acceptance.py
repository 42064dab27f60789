"""Acceptance suite, one printed pass/fail line per criterion (run with
pytest -s to see them).

Criteria 1-7 and 9-12 are the checks of gatecert.verify.CHECKS at the full
profile, so `gatecert verify --full` runs the same code. Criterion 8 drives
the CLI through the d = 1024 QFT sweep and is tested here alone.
"""

import math
import time

from gatecert.cli import main
from gatecert.verify import CHECKS, result_line

# one test per check, named by its acceptance criterion, so each criterion
# keeps its test id
TEST_NAMES = {
    "cz-closed-forms": "test_criterion_01_cz_closed_forms",
    "cz-tightness": "test_criterion_02_cz_exact_diamond_and_tightness",
    "single-qubit-reference": "test_criterion_03_single_qubit_reference",
    "d2-collapse": "test_criterion_04_d2_collapse",
    "invariant-roundtrip": "test_criterion_05_invariant_roundtrip",
    "bound-validity": "test_criterion_06_bound_validity_ordering",
    "u1-collapse-ratio": "test_criterion_07_u1_collapse_factor",
    "estimator-exhaustive": "test_criterion_09_estimator_exhaustive_oracle",
    "estimator-consistency": "test_criterion_10_protocol_statistical_consistency",
    "haar-mc-agreement": "test_criterion_11_haar_mc_oracle_agreement",
    "witness-roundtrip": "test_criterion_12_tightness_witness",
}
# wall-time budget in seconds of the checks that have one
BUDGET_S = {"bound-validity": 30, "estimator-consistency": 120, "haar-mc-agreement": 120}


def _acceptance_test(name, check):
    def test():
        start = time.monotonic()
        ok, detail = check(True)
        elapsed = time.monotonic() - start
        if name in BUDGET_S:
            ok = ok and elapsed < BUDGET_S[name]
            detail += f", {elapsed:.1f} s (budget {BUDGET_S[name]} s)"
        line = result_line(name, ok, detail)
        print(line)
        assert ok, line

    test.__name__ = TEST_NAMES[name]
    return test


for _name, _check in CHECKS:
    globals()[TEST_NAMES[_name]] = _acceptance_test(_name, _check)


def test_criterion_08_qft_at_scale(tmp_path):
    out = tmp_path / "qft10.csv"
    start = time.monotonic()
    rc = main(
        "sweep --model qft --n 10 --min 0.001 --max 0.1 --steps 20 --out".split()
        + [str(out)]
    )
    elapsed = time.monotonic() - start
    assert rc == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert len(rows) == 20

    ordering_ok = all(
        float(r["d_exact"]) <= float(r[b]) + 1e-9
        for r in rows
        for b in ("b_fd", "b_fidelity_only", "b_ru_at_u")
    )
    d_exacts = [float(r["d_exact"]) for r in rows]
    monotone_ok = all(
        d_exacts[i + 1] >= d_exacts[i] - 1e-10 for i in range(len(d_exacts) - 1)
    )
    target = 1024.0 / math.sqrt(2.0)
    ratio_ok = all(
        abs(float(r["b_ru_at_u_raw"]) / float(r["b_fidelity_only_raw"]) - target)
        <= 1e-12 * target
        for r in rows
    )
    ok = elapsed < 600.0 and ordering_ok and monotone_ok and ratio_ok
    line = result_line(
        "qft-at-scale",
        ok,
        f"qft n=10 sweep: 20 rows in {elapsed:.0f} s (budget 600 s), "
        f"ordering {ordering_ok}, d_exact monotone {monotone_ok}, "
        f"ru/fidelity raw ratio = 1024/sqrt(2) {ratio_ok}",
    )
    print(line)
    assert ok, line
