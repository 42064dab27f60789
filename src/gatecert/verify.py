"""Cross-module self-verification: closed forms against independent oracles.

Each check takes the profile and returns (passed, detail). The full profile
is the acceptance suite's criteria 1-7 and 9-12 at their stated seeds,
sample sizes and tolerances (including the 2000-seed estimator consistency
check); the quick profile runs the same checks at reduced sizes and
finishes in a few seconds.
"""

from __future__ import annotations

import math

import numpy as np

from . import certify, estimate, gates, moments
from .linalg import UnitaryOperator, haar_random_unitary

_CZ_GRID = (0.01, 0.05, 0.1, 0.3, 0.7, 1.2, math.pi / 2, 2.5, 3.0, math.pi)


def _cz_closed_F(phi: float) -> float:
    return 1.0 - 0.6 * math.sin(phi / 2.0) ** 2


def _cz_closed_D(phi: float) -> float:
    return 0.2 * math.sqrt(17.0 / 7.0) * math.sin(phi / 2.0) ** 2


def check_cz_closed_forms(full: bool):
    worst = 0.0
    for phi in _CZ_GRID:
        s = moments.fd_from_unitary(gates.build_cz_error(phi))
        worst = max(worst, abs(s.F - _cz_closed_F(phi)), abs(s.D - _cz_closed_D(phi)))
    return worst <= 1e-12, f"max |F,D - closed form| = {worst:.2e} (tol 1e-12)"


def check_cz_tightness(full: bool):
    worst_t = worst_d = 0.0
    for phi in _CZ_GRID:
        x = gates.build_cz_error(phi)
        s = moments.fd_from_unitary(x)
        d_exact = certify.diamond_exact(x)
        worst_d = max(worst_d, abs(d_exact - abs(math.sin(phi / 2.0))))
        worst_t = max(worst_t, abs(certify.certificate_bundle(4, s.F, s.D).b_fd - d_exact))
    ok = worst_t <= 1e-9 and worst_d <= 1e-9
    return ok, f"max |b_fd - d_exact| = {worst_t:.2e}, max d_exact err = {worst_d:.2e} (tol 1e-9)"


def check_single_qubit_reference(full: bool):
    worst_r = worst_d = 0.0
    for delta in (0.01, 0.1, 0.5):
        x = UnitaryOperator(np.diag([np.exp(-1j * delta), np.exp(1j * delta)]))
        s = moments.fd_from_unitary(x)
        worst_r = max(worst_r, abs(s.r - (2.0 / 3.0) * math.sin(delta) ** 2))
        worst_d = max(worst_d, abs(certify.diamond_exact(x) - abs(math.sin(delta))))
    ok = worst_r <= 1e-12 and worst_d <= 1e-9
    return ok, f"max r err = {worst_r:.2e} (tol 1e-12), max d_exact err = {worst_d:.2e} (tol 1e-9)"


def check_d2_collapse(full: bool):
    rng = np.random.default_rng(404)
    draws = 500 if full else 100
    worst = 0.0
    for _ in range(draws):
        s = moments.fd_from_unitary(UnitaryOperator(haar_random_unitary(2, rng)))
        worst = max(worst, abs(s.D - (1.0 - s.F) / math.sqrt(5.0)))
    return worst <= 1e-12, f"max |D - (1-F)/sqrt(5)| over {draws} draws = {worst:.2e} (tol 1e-12)"


def check_invariant_roundtrip(full: bool):
    rng = np.random.default_rng(505)
    worst = 0.0
    per_dim = 200 if full else 20
    for d in (4, 8, 16):
        for _ in range(per_dim):
            x = UnitaryOperator(haar_random_unitary(d, rng))
            s = moments.fd_from_unitary(x)
            pq = moments.pq_from_fd(s.F, s.D, d)
            # the reference invariants straight from tr X and tr X^2
            m = x.matrix.astype(np.clongdouble)
            t1 = np.trace(m)
            P2 = float(abs(t1) ** 2)
            Q2 = float(abs(np.sum(m * m.T) + t1 * t1) ** 2)
            worst = max(worst, abs(pq.P2 - P2) / P2, abs(pq.Q2 - Q2) / Q2)
    return worst <= 1e-9, f"max relative round-trip error = {worst:.2e} (tol 1e-9)"


def check_haar_mc_agreement(full: bool):
    rng = np.random.default_rng(1111)
    samples = 100_000 if full else 20_000
    per_dim = (7, 7, 6) if full else (2, 2, 2)
    failures = comparisons = 0
    worst_pull = 0.0
    for d, count in zip((2, 4, 8), per_dim):
        for i in range(count):
            x = UnitaryOperator(haar_random_unitary(d, rng))
            s = moments.fd_from_unitary(x)
            mc = estimate.haar_mc_moments(x, samples, seed=100 * d + i)
            for got, want, err in (
                (mc.F_mc, s.F, mc.stderr_F),
                (mc.E2_mc, s.D**2 + s.F**2, mc.stderr_E2),
            ):
                comparisons += 1
                pull = abs(got - want) / max(err, 1e-300)
                worst_pull = max(worst_pull, pull)
                if pull > 5.0:
                    failures += 1
    return (
        failures <= 1,
        f"{failures}/{comparisons} comparisons beyond 5 sigma (allow 1), worst pull {worst_pull:.2f}",
    )


def check_estimator_exhaustive(full: bool):
    worst = 0.0
    for n in range(2, 7):
        for f in (0.0, 0.25, 0.5, 0.75, 1.0):
            e_f = e_f2 = 0.0
            for outcome in range(1 << n):
                k = outcome.bit_count()
                w = f**k * (1.0 - f) ** (n - k)
                e_f += w * k / n
                e_f2 += w * k * (k - 1) / (n * (n - 1))
            worst = max(worst, abs(e_f - f), abs(e_f2 - f * f))
    return worst <= 1e-13, f"max enumeration bias = {worst:.2e} (tol 1e-13)"


def check_estimator_consistency(full: bool):
    seeds = 2000 if full else 200
    phi, m_states, n_shots = 0.3, 100, 50
    x = gates.build_cz_error(phi)
    s_true = moments.fd_from_unitary(x)
    f_hats = np.empty(seeds)
    d2_hats = np.empty(seeds)
    for i in range(seeds):
        res = estimate.run_protocol(x, m_states, n_shots, seed=i)
        f_hats[i] = res.F_hat
        d2_hats[i] = res.D2_hat
    pull_f = abs(f_hats.mean() - s_true.F) / (f_hats.std(ddof=1) / math.sqrt(seeds))
    d2_true = s_true.D**2
    pull_d2 = abs(d2_hats.mean() - d2_true) / (d2_hats.std(ddof=1) / math.sqrt(seeds))
    var_pred = d2_true / m_states + (s_true.F - (d2_true + s_true.F**2)) / (m_states * n_shots)
    ratio = f_hats.var(ddof=1) / var_pred
    ok = pull_f <= 4.0 and pull_d2 <= 4.0 and 1.0 / 1.5 <= ratio <= 1.5
    return ok, (
        f"{seeds} seeds: F pull {pull_f:.2f}, D2 pull {pull_d2:.2f} (tol 4 SE); "
        f"Var(F_hat)/predicted = {ratio:.3f} (tol [0.667, 1.5])"
    )


def check_bound_validity(full: bool):
    sweeps = [
        ("cz", None, np.linspace(1e-3, 1.0, 50 if full else 10)),
        ("toffoli", None, np.linspace(1e-3, 0.5, 50 if full else 10)),
    ]
    for n in (2, 3, 4) if full else (2, 3):
        sweeps.append(("qft", n, np.linspace(1e-3, 0.3, 30 if full else 8)))
    # the high-fidelity regime, where the trace moments cancel to fourth order
    for model, n in (("cz", None), ("toffoli", None), ("qft", 3), ("qft", 4)):
        sweeps.append((model, n, np.geomspace(1e-7, 1e-1, 25 if full else 7)))
    worst = -np.inf
    points = 0
    for model, n, grid in sweeps:
        for param in grid:
            x = gates.build_model_error(model, float(param), n)
            s = moments.fd_from_unitary(x)
            bundle = certify.certificate_bundle(x.dim, s.F, s.D, u=1.0, x=x)
            points += 1
            lowest = min(bundle.b_fd, bundle.b_fidelity_only, bundle.b_ru)
            worst = max(worst, (bundle.d_exact - lowest) / bundle.d_exact)
    return worst <= 1e-9, (
        f"max (d_exact - bound)/d_exact over {points} points = {worst:.2e} (tol 1e-9)"
    )


def check_u1_collapse_ratio(full: bool):
    worst = 0.0
    for d in (2, 4, 8, 1024):
        target = d / math.sqrt(2.0)
        for kappa in (1e-6, 1e-3, 0.5, 0.99):
            r = kappa / (d * (d + 1.0))
            ratio = certify.bound_ru(r, 1.0, d) / certify.bound_fidelity_only(r, d)
            worst = max(worst, abs(ratio - target) / target)
    return worst <= 1e-12, (
        f"max relative err of b_ru/b_fidelity_only = d/sqrt(2) at u = 1: {worst:.2e} (tol 1e-12)"
    )


def check_witness_roundtrip(full: bool):
    rng = np.random.default_rng(1212)
    target = 50 if full else 10
    worst_fd = worst_b = 0.0
    for draw in range(target):
        d = 4 if draw % 2 == 0 else 8
        x = _near_identity_unitary(d, rng, rng.uniform(0.05, 0.35))
        s = moments.fd_from_unitary(x)
        try:
            witness = certify.tightness_witness(s.F, s.D, d)
        except ValueError as exc:
            return False, f"draw {draw + 1} of {target} (d = {d}) has no witness: {exc}"
        ws = moments.fd_from_unitary(witness)
        b_fd = certify.certificate_bundle(d, s.F, s.D).b_fd
        for got, want in ((ws.r, s.r), (ws.D, s.D)):
            worst_fd = max(worst_fd, abs(got - want) / max(want, 1e-300))
        worst_b = max(worst_b, abs(certify.diamond_exact(witness) - b_fd) / max(b_fd, 1e-300))
    ok = worst_fd <= 1e-9 and worst_b <= 1e-9
    return ok, (
        f"{target} witnesses: max relative (r,D) reproduction err = {worst_fd:.2e}, "
        f"max relative |d_exact(witness) - b_fd| = {worst_b:.2e} (tol 1e-9)"
    )


def _near_identity_unitary(d: int, rng: np.random.Generator, scale: float) -> UnitaryOperator:
    """exp(-i H) for a random Hermitian H whose largest |eigenvalue| is scale."""
    herm = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    herm = (herm + herm.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(herm)
    vals = vals / np.abs(vals).max() * scale
    return UnitaryOperator((vecs * np.exp(-1j * vals)) @ vecs.conj().T)


# acceptance criteria 1-7 and 9-12; criterion 8, the d = 1024 QFT sweep
# through the CLI, is tested on its own
CHECKS = [
    ("cz-closed-forms", check_cz_closed_forms),
    ("cz-tightness", check_cz_tightness),
    ("single-qubit-reference", check_single_qubit_reference),
    ("d2-collapse", check_d2_collapse),
    ("invariant-roundtrip", check_invariant_roundtrip),
    ("haar-mc-agreement", check_haar_mc_agreement),
    ("estimator-exhaustive", check_estimator_exhaustive),
    ("estimator-consistency", check_estimator_consistency),
    ("bound-validity", check_bound_validity),
    ("u1-collapse-ratio", check_u1_collapse_ratio),
    ("witness-roundtrip", check_witness_roundtrip),
]


def result_line(name: str, ok: bool, detail: str) -> str:
    return f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"


def run_verification(full: bool = False, emit=print) -> bool:
    all_ok = True
    for name, fn in CHECKS:
        ok, detail = fn(full)
        all_ok &= ok
        emit(result_line(name, ok, detail))
    emit(f"verification {'passed' if all_ok else 'FAILED'} ({'full' if full else 'quick'} profile)")
    return all_ok
