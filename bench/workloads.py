"""The four benchmark workloads.

A workload is a sequence of rounds; round r draws its inputs from the
generator seeded by (seed, r), so the same seed gives the same inputs and a
traced replay of rounds 0..k-1 sees exactly the inputs of the untraced pass.
A round is a list of calls into gatecert's public interface (a CLI command or
`certificate_bundle`). Each call is timed alone; its outputs are checked
afterwards, outside the timed region, against the references in
reference.py. A check returns one list of failure reasons per operation (a
sweep row, a certificate, an estimate command); an empty list is a pass.
"""

from __future__ import annotations

import csv
import math

import mpmath
import numpy as np

import reference as ref

EPS = float(np.finfo(float).eps)
REL_TOL = 1e-6  # bounds and d_exact against the reference diamond distance
F_TOL = 4 * EPS  # F is near 1, so its float64 resolution is a few eps
# D^2 = E2 - F^2 is a difference of numbers near 1: its absolute float64
# resolution is a few eps however small D is
D2_ABS_TOL = 8 * EPS
D2_REL_TOL = 1e-9
PROTOCOL_SIGMAS = 6.0

# reasons that belong to the two known faults of the high-fidelity regime
B_FD_LOW = "b_fd<d_ref"  # fixed-tolerance two-point family test in certify
D_EXACT_OFF = "d_exact!=d_ref"  # hull tolerances in geometry drop vertices


class Call:
    """One timed call: `run()` is timed, `check(result)` is not."""

    def __init__(self, run, check, items: int, label: str = ""):
        self.run = run
        self.check = check
        self.items = items
        self.label = label


def _rng(seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng([seed, r])


def _read_csv(path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_bounds(row, d_ref: float) -> list[str]:
    """Properties every certificate must have against the true diamond
    distance, plus the hybrid rule, on one parsed CSV row or bundle."""
    reasons = []
    floor = d_ref * (1 - REL_TOL)
    if row["b_fd"] < floor:
        reasons.append(B_FD_LOW)
    if row["b_fidelity_only"] < floor:
        reasons.append("b_fidelity_only<d_ref")
    if row["b_ru"] < floor:
        reasons.append("b_ru<d_ref")
    if row["b_hybrid"] != min(row["b_ru"], row["b_fd"]):
        reasons.append("b_hybrid!=min(b_ru,b_fd)")
    return reasons


def cz_resolution(phi: float) -> float:
    """Relative float64 resolution of the CZ certificate |sin(phi/2)| from
    (F, D): cos(phi) = (20 F - 14)/6, so one ulp of F moves phi by
    (20/6) eps / sin(phi), which is (20/6) eps / (phi sin(phi)) relative."""
    return 20 / 6 * EPS / (phi * math.sin(phi))


class SweepReference:
    """Reference (F, D^2, diamond) per sweep row, cached by parameter: rows
    of the fixed grid repeat every round."""

    def __init__(self):
        self.cache = {}

    def __call__(self, model: str, n: int | None, param: float):
        key = (model, n, param)
        if key not in self.cache:
            if model == "cz":
                F, D, dia = ref.cz_closed_forms(param)
                value = (F, D * D, dia)
            else:
                x = ref.error_unitary(model, param, n)
                F, D2 = ref.fd_from_traces(len(x), *ref.traces(x))
                value = (float(F), float(D2), ref.diamond_from_phases(ref.eigenphases(x)))
            if model == "qft" and n >= 8:
                return value  # large rows never repeat
            self.cache[key] = value
        return self.cache[key]


class Sweep:
    """Rounds of `gatecert sweep` commands; one operation per CSV row."""

    known_faults: frozenset = frozenset()

    def __init__(self, api, seed: int, out: str):
        self.api = api
        self.seed = seed
        self.out = out
        self.reference = SweepReference()

    def call(self, model: str, n: int | None, lo: float, hi: float, steps: int, log: bool):
        argv = ["sweep", "--model", model, "--min", repr(lo), "--max", repr(hi)]
        argv += ["--steps", str(steps), "--out", self.out]
        argv += ["--n", str(n)] if n is not None else []
        argv += ["--log-grid"] if log else []

        def check(rc):
            if rc != 0:
                return [[f"exit code {rc}"]] * steps
            rows = _read_csv(self.out)
            if len(rows) != steps:
                return [["row count"]] * steps
            return [self.check_row(model, n, row) for row in rows]

        label = f"{model}{n or ''} [{lo:.3g}, {hi:.3g}] x{steps}"
        return Call(lambda: self.api.cli.main(argv), check, steps, label)

    def check_row(self, model: str, n: int | None, text_row) -> list[str]:
        row = {k: float(v) for k, v in text_row.items() if k != "model"}
        row["b_ru"] = row["b_ru_at_u"]
        param = row["param"]
        F, D2, d_ref = self.reference(model, n, param)
        reasons = check_bounds(row, d_ref)
        if abs(row["d_exact"] - d_ref) > REL_TOL * d_ref:
            reasons.append(D_EXACT_OFF)
        if abs(row["F"] - F) > F_TOL:
            reasons.append("F!=F_ref")
        if abs(row["D"] ** 2 - D2) > D2_ABS_TOL + D2_REL_TOL * D2:
            reasons.append("D!=D_ref")
        if model == "cz" and row["b_fd"] > d_ref * (1 + REL_TOL + cz_resolution(param)):
            reasons.append("cz b_fd>|sin(phi/2)|")
        return reasons


class Qft10Sweep(Sweep):
    """`gatecert sweep --model qft --n 10` on a short linear grid: two rows
    per command, endpoints drawn inside [1e-3, 0.08] (above 0.08 the spectrum
    spans more than a half circle and the reference needs the general
    eigensolver)."""

    def round(self, r: int) -> list[Call]:
        g = _rng(self.seed, r)
        lo = float(g.uniform(1e-3, 0.02))
        hi = float(lo + g.uniform(0.02, 0.06))
        return [self.call("qft", 10, lo, hi, 2, log=False)]


class SmallSweep(Sweep):
    """`gatecert sweep` for cz, toffoli and qft --n 3 on log grids.

    Per model, one command runs the fixed grid 1e-6 .. 1e-4, where the two
    known faults make rows fail; it never depends on the seed, so every round
    fails the same rows. A second command runs a seeded grid from
    [5e-4, 1e-3] up to [1e-2, 2e-2], a range where no row fails.
    """

    known_faults = frozenset({B_FD_LOW, D_EXACT_OFF})
    MODELS = (("cz", None), ("toffoli", None), ("qft", 3))

    def round(self, r: int) -> list[Call]:
        g = _rng(self.seed, r)
        calls = []
        for model, n in self.MODELS:
            calls.append(self.call(model, n, 1e-6, 1e-4, 9, log=True))
            lo = float(g.uniform(5e-4, 1e-3))
            hi = float(g.uniform(1e-2, 2e-2))
            calls.append(self.call(model, n, lo, hi, 8, log=True))
        return calls


class Spectrum:
    """A diagonal unitary given by distinct phases and their multiplicities,
    with its (F, D) rounded to float64 and the branch class of c(F, D)."""

    def __init__(self, phases, mult):
        self.phases = [float(p) for p in phases]
        self.mult = [int(m) for m in mult]
        self.d = sum(self.mult)
        t1, t2 = ref.spectrum_traces(self.phases, self.mult)
        F, D2 = ref.fd_from_traces(self.d, t1, t2)
        self.F = float(F)
        self.D = float(mpmath.sqrt(D2))
        self.b_minus, self.bulk_cos = (float(v) for v in ref.bulk_cosine(self.d, *ref.invariants(t1, t2)))
        self.diamond = ref.diamond_from_phases(np.repeat(self.phases, self.mult))

    KINDS = ("two_point", "relaxation", "pinned", "dim_cap")

    @property
    def kind(self) -> str:
        """two_point, relaxation (bulk cosine <= 1), pinned (three-point
        search) or dim_cap (would need the search, but d > 64)."""
        if len(self.phases) == 2:
            return "two_point"
        if self.bulk_cos <= 1:
            return "relaxation"
        return "dim_cap" if self.d > 64 else "pinned"


BULK_MARGIN = 1e-6  # keeps every spectrum clear of the a = 1 seam after rounding


def two_point(g, d: int) -> Spectrum:
    """CZ-like family: d - p eigenvalues at 1, p at e^{i gap}."""
    p = int(g.integers(1, d // 2 + 1))
    return Spectrum([0.0, g.uniform(0.05, 2.5)], [d - p, p])


def near_identity(g, d: int) -> Spectrum:
    """d independent small phases whose relaxation root is attained."""
    while True:
        s = Spectrum(g.uniform(0.02, 0.3) * g.standard_normal(d), [1] * d)
        if s.bulk_cos <= 1 - BULK_MARGIN and s.b_minus > 0:
            return s


def three_point(g, d: int) -> Spectrum:
    """Bulk at 1 plus two small clusters at h and k, with bulk cosine > 1.
    Beyond d = 64 the clusters hold one or two eigenvalues: larger ones
    rarely give a bulk cosine above 1, and the rejection loop would crawl."""
    top = 2 if d > 64 else max(1, d // 4)
    while True:
        n1, n2 = (int(v) for v in g.integers(1, top + 1, size=2))
        h, k = g.uniform(-1.2, 1.2, size=2)
        if min(abs(h), abs(k), abs(h - k)) < 0.05:
            continue
        s = Spectrum([0.0, h, k], [d - n1 - n2, n1, n2])
        if s.bulk_cos >= 1 + BULK_MARGIN and s.b_minus > 0:
            return s


class CertifyFD:
    """`certificate_bundle(d, F, D, u=1.0)` from (F, D) alone; one operation
    per certificate. Each round has 24 spectra: 20 take the closed-form
    branches (6 two-point, 10 relaxation up to d = 128, 4 beyond the d = 64
    search cap) and 4 force the three-point search (d = 4, 8, 16, 24)."""

    known_faults: frozenset = frozenset()
    PLAN = (
        [(two_point, d) for d in (4, 6, 8, 12, 16, 32)]
        + [(near_identity, d) for d in (4, 8, 12, 16, 24, 32, 48, 64, 96, 128)]
        + [(three_point, d) for d in (72, 96, 112, 128)]
        + [(three_point, d) for d in (4, 8, 16, 24)]
    )

    def __init__(self, api, seed: int, out: str):
        self.api = api
        self.seed = seed

    def round(self, r: int) -> list[Call]:
        g = _rng(self.seed, r)
        return [self.call(make(g, d)) for make, d in self.PLAN]

    def call(self, s: Spectrum) -> Call:
        def check(b):
            row = {"b_fd": b.b_fd, "b_fidelity_only": b.b_fidelity_only,
                   "b_ru": b.b_ru, "b_hybrid": b.b_hybrid}
            return [check_bounds(row, s.diamond)]

        run = lambda: self.api.certify.certificate_bundle(s.d, s.F, s.D, u=1.0)
        return Call(run, check, 1, s.kind)


class Protocol:
    """`gatecert estimate` with M = 500 states and N = 1000 shots: per round
    two Toffoli commands (d = 8) and one QFT n = 8 command (d = 256), four
    repeats each. The error parameters are drawn once per run (the cost per
    state does not depend on them) and every command gets fresh seeds. One
    operation per command; items are protocol states (M x repeats)."""

    known_faults: frozenset = frozenset()
    M, N, REPEATS = 500, 1000, 4
    PLAN = (("toffoli", None), ("qft", 8), ("toffoli", None))
    PARAMS = {"toffoli": (0.05, 0.3), "qft": (0.02, 0.05)}
    MC_STATES = 4000  # Haar states behind the reference standard errors

    def __init__(self, api, seed: int, out: str):
        self.api = api
        self.seed = seed
        self.out = out
        g = np.random.default_rng([seed, 1 << 32])
        self.params = {m: float(g.uniform(lo, hi)) for m, (lo, hi) in self.PARAMS.items()}
        self.references = {}

    def round(self, r: int) -> list[Call]:
        return [
            self.call(model, n, (self.seed * 100_000 + r) * 100 + j * self.REPEATS)
            for j, (model, n) in enumerate(self.PLAN)
        ]

    def call(self, model, n, base) -> Call:
        param = self.params[model]
        argv = ["estimate", "--model", model, "--param", repr(param), "--samples", str(self.M),
                "--shots", str(self.N), "--seed", str(base), "--repeats", str(self.REPEATS),
                "--out", self.out]
        argv += ["--n", str(n)] if n is not None else []

        def check(rc):
            if rc != 0:
                return [[f"exit code {rc}"]]
            rows = _read_csv(self.out)
            if len(rows) != self.REPEATS:
                return [["row count"]]
            return [self.check_stats(model, n, param, rows) + self.check_prefix(model, n, param, base)]

        return Call(lambda: self.api.cli.main(argv), check, self.M * self.REPEATS, model)

    def reference(self, model, n, param):
        """(F, D^2, per-state variances of the F and D^2 estimators)."""
        if model not in self.references:
            x = ref.error_unitary(model, param, n)
            F, D2 = (float(v) for v in ref.fd_from_traces(len(x), *ref.traces(x)))
            f = ref.haar_fidelities(x, self.MC_STATES, np.random.default_rng([self.seed, len(x)]))
            self.references[model] = (F, D2, *ref.protocol_variances(f, F, D2, self.N))
        return self.references[model]

    def check_stats(self, model, n, param, rows) -> list[str]:
        """Mean F_hat and D2_hat over the repeats within a few standard errors
        of the reference F and D^2."""
        F, D2, var_f, var_d2 = self.reference(model, n, param)
        k = self.M * len(rows)
        f_hat = np.mean([float(row["F_hat"]) for row in rows])
        d2_hat = np.mean([float(row["D_hat"]) ** 2 for row in rows])
        reasons = []
        if abs(f_hat - F) > PROTOCOL_SIGMAS * math.sqrt(var_f / k):
            reasons.append("mean F_hat off F")
        if abs(d2_hat - D2) > PROTOCOL_SIGMAS * math.sqrt(var_d2 / k):
            reasons.append("mean D2_hat off D^2")
        return reasons

    def check_prefix(self, model, n, param, seed) -> list[str]:
        """The first m records of a run do not depend on M."""
        x = self.api.gates.build_model_error(model, param, n)
        short = self.api.estimate.simulate_protocol(x, 8, self.N, seed)
        long = self.api.estimate.simulate_protocol(x, 24, self.N, seed)
        return [] if long[:8] == short else ["records depend on M"]


WORKLOADS = {
    "qft10_sweep": Qft10Sweep,
    "sweep_small": SmallSweep,
    "certify_fd": CertifyFD,
    "protocol": Protocol,
}
