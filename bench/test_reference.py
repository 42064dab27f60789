"""Cross-checks of the benchmark's references against mpmath.

    python3 -m pytest bench -q
"""

import math

import mpmath
import numpy as np
import pytest

import reference as ref


def mp_rot(generator, theta):
    """exp(-i theta G) by mpmath's matrix exponential, not the involution
    closed form the reference uses."""
    return mpmath.expm(-1j * theta * mpmath.matrix(generator.tolist()))


def mp_gate(kind, eps, angle=0.0):
    h = np.array([[1, 1], [1, -1]]) / mpmath.sqrt(2)
    if kind == "H":
        return mp_rot(h, eps / 2) * mpmath.matrix(h.tolist())
    if kind in ("T", "Tdag"):
        s = 1 if kind == "T" else -1
        t = mpmath.diag([1, mpmath.expj(s * mpmath.pi / 4)])
        return mp_rot(np.diag([1, -1]), eps / 2) * t
    if kind == "CNOT":
        p1x = np.kron(np.diag([0, 1]), np.array([[0, 1], [1, 0]]))
        cnot = np.eye(4)[[0, 1, 3, 2]]
        return mp_rot(p1x, eps) * mpmath.matrix(cnot.tolist())
    return mpmath.diag([1, 1, 1, mpmath.expj((1 + eps) * angle)])


def mp_embed(gate, targets, n):
    d = 1 << n
    out = mpmath.zeros(d, d)
    for row in range(d):
        for col in range(d):
            rb = [(row >> (n - q)) & 1 for q in range(1, n + 1)]
            cb = [(col >> (n - q)) & 1 for q in range(1, n + 1)]
            if any(rb[q - 1] != cb[q - 1] for q in range(1, n + 1) if q not in targets):
                continue
            a = int("".join(str(rb[t - 1]) for t in targets), 2)
            b = int("".join(str(cb[t - 1]) for t in targets), 2)
            out[row, col] = gate[a, b]
    return out


def mp_error_unitary(n, gates, eps):
    ideal = impl = mpmath.eye(1 << n)
    for kind, targets, *angle in gates:
        ideal = mp_embed(mp_gate(kind, 0, *angle), targets, n) * ideal
        impl = mp_embed(mp_gate(kind, eps, *angle), targets, n) * impl
    return ideal.H * impl


def as_np(m):
    return np.array(m.tolist(), dtype=complex)


CASES = [("toffoli", None, ref.toffoli_gates(), 3), ("qft", 3, ref.qft_gates(3), 3)]


@pytest.mark.parametrize("model,n,gates,nq", CASES)
@pytest.mark.parametrize("eps", [1e-5, 0.3])
def test_error_unitary_matches_mpmath(model, n, gates, nq, eps):
    x_mp = mp_error_unitary(nq, gates, eps)
    assert np.abs(ref.error_unitary(model, eps, n) - as_np(x_mp)).max() < 1e-14


@pytest.mark.parametrize("n", [3, 4])
def test_qft_ideal_is_bit_reversed_dft(n):
    d = 1 << n
    rev = [int(format(j, f"0{n}b")[::-1], 2) for j in range(d)]
    dft = np.array(
        [[complex(mpmath.expj(2 * mpmath.pi * rev[j] * k / d)) / math.sqrt(d) for k in range(d)] for j in range(d)]
    )
    assert np.abs(ref.qft_circuit(n, None) - dft).max() < 1e-14
    assert np.abs(ref.qft_circuit(n, 0.01) - ref.circuit_dense(n, ref.qft_gates(n), 0.01)).max() < 1e-14


@pytest.mark.parametrize("model,n,gates,nq", CASES)
@pytest.mark.parametrize("eps", [1e-6, 3e-5, 0.2, 1.5])
def test_diamond_from_phases_matches_mpmath_eig(model, n, gates, nq, eps):
    x_mp = mp_error_unitary(nq, gates, eps)
    lam = mpmath.eig(x_mp, left=False, right=False)
    th = sorted(float(mpmath.arg(v)) % (2 * math.pi) for v in lam)
    gap = max([b - a for a, b in zip(th, th[1:])] + [th[0] + 2 * math.pi - th[-1]])
    want = math.sin((2 * math.pi - gap) / 2) if gap > math.pi else 1.0
    got = ref.diamond_from_phases(ref.eigenphases(ref.error_unitary(model, eps, n)))
    assert abs(got - want) <= 1e-9 * want


def test_eigenphases_hermitian_path_matches_general():
    x = ref.error_unitary("qft", 0.05, 6)
    fast = np.sort(ref.eigenphases(x))
    general = np.sort(np.angle(np.linalg.eigvals(x)))
    assert np.abs(fast - general).max() < 1e-12


@pytest.mark.parametrize("phi", [1e-6, 1e-3, 0.7, math.pi])
def test_cz_closed_forms_match_traces(phi):
    F, D, dia = ref.cz_closed_forms(phi)
    t1, t2 = ref.spectrum_traces([0.0, phi], [3, 1])
    F_mp, D2_mp = ref.fd_from_traces(4, t1, t2)
    assert abs(F - F_mp) <= 1e-15
    assert abs(D - mpmath.sqrt(D2_mp)) <= 1e-14 * D
    assert dia == pytest.approx(float(abs(mpmath.sin(mpmath.mpf(phi) / 2))), rel=1e-15)
    assert ref.diamond_from_phases([0.0, 0.0, 0.0, phi]) == pytest.approx(dia, rel=1e-9)


def test_traces_match_mpmath():
    x_mp = mp_error_unitary(3, ref.toffoli_gates(), 0.1)
    t1, t2 = ref.traces(as_np(x_mp))
    assert abs(t1 - sum(x_mp[i, i] for i in range(8))) < 1e-15
    assert abs(t2 - sum((x_mp * x_mp)[i, i] for i in range(8))) < 1e-15


@pytest.mark.parametrize("d,alpha,beta", [(4, 0.3, 0.9), (8, 0.05, 0.2), (16, 0.4, 0.41)])
def test_bulk_cosine_recovers_two_angle_witness(d, alpha, beta):
    phases = [alpha, -alpha, beta, -beta]
    mult = [(d - 2) // 2, (d - 2) // 2, 1, 1]
    b, a = ref.bulk_cosine(d, *ref.invariants(*ref.spectrum_traces(phases, mult)))
    assert abs(a - mpmath.cos(alpha)) < 1e-25
    assert abs(b - mpmath.cos(beta)) < 1e-25


def test_protocol_variances_match_binomial_sums():
    N = 12
    f = np.array([0.55, 0.8, 0.97])  # taken as the whole Haar distribution
    F, D2 = float(f.mean()), float(f.var())
    var_f, var_d2 = ref.protocol_variances(f, F, D2, N)
    moments = {"f": [], "f2": [], "infl": [], "infl2": []}
    for fi in f:
        pmf = [mpmath.binomial(N, k) * mpmath.mpf(fi) ** k * (1 - mpmath.mpf(fi)) ** (N - k) for k in range(N + 1)]
        f_hat = [mpmath.mpf(k) / N for k in range(N + 1)]
        infl = [k * (k - 1) / mpmath.mpf(N * (N - 1)) - 2 * F * fh for k, fh in zip(range(N + 1), f_hat)]
        for key, vals in (("f", f_hat), ("f2", [v * v for v in f_hat]), ("infl", infl), ("infl2", [v * v for v in infl])):
            moments[key].append(mpmath.fsum(p * v for p, v in zip(pmf, vals)))
    mean = {k: mpmath.fsum(v) / len(f) for k, v in moments.items()}
    assert var_f == pytest.approx(float(mean["f2"] - mean["f"] ** 2), rel=1e-12)
    assert var_d2 == pytest.approx(float(mean["infl2"] - mean["infl"] ** 2), rel=1e-10)
