"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a PASS line with its headline metric and elapsed time;
the stated runtime budgets are asserted as hard limits.
"""

import time
from itertools import product

import numpy as np
import pytest

from qiokit.estimation import counting_fisher, counting_rate_and_variance, mle
from qiokit.families import ParameterFamily
from qiokit.filtering import log_likelihood, log_likelihood_many
from qiokit.linear import (
    GaussianInput,
    LinearQSystem,
    QuadraticSpec,
    build_linear_system,
    check_pr1,
    check_pr2,
    kalman_gain,
    power_spectrum,
    random_symplectic,
    simulate_innovation_form,
    symplectic_form,
    symplectic_transform,
    transfer_function,
)
from qiokit.markov_qfi import qfi_rate
from qiokit.operators import QMarkovModel
from qiokit.sysid import (
    SysIdDataset,
    fpe_order_select,
    pr_projection,
    prbs_pair,
    recover_full_c,
    subspace_id,
    validate_nmse,
)
from qiokit.trajectories import (
    CountingRecord,
    simulate_counting,
    simulate_counting_ensemble,
    simulate_homodyne_ensemble,
    simulate_reference,
)

from conftest import SM, SX, driven_qubit, random_ergodic_model, random_hermitian

pytestmark = pytest.mark.acceptance

MIXED = np.eye(2, dtype=complex) / 2
ZERO2 = np.zeros((2, 2), dtype=complex)


def cavity(delta=1.0, kappa=2.0) -> LinearQSystem:
    return build_linear_system(
        QuadraticSpec(R=0.5 * delta * np.eye(2),
                      K=np.sqrt(kappa) / 2 * np.array([1.0, 1.0j]))
    )


def random_stable_physical(rng, n=1) -> LinearQSystem:
    for _ in range(200):
        R = rng.normal(size=(2 * n, 2 * n))
        R = (R + R.T) / 2
        K = rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)
        G = build_linear_system(QuadraticSpec(R=R, K=K))
        if np.all(np.linalg.eigvals(G.A).real < -1e-3):
            return G
    raise RuntimeError("no stable draw")


def _pass(num, message, t0, budget):
    elapsed = time.time() - t0
    print(f"PASS criterion {num}: {message} [{elapsed:.1f}s]")
    assert elapsed <= budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_01_filter_soundness():
    t0 = time.time()
    model = driven_qubit()
    worst_trace, worst_eig = 0.0, 0.0
    for start in range(0, 500, 100):
        ens = simulate_homodyne_ensemble(model, MIXED, T=10.0, dt=1e-3,
                                         n_traj=100, seed=101,
                                         keep_states=True, start_index=start)
        tr = np.einsum("btii->bt", ens.states).real
        worst_trace = max(worst_trace, float(np.max(np.abs(tr - 1.0))))
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(ens.states).min()))
    for start in range(0, 500, 100):
        ens = simulate_counting_ensemble(model, MIXED, T=10.0, dt=1e-3,
                                         n_traj=100, seed=102,
                                         keep_states=True, start_index=start)
        tr = np.einsum("btii->bt", ens.states).real
        worst_trace = max(worst_trace, float(np.max(np.abs(tr - 1.0))))
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(ens.states).min()))
    assert worst_trace <= 1e-8
    assert worst_eig >= -1e-10
    _pass(1, f"1000 trajectories: |trace-1| <= {worst_trace:.2e}, "
             f"min eig {worst_eig:.2e}", t0, 60)


def test_criterion_02_likelihood_martingale():
    t0 = time.time()
    model = driven_qubit()
    n_rec, T, dt = 10_000, 1.0, 1e-3
    lines = []
    recs = [simulate_reference("wiener", 1.0, T, dt, seed=201, index=i)
            for i in range(n_rec)]
    w = np.exp(log_likelihood_many(model, MIXED, recs))
    se = w.std(ddof=1) / np.sqrt(n_rec)
    assert abs(w.mean() - 1.0) <= 3 * se
    lines.append(f"diffusive {w.mean():.4f}+-{se:.4f}")
    for lam in (1.0, 2.0):
        recs = [simulate_reference("poisson", lam, T, dt, seed=202 + int(lam),
                                   index=i) for i in range(n_rec)]
        w = np.exp(log_likelihood_many(model, MIXED, recs, lam=lam, dt=dt))
        se = w.std(ddof=1) / np.sqrt(n_rec)
        assert abs(w.mean() - 1.0) <= 3 * se
        lines.append(f"counting(lam={lam:g}) {w.mean():.4f}+-{se:.4f}")
    _pass(2, "mean exp(loglik): " + ", ".join(lines), t0, 300)


def test_criterion_03_exhaustive_likelihood_sum():
    t0 = time.time()
    model = driven_qubit()
    dt, n = 1e-3, 8
    total = 0.0
    for pat in product([0, 1], repeat=n):
        jumps = [(k + 1) * dt for k in range(n) if pat[k]]
        rec = CountingRecord(horizon=n * dt, jumps=jumps)
        ll = log_likelihood(model, MIXED, rec, dt=dt)
        pref = np.prod([dt if b else 1.0 - dt for b in pat])
        total += np.exp(ll) * pref
    assert abs(total - 1.0) <= 5 * dt
    _pass(3, f"sum over 2^8 patterns = {total:.8f}", t0, 1.0 + 1.0)


def test_criterion_04_phase_family_qfi_identity():
    t0 = time.time()
    rng = np.random.default_rng(404)
    worst = 0.0
    for k in range(10):
        d = 2 if k % 2 == 0 else 3
        model = random_ergodic_model(d, rng)
        fam = ParameterFamily.phase_family(model, domain=[[-1, 1]])
        F = qfi_rate(fam, [0.0])[0, 0]
        _, V = counting_rate_and_variance(model)
        worst = max(worst, abs(F - 4 * V))
        assert abs(F - 4 * V) <= 1e-8 * max(1.0, 4 * V)
    _pass(4, f"qfi_rate = 4V on 10 models, worst |diff| {worst:.2e}", t0, 10)


def test_criterion_05_gauge_orbit_nullity():
    t0 = time.time()
    rng = np.random.default_rng(505)
    model = driven_qubit()
    d = model.dim
    fam_hs = ParameterFamily.affine(model, [np.eye(d)], [np.zeros((d, d))],
                                    domain=[[-1, 1]])
    worst = abs(qfi_rate(fam_hs, [0.0])[0, 0])
    assert worst <= 1e-8
    for k in range(20):
        base = model if k < 10 else random_ergodic_model(2 + k % 2, rng)
        dd = base.dim
        X = random_hermitian(dd, rng)
        hdot = 1j * (base.H @ X - X @ base.H)
        hdot = (hdot + hdot.conj().T) / 2
        ldot = 1j * (base.L @ X - X @ base.L)
        fam = ParameterFamily.affine(base, [hdot], [ldot], domain=[[-1, 1]])
        val = abs(qfi_rate(fam, [0.0])[0, 0])
        worst = max(worst, val)
        assert val <= 1e-8
    _pass(5, f"HS + 20 UC orbit directions, worst rate {worst:.2e}", t0, 10)


def test_criterion_06_counting_clt():
    t0 = time.time()
    model = driven_qubit()
    mu, V = counting_rate_and_variance(model)
    T, dt, n_traj = 200.0, 0.02, 10_000
    counts = np.empty(n_traj)
    for start in range(0, n_traj, 2500):
        ens = simulate_counting_ensemble(model, MIXED, T=T, dt=dt, n_traj=2500,
                                         seed=606, start_index=start)
        counts[start : start + 2500] = ens.counts
    v_emp = counts.var(ddof=1) / T
    assert abs(v_emp - V) <= 0.1 * V
    _pass(6, f"Var(N_T)/T = {v_emp:.4f} vs V = {V:.4f} "
             f"(ratio {v_emp / V:.3f})", t0, 600)


def test_criterion_07_mle_consistency():
    t0 = time.time()
    base = QMarkovModel(H=ZERO2, L=SM)  # kappa = 1 known
    fam = ParameterFamily.affine(base, [0.5 * SX], [ZERO2], domain=[[0.2, 2.0]])
    true_omega = 1.0
    model = fam.model([true_omega])
    T, dt = 2000.0, 1e-2
    ic = counting_fisher(fam, true_omega)
    tol = 3.0 / np.sqrt(T * ic)
    hits, errors = 0, []
    for rep in range(100):
        rec, _ = simulate_counting(model, MIXED, T=T, dt=dt, seed=707,
                                   index=rep, keep_states=False, method="exact")
        res = mle(fam, [rec], MIXED, dt=dt)
        err = abs(res.theta[0] - true_omega)
        errors.append(err)
        hits += err <= tol
    assert hits >= 95
    _pass(7, f"{hits}/100 within {tol:.3f} (I_c = {ic:.4f}, "
             f"median |err| {np.median(errors):.3f})", t0, 1800)


def test_criterion_08_linear_realizability():
    t0 = time.time()
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        R = rng.normal(size=(2 * n, 2 * n))
        R = (R + R.T) / 2
        K = rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)
        resid = check_pr1(build_linear_system(QuadraticSpec(R=R, K=K)))
        worst = max(worst, resid)
        assert resid <= 1e-10
    cavity_resid = check_pr1(cavity(delta=1.0, kappa=2.0))
    assert cavity_resid <= 1e-15
    _pass(8, f"50 random specs worst pr1 {worst:.2e}; cavity {cavity_resid:.1e}",
          t0, 1.0 + 4.0)


def test_criterion_09_symplectic_invariance():
    t0 = time.time()
    rng = np.random.default_rng(909)
    G = cavity()
    vac = GaussianInput.vacuum()
    omegas = np.linspace(-4.0, 4.0, 20)
    worst = 0.0
    for _ in range(20):
        V = random_symplectic(G.n, rng)
        H = symplectic_transform(G, V)
        for w in omegas:
            d_tf = np.max(np.abs(transfer_function(H, 1j * w)
                                 - transfer_function(G, 1j * w)))
            d_sp = np.max(np.abs(power_spectrum(H, vac, w)
                                 - power_spectrum(G, vac, w)))
            worst = max(worst, d_tf, d_sp)
            assert d_tf <= 1e-8 and d_sp <= 1e-8
    _pass(9, f"20 transforms x 20 frequencies, worst deviation {worst:.2e}",
          t0, 5.0 + 5.0)


def test_criterion_10_kalman_correctness():
    t0 = time.time()
    rng = np.random.default_rng(1010)
    worst_resid, worst_r1 = 0.0, 0.0
    for k in range(20):
        G = random_stable_physical(rng)
        gain, Q = kalman_gain(G, "Q")
        Cm, Dm = G.C[0:1], G.D[0:1]
        resid = np.max(np.abs(
            G.A @ Q + Q @ G.A.T + G.B @ G.B.T
            - np.outer(gain, gain) * float((Dm @ Dm.T)[0, 0])
        ))
        worst_resid = max(worst_resid, resid)
        assert resid <= 1e-8 * max(1.0, np.abs(G.B @ G.B.T).max())
        assert np.linalg.eigvalsh(Q)[0] >= -1e-9 * max(1.0, np.abs(Q).max())
        closed = G.A - np.outer(gain, Cm[0])
        assert np.all(np.linalg.eigvals(closed).real < 0)
        # innovations reconstructed from simulated output must be white
        dt, T = 1e-3, 30.0
        n = int(T / dt)
        f = rng.choice([-1.0, 1.0], size=(n, 2))
        rec, _ = simulate_innovation_form(G, gain, "Q", f, T=T, dt=dt,
                                          seed=1010 + k)
        z = np.zeros(2 * G.n)
        nu = np.empty(n)
        for i in range(n):
            pred = (Cm[0] @ z) * dt + (Dm[0] @ f[i]) * dt
            nu[i] = rec.increments[i] - pred
            z = z + (G.A @ z + G.B @ f[i]) * dt + gain * nu[i]
        r1 = abs((nu[:-1] @ nu[1:]) / (nu @ nu))
        worst_r1 = max(worst_r1, r1)
        assert r1 <= 3 / np.sqrt(n)
    _pass(10, f"20 systems: worst Riccati residual {worst_resid:.2e}, "
              f"worst lag-1 corr {worst_r1:.4f}", t0, 60)


def _identify(G, dt, T, amp, horizon, seed):
    n = int(T / dt)
    f = prbs_pair(n, amp, seed)
    gain, _ = kalman_gain(G, "Q")
    rec, _ = simulate_innovation_form(G, gain, "Q", f, T=T, dt=dt, seed=seed)
    data = SysIdDataset.from_record(rec, f, split=0.7)
    return data


def _fit(G, data, horizon, seed):
    est = subspace_id(data, 1, horizon)
    proj = pr_projection((est.A, est.B, est.C), np.eye(2), "Q", seed=seed)
    C_full = recover_full_c(proj.Z, proj.B, np.eye(2), "Q", proj.C_m[0])
    fit = LinearQSystem(A=proj.A, B=proj.B, C=C_full, D=np.eye(2))
    J = symplectic_form(1)
    pr2 = max(
        np.max(np.abs(proj.A @ proj.Z + proj.Z @ proj.A.T + proj.B @ J @ proj.B.T)),
        np.max(np.abs(proj.Z @ C_full.T + proj.B @ J)),
    )
    return fit, pr2


def test_criterion_11_identification_round_trip():
    t0 = time.time()
    G = cavity()
    # (a) FPE picks the true order in >= 90% of 50 seeds
    picks = 0
    for seed in range(50):
        data = _identify(G, dt=0.05, T=600.0, amp=50.0, horizon=10, seed=seed)
        n_best, _ = fpe_order_select(data, [1, 2, 3], 10)
        picks += n_best == 1
    assert picks >= 45
    # (b) + (c): high-SNR fits pass pr-2 and match the transfer function
    omegas = np.linspace(-3.0, 3.0, 20)
    tf_medians = []
    worst_pr2 = 0.0
    for seed in range(20):
        data = _identify(G, dt=0.02, T=2000.0, amp=100.0, horizon=25, seed=seed)
        fit, pr2 = _fit(G, data, horizon=25, seed=seed)
        worst_pr2 = max(worst_pr2, pr2)
        assert pr2 <= 1e-6
        errs = [
            np.linalg.norm(transfer_function(fit, 1j * w)
                           - transfer_function(G, 1j * w))
            / np.linalg.norm(transfer_function(G, 1j * w))
            for w in omegas
        ]
        tf_medians.append(np.median(errs))
    tf_median = float(np.median(tf_medians))
    assert tf_median <= 0.05
    # (d) NMSE improves when the PRBS amplitude is multiplied by 10
    nmse_lo, nmse_hi = [], []
    for seed in range(20):
        for amp, sink in ((5.0, nmse_lo), (50.0, nmse_hi)):
            data = _identify(G, dt=0.05, T=600.0, amp=amp, horizon=10, seed=seed)
            try:
                fit, _ = _fit(G, data, horizon=10, seed=seed)
                gain_fit, _ = kalman_gain(fit, "Q")
                sink.append(validate_nmse(fit, gain_fit, data, "Q"))
            except Exception:
                sink.append(np.inf)  # a failed low-SNR fit counts as a bad fit
    assert np.median(nmse_hi) < np.median(nmse_lo)
    _pass(11, f"FPE {picks}/50; median TF err {tf_median:.4f}; "
              f"worst pr2 {worst_pr2:.2e}; NMSE {np.median(nmse_hi):.3f} "
              f"vs {np.median(nmse_lo):.3f} at amp x10", t0, 1800)


def test_criterion_12_erase_and_recover():
    t0 = time.time()
    rng = np.random.default_rng(1212)
    worst = 0.0
    for k in range(20):
        n = 1 + k % 3
        R = rng.normal(size=(2 * n, 2 * n))
        R = (R + R.T) / 2
        K = rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)
        G = build_linear_system(QuadraticSpec(R=R, K=K))  # stability not needed
        V = random_symplectic(n, rng)
        H = symplectic_transform(G, V)
        Z = V.V @ symplectic_form(n) @ V.V.T
        row = "Q" if k % 2 == 0 else "P"
        kept = 0 if row == "Q" else 1
        C = recover_full_c(Z, H.B, H.D, row, H.C[kept])
        diff = np.max(np.abs(C - H.C))
        worst = max(worst, diff)
        assert diff <= 1e-8
    _pass(12, f"20 systems, worst recovered-row error {worst:.2e}", t0, 1.0 + 4.0)
