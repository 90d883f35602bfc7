"""Filter/Zakai/likelihood tests: consistency, martingales, shift identities."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qiokit.estimation import posterior_grid
from qiokit.exceptions import ValidationError, ZeroJumpRate
from qiokit.families import ParameterFamily
from qiokit.filtering import (
    log_likelihood,
    log_likelihood_many,
    run_filter,
    run_zakai,
)
from qiokit.operators import QMarkovModel
from qiokit.trajectories import (
    CountingRecord,
    DiffusiveRecord,
    simulate_counting,
    simulate_counting_ensemble,
    simulate_homodyne,
    simulate_homodyne_ensemble,
    simulate_reference,
    trajectory_rng,
)

from conftest import NON_PHYSICAL, SM, SX, driven_qubit, random_ergodic_model

ZERO2 = np.zeros((2, 2), dtype=complex)
MIXED = np.eye(2, dtype=complex) / 2
GROUND = np.diag([1.0, 0.0]).astype(complex)


@st.composite
def counting_records(draw):
    """Jump records on a dt grid with the cases the likelihood engine fuses.

    Several jumps in one cell, jumps exactly on cell boundaries, a
    fractional last cell, and optionally a jump-free gap of more than
    10,000 cells between the early and the late jumps.
    """
    dt = draw(st.sampled_from([1e-2, 2e-2]))
    head = draw(st.integers(1, 30))
    gap = draw(st.sampled_from([0, 10_050]))
    tail = draw(st.integers(0, 5))
    frac = draw(st.sampled_from([0.0, 0.25, 0.6]))
    horizon = (head + gap + tail + frac) * dt
    on_boundary = draw(st.lists(st.integers(1, head), max_size=4))
    inside = draw(st.lists(
        st.tuples(st.integers(0, head - 1), st.floats(0.05, 0.95)), max_size=8))
    late = draw(st.lists(st.floats(0.01, 1.0), max_size=3))
    times = {k * dt for k in on_boundary}
    times |= {(c + off) * dt for c, off in inside}
    times |= {(head + gap) * dt + u * (horizon - (head + gap) * dt) for u in late}
    return dt, CountingRecord(horizon=horizon, jumps=sorted(times))


class TestRunFilter:
    def test_free_evolution_is_record_independent(self):
        m = QMarkovModel(H=SX, L=ZERO2)
        rec1 = simulate_reference("wiener", 1.0, T=0.5, dt=1e-3, seed=1)
        rec2 = simulate_reference("wiener", 1.0, T=0.5, dt=1e-3, seed=2)
        t1 = run_filter(m, MIXED, rec1)
        t2 = run_filter(m, MIXED, rec2)
        assert np.max(np.abs(t1.states - t2.states)) < 1e-12
        t = 0.5
        u = np.eye(2) * np.cos(t) - 1j * np.sin(t) * SX
        assert np.max(np.abs(t1.final_state - u @ MIXED @ u.conj().T)) < 1e-3

    def test_replay_matches_simulation(self):
        m = driven_qubit()
        rec, traj = simulate_homodyne(m, MIXED, T=1.0, dt=1e-3, seed=3)
        replay = run_filter(m, MIXED, rec)
        assert np.max(np.abs(traj.states - replay.states)) < 1e-12
        crec, ctraj = simulate_counting(m, MIXED, T=5.0, dt=1e-3, seed=4)
        creplay = run_filter(m, MIXED, crec, dt=1e-3)
        assert np.max(np.abs(ctraj.states - creplay.states)) < 1e-12

    def test_filter_equals_normalized_zakai(self):
        m = driven_qubit()
        rec, _ = simulate_homodyne(m, MIXED, T=1.0, dt=1e-3, seed=5)
        f = run_filter(m, MIXED, rec)
        z = run_zakai(m, MIXED, rec)
        assert np.max(np.abs(f.states - z.states)) < 1e-8
        crec, _ = simulate_counting(m, MIXED, T=5.0, dt=1e-3, seed=6)
        f = run_filter(m, MIXED, crec, dt=1e-3)
        z = run_zakai(m, MIXED, crec, dt=1e-3)
        assert np.max(np.abs(f.states - z.states)) < 1e-8

    def test_dark_state_jump_raises(self):
        m = QMarkovModel(H=ZERO2, L=SM)
        rec = CountingRecord(horizon=1.0, jumps=[0.5])
        with pytest.raises(ZeroJumpRate):
            run_filter(m, GROUND, rec, dt=1e-3)


class TestRunZakai:
    def test_free_diffusive_trace_constant(self):
        m = QMarkovModel(H=SX, L=ZERO2)
        rec = simulate_reference("wiener", 1.0, T=1.0, dt=1e-3, seed=7)
        z = run_zakai(m, MIXED, rec)
        assert np.max(np.abs(z.logtrace)) < 1e-12

    def test_free_counting_no_jump_logtrace(self):
        m = QMarkovModel(H=ZERO2, L=ZERO2)
        z = run_zakai(m, MIXED, CountingRecord(horizon=5.0, jumps=[]), dt=1e-2)
        assert z.loglik == pytest.approx(5.0, abs=1e-12)
        # intermediate values grow linearly
        assert np.allclose(z.logtrace, z.times, atol=1e-12)

    def test_free_counting_jump_collapses(self):
        m = QMarkovModel(H=ZERO2, L=ZERO2)
        z = run_zakai(m, MIXED, CountingRecord(horizon=2.0, jumps=[1.0]), dt=1e-2)
        assert z.loglik == -np.inf

    def test_unnormalized_states_materialize(self):
        m = driven_qubit()
        rec, _ = simulate_homodyne(m, MIXED, T=0.1, dt=1e-3, seed=8)
        z = run_zakai(m, MIXED, rec)
        full = z.unnormalized_states
        tr = np.einsum("kii->k", full).real
        assert np.allclose(np.log(tr), z.logtrace, atol=1e-10)
        w = np.linalg.eigvalsh(full)
        assert w.min() >= -1e-10


class TestLogLikelihood:
    def test_counting_fast_path_matches_zakai(self):
        m = driven_qubit()
        for seed in range(4):
            rec, _ = simulate_counting(m, MIXED, T=10.0, dt=1e-3, seed=seed)
            ll = log_likelihood(m, MIXED, rec, dt=1e-3)
            z = run_zakai(m, MIXED, rec, dt=1e-3)
            assert ll == pytest.approx(z.loglik, abs=1e-9)

    def test_counting_fractional_jumps_match_zakai(self):
        m = driven_qubit()
        rec, _ = simulate_counting(m, MIXED, T=8.0, dt=1e-2, seed=30, method="exact")
        ll = log_likelihood(m, MIXED, rec, dt=1e-2)
        z = run_zakai(m, MIXED, rec, dt=1e-2)
        assert ll == pytest.approx(z.loglik, abs=1e-9)

    @settings(max_examples=60)
    @given(counting_records())
    def test_counting_engine_matches_zakai_property(self, case):
        dt, rec = case
        m = driven_qubit()
        ll = log_likelihood(m, MIXED, rec, dt=dt)
        assert ll == pytest.approx(run_zakai(m, MIXED, rec, dt=dt).loglik,
                                   rel=1e-9, abs=0.0)

    def test_counting_long_jump_free_record_does_not_underflow(self):
        # Tr of the unnormalized state is (1 - dt kappa/2)^(2n): exp(-5000) for
        # the first case; the others lose exp(-102) per 1,000 cells, close to the
        # step guard dt kappa <= 0.1
        excited = np.diag([0.0, 1.0]).astype(complex)
        dt = 1e-2
        for kappa_dt, n in [(1e-2, 500_000), (0.0999, 9_000), (0.0999, 25_000)]:
            m = QMarkovModel(H=ZERO2, L=np.sqrt(kappa_dt / dt) * SM)
            rec = CountingRecord(horizon=n * dt, jumps=[])
            want = 2 * n * np.log1p(-kappa_dt / 2) + n * dt
            assert log_likelihood(m, excited, rec, dt=dt) == pytest.approx(want, abs=1e-9)
            assert run_zakai(m, excited, rec, dt=dt).loglik == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("method", ["bernoulli", "exact"])
    def test_counting_filter_zakai_and_likelihood_agree_exactly(self, method):
        m = driven_qubit()
        for seed in range(3):
            rec, _ = simulate_counting(m, MIXED, T=10.0, dt=1e-2, seed=seed,
                                       method=method, keep_states=False)
            ll = log_likelihood(m, MIXED, rec, dt=1e-2)
            assert run_filter(m, MIXED, rec, dt=1e-2).loglik == ll
            assert run_zakai(m, MIXED, rec, dt=1e-2).loglik == ll
            ll = log_likelihood(m, MIXED, rec, lam=2.0, dt=1e-2)
            assert run_zakai(m, MIXED, rec, lam=2.0, dt=1e-2).loglik == ll

    def test_diffusive_equals_zakai_trace(self):
        m = driven_qubit()
        rec, _ = simulate_homodyne(m, MIXED, T=1.0, dt=1e-3, seed=9)
        assert log_likelihood(m, MIXED, rec) == run_zakai(m, MIXED, rec).loglik

    def test_lambda_shift_identity_exact(self):
        m = driven_qubit()
        rec, _ = simulate_counting(m, MIXED, T=10.0, dt=1e-3, seed=10)
        l1 = log_likelihood(m, MIXED, rec, lam=1.0, dt=1e-3)
        for lam in (0.5, 2.0, 3.0):
            ll = log_likelihood(m, MIXED, rec, lam=lam, dt=1e-3)
            shift = (lam - 1.0) * rec.horizon - rec.n_jumps * np.log(lam)
            assert ll - l1 == pytest.approx(shift, abs=1e-10)

    def test_counting_empty_record_free(self):
        m = QMarkovModel(H=ZERO2, L=ZERO2)
        rec = CountingRecord(horizon=5.0, jumps=[])
        assert log_likelihood(m, MIXED, rec, dt=1e-3) == pytest.approx(5.0, abs=1e-12)
        assert log_likelihood(m, MIXED, rec, lam=2.0, dt=1e-3) == pytest.approx(
            10.0, abs=1e-12
        )

    def test_counting_dark_jump_is_minus_inf(self):
        m = QMarkovModel(H=ZERO2, L=SM)
        rec = CountingRecord(horizon=1.0, jumps=[0.5])
        assert log_likelihood(m, GROUND, rec, dt=1e-3) == -np.inf

    def test_girsanov_form_on_fine_grids(self):
        # log Tr rho_T = int m dY - (1/2) int m^2 dt for the same discrete record
        m = QMarkovModel(H=0.5 * SX, L=0.25 * SM)
        rec, _ = simulate_homodyne(m, MIXED, T=0.4, dt=1e-5, seed=11,
                                   keep_states=False)
        traj = run_filter(m, MIXED, rec)
        Lsum = m.L + m.L.conj().T
        mvals = np.einsum("ij,kji->k", Lsum, traj.states).real[:-1]
        girsanov = np.sum(mvals * rec.increments) - 0.5 * np.sum(mvals**2) * rec.dt
        assert abs(traj.loglik - girsanov) < 1e-6

    def test_loglik_c_accumulation_matches(self):
        # counting log-lik accumulation (lam - tr)dt + sum log(tr/lam) at jumps
        m = QMarkovModel(H=0.5 * SX, L=0.4 * SM)
        dt = 1e-6
        rec, _ = simulate_counting(m, MIXED, T=0.03, dt=dt, seed=12)
        traj = run_filter(m, MIXED, rec, dt=dt)
        LdL = m.L.conj().T @ m.L
        rates = np.einsum("ij,kji->k", LdL, traj.states).real
        lam = 1.0
        acc = np.sum((lam - rates[:-1])) * dt
        for tj in rec.jumps:
            k = int(round(tj / dt)) - 1  # jumps sit at cell ends
            acc += np.log(rates[k + 1] / lam)
        # the jump factor uses the pre-jump state at the cell end; replay applies
        # the no-jump substep first, so recompute from the pre-jump state
        acc2 = np.sum((lam - rates[:-1])) * dt
        prop_states = traj.states
        for tj in rec.jumps:
            k = int(round(tj / dt))
            # state right before the jump: advance states[k-1] by one no-jump step
            rho = prop_states[k - 1]
            M = np.eye(2) - dt * (1j * m.H + 0.5 * LdL)
            nj = M @ rho @ M.conj().T
            nj /= np.trace(nj).real
            acc2 += np.log(np.einsum("ij,ji->", LdL, nj).real / lam)
        ll = log_likelihood(m, MIXED, rec, dt=dt)
        assert abs(ll - acc2) < 1e-8

    def test_martingale_diffusive(self):
        m = driven_qubit()
        recs = [
            simulate_reference("wiener", 1.0, T=1.0, dt=1e-3, seed=40, index=i)
            for i in range(1500)
        ]
        w = np.exp(log_likelihood_many(m, MIXED, recs))
        se = w.std(ddof=1) / np.sqrt(len(w))
        assert abs(w.mean() - 1.0) < 3 * se

    def test_martingale_counting(self):
        m = driven_qubit()
        for lam in (1.0, 2.0):
            recs = [
                simulate_reference("poisson", lam, T=1.0, dt=1e-3, seed=41, index=i)
                for i in range(1500)
            ]
            w = np.exp(log_likelihood_many(m, MIXED, recs, lam=lam, dt=1e-3))
            se = w.std(ddof=1) / np.sqrt(len(w))
            assert abs(w.mean() - 1.0) < 3 * se + 2e-3  # MC + O(dt) jump placement

    def test_exhaustive_pattern_sum(self):
        m = driven_qubit()
        dt, n = 1e-3, 8
        total = 0.0
        for pat in product([0, 1], repeat=n):
            jumps = [(k + 1) * dt for k in range(n) if pat[k]]
            rec = CountingRecord(horizon=n * dt, jumps=jumps)
            ll = log_likelihood(m, MIXED, rec, dt=dt)
            pref = np.prod([dt if b else 1.0 - dt for b in pat])
            total += np.exp(ll) * pref
        assert abs(total - 1.0) <= 5 * dt

    def test_batch_matches_single(self):
        m = driven_qubit()
        recs = [
            simulate_reference("poisson", 1.0, T=2.0, dt=1e-3, seed=42, index=i)
            for i in range(5)
        ]
        batch = log_likelihood_many(m, MIXED, recs, dt=1e-3)
        singles = [log_likelihood(m, MIXED, r, dt=1e-3) for r in recs]
        assert np.allclose(batch, singles, atol=1e-12)
        wrecs = [
            simulate_reference("wiener", 1.0, T=0.5, dt=1e-3, seed=43, index=i)
            for i in range(5)
        ]
        batch = log_likelihood_many(m, MIXED, wrecs)
        singles = [log_likelihood(m, MIXED, r) for r in wrecs]
        assert np.allclose(batch, singles, atol=1e-12)

    def test_validation(self):
        m = driven_qubit()
        rec, _ = simulate_counting(m, MIXED, T=1.0, dt=1e-3, seed=1)
        with pytest.raises(ValidationError):
            log_likelihood(m, MIXED, rec, lam=-1.0)
        with pytest.raises(ValidationError):
            log_likelihood(m, MIXED, "not a record")

    def test_mixed_record_kinds_raise(self):
        m = driven_qubit()
        crec = CountingRecord(horizon=1.0, jumps=[0.5])
        drec = DiffusiveRecord(dt=1e-3, increments=np.zeros(10))
        with pytest.raises(ValidationError, match="all counting or all diffusive"):
            log_likelihood_many(m, MIXED, [crec, drec], dt=1e-3)

    @pytest.mark.parametrize("name", sorted(NON_PHYSICAL))
    def test_non_physical_initial_state_raises(self, name):
        m = driven_qubit()
        crec = CountingRecord(horizon=1.0, jumps=[0.5])
        drec = DiffusiveRecord(dt=1e-3, increments=np.zeros(10))
        rho0 = NON_PHYSICAL[name]
        for rec in (crec, drec):
            with pytest.raises(ValidationError):
                log_likelihood(m, rho0, rec, dt=1e-3)
            with pytest.raises(ValidationError):
                log_likelihood_many(m, rho0, [rec, rec], dt=1e-3)


def dense_diffusive(H, L, rho0, dt, *, dY=None, dI=None):
    """The README diffusive scheme, one (d, d) step at a time.

    Euler step of the linear update, Hermitize, clip eigenvalues below
    -1e-12, divide by the clipped trace; the pre-clip trace is the
    likelihood factor.  Returns increments, states, running log-likelihood
    and the number of clips.
    """
    Ld = L.conj().T
    rho = np.asarray(rho0, dtype=complex)
    incs, states, logtrace, clips = [], [rho], [0.0], 0
    for k in range(len(dY if dI is None else dI)):
        dy = dY[k] if dI is None else dI[k] + np.trace((L + Ld) @ rho).real * dt
        lind = -1j * (H @ rho - rho @ H) + L @ rho @ Ld - 0.5 * (Ld @ L @ rho + rho @ Ld @ L)
        upd = rho + dt * lind + dy * (L @ rho + rho @ Ld)
        upd = (upd + upd.conj().T) / 2
        factor = np.trace(upd).real
        w, v = np.linalg.eigh(upd)
        if w[0] < -1e-12:
            upd = (v * np.clip(w, 0.0, None)) @ v.conj().T
            clips += 1
        rho = upd / np.trace(upd).real
        incs.append(dy)
        states.append(rho)
        logtrace.append(logtrace[-1] + np.log(factor))
    return np.array(incs), np.array(states), np.array(logtrace), clips


def dense_counting(H, L, rho0, dt, *, u=None, horizon=None, jumps=()):
    """The README counting scheme, one (d, d) cell at a time, at lam = 1.

    With uniforms ``u`` it simulates: cell k jumps when u[k] < Tr(L^dag L rho)
    dt at its start and the rate after its no-jump Kraus map is positive; the
    jump lands at the cell end.  Otherwise it replays ``jumps`` on the cells of
    ``horizon``, the jumps in a cell (t0, t1] cutting it into no-jump
    sub-steps.  Returns jump times, states and running log-likelihood.
    """
    LdL = L.conj().T @ L
    gen = 1j * H + 0.5 * LdL
    n = len(u) if u is not None else max(int(np.ceil(horizon / dt - 1e-9)), 1)
    grid = np.append(np.arange(n) * dt, n * dt if u is not None else horizon)
    rho, log, out = np.asarray(rho0, dtype=complex), 0.0, []
    states, logtrace = [rho], [0.0]

    def nojump(rho, delta):
        M = np.eye(len(rho)) - delta * gen
        upd = M @ rho @ M.conj().T
        return upd / np.trace(upd).real, np.log(np.trace(upd).real)

    def jump(rho):
        upd = L @ rho @ L.conj().T
        return upd / np.trace(upd).real, np.log(np.trace(upd).real)

    for k in range(n):
        t0, t1 = grid[k], grid[k + 1]
        if u is not None:
            rate0 = np.trace(LdL @ rho).real
            rho, f = nojump(rho, dt)
            log += f
            if u[k] < rate0 * dt and np.trace(LdL @ rho).real > 0.0:
                rho, f = jump(rho)
                log += f
                out.append((k + 1) * dt)
        else:
            pos = t0
            lo, hi = np.searchsorted(jumps, [t0, t1], side="right")
            for tau in jumps[lo:hi]:
                if tau > pos:
                    rho, f = nojump(rho, tau - pos)
                    log += f
                rho, f = jump(rho)
                log += f
                pos = tau
            if t1 > pos:
                rho, f = nojump(rho, t1 - pos)
                log += f
        states.append(rho)
        logtrace.append(log + t1)
    return np.array(out), np.array(states), np.array(logtrace)


def _qutrit():
    return random_ergodic_model(3, np.random.default_rng(3), scale=0.7)


# (model, initial state); the pure starts make the clip fire
SCHEME_CASES = {
    "qubit mixed": (driven_qubit, MIXED),
    "qubit ground": (driven_qubit, GROUND),
    "qutrit mixed": (_qutrit, np.eye(3, dtype=complex) / 3),
    "qutrit pure": (_qutrit, np.diag([1.0, 0.0, 0.0]).astype(complex)),
}


# Omega = kappa/2 makes the no-jump generator defective: the counting engine
# takes matrix powers there instead of its eigenbasis
COUNTING_CASES = {
    "qubit": driven_qubit,
    "qutrit": _qutrit,
    "exceptional point": lambda: driven_qubit(omega=0.5),
}


class TestDenseReference:
    """The engines against the dense steppers: the log-likelihood to 1e-10
    relative, the running log trace and the states to 1e-12."""

    DT, N = 1e-3, 300

    def check(self, logtrace, states, ref_logtrace, ref_states):
        assert logtrace[-1] == pytest.approx(ref_logtrace[-1], rel=1e-10, abs=0.0)
        assert np.max(np.abs(logtrace - ref_logtrace)) < 1e-12
        assert np.max(np.abs(states - ref_states)) < 1e-12

    @pytest.mark.parametrize("case", sorted(SCHEME_CASES))
    def test_run_zakai(self, case):
        build, rho0 = SCHEME_CASES[case]
        m = build()
        rec = simulate_reference("wiener", 1.0, T=self.N * self.DT, dt=self.DT, seed=50)
        _, states, logtrace, clips = dense_diffusive(m.H, m.L, rho0, self.DT,
                                                     dY=rec.increments)
        z = run_zakai(m, rho0, rec)
        self.check(z.logtrace, z.states, logtrace, states)
        if "mixed" not in case:
            assert clips > 0

    @pytest.mark.parametrize("case", sorted(SCHEME_CASES))
    def test_simulators(self, case):
        build, rho0 = SCHEME_CASES[case]
        m = build()
        T, n = self.N * self.DT, self.N
        rec, traj = simulate_homodyne(m, rho0, T, self.DT, seed=51, index=1)
        ens = simulate_homodyne_ensemble(m, rho0, T, self.DT, n_traj=3, seed=51,
                                         keep_states=True)
        runs = [(rec.increments, traj.loglik, traj.states, 1)]
        runs += [(ens.increments[i], ens.logliks[i], ens.states[i], i) for i in range(3)]
        for incs, ll, states, index in runs:
            dI = trajectory_rng(51, index).normal(0.0, np.sqrt(self.DT), size=n)
            ref_incs, ref_states, ref_ll, _ = dense_diffusive(m.H, m.L, rho0, self.DT,
                                                              dI=dI)
            assert np.max(np.abs(incs - ref_incs)) < 1e-12
            self.check(np.array([ll]), states, ref_ll[-1:], ref_states)

    @pytest.mark.parametrize("case", sorted(COUNTING_CASES))
    def test_counting_simulators(self, case):
        m = COUNTING_CASES[case]()
        rho0 = np.eye(m.dim, dtype=complex) / m.dim
        dt, n = 1e-2, 2000
        rec, traj = simulate_counting(m, rho0, n * dt, dt, seed=53, index=1)
        ens = simulate_counting_ensemble(m, rho0, n * dt, dt, n_traj=3, seed=53,
                                         keep_states=True)
        runs = [(rec.jumps, traj.loglik, traj.states, 1)]
        runs += [(ens.jump_times[i], ens.logliks[i], ens.states[i], i) for i in range(3)]
        for jumps, ll, states, index in runs:
            u = trajectory_rng(53, index).random(size=n)
            ref_jumps, ref_states, ref_logtrace = dense_counting(m.H, m.L, rho0, dt, u=u)
            assert len(ref_jumps) > 0
            assert np.array_equal(jumps, ref_jumps)
            self.check(np.array([ll]), states, ref_logtrace[-1:], ref_states)

    @pytest.mark.parametrize("case", sorted(COUNTING_CASES))
    def test_counting_replay(self, case):
        m = COUNTING_CASES[case]()
        rho0 = np.eye(m.dim, dtype=complex) / m.dim
        dt = 1e-2
        # jumps on cell boundaries, three in one cell, one in the fractional last cell
        cells = [3.0, 50.0, 51.0, 100.2, 100.5, 100.9, 177.4, 300.3]
        rec = CountingRecord(horizon=300.6 * dt, jumps=[c * dt for c in cells])
        _, ref_states, ref_logtrace = dense_counting(m.H, m.L, rho0, dt,
                                                     horizon=rec.horizon, jumps=rec.jumps)
        z = run_zakai(m, rho0, rec, dt=dt)
        self.check(z.logtrace, z.states, ref_logtrace, ref_states)
        f = run_filter(m, rho0, rec, dt=dt)
        self.check(np.array([f.loglik]), f.states, ref_logtrace[-1:], ref_states)

    @pytest.mark.parametrize("case", ["qubit ground", "qubit mixed"])
    def test_posterior_grid_theta_stack(self, case):
        _, rho0 = SCHEME_CASES[case]
        fam = ParameterFamily.affine(driven_qubit(omega=0.0), [0.5 * SX], [0.3 * SM],
                                     domain=((0.0, 2.0),))
        rec = simulate_reference("wiener", 1.0, T=self.N * self.DT, dt=self.DT, seed=52)
        grid = np.linspace(0.0, 2.0, 5)
        prior = np.full(5, 0.2)
        post = posterior_grid(fam, rec, rho0, grid, prior)
        for theta, logw in zip(grid, post.log_weights):
            m = fam.model([theta])
            ref_ll = dense_diffusive(m.H, m.L, rho0, self.DT, dY=rec.increments)[2][-1]
            assert logw - np.log(0.2) == pytest.approx(ref_ll, rel=1e-10, abs=0.0)


class TestDeadRows:
    """A record that drives the trace negative kills its row only."""

    def killing_record(self, m, seed):
        rec = simulate_reference("wiener", 1.0, T=0.1, dt=1e-3, seed=seed)
        rho50 = run_filter(m, MIXED, rec).states[50]
        mean = np.trace((m.L + m.L.conj().T) @ rho50).real
        assert abs(mean) > 0.05
        inc = rec.increments.copy()
        inc[50] = -100.0 * np.sign(mean)  # factor 1 + dy * mean < 0
        return DiffusiveRecord(dt=rec.dt, increments=inc)

    def test_batch_row_is_minus_inf_others_unchanged(self):
        m = driven_qubit()
        live = [simulate_reference("wiener", 1.0, T=0.1, dt=1e-3, seed=60 + i)
                for i in range(2)]
        records = [live[0], self.killing_record(m, 62), live[1]]
        batch = log_likelihood_many(m, MIXED, records)
        assert batch[1] == -np.inf
        assert batch[0] == log_likelihood(m, MIXED, live[0])
        assert batch[2] == log_likelihood(m, MIXED, live[1])

    def test_zakai_state_frozen_from_death(self):
        m = driven_qubit()
        z = run_zakai(m, MIXED, self.killing_record(m, 62))
        assert np.all(np.isfinite(z.logtrace[:51]))
        assert np.all(z.logtrace[51:] == -np.inf)
        assert np.all(z.states[50:] == z.states[50])
