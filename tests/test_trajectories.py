"""Trajectory-engine tests: record generation, statistics, determinism."""

import warnings

import numpy as np
import pytest

from qiokit.exceptions import StepTooLarge, ValidationError
from qiokit.filtering import log_likelihood, log_likelihood_many, run_filter, run_zakai
from qiokit.operators import QMarkovModel, dag, stationary_state
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

from conftest import NON_PHYSICAL, SM, SX, decay_qubit, driven_qubit, random_ergodic_model

ZERO2 = np.zeros((2, 2), dtype=complex)
MIXED = np.eye(2, dtype=complex) / 2
EXCITED = np.diag([0.0, 1.0]).astype(complex)
GROUND = np.diag([1.0, 0.0]).astype(complex)


class TestRecordTypes:
    def test_diffusive_invariants(self):
        r = DiffusiveRecord(dt=0.1, increments=[0.1, -0.2])
        assert r.t_final == pytest.approx(0.2)
        with pytest.raises(ValidationError):
            DiffusiveRecord(dt=-0.1, increments=[0.1])
        with pytest.raises(ValidationError, match="finite"):
            DiffusiveRecord(dt=np.inf, increments=[0.1])
        with pytest.raises(ValidationError):
            DiffusiveRecord(dt=0.1, increments=[])
        with pytest.raises(ValidationError):
            DiffusiveRecord(dt=0.1, increments=[np.nan])

    def test_counting_invariants(self):
        r = CountingRecord(horizon=1.0, jumps=[0.2, 0.7])
        assert r.n_jumps == 2
        with pytest.raises(ValidationError):
            CountingRecord(horizon=1.0, jumps=[0.7, 0.2])
        with pytest.raises(ValidationError):
            CountingRecord(horizon=1.0, jumps=[0.5, 1.5])
        with pytest.raises(ValidationError):
            CountingRecord(horizon=1.0, jumps=[0.0, 0.5])
        with pytest.raises(ValidationError, match="finite"):
            CountingRecord(horizon=np.inf, jumps=[0.5])


class TestHomodyne:
    def test_free_evolution_statistics(self):
        # L = 0: increments are iid N(0, dt)
        m = QMarkovModel(H=SX, L=ZERO2)
        rec, _ = simulate_homodyne(m, MIXED, T=40.0, dt=1e-3, seed=1,
                                   keep_states=False)
        n = len(rec)
        var = rec.increments.var()
        # sample variance of N(0,dt): sd ~ dt*sqrt(2/n)
        assert abs(var - 1e-3) < 3 * 1e-3 * np.sqrt(2 / n)
        assert abs(rec.increments.mean()) < 3 * np.sqrt(1e-3 / n)

    def test_free_evolution_matches_unitary(self):
        m = QMarkovModel(H=SX, L=ZERO2)
        rho0 = EXCITED
        _, traj = simulate_homodyne(m, rho0, T=1.0, dt=1e-4, seed=2)
        t = traj.times[-1]
        u = np.eye(2) * np.cos(t) - 1j * np.sin(t) * SX  # exp(-i sx t)
        want = u @ rho0 @ u.conj().T
        assert np.max(np.abs(traj.states[-1] - want)) < 5e-4  # O(dt) per step

    def test_single_step(self):
        rec, traj = simulate_homodyne(driven_qubit(), MIXED, T=1e-3, dt=1e-3, seed=3)
        assert len(rec) == 1
        assert traj.states.shape == (2, 2, 2)

    def test_step_guard(self):
        with pytest.raises(StepTooLarge):
            simulate_homodyne(driven_qubit(kappa=10.0), MIXED, T=1.0, dt=0.05, seed=0)

    def test_determinism_and_stream_consistency(self):
        m = driven_qubit()
        r1, t1 = simulate_homodyne(m, MIXED, T=0.5, dt=1e-3, seed=11)
        r2, t2 = simulate_homodyne(m, MIXED, T=0.5, dt=1e-3, seed=11)
        assert np.array_equal(r1.increments, r2.increments)
        assert t1.loglik == t2.loglik
        ens = simulate_homodyne_ensemble(m, MIXED, T=0.5, dt=1e-3, n_traj=3, seed=11)
        assert np.array_equal(ens.increments[0], r1.increments)
        r3, _ = simulate_homodyne(m, MIXED, T=0.5, dt=1e-3, seed=11, index=2)
        assert np.array_equal(ens.increments[2], r3.increments)

    def test_emitted_states_are_physical(self):
        _, traj = simulate_homodyne(driven_qubit(), EXCITED, T=2.0, dt=1e-3, seed=5)
        tr = np.einsum("kii->k", traj.states).real
        assert np.max(np.abs(tr - 1)) < 1e-8
        w = np.linalg.eigvalsh(traj.states)
        assert w.min() >= -1e-10

    def test_stationary_output_mean(self):
        # ensemble mean of (1/T) int dY approaches Tr(rho_ss (L+L^dag))
        m = driven_qubit()
        rho_ss = stationary_state(m).rho
        want = np.trace(rho_ss @ (m.L + m.L.conj().T)).real
        T, n_traj = 15.0, 1000
        ens = simulate_homodyne_ensemble(m, rho_ss, T=T, dt=0.01, n_traj=n_traj, seed=7)
        means = ens.increments.sum(axis=1) / T
        se = means.std(ddof=1) / np.sqrt(n_traj)
        assert abs(means.mean() - want) < 3 * se


class TestCounting:
    def test_no_jumps_without_coupling(self):
        m = QMarkovModel(H=SX, L=ZERO2)
        rec, _ = simulate_counting(m, MIXED, T=5.0, dt=1e-3, seed=1)
        assert rec.n_jumps == 0

    def test_decay_at_most_one_jump(self):
        m = decay_qubit(kappa=1.0)
        ens = simulate_counting_ensemble(m, EXCITED, T=10.0, dt=5e-3,
                                         n_traj=800, seed=2)
        assert ens.counts.max() <= 1
        # P(one jump by T=10) = 1 - exp(-10)
        p = 1 - np.exp(-10.0)
        phat = ens.counts.mean()
        se = np.sqrt(p * (1 - p) / ens.n_traj) + 1e-4
        assert abs(phat - p) < 3 * se + 1e-3  # includes O(dt) thinning bias

    def test_count_rate_matches_stationary_rate(self):
        m = driven_qubit()
        rho_ss = stationary_state(m).rho
        mu = np.trace(rho_ss @ m.L.conj().T @ m.L).real
        T = 60.0
        ens = simulate_counting_ensemble(m, rho_ss, T=T, dt=0.01, n_traj=1200, seed=3)
        rates = ens.counts / T
        se = rates.std(ddof=1) / np.sqrt(ens.n_traj)
        assert abs(rates.mean() - mu) < 3 * se + mu * 0.01 * 1.0  # MC + O(dt)

    def test_determinism(self):
        m = driven_qubit()
        r1, _ = simulate_counting(m, MIXED, T=5.0, dt=1e-3, seed=9)
        r2, _ = simulate_counting(m, MIXED, T=5.0, dt=1e-3, seed=9)
        assert np.array_equal(r1.jumps, r2.jumps)
        ens = simulate_counting_ensemble(m, MIXED, T=5.0, dt=1e-3, n_traj=2, seed=9)
        assert np.array_equal(ens.jump_times[0], r1.jumps)

    def test_emitted_states_are_physical(self):
        _, traj = simulate_counting(driven_qubit(), EXCITED, T=5.0, dt=1e-3, seed=4)
        tr = np.einsum("kii->k", traj.states).real
        assert np.max(np.abs(tr - 1)) < 1e-8
        assert np.linalg.eigvalsh(traj.states).min() >= -1e-10

    def test_exact_sampler_decay_law(self):
        # single decay: jump time is Exp(kappa) truncated to the horizon
        m = decay_qubit(kappa=2.0)
        times = []
        for i in range(400):
            rec, _ = simulate_counting(m, EXCITED, T=20.0, dt=0.01, seed=6,
                                       index=i, method="exact", keep_states=False)
            if rec.n_jumps:
                times.append(rec.jumps[0])
        times = np.asarray(times)
        # mean of Exp(2) is 0.5
        se = times.std(ddof=1) / np.sqrt(len(times))
        assert abs(times.mean() - 0.5) < 3 * se

    def test_exact_sampler_at_exceptional_point(self):
        # Omega = kappa/2 makes the no-jump generator defective; the jump
        # times must still follow from those of a slightly detuned model
        def jumps(omega):
            rec, _ = simulate_counting(driven_qubit(omega=omega), MIXED, T=20.0,
                                       dt=0.01, seed=9, method="exact",
                                       keep_states=False)
            return rec.jumps

        at, near = jumps(0.5), jumps(0.5 + 1e-5)
        assert len(at) == len(near) > 0
        assert np.max(np.abs(at - near)) < 1e-3

    def test_exact_sampler_with_a_dark_mode(self):
        # from the mixed state half the weight sits in the ground state, which never
        # decays (slowest decay rate 0): about half the records have no jump, the rest
        # one at an Exp(kappa) time, and no warning is raised
        m = decay_qubit(kappa=2.0)
        times, empty = [], 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for i in range(400):
                rec, _ = simulate_counting(m, MIXED, T=20.0, dt=0.01, seed=6, index=i,
                                           method="exact", keep_states=False)
                assert rec.n_jumps <= 1
                empty += rec.n_jumps == 0
                times.extend(rec.jumps)
        assert abs(empty / 400 - 0.5) < 3 * np.sqrt(0.25 / 400)
        times = np.asarray(times)
        assert abs(times.mean() - 0.5) < 3 * times.std(ddof=1) / np.sqrt(len(times))

    def test_exact_sampler_from_a_dark_state(self):
        # the ground state of the decay qubit survives with certainty: S = 1, no jump
        rec, traj = simulate_counting(decay_qubit(), GROUND, T=2000.0, dt=0.01, seed=3,
                                      method="exact", keep_states=False)
        assert rec.n_jumps == 0
        assert np.isfinite(traj.loglik)

    @pytest.mark.parametrize("index, n_jumps", [(42, 679), (82, 671)])
    def test_exact_sampler_survives_an_underflowing_survival(self, index, n_jumps):
        # criterion-7 records: just after a jump, with u near 1, a root search can try a
        # time a thousand units past the root, where every term of the survival has
        # underflowed to 0; the sampler must step back, not take log(0)
        rec, traj = simulate_counting(driven_qubit(), MIXED, T=2000.0, dt=0.01, seed=707,
                                      index=index, method="exact", keep_states=False)
        assert rec.n_jumps == n_jumps
        assert np.all(np.diff(rec.jumps) > 0) and 0 < rec.jumps[0] and rec.jumps[-1] <= 2000.0
        assert np.isfinite(traj.loglik)

    def test_exact_sampler_renewal_matches_a_rotated_basis(self):
        # sigma_- resets every jump to one state, so its waits after the first are solved
        # in batches; the same qubit in a rotated basis has L' = V L V^dag with a second
        # singular value at round-off, not exactly 0, and samples one wait at a time
        a, phi = 0.3, 0.2
        V = np.array([[np.cos(a), -np.exp(1j * phi) * np.sin(a)],
                      [np.exp(-1j * phi) * np.sin(a), np.cos(a)]])
        m = driven_qubit()
        rot = QMarkovModel(H=V @ m.H @ dag(V), L=V @ m.L @ dag(V))
        assert np.linalg.svd(rot.L, compute_uv=False)[1] > 0.0
        for i in range(4):
            rec, _ = simulate_counting(m, MIXED, T=2000.0, dt=0.01, seed=1, index=i,
                                       method="exact", keep_states=False)
            ref, _ = simulate_counting(rot, V @ MIXED @ dag(V), T=2000.0, dt=0.01, seed=1,
                                       index=i, method="exact", keep_states=False)
            assert rec.n_jumps == ref.n_jumps > 256
            assert np.max(np.abs(rec.jumps - ref.jumps)) <= 1e-10

    def test_exact_matches_bernoulli_rate(self):
        m = driven_qubit()
        counts = []
        for i in range(300):
            rec, _ = simulate_counting(m, MIXED, T=20.0, dt=0.01, seed=8,
                                       index=i, method="exact", keep_states=False)
            counts.append(rec.n_jumps)
        mu = np.trace(stationary_state(m).rho @ m.L.conj().T @ m.L).real
        rates = np.asarray(counts) / 20.0
        se = rates.std(ddof=1) / np.sqrt(len(rates))
        assert abs(rates.mean() - mu) < 3 * se + 0.01


class TestReference:
    def test_wiener_single_step(self):
        r = simulate_reference("wiener", 1.0, T=1e-3, dt=1e-3, seed=0)
        assert isinstance(r, DiffusiveRecord) and len(r) == 1

    def test_poisson_mean_count(self):
        counts = [
            simulate_reference("poisson", 1.0, T=10.0, dt=1e-3, seed=1, index=i).n_jumps
            for i in range(500)
        ]
        counts = np.asarray(counts, dtype=float)
        se = counts.std(ddof=1) / np.sqrt(len(counts))
        assert abs(counts.mean() - 10.0) < 3 * se

    def test_poisson_small_intensity_usually_empty(self):
        empties = sum(
            simulate_reference("poisson", 0.01, T=1.0, dt=1.0, seed=2, index=i).n_jumps == 0
            for i in range(100)
        )
        assert empties >= 95

    def test_validation(self):
        with pytest.raises(ValidationError):
            simulate_reference("poisson", -1.0, T=1.0, dt=0.1, seed=0)
        with pytest.raises(ValidationError):
            simulate_reference("laplace", 1.0, T=1.0, dt=0.1, seed=0)


def test_trajectory_rng_streams_are_independent():
    a = trajectory_rng(5, 0).random(4)
    b = trajectory_rng(5, 1).random(4)
    c = trajectory_rng(5, 0).random(4)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)


def test_time_averaged_filter_mean_reaches_stationarity():
    # ergodic model: late-time average of <L^dag L> matches the stationary value
    m = driven_qubit()
    rho_ss = stationary_state(m).rho
    want = np.trace(rho_ss @ m.L.conj().T @ m.L).real
    ens = simulate_homodyne_ensemble(m, EXCITED, T=20.0, dt=0.01, n_traj=300,
                                     seed=13, keep_states=True)
    LdL = m.L.conj().T @ m.L
    expct = np.einsum("ij,btji->bt", LdL, ens.states).real
    half = expct.shape[1] // 2
    tavg = expct[:, half:].mean(axis=1)
    se = tavg.std(ddof=1) / np.sqrt(len(tavg))
    assert abs(tavg.mean() - want) < 3 * se + 0.01


class TestBatchWidth:
    """Trajectory i of a 100-wide ensemble is bit-identical to its single run.

    The model has dense operators; the driven qubit's sparse step matrix
    rounds the same in a batched and a per-row product, which would hide
    a width-dependent product path.
    """

    N_TRAJ, SEED = 100, 17

    @staticmethod
    def model():
        return random_ergodic_model(2, np.random.default_rng(4), scale=0.8)

    def test_homodyne(self):
        # the qutrit's pure start makes the clip fire, on some rows and not others;
        # from its mixed start the rows its screen flags depend on the batch width
        qutrit = random_ergodic_model(3, np.random.default_rng(3), scale=0.7)
        pure = np.diag([1.0, 0.0, 0.0]).astype(complex)
        for m, rho0 in ((self.model(), MIXED), (qutrit, pure), (qutrit, np.eye(3) / 3)):
            for keep_states in (False, True):
                ens = simulate_homodyne_ensemble(m, rho0, T=0.3, dt=1e-3, n_traj=self.N_TRAJ,
                                                 seed=self.SEED, keep_states=keep_states)
                for i in (0, 57, 99):
                    rec, traj = simulate_homodyne(m, rho0, T=0.3, dt=1e-3, seed=self.SEED,
                                                  index=i, keep_states=keep_states)
                    assert np.array_equal(ens.increments[i], rec.increments)
                    assert ens.logliks[i] == traj.loglik
                    if keep_states:
                        assert np.array_equal(ens.states[i], traj.states)
            records = [ens.record(i) for i in range(self.N_TRAJ)]
            batch = log_likelihood_many(m, rho0, records)
            assert np.array_equal(batch, [log_likelihood(m, rho0, r) for r in records])
            assert np.array_equal(batch, ens.logliks)

    def test_counting(self):
        m = self.model()
        for keep_states in (False, True):
            ens = simulate_counting_ensemble(m, MIXED, T=2.0, dt=1e-3,
                                             n_traj=self.N_TRAJ, seed=self.SEED,
                                             keep_states=keep_states)
            for i in (0, 57, 99):
                rec, traj = simulate_counting(m, MIXED, T=2.0, dt=1e-3, seed=self.SEED,
                                              index=i, keep_states=keep_states)
                assert np.array_equal(ens.jump_times[i], rec.jumps)
                assert ens.logliks[i] == traj.loglik
                if keep_states:
                    assert np.array_equal(ens.states[i], traj.states)
            records = [ens.record(i) for i in range(self.N_TRAJ)]
            assert np.array_equal(log_likelihood_many(m, MIXED, records), ens.logliks)


@pytest.mark.parametrize("path", ["homodyne", "bernoulli", "exact"])
def test_no_keep_trajectory_holds_one_final_state(path):
    m, T, dt = driven_qubit(), 5.0, 1e-3

    def run(keep):
        kw = dict(seed=21, index=3, keep_states=keep)
        if path == "homodyne":
            return simulate_homodyne(m, MIXED, T, dt, **kw)
        return simulate_counting(m, MIXED, T, dt, method=path, **kw)

    _, traj = run(False)
    assert np.array_equal(traj.times, [T])
    assert traj.states.shape == (1, 2, 2)
    assert traj.final_state.shape == (2, 2)
    _, kept = run(True)
    assert kept.times[-1] == T
    assert np.array_equal(traj.final_state, kept.final_state)
    assert traj.loglik == kept.loglik


@pytest.mark.parametrize("seed", [21, 707])
@pytest.mark.parametrize("method", ["bernoulli", "exact"])
def test_counting_trajectory_is_the_filter_on_its_record(method, seed):
    # the samplers give the jump times only; states and likelihood are the scheme's
    m, T, dt = driven_qubit(), 10.0, 1e-2
    for keep in (False, True):
        rec, traj = simulate_counting(m, MIXED, T, dt, seed, index=3, keep_states=keep,
                                      method=method)
        ref = run_filter(m, MIXED, rec, dt=dt)
        assert rec.n_jumps > 0
        assert np.array_equal(traj.final_state, ref.final_state)
        assert traj.loglik == ref.loglik
        if keep:
            assert np.array_equal(traj.states, ref.states)
            assert np.array_equal(traj.times, ref.times)


@pytest.mark.parametrize("seed", [1, 2026])
@pytest.mark.parametrize("start", ["mixed", "ground"])
def test_homodyne_trajectory_is_the_filter_on_its_record(start, seed):
    # 10,000 steps: several sweep blocks, windows grown to full length and clipped steps;
    # each increment is its draw plus the mean at the state before it, to round-off
    m, rho0, n, dt = driven_qubit(), {"mixed": MIXED, "ground": GROUND}[start], 10_000, 1e-3
    rec, traj = simulate_homodyne(m, rho0, n * dt, dt, seed=seed, index=1)
    ref = run_filter(m, rho0, rec)
    assert traj.loglik == ref.loglik
    assert np.array_equal(traj.states, ref.states)
    draws = trajectory_rng(seed, 1).normal(0.0, np.sqrt(dt), size=n)
    mean = np.einsum("ij,kji->k", m.L + m.L.conj().T, ref.states[:-1]).real
    assert np.max(np.abs(rec.increments - draws - mean * dt)) < 1e-15


def test_bernoulli_sampler_skips_a_dark_jump():
    # the rate after cell 0's no-jump map is positive but below the dark rate
    # 1e-14, at which the likelihood calls a jump impossible: no jump is recorded
    m = QMarkovModel(H=50.0 * SX, L=SM)
    psi = np.array([1.0, 1j * 0.5 / 0.995 * (1 + 1e-7)])
    rho0 = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    for keep in (False, True):
        rec, traj = simulate_counting(m, rho0, 0.05, 0.01, seed=5, index=248, keep_states=keep)
        ref = run_filter(m, rho0, rec, dt=0.01)
        assert np.isfinite(traj.loglik)
        assert traj.loglik == ref.loglik
        assert np.array_equal(traj.final_state, ref.final_state)


_DREC = DiffusiveRecord(dt=1e-3, increments=np.zeros(10))
ENTRY_POINTS = {
    "run_filter": lambda m, r: run_filter(m, r, _DREC),
    "run_zakai": lambda m, r: run_zakai(m, r, _DREC),
    "simulate_homodyne": lambda m, r: simulate_homodyne(m, r, T=0.01, dt=1e-3, seed=0),
    "simulate_homodyne_ensemble": lambda m, r: simulate_homodyne_ensemble(
        m, r, T=0.01, dt=1e-3, n_traj=2, seed=0),
    "simulate_counting": lambda m, r: simulate_counting(m, r, T=0.01, dt=1e-3, seed=0),
    "simulate_counting_ensemble": lambda m, r: simulate_counting_ensemble(
        m, r, T=0.01, dt=1e-3, n_traj=2, seed=0),
}


@pytest.mark.parametrize("state", sorted(NON_PHYSICAL))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_non_physical_initial_state_raises(entry, state):
    with pytest.raises(ValidationError):
        ENTRY_POINTS[entry](driven_qubit(), NON_PHYSICAL[state])
