"""Filter/Zakai/likelihood tests: consistency, martingales, shift identities."""

from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qiokit.estimation import posterior_grid
from qiokit.exceptions import ValidationError, ZeroJumpRate
from qiokit.families import ParameterFamily
from qiokit.filtering import (
    _loglik_table,
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

from conftest import (NON_PHYSICAL, SM, SX, driven_qubit, random_ergodic_model,
                      tangent as _tangent)

ZERO2 = np.zeros((2, 2), dtype=complex)
MIXED = np.eye(2, dtype=complex) / 2
GROUND = np.diag([1.0, 0.0]).astype(complex)


def _rabi_case(omega):
    """Driven qubit (kappa = 1) with unknown Rabi frequency, at omega; 0.5 is
    the exceptional point kappa/2, where the engine takes matrix powers."""
    base = QMarkovModel(H=ZERO2, L=SM)
    return ParameterFamily.affine(base, [0.5 * SX], [ZERO2], domain=[[0.0, 3.0]]), [omega]


def _random_case():
    """d = 3 ergodic model with random H and L directions."""
    rng = np.random.default_rng(5)
    base = random_ergodic_model(3, rng, 0.7)
    h_dir = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    l_dir = 0.2 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    return ParameterFamily.affine(base, [h_dir + h_dir.conj().T], [l_dir]), [0.1]


def _two_parameter_case():
    """Drive and emission amplitude together: H = theta_1 sx/2, L = (1 + theta_2) sm."""
    base = QMarkovModel(H=ZERO2, L=SM)
    return ParameterFamily.affine(base, [0.5 * SX, ZERO2], [ZERO2, SM]), [0.8, 0.1]


def _eig_cond(model):
    """Condition number of the eigenvectors of the no-jump generator iH + L^dag L/2."""
    return np.linalg.cond(np.linalg.eig(1j * model.H + 0.5 * model.L.conj().T @ model.L)[1])


SCORE_CASES = {
    "driven qubit": lambda: _rabi_case(1.0),
    "omega 0.47": lambda: _rabi_case(0.47),
    "omega 0.53": lambda: _rabi_case(0.53),
    "exceptional point": lambda: _rabi_case(0.5),
    "d = 3": _random_case,
    "k = 2": _two_parameter_case,
}


def _purifying_case():
    """Strong emission, L = 3 sm, under the Rabi drive: from the excited state the
    filter purifies and clips hundreds of steps of a T = 5 record."""
    base = QMarkovModel(H=ZERO2, L=3 * SM)
    return ParameterFamily.affine(base, [0.5 * SX], [ZERO2], domain=[[0.0, 3.0]]), [1.0]


DIFFUSIVE_SCORE_CASES = {
    "driven qubit": lambda: _rabi_case(1.0),
    "phase": lambda: (ParameterFamily.phase_family(driven_qubit(), domain=[[-1.0, 1.0]]), [0.3]),
    "d = 3": _random_case,
    "k = 2": _two_parameter_case,
    "purifying": _purifying_case,
}


@st.composite
def counting_records(draw, dt=None):
    """Jump records on a dt grid with the cases the likelihood engine fuses.

    Several jumps in one cell, jumps exactly on cell boundaries, a
    fractional last cell, and optionally a jump-free gap of more than
    10,000 cells between the early and the late jumps.  ``dt`` is drawn
    unless given.
    """
    dt = draw(st.sampled_from([1e-2, 2e-2])) if dt is None else dt
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


@st.composite
def counting_batches(draw):
    """Counting records of mixed lengths on one dt grid, in drawn order: drawn
    records, one with no jumps, one that jumps at its horizon and one longer
    than the engine's 10,000-cell renormalization interval."""
    dt = draw(st.sampled_from([1e-2, 2e-2]))
    recs = [rec for _, rec in draw(st.lists(counting_records(dt), min_size=1, max_size=4))]
    T = draw(st.integers(1, 40)) * dt
    recs += [CountingRecord(horizon=T, jumps=[]), CountingRecord(horizon=T, jumps=[T / 3, T]),
             CountingRecord(horizon=12_345.5 * dt, jumps=[2.5 * dt, 11_000 * dt])]
    return dt, [recs[i] for i in draw(st.permutations(range(len(recs))))]


def wide_counting_batch():
    """72 records on a dt = 1e-2 grid, 3 to 359 cells long, each with 0 to 8 jumps
    drawn uniformly, one on a cell boundary and in every other record a second
    jump in that boundary's cell, so that the records end at different steps."""
    rng, dt, recs = np.random.default_rng(20), 1e-2, []
    for j in range(72):
        horizon = (3 + 5 * j + 0.25 * (j % 3)) * dt
        times = [*rng.uniform(0.0, horizon, size=j % 9), (1 + j % 3) * dt]
        times += [(1.001 + j % 3) * dt] if j % 2 else []
        recs.append(CountingRecord(horizon=horizon, jumps=sorted(times)))
    return dt, recs


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

    @pytest.mark.parametrize("start", ["mixed", "pure"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_screen_clips_where_its_bound_overflows(self, d, start):
        # an increment of 1e155 or more overflows the squares in the eigenvalue screen's
        # bound to NaN; a NaN bound flags its row, so every kept state still gets the clip
        m = driven_qubit() if d == 2 else random_ergodic_model(3, np.random.default_rng(3), 0.7)
        rho0 = np.eye(d) / d if start == "mixed" else np.diag(np.eye(d)[0])
        for size, sign in product((1e155, 1e200, 1e300), (1, -1)):
            inc = np.full(20, 0.01)
            inc[10] = sign * size
            z = run_zakai(m, rho0, DiffusiveRecord(dt=1e-3, increments=inc))
            live = np.isfinite(z.logtrace)
            assert np.linalg.eigvalsh(z.states[live]).min() >= -1e-12


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

    @settings(max_examples=60)
    @given(counting_records(), st.sampled_from(sorted(SCORE_CASES)))
    def test_counting_score_matches_central_difference_property(self, case, name):
        # the score has no public entry of its own: mle and mc_classical_fisher
        # read it through _loglik_table, which this property drives directly
        dt, rec = case
        family, theta = SCORE_CASES[name]()
        d = family.base.dim
        rho0 = np.eye(d, dtype=complex) / d
        m = family.model(theta)
        out = _loglik_table(m.H, m.L, rho0, [rec], dt, 1.0, _tangent(family, theta))
        ll, score = out.loglik, out.score
        plain = log_likelihood(m, rho0, rec, dt=dt)
        assert ll[0, 0] == pytest.approx(plain, rel=1e-12, abs=0.0)
        for a, e in enumerate(np.eye(family.k)):
            def central(h):
                return (log_likelihood(family.model(theta + h * e), rho0, rec, dt=dt)
                        - log_likelihood(family.model(theta - h * e), rho0, rec, dt=dt)) / (2 * h)
            # h = 1e-5 with one Richardson step: a jump after a long dark wait makes
            # the loglik oscillate in theta, and the O(h^2) error alone reaches 1e-6
            coarse, fine = central(1e-5), central(5e-6)
            cd = (4 * fine - coarse) / 3
            # abs: the differences' own round-off.  One loglik is off by at least
            # delta = cond(U)^2 eps (1 + |loglik|), cond(U) of the eigenbasis of the
            # no-jump generator (~400 next to the exceptional point, ~1 elsewhere), and
            # by more where jumps a sliver of a cell apart or a long dark stretch make
            # the engine cancel; the two differences then disagree by that much
            delta = _eig_cond(family.model(theta + 5e-6 * e)) ** 2 * 2.2e-16 * (1 + abs(plain))
            tol = 3 * delta / 1e-5 + 4 * abs(fine - coarse)
            assert score[a, 0] == pytest.approx(cd, rel=1e-6, abs=tol)

    @settings(max_examples=30, deadline=None)
    @given(counting_batches(), st.sampled_from(sorted(SCORE_CASES)), st.just((0.0, 0.05, -0.1)))
    # wide: 72 records under 21 models (the exceptional point among them), 1,512 rows
    @example(wide_counting_batch(), "driven qubit", tuple(np.linspace(-0.5, 0.5, 21)))
    @example(wide_counting_batch(), "d = 3", tuple(np.linspace(-0.1, 0.1, 21)))
    def test_counting_rows_match_single_records_property(self, case, name, shifts):
        # a batch is one sweep with the records as rows; every value, score and final
        # state must have the bits of the record swept alone
        dt, recs = case
        family, theta = SCORE_CASES[name]()
        d = family.base.dim
        rho0 = np.eye(d, dtype=complex) / d
        models = [family.model(np.add(theta, s)) for s in shifts]
        H, L = np.stack([m.H for m in models]), np.stack([m.L for m in models])
        batch = _loglik_table(H, L, rho0, recs, dt, 1.0)
        singles = [_loglik_table(H, L, rho0, [r], dt, 1.0) for r in recs]
        assert np.array_equal(batch.loglik, np.hstack([o.loglik for o in singles]))
        assert np.array_equal(batch.final, np.hstack([o.final for o in singles]), equal_nan=True)
        m, tangent = models[0], _tangent(family, theta)
        batch = _loglik_table(m.H, m.L, rho0, recs, dt, 1.0, tangent)
        singles = [_loglik_table(m.H, m.L, rho0, [r], dt, 1.0, tangent) for r in recs]
        for key in ("loglik", "score", "final", "dfinal"):
            assert np.array_equal(getattr(batch, key),
                                  np.concatenate([getattr(o, key) for o in singles], axis=1),
                                  equal_nan=True), key

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(sorted(DIFFUSIVE_SCORE_CASES)), st.booleans(), st.integers(0, 2**16),
           st.sampled_from([0.5, 2.0]))
    @example("purifying", True, 1, 5.0)  # 212 clipped steps
    def test_diffusive_score_matches_central_difference_property(self, name, pure, seed, T):
        # score and dfinal against Richardson differences of rows at theta +- h; a
        # pure start (the last basis state) makes the filter clip
        family, theta = DIFFUSIVE_SCORE_CASES[name]()
        d = family.base.dim
        rho0 = np.diag(np.eye(d)[-1]).astype(complex) if pure else np.eye(d, dtype=complex) / d
        m = family.model(theta)
        rec, _ = simulate_homodyne(m, rho0, T=T, dt=1e-3, seed=seed, keep_states=False)
        out = _loglik_table(m.H, m.L, rho0, [rec], rec.dt, 1.0, _tangent(family, theta))
        plain = log_likelihood(m, rho0, rec)
        assert out.loglik[0, 0] == pytest.approx(plain, rel=1e-12, abs=0.0)
        for a, e in enumerate(np.eye(family.k)):
            # small steps: a step that clips on one side of theta only kinks the loglik
            models = [family.model(theta + h * e) for h in (1e-5, -1e-5, 5e-6, -5e-6)]
            rows = _loglik_table(np.stack([x.H for x in models]), np.stack([x.L for x in models]),
                                 rho0, [rec], rec.dt, 1.0)
            # abs: the differences' round-off, about sqrt(n) eps (1 + |loglik|) / h over
            # n steps, and the gap between the two differences
            tol = 3 * np.sqrt(len(rec)) * 2.2e-16 * (1 + abs(plain)) / 5e-6
            for got, x in ((out.score[a, 0], rows.loglik[:, 0]),
                           (out.dfinal[a, 0], rows.final[:, 0])):
                coarse, fine = (x[0] - x[1]) / 2e-5, (x[2] - x[3]) / 1e-5
                cd = (4 * fine - coarse) / 3
                assert np.all(np.abs(got - cd) <= 1e-6 * np.abs(cd) + tol + 4 * abs(fine - coarse))

    def test_diffusive_rows_match_single_records(self):
        # as for counting records: a batch's values, scores and states, tangent or not,
        # have the bits of each record swept alone; the d = 3 family starts pure, so its
        # steps clip, and its tangent rows are 18 coordinates wide
        base = random_ergodic_model(3, np.random.default_rng(3), 0.7)
        cases = [(*_rabi_case(1.0), MIXED, 1.0, 50, 45),
                 (ParameterFamily.affine(base, [np.diag([1.0, 2.0, 3.0])], [0.3 * base.L]), [0.1],
                  np.diag([1.0, 0.0, 0.0]).astype(complex), 0.5, 7, 3)]
        for family, theta, rho0, T, n_traj, seed in cases:
            m = family.model(theta)
            ens = simulate_homodyne_ensemble(m, rho0, T=T, dt=1e-3, n_traj=n_traj, seed=seed)
            recs = [ens.record(i) for i in range(n_traj)]
            for tangent in ((), _tangent(family, theta)):
                batch = _loglik_table(m.H, m.L, rho0, recs, 1e-3, 1.0, tangent)
                singles = [_loglik_table(m.H, m.L, rho0, [r], 1e-3, 1.0, tangent) for r in recs]
                for key in ("loglik", "final") + (("score", "dfinal") if tangent else ()):
                    assert np.array_equal(getattr(batch, key),
                                          np.concatenate([getattr(o, key) for o in singles],
                                                         axis=1), equal_nan=True), key

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
        assert np.array_equal(batch, singles)
        wrecs = [
            simulate_reference("wiener", 1.0, T=0.5, dt=1e-3, seed=43, index=i)
            for i in range(5)
        ]
        batch = log_likelihood_many(m, MIXED, wrecs)
        singles = [log_likelihood(m, MIXED, r) for r in wrecs]
        assert np.allclose(batch, singles, atol=1e-12)

    def test_mixed_grid_diffusive_batch(self):
        # two dt values and two lengths in one batch, interleaved
        m = driven_qubit()
        recs = [
            simulate_reference("wiener", 1.0, T=T, dt=dt, seed=44, index=i)
            for i, (T, dt) in enumerate(product((0.2, 0.35), (1e-3, 2e-3)))
        ]
        recs += recs[:2]
        assert len({(r.dt, len(r)) for r in recs}) == 4
        batch = log_likelihood_many(m, MIXED, recs)
        assert np.array_equal(batch, [log_likelihood(m, MIXED, r) for r in recs])

    def test_validation(self):
        m = driven_qubit()
        rec, _ = simulate_counting(m, MIXED, T=1.0, dt=1e-3, seed=1)
        for lam in (-1.0, np.inf, np.nan):
            with pytest.raises(ValidationError, match="intensity"):
                log_likelihood(m, MIXED, rec, lam=lam)
            with pytest.raises(ValidationError, match="intensity"):
                run_zakai(m, MIXED, rec, lam=lam)
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
    dt at its start and the rate after its no-jump Kraus map is above the dark
    rate 1e-14, at or below which a jump has likelihood zero; the jump lands at
    the cell end.  Otherwise it replays ``jumps`` on the cells of
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
            if u[k] < rate0 * dt and np.trace(LdL @ rho).real > 1e-14:
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


# (model, initial state); the pure starts make the clip fire, and at d = 8 the
# diffusive step's screen flags every row, so it runs unscreened to the block's end
SCHEME_CASES = {
    "qubit mixed": (driven_qubit, MIXED),
    "qubit ground": (driven_qubit, GROUND),
    "qutrit mixed": (_qutrit, np.eye(3, dtype=complex) / 3),
    "qutrit pure": (_qutrit, np.diag([1.0, 0.0, 0.0]).astype(complex)),
    "d=8 pure": (lambda: random_ergodic_model(8, np.random.default_rng(8), scale=0.5),
                 np.diag(np.eye(8)[0]).astype(complex)),
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

    def test_diffusive_across_blocks(self):
        # 6,000 steps: past the sweep's first block (2,730 steps of one qubit row, 910 of
        # three) and through windows grown to full length, with clipped steps among them
        build, rho0 = SCHEME_CASES["qubit ground"]
        m, n = build(), 6000
        rec = simulate_reference("wiener", 1.0, T=n * self.DT, dt=self.DT, seed=54)
        _, states, logtrace, clips = dense_diffusive(m.H, m.L, rho0, self.DT,
                                                     dY=rec.increments)
        z = run_zakai(m, rho0, rec)
        self.check(z.logtrace, z.states, logtrace, states)
        assert clips > 0
        ens = simulate_homodyne_ensemble(m, rho0, n * self.DT, self.DT, n_traj=3, seed=55,
                                         keep_states=True)
        for i in range(3):
            dI = trajectory_rng(55, i).normal(0.0, np.sqrt(self.DT), size=n)
            ref_incs, ref_states, ref_ll, clips = dense_diffusive(m.H, m.L, rho0, self.DT,
                                                                  dI=dI)
            assert np.max(np.abs(ens.increments[i] - ref_incs)) < 1e-12
            self.check(ens.logliks[i:i + 1], ens.states[i], ref_ll[-1:], ref_states)
            assert clips > 0

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

    def test_counting_kept_states_across_marks(self):
        # 25,000 cells: the kept states cross the renormalization marks at 10,000
        # and 20,000 cells, where the simulator re-anchors its rows
        m, dt, n = driven_qubit(), 1e-3, 25_000
        rec, traj = simulate_counting(m, MIXED, n * dt, dt, seed=53, index=1)
        u = trajectory_rng(53, 1).random(size=n)
        ref_jumps, ref_states, ref_logtrace = dense_counting(m.H, m.L, MIXED, dt, u=u)
        assert np.array_equal(rec.jumps, ref_jumps)
        self.check(np.array([traj.loglik]), traj.states, ref_logtrace[-1:], ref_states)

    def test_counting_jump_rule_at_step_guard(self):
        # at dt * kappa = 0.1 the rate at a cell's start and the rate after
        # its no-jump map differ by O(dt kappa) relative; on this record a
        # jump decided on the cell-end rate would land at 3.7 instead of 4.4
        m, dt, n = driven_qubit(), 0.1, 50
        rec, traj = simulate_counting(m, MIXED, n * dt, dt, seed=4)
        u = trajectory_rng(4, 0).random(size=n)
        ref_jumps, ref_states, ref_logtrace = dense_counting(m.H, m.L, MIXED, dt, u=u)
        assert np.allclose(ref_jumps, [4.4])
        assert np.array_equal(rec.jumps, ref_jumps)
        self.check(np.array([traj.loglik]), traj.states, ref_logtrace[-1:], ref_states)

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

    def test_counting_jumps_a_sliver_apart(self):
        # the stretch between the jumps holds no whole cell; as a sum over the
        # eigenvectors (cond(U) ~ 5.7) its map cancels to I and loses 8e-10
        m, dt = driven_qubit(omega=0.47), 1e-2
        rec = CountingRecord(horizon=5.0, jumps=[1.2345, 1.2345 + 1e-6])
        ref = dense_counting(m.H, m.L, MIXED, dt, horizon=rec.horizon, jumps=rec.jumps)[2]
        assert log_likelihood(m, MIXED, rec, dt=dt) == pytest.approx(ref[-1], rel=0.0, abs=1e-12)

    def test_counting_jump_just_after_a_rabi_node(self):
        # <e|exp(-G t)|g> vanishes at t = pi / w: each jump after the first comes 1e-4
        # after such a node, so its rate is a small difference of O(1) terms of the map
        omega, dt = 1.55, 1e-2
        tau = np.pi / np.sqrt(omega ** 2 / 4 - 1 / 16) + 1e-4
        m = driven_qubit(omega=omega)
        rec = CountingRecord(horizon=12.0, jumps=[1.0, 1.0 + tau, 1.0 + 2 * tau])
        ref = dense_counting(m.H, m.L, MIXED, dt, horizon=rec.horizon, jumps=rec.jumps)[2]
        assert log_likelihood(m, MIXED, rec, dt=dt) == pytest.approx(ref[-1], rel=0.0, abs=1e-10)

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

    def killing_record(self, m, seed, T=0.1, at=50):
        rec = simulate_reference("wiener", 1.0, T=T, dt=1e-3, seed=seed)
        rho = run_filter(m, MIXED, rec).states[at]
        mean = np.trace((m.L + m.L.conj().T) @ rho).real
        assert abs(mean) > 0.05
        inc = rec.increments.copy()
        inc[at] = -100.0 * np.sign(mean)  # factor 1 + dy * mean < 0
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

    # 10,000 steps: step 2,730 opens the second sweep block of one qubit row, and step
    # 5,000 lies deep in the record, each killed inside a window grown past one step
    @pytest.mark.parametrize("at", [2730, 5000])
    def test_death_deep_in_a_long_record(self, at):
        m = driven_qubit()
        killed = self.killing_record(m, 63, T=10.0, at=at)
        z = run_zakai(m, MIXED, killed)
        assert np.all(np.isfinite(z.logtrace[:at + 1]))
        assert np.all(z.logtrace[at + 1:] == -np.inf)
        assert np.all(z.states[at:] == z.states[at])
        live = [simulate_reference("wiener", 1.0, T=10.0, dt=1e-3, seed=64 + i)
                for i in range(2)]
        batch = log_likelihood_many(m, MIXED, [live[0], killed, live[1]])
        assert batch[1] == -np.inf
        assert batch[0] == log_likelihood(m, MIXED, live[0])
        assert batch[2] == log_likelihood(m, MIXED, live[1])

    def test_zero_factor_kills_without_a_warning(self):
        # from |+><+| with H = 0 and L = sigma_-, an increment of -1 makes the first
        # factor exactly zero; a RuntimeWarning from qiokit fails the suite
        m, plus = QMarkovModel(H=np.zeros((2, 2)), L=SM), np.full((2, 2), 0.5, dtype=complex)
        inc = simulate_reference("wiener", 1.0, T=1.0, dt=1e-3, seed=65).increments.copy()
        inc[0] = -1.0
        z = run_zakai(m, plus, DiffusiveRecord(dt=1e-3, increments=inc))
        assert np.all(z.logtrace[1:] == -np.inf)
        assert np.all(z.states == plus)

    def test_counting_zakai_state_frozen_from_dark_jump(self):
        # the jump at 0.5 leaves no |1> population, so the one at 0.7 (the end of
        # cell 699) has rate zero: from grid point 700 the log trace is -inf and
        # the state is the one just before that jump, one Kraus cell past 699
        e = np.eye(3)
        m = QMarkovModel(H=1.3 * (np.outer(e[0], e[2]) + np.outer(e[2], e[0])),
                         L=np.outer(e[0], e[1]))
        rho0, dt = np.eye(3, dtype=complex) / 3, 1e-3
        z = run_zakai(m, rho0, CountingRecord(horizon=1.0, jumps=[0.5, 0.7]), dt=dt)
        assert np.all(np.isfinite(z.logtrace[:700]))
        assert np.all(z.logtrace[700:] == -np.inf)
        assert np.all(z.states[700:] == z.states[700])
        M = np.eye(3) - dt * (1j * m.H + 0.5 * m.L.conj().T @ m.L)
        want = M @ z.states[699] @ M.conj().T
        assert np.max(np.abs(z.states[700] - want / np.trace(want).real)) < 1e-12
        assert np.max(np.abs(z.states[700] - z.states[699])) > 1e-4
