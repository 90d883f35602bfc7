"""Estimation tests: MLE, posteriors, ABC, counting statistics, Fisher MC."""

import collections

import numpy as np
import pytest
from scipy import optimize, stats

from qiokit.estimation import (
    abc_rejection,
    counting_fisher,
    counting_rate_and_variance,
    mc_classical_fisher,
    mle,
    posterior_grid,
    stat_total_counts,
    stat_two_time_corr,
)
from qiokit.exceptions import (
    AllRecordsImpossible,
    DegeneratePosterior,
    NotErgodic,
    StepTooLarge,
    ValidationError,
    ZeroVariance,
)
from qiokit import _integrators as integ
from qiokit.families import ParameterFamily
from qiokit.filtering import _loglik_table, log_likelihood
from qiokit.markov_qfi import conditional_qfi
from qiokit.operators import DensityOperator
from qiokit.operators import QMarkovModel
from qiokit.trajectories import (
    CountingRecord,
    DiffusiveRecord,
    simulate_counting,
    simulate_counting_ensemble,
    simulate_homodyne,
    simulate_homodyne_ensemble,
)

from conftest import NON_PHYSICAL, SM, SX, decay_qubit, driven_qubit, tangent as _tangent

MIXED = np.eye(2, dtype=complex) / 2
ZERO2 = np.zeros((2, 2), dtype=complex)


def rabi_family(kappa=1.0, domain=((0.2, 2.0),)) -> ParameterFamily:
    """Driven qubit with unknown Rabi frequency: H = (theta/2) sx."""
    base = QMarkovModel(H=ZERO2, L=np.sqrt(kappa) * SM)
    return ParameterFamily.affine(base, [0.5 * SX], [ZERO2], domain=domain)


def null_family(domain=((0.0, 1.0),)) -> ParameterFamily:
    """Family where theta does not enter the model."""
    return ParameterFamily.affine(driven_qubit(), [ZERO2], [ZERO2], domain=domain)


class TestFamilies:
    def test_affine_model(self):
        fam = rabi_family()
        m = fam.model([1.0])
        assert np.max(np.abs(m.H - 0.5 * SX)) < 1e-14
        assert fam.k == 1
        assert fam.in_domain([1.0]) and not fam.in_domain([5.0])

    def test_phase_family(self):
        fam = ParameterFamily.phase_family(driven_qubit(), domain=[[-1, 1]])
        m = fam.model([0.3])
        assert np.max(np.abs(m.L - np.exp(-0.3j) * driven_qubit().L)) < 1e-14
        ld = fam.l_dot([0.3])[0]
        assert np.max(np.abs(ld + 1j * np.exp(-0.3j) * driven_qubit().L)) < 1e-14
        assert np.max(np.abs(fam.h_dot([0.3])[0])) == 0.0

    def test_points_are_evaluated_as_per_point_sums(self):
        # one broadcast over the points has the bits of a Python sum from 0 at each point:
        # a -0.0 in the base plus -0.0 terms (theta < 0 on a zero entry) comes out as 0.0
        gen = np.random.default_rng(5)
        a = gen.normal(size=(4, 3, 3)) + 1j * gen.normal(size=(4, 3, 3))
        base3 = QMarkovModel(H=a[0] + a[0].conj().T, L=a[1])
        families = [
            rabi_family(),
            ParameterFamily.affine(QMarkovModel(H=ZERO2, L=SM), [0.5 * SX, ZERO2], [ZERO2, SM]),
            ParameterFamily.affine(base3, [a[2] + a[2].conj().T, np.diag([1.0, 2.0, 3.0])],
                                   [a[3], a[1].T]),
            ParameterFamily.affine(QMarkovModel(H=-ZERO2, L=-ZERO2), [SX], [SM]),
            ParameterFamily.phase_family(driven_qubit()),
        ]
        for fam in families:
            points = np.concatenate([gen.uniform(-2.0, 2.0, (20, fam.k)), -np.zeros((1, fam.k))])
            for t, *got in zip(points, *fam._evaluate(points)):
                if fam.phase:
                    e = np.exp(-1j * t[0])
                    want = [fam.base.H, e * fam.base.L, [np.zeros_like(fam.base.H)],
                            [-1j * e * fam.base.L]]
                else:
                    want = [fam.base.H + sum(ti * x for ti, x in zip(t, fam.h_dirs)),
                            fam.base.L + sum(ti * x for ti, x in zip(t, fam.l_dirs)),
                            fam.h_dirs, fam.l_dirs]
                for g, w in zip(got, want):
                    assert g.tobytes() == np.asarray(w, complex).tobytes()

    def test_validation(self):
        with pytest.raises(ValidationError):
            ParameterFamily.affine(driven_qubit(), [SM], [ZERO2])  # non-Hermitian H dir
        with pytest.raises(ValidationError):
            ParameterFamily.affine(driven_qubit(), [SX], [ZERO2], domain=[[1, 0]])
        with pytest.raises(ValidationError):
            rabi_family().model([0.1, 0.2])


class TestMLE:
    def test_a_call_keeps_nothing_for_the_next(self):
        # the event lists that a call builds once serve its own sweeps only: A, B, then A
        # again gives A's bits (both records sit at index 0 of their calls)
        fam = rabi_family()
        a, b = (simulate_counting(fam.model([1.0]), MIXED, T=200.0, dt=1e-2, seed=seed,
                                  method="exact", keep_states=False)[0] for seed in (1, 2))
        assert a.n_jumps != b.n_jumps
        first, _, again = (mle(fam, [r], MIXED, dt=1e-2) for r in (a, b, a))
        assert np.array_equal(again.theta, first.theta) and again.loglik == first.loglik
        assert again.diagnostics.keys() == first.diagnostics.keys()
        for key, value in first.diagnostics.items():
            assert np.array_equal(again.diagnostics[key], value), key
        grid, prior = np.linspace(0.2, 2.0, 11), np.full(11, 1 / 11)
        first, _, again = (posterior_grid(fam, r, MIXED, grid, prior, dt=1e-2) for r in (a, b, a))
        assert np.array_equal(again.log_weights, first.log_weights)
        assert np.array_equal(again.weights, first.weights)

    def test_single_point_domain(self):
        fam = rabi_family(domain=((1.0, 1.0),))
        rec, _ = simulate_counting(fam.model([1.0]), MIXED, T=20.0, dt=1e-2, seed=0)
        res = mle(fam, [rec], MIXED, dt=1e-2)
        assert res.theta[0] == 1.0

    def test_flat_family_flagged(self):
        fam = null_family()
        rec, _ = simulate_counting(driven_qubit(), MIXED, T=20.0, dt=1e-2, seed=1)
        res = mle(fam, [rec], MIXED, dt=1e-2)
        assert res.diagnostics["flat"]
        assert res.theta[0] == fam.domain[0, 0]  # lowest grid point

    def test_counting_recovers_rabi(self):
        fam = rabi_family()
        true = 1.0
        model = fam.model([true])
        recs = [
            simulate_counting(model, MIXED, T=100.0, dt=5e-3, seed=2, index=i,
                              keep_states=False)[0]
            for i in range(4)
        ]
        res = mle(fam, recs, MIXED, dt=5e-3)
        T_total = sum(r.horizon for r in recs)
        ic = counting_fisher(fam, true)
        assert abs(res.theta[0] - true) < 3.0 / np.sqrt(T_total * ic)

    def test_diffusive_grid_only(self):
        fam = rabi_family(domain=((0.5, 1.5),))
        model = fam.model([1.0])
        rec, _ = simulate_homodyne(model, MIXED, T=30.0, dt=5e-3, seed=3,
                                   keep_states=False)
        res = mle(fam, [rec], MIXED, grid_points=11, refine=False)
        assert abs(res.theta[0] - 1.0) < 0.5

    def test_diffusive_records_on_different_grids(self):
        fam = rabi_family(domain=((0.5, 1.5),))
        model = fam.model([1.0])
        recs = [simulate_homodyne(model, MIXED, T=T, dt=dt, seed=s, keep_states=False)[0]
                for T, dt, s in ((3.0, 5e-3, 1), (2.0, 1e-2, 2), (3.0, 5e-3, 3))]
        res = mle(fam, recs, MIXED, grid_points=5, refine=False)
        want = sum(log_likelihood(fam.model(res.theta), MIXED, r) for r in recs)
        assert res.loglik == pytest.approx(want, rel=1e-12)

    def test_lambda_invariance(self):
        fam = rabi_family()
        rec, _ = simulate_counting(fam.model([0.8]), MIXED, T=50.0, dt=5e-3, seed=4)
        r1 = mle(fam, [rec], MIXED, dt=5e-3, lam=1.0)
        r2 = mle(fam, [rec], MIXED, dt=5e-3, lam=2.0)
        assert np.allclose(r1.theta, r2.theta, atol=1e-9)

    def test_all_records_impossible(self):
        # ground-state emitter cannot explain a jump at any theta
        base = QMarkovModel(H=ZERO2, L=SM)
        fam = ParameterFamily.affine(base, [0.5 * SX], [ZERO2], domain=((0.0, 0.0),))
        rec = CountingRecord(horizon=1.0, jumps=[0.5])
        ground = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(AllRecordsImpossible):
            mle(fam, [rec], ground, dt=1e-2)


    def test_reports_the_lbfgsb_outcome(self):
        fam = rabi_family()
        rec, _ = simulate_counting(fam.model([1.0]), MIXED, T=50.0, dt=1e-2, seed=9)
        res = mle(fam, [rec], MIXED, dt=1e-2)
        assert res.diagnostics["nfev"] > 0
        assert res.diagnostics["converged"] is True
        assert mle(fam, [rec], MIXED, dt=1e-2).diagnostics == res.diagnostics

    def test_refines_on_the_score_in_few_evaluations(self):
        # criterion-7 size: T = 2000, dt = 1e-2, about 660 jumps
        fam = rabi_family()
        rec, _ = simulate_counting(fam.model([1.0]), MIXED, T=2000.0, dt=1e-2, seed=707,
                                   keep_states=False, method="exact")
        res = mle(fam, [rec], MIXED, dt=1e-2)
        assert res.diagnostics["nfev"] <= 12
        assert res.diagnostics["converged"] is True

        def neg(theta):
            return -log_likelihood(fam.model(theta), MIXED, rec, dt=1e-2)

        nm = optimize.minimize(neg, res.diagnostics["grid_best"], method="Nelder-Mead",
                               options={"xatol": 1e-9, "fatol": 1e-12})
        assert abs(res.theta[0] - nm.x[0]) <= 1e-6
        assert res.loglik >= -nm.fun - 1e-9

    def test_refined_loglik_is_the_likelihood_at_theta(self):
        # the value sweep and the score sweep sum one log-likelihood, bit for bit
        fam = rabi_family()
        for i in range(3):
            rec, _ = simulate_counting(fam.model([1.0]), MIXED, T=2000.0, dt=1e-2, seed=1,
                                       index=i, keep_states=False, method="exact")
            res = mle(fam, [rec], MIXED, dt=1e-2)
            assert res.diagnostics["nfev"] > 0
            assert res.loglik == log_likelihood(fam.model(res.theta), MIXED, rec, dt=1e-2)

    def test_degenerate_bound_of_a_two_parameter_family(self):
        # theta_2 scales L = (1 + theta_2) sm and is pinned at 0 by its bound
        base = QMarkovModel(H=ZERO2, L=SM)
        fam = ParameterFamily.affine(base, [0.5 * SX, ZERO2], [ZERO2, SM],
                                     domain=((0.2, 2.0), (0.0, 0.0)))
        rec, _ = simulate_counting(fam.model([1.0, 0.0]), MIXED, T=200.0, dt=1e-2, seed=9,
                                   keep_states=False, method="exact")
        res = mle(fam, [rec], MIXED, dt=1e-2, grid_points=11)
        one = mle(rabi_family(), [rec], MIXED, dt=1e-2, grid_points=11)
        assert res.theta[1] == 0.0
        assert res.diagnostics["converged"] is True
        assert abs(res.theta[0] - one.theta[0]) <= 1e-6

    def test_refinement_follows_a_correlated_two_parameter_ridge(self):
        # theta_2 scales L = (1 + theta_2) sm; its estimate correlates with the Rabi
        # frequency's, so the optimum lies more than one fine cell from the best fine point
        base = QMarkovModel(H=ZERO2, L=SM)
        fam = ParameterFamily.affine(base, [0.5 * SX, ZERO2], [ZERO2, SM],
                                     domain=((0.2, 2.0), (-0.5, 0.5)))
        rec, _ = simulate_counting(fam.model([1.0, 0.0]), MIXED, T=2000.0, dt=1e-2, seed=2,
                                   keep_states=False, method="exact")
        res = mle(fam, [rec], MIXED, dt=1e-2)
        assert res.diagnostics["converged"] is True

        def neg(theta):
            return -log_likelihood(fam.model(theta), MIXED, rec, dt=1e-2)

        nm = optimize.minimize(neg, res.diagnostics["grid_best"], method="Nelder-Mead",
                               bounds=fam.domain, options={"xatol": 1e-9, "fatol": 1e-12})
        assert np.max(np.abs(res.theta - nm.x)) <= 1e-6
        assert res.loglik >= -nm.fun - 1e-9

    @pytest.mark.parametrize("grid_points", [4, 20])
    def test_even_grid_refines_to_the_same_optimum(self, grid_points):
        # an even grid puts no point at the middle of the two cells around its best one
        fam = rabi_family()
        rec, _ = simulate_counting(fam.model([1.0]), MIXED, T=200.0, dt=1e-2, seed=9,
                                   keep_states=False, method="exact")
        odd = mle(fam, [rec], MIXED, dt=1e-2)
        res = mle(fam, [rec], MIXED, dt=1e-2, grid_points=grid_points)
        assert res.diagnostics["converged"] is True
        assert abs(res.theta[0] - odd.theta[0]) <= 1e-6
        assert res.loglik >= odd.loglik - 1e-9

    @pytest.mark.parametrize("phase", [False, True])
    def test_diffusive_refinement_matches_nelder_mead(self, phase):
        # the diffusive score is the exact tangent that the sweep carries
        if phase:
            fam, true = ParameterFamily.phase_family(driven_qubit(), domain=((-1.0, 1.0),)), 0.3
        else:
            fam, true = rabi_family(domain=((0.5, 1.5),)), 1.0
        rec, _ = simulate_homodyne(fam.model([true]), MIXED, T=30.0, dt=5e-3, seed=3,
                                   keep_states=False)
        res = mle(fam, [rec], MIXED)
        assert res.diagnostics["converged"] is True

        def neg(theta):
            return -log_likelihood(fam.model(theta), MIXED, rec)

        nm = optimize.minimize(neg, res.diagnostics["grid_best"], method="Nelder-Mead",
                               bounds=fam.domain, options={"xatol": 1e-9, "fatol": 1e-12})
        assert abs(res.theta[0] - nm.x[0]) <= 1e-6
        assert res.loglik >= -nm.fun - 1e-9

    def test_mixed_record_kinds_raise(self):
        fam = rabi_family()
        crec = CountingRecord(horizon=1.0, jumps=[0.5])
        drec = DiffusiveRecord(dt=1e-3, increments=np.zeros(10))
        for recs in ([crec, drec], [drec, crec]):
            with pytest.raises(ValidationError, match="all counting or all diffusive"):
                mle(fam, recs, MIXED, dt=1e-3)

    @pytest.mark.parametrize("name", sorted(NON_PHYSICAL))
    def test_non_physical_initial_state_raises(self, name):
        fam = rabi_family()
        rec = CountingRecord(horizon=1.0, jumps=[0.5])
        rho0 = NON_PHYSICAL[name]
        with pytest.raises(ValidationError):
            mle(fam, [rec], rho0, dt=1e-2)
        with pytest.raises(ValidationError):
            posterior_grid(fam, rec, rho0, [1.0], [1.0], dt=1e-2)

    def test_density_operator_initial_state(self):
        fam = rabi_family()
        rec, _ = simulate_counting(fam.model([1.0]), MIXED, T=20.0, dt=1e-2, seed=3)
        a = mle(fam, [rec], DensityOperator(MIXED), dt=1e-2)
        b = mle(fam, [rec], MIXED, dt=1e-2)
        assert a.loglik == b.loglik and np.array_equal(a.theta, b.theta)

    def test_vanishing_jump_operator_is_minus_inf_there_only(self):
        # L = theta * sigma_minus: at theta = 0 no jump can happen
        base = QMarkovModel(H=0.5 * SX, L=ZERO2)
        fam = ParameterFamily.affine(base, [ZERO2], [SM], domain=((0.0, 1.0),))
        rec, _ = simulate_counting(fam.model([0.8]), MIXED, T=30.0, dt=1e-2, seed=21)
        assert rec.n_jumps > 0
        grid = np.linspace(0.0, 1.0, 11)
        post = posterior_grid(fam, rec, MIXED, grid, np.full(11, 1 / 11), dt=1e-2)
        assert post.log_weights[0] == -np.inf
        assert np.all(np.isfinite(post.log_weights[1:]))
        res = mle(fam, [rec], MIXED, dt=1e-2, grid_points=11)
        assert np.isfinite(res.loglik) and 0.0 < res.theta[0] <= 1.0


class TestPosterior:
    def test_log_weights_are_loglik_plus_log_prior(self):
        fam = rabi_family()
        rec, _ = simulate_counting(fam.model([1.0]), MIXED, T=40.0, dt=1e-2, seed=10,
                                   method="exact")
        grid = np.linspace(0.2, 2.0, 9)
        prior = np.linspace(1.0, 2.0, 9)
        prior /= prior.sum()
        post = posterior_grid(fam, rec, MIXED, grid, prior, dt=1e-2, lam=1.5)
        want = [log_likelihood(fam.model([t]), MIXED, rec, dt=1e-2, lam=1.5)
                + np.log(p) for t, p in zip(grid, prior)]
        assert np.allclose(post.log_weights, want, rtol=1e-9, atol=0.0)

    def test_log_weight_does_not_depend_on_the_other_grid_points(self):
        # theta = 1.5 decays fast enough to need renormalization marks every 3,725 cells,
        # theta = 0 every 10,000; each row is swept with its own model's marks
        fam = ParameterFamily.affine(QMarkovModel(H=0.5 * SX, L=SM), [ZERO2], [SM])
        rec, _ = simulate_counting(driven_qubit(), MIXED, T=300.0, dt=1e-2, seed=3,
                                   method="exact", keep_states=False)
        assert rec.n_jumps == 104
        grid, prior = np.array([0.0, 1.5]), np.array([0.5, 0.5])
        post = posterior_grid(fam, rec, MIXED, grid, prior, dt=1e-2)
        for t, p, w in zip(grid, prior, post.log_weights):
            assert w == log_likelihood(fam.model([t]), MIXED, rec, dt=1e-2) + np.log(p)

    @pytest.mark.parametrize("kind", ["counting, two parameters", "counting, T = 2000",
                                      "diffusive, phase family"])
    def test_log_weights_are_the_per_point_likelihoods(self, kind):
        # the grid's model stacks carry the bits of each point's own model; at T = 2000
        # (about 650 events) the 12-row sweep spans several map blocks, each one-row sweep one
        if kind.startswith("counting"):  # the (Rabi frequency, L scale) ridge family
            fam = ParameterFamily.affine(QMarkovModel(H=ZERO2, L=SM), [0.5 * SX, ZERO2],
                                         [ZERO2, SM], domain=((0.2, 2.0), (-0.5, 0.5)))
            rec, _ = simulate_counting(fam.model([1.0, 0.0]), MIXED, dt=1e-2, seed=2,
                                       T=2000.0 if kind.endswith("2000") else 200.0,
                                       method="exact", keep_states=False)
            mesh = np.meshgrid(np.linspace(0.2, 2.0, 4), np.linspace(-0.5, 0.5, 3))
            grid = np.stack([m.reshape(-1) for m in mesh], axis=-1)
        else:
            fam = ParameterFamily.phase_family(driven_qubit())
            rec, _ = simulate_homodyne(fam.model([0.3]), MIXED, T=5.0, dt=1e-3, seed=3,
                                       keep_states=False)
            grid = np.linspace(-1.0, 1.0, 9)[:, None]
        prior = np.linspace(1.0, 2.0, len(grid))
        prior /= prior.sum()
        post = posterior_grid(fam, rec, MIXED, grid, prior, dt=1e-2)
        for t, p, w in zip(grid, prior, post.log_weights):
            assert w == log_likelihood(fam.model(t), MIXED, rec, dt=1e-2) + np.log(p)

    def test_theta_independent_returns_prior(self):
        fam = null_family()
        rec, _ = simulate_counting(driven_qubit(), MIXED, T=10.0, dt=1e-2, seed=5)
        grid = np.linspace(0, 1, 11)
        prior = np.full(11, 1 / 11)
        post = posterior_grid(fam, rec, MIXED, grid, prior, dt=1e-2)
        assert np.max(np.abs(post.weights - prior)) < 1e-10

    def test_point_mass_prior(self):
        fam = rabi_family()
        rec, _ = simulate_counting(fam.model([1.0]), MIXED, T=10.0, dt=1e-2, seed=6)
        grid = np.linspace(0.5, 1.5, 5)
        prior = np.zeros(5)
        prior[2] = 1.0
        post = posterior_grid(fam, rec, MIXED, grid, prior, dt=1e-2)
        assert np.max(np.abs(post.weights - prior)) < 1e-12
        assert post.map_estimate[0] == grid[2]

    def test_posterior_concentrates_with_time(self):
        fam = rabi_family()
        model = fam.model([1.0])
        grid = np.linspace(0.2, 2.0, 41)
        prior = np.full(41, 1 / 41)
        sds = []
        for T in (100.0, 1000.0):
            rec, _ = simulate_counting(model, MIXED, T=T, dt=1e-2, seed=7,
                                       keep_states=False)
            post = posterior_grid(fam, rec, MIXED, grid, prior, dt=1e-2)
            sds.append(post.sd()[0])
        assert sds[1] < sds[0]

    def test_pm_in_hull_map_on_grid(self):
        fam = rabi_family()
        rec, _ = simulate_counting(fam.model([1.0]), MIXED, T=50.0, dt=1e-2, seed=8)
        grid = np.linspace(0.2, 2.0, 21)
        prior = np.full(21, 1 / 21)
        post = posterior_grid(fam, rec, MIXED, grid, prior, dt=1e-2)
        assert abs(post.weights.sum() - 1.0) < 1e-12
        assert grid[0] <= post.pm[0] <= grid[-1]
        assert post.map_estimate[0] in grid

    def test_degenerate_posterior(self):
        base = QMarkovModel(H=ZERO2, L=SM)
        fam = ParameterFamily.affine(base, [0.5 * SX], [ZERO2], domain=((0.0, 0.0),))
        rec = CountingRecord(horizon=1.0, jumps=[0.5])
        ground = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(DegeneratePosterior):
            posterior_grid(fam, rec, ground, np.zeros((1, 1)), np.ones(1), dt=1e-2)

    def test_nan_prior_entry_raises(self):
        rec = CountingRecord(horizon=1.0, jumps=[0.5])
        prior = np.array([0.5, 0.5, np.nan])
        with pytest.raises(ValidationError, match="prior contains non-finite"):
            posterior_grid(rabi_family(), rec, MIXED, [0.5, 1.0, 1.5], prior, dt=1e-2)


class TestABC:
    def test_epsilon_infinite_reproduces_prior(self):
        fam = rabi_family()
        sampler = lambda rng: rng.uniform(0.2, 2.0)
        accepted = abc_rejection(
            fam, [30.0], sampler, stat_total_counts, n_sims=1000,
            epsilon=np.inf, seed=10, rho0=MIXED, kind="counting", T=20.0, dt=2e-2,
        )
        assert len(accepted) == 1000
        ref = np.array([sampler(np.random.default_rng(i)) for i in range(2000)])
        ks = stats.ks_2samp(np.ravel(accepted), ref)
        assert ks.pvalue > 0.01

    def test_epsilon_zero_warns_and_returns_empty(self):
        fam = rabi_family()
        sampler = lambda rng: rng.uniform(0.2, 2.0)
        with pytest.warns(UserWarning):
            accepted = abc_rejection(
                fam, [123.456], sampler, stat_total_counts, n_sims=30,
                epsilon=0.0, seed=11, rho0=MIXED, kind="counting", T=5.0, dt=2e-2,
            )
        assert accepted == []

    def test_nan_epsilon_raises(self):
        with pytest.raises(ValidationError, match="epsilon"):
            abc_rejection(rabi_family(), [0.3], lambda rng: rng.uniform(0.2, 2.0),
                          stat_total_counts, n_sims=5, epsilon=np.nan, seed=0,
                          rho0=MIXED, T=10.0, dt=1e-2)

    def test_accepted_mean_approaches_truth(self):
        fam = rabi_family()
        true = 1.4
        T = 200.0
        rec, _ = simulate_counting(fam.model([true]), MIXED, T=T, dt=2e-2, seed=12,
                                   keep_states=False)
        obs = stat_total_counts(rec) / T
        sampler = lambda rng: rng.uniform(0.2, 2.0)
        accepted = abc_rejection(
            fam, [obs], lambda rng: sampler(rng),
            lambda r: stat_total_counts(r) / r.horizon,
            n_sims=300, epsilon=0.5, seed=13, rho0=MIXED,
            kind="counting", T=T, dt=2e-2,
        )
        assert len(accepted) > 10
        prior_mean = 1.1
        assert abs(np.mean(accepted) - true) < abs(prior_mean - true)


class TestSimulationChecks:
    """Estimation's simulated records get the grid, kind, step-guard and
    sample-count checks of every other simulator."""

    @staticmethod
    def abc(**kw):
        args = dict(n_sims=5, epsilon=10.0, seed=0, rho0=MIXED, T=10.0, dt=1e-2)
        args.update(kw)
        return abc_rejection(rabi_family(), [0.3], lambda rng: rng.uniform(0.2, 2.0),
                             lambda r: stat_total_counts(r) / r.horizon, **args)

    @pytest.mark.parametrize("kind", ["counting", "diffusive"])
    @pytest.mark.parametrize("T, dt", [(-5.0, 1e-2), (np.inf, 1e-2), (10.0, 0.0),
                                       (10.0, -0.01), (10.0, np.inf), (0.5, 1.0)])
    def test_abc_grid(self, kind, T, dt):
        with pytest.raises(ValidationError, match="dt and T must be positive"):
            self.abc(kind=kind, T=T, dt=dt)

    @pytest.mark.parametrize("T, dt", [(-1.0, 1e-2), (np.inf, 1e-2), (1.0, 0.0)])
    def test_fisher_grid(self, T, dt):
        with pytest.raises(ValidationError, match="dt and T must be positive"):
            mc_classical_fisher(rabi_family(), 1.0, MIXED, "counting", T, dt, n_traj=5)

    def test_step_guard(self):
        with pytest.raises(StepTooLarge):
            self.abc(T=10.0, dt=5.0)
        with pytest.raises(StepTooLarge):
            mc_classical_fisher(rabi_family(), 1.0, MIXED, "diffusive", 10.0, 5.0, n_traj=5)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="unknown simulation kind"):
            mc_classical_fisher(rabi_family(), 1.0, MIXED, "poisson", 1.0, 1e-2, n_traj=5)

    def test_exact_kind(self):
        # exact sampling runs one model; the records here are one model per row
        with pytest.raises(ValidationError, match="exact sampling takes one model"):
            mc_classical_fisher(rabi_family(), 1.0, MIXED, "exact", 1.0, 1e-2, n_traj=5)
        with pytest.raises(ValidationError, match="exact sampling takes one model"):
            self.abc(kind="exact")

    @pytest.mark.parametrize("n", [0, 1])
    def test_sample_counts(self, n):
        with pytest.raises(ValidationError, match="n_pilot must be at least 2"):
            self.abc(n_pilot=n)
        with pytest.raises(ValidationError, match="n_traj must be at least 2"):
            mc_classical_fisher(rabi_family(), 1.0, MIXED, "counting", 1.0, 1e-2, n_traj=n)


class TestStatistics:
    def test_total_counts(self):
        assert stat_total_counts(CountingRecord(horizon=2.0, jumps=[0.5, 1.2])) == 2
        assert stat_total_counts(CountingRecord(horizon=2.0, jumps=[])) == 0

    def test_two_time_corr_zero_cases(self):
        rec = DiffusiveRecord(dt=0.1, increments=[0.3, -0.2, 0.5])
        assert stat_two_time_corr(rec, lambda lag: 0.0) == 0.0
        zrec = DiffusiveRecord(dt=0.1, increments=np.zeros(5))
        assert stat_two_time_corr(zrec, np.exp) == 0.0

    def test_two_time_corr_matches_double_loop(self, rng):
        inc = rng.normal(size=60)
        rec = DiffusiveRecord(dt=0.05, increments=inc)
        kernel = lambda lag: np.exp(-lag)
        want = 0.0
        for i in range(60):
            for j in range(i + 1, 60):
                want += kernel((j - i) * 0.05) * inc[i] * inc[j]
        got = stat_two_time_corr(rec, kernel)
        assert abs(got - want) < 1e-10 * max(1.0, abs(want))


class TestCountingCLT:
    def test_zero_coupling(self):
        model = QMarkovModel(H=SX, L=ZERO2)
        assert counting_rate_and_variance(model) == (0.0, 0.0)

    def test_decay_not_ergodic(self):
        with pytest.raises(NotErgodic):
            counting_rate_and_variance(decay_qubit())

    def test_driven_qubit_closed_form(self):
        # mu = kappa Omega^2 / (2 Omega^2 + kappa^2) at resonance
        mu, V = counting_rate_and_variance(driven_qubit(1.0, 1.0))
        assert abs(mu - 1.0 / 3.0) < 1e-12
        assert V > 0

    def test_variance_matches_trajectories(self):
        model = driven_qubit()
        mu, V = counting_rate_and_variance(model)
        T = 150.0
        ens = simulate_counting_ensemble(model, MIXED, T=T, dt=1e-2,
                                         n_traj=3000, seed=14)
        v_emp = ens.counts.var(ddof=1) / T
        assert abs(v_emp - V) < 0.1 * V


class TestCountingFisher:
    def test_constant_rate_family_is_zero(self):
        # theta shifts H by sz, which commutes with LdL sector: vary and check
        fam = null_family()
        assert counting_fisher(fam, 0.5) == 0.0

    def test_phase_family_is_zero(self):
        fam = ParameterFamily.phase_family(driven_qubit(), domain=[[-1, 1]])
        assert counting_fisher(fam, 0.0) == 0.0

    def test_rabi_closed_form(self):
        # kappa = 1, Omega = 1: mu = kappa Omega^2 / (kappa^2 + 2 Omega^2) = 1/3,
        # d mu / d Omega = 2 kappa^3 Omega / (kappa^2 + 2 Omega^2)^2 = 2/9, V = 1/9
        _, V = counting_rate_and_variance(driven_qubit(1.0, 1.0))
        assert abs(V - 1.0 / 9.0) < 1e-12
        assert abs(counting_fisher(rabi_family(), 1.0) - 4.0 / 9.0) <= 1e-12 * 4.0 / 9.0

    @pytest.mark.parametrize("h_dir, l_dir, base_h, theta", [
        (0.5 * SX, ZERO2, ZERO2, 0.3), (ZERO2, SM, 0.5 * SX, 0.2),
        (0.5 * SX, 0.3j * SM, 0.3 * SX, 0.7),
    ], ids=["H direction", "L direction", "both"])
    def test_matches_richardson_difference(self, h_dir, l_dir, base_h, theta):
        fam = ParameterFamily.affine(QMarkovModel(H=base_h, L=SM), [h_dir], [l_dir])

        def diff(h):
            mu = [counting_rate_and_variance(fam.model([theta + s]))[0] for s in (h, -h)]
            return (mu[0] - mu[1]) / (2 * h)

        mu_dot = (4 * diff(5e-4) - diff(1e-3)) / 3
        _, V = counting_rate_and_variance(fam.model([theta]))
        want = mu_dot**2 / V
        assert abs(counting_fisher(fam, theta) - want) <= 1e-9 * want

    def test_zero_variance_raises(self):
        base = QMarkovModel(H=ZERO2, L=ZERO2)
        fam = ParameterFamily.affine(base, [0.5 * SX], [ZERO2], domain=((0.0, 2.0),))
        with pytest.raises((ZeroVariance, NotErgodic)):
            counting_fisher(fam, 1.0)


class TestMCFisher:
    def test_theta_independent_family(self):
        fam = null_family()
        est = mc_classical_fisher(fam, 0.5, MIXED, "counting", T=20.0, dt=1e-2,
                                  n_traj=100, seed=15)
        assert abs(est.value) <= 3 * est.stderr + 1e-9

    @pytest.mark.parametrize("kind, T, dt, n_traj", [("counting", 50.0, 1e-2, 400),
                                                     ("diffusive", 2.0, 1e-3, 1000)],
                             ids=["counting", "diffusive"])
    def test_mean_score_near_zero(self, kind, T, dt, n_traj):
        fam = rabi_family()
        est = mc_classical_fisher(fam, 1.0, MIXED, kind, T=T, dt=dt, n_traj=n_traj, seed=16)
        assert abs(est.mean_score) < 4 * est.mean_score_stderr

    def test_record_dominates_total_counts_statistic(self):
        fam = rabi_family()
        ic = counting_fisher(fam, 1.0)
        est = mc_classical_fisher(fam, 1.0, MIXED, "counting", T=100.0, dt=1e-2,
                                  n_traj=400, seed=17)
        per_time = est.value / 100.0
        se = est.stderr / 100.0
        assert per_time >= ic - 3 * se

    @pytest.mark.parametrize("kind, T, dt, n_traj", [("counting", 20.0, 1e-2, 50),
                                                     ("diffusive", 1.0, 1e-3, 20)],
                             ids=["counting", "diffusive"])
    def test_value_is_the_variance_of_the_replayed_scores(self, kind, T, dt, n_traj):
        # the simulation pass scores its own rows, with the bits of a replay of its records
        fam = rabi_family()
        est = mc_classical_fisher(fam, 1.0, MIXED, kind, T=T, dt=dt, n_traj=n_traj, seed=3)
        simulate = {"counting": simulate_counting_ensemble,
                    "diffusive": simulate_homodyne_ensemble}[kind]
        m = fam.model([1.0])
        ens = simulate(m, MIXED, T, dt, n_traj, 3)
        records = [ens.record(i) for i in range(n_traj)]
        scores = _loglik_table(m.H, m.L, MIXED, records, dt, 1.0, _tangent(fam, 1.0)).score[0]
        scores = scores[np.isfinite(scores)]
        assert len(scores) == n_traj
        assert est.value == scores.var(ddof=1)
        assert est.mean_score == scores.mean()

    def test_each_simulated_row_is_swept_once(self, monkeypatch):
        # abc_rejection reads counting records only; mc_classical_fisher scores its rows in
        # the one sweep that simulates them (diffusive) or that follows the sampler (counting)
        calls = collections.Counter()

        def counted(kind, fn):
            def wrapper(*args, **kwargs):
                calls[kind] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(integ.CountingLoglik, "sweep",
                            counted("counting", integ.CountingLoglik.sweep))
        monkeypatch.setattr(integ, "sweep_diffusive", counted("diffusive", integ.sweep_diffusive))
        fam, stat = rabi_family(), lambda r: [len(r.jumps)]
        abc_rejection(fam, [3.0], lambda rng: rng.uniform(0.5, 1.5), stat, n_sims=5,
                      epsilon=10.0, seed=0, rho0=MIXED, T=10.0, dt=1e-2, n_pilot=3)
        assert calls == {}
        abc_rejection(fam, [0.0], lambda rng: rng.uniform(0.5, 1.5),
                      lambda r: [r.increments.sum()], n_sims=5, epsilon=10.0, seed=0,
                      rho0=MIXED, kind="diffusive", T=1.0, dt=1e-2, n_pilot=3)
        assert calls == {"diffusive": 1}
        for kind in ("counting", "diffusive"):
            calls.clear()
            mc_classical_fisher(fam, 1.0, MIXED, kind, T=1.0, dt=1e-2, n_traj=5)
            assert calls == {kind: 1}


FISHER_ESTIMATORS = {
    "counting_fisher": lambda theta: counting_fisher(rabi_family(), theta),
    "mc_classical_fisher": lambda theta: mc_classical_fisher(
        rabi_family(), theta, MIXED, "counting", T=1.0, dt=1e-2, n_traj=5),
    "conditional_qfi": lambda theta: conditional_qfi(
        rabi_family(), theta, MIXED, CountingRecord(horizon=1.0, jumps=[]), dt=1e-2),
}


@pytest.mark.parametrize("estimator", sorted(FISHER_ESTIMATORS))
@pytest.mark.parametrize("theta, message", [(5.0, "inside the family domain")],
                         ids=["5.0-None-inside the family domain"])
def test_fisher_central_difference_rule(estimator, theta, message):
    """The three Fisher estimators take theta inside the family domain."""
    with pytest.raises(ValidationError, match=message):
        FISHER_ESTIMATORS[estimator](theta)


def test_fisher_estimators_at_the_domain_edge():
    """Each estimator has a finite value at theta = 2.0, the domain's edge:
    none of them steps outside the domain."""
    for estimator in FISHER_ESTIMATORS.values():
        value = estimator(2.0)
        assert np.isfinite(getattr(value, "value", value))
