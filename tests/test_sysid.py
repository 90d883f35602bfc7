"""System-identification tests: PRBS, subspace, projection, order selection."""

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from qiokit.exceptions import (
    DegenerateOutput,
    InsufficientData,
    LogBranch,
    NotExciting,
    OptimizationFailed,
    SingularZ,
    ValidationError,
)
from qiokit.linear import (
    LinearQSystem,
    QuadraticSpec,
    build_linear_system,
    check_pr1,
    kalman_gain,
    random_symplectic,
    simulate_innovation_form,
    symplectic_form,
    symplectic_transform,
    transfer_function,
)
from qiokit.sysid import (
    _LFSR_TAPS,
    PipelineConfig,
    SysIdDataset,
    _discrete_to_continuous,
    fpe_order_select,
    pr_projection,
    prbs,
    prbs_pair,
    recover_full_c,
    run_pipeline,
    subspace_id,
    validate_nmse,
)
from qiokit.trajectories import trajectory_rng

from conftest import rotation


def cavity(delta=1.0, kappa=2.0) -> LinearQSystem:
    return build_linear_system(
        QuadraticSpec(R=0.5 * delta * np.eye(2),
                      K=np.sqrt(kappa) / 2 * np.array([1.0, 1.0j]))
    )


def cavity_dataset(seed=0, T=600.0, dt=0.05, amp=50.0, noise=True):
    G = cavity()
    gain, _ = kalman_gain(G, "Q")
    n = int(T / dt)
    f = prbs_pair(n, amp, seed)
    rec, _ = simulate_innovation_form(G, gain, "Q", f, T=T, dt=dt, seed=seed,
                                      noise=noise)
    return G, SysIdDataset.from_record(rec, f, split=0.7)


def near_singular_dare(a, b, q, r, s=None):
    """A Riccati solution that makes C P C^T + Re nearly vanish: a huge gain."""
    c = b.T
    return -(1 - 1e-6) * r[0, 0] / (c @ c.T)[0, 0] * np.eye(a.shape[0])


def random_physical(rng, n=1):
    for _ in range(100):
        R = rng.normal(size=(2 * n, 2 * n))
        R = (R + R.T) / 2
        K = rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)
        G = build_linear_system(QuadraticSpec(R=R, K=K))
        if np.all(np.linalg.eigvals(G.A).real < -1e-6):
            return G
    raise RuntimeError("no stable draw")


def lfsr_reference(length, amplitude, seed, nbits):
    """Bit-serial Fibonacci LFSR: one shift and feedback per output sample."""
    taps = _LFSR_TAPS[nbits]
    state = (seed * 2654435761 + 88172645463325252) & ((1 << nbits) - 1)
    if state == 0:
        state = 1
    out = np.empty(length)
    for k in range(length):
        out[k] = amplitude if (state & 1) else -amplitude
        fb = 0
        for t in taps:
            fb ^= (state >> (nbits - t)) & 1
        state = (state >> 1) | (fb << (nbits - 1))
    return out


def prime_factors(n):
    """Distinct prime factors by trial division."""
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return out + ([n] if n > 1 else [])


class TestPRBS:
    @pytest.mark.parametrize("nbits", sorted(_LFSR_TAPS))
    def test_matches_bit_serial_lfsr(self, nbits):
        # a seed whose hashed state is 0, which the register replaces by 1
        zero = -88172645463325252 * pow(2654435761, -1, 2**nbits) % 2**nbits
        assert (zero * 2654435761 + 88172645463325252) % 2**nbits == 0
        lengths = {1, nbits - 1, nbits, nbits + 1}
        lengths |= {2**k * nbits + d for k in (1, 3, 6) for d in (-1, 1)}
        if nbits <= 16:
            lengths.add(2**nbits)  # one period and one sample
        for seed in (0, 7, -3, 2**40 + 1, zero):
            for length in sorted(lengths):
                assert np.array_equal(prbs(length, 1.5, seed, register=nbits),
                                      lfsr_reference(length, 1.5, seed, nbits)), (seed, length)

    def test_values_and_determinism(self):
        s = prbs(500, 1.0, seed=3)
        assert set(np.unique(s)) <= {-1.0, 1.0}
        assert np.array_equal(s, prbs(500, 1.0, seed=3))
        assert not np.array_equal(s, prbs(500, 1.0, seed=4))

    def test_balance_over_long_run(self):
        n = 2**16
        s = prbs(n, 1.0, seed=1)
        assert abs(s.mean()) < 3 / np.sqrt(n)

    @pytest.mark.parametrize("nbits", [8, 12, 16, 20, 24])
    def test_maximal_length_period(self, nbits):
        """Each register gives an m-sequence: period 2^n - 1, balanced."""
        P = 2**nbits - 1
        s = prbs(P + nbits, 1.0, seed=5, register=nbits)
        # the next nbits outputs are the register state, so a shift that
        # matches over the whole run is a period of the sequence
        assert np.array_equal(s[P:], s[: len(s) - P])
        for q in prime_factors(P):
            d = P // q
            assert not np.array_equal(s[d:], s[: len(s) - d]), (nbits, q)
        assert np.sum(s[:P] > 0) == 2 ** (nbits - 1)
        assert np.sum(s[:P] < 0) == 2 ** (nbits - 1) - 1

    def test_amplitude_scaling(self):
        s = prbs(50, 2.5, seed=0)
        assert set(np.unique(np.abs(s))) == {2.5}

    def test_validation(self):
        with pytest.raises(ValidationError):
            prbs(0, 1.0, 0)
        with pytest.raises(ValidationError):
            prbs(10, -1.0, 0)

    @pytest.mark.parametrize("kwargs, name", [
        ({"length": 2.5}, "length"), ({"length": True}, "length"),
        ({"length": "10"}, "length"), ({"seed": "a"}, "seed"), ({"seed": 0.5}, "seed"),
        ({"seed": True}, "seed"), ({"register": 8.7}, "register"),
        ({"register": 8.0}, "register"), ({"register": True}, "register"),
    ], ids=repr)
    def test_integer_arguments_checked(self, kwargs, name):
        args = {"length": 10, "amplitude": 1.0, "seed": 0, **kwargs}
        with pytest.raises(ValidationError, match=f"{name} must be .*integral"):
            prbs(**args)

    @pytest.mark.parametrize("args, name", [
        (("10", 1.0, 0), "length"), ((12.5, 1.0, 0), "length"), ((0, 1.0, 0), "length"),
        ((10, 1.0, "a"), "seed"), ((10, 1.0, 0.5), "seed"),
    ], ids=repr)
    def test_pair_integer_arguments_checked(self, args, name):
        with pytest.raises(ValidationError, match=f"{name} must be .*integral"):
            prbs_pair(*args)


class TestDataset:
    def test_split_views(self):
        data = SysIdDataset(dt=0.1, inputs=np.zeros((10, 2)),
                            outputs=np.arange(10.0), split_index=7)
        u_e, y_e = data.estimation()
        u_v, y_v = data.validation()
        assert len(y_e) == 7 and len(y_v) == 3

    def test_validation_errors(self):
        with pytest.raises(ValidationError):
            SysIdDataset(dt=0.1, inputs=np.zeros((10, 2)),
                         outputs=np.zeros(10), split_index=10)
        with pytest.raises(ValidationError):
            SysIdDataset(dt=0.1, inputs=np.zeros((9, 2)),
                         outputs=np.zeros(10), split_index=5)

    @pytest.mark.parametrize("split_index", [6.5, 7.0, True, "7"], ids=repr)
    def test_split_index_must_be_an_integer(self, split_index):
        with pytest.raises(ValidationError, match="split_index must be integral"):
            SysIdDataset(dt=0.1, inputs=np.zeros((10, 2)), outputs=np.zeros(10),
                         split_index=split_index)

    @pytest.mark.parametrize("field", ["inputs", "outputs"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_raises(self, field, bad):
        data = {"inputs": np.zeros((10, 2)), "outputs": np.zeros(10)}
        data[field][3] = bad
        with pytest.raises(ValidationError, match="contains non-finite"):
            SysIdDataset(dt=0.1, split_index=5, **data)


class TestSubspace:
    def test_insufficient_data(self):
        data = SysIdDataset(dt=0.1, inputs=np.zeros((30, 2)),
                            outputs=np.zeros(30), split_index=20)
        with pytest.raises(InsufficientData):
            subspace_id(data, 1, 5)

    def test_not_exciting(self):
        n = 2000
        data = SysIdDataset(dt=0.05, inputs=np.zeros((n, 2)),
                            outputs=np.random.default_rng(0).normal(size=n),
                            split_index=int(0.7 * n))
        with pytest.raises(NotExciting):
            subspace_id(data, 1, 10)

    def test_noiseless_markov_parameters(self):
        G, data = cavity_dataset(seed=0, noise=False)
        est = subspace_id(data, 1, 10)
        Ad_true = np.eye(2) + G.A * data.dt
        Cm = G.C[0:1]
        for k in range(11):
            true_mp = Cm @ np.linalg.matrix_power(Ad_true, k) @ (G.B * data.dt)
            est_mp = est.C @ np.linalg.matrix_power(est.Ad, k) @ est.Bd
            assert np.max(np.abs(true_mp - est_mp)) < 1e-6

    def test_noiseless_rank_revelation(self):
        # the projection's full spectrum shows the true rank: entries past
        # the 2 genuine state directions collapse
        _, data = cavity_dataset(seed=0, noise=False)
        est = subspace_id(data, 1, 10)
        sv = est.singular_values
        assert sv[2] <= 1e-6 * sv[0] and sv[3] <= 1e-6 * sv[0]

    @pytest.mark.parametrize("seed", range(8))
    def test_overparameterized_noiseless_fit_reports_log_branch(self, seed):
        # fitting n=3 to exact rank-2 data leaves junk state directions whose
        # singular values fall under the rank cut; they come out as exactly
        # zero discrete eigenvalues, and the conversion refuses to guess a branch
        _, data = cavity_dataset(seed=seed, noise=False)
        with pytest.raises(LogBranch):
            subspace_id(data, 3, 10)

    def test_log_branch_detection(self):
        with pytest.raises(LogBranch):
            _discrete_to_continuous(np.diag([0.5, -0.3]), np.zeros((2, 2)), 0.1)
        A, _ = _discrete_to_continuous(np.diag([0.5, 0.3]), np.zeros((2, 2)), 0.1)
        assert np.allclose(np.diag(A), np.log([0.5, 0.3]) / 0.1)

    def test_balanced_realization_returned(self):
        _, data = cavity_dataset(seed=1)
        est = subspace_id(data, 1, 10)
        assert 0.2 < np.linalg.norm(est.B) / np.linalg.norm(est.C) < 5.0

    def test_qr_panel_is_capped_at_the_stack_width(self, monkeypatch):
        # LAPACK's blocked QR takes no panel wider than the r = 18 columns of horizon 3
        _, data = cavity_dataset(seed=0, T=100.0)
        want = subspace_id(data, 1, 3)
        monkeypatch.setattr("qiokit.sysid._QR_BLOCK", 64)
        got = subspace_id(data, 1, 3)
        assert np.allclose(got.singular_values, want.singular_values, rtol=1e-12, atol=0)

    def test_unstable_drift_takes_the_scalar_balance(self):
        # an undamped oscillator, Euler-stepped, grows at dt/2: the fitted drift is not
        # Hurwitz, so there are no Gramians and the balance is a scalar, with |B| = |C|
        N, dt, A = 6000, 0.05, np.array([[0.0, 1.0], [-1.0, 0.0]])
        u, noise = prbs_pair(N, 1.0, 3), 0.01 * np.random.default_rng(0).normal(size=N)
        x, y = np.zeros(2), np.empty(N)
        for k in range(N):
            y[k] = x[0] + noise[k] + u[k, 0]
            x = x + dt * (A @ x + np.array([0.0, u[k, 0]]))
        est = subspace_id(SysIdDataset(dt=dt, inputs=u, outputs=y, split_index=4000), 1, 5)
        assert np.all(np.linalg.eigvals(est.A).real > 0.0)
        assert np.isclose(np.linalg.norm(est.B), np.linalg.norm(est.C), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_exact_fit_with_unstable_gain_falls_back_to_open_loop(self, seed):
        # noiseless data: the residual covariances are round-off, whose DARE
        # gain may or may not stabilize Ad - Kd C; the innovation gain of
        # noise-free data is zero, and an exact fit always gets it
        _, data = cavity_dataset(seed=seed, noise=False)
        est = subspace_id(data, 1, 10)
        assert est.gain_fallback
        assert np.all(est.Kd == 0)
        assert np.max(np.abs(np.linalg.eigvals(est.Ad))) < 1.0

    def test_noisy_fit_keeps_kalman_gain(self):
        _, data = cavity_dataset(seed=0)
        est = subspace_id(data, 1, 10)
        assert not est.gain_fallback
        assert np.any(est.Kd != 0)
        assert np.max(np.abs(np.linalg.eigvals(est.Ad - est.Kd @ est.C))) < 1.0

    def test_unstable_gain_on_noisy_fit_is_not_replaced(self, monkeypatch):
        # a huge, destabilizing gain is kept outside an exact fit
        monkeypatch.setattr(scipy.linalg, "solve_discrete_are", near_singular_dare)
        _, data = cavity_dataset(seed=0)
        est = subspace_id(data, 1, 10)
        assert not est.gain_fallback
        assert np.max(np.abs(np.linalg.eigvals(est.Ad - est.Kd @ est.C))) > 1.0

    def test_dare_failure_is_recorded(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("no stabilizing solution")

        monkeypatch.setattr(scipy.linalg, "solve_discrete_are", fail)
        _, data = cavity_dataset(seed=0)
        est = subspace_id(data, 1, 10)
        assert est.gain_fallback
        assert np.all(est.Kd == 0)


class TestProjection:
    def test_already_feasible_is_fixed_point(self, rng):
        G = random_physical(rng)
        V = random_symplectic(1, rng)
        H = symplectic_transform(G, V)
        proj = pr_projection((H.A, H.B, H.C[0:1]), np.eye(2), "Q", seed=0)
        assert proj.cost <= 1e-10
        assert np.max(np.abs(proj.A - H.A)) < 1e-4
        assert proj.feasibility <= 1e-8

    def test_arguments_checked(self):
        G = cavity()
        raw = (G.A, G.B, G.C[:1])
        with pytest.raises(ValidationError, match="seed must be nonnegative"):
            pr_projection(raw, G.D, seed=-1)
        with pytest.raises(ValidationError, match="D must have shape"):
            pr_projection(raw, np.eye(3))

    @pytest.mark.parametrize("kwargs, message", [
        ({"seed": 0.5}, "seed must be nonnegative and integral"),
        ({"seed": True}, "seed must be nonnegative and integral"),
        ({"n_starts": 0}, "n_starts must be positive and integral"),
        ({"n_starts": 2.5}, "n_starts must be positive and integral"),
        ({"n_starts": True}, "n_starts must be positive and integral"),
        ({"max_nfev": 0}, "max_nfev must be positive and integral"),
        ({"max_nfev": 2.5}, "max_nfev must be positive and integral"),
        ({"max_nfev": True}, "max_nfev must be positive and integral"),
    ], ids=repr)
    def test_integer_arguments_checked(self, kwargs, message):
        G = cavity()
        with pytest.raises(ValidationError, match=message):
            pr_projection((G.A, G.B, G.C[:1]), G.D, **kwargs)

    def test_results_are_independent(self):
        """A later call leaves an earlier result unchanged; a repeat is identical."""
        _, data = cavity_dataset(seed=0)
        est = subspace_id(data, 1, 10)
        first = pr_projection((est.A, est.B, est.C), np.eye(2), "Q", seed=3)
        kept = {k: np.copy(getattr(first, k)) for k in ("A", "B", "C_m", "Z", "start_costs")}
        G = cavity()
        pr_projection((G.A, G.B, G.C[:1]), G.D, seed=4)
        again = pr_projection((est.A, est.B, est.C), np.eye(2), "Q", seed=3)
        for k, v in kept.items():
            assert np.array_equal(getattr(first, k), v), k
            assert np.array_equal(getattr(again, k), v), k

    def test_scattering_matrix_checked(self):
        G = cavity()
        raw = (G.A, G.B, G.C[:1])
        with pytest.raises(ValidationError, match="D J D"):
            pr_projection(raw, 2 * np.eye(2))
        D = rotation(0.6)  # a phase shifter passes the same check
        assert pr_projection((G.A, G.B, (D @ G.C)[:1]), D).feasibility <= 1e-10

    def test_small_perturbation_bounded_cost(self, rng):
        G = random_physical(rng)
        eps = 1e-3
        dA = eps * rng.normal(size=G.A.shape)
        dB = eps * rng.normal(size=G.B.shape)
        dC = eps * rng.normal(size=(1, 2))
        proj = pr_projection(
            (G.A + dA, G.B + dB, G.C[0:1] + dC), np.eye(2), "Q", seed=1
        )
        bound = 0.5 * (np.sum(dA**2) + np.sum(dB**2) + np.sum(dC**2))
        assert proj.cost <= bound + 1e-8

    def test_projected_satisfies_constraints(self, rng):
        G = random_physical(rng)
        raw = (
            G.A + 0.05 * rng.normal(size=G.A.shape),
            G.B + 0.05 * rng.normal(size=G.B.shape),
            G.C[0:1] + 0.05 * rng.normal(size=(1, 2)),
        )
        proj = pr_projection(raw, np.eye(2), "Q", seed=2)
        C_full = recover_full_c(proj.Z, proj.B, np.eye(2), "Q", proj.C_m[0])
        J = symplectic_form(1)
        r1 = np.max(np.abs(proj.A @ proj.Z + proj.Z @ proj.A.T + proj.B @ J @ proj.B.T))
        r2 = np.max(np.abs(proj.Z @ C_full.T + proj.B @ J))
        assert max(r1, r2) <= 1e-6

    def test_unconverged_projection_raises(self):
        _, data = cavity_dataset(seed=0)
        est = subspace_id(data, 1, 10)
        with pytest.raises(OptimizationFailed, match="max_nfev"):
            pr_projection((est.A, est.B, est.C), np.eye(2), "Q", max_nfev=1)

    def test_runaway_starts_are_stopped(self, monkeypatch):
        # on this estimate five of the eight starts run toward |Z| = infinity,
        # where C -> 0; unstopped they took 47-49 evaluations each
        leastsq, nfev = scipy.optimize.leastsq, []

        def counting_leastsq(func, x0, *args, **kwargs):
            calls = []

            def counted(x):
                calls.append(1)
                return func(x)

            try:
                return leastsq(counted, x0, *args, **kwargs)
            finally:
                nfev.append(len(calls))

        monkeypatch.setattr(scipy.optimize, "leastsq", counting_leastsq)
        _, data = cavity_dataset(seed=2)
        est = subspace_id(data, 1, 10)
        proj = pr_projection((est.A, est.B, est.C), np.eye(2), "Q", seed=2)
        assert len(nfev) == 8 and max(nfev) <= 20
        assert proj.cost == pytest.approx(8.392559553412e-4, rel=1e-10)

    def test_no_projection_at_finite_z_raises(self):
        # every start runs to the boundary at infinity, whose limit cost here
        # is (tr A)^2 / 4 + |Cm|^2 / 2 = 0: a certificate that holds only in
        # the limit is not a projection
        raw = ([[0.0, 1.0], [-1.0, 0.0]], -np.sqrt(2.0) * np.eye(2), [0.0, 0.0])
        with pytest.raises(OptimizationFailed, match="infinite certificate"):
            pr_projection(raw, np.eye(2), "Q", seed=0)

    @pytest.mark.parametrize("a", [0.05, 20.0, 50.0])
    def test_stop_is_free_of_the_realization_scale(self, a):
        # in the basis T = a I the cavity's certificate is a^2 J, up to 2,500
        # times the starts' Z = J_n, and the converging starts climb to it
        G = cavity()
        proj = pr_projection((G.A, a * G.B, G.C[:1] / a), G.D, "Q", seed=0)
        assert proj.cost <= 1e-20 * max(a, 1 / a) ** 2
        assert proj.Z[0, 1] == pytest.approx(a**2, rel=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(n=st.sampled_from([1, 2]), seed=st.integers(0, 2**32 - 1),
           det_sign=st.sampled_from([-1.0, 1.0]), theta=st.floats(-np.pi, np.pi))
    def test_exact_on_the_feasible_set(self, n, seed, det_sign, theta):
        """A realizable estimate on either component of the feasible set (det T
        of either sign), seen through a phase shifter, is its own projection."""
        rng = np.random.default_rng(seed)
        R = rng.normal(size=(2 * n, 2 * n))
        G = build_linear_system(QuadraticSpec(
            R=(R + R.T) / 2, K=rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)))
        # singular values in [1/2, 2], determinant of the drawn sign
        U, V = (np.linalg.qr(rng.normal(size=(2 * n, 2 * n)))[0] for _ in range(2))
        T = U @ np.diag(rng.uniform(0.5, 2.0, 2 * n)) @ V
        T[0] *= det_sign * np.sign(np.linalg.det(T))
        Tinv = np.linalg.inv(T)
        D = rotation(theta)
        H = LinearQSystem(A=T @ G.A @ Tinv, B=T @ G.B, C=D @ G.C @ Tinv, D=D)
        proj = pr_projection((H.A, H.B, H.C[:1]), D, "Q")
        scale = max(np.abs(H.A).max(), np.abs(H.B).max(), np.abs(H.C[0]).max())
        assert proj.cost <= 1e-20 * scale**2
        C = recover_full_c(proj.Z, proj.B, D, "Q", proj.C_m[0])
        fit = LinearQSystem(A=proj.A, B=proj.B, C=C, D=D)
        for s in (0.5 - 2j, 0.5, 0.5 + 1.5j):
            ref = transfer_function(H, s)
            assert np.linalg.norm(transfer_function(fit, s) - ref) <= 1e-10 * np.linalg.norm(ref)


class TestRecoverFullC:
    def test_cavity_erase_and_recover(self):
        G = cavity()
        C = recover_full_c(symplectic_form(1), G.B, G.D, "Q", G.C[0])
        assert np.max(np.abs(C - G.C)) < 1e-10

    def test_zero_b_gives_zero_row(self):
        C = recover_full_c(symplectic_form(1), np.zeros((2, 2)), np.eye(2))
        assert np.max(np.abs(C)) == 0.0

    def test_random_transformed_systems(self, rng):
        for _ in range(8):
            G = random_physical(rng)
            V = random_symplectic(1, rng)
            H = symplectic_transform(G, V)
            Z = V.V @ symplectic_form(1) @ V.V.T
            C = recover_full_c(Z, H.B, H.D)
            assert np.max(np.abs(C - H.C)) < 1e-8

    def test_singular_z(self):
        with pytest.raises(SingularZ):
            recover_full_c(np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2))


class TestOrderSelection:
    def test_single_candidate(self):
        _, data = cavity_dataset(seed=2)
        n_best, table = fpe_order_select(data, [1], 10)
        assert n_best == 1 and set(table) == {1}

    def test_selects_true_order(self):
        picks = []
        for seed in range(5):
            _, data = cavity_dataset(seed=seed)
            n_best, _ = fpe_order_select(data, [1, 2, 3], 10)
            picks.append(n_best)
        assert picks.count(1) >= 4

    def test_noiseless_prefers_smallest_exact_order(self):
        _, data = cavity_dataset(seed=3, noise=False)
        n_best, table = fpe_order_select(data, [1, 2], 10)
        assert n_best == 1

    @pytest.mark.parametrize("dare", [near_singular_dare,
                                      lambda a, *args, **kw: np.full(a.shape, np.nan)],
                             ids=["near singular", "nan"])
    def test_unstable_predictor_scores_inf(self, monkeypatch, dare):
        # a huge gain destabilizes the predictor and a non-finite one makes
        # it non-finite: either way the order scores inf rather than raising
        monkeypatch.setattr(scipy.linalg, "solve_discrete_are", dare)
        _, data = cavity_dataset(seed=0)
        n_best, table = fpe_order_select(data, [1], 10)
        assert n_best == 1 and table[1] == np.inf

    def test_penalty_monotone_in_parameter_count(self):
        # FPE = V_N (1+p/N)/(1-p/N) grows with p at fixed V_N
        N = 10_000
        factors = []
        for n in (1, 2, 3, 4):
            p = 4 * n * n + 8 * n
            factors.append((1 + p / N) / (1 - p / N))
        assert all(a < b for a, b in zip(factors, factors[1:]))


def loop_states(A, drive):
    """z_0 = 0, ..., z_n of z_{k+1} = A z_k + drive[k], one sample at a time."""
    z = np.zeros(A.shape[0])
    states = [z]
    for w in drive:
        z = A @ z + w
        states.append(z)
    return np.array(states)


def three_mode():
    return random_physical(np.random.default_rng(61), n=3)


class TestRecursions:
    """The innovation simulator and the NMSE predictor against a per-sample loop."""

    SYSTEMS = {"cavity": cavity, "three modes": three_mode}

    def setup(self, name):
        G = self.SYSTEMS[name]()
        gain, _ = kalman_gain(G, "Q")
        dt = 0.05 / np.max(np.abs(np.linalg.eigvals(G.A)))
        f = prbs_pair(3000, 5.0, 1)
        return G, gain, dt, f

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_simulate_innovation_form(self, name):
        G, gain, dt, f = self.setup(name)
        n = len(f)
        rec, traj = simulate_innovation_form(G, gain, "Q", f, T=n * dt, dt=dt, seed=3)
        dnu = trajectory_rng(3, 0).normal(0.0, np.sqrt(dt), n)
        ref = loop_states(np.eye(2 * G.n) + G.A * dt,
                          (f @ G.B.T) * dt + np.outer(dnu, gain))
        assert np.max(np.abs(traj - ref)) <= 1e-12 * np.max(np.abs(ref))
        dY = (ref[:-1] @ G.C[0] + f @ G.D[0]) * dt + dnu
        assert np.max(np.abs(rec.increments - dY)) <= 1e-12 * np.max(np.abs(dY))

    def test_simulate_innovation_form_past_the_scan(self):
        # rho(I + A dt) = 1.1: ||(I + A dt)^4096|| is about 1e170, past the scan's 1e100
        # limit, so a carry of stride 4096 finishes the recursion, with states near 1e207
        G, dt, n = LinearQSystem(A=2.0 * np.eye(2), B=-np.eye(2), C=np.eye(2)), 0.05, 5000
        gain, f = np.ones(2), prbs_pair(n, 5.0, 1)
        _, traj = simulate_innovation_form(G, gain, "Q", f, T=n * dt, dt=dt, seed=3)
        dnu = trajectory_rng(3, 0).normal(0.0, np.sqrt(dt), n)
        ref = loop_states(np.eye(2) + G.A * dt, (f @ G.B.T) * dt + np.outer(dnu, gain))
        assert np.max(np.abs(ref)) > 1e200
        rows = np.max(np.abs(traj - ref), axis=1)[1:] / np.max(np.abs(ref), axis=1)[1:]
        assert np.max(rows) <= 1e-12

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_validate_nmse(self, name):
        G, gain, dt, f = self.setup(name)
        n = len(f)
        rec, _ = simulate_innovation_form(G, gain, "Q", f, T=n * dt, dt=dt, seed=4)
        data = SysIdDataset.from_record(rec, f, split=0.7)
        u, y, s = data.inputs, data.outputs, data.split_index
        Cm, Dm = G.C[0], G.D[0]
        Z = loop_states(np.eye(2 * G.n) + (G.A - np.outer(gain, Cm)) * dt,
                        (u @ (G.B - np.outer(gain, Dm)).T + y[:, None] * gain) * dt)
        e = y[s:] - Z[s:-1] @ Cm - u[s:] @ Dm
        ref = float(e @ e) / float(np.sum((y[s:] - y[s:].mean()) ** 2))
        assert validate_nmse(G, gain, data, "Q") == pytest.approx(ref, rel=1e-12)


class TestValidateNMSE:
    def test_perfect_model_noiseless(self):
        G, data = cavity_dataset(seed=4, noise=False)
        gain, _ = kalman_gain(G, "Q")
        nmse = validate_nmse(G, gain, data, "Q")
        assert nmse < 1e-3

    def test_mean_predictor_is_unity(self):
        # a dead model with zero gain predicts a constant
        _, data = cavity_dataset(seed=5)
        dead = LinearQSystem(A=-1e6 * np.eye(2), B=np.zeros((2, 2)),
                             C=np.zeros((2, 2)), D=np.zeros((2, 2)))
        nmse = validate_nmse(dead, np.zeros(2), data, "Q")
        # prediction is identically zero; NMSE = sum y^2 / sum (y-ybar)^2 ~ 1
        assert abs(nmse - 1.0) < 0.05
        y = data.validation()[1]
        assert nmse == pytest.approx(np.sum(y**2) / np.sum((y - y.mean()) ** 2), rel=1e-12)

    @pytest.mark.parametrize("gain", [[1e3, 0.0], [0.0, 0.0]], ids=["large gain", "no gain"])
    def test_unstable_predictor_scores_inf(self, gain):
        # an unstable drift makes the predictor overflow (large gain) or grow past 1e100
        # (no gain): either way the model scores inf, as in fpe_order_select
        G, data = cavity_dataset(seed=5)
        unstable = LinearQSystem(A=0.5 * np.eye(2), B=G.B, C=G.C, D=G.D)
        assert validate_nmse(unstable, np.array(gain), data, "Q") == np.inf

    def test_degenerate_output(self):
        data = SysIdDataset(dt=0.1, inputs=np.zeros((10, 2)),
                            outputs=np.ones(10), split_index=5)
        G = cavity()
        gain = np.zeros(2)
        with pytest.raises(DegenerateOutput):
            validate_nmse(G, gain, data, "Q")


def _quadrature_calls():
    G = cavity()
    _, data = cavity_dataset(seed=2, T=200.0)
    J, f = symplectic_form(1), np.zeros((20, 2))
    return {
        "kalman_gain": lambda q: kalman_gain(G, q),
        "simulate_innovation_form": lambda q: simulate_innovation_form(
            G, np.zeros(2), q, f, T=1.0, dt=0.05, seed=0),
        "pr_projection": lambda q: pr_projection((G.A, G.B, G.C[:1]), G.D, q),
        "validate_nmse": lambda q: validate_nmse(G, np.zeros(2), data, q),
        "PipelineConfig": lambda q: PipelineConfig(
            dt=0.05, T=1.0, prbs_amplitude=1.0, orders=(1,), quadrature=q, system=G),
        "subspace_id": lambda q: subspace_id(data, 1, 10, quadrature=q),
        "fpe_order_select": lambda q: fpe_order_select(data, [1], 10, quadrature=q),
        "recover_full_c": lambda q: recover_full_c(J, G.B, G.D, q, G.C[0]),
        "recover_full_c without c_m": lambda q: recover_full_c(J, G.B, G.D, q),
    }


@pytest.mark.parametrize("call", sorted(_quadrature_calls()))
@pytest.mark.parametrize("quadrature", ["X", ["Q"]], ids=repr)
def test_unknown_quadrature_is_a_validation_error(call, quadrature):
    with pytest.raises(ValidationError, match="quadrature must be 'Q' or 'P'"):
        _quadrature_calls()[call](quadrature)


def _boundary_calls():
    G = cavity()
    _, data = cavity_dataset(seed=2, T=200.0)
    J, f = symplectic_form(1), np.zeros((20, 2))
    nan2 = np.full((2, 2), np.nan)
    return {
        "validate_nmse short L_m": ("L_m", lambda: validate_nmse(G, np.zeros(3), data)),
        "validate_nmse nan L_m": ("L_m", lambda: validate_nmse(G, [np.nan, 0.0], data)),
        "simulate_innovation_form short L_m": ("L_m", lambda: simulate_innovation_form(
            G, np.zeros(3), "Q", f, T=1.0, dt=0.05, seed=0)),
        "simulate_innovation_form nan L_m": ("L_m", lambda: simulate_innovation_form(
            G, [np.nan, 0.0], "Q", f, T=1.0, dt=0.05, seed=0)),
        "recover_full_c nan Z": ("Z", lambda: recover_full_c(nan2, G.B, G.D)),
        "recover_full_c odd Z": ("Z", lambda: recover_full_c(np.eye(3), G.B, G.D)),
        "recover_full_c nan B": ("B", lambda: recover_full_c(J, nan2, G.D)),
        "recover_full_c three-row B": ("B", lambda: recover_full_c(J, np.ones((3, 2)), G.D)),
        "recover_full_c 3 x 3 D": ("D", lambda: recover_full_c(J, G.B, np.eye(3))),
        "recover_full_c short c_m": ("c_m", lambda: recover_full_c(J, G.B, G.D, "Q", [1.0])),
        "recover_full_c nan c_m": ("c_m", lambda: recover_full_c(
            J, G.B, G.D, "Q", [np.nan, 1.0])),
        "run_pipeline dt > T": ("dt and T", lambda: run_pipeline(PipelineConfig(
            dt=0.05, T=0.03, prbs_amplitude=1.0, orders=(1,), system=G))),
        "pr_projection nan A": ("Ahat", lambda: pr_projection(
            (G.A + np.diag([np.nan, 0.0]), G.B, G.C[:1]), G.D)),
        "pr_projection nan C_m": ("Cmhat", lambda: pr_projection(
            (G.A, G.B, [[np.nan, 1.0]]), G.D)),
        "SysIdDataset infinite dt": ("dt", lambda: SysIdDataset(
            dt=np.inf, inputs=data.inputs, outputs=data.outputs, split_index=10)),
        "prbs infinite amplitude": ("amplitude", lambda: prbs(10, np.inf, 0)),
    }


@pytest.mark.parametrize("call", sorted(_boundary_calls()))
def test_boundary_inputs_are_validation_errors(call):
    name, fn = _boundary_calls()[call]
    with pytest.raises(ValidationError, match=name):
        fn()


BAD_ORDERS = [["a"], [1.5], [-1], [0], [], [True], 3]


@pytest.mark.parametrize("orders", BAD_ORDERS, ids=repr)
def test_orders_must_be_positive_integers(orders):
    _, data = cavity_dataset(seed=2, T=200.0)
    with pytest.raises(ValidationError, match="positive integers"):
        PipelineConfig(dt=0.05, T=1.0, prbs_amplitude=1.0, orders=orders, dataset=data)
    with pytest.raises(ValidationError, match="positive integers"):
        fpe_order_select(data, orders, 10)
    if np.iterable(orders) and len(orders) == 1:
        with pytest.raises(ValidationError, match="positive integers"):
            subspace_id(data, orders[0], 10)


@pytest.mark.parametrize("field, value", [
    ("seed", 0.5), ("seed", 1.7), ("seed", True), ("seed", -1), ("seed", "1"),
    ("horizon", 10.9), ("horizon", 10.0), ("horizon", 0), ("horizon", False),
], ids=repr)
def test_integer_config_fields_checked(field, value):
    with pytest.raises(ValidationError, match=f"{field} must be .*integral"):
        PipelineConfig(dt=0.05, T=1.0, prbs_amplitude=1.0, orders=(1,), system=cavity(),
                       **{field: value})


@pytest.mark.parametrize("horizon", [10.9, 10.0, True])
def test_subspace_horizon_must_be_an_integer(horizon):
    _, data = cavity_dataset(seed=2, T=200.0)
    with pytest.raises(ValidationError, match="horizon must be positive and integral"):
        subspace_id(data, 1, horizon)
    with pytest.raises(ValidationError, match="horizon must be positive and integral"):
        fpe_order_select(data, [1], horizon)


@pytest.mark.parametrize("split", [0.0, 1.0, 2.0, -0.5, float("nan")])
def test_split_must_lie_in_unit_interval(split):
    with pytest.raises(ValidationError, match="split"):
        PipelineConfig(dt=0.05, T=1.0, prbs_amplitude=1.0, orders=(1,), split=split,
                       system=cavity())


def test_config_dt_must_be_the_datasets():
    _, data = cavity_dataset(seed=2, T=200.0)
    with pytest.raises(ValidationError, match="dt 0.5 is not the dataset's dt 0.05"):
        PipelineConfig(dt=0.5, T=1.0, prbs_amplitude=1.0, orders=(1,), dataset=data)


class TestPipeline:
    def test_round_trip_cavity(self):
        G = cavity()
        cfg = PipelineConfig(dt=0.02, T=800.0, prbs_amplitude=100.0,
                             orders=(1, 2), quadrature="Q", seed=0,
                             horizon=25, system=G)
        res = run_pipeline(cfg)
        assert res.order == 1
        assert res.pr2_residual <= 1e-6
        errs = []
        for w in np.linspace(-3, 3, 20):
            t0 = transfer_function(G, 1j * w)
            t1 = transfer_function(res.projected, 1j * w)
            errs.append(np.linalg.norm(t1 - t0) / np.linalg.norm(t0))
        assert np.median(errs) < 0.1
        assert res.nmse < 0.1

    def test_symplectic_twin_same_transfer_function(self, rng):
        # data generated by a transformed truth recovers the same equivalence class
        G = cavity()
        V = random_symplectic(1, rng)
        H = symplectic_transform(G, V)
        cfg = PipelineConfig(dt=0.02, T=800.0, prbs_amplitude=100.0,
                             orders=(1,), quadrature="Q", seed=1,
                             horizon=25, system=H)
        res = run_pipeline(cfg)
        for w in (0.0, 0.9, -1.7):
            t0 = transfer_function(G, 1j * w)
            t1 = transfer_function(res.projected, 1j * w)
            assert np.linalg.norm(t1 - t0) / np.linalg.norm(t0) < 0.15

    def test_scattering_matrix_is_kept(self):
        # the cavity behind a phase shifter identifies as well as the bare cavity
        G = cavity()
        D = rotation(0.6)
        shifted = LinearQSystem(A=G.A, B=G.B, C=D @ G.C, D=D)
        runs = [run_pipeline(PipelineConfig(dt=0.05, T=400.0, prbs_amplitude=50.0,
                                            orders=(1,), seed=1, system=system))
                for system in (G, shifted)]
        assert runs[1].pr2_residual <= 1e-10
        assert np.array_equal(runs[1].projected.D, D)
        assert runs[1].nmse == pytest.approx(runs[0].nmse, rel=0.1)

    def test_pipeline_deterministic(self):
        cfg = PipelineConfig(dt=0.05, T=400.0, prbs_amplitude=50.0,
                             orders=(1,), quadrature="Q", seed=3,
                             horizon=10, system=cavity())
        a = run_pipeline(cfg)
        b = run_pipeline(cfg)
        assert np.array_equal(a.projected.A, b.projected.A)
        assert np.array_equal(a.projected.C, b.projected.C)
        assert a.nmse == b.nmse and a.cost == b.cost

    def test_one_factorization_per_dataset(self, monkeypatch):
        # counts the matrix rows entering QR, numpy's (stacked or not) or
        # LAPACK's dgeqrt: the j Hankel columns are factored once, and the
        # small factors add fewer rows
        rows = []
        qr, geqrt = np.linalg.qr, scipy.linalg.lapack.dgeqrt

        def counting_qr(a, *args, **kwargs):
            rows.append(int(np.prod(np.shape(a)[:-1])))
            return qr(a, *args, **kwargs)

        def counting_geqrt(nb, a, *args, **kwargs):
            rows.append(np.shape(a)[0])
            return geqrt(nb, a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        monkeypatch.setattr(scipy.linalg.lapack, "dgeqrt", counting_geqrt)
        _, data = cavity_dataset(seed=2)
        cfg = PipelineConfig(dt=data.dt, T=600.0, prbs_amplitude=50.0, orders=(1, 2, 3),
                             seed=2, dataset=data)
        run_pipeline(cfg)
        j = data.split_index - 2 * 10 + 1
        assert j <= sum(rows) < 2 * j

    def test_one_discrete_fit_per_order(self, monkeypatch):
        # the selected order's fit is the one the FPE already made: one
        # innovation-gain Riccati solve per candidate order, none more
        dare, solves = scipy.linalg.solve_discrete_are, []

        def counting_dare(*args, **kwargs):
            solves.append(1)
            return dare(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "solve_discrete_are", counting_dare)
        _, data = cavity_dataset(seed=2)
        cfg = PipelineConfig(dt=data.dt, T=600.0, prbs_amplitude=50.0, orders=(1, 2, 3),
                             seed=2, dataset=data)
        res = run_pipeline(cfg)
        assert len(solves) == 3
        assert (res.order, res.fpe_table) == fpe_order_select(data, [1, 2, 3], 10)

    def test_zero_data_insufficient(self):
        data = SysIdDataset(dt=0.05, inputs=np.zeros((40, 2)),
                            outputs=np.zeros(40), split_index=30)
        cfg = PipelineConfig(dt=0.05, T=2.0, prbs_amplitude=1.0, orders=(1,),
                             quadrature="Q", seed=0, dataset=data)
        with pytest.raises(InsufficientData) as err:
            run_pipeline(cfg)
        assert "fpe_order_select" in str(err.value) or "subspace" in str(err.value)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            PipelineConfig(dt=0.05, T=1.0, prbs_amplitude=1.0, orders=(1,))
