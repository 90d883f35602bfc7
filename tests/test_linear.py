"""Linear-quantum tests: realizability, transfer functions, Kalman filtering."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qiokit.exceptions import (
    NoSkewSolution,
    NotHurwitz,
    RiccatiFailure,
    SingularResolvent,
    SingularZ,
    StepTooLarge,
    ValidationError,
)
from qiokit.linear import (
    GaussianInput,
    LinearQSystem,
    QuadraticSpec,
    SymplecticMatrix,
    build_linear_system,
    check_pr1,
    check_pr2,
    gamma_rigidity,
    kalman_gain,
    minimality_check,
    power_spectrum,
    random_symplectic,
    simulate_innovation_form,
    skew_symplectic_factor,
    symplectic_form,
    symplectic_transform,
    transfer_function,
)

from conftest import rotation


def cavity_spec(delta=1.0, kappa=2.0) -> QuadraticSpec:
    """Single-mode cavity: H = Delta a^dag a, L = sqrt(kappa) a."""
    return QuadraticSpec(
        R=0.5 * delta * np.eye(2),
        K=np.sqrt(kappa) / 2 * np.array([1.0, 1.0j]),
    )


def cavity_triple(delta=1.0, kappa=2.0) -> LinearQSystem:
    A = np.array([[-kappa / 2, delta], [-delta, -kappa / 2]])
    return LinearQSystem(A=A, B=-np.sqrt(kappa) * np.eye(2), C=np.sqrt(kappa) * np.eye(2))


def random_spec(n, rng, coupling=1.0) -> QuadraticSpec:
    R = rng.normal(size=(2 * n, 2 * n))
    R = (R + R.T) / 2
    K = coupling * (rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n))
    return QuadraticSpec(R=R, K=K)


def random_stable_physical(n, rng) -> LinearQSystem:
    """Random realizable system with a Hurwitz drift."""
    for _ in range(200):
        G = build_linear_system(random_spec(n, rng))
        if np.all(np.linalg.eigvals(G.A).real < -1e-6):
            return G
    raise RuntimeError("no stable draw")


class TestBuild:
    def test_zero_spec(self):
        G = build_linear_system(QuadraticSpec(R=np.zeros((2, 2)), K=np.zeros(2)))
        assert not np.any(G.A) and not np.any(G.B) and not np.any(G.C)
        assert np.array_equal(G.D, np.eye(2))

    def test_cavity_matches_reference_triple(self):
        G = build_linear_system(cavity_spec(delta=1.0, kappa=2.0))
        ref = cavity_triple(delta=1.0, kappa=2.0)
        assert np.max(np.abs(G.A - ref.A)) < 1e-14
        assert np.max(np.abs(G.B - ref.B)) < 1e-14
        assert np.max(np.abs(G.C - ref.C)) < 1e-14
        assert check_pr1(G) <= 1e-12

    def test_cavity_reference_satisfies_pr1_exactly(self):
        assert check_pr1(cavity_triple(delta=1.0, kappa=2.0)) <= 1e-15

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_drift_raises(self, bad):
        ref = cavity_triple()
        A = ref.A.copy()
        A[0, 1] = bad
        with pytest.raises(ValidationError, match="A contains non-finite"):
            LinearQSystem(A=A, B=ref.B, C=ref.C)
        with pytest.raises(ValidationError, match="2n x 2n"):
            LinearQSystem(A=np.zeros((3, 3)), B=np.zeros((3, 2)), C=np.zeros((2, 3)))

    def test_random_specs_pass_pr1(self, rng):
        for n in (1, 2, 3):
            for _ in range(5):
                G = build_linear_system(random_spec(n, rng))
                assert check_pr1(G) <= 1e-10 * max(1.0, np.abs(G.A).max())


class TestPR1:
    def test_symmetric_drift_violates(self):
        G = LinearQSystem(A=np.eye(2), B=np.zeros((2, 2)), C=np.zeros((2, 2)))
        assert check_pr1(G) == pytest.approx(2.0)


class TestPR2:
    def test_pr1_system_has_canonical_certificate(self):
        G = build_linear_system(cavity_spec())
        res = check_pr2(G)
        assert res.residual <= 1e-10
        # J_n is a solution; for a Hurwitz drift it is the unique one
        assert np.max(np.abs(res.Z - symplectic_form(G.n))) < 1e-8

    def test_transformed_system_recovers_certificate(self, rng):
        G = build_linear_system(cavity_spec())
        for _ in range(5):
            V = random_symplectic(G.n, rng)
            H = symplectic_transform(G, V)
            want = V.V @ symplectic_form(G.n) @ V.V.T
            res = check_pr2(H)
            assert res.residual <= 1e-8
            assert np.max(np.abs(res.Z - want)) < 1e-7 * max(1.0, np.abs(want).max())
            assert np.max(np.abs(res.V @ symplectic_form(G.n) @ res.V.T - res.Z)) < 1e-7

    def test_unrealizable_system_raises(self):
        G = LinearQSystem(A=np.eye(2), B=np.zeros((2, 2)), C=np.array([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(NoSkewSolution):
            check_pr2(G)

    def test_scattering_matrix_enters_both_checks(self):
        # the cavity behind a phase shifter: C = D C_cav is realizable with J_n
        G = build_linear_system(cavity_spec())
        D = rotation(0.6)
        shifted = LinearQSystem(A=G.A, B=G.B, C=D @ G.C, D=D)
        assert check_pr1(shifted) <= 1e-12
        assert np.max(np.abs(check_pr2(shifted).Z - symplectic_form(1))) < 1e-8
        # the same D with the unrotated C is not realizable
        unrotated = LinearQSystem(A=G.A, B=G.B, C=G.C, D=D)
        assert check_pr1(unrotated) > 0.1
        with pytest.raises(NoSkewSolution):
            check_pr2(unrotated)

    def test_noiseless_amplifier_is_not_realizable(self):
        # D = 2 I amplifies both quadratures without added noise: D J D^T = 4 J
        G = build_linear_system(cavity_spec())
        amplifier = LinearQSystem(A=G.A, B=G.B, C=2 * G.C, D=2 * np.eye(2))
        assert check_pr1(amplifier) >= 1.0
        with pytest.raises(NoSkewSolution):
            check_pr2(amplifier)

    def test_skew_factorization_roundtrip(self, rng):
        for n in (1, 2, 3):
            V = random_symplectic(n, rng).V
            Z = V @ symplectic_form(n) @ V.T
            W = skew_symplectic_factor(Z)
            assert np.max(np.abs(W @ symplectic_form(n) @ W.T - Z)) < 1e-8

    @given(n=st.integers(1, 5), c=st.sampled_from([-50.0, -1.7, -1e-3, 1e-3, 1.7, 50.0]),
           seed=st.integers(0, 2**32 - 1), canonical=st.booleans())
    def test_skew_factor_property(self, n, c, seed, canonical):
        # Z = c V0 J_n V0^T, or +-J_n, whose s_i are all equal
        Jn = symplectic_form(n)
        V0 = random_symplectic(n, np.random.default_rng(seed)).V
        Z = np.sign(c) * Jn if canonical else c * V0 @ Jn @ V0.T
        V = skew_symplectic_factor(Z)
        assert np.max(np.abs(V @ Jn @ V.T - Z)) <= 1e-13 * max(1.0, np.abs(Z).max())

    def test_singular_skew_matrix_raises(self):
        Z = np.zeros((4, 4))
        Z[:2, :2] = symplectic_form(1)  # the second 2x2 block is zero
        with pytest.raises(SingularZ):
            skew_symplectic_factor(Z)


class TestTransferFunction:
    def test_no_coupling_gives_d(self):
        G = LinearQSystem(A=-np.eye(2), B=np.zeros((2, 2)), C=np.zeros((2, 2)))
        assert np.max(np.abs(transfer_function(G, 0.3 + 0.1j) - np.eye(2))) < 1e-14

    def test_resolvent_decay(self):
        G = build_linear_system(cavity_spec())
        xi = transfer_function(G, 1e8)
        assert np.max(np.abs(xi - G.D)) < 1e-6

    def test_matches_dense_solve_oracle(self, rng):
        G = build_linear_system(cavity_spec())
        for w in rng.normal(size=6):
            xi = transfer_function(G, 1j * w)
            want = G.C @ np.linalg.inv(1j * w * np.eye(2) - G.A) @ G.B + G.D
            assert np.max(np.abs(xi - want)) < 1e-12

    def test_eigenvalue_raises(self):
        G = LinearQSystem(A=np.diag([1.0, -1.0]), B=np.zeros((2, 2)), C=np.zeros((2, 2)))
        with pytest.raises(SingularResolvent):
            transfer_function(G, 1.0)


class TestPowerSpectrum:
    def test_identity_transfer_returns_gamma(self):
        G = LinearQSystem(A=-np.eye(2), B=np.zeros((2, 2)), C=np.zeros((2, 2)))
        gam = GaussianInput(Gamma=np.diag([2.0, 0.5]))
        assert np.max(np.abs(power_spectrum(G, gam, 1.3) - gam.Gamma)) < 1e-14

    def test_hermitian_psd_vacuum(self, rng):
        G = build_linear_system(cavity_spec())
        vac = GaussianInput.vacuum()
        for w in rng.normal(scale=3.0, size=20):
            phi = power_spectrum(G, vac, w)
            assert np.max(np.abs(phi - phi.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(phi)[0] > -1e-9

    def test_requires_hurwitz(self):
        G = LinearQSystem(A=np.eye(2), B=np.zeros((2, 2)), C=np.zeros((2, 2)))
        with pytest.raises(NotHurwitz):
            power_spectrum(G, GaussianInput.vacuum(), 0.0)


class TestSymplecticTransform:
    def test_identity(self):
        G = build_linear_system(cavity_spec())
        H = symplectic_transform(G, SymplecticMatrix(V=np.eye(2)))
        assert np.max(np.abs(H.A - G.A)) < 1e-14

    def test_transfer_function_invariant(self, rng):
        G = build_linear_system(cavity_spec())
        for _ in range(5):
            V = random_symplectic(1, rng)
            H = symplectic_transform(G, V)
            for w in rng.normal(size=4):
                a = transfer_function(G, 1j * w)
                b = transfer_function(H, 1j * w)
                assert np.max(np.abs(a - b)) < 1e-8

    def test_spectrum_invariant(self, rng):
        G = build_linear_system(cavity_spec())
        vac = GaussianInput.vacuum()
        V = random_symplectic(1, rng)
        H = symplectic_transform(G, V)
        for w in (0.0, 0.7, -2.1):
            assert np.max(np.abs(power_spectrum(G, vac, w) - power_spectrum(H, vac, w))) < 1e-8

    def test_validation(self):
        with pytest.raises(ValidationError):
            SymplecticMatrix(V=np.diag([2.0, 2.0]))


class TestMinimality:
    def test_cavity_minimal(self):
        assert minimality_check(build_linear_system(cavity_spec()))

    def test_no_input_not_minimal(self):
        G = LinearQSystem(A=-np.eye(2), B=np.zeros((2, 2)), C=np.eye(2))
        assert not minimality_check(G)

    def test_decoupled_mode_not_minimal(self):
        # two modes, field coupled to the first only
        n = 2
        R = np.zeros((4, 4))
        R[:2, :2] = 0.5 * np.eye(2)
        R[2:, 2:] = 0.7 * np.eye(2)
        K = np.array([0.5, 0.5j, 0.0, 0.0])
        G = build_linear_system(QuadraticSpec(R=R, K=K))
        assert not minimality_check(G)


class TestKalman:
    def test_trivial_system(self):
        G = LinearQSystem(A=-np.eye(2), B=np.zeros((2, 2)), C=np.zeros((2, 2)))
        gain, Q = kalman_gain(G, "Q")
        assert np.max(np.abs(gain)) < 1e-10
        assert np.max(np.abs(Q)) < 1e-10

    def test_cavity_riccati(self):
        G = build_linear_system(cavity_spec())
        for quad in ("Q", "P"):
            gain, Q = kalman_gain(G, quad)
            assert np.linalg.eigvalsh(Q)[0] >= -1e-10
            row = {"Q": 0, "P": 1}[quad]
            Cm = G.C[row : row + 1]
            Dm = G.D[row : row + 1]
            res = (
                G.A @ Q + Q @ G.A.T + G.B @ G.B.T
                - np.outer(gain, gain) * float((Dm @ Dm.T)[0, 0])
            )
            assert np.max(np.abs(res)) < 1e-8
            closed = G.A - np.outer(gain, Cm[0])
            assert np.all(np.linalg.eigvals(closed).real < 0)

    def test_random_realizable_closed_loops(self, rng):
        for _ in range(8):
            G = random_stable_physical(1, rng)
            gain, Q = kalman_gain(G, "Q")
            closed = G.A - np.outer(gain, G.C[0])
            assert np.all(np.linalg.eigvals(closed).real < 0)

    def test_requires_hurwitz(self):
        G = LinearQSystem(A=np.eye(2), B=np.zeros((2, 2)), C=np.eye(2))
        with pytest.raises(NotHurwitz):
            kalman_gain(G, "Q")


class TestInnovationForm:
    def test_pure_noise_variance(self):
        G = LinearQSystem(A=-np.eye(2), B=np.zeros((2, 2)), C=np.zeros((2, 2)))
        n = 40000
        f = np.zeros((n, 2))
        rec, _ = simulate_innovation_form(
            G, np.zeros(2), "Q", f, T=n * 1e-3, dt=1e-3, seed=0
        )
        var = rec.increments.var()
        assert abs(var - 1e-3) < 3 * 1e-3 * np.sqrt(2 / n)

    def test_noise_free_matches_ode_oracle(self):
        from scipy.integrate import solve_ivp

        G = build_linear_system(cavity_spec())
        gain, _ = kalman_gain(G, "Q")
        dt, T = 1e-4, 2.0
        n = int(T / dt)
        f = np.zeros((n, 2))
        f[:, 0] = 1.0  # step input on the Q channel
        rec, traj = simulate_innovation_form(G, gain, "Q", f, T=T, dt=dt, seed=0,
                                             noise=False)
        sol = solve_ivp(
            lambda t, z: G.A @ z + G.B @ np.array([1.0, 0.0]),
            (0, T), np.zeros(2), t_eval=[T], rtol=1e-10, atol=1e-12,
        )
        assert np.max(np.abs(traj[-1] - sol.y[:, -1])) < 1e-4

    def test_innovations_reconstruct_white(self):
        G = build_linear_system(cavity_spec())
        gain, _ = kalman_gain(G, "Q")
        dt, T = 1e-3, 40.0
        n = int(T / dt)
        rng = np.random.default_rng(5)
        f = rng.choice([-1.0, 1.0], size=(n, 2))
        rec, _ = simulate_innovation_form(G, gain, "Q", f, T=T, dt=dt, seed=6)
        # replay the one-step predictor to recover the innovations
        z = np.zeros(2)
        nu = np.empty(n)
        Cm, Dm = G.C[0], G.D[0]
        for k in range(n):
            pred = (Cm @ z) * dt + (Dm @ f[k]) * dt
            nu[k] = rec.increments[k] - pred
            z = z + (G.A @ z + G.B @ f[k]) * dt + gain * nu[k]
        r1 = (nu[:-1] @ nu[1:]) / (nu @ nu)
        assert abs(r1) < 3 / np.sqrt(n)

    @pytest.mark.parametrize("T, dt", [(1.0, -0.05), (1.0, 0.0), (0.0, 0.05), (-1.0, 0.05),
                                       (np.inf, 0.05), (1.0, np.nan), (0.05, 0.06)])
    def test_grid_checked_before_drawing(self, T, dt):
        G = build_linear_system(cavity_spec())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="dt and T must be positive"):
                simulate_innovation_form(G, np.zeros(2), "Q", np.zeros((20, 2)),
                                         T=T, dt=dt, seed=0)

    def test_step_guard(self):
        G = LinearQSystem(A=-300 * np.eye(2), B=np.zeros((2, 2)), C=np.zeros((2, 2)))
        with pytest.raises(StepTooLarge):
            simulate_innovation_form(G, np.zeros(2), "Q", np.zeros((10, 2)),
                                     T=0.01, dt=1e-3, seed=0)


class TestGammaRigidity:
    def test_vacuum_is_not_rigid(self):
        assert not gamma_rigidity(np.eye(2), n_samples=50, seed=1)

    def test_asymmetric_gamma_is_rigid_under_sampling(self):
        assert gamma_rigidity(np.diag([2.0, 0.5]), n_samples=200, seed=2)
