"""Markov QFI tests: gauge-orbit nullity, phase-family identity, conditional QFI."""

import numpy as np
import pytest

from qiokit.estimation import counting_rate_and_variance
from qiokit.exceptions import NotErgodic, ValidationError
from qiokit.families import ParameterFamily
from qiokit.markov_qfi import (
    GaugeElement,
    conditional_qfi,
    gauge_transform,
    qfi_rate,
    qfi_rate_raw,
)
from qiokit.filtering import run_filter
from qiokit.operators import QMarkovModel, qfi_matrix, spectral_info
from qiokit.trajectories import simulate_counting, simulate_homodyne

from conftest import SM, SX, SZ, decay_qubit, driven_qubit, random_ergodic_model, random_hermitian

MIXED = np.eye(2, dtype=complex) / 2
ZERO2 = np.zeros((2, 2), dtype=complex)


def random_unitary(d, rng):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()


def hs_direction(model):
    """Hamiltonian-shift orbit direction: Hdot = I, Ldot = 0."""
    d = model.dim
    return ParameterFamily.affine(
        model, [np.eye(d)], [np.zeros((d, d))], domain=[[-1, 1]]
    )


def uc_direction(model, X):
    """Unitary-conjugation orbit direction: Hdot = i[H,X], Ldot = i[L,X]."""
    hdot = 1j * (model.H @ X - X @ model.H)
    ldot = 1j * (model.L @ X - X @ model.L)
    hdot = (hdot + hdot.conj().T) / 2
    return ParameterFamily.affine(model, [hdot], [ldot], domain=[[-1, 1]])


class TestQFIRate:
    def test_hamiltonian_shift_is_null(self):
        fam = hs_direction(driven_qubit())
        F = qfi_rate(fam, [0.0])
        assert abs(F[0, 0]) < 1e-9

    def test_unitary_conjugation_is_null(self, rng):
        for d in (2, 3):
            model = random_ergodic_model(d, rng)
            for _ in range(5):
                X = random_hermitian(d, rng)
                F = qfi_rate(uc_direction(model, X), [0.0])
                assert abs(F[0, 0]) < 1e-8

    def test_phase_family_equals_four_variance(self, rng):
        for d in (2, 3):
            for _ in range(3):
                model = random_ergodic_model(d, rng)
                fam = ParameterFamily.phase_family(model, domain=[[-1, 1]])
                F = qfi_rate(fam, [0.0])
                _, V = counting_rate_and_variance(model)
                assert abs(F[0, 0] - 4 * V) < 1e-8 * max(1.0, 4 * V)

    def test_matrix_symmetric_psd(self, rng):
        model = random_ergodic_model(2, rng)
        hs = hs_direction(model)
        fam = ParameterFamily.affine(
            model,
            [0.5 * SX, random_hermitian(2, rng)],
            [ZERO2, 0.1 * SM],
            domain=[[-1, 1], [-1, 1]],
        )
        F = qfi_rate(fam, [0.1, -0.2])
        assert np.max(np.abs(F - F.T)) < 1e-12
        assert np.linalg.eigvalsh(F)[0] > -1e-9

    def test_raw_matrix_exposed(self):
        fam = ParameterFamily.phase_family(driven_qubit(), domain=[[-1, 1]])
        raw = qfi_rate_raw(fam, [0.0])
        F = qfi_rate(fam, [0.0])
        assert abs(4 * raw[0, 0].real - F[0, 0]) < 1e-12

    def test_not_ergodic_raises(self):
        fam = ParameterFamily.phase_family(decay_qubit(), domain=[[-1, 1]])
        with pytest.raises(NotErgodic):
            qfi_rate(fam, [0.0])


class TestGaugeTransform:
    def test_identity_element(self):
        m = driven_qubit()
        g = GaugeElement(r=0.0, W=np.eye(2))
        out = gauge_transform(m, g)
        assert np.max(np.abs(out.H - m.H)) < 1e-14
        assert np.max(np.abs(out.L - m.L)) < 1e-14

    def test_unitarity_enforced(self):
        with pytest.raises(ValidationError):
            GaugeElement(r=0.0, W=np.diag([1.0, 2.0]))

    def test_output_statistics_invariant(self, rng):
        m = driven_qubit()
        mu0, v0 = counting_rate_and_variance(m)
        gap0 = spectral_info(m).gap
        for _ in range(5):
            g = GaugeElement(r=rng.normal(), W=random_unitary(2, rng))
            gm = gauge_transform(m, g)
            mu1, v1 = counting_rate_and_variance(gm)
            assert abs(mu1 - mu0) < 1e-10
            assert abs(v1 - v0) < 1e-8
            assert abs(spectral_info(gm).gap - gap0) < 1e-9
            assert spectral_info(gm).is_ergodic


class TestConditionalQFI:
    def test_theta_independent_is_zero(self):
        fam = ParameterFamily.affine(driven_qubit(), [ZERO2], [ZERO2],
                                     domain=[[0, 1]])
        rec, _ = simulate_homodyne(driven_qubit(), MIXED, T=1.0, dt=1e-3, seed=1)
        assert conditional_qfi(fam, 0.5, MIXED, rec) == pytest.approx(0.0, abs=1e-12)

    def test_step_halving_stability(self):
        base = QMarkovModel(H=ZERO2, L=SM)
        fam = ParameterFamily.affine(base, [0.5 * SX], [ZERO2], domain=[[0.2, 2.0]])

        def central_qfi(rec, h):
            plus, center, minus = (run_filter(fam.model([1.0 + s]), MIXED, rec, dt=1e-3)
                                   .final_state for s in (h, 0.0, -h))
            drho = (plus - minus) / (2 * h)
            drho = (drho + drho.conj().T) / 2
            drho = drho - (np.trace(drho).real / 2) * np.eye(2)
            return qfi_matrix(center, [drho])[0, 0]

        for seed in (2, 3):
            rec, _ = simulate_homodyne(fam.model([1.0]), MIXED, T=2.0, dt=1e-3, seed=seed)
            a = conditional_qfi(fam, 1.0, MIXED, rec, dt=1e-3)
            coarse, fine = central_qfi(rec, 1e-4), central_qfi(rec, 5e-5)
            # the exact tangent against a Richardson step of the public filter's differences
            assert a == pytest.approx((4 * fine - coarse) / 3, rel=1e-9, abs=0.0)
            assert abs(a - fine) <= 0.01 * max(abs(a), abs(fine), 1e-12)

    def test_terminal_jump_state_carries_no_information(self):
        # a record ending at a jump leaves |g><g| for every theta: zero QFI
        from qiokit.trajectories import CountingRecord

        base = QMarkovModel(H=ZERO2, L=SM)
        fam = ParameterFamily.affine(base, [0.5 * SX], [ZERO2], domain=[[0.2, 2.0]])
        rec = CountingRecord(horizon=1.0, jumps=[1.0])
        assert conditional_qfi(fam, 1.0, MIXED, rec, dt=1e-2) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_positive_on_informative_record(self):
        base = QMarkovModel(H=ZERO2, L=SM)
        fam = ParameterFamily.affine(base, [0.5 * SX], [ZERO2], domain=[[0.2, 2.0]])
        rec, _ = simulate_homodyne(fam.model([1.0]), MIXED, T=2.0, dt=1e-3, seed=3)
        assert conditional_qfi(fam, 1.0, MIXED, rec, dt=1e-3) >= 0.0

    def test_combined_bound_below_mle_mse(self):
        # 1/(I_record + E[conditional QFI]) lower-bounds the MLE MSE
        from qiokit.estimation import mc_classical_fisher, mle

        fam = rabi_family()
        T, dt, reps = 20.0, 2e-2, 40
        errors = []
        cond = []
        for rep, rec in enumerate(seed_900_records(reps)):
            res = mle(fam, [rec], MIXED, dt=dt, grid_points=15)
            errors.append((res.theta[0] - 1.0) ** 2)
            if rep < 15:  # conditional_qfi reads the exact tangent: finite on pure states too
                cond.append(conditional_qfi(fam, 1.0, MIXED, rec, dt=dt))
        mse = float(np.mean(errors))
        mse_se = float(np.std(errors, ddof=1) / np.sqrt(reps))
        fisher = mc_classical_fisher(fam, 1.0, MIXED, "counting", T=T, dt=dt,
                                     n_traj=200, seed=901)
        bound = 1.0 / (fisher.value + np.mean(cond))
        assert bound <= mse + 3 * mse_se

    def test_counting_matches_richardson_difference_of_filter_states(self):
        # after its first jump the state of a rank-one L is pure, so its QFI is
        # F = 2 Tr(rho'^2), rho' here from the public filter by Richardson extrapolation
        fam = rabi_family()

        def final(rec, theta):
            return run_filter(fam.model([theta]), MIXED, rec, dt=2e-2).final_state

        for rec in seed_900_records(15):
            assert rec.n_jumps > 0
            rho = final(rec, 1.0)
            assert abs(1.0 - np.trace(rho @ rho).real) < 1e-12

            def central(h):
                return (final(rec, 1.0 + h) - final(rec, 1.0 - h)) / (2 * h)

            drho = (4 * central(2.5e-4) - central(5e-4)) / 3
            want = 2.0 * np.trace(drho @ drho).real
            got = conditional_qfi(fam, 1.0, MIXED, rec, dt=2e-2)
            assert np.isfinite(got)
            assert got == pytest.approx(want, rel=1e-8, abs=0.0)


def rabi_family():
    base = QMarkovModel(H=ZERO2, L=SM)
    return ParameterFamily.affine(base, [0.5 * SX], [ZERO2], domain=[[0.2, 2.0]])


def seed_900_records(n):
    """Counting records of the Rabi family at theta = 1: T = 20, dt = 2e-2, seed 900."""
    model = rabi_family().model([1.0])
    return [simulate_counting(model, MIXED, T=20.0, dt=2e-2, seed=900, index=rep,
                              keep_states=False)[0] for rep in range(n)]
