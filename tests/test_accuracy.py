"""Accuracy against extended-precision references, rebuilt in mpmath at 40 digits.

Each test recomputes what a kernel promises from its output alone (the public API's,
except for the counting score, which only ``mle`` and the Fisher estimators read) and
prints the measured error.  The slow, obvious rebuilds live in ``reference.py``,
except the sampler's survival law below.  The bounds were measured on the
implementation that preceded the current one and are pinned: a change may not loosen
them.
"""

import functools

import mpmath as mp
import numpy as np
import pytest

from qiokit.families import ParameterFamily, _tangent
from qiokit.filtering import _loglik_table, log_likelihood
from qiokit.operators import QMarkovModel
from qiokit.trajectories import CountingRecord, simulate_counting, trajectory_rng

from conftest import SM, SX, driven_qubit, random_ergodic_model
from reference import counting_loglik

MIXED2 = np.eye(2, dtype=complex) / 2


def _trace(x):
    return mp.re(sum(x[i, i] for i in range(x.rows)))


def survival_residuals(model, rho0, jumps, seed, index):
    """|S_k(tau_k) - u_k| per jump, in 40 digits.  S_k is the survival Tr(M rho_k M^dag),
    M = expm(-G tau), G = iH + L^dag L/2, of the post-jump state rho_k rebuilt from the
    record's own jump times, tau_k the record's k-th waiting time and u_k the uniform the
    sampler drew for jump k from ``trajectory_rng(seed, index)``."""
    rng = trajectory_rng(seed, index)
    with mp.workdps(40):
        H, L = (mp.matrix(x.tolist()) for x in (model.H, model.L))
        G, rho, prev = 1j * H + L.H * L / 2, mp.matrix(np.asarray(rho0).tolist()), mp.mpf(0)
        out = []
        for t in jumps:
            M = mp.expm(-G * (mp.mpf(t) - prev))
            rho = M * rho * M.H
            out.append(float(abs(_trace(rho) - rng.random())))
            rho = L * rho * L.H
            rho /= _trace(rho)
            prev = mp.mpf(t)
    return np.array(out)


# The jump times are float64 absolute times, so a waiting time is known to half an ulp of
# its jump time: about 1e-14 at t ~ 100, times a rate below 1.  The bound is the largest
# residual of the Brent-method sampler on these records (4.9e-15, on d = 3), rounded up.
BOUND = 5e-15
RECORDS = {  # model, initial state, horizon, seed, index
    "driven qubit": (driven_qubit(), MIXED2, 2000.0, 1, 2),
    "d = 3": (random_ergodic_model(3, np.random.default_rng(3), 0.7), np.eye(3) / 3, 300.0,
              7, 0),
    "exceptional point": (driven_qubit(omega=0.5), MIXED2, 2000.0, 9, 0),
}


@pytest.mark.parametrize("label", RECORDS)
def test_exact_sampler_solves_the_survival_law(label):
    # each waiting time is the root of S_k(tau) = u_k: the first 50 jumps of an exact record
    model, rho0, T, seed, index = RECORDS[label]
    rec, _ = simulate_counting(model, rho0, T, 0.01, seed, index=index, keep_states=False,
                               method="exact")
    assert rec.n_jumps >= 50
    err = survival_residuals(model, rho0, rec.jumps[:50], seed, index)
    print(f"{label}: largest |S_k(tau_k) - u_k| {err.max():.2e}, median {np.median(err):.2e}")
    assert err.max() <= BOUND


DT = 1e-2
RABI = ParameterFamily.affine(QMarkovModel(H=np.zeros((2, 2)), L=SM), [0.5 * SX],
                              [np.zeros((2, 2))], domain=[[0.2, 2.0]])


@functools.lru_cache(maxsize=None)
def criterion_7_record(index):
    """Exact record ``index`` of criterion 7: the Rabi family at its true theta = 1,
    T = 2000, dt = 1e-2, seed 707."""
    return simulate_counting(RABI.model([1.0]), MIXED2, 2000.0, DT, 707, index=index,
                             keep_states=False, method="exact")[0]


def rabi_row(index, theta):
    """(model, initial state, record, dt): criterion-7 record ``index`` under theta."""
    return RABI.model([theta]), MIXED2, criterion_7_record(index), DT


def exact_row(model, rho0, T, seed):
    """(model, initial state, record, dt): an exact record of the model, index 0."""
    return model, rho0, simulate_counting(model, rho0, T, DT, seed, keep_states=False,
                                          method="exact")[0], DT


def dark_row(H, L, rho0, T, jumps, dt):
    """(model, initial state, record, dt): a given record whose stretch without jumps is
    long enough for the trace to leave the float range unless the engine renormalizes
    within it."""
    return QMarkovModel(H=H, L=L), rho0, CountingRecord(horizon=T, jumps=jumps), dt


E01 = np.outer(np.eye(3)[0], np.eye(3)[1])  # |0><1| in d = 3
# label: a function giving (model, initial state, record, dt), and the pinned bound on
# |loglik - reference|.
# Record 55 at theta = 1.91 has a jump just after a Rabi node, where the score is about 5e5.
# The exceptional point (Omega = kappa/2) has a near-defective no-jump generator, which the
# engine takes by matrix powers; it and the d = 3 record end in a fractional cell.
# The last two rows are float-range guards, which read -inf without renormalization marks:
# a strongly damped qubit at the step guard's 0.09 with no jump in 10^6 cells, and a
# reducible d = 3 model (level 2 decoupled) whose state after its one jump has no weight
# on the slowest mode, so that scaling a stretch by that mode would not keep it in range.
LOGLIK_ROWS = {
    "record 55 at 1.91": (lambda: rabi_row(55, 1.91), 3e-8),
    "record 55 at 1.82": (lambda: rabi_row(55, 1.82), 3e-11),
    "record 4 at 1.91": (lambda: rabi_row(4, 1.91), 4e-11),
    "record 2 at 1.82": (lambda: rabi_row(2, 1.82), 3e-11),
    "record 0 at 1.0": (lambda: rabi_row(0, 1.0), 3e-11),
    "exceptional point": (lambda: exact_row(driven_qubit(omega=0.5), MIXED2, 2000.005, 9), 2e-12),
    "d = 3": (lambda: exact_row(random_ergodic_model(3, np.random.default_rng(3), 0.7),
                                np.eye(3) / 3, 300.004, 7), 1e-12),
    "damped qubit, dark": (lambda: dark_row(30 * SX, np.sqrt(90) * SM, MIXED2, 1000.0, [], 1e-3),
                           7e-11),
    "reducible d = 3": (lambda: dark_row(0.5 * (E01 + E01.T), E01, np.eye(3) / 3, 2000.0, [0.5],
                                         1e-2), 3e-11),
}


@pytest.mark.parametrize("label", LOGLIK_ROWS)
def test_counting_loglik_matches_the_reference(label):
    # the engine's log-likelihood against the scheme rebuilt from the record alone
    build, bound = LOGLIK_ROWS[label]
    model, rho0, rec, dt = build()
    want = counting_loglik(model.H, model.L, rho0, dt, rec.horizon, rec.jumps)
    err = float(abs(log_likelihood(model, rho0, rec, dt=dt) - want))
    print(f"{label}: {rec.n_jumps} jumps, |loglik - reference| {err:.2e}")
    assert err <= bound


# label: (criterion-7 record, theta, pinned bound on the score's relative error)
SCORE_ROWS = {"record 55 at 1.91": (55, 1.91, 3e-8), "record 0 at 1.0": (0, 1.0, 6e-14)}


@pytest.mark.parametrize("label", SCORE_ROWS)
def test_counting_score_matches_the_reference(label):
    # the exact tangent against a central difference of the reference, h = 1e-15 at 40
    # digits: its truncation and rounding are both far below the bounds
    index, theta, bound = SCORE_ROWS[label]
    rec, m = criterion_7_record(index), RABI.model([theta])
    score = _loglik_table(m.H, m.L, MIXED2, [rec], DT, 1.0, _tangent(RABI, theta)).score[0, 0]
    with mp.workdps(40):
        th, h = mp.mpf(theta), mp.mpf("1e-15")

        def loglik(x):  # H = x sx / 2
            return counting_loglik([[0, x / 2], [x / 2, 0]], SM, MIXED2, DT, rec.horizon,
                                   rec.jumps)

        want = (loglik(th + h) - loglik(th - h)) / (2 * h)
        err = float(abs(score - want) / abs(want))
    print(f"{label}: score {score:.6g}, relative error {err:.2e}")
    assert err <= bound
