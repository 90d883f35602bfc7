"""Accuracy against extended-precision references, rebuilt in mpmath at 40 digits or,
for the Hankel factor, in ``np.longdouble``.

Each test recomputes what a kernel promises from its output alone (the public API's,
except for the counting score, which only ``mle`` and the Fisher estimators read) and
prints the measured error.  The slow, obvious rebuilds live in ``reference.py``,
except the sampler's survival law below.  The bounds were measured on the
implementation that preceded the current one and are pinned: a change may not loosen
them.
"""

import functools
import json
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from qiokit import sysid
from qiokit.families import ParameterFamily
from qiokit.filtering import _loglik_table, log_likelihood
from qiokit.operators import QMarkovModel
from qiokit.sysid import SysIdDataset, fpe_order_select, prbs_pair, subspace_id
from qiokit.trajectories import CountingRecord, simulate_counting, trajectory_rng

from conftest import SM, SX, driven_qubit, random_ergodic_model, tangent as _tangent
from reference import counting_loglik, hankel_r
from test_sysid import cavity_dataset

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
RECORDS = {  # model, initial state, horizon, seed, index, the jumps checked, bound
    "driven qubit": (driven_qubit(), MIXED2, 2000.0, 1, 2, slice(0, 50), BOUND),
    "d = 3": (random_ergodic_model(3, np.random.default_rng(3), 0.7), np.eye(3) / 3, 300.0,
              7, 0, slice(0, 50), BOUND),
    "exceptional point": (driven_qubit(omega=0.5), MIXED2, 2000.0, 9, 0, slice(0, 50), BOUND),
    # jumps past the first batch of the renewal path, at t ~ 900 to 1050, where half an ulp
    # of t is about 6e-14: the bound is the largest residual of the one-wait-at-a-time
    # sampler on them (2.4e-14), rounded up
    "driven qubit, jumps 300-350": (driven_qubit(), MIXED2, 2000.0, 1, 2, slice(300, 350),
                                    3e-14),
}


@pytest.mark.parametrize("label", RECORDS)
def test_exact_sampler_solves_the_survival_law(label):
    # each waiting time is the root of S_k(tau) = u_k: a run of jumps of an exact record
    model, rho0, T, seed, index, jumps, bound = RECORDS[label]
    rec, _ = simulate_counting(model, rho0, T, 0.01, seed, index=index, keep_states=False,
                               method="exact")
    assert rec.n_jumps >= jumps.stop
    err = survival_residuals(model, rho0, rec.jumps[:jumps.stop], seed, index)[jumps]
    print(f"{label}: largest |S_k(tau_k) - u_k| {err.max():.2e}, median {np.median(err):.2e}")
    assert err.max() <= bound


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


CAVITY_2000 = Path(__file__).with_name("data") / "cavity_2000.json"


@functools.lru_cache(maxsize=None)
def cavity_2000():
    """A 2,000-sample cavity dataset (1,400 estimation samples), read from a file in the
    CLI's dataset schema: ``cavity_dataset(seed=0, T=100.0)``, frozen at the bits the
    subspace rows below were pinned on."""
    doc = json.loads(CAVITY_2000.read_text())
    return SysIdDataset(dt=doc["dt"], inputs=doc["inputs"], outputs=doc["outputs"],
                        split_index=doc["split_index"])


def test_cavity_2000_is_the_cavity_process():
    # a stale or edited file fails: its inputs are the PRBS exactly, and its outputs
    # are the simulator's to within round-off of the recursion that builds them
    data, want = cavity_2000(), cavity_dataset(seed=0, T=100.0)[1]
    assert np.array_equal(data.inputs, prbs_pair(2000, 50.0, 0))
    assert data.split_index == 1400 and data.dt == want.dt
    assert np.max(np.abs(data.outputs - want.outputs)) <= 1e-12


def identify(horizon):
    """Markov parameters C Ad^k Bd (k < 10) and singular values of the order-1 subspace
    fit, and the FPE order and table over the orders the horizon allows."""
    data = cavity_2000()
    est = subspace_id(data, 1, horizon)
    markov = np.array([est.C @ np.linalg.matrix_power(est.Ad, k) @ est.Bd for k in range(10)])
    order, table = fpe_order_select(data, [n for n in (1, 2, 3) if 2 * n < horizon], horizon)
    return markov, est.singular_values, order, table


def relative(x, want):
    return float(np.max(np.abs(x - want)) / np.max(np.abs(want)))


# The rows read a frozen dataset (``cavity_2000``), not one simulated at test time.  Their
# bounds hold the dataset's own round-off as well as the factor's: the same 2,000 samples
# rebuilt by a plain float64 recursion, outputs moved by at most 2.8e-14, read
# singular-value errors of 5.2e-16 at horizon 10 (bound 4e-16) and 4.3e-16 at horizon 5
# (bound 4e-17).  So the file keeps the Hankel factor's check apart from the rounding of
# the simulator's recursion.
#
# horizon: pinned bounds on the relative errors of R (row by row, up to row signs), of
# the singular values and the Markov parameters (against the largest), and of the FPE
# table.  The stack has r = 6 * horizon columns: 60 at the default horizon 10, 30 and 18
# at horizons 5 and 3, neither a whole number of 16-column QR panels.  Each bound is the
# larger of two measurements, rounded up: the blocked QR of 1,024-row blocks that
# preceded the one-call QR, and the one-call QR.
SUBSPACE_ROWS = {10: (7e-16, 4e-16, 2e-14, 6e-15), 5: (5e-16, 4e-17, 2e-14, 2e-15),
                 3: (4e-16, 2e-15, 5e-13, 7e-14)}


@pytest.mark.parametrize("horizon", SUBSPACE_ROWS)
def test_subspace_fit_matches_the_reference(horizon, monkeypatch):
    # the same fits with the Hankel R factor replaced by its extended-precision reference
    bounds, fit, factors = SUBSPACE_ROWS[horizon], identify(horizon), []
    factor = sysid._hankel_r

    def reference_factor(u, y, i):
        factors.append((factor(u, y, i), hankel_r(u, y, i)))
        return factors[-1][1].astype(float)

    monkeypatch.setattr(sysid, "_hankel_r", reference_factor)
    want = identify(horizon)
    r_err = max(float(np.max(np.linalg.norm(np.sign(np.diag(R))[:, None] * R - ref, axis=1)
                             / np.linalg.norm(ref, axis=1))) for R, ref in factors)
    nz = want[1] > 0
    errs = (r_err, relative(fit[1][nz], want[1][nz]), relative(fit[0], want[0]),
            max(abs(fit[3][n] / want[3][n] - 1) for n in want[3]))
    print(f"horizon {horizon}: relative errors R {errs[0]:.2e}, singular values "
          f"{errs[1]:.2e}, Markov parameters {errs[2]:.2e}, FPE {errs[3]:.2e}")
    assert np.array_equal(fit[1] > 0, nz) and fit[2] == want[2]
    assert all(e <= b for e, b in zip(errs, bounds))
