"""Accuracy against extended-precision references, rebuilt in mpmath at 40 digits.

Each test recomputes what a kernel promises from the public API's output alone
and prints the measured error.  The bounds were measured on the implementation
that preceded the current one and are pinned: a change may not loosen them.
"""

import mpmath as mp
import numpy as np
import pytest

from qiokit.trajectories import simulate_counting, trajectory_rng

from conftest import driven_qubit, random_ergodic_model

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
