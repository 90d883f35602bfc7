"""Quantum filter, Zakai equation and trajectory log-likelihoods.

The likelihood of a record is log Tr of the unnormalized (Zakai) state at
the horizon; the filter is the normalized Zakai solution, so the two are
one integration scheme here (see ``_integrators``).  For counting records
the reference Poisson intensity enters the log-likelihood in closed form,
``lam*T - N log(lam)``, which makes the intensity-shift identity

    loglik(lam) - loglik(1) = (lam - 1) T - N log(lam)

exact and the maximizer over model parameters independent of ``lam``.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import _integrators as integ
from .exceptions import ValidationError
from .operators import QMarkovModel, _check_arguments, _state_array
from .trajectories import (
    CountingRecord,
    DiffusiveRecord,
    FilterTrajectory,
    MeasurementRecord,
    _check_intensity,
    _record_kind,
    _record_list,
    _step_guard,
)

__all__ = [
    "ZakaiTrajectory",
    "run_filter",
    "run_zakai",
    "log_likelihood",
    "log_likelihood_many",
]

DEFAULT_DT = 1e-3


@dataclass(frozen=True)
class ZakaiTrajectory:
    """Unnormalized conditional states in scaled form.

    ``states[k] * exp(logtrace[k])`` is the mathematical Zakai state at
    ``times[k]``; the split keeps long records away from floating-point
    underflow.  ``logtrace[k]`` itself is log Tr of the unnormalized state,
    i.e. the running log-likelihood, and is -inf from the first
    likelihood-zero event on (counting jump at zero rate).
    """

    times: np.ndarray
    states: np.ndarray
    logtrace: np.ndarray

    @property
    def unnormalized_states(self) -> np.ndarray:
        """Materialize the Zakai states; may overflow for long records."""
        return self.states * np.exp(self.logtrace)[:, None, None]

    @property
    def loglik(self) -> float:
        return float(self.logtrace[-1])


def _replay(model: QMarkovModel, rho0, record, dt: float, lam: float, on_dark: str):
    """(times, states, logtrace) of the Zakai integration of one record, the
    filter and the Zakai equation alike; ``lam`` is the Poisson reference."""
    _check_intensity(lam)
    rho0 = _state_array(rho0, model.dim)
    if isinstance(record, DiffusiveRecord):
        _step_guard(model.L, record.dt)
        out = integ.sweep_diffusive(
            model.H, model.L, rho0, record.dt,
            dY=record.increments[None, :], keep_states=True, keep_logtrace=True,
        )
        return np.arange(len(record) + 1) * record.dt, out.states[0], out.logtrace[0]
    _step_guard(model.L, dt)
    out = integ.CountingLoglik(model.H, model.L, dt, lam=lam).replay(
        rho0, record.horizon, record.jumps, on_dark=on_dark
    )
    return out.times, out.states, out.logtrace


def run_filter(
    model: QMarkovModel, rho0, record: MeasurementRecord, *, dt: float = DEFAULT_DT,
) -> FilterTrajectory:
    """Run the normalized conditional-state filter against a record.

    Diffusive records carry their own grid; ``dt`` sets the integration
    grid for counting records (jumps are applied at their timestamps
    between grid steps).  Raises :class:`ZeroJumpRate` when a counting
    record jumps while the filter assigns zero jump rate.
    """
    times, states, logtrace = _replay(model, rho0, record, dt, 1.0, "raise")
    return FilterTrajectory(times=times, states=states, loglik=float(logtrace[-1]))


def run_zakai(
    model: QMarkovModel, rho0, record: MeasurementRecord,
    *, lam: float = 1.0, dt: float = DEFAULT_DT,
) -> ZakaiTrajectory:
    """Integrate the unnormalized (Zakai) equation against a record.

    For counting records the reference measure is Poisson with intensity
    ``lam``.  Likelihood-zero records do not raise; the log trace is -inf
    from the zero-rate jump on.
    """
    return ZakaiTrajectory(*_replay(model, rho0, record, dt, lam, "dead"))


def log_likelihood(
    model: QMarkovModel, rho0, record: MeasurementRecord,
    *, lam: float = 1.0, dt: float = DEFAULT_DT,
) -> float:
    """Trajectory log-likelihood, log Tr of the Zakai state at the horizon.

    Counting records run through the counting engine of ``run_zakai``,
    with the same value, without emitting the states; cost scales with
    the number of jumps.  Returns -inf for likelihood-zero records.
    ``rho0`` must be a density matrix of the model's dimension.
    """
    return float(log_likelihood_many(model, rho0, [record], lam=lam, dt=dt)[0])


def log_likelihood_many(
    model: QMarkovModel, rho0, records, *, lam: float = 1.0, dt: float = DEFAULT_DT,
) -> np.ndarray:
    """Log-likelihood of each record in a batch of one record kind.

    Diffusive records are grouped by grid (dt and length), each group one
    vectorized sweep, so records of any grids may share a batch; counting
    records are the rows of one engine sweep.  Each value equals
    ``log_likelihood`` of its record bit for bit.  ``records`` must be a list
    of records of one kind and ``rho0`` a density matrix of the model's
    dimension, or :class:`ValidationError` is raised.
    """
    return _loglik_table(model.H, model.L, rho0, records, dt, lam).loglik[0]


def _loglik_table(H, L, rho0, records, dt: float, lam: float, tangent=(), memo=None):
    """``loglik`` (n_models, n_records) and final states ``final`` (n_models,
    n_records, d, d) of every record under every model, ``H``, ``L`` one (d, d)
    model or an (n, d, d) stack.  Checks the record list and kind, the reference
    intensity, the initial state and the step guard of every model.  Counting
    records are the rows (model, record) of one engine sweep; diffusive records
    on a shared grid run in one sweep over model x record, one model as (d, d),
    so that each row has the bits of a simulated trajectory of that model.

    ``tangent = (dH, dL)``, with one model, dH and dL its (k, d, d) derivatives along k
    parameters, adds ``score`` (k, n_records) and ``dfinal`` (k, n_records, d, d): the exact
    derivatives that either engine carries.  ``memo`` (a dict) keeps counting event lists.
    """
    _check_intensity(lam)
    records, rho0 = _record_list(records), _state_array(rho0, L.shape[-1])
    n_models, n_rec, d = 1 if L.ndim == 2 else len(L), len(records), L.shape[-1]
    if records and _record_kind(records) is CountingRecord:
        _step_guard(L, dt)
        mi, ri = np.divmod(np.arange(n_models * n_rec), n_rec)  # row i n_rec + j: (i, j)
        out = integ.CountingLoglik(H, L, dt, lam, *tangent).sweep(
            rho0, [r.horizon for r in records], [r.jumps for r in records], mi, ri, memo=memo)
        out.loglik, out.final = out.loglik.reshape(n_models, n_rec), out.final.reshape(
            n_models, n_rec, d, d)
        return out
    out = SimpleNamespace(loglik=np.empty((n_models, n_rec)),
                          final=np.empty((n_models, n_rec, d, d), dtype=complex))
    if tangent:
        out.score, out.dfinal = np.empty((len(tangent[0]), n_rec)), np.empty(
            (len(tangent[0]), n_rec, d, d), dtype=complex)
    for step, n in dict.fromkeys((r.dt, len(r)) for r in records):
        _step_guard(L, step)
        idx = [j for j, r in enumerate(records) if (r.dt, len(r)) == (step, n)]
        dY = np.stack([records[j].increments for j in idx])
        Hs, Ls = H, L
        if L.ndim == 3:  # row (model i, record j) at i * len(idx) + j
            Hs, Ls = np.repeat(H, len(idx), axis=0), np.repeat(L, len(idx), axis=0)
            dY = np.tile(dY, (n_models, 1))
        sweep = integ.sweep_diffusive(Hs, Ls, rho0, step, *tangent, dY=dY)
        out.loglik[:, idx] = sweep.loglik.reshape(n_models, len(idx))
        out.final[:, idx] = sweep.final.reshape(n_models, len(idx), d, d)
        if tangent:
            out.score[:, idx], out.dfinal[:, idx] = sweep.score, sweep.dfinal
    return out


_check_arguments(globals())
