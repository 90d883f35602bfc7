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

import numpy as np

from . import _integrators as integ
from .exceptions import ValidationError
from .operators import QMarkovModel, _state_array
from .trajectories import (
    CountingRecord,
    DiffusiveRecord,
    FilterTrajectory,
    MeasurementRecord,
    _record_kind,
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


def run_filter(
    model: QMarkovModel, rho0, record: MeasurementRecord, *, dt: float = DEFAULT_DT,
) -> FilterTrajectory:
    """Run the normalized conditional-state filter against a record.

    Diffusive records carry their own grid; ``dt`` sets the integration
    grid for counting records (jumps are applied at their timestamps
    between grid steps).  Raises :class:`ZeroJumpRate` when a counting
    record jumps while the filter assigns zero jump rate.
    """
    rho0 = _state_array(rho0, model.dim)
    if isinstance(record, DiffusiveRecord):
        _step_guard(model.L, record.dt)
        out = integ.sweep_diffusive(
            model.H, model.L, rho0, record.dt,
            dY=record.increments[None, :], keep_states=True,
        )
        times = np.arange(len(record) + 1) * record.dt
        return FilterTrajectory(
            times=times, states=out.states[0], loglik=float(out.loglik[0])
        )
    if isinstance(record, CountingRecord):
        _step_guard(model.L, dt)
        out = integ.replay_counting(
            model.H, model.L, rho0, dt, record.horizon, record.jumps,
            keep_states=True, on_dark="raise",
        )
        return FilterTrajectory(
            times=out.times, states=out.states, loglik=float(out.loglik)
        )
    raise ValidationError(f"unsupported record type {type(record).__name__}")


def run_zakai(
    model: QMarkovModel, rho0, record: MeasurementRecord,
    *, lam: float = 1.0, dt: float = DEFAULT_DT,
) -> ZakaiTrajectory:
    """Integrate the unnormalized (Zakai) equation against a record.

    For counting records the reference measure is Poisson with intensity
    ``lam``.  Likelihood-zero records do not raise; the log trace is -inf
    from the zero-rate jump on.
    """
    if not lam > 0:
        raise ValidationError("reference intensity lam must be positive")
    rho0 = _state_array(rho0, model.dim)
    if isinstance(record, DiffusiveRecord):
        _step_guard(model.L, record.dt)
        out = integ.sweep_diffusive(
            model.H, model.L, rho0, record.dt,
            dY=record.increments[None, :], keep_states=True, keep_logtrace=True,
        )
        times = np.arange(len(record) + 1) * record.dt
        return ZakaiTrajectory(
            times=times, states=out.states[0], logtrace=out.logtrace[0]
        )
    if isinstance(record, CountingRecord):
        _step_guard(model.L, dt)
        out = integ.replay_counting(
            model.H, model.L, rho0, dt, record.horizon, record.jumps,
            lam=lam, keep_states=True, on_dark="dead",
        )
        return ZakaiTrajectory(
            times=out.times, states=out.states, logtrace=out.logtrace
        )
    raise ValidationError(f"unsupported record type {type(record).__name__}")


def log_likelihood(
    model: QMarkovModel, rho0, record: MeasurementRecord,
    *, lam: float = 1.0, dt: float = DEFAULT_DT,
) -> float:
    """Trajectory log-likelihood, log Tr of the Zakai state at the horizon.

    Counting records are evaluated with the counting likelihood engine,
    which is the grid replay's arithmetic with each stretch between jumps
    fused into one map; cost scales with the number of jumps.  Returns
    -inf for likelihood-zero records.  ``rho0`` must be a density matrix
    of the model's dimension.
    """
    return float(log_likelihood_many(model, rho0, [record], lam=lam, dt=dt)[0])


def log_likelihood_many(
    model: QMarkovModel, rho0, records, *, lam: float = 1.0, dt: float = DEFAULT_DT,
) -> np.ndarray:
    """Log-likelihood of each record in a homogeneous batch.

    Diffusive batches must share dt and length and are evaluated in one
    vectorized sweep; counting batches share one likelihood engine, built
    once, with one pass over each record's jumps.  Mixing record kinds
    raises :class:`ValidationError`, as does a ``rho0`` that is not a
    density matrix of the model's dimension.
    """
    if not lam > 0:
        raise ValidationError("reference intensity lam must be positive")
    records = list(records)
    if not records:
        return np.empty(0)
    kind = _record_kind(records)
    rho0 = _state_array(rho0, model.dim)
    if kind is DiffusiveRecord:
        dt0 = records[0].dt
        n0 = len(records[0])
        if any(r.dt != dt0 or len(r) != n0 for r in records):
            raise ValidationError("diffusive batch must share dt and length")
        _step_guard(model.L, dt0)
        dY = np.stack([r.increments for r in records])
        return integ.sweep_diffusive(model.H, model.L, rho0, dt0, dY=dY).loglik
    _step_guard(model.L, dt)
    engine = integ.CountingLoglik(model.H, model.L, dt, lam=lam)
    return np.array([engine.loglik(rho0, r.horizon, r.jumps)[0] for r in records])
