"""Synthetic measurement records and conditional-state trajectories.

Generates diffusive (homodyne) and counting records by integrating the
stochastic master equation under the true measure, plus reference-measure
records (Wiener increments, Poisson jump times) for likelihood work.

Randomness comes from counter-based Philox streams keyed by
(seed, trajectory index), so ensembles are reproducible in parallel and
trajectory ``i`` of an ensemble is bit-identical to a single run with the
same index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from . import _integrators as integ
from .exceptions import StepTooLarge, ValidationError
from .operators import QMarkovModel, _state_array

__all__ = [
    "DiffusiveRecord",
    "CountingRecord",
    "MeasurementRecord",
    "FilterTrajectory",
    "HomodyneEnsemble",
    "CountingEnsemble",
    "trajectory_rng",
    "simulate_homodyne",
    "simulate_homodyne_ensemble",
    "simulate_counting",
    "simulate_counting_ensemble",
    "simulate_reference",
]

STEP_GUARD = 0.1


@dataclass(frozen=True)
class DiffusiveRecord:
    """Sampled output-quadrature increments dY_k on a uniform grid."""

    dt: float
    increments: np.ndarray

    def __post_init__(self):
        if not self.dt > 0:
            raise ValidationError("dt must be positive")
        inc = np.asarray(self.increments, dtype=float).reshape(-1)
        if inc.size < 1:
            raise ValidationError("a diffusive record needs at least one increment")
        if not np.all(np.isfinite(inc)):
            raise ValidationError("increments must be finite")
        inc.setflags(write=False)
        object.__setattr__(self, "increments", inc)
        object.__setattr__(self, "dt", float(self.dt))

    @property
    def t_final(self) -> float:
        return self.dt * len(self.increments)

    def __len__(self) -> int:
        return len(self.increments)


@dataclass(frozen=True)
class CountingRecord:
    """Jump times of a counting measurement on (0, horizon]."""

    horizon: float
    jumps: np.ndarray

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValidationError("horizon must be positive")
        j = np.asarray(self.jumps, dtype=float).reshape(-1)
        if j.size:
            if not np.all(np.isfinite(j)):
                raise ValidationError("jump times must be finite")
            if j[0] <= 0 or np.any(np.diff(j) <= 0):
                raise ValidationError("jump times must be strictly increasing and > 0")
            if j[-1] > self.horizon:
                raise ValidationError("jump times must not exceed the horizon")
        j.setflags(write=False)
        object.__setattr__(self, "jumps", j)
        object.__setattr__(self, "horizon", float(self.horizon))

    @property
    def n_jumps(self) -> int:
        return len(self.jumps)


MeasurementRecord = Union[DiffusiveRecord, CountingRecord]


@dataclass(frozen=True)
class FilterTrajectory:
    """Normalized conditional states on a time grid with the record log-likelihood.

    ``states[k]`` is the conditional state at ``times[k]``; every state is
    trace-renormalized and positivity-projected by the integrator.
    """

    times: np.ndarray
    states: np.ndarray
    loglik: float

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


@dataclass(frozen=True)
class HomodyneEnsemble:
    """Batch of homodyne trajectories sharing a grid (one Philox stream each)."""

    dt: float
    increments: np.ndarray      # (n_traj, n_steps)
    logliks: np.ndarray         # (n_traj,)
    final_states: np.ndarray    # (n_traj, d, d)
    states: np.ndarray | None   # (n_traj, n_steps+1, d, d) when kept

    def record(self, i: int) -> DiffusiveRecord:
        return DiffusiveRecord(dt=self.dt, increments=self.increments[i])

    @property
    def n_traj(self) -> int:
        return self.increments.shape[0]


@dataclass(frozen=True)
class CountingEnsemble:
    """Batch of counting trajectories sharing a grid."""

    horizon: float
    jump_times: list
    counts: np.ndarray
    logliks: np.ndarray
    final_states: np.ndarray
    states: np.ndarray | None

    def record(self, i: int) -> CountingRecord:
        return CountingRecord(horizon=self.horizon, jumps=self.jump_times[i])

    @property
    def n_traj(self) -> int:
        return len(self.jump_times)


def trajectory_rng(seed: int, index: int = 0) -> np.random.Generator:
    """Counter-based stream for trajectory ``index`` of ensemble ``seed``."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(ss))


def _step_guard(L, dt: float) -> None:
    """Raise StepTooLarge when dt*||L||^2 exceeds the guard; L may be a stack."""
    lnorm2 = float(np.max(np.linalg.norm(L, 2, axis=(-2, -1)))) ** 2
    if dt * lnorm2 > STEP_GUARD:
        raise StepTooLarge(
            f"dt*||L||^2 = {dt * lnorm2:.3g} exceeds the guard {STEP_GUARD}"
        )


def _record_kind(records) -> type:
    """The one record type shared by every record; ValidationError otherwise."""
    kinds = {type(r) for r in records}
    if len(kinds) != 1 or not kinds <= {DiffusiveRecord, CountingRecord}:
        raise ValidationError(
            "records must be all counting or all diffusive records, got "
            + ", ".join(sorted(k.__name__ for k in kinds))
        )
    return kinds.pop()


def _check_grid(model: QMarkovModel, T: float, dt: float) -> int:
    if not (dt > 0 and T > 0 and dt <= T * (1 + 1e-12)):
        raise ValidationError("require 0 < dt <= T")
    _step_guard(model.L, dt)
    return max(1, int(round(T / dt)))


def simulate_homodyne(
    model: QMarkovModel, rho0, T: float, dt: float, seed: int,
    *, index: int = 0, keep_states: bool = True,
) -> tuple[DiffusiveRecord, FilterTrajectory]:
    """Simulate one homodyne record and its conditional-state trajectory.

    Innovations dI ~ N(0, dt) are drawn and the record is
    dY = dI + Tr((L+L^dag) rho_c) dt, with the state advanced by the shared
    diffusive core.
    """
    n = _check_grid(model, T, dt)
    rho0 = _state_array(rho0, model.dim)
    rng = trajectory_rng(seed, index)
    dI = rng.normal(0.0, np.sqrt(dt), size=(1, n))
    out = integ.sweep_diffusive(
        model.H, model.L, rho0, dt, dI=dI, keep_states=keep_states
    )
    record = DiffusiveRecord(dt=dt, increments=out.dY[0])
    traj = FilterTrajectory(
        times=np.arange(n + 1) * dt,
        states=out.states[0] if keep_states else out.final,
        loglik=float(out.loglik[0]),
    )
    return record, traj


def simulate_homodyne_ensemble(
    model: QMarkovModel, rho0, T: float, dt: float, n_traj: int, seed: int,
    *, keep_states: bool = False, start_index: int = 0,
) -> HomodyneEnsemble:
    """Vectorized batch of homodyne trajectories, one Philox stream each."""
    n = _check_grid(model, T, dt)
    rho0 = _state_array(rho0, model.dim)
    sd = np.sqrt(dt)
    dI = np.empty((n_traj, n))
    for i in range(n_traj):
        dI[i] = trajectory_rng(seed, start_index + i).normal(0.0, sd, size=n)
    out = integ.sweep_diffusive(
        model.H, model.L, rho0, dt, dI=dI, keep_states=keep_states
    )
    return HomodyneEnsemble(
        dt=dt, increments=out.dY, logliks=out.loglik,
        final_states=out.final, states=out.states,
    )


def simulate_counting(
    model: QMarkovModel, rho0, T: float, dt: float, seed: int,
    *, index: int = 0, keep_states: bool = True, method: str = "bernoulli",
) -> tuple[CountingRecord, FilterTrajectory]:
    """Simulate one counting record and its conditional-state trajectory.

    ``method="bernoulli"`` (default) thins jumps per grid cell with
    probability Tr(L^dag L rho) dt and places them at cell ends.
    ``method="exact"`` samples waiting times from the effective-Hamiltonian
    survival law (small dimensions) and reports states on the dt grid.
    """
    n = _check_grid(model, T, dt)
    rho0 = _state_array(rho0, model.dim)
    rng = trajectory_rng(seed, index)
    engine = integ.CountingLoglik(model.H, model.L, dt)
    if method == "bernoulli":
        out = engine.simulate(rho0, rng.random(size=(1, n)), keep_states=keep_states)
        record = CountingRecord(horizon=n * dt, jumps=out.jump_times[0])
        traj = FilterTrajectory(
            times=np.arange(n + 1) * dt,
            states=out.states[0] if keep_states else out.final,
            loglik=float(out.loglik[0]),
        )
        return record, traj
    if method == "exact":
        if model.dim > 8:
            raise ValidationError("exact sampling is supported for dim <= 8")
        times, rho_T = engine.sample_exact(rho0, T, rng)
        record = CountingRecord(horizon=T, jumps=times)
        if keep_states:
            out = engine.replay(rho0, T, times, on_dark="dead")
            traj = FilterTrajectory(times=out.times, states=out.states, loglik=out.loglik)
        else:
            # the final state comes from the exact propagation, not the grid scheme
            traj = FilterTrajectory(
                times=np.array([0.0, T]),
                states=rho_T,
                loglik=float(engine.loglik(rho0, T, times)[0]),
            )
        return record, traj
    raise ValidationError(f"unknown counting method {method!r}")


def simulate_counting_ensemble(
    model: QMarkovModel, rho0, T: float, dt: float, n_traj: int, seed: int,
    *, keep_states: bool = False, start_index: int = 0,
) -> CountingEnsemble:
    """Vectorized batch of Bernoulli-thinning counting trajectories."""
    n = _check_grid(model, T, dt)
    rho0 = _state_array(rho0, model.dim)
    u = np.empty((n_traj, n))
    for i in range(n_traj):
        u[i] = trajectory_rng(seed, start_index + i).random(size=n)
    out = integ.CountingLoglik(model.H, model.L, dt).simulate(
        rho0, u, keep_states=keep_states
    )
    return CountingEnsemble(
        horizon=n * dt, jump_times=out.jump_times, counts=out.counts,
        logliks=out.loglik, final_states=out.final, states=out.states,
    )


def simulate_reference(
    kind: str, lam: float, T: float, dt: float, seed: int, *, index: int = 0,
) -> MeasurementRecord:
    """Draw a reference-measure record: Wiener increments or Poisson jump times."""
    rng = trajectory_rng(seed, index)
    if kind == "wiener":
        if not (dt > 0 and T > 0 and dt <= T * (1 + 1e-12)):
            raise ValidationError("require 0 < dt <= T")
        n = max(1, int(round(T / dt)))
        return DiffusiveRecord(dt=dt, increments=rng.normal(0.0, np.sqrt(dt), n))
    if kind == "poisson":
        if not lam > 0:
            raise ValidationError("poisson intensity must be positive")
        if not T > 0:
            raise ValidationError("horizon must be positive")
        n = rng.poisson(lam * T)
        times = np.sort(rng.uniform(0.0, T, size=n))
        return CountingRecord(horizon=T, jumps=times)
    raise ValidationError(f"unknown reference kind {kind!r}")
