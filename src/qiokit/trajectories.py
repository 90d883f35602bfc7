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

from collections.abc import Iterable
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import _integrators as integ
from .exceptions import StepTooLarge, ValidationError
from .operators import (QMarkovModel, _array, _check_arguments, _check_int, _check_positive,
                        _check_real, _freeze, _state_array)

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
        dt = _check_positive(self.dt, "dt")
        inc = _array(self.increments, "increments").reshape(-1)
        if inc.size < 1:
            raise ValidationError("a diffusive record needs at least one increment")
        _freeze(self, increments=inc, dt=dt)

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
        horizon = _check_positive(self.horizon, "horizon")
        j = _array(self.jumps, "jumps").reshape(-1)
        if j.size:
            if j[0] <= 0 or np.any(np.diff(j) <= 0):
                raise ValidationError("jump times must be strictly increasing and > 0")
            if j[-1] > horizon:
                raise ValidationError("jump times must not exceed the horizon")
        _freeze(self, jumps=j, horizon=horizon)

    @property
    def n_jumps(self) -> int:
        return len(self.jumps)


MeasurementRecord = Union[DiffusiveRecord, CountingRecord]


@dataclass(frozen=True)
class FilterTrajectory:
    """Normalized conditional states on a time grid with the record log-likelihood.

    ``states[k]`` is the conditional state at ``times[k]``, trace-normalized;
    diffusive states are clipped to positivity, counting states are positive by
    construction of the Kraus maps.  A run with ``keep_states=False`` holds only
    its final state: ``times`` is ``[horizon]`` and ``states`` has shape (1, d, d).
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
        return DiffusiveRecord(dt=self.dt, increments=self.increments[_row(i, self.n_traj)])

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
        return CountingRecord(horizon=self.horizon, jumps=self.jump_times[_row(i, self.n_traj)])

    @property
    def n_traj(self) -> int:
        return len(self.jump_times)


def _row(i, n_traj: int) -> int:
    """``i`` checked as the index of one of an ensemble's ``n_traj`` rows."""
    i = _check_int(i, "i", 0)
    if i >= n_traj:
        raise ValidationError(f"i must be below n_traj = {n_traj}, got {i}")
    return i


def trajectory_rng(seed: int, index: int = 0) -> np.random.Generator:
    """Counter-based stream for trajectory ``index`` of ensemble ``seed``,
    both nonnegative integers."""
    ss = np.random.SeedSequence(entropy=_check_int(seed, "seed", 0),
                                spawn_key=(_check_int(index, "index", 0),))
    return np.random.Generator(np.random.Philox(ss))


def _step_guard(L, dt: float) -> None:
    """Raise ValidationError unless 0 < dt < inf, and StepTooLarge when
    dt*||L||^2 exceeds the guard; L may be a stack."""
    dt = _check_positive(dt, "dt")
    lnorm2 = float(np.max(np.linalg.norm(L, 2, axis=(-2, -1)))) ** 2
    if dt * lnorm2 > STEP_GUARD:
        raise StepTooLarge(
            f"dt*||L||^2 = {dt * lnorm2:.3g} exceeds the guard {STEP_GUARD}"
        )


def _check_intensity(lam: float) -> None:
    """Raise ValidationError unless the Poisson intensity lam is positive and finite."""
    _check_positive(lam, "reference intensity lam")


def _record_list(records) -> list:
    """``records``, an iterable of records, as a list; ValidationError otherwise."""
    if isinstance(records, (DiffusiveRecord, CountingRecord)) or not isinstance(records, Iterable):
        raise ValidationError(f"records must be a list of records, got {type(records).__name__}")
    return list(records)


def _record_kind(records) -> type:
    """The one record type shared by every record; ValidationError otherwise."""
    kinds = {type(r) for r in records}
    if len(kinds) != 1 or not kinds <= {DiffusiveRecord, CountingRecord}:
        raise ValidationError(
            "records must be all counting or all diffusive records, got "
            + ", ".join(sorted(k.__name__ for k in kinds))
        )
    return kinds.pop()


def _grid_steps(T: float, dt: float) -> int:
    """round(T/dt) steps; the one step-count rule of every simulator."""
    T, dt = _check_real(T, "T"), _check_real(dt, "dt")
    if not (0 < dt <= T * (1 + 1e-12) < np.inf):
        raise ValidationError(f"dt and T must be positive with dt <= T < inf, got {dt} and {T}")
    return max(1, int(round(T / dt)))


def _draws(kind: str, seed: int, start: int, b: int, n: int, dt: float) -> np.ndarray:
    """Row i holds the draws of ``trajectory_rng(seed, start + i)``: uniforms
    for counting records, N(0, dt) innovations for diffusive ones."""
    out = np.empty((b, n))
    for i in range(b):
        rng = trajectory_rng(seed, start + i)
        out[i] = rng.random(n) if kind == "counting" else rng.normal(0.0, np.sqrt(dt), n)
    return out


def _simulate(kind, H, L, rho0, T, dt, seed, start, b, keep_states=False, tangent=()):
    """The one path from a record simulation to an engine: ``b`` rows of one model (d, d),
    or records only, row i of model i of a stack (b, d, d).

    Checks the kind, the row count, the grid, the step guard over the models and the initial
    state, in that order, then runs row i on the draws of ``trajectory_rng(seed, start + i)``.
    A counting sampler gives the jump times only: ``"counting"`` by Bernoulli thinning on the
    dt grid, ``"exact"`` (one model of dimension <= 8) from the survival law on (0, T].  Each
    row is read once, as ``run_filter`` reads its record: one ``sweep`` gives the
    log-likelihoods and final states of a HomodyneEnsemble or CountingEnsemble, or with
    ``tangent = (dH, dL)`` (k, d, d) the scores (k, b) alone; a ``replay`` per row gives kept
    states.  Diffusive increments come out of their sweep, so every diffusive row is swept.
    """
    if kind not in ("counting", "diffusive", "exact"):
        raise ValidationError(f"unknown simulation kind {kind!r}")
    b = _check_int(b, "n_traj", 1)
    n = _grid_steps(T, dt)
    _step_guard(L, dt)
    rho0 = _state_array(rho0, L.shape[-1])
    if kind == "diffusive":
        dI = _draws(kind, seed, start, b, n, dt)
        out = integ.sweep_diffusive(H, L, rho0, dt, *tangent, dI=dI, keep_states=keep_states)
        return out.score if tangent else HomodyneEnsemble(
            dt=dt, increments=out.dY, logliks=out.loglik, final_states=out.final, states=out.states)
    engine = integ.CountingLoglik(H, L, dt, 1.0, *tangent)
    if kind == "counting":
        horizon, jumps = n * dt, engine.simulate(rho0, _draws(kind, seed, start, b, n, dt))
    elif L.ndim > 2 or L.shape[-1] > 8:
        raise ValidationError("exact sampling takes one model of dimension <= 8")
    else:
        horizon = T
        jumps = [engine.sample_exact(rho0, T, trajectory_rng(seed, start + i)) for i in range(b)]
    logliks = final = states = None
    if keep_states:  # as run_filter replays each record
        runs = [engine.replay(rho0, horizon, j) for j in jumps]
        states = np.stack([r.states for r in runs])
        logliks, final = np.array([r.loglik for r in runs]), states[:, -1]
    elif L.ndim == 2:
        out = engine.sweep(rho0, [horizon] * b, jumps, np.zeros(b, int), np.arange(b))
        if tangent:
            return out.score
        logliks, final = out.loglik, out.final
    return CountingEnsemble(horizon=horizon, jump_times=jumps, counts=np.array(
        [len(j) for j in jumps]), logliks=logliks, final_states=final, states=states)


def _single_run(ens, horizon: float, dt: float) -> FilterTrajectory:
    """Row 0 of a one-row ensemble as a single run's trajectory, on the replay's grid."""
    if ens.states is None:
        return FilterTrajectory(times=np.array([horizon]), states=ens.final_states,
                                loglik=float(ens.logliks[0]))
    return FilterTrajectory(times=np.append(np.arange(ens.states.shape[1] - 1) * dt, horizon),
                            states=ens.states[0], loglik=float(ens.logliks[0]))


def simulate_homodyne(
    model: QMarkovModel, rho0, T: float, dt: float, seed: int,
    *, index: int = 0, keep_states: bool = True,
) -> tuple[DiffusiveRecord, FilterTrajectory]:
    """Simulate one homodyne record and its conditional-state trajectory.

    The run is row ``index`` of ``simulate_homodyne_ensemble`` with the same
    seed, computed as a one-row ensemble, so the two agree bit for bit.
    """
    ens = simulate_homodyne_ensemble(model, rho0, T, dt, 1, seed,
                                     keep_states=keep_states, start_index=index)
    return ens.record(0), _single_run(ens, dt * ens.increments.shape[1], dt)


def simulate_homodyne_ensemble(
    model: QMarkovModel, rho0, T: float, dt: float, n_traj: int, seed: int,
    *, keep_states: bool = False, start_index: int = 0,
) -> HomodyneEnsemble:
    """Vectorized batch of homodyne trajectories, one Philox stream each.

    Innovations dI ~ N(0, dt) are drawn and the record is
    dY = dI + Tr((L+L^dag) rho_c) dt, the states advanced by the diffusive core.
    """
    return _simulate("diffusive", model.H, model.L, rho0, T, dt, seed, start_index, n_traj,
                     keep_states)


def simulate_counting(
    model: QMarkovModel, rho0, T: float, dt: float, seed: int,
    *, index: int = 0, keep_states: bool = True, method: str = "bernoulli",
) -> tuple[CountingRecord, FilterTrajectory]:
    """Simulate one counting record and its conditional-state trajectory.

    ``method="bernoulli"`` (default) is row ``index`` of
    ``simulate_counting_ensemble`` with the same seed, bit for bit.
    ``method="exact"`` samples the jump times from the effective-Hamiltonian
    survival law (dimensions <= 8); its trajectory is the scheme's reading of
    the record, ``run_filter(model, rho0, record, dt=dt)`` bit for bit.
    """
    kinds = {"bernoulli": "counting", "exact": "exact"}
    if method not in kinds:
        raise ValidationError(f"unknown counting method {method!r}")
    ens = _simulate(kinds[method], model.H, model.L, rho0, T, dt, seed, index, 1, keep_states)
    return ens.record(0), _single_run(ens, ens.horizon, dt)


def simulate_counting_ensemble(
    model: QMarkovModel, rho0, T: float, dt: float, n_traj: int, seed: int,
    *, keep_states: bool = False, start_index: int = 0,
) -> CountingEnsemble:
    """Vectorized batch of counting trajectories: Bernoulli thinning per grid
    cell with probability Tr(L^dag L rho) dt gives the jump times, at cell ends;
    row i's states and log-likelihood are ``run_filter``'s of its record."""
    return _simulate("counting", model.H, model.L, rho0, T, dt, seed, start_index, n_traj,
                     keep_states)


def simulate_reference(
    kind: str, lam: float, T: float, dt: float, seed: int, *, index: int = 0,
) -> MeasurementRecord:
    """Draw a reference-measure record: Wiener increments or Poisson jump times."""
    if kind == "wiener":
        dI = _draws("diffusive", seed, index, 1, _grid_steps(T, dt), dt)
        return DiffusiveRecord(dt=dt, increments=dI[0])
    if kind == "poisson":
        _check_intensity(lam)
        T = _check_positive(T, "horizon")
        if lam * T > 1e18:  # numpy arrays hold at most 2^63 bytes: 1.15e18 jump times
            raise ValidationError(f"the expected jump count lam*T must be at most 1e18, "
                                  f"got {lam * T:.3g}")
        rng = trajectory_rng(seed, index)
        n = rng.poisson(lam * T)
        times = np.sort(rng.uniform(0.0, T, size=n))
        return CountingRecord(horizon=T, jumps=times)
    raise ValidationError(f"unknown reference kind {kind!r}")


_check_arguments(globals())
