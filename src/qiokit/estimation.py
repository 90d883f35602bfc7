"""Parameter estimation from measurement records.

Likelihood-based estimators (maximum likelihood on a coarse grid with
Nelder-Mead refinement, Bayesian posterior grids with PM/MAP point
estimates, ABC rejection sampling) plus the linear counting statistics:
stationary rate, asymptotic count variance, their Fisher ratio, and a
Monte-Carlo estimator of the classical Fisher information of the full
record.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from . import _integrators as integ
from .exceptions import (
    AllRecordsImpossible,
    DegeneratePosterior,
    NumericsError,
    ValidationError,
    ZeroVariance,
)
from .families import ParameterFamily
from .operators import QMarkovModel, _ergodic_stationary, _state_array, zero_mean_inverse
from .trajectories import (
    CountingRecord,
    DiffusiveRecord,
    _record_kind,
    _step_guard,
    trajectory_rng,
)

__all__ = [
    "MLEResult",
    "PosteriorGrid",
    "FisherEstimate",
    "mle",
    "posterior_grid",
    "abc_rejection",
    "stat_total_counts",
    "stat_two_time_corr",
    "counting_rate_and_variance",
    "counting_fisher",
    "mc_classical_fisher",
]

FLAT_TOL = 1e-9


@dataclass(frozen=True)
class MLEResult:
    theta: np.ndarray
    loglik: float
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PosteriorGrid:
    """Normalized posterior weights on a grid of parameter points."""

    grid: np.ndarray         # (n, k)
    log_weights: np.ndarray  # (n,) unnormalized log posterior
    weights: np.ndarray      # (n,) normalized

    @property
    def pm(self) -> np.ndarray:
        """Posterior mean."""
        return self.weights @ self.grid

    @property
    def map_estimate(self) -> np.ndarray:
        """Maximum a posteriori grid point."""
        return self.grid[int(np.argmax(self.weights))]

    def sd(self) -> np.ndarray:
        m = self.pm
        return np.sqrt(self.weights @ (self.grid - m) ** 2)


@dataclass(frozen=True)
class FisherEstimate:
    value: float
    stderr: float
    mean_score: float
    mean_score_stderr: float


def _grid_points(domain: np.ndarray, n: int) -> np.ndarray:
    axes = [np.linspace(lo, hi, n) for lo, hi in domain]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def _model_stack(family, thetas):
    """(H, L) of the family at each parameter point, stacked."""
    models = [family.model(th) for th in thetas]
    return np.stack([m.H for m in models]), np.stack([m.L for m in models])


def _check_problem(family, thetas, records, dt, lam):
    """Record kinds, reference intensity and step guard at every point of
    ``thetas``; ||L_theta|| of an affine or phase family is largest at a
    corner of the domain box, so a grid with the corners covers the box."""
    if not records:
        raise ValidationError("need at least one record")
    _, L = _model_stack(family, thetas)
    if _record_kind(records) is DiffusiveRecord:
        _step_guard(L, max(r.dt for r in records))
    elif not lam > 0:
        raise ValidationError("reference intensity lam must be positive")
    else:
        _step_guard(L, dt)


def _loglik_table(family, thetas, records, r0, dt, lam) -> np.ndarray:
    """Log-likelihood of every record at every parameter point, (n_theta, n_records).

    Counting records run through one likelihood engine batched over theta;
    diffusive records that share a grid run in one sweep over theta x record.
    """
    H, L = _model_stack(family, thetas)
    if isinstance(records[0], CountingRecord):
        engine = integ.CountingLoglik(H, L, dt, lam=lam)
        return np.stack([engine.loglik(r0, r.horizon, r.jumps) for r in records], axis=1)
    table = np.empty((len(H), len(records)))
    for step, n in {(r.dt, len(r)) for r in records}:
        idx = [j for j, r in enumerate(records) if (r.dt, len(r)) == (step, n)]
        dY = np.tile([records[j].increments for j in idx], (len(H), 1))
        out = integ.sweep_diffusive(np.repeat(H, len(idx), axis=0),
                                    np.repeat(L, len(idx), axis=0), r0, step, dY=dY)
        table[:, idx] = out.loglik.reshape(len(H), len(idx))
    return table


def mle(
    family: ParameterFamily, records, rho0,
    *, dt: float = 1e-3, lam: float = 1.0, grid_points: int = 21,
    refine: bool = True,
) -> MLEResult:
    """Maximum-likelihood estimate over the family's box domain.

    Evaluates the summed log-likelihood on a coarse grid (``grid_points``
    per axis, parameter dimension at most 2) and refines from the best
    grid point with Nelder-Mead, recording ``nfev`` and ``converged`` in
    the diagnostics.  A numerically flat likelihood is reported there too
    and resolved to the lowest-index grid point without refinement.  The
    records must share one kind, ``rho0`` must be a density matrix.
    """
    records = list(records)
    if family.k > 2:
        raise ValidationError("grid search supports at most two parameters")
    if not np.all(np.isfinite(family.domain)):
        raise ValidationError("mle needs a bounded domain")
    thetas = _grid_points(family.domain, grid_points)
    _check_problem(family, thetas, records, dt, lam)
    r0 = _state_array(rho0, family.base.dim)
    logliks = _loglik_table(family, thetas, records, r0, dt, lam).sum(axis=1)
    finite = np.isfinite(logliks)
    if not np.any(finite):
        raise AllRecordsImpossible(
            "every grid point assigns likelihood zero to the records"
        )
    spread = np.max(logliks[finite]) - np.min(logliks[finite])
    flat = bool(np.all(finite) and spread <= FLAT_TOL * max(1.0, abs(np.max(logliks))))
    diagnostics = {"flat": flat, "grid_spread": float(spread)}
    if flat:
        return MLEResult(theta=thetas[0].copy(), loglik=float(logliks[0]),
                         diagnostics=diagnostics)
    best = int(np.argmax(np.where(finite, logliks, -np.inf)))
    theta0 = thetas[best]
    diagnostics["grid_best"] = theta0.copy()
    if not refine:
        return MLEResult(theta=theta0.copy(), loglik=float(logliks[best]),
                         diagnostics=diagnostics)

    def neg(theta):
        if not family.in_domain(theta):
            return np.inf
        return -float(_loglik_table(family, [theta], records, r0, dt, lam).sum())

    res = optimize.minimize(
        neg, theta0, method="Nelder-Mead",
        bounds=[(lo, hi) for lo, hi in family.domain],
        options={"xatol": 1e-6, "fatol": 1e-9},
    )
    diagnostics["nfev"] = int(res.nfev)
    diagnostics["converged"] = bool(res.success)
    if -res.fun >= logliks[best]:
        return MLEResult(theta=np.atleast_1d(res.x), loglik=float(-res.fun),
                         diagnostics=diagnostics)
    return MLEResult(theta=theta0.copy(), loglik=float(logliks[best]),
                     diagnostics=diagnostics)


def posterior_grid(
    family: ParameterFamily, record, rho0, grid, prior,
    *, dt: float = 1e-3, lam: float = 1.0,
) -> PosteriorGrid:
    """Posterior over a user-supplied grid of parameter points.

    ``prior`` must sum to one on the grid.  Weights are exp of the
    max-shifted log posterior; the PM/MAP point estimates hang off the
    returned object.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim == 1:
        grid = grid[:, None]
    if grid.ndim != 2 or grid.shape[1] != family.k:
        raise ValidationError(f"grid must be (n, {family.k})")
    prior = np.asarray(prior, dtype=float)
    if prior.shape != (len(grid),):
        raise ValidationError("prior must assign one weight per grid point")
    if np.any(prior < 0) or abs(prior.sum() - 1.0) > 1e-8:
        raise ValidationError("prior must be a probability vector on the grid")
    _check_problem(family, grid, [record], dt, lam)
    r0 = _state_array(rho0, family.base.dim)
    logliks = _loglik_table(family, grid, [record], r0, dt, lam)[:, 0]
    with np.errstate(divide="ignore"):
        logw = logliks + np.log(prior)
    if not np.any(np.isfinite(logw)):
        raise DegeneratePosterior("all posterior weights are zero")
    shift = np.max(logw[np.isfinite(logw)])
    w = np.exp(logw - shift)
    w /= w.sum()
    return PosteriorGrid(grid=grid, log_weights=logw, weights=w)


def stat_total_counts(record: CountingRecord) -> int:
    """Total number of jumps in a counting record."""
    return int(record.n_jumps)


def stat_two_time_corr(record: DiffusiveRecord, kernel) -> float:
    """Two-time correlation statistic sum_{i<j} k((j-i) dt) dY_i dY_j."""
    inc = record.increments
    n = len(inc)
    total = 0.0
    for lag in range(1, n):
        kv = float(kernel(lag * record.dt))
        if kv != 0.0:
            total += kv * float(inc[:-lag] @ inc[lag:])
    return total


def _counting_rate(model: QMarkovModel) -> float:
    rho_ss = _ergodic_stationary(model).rho
    return float(np.trace(rho_ss @ model.L.conj().T @ model.L).real)


def counting_rate_and_variance(model: QMarkovModel) -> tuple[float, float]:
    """Stationary counting rate mu and asymptotic variance V of the counts.

    ``mu = Tr(rho_ss L^dag L)`` and
    ``V = Re Tr[rho_ss (L^dag L - 2 L^dag A L)]`` with
    ``A = L^{-1}(L^dag L - mu I)`` on the zero-mean subspace.  The
    correction term enters with a minus sign: that is the sign for which V
    is nonnegative, matches trajectory Monte-Carlo, and makes the
    phase-family identity ``qfi_rate = 4 V`` hold.
    """
    L = model.L
    if not np.any(L):
        return 0.0, 0.0  # no emission channel, counts are identically zero
    rho_ss = _ergodic_stationary(model).rho
    LdL = L.conj().T @ L
    mu = float(np.trace(rho_ss @ LdL).real)
    A = zero_mean_inverse(model, LdL - mu * np.eye(model.dim))
    corr = 2.0 * float(np.trace(rho_ss @ L.conj().T @ A @ L).real)
    V = mu - corr
    if V < -1e-8:
        raise NumericsError(f"asymptotic variance came out negative ({V:.3e})")
    return mu, V


def counting_fisher(family: ParameterFamily, theta: float, h: float | None = None) -> float:
    """Fisher information of the total-counts statistic, (d mu/d theta)^2 / V."""
    if family.k != 1:
        raise ValidationError("counting_fisher handles one-parameter families")
    theta = float(np.atleast_1d(theta)[0])
    if h is None:
        h = 1e-4 * max(1.0, abs(theta))
    for t in (theta - h, theta + h):
        if not family.in_domain([t]):
            raise ValidationError("theta +- h must stay inside the family domain")
    mu_plus = _counting_rate(family.model([theta + h]))
    mu_minus = _counting_rate(family.model([theta - h]))
    mu_dot = (mu_plus - mu_minus) / (2 * h)
    _, V = counting_rate_and_variance(family.model([theta]))
    if V <= 1e-14:
        raise ZeroVariance("asymptotic count variance is zero")
    return mu_dot**2 / V


def _simulate_family_records(family, thetas, r0, kind, T, dt, seed, start_index=0):
    """One record per theta, each from its own Philox stream."""
    b = len(thetas)
    n = max(1, int(round(T / dt)))
    Hb, Lb = _model_stack(family, thetas)
    draws = np.empty((b, n))
    for i in range(b):
        rng = trajectory_rng(seed, start_index + i)
        if kind == "counting":
            draws[i] = rng.random(n)
        else:
            draws[i] = rng.normal(0.0, np.sqrt(dt), n)
    if kind == "counting":
        out = integ.CountingLoglik(Hb, Lb, dt).simulate(r0, draws)
        return [CountingRecord(horizon=n * dt, jumps=j) for j in out.jump_times]
    out = integ.sweep_diffusive(Hb, Lb, r0, dt, dI=draws)
    return [DiffusiveRecord(dt=dt, increments=row) for row in out.dY]


def abc_rejection(
    family: ParameterFamily, observed_stats, prior_sampler, stat_fn,
    n_sims: int, epsilon: float, seed: int,
    *, rho0, kind: str = "counting", T: float = 100.0, dt: float = 1e-2,
    n_pilot: int = 100,
) -> list:
    """ABC rejection sampling against summary statistics.

    Draws theta from ``prior_sampler(rng)``, simulates a record of the
    requested kind, and accepts theta when the componentwise standardized
    Euclidean distance between ``stat_fn(record)`` and the observed
    statistics is at most ``epsilon``.  Standard deviations come from
    ``n_pilot`` pilot simulations.  An empty result is reported with a
    warning, not an error.
    """
    if epsilon < 0:
        raise ValidationError("epsilon must be nonnegative")
    if kind not in ("counting", "diffusive"):
        raise ValidationError(f"unknown simulation kind {kind!r}")
    obs = np.atleast_1d(np.asarray(observed_stats, dtype=float))
    r0 = _state_array(rho0, family.base.dim)

    def draw_batch(count, start):
        thetas = []
        for i in range(count):
            rng = trajectory_rng(seed, start + i)
            thetas.append(np.atleast_1d(np.asarray(prior_sampler(rng), dtype=float)))
        return thetas

    # pilot phase fixes the standardization
    pilot_thetas = draw_batch(n_pilot, 0)
    pilot_recs = _simulate_family_records(
        family, pilot_thetas, r0, kind, T, dt, seed + 1, 0
    )
    pilot_stats = np.array([np.atleast_1d(stat_fn(r)) for r in pilot_recs], dtype=float)
    sd = pilot_stats.std(axis=0, ddof=1)
    sd[sd == 0] = 1.0

    thetas = draw_batch(n_sims, n_pilot)
    recs = _simulate_family_records(
        family, thetas, r0, kind, T, dt, seed + 1, n_pilot
    )
    accepted = []
    for th, rec in zip(thetas, recs):
        stat = np.atleast_1d(np.asarray(stat_fn(rec), dtype=float))
        dist = np.linalg.norm((stat - obs) / sd)
        if dist <= epsilon:
            accepted.append(th)
    if not accepted:
        warnings.warn(
            f"ABC accepted no samples in {n_sims} simulations (epsilon={epsilon})",
            stacklevel=2,
        )
    return accepted


def mc_classical_fisher(
    family: ParameterFamily, theta, rho0, kind: str, T: float, dt: float,
    n_traj: int, h: float | None = None, seed: int = 0, lam: float = 1.0,
) -> FisherEstimate:
    """Monte-Carlo estimate of the classical Fisher information of the record.

    Simulates ``n_traj`` records at theta and estimates the variance of
    the central-difference score (loglik(theta+h) - loglik(theta-h))/2h.
    The mean score is reported alongside; it should be consistent with
    zero.
    """
    if family.k != 1:
        raise ValidationError("mc_classical_fisher handles one-parameter families")
    theta = float(np.atleast_1d(theta)[0])
    if h is None:
        h = 1e-4 * max(1.0, abs(theta))
    thetas = [np.array([theta])] * n_traj
    r0 = _state_array(rho0, family.base.dim)
    recs = _simulate_family_records(family, thetas, r0, kind, T, dt, seed)
    pair = [[theta + h], [theta - h]]
    _check_problem(family, pair, recs, dt, lam)
    ll_plus, ll_minus = _loglik_table(family, pair, recs, r0, dt, lam)
    scores = (ll_plus - ll_minus) / (2 * h)
    scores = scores[np.isfinite(scores)]
    n = len(scores)
    if n < 2:
        raise NumericsError("too few finite scores to estimate the Fisher information")
    value = float(scores.var(ddof=1))
    centered = scores - scores.mean()
    m4 = float(np.mean(centered**4))
    var_of_var = max(0.0, (m4 - value**2 * (n - 3) / (n - 1)) / n)
    return FisherEstimate(
        value=value,
        stderr=float(np.sqrt(var_of_var)),
        mean_score=float(scores.mean()),
        mean_score_stderr=float(scores.std(ddof=1) / np.sqrt(n)),
    )
