"""Parameter estimation from measurement records.

Likelihood-based estimators (maximum likelihood on a coarse grid with
refinement on the score, Bayesian posterior grids with PM/MAP point
estimates, ABC rejection sampling) plus the linear counting statistics:
stationary rate, asymptotic count variance, their Fisher ratio, and a
Monte-Carlo estimator of the classical Fisher information of the full
record.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    AllRecordsImpossible,
    DegeneratePosterior,
    NumericsError,
    ValidationError,
    ZeroVariance,
)
from .families import ParameterFamily, _one_parameter
from .operators import (
    QMarkovModel,
    _array,
    _check_arguments,
    _check_int,
    _check_real,
    _ergodic_stationary,
    _lindblad_tangent,
    _nojump_tangent,
    dag,
    zero_mean_inverse,
)
from .filtering import DEFAULT_DT, _loglik_table
from .trajectories import (CountingRecord, DiffusiveRecord, MeasurementRecord, _record_list,
                           _simulate, trajectory_rng)

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

MAX_MOVES = 20  # times mle's refinement may move its region of one fine cell
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


def mle(
    family: ParameterFamily, records, rho0,
    *, dt: float = DEFAULT_DT, lam: float = 1.0, grid_points: int = 21,
    refine: bool = True,
) -> MLEResult:
    """Maximum-likelihood estimate over the family's box domain.

    Evaluates the summed log-likelihood on a coarse grid (``grid_points`` per axis,
    parameter dimension at most 2) and refines from the best grid point with bounded
    L-BFGS-B on (-loglik, -score), recording ``nfev`` (L-BFGS-B evaluations) and
    ``converged`` in the diagnostics.  The score is exact for both record kinds (the
    engines carry the likelihood tangent).  The likelihood can have several maxima inside
    one grid cell (a counting jump after a long dark wait has a factor that oscillates in
    the parameters), so the refinement starts from the best of finer points on the axes
    through the grid point, over the cells on either side (the grid point's value is the
    grid's: it is not swept again), and keeps within one fine cell of where it stands.
    A numerically flat likelihood is reported in the diagnostics too and resolved to the
    lowest-index grid point without refinement.  The records must share one kind,
    ``rho0`` must be a density matrix.  The counting event lists are built once per call.
    """
    records = _record_list(records)
    if family.k > 2:
        raise ValidationError("grid search supports at most two parameters")
    if not np.all(np.isfinite(family.domain)):
        raise ValidationError("mle needs a bounded domain")
    if not records:
        raise ValidationError("need at least one record")
    n = _check_int(grid_points, "grid_points", 1)
    thetas, memo = _grid_points(family.domain, n), {}  # memo: the call's counting event lists

    def table(points):
        H, L = family._evaluate(points)[:2]
        return _loglik_table(H, L, rho0, records, dt, lam, memo=memo).loglik.sum(1)

    logliks = table(thetas)
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

    def neg(theta):  # -loglik and -score
        H, L, dH, dL = family._at(theta)
        out = _loglik_table(H, L, rho0, records, dt, lam, (dH, dL), memo)
        f = -float(out.loglik.sum())
        return (f, -out.score.sum(axis=1)) if f < np.inf else (f, np.zeros(family.k))

    # fine points: n // 2 per coarse cell, on the axes through theta0, inside the domain
    lo, hi = family.domain.T
    per_cell = max(n // 2, 1)
    cell = (hi - lo) / max(n - 1, 1) / per_cell
    fine = np.unique(theta0 + (np.arange(-per_cell, per_cell + 1)[:, None, None]
                               * np.diag(cell)).reshape(-1, family.k), axis=0)
    fine = fine[np.all((lo <= fine) & (fine <= hi), axis=1)]
    again = np.all(fine == theta0, axis=1) & (len(fine) > 1)  # theta0: the grid row's bits
    fine_ll = np.full(len(fine), logliks[best])
    fine_ll[~again] = table(fine[~again])
    x, nfev = fine[int(np.argmax(fine_ll))], 0
    # gtol 1e-7 |loglik| (~1e-4 at |loglik| ~ 1e3): the score is exact, so this value
    # sets where L-BFGS-B stops, and with it the estimates and the evaluation counts
    options = {"ftol": 1e-13, "gtol": 1e-7 * max(1.0, abs(fine_ll.max()))}
    from scipy import optimize
    for _ in range(MAX_MOVES + 1):
        region = np.clip(np.stack([x - cell, x + cell], axis=1), lo[:, None], hi[:, None])
        res = optimize.minimize(neg, x, jac=True, method="L-BFGS-B", bounds=region,
                                options=options)
        x, nfev = res.x, nfev + res.nfev
        # stopped on the region's edge inside the domain: move the region there
        moved = np.any(((x == region[:, 0]) & (x > lo)) | ((x == region[:, 1]) & (x < hi)))
        if not moved:
            break
    diagnostics["nfev"] = int(nfev)
    diagnostics["converged"] = bool(res.success and not moved)
    if -res.fun >= logliks[best]:
        return MLEResult(theta=np.atleast_1d(res.x), loglik=float(-res.fun),
                         diagnostics=diagnostics)
    return MLEResult(theta=theta0.copy(), loglik=float(logliks[best]),
                     diagnostics=diagnostics)


def posterior_grid(
    family: ParameterFamily, record: MeasurementRecord, rho0, grid, prior,
    *, dt: float = DEFAULT_DT, lam: float = 1.0,
) -> PosteriorGrid:
    """Posterior over a user-supplied grid of parameter points.

    ``prior`` must sum to one on the grid.  Weights are exp of the
    max-shifted log posterior; the PM/MAP point estimates hang off the
    returned object.
    """
    grid, prior = _array(grid, "grid"), _array(prior, "prior")
    if grid.ndim == 1:
        grid = grid[:, None]
    if grid.ndim != 2 or grid.shape[1] != family.k:
        raise ValidationError(f"grid must be (n, {family.k})")
    if prior.shape != (len(grid),):
        raise ValidationError("prior must assign one weight per grid point")
    if not (np.all(prior >= 0) and abs(prior.sum() - 1.0) <= 1e-8):
        raise ValidationError("prior must be a probability vector on the grid")
    logliks = _loglik_table(*family._evaluate(grid)[:2], rho0, [record], dt, lam).loglik[:, 0]
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
    """Two-time correlation statistic sum_{i<j} k((j-i) dt) dY_i dY_j.

    ``kernel`` must return a finite real scalar at each lag.
    """
    inc = record.increments
    n = len(inc)
    total = 0.0
    for lag in range(1, n):
        kv = np.asarray(kernel(lag * record.dt))
        if kv.shape or kv.dtype.kind not in "iuf" or not np.isfinite(kv):
            raise ValidationError(f"kernel must return finite real scalars, got {kv!r}")
        kv = float(kv)
        if kv != 0.0:
            total += kv * float(inc[:-lag] @ inc[lag:])
    return total


def _counting_response(model: QMarkovModel) -> tuple:
    """(rho_ss, mu, V, A), A the zero-mean solution of L^*(A) = L^dag L - mu I."""
    L = model.L
    rho_ss = _ergodic_stationary(model).rho
    LdL = L.conj().T @ L
    mu = float(np.trace(rho_ss @ LdL).real)
    A = zero_mean_inverse(model, LdL - mu * np.eye(model.dim))
    corr = 2.0 * float(np.trace(rho_ss @ L.conj().T @ A @ L).real)
    V = mu - corr
    if V < -1e-8:
        raise NumericsError(f"asymptotic variance came out negative ({V:.3e})")
    return rho_ss, mu, V, A


def counting_rate_and_variance(model: QMarkovModel) -> tuple[float, float]:
    """Stationary counting rate mu and asymptotic variance V of the counts.

    ``mu = Tr(rho_ss L^dag L)`` and
    ``V = Re Tr[rho_ss (L^dag L - 2 L^dag A L)]`` with
    ``A = L^{-1}(L^dag L - mu I)`` on the zero-mean subspace.  The
    correction term enters with a minus sign: that is the sign for which V
    is nonnegative, matches trajectory Monte-Carlo, and makes the
    phase-family identity ``qfi_rate = 4 V`` hold.
    """
    if not np.any(model.L):
        return 0.0, 0.0  # no emission channel, counts are identically zero
    return _counting_response(model)[1:3]


def counting_fisher(family: ParameterFamily, theta: float) -> float:
    """Fisher information of the total-counts statistic, (d mu/d theta)^2 / V.

    d mu = Tr(rho_ss d(L^dag L)) - Tr(dG(rho_ss) A) is exact by linear response,
    A as in :func:`counting_rate_and_variance` and dG the generator's derivative.
    """
    H, L, (dH,), (dL,) = _one_parameter(family, theta, "counting_fisher")
    rho, _, V, A = _counting_response(QMarkovModel(H=H, L=L))
    if V <= 1e-14:
        raise ZeroVariance("asymptotic count variance is zero")
    dG = _nojump_tangent(L, dH, dL)  # (L^dag L)' = dG + dG^dag
    d_rho = _lindblad_tangent(L, dL, dG, rho)
    mu_dot = float(np.trace(rho @ (dG + dag(dG))).real - np.trace(d_rho @ A).real)
    return mu_dot**2 / V


def _finite_vector(value, name: str, n=None) -> np.ndarray:
    """``value`` as a 1-D array of finite reals, of length ``n`` when given."""
    try:
        v = np.atleast_1d(_array(value, name))
    except ValidationError:
        v = None
    if v is None or v.ndim != 1 or (n is not None and len(v) != n):
        length = "" if n is None else f" of length {n}"
        raise ValidationError(f"{name} must be a finite real vector{length}, got {value!r}")
    return v


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
    ``n_pilot`` pilot simulations.  Parameter draws and record rows share
    one index: sample i (the pilots first, then the ``n_sims`` candidates)
    draws theta from ``trajectory_rng(seed, i)`` and its record from
    ``trajectory_rng(seed + 1, i)``, all in one simulation call that reads
    the records only.  The observed statistics, the draws and the statistics of
    each sample must be finite real vectors, the statistics of the observed
    length; otherwise a ValidationError names the sample.  An empty result is
    reported with a warning, not an error.
    """
    if not _check_real(epsilon, "epsilon") >= 0:
        raise ValidationError(f"epsilon must be nonnegative, got {epsilon}")
    n_sims, n_pilot = _check_int(n_sims, "n_sims", 1), _check_int(n_pilot, "n_pilot", 2)
    obs = _finite_vector(observed_stats, "observed statistics")
    thetas = [family._theta(_finite_vector(prior_sampler(trajectory_rng(seed, i)),
                                           f"prior draw of sample {i}"))
              for i in range(n_pilot + n_sims)]
    ens = _simulate(kind, *family._evaluate(thetas)[:2], rho0, T, dt, seed + 1, 0, len(thetas))
    stats = [_finite_vector(stat_fn(ens.record(i)), f"statistics of sample {i}", len(obs))
             for i in range(len(thetas))]
    # the pilot rows fix the standardization
    sd = np.array(stats[:n_pilot]).std(axis=0, ddof=1)
    sd[sd == 0] = 1.0
    accepted = [th for th, stat in zip(thetas[n_pilot:], stats[n_pilot:])
                if np.linalg.norm((stat - obs) / sd) <= epsilon]
    if not accepted:
        warnings.warn(
            f"ABC accepted no samples in {n_sims} simulations (epsilon={epsilon})",
            stacklevel=3,  # the caller, above the argument check of operators._check_arguments
        )
    return accepted


def mc_classical_fisher(
    family: ParameterFamily, theta, rho0, kind: str, T: float, dt: float,
    n_traj: int, seed: int = 0,
) -> FisherEstimate:
    """Monte-Carlo estimate of the classical Fisher information of the record.

    Simulates ``n_traj`` records at theta, inside the family domain, and
    estimates the variance of their scores, the tangent of the simulation's own
    sweep; their mean, reported too, should be near zero.
    """
    H, L, dH, dL = _one_parameter(family, theta, "mc_classical_fisher")
    n_traj = _check_int(n_traj, "n_traj", 2)
    if kind == "exact":  # the simulation kinds here are the record kinds
        raise ValidationError("exact sampling takes one model, in simulate_counting only; "
                              "kind must be 'counting' or 'diffusive'")
    scores = _simulate(kind, H, L, rho0, T, dt, seed, 0, n_traj, tangent=(dH, dL))[0]
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


_check_arguments(globals())
