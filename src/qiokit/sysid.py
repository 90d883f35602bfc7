"""Black-box identification of linear quantum systems from homodyne records.

End-to-end pipeline: PRBS input design, combined deterministic-stochastic
subspace identification (block Hankel matrices, oblique projection, SVD
truncation, least-squares state-space recovery), projection of the raw
estimate onto the physically realizable set, recovery of the unmeasured
output row, FPE order selection and NMSE validation.

The realizability projection sweeps the feasible set of the generalized
constraints by the map (Sigma, B, Z) -> (A, B, C) with
``A = (Sigma - B J B^T / 2) Z^-1`` and ``C = -D J B^T Z^-1``, for a
symmetric Sigma and an invertible skew certificate Z: both realizability
equations hold by construction and the map covers the set once, with
4n^2 + 4n parameters.  The distance to the raw estimate is minimized by
MINPACK's Levenberg-Marquardt ``lmder`` through ``scipy.optimize.leastsq``,
with ``diag=None`` (variables scaled by the Jacobian's column norms) and the
analytic Jacobian, from a closed-form start at ``Z = J_n`` and seeded
starts on both components (signs of the Pfaffian of Z) of the feasible set.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy import optimize

from .exceptions import (
    DegenerateOutput,
    InsufficientData,
    LogBranch,
    NotExciting,
    OptimizationFailed,
    SingularZ,
    ValidationError,
)
from .linear import (
    LinearQSystem,
    _certificate_lstsq,
    _lti_run,
    _pr_equations,
    _quad_row,
    kalman_gain,
    simulate_innovation_form,
    symplectic_form,
)
from .operators import (
    _array,
    _check_int,
    _check_positive,
    _check_real,
    _even_square,
    _freeze,
    _instance,
    _real_matrix,
    _real_vector,
)
from .trajectories import DiffusiveRecord, _grid_steps

__all__ = [
    "SysIdDataset",
    "SubspaceEstimate",
    "ProjectionResult",
    "SysIdResult",
    "PipelineConfig",
    "prbs",
    "prbs_pair",
    "subspace_id",
    "pr_projection",
    "recover_full_c",
    "fpe_order_select",
    "validate_nmse",
    "run_pipeline",
]

# maximal-length LFSR tap positions (Fibonacci form), one polynomial per
# supported register size.  Taps are numbered as in the usual tables (e.g.
# Xilinx XAPP052): the register shifts right and emits bit 0, tap ``t`` is
# bit ``nbits - t``, so tap ``nbits`` is the output stage itself.
_LFSR_TAPS = {
    8: (8, 6, 5, 4),
    12: (12, 11, 10, 4),
    16: (16, 15, 13, 4),
    20: (20, 3),
    24: (24, 23, 22, 17),
}


def _auto_register(length: int) -> int:
    for cand in sorted(_LFSR_TAPS):
        if 2**cand - 1 >= length:
            return cand
    return max(_LFSR_TAPS)


def prbs(length: int, amplitude: float, seed: int,
         register: int | None = None) -> np.ndarray:
    """Pseudo-random binary sequence in {-amplitude, +amplitude}.

    Generated by a maximal-length Fibonacci LFSR; the register size is the
    smallest supported one whose period covers ``length`` unless fixed by
    ``register``.  Deterministic in ``seed``.  Distinct seeds on one
    register give shifted copies of the same m-sequence, so multi-channel
    excitation should use distinct registers (different polynomials), as
    ``run_pipeline`` does.

    The register shifts right and emits bit 0, so output k + i is bit i of
    the state at step k: the outputs are the states at steps 0, nbits,
    2 nbits, ..., which follow from the seeded state by powers of the
    nbits-step transition matrix over GF(2), doubled on each round.
    """
    length = _check_int(length, "length", 1)
    _check_positive(amplitude, "amplitude")
    nbits = _auto_register(length) if register is None else _check_int(register, "register")
    if nbits not in _LFSR_TAPS:
        raise ValidationError(
            f"unsupported register size {nbits}; choose from {sorted(_LFSR_TAPS)}"
        )
    state = (_check_int(seed, "seed") * 2654435761 + 88172645463325252) & ((1 << nbits) - 1)
    # uint8 products wrap modulo 256, which keeps their parity
    step = np.eye(nbits, k=1, dtype=np.uint8)  # bit i takes bit i + 1 ...
    step[-1, [nbits - t for t in _LFSR_TAPS[nbits]]] = 1  # ... and the top bit the taps
    jump = np.linalg.matrix_power(step, nbits) & 1
    nblocks = -(-length // nbits)
    states = np.empty((nblocks, nbits), np.uint8)  # row k: the state at step k * nbits
    states[0] = (state or 1) >> np.arange(nbits) & 1
    done = 1
    while done < nblocks:
        states[done : 2 * done] = states[: nblocks - done][:done] @ jump.T & 1
        jump, done = jump @ jump & 1, 2 * done
    return np.where(states.reshape(-1)[:length] > 0, float(amplitude), -float(amplitude))


def prbs_pair(length: int, amplitude: float, seed: int) -> np.ndarray:
    """Two-channel PRBS input (length, 2) on distinct LFSR polynomials.

    Using different registers keeps the channels from being shifted copies
    of one m-sequence, which would make the input block Hankel matrix rank
    deficient whenever the shift is small.
    """
    length, seed = _check_int(length, "length", 1), _check_int(seed, "seed")
    reg1 = _auto_register(length)
    larger = [r for r in sorted(_LFSR_TAPS) if r > reg1]
    reg2 = larger[0] if larger else sorted(_LFSR_TAPS)[-2]
    return np.stack(
        [
            prbs(length, amplitude, 2 * seed + 1, register=reg1),
            prbs(length, amplitude, 2 * seed + 2, register=reg2),
        ],
        axis=1,
    )


def _check_split(split) -> float:
    """``split``, the estimation share of a record, as a real number in (0, 1)."""
    if not 0 < _check_real(split, "split") < 1:
        raise ValidationError(f"split must lie in (0, 1), got {split!r}")
    return float(split)


@dataclass(frozen=True)
class SysIdDataset:
    """Sampled input/output data with a contiguous estimation/validation split."""

    dt: float
    inputs: np.ndarray    # (N, 2)
    outputs: np.ndarray   # (N,) output samples y_k = dY_k / dt
    split_index: int

    def __post_init__(self):
        u, y = _array(self.inputs, "inputs"), _array(self.outputs, "outputs").reshape(-1)
        if u.ndim != 2 or u.shape[1] != 2:
            raise ValidationError("inputs must be (N, 2)")
        if len(u) != len(y):
            raise ValidationError("inputs and outputs must have equal length")
        dt = _check_positive(self.dt, "dt")
        if not (0 < _check_int(self.split_index, "split_index") < len(y)):
            raise ValidationError("both splits must be nonempty")
        _freeze(self, inputs=u, outputs=y, dt=dt)

    @classmethod
    def from_record(cls, record: DiffusiveRecord, inputs, split: float = 0.7):
        y = record.increments / record.dt
        idx = int(round(_check_split(split) * len(y)))
        idx = min(max(idx, 1), len(y) - 1)
        return cls(dt=record.dt, inputs=inputs, outputs=y, split_index=idx)

    @property
    def n_samples(self) -> int:
        return len(self.outputs)

    def estimation(self):
        return self.inputs[: self.split_index], self.outputs[: self.split_index]

    def validation(self):
        return self.inputs[self.split_index:], self.outputs[self.split_index:]


@dataclass(frozen=True)
class SubspaceEstimate:
    """Discrete and continuous-time subspace estimates (feedthrough known)."""

    Ad: np.ndarray
    Bd: np.ndarray
    C: np.ndarray        # (1, 2n) measured output row
    Kd: np.ndarray       # (2n, 1) discrete innovation gain; see gain_fallback
    A: np.ndarray
    B: np.ndarray
    singular_values: np.ndarray
    dt: float
    gain_fallback: bool = False  # Kd was set to zero: the fit is exact (noise-free
                                 # data have zero innovation gain) or the DARE failed


# a fit whose mean-square residual is below this fraction of the mean square
# of the output it fits counts as exact (relative RMS residual under
# sqrt(eps), about 1.5e-8)
_EXACT_FIT_TOL = np.finfo(float).eps

# rows per block of the Hankel TSQR, within 11% of the best block at both
# widths measured (one BLAS thread, 2-CPU x86-64, build and factor): blocks of
# 512, 1,024, 2,048 and 4,096 rows against one plain QR took 14.0-16.7,
# 15.7-18.4, 16.0-18.9, 17.1-20.2 and 19.7-22.0 ms on the (8381, 60) stack of
# the benchmark's identification op, 626, 558, 503, 579 and 870 ms on the
# (69951, 150) stack of acceptance criterion 11(b)
_TSQR_ROWS = 1024


def _discrete_to_continuous(Ad, Bd, dt):
    ev = np.linalg.eigvals(Ad)
    on_neg_axis = (np.abs(ev.imag) <= 1e-12 * np.maximum(1.0, np.abs(ev))) & (
        ev.real <= 0.0
    )
    if np.any(on_neg_axis):
        raise LogBranch(
            "discrete drift has eigenvalues on the closed negative real axis; "
            "principal logarithm undefined"
        )
    A = scipy.linalg.logm(Ad) / dt
    if np.max(np.abs(A.imag)) > 1e-6 * max(1.0, np.max(np.abs(A.real))):
        raise LogBranch("matrix logarithm of the discrete drift is not real")
    A = A.real
    M = Ad - np.eye(Ad.shape[0])
    if np.linalg.cond(M) < 1e12:
        B = np.linalg.solve(M, A @ Bd)  # exact zero-order-hold inversion
    else:
        B = Bd / dt
    return A, B


def _project(rows, nu, nw):
    """Oblique projection of Yf onto row(Wp) along row(Uf), from the stack
    [Uf; Wp; Yf] given as coefficient rows in an orthonormal basis."""
    L = np.linalg.qr(rows.T, mode="r").T
    L22 = L[nu : nu + nw, nu : nu + nw]
    return L[nu + nw :, nu : nu + nw] @ np.linalg.pinv(L22) @ rows[nu : nu + nw]


@dataclass(frozen=True)
class _HankelFactor:
    """Order-independent part of the subspace fit of one dataset.  The block
    Hankel rows [Uf; Up; Yp; Yf] are ``L Q^T`` (Q (j, r) orthonormal, L r x r,
    r = 2i(m+l)); every row set the fit needs is kept as its coefficients in
    the Q basis, on which products over the j data columns are the same."""

    dt: float
    u: np.ndarray        # (N, 2) estimation inputs
    y: np.ndarray        # (N,) estimation outputs, feedthrough removed
    j: int               # Hankel columns
    Oim: np.ndarray      # (i-1, r) shifted oblique projection
    Usv: np.ndarray      # (i, i) left singular vectors of Oi
    sv: np.ndarray       # singular values of Oi, zero under the rank cut
    Vt: np.ndarray       # (i, r) right singular vectors of Oi
    Uii: np.ndarray      # (m, r) input block row i
    Yii: np.ndarray      # (l, r) output block row i


def _check_orders(orders) -> list:
    """Candidate mode counts: a nonempty sequence of positive integers."""
    orders = list(orders) if np.iterable(orders) else []
    if not orders or not all(isinstance(n, numbers.Integral) and not isinstance(n, bool)
                             and n > 0 for n in orders):
        raise ValidationError("orders must be a nonempty list of positive integers")
    return orders


def _hankel_factor(data, horizon, D, quadrature, orders) -> _HankelFactor:
    """Factor ``data`` once for subspace fits of the given mode counts."""
    i, m, ell = _check_int(horizon, "horizon", 1), 2, 1
    D = np.eye(2) if D is None else _real_matrix(D, "D", (2, 2))
    u, y_raw = data.estimation()
    y = y_raw - u @ D[_quad_row(quadrature)]
    N = len(y)
    for ns in [2 * n for n in _check_orders(orders)]:
        if i < ns + 1:
            raise ValidationError("horizon must exceed the state dimension")
        if N < 10 * (2 * i) * ns:
            raise InsufficientData(
                f"need at least {10 * 2 * i * ns} estimation samples, got {N}"
            )
    j, nu, r = N - 2 * i + 1, i * m, 2 * i * (m + ell)
    # Hankel column t of the rows [Uf; Up; Yp; Yf] is (u[t+i : t+2i],
    # u[t : t+i], y[t : t+2i]) flattened, so the transposed stack is built
    # C-ordered straight from windows of the data, in nb row blocks of
    # near-equal size; zero rows pad the last block and leave R unchanged.
    nb = -(-j // _TSQR_ROWS)
    rows = -(-j // nb)
    stack = np.zeros((nb * rows, r))
    win = np.lib.stride_tricks.sliding_window_view(u.reshape(-1), 2 * nu)[: m * j : m]
    stack[:j, :nu], stack[:j, nu : 2 * nu] = win[:, nu:], win[:, :nu]
    stack[:j, 2 * nu :] = np.lib.stride_tricks.sliding_window_view(y, 2 * i)[:j]
    # TSQR: the R factor of the stacked blocks' R factors is R of the whole
    # stack up to the sign of each row (a sign flip of a Q basis vector, which
    # every product below over the j columns ignores); no Gram or Cholesky
    # shortcut, which would square the condition number the rank cut reads
    blocks_r = np.linalg.qr(stack.reshape(nb, rows, r), mode="r")
    L = np.linalg.qr(blocks_r.reshape(-1, r), mode="r").T  # only L: Q is as long as the data
    # the leading rows [Uf; Up] are the rows of U, so the leading block of L
    # has the singular values of U
    sv_u = np.linalg.svd(L[: 2 * i * m, : 2 * i * m], compute_uv=False)
    if sv_u[0] <= 0 or sv_u[-1] < 1e-9 * sv_u[0]:
        raise NotExciting("input block Hankel matrix is rank deficient")
    nw = i * (m + ell)
    Oi = _project(L, nu, nw)
    # the shifted stack [Uf-; Up+; Yp+; Yf-] permutes the rows of the first
    perm = np.r_[m:nu, nu : 2 * nu, 0:m, 2 * nu : len(L)]
    Oim = _project(L[perm], nu - m, nw + m + ell)
    Usv, sv, Vt = np.linalg.svd(Oi, full_matrices=False)
    # numerical rank cut at the tolerance of the (i, j) matrix Oi: an
    # over-parameterized fit to exact data gets exactly zero junk modes
    sv[sv < j * np.finfo(float).eps * sv[0]] = 0.0
    return _HankelFactor(
        dt=data.dt, u=u, y=y, j=j, Oim=Oim, Usv=Usv, sv=sv, Vt=Vt,
        Uii=L[:m], Yii=L[2 * nu + i : 2 * nu + i + ell],
    )


def _subspace_discrete(f: _HankelFactor, order: int):
    """Discrete-time subspace estimate (Ad, Bd, C, Kd, singular values, fallback).

    Reads order ``order`` off the factor; state directions under its rank
    cut come out as states with zero dynamics, input and output.
    """
    ns, ell = 2 * order, 1
    k = int(np.count_nonzero(f.sv[:ns]))
    root = np.sqrt(f.sv[:k])
    Xi = root[:, None] * f.Vt[:k]                          # pinv(gam) Oi
    Xip = np.linalg.pinv(f.Usv[:-ell, :k] * root) @ f.Oim  # pinv(gam_minus) Oim
    reg = np.vstack([Xi, f.Uii])
    theta = np.linalg.lstsq(reg.T, Xip.T, rcond=None)[0].T
    C = np.linalg.lstsq(Xi.T, f.Yii.T, rcond=None)[0].T
    res_w = Xip - theta @ reg
    res_e = f.Yii - C @ Xi
    Ad, Kd, fallback = theta[:, :k], np.zeros((k, ell)), True
    # noise-free data has zero innovation gain: on an exact fit the residual
    # covariances are round-off, so the open loop predicts
    if np.sum(res_e**2) > _EXACT_FIT_TOL * np.sum(f.Yii**2):
        Qw, Re, Sw = res_w @ res_w.T / f.j, res_e @ res_e.T / f.j, res_w @ res_e.T / f.j
        try:
            P = scipy.linalg.solve_discrete_are(Ad.T, C.T, Qw, Re, s=Sw)
            Kd = np.linalg.solve((C @ P @ C.T + Re).T, (Ad @ P @ C.T + Sw).T).T
            fallback = False
        except (np.linalg.LinAlgError, ValueError):
            pass
    pad = ns - k
    return (np.pad(Ad, (0, pad)), np.pad(theta[:, k:], ((0, pad), (0, 0))),
            np.pad(C, ((0, 0), (0, pad))), np.pad(Kd, ((0, pad), (0, 0))), f.sv, fallback)


def _balance(A, B, C):
    """Similarity transform to an internally balanced realization.

    The subspace basis is arbitrary and often badly scaled (tiny B against
    a large C), which would skew any distance-based projection; balancing
    equalizes the controllability and observability Gramians.  Falls back
    to a scalar rescaling when the Gramians are unavailable (non-Hurwitz
    or near-singular case).
    """
    ns = A.shape[0]
    try:
        if np.any(np.linalg.eigvals(A).real >= -1e-12):
            raise np.linalg.LinAlgError("drift not Hurwitz")
        Wc = scipy.linalg.solve_continuous_lyapunov(A, -B @ B.T)
        Wo = scipy.linalg.solve_continuous_lyapunov(A.T, -C.T @ C)
        Wc = (Wc + Wc.T) / 2
        Wo = (Wo + Wo.T) / 2
        R = np.linalg.cholesky(Wc + 1e-12 * np.trace(Wc) / ns * np.eye(ns))
        lam, U = np.linalg.eigh(R.T @ Wo @ R)
        if lam[0] <= 1e-12 * lam[-1]:
            raise np.linalg.LinAlgError("observability Gramian near singular")
        T = R @ U @ np.diag(lam ** -0.25)
        Tinv = np.diag(lam ** 0.25) @ U.T @ np.linalg.inv(R)
    except np.linalg.LinAlgError:
        nb, nc = np.linalg.norm(B), np.linalg.norm(C)
        s = np.sqrt(nc / nb) if nb > 0 and nc > 0 else 1.0
        T = np.eye(ns) / s
        Tinv = np.eye(ns) * s
    return T, Tinv


def subspace_id(
    data: SysIdDataset, order: int, horizon: int,
    D: np.ndarray | None = None, quadrature: str = "Q",
) -> SubspaceEstimate:
    """Combined deterministic-stochastic subspace identification.

    The known feedthrough (measured row of ``D``, identity by default) is
    removed from the outputs, which then regress on states only.
    ``order`` counts oscillator modes: the state dimension is 2*order.
    One triangular factor of the block Hankel data gives the projections,
    the SVD (singular values under the numerical rank cut zeroed) and the
    fits; an exact fit gets zero innovation gain (``gain_fallback``).
    Continuous matrices come from the principal matrix logarithm, with an
    explicit :class:`LogBranch` failure instead of a silent branch repair;
    the returned realization is internally balanced.
    """
    f = _hankel_factor(data, horizon, D, quadrature, [order])
    return _subspace_estimate(_subspace_discrete(f, order), f.dt)


def _subspace_estimate(fit, dt: float) -> SubspaceEstimate:
    """Continuous-time, balanced estimate from a :func:`_subspace_discrete` fit."""
    Ad, Bd, C, Kd, sv, fallback = fit
    A, B = _discrete_to_continuous(Ad, Bd, dt)
    T, Tinv = _balance(A, B, C)
    A, B, C = Tinv @ A @ T, Tinv @ B, C @ T
    Ad, Bd, Kd = Tinv @ Ad @ T, Tinv @ Bd, Tinv @ Kd
    return SubspaceEstimate(
        Ad=Ad, Bd=Bd, C=C, Kd=Kd, A=A, B=B, singular_values=sv, dt=dt,
        gain_fallback=fallback,
    )


# --- physical-realizability projection ---------------------------------------


@functools.lru_cache(maxsize=None)
def _param_layout(n2):
    """Coordinates of the (Sigma, B, Z) map for state dimension n2.

    A parameter vector lists the upper triangle of the symmetric Sigma, the
    entries of B row by row and the strict upper triangle of the skew Z.
    Returns both triangles' indices and the bases ``(E_S, E_B, E_Z)``, one
    row per parameter: ``x @ E`` (over the flattened trailing axes) sends a
    parameter vector, or a direction, to its matrix.
    """
    iu, iz = np.triu_indices(n2), np.triu_indices(n2, 1)
    ms, mb = len(iu[0]), 2 * n2
    P = ms + mb + len(iz[0])
    E_S, E_B, E_Z = np.zeros((P, n2, n2)), np.zeros((P, n2, 2)), np.zeros((P, n2, n2))
    k = np.arange(ms)
    E_S[k, iu[0], iu[1]] = E_S[k, iu[1], iu[0]] = 1.0
    k = np.arange(mb)
    E_B[ms + k, k // 2, k % 2] = 1.0
    k = np.arange(ms + mb, P)
    E_Z[k, iz[0], iz[1]], E_Z[k, iz[1], iz[0]] = 1.0, -1.0
    for arr in (*iu, *iz, E_S, E_B, E_Z):
        arr.setflags(write=False)
    return iu, iz, (E_S, E_B, E_Z)


# growth of a start's certificate past which pr_projection stops it.  On the
# 86 criterion-11 (b) and (d) and benchmark fits, the starts that reached the
# best cost grew at most 15.2x (a non-best local minimum 7.8x), and the
# runaway starts ended 2.5e7-1.6e8x out after 45-60 evaluations.  The bound
# also scales with the estimate's own certificate: a realizable estimate in
# the basis T = a I has Z = a^2 J_n, however far that is from the starts.
_Z_GROWTH = 100.0


class _Runaway(Exception):
    """Raised from the residuals to stop a start; carries its cost there."""


@dataclass(frozen=True)
class ProjectionResult:
    A: np.ndarray
    B: np.ndarray
    C_m: np.ndarray      # (1, 2n) measured row of the projected system
    Z: np.ndarray
    cost: float
    start_costs: np.ndarray
    feasibility: float


def pr_projection(
    raw: tuple, D: np.ndarray, quadrature: str = "Q",
    *, n_starts: int = 8, seed: int = 0, max_nfev: int = 400,
) -> ProjectionResult:
    """Project a raw (A, B, C_m) estimate onto the realizable set.

    Minimizes ``M = (||A - Ahat||^2 + ||B - Bhat||^2 + ||Cm - Cmhat||^2)/2``
    over the feasible set of the generalized constraints with scattering
    matrix ``D``.  A symmetric Sigma, B and an invertible skew certificate Z
    give ``A = (Sigma - B J B^T / 2) Z^-1`` and ``C = -D J B^T Z^-1``, which
    satisfy both realizability equations by construction and cover the set
    once.  Multi-start Levenberg-Marquardt with the analytic Jacobian:
    MINPACK's ``lmder`` through ``scipy.optimize.leastsq`` with ``diag=None``
    (variables scaled by the Jacobian's column norms, on any scipy), whose
    stopping tests are scale-free, so an exactly realizable estimate
    converges to round-off.  The first start is ``Z = J_n``,
    ``B = Bhat``, ``Sigma = sym(Ahat J_n)``; each other start takes
    ``Z = (+)_i s_i J`` with a random sign and scale
    ``|s_i| = exp(0.4 N(0, 1))`` per mode and ``Sigma = sym(Ahat Z)``, so
    both signs of Pf(Z) are searched.

    A start is stopped once the strict upper triangle of its Z grows past
    100 times the larger of its initial norm and the norm of the estimate's
    own certificate (the least-squares skew Z of the realizability equations
    at ``(Ahat, Bhat, Cmhat)``, exact for a realizable estimate): on the
    feasible set's boundary at infinity C -> 0, so such a start runs toward
    a limit cost, never to a projection.  A stopped start keeps in
    ``start_costs`` its cost where it was stopped and is never the result.  :class:`OptimizationFailed` is raised when every
    start is stopped (the estimate has no projection at finite Z), when the
    best start is stopped by ``max_nfev``, and for a result off the feasible
    set.
    """
    row = _quad_row(quadrature)
    D = _real_matrix(D, "D", (2, 2))
    seed, n_starts = _check_int(seed, "seed", 0), _check_int(n_starts, "n_starts", 1)
    max_nfev = _check_int(max_nfev, "max_nfev", 1)
    Ahat = _even_square(raw[0], "Ahat")
    n2 = Ahat.shape[0]
    Bhat = _real_matrix(raw[1], "Bhat", (n2, 2))
    Cmhat = _real_vector(raw[2], "Cmhat", n2)[None]
    J, Jn = symplectic_form(1), symplectic_form(n2 // 2)
    # the last four realizability residuals, D J D^T - J, depend on D alone
    scatter = np.max(np.abs(_pr_equations(Ahat, Bhat, np.zeros((2, n2)), D, Jn)[-4:]))
    if not scatter <= 1e-8:
        raise ValidationError(f"D J D^T = J fails for D (residual {scatter:.3e} > 1e-8)")
    iu, iz, (E_S, E_B, E_Z) = _param_layout(n2)
    E_Bt = np.swapaxes(E_B, 1, 2)
    ms, mb = len(iu[0]), 2 * n2
    memo = {}

    def realize(x):
        # one per iterate; x is MINPACK's work buffer, so keep no view of it
        key = x.tobytes()
        if key not in memo:
            S, Z = np.zeros((2, n2, n2))
            S[iu] = S.T[iu] = x[:ms]
            Z[iz], Z.T[iz] = x[ms + mb :], -x[ms + mb :]
            B = x[ms : ms + mb].reshape(n2, 2).copy()
            Zinv = np.linalg.inv(Z)
            memo.clear()
            memo[key] = ((S - 0.5 * B @ J @ B.T) @ Zinv, B, -D @ J @ B.T @ Zinv, Z, Zinv)
        return memo[key]

    def residuals(x):
        try:
            A, B, C, _, _ = realize(x)
        except np.linalg.LinAlgError:  # a singular Z: the step is rejected
            return np.full(n2 * n2 + 3 * n2, np.inf)
        res = np.concatenate([(A - Ahat).ravel(), (B - Bhat).ravel(), C[row] - Cmhat[0]])
        z = x[ms + mb :]
        if z @ z > z_max:
            raise _Runaway(0.5 * (res @ res))
        return res

    def jacobian(x):
        A, B, C, _, Zinv = realize(x)
        dA = (E_S - 0.5 * (E_B @ J @ B.T + B @ J @ E_Bt) - A @ E_Z) @ Zinv
        dC = -(D @ J @ E_Bt + C @ E_Z) @ Zinv
        P = len(x)
        return np.concatenate([dA.reshape(P, -1), E_B.reshape(P, -1), dC[:, row]], axis=1).T

    def start(Z):
        S = Ahat @ Z
        return np.concatenate([((S + S.T) / 2)[iu], Bhat.ravel(), Z[iz]])

    rng = np.random.default_rng(seed)
    starts = [start(Jn)]
    for _ in range(n_starts - 1):
        s = rng.choice((-1.0, 1.0), n2 // 2) * np.exp(0.4 * rng.normal(size=n2 // 2))
        starts.append(start(np.kron(np.diag(s), J)))

    # the estimate's own certificate (the other output row left zero) and
    # each start's set the scale past which that start is stopped
    C0 = np.zeros((2, n2))
    C0[row] = Cmhat[0]
    z_est = _certificate_lstsq(Ahat, Bhat, C0, D)[iz]
    z_max = np.inf  # the bound on |z|^2 of the running start

    def solve(x0):
        """(cost, solution, MINPACK status); no solution for a stopped start."""
        nonlocal z_max
        z_max = _Z_GROWTH**2 * max(x0[ms + mb :] @ x0[ms + mb :], z_est @ z_est)
        try:
            x, _, info, _, ier = optimize.leastsq(
                residuals, x0, Dfun=jacobian, full_output=True, ftol=1e-14,
                xtol=1e-14, gtol=1e-8, maxfev=max_nfev)
        except _Runaway as stop:
            return stop.args[0], None, None
        return 0.5 * (info["fvec"] @ info["fvec"]), x, ier

    sols = [solve(x0) for x0 in starts]
    costs = [sol[0] for sol in sols]
    kept = [k for k, sol in enumerate(sols) if sol[1] is not None]
    if not kept:
        raise OptimizationFailed(
            f"every start ran toward an infinite certificate Z (|Z| past {_Z_GROWTH:g}x "
            f"its scale); the estimate has no projection at finite Z"
        )
    k = min(kept, key=costs.__getitem__)  # the first best start that was not stopped
    if sols[k][2] == 5:  # MINPACK stopped at maxfev
        raise OptimizationFailed(
            f"projection stopped at max_nfev={max_nfev} before converging "
            f"(cost {costs[k]:.3e})"
        )
    A, B, C_full, Z, _ = realize(sols[k][1])
    feas = np.max(np.abs(_pr_equations(A, B, C_full, D, Z)))
    if not np.isfinite(feas) or feas > 1e-6 * max(1.0, np.abs(A).max()):
        raise OptimizationFailed(
            f"no feasible projection below tolerance (residual {feas:.3e})"
        )
    return ProjectionResult(
        A=A, B=B, C_m=C_full[row : row + 1].copy(), Z=Z,
        cost=float(costs[k]), start_costs=np.asarray(costs), feasibility=float(feas),
    )


def recover_full_c(
    Z: np.ndarray, B: np.ndarray, D: np.ndarray,
    measured_row: str | None = None, c_m: np.ndarray | None = None,
) -> np.ndarray:
    """Full output matrix from the realizability identity Z C^T + B J D^T = 0.

    With Z invertible every row of C is determined as
    ``C = -(Z^{-1} B J D^T)^T``; when the measured row and its estimate are
    supplied, that row is kept as estimated and only the other row comes
    from the identity.
    """
    Z = _even_square(Z, "Z")
    B = _real_matrix(B, "B", (len(Z), 2))
    D = _real_matrix(D, "D", (2, 2))
    J = symplectic_form(1)
    if np.linalg.cond(Z) > 1e12:
        raise SingularZ("certificate Z is not invertible")
    row = None if measured_row is None else _quad_row(measured_row)
    C = -np.linalg.solve(Z, B @ J @ D.T).T
    if row is not None and c_m is not None:
        C[row] = _real_vector(c_m, "c_m", len(Z))
    return C


def _one_step_mse(Ad, Bd, C, Kd, u, ytilde):
    """One-step-ahead mean squared prediction error of a discrete model.

    An unstable predictor (possible for over-parameterized fits) scores
    infinite error rather than overflowing.
    """
    c_row = np.asarray(C).reshape(-1)
    # z' = (Ad - Kd C) z + Bd u + Kd y
    Z = _lti_run(Ad - np.outer(Kd[:, 0], c_row), u @ Bd.T + np.outer(ytilde, Kd[:, 0]))
    with np.errstate(over="ignore", invalid="ignore"):
        pred = Z[:-1] @ c_row
    if not np.all(np.abs(pred) <= 1e100):  # also catches inf and nan
        return np.inf
    e = ytilde - pred
    return float(e @ e) / len(ytilde)


def fpe_order_select(
    data: SysIdDataset, orders, horizon: int, D: np.ndarray | None = None,
    quadrature: str = "Q",
) -> tuple[int, dict]:
    """Akaike final prediction error over candidate mode counts.

    ``FPE(n) = V_N (1 + p/N) / (1 - p/N)`` with V_N the one-step-ahead MSE
    of the identified order-n model on the estimation split and
    ``p = 4 n^2 + 8 n`` free parameters (A, B, C row and innovation gain
    for 2n states and two inputs).  ``V_N`` is floored at
    ``eps * mean(ytilde^2)`` (machine epsilon times the mean square of the
    feedthrough-free output).  The floor is a tolerance, not the round-off
    level: every fit whose relative RMS residual is under ``sqrt(eps)``
    (about 1.5e-8) counts as exact, so exact fits tie and the parameter
    penalty picks the smallest exact order.  Every candidate is read from
    one factor of the data (see :func:`subspace_id`).  Selection runs on
    the discrete-time estimates, where the one-step predictor lives; the
    continuous conversion (and any branch failure) belongs to the selected
    order.
    """
    orders = _check_orders(orders)
    return _fpe_select(_hankel_factor(data, horizon, D, quadrature, orders), orders)[:2]


def _fpe_select(f: _HankelFactor, orders) -> tuple[int, dict, dict]:
    """Selected order, FPE table and the discrete fit of every order."""
    N = len(f.y)
    floor = _EXACT_FIT_TOL * float(np.mean(f.y**2))
    table, fits = {}, {}
    for n in orders:
        fits[n] = Ad, Bd, C, Kd, _, _ = _subspace_discrete(f, n)
        vn = max(_one_step_mse(Ad, Bd, C, Kd, f.u, f.y), floor)
        p = 4 * n * n + 8 * n  # below N: the data check asks N >= 40 n (2n + 1)
        table[n] = vn * (1 + p / N) / (1 - p / N)
    return min(table, key=table.get), table, fits


def validate_nmse(
    G: LinearQSystem, L_m: np.ndarray, data: SysIdDataset, quadrature: str = "Q",
) -> float:
    """Normalized mean squared one-step prediction error on the validation split.

    ``NMSE = sum (y - yhat)^2 / sum (y - ybar)^2`` over the validation
    samples, with ``yhat`` the one-step Kalman predictor of the supplied
    model.  The predictor starts from ``z = 0`` at the first sample and runs
    through the estimation split, so that by the split its state has
    forgotten the start; only the validation samples are scored.
    """
    row = _quad_row(quadrature)
    y_val = data.validation()[1]
    denom = float(np.sum((y_val - y_val.mean()) ** 2))
    if denom == 0.0:
        raise DegenerateOutput("validation output has zero variance")
    u, y = data.inputs, data.outputs
    Cm, Dm = G.C[row], G.D[row]
    L_m = _real_vector(L_m, "L_m", 2 * G.n)
    # z' = z + (A z + B u) dt + L (y - Cm z - Dm u) dt
    Z = _lti_run(np.eye(2 * G.n) + (G.A - np.outer(L_m, Cm)) * data.dt,
                 (u @ (G.B - np.outer(L_m, Dm)).T + y[:, None] * L_m) * data.dt)
    s = data.split_index
    e = y[s:] - Z[s:-1] @ Cm - u[s:] @ Dm
    return float(e @ e) / denom


@dataclass(frozen=True)
class PipelineConfig:
    """Configuration of the end-to-end identification run.  With a ``dataset``,
    ``dt`` must be the dataset's, and ``T`` and ``prbs_amplitude`` are not read."""

    dt: float
    T: float
    prbs_amplitude: float
    orders: tuple
    quadrature: str = "Q"
    seed: int = 0
    split: float = 0.7
    horizon: int = 10
    system: LinearQSystem | None = None
    dataset: SysIdDataset | None = None

    def __post_init__(self):
        if self.system is None and self.dataset is None:
            raise ValidationError("config needs a true system or a dataset")
        _quad_row(self.quadrature)
        _freeze(self, orders=tuple(_check_orders(self.orders)))
        _check_int(self.seed, "seed", 0)
        _check_int(self.horizon, "horizon", 1)
        _freeze(self, split=_check_split(self.split), dt=_check_positive(self.dt, "dt"))
        if self.dataset is None:
            _freeze(self, T=_check_positive(self.T, "T"),
                    prbs_amplitude=_check_positive(self.prbs_amplitude, "prbs_amplitude"))
        elif self.dt != _instance(self.dataset, SysIdDataset, "dataset").dt:
            raise ValidationError(f"dt {self.dt!r} is not the dataset's dt {self.dataset.dt!r}")


@dataclass(frozen=True)
class SysIdResult:
    raw: SubspaceEstimate
    projected: LinearQSystem
    Z: np.ndarray
    order: int
    cost: float
    fpe: float
    fpe_table: dict
    nmse: float
    pr2_residual: float
    config: PipelineConfig = field(repr=False, default=None)


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        exc.args = (f"[{name}] {exc}",) + exc.args[1:]
        raise


def run_pipeline(config: PipelineConfig) -> SysIdResult:
    """Run the full identification chain and return the fitted system."""
    if config.dataset is not None:
        data = config.dataset
    else:
        n_steps = _grid_steps(config.T, config.dt)
        f = prbs_pair(n_steps, config.prbs_amplitude, config.seed)
        gain, _ = _stage("kalman_gain", kalman_gain, config.system, config.quadrature)
        record, _ = _stage(
            "simulate", simulate_innovation_form,
            config.system, gain, config.quadrature, f,
            config.T, config.dt, config.seed,
        )
        data = SysIdDataset.from_record(record, f, split=config.split)

    D = np.eye(2) if config.system is None else config.system.D
    factor = _stage(
        "fpe_order_select", _hankel_factor,
        data, config.horizon, D, config.quadrature, config.orders,
    )
    n_best, table, fits = _stage("fpe_order_select", _fpe_select, factor, config.orders)
    est = _stage("subspace_id", _subspace_estimate, fits[n_best], factor.dt)
    proj = _stage(
        "pr_projection", pr_projection,
        (est.A, est.B, est.C), D, config.quadrature, seed=config.seed,
    )
    C_full = _stage(
        "recover_full_c", recover_full_c,
        proj.Z, proj.B, D, config.quadrature, proj.C_m[0],
    )
    projected = LinearQSystem(A=proj.A, B=proj.B, C=C_full, D=D)
    pr2_res = np.max(np.abs(_pr_equations(proj.A, proj.B, C_full, D, proj.Z)))
    gain_fit, _ = _stage("kalman_gain", kalman_gain, projected, config.quadrature)
    nmse = _stage(
        "validate_nmse", validate_nmse, projected, gain_fit, data, config.quadrature
    )
    return SysIdResult(
        raw=est, projected=projected, Z=proj.Z, order=n_best, cost=proj.cost,
        fpe=table[n_best], fpe_table=table, nmse=nmse,
        pr2_residual=float(pr2_res), config=config,
    )
