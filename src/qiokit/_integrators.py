"""Batched integration cores for the stochastic master equations.

Not public API.  Everything here works on plain complex arrays, with
states shaped (b, d, d) and model operators (d, d) or (b, d, d), and is
shared by the trajectory generators and the filtering/likelihood layer so
that simulation, filtering and likelihood evaluation follow one and the
same discretization scheme:

* diffusive records: Euler step of the linear (Zakai) update followed by
  eigenvalue clipping at -1e-12 and trace renormalization; the trace of the
  linear update is the per-step likelihood factor, so the normalized filter
  equals the normalized Zakai solution identically and the product of
  factors is the Zakai trace.  States are held as d^2 real Hermitian
  coordinates, so no step needs Hermitizing: one real product with a
  per-model step matrix gives the update, its factor, the measurement mean
  and the linear parts of one screen of the smallest eigenvalue for every d,
  which sends only the rows that may need clipping to the exact eigvalsh
  clip, in windows of steps (``sweep_diffusive``).  Step buffers are
  coordinate-major, so elementwise work runs over contiguous rows, and the
  product reads each row's contiguous state, so a row's bits do not depend
  on the batch width.
* counting records: no-jump intervals advance with the first-order Kraus
  map M = 1 - dt (iH + L^dag L/2), which preserves positivity, and jumps
  apply rho -> L rho L^dag; both trace factors enter the likelihood.  The
  reference Poisson intensity enters in closed form as
  lam*T - N*log(lam), which makes the intensity-shift identity exact.  One
  engine, ``CountingLoglik``, serves simulation, replay, likelihood and score.
  Its two samplers return jump times only.  Its sweep, the one place that sums
  a counting log-likelihood, takes rows (model, record) and fuses the cells
  between two anchors (jumps, and marks where the float range asks) into one map,
  built from amplitudes: fixed-order sums over the eigenvectors of the no-jump generator.
  A jump at rate <= DARK_RATE has likelihood zero, and no sampler records one.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from types import SimpleNamespace

import numpy as np

from .exceptions import ZeroJumpRate
from .operators import _lindblad_tangent, _nojump_generator, _nojump_tangent, dag

EIG_CLIP = -1e-12
TRACE_FLOOR = 1e-290
DARK_RATE = 1e-14  # a jump at this rate or below has likelihood zero
_DIFFUSIVE_BLOCK = 1 << 14  # rows x steps x (m + 2) in a block of the diffusive sweep
# Largest condition number of the eigenvectors U of the no-jump generator for
# which its eigenbasis is used; quantities built on it lose up to cond(U)^2 eps.
EIG_COND_MAX = 1e3


def btrace(x):
    """Trace over the last two axes."""
    return np.einsum("...ii->...", x)


def expect(op, rho):
    """Tr(op @ rho) over the last two axes without forming the product."""
    return np.einsum("...ij,...ji->...", op, rho)


def _kron(a, b):
    """Kronecker product of square matrices over the last two axes, batched."""
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    n = a.shape[-1] * b.shape[-1]
    return prod.reshape(prod.shape[:-4] + (n, n))


@functools.lru_cache(maxsize=None)
def _hermitian_index(d):
    """Row k of ``basis``: the (d, d) matrix of real coordinate k, C order, real and
    imaginary parts interleaved; ``upper``: the coordinates' places in that layout."""
    iu, ju = np.triu_indices(d, 1)
    m, k = len(iu), np.arange(len(iu))
    E = np.zeros((d * d, d, d), dtype=complex)
    E[np.arange(d), np.arange(d), np.arange(d)] = 1.0
    E[d + k, iu, ju] = E[d + k, ju, iu] = 1.0
    E[d + m + k, iu, ju], E[d + m + k, ju, iu] = 1j, -1j
    diag, up = 2 * (d + 1) * np.arange(d), 2 * (iu * d + ju)
    return SimpleNamespace(basis=E.reshape(d * d, -1).view(float) + 0.0,
                           upper=np.concatenate([diag, up, up + 1]))


def _coords(v):
    """Real coordinates of Hermitian matrices from vec(rho), (..., d^2): the diagonal,
    then the real and then the imaginary parts of the upper triangle."""
    upper = _hermitian_index(math.isqrt(v.shape[-1])).upper
    return np.ascontiguousarray(v, dtype=complex).view(float)[..., upper]


def _matrices(r):
    """The complex (d, d) matrices of real coordinates r, (..., d^2), exactly."""
    d = math.isqrt(r.shape[-1])
    return (r @ _hermitian_index(d).basis).view(complex).reshape(r.shape[:-1] + (d, d))


def _diffusive_step_matrix(H, L, dt, dH=None, dL=None):
    """Step matrix M on the real coordinates r (``_coords``) as row vectors:
    ``r @ M = [A0 r, A0 f, K r, K f, mean dt]``, A0 = I + dt Lindblad, K: rho ->
    L rho + rho L^dag, mean = Tr((L+L^dag) rho), f the screen's linear parts: Tr and
    s' = Tr/d - EIG_CLIP/2 Tr(rho), the trace term of the screen's bound on the
    smallest eigenvalue.  (d^2, 2h+1) per model, h = d^2 + 2; stacks (b, d^2, 2h+1).
    Row k holds the images of the matrix E_k of coordinate k.  Derivatives dH, dL (k, d, d)
    lift A0, K onto (1 + k) d^2 rows [r, z_1, ..., z_k], for d^2 above; f and mean read r."""
    d = L.shape[-1]
    E = _matrices(np.eye(d * d))
    L, G = L[..., None, :, :], _nojump_generator(H, dag(L) @ L)[..., None, :, :]
    # Lindblad generator: rho -> L rho L^dag - G rho - rho G^dag, and its derivatives
    maps = [E + dt * (L @ E @ dag(L) - G @ E - E @ dag(G)), L @ E + E @ dag(L)]
    if dH is not None:  # the parameter axis before E's
        Lk, dL = L[..., None, :, :], dL[..., None, :, :]
        dG = _nojump_tangent(Lk, dH[..., None, :, :], dL)
        maps += [dt * _lindblad_tangent(Lk, dL, dG, E), dL @ E + E @ dag(dL)]
    A0, K, *dX = (_coords(X.reshape(X.shape[:-2] + (d * d,))) for X in maps)
    if dX:  # lifted: [[X, dX_1, ..., dX_k], [0, X, 0, ...], ...] acts on [r, z_1, ..., z_k]
        A0, K = (_kron(_identity(1 + dX[0].shape[-3]), X) for X in (A0, K))
        for X, dXa in zip((A0, K), dX):
            X[..., :d * d, d * d:] = dXa.swapaxes(-3, -2).reshape(X.shape[:-2] + (d * d, -1))
    mean = np.zeros(A0.shape[:-1] + (1,))
    mean[..., :d * d, :] = expect(L + dag(L), E).real[..., None] * dt
    f, shift = np.zeros((2, A0.shape[-1], 2))
    f[:d], shift[:d, 1] = [1.0, 1.0 / d], -0.5 * EIG_CLIP
    return np.concatenate([A0, A0 @ f + shift, K, K @ f, mean], axis=-1)


def _clip_tangent(w, v, rho, z, factor, tr):
    """Tangents z (r, k d^2) through the clip rho = v max(w, 0) v^dag, of trace tr (factor
    before): Dclip[z] + rho (Tr z / factor - Tr Dclip[z] / tr), Dclip by Daleckii-Krein."""
    Z, v, vh = _matrices(z.reshape(len(z), -1, w.shape[-1] ** 2)), v[:, None], dag(v)[:, None]
    dw, pos = w[:, :, None] - w[:, None, :], np.clip(w, 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):  # equal eigenvalues: max(x, 0)'
        F = np.where(dw == 0.0, w[:, :, None] > 0.0, (pos[:, :, None] - pos[:, None, :]) / dw)
        D = v @ (F[:, None] * (vh @ Z @ v)) @ vh
        scale = btrace(Z).real / factor[:, None] - btrace(D).real / tr[:, None]
        D += rho[:, None] * scale[..., None, None]
    return _coords(D.reshape(D.shape[:2] + (-1,))).reshape(len(z), -1)


# A step divides by its factor before its screen: a dead row may divide by zero, and the
# steps of a window past a flagged one, which are discarded, may overflow.
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def sweep_diffusive(H, L, rho0, dt, dH=None, dL=None, *, dY=None, dI=None, keep_states=False,
                    keep_logtrace=False):
    """Run the diffusive core over a batch of b trajectories.

    Exactly one of ``dY`` (replay of given records) or ``dI`` (simulation:
    innovation draws, output increments returned) must be supplied, each
    shaped (b, n).  ``H``, ``L``: one model (d, d) or one per row (b, d, d), ``dH``,
    ``dL`` its derivatives (k, d, d) along k parameters, none by default; ``rho0``:
    one (d, d) state for every row.  Returns final/optional full states, the
    accumulated log trace (the log-likelihood), the simulated increments, and the
    exact derivatives ``score`` (k, b) and ``dfinal`` (k, b, d, d) of loglik and final.

    Per step, ``r @ M`` (``_diffusive_step_matrix``) gives the mean, and one
    multiply and one add of its halves give ``V = [U, Tr U, s']``; U / Tr U is the
    next r.  One bound screens every d: U has no eigenvalue below Tr U/d - t,
    t = sqrt((d-1)/d) |U - (Tr U/d) I|_F (Laguerre-Samuelson; exact at d = 2).  Rows
    whose s' - t is not positive or is NaN (its squares overflowed), or whose Tr U <=
    ``TRACE_FLOOR``, are flagged and go to ``eigvalsh``; at d > 2, once the screen
    flags every row, every row does to the end of the block.  Rows below ``EIG_CLIP``
    are divided by their clipped trace, all others by their factor, so the screen
    changes no bit.
    While every row is alive and screened, steps run in windows: the update alone
    for each step, each V kept, then one screen of the whole window.  A window is 8
    steps, doubled after each clean window up to 256.  At its first flagged step the
    window stops, and that step's kept V goes on to ``eigvalsh``; steps then run one
    at a time until one passes the screen clean, and the next window is 8 steps.
    R is row-major and the product one gemv per row on its contiguous state, never one
    2-D GEMM, so a row's bits do not depend on the batch width; W, V, dy and the screen
    are coordinate-major, so elementwise ops run over contiguous rows.  A row whose
    factor is not positive or whose clipped trace is below ``TRACE_FLOOR`` is dead: -inf
    from then on, its state frozen.  Per-step buffers hold blocks of ``_DIFFUSIVE_BLOCK``
    / (b (m + 2)) steps; one ``np.log`` and one ``np.cumsum`` per block log the factors.
    """
    simulate = dI is not None
    noise = np.asarray(dI if simulate else dY, dtype=float)
    b, n = noise.shape
    L = np.asarray(L, dtype=complex)
    M = _diffusive_step_matrix(np.asarray(H, dtype=complex), L, dt, dH, dL)
    d, m, h = L.shape[-1], M.shape[-2], (M.shape[-1] - 1) // 2
    d2 = d * d
    out_dY = np.empty((b, n)) if simulate else None
    states = np.empty((b, n + 1, d, d), dtype=complex) if keep_states else None
    logtrace = np.zeros((b, n + 1)) if keep_logtrace else None
    if keep_states:
        states[:, 0] = rho0
    B = min(n, max(1, _DIFFUSIVE_BLOCK // (b * (m + 2))))  # steps per block
    R = np.zeros((B + 1, b, 1, m))  # R[j]: the states [r, z_1, ...] after step j of the block
    R[0, ..., :d2] = _coords(np.asarray(rho0, dtype=complex).reshape(d2))
    dy, logs = np.empty((B, 1, b)), np.empty((B + 1, b))  # logs: loglik, then log factors
    W, V = np.empty((2 * h + 1, b)), np.empty((B, h, b))  # V[j]: step j's V, coordinate-major
    A0_r, K_r, mean_dt, W_rows = W[:h], W[h:2 * h], W[2 * h:], W.T[:, None]  # (b, 1, 2h+1)
    U, F, factor, head = V[:, :m], V[:, m:m + 1], V[:, m], V[:, m:m + 2]
    bound, gap = np.full((B, 2, b), TRACE_FLOOR), np.empty((B, 2, b))
    # t^2 = (d-1)/d (|U|_F^2 - (Tr U)^2/d), a weighted sum of the squares of V[:m + 1]:
    # a coordinate of U counts once on the diagonal and twice off it, a tangent not at all
    t, weight = bound[:, 1], np.r_[np.repeat([1.0, 2.0, 0.0], [d, d2 - d, m - d2]), -1 / d]
    weight *= (d - 1) / d
    alive, all_alive, loglik, win = np.ones(b, dtype=bool), True, np.zeros(b), 8
    Rs, dys, Vs, Us, Fs = map(list, (R, dy, V, U[:, :, None], F))  # per-step views, made once
    for k0 in range(0, n, B):
        k, j, screened = min(B, n - k0), 0, True
        dy[:k, 0] = noise[:, k0:k0 + k].T
        while j < k:  # a window of steps j..e-1: the update, then one screen
            e = min(j + win, k) if screened and all_alive else j + 1
            for i in range(j, e):
                np.matmul(Rs[i], M, W_rows)
                if simulate:
                    np.add(dys[i], mean_dt, dys[i])
                np.multiply(K_r, dys[i], Vs[i])
                np.add(Vs[i], A0_r, Vs[i])
                np.divide(Us[i], Fs[i], Rs[i + 1].T)  # Us[i] is (m, 1, b), as R[i + 1].T
            if screened:  # gap = [Tr U - TRACE_FLOOR, s' - t]
                np.sqrt(weight @ np.square(V[j:e, :m + 1]), out=t[j:e])
                np.subtract(head[j:e], bound[j:e], out=gap[j:e])
                if all_alive and gap[j:e].min() > 0.0:  # the window stands
                    j, win = e, min(max(2 * win, 8), 256)
                    continue
                if e > j + 1:  # the first flagged step; undo the mean added to the later ones
                    j += int((gap[j:e].min(axis=(1, 2)) > 0.0).argmin())
                    dy[j + 1:e, 0] = noise[:, k0 + j + 1:k0 + e].T
                flagged = ~(gap[j, 1] > 0.0) & alive  # a NaN bound flags its row
                screened = d == 2 or not flagged.all()  # d > 2: unscreened till the block ends
            else:
                flagged = alive
            u, f, j, win = U[j].T, factor[j], j + 1, 1  # the flagged step; one-step windows next
            rho = _matrices(u[:, :d2] if flagged is alive and all_alive else u[flagged, :d2])
            low = np.linalg.eigvalsh(rho, UPLO="U")[:, 0]
            if all_alive and low.min(initial=np.inf) >= EIG_CLIP and f.min() > TRACE_FLOOR:
                continue
            clip = low < EIG_CLIP
            rows, tr = flagged.nonzero()[0][clip], f.copy()
            if len(rows):
                w, v = np.linalg.eigh(rho[clip], UPLO="U")
                rho = (v * np.clip(w, 0.0, None)[..., None, :]) @ dag(v)
                u[rows, :d2] = _coords(rho.reshape(-1, d2))
                tr[rows] = u[rows, :d].sum(axis=-1)
                if m > d2:
                    u[rows, d2:] = _clip_tangent(w, v, rho, u[rows, d2:], f[rows], tr[rows])
            ok = (f > 0.0) & (tr > TRACE_FLOOR)
            keep = alive & ok
            R[j] = R[j - 1]
            R[j, keep, 0] = u[keep] / tr[keep, None]
            f[~keep] = 0.0  # logged as -inf
            alive &= ok
            all_alive = bool(alive.all())
        logs[0] = loglik
        np.log(factor[:k], out=logs[1:k + 1])
        loglik = np.cumsum(logs[:k + 1], axis=0, out=logs[:k + 1])[k].copy()
        if simulate:
            out_dY[:, k0:k0 + k] = dy[:k, 0].T
        if keep_logtrace:
            logtrace[:, k0 + 1:k0 + k + 1] = logs[1:k + 1].T
        if keep_states:
            states[:, k0 + 1:k0 + k + 1] = _matrices(R[1:k + 1, :, 0, :d2]).swapaxes(0, 1)
        R[0] = R[k]
    final = states[:, -1] if keep_states else _matrices(R[0, :, 0, :d2])
    z = R[0, :, 0, d2:].reshape(b, m // d2 - 1, d2)  # d(unnormalized state)/d(theta) / its trace
    score = np.where(loglik[:, None] == -np.inf, np.nan, z[..., :d].sum(axis=-1))
    dfinal = _matrices(z) - final[:, None] * score[..., None, None]
    return SimpleNamespace(final=final, loglik=loglik, states=states, logtrace=logtrace,
                           dY=out_dY, score=score.T, dfinal=dfinal.swapaxes(0, 1))


@functools.lru_cache(maxsize=None)
def _identity(d):
    eye = np.eye(d)
    eye.setflags(write=False)
    return eye


def nojump_kraus(gen, delta):
    """First-order no-jump Kraus operator 1 - delta*gen from the generator."""
    return _identity(gen.shape[-1]) - delta * gen


def _n_cells(horizon, dt):
    """Cells (c dt, (c+1) dt] up to the horizon, the last one possibly fractional."""
    return max(int(np.ceil(horizon / dt - 1e-9)), 1)


def _log1p(z):
    """log(1 + z) for complex z to full precision: numpy's complex log1p is not."""
    x, y = z.real, z.imag
    return 0.5 * np.log1p(x * (2.0 + x) + y * y) + 1j * np.arctan2(y, 1.0 + x)


def _powers(M, k):
    """M_i^k_i for the stack M (len(k), d, d) and the integers k, by repeated squaring."""
    out = np.broadcast_to(_identity(M.shape[-1]), M.shape).astype(complex)
    for bit in range(int(k.max(initial=0)).bit_length()):
        sel = ((k >> bit) & 1).astype(bool)
        out[sel] = out[sel] @ M[sel]
        M = M @ M
    return out


class CountingLoglik:
    """The counting engine: likelihood, score and final states of rows (model, record),
    replay, and the jump times of Bernoulli and exact sampling.

    The no-jump Kraus maps 1 - delta G (G = iH + L^dag L/2) of whole cells and of
    the sub-steps that jumps cut out of a cell share the eigenvectors U of G, so
    the stretch from an anchor (a jump, or a renormalization mark every ``_chunk``
    cells: per model the most over which no mode changes the trace by more than
    exp(_SPAN), rounded down to a power of two) to any later time is one map U diag(nu) U^-1.
    Models with cond(U) >= EIG_COND_MAX (near-defective G) take matrix powers.
    ``H``, ``L``: (n, d, d) stacks or one model; ``dH``, ``dL``: their derivatives
    along kp parameters, (n, kp, d, d), for a ``sweep`` that carries the tangent.  A sweep
    builds its maps ``_BLOCK`` complex entries at a time, 2 ``_BLOCK`` while one row is live
    (a one-row tangent sweep of 744 events is one call), whatever the record's length.
    """

    _SPAN = np.log(1e100)  # largest log trace change of one stretch
    _BLOCK = 1 << 15  # complex entries in a block of maps (twice for one live row); replay's too
    _ROW = 128  # most cells in one row of replayed states; a block of rows holds _BLOCK/4 entries
    _RENEWAL = 256  # waits in one batch of the renewal path of sample_exact

    def __init__(self, H, L, dt, lam=1.0, dH=None, dL=None):
        H, L = np.asarray(H, dtype=complex), np.asarray(L, dtype=complex)
        if L.ndim == 2:
            H, L = H[None], L[None]
        self.dt, self.lam = float(dt), float(lam)
        n, d = L.shape[0], L.shape[-1]
        eye = _identity(d)
        self._LdL = dag(L) @ L
        self._gen = _nojump_generator(H, self._LdL)
        try:
            g, U = np.linalg.eig(self._gen)
            with np.errstate(all="ignore"):
                cond = np.linalg.cond(U)
            ok = np.isfinite(cond) & (cond < EIG_COND_MAX)
        except np.linalg.LinAlgError:
            g, U, ok = np.zeros((n, d), complex), eye, np.zeros(n, dtype=bool)
        self._U = np.where(ok[:, None, None], U, eye)
        self._Uinv, self._g = np.linalg.inv(self._U), g
        # log of the one-cell eigenvalues 1 - dt g, nonzero under the step guard
        self._logmu = _log1p(-self.dt * g)
        with np.errstate(divide="ignore"):
            cells = self._SPAN / (2.0 * np.abs(self._logmu.real).max(axis=-1))
        # rounded down to a power of two, so a sweep's models share few intervals; 2^62 (int64)
        # means no mark.  g = 0 (except branch) gets none: no fixed cap bounds its true decay.
        self._chunk = 2 ** np.log2(cells).clip(0, 62).astype(int)
        self._bad, self._L, self._tangent = ~ok, L, dH is not None
        # amplitude bases [u_i v_l^T, L u_i v_l^T] at i d + l (U = [u_i], U^-1 = [v_l^T])
        uv = self._U.swapaxes(1, 2)[:, :, None, :, None] * self._Uinv[:, None, :, None, :]
        self._B = np.stack((uv, L[:, None, None] @ uv), axis=3).reshape(n, d * d, 2, d, d)
        if dH is not None:  # tangents (n, kp, d, d) along kp parameters
            dH, self._dL = (np.asarray(x, dtype=complex).reshape(n, -1, d, d) for x in (dH, dL))
            dG = _nojump_tangent(L[:, None], dH, self._dL)
            self._dGe = self._Uinv[:, None] @ dG @ self._U[:, None]
            # for the divided differences in _maps: w_ij = mu_i/mu_j - 1 with mu = 1 - dt g
            self._dtmu = self.dt / (1.0 - self.dt * g[:, None, :])
            w = (g[:, None, :] - g[:, :, None]) * self._dtmu
            self._l1p = _log1p(w)
            self._same, self._winv = w == 0.0, 1.0 / np.where(w == 0.0, np.inf, w)
            # [[G, dG_1, ..., dG_kp], [0, G, 0 ...], ...]: f of it has Df(G)[dG_a] top right
            self._big = _kron(_identity(1 + dG.shape[1]), self._gen)
            self._big[:, :d, d:] = dG.transpose(0, 2, 1, 3).reshape(n, d, -1)

    def _maps(self, a, k, b, mi, tangent=False):
        """Amplitudes [N, L N], then with ``tangent`` [dN, dL N + L dN] per parameter, (R,
        1 + kp, 2, d, d, E), of N = M_b M_dt^k M_a for a, k, b (R, E) and models ``mi`` (R,):
        N = sum_i f_i u_i v_i^T, f = (1 - a g)(1 - b g) mu^k, dN = sum_il F_il (U^-1 dG U)_il
        u_i v_l^T (F: divided differences of f).  Events with k = 0 (the sum would cancel to I)
        and ``_bad`` models take the Kraus products, dN the top right of f([[G, dG], [0, G]])."""
        a, k, b = np.broadcast_arrays(a, k, b)
        d, g, B = self._L.shape[-1], self._g[mi][..., None], self._B[mi][:, :, None, ..., None]
        u, v = 1.0 - a[:, None] * g, 1.0 - b[:, None] * g
        q = np.exp(k[:, None] * self._logmu[mi][..., None])
        # sums over a short outer axis, which numpy adds in order: a row's bits are its own
        W = ((u * v * q)[:, :, None, None, None, None] * B[:, ::d + 1]).sum(1)
        if tangent:
            a2, k2, b2 = (x[:, None, None] for x in (a, k, b))
            # R = ((mu_i / mu_j)^k - 1) / w_ij (k where w = 0): q[g_i, g_j] = -q_j R dt / mu_j
            R = (np.expm1(k2 * self._l1p[mi][..., None]) * self._winv[mi][..., None]
                 + k2 * self._same[mi][..., None])
            F = q[:, None] * (-a2 * v[:, None] - b2 * u[:, :, None]
                              - (u * v)[:, :, None] * R * self._dtmu[mi][..., None])
            w = (self._dGe[mi][..., None] * F[:, None]).reshape(len(mi), -1, d * d, a.shape[1])
            W = np.concatenate((W, (w.swapaxes(1, 2)[..., None, None, None, :] * B).sum(1)), 1)
        r, e = np.nonzero((k == 0) | self._bad[mi, None])
        if len(r):
            gen, at = (self._big if tangent else self._gen)[mi[r]], (r, e, None, None)
            M = nojump_kraus(gen, b[at]) @ _powers(nojump_kraus(gen, self.dt), k[r, e])
            M = np.stack(np.split((M @ nojump_kraus(gen, a[at]))[:, :d], W.shape[1], 2), 1)
            W[r, ..., e] = np.stack((M, self._L[mi[r], None] @ M), axis=2)
        if tangent:  # dL N, added to L dN
            W[:, 1:, 1] += (self._dL[mi][..., None, None] * W[:, None, None, 0, 0]).sum(3)
        return W

    def _fused(self, a, k, b, is_jump, mi, tangent=False):
        """Maps of the events (a, k, b, is_jump), (R, E) each, of the models ``mi``: rows on
        vec(rho) of A rho A^dag, Tr(A rho A^dag), Tr(N rho N^dag), (R, d^2 + 2, d^2, E), A = L N
        at a jump (else N).  With ``tangent`` on [vec(rho); vec(z_1); ...], adding dA rho A^dag
        + A rho dA^dag + A z A^dag per parameter, and last its trace: products of amplitudes."""
        W = self._maps(a, k, b, mi, tangent)
        A = np.where(is_jump[:, None, None, None], W[:, :, 1], W[:, :, 0])  # [A, dA_1, ...]
        n, kp, d, E = len(A), A.shape[1] - 1, A.shape[2], A.shape[-1]
        d2, m, Ac, N = d * d, A.shape[1] * d * d, A.conj(), W[:, 0, 0]
        # a spare event keeps maps strided: one (non-BLAS) matmul loop; kp = 0 writes all entries
        out = (np.zeros if kp else np.empty)((n, m + 2 + kp, m, E + 1), dtype=complex)[..., :E]
        K = out[:, :m, :d2].reshape(n, 1 + kp, d, d, d, d, E)  # K = kron(conj A, A), then dK
        np.multiply(Ac[:, :, :, None, :, None], A[:, :1, None, :, None, :], out=K)
        K[:, 1:] += Ac[:, :1, :, None, :, None] * A[:, 1:, None, :, None, :]
        for j in range(1, 1 + kp):  # block lower-triangular [[K, 0], [dK, K]] on [y; z]
            out[:, j * d2:(j + 1) * d2, j * d2:(j + 1) * d2] = out[:, :d2, :d2]
        for j in range(1 + kp):  # Tr of block row j: y's at row m, the z's after Tr(N rho N^dag)
            out[:, m + j + (j > 0)] = out[:, j * d2:(j + 1) * d2:d + 1].sum(1)
        out[:, m + 1, :d2] = (N.conj()[:, :, :, None] * N[:, :, None]).sum(1).reshape(n, d2, E)
        return out

    def _layout(self, horizons, jumps, pairs, memo):
        """Event lists (a, k, b, is_jump, taus, cells; map (a, k, b) from the event before) of the
        rows ``pairs`` (record, mark interval), joined; a, k, b, is_jump, own (E, R), each row's
        last event and the rows by event count.  ``memo`` keeps each list and one-row layouts."""
        index = {x: i for i, x in enumerate(dict.fromkeys(pairs))}  # one list per pair
        ri, new = np.array([index[x] for x in pairs]), [x for x in index if x not in memo]
        if new:  # jumps, marks every c cells, then the horizon
            dt, horizons, jumps = self.dt, [horizons[r] for r, _ in new], [jumps[r] for r, _ in new]
            n_cells = np.array([_n_cells(h, dt) for h in horizons])
            parts = [np.concatenate((j, np.arange(c, n, c) * dt, [h]))
                     for h, j, n, (_, c) in zip(horizons, jumps, n_cells, new)]
            count, n_jumps = (np.array([len(x) for x in xs]) for xs in (parts, jumps))
            rec, start = np.repeat(np.arange(len(parts)), count), np.cumsum(count) - count
            pos = np.arange(len(rec)) - start[rec]  # the place within the list
            order = np.lexsort((np.concatenate(parts), rec))  # stable: jumps, marks, then horizon
            taus, is_jump = np.concatenate(parts)[order], pos[order] < n_jumps[rec]
            # cell c holds c dt < tau <= (c+1) dt: a jump on a boundary ends the cell before it
            cells = np.ceil(taus / dt).astype(int) - 1
            cells += (cells + 1) * dt < taus
            cells -= cells * dt >= taus
            np.clip(cells, 0, n_cells[rec] - 1, out=cells)
            prev_tau = np.where(pos == 0, 0.0, np.concatenate(([0.0], taus[:-1])))
            prev_cell = np.where(pos == 0, -1, np.concatenate(([-1], cells[:-1])))
            same = cells == prev_cell
            ev = (np.where(same, 0.0, (prev_cell + 1) * dt - prev_tau),
                  np.where(same, 0, cells - prev_cell - 1),
                  np.where(same, taus - prev_tau, taus - cells * dt), is_jump, taus, cells)
            memo.update(zip(new, zip(*(np.split(x, start[1:]) for x in ev))))
        lists = [np.concatenate(x) for x in zip(*(memo[x] for x in index))]
        count = np.array([len(memo[x][0]) for x in index])
        start, e, last = np.cumsum(count) - count, np.arange(count.max())[:, None], count[ri] - 1
        own = e <= last  # (E, R): event e of row i is event e of list ri[i], if it has one
        layout = (lists, *(x[start[ri] + np.minimum(e, last)] * own for x in lists[:4]), own,
                  last, np.argsort(-last, kind="stable"))  # most events first: the running rows
        return memo.setdefault(pairs, layout) if len(pairs) == 1 else layout

    def sweep(self, rho0, horizons, jumps, mi, ri, keep=False, memo=None):
        """Sweep the R rows i (model mi[i], record ri[i]) of the records (horizons, jumps), the one
        place that sums a counting log-likelihood: step e applies event e (a jump, renormalization
        mark or the horizon, with the fused map (a, k, b) before it) to the rows with events left,
        a prefix of the rows ordered by event count, and the identity after a row's last event.
        Returns the events, per row and event the log-likelihood so far ``cum``, ``dead`` (a jump
        at rate <= DARK_RATE or a non-positive trace) and with ``keep`` the state ``Y``; read at
        each row's last event, ``loglik`` (R,), ``final`` (R, d, d), with dH ``score`` (kp, R)
        and ``dfinal`` (kp, R, d, d).  ``memo``: ``_layout``'s dict, for one record list and dt."""
        d, tangent, mi, ri = self._L.shape[-1], self._tangent, np.asarray(mi), np.asarray(ri)
        memo = {} if memo is None else memo
        pairs = tuple(zip(ri.tolist(), self._chunk[mi].tolist()))  # a row's marks: its model's
        lists, a, k, b, is_jump, own, last, rows = (memo.get(pairs)
                                                    or self._layout(horizons, jumps, pairs, memo))
        ev = SimpleNamespace(**dict(zip(("a", "k", "b", "is_jump", "taus", "cells"), lists)))
        m = d * d * (1 + (self._dGe.shape[1] if tangent else 0))  # [y; z_1; ...] entries
        y = np.zeros((len(ri), m, 1), dtype=complex)
        y[:, :d * d, 0] = np.asarray(rho0, complex).reshape(-1, order="F")
        S, ev.Q = np.ones((2,) + a.shape)  # log 1 = 0 where a row's events are done
        ev.Y = np.empty(a.shape + (d * d,), dtype=complex) if keep else None
        width = m + 2 + m // (d * d) - 1  # rows of a map: [y; z], Tr y, Tr(N rho N^dag), Tr z
        end, lo = np.empty((len(ri), width), dtype=complex), 0  # end: X at each row's last event
        with np.errstate(all="ignore"):
            while lo < len(a):
                live = rows[:np.count_nonzero(last >= lo)]
                block = self._BLOCK << (len(live) == 1)
                hi = min(len(a), lo + max(1, block // (len(live) * m * width)))
                G = self._fused(*(x[lo:hi, live].T for x in (a, k, b, is_jump)), mi[live], tangent)
                X = np.empty((hi - lo, len(live), width, 1), dtype=complex)
                vecs, traces, y = X[:, :, :m], X[:, :, m:m + 1].real, y[:len(live)]
                for g, x, v, t in zip(np.moveaxis(G, -1, 0), X, vecs, traces):
                    np.matmul(g, y, out=x)
                    y = v / t
                if keep:
                    ev.Y[lo:hi, live] = (vecs[:, :, :d * d] / traces)[..., 0]
                S[lo:hi, live], ev.Q[lo:hi, live] = X[:, :, m, 0].real, X[:, :, m + 1, 0].real
                end[live] = X[np.minimum(last[live] - lo, hi - lo - 1), range(len(live)), :, 0]
                lo = hi
            ev.dead = own & (is_jump & ~(S > DARK_RATE * ev.Q) | ~(ev.Q > 0.0))
            ev.cum = np.cumsum(np.log(S), axis=0)
            # [y; z_1; ...] / Tr y as matrices (vec is column-major): rho and the z
            y = (end[:, :m] / end[:, m, None].real).reshape(len(ri), -1, d, d).swapaxes(-1, -2)
            rho, z = y[:, :1], y[:, 1:]
            total = ev.cum[last, np.arange(len(ri))]
        total += self.lam * np.asarray(horizons)[ri] - is_jump.sum(0) * np.log(self.lam)
        total[ev.dead.any(axis=0) | ~np.isfinite(total)] = -np.inf
        ev.loglik, ev.final = total, rho[:, 0]
        if tangent:  # z = d(unnormalized state)/d(theta) / its trace; parameters first
            score = end[:, m + 2:].real / end[:, m, None].real
            score[total == -np.inf] = np.nan
            ev.score, ev.dfinal = score.T, (z - rho * score[..., None, None]).swapaxes(0, 1)
        return ev

    def _stretch(self, Y, mi, k, a=0.0, b=0.0):
        """Unnormalized states N Y N^dag, (r, c, d, d), of the anchor states Y
        (r, d, d) under their models mi (r,), N = M_b M_dt^k M_a for the whole-cell
        counts k (r, c), a and b scalars or (r,).  In the eigenbasis of G this is one
        (c, d^2) x (d^2, d^2) product per anchor; ``_bad`` models take ``_maps``."""
        a, b = (np.reshape(x, (-1, 1, 1)) for x in (a, b))
        if self._bad.any():
            N = np.moveaxis(self._maps(a[..., 0], k, b[..., 0], mi)[:, 0, 0], -1, 1)
            return N @ Y[:, None] @ dag(N)
        U, Uinv, g = self._U[mi], self._Uinv[mi], self._g[mi, None]
        nu = (1.0 - a * g) * (1.0 - b * g) * np.exp(k[..., None] * self._logmu[mi, None])
        R = Uinv @ Y @ dag(Uinv)
        T = _kron(U, U.conj()) * R.reshape(len(R), 1, -1)
        w = (nu[..., :, None] * nu.conj()[..., None, :]).reshape(k.shape + (-1,))
        return (w @ T.swapaxes(-1, -2)).reshape(k.shape + Y.shape[1:])

    def replay(self, rho0, horizon, jumps, on_dark="dead"):
        """States and running log trace of one model on the dt grid, jumps at
        their times.  A jump at zero rate raises :class:`ZeroJumpRate` with
        ``on_dark="raise"``; otherwise the log trace is -inf from that cell on and
        the state freezes at the one just before the jump."""
        ev = self.sweep(rho0, [horizon], [jumps], [0], [0], keep=True)
        d, n = self._L.shape[-1], _n_cells(horizon, self.dt)
        grid = np.append(np.arange(n) * self.dt, horizon)
        dead = np.flatnonzero(ev.dead[:, 0])
        last = dead[0] if len(dead) else len(ev.taus)
        if last < len(ev.taus) and on_dark == "raise" and ev.is_jump[last]:
            raise ZeroJumpRate(
                f"record jumps at t={ev.taus[last]:.6g} while the jump rate is zero")
        # anchor i (the start, then the state after event i-1) fills the points up to event i
        Y = ev.Y[:, 0].reshape(-1, d, d).swapaxes(-1, -2)
        Y = np.concatenate(([np.asarray(rho0, complex)], Y))
        i = np.arange(min(last + 1, len(ev.taus)))
        span = np.diff(np.append(0, ev.cells[i] + 1))
        states, logtrace = np.empty((n + 1, d, d), dtype=complex), np.full(n + 1, -np.inf)
        # the points go to _stretch as rows of c cells of one anchor, a bounded block at a time
        c = min(self._ROW, max(1, int(span.mean())))  # rows of about the mean span, padded
        row = np.repeat(i, -(-span // c))  # the anchor of each row
        k = c * (np.arange(len(row)) - np.searchsorted(row, row))[:, None] + np.arange(c)
        block, end = max(1, self._BLOCK // (4 * c * d * d)), 0
        for lo in range(0, len(row), block):
            r, kr = row[lo:lo + block], k[lo:lo + block]
            st = self._stretch(Y[r], 0 * r, kr, ev.a[r])[kr < span[r, None]]
            states[end:end + len(st)], end = st, end + len(st)  # a row's points are consecutive
        tr = btrace(states[:end]).real
        states[:end] /= tr[:, None, None]
        at = np.repeat(i, span)  # each filled point's anchor
        before, seen = np.append(0.0, ev.cum[:, 0])[at], np.append(0, np.cumsum(ev.is_jump))[at]
        logtrace[:end] = before + np.log(tr) + (self.lam * grid[:end] - seen * np.log(self.lam))
        if last < len(ev.taus):  # the rest freezes at the state just before the dead event
            Y[-1] = self._stretch(Y[last:last + 1], np.zeros(1, int), ev.k[last:last + 1, None],
                                  ev.a[last], ev.b[last])[0, 0] / ev.Q[last, 0]
        states[end:] = Y[-1]
        logtrace[n] = ev.loglik[0]
        return SimpleNamespace(times=grid, states=states, logtrace=logtrace,
                               loglik=float(logtrace[n]))

    def simulate(self, rho0, uniforms):
        """Bernoulli-thinning jump times from the one (d, d) state ``rho0``; row i
        of ``uniforms`` (b, n) runs model i, or the one model.

        Cell k jumps when u_k < Tr(L^dag L rho) dt at its start and the rate
        after its no-jump map is above DARK_RATE, the rate at which ``sweep``
        calls a jump dead; the jump lands at the cell end (k+1) dt.  Each row
        takes the states of later cells from its last anchor (its start, jump
        or mark) by ``_stretch``, so its jumps do not depend on the batch.
        Only cells with u_k below Tr(L^dag L) dt can jump, and only those are
        evaluated, one per row and pass.  Returns the jump times
        of each row only: their states and likelihood are the scheme's, from
        ``sweep`` or ``replay``.
        """
        b, n = uniforms.shape
        mi = np.arange(b) if len(self._L) > 1 else np.zeros(b, dtype=int)
        chunk = self._chunk[mi]
        bound = btrace(self._LdL).real[mi] * self.dt * (1.0 + 1e-6)  # Tr >= top eigenvalue
        rows, cand = np.nonzero(uniforms < bound[:, None])
        cand = np.append(cand, n)  # a row past its last candidate reads n
        ptr = np.searchsorted(rows, np.arange(b + 1))
        ptr, row_end = ptr[:-1].copy(), ptr[1:]
        y = np.tile(np.asarray(rho0, dtype=complex), (b, 1, 1))
        anchor, jumps = np.zeros(b, dtype=int), [(np.zeros(0, int), np.zeros(0, int))]
        live = np.arange(b)
        while live.size:  # each live row reads its next candidate cell
            m, at, p = mi[live], anchor[live], ptr[live]
            stop = np.minimum((at // chunk[live] + 1) * chunk[live], n)  # next mark or end
            cell = cand[p]
            valid = (p < row_end[live]) & (cell < stop)
            j = np.where(valid, cell - at, 0)
            # states at the start and the end of the candidate cell, then at the stop
            st = self._stretch(y[live], m, np.stack((j, j + 1, stop - at), axis=1))
            f = btrace(st).real
            rate = expect(self._LdL[m][:, None], st).real / f
            u = uniforms[live, np.where(valid, cell, 0)]
            hit = valid & (u < rate[:, 0] * self.dt) & (rate[:, 1] > DARK_RATE)
            ptr[live] += valid
            # rows that move their anchor: to a jump, or to the next mark or the end
            move = np.flatnonzero(hit | ~valid)
            rr, hit = live[move], hit[move]
            col = np.where(hit, 1, 2)
            new = st[move, col] / f[move, col, None, None]
            Lj = self._L[mi[rr[hit]]]
            post = Lj @ new[hit] @ dag(Lj)
            new[hit] = post / btrace(post).real[:, None, None]
            y[rr] = new
            anchor[rr] = np.where(hit, cell[move] + 1, stop[move])
            jumps.append((rr[hit], anchor[rr[hit]]))
            live = live[anchor[live] < n]
        row, at = (np.concatenate(x) for x in zip(*jumps))
        order = np.argsort(row, kind="stable")  # each row's jumps in time order
        return np.split(at[order] * self.dt, np.cumsum(np.bincount(row, minlength=b))[:-1])

    def sample_exact(self, rho0, T, rng):
        """Exact waiting-time sampling of jump times under the first model, in the eigen
        coordinates R = U^-1 rho U^-dag of G = U diag(g) U^-1: R_ij exp(-(g_i + conj g_j) t)
        between jumps, R -> J R J^dag / rate at one (J = U^-1 L U).  Each waiting time solves
        S(t) = Tr rho(t) = u, u uniform, by Newton's method on log(S/u) from -log(u)/gamma
        (gamma the slowest decay rate), bisecting [0, T - t] where a step leaves the bracket or
        S <= 0, until a step is below 1e-14 + 8.9e-16 t; S and S' share d real and d(d-1)/2
        complex exponentials.  A near-defective G takes U = 1 and M R M^dag, M = expm(-G t).

        A rank-one L (every singular value after the first exactly 0) sends every state to
        one post-jump state X*, so with G diagonalizable, after the first jump the waits are
        solved ``_RENEWAL`` at a time from X* by the same iteration on arrays, on uniforms
        read ahead by rng.random(_RENEWAL), the stream of as many scalar draws.  As one at a
        time, the first draw with S(T - t) > u, or with the rate after its wait at or below
        DARK_RATE S, ends the record; the rest of its batch is unused.  The records match
        the one-wait-at-a-time path to round-off."""
        g, G, d, bad = self._g[0], self._gen[0], self._L.shape[-1], self._bad.any()
        U, Uinv = (_identity(d),) * 2 if bad else (self._U[0], self._Uinv[0])
        W, dW, K = ((dag(U) @ x @ U).T for x in (_identity(d), -G - dag(G), self._LdL[0]))
        J, A, (i, j) = Uinv @ self._L[0] @ U, -(g[:, None] + g.conj()), np.triu_indices(d)
        a, up = A[i, j].tolist(), i * d + j  # a Hermitian sum: its upper triangle, doubled
        cw = np.stack((W[i, j], dW[i, j], K[i, j])) * np.where(i == j, 1.0, 2.0)  # S, S', rate
        slow = max((0.5 / x for x in g.real.tolist() if x > 0), default=math.inf)  # 1 / gamma
        renewal = not (bad or np.linalg.svd(self._L[0], compute_uv=False)[1:].any())
        if bad:  # scipy loads on first use; only a near-defective G needs it
            from scipy.linalg import expm

        def survival(tau):  # S and S' at t + tau
            if bad:
                Y = (M := expm(-tau * G)) @ X @ dag(M)
                return (Y * W).sum().real, (Y * dW).sum().real
            e = [cmath.exp(x * tau) for x in a]
            return sum(map(operator.mul, c, e)).real, sum(map(operator.mul, dc, e)).real

        X, t, times = Uinv @ np.asarray(rho0, dtype=complex) @ dag(Uinv), 0.0, []
        while t < T and not (renewal and times):
            u, lo, hi, step, tol = rng.random(), 0.0, T - t, math.inf, 0.0
            c, dc = (X.ravel()[up] * cw[:2]).tolist()
            if survival(hi)[0] > u:
                return np.asarray(times)
            tau = min(hi, -math.log(u) * slow)
            while abs(step) > tol:  # Newton; bisect where a step leaves (lo, hi) or S <= 0
                s, ds = survival(tau)
                f = math.log(s / u) if s > 0 else -math.inf  # S <= 0: past the root
                lo, hi = (tau, hi) if f > 0 else (lo, tau)
                step, tol = f * s / ds if ds < 0 < s else math.nan, 1e-14 + 8.9e-16 * tau
                if not (abs(step) <= tol or lo < tau - step < hi):
                    step = tau - 0.5 * (lo + hi)
                tau -= step
            X = (M := expm(-tau * G)) @ X @ dag(M) if bad else X * np.exp(A * tau)
            s, r = ((X * y).sum().real for y in (W, K))
            if r <= DARK_RATE * s:
                return np.asarray(times)
            X, t = J @ X @ dag(J) / r, t + tau
            times.append(min(t, T))
        C = (X.ravel()[up] * cw).T  # from X* = X, S, S' and the rate at tau: exp(a tau) @ C

        def rows(tau):
            return (np.exp(np.multiply.outer(tau, A[i, j])) @ C).real.T

        with np.errstate(all="ignore"):  # masked lanes: log(0), 0 / 0
            while t < T:  # the renewal path
                u, hi = rng.random(self._RENEWAL), T - t
                # a u < S(T - t) has no root in [0, T - t]: the record ends by that draw
                u = u[:np.argmax(np.append(u < rows([hi])[0], True))]
                tau, n = np.minimum(hi, -np.log(u) * slow), np.arange(len(u))  # n: iterating
                lo, top = np.zeros_like(u), np.full_like(u, hi)
                while n.size:
                    x, (s, ds, _) = tau[n], rows(tau[n])
                    f, tol = np.where(s > 0, np.log(s / u[n]), -np.inf), 1e-14 + 8.9e-16 * x
                    lo_n, top_n = np.where(f > 0, x, lo[n]), np.where(f > 0, top[n], x)
                    lo[n], top[n] = lo_n, top_n
                    step = np.where((ds < 0) & (0 < s), f * s / ds, np.nan)
                    keep = (abs(step) <= tol) | (lo_n < x - step) & (x - step < top_n)
                    step = np.where(keep, step, x - 0.5 * (lo_n + top_n))
                    tau[n], n = x - step, n[abs(step) > tol]
                ts = np.cumsum(np.append(t, tau))  # the scalar t + tau, in order
                s, _, r = rows(tau)
                ok = (ts[:-1] < T) & ~(rows(np.maximum(T - ts[:-1], 0.0))[0] > u)
                k = np.argmin(np.append(ok & (r > DARK_RATE * s), False))  # the first failure
                times += np.minimum(ts[1:k + 1], T).tolist()
                if k < self._RENEWAL:
                    break
                t = ts[-1]
        return np.asarray(times)
