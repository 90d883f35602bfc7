"""Batched integration cores for the stochastic master equations.

Not public API.  Everything here works on plain complex arrays, with
states shaped (b, d, d) and model operators (d, d) or (b, d, d), and is
shared by the trajectory generators and the filtering/likelihood layer so
that simulation, filtering and likelihood evaluation follow one and the
same discretization scheme:

* diffusive records: Euler step of the linear (Zakai) update followed by
  Hermitization, eigenvalue clipping at -1e-12 and trace renormalization;
  the trace of the linear update is the per-step likelihood factor, so the
  normalized filter equals the normalized Zakai solution identically and
  the product of factors is the Zakai trace.  The step runs on the
  vectorized states vec(rho): one product with a per-model step matrix
  gives the update, the measurement mean and the factor, and a screen of
  the smallest eigenvalue (closed form for d = 2, eigvalsh for d > 2)
  sends only the rows that may need clipping to the exact eigvalsh clip.
* counting records: no-jump intervals advance with the first-order Kraus
  map M = 1 - dt (iH + L^dag L/2), which preserves positivity, and jumps
  apply rho -> L rho L^dag; both trace factors enter the likelihood.  The
  reference Poisson intensity enters in closed form as
  lam*T - N*log(lam), which makes the intensity-shift identity exact.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

from .exceptions import ZeroJumpRate
from .operators import dag

EIG_CLIP = -1e-12
TRACE_FLOOR = 1e-290
DARK_RATE = 1e-14  # a jump at this rate or below has likelihood zero
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


def _clip_negative(rho):
    """Zero out eigenvalues below the clip threshold, batchwise, in place."""
    w = np.linalg.eigvalsh(rho)
    bad = w[..., 0] < EIG_CLIP
    if np.any(bad):
        wb, vb = np.linalg.eigh(rho[bad])
        np.clip(wb, 0.0, None, out=wb)
        rho[bad] = (vb * wb[..., None, :]) @ dag(vb)
    return rho


def _min_eig_screen(S):
    """Smallest eigenvalue of each Hermitian S: closed form for d = 2,
    eigvalsh for d > 2."""
    if S.shape[-1] != 2:
        return np.linalg.eigvalsh(S)[:, 0]
    a, e = S[:, 0, 0].real, S[:, 1, 1].real
    return 0.5 * (a + e - np.hypot(a - e, 2.0 * np.abs(S[:, 0, 1])))


def _broadcast_rho(rho0, b):
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.ndim == 2:
        return np.tile(rho0, (b, 1, 1))
    return np.array(rho0, dtype=complex)


def _diffusive_step_matrix(H, L, dt):
    """Step matrix of the diffusive scheme on row vectors v = vec(rho), C order.

    Columns: ``A0 = I + dt Lindblad`` (d^2), ``K: rho -> L rho + rho L^dag``
    (d^2), then Tr((L+L^dag) rho), Tr(A0 rho) and Tr(K rho).  In this form
    rho -> X rho Y is ``_kron(X^T, Y)``.  One model gives (d^2, 2d^2+3), a
    stack of models (b, d^2, 2d^2+3).
    """
    d = L.shape[-1]
    eye = _identity(d)
    Lt = np.swapaxes(L, -1, -2)
    Gt = np.swapaxes(nojump_generator(H, dag(L) @ L), -1, -2)

    def both_sides(xt):  # rho -> x rho + rho x^dag, from xt = x^T
        return _kron(xt, eye) + _kron(eye, xt.conj())

    # Lindblad generator: rho -> L rho L^dag - G rho - rho G^dag
    A0 = _identity(d * d) + dt * (_kron(Lt, Lt.conj()) - both_sides(Gt))
    K = both_sides(Lt)
    diag = np.arange(0, d * d, d + 1)  # vec(rho) indices of the diagonal
    mean = (Lt + L.conj()).reshape(L.shape[:-2] + (d * d, 1))
    traces = [X[..., diag].sum(axis=-1, keepdims=True) for X in (A0, K)]
    return np.concatenate([A0, K, mean] + traces, axis=-1)


def sweep_diffusive(H, L, rho0, dt, *, dY=None, dI=None, keep_states=False,
                    keep_logtrace=False):
    """Run the diffusive core over a batch of b trajectories.

    Exactly one of ``dY`` (replay of given records) or ``dI`` (simulation:
    innovation draws, output increments returned) must be supplied, each
    shaped (b, n).  ``H``, ``L``: one model (d, d) or one per row (b, d, d).
    Returns final/optional full states, the accumulated log trace (the
    log-likelihood), and the simulated increments.

    Each step is one stacked product ``W = v @ M`` of the states vec(rho),
    (b, d^2), with the step matrix M (``_diffusive_step_matrix``); it gives
    the Euler update ``A0 rho + dy K rho``, the measurement mean and the
    likelihood factor ``Tr(A0 rho) + dy Tr(K rho)``.  The update is
    Hermitized, clipped at ``EIG_CLIP`` and divided by its trace.  Only rows
    whose Hermitized update has a smallest eigenvalue (``_min_eig_screen``)
    below EIG_CLIP/2 go to the exact ``eigvalsh`` clip.  The product is stacked
    per row, never one 2-D GEMM, so that a row's bits do not depend on the
    batch width.  A row whose factor is not positive or whose clipped trace
    is below ``TRACE_FLOOR`` is dead: its log-likelihood is -inf and its
    state stays frozen from that step on.  While every row is alive, none
    is screened and every factor is above the floor, the step uses no
    boolean masks; the masked path does the same arithmetic per row.
    """
    simulate = dI is not None
    noise = np.asarray(dI if simulate else dY, dtype=float)
    b, n = noise.shape
    L = np.asarray(L, dtype=complex)
    M = _diffusive_step_matrix(np.asarray(H, dtype=complex), L, dt)
    d = L.shape[-1]
    d2 = d * d
    rho = _broadcast_rho(rho0, b)

    loglik = np.zeros(b)
    alive = np.ones(b, dtype=bool)
    all_alive = True
    out_dY = np.empty((b, n)) if simulate else None
    states = np.empty((b, n + 1, d, d), dtype=complex) if keep_states else None
    logtrace = np.zeros((b, n + 1)) if keep_logtrace else None
    if keep_states:
        states[:, 0] = rho
    W = np.empty((b, 1, M.shape[-1]), dtype=complex)
    A0_rho, K_rho = W[:, 0, :d2], W[:, 0, d2:2 * d2]
    mean, trA, trK = (W[:, 0, 2 * d2 + j].real for j in range(3))
    U = np.empty((b, d, d), dtype=complex)
    U_vec = U.reshape(b, d2)

    for k in range(n):
        np.matmul(rho.reshape(b, 1, d2), M, out=W)
        if simulate:
            dy = noise[:, k] + mean * dt
            out_dY[:, k] = dy
        else:
            dy = noise[:, k]
        np.multiply(K_rho, dy[:, None], out=U_vec)
        U_vec += A0_rho
        S = U + np.conj(U.swapaxes(-1, -2))  # twice the Hermitized update
        factor = trA + dy * trK
        screen = _min_eig_screen(S)  # below EIG_CLIP: S/2 below EIG_CLIP/2
        nxt = states[:, k + 1] if keep_states else rho
        if all_alive and screen.min() >= EIG_CLIP and factor.min() > TRACE_FLOOR:
            np.multiply(S, (0.5 / factor)[:, None, None], out=nxt)
            loglik += np.log(factor)
        else:  # dead rows, non-positive factors or rows to clip
            tr = factor.copy()
            suspect = np.flatnonzero((screen < EIG_CLIP) & alive)
            if len(suspect):
                h = _clip_negative(0.5 * S[suspect])
                tr[suspect] = btrace(h).real
                S[suspect] = 2.0 * h
            ok = (factor > 0.0) & (tr > TRACE_FLOOR)
            keep = alive & ok
            if nxt is not rho:
                nxt[:] = rho
            nxt[keep] = S[keep] * (0.5 / tr[keep])[:, None, None]
            loglik[keep] += np.log(factor[keep])
            loglik[alive & ~ok] = -np.inf
            alive &= ok
            all_alive = bool(alive.all())
        rho = nxt
        if keep_logtrace:
            logtrace[:, k + 1] = loglik
    return SimpleNamespace(
        final=rho, loglik=loglik, states=states, logtrace=logtrace, dY=out_dY
    )


def nojump_generator(H, LdL):
    """Generator iH + L^dag L/2 of the no-jump evolution."""
    return 1j * H + 0.5 * LdL


@functools.lru_cache(maxsize=None)
def _identity(d):
    eye = np.eye(d)
    eye.setflags(write=False)
    return eye


def nojump_kraus(gen, delta):
    """First-order no-jump Kraus operator 1 - delta*gen from the generator."""
    return _identity(gen.shape[-1]) - delta * gen


def sweep_counting_simulate(H, L, rho0, dt, n_steps, uniforms, lam=1.0,
                            keep_states=False):
    """Bernoulli-thinning counting simulation over a batch.

    Per cell, the jump probability is Tr(L^dag L rho) dt at the cell
    start; the state advances with the no-jump Kraus map for the full
    cell and, on a jump, rho -> L rho L^dag at the cell end.  Jump times
    are the cell end times (k+1) dt.  The returned ``loglik`` is the
    record log-likelihood of each trajectory under the simulating model
    and reference intensity ``lam``.
    """
    b = uniforms.shape[0]
    rho = _broadcast_rho(rho0, b)
    d = rho.shape[-1]
    H = np.asarray(H, dtype=complex)
    L = np.asarray(L, dtype=complex)
    Ld = dag(L)
    LdL = Ld @ L
    M = nojump_kraus(nojump_generator(H, LdL), dt)
    Md = dag(M)

    loglik = np.zeros(b)
    counts = np.zeros(b, dtype=int)
    jump_rows = []  # (trajectory index, cell index)
    states = np.empty((b, n_steps + 1, d, d), dtype=complex) if keep_states else None
    if keep_states:
        states[:, 0] = rho

    for k in range(n_steps):
        rate0 = expect(LdL, rho).real
        p = rate0 * dt
        nj = M @ rho @ Md
        f = btrace(nj).real
        nj /= f[:, None, None]
        rate1 = expect(LdL, nj).real
        jump = (uniforms[:, k] < p) & (rate1 > 0.0)
        loglik += np.log(f)
        if np.any(jump):
            Lj = L[jump] if L.ndim == 3 else L
            jmp = Lj @ nj[jump] @ dag(Lj)
            jmp /= rate1[jump, None, None]
            nj[jump] = jmp
            loglik[jump] += np.log(rate1[jump])
            counts[jump] += 1
            for idx in np.nonzero(jump)[0]:
                jump_rows.append((idx, k))
        rho = nj
        if keep_states:
            states[:, k + 1] = rho
    loglik += lam * n_steps * dt - counts * np.log(lam)
    jump_times = [[] for _ in range(b)]
    for idx, k in jump_rows:
        jump_times[idx].append((k + 1) * dt)
    jump_times = [np.asarray(t) for t in jump_times]
    return SimpleNamespace(
        final=rho, loglik=loglik, states=states, counts=counts,
        jump_times=jump_times,
    )


def _n_cells(horizon, dt):
    return max(int(np.ceil(horizon / dt - 1e-9)), 1)


def _cell_grid(horizon, dt):
    """Cell boundaries 0, dt, 2dt, ..., horizon (fractional last cell allowed)."""
    t = np.arange(_n_cells(horizon, dt) + 1) * dt
    t[-1] = horizon
    return t


def replay_counting(H, L, rho0, dt, horizon, jumps, lam=1.0,
                    keep_states=False, on_dark="dead"):
    """Replay a counting record on a dt grid, jumps applied at their times.

    Cells are ``[k dt, (k+1) dt]``; jump times inside a cell split it into
    no-jump Kraus sub-steps with the jump map applied in between.  When a
    jump occurs at zero rate the record has likelihood zero: with
    ``on_dark="raise"`` this raises :class:`ZeroJumpRate`, otherwise the
    log trace is -inf from that point and the state freezes.
    """
    grid = _cell_grid(horizon, dt)
    n = len(grid) - 1
    rho = np.asarray(rho0, dtype=complex).copy()
    d = rho.shape[-1]
    H = np.asarray(H, dtype=complex)
    L = np.asarray(L, dtype=complex)
    Ld = dag(L)
    LdL = Ld @ L
    jumps = np.asarray(jumps, dtype=float)
    gen = nojump_generator(H, LdL)

    kraus_cache = {}

    def kraus(delta):
        key = round(delta / dt, 12)
        if key not in kraus_cache:
            M = nojump_kraus(gen, delta)
            kraus_cache[key] = (M, dag(M))
        return kraus_cache[key]

    core_log = 0.0
    dead = False
    logtrace = np.empty(n + 1)
    logtrace[0] = 0.0
    states = np.empty((n + 1, d, d), dtype=complex) if keep_states else None
    if keep_states:
        states[0] = rho
    n_seen = 0

    for k in range(n):
        t0, t1 = grid[k], grid[k + 1]
        lo = np.searchsorted(jumps, t0, side="right")
        hi = np.searchsorted(jumps, t1, side="right")
        if not dead:
            pos = t0
            for tau in jumps[lo:hi]:
                delta = tau - pos
                if delta > 0:
                    M, Md = kraus(delta)
                    upd = M @ rho @ Md
                    f = btrace(upd).real
                    rho = upd / f
                    core_log += np.log(f)
                pos = tau
                rate = expect(LdL, rho).real
                if rate <= DARK_RATE:
                    if on_dark == "raise":
                        raise ZeroJumpRate(
                            f"record jumps at t={tau:.6g} while the jump rate is zero"
                        )
                    dead = True
                    break
                rho = (L @ rho @ Ld) / rate
                core_log += np.log(rate)
            if not dead and t1 > pos:
                M, Md = kraus(t1 - pos)
                upd = M @ rho @ Md
                f = btrace(upd).real
                rho = upd / f
                core_log += np.log(f)
        n_seen = hi
        logtrace[k + 1] = (
            -np.inf if dead else core_log + lam * t1 - n_seen * np.log(lam)
        )
        if keep_states:
            states[k + 1] = rho
    return SimpleNamespace(
        times=grid, states=states, logtrace=logtrace,
        loglik=float(logtrace[-1]), final=rho, dead=dead,
    )


class CountingLoglik:
    """Counting log-likelihood engine, batched over parameter points.

    Same scheme as the grid replay: the no-jump Kraus map 1 - delta G
    (G = iH + L^dag L/2) over whole cells and over the sub-steps that jumps
    cut out of a cell, rho -> L rho L^dag at jumps.  These maps share the
    eigenvectors U of G, so the stretch since the previous jump fuses into
    one Kraus operator U diag(nu) U^-1, built vectorized over jumps in
    bounded blocks.  Per jump, one matrix-vector product applies the fused
    and jump maps and gives both traces, then one renormalization; the
    log-likelihood sums the log factors.  Jump-free runs renormalize every
    ``_CHUNK`` cells.  ``H``, ``L``: (n, d, d) stacks or one model; ``loglik``
    returns (n,).  A jump at rate <= 1e-14 or a non-positive trace gives
    -inf for that point only.  Points with cond(U) >= EIG_COND_MAX
    (near-defective G) take matrix powers instead.
    """

    _CHUNK = 10_000  # renormalize at least this often in jump-free runs
    _BLOCK = 1 << 15  # complex entries in one block of per-jump maps

    def __init__(self, H, L, dt, lam=1.0):
        H = np.asarray(H, dtype=complex)
        L = np.asarray(L, dtype=complex)
        if L.ndim == 2:
            H, L = H[None], L[None]
        self.dt, self.lam = float(dt), float(lam)
        n, d = L.shape[0], L.shape[-1]
        eye = _identity(d)
        self._gen = nojump_generator(H, dag(L) @ L)
        try:
            g, U = np.linalg.eig(self._gen)
            with np.errstate(all="ignore"):
                cond = np.linalg.cond(U)
            ok = np.isfinite(cond) & (cond < EIG_COND_MAX)
        except np.linalg.LinAlgError:
            g, U, ok = np.zeros((n, d), complex), eye, np.zeros(n, dtype=bool)
        self._U = np.where(ok[:, None, None], U, eye)
        self._Uinv = np.linalg.inv(self._U)
        self._g = g
        # log of the one-cell eigenvalues 1 - dt g, nonzero under the step guard
        self._logmu = np.log(1.0 - self.dt * g)
        self._bad = np.flatnonzero(~ok)
        self._L = L

    def _fused(self, a, k, b, is_jump):
        """Per event, with N = M_b M_dt^k M_a and A = L N at a jump (else N):
        rows on vec(rho) of A rho A^dag, Tr(A rho A^dag), Tr(N rho N^dag)."""
        a, b = a[:, None, None], b[:, None, None]
        nu = (1.0 - a * self._g) * (1.0 - b * self._g) * np.exp(k[:, None, None] * self._logmu)
        N = (self._U * nu[..., None, :]) @ self._Uinv
        for r in self._bad:
            gen = self._gen[r]
            cells = [np.linalg.matrix_power(nojump_kraus(gen, self.dt), j) for j in k]
            N[:, r] = nojump_kraus(gen, b) @ np.stack(cells) @ nojump_kraus(gen, a)
        A = np.where(is_jump[:, None, None, None], self._L @ N, N)
        K = _kron(A.conj(), A)
        del A  # free the block of maps before the next one is built
        KN = _kron(N.conj(), N)
        diag = np.arange(0, K.shape[-1], N.shape[-1] + 1)  # vec(rho) indices of Tr
        traces = [X[..., diag, :].sum(axis=-2, keepdims=True) for X in (K, KN)]
        return np.concatenate([K] + traces, axis=-2)

    def loglik(self, rho0, horizon, jumps):
        jumps = np.asarray(jumps, dtype=float)
        n_cells = _n_cells(horizon, self.dt)
        # events: the jumps, then jump-free renormalization points and the horizon
        marks = np.arange(self._CHUNK, n_cells, self._CHUNK) * self.dt
        taus = np.concatenate((jumps, marks, [horizon]))
        order = np.argsort(taus, kind="stable")
        taus, is_jump = taus[order], order < len(jumps)
        # cell c is (c dt, (c+1) dt], the last one ends at the horizon; a time
        # on a boundary may land in either neighbour, which fuses to the same map
        cells = np.clip(np.ceil(taus / self.dt).astype(int) - 1, 0, n_cells - 1)
        prev_tau = np.concatenate(([0.0], taus[:-1]))
        prev_cell = np.concatenate(([-1], cells[:-1]))
        same = cells == prev_cell
        a = np.where(same, 0.0, (prev_cell + 1) * self.dt - prev_tau)
        b = np.where(same, taus - prev_tau, taus - cells * self.dt)
        k = np.where(same, 0, cells - prev_cell - 1)

        n, d2 = self._L.shape[0], self._L.shape[-1] ** 2
        y = np.repeat(np.asarray(rho0, complex).reshape(1, -1, 1, order="F"), n, axis=0)
        S = np.empty((len(taus), n))  # trace after each event's map (before it: 1)
        Q = np.empty((len(taus), n))  # trace before the jump map
        block = max(1, self._BLOCK // (n * d2 * (d2 + 2)))
        with np.errstate(all="ignore"):
            for lo in range(0, len(taus), block):
                part = slice(lo, lo + block)
                G = self._fused(a[part], k[part], b[part], is_jump[part])
                X = np.empty(G.shape[:-1] + (1,), dtype=complex)
                vecs, traces = X[:, :, :d2], X[:, :, d2:d2 + 1].real
                for i in range(len(G)):
                    np.matmul(G[i], y, out=X[i])
                    y = vecs[i] / traces[i]
                S[part] = X[:, :, d2, 0].real
                Q[part] = X[:, :, d2 + 1, 0].real
            dark = is_jump[:, None] & ~(S > DARK_RATE * Q)
            dead = np.any(dark | ~(Q > 0.0), axis=0)
            total = np.sum(np.log(S), axis=0)
        total += self.lam * horizon - len(jumps) * np.log(self.lam)
        return np.where(dead | ~np.isfinite(total), -np.inf, total)


def sample_counting_exact(H, L, rho0, T, rng):
    """Exact waiting-time sampling of jump times via the effective Hamiltonian.

    Between jumps rho(t) = M rho M^dag, M = expm(-G t).  With G = U diag(g)
    U^-1 the survival is S(t) = Re sum_ij c_ij exp(-(g_i + conj g_j) t),
    c = (U^-1 rho U^-dag) * (U^dag U)^T, and each waiting time is the root of
    S(t) = u, u uniform, by Brent's method on [0, T - t].  A near-defective
    G (cond(U) >= EIG_COND_MAX) takes S(t) = Tr(M rho M^dag), M from expm.
    Returns (jump_times, final normalized state).  For small dimensions.
    """
    # imported here: at module level it made `import qiokit` 15 ms slower
    from scipy import linalg, optimize

    H = np.asarray(H, dtype=complex)
    L = np.asarray(L, dtype=complex)
    LdL = dag(L) @ L
    gen = nojump_generator(H, LdL)
    g, U = np.linalg.eig(gen)
    closed = np.linalg.cond(U) < EIG_COND_MAX
    Uinv = np.linalg.inv(U) if closed else None
    exponents = -(g[:, None] + g.conj()[None, :])
    gram = (dag(U) @ U).T

    def evolve(rho, tau):
        M = (U * np.exp(-g * tau)) @ Uinv if closed else linalg.expm(-tau * gen)
        return M @ rho @ dag(M)

    def survival(rho):
        if not closed:
            return lambda tau: btrace(evolve(rho, tau)).real
        c = (Uinv @ rho @ dag(Uinv)) * gram
        return lambda tau: np.sum(c * np.exp(exponents * tau)).real

    rho = np.asarray(rho0, dtype=complex).copy()
    t = 0.0
    times = []
    while t < T:
        u = rng.random()
        S = survival(rho)
        if S(T - t) > u:
            rho = evolve(rho, T - t)
            rho /= btrace(rho).real
            break
        tau = optimize.brentq(lambda s: S(s) - u, 0.0, T - t, xtol=1e-14)
        rho = evolve(rho, tau)
        rho /= btrace(rho).real
        rate = expect(LdL, rho).real
        if rate <= DARK_RATE:
            break
        rho = (L @ rho @ dag(L)) / rate
        t += tau
        times.append(min(t, T))
    return np.asarray(times), rho
