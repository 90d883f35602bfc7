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
  One engine, ``CountingLoglik``, serves simulation, replay and likelihood:
  it fuses each stretch between anchors (jumps and renormalization marks)
  into one map in the eigenbasis of the no-jump generator, so only the
  jumps, not the cells, run in Python.
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


def _n_cells(horizon, dt):
    """Cells (c dt, (c+1) dt] up to the horizon, the last one possibly fractional."""
    return max(int(np.ceil(horizon / dt - 1e-9)), 1)


def _powers(M, k):
    """M^k for each integer of the array k, (len(k), d, d), by repeated squaring."""
    out = np.broadcast_to(_identity(len(M)), (len(k),) + M.shape).astype(complex)
    for bit in range(int(k.max(initial=0)).bit_length()):
        sel = ((k >> bit) & 1).astype(bool)
        out[sel] = out[sel] @ M
        M = M @ M
    return out


class CountingLoglik:
    """The counting engine: likelihood, grid replay and simulation.

    The no-jump Kraus maps 1 - delta G (G = iH + L^dag L/2) of whole cells
    and of the sub-steps that jumps cut out of a cell share the eigenvectors
    U of G.  So the stretch from an anchor (the state after a jump, or at a
    renormalization mark) to any later time is one map U diag(nu) U^-1.
    Marks fall every ``_chunk`` cells: per model, the most cells over which
    no mode changes the trace by more than exp(_SPAN), at most ``_CHUNK``.
    Models with cond(U) >= EIG_COND_MAX (near-defective G) take matrix
    powers.  ``H``, ``L``: (n, d, d) stacks or one model.
    """

    _CHUNK = 10_000  # renormalize at least this often, in cells
    _SPAN = np.log(1e100)  # largest log trace change of one stretch
    _BLOCK = 1 << 15  # complex entries in one block of maps or lookahead rates

    def __init__(self, H, L, dt, lam=1.0):
        H, L = np.asarray(H, dtype=complex), np.asarray(L, dtype=complex)
        if L.ndim == 2:
            H, L = H[None], L[None]
        self.dt, self.lam = float(dt), float(lam)
        n, d = L.shape[0], L.shape[-1]
        eye = _identity(d)
        self._LdL = dag(L) @ L
        self._gen = nojump_generator(H, self._LdL)
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
        with np.errstate(divide="ignore"):
            cells = self._SPAN / (2.0 * np.abs(self._logmu.real).max(axis=-1))
        self._chunk = np.clip(cells, 1, self._CHUNK).astype(int)
        self._bad, self._L = np.flatnonzero(~ok), L

    def _maps(self, a, k, b, mi):
        """No-jump maps M_b M_dt^k M_a of the models ``mi`` (index or slice), broadcast."""
        a, k, b = (np.asarray(x) for x in (a, k, b))
        U, Uinv, g, logmu = (x[mi] for x in (self._U, self._Uinv, self._g, self._logmu))
        nu = (1.0 - a[..., None] * g) * (1.0 - b[..., None] * g) * np.exp(k[..., None] * logmu)
        N = (U * nu[..., None, :]) @ Uinv
        for r in self._bad:
            sel = np.broadcast_to(np.arange(len(self._L))[mi] == r, N.shape[:-2])
            ar, kr, br = (np.broadcast_to(x, sel.shape)[sel][:, None, None] for x in (a, k, b))
            gen = self._gen[r]
            cells = _powers(nojump_kraus(gen, self.dt), kr[:, 0, 0])
            N[sel] = nojump_kraus(gen, br) @ cells @ nojump_kraus(gen, ar)
        return N

    def _fused(self, a, k, b, is_jump):
        """Per event, with N = M_b M_dt^k M_a and A = L N at a jump (else N):
        rows on vec(rho) of A rho A^dag, Tr(A rho A^dag), Tr(N rho N^dag)."""
        N = self._maps(a[:, None], k[:, None], b[:, None], slice(None))
        A = np.where(is_jump[:, None, None, None], self._L @ N, N)
        K = _kron(A.conj(), A)
        del A  # free the block of maps before the next one is built
        KN = _kron(N.conj(), N)
        diag = np.arange(0, K.shape[-1], N.shape[-1] + 1)  # vec(rho) indices of Tr
        traces = [X[..., diag, :].sum(axis=-2, keepdims=True) for X in (K, KN)]
        return np.concatenate([K] + traces, axis=-2)

    def _sweep(self, rho0, horizon, jumps, keep=False):
        """Apply the events (jumps, marks, horizon) in time order, each one
        matrix-vector product with the fused map (a, k, b) before it.  Returns
        the events, the log-likelihood up to each, whether each is dead (a jump
        at rate <= DARK_RATE or a non-positive trace), the total, and with
        ``keep`` the state after each."""
        dt, n_cells, chunk = self.dt, _n_cells(horizon, self.dt), int(self._chunk.min())
        taus = np.concatenate((jumps, np.arange(chunk, n_cells, chunk) * dt, [horizon]))
        order = np.argsort(taus, kind="stable")
        taus, is_jump = taus[order], order < len(jumps)
        # cell c holds c dt < tau <= (c+1) dt: a jump on a boundary ends the cell before it
        cells = np.ceil(taus / dt).astype(int) - 1
        cells += (cells + 1) * dt < taus
        cells -= cells * dt >= taus
        np.clip(cells, 0, n_cells - 1, out=cells)
        prev_tau = np.concatenate(([0.0], taus[:-1]))
        prev_cell = np.concatenate(([-1], cells[:-1]))
        same = cells == prev_cell
        ev = SimpleNamespace(
            taus=taus, is_jump=is_jump, cells=cells, prev_cell=prev_cell,
            a=np.where(same, 0.0, (prev_cell + 1) * dt - prev_tau),
            b=np.where(same, taus - prev_tau, taus - cells * dt),
            k=np.where(same, 0, cells - prev_cell - 1),
        )
        n, d2 = self._L.shape[0], self._L.shape[-1] ** 2
        y = np.repeat(np.asarray(rho0, complex).reshape(1, -1, 1, order="F"), n, axis=0)
        S, ev.Q = np.empty((2, len(ev.taus), n))
        ev.Y = np.empty((len(ev.taus), n, d2), dtype=complex) if keep else None
        block = max(1, self._BLOCK // (n * d2 * (d2 + 2)))
        with np.errstate(all="ignore"):
            for lo in range(0, len(ev.taus), block):
                part = slice(lo, lo + block)
                G = self._fused(ev.a[part], ev.k[part], ev.b[part], ev.is_jump[part])
                X = np.empty(G.shape[:-1] + (1,), dtype=complex)
                vecs, traces = X[:, :, :d2], X[:, :, d2:d2 + 1].real
                for i in range(len(G)):
                    np.matmul(G[i], y, out=X[i])
                    y = vecs[i] / traces[i]
                if keep:
                    ev.Y[part] = (vecs / traces)[..., 0]
                S[part] = X[:, :, d2, 0].real
                ev.Q[part] = X[:, :, d2 + 1, 0].real
            ev.dead = ev.is_jump[:, None] & ~(S > DARK_RATE * ev.Q) | ~(ev.Q > 0.0)
            ev.cum = np.cumsum(np.log(S), axis=0)
        ev.total = ev.cum[-1] + (self.lam * horizon - len(jumps) * np.log(self.lam))
        ev.total[ev.dead.any(axis=0) | ~np.isfinite(ev.total)] = -np.inf
        return ev

    def loglik(self, rho0, horizon, jumps):
        """Record log-likelihood under each model, (n,); -inf where impossible."""
        return self._sweep(rho0, horizon, np.asarray(jumps, dtype=float)).total

    def _stretch(self, y, a, m, out):
        """Unnormalized states N y N^dag of the first model into ``out``,
        N = M_dt^m M_a for the whole-cell counts m, as one product with a
        (d^2, d^2) matrix."""
        if len(self._bad):
            N = self._maps(a, m, 0.0, 0)
            return np.matmul(N @ y, dag(N), out=out)
        nu = (1.0 - a * self._g[0]) * np.exp(m[:, None] * self._logmu[0])
        R = self._Uinv[0] @ y @ dag(self._Uinv[0])
        T = _kron(self._U[0], self._U[0].conj()) * R.reshape(-1)
        w = (nu[:, :, None] * nu.conj()[:, None, :]).reshape(len(m), -1)
        np.matmul(w, T.T, out=out.reshape(len(m), -1))

    def replay(self, rho0, horizon, jumps, on_dark="dead", out=None):
        """States (into ``out`` if given) and running log trace of one model on
        the dt grid, jumps at their times.  A jump at zero rate raises
        :class:`ZeroJumpRate` with ``on_dark="raise"``; otherwise the log trace
        is -inf from that cell on and the state freezes at the one just before
        the jump."""
        jumps = np.asarray(jumps, dtype=float)
        ev = self._sweep(rho0, horizon, jumps, keep=True)
        d, n = self._L.shape[-1], _n_cells(horizon, self.dt)
        grid = np.append(np.arange(n) * self.dt, horizon)
        dead = np.flatnonzero(ev.dead[:, 0])
        last = dead[0] if len(dead) else len(ev.taus)
        if last < len(ev.taus) and on_dark == "raise" and ev.is_jump[last]:
            raise ZeroJumpRate(
                f"record jumps at t={ev.taus[last]:.6g} while the jump rate is zero")
        states = np.empty((n + 1, d, d), dtype=complex) if out is None else out
        logtrace = np.full(n + 1, -np.inf)
        y, before, seen = np.asarray(rho0, dtype=complex), 0.0, 0
        for i in range(min(last + 1, len(ev.taus))):
            lo, hi = ev.prev_cell[i] + 1, ev.cells[i] + 1
            for s in range(lo, hi, self._BLOCK // (16 * d * d)):  # bounded blocks
                st = states[s:min(hi, s + self._BLOCK // (16 * d * d))]
                self._stretch(y, ev.a[i], np.arange(s - lo, s - lo + len(st)), st)
                tr = btrace(st).real
                st /= tr[:, None, None]
                logtrace[s:s + len(st)] = before + np.log(tr) + (
                    self.lam * grid[s:s + len(st)] - seen * np.log(self.lam))
            if i < last:
                y, before = ev.Y[i, 0].reshape(d, d).T, ev.cum[i, 0]
                seen += ev.is_jump[i]
        if last < len(ev.taus):
            N = self._maps(ev.a[last], ev.k[last], ev.b[last], 0)
            states[ev.cells[last] + 1:] = N @ y @ dag(N) / ev.Q[last, 0]
        else:
            states[n] = y
        logtrace[n] = ev.total[0]
        return SimpleNamespace(times=grid, states=states, logtrace=logtrace,
                               loglik=float(logtrace[n]))

    def simulate(self, rho0, uniforms, keep_states=False):
        """Bernoulli-thinning simulation; row i of ``uniforms`` (b, n) runs
        model i, or the one model.

        Cell k jumps when u_k < Tr(L^dag L rho) dt at its start and the rate
        after its no-jump map is positive; the jump lands at the cell end
        (k+1) dt.  Each row takes the states of later cells in closed form
        from its last anchor (its start, jump or mark), so its numbers do not
        depend on the batch.  Only cells with u_k below Tr(L^dag L) dt can
        jump, and only those are evaluated, a bounded block per row at a time.
        """
        b, n = uniforms.shape
        mi = np.arange(b) if len(self._L) > 1 else np.zeros(b, dtype=int)
        chunk = self._chunk[mi]
        bound = btrace(self._LdL).real[mi] * self.dt * (1.0 + 1e-6)  # Tr >= top eigenvalue
        rows, cand = np.nonzero(uniforms < bound[:, None])
        cand = np.append(cand, n)  # so that a block may read one past the end
        ptr = np.searchsorted(rows, np.arange(b + 1))
        ptr, row_end = ptr[:-1].copy(), ptr[1:]
        y = _broadcast_rho(rho0, b)
        anchor, loglik = np.zeros(b, dtype=int), np.zeros(b)
        jump_cells = [[] for _ in range(b)]
        live = np.arange(b)
        while live.size:
            m, at = mi[live], anchor[live]
            look = int(np.clip(self._BLOCK // (16 * y[0].size * len(live)), 1, 64))
            stop = np.minimum((at // chunk[live] + 1) * chunk[live], n)  # next mark or end
            idx = np.minimum(ptr[live, None] + np.arange(look), len(cand) - 1)
            cells = cand[idx]
            valid = (idx < row_end[live, None]) & (cells < stop[:, None])
            j = np.where(valid, cells - at[:, None], 0)
            # states at the start and the end of each candidate cell, then at the stop
            N = self._maps(0.0, np.hstack((j, j + 1, (stop - at)[:, None])), 0.0, m[:, None])
            st = N @ y[live, None] @ dag(N)
            f = btrace(st).real
            rate = btrace(self._LdL[m][:, None] @ st).real / f
            u = uniforms[live[:, None], np.where(valid, cells, 0)]
            jump = valid & (u < rate[:, :look] * self.dt) & (rate[:, look:-1] > 0.0)
            hit = jump.any(axis=1)
            n_valid = valid.sum(axis=1)
            q = np.where(hit, jump.argmax(axis=1), n_valid)
            ptr[live] += np.where(hit, q + 1, n_valid)
            # rows that move their anchor: to a jump, or to the next mark or the end
            move = np.flatnonzero(hit | (n_valid < look))
            col = np.where(hit, look + q, 2 * look)[move]
            rr, hit = live[move], hit[move]
            new = st[move, col] / f[move, col, None, None]
            loglik[rr] += np.log(f[move, col])
            Lj = self._L[mi[rr[hit]]]
            post = Lj @ new[hit] @ dag(Lj)
            s = btrace(post).real
            new[hit] = post / s[:, None, None]
            loglik[rr[hit]] += np.log(s)
            y[rr] = new
            anchor[rr] = np.where(hit, cells[move, col % look] + 1, stop[move])
            for i in rr[hit]:
                jump_cells[i].append(anchor[i] - 1)
            live = live[anchor[live] < n]
        counts = np.array([len(c) for c in jump_cells])
        loglik += self.lam * n * self.dt - counts * np.log(self.lam)
        times, states = [(np.asarray(c, dtype=int) + 1) * self.dt for c in jump_cells], None
        if keep_states:  # the replay of each record at its jump times (one model)
            states = np.empty((b, n + 1) + y.shape[1:], dtype=complex)
            for i, (r, t) in enumerate(zip(_broadcast_rho(rho0, b), times)):
                self.replay(r, n * self.dt, t, out=states[i])
            y = states[:, -1]
        return SimpleNamespace(final=y, loglik=loglik, states=states, counts=counts,
                               jump_times=times)

    def sample_exact(self, rho0, T, rng):
        """Exact waiting-time sampling of jump times under the first model.

        Between jumps rho(t) = M rho M^dag, M = expm(-G t).  With G = U diag(g)
        U^-1 the survival is S(t) = Re sum_ij c_ij exp(-(g_i + conj g_j) t),
        c = (U^-1 rho U^-dag) * (U^dag U)^T, and each waiting time is the root of
        S(t) = u, u uniform, by Brent's method on [0, T - t].  A near-defective
        G (cond(U) >= EIG_COND_MAX) takes S(t) = Tr(M rho M^dag), M from expm.
        Returns (jump_times, final normalized state).  For small dimensions.
        """
        from scipy import linalg, optimize  # at module level: 15 ms slower import

        U, Uinv, g, gen, L = (x[0] for x in (self._U, self._Uinv, self._g, self._gen, self._L))
        closed = not len(self._bad)
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
            rate = expect(self._LdL[0], rho).real
            if rate <= DARK_RATE:
                break
            rho = (L @ rho @ dag(L)) / rate
            t += tau
            times.append(min(t, T))
        return np.asarray(times), rho
