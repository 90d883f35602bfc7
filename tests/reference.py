"""Slow, obvious rebuilds of the kernels' schemes in extended precision (mpmath, or
``np.longdouble`` where a long float64 input needs only more bits).

Nothing here imports ``qiokit``: each reference reads only the data it is given,
so that a test can hold a kernel's output against it.
"""

import math

import mpmath as mp
import numpy as np


def _matrix(x):
    """A square array or nested list as a list of rows of mpc."""
    return [[mp.mpc(v) for v in row] for row in x]


def _mul(a, b):
    return [[mp.fsum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _dag(a):
    return [[mp.conj(a[j][i]) for j in range(len(a))] for i in range(len(a[0]))]


def _power(m, k):
    """m^k by repeated squaring."""
    out = [[mp.mpc(i == j) for j in range(len(m))] for i in range(len(m))]
    while k:
        if k & 1:
            out = _mul(out, m)
        m, k = _mul(m, m), k >> 1
    return out


def counting_loglik(H, L, rho0, dt, horizon, jumps):
    """The README counting scheme on one record, in 40 digits: its log-likelihood
    against the Poisson reference of intensity 1.

    Cell c is (c dt, (c+1) dt], the last one cut at the horizon; a jump at tau lies in
    the cell with c*dt < tau <= (c+1)*dt, both products in float64.  Between two events
    (jumps, or the horizon) the state takes the no-jump Kraus maps 1 - delta G, G = iH +
    L^dag L/2: the rest a of the earlier event's cell, the k whole cells between, as an
    exact power of 1 - dt G, and the part b of the later event's cell, or one sub-step
    when both lie in one cell.  Each sub-step length is the float64 difference that the
    scheme defines (``tau - pos``, with grid points ``c*dt``).  A jump applies L rho
    L^dag.  The log of every event's trace is summed, the state renormalized after
    each, and lam*T - N log(lam) = T added.  ``H`` and ``L`` may hold mpmath numbers.
    """
    dt, horizon = float(dt), float(horizon)
    n = max(math.ceil(horizon / dt - 1e-9), 1)  # cells up to the horizon

    def cell(tau):
        c = math.ceil(tau / dt) - 1
        c += (c + 1) * dt < tau
        c -= c * dt >= tau
        return min(max(c, 0), n - 1)

    with mp.workdps(40):
        H, L, rho = _matrix(H), _matrix(L), _matrix(rho0)
        d = len(H)
        LdL = _mul(_dag(L), L)
        G = [[1j * H[i][j] + LdL[i][j] / 2 for j in range(d)] for i in range(d)]

        def kraus(delta):  # 1 - delta G for the float64 length delta
            delta = mp.mpf(delta)
            return [[(i == j) - delta * G[i][j] for j in range(d)] for i in range(d)]

        whole, powers = kraus(dt), {}
        total, pos, at = mp.mpf(0), 0.0, -1  # the last event's time and cell
        events = [(float(t), True) for t in jumps] + [(horizon, False)]
        for tau, is_jump in events:
            c = cell(tau)
            if c == at:
                N = kraus(tau - pos)
            else:
                k = c - at - 1
                if k not in powers:
                    powers[k] = _power(whole, k)
                N = _mul(kraus(tau - c * dt), _mul(powers[k], kraus((at + 1) * dt - pos)))
            A = _mul(L, N) if is_jump else N
            rho = _mul(_mul(A, rho), _dag(A))
            tr = mp.re(mp.fsum(rho[i][i] for i in range(d)))
            total += mp.log(tr)
            rho = [[x / tr for x in row] for row in rho]
            pos, at = tau, c
        return total + horizon


def hankel_r(u, y, i):
    """R of the block Hankel data [Uf; Up; Yp; Yf] of inputs ``u`` (N, m) and outputs
    ``y`` (N,) at horizon ``i``, with a nonnegative diagonal, by Householder reflections
    in ``np.longdouble`` on the explicit (j, r) transposed stack.  Its row t, for
    t = 0 .. N - 2i, is u[t+i : t+2i], u[t : t+i] and y[t : t+2i], each flattened."""
    a = np.array([np.concatenate([u[t + i : t + 2 * i].ravel(), u[t : t + i].ravel(),
                                  y[t : t + 2 * i]]) for t in range(len(y) - 2 * i + 1)],
                 dtype=np.longdouble)
    for k in range(a.shape[1]):
        v = a[k:, k].copy()
        v[0] += np.copysign(np.sqrt(v @ v), v[0])  # reflect x onto -sign(x0) |x| e0
        if v @ v > 0:
            a[k:, k:] -= np.outer(v, (2 / (v @ v)) * (v @ a[k:, k:]))
    R = np.triu(a[: a.shape[1]])
    return R * np.where(np.diag(R) < 0, -1, 1)[:, None]
