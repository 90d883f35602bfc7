"""Linear quantum systems in quadrature form.

Construction from a quadratic Hamiltonian and linear field coupling,
physical-realizability checks (plain and generalized), transfer functions,
output power spectra, symplectic equivalence, Kalman filtering and the
innovation-form simulator.

Quadrature convention: the state vector is x = (q1, p1, ..., qn, pn) with
[x, x^T] = 2i J_n, J = [[0, 1], [-1, 0]], and the field quadratures are
W^Q = B + B^dag, W^P = -i(B - B^dag), so the vacuum input covariance is
the identity (<dW dW^T>_sym = I dt).  With this normalization the drift
map below satisfies the realizability constraints identically and the
single-mode cavity (detuning Delta, decay kappa) comes out as
A = [[-k/2, D], [-D, -k/2]], B = -sqrt(k) I, C = sqrt(k) I.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    NoSkewSolution,
    NotHurwitz,
    NumericsError,
    RiccatiFailure,
    SingularResolvent,
    SingularZ,
    StepTooLarge,
    ValidationError,
)
from .operators import (
    _array,
    _check_arguments,
    _check_finite,
    _check_int,
    _check_positive,
    _even_square,
    _freeze,
    _real_matrix,
    _real_vector,
)
from .trajectories import STEP_GUARD, DiffusiveRecord, _draws, _grid_steps

__all__ = [
    "LinearQSystem",
    "QuadraticSpec",
    "SymplecticMatrix",
    "GaussianInput",
    "PR2Result",
    "symplectic_form",
    "build_linear_system",
    "check_pr1",
    "check_pr2",
    "transfer_function",
    "power_spectrum",
    "symplectic_transform",
    "minimality_check",
    "kalman_gain",
    "simulate_innovation_form",
    "random_symplectic",
    "gamma_rigidity",
]


def _quad_row(quadrature) -> int:
    """Row of C and D that a measurement of ``quadrature`` reads."""
    if quadrature not in ("Q", "P"):
        raise ValidationError(f"quadrature must be 'Q' or 'P', got {quadrature!r}")
    return ("Q", "P").index(quadrature)


def symplectic_form(n: int) -> np.ndarray:
    """J_n = I_n (x) [[0, 1], [-1, 0]]."""
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.kron(np.eye(_check_int(n, "n", 0)), J)


@dataclass(frozen=True)
class LinearQSystem:
    """State-space quadruple (A, B, C, D) of an n-mode linear quantum system.

    Stability is not an invariant; operations that need a Hurwitz drift
    check it themselves.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray = field(default=None)

    def __post_init__(self):
        A = _even_square(self.A, "A")
        twon = A.shape[0]
        B = _real_matrix(self.B, "B", (twon, 2))
        C = _real_matrix(self.C, "C", (2, twon))
        D = np.eye(2) if self.D is None else _real_matrix(self.D, "D", (2, 2))
        _freeze(self, A=A, B=B, C=C, D=D)

    @property
    def n(self) -> int:
        return self.A.shape[0] // 2


@dataclass(frozen=True)
class QuadraticSpec:
    """Quadratic Hamiltonian H = x^T R x / 2 and coupling L = K x."""

    R: np.ndarray
    K: np.ndarray

    def __post_init__(self):
        R = _even_square(self.R, "R")
        if np.max(np.abs(R - R.T)) > 1e-12:
            raise ValidationError("R must be symmetric to 1e-12")
        K = _array(self.K, "K", complex).reshape(-1)
        if K.shape[0] != R.shape[0]:
            raise ValidationError("K must be a complex row of length 2n")
        _freeze(self, R=R, K=K)

    @property
    def n(self) -> int:
        return self.R.shape[0] // 2


@dataclass(frozen=True)
class SymplecticMatrix:
    """Real V with V J_n V^T = J_n."""

    V: np.ndarray

    def __post_init__(self):
        V = _even_square(self.V, "V")
        Jn = symplectic_form(V.shape[0] // 2)
        if np.max(np.abs(V @ Jn @ V.T - Jn)) > 1e-9:
            raise ValidationError("V is not symplectic to 1e-9")
        _freeze(self, V=V)

    @property
    def n(self) -> int:
        return self.V.shape[0] // 2


@dataclass(frozen=True)
class GaussianInput:
    """Symmetrized covariance rate Gamma of the stationary Gaussian input."""

    Gamma: np.ndarray

    def __post_init__(self):
        G = _real_matrix(self.Gamma, "Gamma", (2, 2))
        if np.max(np.abs(G - G.T)) > 1e-12:
            raise ValidationError("Gamma must be symmetric")
        if np.linalg.eigvalsh(G)[0] < -1e-12:
            raise ValidationError("Gamma must be positive semidefinite")
        _freeze(self, Gamma=G)

    @classmethod
    def vacuum(cls) -> "GaussianInput":
        return cls(Gamma=np.eye(2))


def build_linear_system(spec: QuadraticSpec) -> LinearQSystem:
    """State-space matrices of the system with H = x^T R x / 2, L = K x.

    Applying the Heisenberg equations of motion to the quadrature vector
    (commutation [x, x^T] = 2i J_n) gives

        A = 2 J_n (R - Im(K^T conj(K)))
        B = 2 J_n [-Im(K)^T  Re(K)^T]
        C = [2 Re(K); 2 Im(K)],   D = I,

    which satisfies the realizability constraints identically.
    """
    R, K = spec.R, spec.K
    two_Jn = 2.0 * symplectic_form(spec.n)
    A = two_Jn @ (R - np.outer(K, K.conj()).imag)
    B = two_Jn @ np.stack([-K.imag, K.real], axis=-1)
    C = np.stack([2.0 * K.real, 2.0 * K.imag])
    return LinearQSystem(A=A, B=B, C=C, D=np.eye(2))


def _pr_equations(A, B, C, D, Z) -> np.ndarray:
    """Residuals of ``A Z + Z A^T + B J B^T = 0`` (row-major), of
    ``Z C^T + B J D^T = 0`` and of ``D J D^T = J``, flattened and stacked;
    Z = J_n is plain realizability.  Batched over the leading axes of ``Z``.
    The first is kept whole, though skew for a skew Z: in floating point its
    diagonal and lower triangle carry round-off of their own (a fused
    multiply-add leaves product error on the diagonal of B J B^T, and a
    computed T J_n T^T is not exactly skew).  The last four entries are the
    scattering block, which depends on D alone."""
    J = symplectic_form(1)
    first = A @ Z + Z @ A.T + B @ J @ B.T
    second = Z @ C.T + B @ J @ D.T
    third = np.broadcast_to(D @ J @ D.T - J, first.shape[:-2] + (2, 2))
    return np.concatenate([x.reshape(x.shape[:-2] + (-1,)) for x in (first, second, third)],
                          axis=-1)


def check_pr1(G: LinearQSystem) -> float:
    """Max-norm residual of the physical-realizability constraints.

    ``A J_n + J_n A^T + B J B^T = 0``, ``J_n C^T + B J D^T = 0`` and
    ``D J D^T = J``.
    """
    return float(np.max(np.abs(_pr_equations(G.A, G.B, G.C, G.D, symplectic_form(G.n)))))


@dataclass(frozen=True)
class PR2Result:
    residual: float
    Z: np.ndarray
    V: np.ndarray


def skew_symplectic_factor(Z: np.ndarray) -> np.ndarray:
    """Factor a real invertible skew-symmetric Z as V J_n V^T.

    iZ is Hermitian with eigenvalues +-s_i; a unit eigenvector p + iq of +s_i
    has p, q orthogonal of norm 1/sqrt(2), and gives V the columns sqrt(2 s_i) (q, p).
    """
    Z = _even_square(Z, "Z")
    m = Z.shape[0]
    w, X = np.linalg.eigh(1j * Z)
    s, X = w[m // 2:], X[:, m // 2:]
    if s[0] <= 1e-12 * max(1.0, np.abs(Z).max()):
        raise SingularZ("skew certificate Z is numerically singular")
    V = (np.stack((X.imag, X.real), axis=-1) * np.sqrt(2.0 * s)[:, None]).reshape(m, m)
    if np.max(np.abs(V @ symplectic_form(m // 2) @ V.T - Z)) > 1e-7 * max(1.0, np.abs(Z).max()):
        raise NumericsError("skew factorization failed its residual check")
    return V


def _certificate_lstsq(A, B, C, D) -> np.ndarray:
    """The skew Z that solves ``A Z + Z A^T + B J B^T = 0`` and
    ``Z C^T + B J D^T = 0`` in least squares, of least norm."""
    m = len(A)
    iu = np.triu_indices(m, k=1)
    basis = np.zeros((len(iu[0]), m, m))
    basis[np.arange(len(iu[0])), iu[0], iu[1]] = 1.0
    basis = basis - basis.transpose(0, 2, 1)
    # affine in Z: columns are the basis images without B, the offset is the
    # value at Z = 0; for a skew Z the first equation's strict upper triangle holds it
    rows = np.r_[iu[0] * m + iu[1], m * m : m * m + 2 * m]
    mat = _pr_equations(A, np.zeros_like(B), C, D, basis)[:, rows].T
    rhs = -_pr_equations(A, B, C, D, np.zeros((m, m)))[rows]
    coef, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    return np.tensordot(coef, basis, axes=1)


def check_pr2(G: LinearQSystem, tol: float = 1e-8) -> PR2Result:
    """Solve the generalized realizability equations for a skew certificate.

    Finds skew-symmetric Z with ``A Z + Z A^T + B J B^T = 0`` and
    ``Z C^T + B J D^T = 0`` by least squares over the skew basis.  The
    residual also reads ``D J D^T = J``, which no Z can mend.  Raises
    :class:`NoSkewSolution` when the best residual exceeds ``tol`` and
    :class:`SingularZ` when Z is not invertible; otherwise also returns
    the factor V with Z = V J_n V^T.  ``tol`` must be positive and finite.
    """
    tol = _check_positive(tol, "tol")
    Z = _certificate_lstsq(G.A, G.B, G.C, G.D)
    residual = float(np.max(np.abs(_pr_equations(G.A, G.B, G.C, G.D, Z))))
    if residual > tol:
        raise NoSkewSolution(
            f"no skew-symmetric certificate: best residual {residual:.3e} > {tol:.1e}"
        )
    scale = max(
        np.abs(G.A).max(), np.abs(G.B).max(), np.abs(G.C).max(), 1e-30
    )
    if np.abs(Z).max() <= 1e-10 * scale:
        raise NoSkewSolution("only the zero certificate solves the equations")
    V = skew_symplectic_factor(Z)
    return PR2Result(residual=residual, Z=Z, V=V)


def transfer_function(G: LinearQSystem, s: complex) -> np.ndarray:
    """Xi(s) = C (sI - A)^{-1} B + D at a finite complex s."""
    v = np.asarray(s)
    if v.shape or v.dtype.kind not in "iufc" or not np.isfinite(v):
        raise ValidationError(f"s must be a finite complex number, got {s!r}")
    m = v * np.eye(2 * G.n) - G.A
    try:
        sol = np.linalg.solve(m, G.B)
    except np.linalg.LinAlgError as exc:
        raise SingularResolvent(f"s = {s} is an eigenvalue of A") from exc
    if not np.all(np.isfinite(sol)):
        raise SingularResolvent(f"s = {s} is numerically an eigenvalue of A")
    return G.C @ sol + G.D


def _require_hurwitz(G: LinearQSystem):
    ev = np.linalg.eigvals(G.A)
    if np.any(ev.real >= 0):
        raise NotHurwitz(f"drift has eigenvalue with Re >= 0 (max {ev.real.max():.3e})")


def power_spectrum(G: LinearQSystem, inp: GaussianInput, omega: float) -> np.ndarray:
    """Output power spectrum Phi(i w) = Xi(i w)^# Gamma Xi(i w)^T at a finite real w."""
    omega = _check_finite(omega, "omega")
    _require_hurwitz(G)
    xi = transfer_function(G, 1j * omega)
    return xi.conj() @ inp.Gamma @ xi.T


def symplectic_transform(G: LinearQSystem, V: SymplecticMatrix) -> LinearQSystem:
    """Equivalence transformation (V A V^{-1}, V B, C V^{-1}, D)."""
    v = V.V
    if v.shape[0] != 2 * G.n:
        raise ValidationError("symplectic matrix dimension does not match the system")
    vinv = np.linalg.solve(v, np.eye(v.shape[0]))
    return LinearQSystem(A=v @ G.A @ vinv, B=v @ G.B, C=G.C @ vinv, D=G.D)


def minimality_check(G: LinearQSystem) -> bool:
    """Controllability and observability rank tests at order 2n."""
    m = 2 * G.n
    blocks_c, blocks_o = [G.B], [G.C]
    for _ in range(m - 1):
        blocks_c.append(G.A @ blocks_c[-1])
        blocks_o.append(blocks_o[-1] @ G.A)
    ctrb = np.hstack(blocks_c)
    obsv = np.vstack(blocks_o)
    ranks = []
    for mat in (ctrb, obsv):
        sv = np.linalg.svd(mat, compute_uv=False)
        ranks.append(int(np.sum(sv > 1e-9 * sv[0])) if sv[0] > 0 else 0)
    return ranks[0] == m and ranks[1] == m


def kalman_gain(G: LinearQSystem, quadrature: str) -> tuple[np.ndarray, np.ndarray]:
    """Steady-state Kalman gain for continuous measurement of one quadrature.

    Solves the filter Riccati equation
    ``A Q + Q A^T + B B^T - (Q C_m^T + B D_m^T)(D_m D_m^T)^{-1}(...)^T = 0``
    with C_m, D_m the measured row of C, D, and returns
    ``L_m = (Q C_m^T + B D_m^T)(D_m D_m^T)^{-1}`` (shape (2n,)) along with Q.
    """
    row = _quad_row(quadrature)
    _require_hurwitz(G)
    Cm = G.C[row : row + 1, :]
    Dm = G.D[row : row + 1, :]
    R = Dm @ Dm.T
    if R[0, 0] <= 0:
        raise ValidationError("measured row of D must have positive norm")
    q = G.B @ G.B.T
    s = G.B @ Dm.T
    import scipy.linalg
    try:
        Q = scipy.linalg.solve_continuous_are(G.A.T, Cm.T, q, R, s=s)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise RiccatiFailure(str(exc)) from exc
    Q = (Q + Q.T) / 2
    gain = (Q @ Cm.T + G.B @ Dm.T) / R[0, 0]
    resid = G.A @ Q + Q @ G.A.T + q - gain @ R @ gain.T
    scale = max(1.0, float(np.abs(q).max()))
    if np.max(np.abs(resid)) > 1e-8 * scale:
        raise RiccatiFailure(
            f"Riccati residual {np.max(np.abs(resid)):.3e} exceeds tolerance"
        )
    if np.linalg.eigvalsh(Q)[0] < -1e-9 * scale:
        raise RiccatiFailure("Riccati solution is not positive semidefinite")
    closed = G.A - gain @ Cm
    if np.any(np.linalg.eigvals(closed).real >= 0):
        raise RiccatiFailure("Kalman closed loop is not Hurwitz")
    return gain[:, 0], Q


def _lti_run(A: np.ndarray, drive: np.ndarray) -> np.ndarray:
    """States z_0 = 0, z_1, ..., z_n of ``z_{k+1} = A z_k + drive[k]``.

    A doubling scan (Hillis and Steele, CACM 29, 1170, 1986): from
    z = [0; drive], the level of stride m = 1, 2, 4, ... adds A^m z_{k-m} to
    every z_k, so that after it z_k sums the last 2m terms of its recursion.
    A level runs only while ||A^m||_max <= 1e100, which keeps the next square
    finite, so a zero drive keeps exact zeros.  Past that, a carry of stride m
    finishes the remaining lags, m states at a time.  A non-finite A gives
    non-finite states.
    """
    n, d = drive.shape
    if not np.all(np.isfinite(A)):
        return np.vstack([np.zeros(d), np.full((n, d), np.nan)])
    z, P, m = np.vstack([np.zeros(d), drive]), A, 1
    with np.errstate(over="ignore", invalid="ignore"):
        while m <= n and np.max(np.abs(P)) <= 1e100:
            z[m:] += z[:-m] @ P.T
            P, m = P @ P, 2 * m
        for k in range(m, n + 1, m):
            z[k : k + m] += z[k - m : min(k, n + 1 - m)] @ P.T
    return z


def simulate_innovation_form(
    G: LinearQSystem, L_m: np.ndarray, quadrature: str, f: np.ndarray,
    T: float, dt: float, seed: int, *, noise: bool = True, index: int = 0,
) -> tuple[DiffusiveRecord, np.ndarray]:
    """Euler simulation of the innovation form driven by a known input.

    ``dz = A z dt + B f dt + L_m dnu`` and ``dY = C_m z dt + D_m f dt + dnu``
    with scalar standard Wiener innovations (measured row normalized to
    unit noise power).  ``f`` must supply one R^2 input per grid step.
    Returns the output record and the state trajectory.
    """
    row = _quad_row(quadrature)
    n_steps = _grid_steps(T, dt)
    f = _real_matrix(f, "f", (n_steps, 2))
    rad = float(np.max(np.abs(np.linalg.eigvals(G.A))))
    if dt * rad > STEP_GUARD:
        raise StepTooLarge(f"dt * spectral_radius(A) = {dt * rad:.3g} exceeds {STEP_GUARD}")
    Cm = G.C[row]
    Dm = G.D[row]
    L_m = _real_vector(L_m, "L_m", 2 * G.n)
    dnu = _draws("diffusive", seed, index, 1, n_steps, dt)[0] if noise else np.zeros(n_steps)
    # z' = (I + A dt) z + B f dt + L_m dnu; the output follows from the trajectory
    traj = _lti_run(np.eye(2 * G.n) + G.A * dt, (f @ G.B.T) * dt + np.outer(dnu, L_m))
    dY = (traj[:-1] @ Cm) * dt + (f @ Dm) * dt + dnu
    return DiffusiveRecord(dt=dt, increments=dY), traj


def random_symplectic(n: int, rng: np.random.Generator, scale: float = 0.4) -> SymplecticMatrix:
    """Random symplectic matrix exp(J_n S) with S symmetric."""
    m, scale = 2 * _check_int(n, "n", 1), _check_finite(scale, "scale")
    if not isinstance(rng, np.random.Generator):
        raise ValidationError(f"rng must be a numpy Generator, got {type(rng).__name__}")
    S = rng.normal(size=(m, m))
    S = scale * (S + S.T) / 2
    import scipy.linalg
    return SymplecticMatrix(V=scipy.linalg.expm(symplectic_form(n) @ S))


def _unitary_to_orthosymplectic(U: np.ndarray) -> np.ndarray:
    """Real representation of U(n) inside the symplectic group, interleaved order."""
    return np.kron(U.real, np.eye(2)) + np.kron(U.imag, [[0.0, -1.0], [1.0, 0.0]])


def gamma_rigidity(
    Gamma: np.ndarray, n: int = 1, n_samples: int = 1000, seed: int = 0,
    tol: float = 1e-8,
) -> bool:
    """Heuristic test whether V Gamma V^T = Gamma forces V = I.

    Samples random orthogonal-symplectic matrices (the real representation
    of Haar unitaries) and reports False as soon as one non-identity
    sample preserves Gamma.  A True result is evidence from sampling, not
    a proof.
    """
    Gamma, n = _even_square(Gamma, "Gamma"), _check_int(n, "n", 1)
    n_samples, tol = _check_int(n_samples, "n_samples", 1), _check_positive(tol, "tol")
    big = np.kron(np.eye(n), Gamma) if Gamma.shape == (2, 2) and n > 1 else Gamma
    rng = np.random.default_rng(_check_int(seed, "seed", 0))
    dim = big.shape[0] // 2
    for _ in range(n_samples):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, r = np.linalg.qr(a)
        U = q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()
        O = _unitary_to_orthosymplectic(U)
        if np.max(np.abs(O - np.eye(2 * dim))) < 1e-10:
            continue
        if np.max(np.abs(O @ big @ O.T - big)) <= tol:
            return False
    return True


_check_arguments(globals())
