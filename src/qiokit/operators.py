"""Complex-matrix foundations for finite-dimensional quantum Markov models.

Defines the model, state and superoperator types plus the spectral and
information-geometric primitives everything else builds on: Lindblad
generators in both pictures, stationary states, spectral gaps, symmetric
logarithmic derivatives and quantum Fisher information.

Conventions, fixed once for the whole package:

* vectorization is column-stacking, ``vec(X) = X.reshape(-1, order="F")``,
  so ``vec(A X B) = kron(B.T, A) vec(X)``;
* the state-picture generator is
  ``X -> i[X, H] + L X L^dag - {L^dag L, X}/2`` and the observable-picture
  generator is its trace dual ``X -> i[H, X] + L^dag X L - {L^dag L, X}/2``;
* the operator imaginary part is ``Im(X) = (X - X^dag) / 2i``, the only
  Hermitian-valued reading.
"""

from __future__ import annotations

import numbers
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    NonUniqueStationaryState,
    NotErgodic,
    NotZeroMean,
    NumericsError,
    SingularState,
    ValidationError,
)

__all__ = [
    "QMarkovModel",
    "DensityOperator",
    "Superoperator",
    "SpectralInfo",
    "dag",
    "op_imag",
    "vec",
    "unvec",
    "lindblad_generator",
    "stationary_state",
    "spectral_info",
    "sld",
    "qfi_matrix",
    "pure_state_qfi",
    "qcrb_trace_bound",
    "zero_mean_inverse",
]

HERM_TOL = 1e-12
STATE_HERM_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-10
# full rank means min eigenvalue above this fraction of the max eigenvalue
FULL_RANK_RTOL = 1e-10
# singular values at or below this fraction of the largest count as null
NULLSPACE_RTOL = 1e-9


def dag(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose, batched over leading axes."""
    return np.conjugate(np.swapaxes(x, -1, -2))


def op_imag(x: np.ndarray) -> np.ndarray:
    """Operator imaginary part (X - X^dag)/2i; Hermitian for any X."""
    return (x - dag(x)) / 2j


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization, complex."""
    return _array(x, "x", complex).reshape(-1, order="F")


def unvec(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`vec` for a d x d matrix, complex."""
    v, d = _array(v, "v", complex), _check_int(d, "d", 0)
    if v.size != d * d:
        raise ValidationError(f"v must have d * d = {d * d} entries, got {v.size}")
    return v.reshape((d, d), order="F")


def _check_int(value, name: str, least: float = -np.inf) -> int:
    """``value`` as an int; a bool, a non-integer or a value under ``least`` is invalid."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < least:
        sign = {-np.inf: "", 0: "nonnegative and ", 1: "positive and "}.get(
            least, f"at least {least} and ")
        raise ValidationError(f"{name} must be {sign}integral, got {value!r}")
    return int(value)


def _instance(value, kind: type, name: str):
    """``value`` if it is a ``kind``; anything else is invalid."""
    if not isinstance(value, kind):
        raise ValidationError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")
    return value


def _check_real(value, name: str) -> float:
    """``value`` as a float; anything but a real scalar (a string, a bool, None, a
    complex number, an array) is invalid."""
    v = np.asarray(value)
    if v.shape or v.dtype.kind not in "iuf":
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    return float(v)


def _check_positive(value, name: str) -> float:
    """``value`` as a float in (0, inf); a non-number, NaN, 0 or inf is invalid."""
    if not 0 < _check_real(value, name) < np.inf:
        raise ValidationError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def _check_finite(value, name: str) -> float:
    """``value`` as a float in (-inf, inf); a non-number, NaN or inf is invalid."""
    if not np.isfinite(_check_real(value, name)):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return float(value)


def _array(value, name: str, dtype=float, finite: bool = True) -> np.ndarray:
    """``value`` as a new array of ``dtype``, float or complex: the one reading of
    an outside array.  Only numbers are accepted, so a string, None or a ragged
    nest is invalid, and so is a complex value for a float array and, when
    ``finite``, a NaN or infinite entry."""
    try:
        a = np.asarray(value)
        if a.dtype.kind == "O" and all(isinstance(x, numbers.Number) for x in a.flat):
            a = a.astype(dtype)  # e.g. integers too large for int64
    except (TypeError, ValueError, OverflowError):  # a ragged nest, or a complex number
        a = None
    if a is None or a.dtype.kind not in ("biuf" if dtype is float else "biufc"):
        raise ValidationError(f"{name} must be {'real ' if dtype is float else ''}numbers")
    a = np.array(a, dtype=dtype)
    if finite and not np.all(np.isfinite(a)):
        raise ValidationError(f"{name} contains non-finite entries")
    return a


def _real_matrix(m, name, shape=None):
    """``m`` as a finite real array, of ``shape`` when given."""
    a = _array(m, name)
    if shape is not None and a.shape != shape:
        raise ValidationError(f"{name} must have shape {shape}, got {a.shape}")
    return a


def _real_vector(v, name: str, n: int) -> np.ndarray:
    """``v`` flattened, checked as ``n`` finite real numbers."""
    a = _array(v, name).reshape(-1)
    if a.shape != (n,):
        raise ValidationError(f"{name} must have {n} entries, got {a.size}")
    return a


def _even_square(m, name):
    """``m`` checked as a finite real 2n x 2n matrix."""
    a = _real_matrix(m, name)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] % 2:
        raise ValidationError(f"{name} must be 2n x 2n, got {a.shape}")
    return a


def _square_complex(m, name: str) -> np.ndarray:
    """``m`` as a finite complex square matrix."""
    a = _array(m, name, complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {a.shape}")
    return a


def _freeze(obj, **fields) -> None:
    """Set ``fields`` on the frozen dataclass ``obj``; their arrays, tuple
    members included, become read-only."""
    for name, value in fields.items():
        for arr in value if isinstance(value, tuple) else (value,):
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class QMarkovModel:
    """Quantum input-output model (H, L) on a d-dimensional system.

    H is the system Hamiltonian (hbar = 1) and L the coupling to the
    monitored traveling field, units 1/sqrt(time).  The gauge coupling of
    the field is the identity throughout the package.
    """

    H: np.ndarray
    L: np.ndarray

    def __post_init__(self):
        H = _square_complex(self.H, "H")
        L = _square_complex(self.L, "L")
        if H.shape != L.shape:
            raise ValidationError(
                f"H and L must share a dimension, got {H.shape} and {L.shape}"
            )
        if not H.size:
            raise ValidationError("H and L must have dimension at least 1")
        if np.max(np.abs(H - H.conj().T)) > HERM_TOL:
            raise ValidationError("H is not Hermitian to 1e-12")
        _freeze(self, H=H, L=L)

    @property
    def dim(self) -> int:
        return self.H.shape[0]


@dataclass(frozen=True)
class DensityOperator:
    """Trace-one, Hermitian, positive-semidefinite state matrix."""

    rho: np.ndarray

    def __post_init__(self):
        r = _square_complex(self.rho, "rho")
        if np.max(np.abs(r - r.conj().T)) > STATE_HERM_TOL:
            raise ValidationError("rho is not Hermitian to 1e-10")
        tr = np.trace(r).real
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError(f"rho trace {tr} not within 1e-10 of 1")
        w = np.linalg.eigvalsh((r + r.conj().T) / 2)
        if w[0] < EIG_FLOOR:
            raise ValidationError(f"rho has eigenvalue {w[0]:.3e} below -1e-10")
        _freeze(self, rho=r)

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.rho)


def _rho_array(rho) -> np.ndarray:
    """``rho``, a DensityOperator or a matrix, checked as a finite square matrix."""
    return _square_complex(rho.rho if isinstance(rho, DensityOperator) else rho, "rho")


def _state_array(rho, dim: int) -> np.ndarray:
    """``rho`` checked as a density matrix of dimension ``dim``, as an array."""
    state = rho if isinstance(rho, DensityOperator) else DensityOperator(rho)
    if state.dim != dim:
        raise ValidationError(
            f"initial state has dimension {state.dim}, the model {dim}"
        )
    return state.rho


@dataclass(frozen=True)
class Superoperator:
    """Matrix of a linear map on d x d matrices, column-stacking convention.

    ``picture`` is "schrodinger" (state evolution; trace-annihilating) or
    "heisenberg" (observable evolution; unital).
    """

    mat: np.ndarray
    picture: str

    def __post_init__(self):
        m = _square_complex(self.mat, "superoperator matrix")
        d2 = m.shape[0]
        d = int(round(d2**0.5))
        if d * d != d2:
            raise ValidationError("superoperator must act on vectorized square matrices")
        scale = max(1.0, float(np.max(np.abs(m))) if m.size else 0.0)
        if self.picture == "schrodinger":
            # Tr(L*(X)) = 0 for all X  <=>  vec(I)^T mat = 0
            resid = np.max(np.abs(vec(np.eye(d)) @ m))
            if resid > 1e-10 * scale:
                raise ValidationError(
                    f"schrodinger generator does not annihilate the trace ({resid:.3e})"
                )
        elif self.picture == "heisenberg":
            resid = np.max(np.abs(m @ vec(np.eye(d))))
            if resid > 1e-10 * scale:
                raise ValidationError(
                    f"heisenberg generator does not annihilate the identity ({resid:.3e})"
                )
        else:
            raise ValidationError(f"unknown picture {self.picture!r}")
        _freeze(self, mat=m)

    @property
    def dim(self) -> int:
        return int(round(self.mat.shape[0] ** 0.5))

    def apply(self, x: np.ndarray) -> np.ndarray:
        return unvec(self.mat @ vec(x), self.dim)


@dataclass(frozen=True)
class SpectralInfo:
    """Spectrum summary of the vectorized state-picture generator.

    ``gap`` is minus the largest real part among the nonzero eigenvalues
    (0 when none), ``unique_stationary`` reports one-dimensionality of the
    null space, and ``is_ergodic`` additionally requires the stationary
    state to be full rank.
    """

    gap: float
    eigenvalues: np.ndarray
    is_ergodic: bool
    unique_stationary: bool


def lindblad_generator(model: QMarkovModel, picture: str = "schrodinger") -> Superoperator:
    """Vectorized Lindblad generator of the model.

    schrodinger:  X -> i[X, H] + L X L^dag - {L^dag L, X}/2
    heisenberg:   X -> i[H, X] + L^dag X L - {L^dag L, X}/2

    The two matrices are duals under the bilinear trace pairing.
    """
    if picture not in ("schrodinger", "heisenberg"):
        raise ValidationError(f"unknown picture {picture!r}")
    H, L = model.H, model.L
    d = model.dim
    eye = np.eye(d)
    LdL = L.conj().T @ L
    mat = (
        1j * (np.kron(H.T, eye) - np.kron(eye, H))
        + np.kron(L.conj(), L)
        - 0.5 * (np.kron(eye, LdL) + np.kron(LdL.T, eye))
    )
    if picture == "heisenberg":  # the trace dual: swap the row and column operator indices
        mat = mat.reshape((d,) * 4).T.reshape(d * d, d * d)
    return Superoperator(mat=mat, picture=picture)


def _nojump_generator(H, LdL):
    """Generator iH + L^dag L/2 of the no-jump evolution."""
    return 1j * H + 0.5 * LdL


def _nojump_tangent(L, dH, dL):
    """Derivative dG = i dH + (dL^dag L + L^dag dL)/2 of the no-jump generator along (dH, dL)."""
    return _nojump_generator(dH, dag(dL) @ L + dag(L) @ dL)


def _lindblad_tangent(L, dL, dG, X):
    """Derivative dL X L^dag + L X dL^dag - dG X - X dG^dag of L X L^dag - G X - X G^dag."""
    return dL @ X @ dag(L) + L @ X @ dag(dL) - dG @ X - X @ dag(dG)


def stationary_state(model: QMarkovModel) -> DensityOperator:
    """Unique stationary state of the model's Lindblad generator.

    Found as the null space of the vectorized state-picture generator;
    raises :class:`NonUniqueStationaryState` when that null space has
    dimension greater than one.
    """
    gen = lindblad_generator(_instance(model, QMarkovModel, "model"), "schrodinger")
    d = model.dim
    u, s, vh = np.linalg.svd(gen.mat)
    scale = float(s[0]) if s.size else 0.0
    if scale == 0.0:
        null_dim = d * d
    else:
        null_dim = int(np.sum(s <= NULLSPACE_RTOL * scale))
        null_dim = max(null_dim, 1)
    if null_dim > 1:
        raise NonUniqueStationaryState(
            f"stationary subspace has dimension {null_dim}"
        )
    rho = unvec(vh[-1].conj(), d)
    rho = (rho + rho.conj().T) / 2
    tr = np.trace(rho)
    if abs(tr) < 1e-12:
        raise NonUniqueStationaryState("null vector of the generator is traceless")
    rho = rho / tr
    resid = float(np.max(np.abs(gen.apply(rho))))
    if resid > 1e-10 * max(1.0, scale):
        raise NumericsError(f"stationary-state residual {resid:.3e} exceeds tolerance")
    return DensityOperator(rho)


def spectral_info(model: QMarkovModel) -> SpectralInfo:
    """Eigenvalues, spectral gap and ergodicity flags of the generator."""
    gen = lindblad_generator(model, "schrodinger")
    evals = np.linalg.eigvals(gen.mat)
    scale = float(np.max(np.abs(evals))) if evals.size else 0.0
    if scale == 0.0:
        gap = 0.0
    else:
        nonzero = evals[np.abs(evals) > 1e-9 * scale]
        gap = float(-np.max(nonzero.real)) if nonzero.size else 0.0
    unique = True
    full_rank = False
    try:
        rho_ss = stationary_state(model)
    except NonUniqueStationaryState:
        unique = False
    else:
        w = rho_ss.eigenvalues()
        full_rank = bool(w[0] > FULL_RANK_RTOL * max(w[-1], 0.0))
    return SpectralInfo(
        gap=gap,
        eigenvalues=evals,
        is_ergodic=unique and full_rank,
        unique_stationary=unique,
    )


def _ergodic_stationary(model: QMarkovModel) -> DensityOperator:
    """Stationary state, insisting on ergodicity."""
    try:
        rho_ss = stationary_state(model)
    except NonUniqueStationaryState as exc:
        raise NotErgodic(str(exc)) from exc
    w = rho_ss.eigenvalues()
    if not w[0] > FULL_RANK_RTOL * max(w[-1], 0.0):
        raise NotErgodic(f"stationary state is rank deficient (min eigenvalue {w[0]:.3e})")
    return rho_ss


def sld(rho, drho: np.ndarray) -> np.ndarray:
    """Symmetric logarithmic derivative S with (S rho + rho S)/2 = drho.

    Solved entrywise in the eigenbasis of rho as
    ``S_jk = 2 drho_jk / (lam_j + lam_k)`` with divisor cutoff 1e-14.
    Raises :class:`SingularState` when a non-negligible component of drho
    falls in the kernel of the divisor.
    """
    r, dr = _rho_array(rho), _square_complex(drho, "drho")
    if dr.shape != r.shape:
        raise ValidationError(f"drho has shape {dr.shape}, rho {r.shape}")
    if abs(np.trace(dr)) > 1e-10:
        raise ValidationError("drho must be traceless to 1e-10")
    lam, u = np.linalg.eigh((r + r.conj().T) / 2)
    m = u.conj().T @ dr @ u
    denom = lam[:, None] + lam[None, :]
    small = denom <= 1e-14
    if np.any(small & (np.abs(m) > 1e-12)):
        raise SingularState(
            "derivative component on the kernel of rho; SLD undefined"
        )
    s = np.where(small, 0.0, 2.0 * m / np.where(small, 1.0, denom))
    S = u @ s @ u.conj().T
    S = (S + S.conj().T) / 2
    resid = float(np.max(np.abs(0.5 * (S @ r + r @ S) - dr)))
    if resid > 1e-9:
        raise NumericsError(f"SLD Lyapunov residual {resid:.3e} exceeds 1e-9")
    return S


def qfi_matrix(rho, drhos) -> np.ndarray:
    """Quantum Fisher information matrix from state derivatives.

    ``F_ij = Tr(rho (S_i S_j + S_j S_i)) / 2`` with the S_i the SLDs of
    the supplied derivative directions.  Real, symmetric, PSD up to
    numerical error.
    """
    r = _rho_array(rho)
    if not isinstance(drhos, Iterable):
        raise ValidationError(f"drhos must be a list of matrices, got {type(drhos).__name__}")
    slds = [sld(r, dr) for dr in drhos]
    k = len(slds)
    F = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            # Tr(rho S_i S_j) has conjugate-symmetric indices, so the real
            # part already equals the symmetrized half-anticommutator form.
            F[i, j] = F[j, i] = np.trace(r @ slds[i] @ slds[j]).real
    return F


def pure_state_qfi(psi: np.ndarray, G: np.ndarray) -> float:
    """QFI of the unitary family exp(-i theta G)|psi>, G Hermitian: four times Var_psi(G)."""
    v = _array(psi, "psi", complex).reshape(-1)
    if not abs(np.linalg.norm(v) - 1.0) <= 1e-10:
        raise ValidationError("psi must be normalized to 1e-10")
    G = _square_complex(G, "G")
    if len(G) != len(v):
        raise ValidationError(f"G has shape {G.shape}, psi length {len(v)}")
    if np.max(np.abs(G - G.conj().T)) > HERM_TOL:
        raise ValidationError("G is not Hermitian to 1e-12")
    g = G @ v
    mean = np.vdot(v, g).real
    second = np.vdot(g, g).real
    return max(0.0, 4.0 * (second - mean * mean))


def qcrb_trace_bound(F: np.ndarray) -> float:
    """Trivial scalar Cramer-Rao bound Tr(F^-1) for a nonsingular QFI matrix."""
    F = _real_matrix(F, "F")
    if F.ndim != 2 or F.shape[0] != F.shape[1]:
        raise ValidationError(f"F must be square, got shape {F.shape}")
    try:
        return float(np.trace(np.linalg.inv(F)))
    except np.linalg.LinAlgError as exc:
        raise NumericsError("QFI matrix is singular; trace bound undefined") from exc


def zero_mean_inverse(model: QMarkovModel, X: np.ndarray) -> np.ndarray:
    """Solve L(A) = X on the zero-mean subspace of an ergodic model.

    ``L`` is the observable-picture generator.  The solution is the
    minimum-norm least-squares preimage projected to stationary mean zero,
    ``A -> A - Tr(rho_ss A) I``; for ergodic generators this coincides
    with the inverse of the restriction of L to zero-mean operators.
    """
    rho_ss = _ergodic_stationary(model).rho
    x = _square_complex(X, "X")
    if x.shape != rho_ss.shape:
        raise ValidationError(f"X must have shape {rho_ss.shape}, got {x.shape}")
    mean = np.trace(rho_ss @ x)
    if abs(mean) > 1e-8:
        raise NotZeroMean(f"Tr(rho_ss X) = {mean:.3e} is not zero to 1e-8")
    gen = lindblad_generator(model, "heisenberg")
    sol, *_ = np.linalg.lstsq(gen.mat, vec(x), rcond=None)
    A = unvec(sol, model.dim)
    A = A - np.trace(rho_ss @ A) * np.eye(model.dim)
    resid = float(np.max(np.abs(gen.apply(A) - x)))
    if resid > 1e-8:
        raise NumericsError(f"zero-mean inverse residual {resid:.3e} exceeds 1e-8")
    return A
