"""Output quantum Fisher information rate, gauge transformations, conditional QFI.

For an ergodic model the output QFI grows linearly in time; the rate per
parameter pair (a, b) is

    F_ab = 4 Re Tr[rho_ss G_a^dag G_b],
    G_a  = Ldot_a - i [L, A_a],      A_a = L^{-1}(Edot_a),
    Edot_a = Hdot_a + Im(Ldot_a^dag L) - Tr[rho_ss (...)] I,

with the inverse taken on the zero-mean subspace.  The overall factor 4
is pinned by the phase family (H, exp(-i theta) L), whose rate must equal
four times the asymptotic count variance; with that normalization the
rate vanishes identically along Hamiltonian-shift and unitary-conjugation
orbits, the directions that leave the stationary output invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError, ZeroJumpRate
from .families import ParameterFamily, _one_parameter, _tangent
from .filtering import DEFAULT_DT, _loglik_table
from .operators import (
    QMarkovModel,
    _check_finite,
    _ergodic_stationary,
    _freeze,
    _instance,
    _square_complex,
    op_imag,
    qfi_matrix,
    zero_mean_inverse,
)
from .trajectories import CountingRecord

__all__ = ["GaugeElement", "qfi_rate", "qfi_rate_raw", "gauge_transform", "conditional_qfi"]


@dataclass(frozen=True)
class GaugeElement:
    """Element (r, W) of the gauge group: Hamiltonian shift and unitary conjugation."""

    r: float
    W: np.ndarray

    def __post_init__(self):
        W = _square_complex(self.W, "W")
        d = W.shape[0]
        if np.max(np.abs(W.conj().T @ W - np.eye(d))) > 1e-10:
            raise ValidationError("W must be unitary to 1e-10")
        _freeze(self, W=W, r=_check_finite(self.r, "r"))


def _generators(family: ParameterFamily, theta):
    """The G_a operators and the stationary state at theta."""
    model = family.model(theta)
    rho_ss = _ergodic_stationary(model).rho
    L = model.L
    eye = np.eye(model.dim)
    gs = []
    for Hdot, Ldot in zip(family.h_dot(theta), family.l_dot(theta)):
        edot = Hdot + op_imag(Ldot.conj().T @ L)
        edot = edot - np.trace(rho_ss @ edot).real * eye
        A = zero_mean_inverse(model, edot)
        gs.append(Ldot - 1j * (L @ A - A @ L))
    return gs, rho_ss


def qfi_rate_raw(family: ParameterFamily, theta) -> np.ndarray:
    """Unscaled matrix Tr[rho_ss G_a^dag G_b]; complex off the diagonal."""
    gs, rho_ss = _generators(family, theta)
    k = len(gs)
    out = np.empty((k, k), dtype=complex)
    for a in range(k):
        for b in range(k):
            out[a, b] = np.trace(rho_ss @ gs[a].conj().T @ gs[b])
    return out


def qfi_rate(family: ParameterFamily, theta) -> np.ndarray:
    """QFI rate matrix of the output, 4 Re Tr[rho_ss G_a^dag G_b]."""
    raw = qfi_rate_raw(family, theta)
    F = 4.0 * raw.real
    return (F + F.T) / 2


def gauge_transform(model: QMarkovModel, g: GaugeElement) -> QMarkovModel:
    """Apply (H, L) -> (W^dag (H + r) W, W^dag L W); output statistics invariant."""
    model, W = _instance(model, QMarkovModel, "model"), _instance(g, GaugeElement, "g").W
    if W.shape != model.H.shape:
        raise ValidationError(f"W has shape {W.shape}, the model dimension is {model.dim}")
    H = W.conj().T @ (model.H + g.r * np.eye(model.dim)) @ W
    L = W.conj().T @ model.L @ W
    H = (H + H.conj().T) / 2
    return QMarkovModel(H=H, L=L)


def conditional_qfi(family: ParameterFamily, theta, rho0, record, *,
                    dt: float = DEFAULT_DT) -> float:
    """QFI of the conditional state at the record horizon (one parameter).

    The final state and its derivative are the likelihood tangent's at theta,
    inside the family domain (exact for both record kinds); this is the
    final-measurement information term in the combined Cramer-Rao bound.  A
    counting record of likelihood zero raises :class:`ZeroJumpRate`.
    """
    theta = _one_parameter(family, theta, "conditional_qfi")
    model = family.model([theta])
    out = _loglik_table(model.H, model.L, rho0, [record], dt, 1.0, _tangent(family, theta))
    if isinstance(record, CountingRecord) and out.loglik[0, 0] == -np.inf:
        raise ZeroJumpRate("the record has likelihood zero at theta")
    center, drho = out.final[0, 0], out.dfinal[0, 0]
    drho = (drho + drho.conj().T) / 2
    drho = drho - (np.trace(drho).real / center.shape[0]) * np.eye(center.shape[0])
    return float(qfi_matrix(center, [drho])[0, 0])
