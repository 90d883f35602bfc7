"""Smooth parameter families theta -> (H_theta, L_theta) with exact derivatives.

Two shapes cover all supported estimation problems: affine families
``(H + sum_a theta_a H_a, L + sum_a theta_a L_a)`` and the one-parameter
phase family ``(H, exp(-i theta) L)``.  Both expose analytic derivative
operators, which is what the Fisher-information machinery consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ValidationError
from .operators import QMarkovModel, _square_complex

__all__ = ["ParameterFamily"]


@dataclass(frozen=True)
class ParameterFamily:
    """Parametrized quantum Markov model with analytic derivatives.

    ``h_dirs`` and ``l_dirs`` hold one derivative operator per parameter;
    ``domain`` is a (k, 2) array of box bounds.  When ``phase`` is set the
    family is (H, exp(-i theta) L) with k = 1 and the direction lists are
    ignored.
    """

    base: QMarkovModel
    h_dirs: tuple = ()
    l_dirs: tuple = ()
    domain: np.ndarray = field(default=None)
    phase: bool = False

    def __post_init__(self):
        d = self.base.dim
        if self.phase:
            if self.h_dirs or self.l_dirs:
                raise ValidationError("phase families take no direction operators")
            k = 1
        else:
            h = tuple(_square_complex(x, "h_dir") for x in self.h_dirs)
            l = tuple(_square_complex(x, "l_dir") for x in self.l_dirs)
            if len(h) != len(l):
                raise ValidationError("need one H and one L direction per parameter")
            if not h:
                raise ValidationError("family needs at least one parameter")
            for x in h + l:
                if x.shape != (d, d):
                    raise ValidationError("direction operators must match the model dimension")
            for x in h:
                if np.max(np.abs(x - x.conj().T)) > 1e-12:
                    raise ValidationError("H directions must be Hermitian")
            object.__setattr__(self, "h_dirs", h)
            object.__setattr__(self, "l_dirs", l)
            k = len(h)
        dom = np.asarray(
            self.domain if self.domain is not None else [[-1.0, 1.0]] * k,
            dtype=float,
        )
        if dom.shape != (k, 2) or np.any(dom[:, 0] > dom[:, 1]):
            raise ValidationError(f"domain must be a ({k}, 2) array of ordered bounds")
        if np.any(np.isnan(dom)):  # NaN passes the ordering test; infinite bounds are legal
            raise ValidationError("domain bounds must not be NaN")
        dom.setflags(write=False)
        object.__setattr__(self, "domain", dom)

    @classmethod
    def affine(cls, base: QMarkovModel, h_dirs, l_dirs, domain=None) -> "ParameterFamily":
        return cls(base=base, h_dirs=tuple(h_dirs), l_dirs=tuple(l_dirs), domain=domain)

    @classmethod
    def phase_family(cls, base: QMarkovModel, domain=None) -> "ParameterFamily":
        return cls(base=base, phase=True, domain=domain)

    @property
    def k(self) -> int:
        return 1 if self.phase else len(self.h_dirs)

    def _theta(self, theta) -> np.ndarray:
        t = np.atleast_1d(np.asarray(theta, dtype=float))
        if t.shape != (self.k,):
            raise ValidationError(f"theta must have shape ({self.k},), got {t.shape}")
        return t

    def in_domain(self, theta) -> bool:
        t = self._theta(theta)
        return bool(np.all(t >= self.domain[:, 0]) and np.all(t <= self.domain[:, 1]))

    def model(self, theta) -> QMarkovModel:
        t = self._theta(theta)
        if self.phase:
            return QMarkovModel(H=self.base.H, L=np.exp(-1j * t[0]) * self.base.L)
        H = self.base.H + sum(ti * Hi for ti, Hi in zip(t, self.h_dirs))
        L = self.base.L + sum(ti * Li for ti, Li in zip(t, self.l_dirs))
        return QMarkovModel(H=H, L=L)

    def h_dot(self, theta) -> list:
        """Derivative of H_theta in each parameter direction."""
        self._theta(theta)
        if self.phase:
            return [np.zeros_like(self.base.H)]
        return [np.array(Hi) for Hi in self.h_dirs]

    def l_dot(self, theta) -> list:
        """Derivative of L_theta in each parameter direction."""
        t = self._theta(theta)
        if self.phase:
            return [-1j * np.exp(-1j * t[0]) * self.base.L]
        return [np.array(Li) for Li in self.l_dirs]


def _central_step(family: ParameterFamily, theta, h, name: str) -> tuple[float, float]:
    """(theta, h) of a one-parameter central difference at theta +- h.

    The default step is ``1e-4 * max(1, |theta|)``; ``h`` must be positive
    and finite, and theta +- h must lie inside the family domain.
    """
    if family.k != 1:
        raise ValidationError(f"{name} handles one-parameter families")
    theta = float(family._theta(theta)[0])
    if h is None:
        h = 1e-4 * max(1.0, abs(theta))
    if not 0 < h < np.inf:
        raise ValidationError(f"h must be positive and finite, got {h}")
    if not (family.in_domain(theta - h) and family.in_domain(theta + h)):
        raise ValidationError("theta +- h must stay inside the family domain")
    return theta, h
