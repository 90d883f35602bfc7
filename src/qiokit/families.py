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
from .operators import QMarkovModel, _array, _check_arguments, _freeze, _square_complex

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
        h = l = ()
        if self.phase:
            if self.h_dirs or self.l_dirs:
                raise ValidationError("phase families take no direction operators")
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
        k = 1 if self.phase else len(h)
        dom = _array([[-1.0, 1.0]] * k if self.domain is None else self.domain, "domain",
                     finite=False)
        if dom.shape != (k, 2) or np.any(dom[:, 0] > dom[:, 1]):
            raise ValidationError(f"domain must be a ({k}, 2) array of ordered bounds")
        if np.any(np.isnan(dom)):  # NaN passes the ordering test; infinite bounds are legal
            raise ValidationError("domain bounds must not be NaN")
        _freeze(self, h_dirs=h, l_dirs=l, domain=dom)

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
        t = np.atleast_1d(_array(theta, "theta"))
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


def _tangent(family: ParameterFamily, theta) -> tuple:
    """(dH, dL) at theta: the (k, d, d) derivatives of H and L along each parameter."""
    return np.stack(family.h_dot(theta)), np.stack(family.l_dot(theta))


def _one_parameter(family: ParameterFamily, theta, name: str) -> float:
    """theta of a one-parameter Fisher estimator, which must lie inside the family domain."""
    if family.k != 1 or not family.in_domain(theta):
        raise ValidationError(f"{name} takes one parameter inside the family domain")
    return float(family._theta(theta)[0])


_check_arguments(globals())
