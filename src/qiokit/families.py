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
from .operators import (HERM_TOL, QMarkovModel, _array, _check_arguments, _freeze,
                        _hermitian, _square_complex)

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
                if not _hermitian(x, HERM_TOL):
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

    def _evaluate(self, points) -> tuple:
        """H, L (n, d, d) and their derivatives dH, dL (n, k, d, d) at the rows of the
        (n, k) ``points``, by one broadcast in the order of a per-point sum, and checked
        as :class:`QMarkovModel` checks one model."""
        t = _array(points, "theta")
        if t.ndim != 2 or t.shape[1] != self.k:
            raise ValidationError(f"theta must have shape (n, {self.k}), got {t.shape}")
        n, d, t = len(t), self.base.dim, t[:, :, None, None]
        with np.errstate(over="ignore", invalid="ignore"):
            if self.phase:  # (H, exp(-i theta) L)
                e = np.exp(-1j * t)
                H, L = np.broadcast_to(self.base.H, (n, d, d)).copy(), e[:, 0] * self.base.L
                dH, dL = np.zeros((n, 1, d, d), complex), -1j * e * self.base.L
            else:
                dH, dL = (np.broadcast_to(np.stack(x), (n, self.k, d, d)).copy()
                          for x in (self.h_dirs, self.l_dirs))
                H = self.base.H + (t * dH).sum(1, initial=0)
                L = self.base.L + (t * dL).sum(1, initial=0)
            H, L = _array(H, "H", complex), _array(L, "L", complex)
            if not _hermitian(H, HERM_TOL):
                raise ValidationError("H is not Hermitian to 1e-12")
        return H, L, dH, dL

    def _at(self, theta) -> list:
        """H, L (d, d) and dH, dL (k, d, d) at the one point theta."""
        return [x[0] for x in self._evaluate(self._theta(theta)[None])]

    def model(self, theta) -> QMarkovModel:
        return QMarkovModel(*self._at(theta)[:2])

    def h_dot(self, theta) -> list:
        """Derivative of H_theta in each parameter direction."""
        return list(self._at(theta)[2])

    def l_dot(self, theta) -> list:
        """Derivative of L_theta in each parameter direction."""
        return list(self._at(theta)[3])


def _one_parameter(family: ParameterFamily, theta, name: str) -> list:
    """H, L (d, d) and dH, dL (1, d, d) at the theta of a one-parameter Fisher estimator,
    which must lie inside the family domain."""
    if family.k != 1 or not family.in_domain(theta):
        raise ValidationError(f"{name} takes one parameter inside the family domain")
    return family._at(theta)


_check_arguments(globals())
