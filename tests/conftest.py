"""Shared model builders for the test suite."""

import numpy as np
import pytest
from hypothesis import settings

from qiokit.operators import QMarkovModel, spectral_info

# Deterministic property tests: the same examples on every run, no deadline.
settings.register_profile("qiokit", derandomize=True, deadline=None, database=None)
settings.load_profile("qiokit")

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SM = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|
I2 = np.eye(2, dtype=complex)

# qubit initial states that are not density matrices
NON_PHYSICAL = {
    "nan": np.array([[np.nan, 0.0], [0.0, 0.5]]),
    "negative eigenvalue": np.diag([2.0, -1.0]),
    "trace not one": np.eye(2),
    "wrong dimension": np.eye(3) / 3,
}


def rotation(theta):
    """Phase shifter on the output field quadratures: a scattering matrix D."""
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


def driven_qubit(omega=1.0, kappa=1.0) -> QMarkovModel:
    """Resonantly driven two-level emitter; ergodic for omega, kappa > 0."""
    return QMarkovModel(H=0.5 * omega * SX, L=np.sqrt(kappa) * SM)


def decay_qubit(kappa=1.0) -> QMarkovModel:
    """Pure decay; unique but rank-deficient stationary state |g><g|."""
    return QMarkovModel(H=np.zeros((2, 2)), L=np.sqrt(kappa) * SM)


def tangent(family, theta):
    """(dH, dL), the (k, d, d) derivatives of the family's H and L at theta."""
    return tuple(family._at(theta)[2:])


def random_hermitian(d, rng, scale=1.0):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (a + a.conj().T) / 2


def random_ergodic_model(d, rng, scale=1.0):
    """Random (H, L) with a unique full-rank stationary state."""
    for _ in range(100):
        H = random_hermitian(d, rng, scale)
        L = scale * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2)
        model = QMarkovModel(H=H, L=L)
        if spectral_info(model).is_ergodic:
            return model
    raise RuntimeError("failed to draw an ergodic model")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
