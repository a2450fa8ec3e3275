"""Physical model: battery/charger Hamiltonians and the two-body charging unitary.

Basis convention: |g> = index 0, |e> = index 1 on every two-level system, so
so sigma_z = |e><e| - |g><g| is diag(-1, +1) in index order.
hbar = 1 everywhere; energies are reported in units of hbar*omega.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Layout, Operator

KET_G = np.array([1.0, 0.0], dtype=complex)
KET_E = np.array([0.0, 1.0], dtype=complex)

# sigma_z = |e><e| - |g><g|, sigma_x = |e><g| + |g><e|, sigma_y = -i|e><g| + i|g><e|
SIGMA_Z = np.diag([-1.0, 1.0]).astype(complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, 1j], [-1j, 0]], dtype=complex)
IDENT_2 = np.eye(2, dtype=complex)

PAIR_LAYOUT = Layout(("Q", "C"), (2, 2))
BATTERY_LAYOUT = Layout(("Q",), (2,))


@dataclass(frozen=True)
class ModelParams:
    """Single source of truth for N, omega, lambda. `coupling` is the
    dimensionless XY coupling strength lambda."""

    n_chargers: int
    omega: float = 1.0
    coupling: float = 0.1

    def __post_init__(self):
        if self.n_chargers < 2:
            raise ValueError(f"need at least 2 chargers, got {self.n_chargers}")
        if not (self.omega > 0 and np.isfinite(self.omega)):
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        if not (self.coupling > 0 and np.isfinite(self.coupling)):
            raise ValueError(f"coupling must be positive and finite, got {self.coupling}")


def battery_hamiltonian(params: ModelParams) -> Operator:
    """Bare battery Hamiltonian (omega/2) sigma_z, eigenvalues -+ omega/2."""
    return Operator(BATTERY_LAYOUT, (params.omega / 2) * SIGMA_Z)


def pair_hamiltonian(params: ModelParams) -> Operator:
    """Battery-charger Hamiltonian on Q (x) C:

    H = (omega/2)(sigma_z^C + 1) + (omega/2) sigma_z^Q
        + (omega*lambda/2)(sigma_x^Q sigma_x^C + sigma_y^Q sigma_y^C)
    """
    om, lam = params.omega, params.coupling
    h = (om / 2) * (np.kron(IDENT_2, SIGMA_Z) + np.kron(IDENT_2, IDENT_2))
    h += (om / 2) * np.kron(SIGMA_Z, IDENT_2)
    h += (om * lam / 2) * (np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y))
    return Operator(PAIR_LAYOUT, h)


def pair_unitary(params: ModelParams, t_l: float) -> Operator:
    """Closed-form charging unitary U(t_l) = exp(-i H t_l) on Q (x) C.

    Phases exp(-3i*omega*t/2) on |ee>, exp(+i*omega*t/2) on |gg>, and a
    cos / -i*sin exchange envelope with argument omega*lambda*t on the
    single-excitation pair {|eg>, |ge>}.
    """
    if t_l < 0 or not np.isfinite(t_l):
        raise ValueError(f"evolution time must be finite and >= 0, got {t_l}")
    om, lam = params.omega, params.coupling
    c = np.cos(om * lam * t_l)
    s = np.sin(om * lam * t_l)
    u = np.zeros((4, 4), dtype=complex)
    # indices: 2*q + c with g=0, e=1
    u[0, 0] = np.exp(0.5j * om * t_l)                       # |gg><gg|
    u[3, 3] = np.exp(-1.5j * om * t_l)                      # |ee><ee|
    u[2, 2] = np.exp(-0.5j * om * t_l) * c                  # |eg><eg|
    u[1, 1] = np.exp(-0.5j * om * t_l) * c                  # |ge><ge|
    u[1, 2] = np.exp(-0.5j * om * t_l) * (-1j * s)          # |ge><eg|
    u[2, 1] = np.exp(-0.5j * om * t_l) * (-1j * s)          # |eg><ge|
    return Operator(PAIR_LAYOUT, u)

