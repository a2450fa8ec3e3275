"""Physical model: the battery Hamiltonian and the two-body charging unitary.

Basis convention: |g> = index 0, |e> = index 1 on every two-level system, so
sigma_z = |e><e| - |g><g| is diag(-1, +1) in index order.
hbar = 1 everywhere; energies are reported in units of hbar*omega.
Matrices are plain complex arrays; two-qubit ones act on Q (x) C, index 2q + c.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .tolerances import ENERGY_EPS

# Amplitudes held at once per chunk of a time grid (16 MB of complex128), in
# both engines.  One grid point holds N(N+1) of them in `protocol` and N+1 in
# `analytic`; a chunk is at least one point.
CHUNK_AMPLITUDES = 1 << 20

KET_G = np.array([1.0, 0.0], dtype=complex)
KET_E = np.array([0.0, 1.0], dtype=complex)

SIGMA_Z = np.diag([-1.0, 1.0]).astype(complex)


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
        # Normal floats: a subnormal omega rounds (omega/2) sigma_z to fewer bits or to 0, and
        # omega*lambda = 0 leaves t* = sqrt(N ln 2)/(omega*lambda) undefined.  The numeric engine
        # reads E as Tr[rho H]/omega, whose terms E*omega/2 stay normal floats, at full precision,
        # wherever E >= ENERGY_EPS if omega >= 2 sys.float_info.min / ENERGY_EPS (4.45e-299).
        normal = sys.float_info.min
        for name, value, low in (("omega", self.omega, 2 * normal / ENERGY_EPS),
                                 ("coupling", self.coupling, normal),
                                 ("omega*lambda", self.omega * self.coupling, normal)):
            if not (low <= value < math.inf):
                raise ValueError(f"{name} must be a finite number >= {low!r}, got {value!r}")


def battery_hamiltonian(omega: float) -> np.ndarray:
    """Bare battery Hamiltonian (omega/2) sigma_z, eigenvalues -+ omega/2."""
    return (omega / 2) * SIGMA_Z


def _pair_entries(params: ModelParams, t_l) -> tuple:
    """The distinct entries of the charging unitary U(t_l) = exp(-i H t_l) on
    Q (x) C, each of shape np.shape(t_l), for the battery-charger Hamiltonian

        H = (omega/2)(sigma_z^C + 1) + (omega/2) sigma_z^Q
            + (omega*lambda/2)(sigma_x^Q sigma_x^C + sigma_y^Q sigma_y^C):

    the |gg> phase exp(+i*omega*t/2) and the |ee> phase exp(-3i*omega*t/2),
    then the diagonal and the off-diagonal entry of the single-excitation
    block {|eg>, |ge>}, a cos / -i*sin envelope of argument omega*lambda*t
    under the phase exp(-i*omega*t/2)."""
    t_l = np.asarray(t_l, dtype=float)
    if (t_l < 0).any() or not np.isfinite(t_l).all():
        raise ValueError(f"evolution time must be finite and >= 0, got {t_l}")
    om, lam = params.omega, params.coupling
    envelope, half = om * lam * t_l, np.exp(-0.5j * om * t_l)
    return (np.exp(0.5j * om * t_l), np.exp(-1.5j * om * t_l),
            half * np.cos(envelope), half * (-1j * np.sin(envelope)))


def _rows(n_list, times) -> tuple[np.ndarray, np.ndarray]:
    """The charger count and the time (as float) of every row (N, t) of
    n_list x times, grouped by N in n_list order, laid out by broadcasting
    into two arrays of len(n_list) * len(times) entries."""
    n = np.asarray(n_list)[:, None]
    n_row, t = np.empty((len(n), len(times)), dtype=n.dtype), np.empty((len(n), len(times)))
    n_row[...], t[...] = n, times
    return n_row.ravel(), t.ravel()

