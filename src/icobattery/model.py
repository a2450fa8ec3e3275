"""Physical model: the battery Hamiltonian and the two-body charging unitary.

Basis convention: |g> = index 0, |e> = index 1 on every two-level system, so
sigma_z = |e><e| - |g><g| is diag(-1, +1) in index order.
hbar = 1 everywhere; energies are reported in units of hbar*omega.
Matrices are plain complex arrays; two-qubit ones act on Q (x) C, index 2q + c.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        for name, value in (("omega", self.omega), ("coupling", self.coupling)):
            if not (value > 0 and np.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")


def battery_hamiltonian(omega: float) -> np.ndarray:
    """Bare battery Hamiltonian (omega/2) sigma_z, eigenvalues -+ omega/2."""
    return (omega / 2) * SIGMA_Z


def pair_unitary(params: ModelParams, t_l) -> np.ndarray:
    """Closed-form charging unitary U(t_l) = exp(-i H t_l) on Q (x) C, for the
    battery-charger Hamiltonian

        H = (omega/2)(sigma_z^C + 1) + (omega/2) sigma_z^Q
            + (omega*lambda/2)(sigma_x^Q sigma_x^C + sigma_y^Q sigma_y^C).

    Phases exp(-3i*omega*t/2) on |ee>, exp(+i*omega*t/2) on |gg>, and a
    cos / -i*sin exchange envelope with argument omega*lambda*t on the
    single-excitation pair {|eg>, |ge>}.  For an array of times, one matrix
    per time along trailing axes: shape (4, 4) + np.shape(t_l).
    """
    gg, ee, diag, off = _pair_entries(params, t_l)
    u = np.zeros((4, 4) + np.shape(gg), dtype=complex)
    # indices: 2*q + c with g=0, e=1
    u[0, 0], u[3, 3] = gg, ee                               # |gg><gg|, |ee><ee|
    u[1, 1] = u[2, 2] = diag                                # |ge><ge|, |eg><eg|
    u[1, 2] = u[2, 1] = off                                 # |ge><eg|, |eg><ge|
    return u


def _pair_entries(params: ModelParams, t_l) -> tuple:
    """The distinct entries of pair_unitary(params, t_l), each of shape
    np.shape(t_l): the |gg> and |ee> phases, then the diagonal and the
    off-diagonal entry of the single-excitation block."""
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

