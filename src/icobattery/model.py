"""Physical model: the battery Hamiltonian and the two-body charging unitary.

Basis convention: |g> = index 0, |e> = index 1 on every two-level system, so
sigma_z = |e><e| - |g><g| is diag(-1, +1) in index order.
hbar = 1 everywhere; energies are reported in units of hbar*omega.
Matrices are plain complex arrays: sigma_z and the battery Hamiltonian, 2 x 2.  The
charging unitary on Q (x) C is held as the entries the numeric engine reads (_pair_entries).
"""
from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .tolerances import ENERGY_EPS

# Amplitudes held at once per chunk of a time grid (16 MB of complex128); a chunk is at
# least one point, of N(N+1) amplitudes in `protocol`, N+1 in `analytic`, 100 in
# circuit.ico_probabilities (_POINT_AMPLITUDES) and 4 * BOOTSTRAP_RESAMPLES in cli.BOOTSTRAP_CHUNK.
CHUNK_AMPLITUDES = 1 << 20

SIGMA_Z = np.diag([-1.0, 1.0]).astype(complex)


def check_model(omega, coupling, n_list=(), times=()) -> None:
    """Raise ValueError naming the first value the model rejects: omega, lambda or
    omega*lambda below its floor, an N not an integer >= 2, or the least or greatest
    time t if it is negative or not finite or if 2 omega t or omega lambda t overflows."""
    # Normal floats: a subnormal omega rounds the levels -+omega/2 to fewer bits or to 0, and
    # omega*lambda = 0 leaves t* undefined.  omega >= 2 sys.float_info.min / ENERGY_EPS (4.45e-299)
    # keeps the numeric engine's terms (rho_ii - r) omega/2 of E and W normal wherever
    # |rho_ii - r| >= ENERGY_EPS (r is |g><g|'s population for E, the passive state's for W).
    # Ints compare exactly; omega*lambda is formed once both are in the float range.
    for name, value, low in (("omega", omega, 2 * sys.float_info.min / ENERGY_EPS),
                             ("coupling", coupling, sys.float_info.min),
                             ("omega*lambda", None, sys.float_info.min)):
        value = omega * coupling if value is None else value
        if not (low <= value <= sys.float_info.max):
            raise ValueError(f"{name} must be a finite number >= {low!r}, got {value!r}")
    for n in n_list:
        if not (isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 2):
            raise ValueError(f"every N must be an integer >= 2, got {n!r}")
    try:
        t = np.asarray(times, dtype=float)
    except OverflowError:       # an int beyond the float range
        t = np.array([max(times, key=abs)], dtype=object)
    for value in t[[t.argmin(), t.argmax()]].tolist() if t.size else ():   # a NaN is both
        if not 0 <= value <= sys.float_info.max:
            raise ValueError(f"evolution time must be finite and >= 0, got {value!r}")
        # both phases grow with t; a Python float's overflow does not warn
        if not max(2 * float(omega), float(omega * coupling)) * value <= sys.float_info.max:
            raise ValueError(f"phases 2*omega*t and omega*lambda*t overflow at t={value!r}")


@dataclass(frozen=True)
class ModelParams:
    """N, omega and lambda (`coupling`, the dimensionless XY coupling) of one model point."""

    n_chargers: int
    omega: float = 1.0
    coupling: float = 0.1

    def __post_init__(self):
        check_model(self.omega, self.coupling, [self.n_chargers])


def battery_hamiltonian(omega: float) -> np.ndarray:
    """Bare battery Hamiltonian (omega/2) sigma_z, eigenvalues -+ omega/2."""
    return (omega / 2) * SIGMA_Z


def _pair_entries(omega: float, coupling: float, t_l) -> tuple:
    """The entries of the charging unitary U(t_l) = exp(-i H t_l) on Q (x) C
    that the numeric engine reads, each of shape np.shape(t_l), for the
    battery-charger Hamiltonian

        H = (omega/2)(sigma_z^C + 1) + (omega/2) sigma_z^Q
            + (omega*lambda/2)(sigma_x^Q sigma_x^C + sigma_y^Q sigma_y^C):

    the |ee> phase exp(-3i*omega*t/2), then the diagonal and the off-diagonal
    entry of the single-excitation block {|eg>, |ge>}, a cos / -i*sin
    envelope of argument omega*lambda*t under the phase exp(-i*omega*t/2).
    The |gg> phase never meets the engine's sector."""
    envelope, half = omega * coupling * t_l, np.exp(-0.5j * omega * t_l)
    return np.exp(-1.5j * omega * t_l), half * np.cos(envelope), half * (-1j * np.sin(envelope))


def _rows(n_list, times) -> tuple[np.ndarray, np.ndarray]:
    """The charger count and the time (as float) of every row (N, t) of
    n_list x times, grouped by N in n_list order, laid out by broadcasting
    into two arrays of len(n_list) * len(times) entries."""
    n = np.asarray(n_list)[:, None]
    n_row, t = np.empty((len(n), len(times)), dtype=n.dtype), np.empty((len(n), len(times)))
    n_row[...], t[...] = n, times
    return n_row.ravel(), t.ravel()

