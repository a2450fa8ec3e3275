"""Passive states, ergotropy, daemonic ergotropy, stored energy, efficiency.

Energies in EnergyReport are expressed in units of hbar*omega; the raw
operator-level functions (ergotropy, stored_energy, ...) work in whatever
units the supplied Hamiltonian carries and for any finite dimension.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .model import KET_G, ModelParams, battery_hamiltonian
from .protocol import ProtocolResult


@dataclass(frozen=True)
class EnergyReport:
    E: float                  # stored energy, hbar*omega units
    W: float                  # ergotropy, hbar*omega units
    P: float | None           # efficiency W/E, None when E is below threshold
    passive_k1: bool
    passive_dco: bool


def _as_pair(rho: np.ndarray, h: np.ndarray):
    rho = np.asarray(rho, dtype=complex)
    h = np.asarray(h, dtype=complex)
    if rho.shape != h.shape or rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"dimension mismatch: state {rho.shape}, Hamiltonian {h.shape}")
    return rho, h


def passive_state(rho: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Populations of rho sorted descending onto energy eigenstates sorted ascending.

    Degenerate populations keep eigensolver order; ergotropy is tie-invariant.
    """
    rho, h = _as_pair(rho, h)
    return _passive_state(rho, np.linalg.eigh(h)[1])


def _passive_state(rho: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """`passive_state` given the energy eigenvectors `vecs`, ascending."""
    pops = np.linalg.eigvalsh(rho)[::-1]          # descending
    return (vecs * pops) @ vecs.conj().T


def ergotropy(rho: np.ndarray, h: np.ndarray) -> float:
    """Tr[rho H] - Tr[phi H] with phi the passive state; clamped to >= 0."""
    rho, h = _as_pair(rho, h)
    return _ergotropy(rho, h, np.linalg.eigh(h)[1])


def _ergotropy(rho: np.ndarray, h: np.ndarray, vecs: np.ndarray) -> float:
    """`ergotropy` given the eigenvectors `vecs` of h, so that one
    decomposition of h serves many states."""
    w = float(np.trace((rho - _passive_state(rho, vecs)) @ h).real)
    if w < tol.ERGOTROPY_FLOOR:
        raise ValueError(f"ergotropy {w:g} below numerical floor")
    return max(w, 0.0)


def _weighted_sum(weighted) -> float:
    """Sum of p * value over (p, value) pairs with p > 0, after checking that
    the p form a probability distribution."""
    probs = np.array([p for p, _ in weighted], dtype=float)
    if np.any(probs < -tol.TRACE_ATOL) or abs(probs.sum() - 1.0) > 1e-10:
        raise ValueError(f"ensemble probabilities {probs} are not a distribution")
    return float(sum(p * value for p, value in weighted if p > 0))


def daemonic_ergotropy(ensemble, h: np.ndarray) -> float:
    """Probability-weighted ergotropy of a conditional ensemble."""
    return _weighted_sum([(p, ergotropy(rho, h)) for p, rho in ensemble])


def stored_energy(rho_avg: np.ndarray, rho0: np.ndarray, h: np.ndarray) -> float:
    """Tr[rho_avg H] - Tr[rho0 H]."""
    rho_avg, h = _as_pair(rho_avg, h)
    return float(np.trace((rho_avg - np.asarray(rho0, dtype=complex)) @ h).real)


def efficiency(w: float, e: float) -> float | None:
    return w / e if e >= tol.ENERGY_EPS else None


def report(result: ProtocolResult, params: ModelParams) -> tuple[EnergyReport, EnergyReport]:
    """Energy accounting for the ICO ensemble and the DCO reference state.

    ICO uses the two-outcome ensemble {(p1, rho_given_1), (1-p1, rho_rest)};
    both reports share the stored energy (the E_DCO = E_ICO equality)
    but it is computed independently for each here.  Each of the three
    states' ergotropy is computed once and also decides its passivity, in
    units of hbar*omega like the tolerance it is compared with.
    """
    h = battery_hamiltonian(params)
    vecs = np.linalg.eigh(h)[1]
    rho0 = np.outer(KET_G, KET_G.conj())
    unit = params.omega  # hbar*omega with hbar = 1

    w_given_1, w_rest, w_bar = (_ergotropy(rho, h, vecs) for rho in
                                (result.rho_given_1, result.rho_rest, result.rho_bar))
    e_ico = stored_energy(result.rho_avg, rho0, h) / unit
    w_ico = _weighted_sum([(result.p1, w_given_1), (result.rest_weight, w_rest)]) / unit
    e_dco = stored_energy(result.rho_bar, rho0, h) / unit
    w_dco = w_bar / unit

    passive_k1 = w_given_1 / unit <= tol.PASSIVITY_ATOL
    passive_dco = w_dco <= tol.PASSIVITY_ATOL

    ico = EnergyReport(E=e_ico, W=w_ico, P=efficiency(w_ico, e_ico),
                       passive_k1=passive_k1, passive_dco=passive_dco)
    dco = EnergyReport(E=e_dco, W=w_dco, P=efficiency(w_dco, e_dco),
                       passive_k1=passive_k1, passive_dco=passive_dco)
    return ico, dco
