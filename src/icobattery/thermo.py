"""Passive states, ergotropy, daemonic ergotropy, stored energy, efficiency.

Energies in EnergyReport are expressed in units of hbar*omega; the raw
operator-level functions (ergotropy, stored_energy, ...) work in whatever
units the supplied Hamiltonian carries and for any finite dimension.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .model import KET_G, ModelParams, battery_hamiltonian
from .protocol import ProtocolGrid, ProtocolResult


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
    """`passive_state` given the energy eigenvectors `vecs`, ascending; rho
    may be a stack (..., d, d) of states."""
    pops = np.linalg.eigvalsh(rho)[..., None, ::-1]          # descending
    return (vecs * pops) @ vecs.conj().T


def ergotropy(rho: np.ndarray, h: np.ndarray) -> float:
    """Tr[rho H] - Tr[phi H] with phi the passive state; clamped to >= 0."""
    rho, h = _as_pair(rho, h)
    return float(_ergotropies(rho[None], h, np.linalg.eigh(h)[1])[0])


def _energies(rho: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Tr[rho H] of every state of a stack (T, d, d)."""
    return np.trace(rho @ h, axis1=1, axis2=2).real


def _ergotropies(rho: np.ndarray, h: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Ergotropy of every state of a stack (T, d, d), given the eigenvectors
    `vecs` of h, so that one decomposition of h serves the whole stack."""
    w = _energies(rho - _passive_state(rho, vecs), h)
    low = np.flatnonzero(w < tol.ERGOTROPY_FLOOR)
    if low.size:
        raise ValueError(f"ergotropy {w[low[0]]:g} below numerical floor")
    return np.where(w < 0.0, 0.0, w)


def _weighted_sum(probs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Sum over axis 0 (the outcomes) of p * value where p > 0, after checking
    that every column of `probs` is a probability distribution."""
    bad = np.flatnonzero(np.any(probs < -tol.TRACE_ATOL, axis=0)
                         | (np.abs(probs.sum(axis=0) - 1.0) > tol.PROB_SUM_ATOL))
    if bad.size:
        raise ValueError(f"ensemble probabilities {probs[:, bad[0]]} are not a distribution")
    return sum(np.where(p > 0, p * value, 0.0) for p, value in zip(probs, values))


def daemonic_ergotropy(ensemble, h: np.ndarray) -> float:
    """Probability-weighted ergotropy of a conditional ensemble."""
    probs, values = np.array([(p, ergotropy(rho, h)) for p, rho in ensemble], dtype=float).T
    return float(_weighted_sum(probs[:, None], values[:, None])[0])


def stored_energy(rho_avg: np.ndarray, rho0: np.ndarray, h: np.ndarray) -> float:
    """Tr[rho_avg H] - Tr[rho0 H]."""
    rho_avg, h = _as_pair(rho_avg, h)
    return float(_energies((rho_avg - np.asarray(rho0, dtype=complex))[None], h)[0])


def efficiencies(w: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Efficiency W/E of every entry, NaN where E is below ENERGY_EPS."""
    return np.divide(w, e, out=np.full_like(e, np.nan), where=e >= tol.ENERGY_EPS)


def python_values(column: np.ndarray) -> list:
    """The entries of a column as Python values, None where it holds NaN: an
    undefined efficiency is NaN in arrays and None in reports and rows."""
    values = column.tolist()    # a NaN anywhere makes sum(values) NaN
    return [None if math.isnan(v) else v for v in values] if math.isnan(sum(values)) else values


def report_grid(states: ProtocolGrid, params: ModelParams) -> dict[str, np.ndarray]:
    """`report` at every point of `states`, as columns: E (the ICO stored
    energy), W_ico, P_ico, E_dco, W_dco, P_dco, passive_k1 and passive_dco,
    with NaN for an undefined P.  Each stack of states takes one batched
    eigvalsh and one batched trace, and H is decomposed once; nothing
    assumes the states are diagonal.  Raises ValueError at the first point,
    in grid order, that fails a check of `report`."""
    h = battery_hamiltonian(params)
    vecs = np.linalg.eigh(h)[1]
    rho0 = np.outer(KET_G, KET_G.conj())
    unit = params.omega  # hbar*omega with hbar = 1

    w_given_1, w_rest, w_bar = (_ergotropies(rho, h, vecs) for rho in
                                (states.rho_given_1, states.rho_rest, states.rho_bar))
    e_ico = _energies(states.rho_avg - rho0, h) / unit
    w_ico = _weighted_sum(np.stack([states.p1, states.rest_weight]),
                          np.stack([w_given_1, w_rest])) / unit
    e_dco = _energies(states.rho_bar - rho0, h) / unit
    w_dco = w_bar / unit
    return {"E": e_ico, "W_ico": w_ico, "P_ico": efficiencies(w_ico, e_ico),
            "E_dco": e_dco, "W_dco": w_dco, "P_dco": efficiencies(w_dco, e_dco),
            "passive_k1": w_given_1 / unit <= tol.PASSIVITY_ATOL,
            "passive_dco": w_dco <= tol.PASSIVITY_ATOL}


def report(result: ProtocolResult, params: ModelParams) -> tuple[EnergyReport, EnergyReport]:
    """Energy accounting for the ICO ensemble and the DCO reference state;
    the one-point case of `report_grid`.

    ICO uses the two-outcome ensemble {(p1, rho_given_1), (1-p1, rho_rest)};
    both reports share the stored energy (the E_DCO = E_ICO equality)
    but it is computed independently for each here.  Each of the three
    states' ergotropy is computed once and also decides its passivity, in
    units of hbar*omega like the tolerance it is compared with.
    """
    states = ProtocolGrid(**{k: np.asarray(v)[None] for k, v in vars(result).items()})
    g = {k: python_values(v)[0] for k, v in report_grid(states, params).items()}
    flags = {k: g[k] for k in ("passive_k1", "passive_dco")}
    return tuple(EnergyReport(E=g[e], W=g[w], P=g[p], **flags)
                 for e, w, p in (("E", "W_ico", "P_ico"), ("E_dco", "W_dco", "P_dco")))
