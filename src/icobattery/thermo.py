"""Passive states, ergotropy, daemonic ergotropy, stored energy, efficiency.

Energies in EnergyReport and report_grid are in units of hbar*omega; the
stacked helpers (_ergotropies, _energies, ...) work in whatever units the
supplied Hamiltonian carries and for any finite dimension.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .model import KET_G, ModelParams, battery_hamiltonian
from .protocol import ProtocolResult, run_ico_sweep

# Built once for report_grid: the initial battery state |g><g|, and the
# eigenvectors of H = (omega/2) sigma_z in ascending order of energy: the
# identity, which eigh returns for H bit for bit at every omega > 0.
_RHO_G = np.outer(KET_G, KET_G.conj())
_H_VECS = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class EnergyReport:
    """One protocol's energy accounting at one point: E, W, P = W/E and passivity."""
    E: float                  # stored energy, hbar*omega units
    W: float                  # ergotropy, hbar*omega units
    P: float | None           # efficiency W/E, None when E is below threshold
    passive_k1: bool
    passive_dco: bool


def _passive_state(rho: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Populations of rho sorted descending onto the energy eigenvectors
    `vecs`, sorted ascending; rho may be a stack (..., d, d) of states.
    Degenerate populations keep eigensolver order; ergotropy is tie-invariant.
    One (T*d, d) product, one BLAS call rather than one per state, takes the
    same length-d dot products as the stacked one, so the bits are its bits."""
    pops = np.linalg.eigvalsh(rho)[..., None, ::-1]          # descending
    return ((vecs * pops).reshape(-1, len(vecs)) @ vecs.conj().T).reshape(rho.shape)


def _energies(rho: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Tr[rho H] of every state of a stack (T, d, d).  rho @ H is one
    (T*d, d) product, bit-equal to the stacked one as in _passive_state."""
    return (rho.reshape(-1, len(h)) @ h).reshape(rho.shape).trace(axis1=1, axis2=2).real


def _ergotropies(stacks, h: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Ergotropy (K, T) of every state of K stacks (T, d, d), given the
    eigenvectors `vecs` of h, so that one decomposition of h serves them all:
    one eigvalsh and trace over the stacks concatenated in order.  Raises
    ValueError at the first state below the floor, stack by stack."""
    rho = np.concatenate(stacks)
    w = _energies(rho - _passive_state(rho, vecs), h).reshape(len(stacks), -1)
    low = w < tol.ERGOTROPY_FLOOR
    if low.any():
        raise ValueError(f"ergotropy {w[low][0]:g} below numerical floor")
    return np.where(w < 0.0, 0.0, w)


def _weighted_sum(probs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Sum over axis 0 (the outcomes) of p * value where p > 0, after checking
    that every column of `probs` is a probability distribution."""
    bad = ((probs < -tol.TRACE_ATOL).any(axis=0)
           | (np.abs(probs.sum(axis=0) - 1.0) > tol.PROB_SUM_ATOL))
    if bad.any():
        raise ValueError(f"ensemble probabilities {probs[:, bad.argmax()]} are not a distribution")
    return sum(np.where(p > 0, p * value, 0.0) for p, value in zip(probs, values))


def efficiencies(w: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Efficiency W/E of every entry, NaN where E is below ENERGY_EPS."""
    out = np.empty_like(e)
    out.fill(np.nan)
    return np.divide(w, e, out=out, where=e >= tol.ENERGY_EPS)


def python_values(column: np.ndarray) -> list:
    """The entries of a column as Python values, None where it holds NaN: an
    undefined efficiency is NaN in arrays and None in reports and rows."""
    values = column.tolist()    # a NaN anywhere makes sum(values) NaN
    return [None if math.isnan(v) else v for v in values] if math.isnan(sum(values)) else values


def report_grid(states: dict[str, np.ndarray], omega: float) -> dict[str, np.ndarray]:
    """`report` at every row of run_ico_sweep's columns `states`, for battery
    frequency omega, as columns: E (the ICO stored energy), W_ico, P_ico,
    E_dco, W_dco, P_dco, passive_k1 and passive_dco, with NaN for an
    undefined P.  The ergotropies of rho_given_1, rho_rest
    and rho_bar, in that order, take one batched eigvalsh and trace, and the
    energies of rho_avg and rho_bar one batched trace; H's eigenvectors are
    built at import, and nothing assumes the states are diagonal.  The
    callers bound the rows (the CLI passes at most WRITE_BLOCK).  Raises
    ValueError at the first failing check of `report`, in that order."""
    h = battery_hamiltonian(omega)      # energies divided by omega are in hbar*omega

    w_given_1, w_rest, w_bar = _ergotropies(
        [states["rho_given_1"], states["rho_rest"], states["rho_bar"]], h, _H_VECS)
    e_ico, e_dco = _energies(np.concatenate([states["rho_avg"], states["rho_bar"]]) - _RHO_G,
                             h).reshape(2, -1) / omega
    w_ico = _weighted_sum(np.array([states["p1"], states["rest_weight"]]),
                          np.array([w_given_1, w_rest])) / omega
    w_dco = w_bar / omega
    return {"E": e_ico, "W_ico": w_ico, "P_ico": efficiencies(w_ico, e_ico),
            "E_dco": e_dco, "W_dco": w_dco, "P_dco": efficiencies(w_dco, e_dco),
            "passive_k1": w_given_1 / omega <= tol.PASSIVITY_ATOL,
            "passive_dco": w_dco <= tol.PASSIVITY_ATOL}


def numeric_sweep(omega: float, coupling: float, n_list, times) -> dict[str, np.ndarray]:
    """t, p1 and report_grid's columns at every row (N, t) of n_list x times,
    grouped by N in n_list order: the numeric twin of closed_form_sweep."""
    states = run_ico_sweep(omega, coupling, n_list, times)
    return {"t": states["t"], "p1": states["p1"], **report_grid(states, omega)}


def report(result: ProtocolResult, params: ModelParams) -> tuple[EnergyReport, EnergyReport]:
    """Energy accounting for the ICO ensemble and the DCO reference state;
    the one-point case of `report_grid`.

    ICO uses the two-outcome ensemble {(p1, rho_given_1), (1-p1, rho_rest)};
    both reports share the stored energy (the E_DCO = E_ICO equality)
    but it is computed independently for each here.  Each of the three
    states' ergotropy is computed once and also decides its passivity, in
    units of hbar*omega like the tolerance it is compared with.
    """
    states = {k: np.asarray(v)[None] for k, v in vars(result).items()}
    g = {k: python_values(v)[0] for k, v in report_grid(states, params.omega).items()}
    flags = {k: g[k] for k in ("passive_k1", "passive_dco")}
    return tuple(EnergyReport(E=g[e], W=g[w], P=g[p], **flags)
                 for e, w, p in (("E", "W_ico", "P_ico"), ("E_dco", "W_dco", "P_dco")))
