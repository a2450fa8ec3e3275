"""Ergotropy, daemonic ergotropy, stored energy and efficiency of the battery qubit.

H = (omega/2) sigma_z is diagonal with ascending levels E_g < E_e, and every battery
state of the protocol is diagonal in its eigenbasis, so a state is its populations
(p_g, p_e): its energy is p_g E_g + p_e E_e, and its passive state puts the larger
population on |g> (Allahverdyan, Balian, Nieuwenhuizen, EPL 67, 565, 2004).  The
ergotropy is (p - sort(p) descending) . (E_g, E_e): the populations of a diagonal
state are its eigenvalues (tests/ compare it with eigvalsh bit for bit).
Energies are in units of hbar*omega, those of the stacked helpers in the levels' unit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .model import ModelParams
from .protocol import ProtocolResult, run_ico_sweep


@dataclass(frozen=True)
class EnergyReport:
    """One protocol's energy accounting at one point: E, W, P = W/E and passivity."""
    E: float                  # stored energy, hbar*omega units
    W: float                  # ergotropy, hbar*omega units
    P: float | None           # efficiency W/E, None when E is below threshold
    passive_k1: bool
    passive_dco: bool


def _energies(pops: np.ndarray, levels) -> np.ndarray:
    """pops_g E_g + pops_e E_e for every row (pops_g, pops_e) of pops (..., 2)."""
    return pops[..., 0] * levels[0] + pops[..., 1] * levels[1]


def _ergotropies(stacks, levels) -> np.ndarray:
    """Ergotropy (K, T) of every state of K population stacks (T, 2) on the
    ascending levels (E_g, E_e): each state less its passive state, its
    populations sorted in descending order.  Raises ValueError at the first
    state below the floor, stack by stack."""
    pops = np.array(stacks)
    w = _energies(pops - np.sort(pops)[..., ::-1], levels)
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
    undefined P.  The ergotropies are those of pops_given_1, pops_rest and
    pops_bar, in that order, and the stored energies those of the outcome
    mixture's and pops_bar's populations less |g><g|'s.  The callers bound
    the rows (the CLI passes at most WRITE_BLOCK).  Raises ValueError at the
    first failing check of `report`, in that order."""
    levels = np.array([-omega / 2, omega / 2])   # (E_g, E_e); divided by omega: hbar*omega units
    p1, rest_weight = states["p1"], states["rest_weight"]
    given_1, rest, bar = states["pops_given_1"], states["pops_rest"], states["pops_bar"]
    w_given_1, w_rest, w_bar = _ergotropies([given_1, rest, bar], levels)
    mixture = p1[:, None] * given_1 + rest_weight[:, None] * rest
    e_ico, e_dco = _energies(np.array([mixture, bar]) - (1.0, 0.0), levels) / omega
    w_ico = _weighted_sum(np.array([p1, rest_weight]), np.array([w_given_1, w_rest])) / omega
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

    ICO uses the two-outcome ensemble {(p1, pops_given_1), (1-p1, pops_rest)};
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
