"""Closed-form implementation of the protocol's analytics.

Everything here is derived symbolically from the pair unitary and the switch
measurement: single-branch amplitude coefficients, the cross-ordering
interference term, branch probabilities, and closed-form stored energy /
ergotropy / efficiency for both the superposed-order and definite-order
protocols.  This module is deliberately independent of the state-vector
pipeline and serves as its oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .model import CHUNK_AMPLITUDES, ModelParams
from .thermo import efficiencies, python_values


@dataclass(frozen=True)
class ClosedFormReport:
    t: float
    C1: float                 # interference term for the uniform-superposition outcome
    p1: float
    E: float                  # stored energy, hbar*omega units (same for both protocols)
    W_ico: float
    W_dco: float
    P_ico: float | None
    P_dco: float | None
    passive_k1: bool
    passive_dco: bool


def alpha_coeffs(params: ModelParams, t: float) -> np.ndarray:
    """Coefficients (alpha_0 .. alpha_N) of the evolved battery-charger state
    for the reference charging order (1, 2, ..., N), in the single-excitation
    basis {|g,h0>, |e,h_1>, ..., |e,h_N>}:

    alpha_0 = (e^{-i w t / 2N} cos(w l t / N))^N
    alpha_j = (e^{-3i w t / 2N})^{N-j} e^{-i w t / 2N} (-i sin(w l t / N))
              (e^{-i w t / 2N} cos(w l t / N))^{j-1}
    """
    n = params.n_chargers
    phases = _phases(params.omega, params.coupling, n, np.array([t], dtype=float))
    return _alpha_block(*phases, np.arange(n))[0]


def _phases(omega: float, coupling: float, n, times: np.ndarray):
    """e^{-i w t / 2N} cos(w l t / N), -i sin(w l t / N), e^{-i w t / 2N} and
    e^{-3i w t / 2N} at every time; n is one N or an array with one N per time."""
    ph = np.exp(-0.5j * omega * times / n)
    return (ph * np.cos(omega * coupling * times / n), -1j * np.sin(omega * coupling * times / n),
            ph, np.exp(-1.5j * omega * times / n))


def _alpha_block(phc: np.ndarray, msin: np.ndarray, ph: np.ndarray, ph3: np.ndarray,
                 powers: np.ndarray) -> np.ndarray:
    """The (T, N+1) coefficients of one N from its rows' phases, with
    phc = e^{-i w t / 2N} cos(w l t / N), msin = -i sin(w l t / N) and
    powers = 0, 1, ..., N-1 (j - 1 for j = 1..N)."""
    n = len(powers)
    alpha = np.empty((len(phc), n + 1), dtype=complex)
    alpha[:, 0] = phc ** n        # a scalar power: numpy squares N = 2 on its own path
    rest = alpha[:, 1:]
    np.power(ph3[:, None], powers[::-1], out=rest)
    rest *= ph[:, None]
    rest *= msin[:, None]
    rest *= phc[:, None] ** powers
    return alpha


def interference_term(params: ModelParams, t: float) -> float:
    """Cross-ordering coherence contribution to the uniform-outcome excited
    population:

        C = (2/N) sum_{u=1}^{N-1} (N-u) Re[ sum_{v=1}^{N} alpha_v alpha*_{v(+)u} ]

    where v(+)u is 1-based cyclic index addition: ((v - 1 + u) mod N) + 1.
    For v < N and v + u <= N this is plain v + u; the wrap covers v = N and
    any overflow past N.

    The inner sum r_u has Re r_u = Re r_{N-u}, so pairing u with N - u makes
    every weight N/2 and C = sum_{u=1}^{N-1} Re r_u.  Over all shifts,
    u = 0 included, the r_u sum to |sum_v alpha_v|^2, and r_0 is
    sum_v |alpha_v|^2; so C = |sum_v alpha_v|^2 - sum_v |alpha_v|^2, which
    is how `closed_form_sweep` evaluates it.
    """
    return closed_form_report(params, t).C1


def closed_form_report(params: ModelParams, t: float) -> ClosedFormReport:
    """Full closed-form energy accounting at one time point.

    Passivity of the conditional (k = 1) state is decided on unnormalized
    populations, |alpha_0|^2 >= (C + sum |alpha_u|^2)/N, which avoids
    dividing by a possibly small branch probability.
    """
    return ClosedFormReport(**{k: python_values(v)[0]
                               for k, v in closed_form_grid(params, [t]).items()})


def closed_form_grid(params: ModelParams, times) -> dict[str, np.ndarray]:
    """`closed_form_report` at every time of `times`, in order, as columns:
    one array per field of ClosedFormReport, with NaN for an undefined P.
    The one-N case of `closed_form_sweep`."""
    return closed_form_sweep(params.omega, params.coupling, [params.n_chargers], times)


def closed_form_sweep(omega: float, coupling: float, n_list, times) -> dict[str, np.ndarray]:
    """The columns of `closed_form_grid` for every row (N, t) of n_list x
    times, grouped by N in n_list order.

    The phases, the flags, W and P are evaluated once over all rows.  Per N
    remain its (T, N+1) coefficients, built in chunks of at most
    CHUNK_AMPLITUDES, their normalization check and their two row sums.
    Raises ValueError, naming the time, if the coefficients at some row are
    not normalized.
    """
    times = np.asarray(times, dtype=float)
    n_row, t = np.repeat(n_list, len(times)), np.tile(times, len(n_list))
    phc, msin, ph, ph3 = _phases(omega, coupling, n_row, t)
    powers = np.arange(max(n_list))
    gnd, s2, norm = (np.empty(len(t)) for _ in range(3))
    alpha_sum = np.empty(len(t), dtype=complex)
    for k, n in enumerate(n_list):
        end, chunk = (k + 1) * len(times), max(1, CHUNK_AMPLITUDES // (n + 1))
        for lo in range(k * len(times), end, chunk):
            part = slice(lo, min(lo + chunk, end))
            alpha = _alpha_block(phc[part], msin[part], ph[part], ph3[part], powers[:n])
            pops = np.abs(alpha) ** 2
            np.add.reduce(pops, axis=1, out=norm[part])
            np.add.reduce(pops[:, 1:], axis=1, out=s2[part])
            np.add.reduce(alpha[:, 1:], axis=1, out=alpha_sum[part])
            gnd[part] = pops[:, 0]
    bad = np.flatnonzero(~(np.abs(norm - 1.0) <= tol.NORM_ATOL))   # NaN too
    if bad.size:
        raise ValueError(f"coefficient normalization {norm[bad[0]]} deviates from 1 "
                         f"at t={float(t[bad[0]])!r}")
    c_term = np.abs(alpha_sum) ** 2 - s2     # see interference_term
    exc = (c_term + s2) / n_row

    e = 1.0 - gnd            # = 1 - cos(w l t / N)^(2N)
    passive_k1 = gnd >= exc
    w_ico = np.where(passive_k1, ((n_row - 1) / n_row) * s2 - c_term / n_row, 1.0 - 2.0 * gnd)
    passive_dco = gnd >= 0.5
    w_dco = np.where(passive_dco, 0.0, 1.0 - 2.0 * gnd)
    return {"t": t, "C1": c_term, "p1": gnd + exc, "E": e, "W_ico": w_ico, "W_dco": w_dco,
            "P_ico": efficiencies(w_ico, e), "P_dco": efficiencies(w_dco, e),
            "passive_k1": passive_k1, "passive_dco": passive_dco}


def dco_zero_window(params: ModelParams) -> float:
    """Smallest t > 0 at which the definite-order state stops being passive:
    cos(w l t / N)^(2N) = 1/2, i.e. t* = (N / (w l)) arccos(2^(-1/2N)).
    The definite-order efficiency is exactly zero on (0, t*)."""
    n, om, lam = params.n_chargers, params.omega, params.coupling
    return n / (om * lam) * float(np.arccos(2.0 ** (-1.0 / (2 * n))))
