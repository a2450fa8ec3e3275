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
from .model import CHUNK_AMPLITUDES, ModelParams, _rows, check_model
from .thermo import efficiencies, python_values


@dataclass(frozen=True)
class ClosedFormReport:
    """The closed-form energy accounting of both protocols at one point (N, t)."""
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


def _log_cos(y: np.ndarray):
    """log|cos y| and whether cos y < 0, at every y.  Where |cos y| > 1/2 the
    log is 0.5 log1p(-sin^2 y), which keeps its relative accuracy as cos y
    nears +-1: there the log of the rounded cos y is off by about 1e-16, and
    a power |cos y|^k = exp(k log|cos y|) by k times that."""
    c, s2 = np.cos(y), np.sin(y) ** 2
    near = np.abs(c) > 0.5
    return np.where(near, 0.5 * np.log1p(-np.where(near, s2, 0.0)), np.log(np.abs(c))), c < 0


def _alpha_block(x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """Coefficients (alpha_0 .. alpha_N) of the evolved battery-charger state
    for the reference charging order (1, 2, ..., N), in the single-excitation
    basis {|g,h0>, |e,h_1>, ..., |e,h_N>}, as (T, N+1) for one N at the rows'
    x = w t / N and y = w l t / N:

        alpha_0 = (e^{-ix/2} cos y)^N = e^{-iNx/2} cos^N y,
        alpha_j = (e^{-3ix/2})^{N-j} e^{-ix/2} (-i sin y) (e^{-ix/2} cos y)^{j-1}
                = -i sin y cos^{j-1} y e^{-i(3N/2 - j) x},

    formed in their right-hand forms: each power of cos y is one exp (see
    _log_cos) and each phase one complex exp of a real angle, so no power is
    formed by repeated multiplication."""
    log_c, neg = _log_cos(y)
    power = np.concatenate([[n], np.arange(n)])                  # of cos y
    turns = np.concatenate([[0.5 * n], 1.5 * n - np.arange(1, n + 1)])   # of e^{-ix}
    alpha = np.exp(-1j * np.multiply.outer(x, turns))
    alpha *= np.where(neg[:, None] & (power % 2 == 1), -1.0, 1.0)
    alpha *= np.exp(np.multiply.outer(log_c, power))
    alpha[:, 1:] *= (-1j * np.sin(y))[:, None]
    return alpha


def closed_form_report(params: ModelParams, t: float) -> ClosedFormReport:
    """Full closed-form energy accounting at one time point.

    Passivity of the conditional (k = 1) state is decided on unnormalized
    populations, |alpha_0|^2 >= (C + sum |alpha_u|^2)/N, which avoids
    dividing by a possibly small branch probability.
    """
    cols = closed_form_sweep(params.omega, params.coupling, [params.n_chargers], [t])
    return ClosedFormReport(**{k: python_values(v)[0] for k, v in cols.items()})


def closed_form_sweep(omega: float, coupling: float, n_list, times) -> dict[str, np.ndarray]:
    """`closed_form_report` at every row (N, t) of n_list x times, grouped by
    N in n_list order, as columns: one array per field of ClosedFormReport,
    with NaN for an undefined P.

    The interference term of the uniform outcome, column C1, is

        C = (2/N) sum_{u=1}^{N-1} (N-u) Re[ sum_{v=1}^{N} alpha_v alpha*_{v(+)u} ],

    with v(+)u = ((v - 1 + u) mod N) + 1.  Its inner sum r_u has
    Re r_u = Re r_{N-u}, so pairing u with N - u makes every weight N/2 and
    C = sum_{u=1}^{N-1} Re r_u.  Over all shifts, u = 0 included, the r_u sum
    to |sum_v alpha_v|^2, and r_0 is sum_v |alpha_v|^2; so
    C = |sum_v alpha_v|^2 - sum_v |alpha_v|^2.

    Every column is evaluated once over all rows, each row in O(1) (see
    _row_sums).  Raises ValueError where check_model does, or, naming the
    time, where _row_sums finds a row's coefficients not normalized.
    """
    check_model(omega, coupling, n_list, times)
    n_row, t = _rows(n_list, times)
    gnd, e, sum_sq = _row_sums(omega, coupling, n_row, t)   # E = sum_{j>=1} |alpha_j|^2
    c_term = sum_sq - e
    exc = (c_term + e) / n_row

    passive_k1 = gnd >= exc
    w_ico = np.where(passive_k1, ((n_row - 1) / n_row) * e - c_term / n_row, 1.0 - 2.0 * gnd)
    passive_dco = gnd >= 0.5
    w_dco = np.where(passive_dco, 0.0, 1.0 - 2.0 * gnd)
    return {"t": t, "C1": c_term, "p1": gnd + exc, "E": e, "W_ico": w_ico, "W_dco": w_dco,
            "P_ico": efficiencies(w_ico, e), "P_dco": efficiencies(w_dco, e),
            "passive_k1": passive_k1, "passive_dco": passive_dco}


# Smallest |d| (see _row_sums) at which a row's sums take their closed form.
_MIN_GAP = 1e-3


def _row_sums(omega: float, coupling: float, n: np.ndarray, t: np.ndarray):
    """|alpha_0|^2, sum_{j>=1} |alpha_j|^2 and |sum_{j>=1} alpha_j|^2 at
    every row (n[i], t[i]), in O(1) per row.

    With x = w t / N, y = w l t / N, r = e^{-3ix/2} and q = e^{-ix/2} cos y,
    alpha_j = r^{N-j} e^{-ix/2} (-i sin y) q^{j-1} (see _alpha_block), so
    the two sums are geometric series:

        sum_{j>=1} |alpha_j|^2 = 1 - |alpha_0|^2 = 1 - cos^{2N} y,
        |sum_{j>=1} alpha_j|^2 = sin^2 y |e^{-iNx} - cos^N y|^2 / |d|^2,

    with d = e^{-ix} - cos y = e^{ix/2} (r - q) and Nx formed from the same
    rounded x.  _dist2 takes both squared distances as sums of two
    non-negative terms and powers of cos y are formed as in _alpha_block, so
    nothing cancels.  On these rows the coefficients are normalized by
    construction.  Where sin y = 0 (t = 0 among them) every alpha_j, j >= 1,
    is exactly 0.  The other rows where |d| < _MIN_GAP, or is NaN, sum their
    coefficients from _alpha_block, one N at a time in chunks of at most
    CHUNK_AMPLITUDES; only these are checked, and ValueError names the time
    of the first one whose coefficients are not normalized.
    """
    x, y = omega * t / n, omega * coupling * t / n
    log_c, neg = _log_cos(y)
    sin_y = np.sin(y)
    gnd, s2 = np.exp(2 * n * log_c), -np.expm1(2 * n * log_c)
    gap2 = _dist2(log_c, neg, x)
    closed = gap2 >= _MIN_GAP ** 2       # NaN fails
    sum_sq = np.divide(sin_y * sin_y * _dist2(n * log_c, neg & (n % 2 == 1), n * x), gap2,
                       out=np.zeros_like(gap2), where=closed)
    slow = np.flatnonzero(~closed & (sin_y != 0))
    norm = np.ones(len(t))
    for n_k in dict.fromkeys(n[slow].tolist()):
        rows, chunk = slow[n[slow] == n_k], max(1, CHUNK_AMPLITUDES // (n_k + 1))
        for lo in range(0, len(rows), chunk):
            part = rows[lo:lo + chunk]
            alpha = _alpha_block(x[part], y[part], n_k)
            pops = np.abs(alpha) ** 2
            gnd[part], s2[part], norm[part] = pops[:, 0], pops[:, 1:].sum(axis=1), pops.sum(axis=1)
            sum_sq[part] = np.abs(alpha[:, 1:].sum(axis=1)) ** 2
    bad = slow[~(np.abs(norm[slow] - 1.0) <= tol.NORM_ATOL)]     # NaN too
    if bad.size:
        raise ValueError(f"coefficient normalization {norm[bad[0]]} deviates from 1 "
                         f"at t={float(t[bad[0]])!r}")
    return gnd, s2, sum_sq


def _dist2(log_rho: np.ndarray, neg: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """|e^{-i phi} - rho|^2 for rho = +-e^{log_rho}, negative where neg:
    (1 - |rho|)^2 + 4 |rho| sin^2(phi/2) for rho >= 0, and with cos^2(phi/2)
    in place of sin^2(phi/2) for rho < 0."""
    half = np.where(neg, np.cos(phi / 2), np.sin(phi / 2))
    return np.expm1(log_rho) ** 2 + 4.0 * np.exp(log_rho) * half * half


def dco_zero_window(params: ModelParams) -> float:
    """Smallest t > 0 at which the definite-order state stops being passive:
    cos(w l t / N)^(2N) = 1/2, i.e. t* = (N / (w l)) arccos(2^(-1/2N)).
    The definite-order efficiency is exactly zero on (0, t*)."""
    return _t_star(params.n_chargers, params.omega, params.coupling)


def _t_star(n: int, omega: float, coupling: float) -> float:
    """t* of dco_zero_window for N = n, without a ModelParams."""
    return n / (omega * coupling) * float(np.arccos(2.0 ** (-1.0 / (2 * n))))
