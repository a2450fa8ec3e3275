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
from .model import ModelParams
from .thermo import efficiency


@dataclass(frozen=True)
class AlphaCoefficients:
    """Amplitudes (alpha_0 .. alpha_N) of the evolved battery-charger state
    in the single-excitation basis {|g,h0>, |e,h_1>, ..., |e,h_N>}."""

    t: float
    alpha: np.ndarray

    def __post_init__(self):
        s = float(np.sum(np.abs(self.alpha) ** 2))
        if abs(s - 1.0) > tol.NORM_ATOL:
            raise ValueError(f"coefficient normalization {s} deviates from 1")


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


def alpha_coeffs(params: ModelParams, t: float) -> AlphaCoefficients:
    """Coefficients for the reference charging order (1, 2, ..., N):

    alpha_0 = (e^{-i w t / 2N} cos(w l t / N))^N
    alpha_j = (e^{-3i w t / 2N})^{N-j} e^{-i w t / 2N} (-i sin(w l t / N))
              (e^{-i w t / 2N} cos(w l t / N))^{j-1}
    """
    n, om, lam = params.n_chargers, params.omega, params.coupling
    c = np.cos(om * lam * t / n)
    s = np.sin(om * lam * t / n)
    ph = np.exp(-0.5j * om * t / n)
    ph3 = np.exp(-1.5j * om * t / n)
    alpha = np.zeros(n + 1, dtype=complex)
    alpha[0] = (ph * c) ** n
    for j in range(1, n + 1):
        alpha[j] = ph3 ** (n - j) * ph * (-1j * s) * (ph * c) ** (j - 1)
    return AlphaCoefficients(t=t, alpha=alpha)


def interference_term(params: ModelParams, t: float) -> float:
    """Cross-ordering coherence contribution to the uniform-outcome excited
    population:

        C = (2/N) sum_{u=1}^{N-1} (N-u) Re[ sum_{v=1}^{N} alpha_v alpha*_{v(+)u} ]

    where v(+)u is 1-based cyclic index addition: ((v - 1 + u) mod N) + 1.
    For v < N and v + u <= N this is plain v + u; the wrap covers v = N and
    any overflow past N.
    """
    return _interference(alpha_coeffs(params, t).alpha)


def _interference(alpha: np.ndarray) -> float:
    """`interference_term` from the coefficients alpha_0 .. alpha_N."""
    a = alpha[1:]
    n = len(a)
    total = 0.0
    for u in range(1, n):
        total += (n - u) * float(np.real(np.sum(a * np.conj(np.roll(a, -u)))))
    return 2.0 * total / n


def closed_form_report(params: ModelParams, t: float) -> ClosedFormReport:
    """Full closed-form energy accounting at one time point.

    Passivity of the conditional (k = 1) state is decided on unnormalized
    populations, |alpha_0|^2 >= (C + sum |alpha_u|^2)/N, which avoids
    dividing by a possibly small branch probability.
    """
    n = params.n_chargers
    alpha = alpha_coeffs(params, t).alpha
    gnd = float(np.abs(alpha[0]) ** 2)
    s2 = float(np.sum(np.abs(alpha[1:]) ** 2))
    c_term = _interference(alpha)
    exc = (c_term + s2) / n

    p1 = gnd + exc
    e = 1.0 - gnd            # = 1 - cos(w l t / N)^(2N)

    passive_k1 = gnd >= exc
    if passive_k1:
        w_ico = ((n - 1) / n) * s2 - c_term / n
    else:
        w_ico = 1.0 - 2.0 * gnd

    passive_dco = gnd >= 0.5
    w_dco = 0.0 if passive_dco else 1.0 - 2.0 * gnd

    return ClosedFormReport(
        t=t, C1=c_term, p1=p1, E=e,
        W_ico=w_ico, W_dco=w_dco,
        P_ico=efficiency(w_ico, e), P_dco=efficiency(w_dco, e),
        passive_k1=passive_k1, passive_dco=passive_dco,
    )


def dco_zero_window(params: ModelParams) -> float:
    """Smallest t > 0 at which the definite-order state stops being passive:
    cos(w l t / N)^(2N) = 1/2, i.e. t* = (N / (w l)) arccos(2^(-1/2N)).
    The definite-order efficiency is exactly zero on (0, t*)."""
    n, om, lam = params.n_chargers, params.omega, params.coupling
    return n / (om * lam) * float(np.arccos(2.0 ** (-1.0 / (2 * n))))
