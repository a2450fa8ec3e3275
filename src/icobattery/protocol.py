"""Switch-controlled evolution, switch measurement, conditional battery states.

Excitation-sector engine.  Every pair unitary conserves excitation number,
so branch j of the input |g>|e...e> (charging order j) stays in the
(N+1)-dimensional sector spanned by component 0 = |g, all chargers e> and
component c = |e, charger c de-excited>, c = 1..N.  A pair step on (Q, C_l)
mixes components 0 and l through the single-excitation block of
`pair_unitary` and multiplies every other component by its |ee> phase.  That
phase is divided out of the block, so a step touches two components per
branch; the product of the divided-out phases is the same for every branch,
a global phase of the joint state that no reported quantity depends on.

Projecting the switch onto its uniform superposition leaves the mean of the
N branch vectors; the complement outcome keeps each branch's deviation from
that mean.  Every branch is composed numerically along its own cyclic order,
without the closed-form coefficients of `analytic`, which this engine checks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .model import KET_E, KET_G, ModelParams, pair_unitary

# Amplitudes held at once per chunk of the time grid (16 MB of complex128).
# One grid point holds N(N+1) of them, so a chunk is at least one point.
CHUNK_AMPLITUDES = 1 << 20


def cyclic_sequence(j: int, n: int) -> tuple[int, ...]:
    """The j-th cyclic charging order: (j, j+1, ..., N, 1, ..., j-1)."""
    if not 1 <= j <= n:
        raise ValueError(f"order index {j} out of range 1..{n}")
    return tuple((j - 1 + k) % n + 1 for k in range(n))


@dataclass(frozen=True)
class ProtocolResult:
    """Conditional battery states at one time point (all 2x2, |g> = index 0)."""

    t: float
    p1: float                 # probability of switch outcome k = 1
    rho_given_1: np.ndarray   # battery state conditioned on k = 1
    rest_weight: float        # 1 - p1
    rho_rest: np.ndarray      # normalized aggregate over k != 1
    rho_bar: np.ndarray       # DCO reference state
    rho_avg: np.ndarray       # p1 * rho_given_1 + rest_weight * rho_rest


def _branch_amplitudes(params: ModelParams, times: np.ndarray):
    """Evolve every branch along its cyclic order, one chunk of the grid at a
    time.  Yields (chunk times, amplitudes of shape (N, N+1, T_chunk)): axis 0
    is the order index j - 1, axis 1 the sector component, axis 2 the time,
    last so that each step reads and writes contiguous rows."""
    n = params.n_chargers
    blocks = np.empty((2, 2, len(times)), dtype=complex)
    for i, t in enumerate(times):
        u = pair_unitary(params, t / n).mat      # indices 2q + c: |ge> = 1, |eg> = 2
        blocks[:, :, i] = u[1:3, 1:3] / u[3, 3]
    orders = np.array([cyclic_sequence(j, n) for j in range(1, n + 1)])
    branch = np.arange(n)
    chunk = max(1, CHUNK_AMPLITUDES // (n * (n + 1)))
    for lo in range(0, len(times), chunk):
        (m00, m01), (m10, m11) = blocks[:, :, lo:lo + chunk]
        amp = np.zeros((n, n + 1, len(m00)), dtype=complex)
        amp[:, 0] = 1.0
        for k in range(n):
            charger = orders[:, k]
            a0 = amp[:, 0].copy()
            al = amp[branch, charger]
            amp[:, 0] = m00 * a0 + m01 * al
            amp[branch, charger] = m10 * a0 + m11 * al
        yield times[lo:lo + chunk], amp


def _battery_populations(amp: np.ndarray) -> np.ndarray:
    """Unnormalized battery populations (g, e) along axis -2 of sector
    amplitudes whose axes end in (component, time).  Components 0 and c
    differ in the chargers, so the battery state is diagonal."""
    pops = amp.real ** 2 + amp.imag ** 2
    return np.stack([pops[..., 0, :], pops[..., 1:, :].sum(axis=-2)], axis=-2)


def _diag(pops: np.ndarray) -> np.ndarray:
    return np.diag(pops).astype(complex)


def run_ico_grid(params: ModelParams, times) -> list[ProtocolResult]:
    """`run_ico` at every time of `times`, in order.

    The grid is evolved in chunks of at most CHUNK_AMPLITUDES amplitudes,
    each reduced to 2x2 battery states before the next one starts.
    """
    ket_g = np.outer(KET_G, KET_G.conj())
    ket_e = np.outer(KET_E, KET_E.conj())
    results = []
    for ts, amp in _branch_amplitudes(params, np.asarray(times, dtype=float)):
        mean = amp.mean(axis=0)
        sigma_1 = _battery_populations(mean)
        sigma_rest = _battery_populations(amp - mean).mean(axis=0)
        bar = _battery_populations(amp[0])
        for t, s1, sr, b in zip(ts, sigma_1.T, sigma_rest.T, bar.T):
            p1, rest_weight = float(s1.sum()), float(sr.sum())
            rho_given_1 = _diag(s1 / p1) if p1 > tol.ENERGY_EPS else ket_g.copy()
            rho_rest = _diag(sr / rest_weight) if rest_weight > tol.ENERGY_EPS else ket_e.copy()
            results.append(ProtocolResult(
                t=t,
                p1=p1,
                rho_given_1=rho_given_1,
                rest_weight=rest_weight,
                rho_rest=rho_rest,
                rho_bar=_diag(b),
                rho_avg=p1 * rho_given_1 + rest_weight * rho_rest,
            ))
    return results


def run_dco(params: ModelParams, t: float, j: int) -> np.ndarray:
    """Battery state after the single definite charging order j (no switch)."""
    if not 1 <= j <= params.n_chargers:
        raise ValueError(f"order index {j} out of range 1..{params.n_chargers}")
    _, amp = next(_branch_amplitudes(params, np.array([t], dtype=float)))
    return _diag(_battery_populations(amp[j - 1])[:, 0])


def run_ico(params: ModelParams, t: float) -> ProtocolResult:
    """Evolve the joint input, measure the switch, and condition the battery.

    The k = 1 outcome uses the uniform-superposition projector; all k != 1
    outcomes are aggregated as its complement (their individual projectors
    never affect the battery state, only the total weight).  The DCO
    reference state is branch 1, the definite order (1, 2, ..., N).
    """
    return run_ico_grid(params, [t])[0]
