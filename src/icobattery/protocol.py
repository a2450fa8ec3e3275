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
from .model import CHUNK_AMPLITUDES, KET_E, KET_G, ModelParams, pair_unitary


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
    time.  Yields the amplitudes of each chunk, shape (N, N+1, T_chunk): axis
    0 is the order index j - 1, axis 1 the sector component, axis 2 the time,
    last so that each step reads and writes contiguous rows."""
    n = params.n_chargers
    orders = np.array([cyclic_sequence(j, n) for j in range(1, n + 1)])
    branch = np.arange(n)
    chunk = max(1, CHUNK_AMPLITUDES // (n * (n + 1)))
    for lo in range(0, max(len(times), 1), chunk):      # an empty grid is one empty chunk
        u = pair_unitary(params, times[lo:lo + chunk] / n)   # indices 2q + c: |ge> = 1, |eg> = 2
        (m00, m01), (m10, m11) = u[1:3, 1:3] / u[3, 3]
        amp = np.zeros((n, n + 1, len(m00)), dtype=complex)
        amp[:, 0] = 1.0
        for k in range(n):
            charger = orders[:, k]
            a0 = amp[:, 0].copy()
            al = amp[branch, charger]
            amp[:, 0] = m00 * a0 + m01 * al
            amp[branch, charger] = m10 * a0 + m11 * al
        yield amp


def _battery_populations(amp: np.ndarray) -> np.ndarray:
    """Unnormalized battery populations (..., T, 2), (g, e) last, of sector
    amplitudes whose axes end in (component, time).  Components 0 and c
    differ in the chargers, so the battery state is diagonal."""
    pops = amp.real ** 2 + amp.imag ** 2
    return np.stack([pops[..., 0, :], pops[..., 1:, :].sum(axis=-2)], axis=-1)


def _density(pops: np.ndarray) -> np.ndarray:
    """Diagonal density matrices (..., 2, 2) with populations (..., 2)."""
    return (pops[..., None] * np.eye(2)).astype(complex)


def _conditional(sigma: np.ndarray, fallback: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights (T,) and normalized states (T, 2, 2) of populations (T, 2);
    the state is `fallback` where the weight is below ENERGY_EPS."""
    weight = sigma[:, 0] + sigma[:, 1]
    pops = np.divide(sigma, weight[:, None], out=np.tile(fallback.real, (len(weight), 1)),
                     where=weight[:, None] > tol.ENERGY_EPS)
    return weight, _density(pops)


@dataclass(frozen=True)
class ProtocolGrid:
    """`run_ico` at every time of a grid: the fields of ProtocolResult as
    arrays with a leading time axis.  Item i is time i's ProtocolResult."""

    t: np.ndarray
    p1: np.ndarray
    rho_given_1: np.ndarray
    rest_weight: np.ndarray
    rho_rest: np.ndarray
    rho_bar: np.ndarray
    rho_avg: np.ndarray

    def __getitem__(self, i: int) -> ProtocolResult:
        return ProtocolResult(**{k: v[i].copy() if v.ndim > 1 else float(v[i])
                                 for k, v in vars(self).items()})

    @staticmethod
    def join(grids: list[ProtocolGrid]) -> ProtocolGrid:
        """The points of `grids`, in order, as one ProtocolGrid; one grid is
        returned as it is."""
        if len(grids) == 1:
            return grids[0]
        return ProtocolGrid(**{k: np.concatenate([vars(g)[k] for g in grids])
                               for k in vars(grids[0])})


def run_ico_grid(params: ModelParams, times) -> ProtocolGrid:
    """`run_ico` at every time of `times`, in order.  The grid is evolved in
    chunks of at most CHUNK_AMPLITUDES amplitudes, each reduced to battery
    populations before the next one starts."""
    times = np.asarray(times, dtype=float)
    chunks = []
    for amp in _branch_amplitudes(params, times):
        mean = amp.mean(axis=0)          # outcome k = 1 keeps the mean branch
        chunks.append((_battery_populations(mean), _battery_populations(amp - mean).mean(axis=0),
                       _battery_populations(amp[0])))
    sigma_1, sigma_rest, bar = (np.concatenate(c) for c in zip(*chunks))
    p1, rho_given_1 = _conditional(sigma_1, KET_G)
    rest_weight, rho_rest = _conditional(sigma_rest, KET_E)
    return ProtocolGrid(t=times, p1=p1, rho_given_1=rho_given_1, rest_weight=rest_weight,
                        rho_rest=rho_rest, rho_bar=_density(bar),
                        rho_avg=p1[:, None, None] * rho_given_1
                        + rest_weight[:, None, None] * rho_rest)


def run_ico(params: ModelParams, t: float) -> ProtocolResult:
    """Evolve the joint input, measure the switch, and condition the battery.

    The k = 1 outcome uses the uniform-superposition projector; all k != 1
    outcomes are aggregated as its complement (their individual projectors
    never affect the battery state, only the total weight).  The DCO
    reference state is branch 1, the definite order (1, 2, ..., N).
    """
    return run_ico_grid(params, [t])[0]
