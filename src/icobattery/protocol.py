"""Switch-controlled evolution, switch measurement, conditional battery states.

Excitation-sector engine.  Every pair unitary conserves excitation number,
so branch j of the input |g>|e...e> (charging order j) stays in the
(N+1)-dimensional sector spanned by component 0 = |g, all chargers e> and
component c = |e, charger c de-excited>, c = 1..N.  A pair step on (Q, C_l)
mixes components 0 and l through the single-excitation block of the pair
unitary (`model._pair_entries`) and multiplies every other component by its
|ee> phase.  That phase is divided out of the block, so a step touches two
components per branch; the product of the divided-out phases is the same for
every branch, a global phase of the joint state that no reported quantity
depends on.

Projecting the switch onto its uniform superposition leaves the mean of the
N branch vectors; the complement outcome keeps each branch's deviation from
that mean.  Every branch is composed numerically along its own cyclic order,
without the closed-form coefficients of `analytic`, which this engine checks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .model import CHUNK_AMPLITUDES, KET_E, KET_G, ModelParams, _pair_entries, _rows

_EYE_2 = np.eye(2)


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


def _branch_amplitudes(n: int, block: np.ndarray) -> np.ndarray:
    """Evolve every branch of N chargers along its cyclic order.  `block` is
    the single-excitation block (2, 2, T) of the pair unitary at the step times
    t/N, divided by its |ee> phase.  Returns the amplitudes (N, N+1, T): axis
    0 is the order index j - 1, axis 1 the sector component, axis 2 the time,
    last so that each step reads and writes contiguous rows.  Step k of order
    j acts on charger (j - 1 + k) % N + 1, entry j - 1 of chargers[k:k + N]."""
    (m00, m01), (m10, m11) = block
    branch, chargers = np.arange(n), np.arange(2 * n) % n + 1
    amp = np.zeros((n, n + 1, block.shape[-1]), dtype=complex)
    amp[:, 0] = 1.0
    for k in range(n):
        charger = chargers[k:k + n]
        a0 = amp[:, 0].copy()
        al = amp[branch, charger]
        amp[:, 0] = m00 * a0 + m01 * al
        amp[branch, charger] = m10 * a0 + m11 * al
    return amp


def _battery_populations(amp: np.ndarray) -> np.ndarray:
    """Unnormalized battery populations (..., T, 2), (g, e) last, of sector
    amplitudes whose axes end in (component, time).  Components 0 and c
    differ in the chargers, so the battery state is diagonal.  numpy sums the
    components of several times in order but of one time pairwise, so one
    time's are summed in order by cumsum: a row's bits ignore the chunking.
    The real part is squared into `pops` and the imaginary square added in
    place, so the squares take two float arrays the size of `amp` whether
    or not numpy elides a temporary."""
    pops = np.square(amp.real)
    pops += np.square(amp.imag)
    excited = pops[..., 1:, :]
    out = np.empty(pops.shape[:-2] + (pops.shape[-1], 2))
    out[..., 0] = pops[..., 0, :]
    out[..., 1] = (excited.sum(axis=-2) if pops.shape[-1] > 1
                   else excited.cumsum(axis=-2)[..., -1, :])
    return out


def _density(pops: np.ndarray) -> np.ndarray:
    """Diagonal density matrices (..., 2, 2) with populations (..., 2)."""
    return (pops[..., None] * _EYE_2).astype(complex)


def _conditional(sigma: np.ndarray, fallback: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights (..., T) and normalized states (..., T, 2, 2) of populations
    (..., T, 2); the state is `fallback` (..., 2) where the weight is below
    ENERGY_EPS."""
    weight = sigma[..., 0] + sigma[..., 1]
    pops = np.empty(sigma.shape)
    pops[...] = fallback.real[..., None, :]
    np.divide(sigma, weight[..., None], out=pops, where=weight[..., None] > tol.ENERGY_EPS)
    return weight, _density(pops)


# The fallback states of the outcomes k = 1 and k != 1 (see _conditional).
_FALLBACKS = np.array([KET_G, KET_E])


def run_ico_sweep(omega: float, coupling: float, n_list, times) -> dict[str, np.ndarray]:
    """`run_ico` at every row (N, t) of n_list x times, grouped by N in
    n_list order, as columns: the fields of ProtocolResult as arrays with a
    leading row axis.  One _pair_entries call covers every row; the callers
    bound the rows (the CLI passes at most WRITE_BLOCK).  Each N then evolves
    its rows in chunks of at most CHUNK_AMPLITUDES amplitudes (N(N+1) a row)
    or one row, each reduced to battery populations before the next starts,
    and the states of all rows are formed from these at once."""
    params = ModelParams(min(n_list, default=2), omega, coupling)   # checks every N, omega, lambda
    n_row, t = _rows(n_list, times)
    _, ee, diag, off = _pair_entries(params, t / n_row)
    block = np.array([[diag, off], [off, diag]]) / ee
    del _, ee, diag, off                        # only the block is kept over the chunks
    # populations of outcome k = 1, of k != 1 and of branch 1 (the DCO state)
    sigma = np.empty((3, len(t), 2))
    for i, n in enumerate(n_list):
        end, step = (i + 1) * len(times), max(1, CHUNK_AMPLITUDES // (n * (n + 1)))
        for lo in range(i * len(times), end, step):
            hi = min(lo + step, end)
            amp = _branch_amplitudes(n, block[..., lo:hi])
            # outcome k = 1 keeps the mean branch; both it and branch 1 are squared at once
            kept = np.empty((2,) + amp.shape[1:], dtype=complex)
            kept[0] = amp.sum(axis=0) / n
            kept[1] = amp[0]
            sigma[::2, lo:hi] = _battery_populations(kept)
            amp -= kept[0]                      # in place: no second chunk-sized array
            sigma[1, lo:hi] = _battery_populations(amp).sum(axis=0) / n
    (p1, rest_weight), (rho_given_1, rho_rest) = _conditional(sigma[:2], _FALLBACKS)
    return {"t": t, "p1": p1, "rho_given_1": rho_given_1, "rest_weight": rest_weight,
            "rho_rest": rho_rest, "rho_bar": _density(sigma[2]),
            "rho_avg": p1[:, None, None] * rho_given_1 + rest_weight[:, None, None] * rho_rest}


def run_ico(params: ModelParams, t: float) -> ProtocolResult:
    """Evolve the joint input, measure the switch, and condition the battery.

    The k = 1 outcome uses the uniform-superposition projector; all k != 1
    outcomes are aggregated as its complement (their individual projectors
    never affect the battery state, only the total weight).  The DCO
    reference state is branch 1, the definite order (1, 2, ..., N).
    """
    cols = run_ico_sweep(params.omega, params.coupling, [params.n_chargers], [t])
    return ProtocolResult(**{k: v[0] if v.ndim > 1 else float(v[0]) for k, v in cols.items()})
