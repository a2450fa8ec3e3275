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
depends on.  The block is symmetric, so a step reads its two distinct
entries, the diagonal and the off-diagonal one.

Projecting the switch onto its uniform superposition leaves the mean of the
N branch vectors; the complement outcome keeps each branch's deviation from
that mean.  Components 0 and c differ in the chargers, so every battery state
is diagonal in the eigenbasis of H and is held as its populations (p_g, p_e).
Every branch is composed numerically along its own cyclic order, without the
closed-form coefficients of `analytic`, which this engine checks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .model import CHUNK_AMPLITUDES, ModelParams, _pair_entries, _rows, check_model


@dataclass(frozen=True)
class ProtocolResult:
    """Conditional battery populations (p_g, p_e) at one time point."""

    t: float
    p1: float                 # probability of switch outcome k = 1
    pops_given_1: np.ndarray  # battery populations conditioned on k = 1
    rest_weight: float        # 1 - p1
    pops_rest: np.ndarray     # normalized aggregate over k != 1
    pops_bar: np.ndarray      # DCO reference state


def _branch_amplitudes(n: int, diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Evolve every branch of N chargers along its cyclic order.  `diag` and
    `off` (T,) are the diagonal and off-diagonal entries of the symmetric
    single-excitation block of the pair unitary at the step times t/N,
    divided by its |ee> phase.  Returns the amplitudes (N, N+1, T): axis 0 is
    the order index j - 1, axis 1 the sector component, axis 2 the time,
    last so that each step reads and writes contiguous rows.  Step k of order
    j acts on charger (j - 1 + k) % N + 1, entry j - 1 of chargers[k:k + N]."""
    branch, chargers = np.arange(n), np.arange(2 * n) % n + 1
    amp = np.zeros((n, n + 1, diag.shape[-1]), dtype=complex)
    amp[:, 0] = 1.0
    for k in range(n):
        charger = chargers[k:k + n]
        a0 = amp[:, 0].copy()
        al = amp[branch, charger]
        amp[:, 0] = diag * a0 + off * al
        amp[branch, charger] = off * a0 + diag * al
    return amp


def _battery_populations(amp: np.ndarray) -> np.ndarray:
    """Unnormalized battery populations (..., T, 2), (g, e) last, of sector
    amplitudes whose axes end in (component, time).  Components 0 and c
    differ in the chargers, so the battery state is diagonal.  numpy sums the
    components of several times in order but of one time pairwise, so one
    time's are summed in order by cumsum: a row's bits ignore the chunking.
    `amp` is overwritten: its real and imaginary parts are squared in place,
    in one pass over its float view, and the imaginary squares are added to
    the real ones, so no float array the size of `amp` is made."""
    parts = amp.view(float)
    np.square(parts, out=parts)
    pops = amp.real
    pops += amp.imag
    excited = pops[..., 1:, :]
    out = np.empty(pops.shape[:-2] + (pops.shape[-1], 2))
    out[..., 0] = pops[..., 0, :]
    out[..., 1] = (excited.sum(axis=-2) if pops.shape[-1] > 1
                   else excited.cumsum(axis=-2)[..., -1, :])
    return out


def _conditional(sigma: np.ndarray, fallback: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights (..., T) and normalized populations (..., T, 2) of populations
    (..., T, 2); the populations are `fallback` (..., 2) where the weight is
    below ENERGY_EPS."""
    weight = sigma[..., 0] + sigma[..., 1]
    pops = np.empty(sigma.shape)
    pops[...] = fallback[..., None, :]
    np.divide(sigma, weight[..., None], out=pops, where=weight[..., None] > tol.ENERGY_EPS)
    return weight, pops


_FALLBACKS = np.eye(2)    # the populations of |g> for k = 1 and of |e> for k != 1 (_conditional)


def run_ico_sweep(omega: float, coupling: float, n_list, times) -> dict[str, np.ndarray]:
    """`run_ico` at every row (N, t) of n_list x times, grouped by N in
    n_list order, as columns: the fields of ProtocolResult as arrays with a
    leading row axis.  One _pair_entries call covers every row; the callers
    bound the rows (the CLI passes at most WRITE_BLOCK).  Each N then evolves
    its rows in chunks of at most CHUNK_AMPLITUDES amplitudes (N(N+1) a row)
    or one row, each reduced to battery populations before the next starts,
    and the conditional populations of all rows are formed from these at once."""
    check_model(omega, coupling, n_list, times)
    n_row, t = _rows(n_list, times)
    ee, diag, off = _pair_entries(omega, coupling, t / n_row)
    diag, off = diag / ee, off / ee
    # populations of outcome k = 1, of k != 1 and of branch 1 (the DCO state)
    sigma = np.empty((3, len(t), 2))
    for i, n in enumerate(n_list):
        end, step = (i + 1) * len(times), max(1, CHUNK_AMPLITUDES // (n * (n + 1)))
        for lo in range(i * len(times), end, step):
            hi = min(lo + step, end)
            amp = _branch_amplitudes(n, diag[lo:hi], off[lo:hi])
            # outcome k = 1 keeps the mean branch; both it and branch 1 are squared at once
            kept = np.empty((2,) + amp.shape[1:], dtype=complex)
            kept[0] = amp.sum(axis=0) / n
            kept[1] = amp[0]
            amp -= kept[0]                      # before kept is squared in place
            sigma[::2, lo:hi] = _battery_populations(kept)
            sigma[1, lo:hi] = _battery_populations(amp).sum(axis=0) / n
            del amp, kept                       # freed before the next chunk is evolved
    (p1, rest_weight), (pops_given_1, pops_rest) = _conditional(sigma[:2], _FALLBACKS)
    return {"t": t, "p1": p1, "pops_given_1": pops_given_1, "rest_weight": rest_weight,
            "pops_rest": pops_rest, "pops_bar": sigma[2]}


def run_ico(params: ModelParams, t: float) -> ProtocolResult:
    """Evolve the joint input, measure the switch, and condition the battery.

    The k = 1 outcome uses the uniform-superposition projector; all k != 1
    outcomes are aggregated as its complement (their individual projectors
    never affect the battery state, only the total weight).  The DCO
    reference state is branch 1, the definite order (1, 2, ..., N).
    """
    cols = run_ico_sweep(params.omega, params.coupling, [params.n_chargers], [t])
    return ProtocolResult(**{k: v[0] if v.ndim > 1 else float(v[0]) for k, v in cols.items()})
