"""Earlier forms of the numeric engine's helpers.

These build their shared arrays on every call, through numpy's Python-level
wrappers: `np.stack` of the battery populations, `np.tile` of the fallback
populations, and e^{-i w t / 2} and w l t formed twice per call.
`icobattery.protocol` and `icobattery.model` build those arrays once and
must reproduce these forms bit for bit.  The whole sweeps are checked byte
for byte against the base commit by `scripts/compare_base.py`.
"""
from __future__ import annotations

import numpy as np

from icobattery import tolerances as tol


def stacked_battery_populations(amp: np.ndarray) -> np.ndarray:
    """`protocol._battery_populations` with its output from `np.stack`."""
    pops = amp.real ** 2 + amp.imag ** 2
    excited = pops[..., 1:, :]
    excited = excited.sum(axis=-2) if pops.shape[-1] > 1 else excited.cumsum(axis=-2)[..., -1, :]
    return np.stack([pops[..., 0, :], excited], axis=-1)


def tiled_conditional(sigma: np.ndarray, fallback: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`protocol._conditional` with its fallback from `np.tile`."""
    weight = sigma[:, 0] + sigma[:, 1]
    pops = np.divide(sigma, weight[:, None], out=np.tile(fallback, (len(weight), 1)),
                     where=weight[:, None] > tol.ENERGY_EPS)
    return weight, pops


def twice_pair_entries(omega: float, coupling: float, t_l) -> tuple:
    """`model._pair_entries` forming e^{-i w t / 2} and w l t twice each."""
    t_l = np.asarray(t_l, dtype=float)
    c, s = np.cos(omega * coupling * t_l), np.sin(omega * coupling * t_l)
    return (np.exp(-1.5j * omega * t_l), np.exp(-0.5j * omega * t_l) * c,
            np.exp(-0.5j * omega * t_l) * (-1j * s))

