"""Earlier forms of the numeric engine's helpers and of both engines' sweeps.

These build their shared arrays on every call, through numpy's Python-level
wrappers: `np.stack` of the battery populations, `np.mean` over the
branches, `np.tile` of the fallback state and of the time grid, an
`np.eye(2)` per density stack, e^{-i w t / 2} and w l t formed twice per
call, and an `eigh` of the battery Hamiltonian and an `np.outer` for |g><g|
per energy report.  `icobattery.protocol`, `icobattery.model`,
`icobattery.thermo` and `icobattery.analytic` build those arrays once and
must reproduce these forms bit for bit.
"""
from __future__ import annotations

import numpy as np

from icobattery import protocol
from icobattery import tolerances as tol
from icobattery.analytic import _row_sums
from icobattery.model import KET_E, KET_G, battery_hamiltonian, check_model
from icobattery.protocol import _branch_amplitudes
from icobattery.thermo import _energies, _ergotropies, _weighted_sum, efficiencies


def stacked_battery_populations(amp: np.ndarray) -> np.ndarray:
    """`protocol._battery_populations` with its output from `np.stack`."""
    pops = amp.real ** 2 + amp.imag ** 2
    excited = pops[..., 1:, :]
    excited = excited.sum(axis=-2) if pops.shape[-1] > 1 else excited.cumsum(axis=-2)[..., -1, :]
    return np.stack([pops[..., 0, :], excited], axis=-1)


def eye_density(pops: np.ndarray) -> np.ndarray:
    """`protocol._density` with an `np.eye(2)` per call."""
    return (pops[..., None] * np.eye(2)).astype(complex)


def tiled_conditional(sigma: np.ndarray, fallback: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`protocol._conditional` with its fallback from `np.tile`."""
    weight = sigma[:, 0] + sigma[:, 1]
    pops = np.divide(sigma, weight[:, None], out=np.tile(fallback.real, (len(weight), 1)),
                     where=weight[:, None] > tol.ENERGY_EPS)
    return weight, eye_density(pops)


def twice_pair_entries(omega: float, coupling: float, t_l) -> tuple:
    """`model._pair_entries` forming e^{-i w t / 2} and w l t twice each."""
    t_l = np.asarray(t_l, dtype=float)
    c, s = np.cos(omega * coupling * t_l), np.sin(omega * coupling * t_l)
    return (np.exp(0.5j * omega * t_l), np.exp(-1.5j * omega * t_l),
            np.exp(-0.5j * omega * t_l) * c, np.exp(-0.5j * omega * t_l) * (-1j * s))


def tiled_rows(n_list, times) -> tuple[np.ndarray, np.ndarray]:
    """The rows (N, t) of n_list x times from `np.repeat` and `np.tile`."""
    times = np.asarray(times, dtype=float)
    return np.repeat(n_list, len(times)), np.tile(times, len(n_list))


def tiled_run_ico_sweep(omega: float, coupling: float, n_list, times) -> dict[str, np.ndarray]:
    """`protocol.run_ico_sweep` from the forms above, with `np.mean` over
    the branches; it chunks by `protocol.CHUNK_AMPLITUDES` as read at call
    time, so a test that patches it chunks both forms alike."""
    times = np.asarray(times, dtype=float)
    check_model(omega, coupling, n_list, times)
    n_row, t = tiled_rows(n_list, times)
    _, ee, diag, off = twice_pair_entries(omega, coupling, t / n_row)
    block = np.array([[diag, off], [off, diag]]) / ee
    sigma_1, sigma_rest, bar = np.empty((3, len(t), 2))
    for i, n in enumerate(n_list):
        end, step = (i + 1) * len(times), max(1, protocol.CHUNK_AMPLITUDES // (n * (n + 1)))
        for lo in range(i * len(times), end, step):
            hi = min(lo + step, end)
            amp = _branch_amplitudes(n, block[..., lo:hi])
            mean = amp.mean(axis=0)
            sigma_1[lo:hi] = stacked_battery_populations(mean)
            bar[lo:hi] = stacked_battery_populations(amp[0])
            amp -= mean
            sigma_rest[lo:hi] = stacked_battery_populations(amp).mean(axis=0)
    p1, rho_given_1 = tiled_conditional(sigma_1, KET_G)
    rest_weight, rho_rest = tiled_conditional(sigma_rest, KET_E)
    return {"t": t, "p1": p1, "rho_given_1": rho_given_1, "rest_weight": rest_weight,
            "rho_rest": rho_rest, "rho_bar": eye_density(bar),
            "rho_avg": p1[:, None, None] * rho_given_1 + rest_weight[:, None, None] * rho_rest}


def decomposing_report_grid(states: dict[str, np.ndarray], omega: float) -> dict[str, np.ndarray]:
    """`thermo.report_grid` with an `eigh` of H, an `np.outer` for |g><g|
    and `np.stack`ed weights on every call."""
    h = battery_hamiltonian(omega)
    vecs = np.linalg.eigh(h)[1]
    rho0 = np.outer(KET_G, KET_G.conj())
    w_given_1, w_rest, w_bar = _ergotropies(
        [states["rho_given_1"], states["rho_rest"], states["rho_bar"]], h, vecs)
    e_ico, e_dco = _energies(np.concatenate([states["rho_avg"], states["rho_bar"]]) - rho0,
                             h).reshape(2, -1) / omega
    w_ico = _weighted_sum(np.stack([states["p1"], states["rest_weight"]]),
                          np.stack([w_given_1, w_rest])) / omega
    w_dco = w_bar / omega
    return {"E": e_ico, "W_ico": w_ico, "P_ico": efficiencies(w_ico, e_ico),
            "E_dco": e_dco, "W_dco": w_dco, "P_dco": efficiencies(w_dco, e_dco),
            "passive_k1": w_given_1 / omega <= tol.PASSIVITY_ATOL,
            "passive_dco": w_dco <= tol.PASSIVITY_ATOL}


def tiled_closed_form_sweep(omega: float, coupling: float, n_list, times) -> dict[str, np.ndarray]:
    """`analytic.closed_form_sweep` with its rows from `tiled_rows`."""
    n_row, t = tiled_rows(n_list, times)
    gnd, e, sum_sq = _row_sums(omega, coupling, n_row, t)
    c_term = sum_sq - e
    exc = (c_term + e) / n_row
    passive_k1 = gnd >= exc
    w_ico = np.where(passive_k1, ((n_row - 1) / n_row) * e - c_term / n_row, 1.0 - 2.0 * gnd)
    passive_dco = gnd >= 0.5
    w_dco = np.where(passive_dco, 0.0, 1.0 - 2.0 * gnd)
    return {"t": t, "C1": c_term, "p1": gnd + exc, "E": e, "W_ico": w_ico, "W_dco": w_dco,
            "P_ico": efficiencies(w_ico, e), "P_dco": efficiencies(w_dco, e),
            "passive_k1": passive_k1, "passive_dco": passive_dco}
