"""The benchmark's workloads: the CLI invocations each makes and their checks.

A workload is built from a seed.  The seed shifts every grid's t_min by a
fraction of one grid step, so another seed evaluates unseen time points with
the same amount of work, and it is the noise study's sampling seed.  Sizes
are scaled so one repetition takes 0.2-0.7 s on one core (N = 7 needs two
points at 0.3 s each), giving tens of repetitions per run; `smoke` selects
a tiny size that only proves every path runs.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

OMEGA, COUPLING = 1.0, 0.1                  # CLI defaults
SWEEP_T_MAX = 4 * math.pi / (OMEGA * COUPLING)  # CLI default t_max
WIDE_N = tuple(range(2, 33))
NOISE_T = (0.5, 12.0)
SHOTS, DEPOL_P = 20000, 0.05


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    outputs: tuple[str, ...]   # files or directories it writes, relative to the run directory
    points: int                # grid points (output rows) it computes


@dataclass(frozen=True)
class Plan:
    invocations: tuple[Invocation, ...]
    check: Callable[[], list[str]]   # checks the files the invocations wrote

    @property
    def points(self) -> int:
        return sum(inv.points for inv in self.invocations)


def shifted_t_min(seed: int, t_min: float, t_max: float, points: int) -> float:
    """t_min moved forward by a seed-drawn fraction of one grid step."""
    return t_min + random.Random(seed).random() * (t_max - t_min) / (points - 1)


def _sweep(command: str, run_dir: Path, out: str, n_list, points: int, t_min: float,
           engine: str) -> Invocation:
    argv = (command, "--n", ",".join(map(str, n_list)), "--points", str(points),
            "--t-min", repr(t_min), "--engine", engine, "--out", str(run_dir / out))
    return Invocation(argv, (out,), len(n_list) * points)


def _engine_sweep(n_list, points: int, engine: str):
    def plan(run_dir: Path, seed: int, smoke: bool) -> Plan:
        pts = 3 if smoke else points
        t_min = shifted_t_min(seed, 0.0, SWEEP_T_MAX, pts)
        inv = _sweep("sweep", run_dir, "sweep.csv", n_list, pts, t_min, engine)
        grid = np.linspace(t_min, SWEEP_T_MAX, pts)
        return Plan((inv,), lambda: checks.engine_sweep(run_dir / "sweep.csv", n_list, grid))
    return plan


def _analytic_wide(run_dir: Path, seed: int, smoke: bool) -> Plan:
    points = 3 if smoke else 8
    t_min = shifted_t_min(seed, 0.0, SWEEP_T_MAX, points)
    invocations = (
        _sweep("sweep", run_dir, "sweep.csv", WIDE_N, points, t_min, "analytic"),
        _sweep("bursts", run_dir, "bursts.json", WIDE_N, points, t_min, "analytic"),
    )
    grid = np.linspace(t_min, SWEEP_T_MAX, points)
    # rows of N = 2..5 to recompute with the numeric engine
    sample = sorted(random.Random(seed).sample(range(4 * points), min(12, 4 * points)))

    def check() -> list[str]:
        return (checks.analytic_sweep(run_dir / "sweep.csv", WIDE_N, grid, sample)
                + checks.bursts(run_dir / "bursts.json", run_dir / "sweep.csv", WIDE_N, grid))
    return Plan(invocations, check)


def _circuit_n2(run_dir: Path, seed: int, smoke: bool) -> Plan:
    points = 3 if smoke else 30
    noise_seed = seed % 2 ** 31   # the sampler needs a non-negative seed
    t_min = shifted_t_min(seed, *NOISE_T, points)
    noise = ("noise-study", "--n", "2", "--t-min", repr(t_min), "--t-max", repr(NOISE_T[1]),
             "--points", str(points), "--shots", str(SHOTS), "--depol-p", repr(DEPOL_P),
             "--seed", str(noise_seed), "--out", str(run_dir / "noise.csv"))
    export_t_min = shifted_t_min(seed, 0.0, SWEEP_T_MAX, points)
    export = ("export-circuits", "--n", "2", "--points", str(points),
              "--t-min", repr(export_t_min), "--out", str(run_dir / "circuits"))
    invocations = (Invocation(noise, ("noise.csv", "noise_shots.csv"), points),
                   Invocation(export, ("circuits",), points))
    noise_grid = np.linspace(t_min, NOISE_T[1], points)
    export_grid = np.linspace(export_t_min, SWEEP_T_MAX, points)

    def check() -> list[str]:
        return (checks.noise_study(run_dir / "noise.csv", noise_grid, SHOTS, DEPOL_P, noise_seed)
                + checks.exported_circuits(run_dir / "circuits", export_grid))
    return Plan(invocations, check)


# name -> plan(run directory, seed, smoke); BENCHMARK.json gives each one's reason
WORKLOADS = {
    "repro-both": _engine_sweep((2, 3, 4, 5), 12, "both"),
    "dense-n7": _engine_sweep((7,), 2, "numeric"),
    "analytic-wide": _analytic_wide,
    "circuit-n2": _circuit_n2,
}
