"""Command-line tool: parameter sweeps, burst reports, circuit export, noise studies.

Commands: sweep, bursts, export-circuits, noise-study.  Configuration comes
from an optional JSON file (--config) mirroring SweepConfig, with CLI flags
taking precedence.  Exit codes: 0 success, 2 configuration error, 3 invariant
violation detected during the run.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import tolerances as tol
from .analytic import closed_form_grid, dco_zero_window
from .circuit import (OUTCOME_KEYS, NoiseSpec, angles_of_time, build_ico_circuit, estimate,
                      estimate_counts, ico_sample)
from .model import ModelParams
from .protocol import run_ico_grid
from .qasm import emit_qasm
from .thermo import report as thermo_report

ROW_FIELDS = ("N", "t", "E", "W_ico", "P_ico", "W_dco", "P_dco", "p1",
              "passive_k1", "passive_dco")

BOOTSTRAP_RESAMPLES = 200

# Largest charger count accepted.  One grid point of the numeric engine holds
# N(N+1) complex amplitudes, 16 MB at this N.
MAX_CHARGERS = 1000

# Largest number of output rows (points x charger counts) accepted.  A sweep
# holds its rows in memory, about 1.5 kB each, so about 1.5 GB at this limit.
MAX_ROWS = 1_000_000

# Largest phase omega*t_max or omega*lambda*t_max accepted with --engine both.
# The two engines round these phases differently, by about 1e-16 of their
# size, and beyond about 1e7 they disagree by more than ENGINE_AGREE_ATOL.
MAX_BOTH_PHASE = 2e6


class ConfigError(Exception):
    pass


class InvariantViolation(Exception):
    pass


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass
class SweepConfig:
    n_list: list[int]
    omega: float = 1.0
    coupling: float = 0.1
    t_min: float = 0.0
    t_max: float | None = None       # defaults to 4*pi/(omega*coupling)
    points: int = 400
    engine: str = "both"             # numeric | analytic | both
    shots: int | None = None
    depolarizing_p: float | None = None
    seed: int = 0
    out: str | None = None
    tau: float = 0.5
    eps_dco: float = 1e-9

    def __post_init__(self):
        if not self.n_list:
            raise ConfigError("n_list must not be empty")
        for n in self.n_list:
            if not (_is_int(n) and 2 <= n <= MAX_CHARGERS):
                raise ConfigError(f"every N must be an integer in [2, {MAX_CHARGERS}], got {n!r}")
        if len(set(self.n_list)) != len(self.n_list):
            raise ConfigError(f"n_list must not repeat a charger count, got {self.n_list}")
        if self.engine not in ("numeric", "analytic", "both"):
            raise ConfigError(f"unknown engine {self.engine!r}")
        for name in ("omega", "coupling", "t_min", "t_max", "tau", "eps_dco"):
            value = getattr(self, name)
            if name == "t_max" and value is None:
                continue
            if not (_is_real(value) and math.isfinite(value)):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        try:
            ModelParams(min(self.n_list), self.omega, self.coupling)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.t_max is None:
            rate = self.omega * self.coupling
            self.t_max = 4 * math.pi / rate if rate > 0 else math.inf
            if not math.isfinite(self.t_max):
                raise ConfigError("default t_max 4*pi/(omega*lambda) overflows; give --t-max")
        if not self.t_min >= 0:
            raise ConfigError(f"t_min must be >= 0, got {self.t_min}")
        if not self.t_min < self.t_max:
            raise ConfigError(f"need t_min < t_max, got [{self.t_min}, {self.t_max}]")
        # the phases (3/2) omega t and omega lambda t must stay finite
        if not (math.isfinite(2 * self.omega * self.t_max)
                and math.isfinite(self.omega * self.coupling * self.t_max)):
            raise ConfigError(f"phases omega*t_max and omega*lambda*t_max overflow "
                              f"at t_max={self.t_max}")
        phase = max(1.0, self.coupling) * self.omega * self.t_max
        if self.engine == "both" and phase > MAX_BOTH_PHASE:
            raise ConfigError(f"phase max(omega, omega*lambda)*t_max = {phase:g} exceeds "
                              f"{MAX_BOTH_PHASE:g}, beyond which the engines cannot agree "
                              f"within {tol.ENGINE_AGREE_ATOL:g}; lower t_max or pick one engine")
        if not (_is_int(self.points) and self.points >= 2):
            raise ConfigError(f"need an integer number of grid points >= 2, got {self.points!r}")
        if self.points * len(self.n_list) > MAX_ROWS:
            raise ConfigError(f"points x charger counts = {self.points * len(self.n_list)} "
                              f"exceeds the row limit {MAX_ROWS}")
        if self.shots is not None and not (_is_int(self.shots) and self.shots >= 1):
            raise ConfigError(f"shots must be an integer >= 1, got {self.shots!r}")
        if self.depolarizing_p is not None and not (
                _is_real(self.depolarizing_p) and 0.0 <= self.depolarizing_p <= 1.0):
            raise ConfigError(f"depolarizing_p must lie in [0, 1], got {self.depolarizing_p!r}")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")

    def time_grid(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.points)

    def params(self, n: int) -> ModelParams:
        return ModelParams(n, self.omega, self.coupling)


def _numeric_row(params: ModelParams, result) -> dict:
    ico, dco = thermo_report(result, params)
    return {"N": params.n_chargers, "t": result.t, "E": ico.E, "W_ico": ico.W,
            "P_ico": ico.P, "W_dco": dco.W, "P_dco": dco.P, "p1": result.p1,
            "passive_k1": ico.passive_k1, "passive_dco": ico.passive_dco}


def _analytic_row(params: ModelParams, r) -> dict:
    return {"N": params.n_chargers, "t": r.t, "E": r.E, "W_ico": r.W_ico,
            "P_ico": r.P_ico, "W_dco": r.W_dco, "P_dco": r.P_dco, "p1": r.p1,
            "passive_k1": r.passive_k1, "passive_dco": r.passive_dco}


def _engine_deviation(num: dict, ana: dict) -> float:
    """Largest deviation between the numeric and analytic rows of one (N, t).

    Raises InvariantViolation, naming the quantity, N and t, when a value
    differs beyond the agreement tolerance, when an efficiency is defined
    by one engine only, or when a passivity flag differs."""
    where = f"N={num['N']}, t={float(num['t'])!r}"
    for k in ("P_ico", "P_dco"):
        if (num[k] is None) != (ana[k] is None):
            raise InvariantViolation(f"engines disagree on whether {k} is defined at {where}: "
                                     f"numeric {num[k]!r}, analytic {ana[k]!r}")
    for k in ("passive_k1", "passive_dco"):
        if num[k] != ana[k]:
            raise InvariantViolation(f"engines disagree on {k} at {where}: "
                                     f"numeric {num[k]}, analytic {ana[k]}")
    devs = {k: abs(num[k] - ana[k]) for k in ("E", "W_ico", "W_dco", "p1", "P_ico", "P_dco")
            if num[k] is not None}
    worst = max(devs, key=devs.get)
    if not devs[worst] <= tol.ENGINE_AGREE_ATOL:
        raise InvariantViolation(f"engines disagree on {worst} by {devs[worst]:g} at {where}")
    return devs[worst]


def sweep_rows(config: SweepConfig) -> list[dict]:
    """One row per (N, t) in grid order.  Engine `both` records the maximum
    componentwise deviation between the two engines and fails the run if
    they disagree (see _engine_deviation)."""
    rows = []
    for n in config.n_list:
        params = config.params(n)
        grid = config.time_grid()
        if config.engine == "analytic":
            rows += [_analytic_row(params, r) for r in closed_form_grid(params, grid)]
        elif config.engine == "numeric":
            rows += [_numeric_row(params, result) for result in run_ico_grid(params, grid)]
        else:
            for result, r in zip(run_ico_grid(params, grid), closed_form_grid(params, grid)):
                row = _numeric_row(params, result)
                row["max_engine_dev"] = _engine_deviation(row, _analytic_row(params, r))
                rows.append(row)
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


# Formatter of each common cell type, looked up by exact type: the same text
# as _fmt, which formats any other type.
_FORMATTERS = {float: float.__repr__, np.float64: float.__repr__, int: int.__repr__, str: str,
               type(None): _fmt, bool: _fmt, np.bool_: _fmt}


def write_csv(path, fieldnames, rows) -> None:
    fmt = _FORMATTERS.get
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        writer.writerows([fmt(type(v), _fmt)(v) for v in map(row.get, fieldnames)]
                         for row in rows)


def burst_report(config: SweepConfig) -> dict:
    """Per-N burst intervals (maximal grid runs with P_dco <= eps and
    P_ico >= tau), the analytic first-window length t*, and a strict-growth
    verdict for t* across n_list."""
    rows = sweep_rows(config)
    grid = config.time_grid()
    per_n = {}
    t_stars = []
    for k, n in enumerate(config.n_list):
        n_rows = rows[k * len(grid):(k + 1) * len(grid)]   # sweep_rows groups rows by N
        hits = [
            r["P_dco"] is not None and r["P_dco"] <= config.eps_dco
            and r["P_ico"] is not None and r["P_ico"] >= config.tau
            for r in n_rows
        ]
        intervals = []
        i = 0
        while i < len(hits):
            if hits[i]:
                j = i
                while j + 1 < len(hits) and hits[j + 1]:
                    j += 1
                intervals.append([float(grid[i]), float(grid[j])])
                i = j + 1
            else:
                i += 1
        t_star = dco_zero_window(config.params(n))
        t_stars.append(t_star)
        per_n[str(n)] = {
            "intervals": intervals,
            "total_burst_duration": float(sum(b - a for a, b in intervals)),
            "t_star": t_star,
        }
    increasing = all(b > a for a, b in zip(t_stars, t_stars[1:]))
    return {
        "tau": config.tau,
        "eps_dco": config.eps_dco,
        "per_n": per_n,
        "monotonicity_verdict": "pass" if increasing else "fail",
    }


def export_circuits(config: SweepConfig, out_dir) -> list[dict]:
    """One QASM file per grid point plus a manifest mapping t to (theta, phi,
    filename).  Only the two-charger circuit exists."""
    if config.n_list != [2]:
        raise ConfigError(f"circuit export supports N=2 only, got n_list={config.n_list}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    params = config.params(2)
    manifest = []
    for i, t in enumerate(config.time_grid()):
        theta, phi = angles_of_time(params, t)
        name = f"ico_n2_t{i}.qasm"
        (out_dir / name).write_text(emit_qasm(build_ico_circuit(theta, phi)))
        manifest.append({"t": t, "theta": theta, "phi": phi, "filename": name})
    write_csv(out_dir / "manifest.csv", ("t", "theta", "phi", "filename"), manifest)
    return manifest


def _bootstrap_p_se(counts_vec: np.ndarray, shots: int, rng) -> float | None:
    """Standard error of the efficiency estimate by multinomial resampling;
    None when fewer than two resamples define an efficiency."""
    draws = rng.multinomial(shots, counts_vec / shots, size=BOOTSTRAP_RESAMPLES)
    vals = estimate_counts(draws, shots).P
    vals = vals[~np.isnan(vals)]
    return float(np.std(vals)) if len(vals) > 1 else None


def noise_study_rows(config: SweepConfig) -> tuple[list[dict], list[dict]]:
    """Ideal vs shot-sampled noisy estimates per grid point.

    Returns (analysis rows, raw shot-count rows).  Sampling seed for grid
    index i is seed + i, so runs are reproducible point by point."""
    if config.n_list != [2]:
        raise ConfigError(f"noise study supports N=2 only, got n_list={config.n_list}")
    if config.shots is None or config.depolarizing_p is None:
        raise ConfigError("noise study requires both shots and depolarizing_p")
    params = config.params(2)
    grid = config.time_grid()
    angles = [angles_of_time(params, t) for t in grid]
    thetas, phis = np.transpose(angles)
    results = ico_sample(thetas, phis, NoiseSpec(config.depolarizing_p), config.shots,
                         range(config.seed, config.seed + len(grid)))
    rows, shot_rows = [], []
    for t, (theta, phi), ideal, result in zip(grid, angles, closed_form_grid(params, grid),
                                              results):
        seed = result.seed
        est = estimate(result)
        counts_vec = np.array([result.counts[k] for k in OUTCOME_KEYS], float)
        se_e = math.sqrt(max(est.E * (1 - est.E), 0.0) / config.shots)
        se_p = _bootstrap_p_se(counts_vec, config.shots, np.random.default_rng(seed + 10**9))
        rows.append({
            "t": t, "theta": theta, "phi": phi,
            "shots": config.shots, "seed": seed,
            "E_ideal": ideal.E, "P_ico_ideal": ideal.P_ico,
            "E_hat": est.E, "se_E": se_e,
            "P_hat": est.P, "se_P": se_p,
            "overestimates_E": est.E > ideal.E,
        })
        shot_rows.append({
            "t": t, "theta": theta, "phi": phi, "shots": config.shots, "seed": seed,
            "c_pg": result.counts[("+", "g")], "c_pe": result.counts[("+", "e")],
            "c_mg": result.counts[("-", "g")], "c_me": result.counts[("-", "e")],
        })
    return rows, shot_rows


# --- argument handling -------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="JSON file mirroring SweepConfig")
    p.add_argument("--n", dest="n_list", type=lambda s: [int(x) for x in s.split(",")],
                   help="comma-separated charger counts, e.g. 2,3,4,5")
    p.add_argument("--omega", type=float)
    p.add_argument("--lambda", dest="coupling", type=float)
    p.add_argument("--t-min", dest="t_min", type=float)
    p.add_argument("--t-max", dest="t_max", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--engine", choices=("numeric", "analytic", "both"))
    p.add_argument("--shots", type=int)
    p.add_argument("--depol-p", dest="depolarizing_p", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", type=str)
    p.add_argument("--tau", type=float)
    p.add_argument("--eps-dco", dest="eps_dco", type=float)


def build_config(args: argparse.Namespace) -> SweepConfig:
    values: dict = {}
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        known = {f.name for f in fields(SweepConfig)}
        unknown = set(loaded) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        values.update(loaded)
    for f in fields(SweepConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    if "n_list" not in values:
        raise ConfigError("no charger counts given (use --n or a config file)")
    try:
        return SweepConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _require_out(config: SweepConfig) -> str:
    if config.out is None:
        raise ConfigError("an output path is required (--out)")
    return config.out


def _cmd_sweep(config: SweepConfig) -> None:
    rows = sweep_rows(config)
    names = ROW_FIELDS + (("max_engine_dev",) if config.engine == "both" else ())
    write_csv(_require_out(config), names, rows)


def _cmd_bursts(config: SweepConfig) -> None:
    report = burst_report(config)
    Path(_require_out(config)).write_text(json.dumps(report, indent=2) + "\n")


def _cmd_export(config: SweepConfig) -> None:
    export_circuits(config, _require_out(config))


def _cmd_noise(config: SweepConfig) -> None:
    rows, shot_rows = noise_study_rows(config)
    out = Path(_require_out(config))
    write_csv(out, ("t", "theta", "phi", "shots", "seed", "E_ideal", "P_ico_ideal",
                    "E_hat", "se_E", "P_hat", "se_P", "overestimates_E"), rows)
    write_csv(out.with_name(out.stem + "_shots.csv"),
              ("t", "theta", "phi", "shots", "seed", "c_pg", "c_pe", "c_mg", "c_me"),
              shot_rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="icobattery",
        description="Cyclic indefinite-causal-order battery charging toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("sweep", _cmd_sweep), ("bursts", _cmd_bursts),
                     ("export-circuits", _cmd_export), ("noise-study", _cmd_noise)):
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        config = build_config(args)
        args.fn(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
