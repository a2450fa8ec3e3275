"""Command-line tool: parameter sweeps, burst reports, circuit export, noise studies.

Commands: sweep, bursts, export-circuits, noise-study.  Configuration comes
from an optional JSON file (--config) mirroring SweepConfig, with CLI flags
taking precedence.  Exit codes: 0 success, 2 configuration error, 3 invariant
violation detected during the run.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import tolerances as tol
from .analytic import closed_form_grid, dco_zero_window
from .circuit import (OUTCOME_KEYS, NoiseSpec, _ico_gates, angles_of_time, estimate_counts,
                      ico_sample)
from .model import CHUNK_AMPLITUDES, ModelParams
from .protocol import run_ico_grid
from .qasm import emit_qasm_grid
from .thermo import python_values, report_grid

ROW_FIELDS = ("N", "t", "E", "W_ico", "P_ico", "W_dco", "P_dco", "p1",
              "passive_k1", "passive_dco")

BOOTSTRAP_RESAMPLES = 200
# Grid points whose resamples are scored per estimate_counts call.
BOOTSTRAP_CHUNK = max(1, CHUNK_AMPLITUDES // (4 * BOOTSTRAP_RESAMPLES))

# Largest charger count accepted.  One grid point of the numeric engine holds
# N(N+1) complex amplitudes, 16 MB at this N.
MAX_CHARGERS = 1000

# Largest number of output rows (points x charger counts) accepted.  A sweep
# holds the columns of every N until all are done; here it peaks at 278 MB
# (--engine numeric) or 271 MB (--engine both) of resident memory.
MAX_ROWS = 1_000_000

# Rows, or exported circuits, formatted and written per block: bounds memory.
WRITE_BLOCK = 1 << 14

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


def _disagreement(n: int, num: dict, ana: dict, masks, devs: dict, i: int) -> str:
    """The message for time i, from the masks of _engine_deviation: the first
    efficiency only one engine defines, else the first passivity flag that
    differs, else the largest deviation beyond its bound."""
    where = f"N={n}, t={float(num['t'][i])!r}"
    undefined, flags, beyond = ([k for k, bad in m.items() if bad[i]] for m in masks)
    if undefined:
        k = undefined[0]
        numeric, analytic = (python_values(cols[k][i:i + 1])[0] for cols in (num, ana))
        return (f"engines disagree on whether {k} is defined at {where}: "
                f"numeric {numeric!r}, analytic {analytic!r}")
    if flags:
        k = flags[0]
        return f"engines disagree on {k} at {where}: numeric {num[k][i]}, analytic {ana[k][i]}"
    worst = max(beyond, key=lambda k: float(devs[k][i]))
    return f"engines disagree on {worst} by {float(devs[worst][i]):g} at {where}"


def _engine_deviation(n: int, num: dict, ana: dict) -> np.ndarray:
    """Largest deviation between the numeric and analytic columns of one N,
    per time.  E, W and p1 must agree within ENGINE_AGREE_ATOL, and P = W/E
    within ATOL (1 + |P_ana|) / E_num, which that agreement implies since
    P_num - P_ana = (dW - P_ana dE) / E_num.  Raises InvariantViolation at
    the first failing time in grid order (see _disagreement)."""
    atol = tol.ENGINE_AGREE_ATOL
    devs = {k: np.abs(num[k] - ana[k]) for k in ("E", "W_ico", "W_dco", "p1", "P_ico", "P_dco")}
    bounds = dict.fromkeys(devs, atol)
    for k in ("P_ico", "P_dco"):
        defined = ~np.isnan(num[k])
        devs[k] = np.where(defined, devs[k], 0.0)
        bounds[k] = np.divide(atol * (1.0 + np.abs(ana[k])), num["E"],
                              out=np.full_like(num["E"], np.inf), where=defined)
    masks = ({k: np.isnan(num[k]) != np.isnan(ana[k]) for k in ("P_ico", "P_dco")},
                  {k: num[k] != ana[k] for k in ("passive_k1", "passive_dco")},
                  {k: ~(dev <= bounds[k]) for k, dev in devs.items()})
    fails = functools.reduce(np.logical_or, (bad for m in masks for bad in m.values()))
    if fails.any():
        raise InvariantViolation(_disagreement(n, num, ana, masks, devs, int(np.argmax(fails))))
    return functools.reduce(np.maximum, devs.values())


def _sweep_columns(config: SweepConfig):
    """Yield (N, columns) for every N in order: the analytic engine's
    columns with --engine analytic, else the numeric engine's, plus the
    max_engine_dev column with --engine both (see _engine_deviation)."""
    grid = config.time_grid()
    for n in config.n_list:
        params = config.params(n)
        if config.engine == "analytic":
            yield n, closed_form_grid(params, grid)
            continue
        states = run_ico_grid(params, grid)
        cols = {"t": states.t, "p1": states.p1, **report_grid(states, params)}
        if config.engine == "both":
            cols["max_engine_dev"] = _engine_deviation(n, cols, closed_form_grid(params, grid))
        yield n, cols


def _cells(column) -> list[str]:
    """The CSV cells of a column: floats by repr with NaN as an empty cell,
    bools as true/false, anything else (ints, strings) by str."""
    column = np.asarray(column)
    kind, values = column.dtype.kind, column.tolist()
    if kind == "b":
        return list(map(("false", "true").__getitem__, values))
    if kind != "f":
        return list(map(str, values))
    cells = list(map(float.__repr__, values))
    for i in np.flatnonzero(np.isnan(column)).tolist():
        cells[i] = ""
    return cells


def write_csv(path, fieldnames, columns) -> None:
    """Write the columns named `fieldnames`, from the mapping `columns` of
    equal-length arrays or lists, as CSV rows; each column's cells are
    formatted (see _cells) and written WRITE_BLOCK rows at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        for lo in range(0, len(columns[fieldnames[0]]), WRITE_BLOCK):
            writer.writerows(zip(*(_cells(columns[k][lo:lo + WRITE_BLOCK]) for k in fieldnames)))


def burst_report(config: SweepConfig) -> dict:
    """Per-N burst intervals (maximal grid runs with P_dco <= eps and
    P_ico >= tau), the analytic first-window length t*, and a strict-growth
    verdict for t* across n_list."""
    grid = config.time_grid()
    per_n = {}
    t_stars = []
    for n, cols in _sweep_columns(config):
        hits = (cols["P_dco"] <= config.eps_dco) & (cols["P_ico"] >= config.tau)  # NaN: no hit
        edges = np.flatnonzero(np.diff(hits, prepend=False, append=False))
        intervals = [[float(grid[i]), float(grid[j - 1])] for i, j in zip(edges[::2], edges[1::2])]
        t_star = dco_zero_window(config.params(n))
        t_stars.append(t_star)
        per_n[str(n)] = {"intervals": intervals,
                         "total_burst_duration": float(sum(b - a for a, b in intervals)),
                         "t_star": t_star}
    increasing = all(b > a for a, b in zip(t_stars, t_stars[1:]))
    return {"tau": config.tau, "eps_dco": config.eps_dco, "per_n": per_n,
            "monotonicity_verdict": "pass" if increasing else "fail"}


MANIFEST_FIELDS = ("t", "theta", "phi", "filename")


def export_circuits(config: SweepConfig, out_dir) -> dict:
    """One QASM file per grid point, WRITE_BLOCK points per emit_qasm_grid
    call, plus a manifest mapping t to (theta, phi, filename), whose columns
    are returned.  Only the two-charger circuit exists."""
    if config.n_list != [2]:
        raise ConfigError(f"circuit export supports N=2 only, got n_list={config.n_list}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = config.time_grid()
    thetas, phis = angles_of_time(config.params(2), grid)
    names = [f"ico_n2_t{i}.qasm" for i in range(len(grid))]
    for lo in range(0, len(grid), WRITE_BLOCK):
        block = slice(lo, lo + WRITE_BLOCK)
        texts = emit_qasm_grid(_ico_gates(thetas[block], phis[block]), len(names[block]))
        for name, text in zip(names[block], texts):
            (out_dir / name).write_text(text)
    manifest = {"t": grid, "theta": thetas, "phi": phis, "filename": names}
    write_csv(out_dir / "manifest.csv", MANIFEST_FIELDS, manifest)
    return manifest


def _bootstrap_p_se(counts: np.ndarray, shots: int, rngs) -> list[float | None]:
    """Standard error of the efficiency estimate by multinomial resampling,
    for each row of an (R, 4) count array, row r resampled with the r-th
    generator of the iterable `rngs`; None where fewer than two resamples
    define an efficiency.  The resamples of BOOTSTRAP_CHUNK rows at a time
    are scored in one estimate_counts call."""
    rngs, se = iter(rngs), []
    for lo in range(0, len(counts), BOOTSTRAP_CHUNK):
        part = counts[lo:lo + BOOTSTRAP_CHUNK]
        draws = np.concatenate([rng.multinomial(shots, c / shots, size=BOOTSTRAP_RESAMPLES)
                                for c, rng in zip(part, rngs)])
        p = estimate_counts(draws, shots).P.reshape(len(part), BOOTSTRAP_RESAMPLES)
        se += [float(np.std(v)) if len(v) > 1 else None for v in (r[~np.isnan(r)] for r in p)]
    return se


NOISE_FIELDS = ("t", "theta", "phi", "shots", "seed", "E_ideal", "P_ico_ideal",
                "E_hat", "se_E", "P_hat", "se_P", "overestimates_E")
SHOT_FIELDS = ("t", "theta", "phi", "shots", "seed", "c_pg", "c_pe", "c_mg", "c_me")


def noise_study_rows(config: SweepConfig) -> dict[str, np.ndarray]:
    """Ideal vs shot-sampled noisy estimates per grid point, as the columns
    of NOISE_FIELDS (the analysis) and SHOT_FIELDS (the raw shot counts).
    Sampling seed for grid index i is seed + i, so runs are reproducible
    point by point."""
    if config.n_list != [2]:
        raise ConfigError(f"noise study supports N=2 only, got n_list={config.n_list}")
    if config.shots is None or config.depolarizing_p is None:
        raise ConfigError("noise study requires both shots and depolarizing_p")
    params = config.params(2)
    grid = config.time_grid()
    thetas, phis = angles_of_time(params, grid)
    seeds = list(range(config.seed, config.seed + len(grid)))
    results = ico_sample(thetas, phis, NoiseSpec(config.depolarizing_p), config.shots, seeds)
    counts = np.array([[r.counts[k] for k in OUTCOME_KEYS] for r in results])
    est, ideal = estimate_counts(counts, config.shots), closed_form_grid(params, grid)
    se_p = _bootstrap_p_se(counts, config.shots, (np.random.default_rng(s + 10**9) for s in seeds))
    return {"t": grid, "theta": thetas, "phi": phis, "shots": np.full(len(grid), config.shots),
            "seed": np.array(seeds), "E_ideal": ideal["E"], "P_ico_ideal": ideal["P_ico"],
            "E_hat": est.E, "se_E": np.sqrt(np.maximum(est.E * (1 - est.E), 0.0) / config.shots),
            "P_hat": est.P, "se_P": np.array(se_p, dtype=float),
            "overestimates_E": est.E > ideal["E"], **dict(zip(SHOT_FIELDS[5:], counts.T))}


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
    names = ROW_FIELDS + (("max_engine_dev",) if config.engine == "both" else ())
    # all N are computed and checked before a byte is written; pop frees each part once joined
    parts = [{"N": np.full(len(cols["t"]), n), **cols} for n, cols in _sweep_columns(config)]
    write_csv(_require_out(config), names,
              {k: np.concatenate([part.pop(k) for part in parts]) for k in names})


def _cmd_bursts(config: SweepConfig) -> None:
    report = burst_report(config)
    Path(_require_out(config)).write_text(json.dumps(report, indent=2) + "\n")


def _cmd_export(config: SweepConfig) -> None:
    export_circuits(config, _require_out(config))


def _cmd_noise(config: SweepConfig) -> None:
    cols = noise_study_rows(config)
    out = Path(_require_out(config))
    write_csv(out, NOISE_FIELDS, cols)
    write_csv(out.with_name(out.stem + "_shots.csv"), SHOT_FIELDS, cols)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then reused:
    parse_args leaves it as it was and returns a new namespace each time."""
    parser = argparse.ArgumentParser(
        prog="icobattery",
        description="Cyclic indefinite-causal-order battery charging toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("sweep", _cmd_sweep), ("bursts", _cmd_bursts),
                     ("export-circuits", _cmd_export), ("noise-study", _cmd_noise)):
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
