"""Command-line tool: parameter sweeps, burst reports, circuit export, noise studies.

Commands: sweep, bursts, export-circuits, noise-study.  Configuration comes
from an optional JSON file (--config) mirroring SweepConfig, with CLI flags
taking precedence.  Exit codes: 0 success, 2 configuration error, 3 invariant
violation detected during the run.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import re
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import tolerances as tol
from .analytic import _t_star, closed_form_sweep
from .model import CHUNK_AMPLITUDES, ModelParams, check_model
from .thermo import numeric_sweep, python_values
# circuit, qasm and json are imported where they run: a sweep loads none of them.

ROW_FIELDS = ("N", "t", "E", "W_ico", "P_ico", "W_dco", "P_dco", "p1",
              "passive_k1", "passive_dco")

BOOTSTRAP_RESAMPLES = 200
# Grid points whose resamples are scored per estimate_counts call.
BOOTSTRAP_CHUNK = max(1, CHUNK_AMPLITUDES // (4 * BOOTSTRAP_RESAMPLES))

# Largest charger count accepted.  One grid point of the numeric engine holds
# N(N+1) complex amplitudes, 16 MB at this N.
MAX_CHARGERS = 1000

# Largest number of output rows (points x charger counts) accepted.  A sweep
# holds its output columns of every row until all batches are checked.
# `sweep --n 2,3,4,5 --points 250000` peaks at 137.0 MiB of resident memory
# with --engine both, 121.2 MiB with --engine numeric and 119.4 MiB with
# --engine analytic, in 9.4, 9.8 and 8.0 s: ru_maxrss of a fresh process and
# the fastest time around main, of 3 runs each (Python 3.11, numpy 2.4, a
# shared 2-vCPU x86-64 host; peaks within 0.2 MiB, times up to 1.8x slower).
MAX_ROWS = 1_000_000

# Largest numeric-engine work accepted with --engine numeric or both, in
# amplitude-steps: points x the sum of N(N+1) over n_list.  `sweep --engine
# numeric` took 18-29 ns a step at N = 50, 100 and 200, 34-47 ns at N = 300
# and 1000, and 70-80 ns at N = 600 (best of 3 around main, 1e7-3e7 steps
# each; Python 3.11, numpy 2.4, a shared 2-vCPU x86-64 host with AVX-512).  At
# the cap that is 3-13 minutes, about 7 at NS_PER_STEP, the rate of the largest
# canonical command, `sweep --n 2,200,1000 --points 30` (3.1e7 steps).
MAX_NUMERIC_WORK = 10 ** 10
NS_PER_STEP = 40

# Rows computed per batch (whole grids of consecutive charger counts, or a
# block of consecutive times of one N), and rows or exported circuits
# formatted and written per block: bounds memory.
WRITE_BLOCK = 1 << 14

# Largest phase omega*t_max or omega*lambda*t_max accepted with --engine both.
# The two engines round these phases differently, by about 1e-16 of their
# size, and beyond about 1e7 they disagree by more than ENGINE_AGREE_ATOL.
MAX_BOTH_PHASE = 2e6

# Largest shot count accepted: Generator.multinomial draws int64 counts.
MAX_SHOTS = int(np.iinfo(np.int64).max)


class ConfigError(Exception):
    pass


class InvariantViolation(Exception):
    pass


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)     # exact for an int


def _duration(steps: int) -> str:
    """The time of `steps` amplitude-steps at NS_PER_STEP, in minutes or hours."""
    seconds = steps * NS_PER_STEP * 1e-9
    return f"{seconds / 3600:.1f} hours" if seconds >= 3600 else f"{seconds / 60:.0f} minutes"


@dataclass
class SweepConfig:
    """The settings of one command; a config file holds a subset of these fields."""
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
        if not isinstance(self.n_list, list):
            raise ConfigError(f"n_list must be a list of charger counts, "
                              f"got {type(self.n_list).__name__}")
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
            if not (_is_finite(value) or name == "t_max" and value is None):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if self.t_max is None:      # 0 where omega*lambda = 0, which check_model rejects first
            self.t_max = 4 * math.pi / (self.omega * self.coupling or math.inf)
        try:
            check_model(self.omega, self.coupling, times=(self.t_min, self.t_max))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not self.t_min < self.t_max:
            raise ConfigError(f"need t_min < t_max, got [{self.t_min}, {self.t_max}]")
        if not (_is_int(self.points) and self.points >= 2):
            raise ConfigError(f"need an integer number of grid points >= 2, got {self.points!r}")
        if self.points * len(self.n_list) > MAX_ROWS:
            raise ConfigError(f"points x charger counts = {self.points * len(self.n_list)} "
                              f"exceeds the row limit {MAX_ROWS}")
        work = self.points * sum(n * (n + 1) for n in self.n_list)
        if self.engine != "analytic" and work > MAX_NUMERIC_WORK:
            raise ConfigError(f"points x sum N(N+1) = {work:.6g} amplitude-steps of the numeric "
                              f"engine exceed the limit {MAX_NUMERIC_WORK:.0e}: about "
                              f"{_duration(work)} at {NS_PER_STEP} ns a step, against "
                              f"{_duration(MAX_NUMERIC_WORK)} at the limit; lower --points or "
                              f"the largest N, or use --engine analytic")
        if self.shots is not None and not (_is_int(self.shots) and 1 <= self.shots <= MAX_SHOTS):
            raise ConfigError(f"shots must be an integer in [1, {MAX_SHOTS}], got {self.shots!r}")
        if self.depolarizing_p is not None and not (
                _is_finite(self.depolarizing_p) and 0.0 <= self.depolarizing_p <= 1.0):
            raise ConfigError(f"depolarizing_p must lie in [0, 1], got {self.depolarizing_p!r}")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")

    def time_grid(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.points)


def _disagreement(num: dict, ana: dict, masks, devs: dict, i: int) -> str:
    """The message for row i, from the masks of _engine_deviation: the first
    efficiency only one engine defines, else the first passivity flag that
    differs, else the largest deviation beyond its bound."""
    where = f"N={int(num['N'][i])}, t={float(num['t'][i])!r}"
    undefined, flags, beyond = ([k for k, bad in m.items() if bad[i]] for m in masks)
    if undefined:
        k = undefined[0]
        numeric, analytic = (python_values(cols[k][i:i + 1])[0] for cols in (num, ana))
        return (f"engines disagree on whether {k} is defined at {where}: "
                f"numeric {numeric!r}, analytic {analytic!r}")
    if flags:
        k = flags[0]
        return f"engines disagree on {k} at {where}: numeric {num[k][i]}, analytic {ana[k][i]}"
    worst = max(beyond, key=lambda k: (k != "E_dco", float(devs[k][i])))    # E_dco if alone
    return f"engines disagree on {worst} by {float(devs[worst][i]):g} at {where}"


def _engine_deviation(num: dict, ana: dict) -> np.ndarray:
    """Largest deviation between the numeric and analytic columns, per row;
    the numeric columns name each row's N.  E, W and p1 must agree within
    ENGINE_AGREE_ATOL, and so must the numeric E_dco with the analytic E (the
    two protocols store the same energy).  P = W/E must agree within
    ATOL (1 + |P_ana|) / E_num, which that agreement implies since
    P_num - P_ana = (dW - P_ana dE) / E_num.  A passivity flag may differ only
    where the closed form's margin (gnd - exc = 2 (1 - E) - p1, gnd - 1/2 = 1/2 - E)
    ties within ATOL, as the numeric flag tests an ergotropy against PASSIVITY_ATOL.
    Raises InvariantViolation at the first failing row (see _disagreement; E_dco
    is named there only when no other check fails on the row)."""
    atol = tol.ENGINE_AGREE_ATOL
    devs = {k: np.abs(num[k] - ana[k]) for k in ("E", "W_ico", "W_dco", "p1", "P_ico", "P_dco")}
    devs["E_dco"] = np.abs(num["E_dco"] - ana["E"])
    bounds = dict.fromkeys(devs, atol)
    for k in ("P_ico", "P_dco"):
        defined = ~np.isnan(num[k])
        devs[k] = np.where(defined, devs[k], 0.0)
        bound = np.empty_like(num["E"])
        bound.fill(np.inf)
        bounds[k] = np.divide(atol * (1.0 + np.abs(ana[k])), num["E"], out=bound, where=defined)
    margins = {"passive_k1": 2 * (1 - ana["E"]) - ana["p1"], "passive_dco": 0.5 - ana["E"]}
    masks = ({k: np.isnan(num[k]) != np.isnan(ana[k]) for k in ("P_ico", "P_dco")},
                  {k: (num[k] != ana[k]) & (np.abs(m) > atol) for k, m in margins.items()},
                  {k: ~(dev <= bounds[k]) for k, dev in devs.items()})
    fails = functools.reduce(np.logical_or, (bad for m in masks for bad in m.values()))
    if fails.any():
        raise InvariantViolation(_disagreement(num, ana, masks, devs, int(np.argmax(fails))))
    return functools.reduce(np.maximum, devs.values())


def _sweep_columns(config: SweepConfig):
    """Yield the columns of every row (N, t), grouped by N in n_list order,
    in batches of at most WRITE_BLOCK rows: whole grids of consecutive
    charger counts, or, where a grid is longer, a block of consecutive times
    of one N.  The columns are N and the analytic engine's with --engine
    analytic, else N, the numeric engine's and, with --engine both,
    max_engine_dev (see _engine_deviation); there a phase beyond
    MAX_BOTH_PHASE is a ConfigError raised before any engine runs."""
    phase = max(1.0, config.coupling) * config.omega * config.t_max
    if config.engine == "both" and phase > MAX_BOTH_PHASE:
        raise ConfigError(f"phase max(omega, omega*lambda)*t_max = {phase:g} exceeds "
                          f"{MAX_BOTH_PHASE:g}, beyond which the engines cannot agree "
                          f"within {tol.ENGINE_AGREE_ATOL:g}; lower t_max or pick one engine")
    engine = closed_form_sweep if config.engine == "analytic" else numeric_sweep
    grid = config.time_grid()
    per_batch = max(1, WRITE_BLOCK // len(grid))
    for lo in range(0, len(config.n_list), per_batch):
        ns = config.n_list[lo:lo + per_batch]
        for t_lo in range(0, len(grid), WRITE_BLOCK):
            times = grid[t_lo:t_lo + WRITE_BLOCK]
            cols = {"N": np.array(ns).repeat(len(times)),
                    **engine(config.omega, config.coupling, ns, times)}
            if config.engine == "both":
                cols["max_engine_dev"] = _engine_deviation(
                    cols, closed_form_sweep(config.omega, config.coupling, ns, times))
            yield cols


def _cells(column) -> list[str]:
    """The CSV cells of a column: a list is its cells, already formatted;
    in an array, floats by repr with NaN as an empty cell, bools as
    true/false, ints, strings and objects by str."""
    if isinstance(column, list):
        return column
    column = np.asarray(column)
    kind, values = column.dtype.kind, column.tolist()
    if kind == "b":
        return list(map(("false", "true").__getitem__, values))
    if kind != "f":
        return list(map(str, values))
    cells = list(map(float.__repr__, values))
    if math.isnan(sum(values)):     # some cell is NaN
        for i in np.isnan(column).nonzero()[0].tolist():
            cells[i] = ""
    return cells


_QUOTABLE = re.compile('[,"\r\n]')


def _write(path, pieces) -> None:
    """Write the strings of the iterable `pieces` to the file `path` as they
    are (newline=""): the one place an output file is opened.  An OSError
    that names no file, as ENOSPC or EIO at write or at close does, is given
    `path`, so that main reports the file that failed."""
    try:
        with open(path, "w", newline="") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        if exc.filename is None:
            exc.filename = path
        raise


def write_csv(path, fieldnames, columns) -> None:
    """Write the columns named `fieldnames` of the mapping `columns` as CSV
    rows, WRITE_BLOCK rows at a time.  A column is an array, whose cells
    _cells formats, or a list of str cells, written as they are.  Nothing is
    quoted: a field name or string cell with a comma, quote or line break, or
    a single column (whose empty cell reads back as no row), raises
    ValueError naming the column before the file is opened."""
    if len(fieldnames) < 2:
        raise ValueError(f"a CSV file needs at least two columns, got {list(fieldnames)}")
    for name in fieldnames:
        strings = columns[name]
        if not isinstance(strings, list):
            column = np.asarray(strings)
            strings = column.astype(str).tolist() if column.dtype.kind in "OSU" else []
        # one search per block of cells, so no text of every row is built
        if _QUOTABLE.search(name) or any(_QUOTABLE.search("".join(strings[lo:lo + WRITE_BLOCK]))
                                         for lo in range(0, len(strings), WRITE_BLOCK)):
            raise ValueError(f"column {name!r}: its name or a string cell holds a comma, "
                             f"a quote or a line break")

    def texts():        # formatted as written: one block of rows in memory
        yield ",".join(fieldnames) + "\n"
        for lo in range(0, len(columns[fieldnames[0]]), WRITE_BLOCK):
            cells = [_cells(columns[k][lo:lo + WRITE_BLOCK]) for k in fieldnames]
            yield "\n".join(map(",".join, zip(*cells))) + "\n"
    _write(path, texts())


def burst_report(config: SweepConfig) -> dict:
    """Per-N burst intervals (maximal grid runs with P_dco <= eps and
    P_ico >= tau), the analytic first-window length t*, and a strict-growth
    verdict for t* across n_list.  The hits of every batch are joined first,
    so a run that crosses a batch boundary is one interval.  A t* beyond the
    float range is a ConfigError raised before any engine runs."""
    t_stars = [_t_star(n, config.omega, config.coupling) for n in config.n_list]
    for n, t_star in zip(config.n_list, t_stars):
        if not math.isfinite(t_star):
            raise ConfigError(f"t* of N={n} overflows at omega*lambda = "
                              f"{config.omega * config.coupling!r}; raise omega or lambda")
    grid = config.time_grid()
    hits = np.concatenate([(cols["P_dco"] <= config.eps_dco) & (cols["P_ico"] >= config.tau)
                           for cols in _sweep_columns(config)])     # NaN: no hit
    # each N's edges alternate: a run's first hit, then one past its last
    row, edge = np.nonzero(np.diff(hits.reshape(len(config.n_list), -1), axis=1,
                                   prepend=False, append=False))
    found = [[] for _ in config.n_list]
    for k, a, b in zip(row[::2].tolist(), grid[edge[::2]].tolist(),
                       grid[edge[1::2] - 1].tolist()):
        found[k].append([a, b])
    per_n = {}
    for n, intervals, t_star in zip(config.n_list, found, t_stars):
        per_n[str(n)] = {"intervals": intervals,
                         "total_burst_duration": float(sum(b - a for a, b in intervals)),
                         "t_star": t_star}
    increasing = all(b > a for a, b in zip(t_stars, t_stars[1:]))
    return {"tau": config.tau, "eps_dco": config.eps_dco, "per_n": per_n,
            "monotonicity_verdict": "pass" if increasing else "fail"}


MANIFEST_FIELDS = ("t", "theta", "phi", "filename")


def _circuit_grid(config: SweepConfig, task: str):
    """The time grid and its angles theta, phi; only the two-charger circuit exists."""
    from .circuit import angles_of_time
    if config.n_list != [2]:
        raise ConfigError(f"{task} supports N=2 only, got n_list={config.n_list}")
    grid = config.time_grid()
    return (grid, *angles_of_time(ModelParams(2, config.omega, config.coupling), grid))


def export_circuits(config: SweepConfig, out_dir) -> dict:
    """One QASM file per grid point, WRITE_BLOCK points per emit_qasm_grid
    call, plus a manifest mapping t to (theta, phi, filename), whose columns
    are returned.  QASM files of points past this grid are removed first."""
    from . import circuit, qasm
    grid, thetas, phis = _circuit_grid(config, "circuit export")
    os.makedirs(out_dir, exist_ok=True)
    for name in os.listdir(out_dir):     # the names given below, for i >= len(grid)
        stale = re.fullmatch(r"ico_n2_t(0|[1-9][0-9]*)\.qasm", name)
        if stale and int(stale[1]) >= len(grid):
            os.remove(os.path.join(out_dir, name))
    names = [f"ico_n2_t{i}.qasm" for i in range(len(grid))]
    for lo in range(0, len(grid), WRITE_BLOCK):
        block = slice(lo, lo + WRITE_BLOCK)
        angles = circuit._ico_angles(thetas[block], phis[block])
        texts = qasm.emit_qasm_grid(circuit._ICO_TEMPLATE, angles, len(names[block]))
        for name, text in zip(names[block], texts):
            _write(os.path.join(out_dir, name), [text])
    manifest = {"t": grid, "theta": thetas, "phi": phis, "filename": names}
    write_csv(os.path.join(out_dir, "manifest.csv"), MANIFEST_FIELDS, manifest)
    return manifest


def _bootstrap_p_se(counts: np.ndarray, shots: int, rngs) -> list[float | None]:
    """Standard error of the efficiency estimate by multinomial resampling,
    for each row of an (R, 4) count array, row r resampled with the r-th
    generator of the iterable `rngs`; None where fewer than two resamples
    define an efficiency.  The resamples of BOOTSTRAP_CHUNK rows at a time
    are scored in one estimate_counts call, and the spread of every row of
    the chunk whose resamples all define P is taken in one np.std call."""
    from . import circuit
    rngs, se = iter(rngs), []
    for lo in range(0, len(counts), BOOTSTRAP_CHUNK):
        part = counts[lo:lo + BOOTSTRAP_CHUNK]
        draws = np.concatenate([rng.multinomial(shots, c / shots, size=BOOTSTRAP_RESAMPLES)
                                for c, rng in zip(part, rngs)])
        p = circuit.estimate_counts(draws, shots)["P"].reshape(len(part), BOOTSTRAP_RESAMPLES)
        full = ~np.isnan(p).any(axis=1)
        spread = iter(np.std(p[full], axis=1).tolist())
        for row, all_defined in zip(p, full.tolist()):
            if all_defined:
                se.append(next(spread))
            else:
                v = row[~np.isnan(row)]
                se.append(float(np.std(v)) if len(v) > 1 else None)
    return se


NOISE_FIELDS = ("t", "theta", "phi", "shots", "seed", "E_ideal", "P_ico_ideal",
                "E_hat", "se_E", "P_hat", "se_P", "overestimates_E")
SHOT_FIELDS = ("t", "theta", "phi", "shots", "seed", "c_pg", "c_pe", "c_mg", "c_me")


def noise_study_rows(config: SweepConfig) -> dict[str, np.ndarray]:
    """Ideal vs shot-sampled noisy estimates per grid point, as the columns
    of NOISE_FIELDS (the analysis) and SHOT_FIELDS (the raw shot counts).
    Sampling seed for grid index i is seed + i, so runs are reproducible
    point by point."""
    from . import circuit
    grid, thetas, phis = _circuit_grid(config, "noise study")
    if config.shots is None or config.depolarizing_p is None:
        raise ConfigError("noise study requires both shots and depolarizing_p")
    seeds = list(range(config.seed, config.seed + len(grid)))
    counts = circuit.ico_counts(thetas, phis, config.depolarizing_p, config.shots, seeds)
    est = circuit.estimate_counts(counts, config.shots)
    ideal = closed_form_sweep(config.omega, config.coupling, [2], grid)
    se_p = _bootstrap_p_se(counts, config.shots, (np.random.default_rng(s + 10**9) for s in seeds))
    return {"t": grid, "theta": thetas, "phi": phis, "shots": np.full(len(grid), config.shots),
            # Python ints: a range past 2**63 would make a numpy int column float64
            "seed": np.array(seeds, dtype=object),
            "E_ideal": ideal["E"], "P_ico_ideal": ideal["P_ico"],
            "E_hat": est["E"], "se_E": np.sqrt(np.maximum(est["E"] * (1 - est["E"]), 0.0)
                                               / config.shots),
            "P_hat": est["P"], "se_P": np.array(se_p, dtype=float),
            "overestimates_E": est["E"] > ideal["E"], **dict(zip(SHOT_FIELDS[5:], counts.T))}


# --- argument handling -------------------------------------------------------

def _charger_counts(text: str) -> list[int]:
    """The value of --n: comma-separated charger counts, e.g. 2,3,4,5."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers such as "
                                         f"2,3,4,5, got {text!r}") from None


# The flags every command reads, with their add_argument options.
_COMMON_FLAGS = (
    ("--config", dict(type=Path, help="JSON file mirroring SweepConfig")),
    ("--n", dict(dest="n_list", type=_charger_counts,
                 help="comma-separated charger counts, e.g. 2,3,4,5")),
    ("--omega", dict(type=float)),
    ("--lambda", dict(dest="coupling", type=float)),
    ("--t-min", dict(dest="t_min", type=float)),
    ("--t-max", dict(dest="t_max", type=float)),
    ("--points", dict(type=int)),
    ("--out", dict(type=str)),
)

# The flags that only some commands read (see _COMMANDS).
_OWN_FLAGS = {
    "--engine": dict(choices=("numeric", "analytic", "both")),
    "--tau": dict(type=float),
    "--eps-dco": dict(dest="eps_dco", type=float),
    "--shots": dict(type=int),
    "--depol-p": dict(dest="depolarizing_p", type=float),
    "--seed": dict(type=int),
}

# Every key a config file may hold, whichever command reads it.
_CONFIG_KEYS = tuple(f.name for f in fields(SweepConfig))


def build_config(args: argparse.Namespace) -> SweepConfig:
    values: dict = {}
    if args.config is not None:
        import json
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:     # ValueError: not UTF-8, or not JSON
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file must hold a JSON object, got {type(loaded).__name__}")
        unknown = set(loaded).difference(_CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        values.update(loaded)
    # a command's namespace holds only its own flags (see _parser)
    flags = {key: getattr(args, key, None) for key in _CONFIG_KEYS}
    values.update({key: flag for key, flag in flags.items() if flag is not None})
    if "n_list" not in values:
        raise ConfigError("no charger counts given (use --n or a config file)")
    try:
        return SweepConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _require_out(config: SweepConfig, directory: bool = False, shots: bool = False) -> str:
    """The output path, checked before anything is computed: a non-empty
    string whose parent directory exists, naming a directory (an existing
    one or a new name) when `directory` is set, else a file (not a directory
    and not ending in a separator).  With `shots`, the shot-count file
    beside it (see _shots_path) must not be a directory either."""
    out = config.out
    if out is None:
        raise ConfigError("an output path is required (--out)")
    if not (isinstance(out, str) and out):
        raise ConfigError(f"out must be a non-empty path, got {out!r}")
    if "\0" in out:
        raise ConfigError(f"output path {out!r} holds a NUL byte")
    # the directory that holds the target; "a/b/" names the directory b in a
    parent = os.path.dirname(out.rstrip(os.sep) or os.sep) or os.curdir
    if not os.path.isdir(parent):
        raise ConfigError(f"output path {out!r}: directory {parent!r} does not exist")
    if directory and os.path.exists(out) and not os.path.isdir(out):
        raise ConfigError(f"output path {out!r} exists and is not a directory")
    if not directory and (os.path.isdir(out) or out.endswith(os.sep)):
        raise ConfigError(f"output path {out!r} is a directory, not a file")
    if shots and os.path.isdir(_shots_path(out)):
        raise ConfigError(f"shot-count path {_shots_path(out)!r} beside output path {out!r} "
                          f"is a directory, not a file")
    return out


def _shots_path(out: str) -> str:
    """noise-study's shot-count file beside the output file `out`: <stem>_shots.csv."""
    path = Path(out)
    return str(path.with_name(path.stem + "_shots.csv"))


def _cmd_sweep(config: SweepConfig) -> None:
    out = _require_out(config)
    names = ROW_FIELDS + (("max_engine_dev",) if config.engine == "both" else ())
    # every batch is computed and checked into columns of all rows before a
    # byte is written; a lone batch's columns are those of all rows
    rows = config.points * len(config.n_list)
    columns, lo = {}, 0
    for cols in _sweep_columns(config):
        if len(cols["N"]) == rows:
            columns = cols
            continue
        for k in names:
            if lo == 0:
                columns[k] = np.empty(rows, cols[k].dtype)
            columns[k][lo:lo + len(cols[k])] = cols[k]
        lo += len(cols["N"])
    # The rows are n_list x grid, grouped by N (see _sweep_columns): each N is
    # formatted once, and so is each t of a grid that fits in a batch.  A
    # longer grid's batches hold one N each, so its times repeat only across
    # batches; they are formatted as they are written, as holding their cells
    # would take about 70 bytes a point.
    columns["N"] = list(itertools.chain.from_iterable([str(n)] * config.points
                                                      for n in config.n_list))
    if config.points <= WRITE_BLOCK:
        columns["t"] = _cells(columns["t"][:config.points]) * len(config.n_list)
    write_csv(out, names, columns)


def _cmd_bursts(config: SweepConfig) -> None:
    import json
    _write(_require_out(config), [json.dumps(burst_report(config), indent=2), "\n"])


def _cmd_export(config: SweepConfig) -> None:
    export_circuits(config, _require_out(config, directory=True))


def _cmd_noise(config: SweepConfig) -> None:
    out = _require_out(config, shots=True)
    cols = noise_study_rows(config)
    write_csv(out, NOISE_FIELDS, cols)
    write_csv(_shots_path(out), SHOT_FIELDS, cols)


# Each command's function and the flags of _OWN_FLAGS it reads.
_COMMANDS = {"sweep": (_cmd_sweep, ("--engine",)),
             "bursts": (_cmd_bursts, ("--engine", "--tau", "--eps-dco")),
             "export-circuits": (_cmd_export, ()),
             "noise-study": (_cmd_noise, ("--shots", "--depol-p", "--seed"))}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then reused:
    parse_args leaves it as it was and returns a new namespace each time.
    Its `commands` maps each command to the subparser of its own flags."""
    parser = argparse.ArgumentParser(
        prog="icobattery",
        description="Cyclic indefinite-causal-order battery charging toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}
    for name, (fn, own) in _COMMANDS.items():
        p = parser.commands[name] = sub.add_parser(name)
        for flag, options in (*_COMMON_FLAGS, *((f, _OWN_FLAGS[f]) for f in own)):
            p.add_argument(flag, **options)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    # a command's arguments go straight to its own subparser, one parse
    # rather than two; no command, an unknown one or a top-level --help
    # goes to the top-level parser
    command = parser.commands.get(argv[0]) if argv else None
    args = parser.parse_args(argv) if command is None else command.parse_args(argv[1:])
    try:
        config = build_config(args)
        args.fn(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvariantViolation, ValueError) as exc:     # a library check failed during the run
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:      # while writing; the checks before the run cannot foresee it
        path = config.out if exc.filename is None else os.fsdecode(exc.filename)
        print(f"error: cannot write {path!r}: {exc.strerror}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
