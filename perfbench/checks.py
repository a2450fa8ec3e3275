"""Output checks for the benchmark workloads.

Each check reads the files a CLI invocation wrote and returns a list of
error strings (empty when the output is correct).  They run outside the
timed region.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from icobattery import tolerances as tol
from icobattery.analytic import closed_form_report, dco_zero_window
from icobattery.circuit import angles_of_time, build_ico_circuit
from icobattery.model import ModelParams
from icobattery.protocol import run_ico
from icobattery.qasm import parse_qasm
from icobattery.thermo import report as thermo_report

# 1 - cos(w l t / N)^(2N) is evaluated two ways (|alpha_0|^2 and the cosine
# power); they agree to rounding, far inside this bound.
CLOSED_FORM_ATOL = 1e-12
# E_hat is a binomial mean of `shots` draws; 5 standard errors is a
# one-in-1.7-million miss per row.
SHOT_SIGMAS = 5.0
# Quantities recomputed from the raw counts by the same formula, in another
# order of operations, agree to rounding.
COUNT_RTOL = 1e-9
# The CLI's bootstrap of se_P: resamples per grid point, and the offset of
# its generator seed from the point's sampling seed.
BOOTSTRAP_RESAMPLES = 200
BOOTSTRAP_SEED_OFFSET = 10 ** 9
# total_burst_duration is a sum of at most a few hundred grid differences.
BURST_TOTAL_ATOL = 1e-9
MAX_ERRORS = 5

QUANTITIES = ("E", "W_ico", "W_dco", "p1", "P_ico", "P_dco")
FLAGS = ("passive_k1", "passive_dco")


def read_csv(path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _num(text: str) -> float | None:
    return None if text == "" else float(text)


def _flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"not a flag: {text!r}")
    return text == "true"


def energy_of(params: ModelParams, t: float) -> float:
    """Stored energy 1 - cos(w l t / N)^(2N) in units of hbar*omega."""
    n = params.n_chargers
    return 1.0 - math.cos(params.omega * params.coupling * t / n) ** (2 * n)


def _compare(row: dict, ref: dict, where: str) -> list[str]:
    errors = []
    for key in QUANTITIES:
        got, want = _num(row[key]), ref[key]
        if (got is None) != (want is None):
            errors.append(f"{where}: {key} defined={got is not None}, oracle {want is not None}")
        elif got is not None and not abs(got - want) <= tol.ENGINE_AGREE_ATOL:
            errors.append(f"{where}: {key}={got!r}, oracle {want!r}")
    for key in FLAGS:
        if _flag(row[key]) != ref[key]:
            errors.append(f"{where}: {key}={row[key]}, oracle {ref[key]}")
    return errors


def _analytic_ref(params: ModelParams, t: float) -> dict:
    r = closed_form_report(params, t)
    return {"E": r.E, "W_ico": r.W_ico, "W_dco": r.W_dco, "p1": r.p1, "P_ico": r.P_ico,
            "P_dco": r.P_dco, "passive_k1": r.passive_k1, "passive_dco": r.passive_dco}


def _numeric_ref(params: ModelParams, t: float) -> dict:
    result = run_ico(params, t)
    ico, dco = thermo_report(result, params)
    return {"E": ico.E, "W_ico": ico.W, "W_dco": dco.W, "p1": result.p1, "P_ico": ico.P,
            "P_dco": dco.P, "passive_k1": ico.passive_k1, "passive_dco": ico.passive_dco}


def _grid_rows(rows, n_list, grid, where) -> list[str]:
    """Rows come in (N, t) grid order with the exact grid floats."""
    expected = [(n, float(t)) for n in n_list for t in grid]
    if len(rows) != len(expected):
        return [f"{where}: {len(rows)} rows, expected {len(expected)}"]
    for i, (row, (n, t)) in enumerate(zip(rows, expected)):
        if int(row["N"]) != n or float(row["t"]) != t:
            return [f"{where}: row {i} is (N={row['N']}, t={row['t']}), expected ({n}, {t!r})"]
    return []


def engine_sweep(path: Path, n_list, grid) -> list[str]:
    """Every row matches the analytic oracle within the engine tolerance,
    flags and defined-ness of P exactly; a max_engine_dev column, when
    present, stays within the tolerance."""
    rows = read_csv(path)
    errors = _grid_rows(rows, n_list, grid, path.name)
    for i, row in enumerate(rows):
        if errors[MAX_ERRORS:]:
            break
        params = ModelParams(int(row["N"]))
        errors += _compare(row, _analytic_ref(params, float(row["t"])), f"{path.name} row {i}")
        if "max_engine_dev" in row and not float(row["max_engine_dev"]) <= tol.ENGINE_AGREE_ATOL:
            errors.append(f"{path.name} row {i}: max_engine_dev {row['max_engine_dev']}")
    return errors[:MAX_ERRORS]


def analytic_sweep(path: Path, n_list, grid, sample: list[int]) -> list[str]:
    """E follows the closed form on every row; the rows at indices `sample`
    (N <= 5) match the numeric engine and thermo.report."""
    rows = read_csv(path)
    errors = _grid_rows(rows, n_list, grid, path.name)
    for i, row in enumerate(rows):
        if errors[MAX_ERRORS:]:
            break
        want = energy_of(ModelParams(int(row["N"])), float(row["t"]))
        if not abs(float(row["E"]) - want) <= CLOSED_FORM_ATOL:
            errors.append(f"{path.name} row {i}: E={row['E']}, closed form {want!r}")
    for i in sample:
        if errors[MAX_ERRORS:] or i >= len(rows):
            break
        row = rows[i]
        params = ModelParams(int(row["N"]))
        errors += _compare(row, _numeric_ref(params, float(row["t"])),
                           f"{path.name} row {i} vs numeric")
    return errors[:MAX_ERRORS]


def bursts(path: Path, sweep_path: Path, n_list, grid) -> list[str]:
    """One entry per N, t* from its closed form, a passing monotonicity
    verdict, and per N exactly the maximal grid runs of (P_dco <= eps_dco and
    P_ico >= tau) in the sweep written on the same grid, with their total."""
    report = json.loads(path.read_text())
    errors = []
    if report["monotonicity_verdict"] != "pass":
        errors.append(f"{path.name}: monotonicity_verdict {report['monotonicity_verdict']!r}")
    if list(report["per_n"]) != [str(n) for n in n_list]:
        errors.append(f"{path.name}: per_n keys {list(report['per_n'])}")
        return errors
    tau, eps = report["tau"], report["eps_dco"]
    rows = read_csv(sweep_path)
    for n in n_list:
        entry = report["per_n"][str(n)]
        if entry["t_star"] != dco_zero_window(ModelParams(n)):
            errors.append(f"{path.name}: N={n} t_star {entry['t_star']!r}")
        want = burst_runs([row for row in rows if int(row["N"]) == n], tau, eps)
        if entry["intervals"] != want:
            errors.append(f"{path.name}: N={n} intervals {entry['intervals']}, "
                          f"{sweep_path.name} gives {want}")
        total = sum(b - a for a, b in want)
        if not abs(entry["total_burst_duration"] - total) <= BURST_TOTAL_ATOL:
            errors.append(f"{path.name}: N={n} total_burst_duration "
                          f"{entry['total_burst_duration']!r}, intervals sum to {total!r}")
    return errors[:MAX_ERRORS]


def burst_runs(rows, tau: float, eps_dco: float) -> list[list[float]]:
    """[first t, last t] of each maximal run of consecutive rows with
    P_dco <= eps_dco and P_ico >= tau (an empty P is not a hit)."""
    runs, start, last = [], None, None
    for row in rows:
        p_dco, p_ico = _num(row["P_dco"]), _num(row["P_ico"])
        hit = p_dco is not None and p_dco <= eps_dco and p_ico is not None and p_ico >= tau
        t = float(row["t"])
        if hit and start is None:
            start = t
        elif not hit and start is not None:
            runs.append([start, last])
            start = None
        last = t
    if start is not None:
        runs.append([start, last])
    return runs


def count_efficiency(c_pg: int, c_pe: int, c_mg: int, c_me: int, shots: int):
    """(E, W, P) of one set of counts: E = p(e), W = sum over switch outcomes
    d of p(d) max(0, 2 p(e|d) - 1), P = W / E, undefined (None) when E is
    below the energy floor."""
    e = (c_pe + c_me) / shots
    w = 0.0
    for n_g, n_e in ((c_pg, c_pe), (c_mg, c_me)):
        if n_g + n_e:
            w += (n_g + n_e) / shots * max(0.0, 2 * n_e / (n_g + n_e) - 1.0)
    return e, w, (w / e if e >= tol.ENERGY_EPS else None)


def bootstrap_se(counts: list[int], shots: int, seed: int) -> float:
    """Standard deviation of P over BOOTSTRAP_RESAMPLES multinomial resamples
    of the counts, drawn from numpy's default generator seeded `seed`
    (resamples with undefined P are left out; NaN if fewer than two remain)."""
    draws = np.random.default_rng(seed).multinomial(
        shots, np.asarray(counts, float) / shots, size=BOOTSTRAP_RESAMPLES)
    values = [p for p in (count_efficiency(*map(int, d), shots)[2] for d in draws)
              if p is not None]
    return float(np.std(values)) if len(values) > 1 else math.nan


def noise_study(path: Path, grid, shots: int, depol_p: float, seed: int) -> list[str]:
    """Per grid point i: t and the seed column (seed + i); E_ideal and
    P_ico_ideal from the closed form; raw counts that sum to `shots` and give
    E_hat, se_E, P_hat and overestimates_E; se_P finite, positive and equal to
    the bootstrap of those counts; and E_hat within 5 standard errors of the
    depolarized expectation (1 - p) E_ideal + p / 2."""
    rows = read_csv(path)
    shot_rows = read_csv(path.with_name(path.stem + "_shots.csv"))
    if len(rows) != len(grid) or len(shot_rows) != len(grid):
        return [f"{path.name}: {len(rows)}/{len(shot_rows)} rows, expected {len(grid)}"]
    params = ModelParams(2)
    errors = []
    for i, (row, raw, t) in enumerate(zip(rows, shot_rows, grid)):
        if errors[MAX_ERRORS:]:
            break
        where = f"{path.name} row {i}"
        if float(row["t"]) != float(t) or int(row["seed"]) != seed + i:
            errors.append(f"{where}: t={row['t']}, seed={row['seed']}")
            continue
        e_ideal = float(row["E_ideal"])
        if not abs(e_ideal - energy_of(params, float(t))) <= CLOSED_FORM_ATOL:
            errors.append(f"{where}: E_ideal {e_ideal!r}")
        p_ideal, want_p_ideal = _num(row["P_ico_ideal"]), closed_form_report(params, float(t)).P_ico
        if ((p_ideal is None) != (want_p_ideal is None)
                or p_ideal is not None and not abs(p_ideal - want_p_ideal) <= tol.ENGINE_AGREE_ATOL):
            errors.append(f"{where}: P_ico_ideal {row['P_ico_ideal']!r}, closed form {want_p_ideal!r}")
        counts = [int(raw[k]) for k in ("c_pg", "c_pe", "c_mg", "c_me")]
        e, _, p = count_efficiency(*counts, shots)
        e_hat, se = float(row["E_hat"]), float(row["se_E"])
        if sum(counts) != shots or e_hat != e:
            errors.append(f"{where}: counts {counts} do not give E_hat {e_hat!r}")
        if not abs(se - math.sqrt(e * (1 - e) / shots)) <= COUNT_RTOL * se:
            errors.append(f"{where}: se_E {se!r} for E_hat {e_hat!r}")
        if row["overestimates_E"] != ("true" if e_hat > e_ideal else "false"):
            errors.append(f"{where}: overestimates_E {row['overestimates_E']}")
        p_hat = _num(row["P_hat"])
        if (p_hat is None) != (p is None) or p is not None and not abs(p_hat - p) <= COUNT_RTOL * p:
            errors.append(f"{where}: P_hat {row['P_hat']!r}, counts give {p!r}")
        if p_hat is not None:
            se_p = float(row["se_P"])
            want_se_p = bootstrap_se(counts, shots, seed + i + BOOTSTRAP_SEED_OFFSET)
            if not (math.isfinite(se_p) and se_p > 0
                    and abs(se_p - want_se_p) <= COUNT_RTOL * want_se_p):
                errors.append(f"{where}: se_P {se_p!r}, bootstrap of the counts {want_se_p!r}")
        expected = (1 - depol_p) * e_ideal + depol_p / 2
        if not abs(e_hat - expected) <= SHOT_SIGMAS * se:
            errors.append(f"{where}: E_hat {e_hat!r} is {abs(e_hat - expected) / se:.1f} "
                          f"standard errors from {expected!r}")
    return errors[:MAX_ERRORS]


def exported_circuits(out_dir: Path, grid) -> list[str]:
    """The manifest lists one file per grid point with its angles, and every
    QASM file parses back to the gates build_ico_circuit gives."""
    rows = read_csv(out_dir / "manifest.csv")
    if len(rows) != len(grid):
        return [f"manifest.csv: {len(rows)} rows, expected {len(grid)}"]
    params = ModelParams(2)
    errors = []
    for i, (row, t) in enumerate(zip(rows, grid)):
        if errors[MAX_ERRORS:]:
            break
        theta, phi = angles_of_time(params, float(t))
        if float(row["t"]) != float(t) or (float(row["theta"]), float(row["phi"])) != (theta, phi):
            errors.append(f"manifest.csv row {i}: {row}")
            continue
        parsed = parse_qasm((out_dir / row["filename"]).read_text())
        if parsed.gates != build_ico_circuit(theta, phi).gates:
            errors.append(f"{row['filename']}: gates differ from build_ico_circuit")
    return errors[:MAX_ERRORS]
