"""End-to-end acceptance suite.

Each test checks one numbered claim at its stated tolerance and prints a
single PASS/FAIL line (bypassing capture) so the verdicts are visible in the
plain pytest log.  Shared grids are computed once per module.
"""
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from icobattery.analytic import closed_form_report, dco_zero_window
from icobattery.circuit import (angles_of_time, estimate_counts, ico_counts,
                                ico_probabilities)
from icobattery.cli import NOISE_FIELDS, SweepConfig, burst_report, main, noise_study_rows
from icobattery.model import ModelParams
from icobattery.protocol import run_ico
from icobattery.thermo import report

from circuit_reference import charging_gates, circuit_unitary
from cli_reference import rows as rows_of
from conftest import mixture
from dense_reference import total_unitary

OMEGA, COUPLING = 1.0, 0.1
N_VALUES = (2, 3, 4, 5)
TIME_GRID = np.linspace(0.0, 4 * np.pi / (OMEGA * COUPLING), 200)
P2 = ModelParams(2, OMEGA, COUPLING)

T_STAR_TABLE = {2: 11.43, 3: 14.14, 4: 16.41, 5: 18.39}


def _verdict(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def grid():
    """Both engines evaluated on the shared grid; rows are
    (t, ProtocolResult, ico EnergyReport, dco EnergyReport, ClosedFormReport)."""
    start = time.perf_counter()
    data = {}
    for n in N_VALUES:
        params = ModelParams(n, OMEGA, COUPLING)
        rows = []
        for t in TIME_GRID:
            result = run_ico(params, t)
            ico, dco = report(result, params)
            rows.append((t, result, ico, dco, closed_form_report(params, t)))
        data[n] = rows
    return data, time.perf_counter() - start


def test_criterion_01_oracle_equivalence(grid, capsys):
    data, elapsed = grid
    dev = 0.0
    for n in N_VALUES:
        for t, result, ico, dco, ana in data[n]:
            dev = max(dev,
                      abs(ico.E - ana.E), abs(ico.W - ana.W_ico),
                      abs(dco.W - ana.W_dco), abs(result.p1 - ana.p1))
            for got, want in ((ico.P, ana.P_ico), (dco.P, ana.P_dco)):
                assert (got is None) == (want is None)
                if got is not None:
                    dev = max(dev, abs(got - want))
    ok = dev <= 1e-9 and elapsed <= 60.0
    _verdict(capsys, 1, "oracle equivalence",
             ok, f"max deviation {dev:.2e} over {len(N_VALUES) * len(TIME_GRID)} "
                 f"points, grid built in {elapsed:.1f} s")


def test_criterion_02_closed_form_energy(grid, capsys):
    data, _ = grid
    dev_formula = dev_equal = 0.0
    for n in N_VALUES:
        for t, _, ico, dco, _ in data[n]:
            expected = 1.0 - np.cos(OMEGA * COUPLING * t / n) ** (2 * n)
            dev_formula = max(dev_formula, abs(ico.E - expected))
            dev_equal = max(dev_equal, abs(ico.E - dco.E))
    ok = dev_formula <= 1e-9 and dev_equal <= 1e-10
    _verdict(capsys, 2, "closed-form energy",
             ok, f"formula dev {dev_formula:.2e}, E_ICO vs E_DCO dev {dev_equal:.2e}")


def test_criterion_03_complement_outcome(grid, capsys):
    data, _ = grid
    excited = np.array([0.0, 1.0])         # the populations of |e><e|
    dev = max(np.max(np.abs(result.pops_rest - excited))
              for n in N_VALUES for _, result, *_ in data[n])
    ok = dev <= 1e-9
    _verdict(capsys, 3, "complement outcome is |e><e|", ok, f"max deviation {dev:.2e}")


def test_criterion_04_burst_points(capsys):
    checks = []
    for t, want_ico, want_dco in ((2 * np.pi, 0.9994, 0.0),
                                  (4 * np.pi, 0.2505, 0.2505)):
        numeric, _dco = report(run_ico(P2, t), P2)
        numeric_dco = _dco
        ana = closed_form_report(P2, t)
        for p_ico, p_dco in ((numeric.P, numeric_dco.P), (ana.P_ico, ana.P_dco)):
            checks.append(abs(p_ico - want_ico) <= 1e-3)
            checks.append(abs(p_dco - want_dco) <= 1e-3)
        if want_dco == 0.0:
            checks.append(numeric_dco.P == 0.0 and ana.P_dco == 0.0)
    ok = all(checks)
    _verdict(capsys, 4, "burst reference points",
             ok, "t=2pi gives (P_ico, P_dco)=(0.9994, 0) and t=4pi gives "
                 "(0.2505, 0.2505) on both engines" if ok else f"checks: {checks}")


def test_criterion_05_window_growth(capsys):
    stars = []
    dev = 0.0
    for n in N_VALUES:
        params = ModelParams(n, OMEGA, COUPLING)
        t_star = dco_zero_window(params)
        # independent root-finding oracle for cos^{2N}(wlt/N) = 1/2
        root = brentq(lambda t: np.cos(OMEGA * COUPLING * t / n) ** (2 * n) - 0.5,
                      1e-6, n * np.pi / (2 * OMEGA * COUPLING) - 1e-6)
        dev = max(dev, abs(t_star - root), abs(t_star - T_STAR_TABLE[n]))
        stars.append(t_star)
    increasing = all(b > a for a, b in zip(stars, stars[1:]))
    verdict = burst_report(SweepConfig(n_list=list(N_VALUES), points=120,
                                       engine="analytic"))["monotonicity_verdict"]
    ok = dev <= 0.02 and increasing and verdict == "pass"
    _verdict(capsys, 5, "burst-window growth",
             ok, f"t* = {[round(s, 2) for s in stars]}, table dev {dev:.3f}, "
                 f"report verdict {verdict!r}")


def test_criterion_06_daemonic_dominance(grid, capsys):
    data, _ = grid
    worst_gap = np.inf
    mix_dev = 0.0
    for n in N_VALUES:
        for _, result, ico, dco, _ in data[n]:
            worst_gap = min(worst_gap, ico.W - dco.W)
            # the outcome-weighted battery mixture must equal the DCO state
            mix_dev = max(mix_dev, np.max(np.abs(mixture(result) - result.pops_bar)))
    ok = worst_gap >= -1e-10 and mix_dev <= 1e-10
    _verdict(capsys, 6, "daemonic dominance",
             ok, f"min(W_ico - W_dco) = {worst_gap:.2e}, mixture dev {mix_dev:.2e}")


def test_criterion_07_circuit_equivalence(capsys):
    rng = np.random.default_rng(2024)
    dist = 0.0
    for t in rng.uniform(0.0, 4 * np.pi / (OMEGA * COUPLING), size=20):
        u_circ = circuit_unitary(charging_gates(*angles_of_time(P2, t)))
        u_prot = total_unitary(P2, t).mat
        tr = np.trace(u_circ.conj().T @ u_prot)
        dist = max(dist, np.linalg.norm(u_circ * (tr / abs(tr)) - u_prot))
    ok = dist <= 1e-8
    _verdict(capsys, 7, "circuit equivalence",
             ok, f"max Frobenius distance (phase-aligned) {dist:.2e} at 20 times")


def test_criterion_08_shot_estimator(capsys):
    t = 2 * np.pi
    exact = closed_form_report(P2, t)
    angles = [[angle] for angle in angles_of_time(P2, t)]     # a grid of one point
    prob_vec = np.clip(ico_probabilities(*angles)[0], 0.0, None)  # (+,g), (+,e), (-,g), (-,e)
    prob_vec /= prob_vec.sum()
    details, ok = [], True
    for shots, seed in ((20000, 17), (10**6, 18)):
        counts = ico_counts(*angles, 0.0, shots, [seed])
        est = {k: col[0] for k, col in estimate_counts(counts, shots).items()}
        p_plus = (counts[0, 0] + counts[0, 1]) / shots
        se_p1 = np.sqrt(exact.p1 * (1 - exact.p1) / shots)
        se_e = np.sqrt(exact.E * (1 - exact.E) / shots)
        # efficiency has no single binomial margin; bootstrap it from the
        # exact outcome distribution at this shot count
        boot = np.random.default_rng(1000 + seed)
        se_eff = np.std(estimate_counts(boot.multinomial(shots, prob_vec, size=300), shots)["P"])
        ok &= abs(p_plus - exact.p1) <= 3 * se_p1
        ok &= abs(est["E"] - exact.E) <= 3 * se_e
        ok &= abs(est["P"] - exact.P_ico) <= 3 * se_eff
        details.append(f"{shots} shots: |dp|={abs(p_plus - exact.p1):.1e}<=3x{se_p1:.1e}, "
                       f"|dE|={abs(est['E'] - exact.E):.1e}<=3x{se_e:.1e}, "
                       f"|dP|={abs(est['P'] - exact.P_ico):.1e}<=3x{se_eff:.1e}")
    _verdict(capsys, 8, "shot estimator", ok, "; ".join(details))


def test_criterion_09_noise_qualitative(capsys):
    cfg = SweepConfig(n_list=[2], t_min=0.8, t_max=11.0, points=8,
                      shots=240000, depolarizing_p=0.05, seed=7)
    rows = rows_of(noise_study_rows(cfg), NOISE_FIELDS)
    t_star = dco_zero_window(P2)
    over_ok = all(row["E_hat"] - row["E_ideal"] > 3 * row["se_E"]
                  for row in rows if row["E_ideal"] < 0.4)
    drop_ok = all(row["P_hat"] < row["P_ico_ideal"]
                  for row in rows if row["t"] < t_star)
    n_small = sum(row["E_ideal"] < 0.4 for row in rows)
    ok = over_ok and drop_ok and n_small > 0
    _verdict(capsys, 9, "noise qualitative match",
             ok, f"E overestimated beyond 3 SE at {n_small}/{len(rows)} points "
                 f"with E<0.4 ({over_ok}), efficiency drop inside first window "
                 f"({drop_ok})")


def test_criterion_10_determinism(tmp_path, capsys):
    same = {}
    for name, cmd in (("sweep", ["sweep", "--n", "2,3", "--points", "25", "--engine", "both"]),
                      ("noise-study", ["noise-study", "--n", "2", "--points", "5", "--t-max", "20",
                                       "--shots", "5000", "--depol-p", "0.05", "--seed", "11"]),
                      # most bootstrap resamples have an empty branch or an undefined P
                      ("3-shot noise-study", ["noise-study", "--n", "2", "--t-min", "0",
                                              "--points", "2000", "--shots", "3",
                                              "--depol-p", "0.0"])):
        pair = []
        for tag in ("a", "b"):
            out = tmp_path / f"{cmd[0]}_{tag}.csv"
            assert main(cmd + ["--out", str(out)]) == 0
            shots_file = out.with_name(out.stem + "_shots.csv")
            pair.append([path.read_bytes() for path in (out, shots_file) if path.exists()])
        same[name] = pair[0] == pair[1]
    ok = all(same.values())
    _verdict(capsys, 10, "byte-identical determinism",
             ok, ", ".join(f"{name} identical: {v}" for name, v in same.items()))
