import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import icobattery.analytic
from icobattery import tolerances
from icobattery.analytic import (
    ClosedFormReport,
    closed_form_report,
    closed_form_sweep,
    dco_zero_window,
)
from icobattery.model import ModelParams
from icobattery.thermo import efficiencies, python_values

from dense_reference import KET_E, KET_G, alpha_coeffs, branch_state, ordered_charging_unitary

P2 = ModelParams(2, omega=1.0, coupling=0.1)


def params_strategy():
    return st.builds(
        ModelParams,
        st.sampled_from([2, 3, 4, 5]),
        st.floats(0.2, 3.0),
        st.floats(0.02, 1.0),
    )


def test_oracle_imports_neither_protocol_nor_cli():
    # the closed forms are the numeric engine's oracle, so they must not
    # reach into the engine or the command line
    tree = ast.parse(Path(icobattery.analytic.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["icobattery" if node.level else "", node.module]))
            imported |= {module} | {f"{module}.{alias.name}" for alias in node.names}
    assert imported & {"icobattery.protocol", "icobattery.cli"} == set(), imported


class TestAlphaCoeffs:
    def test_time_zero(self):
        a = alpha_coeffs(ModelParams(4), 0.0)
        assert a[0] == pytest.approx(1.0)
        assert np.allclose(a[1:], 0.0)

    @given(params=params_strategy(), t=st.floats(0.0, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_normalization(self, params, t):
        a = alpha_coeffs(params, t)
        assert np.sum(np.abs(a) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_populations(self):
        # read off from brute-force state-vector evolution of branch j=1
        a2 = np.abs(alpha_coeffs(P2, 2 * np.pi)) ** 2
        assert a2[0] == pytest.approx(0.818136, abs=1e-5)
        assert a2[1] == pytest.approx(0.095492, abs=1e-5)
        assert a2[2] == pytest.approx(0.086372, abs=1e-5)

    def test_population_pattern(self):
        params = ModelParams(3, omega=0.8, coupling=0.17)
        t = 4.4
        a2 = np.abs(alpha_coeffs(params, t)) ** 2
        arg = params.omega * params.coupling * t / 3
        for j in range(1, 4):
            assert a2[j] == pytest.approx(np.sin(arg) ** 2 * np.cos(arg) ** (2 * (j - 1)), abs=1e-12)


class TestBranchState:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("j", [1, 2])
    def test_matches_numeric_evolution(self, n, j):
        # oracle: apply the ordered charging product to the initial state
        params = ModelParams(n, omega=1.0, coupling=0.1)
        t = 5.9
        vec0 = KET_G.copy()
        for _ in range(n):
            vec0 = np.kron(vec0, KET_E)
        oracle = ordered_charging_unitary(params, t, j).mat @ vec0
        assert np.max(np.abs(branch_state(params, t, j).vec - oracle)) <= 1e-12

    def test_normalized(self):
        psi = branch_state(ModelParams(5), 8.2, 3)
        assert np.linalg.norm(psi.vec) == pytest.approx(1.0, abs=1e-12)

    def test_overlap_with_cross_branch(self):
        # <psi_1|psi_2> at the destructive point: |a0|^2 + 2 Re[a1* a2]
        t = 2 * np.pi
        v1 = branch_state(P2, t, 1).vec
        v2 = branch_state(P2, t, 2).vec
        overlap = np.vdot(v1, v2)
        assert overlap.real == pytest.approx(0.636499, abs=1e-5)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            branch_state(P2, 1.0, 3)


class TestInterferenceTerm:
    def test_time_zero(self):
        assert closed_form_report(ModelParams(4), 0.0).C1 == pytest.approx(0.0, abs=1e-12)

    def test_destructive_point(self):
        assert closed_form_report(P2, 2 * np.pi).C1 == pytest.approx(-0.181637, abs=1e-5)

    def test_constructive_point(self):
        assert closed_form_report(P2, 4 * np.pi).C1 == pytest.approx(0.559017, abs=1e-5)

    def test_n2_closed_form(self):
        # C = 2 cos(w t / 2) sin^2(w l t / 2) cos(w l t / 2)
        for t in (1.3, 2 * np.pi, 9.7):
            w, l = P2.omega, P2.coupling
            expected = 2 * np.cos(w * t / 2) * np.sin(w * l * t / 2) ** 2 * np.cos(w * l * t / 2)
            assert closed_form_report(P2, t).C1 == pytest.approx(expected, abs=1e-12)

    def test_bounded_by_triangle_inequality(self):
        for n in (2, 3, 4, 5):
            params = ModelParams(n, omega=1.0, coupling=0.1)
            for t in np.linspace(0.1, 100, 23):
                s2 = float(np.sum(np.abs(alpha_coeffs(params, t)[1:]) ** 2))
                assert abs(closed_form_report(params, t).C1) <= (n - 1) * s2 + 1e-12


def cyclic_index(v: int, u: int, n: int) -> int:
    """1-based cyclic addition used in the interference sum."""
    if not (1 <= v <= n and 1 <= u <= n - 1):
        raise ValueError(f"indices v={v}, u={u} out of range for N={n}")
    return (v - 1 + u) % n + 1


# hand-expanded 1-based cyclic index tables {(v, u): index} for N = 2..5
CYCLIC_INDEX_TABLES = {
    2: {(1, 1): 2, (2, 1): 1},
    3: {(1, 1): 2, (2, 1): 3, (3, 1): 1,
        (1, 2): 3, (2, 2): 1, (3, 2): 2},
    4: {(1, 1): 2, (2, 1): 3, (3, 1): 4, (4, 1): 1,
        (1, 2): 3, (2, 2): 4, (3, 2): 1, (4, 2): 2,
        (1, 3): 4, (2, 3): 1, (3, 3): 2, (4, 3): 3},
    5: {(1, 1): 2, (2, 1): 3, (3, 1): 4, (4, 1): 5, (5, 1): 1,
        (1, 2): 3, (2, 2): 4, (3, 2): 5, (4, 2): 1, (5, 2): 2,
        (1, 3): 4, (2, 3): 5, (3, 3): 1, (4, 3): 2, (5, 3): 3,
        (1, 4): 5, (2, 4): 1, (3, 4): 2, (4, 4): 3, (5, 4): 4},
}


def test_cyclic_index_enumeration():
    for n, table in CYCLIC_INDEX_TABLES.items():
        for (v, u), expected in table.items():
            assert cyclic_index(v, u, n) == expected


def test_interference_matches_table_sum():
    # recompute C directly from the index tables
    for n in (2, 3, 4, 5):
        params = ModelParams(n, omega=1.0, coupling=0.1)
        t = 7.1
        a = alpha_coeffs(params, t)
        total = 0.0
        for u in range(1, n):
            inner = sum(a[v] * np.conj(a[cyclic_index(v, u, n)]) for v in range(1, n + 1))
            total += (n - u) * inner.real
        assert closed_form_report(params, t).C1 == pytest.approx(2 * total / n, abs=1e-12)


def roll_loop_interference(alpha: np.ndarray) -> float:
    """The interference sum as `closed_form_sweep` defines it, one np.roll per
    shift u: the reference for the closed form that it evaluates."""
    a = alpha[1:]
    n = len(a)
    total = 0.0
    for u in range(1, n):
        total += (n - u) * float(np.real(np.sum(a * np.conj(np.roll(a, -u)))))
    return 2.0 * total / n


# (omega, lambda) pairs; |C| reaches about 15 at lambda = 2
GRID_PARAMS = [(1.0, 0.1), (2.7, 1.3), (0.5, 2.0)]

REPORT_FLOATS = ("C1", "p1", "E", "W_ico", "W_dco", "P_ico", "P_dco")


def grid_reports(cols):
    """The rows of closed_form_sweep's columns as ClosedFormReports."""
    return [ClosedFormReport(**dict(zip(cols, row)))
            for row in zip(*(python_values(col) for col in cols.values()))]


def assert_reports_close(got, want, atol):
    assert [r.t for r in got] == [r.t for r in want]
    for a, b in zip(got, want):
        assert (a.passive_k1, a.passive_dco) == (b.passive_k1, b.passive_dco)
        for key in REPORT_FLOATS:
            x, y = getattr(a, key), getattr(b, key)
            assert (x is None) == (y is None), (key, a.t)
            if x is not None:
                assert abs(x - y) <= atol, (key, a.t, x, y)


class TestClosedFormGrid:
    @pytest.mark.parametrize("n", [2, 3, 7, 32, 200, 1000])
    @pytest.mark.parametrize("omega, lam", GRID_PARAMS)
    def test_interference_matches_roll_loop(self, n, omega, lam):
        params = ModelParams(n, omega=omega, coupling=lam)
        times = np.linspace(0.0, 4 * np.pi / (omega * lam), 41)
        loop = [roll_loop_interference(alpha_coeffs(params, t)) for t in times]
        grid = closed_form_sweep(omega, lam, [n], times)["C1"]
        assert np.max(np.abs(np.subtract(grid, loop))) <= 1e-13

    @pytest.mark.parametrize("n", [2, 3, 7, 32, 200, 1000])
    @pytest.mark.parametrize("omega, lam", GRID_PARAMS)
    def test_matches_pointwise_report(self, n, omega, lam):
        params = ModelParams(n, omega=omega, coupling=lam)
        times = np.linspace(0.0, 4 * np.pi / (omega * lam), 41)
        assert_reports_close(grid_reports(closed_form_sweep(omega, lam, [n], times)),
                             [closed_form_report(params, t) for t in times], 1e-14)

    @pytest.mark.parametrize("n", [3, 200])
    def test_chunked_grid_matches_unchunked(self, monkeypatch, n):
        times = np.linspace(0.0, 4 * np.pi, 9)
        whole = grid_reports(closed_form_sweep(0.5, 2.0, [n], times))
        monkeypatch.setattr(icobattery.analytic, "CHUNK_AMPLITUDES", 2 * (n + 1))  # two points
        chunked = grid_reports(closed_form_sweep(0.5, 2.0, [n], times))
        assert [r.t for r in chunked] == times.tolist()
        assert_reports_close(chunked, whole, 1e-14)

    def test_normalization_failure_names_t(self, monkeypatch):
        # only rows summed one by one are checked: t = 40 pi (x = 20 pi, y = 2 pi, so
        # |d| ~ 2e-15) and t = 1e-3 (|d| ~ 5e-4) at N = 2; t = 3 has |d| = 1.36
        monkeypatch.setattr(tolerances, "NORM_ATOL", -1.0)
        with pytest.raises(ValueError, match=r"normalization .* at t=125\.66370614359172$"):
            closed_form_sweep(1.0, 0.1, [2], [3.0, 40 * np.pi, 1e-3])

    def test_exact_tie_of_ground_and_excited_populations_is_passive(self, monkeypatch):
        # (gnd, E, |sum alpha|^2) = (0.25, 0.75, 0.5) at N = 2 gives C = -0.25 and
        # exc = 0.25 exactly: the given-1 state is (1/2, 1/2), passive with W_ico = 1/2
        sums = tuple(np.array([v]) for v in (0.25, 0.75, 0.5))
        monkeypatch.setattr(icobattery.analytic, "_row_sums", lambda *args: sums)
        cols = closed_form_sweep(1.0, 0.1, [2], [1.0])
        assert cols["passive_k1"].tolist() == [True]
        assert cols["W_ico"].tolist() == [0.5] and cols["p1"].tolist() == [0.5]

    def test_non_finite_time_raises(self):
        # model.check_model rejects the time before any coefficient is formed
        with pytest.raises(ValueError, match=r"evolution time must be finite and >= 0, got nan$"):
            closed_form_report(P2, np.nan)
        with pytest.raises(ValueError, match=r"evolution time must be finite and >= 0, got inf$"):
            closed_form_report(P2, np.inf)


def one_n_columns(params, times):
    """The columns of closed_form_sweep for one N by the O(N) sums over
    alpha_coeffs' formulas, its powers taken by numpy's complex power: the
    per-N reference for the rows of closed_form_sweep."""
    n, om, lam = params.n_chargers, params.omega, params.coupling
    c, s = np.cos(om * lam * times / n), np.sin(om * lam * times / n)
    ph, ph3 = np.exp(-0.5j * om * times / n), np.exp(-1.5j * om * times / n)
    j = np.arange(1, n + 1)
    alpha = np.empty((len(times), n + 1), dtype=complex)
    alpha[:, 0] = (ph * c) ** n
    alpha[:, 1:] = (ph3[:, None] ** (n - j) * ph[:, None] * (-1j * s)[:, None]
                    * (ph * c)[:, None] ** (j - 1))
    pops = np.abs(alpha) ** 2
    gnd, s2 = pops[:, 0], pops[:, 1:].sum(axis=1)
    c_term = np.abs(alpha[:, 1:].sum(axis=1)) ** 2 - s2
    exc = (c_term + s2) / n
    e, passive_k1, passive_dco = 1.0 - gnd, gnd >= exc, gnd >= 0.5
    w_ico = np.where(passive_k1, ((n - 1) / n) * s2 - c_term / n, 1.0 - 2.0 * gnd)
    w_dco = np.where(passive_dco, 0.0, 1.0 - 2.0 * gnd)
    return {"t": times, "C1": c_term, "p1": gnd + exc, "E": e, "W_ico": w_ico, "W_dco": w_dco,
            "P_ico": efficiencies(w_ico, e), "P_dco": efficiencies(w_dco, e),
            "passive_k1": passive_k1, "passive_dco": passive_dco}


def long_double_columns(params, times):
    """C1, E, W_ico and W_dco by the O(N) sums over alpha_coeffs' formulas in
    np.longdouble, from x = w t / N and y = w l t / N rounded to long double:
    the accuracy reference for closed_form_sweep and one_n_columns."""
    ld, cld = np.longdouble, np.clongdouble
    n = params.n_chargers
    t = np.asarray(times, dtype=ld)
    x, y = ld(params.omega) * t / n, ld(params.omega) * ld(params.coupling) * t / n
    ph, r = np.exp(cld(-0.5j) * x), np.exp(cld(-1.5j) * x)
    q = ph * np.cos(y)
    j = np.arange(1, n + 1)
    alpha = r[:, None] ** (n - j) * (ph * cld(-1j) * np.sin(y))[:, None] * q[:, None] ** (j - 1)
    gnd, s2 = np.abs(q ** n) ** 2, (np.abs(alpha) ** 2).sum(axis=1)
    c_term = np.abs(alpha.sum(axis=1)) ** 2 - s2
    passive_k1 = gnd >= (c_term + s2) / n
    return {"C1": c_term, "E": s2,
            "W_ico": np.where(passive_k1, ((n - 1) / ld(n)) * s2 - c_term / n, 1 - 2 * gnd),
            "W_dco": np.where(gnd >= 0.5, 0, 1 - 2 * gnd)}


# Largest deviation from long_double_columns at N = 5, 32 and 1000 over
# GRID_PARAMS at 101 points, pinned from measurement: of closed_form_sweep
# (at most 7.0e-15 in C1, 4.7e-16 in E and W) and of one_n_columns (1.6e-12
# in C1 and 2.8e-13 in E at N = 1000, where its powers carry N rounding errors).
CLOSED_FORM_ERR = {"C1": 1e-14, "E": 1e-15, "W_ico": 1e-15, "W_dco": 1e-15}
ONE_N_ERR = {"C1": 3e-12, "E": 5e-13, "W_ico": 5e-14, "W_dco": 5e-14}


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than float64 here")
class TestLongDoubleReference:
    @pytest.mark.parametrize("n", [5, 32, 1000])
    @pytest.mark.parametrize("omega, lam", GRID_PARAMS)
    def test_error_bounds(self, n, omega, lam):
        params = ModelParams(n, omega=omega, coupling=lam)
        times = np.linspace(0.0, 4 * np.pi / (omega * lam), 101)
        ref = long_double_columns(params, times)
        for cols, bounds in ((closed_form_sweep(omega, lam, [n], times), CLOSED_FORM_ERR),
                             (one_n_columns(params, times), ONE_N_ERR)):
            for key, bound in bounds.items():
                assert np.max(np.abs(cols[key] - ref[key])) <= bound, key


def assert_columns_close(got, want, atol):
    """Equal flags and undefined efficiencies, the other columns within atol,
    and P = W/E within atol (1 + |P|) / E, which E and W within atol imply."""
    for key, col in want.items():
        if col.dtype == bool:
            assert (got[key] == col).all(), key
        elif key.startswith("P_"):
            defined = ~np.isnan(col)
            assert (np.isnan(got[key]) == ~defined).all(), key
            bound = atol * (1.0 + np.abs(col[defined])) / want["E"][defined]
            assert (np.abs(got[key][defined] - col[defined]) <= bound).all(), key
        else:
            assert np.max(np.abs(got[key] - col)) <= atol, key


class TestClosedFormSweep:
    """Every N's rows of a multi-N call equal that N evaluated alone: bit for
    bit through closed_form_sweep with [N], and within the pinned errors of both
    evaluations through one_n_columns."""

    @pytest.mark.parametrize("n_list, points, omega, lam, t_min", [
        (list(range(2, 33)), 8, 1.0, 0.1, 0.0),
        (list(range(2, 33)), 400, 1.0, 0.1, 0.3),
        ([32, 3, 2], 77, 2.7, 1.3, 0.0),
        ([2, 3, 4, 5], 400, 1.0, 0.1, 0.0),
        ([2, 1000], 50, 1.0, 0.1, 0.0),
        ([5, 2, 200], 41, 0.5, 2.0, 1.1),
    ])
    def test_rows_equal_each_n_alone(self, n_list, points, omega, lam, t_min):
        times = np.linspace(t_min, 4 * np.pi / (omega * lam), points)
        got = closed_form_sweep(omega, lam, n_list, times)
        for k, n in enumerate(n_list):
            params = ModelParams(n, omega=omega, coupling=lam)
            rows = slice(k * points, (k + 1) * points)
            for key, col in closed_form_sweep(omega, lam, [n], times).items():
                assert got[key][rows].tobytes() == col.tobytes(), (n, key)
            assert_columns_close({key: col[rows] for key, col in got.items()},
                                 one_n_columns(params, times),
                                 max(CLOSED_FORM_ERR.values()) + max(ONE_N_ERR.values()))

    def test_chunked_blocks_equal_whole(self, monkeypatch):
        # the last four times are summed one by one at N = 200 (|d| < 1e-3), so they span
        # two blocks; the first of them is at N = 3 and 2 too
        times = np.concatenate([np.linspace(0.0, 4 * np.pi, 9), np.linspace(1e-4, 0.3, 4)])
        whole = closed_form_sweep(0.5, 2.0, [3, 200, 2], times)
        monkeypatch.setattr(icobattery.analytic, "CHUNK_AMPLITUDES", 2 * 201)   # 2 points of N = 200
        chunked = closed_form_sweep(0.5, 2.0, [3, 200, 2], times)
        assert all(chunked[k].tobytes() == whole[k].tobytes() for k in whole)

    def test_normalization_failure_names_first_row(self, monkeypatch):
        # rows summed one by one: (4, 3e-3), (4, 1e-3) and (2, 1e-3); (2, 3e-3) has
        # |d| = 1.5e-3.  The first in row order is named.
        monkeypatch.setattr(tolerances, "NORM_ATOL", -1.0)
        with pytest.raises(ValueError, match=r"normalization .* at t=0\.003$"):
            closed_form_sweep(1.0, 0.1, [4, 2], [3e-3, 1e-3])


class TestClosedFormReport:
    def test_time_zero(self):
        r = closed_form_report(ModelParams(3), 0.0)
        assert r.E == pytest.approx(0.0, abs=1e-12)
        assert r.W_ico == pytest.approx(0.0, abs=1e-12)
        assert r.P_ico is None and r.P_dco is None

    def test_destructive_point(self):
        r = closed_form_report(P2, 2 * np.pi)
        assert r.E == pytest.approx(0.181864, abs=1e-4)
        assert r.W_ico == pytest.approx(0.181750, abs=1e-4)
        assert r.P_ico == pytest.approx(0.99937, abs=1e-4)
        assert r.W_dco == 0.0
        assert r.P_dco == 0.0
        assert r.p1 == pytest.approx(0.818250, abs=1e-4)
        assert r.passive_k1 and r.passive_dco

    def test_constructive_point(self):
        r = closed_form_report(P2, 4 * np.pi)
        assert r.E == pytest.approx(0.571610, abs=1e-4)
        assert r.W_ico == pytest.approx(0.143219, abs=1e-4)
        assert r.W_dco == pytest.approx(0.143219, abs=1e-4)
        assert r.P_ico == pytest.approx(0.250554, abs=1e-3)
        assert not r.passive_k1

    def test_energy_identity(self):
        # E = sum of excited-basis populations = 1 - cos^(2N)
        for n in (2, 3, 4, 5):
            params = ModelParams(n, omega=1.0, coupling=0.1)
            for t in np.linspace(0, 60, 31):
                r = closed_form_report(params, t)
                s2 = float(np.sum(np.abs(alpha_coeffs(params, t)[1:]) ** 2))
                assert r.E == pytest.approx(s2, abs=1e-12)
                assert r.E == pytest.approx(
                    1 - np.cos(params.omega * params.coupling * t / n) ** (2 * n), abs=1e-12)

    def test_weight_partition(self):
        # |a0|^2 + (C + sum)/N + complement weight = 1
        for t in (1.0, 2 * np.pi, 11.0):
            r = closed_form_report(P2, t)
            a = alpha_coeffs(P2, t)
            complement = 1 - r.p1
            assert abs(np.abs(a[0]) ** 2 + (r.C1 + r.E) / 2 + complement - 1.0) <= 1e-10


class TestDcoZeroWindow:
    def test_against_root_finding(self):
        for n, expected in ((2, 11.43), (3, 14.14), (4, 16.41), (5, 18.39)):
            params = ModelParams(n, omega=1.0, coupling=0.1)
            t_star = dco_zero_window(params)
            assert t_star == pytest.approx(expected, abs=0.02)
            f = lambda t: np.cos(0.1 * t / n) ** (2 * n) - 0.5
            root = brentq(f, 1e-6, n * np.pi / 0.2 - 1e-6)
            assert t_star == pytest.approx(root, abs=1e-9)

    def test_strictly_increasing_in_n(self):
        stars = [dco_zero_window(ModelParams(n, omega=1.0, coupling=0.1)) for n in range(2, 6)]
        assert all(b > a for a, b in zip(stars, stars[1:]))

    def test_dco_efficiency_zero_inside_window(self):
        t_star = dco_zero_window(P2)
        for t in np.linspace(0.2, t_star - 0.05, 17):
            assert closed_form_report(P2, t).W_dco == 0.0
