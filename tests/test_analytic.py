import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from icobattery.analytic import (
    alpha_coeffs,
    branch_state,
    closed_form_report,
    cyclic_index,
    dco_zero_window,
    interference_term,
)
from icobattery.linalg import battery_charger_layout
from icobattery.model import KET_E, KET_G, ModelParams

from dense_reference import ordered_charging_unitary

P2 = ModelParams(2, omega=1.0, coupling=0.1)


def params_strategy():
    return st.builds(
        ModelParams,
        st.sampled_from([2, 3, 4, 5]),
        st.floats(0.2, 3.0),
        st.floats(0.02, 1.0),
    )


class TestAlphaCoeffs:
    def test_time_zero(self):
        a = alpha_coeffs(ModelParams(4), 0.0).alpha
        assert a[0] == pytest.approx(1.0)
        assert np.allclose(a[1:], 0.0)

    @given(params=params_strategy(), t=st.floats(0.0, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_normalization(self, params, t):
        a = alpha_coeffs(params, t).alpha
        assert np.sum(np.abs(a) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_populations(self):
        # read off from brute-force state-vector evolution of branch j=1
        a2 = np.abs(alpha_coeffs(P2, 2 * np.pi).alpha) ** 2
        assert a2[0] == pytest.approx(0.818136, abs=1e-5)
        assert a2[1] == pytest.approx(0.095492, abs=1e-5)
        assert a2[2] == pytest.approx(0.086372, abs=1e-5)

    def test_population_pattern(self):
        params = ModelParams(3, omega=0.8, coupling=0.17)
        t = 4.4
        a2 = np.abs(alpha_coeffs(params, t).alpha) ** 2
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
        assert interference_term(ModelParams(4), 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_destructive_point(self):
        assert interference_term(P2, 2 * np.pi) == pytest.approx(-0.181637, abs=1e-5)

    def test_constructive_point(self):
        assert interference_term(P2, 4 * np.pi) == pytest.approx(0.559017, abs=1e-5)

    def test_n2_closed_form(self):
        # C = 2 cos(w t / 2) sin^2(w l t / 2) cos(w l t / 2)
        for t in (1.3, 2 * np.pi, 9.7):
            w, l = P2.omega, P2.coupling
            expected = 2 * np.cos(w * t / 2) * np.sin(w * l * t / 2) ** 2 * np.cos(w * l * t / 2)
            assert interference_term(P2, t) == pytest.approx(expected, abs=1e-12)

    def test_bounded_by_triangle_inequality(self):
        for n in (2, 3, 4, 5):
            params = ModelParams(n, omega=1.0, coupling=0.1)
            for t in np.linspace(0.1, 100, 23):
                s2 = float(np.sum(np.abs(alpha_coeffs(params, t).alpha[1:]) ** 2))
                assert abs(interference_term(params, t)) <= (n - 1) * s2 + 1e-12


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
        a = alpha_coeffs(params, t).alpha
        total = 0.0
        for u in range(1, n):
            inner = sum(a[v] * np.conj(a[cyclic_index(v, u, n)]) for v in range(1, n + 1))
            total += (n - u) * inner.real
        assert interference_term(params, t) == pytest.approx(2 * total / n, abs=1e-12)


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
                s2 = float(np.sum(np.abs(alpha_coeffs(params, t).alpha[1:]) ** 2))
                assert r.E == pytest.approx(s2, abs=1e-12)
                assert r.E == pytest.approx(
                    1 - np.cos(params.omega * params.coupling * t / n) ** (2 * n), abs=1e-12)

    def test_weight_partition(self):
        # |a0|^2 + (C + sum)/N + complement weight = 1
        for t in (1.0, 2 * np.pi, 11.0):
            r = closed_form_report(P2, t)
            a = alpha_coeffs(P2, t).alpha
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
