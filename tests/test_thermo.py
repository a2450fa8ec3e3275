import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icobattery import thermo, tolerances
from icobattery.model import ModelParams, battery_hamiltonian
from icobattery.protocol import run_ico, run_ico_sweep
from icobattery.thermo import python_values, report, report_grid
from conftest import mixture, random_density, sweep_results

LEVELS_Q = battery_hamiltonian(1.0).diagonal().real  # (E_g, E_e) = (-1/2, 1/2)
GROUND = np.array([1.0, 0.0])     # the populations (p_g, p_e) of |g> and |e>
EXCITED = np.array([0.0, 1.0])
# check_model's omega floor, 2 * sys.float_info.min / ENERGY_EPS, and a top well inside the range
OMEGA_FLOOR = 2 * sys.float_info.min / tolerances.ENERGY_EPS
OMEGAS = st.floats(math.log10(OMEGA_FLOOR), 300.0).map(
    lambda e: min(max(10.0 ** e, OMEGA_FLOOR), 1e300))


def brute_force_ergotropy(rho, h):
    """Minimize Tr[rho' h] over all assignments of rho's populations to
    energy eigenstates of h."""
    pops = np.linalg.eigvalsh(rho)
    energies = np.linalg.eigvalsh(h)
    best = min(np.dot(pops, np.array(perm)) for perm in itertools.permutations(energies))
    return float(np.trace(rho @ h).real - best)


def density(pops):
    """The diagonal density matrix (2, 2) with populations `pops` (p_g, p_e)."""
    return np.diag(pops).astype(complex)


def random_populations(rng, count):
    """The populations (count, 2) of `count` random states: their diagonals."""
    return np.array([random_density(rng, 2).diagonal().real for _ in range(count)])


class TestErgotropy:
    def test_ground_state(self):
        assert thermo._ergotropies([GROUND[None]], LEVELS_Q)[0, 0] == 0.0
        # a passive mixed state is its own passive state
        passive = np.array([0.7, 0.3])
        assert thermo._ergotropies([passive[None]], LEVELS_Q)[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_excited_state(self):
        assert thermo._ergotropies([EXCITED[None]], LEVELS_Q)[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_partial_inversion(self):
        pops = np.array([0.3, 0.7])
        assert thermo._ergotropies([pops[None]], LEVELS_Q)[0, 0] == pytest.approx(0.4, abs=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), omega=st.floats(1e-3, 1e3))
    @settings(max_examples=40, deadline=None)
    def test_matches_permutation_oracle(self, seed, omega):
        # the least energy over every assignment of the state's spectrum to H's levels
        pops = random_populations(np.random.default_rng(seed), 1)
        h = battery_hamiltonian(omega)
        w = thermo._ergotropies([pops], h.diagonal().real)[0, 0]
        assert w == pytest.approx(brute_force_ergotropy(density(pops[0]), h), rel=1e-12,
                                  abs=1e-12 * omega)


class TestDaemonicErgotropy:
    """The probability-weighted ergotropy of an ensemble: _weighted_sum over
    the outcomes (axis 0) of the ergotropies of its states."""

    def test_single_outcome_reduces_to_plain(self):
        pops = np.array([0.2, 0.8])
        w = thermo._ergotropies([pops[None]], LEVELS_Q)
        assert thermo._weighted_sum(np.ones((1, 1)), w)[0] == pytest.approx(w[0, 0])

    def test_dominates_average_state(self):
        w = thermo._ergotropies([np.array([GROUND, EXCITED, 0.5 * GROUND + 0.5 * EXCITED])],
                                LEVELS_Q)[0]
        assert thermo._weighted_sum(np.full((2, 1), 0.5), w[:2, None])[0] == pytest.approx(
            0.5, abs=1e-12)
        assert w[2] == 0.0

    def test_identical_states(self):
        pops = np.array([0.1, 0.9])
        w = thermo._ergotropies([np.array([pops] * 4)], LEVELS_Q)[0]
        assert thermo._weighted_sum(np.full((4, 1), 0.25), w[:, None])[0] == pytest.approx(w[0])

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_daemonic_dominance_random(self, seed):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(3))
        states = random_populations(rng, 3)
        avg = sum(p * pops for p, pops in zip(probs, states))
        w = thermo._ergotropies([np.array([*states, avg])], LEVELS_Q)[0]
        assert thermo._weighted_sum(probs[:, None], w[:3, None])[0] >= w[3] - 1e-10


class TestStoredEnergy:
    """Tr[rho H] - Tr[rho0 H] as _energies of the difference of the populations."""

    def test_no_change(self):
        pops = np.array([0.4, 0.6])
        assert thermo._energies((pops - pops)[None], LEVELS_Q)[0] == pytest.approx(0.0, abs=1e-12)

    def test_full_inversion(self):
        assert thermo._energies((EXCITED - GROUND)[None], LEVELS_Q)[0] == pytest.approx(
            1.0, abs=1e-12)

    def test_frozen_point(self):
        # closed form 1 - cos^4(omega*lambda*t/2) at t = 2 pi
        params = ModelParams(2, omega=1.0, coupling=0.1)
        r = run_ico(params, 2 * np.pi)
        e = thermo._energies((mixture(r) - GROUND)[None], LEVELS_Q)[0]
        assert e == pytest.approx(0.181864, abs=1e-5)


class TestReport:
    def test_time_zero(self):
        params = ModelParams(2, omega=1.0, coupling=0.1)
        ico, dco = report(run_ico(params, 0.0), params)
        assert ico.E == pytest.approx(0.0, abs=1e-12)
        assert ico.W == pytest.approx(0.0, abs=1e-12)
        assert ico.P is None and dco.P is None

    def test_destructive_phase_point(self):
        params = ModelParams(2, omega=1.0, coupling=0.1)
        ico, dco = report(run_ico(params, 2 * np.pi), params)
        assert ico.P == pytest.approx(0.9994, abs=1e-3)
        assert dco.W == pytest.approx(0.0, abs=1e-12)
        assert dco.P == pytest.approx(0.0, abs=1e-12)
        assert ico.passive_dco

    def test_constructive_phase_point(self):
        params = ModelParams(2, omega=1.0, coupling=0.1)
        ico, dco = report(run_ico(params, 4 * np.pi), params)
        assert ico.P == pytest.approx(0.2505, abs=1e-3)
        assert dco.P == pytest.approx(0.2505, abs=1e-3)
        assert not ico.passive_k1 and not ico.passive_dco

    def test_efficiency_bounds_and_dominance_on_grid(self):
        params = ModelParams(3, omega=1.0, coupling=0.1)
        for t in np.linspace(0, 4 * np.pi / 0.1, 40):
            ico, dco = report(run_ico(params, t), params)
            assert ico.W >= dco.W - 1e-10
            for rep in (ico, dco):
                assert 0.0 <= rep.W <= rep.E + 1e-10 or rep.E <= 1e-9
                if rep.P is not None:
                    assert -1e-10 <= rep.P <= 1.0 + 1e-10

    def test_passivity_agrees_with_sign_test(self):
        params = ModelParams(2, omega=1.0, coupling=0.1)
        for t in np.linspace(0, 4 * np.pi / 0.1, 40):
            r = run_ico(params, t)
            ico, _ = report(r, params)
            gap = r.pops_given_1[0] - r.pops_given_1[1]
            if abs(gap) > 1e-8:  # away from the passive/active crossover
                assert ico.passive_k1 == (gap > 0)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_passivity_flags_do_not_depend_on_the_energy_unit(self, n):
        # the flags compare ergotropy in units of hbar*omega; with omega*t and
        # lambda held fixed the battery states are the same for every omega
        phases = np.linspace(0.0, 4 * np.pi / 0.1, 23)
        flags = {}
        for omega in (1e-20, 1.0, 1e6):
            params = ModelParams(n, omega=omega, coupling=0.1)
            flags[omega] = [(ico.passive_k1, ico.passive_dco)
                            for ico, _ in (report(run_ico(params, x / omega), params)
                                           for x in phases)]
        assert flags[1e-20] == flags[1.0] == flags[1e6]
        assert {k1 for k1, _ in flags[1.0]} == {True, False}
        assert {dco for _, dco in flags[1.0]} == {True, False}


def pointwise_ergotropy(rho, h):
    """One state at a time: eigvalsh of the state, its passive state on the
    eigenvectors of h, and the trace of the difference against h."""
    vecs = np.linalg.eigh(h)[1]
    passive = (vecs * np.linalg.eigvalsh(rho)[::-1]) @ vecs.conj().T
    return max(float(np.trace((rho - passive) @ h).real), 0.0)


def pointwise_report(r, params):
    """The energy accounting of one ProtocolResult, state by state, with
    Python floats, on the 2x2 density matrices of its populations: the
    per-point reference for report_grid."""
    h, unit = battery_hamiltonian(params.omega), params.omega
    rho0 = density(GROUND)
    rho_given_1, rho_rest, rho_bar = (density(pops)
                                      for pops in (r.pops_given_1, r.pops_rest, r.pops_bar))
    rho_avg = r.p1 * rho_given_1 + r.rest_weight * rho_rest
    w1, wr, wb = (pointwise_ergotropy(rho, h) for rho in (rho_given_1, rho_rest, rho_bar))
    e_ico = float(np.trace((rho_avg - rho0) @ h).real) / unit
    e_dco = float(np.trace((rho_bar - rho0) @ h).real) / unit
    w_ico = float(sum(p * w for p, w in ((r.p1, w1), (r.rest_weight, wr)) if p > 0)) / unit
    eff = lambda w, e: w / e if e >= tolerances.ENERGY_EPS else None
    return {"E": e_ico, "W_ico": w_ico, "P_ico": eff(w_ico, e_ico), "E_dco": e_dco,
            "W_dco": wb / unit, "P_dco": eff(wb / unit, e_dco),
            "passive_k1": w1 / unit <= tolerances.PASSIVITY_ATOL,
            "passive_dco": wb / unit <= tolerances.PASSIVITY_ATOL}


def assert_columns_equal_pointwise(cols, grid, params):
    for i, point in enumerate(sweep_results(grid)):
        want = pointwise_report(point, params)
        got = {k: python_values(col[i:i + 1])[0] for k, col in cols.items()}
        assert repr(got) == repr(want), (i, got, want)   # repr: -0.0 differs from 0.0


class TestReportGrid:
    @pytest.mark.parametrize("n, omega, lam", [(2, 1.0, 0.1), (3, 2.7, 1.3), (5, 1.0, 0.1),
                                               (12, 1e-12, 0.3)])
    def test_bitwise_equal_to_pointwise_report_on_protocol_states(self, n, omega, lam):
        params = ModelParams(n, omega=omega, coupling=lam)
        grid = run_ico_sweep(omega, lam, [n], np.linspace(0.0, 4 * np.pi / (omega * lam), 240))
        cols = report_grid(grid, omega)
        assert_columns_equal_pointwise(cols, grid, params)
        for i in (0, 57, 239):
            ico, dco = report(sweep_results(grid)[i], params)
            assert (ico.E, ico.W, dco.E, dco.W) == tuple(
                cols[k][i] for k in ("E", "W_ico", "E_dco", "W_dco"))

    @given(n=st.integers(2, 12), omega=OMEGAS, lam=st.floats(1e-3, 1e3),
           fractions=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=12))
    @example(n=2, omega=OMEGA_FLOOR, lam=1e-3, fractions=[0.0, 0.3, 1.0])
    @example(n=12, omega=1e300, lam=1e3, fractions=[0.0, 0.3, 1.0])
    @settings(max_examples=40, deadline=None)
    def test_bitwise_equal_to_pointwise_report_on_drawn_protocol_states(self, n, omega, lam,
                                                                         fractions):
        # the same at omega across check_model's whole range, fractions of the window 4 pi/(omega lambda)
        times = np.array(fractions) * (4 * np.pi / (omega * lam))
        grid = run_ico_sweep(omega, lam, [n], times)
        assert_columns_equal_pointwise(report_grid(grid, omega), grid, ModelParams(n, omega, lam))

    @given(seed=st.integers(0, 2**32 - 1), omega=OMEGAS)
    @example(seed=11, omega=1.7)
    @example(seed=11, omega=OMEGA_FLOOR)
    @example(seed=11, omega=1e300)
    @settings(max_examples=30, deadline=None)
    def test_bitwise_equal_to_pointwise_report_on_random_diagonal_states(self, seed, omega):
        # the populations of random states, not only those the protocol produces
        rng = np.random.default_rng(seed)
        p1 = rng.uniform(0.0, 1.0, 200)
        given_1, rest, bar = (random_populations(rng, 200) for _ in range(3))
        grid = {"t": np.arange(200.0), "p1": p1, "pops_given_1": given_1, "rest_weight": 1.0 - p1,
                "pops_rest": rest, "pops_bar": bar}
        cols = report_grid(grid, omega)
        assert_columns_equal_pointwise(cols, grid, ModelParams(2, omega=omega, coupling=0.2))
        assert not cols["passive_k1"].all() and not cols["passive_dco"].all()

    @pytest.mark.parametrize("seed", [2, 3, 5])
    def test_stacked_ergotropy_bitwise_equal_to_pointwise(self, seed):
        rng = np.random.default_rng(seed)
        h = battery_hamiltonian(10.0 ** rng.uniform(-3.0, 3.0))
        states = random_populations(rng, 2000)
        got = thermo._ergotropies([states], h.diagonal().real)[0]
        want = [pointwise_ergotropy(density(pops), h) for pops in states]
        assert got.tolist() == want
        assert [thermo._ergotropies([pops[None]], h.diagonal().real)[0, 0]
                for pops in states[:50]] == want[:50]

    def test_raises_below_ergotropy_floor(self, monkeypatch):
        grid = run_ico_sweep(1.0, 0.1, [3], [0.0, 20.0])     # both ergotropies are 0 at t = 0
        monkeypatch.setattr(tolerances, "ERGOTROPY_FLOOR", 1e-6)
        with pytest.raises(ValueError, match=r"^ergotropy 0 below numerical floor$"):
            report_grid(grid, 1.0)

    def test_first_state_below_floor_is_named_stack_by_stack(self, monkeypatch):
        # pops_bar falls below the floor at point 1 and pops_rest at point 2: pops_rest's
        # is named, as when each stack was checked on its own, given_1 then rest then bar
        h = battery_hamiltonian(1.0)
        given_1, rest, bar = (np.array([EXCITED] * 4) for _ in range(3))
        rest[2] = [0.5 - 1e-7, 0.5 + 1e-7]      # ergotropy 2e-7
        bar[1] = [0.5 - 2e-7, 0.5 + 2e-7]       # ergotropy 4e-7
        p1 = np.full(4, 0.5)
        grid = {"t": np.arange(4.0), "p1": p1, "pops_given_1": given_1, "rest_weight": 1.0 - p1,
                "pops_rest": rest, "pops_bar": bar}
        monkeypatch.setattr(tolerances, "ERGOTROPY_FLOOR", 1e-6)
        thermo._ergotropies([given_1], h.diagonal().real)       # passes
        with pytest.raises(ValueError) as each:
            thermo._ergotropies([rest], h.diagonal().real)
        w = pointwise_ergotropy(density(rest[2]), h)
        assert str(each.value) == f"ergotropy {w:g} below numerical floor"
        with pytest.raises(ValueError) as whole:
            report_grid(grid, 1.0)
        assert str(whole.value) == str(each.value)

    def test_undefined_efficiency_is_nan_without_warnings(self):
        period = 4 * np.pi / 0.1     # E returns to 0 at t = k * period (k = 0, 1, 2)
        grid = run_ico_sweep(1.0, 0.1, [4], np.linspace(0.0, 2 * period, 9))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cols = report_grid(grid, 1.0)
        undefined = cols["E"] < tolerances.ENERGY_EPS
        assert undefined[[0, 4, 8]].all() and undefined.sum() == 3
        assert np.isnan(cols["P_ico"][undefined]).all() and np.isnan(cols["P_dco"][undefined]).all()
        assert not np.isnan(cols["P_ico"][~undefined]).any()

    @pytest.mark.parametrize("omega", [OMEGA_FLOOR, 1.0, 1e300])
    def test_given_1_populations_at_a_tie_are_passive_with_zero_ergotropy(self, omega):
        # (0.5, 0.5) is its own passive state whichever level takes which population
        tie = np.array([0.5, 0.5])
        p1 = np.array([1.0, 0.5])
        grid = {"t": np.arange(2.0), "p1": p1, "pops_given_1": np.array([tie, tie]),
                "rest_weight": 1.0 - p1, "pops_rest": np.array([EXCITED, tie]),
                "pops_bar": np.array([tie, tie])}
        cols = report_grid(grid, omega)
        assert cols["W_ico"].tolist() == [0.0, 0.0] and cols["W_dco"].tolist() == [0.0, 0.0]
        assert cols["passive_k1"].all() and cols["passive_dco"].all()
        assert cols["E"].tolist() == cols["E_dco"].tolist() == [0.5, 0.5]


@pytest.mark.parametrize("n_list, omega, lam", [([2, 3, 4, 5], 1.0, 0.1), ([32, 3, 2], 2.7, 1.3),
                                            ([7, 12], 1e-12, 0.3)])
def test_report_grid_on_joined_states_equals_each_n_alone(n_list, omega, lam):
    # the states of every N of a sweep, reported at once
    times = np.linspace(0.0, 4 * np.pi / (omega * lam), 60)
    grids = [run_ico_sweep(omega, lam, [n], times) for n in n_list]
    cols = report_grid(run_ico_sweep(omega, lam, n_list, times), omega)
    for k, (n, grid) in enumerate(zip(n_list, grids)):
        alone = report_grid(grid, omega)
        rows = slice(k * len(times), (k + 1) * len(times))
        for key, col in alone.items():
            assert cols[key][rows].tobytes() == col.tobytes(), (n, key)


def test_python_values_turn_nan_into_none_whatever_the_column():
    assert python_values(np.array([1.5, np.nan])) == [1.5, None]
    assert [repr(v) for v in python_values(np.array([0.25, -0.0]))] == ["0.25", "-0.0"]
    assert python_values(np.array([True, False])) == [True, False]
    assert python_values(np.array([3, 4])) == [3, 4]


def test_shared_eigenvectors_are_what_eigh_returns_at_every_omega():
    # report_grid reads populations in the basis |g>, |e> and takes the levels from H's
    # diagonal, ascending wherever check_model accepts omega: eigh of H returns that basis
    # bit for bit, and that diagonal as its eigenvalues (to the last bit that its scaling
    # of tiny matrices rounds)
    omegas = np.concatenate([10.0 ** np.random.default_rng(5).uniform(-300, 300, 2000),
                             [5e-324, 1e-310, OMEGA_FLOOR, 1.0, 2.0, 1.7e308]])
    for om in omegas:
        h = battery_hamiltonian(om)
        values, vecs = np.linalg.eigh(h)
        levels = h.diagonal().real
        assert vecs.tobytes() == np.eye(2, dtype=complex).tobytes(), om
        assert np.allclose(values, levels, rtol=4 * np.finfo(float).eps, atol=0.0), om
        assert levels[0] < levels[1] or om < OMEGA_FLOOR, om
