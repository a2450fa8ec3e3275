import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icobattery import thermo, tolerances
from icobattery.model import ModelParams, battery_hamiltonian
from icobattery.protocol import run_ico, run_ico_sweep
from icobattery.thermo import _H_VECS, python_values, report, report_grid
from conftest import random_density, random_hermitian, sweep_results

H_Q = battery_hamiltonian(1.0)  # (1/2) sigma_z, |e> = index 1
VECS_Q = np.linalg.eigh(H_Q)[1]
GG = np.diag([1.0, 0.0]).astype(complex)
EE = np.diag([0.0, 1.0]).astype(complex)


def brute_force_ergotropy(rho, h):
    """Minimize Tr[rho' h] over all assignments of rho's populations to
    energy eigenstates of h."""
    pops = np.linalg.eigvalsh(rho)
    energies = np.linalg.eigvalsh(h)
    best = min(np.dot(pops, np.array(perm)) for perm in itertools.permutations(energies))
    return float(np.trace(rho @ h).real - best)


class TestPassiveState:
    def test_inverted_population(self):
        assert np.allclose(thermo._passive_state(EE, VECS_Q), GG, atol=1e-12)

    def test_fixed_point(self):
        rho = np.diag([0.7, 0.3]).astype(complex)
        assert np.allclose(thermo._passive_state(rho, VECS_Q), rho, atol=1e-12)

    def test_two_level_sort(self):
        rho = np.diag([0.3, 0.7]).astype(complex)
        assert np.allclose(thermo._passive_state(rho, VECS_Q), np.diag([0.7, 0.3]), atol=1e-12)


class TestErgotropy:
    def test_ground_state(self):
        assert thermo._ergotropies([GG[None]], H_Q, VECS_Q)[0, 0] == 0.0

    def test_excited_state(self):
        assert thermo._ergotropies([EE[None]], H_Q, VECS_Q)[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_partial_inversion(self):
        rho = np.diag([0.3, 0.7]).astype(complex)
        assert thermo._ergotropies([rho[None]], H_Q, VECS_Q)[0, 0] == pytest.approx(0.4, abs=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3, 4]))
    @settings(max_examples=40, deadline=None)
    def test_matches_permutation_oracle(self, seed, dim):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, dim)
        h = random_hermitian(rng, dim)
        w = thermo._ergotropies([rho[None]], h, np.linalg.eigh(h)[1])[0, 0]
        assert w == pytest.approx(brute_force_ergotropy(rho, h), abs=1e-10)


class TestDaemonicErgotropy:
    """The probability-weighted ergotropy of an ensemble: _weighted_sum over
    the outcomes (axis 0) of the ergotropies of its states."""

    def test_single_outcome_reduces_to_plain(self):
        rho = np.diag([0.2, 0.8]).astype(complex)
        w = thermo._ergotropies([rho[None]], H_Q, VECS_Q)
        assert thermo._weighted_sum(np.ones((1, 1)), w)[0] == pytest.approx(w[0, 0])

    def test_dominates_average_state(self):
        w = thermo._ergotropies([np.array([GG, EE, 0.5 * GG + 0.5 * EE])], H_Q, VECS_Q)[0]
        assert thermo._weighted_sum(np.full((2, 1), 0.5), w[:2, None])[0] == pytest.approx(
            0.5, abs=1e-12)
        assert w[2] == 0.0

    def test_identical_states(self):
        rho = np.diag([0.1, 0.9]).astype(complex)
        w = thermo._ergotropies([np.array([rho] * 4)], H_Q, VECS_Q)[0]
        assert thermo._weighted_sum(np.full((4, 1), 0.25), w[:, None])[0] == pytest.approx(w[0])

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_daemonic_dominance_random(self, seed):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(3))
        states = [random_density(rng, 2) for _ in range(3)]
        avg = sum(p * r for p, r in zip(probs, states))
        w = thermo._ergotropies([np.array(states + [avg])], H_Q, VECS_Q)[0]
        assert thermo._weighted_sum(probs[:, None], w[:3, None])[0] >= w[3] - 1e-10


class TestStoredEnergy:
    """Tr[rho H] - Tr[rho0 H] as _energies of the difference."""

    def test_no_change(self):
        rho = np.diag([0.4, 0.6]).astype(complex)
        assert thermo._energies((rho - rho)[None], H_Q)[0] == pytest.approx(0.0, abs=1e-12)

    def test_full_inversion(self):
        assert thermo._energies((EE - GG)[None], H_Q)[0] == pytest.approx(1.0, abs=1e-12)

    def test_frozen_point(self):
        # closed form 1 - cos^4(omega*lambda*t/2) at t = 2 pi
        params = ModelParams(2, omega=1.0, coupling=0.1)
        r = run_ico(params, 2 * np.pi)
        e = thermo._energies((r.rho_avg - GG)[None], H_Q)[0]
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
            gap = r.rho_given_1[0, 0].real - r.rho_given_1[1, 1].real
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


def stacked_passive_state(rho, vecs):
    """`thermo._passive_state` in its stacked form: one matrix product per
    state of the stack, which the flattened product must equal bit for bit."""
    return (vecs * np.linalg.eigvalsh(rho)[..., None, ::-1]) @ vecs.conj().T


def stacked_energies(rho, h):
    """`thermo._energies` in its stacked form, one rho @ h product per state."""
    return np.trace(rho @ h, axis1=1, axis2=2).real


@pytest.mark.parametrize("dim", [2, 3, 5])
@pytest.mark.parametrize("count", [1, 2, 7, 2000])
def test_flattened_products_bitwise_equal_to_stacked(dim, count):
    rng = np.random.default_rng(100 * dim + count)
    h = random_hermitian(rng, dim)
    vecs = np.linalg.eigh(h)[1]
    states = random_states(rng, count, dim)
    passive = thermo._passive_state(states, vecs)
    assert passive.tobytes() == stacked_passive_state(states, vecs).tobytes()
    for rho in (states, states - passive):
        assert thermo._energies(rho, h).tobytes() == stacked_energies(rho, h).tobytes()


def pointwise_report(r, params):
    """The energy accounting of one ProtocolResult, state by state, with
    Python floats: the per-point reference for report_grid."""
    h, unit = battery_hamiltonian(params.omega), params.omega
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    w1, wr, wb = (pointwise_ergotropy(rho, h) for rho in (r.rho_given_1, r.rho_rest, r.rho_bar))
    e_ico = float(np.trace((r.rho_avg - rho0) @ h).real) / unit
    e_dco = float(np.trace((r.rho_bar - rho0) @ h).real) / unit
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


def random_states(rng, count, dim):
    return np.array([random_density(rng, dim) for _ in range(count)])


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

    def test_bitwise_equal_to_pointwise_report_on_non_diagonal_states(self):
        # nothing may assume the diagonal states that the protocol produces
        rng = np.random.default_rng(11)
        params = ModelParams(2, omega=1.7, coupling=0.2)
        p1 = rng.uniform(0.0, 1.0, 500)
        given_1, rest, bar = (random_states(rng, 500, 2) for _ in range(3))
        grid = {"t": np.arange(500.0), "p1": p1, "rho_given_1": given_1, "rest_weight": 1.0 - p1,
                "rho_rest": rest, "rho_bar": bar,
                "rho_avg": p1[:, None, None] * given_1 + (1.0 - p1)[:, None, None] * rest}
        cols = report_grid(grid, params.omega)
        assert_columns_equal_pointwise(cols, grid, params)
        assert not cols["passive_k1"].all() and not cols["passive_dco"].all()

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_stacked_ergotropy_bitwise_equal_to_pointwise(self, dim):
        rng = np.random.default_rng(dim)
        h = random_hermitian(rng, dim)
        states = random_states(rng, 2000, dim)
        vecs = np.linalg.eigh(h)[1]
        got = thermo._ergotropies([states], h, vecs)[0]
        want = [pointwise_ergotropy(rho, h) for rho in states]
        assert got.tolist() == want
        assert [thermo._ergotropies([rho[None]], h, vecs)[0, 0] for rho in states[:50]] == want[:50]

    def test_raises_below_ergotropy_floor(self, monkeypatch):
        grid = run_ico_sweep(1.0, 0.1, [3], [0.0, 20.0])     # both ergotropies are 0 at t = 0
        monkeypatch.setattr(tolerances, "ERGOTROPY_FLOOR", 1e-6)
        with pytest.raises(ValueError, match=r"^ergotropy 0 below numerical floor$"):
            report_grid(grid, 1.0)

    def test_first_state_below_floor_is_named_stack_by_stack(self, monkeypatch):
        # rho_bar falls below the floor at point 1 and rho_rest at point 2: rho_rest's
        # is named, as when each stack was checked on its own, given_1 then rest then bar
        h = battery_hamiltonian(1.0)
        excited = np.diag([0.0, 1.0]).astype(complex)
        given_1, rest, bar = (np.array([excited] * 4) for _ in range(3))
        rest[2] = np.diag([0.5 - 1e-7, 0.5 + 1e-7])      # ergotropy 2e-7
        bar[1] = np.diag([0.5 - 2e-7, 0.5 + 2e-7])       # ergotropy 4e-7
        p1 = np.full(4, 0.5)
        grid = {"t": np.arange(4.0), "p1": p1, "rho_given_1": given_1, "rest_weight": 1.0 - p1,
                "rho_rest": rest, "rho_bar": bar, "rho_avg": 0.5 * (given_1 + rest)}
        monkeypatch.setattr(tolerances, "ERGOTROPY_FLOOR", 1e-6)
        vecs = np.linalg.eigh(h)[1]
        thermo._ergotropies([given_1], h, vecs)       # passes
        with pytest.raises(ValueError) as each:
            thermo._ergotropies([rest], h, vecs)
        w = pointwise_ergotropy(rest[2], h)
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
    omegas = np.concatenate([10.0 ** np.random.default_rng(5).uniform(-300, 300, 2000),
                             [5e-324, 1e-310, 1.0, 2.0, 1.7e308]])
    assert all(np.linalg.eigh(battery_hamiltonian(om))[1].tobytes() == _H_VECS.tobytes()
               for om in omegas)
