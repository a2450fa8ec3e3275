from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import icobattery.protocol as protocol
from icobattery.model import ModelParams
from icobattery.protocol import _battery_populations, _branch_amplitudes, run_ico, run_ico_sweep

import dense_reference
from dense_reference import (cyclic_sequence, initial_state, pair_unitary, sector_indices,
                             switch_projector, total_unitary)
from conftest import sweep_results
from labeled_linalg import PAIR_LAYOUT, battery_charger_layout, require_unitary, Operator

P2 = ModelParams(2, omega=1.0, coupling=0.1)

KET_GG = np.diag([1.0, 0.0])
KET_EE = np.diag([0.0, 1.0])


def test_cyclic_sequence():
    assert cyclic_sequence(1, 4) == (1, 2, 3, 4)
    assert cyclic_sequence(3, 4) == (3, 4, 1, 2)
    with pytest.raises(ValueError):
        cyclic_sequence(0, 4)
    with pytest.raises(ValueError):
        cyclic_sequence(5, 4)


@pytest.mark.parametrize("n", range(2, 51))
def test_steps_follow_the_columns_of_cyclic_sequence(n):
    # this block doubles component 0 and copies it into the charger the step
    # acts on, so order j leaves 2^k on the charger that its step k acts on
    amp = _branch_amplitudes(n, np.array([[2.0, 0.0], [1.0, 0.0]])[..., None])
    steps = np.log2(amp[:, 1:, 0].real).astype(int)
    assert steps.tolist() == [[cyclic_sequence(j, n).index(c) for c in range(1, n + 1)]
                              for j in range(1, n + 1)]


class TestTotalUnitary:
    def test_time_zero_identity(self):
        u = total_unitary(P2, 0.0)
        assert np.allclose(u.mat, np.eye(u.layout.dim), atol=1e-12)

    def test_block_diagonal(self):
        u = total_unitary(ModelParams(3), 4.2).mat
        sub = 16
        for j in range(3):
            for f in range(3):
                block = u[j * sub:(j + 1) * sub, f * sub:(f + 1) * sub]
                if j != f:
                    assert np.max(np.abs(block)) == 0.0

    def test_n2_branch_is_ordered_product(self):
        # branch j=1 must equal U_2(t/2) U_1(t/2) built by direct matrix product
        from dense_reference import embed_pair
        t = 5.3
        layout = battery_charger_layout(2)
        u_pair = Operator(PAIR_LAYOUT, pair_unitary(P2, t / 2))
        oracle = embed_pair(u_pair, layout, 2).mat @ embed_pair(u_pair, layout, 1).mat
        block = total_unitary(P2, t).mat[:8, :8]
        assert np.max(np.abs(block - oracle)) <= 1e-12

    def test_branch_blocks_unitary(self):
        params = ModelParams(4, omega=1.0, coupling=0.1)
        u = total_unitary(params, 7.7).mat
        sub = 32
        for j in range(4):
            block = u[j * sub:(j + 1) * sub, j * sub:(j + 1) * sub]
            require_unitary(Operator(battery_charger_layout(4), block))


class TestInitialState:
    def test_norm(self):
        assert np.linalg.norm(initial_state(ModelParams(5)).vec) == pytest.approx(1.0, abs=1e-12)

    def test_n2_amplitudes(self):
        vec = initial_state(P2).vec
        nz = np.nonzero(vec)[0]
        # (D, Q, C1, C2) mixed radix: D=0/1, Q=g(0), chargers e(1) -> 0b011, 0b1011
        assert list(nz) == [3, 11]
        assert np.allclose(vec[nz], 1 / np.sqrt(2))

    def test_switch_marginal_uniform(self):
        from dense_reference import reduced_density
        rho_d = reduced_density(initial_state(ModelParams(3)), {"D"}).mat
        assert np.allclose(rho_d, np.full((3, 3), 1 / 3), atol=1e-12)


class TestSwitchProjector:
    def test_entries(self):
        assert np.allclose(switch_projector(2).mat, np.full((2, 2), 0.5))

    def test_idempotent_rank_one(self):
        for n in (2, 3, 5):
            p = switch_projector(n).mat
            assert np.max(np.abs(p @ p - p)) <= 1e-12
            assert np.trace(p).real == pytest.approx(1.0, abs=1e-12)


class TestRunIco:
    def test_time_zero(self):
        r = run_ico(P2, 0.0)
        assert r.p1 == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(r.rho_given_1, KET_GG, atol=1e-12)

    def test_frozen_point_two_pi(self):
        # closed-form oracle values, independently verified by direct
        # 16x2-dim state-vector evolution
        r = run_ico(P2, 2 * np.pi)
        assert r.p1 == pytest.approx(0.818250, abs=1e-5)
        assert r.rho_given_1[0, 0].real == pytest.approx(0.99986, abs=1e-4)

    @pytest.mark.parametrize("t", [0.7, 2 * np.pi, 9.4])
    @pytest.mark.parametrize("n", [2, 3])
    def test_mixture_identity(self, n, t):
        params = ModelParams(n, omega=1.0, coupling=0.1)
        r = run_ico(params, t)
        assert np.max(np.abs(r.rho_avg - r.rho_bar)) <= 1e-10

    @pytest.mark.parametrize("t", [0.7, 2 * np.pi, 9.4])
    def test_complement_is_excited_state(self, t):
        r = run_ico(P2, t)
        assert np.max(np.abs(r.rho_rest - KET_EE)) <= 1e-9

    def test_weights_sum_to_one(self):
        r = run_ico(ModelParams(3), 3.3)
        assert r.p1 + r.rest_weight == pytest.approx(1.0, abs=1e-10)

    def test_joint_state_purity(self):
        # evolution is unitary on a pure input; check via the full density matrix
        params = ModelParams(2, omega=1.0, coupling=0.1)
        psi = total_unitary(params, 4.1).mat @ initial_state(params).vec
        rho = np.outer(psi, psi.conj())
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-10)


def branch_populations(params, t):
    """Battery populations (g, e) left by each definite order j = 1..N alone,
    as the rows of an (N, 2) array, from the sector engine's branches."""
    n = params.n_chargers
    u = pair_unitary(params, np.array([t / n]))
    return _battery_populations(_branch_amplitudes(n, u[1:3, 1:3] / u[3, 3]))[:, 0]


class TestRunDco:
    """The definite-order states: branch j is the battery state that order j
    alone leaves, and branch 1 is run_ico's reference state rho_bar."""

    def test_time_zero(self):
        assert np.allclose(run_ico(P2, 0.0).rho_bar, KET_GG, atol=1e-12)
        assert np.allclose(branch_populations(P2, 0.0), [[1.0, 0.0]] * 2, atol=1e-12)

    def test_order_independent(self):
        for n in (2, 3):
            params = ModelParams(n, omega=1.0, coupling=0.1)
            pops = branch_populations(params, 6.1)
            assert np.max(np.abs(pops - pops[0])) <= 1e-12
            assert np.max(np.abs(np.diag(run_ico(params, 6.1).rho_bar) - pops[0])) <= 1e-12

    def test_frozen_excited_population(self):
        # closed form 1 - cos^4(omega*lambda*t/2)
        rho = run_ico(P2, 2 * np.pi).rho_bar
        assert rho[1, 1].real == pytest.approx(0.181864, abs=1e-5)
        exact = 1 - np.cos(0.1 * np.pi) ** 4
        assert rho[1, 1].real == pytest.approx(exact, abs=1e-12)
        assert branch_populations(P2, 2 * np.pi)[:, 1] == pytest.approx([exact] * 2, abs=1e-12)

    def test_energy_equality_with_ico(self):
        for t in (1.1, 2 * np.pi, 8.8):
            r = run_ico(ModelParams(3, omega=1.0, coupling=0.1), t)
            assert abs(r.rho_avg[1, 1].real - r.rho_bar[1, 1].real) <= 1e-10


class TestSectorEngine:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_dense_reference(self, n):
        params = ModelParams(n, omega=1.0, coupling=0.1)
        times = [0.0, 0.7, 2 * np.pi, 9.4, 61.3]
        for t, sector in zip(times, sweep_results(run_ico_sweep(1.0, 0.1, [n], times))):
            dense = dense_reference.run_ico(params, t)
            assert sector.t == t
            assert abs(sector.p1 - dense.p1) <= 1e-12
            for field in ("rho_given_1", "rho_rest", "rho_bar"):
                dev = np.max(np.abs(getattr(sector, field) - getattr(dense, field)))
                assert dev <= 1e-12, (n, t, field, dev)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_dense_evolution_stays_in_sector(self, n):
        params = ModelParams(n, omega=1.0, coupling=0.1)
        inside = sector_indices(n)
        assert len(inside) == n * (n + 1)
        for t in (0.0, 3.1, 2 * np.pi, 47.0):
            psi = dense_reference.evolved_state(params, t)
            outside = 1.0 - np.sum(np.abs(psi[inside]) ** 2)
            assert abs(outside) < 1e-14

    def test_chunked_grid_matches_unchunked(self, monkeypatch):
        import icobattery.protocol as protocol
        times = np.linspace(0.0, 40.0, 9)
        whole = sweep_results(run_ico_sweep(1.0, 0.1, [3], times))
        monkeypatch.setattr(protocol, "CHUNK_AMPLITUDES", 2 * 3 * 4)   # two points per chunk
        chunked = sweep_results(run_ico_sweep(1.0, 0.1, [3], times))
        assert [r.t for r in chunked] == list(times)
        for a, b in zip(whole, chunked):
            assert a.p1 == b.p1
            assert np.array_equal(a.rho_rest, b.rho_rest)
            assert np.array_equal(a.rho_bar, b.rho_bar)

    def test_grid_columns_and_points(self):
        params = ModelParams(4, omega=1.0, coupling=0.1)
        times = np.linspace(0.0, 30.0, 7)
        grid = run_ico_sweep(1.0, 0.1, [4], times)
        assert list(grid) == ["t", "p1", "rho_given_1", "rest_weight", "rho_rest", "rho_bar",
                              "rho_avg"]
        assert grid["t"].shape == grid["p1"].shape == grid["rest_weight"].shape == (7,)
        for field in ("rho_given_1", "rho_rest", "rho_bar", "rho_avg"):
            assert grid[field].shape == (7, 2, 2)
        point, alone = sweep_results(grid)[3], run_ico(params, times[3])
        assert (point.t, point.p1, point.rest_weight) == (alone.t, alone.p1, alone.rest_weight)
        for field in ("rho_given_1", "rho_rest", "rho_bar", "rho_avg"):
            assert np.array_equal(getattr(point, field), getattr(alone, field))
        alone.rho_bar[0, 0] = 7.0                     # a result shares no array with a later one
        assert run_ico(params, times[3]).rho_bar[0, 0] != 7.0
        assert run_ico_sweep(1.0, 0.1, [4], [])["rho_avg"].shape == (0, 2, 2)

    def test_large_n_matches_closed_form(self):
        from icobattery.analytic import closed_form_report
        params = ModelParams(60, omega=1.0, coupling=0.1)
        times = np.linspace(0.0, 4 * np.pi / 0.1, 6)
        for t, r in zip(times, sweep_results(run_ico_sweep(1.0, 0.1, [60], times))):
            ana = closed_form_report(params, t)
            assert abs(r.p1 - ana.p1) <= 1e-12
            assert abs(r.rho_avg[1, 1].real - ana.E) <= 1e-12


@given(n_list=st.lists(st.integers(2, 12), min_size=1, max_size=4, unique=True),
       points=st.integers(0, 7), omega=st.sampled_from([1.0, 2.7]),
       lam=st.sampled_from([0.1, 1.3]), chunk=st.integers(1, 800))
@example(n_list=[9, 3, 2], points=5, omega=1.0, lam=0.1, chunk=2 * 12)
@example(n_list=[5, 2], points=0, omega=1.0, lam=0.1, chunk=30)
@settings(max_examples=60, deadline=None)
def test_sweep_rows_equal_each_n_alone(n_list, points, omega, lam, chunk):
    # chunk (in amplitudes, N(N+1) a row) splits an N's rows or holds one row.
    # In the example every row of N = 9 is alone in its chunk, N = 3's rows are
    # split 2, 2, 1 and N = 2's 4, 1
    times = np.linspace(0.0, 4 * np.pi / (omega * lam), points)
    with mock.patch.object(protocol, "CHUNK_AMPLITUDES", chunk):
        swept = run_ico_sweep(omega, lam, n_list, times)
    assert swept["t"].shape == (len(n_list) * points,)
    for k, n in enumerate(n_list):
        alone = run_ico_sweep(omega, lam, [n], times)
        rows = slice(k * points, (k + 1) * points)
        for key, col in alone.items():
            assert swept[key].shape[1:] == col.shape[1:] == ((2, 2) if col.ndim > 1 else ())
            assert swept[key][rows].tobytes() == col.tobytes(), (n, key)


def reference_populations(n, omega, lam, times):
    """sigma_1, sigma_rest and bar of one chunk of N's rows, from the block
    cut out of the full pair unitary and one `_battery_populations` call on
    each of the mean branch, the deviations and branch 1."""
    u = pair_unitary(ModelParams(n, omega, lam), np.asarray(times) / n)
    amp = _branch_amplitudes(n, u[1:3, 1:3] / u[3, 3])
    mean = amp.mean(axis=0)
    return (_battery_populations(mean), _battery_populations(amp - mean).mean(axis=0),
            _battery_populations(amp[0]))


@pytest.mark.parametrize("n", [2, 3, 9, 200])
@pytest.mark.parametrize("points", [1, 2, 12])    # one point takes the cumsum branch
def test_populations_equal_full_unitary_reference(monkeypatch, n, points):
    times = np.linspace(0.0, 4 * np.pi / (1.3 * 0.1), points + 1)[1:]
    conditioned = []
    conditional = protocol._conditional

    def recording(sigma, fallback):
        conditioned.append(sigma.copy())
        return conditional(sigma, fallback)

    monkeypatch.setattr(protocol, "_conditional", recording)
    grid = run_ico_sweep(1.3, 0.1, [n], times)
    sigma_1, sigma_rest, bar = reference_populations(n, 1.3, 0.1, times)
    # one call conditions both outcomes, stacked in the order k = 1, k != 1
    assert [s.tobytes() for s in conditioned] == [np.array([sigma_1, sigma_rest]).tobytes()]
    assert grid["rho_bar"].diagonal(axis1=1, axis2=2).real.tobytes() == bar.tobytes()
