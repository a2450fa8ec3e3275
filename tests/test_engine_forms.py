"""Both engines build their shared arrays once and keep every bit of the
earlier forms in `engine_reference`, chunked or not, at one time or many."""
import numpy as np
import pytest

import icobattery.protocol as protocol
from icobattery import tolerances as tol
from icobattery.analytic import closed_form_sweep
from icobattery.model import KET_E, KET_G, _pair_entries, battery_hamiltonian
from icobattery.protocol import (_battery_populations, _branch_amplitudes, _conditional,
                                 _density, run_ico_sweep)
from icobattery.thermo import _H_VECS, report_grid

import engine_reference as ref

N_VALUES = [2, 3, 7, 32, 200]
POINTS = [1, 2, 400]         # one time takes the cumsum branch of _battery_populations
OMEGA, LAM = 1.3, 0.1


def grid(points):
    """`points` times over two envelope periods, t = 0 excluded."""
    return np.linspace(0.0, 4 * np.pi / (OMEGA * LAM), points + 1)[1:]


def assert_columns_bitwise(got, want):
    assert list(got) == list(want)
    for key in want:
        assert got[key].dtype == want[key].dtype, key
        assert got[key].shape == want[key].shape, key
        assert got[key].tobytes() == want[key].tobytes(), key


def first_chunk(n, points):
    """The amplitudes of the first chunk the engine evolves for N = n over
    grid(points)."""
    rows = min(points, max(1, protocol.CHUNK_AMPLITUDES // (n * (n + 1))))
    _, ee, diag, off = _pair_entries(OMEGA, LAM, grid(points)[:rows] / n)
    return _branch_amplitudes(n, np.array([[diag, off], [off, diag]]) / ee)


@pytest.mark.parametrize("n", N_VALUES)
@pytest.mark.parametrize("points", POINTS)
def test_pair_entries_equal_twice_formed(n, points):
    for t_l in (grid(points) / n, grid(points)[0] / n):   # a lone time, as pair_unitary takes
        got, want = _pair_entries(OMEGA, LAM, t_l), ref.twice_pair_entries(OMEGA, LAM, t_l)
        assert [e.tobytes() for e in got] == [e.tobytes() for e in want]


@pytest.mark.parametrize("n", N_VALUES)
@pytest.mark.parametrize("points", POINTS)
def test_battery_populations_equal_stacked(n, points):
    amp = first_chunk(n, points)
    mean = amp.sum(axis=0) / n
    assert mean.tobytes() == amp.mean(axis=0).tobytes()
    for part in (amp, amp[0], mean, amp - mean):
        got, want = _battery_populations(part), ref.stacked_battery_populations(part)
        assert got.shape == want.shape == part.shape[:-2] + (part.shape[-1], 2)
        assert got.tobytes() == want.tobytes()
    pops = _battery_populations(amp - mean)
    assert (pops.sum(axis=0) / n).tobytes() == pops.mean(axis=0).tobytes()


@pytest.mark.parametrize("n", N_VALUES)
@pytest.mark.parametrize("points", POINTS)
def test_conditional_and_density_equal_tiled(n, points):
    amp = first_chunk(n, points)
    for sigma in (_battery_populations(amp.mean(axis=0)),
                  _battery_populations(amp).mean(axis=0)):
        sigma[::2] *= tol.ENERGY_EPS      # every other weight below ENERGY_EPS takes the fallback
        for fallback in (KET_G, KET_E):
            got, want = _conditional(sigma, fallback), ref.tiled_conditional(sigma, fallback)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert _density(sigma).tobytes() == ref.eye_density(sigma).tobytes()


@pytest.mark.parametrize("n", N_VALUES)
@pytest.mark.parametrize("points", POINTS)
@pytest.mark.parametrize("rows_per_chunk", [None, 1, 3])    # None: the library's chunks
def test_run_ico_sweep_equals_tiled(monkeypatch, n, points, rows_per_chunk):
    if rows_per_chunk is not None:
        monkeypatch.setattr(protocol, "CHUNK_AMPLITUDES", rows_per_chunk * n * (n + 1))
    assert_columns_bitwise(run_ico_sweep(OMEGA, LAM, [n], grid(points)),
                           ref.tiled_run_ico_sweep(OMEGA, LAM, [n], grid(points)))


@pytest.mark.parametrize("points", POINTS)
@pytest.mark.parametrize("rows_per_chunk", [None, 1, 3])
def test_multi_n_sweeps_equal_tiled(monkeypatch, points, rows_per_chunk):
    n_list = [3, 2, 32]
    if rows_per_chunk is not None:
        monkeypatch.setattr(protocol, "CHUNK_AMPLITUDES", rows_per_chunk * 32 * 33)
    states = run_ico_sweep(OMEGA, LAM, n_list, grid(points))
    assert_columns_bitwise(states, ref.tiled_run_ico_sweep(OMEGA, LAM, n_list, grid(points)))
    assert_columns_bitwise(report_grid(states, OMEGA), ref.decomposing_report_grid(states, OMEGA))
    assert_columns_bitwise(closed_form_sweep(OMEGA, LAM, n_list, grid(points)),
                           ref.tiled_closed_form_sweep(OMEGA, LAM, n_list, grid(points)))


@pytest.mark.parametrize("omega", [1e-3, 0.37, 1.0, 2.0, 7.5e2])
def test_report_grid_equals_per_call_decomposition(omega):
    states = run_ico_sweep(omega, LAM, [2, 5], np.linspace(0.0, 4 * np.pi / (omega * LAM), 60))
    assert_columns_bitwise(report_grid(states, omega), ref.decomposing_report_grid(states, omega))


def test_shared_eigenvectors_are_what_eigh_returns_at_every_omega():
    omegas = np.concatenate([10.0 ** np.random.default_rng(5).uniform(-300, 300, 2000),
                             [5e-324, 1e-310, 1.0, 2.0, 1.7e308]])
    assert all(np.linalg.eigh(battery_hamiltonian(om))[1].tobytes() == _H_VECS.tobytes()
               for om in omegas)


def test_empty_grids_keep_their_shapes_and_dtypes():
    for n_list, times in (([3, 2], []), ([], grid(4))):
        assert_columns_bitwise(closed_form_sweep(OMEGA, LAM, n_list, times),
                               ref.tiled_closed_form_sweep(OMEGA, LAM, n_list, times))
    assert_columns_bitwise(run_ico_sweep(OMEGA, LAM, [3, 2], []),
                           ref.tiled_run_ico_sweep(OMEGA, LAM, [3, 2], []))
