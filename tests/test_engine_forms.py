"""The numeric engine's helpers build their shared arrays once and keep
every bit of the earlier forms in `engine_reference`."""
import numpy as np
import pytest

import icobattery.protocol as protocol
from icobattery import tolerances as tol
from icobattery.model import _pair_entries
from icobattery.protocol import _FALLBACKS, _battery_populations, _branch_amplitudes, _conditional

import engine_reference as ref

N_VALUES = [2, 3, 7, 32, 200]
POINTS = [1, 2, 400]         # one time takes the cumsum branch of _battery_populations
OMEGA, LAM = 1.3, 0.1


def grid(points):
    """`points` times over two envelope periods, t = 0 excluded."""
    return np.linspace(0.0, 4 * np.pi / (OMEGA * LAM), points + 1)[1:]


def first_chunk(n, points):
    """The amplitudes of the first chunk the engine evolves for N = n over
    grid(points)."""
    rows = min(points, max(1, protocol.CHUNK_AMPLITUDES // (n * (n + 1))))
    ee, diag, off = _pair_entries(OMEGA, LAM, grid(points)[:rows] / n)
    return _branch_amplitudes(n, diag / ee, off / ee)


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
        want = ref.stacked_battery_populations(part)
        got = _battery_populations(part.copy())        # the copy is overwritten
        assert got.shape == want.shape == part.shape[:-2] + (part.shape[-1], 2)
        assert got.tobytes() == want.tobytes()
    pops = _battery_populations(amp - mean)
    assert (pops.sum(axis=0) / n).tobytes() == pops.mean(axis=0).tobytes()


@pytest.mark.parametrize("n", N_VALUES)
@pytest.mark.parametrize("points", POINTS)
def test_conditional_and_density_equal_tiled(n, points):
    # the conditional states, held as the populations of their diagonal density matrices
    amp = first_chunk(n, points)
    for sigma in (_battery_populations(amp.mean(axis=0)),
                  _battery_populations(amp).mean(axis=0)):
        sigma[::2] *= tol.ENERGY_EPS      # every other weight below ENERGY_EPS takes the fallback
        for fallback in _FALLBACKS:      # |g> and |e>
            got, want = _conditional(sigma, fallback), ref.tiled_conditional(sigma, fallback)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

