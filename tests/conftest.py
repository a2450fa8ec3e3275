import numpy as np
import pytest

from icobattery.protocol import ProtocolResult


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def sweep_results(cols):
    """The rows of run_ico_sweep's columns as ProtocolResults."""
    return [ProtocolResult(**{k: v[i] if v.ndim > 1 else float(v[i]) for k, v in cols.items()})
            for i in range(len(cols["t"]))]


def mixture(r):
    """The populations of the outcome-weighted battery mixture of a ProtocolResult."""
    return r.p1 * r.pops_given_1 + r.rest_weight * r.pops_rest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
