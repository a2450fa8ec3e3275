import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icobattery.analytic import closed_form_sweep
from icobattery.model import ModelParams
from icobattery.protocol import run_ico_sweep
from icobattery.thermo import numeric_sweep

from dense_reference import (battery_hamiltonian, embed_pair, pair_hamiltonian, pair_unitary,
                             switch_register_layout)
from labeled_linalg import PAIR_LAYOUT, Operator, exp_neg_i, require_unitary, battery_charger_layout

# index = 2q + c with g=0, e=1
GG, GE, EG, EE = 0, 1, 2, 3


def test_params_validation():
    ModelParams(2)
    with pytest.raises(ValueError):
        ModelParams(1)
    with pytest.raises(ValueError, match="every N must be an integer >= 2, got 2.5"):
        ModelParams(2.5)
    assert ModelParams(np.int64(3)).n_chargers == 3      # numpy integers pass
    with pytest.raises(ValueError):
        ModelParams(2, omega=0.0)
    with pytest.raises(ValueError):
        ModelParams(2, coupling=-0.1)
    # omega's precision floor, 2 sys.float_info.min / ENERGY_EPS = 4.45e-299
    assert ModelParams(2, omega=4.5e-299).omega == 4.5e-299
    with pytest.raises(ValueError, match="omega must be a finite number >= 4.45"):
        ModelParams(2, omega=4.4e-299)


# (omega, lambda, N, t) inputs that model.check_model rejects, each with the
# value its message names
REJECTED = [
    ((0.0, 0.1, 2, 1.0), "omega", "0.0"),
    ((4.4e-299, 0.1, 2, 1.0), "omega", "4.4e-299"),
    ((1.0, 5e-324, 2, 1.0), "coupling", "5e-324"),
    ((1.0, 0.1, 1, 1.0), "every N", "1"),
    ((1.0, 0.1, 2.5, 1.0), "every N", "2.5"),
    ((1.0, 0.1, True, 1.0), "every N", "True"),
    ((1.0, 0.1, 2, -1.0), "evolution time", "-1.0"),
    ((1.0, 0.1, 2, np.nan), "evolution time", "nan"),
    ((1.0, 0.1, 2, np.inf), "evolution time", "inf"),
    ((10.0, 0.1, 2, 1e308), "phases", "t=1e+308"),
    # ints beyond the float range, named by a short id
    pytest.param((10**400, 0.1, 2, 1.0), "omega", str(10**400), id="case10-omega-10**400"),
    pytest.param((1.0, 0.1, 2, 10**400), "evolution time", str(10**400),
                 id="case11-evolution time-10**400"),
]


@pytest.mark.parametrize("case, name, value", REJECTED)
def test_engines_reject_the_same_inputs(case, name, value):
    omega, coupling, n, t = case
    messages = []
    for engine in (closed_form_sweep, numeric_sweep):
        with pytest.raises(ValueError) as exc:
            engine(omega, coupling, [3, n], [0.5, t])      # the rejected value comes second
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith(name) and messages[0].endswith(value)


def test_empty_grids_keep_their_shapes_and_dtypes():
    flags = ("passive_k1", "passive_dco")
    closed_form = [(key, (0,), np.dtype(bool if key in flags else float))
                   for key in ("t", "C1", "p1", "E", "W_ico", "W_dco", "P_ico", "P_dco", *flags)]
    for n_list, times in (([3, 2], []), ([], [0.5, 1.0])):
        cols = closed_form_sweep(1.3, 0.1, n_list, times)
        assert [(key, col.shape, col.dtype) for key, col in cols.items()] == closed_form
    states = [(key, (0, 2) if key.startswith("pops") else (0,), np.dtype(float))
              for key in ("t", "p1", "pops_given_1", "rest_weight", "pops_rest", "pops_bar")]
    cols = run_ico_sweep(1.3, 0.1, [3, 2], [])
    assert [(key, col.shape, col.dtype) for key, col in cols.items()] == states


def test_battery_hamiltonian_spectrum():
    h = battery_hamiltonian(2.0)
    assert np.allclose(np.linalg.eigvalsh(h), [-1.0, 1.0])


class TestPairHamiltonian:
    def test_diagonal_entries(self):
        om = 1.3
        h = pair_hamiltonian(ModelParams(2, omega=om, coupling=0.4))
        assert h[EE, EE] == pytest.approx(1.5 * om)
        assert h[GG, GG] == pytest.approx(-0.5 * om)
        assert h[EG, EG] == pytest.approx(0.5 * om)
        assert h[GE, GE] == pytest.approx(0.5 * om)

    def test_exchange_off_diagonal(self):
        om, lam = 1.3, 0.4
        h = pair_hamiltonian(ModelParams(2, omega=om, coupling=lam))
        assert h[EG, GE] == pytest.approx(om * lam)
        assert h[GE, EG] == pytest.approx(om * lam)
        assert h[EE, GG] == pytest.approx(0.0)

    def test_conserves_total_excitation(self):
        h = pair_hamiltonian(ModelParams(3, omega=0.7, coupling=0.2))
        n_hat = np.diag([0, 1, 1, 2]).astype(complex)
        assert np.max(np.abs(h @ n_hat - n_hat @ h)) <= 1e-12


class TestPairUnitary:
    def test_time_zero_is_identity(self):
        u = pair_unitary(ModelParams(2), 0.0)
        assert np.allclose(u, np.eye(4), atol=1e-12)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matches_matrix_exponential(self, seed):
        r = np.random.default_rng(seed)
        params = ModelParams(2, omega=r.uniform(0.2, 3.0), coupling=r.uniform(0.02, 1.5))
        t = r.uniform(0.0, 30.0)
        oracle = exp_neg_i(Operator(PAIR_LAYOUT, pair_hamiltonian(params)), t)
        assert np.max(np.abs(pair_unitary(params, t) - oracle.mat)) <= 1e-10

    def test_full_excitation_swap(self):
        # at omega*lambda*t = pi/2, |eg> -> -i e^{-i omega t / 2} |ge>
        params = ModelParams(2, omega=1.0, coupling=0.25)
        t = np.pi / 2 / (params.omega * params.coupling)
        u = pair_unitary(params, t)
        vec = u[:, EG]
        expected = np.zeros(4, complex)
        expected[GE] = -1j * np.exp(-0.5j * params.omega * t)
        assert np.allclose(vec, expected, atol=1e-12)

    def test_excitation_conservation(self):
        u = pair_unitary(ModelParams(2, omega=1.4, coupling=0.3), 2.7)
        n_hat = np.diag([0, 1, 1, 2]).astype(complex)
        assert np.max(np.abs(u @ n_hat - n_hat @ u)) <= 1e-10

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_group_law(self, seed):
        r = np.random.default_rng(seed)
        params = ModelParams(2, omega=r.uniform(0.2, 3.0), coupling=r.uniform(0.02, 1.5))
        a, b = r.uniform(0, 10, size=2)
        lhs = pair_unitary(params, a) @ pair_unitary(params, b)
        assert np.max(np.abs(lhs - pair_unitary(params, a + b))) <= 1e-10

    def test_envelope_periodicity(self):
        params = ModelParams(2, omega=1.0, coupling=0.1)
        t = 3.7
        period = 2 * np.pi / (params.omega * params.coupling)
        a = np.abs(pair_unitary(params, t))
        b = np.abs(pair_unitary(params, t + period))
        assert np.max(np.abs(a - b)) <= 1e-10


class TestEmbedPair:
    def test_identity_embeds_to_identity(self):
        params = ModelParams(3)
        layout = switch_register_layout(3)
        out = embed_pair(Operator(PAIR_LAYOUT, pair_unitary(params, 0.0)), layout, 2)
        assert np.allclose(out.mat, np.eye(layout.dim), atol=1e-12)

    def test_homomorphism_on_one_slot(self):
        params = ModelParams(2, omega=0.9, coupling=0.3)
        layout = battery_charger_layout(2)
        a = Operator(PAIR_LAYOUT, pair_unitary(params, 1.1))
        b = Operator(PAIR_LAYOUT, pair_unitary(params, 2.4))
        lhs = embed_pair(a, layout, 1).mat @ embed_pair(b, layout, 1).mat
        ab = a.mat @ b.mat
        rhs = embed_pair(Operator(a.layout, ab), layout, 1).mat
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_mixed_radix_diagonal_pattern(self):
        # sigma_z (x) sigma_z on (Q, C2) for N=2: diagonal by brute-force index math
        from labeled_linalg import Layout
        sz = np.diag([-1.0, 1.0]).astype(complex)
        op4 = Operator(Layout(("Q", "C"), (2, 2)), np.kron(sz, sz))
        layout = battery_charger_layout(2)  # (Q, C1, C2)
        out = embed_pair(op4, layout, 2).mat
        expected = np.zeros((8, 8))
        for idx in range(8):
            q, c2 = (idx >> 2) & 1, idx & 1
            expected[idx, idx] = (-1) ** (1 - q) * (-1) ** (1 - c2)
        assert np.allclose(out, expected, atol=1e-12)

    def test_out_of_range_charger(self):
        layout = battery_charger_layout(2)
        with pytest.raises(ValueError):
            embed_pair(Operator(PAIR_LAYOUT, pair_unitary(ModelParams(2), 1.0)), layout, 3)

    def test_embedded_unitary_is_unitary(self):
        params = ModelParams(4, omega=1.0, coupling=0.1)
        layout = switch_register_layout(4)
        require_unitary(embed_pair(Operator(PAIR_LAYOUT, pair_unitary(params, 5.0)), layout, 3))
