import numpy as np
import pytest

from icobattery.circuit import (
    Gate,
    NoiseSpec,
    QuantumCircuit,
    angles_of_time,
    build_ico_circuit,
    charging_gates,
    circuit_unitary,
    estimate,
    outcome_probabilities,
    sample,
    simulate,
)
from icobattery.model import ModelParams
from icobattery.protocol import run_ico
from icobattery.thermo import report

from dense_reference import total_unitary

P2 = ModelParams(2, omega=1.0, coupling=0.1)


def frobenius_up_to_phase(a, b):
    tr = np.trace(a.conj().T @ b)
    phase = tr / abs(tr) if abs(tr) > 0 else 1.0
    return np.linalg.norm(a * phase - b)


class TestGateValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Gate("swap", (0, 1))

    def test_arity(self):
        with pytest.raises(ValueError):
            Gate("cz", (0,))
        with pytest.raises(ValueError):
            Gate("cz", (1, 1))

    def test_angle_presence(self):
        with pytest.raises(ValueError):
            Gate("xx", (0, 1))
        with pytest.raises(ValueError):
            Gate("h", (0,), 0.3)


def test_angles_of_time():
    assert angles_of_time(P2, 0.0) == (0.0, 0.0)
    theta, phi = angles_of_time(P2, 2 * np.pi)
    assert theta == pytest.approx(0.1 * np.pi)
    assert phi == pytest.approx(np.pi)
    for t in (0.3, 5.5):
        theta, phi = angles_of_time(P2, t)
        assert theta / phi == pytest.approx(P2.coupling)


class TestDecomposition:
    def test_zero_angles_identity(self):
        u = circuit_unitary(charging_gates(0.0, 0.0))
        assert frobenius_up_to_phase(u, np.eye(16)) <= 1e-12

    def test_equivalence_random_times(self):
        rng = np.random.default_rng(42)
        for t in rng.uniform(0.0, 4 * np.pi / 0.1, size=20):
            theta, phi = angles_of_time(P2, t)
            u_circ = circuit_unitary(charging_gates(theta, phi))
            u_tot = total_unitary(P2, t).mat
            assert frobenius_up_to_phase(u_circ, u_tot) <= 1e-8

    def test_branch_projection(self):
        # D = |0> sector applies U_2(t/2) U_1(t/2) up to phase
        from icobattery.model import pair_unitary
        from icobattery.linalg import battery_charger_layout
        from dense_reference import embed_pair
        t = 4.7
        theta, phi = angles_of_time(P2, t)
        u = circuit_unitary(charging_gates(theta, phi))
        block0 = u[:8, :8]
        layout = battery_charger_layout(2)
        u_pair = pair_unitary(P2, t / 2)
        oracle = embed_pair(u_pair, layout, 2).mat @ embed_pair(u_pair, layout, 1).mat
        assert frobenius_up_to_phase(block0, oracle) <= 1e-10

    def test_gate_vocabulary(self):
        kinds = {g.kind for g in build_ico_circuit(0.3, 1.2).gates}
        assert kinds <= {"h", "x", "cz", "xx", "yy", "cp", "rz"}


class TestSimulate:
    def test_empty_circuit(self):
        rho = simulate(QuantumCircuit(gates=()))
        expected = np.zeros((16, 16))
        expected[0, 0] = 1.0
        assert np.allclose(rho, expected, atol=1e-12)

    def test_fully_depolarized(self):
        circ = build_ico_circuit(0.4, 2.0)
        rho = simulate(circ, NoiseSpec(1.0))
        assert np.allclose(rho, np.eye(16) / 16, atol=1e-12)

    def test_depolarizing_inflates_small_energy(self):
        # (1-p)E + p/2 > E whenever E < 1/2
        t = 1.0
        theta, phi = angles_of_time(P2, t)
        circ = build_ico_circuit(theta, phi)
        ideal = outcome_probabilities(circ)
        noisy = outcome_probabilities(circ, NoiseSpec(0.05))
        e_ideal = ideal[("+", "e")] + ideal[("-", "e")]
        e_noisy = noisy[("+", "e")] + noisy[("-", "e")]
        assert e_ideal < 0.5
        assert e_noisy > e_ideal
        assert e_noisy == pytest.approx(0.95 * e_ideal + 0.05 * 0.5, abs=1e-12)

    def test_probabilities_match_protocol(self):
        # p(+) equals the uniform-projector outcome weight; z marginal of Q
        # equals the battery mixture populations
        for t in (1.7, 2 * np.pi, 9.2):
            theta, phi = angles_of_time(P2, t)
            probs = outcome_probabilities(build_ico_circuit(theta, phi))
            r = run_ico(P2, t)
            assert probs[("+", "g")] + probs[("+", "e")] == pytest.approx(r.p1, abs=1e-10)
            p_e = probs[("+", "e")] + probs[("-", "e")]
            assert p_e == pytest.approx(r.rho_avg[1, 1].real, abs=1e-10)


class TestSample:
    def test_deterministic_given_seed(self):
        circ = build_ico_circuit(*angles_of_time(P2, 2 * np.pi))
        a = sample(circ, NoiseSpec(), 5000, seed=7)
        b = sample(circ, NoiseSpec(), 5000, seed=7)
        assert a.counts == b.counts

    def test_trivial_circuit_all_plus_ground(self):
        circ = build_ico_circuit(0.0, 0.0)
        res = sample(circ, NoiseSpec(), 10**6, seed=1)
        assert res.counts[("+", "g")] == 10**6

    def test_counts_sum_to_shots(self):
        circ = build_ico_circuit(*angles_of_time(P2, 5.0))
        res = sample(circ, NoiseSpec(0.02), 12345, seed=3)
        assert sum(res.counts.values()) == 12345

    def test_plus_probability_within_binomial_error(self):
        shots = 20000
        circ = build_ico_circuit(*angles_of_time(P2, 2 * np.pi))
        res = sample(circ, NoiseSpec(), shots, seed=11)
        p_plus = (res.counts[("+", "g")] + res.counts[("+", "e")]) / shots
        p_exact = 0.818250
        se = np.sqrt(p_exact * (1 - p_exact) / shots)
        assert abs(p_plus - p_exact) <= 3 * se


class TestEstimate:
    def test_all_plus_ground(self):
        with pytest.warns(UserWarning, match="no counts"):
            rep = estimate({("+", "g"): 100}, 100)
        assert rep.E == 0.0
        assert rep.P is None

    def test_fully_charged(self):
        rep = estimate({("+", "e"): 50, ("-", "e"): 50}, 100)
        assert rep.E == pytest.approx(1.0)
        assert rep.W == pytest.approx(1.0)
        assert rep.P == pytest.approx(1.0)

    def test_exact_probabilities_reproduce_efficiency(self):
        # feed Born probabilities as fractional counts
        probs = outcome_probabilities(build_ico_circuit(*angles_of_time(P2, 2 * np.pi)))
        rep = estimate(probs, 1.0)
        assert rep.P == pytest.approx(0.99937, abs=1e-4)

    def test_zero_count_branch_warns(self):
        with pytest.warns(UserWarning, match="no counts"):
            rep = estimate({("+", "g"): 60, ("+", "e"): 40}, 100)
        assert rep.E == pytest.approx(0.4)

    def test_matches_thermo_pipeline_at_high_shots(self):
        t = 2 * np.pi
        shots = 10**6
        circ = build_ico_circuit(*angles_of_time(P2, t))
        rep = estimate(sample(circ, NoiseSpec(), shots, seed=5))
        ico, _ = report(run_ico(P2, t), P2)
        se_e = np.sqrt(ico.E * (1 - ico.E) / shots)
        assert abs(rep.E - ico.E) <= 3 * se_e
        assert abs(rep.P - ico.P) <= 0.01


class TestNoiseQualitative:
    def test_efficiency_drop_in_first_burst(self):
        # depolarizing noise lowers the estimated efficiency inside the burst
        for t in (2 * np.pi, 8.0, 10.0):
            circ = build_ico_circuit(*angles_of_time(P2, t))
            ideal = estimate(outcome_probabilities(circ), 1.0)
            noisy = estimate(outcome_probabilities(circ, NoiseSpec(0.05)), 1.0)
            assert noisy.P < ideal.P
