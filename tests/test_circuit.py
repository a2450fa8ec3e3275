import warnings

import numpy as np
import pytest

import circuit_reference as ref
from circuit_reference import charging_gates, circuit_unitary, library_gate_matrix, simulate
import icobattery.circuit as circuit
from icobattery.circuit import (
    GATE_KINDS,
    OUTCOME_KEYS,
    Gate,
    QuantumCircuit,
    angles_of_time,
    apply,
    build_ico_circuit,
    estimate_counts,
    gate_matrices,
    ico_counts,
    ico_probabilities,
)
from icobattery.model import ModelParams
from icobattery.protocol import run_ico
from icobattery.thermo import python_values, report

from dense_reference import total_unitary

P2 = ModelParams(2, omega=1.0, coupling=0.1)


def at(t):
    """([theta], [phi]) of the circuit at time t on P2: a grid of one point."""
    return [[angle] for angle in angles_of_time(P2, t)]


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
        from labeled_linalg import PAIR_LAYOUT, Operator, battery_charger_layout
        from dense_reference import embed_pair, pair_unitary
        t = 4.7
        theta, phi = angles_of_time(P2, t)
        u = circuit_unitary(charging_gates(theta, phi))
        block0 = u[:8, :8]
        layout = battery_charger_layout(2)
        u_pair = Operator(PAIR_LAYOUT, pair_unitary(P2, t / 2))
        oracle = embed_pair(u_pair, layout, 2).mat @ embed_pair(u_pair, layout, 1).mat
        assert frobenius_up_to_phase(block0, oracle) <= 1e-10

    @pytest.mark.parametrize("t", [0.0, 4.7, 1e6])
    def test_template_equals_circuit_written_out(self, t):
        # build_ico_circuit from the template and its slots, against the 43 gates
        # listed one by one with their angles
        theta, phi = angles_of_time(P2, t)
        written_out = tuple(Gate(*g) for g in ref.unshared_ico_gates(theta, phi))
        built = build_ico_circuit(theta, phi).gates
        assert built == written_out
        assert [repr(g.angle) for g in built] == [repr(g.angle) for g in written_out]

    def test_gate_vocabulary(self):
        kinds = {g.kind for g in build_ico_circuit(0.3, 1.2).gates}
        assert kinds <= {"h", "x", "cz", "xx", "yy", "cp", "rz"}


def kron_embedding(mat, qubits, n=4):
    """`mat` on `qubits` of an n-qubit register (qubit 0 most significant):
    kron with the identity on the other qubits, then transpose the tensor
    axes so that each of the gate's qubits lands at its own position."""
    k = len(qubits)
    big = np.kron(mat, np.eye(2 ** (n - k))).reshape((2,) * (2 * n))
    held = list(qubits) + [q for q in range(n) if q not in qubits]   # qubit of each axis
    perm = [held.index(q) for q in range(n)]
    return big.transpose(perm + [n + p for p in perm]).reshape(2 ** n, 2 ** n)


QUBIT_TUPLES = {1: [(0,), (2,), (3,)], 2: [(0, 1), (1, 2), (3, 1), (0, 3), (2, 0)]}


class TestKernel:
    @pytest.mark.parametrize("kind", GATE_KINDS)
    def test_matches_kron_embedding(self, kind):
        arity = 1 if kind in ("h", "x", "rz") else 2
        angle = 0.7 if kind in ("xx", "yy", "cp", "rz") else None
        for qubits in QUBIT_TUPLES[arity]:
            gate = Gate(kind, qubits, angle)
            expected = kron_embedding(library_gate_matrix(gate), qubits)
            assert np.max(np.abs(circuit_unitary([gate]) - expected)) <= 1e-15, qubits

    def test_first_listed_qubit_is_most_significant(self):
        # every gate of the vocabulary is symmetric in its two qubits, so the
        # order convention is checked with matrices that are not
        rng = np.random.default_rng(5)
        eye = np.eye(16, dtype=complex).reshape((2,) * 4 + (16,))
        for qubits in QUBIT_TUPLES[2]:
            mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            u = apply(eye, mat, qubits).reshape(16, 16)
            assert np.max(np.abs(u - kron_embedding(mat, qubits))) <= 1e-15, qubits
        # CNOT with control C2 (qubit 3) and target Q (qubit 1):
        # |D Q C1 C2> = |0001> (index 1) -> |0101> (index 5)
        cnot = np.eye(4)[[0, 1, 3, 2]]
        out = apply(eye, cnot, (3, 1)).reshape(16, 16)
        assert out[5, 1] == 1.0 and out[1, 5] == 1.0 and out[4, 4] == 1.0

    def test_carries_trailing_axes(self):
        rng = np.random.default_rng(3)
        kets = rng.normal(size=(16, 5, 3)) + 1j * rng.normal(size=(16, 5, 3))
        for gate in (Gate("yy", (3, 0), 1.3), Gate("h", (2,))):
            out = apply(kets.reshape((2,) * 4 + (5, 3)), library_gate_matrix(gate), gate.qubits)
            assert out.shape == (2, 2, 2, 2, 5, 3)
            expected = np.einsum("ij,jab->iab", circuit_unitary([gate]), kets)
            assert np.max(np.abs(out.reshape(16, 5, 3) - expected)) <= 1e-14
            for a, b in ((0, 0), (4, 2)):
                single = apply(kets[:, a, b].reshape((2,) * 4), library_gate_matrix(gate),
                               gate.qubits)
                assert np.max(np.abs(single - out[..., a, b])) <= 1e-14


class TestSimulate:
    def test_empty_circuit(self):
        rho = simulate(QuantumCircuit(gates=()))
        expected = np.zeros((16, 16))
        expected[0, 0] = 1.0
        assert np.allclose(rho, expected, atol=1e-12)

    def test_fully_depolarized(self):
        circ = build_ico_circuit(0.4, 2.0)
        rho = simulate(circ, 1.0)
        assert np.allclose(rho, np.eye(16) / 16, atol=1e-12)

    def test_depolarizing_inflates_small_energy(self):
        # (1-p)E + p/2 > E whenever E < 1/2; OUTCOME_KEYS 1 and 3 hold Q = e
        ideal = ico_probabilities(*at(1.0))[0]
        noisy = ico_probabilities(*at(1.0), 0.05)[0]
        e_ideal = ideal[1] + ideal[3]
        e_noisy = noisy[1] + noisy[3]
        assert e_ideal < 0.5
        assert e_noisy > e_ideal
        assert e_noisy == pytest.approx(0.95 * e_ideal + 0.05 * 0.5, abs=1e-12)

    def test_probabilities_match_protocol(self):
        # p(+) equals the uniform-projector outcome weight; z marginal of Q
        # equals the battery mixture populations
        for t in (1.7, 2 * np.pi, 9.2):
            p_pg, p_pe, _, p_me = ico_probabilities(*at(t))[0]
            r = run_ico(P2, t)
            assert p_pg + p_pe == pytest.approx(r.p1, abs=1e-10)
            assert p_pe + p_me == pytest.approx(r.rho_avg[1, 1].real, abs=1e-10)


class TestSample:
    def test_deterministic_given_seed(self):
        a = ico_counts(*at(2 * np.pi), 0.0, 5000, [7])
        b = ico_counts(*at(2 * np.pi), 0.0, 5000, [7])
        assert a.tolist() == b.tolist()

    def test_trivial_circuit_all_plus_ground(self):
        counts = ico_counts([0.0], [0.0], 0.0, 10**6, [1])[0]
        assert counts[OUTCOME_KEYS.index(("+", "g"))] == 10**6

    def test_counts_sum_to_shots(self):
        counts = ico_counts(*at(5.0), 0.02, 12345, [3])[0]
        assert counts.sum() == 12345

    def test_plus_probability_within_binomial_error(self):
        shots = 20000
        c_pg, c_pe, _, _ = ico_counts(*at(2 * np.pi), 0.0, shots, [11])[0]
        p_plus = (c_pg + c_pe) / shots
        p_exact = 0.818250
        se = np.sqrt(p_exact * (1 - p_exact) / shots)
        assert abs(p_plus - p_exact) <= 3 * se


class TestEstimate:
    # count rows in OUTCOME_KEYS order: (+, g), (+, e), (-, g), (-, e)
    def test_all_plus_ground(self):
        with pytest.warns(UserWarning, match="no counts"):
            est = estimate_counts([[100, 0, 0, 0]], 100)
        assert est["E"][0] == 0.0
        assert np.isnan(est["P"][0])

    def test_fully_charged(self):
        est = estimate_counts([[0, 50, 0, 50]], 100)
        assert est["E"][0] == pytest.approx(1.0)
        assert est["W"][0] == pytest.approx(1.0)
        assert est["P"][0] == pytest.approx(1.0)

    def test_exact_probabilities_reproduce_efficiency(self):
        # feed Born probabilities as fractional counts
        est = estimate_counts(ico_probabilities(*at(2 * np.pi)), 1.0)
        assert est["P"][0] == pytest.approx(0.99937, abs=1e-4)

    def test_zero_count_branch_warns(self):
        with pytest.warns(UserWarning, match="no counts"):
            est = estimate_counts([[60, 40, 0, 0]], 100)
        assert est["E"][0] == pytest.approx(0.4)

    def test_matches_thermo_pipeline_at_high_shots(self):
        t = 2 * np.pi
        shots = 10**6
        est = estimate_counts(ico_counts(*at(t), 0.0, shots, [5]), shots)
        ico, _ = report(run_ico(P2, t), P2)
        se_e = np.sqrt(ico.E * (1 - ico.E) / shots)
        assert abs(est["E"][0] - ico.E) <= 3 * se_e
        assert abs(est["P"][0] - ico.P) <= 0.01


class TestNoiseQualitative:
    def test_efficiency_drop_in_first_burst(self):
        # depolarizing noise lowers the estimated efficiency inside the burst
        for t in (2 * np.pi, 8.0, 10.0):
            ideal, noisy = (estimate_counts(ico_probabilities(*at(t), p), 1.0)["P"][0]
                            for p in (0.0, 0.05))
            assert noisy < ideal


def grid_angles(params, times):
    """Per-point (theta, phi) as the noise study computes them, and as arrays."""
    angles = [angles_of_time(params, t) for t in times]
    return angles, np.transpose(angles)


# (omega, lambda, times): every grid starts at t = 0
GRIDS = [(1.0, 0.1, np.linspace(0.0, 4 * np.pi / 0.1, 30)),
         (2.7, 1.3, np.concatenate([[0.0], np.random.default_rng(8).uniform(0, 300, 40)]))]


class TestGateMatrices:
    @pytest.mark.parametrize("kind", GATE_KINDS)
    def test_stack_matches_single_angle_and_reference(self, kind):
        arity = 1 if kind in ("h", "x", "rz") else 2
        qubits = (0,) if arity == 1 else (1, 2)
        if kind in ("h", "x", "cz"):
            gate = Gate(kind, qubits)
            assert np.array_equal(library_gate_matrix(gate), ref.gate_matrix(gate))
            return
        angles = np.random.default_rng(2).uniform(-40, 40, 25)
        stack = gate_matrices(kind, angles)
        assert stack.shape == (25, 2 ** arity, 2 ** arity)
        for a, mat in zip(angles, stack):
            gate = Gate(kind, qubits, a)
            assert np.array_equal(mat, library_gate_matrix(gate))
            assert np.array_equal(mat, ref.gate_matrix(gate))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown gate kind"):
            gate_matrices("swap", [0.1])


class TestStackedKernel:
    def test_each_slice_gets_its_own_matrix(self):
        rng = np.random.default_rng(4)
        states = rng.normal(size=(16, 7)) + 1j * rng.normal(size=(16, 7))
        for qubits in ((2,), (3, 1), (0, 2)):
            d = 2 ** len(qubits)
            mats = rng.normal(size=(7, d, d)) + 1j * rng.normal(size=(7, d, d))
            out = apply(states.reshape((2,) * 4 + (7,)), mats, qubits)
            assert out.shape == (2,) * 4 + (7,)
            for i in range(7):
                single = apply(states[:, i].reshape((2,) * 4), mats[i], qubits)
                assert np.array_equal(out[..., i], single), (qubits, i)
                expected = kron_embedding(mats[i], qubits) @ states[:, i]
                assert np.max(np.abs(out[..., i].ravel() - expected)) <= 1e-14

    def test_shared_matrix_broadcast_over_grid(self):
        rng = np.random.default_rng(6)
        states = rng.normal(size=(2,) * 4 + (5,)) + 1j * rng.normal(size=(2,) * 4 + (5,))
        mat = library_gate_matrix(Gate("yy", (3, 0), 0.4))
        stacked = apply(states, np.broadcast_to(mat, (5, 4, 4)), (3, 0))
        assert np.max(np.abs(stacked - apply(states, mat, (3, 0)))) <= 1e-15


class TestKernelPinned:
    """`apply` equals its earlier two-moveaxis form bit for bit."""

    @pytest.mark.parametrize("qubits", [(q,) for q in range(4)]
                             + [(a, b) for a in range(4) for b in range(4) if a != b])
    @pytest.mark.parametrize("trailing", [(), (5,), (3, 5)])
    def test_equals_moveaxis_form(self, qubits, trailing):
        rng = np.random.default_rng(7)
        shape = (2,) * 4 + trailing
        state = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        d = 2 ** len(qubits)
        # one matrix, then one matrix per index of the last 1 or 2 trailing axes
        for grid in [()] + [trailing[-g:] for g in range(1, len(trailing) + 1)]:
            mat = rng.normal(size=grid + (d, d)) + 1j * rng.normal(size=grid + (d, d))
            got = apply(state, mat, qubits)
            assert got.shape == shape
            assert np.array_equal(got, ref.moveaxis_apply(state, mat, qubits)), grid


class TestIcoProbabilities:
    @pytest.mark.parametrize("omega, lam, times", GRIDS)
    @pytest.mark.parametrize("p", [0.0, 0.05, 1.0])
    def test_matches_per_circuit_bitwise(self, omega, lam, times, p):
        angles, (theta, phi) = grid_angles(ModelParams(2, omega, lam), times)
        grid = ico_probabilities(theta, phi, p)
        assert grid.shape == (len(times), 4)
        for (th, ph), row in zip(angles, grid):
            circ = build_ico_circuit(th, ph)
            assert row.tolist() == circuit._probabilities(*ref.template_of(circ), 1, p)[0].tolist()
            # the one-gate-at-a-time tensordot oracle
            assert np.max(np.abs(row - ref.outcome_probabilities(circ, p))) <= 1e-15

    @pytest.mark.parametrize("points_per_chunk", [1, 3, 7])
    def test_chunked_grid_matches_unchunked(self, monkeypatch, points_per_chunk):
        _, (theta, phi) = grid_angles(P2, GRIDS[1][2])
        whole = ico_probabilities(theta, phi, 0.05)
        monkeypatch.setattr(circuit, "CHUNK_AMPLITUDES", 16 * points_per_chunk)
        assert np.array_equal(ico_probabilities(theta, phi, 0.05), whole)

    def test_evolves_at_most_one_chunk_at_once(self, monkeypatch):
        evolved = []
        final_states = circuit._final_states

        def recording(template, angles, points):
            evolved.append(points)
            return final_states(template, angles, points)

        monkeypatch.setattr(circuit, "_final_states", recording)
        # a point holds its 16 amplitudes and 84 of its six parametric gate matrices
        assert circuit._POINT_AMPLITUDES == 16 + 84
        monkeypatch.setattr(circuit, "CHUNK_AMPLITUDES", 100 * 4)
        ico_probabilities(np.linspace(0, 1, 10), np.linspace(0, 10, 10))
        assert evolved == [4, 4, 2]
        evolved.clear()
        monkeypatch.setattr(circuit, "CHUNK_AMPLITUDES", 16 * 4)     # less than one point
        ico_probabilities(np.linspace(0, 1, 3), np.linspace(0, 10, 3))
        assert evolved == [1, 1, 1]

    @pytest.mark.parametrize("points", [1, 2, 7, 30, 1000])
    @pytest.mark.parametrize("p", [0.0, 0.05, 1.0])
    def test_equals_moveaxis_kernel_bitwise(self, monkeypatch, points, p):
        _, (theta, phi) = grid_angles(P2, np.linspace(0.0, 4 * np.pi / 0.1, points))
        got = ico_probabilities(theta, phi, p)
        monkeypatch.setattr(circuit, "_final_states", ref.moveaxis_final_states)
        assert np.array_equal(got, ico_probabilities(theta, phi, p))

    @pytest.mark.parametrize("points", [1, 3, 30])
    def test_shared_matrices_equal_broadcast_stacks_bitwise(self, points):
        # the 16 fixed gates (h, x, cz) that _probabilities applies, the closing H
        # on D included, each as one matrix over every point
        _, (theta, phi) = grid_angles(P2, np.linspace(0.0, 4 * np.pi / 0.1, points))
        template = [*circuit._ICO_TEMPLATE, ("h", (0,), None)]
        angles = circuit._ico_angles(theta, phi)
        assert sum(slot is None for _, _, slot in template) == 16
        got = circuit._final_states(template, angles, points)
        want = ref.broadcast_final_states(ref.resolve(template, angles), points)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("points", [1, 3, 30])
    def test_shared_angles_build_each_stack_once(self, monkeypatch, points):
        # 28 parametric gates over the four slots (-theta/2, theta/2, -phi, phi/2)
        # take 6 stacks: xx and yy at +-theta/2, cp at -phi, rz at phi/2
        _, (theta, phi) = grid_angles(P2, np.linspace(0.0, 4 * np.pi / 0.1, points))
        template = [*circuit._ICO_TEMPLATE, ("h", (0,), None)]
        angles = circuit._ico_angles(theta, phi)
        unshared = [*ref.unshared_ico_gates(theta, phi), ("h", (0,), None)]
        # the template resolves to the circuit written out gate by gate, bit for bit
        resolved = ref.resolve(template, angles)
        assert [(k, q) for k, q, _ in resolved] == [(k, q) for k, q, _ in unshared]
        assert all((a is None) == (b is None)
                   and (a is None or np.asarray(a).tobytes() == np.asarray(b).tobytes())
                   for (_, _, a), (_, _, b) in zip(resolved, unshared))
        assert {slot for _, _, slot in template} == {None, 0, 1, 2, 3}
        built = []
        gate_matrices = circuit.gate_matrices

        def counting(kind, angles=None):
            built.append(kind)
            return gate_matrices(kind, angles)

        monkeypatch.setattr(circuit, "gate_matrices", counting)
        got = circuit._final_states(template, angles, points)
        assert sum(kind in circuit._PARAMETRIC for kind, _, _ in template) == 28
        assert sorted(k for k in built if k in circuit._PARAMETRIC) == [
            "cp", "rz", "xx", "xx", "yy", "yy"]
        assert sorted(k for k in built if k not in circuit._PARAMETRIC) == ["cz", "h", "x"]
        monkeypatch.setattr(circuit, "gate_matrices", gate_matrices)
        assert got.tobytes() == ref.unshared_final_states(unshared, points).tobytes()

    def test_float_angles_of_equal_value_build_apart(self):
        # told apart by slot: -0.0 == 0.0, yet each slot builds its own matrix
        template = [("rz", (0,), 0), ("h", (0,), None), ("rz", (0,), 1), ("cp", (0, 1), 2)]
        angles = [0.0, -0.0, 0.3]
        got = circuit._final_states(template, angles, 2)
        assert got.tobytes() == ref.unshared_final_states(ref.resolve(template, angles),
                                                          2).tobytes()

    def test_ico_counts_matches_per_circuit_sample(self):
        angles, (theta, phi) = grid_angles(P2, GRIDS[0][2])
        seeds = range(40, 40 + len(angles))
        counts = ico_counts(theta, phi, 0.05, 3000, seeds)
        assert counts.shape == (len(angles), 4) and counts.dtype == np.int64
        for (th, ph), seed, got in zip(angles, seeds, counts):
            probs = circuit._probabilities(*ref.template_of(build_ico_circuit(th, ph)), 1, 0.05)
            assert got.tolist() == ref.sample_counts(probs[0], 3000, seed).tolist()

    def test_ico_counts_rejects_no_shots(self):
        with pytest.raises(ValueError):
            ico_counts([0.1], [1.0], 0.0, 0, [0])

    @pytest.mark.parametrize("p", [-0.01, 1.01, float("nan")])
    def test_depolarizing_strength_outside_unit_interval_rejected(self, p):
        with pytest.raises(ValueError, match="outside"):
            ico_probabilities([0.1], [1.0], p)


def random_counts(rng, rows):
    """Integer count rows with every pattern of empty entries, E = 0 rows
    included, then fractional rows."""
    counts = rng.integers(0, 5, size=(rows, 4)).astype(float)
    counts[::7, 1::2] = 0          # E = 0
    counts[::5, 0:2] = 0           # no '+' outcome
    counts[::6, 2:4] = 0           # no '-' outcome
    counts[counts.sum(axis=1) == 0, 0] = 1
    fractional = rng.uniform(0, 1, size=(rows, 4)) * (rng.uniform(size=(rows, 4)) > 0.3)
    fractional[fractional.sum(axis=1) == 0, 3] = 0.25
    return np.concatenate([counts, fractional])


def run_warned(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, [str(w.message) for w in caught]


class TestEstimateCounts:
    def test_matches_scalar_reference(self):
        counts = random_counts(np.random.default_rng(12), 300)
        totals = counts.sum(axis=1)
        est, messages = run_warned(estimate_counts, counts, totals)
        ref_messages = []
        for i, row in enumerate(counts):
            want, caught = run_warned(ref.estimate, dict(zip(OUTCOME_KEYS, row)), totals[i])
            ref_messages += caught
            assert (est["E"][i], est["W"][i]) == (want.E, want.W), row
            assert (want.P is None) == np.isnan(est["P"][i]), row
            if want.P is not None:
                assert est["P"][i] == want.P, row
            assert ((est["passive_k1"][i], est["passive_dco"][i])
                    == (want.passive_k1, want.passive_dco))
        assert messages == ref_messages
        assert any(est["E"] == 0) and any(np.isnan(est["P"]))

    def test_fixed_shots_and_single_mapping(self):
        counts = random_counts(np.random.default_rng(13), 60)[:60]
        est, _ = run_warned(estimate_counts, counts, 10)
        for i, row in enumerate(counts):
            mapping = dict(zip(OUTCOME_KEYS, row))
            want, _ = run_warned(ref.estimate, mapping, 10)
            one_row, _ = run_warned(estimate_counts, row[None], 10)
            assert {k: python_values(col)[0] for k, col in one_row.items()} == vars(want)
            assert (est["E"][i], est["W"][i]) == (want.E, want.W)

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError, match="empty counts"):
            estimate_counts(np.zeros((2, 4)), np.array([3.0, 0.0]))
