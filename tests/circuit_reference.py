"""Per-point reference for the circuit simulation and the shot estimator.

These are the one-circuit-at-a-time forms that `icobattery.circuit` batches
over a time grid: gate matrices from one angle each, one `tensordot` per gate
on a single 4-qubit state, the count estimator on one mapping, and the
bootstrap that calls it once per resample.  `icobattery.circuit` and
`icobattery.cli` are checked against them.  `moveaxis_apply` and
`moveaxis_final_states` keep the earlier form of the library's grid kernel,
which the library must reproduce bit for bit.  `library_gate_matrix`,
`circuit_unitary` and `simulate` instead run the library's own kernels; only
tests use them, so they live here rather than in `icobattery.circuit`.
"""
from __future__ import annotations

import warnings

import numpy as np

from icobattery import circuit
from icobattery.circuit import OUTCOME_KEYS, N_QUBITS, NoiseSpec, QuantumCircuit, build_ico_circuit
from icobattery import tolerances as tol
from icobattery.thermo import EnergyReport

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def gate_matrix(gate) -> np.ndarray:
    """Matrix of one gate on its own qubits (first listed qubit most significant)."""
    if gate.kind == "h":
        return _H
    if gate.kind == "x":
        return _X
    if gate.kind == "rz":
        return np.diag([np.exp(-0.5j * gate.angle), np.exp(0.5j * gate.angle)])
    if gate.kind == "cz":
        return np.diag([1, 1, 1, -1]).astype(complex)
    if gate.kind == "cp":
        return np.diag([1, 1, 1, np.exp(1j * gate.angle)])
    c, s = np.cos(gate.angle / 2), np.sin(gate.angle / 2)
    if gate.kind == "xx":
        return c * np.eye(4) - 1j * s * np.kron(_X, _X)
    if gate.kind == "yy":
        return c * np.eye(4) - 1j * s * np.kron(_SY, _SY)
    raise AssertionError(gate.kind)


def library_gate_matrix(gate) -> np.ndarray:
    """`icobattery.circuit.gate_matrices` of one gate's kind and angle: the
    matrix the library applies, checked against gate_matrix above."""
    return circuit.gate_matrices(gate.kind, gate.angle)


def apply(state: np.ndarray, mat: np.ndarray, qubits) -> np.ndarray:
    k = len(qubits)
    out = np.tensordot(mat.reshape((2,) * (2 * k)), state, axes=(range(k, 2 * k), qubits))
    return np.moveaxis(out, range(k), qubits)


def moveaxis_apply(state: np.ndarray, mat: np.ndarray, qubits) -> np.ndarray:
    """`icobattery.circuit.apply` in its earlier form, with two np.moveaxis
    calls per gate: the same matrix product on the same operands, so the
    library's kernel must equal it bit for bit."""
    k, grid = len(qubits), mat.ndim - 2
    axes = (*range(state.ndim - grid, state.ndim), *qubits)
    moved = np.moveaxis(state, axes, range(grid + k))
    out = mat @ moved.reshape(moved.shape[:grid] + (2 ** k, -1))
    return np.moveaxis(out.reshape(moved.shape), range(grid + k), axes)


def moveaxis_final_states(gates, points: int) -> np.ndarray:
    """`icobattery.circuit._final_states` in its earlier form: every gate,
    a column of angles included, broadcast to a stack of `points` matrices
    and applied by moveaxis_apply."""
    psi = np.zeros((2,) * N_QUBITS + (points,), dtype=complex)
    psi[(0,) * N_QUBITS] = 1.0
    for kind, qubits, angle in gates:
        mats = circuit.gate_matrices(kind, angle)
        psi = moveaxis_apply(psi, np.broadcast_to(mats, (points,) + mats.shape[-2:]), qubits)
    return psi


def final_state(circuit: QuantumCircuit) -> np.ndarray:
    """The gates applied to |0000>, one at a time, as a (2,) * 4 tensor."""
    psi = np.zeros((2,) * N_QUBITS, dtype=complex)
    psi[(0,) * N_QUBITS] = 1.0
    for gate in circuit.gates:
        psi = apply(psi, gate_matrix(gate), gate.qubits)
    return psi


def simulate(circ: QuantumCircuit, noise: NoiseSpec = NoiseSpec()) -> np.ndarray:
    """Run from |0000> through the library's `_final_states` and return the
    16x16 output density matrix, depolarized as (1-p) rho + p I/16."""
    psi = circuit._final_states(circuit._gate_triples(circ), 1).ravel()
    p = noise.depolarizing_p
    return (1 - p) * np.outer(psi, psi.conj()) + p * np.eye(16) / 16


def charging_gates(theta: float, phi: float) -> tuple:
    """The four controlled charging blocks of build_ico_circuit: every gate
    after the preparation (H on D, X on both chargers)."""
    return build_ico_circuit(theta, phi).gates[len(circuit._PREP):]


def circuit_unitary(gates, n: int = N_QUBITS) -> np.ndarray:
    """Product of the gate list (first gate applied first), each gate
    applied by the library's kernel `icobattery.circuit.apply`."""
    u = np.eye(2 ** n, dtype=complex).reshape((2,) * n + (2 ** n,))
    for gate in gates:
        u = circuit.apply(u, library_gate_matrix(gate), gate.qubits)
    return u.reshape(2 ** n, 2 ** n)


def outcome_probabilities(circuit: QuantumCircuit, noise: NoiseSpec = NoiseSpec()) -> np.ndarray:
    """Outcome probabilities of one circuit, in OUTCOME_KEYS order."""
    p = noise.depolarizing_p
    diag = (1 - p) * np.abs(apply(final_state(circuit), _H, (0,))) ** 2 + p / 16
    return diag.reshape(2, 2, 4).sum(axis=2).ravel()


def estimate(counts, shots=None) -> EnergyReport:
    """Count-based energy accounting of one mapping from outcome to count."""
    total = float(sum(counts.values())) if shots is None else float(shots)
    if total <= 0:
        raise ValueError("empty counts")
    get = lambda d, q: float(counts.get((d, q), 0))
    p_e = (get("+", "e") + get("-", "e")) / total
    w = 0.0
    branch_pops = {}
    for d in ("+", "-"):
        nd = get(d, "g") + get(d, "e")
        if nd == 0:
            warnings.warn(f"no counts for switch outcome {d!r}; branch contributes 0 ergotropy")
            continue
        pe_d = get(d, "e") / nd
        branch_pops[d] = pe_d
        w += (nd / total) * max(0.0, 2 * pe_d - 1.0)
    return EnergyReport(E=p_e, W=w, P=w / p_e if p_e >= tol.ENERGY_EPS else None,
                        passive_k1=branch_pops.get("+", 0.0) <= 0.5, passive_dco=p_e <= 0.5)


def bootstrap_p_se(counts_vec: np.ndarray, shots: int, rng, resamples: int) -> float | None:
    """Bootstrap standard error of the efficiency, one `estimate` per resample."""
    vals = []
    for draw in rng.multinomial(shots, counts_vec / shots, size=resamples):
        rep = estimate(dict(zip(OUTCOME_KEYS, draw)), shots)
        if rep.P is not None:
            vals.append(rep.P)
    return float(np.std(vals)) if len(vals) > 1 else None
