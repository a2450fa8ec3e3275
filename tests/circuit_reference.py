"""Per-point reference for the circuit simulation and the shot estimator.

These are the one-circuit-at-a-time forms that `icobattery.circuit` batches
over a time grid: gate matrices from one angle each, one `tensordot` per gate
on a single 4-qubit state, the count estimator on one mapping, and the
bootstrap that calls it once per resample.  `icobattery.circuit` and
`icobattery.cli` are checked against them.  `moveaxis_apply` keeps the
earlier form of the library's kernel `apply`, which the library must
reproduce bit for bit.  `unshared_ico_gates` is the ICO circuit written out
gate by gate, each gate forming its own angle, against which the library's
gate template and its four angle slots are checked.
`library_gate_matrix`, `circuit_unitary` and `simulate` instead run the
library's own kernels; only tests use them, so they live here rather than in
`icobattery.circuit`.
"""
from __future__ import annotations

import re
import warnings

import numpy as np

from icobattery import circuit, cli
from icobattery.circuit import OUTCOME_KEYS, N_QUBITS, QuantumCircuit, build_ico_circuit
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


def resolve(template, angles) -> list[tuple]:
    """The (kind, qubits, angle) of each gate of a (kind, qubits, slot)
    template, each slot replaced by its entry of `angles`."""
    return [(kind, qubits, None if slot is None else angles[slot])
            for kind, qubits, slot in template]


def template_of(circ: QuantumCircuit) -> tuple[list, list]:
    """`circ` as the library's simulator takes it: a template in which each
    gate has a slot of its own, its index, and the angles of those slots."""
    return ([(g.kind, g.qubits, None if g.angle is None else i) for i, g in enumerate(circ.gates)],
            [g.angle for g in circ.gates])


def unshared_ico_gates(theta, phi) -> list[tuple]:
    """The (kind, qubits, angle) of every gate of the ICO circuit, written out
    without the library's template: preparation, then the controlled blocks
    (D = |0> via C1 then C2, D = |1> via C2 then C1), each gate forming its
    own angle from theta and phi."""
    def block(control_value, c):
        d, q = 0, 1
        gates = [("cz", (d, q), None), ("xx", (q, c), -(theta / 2)), ("yy", (q, c), -(theta / 2)),
                 ("cz", (d, q), None), ("xx", (q, c), theta / 2), ("yy", (q, c), theta / 2),
                 ("cp", (d, q), -phi), ("cp", (d, c), -phi), ("rz", (d,), phi / 2)]
        return [("x", (d,), None), *gates, ("x", (d,), None)] if control_value == 0 else gates
    return [("h", (0,), None), ("x", (2,), None), ("x", (3,), None),
            *block(0, 2), *block(0, 3), *block(1, 3), *block(1, 2)]


def final_state(circuit: QuantumCircuit) -> np.ndarray:
    """The gates applied to |0000>, one at a time, as a (2,) * 4 tensor."""
    psi = np.zeros((2,) * N_QUBITS, dtype=complex)
    psi[(0,) * N_QUBITS] = 1.0
    for gate in circuit.gates:
        psi = apply(psi, gate_matrix(gate), gate.qubits)
    return psi


def simulate(circ: QuantumCircuit, p: float = 0.0) -> np.ndarray:
    """Run from |0000> through the library's `_final_states` and return the
    16x16 output density matrix, depolarized as (1-p) rho + p I/16."""
    psi = circuit._final_states(*template_of(circ), 1).ravel()
    return (1 - p) * np.outer(psi, psi.conj()) + p * np.eye(16) / 16


def charging_gates(theta: float, phi: float) -> tuple:
    """The four controlled charging blocks of build_ico_circuit: every gate
    after the three preparation gates (H on D, X on both chargers)."""
    return build_ico_circuit(theta, phi).gates[3:]


def circuit_unitary(gates, n: int = N_QUBITS) -> np.ndarray:
    """Product of the gate list (first gate applied first), each gate
    applied by the library's kernel `icobattery.circuit.apply`."""
    u = np.eye(2 ** n, dtype=complex).reshape((2,) * n + (2 ** n,))
    for gate in gates:
        u = circuit.apply(u, library_gate_matrix(gate), gate.qubits)
    return u.reshape(2 ** n, 2 ** n)


def outcome_probabilities(circuit: QuantumCircuit, p: float = 0.0) -> np.ndarray:
    """Outcome probabilities of one circuit under depolarizing strength p,
    in OUTCOME_KEYS order."""
    diag = (1 - p) * np.abs(apply(final_state(circuit), _H, (0,))) ** 2 + p / 16
    return diag.reshape(2, 2, 4).sum(axis=2).ravel()


def sample_counts(probs: np.ndarray, shots: int, seed) -> np.ndarray:
    """Multinomial shots from one row of outcome probabilities, clipped at 0
    and renormalized, drawn by default_rng(seed)."""
    p = np.clip(probs, 0.0, None)
    return np.random.default_rng(seed).multinomial(shots, p / p.sum())


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


def run_counting_empty(fn, *args) -> tuple:
    """`fn(*args)`, the summed rows without '+' and without '-' counts that its warnings report,
    and the number of warnings: one a call of `estimate_counts`, one a branch of `estimate`."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    empty = (0, 0)
    for w in caught:
        plus, minus, branch = re.fullmatch(
            r"no counts for switch outcome (?:'\+' in (\d+) and '-' in (\d+) of \d+ rows; those "
            r"branches contribute|'([+-])'; branch contributes) 0 ergotropy", str(w.message)).groups()
        assert w.filename == (__file__ if branch else circuit.__file__), w.filename
        empty = (empty[0] + int(plus or branch == "+"), empty[1] + int(minus or branch == "-"))
    return result, empty, len(caught)


def bootstrap_p_se(counts_vec: np.ndarray, shots: int, rng, resamples: int) -> float | None:
    """Bootstrap standard error of the efficiency, one `estimate` per resample."""
    vals = []
    for draw in rng.multinomial(shots, counts_vec / shots, size=resamples):
        rep = estimate(dict(zip(OUTCOME_KEYS, draw)), shots)
        if rep.P is not None:
            vals.append(rep.P)
    return float(np.std(vals)) if len(vals) > 1 else None


def noise_study(cols, shots: int) -> list[tuple]:
    """`estimate` and `bootstrap_p_se` of each row of `cols`' count columns,
    resampled by default_rng(seed + 10**9) as in `cli.noise_study_rows`."""
    counts = np.column_stack([cols[k] for k in cli.SHOT_FIELDS[5:]]).astype(float)
    rngs = (np.random.default_rng(int(seed) + 10**9) for seed in cols["seed"])
    return [(estimate(dict(zip(OUTCOME_KEYS, c)), shots),
             bootstrap_p_se(c, shots, rng, cli.BOOTSTRAP_RESAMPLES)) for c, rng in zip(counts, rngs)]
