"""Gate-level model of the two-charger protocol.

Four qubits in order (D, Q, C1, C2), qubit 0 (D) most significant, |g> = |0>,
|e> = |1>.  Gate vocabulary: H, X, CZ, XX(theta), YY(theta), CP(theta),
RZ(theta).

Two angles parameterize the circuit: theta = omega*lambda*t/2 sets the
exchange envelope and phi = omega*t/2 sets the free-evolution phases.  The
controlled exchange uses CZ conjugation: Z on Q flips the sign of the
XX+YY generator, so

    exch(theta/2) . CZ(D,Q) . exch(-theta/2) . CZ(D,Q)

acts as the identity when D = |0> and as exch(theta) when D = |1>.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import tolerances as tol
from .model import ModelParams
from .thermo import EnergyReport, efficiency

QUBITS = ("D", "Q", "C1", "C2")
N_QUBITS = 4
GATE_KINDS = ("h", "x", "cz", "xx", "yy", "cp", "rz")
_PARAMETRIC = ("xx", "yy", "cp", "rz")

OUTCOME_KEYS = (("+", "g"), ("+", "e"), ("-", "g"), ("-", "e"))


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        arity = 1 if self.kind in ("h", "x", "rz") else 2
        if len(self.qubits) != arity or len(set(self.qubits)) != arity:
            raise ValueError(f"gate {self.kind} needs {arity} distinct qubits, got {self.qubits}")
        if any(not 0 <= q < N_QUBITS for q in self.qubits):
            raise ValueError(f"qubit index out of range in {self.qubits}")
        if (self.angle is None) == (self.kind in _PARAMETRIC):
            raise ValueError(f"gate {self.kind} angle mismatch: {self.angle}")
        if self.angle is not None:
            # plain float so repr-based serialization stays portable
            object.__setattr__(self, "angle", float(self.angle))


@dataclass(frozen=True)
class QuantumCircuit:
    """Gate list on (D, Q, C1, C2); D is measured in the x basis and Q in
    the z basis (fixed measurement spec)."""

    gates: tuple[Gate, ...]
    n_prep: int = 0  # leading gates that are state preparation, not charging


@dataclass(frozen=True)
class NoiseSpec:
    """Global depolarizing channel applied to the final 4-qubit state."""

    depolarizing_p: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.depolarizing_p <= 1.0:
            raise ValueError(f"depolarizing probability {self.depolarizing_p} outside [0, 1]")


@dataclass(frozen=True)
class ShotResult:
    shots: int
    seed: int
    counts: dict[tuple[str, str], int] = field(compare=False)

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts do not sum to shots")


def angles_of_time(params: ModelParams, t: float) -> tuple[float, float]:
    """Map total charging time to (theta, phi) = (w*l*t/2, w*t/2)."""
    return float(params.omega * params.coupling * t / 2), float(params.omega * t / 2)


def _controlled_block(control_value: int, charger_qubit: int,
                      theta: float, phi: float) -> list[Gate]:
    """Pair unitary for half the total time on (Q, charger), applied only when
    D equals control_value.  Exchange part via CZ conjugation; diagonal
    phases via CP(-phi) on (D, Q) and (D, charger) plus RZ(phi/2) on D
    (the remaining branch-independent factor is a global phase)."""
    d, q = 0, 1
    half = theta / 2
    block = [
        Gate("cz", (d, q)),
        Gate("xx", (q, charger_qubit), -half),
        Gate("yy", (q, charger_qubit), -half),
        Gate("cz", (d, q)),
        Gate("xx", (q, charger_qubit), half),
        Gate("yy", (q, charger_qubit), half),
        Gate("cp", (d, q), -phi),
        Gate("cp", (d, charger_qubit), -phi),
        Gate("rz", (d,), phi / 2),
    ]
    if control_value == 0:
        block = [Gate("x", (d,))] + block + [Gate("x", (d,))]
    return block


def charging_gates(theta: float, phi: float) -> tuple[Gate, ...]:
    """The four controlled charging blocks: D = |0> charges via C1 then C2,
    D = |1> via C2 then C1."""
    c1, c2 = 2, 3
    gates: list[Gate] = []
    gates += _controlled_block(0, c1, theta, phi)
    gates += _controlled_block(0, c2, theta, phi)
    gates += _controlled_block(1, c2, theta, phi)
    gates += _controlled_block(1, c1, theta, phi)
    return tuple(gates)


def build_ico_circuit(theta: float, phi: float) -> QuantumCircuit:
    """Preparation (H on D, X on both chargers) followed by the charging blocks."""
    prep = (Gate("h", (0,)), Gate("x", (2,)), Gate("x", (3,)))
    return QuantumCircuit(gates=prep + charging_gates(theta, phi), n_prep=len(prep))


# --- state-vector simulation -----------------------------------------------

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)  # standard gate-basis sigma_y


def gate_matrix(gate: Gate) -> np.ndarray:
    """Matrix on the gate's own qubits (first listed qubit most significant)."""
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


def apply(state: np.ndarray, mat: np.ndarray, qubits) -> np.ndarray:
    """Apply the k-qubit matrix `mat` (first listed qubit most significant)
    to `qubits` of `state`, an array of shape (2,) * n followed by any
    trailing axes, which are carried along."""
    k = len(qubits)
    out = np.tensordot(mat.reshape((2,) * (2 * k)), state, axes=(range(k, 2 * k), qubits))
    return np.moveaxis(out, range(k), qubits)


def circuit_unitary(gates, n: int = N_QUBITS) -> np.ndarray:
    """Product of the gate list (first gate applied first)."""
    u = np.eye(2 ** n, dtype=complex).reshape((2,) * n + (2 ** n,))
    for gate in gates:
        u = apply(u, gate_matrix(gate), gate.qubits)
    return u.reshape(2 ** n, 2 ** n)


def _final_state(circuit: QuantumCircuit) -> np.ndarray:
    """The gates applied to |0000>, as a (2,) * 4 amplitude tensor."""
    psi = np.zeros((2,) * N_QUBITS, dtype=complex)
    psi[(0,) * N_QUBITS] = 1.0
    for gate in circuit.gates:
        psi = apply(psi, gate_matrix(gate), gate.qubits)
    return psi


def simulate(circuit: QuantumCircuit, noise: NoiseSpec = NoiseSpec()) -> np.ndarray:
    """Run from |0000> and return the 16x16 output density matrix,
    depolarized as (1-p) rho + p I/16."""
    psi = _final_state(circuit).ravel()
    p = noise.depolarizing_p
    return (1 - p) * np.outer(psi, psi.conj()) + p * np.eye(16) / 16


def outcome_probabilities(circuit: QuantumCircuit, noise: NoiseSpec = NoiseSpec()) -> dict:
    """Born probabilities of (D in x basis, Q in z basis), chargers traced out.
    H on D maps the x basis to z; the depolarized part I/16 is invariant."""
    p = noise.depolarizing_p
    diag = (1 - p) * np.abs(apply(_final_state(circuit), _H, (0,))) ** 2 + p / 16
    return dict(zip(OUTCOME_KEYS, map(float, diag.reshape(2, 2, 4).sum(axis=2).ravel())))


def sample(circuit: QuantumCircuit, noise: NoiseSpec, shots: int, seed: int) -> ShotResult:
    """Multinomial shot sampling; deterministic for a fixed seed."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    probs = outcome_probabilities(circuit, noise)
    p = np.clip([probs[k] for k in OUTCOME_KEYS], 0.0, None)
    p = p / p.sum()
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(shots, p)
    return ShotResult(shots=shots, seed=seed,
                      counts={k: int(c) for k, c in zip(OUTCOME_KEYS, draws)})


def estimate(counts, shots: float | None = None) -> EnergyReport:
    """Count-based energy accounting.

    The conditional battery states are z-diagonal, so counts suffice:
    E = p(e); W = sum_d p(d) max(0, p(e|d) - p(g|d)); both in hbar*omega.
    Accepts a ShotResult or a raw mapping (fractional counts allowed).
    """
    if isinstance(counts, ShotResult):
        shots = counts.shots
        counts = counts.counts
    total = float(sum(counts.values())) if shots is None else float(shots)
    if total <= 0:
        raise ValueError("empty counts")
    get = lambda d, q: float(counts.get((d, q), 0))

    p_e = (get("+", "e") + get("-", "e")) / total
    e = p_e

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

    passive_k1 = branch_pops.get("+", 0.0) <= 0.5
    passive_dco = p_e <= 0.5  # unconditional z marginal equals the definite-order state
    return EnergyReport(E=e, W=w, P=efficiency(w, e),
                        passive_k1=passive_k1, passive_dco=passive_dco)
