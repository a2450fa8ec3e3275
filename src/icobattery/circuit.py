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

The simulator evolves a whole grid of (theta, phi) at once: amplitudes of
shape (2,) * 4 + (T,), each gate a stack of T matrices, one matrix product
per point (`apply`), so a point's probabilities do not depend on the grid it
is evaluated in.  The shot estimator works on arrays of counts, one row per
sample or bootstrap resample.
"""
from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .model import CHUNK_AMPLITUDES, ModelParams
from .thermo import EnergyReport, efficiencies, python_values

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


def angles_of_time(params: ModelParams, t):
    """Map total charging time to (theta, phi) = (w*l*t/2, w*t/2): two floats
    for one time, two arrays for an array of times, equal entry by entry."""
    theta, phi = params.omega * params.coupling * t / 2, params.omega * t / 2
    return (float(theta), float(phi)) if np.ndim(t) == 0 else (theta, phi)


def _controlled_block(control_value: int, charger_qubit: int, theta, phi) -> list[tuple]:
    """Pair unitary for half the total time on (Q, charger), applied only when
    D equals control_value.  Exchange part via CZ conjugation; diagonal
    phases via CP(-phi) on (D, Q) and (D, charger) plus RZ(phi/2) on D
    (the remaining branch-independent factor is a global phase).

    Gates are (kind, qubits, angle) triples; theta and phi are floats, or
    arrays of one angle per grid point."""
    d, q = 0, 1
    half = theta / 2
    block = [
        ("cz", (d, q), None),
        ("xx", (q, charger_qubit), -half),
        ("yy", (q, charger_qubit), -half),
        ("cz", (d, q), None),
        ("xx", (q, charger_qubit), half),
        ("yy", (q, charger_qubit), half),
        ("cp", (d, q), -phi),
        ("cp", (d, charger_qubit), -phi),
        ("rz", (d,), phi / 2),
    ]
    if control_value == 0:
        block = [("x", (d,), None)] + block + [("x", (d,), None)]
    return block


_PREP = (("h", (0,), None), ("x", (2,), None), ("x", (3,), None))


def _ico_gates(theta, phi) -> list[tuple]:
    """(kind, qubits, angle) of every gate of build_ico_circuit(theta, phi):
    preparation (H on D, X on both chargers), then the four controlled
    charging blocks, D = |0> charging via C1 then C2 and D = |1> via C2 then
    C1."""
    c1, c2 = 2, 3
    return [*_PREP,
            *_controlled_block(0, c1, theta, phi), *_controlled_block(0, c2, theta, phi),
            *_controlled_block(1, c2, theta, phi), *_controlled_block(1, c1, theta, phi)]


def build_ico_circuit(theta: float, phi: float) -> QuantumCircuit:
    """Preparation (H on D, X on both chargers) followed by the charging blocks."""
    return QuantumCircuit(gates=tuple(Gate(*g) for g in _ico_gates(theta, phi)))


# --- state-vector simulation -----------------------------------------------

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)  # standard gate-basis sigma_y
_FIXED = {"h": _H, "x": _X, "cz": np.diag([1, 1, 1, -1]).astype(complex)}
_GENERATORS = {"xx": np.kron(_X, _X), "yy": np.kron(_SY, _SY)}


def gate_matrices(kind: str, angles=None) -> np.ndarray:
    """Matrices of one gate kind on the gate's own qubits (first listed qubit
    most significant), one per angle: shape np.shape(angles) + (d, d).  A
    fixed kind (h, x, cz) takes no angle and gives its one (d, d) matrix."""
    if kind in _FIXED:
        return _FIXED[kind]
    a = np.asarray(angles, dtype=float)
    if kind in ("xx", "yy"):
        c, s = np.cos(a / 2)[..., None, None], np.sin(a / 2)[..., None, None]
        return c * np.eye(4) - 1j * s * _GENERATORS[kind]
    if kind == "rz":
        mats = np.zeros(a.shape + (2, 2), dtype=complex)
        mats[..., 0, 0], mats[..., 1, 1] = np.exp(-0.5j * a), np.exp(0.5j * a)
        return mats
    if kind == "cp":
        mats = np.zeros(a.shape + (4, 4), dtype=complex)
        mats[..., 0, 0] = mats[..., 1, 1] = mats[..., 2, 2] = 1.0
        mats[..., 3, 3] = np.exp(1j * a)
        return mats
    raise ValueError(f"unknown gate kind {kind!r}")


@functools.cache
def _axis_order(ndim: int, grid: int, qubits: tuple[int, ...]) -> tuple[tuple, tuple]:
    """The transpose of an ndim-axis state that brings its last `grid` axes,
    then `qubits`, to the front and keeps the other axes in order (what
    np.moveaxis gives), and the transpose that undoes it."""
    front = (*range(ndim - grid, ndim), *qubits)
    order = front + tuple(i for i in range(ndim) if i not in front)
    return order, tuple(np.argsort(order).tolist())


def apply(state: np.ndarray, mat: np.ndarray, qubits) -> np.ndarray:
    """Apply a k-qubit matrix (first listed qubit most significant) to
    `qubits` of `state`, an array of shape (2,) * n followed by any trailing
    axes, which are carried along.

    `mat` is one (2**k, 2**k) matrix, or a stack G + (2**k, 2**k) of one
    matrix per index of the last len(G) axes of `state` (the grid axes, of
    shape G).  A stack is applied as one matrix product per grid index, so
    each index's result is the same however many indices share the call."""
    k, grid = len(qubits), mat.ndim - 2
    order, inverse = _axis_order(state.ndim, grid, tuple(qubits))
    moved = state.transpose(order)
    out = mat @ moved.reshape(moved.shape[:grid] + (2 ** k, -1))
    return out.reshape(moved.shape).transpose(inverse)


def _final_states(gates, points: int) -> np.ndarray:
    """|0000> evolved through `gates`, (kind, qubits, angle) triples whose
    angle is None, a float, or an array of one angle per point, as
    (2,) * 4 + (points,) amplitudes.  Every gate, fixed ones included, is
    applied as a stack of one matrix per point: a gate of one matrix (a fixed
    kind, or a float angle) is broadcast to the points, a column of angles
    gives its stack as it is."""
    psi = np.zeros((2,) * N_QUBITS + (points,), dtype=complex)
    psi[(0,) * N_QUBITS] = 1.0
    for kind, qubits, angle in gates:
        mats = gate_matrices(kind, angle)
        if mats.ndim == 2:
            mats = np.broadcast_to(mats, (points,) + mats.shape)
        psi = apply(psi, mats, qubits)
    return psi


def _probabilities(gates, points: int, noise: NoiseSpec) -> np.ndarray:
    """Born probabilities of (D in x basis, Q in z basis), chargers traced
    out, as (points, 4) in OUTCOME_KEYS order.  H on D maps the x basis to z;
    the depolarized part I/16 is invariant."""
    psi = _final_states([*gates, ("h", (0,), None)], points)
    p = noise.depolarizing_p
    diag = (1 - p) * np.abs(np.moveaxis(psi, -1, 0)) ** 2 + p / 16
    return diag.reshape(points, 4, 4).sum(axis=2)


def _gate_triples(circuit: QuantumCircuit) -> list[tuple]:
    return [(g.kind, g.qubits, g.angle) for g in circuit.gates]


def ico_probabilities(theta, phi, noise: NoiseSpec = NoiseSpec()) -> np.ndarray:
    """Outcome probabilities of build_ico_circuit(theta[i], phi[i]) for every
    i, as a (T, 4) array in OUTCOME_KEYS order, from one pass through the
    gate sequence per chunk of at most CHUNK_AMPLITUDES amplitudes.  Row i
    equals outcome_probabilities of point i's circuit bit for bit."""
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    chunk = max(1, CHUNK_AMPLITUDES // 2 ** N_QUBITS)
    probs = np.empty((len(theta), 4))
    for lo in range(0, len(theta), chunk):
        part = slice(lo, lo + chunk)
        probs[part] = _probabilities(_ico_gates(theta[part], phi[part]), len(theta[part]), noise)
    return probs


def outcome_probabilities(circuit: QuantumCircuit, noise: NoiseSpec = NoiseSpec()) -> dict:
    """Born probabilities of (D in x basis, Q in z basis), chargers traced out."""
    probs = _probabilities(_gate_triples(circuit), 1, noise)[0]
    return dict(zip(OUTCOME_KEYS, map(float, probs)))


def _counts(probs: np.ndarray, shots: int, seeds) -> np.ndarray:
    """Multinomial shots from each row of the (T, 4) outcome probabilities
    `probs`, row i drawn by default_rng(seeds[i]), as a (T, 4) int64 array."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    p = np.clip(probs, 0.0, None)
    p /= p.sum(axis=1, keepdims=True)
    counts = np.empty(p.shape, dtype=np.int64)
    for row, p_row, seed in zip(counts, p, seeds, strict=True):
        row[:] = np.random.default_rng(seed).multinomial(shots, p_row)
    return counts


def sample(circuit: QuantumCircuit, noise: NoiseSpec, shots: int, seed: int) -> ShotResult:
    """Multinomial shot sampling; deterministic for a fixed seed."""
    draws = _counts(_probabilities(_gate_triples(circuit), 1, noise), shots, [seed])[0]
    return ShotResult(shots=shots, seed=seed,
                      counts={k: int(c) for k, c in zip(OUTCOME_KEYS, draws)})


def ico_counts(theta, phi, noise: NoiseSpec, shots: int, seeds) -> np.ndarray:
    """The counts of `sample` of build_ico_circuit(theta[i], phi[i]) with seed
    seeds[i], for every i, as a (T, 4) int64 array in OUTCOME_KEYS order; the
    probabilities come from one ico_probabilities pass."""
    return _counts(ico_probabilities(theta, phi, noise), shots, seeds)


def estimate_counts(counts, shots) -> dict[str, np.ndarray]:
    """Count-based energy accounting for every row of an (R, 4) array of
    counts in OUTCOME_KEYS order, each row out of `shots` (a number, or one
    per row); fractional counts are allowed.  Returns the fields of
    EnergyReport as columns, one entry per row, with NaN for an undefined P.

    The conditional battery states are z-diagonal, so counts suffice:
    E = p(e); W = sum_d p(d) max(0, p(e|d) - p(g|d)); both in hbar*omega.
    Each switch outcome without counts in a row warns once and contributes
    0 ergotropy.
    """
    counts = np.asarray(counts, dtype=float)
    total = np.broadcast_to(np.asarray(shots, dtype=float), counts.shape[:1])
    if np.any(total <= 0):
        raise ValueError("empty counts")
    n_d = counts[:, 0::2] + counts[:, 1::2]       # (R, 2): outcomes + and -
    empty = n_d == 0
    for _, d in np.argwhere(empty):
        warnings.warn(f"no counts for switch outcome {'+-'[d]!r}; branch contributes 0 ergotropy")
    pe_d = np.divide(counts[:, 1::2], n_d, out=np.zeros_like(n_d), where=~empty)
    gain = (n_d / total[:, None]) * np.maximum(0.0, 2 * pe_d - 1.0)
    e = (counts[:, 1] + counts[:, 3]) / total
    w = gain[:, 0] + gain[:, 1]
    return {"E": e, "W": w, "P": efficiencies(w, e), "passive_k1": pe_d[:, 0] <= 0.5,
            "passive_dco": e <= 0.5}  # z marginal = definite-order state


def estimate(counts, shots: float | None = None) -> EnergyReport:
    """`estimate_counts` of one ShotResult or raw mapping (fractional counts
    allowed), out of `shots`, or of the sum of the counts when shots is None."""
    if isinstance(counts, ShotResult):
        shots = counts.shots
        counts = counts.counts
    total = float(sum(counts.values())) if shots is None else float(shots)
    est = estimate_counts([[counts.get(k, 0) for k in OUTCOME_KEYS]], total)
    return EnergyReport(**{k: python_values(v)[0] for k, v in est.items()})
