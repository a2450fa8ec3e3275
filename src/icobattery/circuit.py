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

One gate template, _ICO_TEMPLATE, holds the circuit; its 28 parametric gates
take their angles from four slots, (-theta/2, theta/2, -phi, phi/2).  The
simulator evolves a whole grid of (theta, phi) at once: amplitudes of
shape (2,) * 4 + (T,), each gate a stack of T matrices, one matrix product
per point (`apply`), so a point's probabilities do not depend on the grid it
is evaluated in.  The shot estimator works on arrays of counts, one row per
sample or bootstrap resample.
"""
from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .model import CHUNK_AMPLITUDES, ModelParams
from .thermo import efficiencies

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


def angles_of_time(params: ModelParams, t):
    """Map total charging time to (theta, phi) = (w*l*t/2, w*t/2): two floats
    for one time, two arrays for an array of times, equal entry by entry."""
    theta, phi = params.omega * params.coupling * t / 2, params.omega * t / 2
    return (float(theta), float(phi)) if np.ndim(t) == 0 else (theta, phi)


def _controlled_block(control_value: int, charger_qubit: int) -> tuple:
    """Pair unitary for half the total time on (Q, charger), applied only when
    D equals control_value.  Exchange part via CZ conjugation; diagonal
    phases via CP(-phi) on (D, Q) and (D, charger) plus RZ(phi/2) on D
    (the remaining branch-independent factor is a global phase).  Gates are
    (kind, qubits, slot) triples, slot None or an index into _ico_angles."""
    d, q, c = 0, 1, charger_qubit
    block = (("cz", (d, q), None), ("xx", (q, c), 0), ("yy", (q, c), 0),
             ("cz", (d, q), None), ("xx", (q, c), 1), ("yy", (q, c), 1),
             ("cp", (d, q), 2), ("cp", (d, c), 2), ("rz", (d,), 3))
    flip = (("x", (d,), None),) if control_value == 0 else ()
    return flip + block + flip


# (kind, qubits, slot) of every gate of build_ico_circuit: preparation (H on D,
# X on both chargers), then the four controlled charging blocks, D = |0>
# charging via C1 then C2 and D = |1> via C2 then C1.
_ICO_TEMPLATE = (("h", (0,), None), ("x", (2,), None), ("x", (3,), None),
                 *_controlled_block(0, 2), *_controlled_block(0, 3),
                 *_controlled_block(1, 3), *_controlled_block(1, 2))


# Amplitudes one grid point holds at once while _final_states evolves it
# through _ICO_TEMPLATE: its state, and the matrix of each parametric
# (kind, slot) of the template, each kept to the end of the pass (84 in all).
_POINT_AMPLITUDES = 2 ** N_QUBITS + sum(
    4 ** len(qubits) for qubits in {(kind, slot): qubits for kind, qubits, slot in _ICO_TEMPLATE
                                    if slot is not None}.values())


def _ico_angles(theta, phi) -> tuple:
    """The angles of _ICO_TEMPLATE's slots, (-theta/2, theta/2, -phi, phi/2):
    floats for one circuit, or arrays of one angle per grid point."""
    half_theta = theta / 2
    return -half_theta, half_theta, -phi, phi / 2


def build_ico_circuit(theta: float, phi: float) -> QuantumCircuit:
    """Preparation (H on D, X on both chargers) followed by the charging blocks."""
    angles = _ico_angles(theta, phi)
    return QuantumCircuit(gates=tuple(Gate(kind, qubits, None if slot is None else angles[slot])
                                      for kind, qubits, slot in _ICO_TEMPLATE))


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


def _final_states(template, angles, points: int) -> np.ndarray:
    """|0000> evolved through the gates of `template`, (kind, qubits, slot)
    triples whose slot is None or indexes `angles`, each angle a float or an
    array of one angle per point, as (2,) * 4 + (points,) amplitudes.  A
    column of angles is applied as its stack of one matrix per point; a gate
    of one matrix (a fixed kind, or a float angle) as that matrix, one BLAS
    call over every point rather than one per point of a stack of copies,
    with the same length-d dot products, so the bits are those of the stack.
    The matrices of each (kind, slot) are built once."""
    psi = np.zeros((2,) * N_QUBITS + (points,), dtype=complex)
    psi[(0,) * N_QUBITS] = 1.0
    built = {}
    for kind, qubits, slot in template:
        if (kind, slot) not in built:
            built[kind, slot] = gate_matrices(kind, None if slot is None else angles[slot])
        psi = apply(psi, built[kind, slot], qubits)
    return psi


def _probabilities(template, angles, points: int, p: float) -> np.ndarray:
    """Born probabilities of (D in x basis, Q in z basis), chargers traced
    out, under global depolarizing noise of strength p on the final state,
    as (points, 4) in OUTCOME_KEYS order.  H on D maps the x basis to z;
    the depolarized part I/16 is invariant."""
    psi = _final_states((*template, ("h", (0,), None)), angles, points)
    diag = (1 - p) * np.abs(np.moveaxis(psi, -1, 0)) ** 2 + p / 16
    return diag.reshape(points, 4, 4).sum(axis=2)


def ico_probabilities(theta, phi, p: float = 0.0) -> np.ndarray:
    """Outcome probabilities of build_ico_circuit(theta[i], phi[i]) for every
    i under global depolarizing noise of strength p in [0, 1], as a (T, 4)
    array in OUTCOME_KEYS order, from one pass through the gate sequence per
    chunk of at most CHUNK_AMPLITUDES amplitudes, states and gate matrices
    counted (see _POINT_AMPLITUDES).  Row i equals
    _probabilities of point i's circuit alone bit for bit."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing probability {p!r} outside [0, 1]")
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    chunk = max(1, CHUNK_AMPLITUDES // _POINT_AMPLITUDES)
    probs = np.empty((len(theta), 4))
    for lo in range(0, len(theta), chunk):
        part = slice(lo, lo + chunk)
        probs[part] = _probabilities(_ICO_TEMPLATE, _ico_angles(theta[part], phi[part]),
                                     len(theta[part]), p)
    return probs


def ico_counts(theta, phi, p: float, shots: int, seeds) -> np.ndarray:
    """Multinomial shots from build_ico_circuit(theta[i], phi[i]) under
    depolarizing strength p for every i, row i drawn by default_rng(seeds[i])
    from the clipped and renormalized probabilities, as a (T, 4) int64 array
    in OUTCOME_KEYS order; the probabilities come from one ico_probabilities
    pass, so a point's counts do not depend on the grid it is drawn in."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    probs = np.clip(ico_probabilities(theta, phi, p), 0.0, None)
    probs /= probs.sum(axis=1, keepdims=True)
    counts = np.empty(probs.shape, dtype=np.int64)
    for row, p_row, seed in zip(counts, probs, seeds, strict=True):
        row[:] = np.random.default_rng(seed).multinomial(shots, p_row)
    return counts


def estimate_counts(counts, shots) -> dict[str, np.ndarray]:
    """Count-based energy accounting for every row of an (R, 4) array of
    counts in OUTCOME_KEYS order, each row out of `shots` (a number, or one
    per row); fractional counts are allowed.  Returns the fields of
    EnergyReport as columns, one entry per row, with NaN for an undefined P.

    The conditional battery states are z-diagonal, so counts suffice:
    E = p(e); W = sum_d p(d) max(0, p(e|d) - p(g|d)); both in hbar*omega.
    A switch outcome without counts contributes 0 ergotropy; one warning a
    call gives the number of rows that lack each outcome.
    """
    counts = np.asarray(counts, dtype=float)
    total = np.broadcast_to(np.asarray(shots, dtype=float), counts.shape[:1])
    if np.any(total <= 0):
        raise ValueError("empty counts")
    n_d = counts[:, 0::2] + counts[:, 1::2]       # (R, 2): outcomes + and -
    empty = n_d == 0
    if empty.any():
        plus, minus = np.count_nonzero(empty, axis=0)
        warnings.warn(f"no counts for switch outcome '+' in {plus} and '-' in {minus} of "
                      f"{len(empty)} rows; those branches contribute 0 ergotropy")
    pe_d = np.divide(counts[:, 1::2], n_d, out=np.zeros_like(n_d), where=~empty)
    gain = (n_d / total[:, None]) * np.maximum(0.0, 2 * pe_d - 1.0)
    e = (counts[:, 1] + counts[:, 3]) / total
    w = gain[:, 0] + gain[:, 1]
    return {"E": e, "W": w, "P": efficiencies(w, e), "passive_k1": pe_d[:, 0] <= 0.5,
            "passive_dco": e <= 0.5}  # z marginal = definite-order state
