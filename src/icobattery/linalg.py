"""Dense complex linear algebra over labeled tensor-product Hilbert spaces.

Index convention: basis index of a product state is the mixed-radix encoding
of per-subsystem indices in layout order, with the *leftmost* layout entry
most significant.  All values are immutable after construction and safe to
share between workers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tolerances as tol


@dataclass(frozen=True)
class Layout:
    """Ordered list of (label, dimension) pairs defining a register."""

    labels: tuple[str, ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.dims):
            raise ValueError("labels and dims must have equal length")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate subsystem labels: {self.labels}")
        if any(d < 1 for d in self.dims):
            raise ValueError(f"subsystem dimensions must be positive: {self.dims}")

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def axis(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown subsystem label {label!r}; have {self.labels}") from None

    def concat(self, other: "Layout") -> "Layout":
        return Layout(self.labels + other.labels, self.dims + other.dims)


def battery_charger_layout(n_chargers: int) -> Layout:
    """Register without the switch: Q, C1..CN."""
    labels = ("Q",) + tuple(f"C{l}" for l in range(1, n_chargers + 1))
    return Layout(labels, (2,) * (n_chargers + 1))


@dataclass(frozen=True)
class PureState:
    layout: Layout
    vec: np.ndarray = field(repr=False)
    normalized: bool = True

    def __post_init__(self):
        v = np.ascontiguousarray(self.vec, dtype=complex)
        object.__setattr__(self, "vec", v)
        if v.shape != (self.layout.dim,):
            raise ValueError(f"amplitude vector has shape {v.shape}, layout dim {self.layout.dim}")
        if not np.all(np.isfinite(v.view(float))):
            raise ValueError("non-finite amplitude")
        if self.normalized and abs(np.linalg.norm(v) - 1.0) > tol.NORM_ATOL:
            raise ValueError(f"state norm {np.linalg.norm(v)} deviates from 1 beyond {tol.NORM_ATOL}")


@dataclass(frozen=True)
class Operator:
    layout: Layout
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.ascontiguousarray(self.mat, dtype=complex)
        object.__setattr__(self, "mat", m)
        d = self.layout.dim
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} does not match layout dim {d}")
        if not np.all(np.isfinite(m.view(float))):
            raise ValueError("non-finite matrix entry")


def require_hermitian(op: Operator, atol: float = tol.HERMITIAN_ATOL) -> None:
    dev = np.max(np.abs(op.mat - op.mat.conj().T))
    if dev > atol:
        raise ValueError(f"operator is not Hermitian: max |A - A^dag| = {dev:g}")


def require_unitary(op: Operator, atol: float = tol.UNITARY_ATOL) -> None:
    dev = np.max(np.abs(op.mat.conj().T @ op.mat - np.eye(op.layout.dim)))
    if dev > atol:
        raise ValueError(f"operator is not unitary: max |U^dag U - I| = {dev:g}")


def require_projector(op: Operator, atol: float = tol.PROJECTOR_ATOL) -> None:
    dev = max(
        np.max(np.abs(op.mat @ op.mat - op.mat)),
        np.max(np.abs(op.mat - op.mat.conj().T)),
    )
    if dev > atol:
        raise ValueError(f"operator is not an orthogonal projector: deviation {dev:g}")


def require_density(op: Operator, weight: float = 1.0) -> None:
    """Hermitian, PSD, trace equal to `weight` (1 for normalized states)."""
    require_hermitian(op)
    tr = np.trace(op.mat).real
    if abs(tr - weight) > tol.TRACE_ATOL:
        raise ValueError(f"trace {tr} deviates from {weight}")
    w = np.linalg.eigvalsh(op.mat)
    if w.min() < tol.PSD_EIG_FLOOR:
        raise ValueError(f"negative eigenvalue {w.min():g}")


def tensor(a, b):
    """Kronecker composite of two states or two operators; layouts concatenate."""
    if isinstance(a, PureState) and isinstance(b, PureState):
        return PureState(a.layout.concat(b.layout), np.kron(a.vec, b.vec),
                         normalized=a.normalized and b.normalized)
    if isinstance(a, Operator) and isinstance(b, Operator):
        return Operator(a.layout.concat(b.layout), np.kron(a.mat, b.mat))
    raise TypeError(f"cannot tensor {type(a).__name__} with {type(b).__name__}")


def partial_trace(op: Operator, keep) -> Operator:
    """Reduced operator on `keep` subsystems, in their original relative order."""
    keep = set(keep)
    unknown = keep - set(op.layout.labels)
    if unknown:
        raise ValueError(f"unknown subsystem labels {sorted(unknown)}; have {op.layout.labels}")
    labels = list(op.layout.labels)
    dims = list(op.layout.dims)
    t = op.mat.reshape(dims + dims)
    while True:
        drop = next((i for i, lab in enumerate(labels) if lab not in keep), None)
        if drop is None:
            break
        half = len(labels)
        t = np.trace(t, axis1=drop, axis2=half + drop)
        del labels[drop], dims[drop]
    d = math.prod(dims) if dims else 1
    return Operator(Layout(tuple(labels), tuple(dims)), t.reshape(d, d))


def hermitian_eig(h: Operator):
    """Spectral decomposition H = V diag(w) V^dag, eigenvalues ascending."""
    require_hermitian(h)
    w, v = np.linalg.eigh(h.mat)
    dev = np.max(np.abs((v * w) @ v.conj().T - h.mat))
    if dev > tol.EIG_RECONSTRUCT_ATOL:
        raise ValueError(f"eigendecomposition reconstruction error {dev:g}")
    return w, v


def exp_neg_i(h: Operator, s: float) -> Operator:
    """exp(-i*s*H) for Hermitian H, via the spectral decomposition."""
    if not np.isfinite(s):
        raise ValueError(f"non-finite evolution parameter {s}")
    w, v = hermitian_eig(h)
    u = (v * np.exp(-1j * s * w)) @ v.conj().T
    out = Operator(h.layout, u)
    require_unitary(out)
    return out


def project_unnormalized(rho: Operator, proj: Operator):
    """Apply projector: returns (weight, Pi rho Pi) with weight = Tr[Pi rho Pi]."""
    require_projector(proj)
    if rho.layout.dim != proj.layout.dim:
        raise ValueError("projector dimension does not match state")
    out = proj.mat @ rho.mat @ proj.mat
    weight = float(np.trace(out).real)
    return weight, Operator(rho.layout, out)

