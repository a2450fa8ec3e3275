"""Dense state-vector reference for the protocol, for small N (<= 5).

The register is D (x) Q (x) C1..CN with D leftmost (most significant).  The
switch-controlled unitary is built as a dense block-diagonal matrix of
ordered products of embedded pair unitaries, so its size is N 2^(N+1); the
library's excitation-sector engine (`icobattery.protocol`) is checked
against it.  `branch_state` lays the closed-form coefficients of
`icobattery.analytic` out on the battery-charger register, so they can be
checked against the dense evolution too.
"""
from __future__ import annotations

import math

import numpy as np

from icobattery import tolerances as tol
from icobattery.analytic import alpha_coeffs
from icobattery.model import KET_E, KET_G, ModelParams, pair_unitary
from icobattery.protocol import ProtocolResult, cyclic_sequence
from labeled_linalg import PAIR_LAYOUT, Layout, Operator, PureState, battery_charger_layout


def switch_register_layout(n_chargers: int) -> Layout:
    """Full protocol register: switch D (dim N), battery Q, chargers C1..CN."""
    labels = ("D", "Q") + tuple(f"C{l}" for l in range(1, n_chargers + 1))
    return Layout(labels, (n_chargers, 2) + (2,) * n_chargers)


def reduced_density(state: PureState, keep) -> Operator:
    """Partial trace of |psi><psi| computed without forming the full outer product."""
    keep = set(keep)
    unknown = keep - set(state.layout.labels)
    if unknown:
        raise ValueError(f"unknown subsystem labels {sorted(unknown)}; have {state.layout.labels}")
    labels = state.layout.labels
    dims = state.layout.dims
    keep_axes = [i for i, lab in enumerate(labels) if lab in keep]
    drop_axes = [i for i, lab in enumerate(labels) if lab not in keep]
    t = state.vec.reshape(dims).transpose(keep_axes + drop_axes)
    kd = math.prod(dims[i] for i in keep_axes) if keep_axes else 1
    a = t.reshape(kd, -1)
    rho = a @ a.conj().T
    kept = Layout(tuple(labels[i] for i in keep_axes), tuple(dims[i] for i in keep_axes))
    return Operator(kept, rho)


def permute_subsystems(mat: np.ndarray, src: Layout, dst_labels) -> np.ndarray:
    """Reorder a matrix's subsystem factors from `src` order to `dst_labels` order."""
    dst_labels = tuple(dst_labels)
    if set(dst_labels) != set(src.labels):
        raise ValueError(f"destination labels {dst_labels} must permute {src.labels}")
    n = len(src.labels)
    perm = [src.axis(lab) for lab in dst_labels]
    t = mat.reshape(src.dims + src.dims)
    t = t.transpose(perm + [n + p for p in perm])
    d = src.dim
    return t.reshape(d, d)


def embed_pair(op: Operator, layout: Layout, charger_index: int) -> Operator:
    """Promote a Q (x) C operator to the full register, acting on (Q, C_l)."""
    label = f"C{charger_index}"
    if label not in layout.labels or "Q" not in layout.labels:
        raise ValueError(f"layout {layout.labels} has no battery/charger pair (Q, {label})")
    if op.layout.dim != 4:
        raise ValueError("embed_pair expects a two-qubit operator")
    rest = [lab for lab in layout.labels if lab not in ("Q", label)]
    rest_dims = tuple(layout.dims[layout.axis(lab)] for lab in rest)
    src = Layout(("Q", label) + tuple(rest), (2, 2) + rest_dims)
    big = np.kron(op.mat, np.eye(int(np.prod(rest_dims, initial=1))))
    return Operator(layout, permute_subsystems(big, src, layout.labels))


def ordered_charging_unitary(params: ModelParams, t: float, j: int,
                             layout: Layout | None = None) -> Operator:
    """Product of pair unitaries (each for time t/N) along cyclic order j."""
    n = params.n_chargers
    if layout is None:
        layout = battery_charger_layout(n)
    u_pair = Operator(PAIR_LAYOUT, pair_unitary(params, t / n))
    acc = np.eye(layout.dim, dtype=complex)
    for l in cyclic_sequence(j, n):
        acc = embed_pair(u_pair, layout, l).mat @ acc
    return Operator(layout, acc)


def total_unitary(params: ModelParams, t: float) -> Operator:
    """Block-diagonal switch-controlled unitary on D (x) Q (x) C1..CN."""
    n = params.n_chargers
    layout = switch_register_layout(n)
    sub_layout = battery_charger_layout(n)
    sub = sub_layout.dim
    u = np.zeros((n * sub, n * sub), dtype=complex)
    for j in range(1, n + 1):
        block = ordered_charging_unitary(params, t, j, sub_layout).mat
        lo = (j - 1) * sub
        u[lo:lo + sub, lo:lo + sub] = block
    return Operator(layout, u)


def initial_state(params: ModelParams) -> PureState:
    """Uniform switch superposition (x) |g>_Q (x) |e> on every charger."""
    n = params.n_chargers
    vec = np.ones(n, dtype=complex) / np.sqrt(n)
    vec = np.kron(vec, KET_G)
    for _ in range(n):
        vec = np.kron(vec, KET_E)
    return PureState(switch_register_layout(n), vec)


def switch_projector(n: int) -> Operator:
    """Rank-1 projector onto the uniform switch superposition, entries 1/N."""
    if n < 2:
        raise ValueError(f"switch dimension must be >= 2, got {n}")
    return Operator(Layout(("D",), (n,)), np.full((n, n), 1.0 / n, dtype=complex))


def sector_indices(n: int) -> np.ndarray:
    """Basis indices of the excitation sector on D (x) Q (x) C1..CN: for every
    switch value, |g, all chargers e> and |e, charger c de-excited>."""
    all_e = 2 ** n - 1
    local = [all_e] + [(1 << n) | (all_e & ~(1 << (n - c))) for c in range(1, n + 1)]
    return np.array([d * 2 ** (n + 1) + idx for d in range(n) for idx in local])


def evolved_state(params: ModelParams, t: float) -> np.ndarray:
    """Joint state after the switch-controlled evolution."""
    return total_unitary(params, t).mat @ initial_state(params).vec


def run_ico(params: ModelParams, t: float) -> ProtocolResult:
    """Dense counterpart of `icobattery.protocol.run_ico`: measure the switch
    with kron(projector, identity) and trace out everything but the battery."""
    n = params.n_chargers
    layout = switch_register_layout(n)
    psi = evolved_state(params, t)

    proj_full = np.kron(switch_projector(n).mat, np.eye(layout.dim // n))
    psi_1 = proj_full @ psi
    psi_rest = psi - psi_1
    p1 = float(np.vdot(psi_1, psi_1).real)
    rest_weight = float(np.vdot(psi_rest, psi_rest).real)

    sigma_1 = reduced_density(PureState(layout, psi_1, normalized=False), {"Q"}).mat
    sigma_rest = reduced_density(PureState(layout, psi_rest, normalized=False), {"Q"}).mat

    ket_e = np.outer(KET_E, KET_E.conj())
    rho_given_1 = sigma_1 / p1 if p1 > tol.ENERGY_EPS else np.outer(KET_G, KET_G.conj())
    rho_rest = sigma_rest / rest_weight if rest_weight > tol.ENERGY_EPS else ket_e

    rho_bar = run_dco(params, t, 1)
    return ProtocolResult(t=t, p1=p1, rho_given_1=rho_given_1,
                          rest_weight=rest_weight, rho_rest=rho_rest, rho_bar=rho_bar,
                          rho_avg=p1 * rho_given_1 + rest_weight * rho_rest)


def run_dco(params: ModelParams, t: float, j: int) -> np.ndarray:
    """Battery state after the single definite charging order j (no switch)."""
    layout = battery_charger_layout(params.n_chargers)
    vec = KET_G.copy()
    for _ in range(params.n_chargers):
        vec = np.kron(vec, KET_E)
    out = ordered_charging_unitary(params, t, j, layout).mat @ vec
    return reduced_density(PureState(layout, out), {"Q"}).mat


def branch_state(params: ModelParams, t: float, j: int) -> PureState:
    """Closed-form evolved battery-charger state along charging order j, as a
    full 2^(N+1) state vector on the Q (x) C1..CN layout.

    |g,h0> carries all chargers excited; |e,h_l> has charger l de-excited.
    Order j places alpha_m on the charger visited m-th, i.e. charger
    cyclic_sequence(j)[m-1].
    """
    n = params.n_chargers
    if not 1 <= j <= n:
        raise ValueError(f"order index {j} out of range 1..{n}")
    alpha = alpha_coeffs(params, t)
    layout = battery_charger_layout(n)
    vec = np.zeros(layout.dim, dtype=complex)
    all_e = 2 ** n - 1                       # chargers C1..CN all in |e> = 1
    vec[all_e] = alpha[0]                    # Q = g is the leading (0) bit
    seq = cyclic_sequence(j, n)
    for m, charger in enumerate(seq, start=1):
        idx = (1 << n) | (all_e & ~(1 << (n - charger)))  # Q = e, charger de-excited
        vec[idx] = alpha[m]
    return PureState(layout, vec)
