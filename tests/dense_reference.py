"""Dense state-vector reference for the protocol, for small N (<= 5).

The register is D (x) Q (x) C1..CN with D leftmost (most significant).  The
switch-controlled unitary is built as a dense block-diagonal matrix of
ordered products of embedded pair unitaries, so its size is N 2^(N+1); the
library's excitation-sector engine (`icobattery.protocol`) is checked
against it, and `pair_unitary`, the 4x4 unitary laid out from the library's
`model._pair_entries` and the |gg> phase, against the exponential of
`pair_hamiltonian`.  Its battery states are full 2x2 partial traces, whose
coherences `run_ico` checks to vanish before it keeps their populations.
`branch_state` lays the closed-form coefficients of `icobattery.analytic`
(`alpha_coeffs`) out on the battery-charger register, so they can be
checked against the dense evolution too.
"""
from __future__ import annotations

import math

import numpy as np

from icobattery import tolerances as tol
from icobattery.analytic import _alpha_block
from icobattery.model import SIGMA_Z, ModelParams, _pair_entries
from icobattery.protocol import ProtocolResult
from labeled_linalg import PAIR_LAYOUT, Layout, Operator, PureState, battery_charger_layout

KET_G = np.array([1.0, 0.0], dtype=complex)
KET_E = np.array([0.0, 1.0], dtype=complex)
# sigma_x = |e><g| + |g><e|, sigma_y = -i|e><g| + i|g><e|
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, 1j], [-1j, 0]], dtype=complex)
IDENT_2 = np.eye(2, dtype=complex)


def pair_hamiltonian(params: ModelParams) -> np.ndarray:
    """Battery-charger Hamiltonian on Q (x) C:

    H = (omega/2)(sigma_z^C + 1) + (omega/2) sigma_z^Q
        + (omega*lambda/2)(sigma_x^Q sigma_x^C + sigma_y^Q sigma_y^C)
    """
    om, lam = params.omega, params.coupling
    h = (om / 2) * (np.kron(IDENT_2, SIGMA_Z) + np.kron(IDENT_2, IDENT_2))
    h += (om / 2) * np.kron(SIGMA_Z, IDENT_2)
    h += (om * lam / 2) * (np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y))
    return h


def pair_unitary(params: ModelParams, t_l) -> np.ndarray:
    """Closed-form charging unitary U(t_l) = exp(-i H t_l) on Q (x) C, for
    the H of pair_hamiltonian, from the entries `model._pair_entries` gives:
    phases exp(-3i*omega*t/2) on |ee>, exp(+i*omega*t/2) on |gg>, and a
    cos / -i*sin exchange envelope with argument omega*lambda*t on the
    single-excitation pair {|eg>, |ge>}; the |gg> phase, which the library
    does not form, is formed here.  For an array of times, one matrix per
    time along trailing axes: shape (4, 4) + np.shape(t_l)."""
    ee, diag, off = _pair_entries(params.omega, params.coupling, t_l)
    u = np.zeros((4, 4) + np.shape(ee), dtype=complex)
    # indices: 2*q + c with g=0, e=1
    u[0, 0] = np.exp(0.5j * params.omega * np.asarray(t_l))     # |gg><gg|
    u[3, 3] = ee                                                # |ee><ee|
    u[1, 1] = u[2, 2] = diag                                # |ge><ge|, |eg><eg|
    u[1, 2] = u[2, 1] = off                                 # |ge><eg|, |eg><ge|
    return u


def cyclic_sequence(j: int, n: int) -> tuple[int, ...]:
    """The j-th cyclic charging order: (j, j+1, ..., N, 1, ..., j-1)."""
    if not 1 <= j <= n:
        raise ValueError(f"order index {j} out of range 1..{n}")
    return tuple((j - 1 + k) % n + 1 for k in range(n))


def alpha_coeffs(params: ModelParams, t: float) -> np.ndarray:
    """The (N+1,) closed-form coefficients of `analytic._alpha_block` at one time."""
    n, t = params.n_chargers, np.array([t], dtype=float)
    return _alpha_block(params.omega * t / n, params.omega * params.coupling * t / n, n)[0]


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


def diagonal_populations(rho: np.ndarray) -> np.ndarray:
    """The populations (rho_gg, rho_ee) of a battery state, after checking
    that its coherences vanish: the engine holds only populations."""
    assert rho[0, 1] == 0 and rho[1, 0] == 0, rho
    return rho.diagonal().real.copy()


def run_ico(params: ModelParams, t: float) -> ProtocolResult:
    """Dense counterpart of `icobattery.protocol.run_ico`: measure the switch
    with kron(projector, identity), trace out everything but the battery, and
    keep the populations of the 2x2 states, whose coherences must vanish."""
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
    pops_1, pops_rest = diagonal_populations(sigma_1), diagonal_populations(sigma_rest)
    fallback_1, fallback_rest = np.abs(KET_G) ** 2, np.abs(KET_E) ** 2
    return ProtocolResult(
        t=t, p1=p1, rest_weight=rest_weight, pops_bar=diagonal_populations(run_dco(params, t, 1)),
        pops_given_1=pops_1 / p1 if p1 > tol.ENERGY_EPS else fallback_1,
        pops_rest=pops_rest / rest_weight if rest_weight > tol.ENERGY_EPS else fallback_rest)


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
