import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icobattery.linalg import (
    Layout,
    Operator,
    PureState,
    exp_neg_i,
    hermitian_eig,
    partial_trace,
    project_unnormalized,
    require_density,
    tensor,
)
from conftest import random_density, random_hermitian
from dense_reference import reduced_density

L1 = Layout(("a",), (2,))
L2 = Layout(("b",), (2,))

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def op(mat, labels=("a",)):
    return Operator(Layout(labels, tuple([mat.shape[0]] if len(labels) == 1 else [2] * len(labels))), mat)


class TestLayout:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            Layout(("a", "a"), (2, 2))

    def test_total_dim(self):
        assert Layout(("a", "b", "c"), (3, 2, 2)).dim == 12


class TestTensor:
    def test_identity_times_identity(self):
        a = Operator(L1, np.eye(2))
        b = Operator(L2, np.eye(2))
        assert np.array_equal(tensor(a, b).mat, np.eye(4))

    def test_sigma_z_squared(self):
        out = tensor(Operator(L1, SZ), Operator(L2, SZ))
        assert np.array_equal(out.mat, np.diag([1, -1, -1, 1]))

    def test_dimension_arithmetic(self):
        a = Operator(Layout(("a",), (2,)), np.eye(2))
        b = Operator(Layout(("b",), (3,)), np.eye(3))
        out = tensor(a, b)
        assert out.layout.dim == 6
        assert out.layout.labels == ("a", "b")

    def test_associative_exact_for_exact_entries(self, rng):
        # dyadic entries multiply without rounding, so associativity is bitwise
        ops = [Operator(Layout((lab, ), (2,)),
                        rng.integers(-8, 8, size=(2, 2)) * 0.25
                        + 0.5j * rng.integers(-8, 8, size=(2, 2)))
               for lab in "abc"]
        left = tensor(tensor(ops[0], ops[1]), ops[2])
        right = tensor(ops[0], tensor(ops[1], ops[2]))
        assert np.array_equal(left.mat, right.mat)
        assert left.layout == right.layout


class TestPartialTrace:
    def test_product_state_factorizes(self, rng):
        ra = random_density(rng, 2)
        rb = random_density(rng, 2)
        joint = tensor(op(ra, ("a",)), op(rb, ("b",)))
        out = partial_trace(joint, {"a"})
        assert np.allclose(out.mat, ra, atol=1e-12)
        assert out.layout.labels == ("a",)

    def test_bell_state_reduces_to_maximally_mixed(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        joint = Operator(Layout(("a", "b"), (2, 2)), np.outer(bell, bell.conj()))
        out = partial_trace(joint, {"a"})
        assert np.allclose(out.mat, np.eye(2) / 2, atol=1e-12)

    def test_trace_preserved_random_three_qubit(self, rng):
        rho = random_density(rng, 8)
        joint = Operator(Layout(("a", "b", "c"), (2, 2, 2)), rho)
        for keep in ({"a"}, {"b", "c"}, {"a", "c"}):
            out = partial_trace(joint, keep)
            assert np.trace(out.mat).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(out.mat).min() >= -1e-10

    def test_unknown_label(self):
        joint = Operator(Layout(("a", "b"), (2, 2)), np.eye(4) / 4)
        with pytest.raises(ValueError, match="unknown subsystem"):
            partial_trace(joint, {"z"})

    def test_matches_pure_state_reduction(self, rng):
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v /= np.linalg.norm(v)
        layout = Layout(("a", "b", "c"), (2, 2, 2))
        full = partial_trace(Operator(layout, np.outer(v, v.conj())), {"b"})
        fast = reduced_density(PureState(layout, v), {"b"})
        assert np.allclose(full.mat, fast.mat, atol=1e-12)


class TestHermitianEig:
    def test_sigma_z(self):
        w, _ = hermitian_eig(op(SZ))
        assert np.allclose(w, [-1, 1])

    def test_sigma_x_eigenvectors(self):
        w, v = hermitian_eig(op(SX))
        assert np.allclose(w, [-1, 1])
        # |0> -+ |1>, up to phase
        for col, sign in ((0, -1), (1, 1)):
            vec = v[:, col] / v[0, col]
            assert np.allclose(vec, [1, sign], atol=1e-10)

    def test_random_eigenbasis_unitary(self, rng):
        h = op(random_hermitian(rng, 8), ("a",))
        _, v = hermitian_eig(h)
        assert np.max(np.abs(v.conj().T @ v - np.eye(8))) <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eig(op(np.array([[0, 1], [0, 0]], dtype=complex)))


class TestExpNegI:
    def test_zero_time_is_identity(self, rng):
        h = op(random_hermitian(rng, 4), ("a",))
        assert np.allclose(exp_neg_i(h, 0.0).mat, np.eye(4), atol=1e-12)

    def test_diagonal_case(self):
        u = exp_neg_i(op(SZ / 2), np.pi)
        assert np.allclose(u.mat, np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)]), atol=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), s1=st.floats(-5, 5), s2=st.floats(-5, 5))
    @settings(max_examples=25, deadline=None)
    def test_group_law(self, seed, s1, s2):
        h = op(random_hermitian(np.random.default_rng(seed), 4), ("a",))
        lhs = exp_neg_i(h, s1).mat @ exp_neg_i(h, s2).mat
        rhs = exp_neg_i(h, s1 + s2).mat
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_commutes_with_generator(self, rng):
        h = op(random_hermitian(rng, 4), ("a",))
        u = exp_neg_i(h, 0.7).mat
        assert np.max(np.abs(u @ h.mat - h.mat @ u)) <= 1e-9


class TestProjectUnnormalized:
    def test_identity_projector(self, rng):
        rho = op(random_density(rng, 2))
        w, out = project_unnormalized(rho, op(np.eye(2)))
        assert w == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(out.mat, rho.mat)

    def test_orthogonal_outcome(self):
        rho = op(np.diag([1.0, 0.0]).astype(complex))
        w, _ = project_unnormalized(rho, op(np.diag([0.0, 1.0]).astype(complex)))
        assert w == pytest.approx(0.0, abs=1e-12)

    def test_plus_state_half(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        w, _ = project_unnormalized(op(plus), op(np.diag([1.0, 0.0]).astype(complex)))
        assert w == pytest.approx(0.5, abs=1e-12)

    def test_rejects_non_projector(self, rng):
        rho = op(random_density(rng, 2))
        with pytest.raises(ValueError, match="projector"):
            project_unnormalized(rho, op(0.5 * np.eye(2)))


def test_density_validation(rng):
    require_density(op(random_density(rng, 4), ("a",)))
    with pytest.raises(ValueError):
        require_density(op(2 * random_density(rng, 4), ("a",)))
