"""Core form evaluations: frozen values, algebraic identities, input guards."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coposolve import (
    ConeVector,
    DimensionError,
    ParameterError,
    SymMatrix,
    negative_part_row_sums,
    p_form,
    principal_submatrix,
    quadratic_form,
)
from coposolve.forms import p_form_batch, p_form_gradient

from oracles import central_difference_gradient


def mat(rows):
    return SymMatrix(rows)


B_EPS_LIMIT = mat([[1, -1, -1], [-1, 1, 1], [-1, 1, 1]])


def entry_floats(lo=-2.0, hi=2.0):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def sym_matrices(draw, n_max=4):
    n = draw(st.integers(min_value=2, max_value=n_max))
    raw = np.array(
        [[draw(entry_floats()) for _ in range(n)] for _ in range(n)]
    )
    return SymMatrix((raw + raw.T) / 2.0)


@st.composite
def cone_points(draw, n):
    vals = [draw(st.floats(min_value=0.0, max_value=3.0)) for _ in range(n)]
    return np.array(vals)


class TestSymMatrix:
    def test_symmetrizes_and_records_asymmetry(self):
        B = SymMatrix([[1.0, 2e-10], [0.0, 1.0]])
        assert B.entries[0, 1] == B.entries[1, 0] == pytest.approx(1e-10)
        assert B.max_asymmetry == pytest.approx(2e-10)

    def test_rejects_large_asymmetry(self):
        with pytest.raises(ParameterError):
            SymMatrix([[1.0, 1e-6], [0.0, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            SymMatrix([[1.0, 2.0, 3.0]])

    def test_entries_are_frozen(self):
        B = mat([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            B.entries[0, 0] = 5.0


class TestConeVector:
    def test_rejects_negative_components(self):
        with pytest.raises(ParameterError):
            ConeVector([1.0, -0.5])

    def test_nontrivial_flag(self):
        assert ConeVector([0.0, 0.1]).nontrivial
        assert not ConeVector([0.0, 0.0]).nontrivial

    def test_simplex_normalization(self):
        v = ConeVector([1.0, 3.0]).to_simplex()
        assert v.components == pytest.approx([0.25, 0.75])
        with pytest.raises(ParameterError):
            ConeVector([0.0, 0.0]).to_simplex()


class TestQuadraticForm:
    def test_identity(self):
        out = quadratic_form(mat([[1, 0], [0, 1]]), [1.0, 1.0])
        assert out.value == 2.0
        assert out.gradient == pytest.approx([2.0, 2.0])

    def test_negative_coupling(self):
        assert quadratic_form(mat([[1, -2], [-2, 1]]), [1.0, 1.0]).value == -2.0

    def test_three_by_three(self):
        B = mat([[1, 0, 0], [0, 1, 1], [0, 1, 1]])
        assert quadratic_form(B, [1.0, 1.0, 1.0]).value == 5.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            quadratic_form(mat([[1, 0], [0, 1]]), [1.0, 1.0, 1.0])

    @given(sym_matrices(), st.floats(min_value=-3.0, max_value=3.0))
    def test_degree_two_homogeneity(self, B, t):
        rng = np.random.default_rng(7)
        c = rng.uniform(-1.0, 1.0, B.n)
        base = quadratic_form(B, c).value
        scaled = quadratic_form(B, t * c).value
        assert scaled == pytest.approx(t**2 * base, rel=1e-12, abs=1e-12)

    @given(sym_matrices())
    def test_gradient_matches_central_differences(self, B):
        rng = np.random.default_rng(11)
        c = rng.uniform(0.3, 1.5, B.n)
        grad = quadratic_form(B, c).gradient
        fd = central_difference_gradient(lambda x: quadratic_form(B, x).value, c)
        scale = max(1.0, float(np.max(np.abs(grad))))
        assert np.max(np.abs(grad - fd)) / scale < 1e-6


class TestPForm:
    def test_identity(self):
        out = p_form(mat([[1, 0], [0, 1]]), ConeVector([1, 1]), ConeVector([1, 1]), 4.0)
        assert out.value == 2.0

    def test_limit_matrix_at_appendix_point(self):
        out = p_form(B_EPS_LIMIT, ConeVector([3, 2, 2]), ConeVector([1, 1, 1]), 4.0)
        assert out.value == -1.0

    def test_single_support_cubic(self):
        out = p_form(mat([[1, 0], [0, 1]]), ConeVector([2, 0]), ConeVector([1, 1]), 4.0)
        assert out.value == 8.0

    def test_rejects_small_p(self):
        with pytest.raises(ParameterError):
            p_form(mat([[1, 0], [0, 1]]), ConeVector([1, 1]), ConeVector([1, 1]), 2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            p_form(mat([[1, 0], [0, 1]]), ConeVector([1, 1, 1]), ConeVector([1, 1]), 4.0)

    @given(sym_matrices(), st.floats(min_value=0.05, max_value=4.0),
           st.sampled_from([3.0, 4.0, 6.0]))
    def test_degree_p_minus_one_homogeneity(self, B, t, p):
        rng = np.random.default_rng(13)
        c = rng.uniform(0.0, 2.0, B.n)
        mu = rng.uniform(0.2, 1.0, B.n)
        base = p_form(B, ConeVector(c), ConeVector(mu), p).value
        scaled = p_form(B, ConeVector(t * c), ConeVector(mu), p).value
        assert scaled == pytest.approx(t ** (p - 1) * base, rel=1e-10, abs=1e-12)

    @given(sym_matrices(), st.floats(min_value=0.0, max_value=2.0),
           st.floats(min_value=0.0, max_value=2.0))
    def test_linearity_in_weight(self, B, alpha, beta):
        rng = np.random.default_rng(17)
        c = rng.uniform(0.0, 2.0, B.n)
        mu = rng.uniform(0.1, 1.0, B.n)
        nu = rng.uniform(0.1, 1.0, B.n)
        mixed = p_form(B, ConeVector(c), ConeVector(alpha * mu + beta * nu), 4.0).value
        parts = alpha * p_form(B, ConeVector(c), ConeVector(mu), 4.0).value
        parts += beta * p_form(B, ConeVector(c), ConeVector(nu), 4.0).value
        assert mixed == pytest.approx(parts, rel=1e-12, abs=1e-12)

    @given(sym_matrices())
    def test_diagonal_scaling_covariance(self, B):
        rng = np.random.default_rng(19)
        mu = rng.uniform(0.3, 1.5, B.n)
        d = rng.uniform(0.0, 2.0, B.n)
        scaled = SymMatrix(np.outer(mu**2, mu**2) * B.entries)
        lhs = p_form(scaled, ConeVector(d / mu), ConeVector(np.ones(B.n)), 4.0).value
        rhs = p_form(B, ConeVector(d), ConeVector(mu), 4.0).value
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_gradient_matches_central_differences_interior(self):
        rng = np.random.default_rng(23)
        B = mat([[1, -0.4, -0.4], [-0.4, 1, 0.5], [-0.4, 0.5, 1]])
        for p in (3.0, 4.0, 6.0):
            c = rng.uniform(0.3, 1.2, 3)
            mu = rng.uniform(0.3, 1.2, 3)
            grad = p_form(B, ConeVector(c), ConeVector(mu), p).gradient
            fd = central_difference_gradient(
                lambda x: p_form(B, ConeVector(x), ConeVector(mu), p).value, c
            )
            scale = max(1.0, float(np.max(np.abs(grad))))
            assert np.max(np.abs(grad - fd)) / scale < 1e-6

    def test_gradient_absent_on_boundary_for_small_p(self):
        out = p_form(mat([[1, 0], [0, 1]]), ConeVector([1, 0]), ConeVector([1, 1]), 3.0)
        assert out.gradient is None

    def test_batch_matches_scalar_path(self):
        rng = np.random.default_rng(29)
        B = mat([[1, -0.9, -0.9], [-0.9, 1, 1], [-0.9, 1, 1]])
        pts = rng.uniform(0.0, 1.0, (50, 3))
        mu = ConeVector([1.0, 0.8, 0.6])
        batch = p_form_batch(B, pts, mu, 4.0)
        gradients = p_form_gradient(B.entries, pts, mu.components, 4.0)
        for k in range(0, 50, 7):
            scalar = p_form(B, ConeVector(pts[k]), mu, 4.0)
            assert batch[k] == pytest.approx(scalar.value, rel=1e-12, abs=1e-14)
            assert gradients[k] == pytest.approx(scalar.gradient, rel=1e-12, abs=1e-14)


class TestPrincipalSubmatrix:
    def test_pair_face(self):
        B = mat([[1, -0.9, -0.9], [-0.9, 1, 1], [-0.9, 1, 1]])
        sub = principal_submatrix(B, [1, 2])
        assert sub.entries.tolist() == [[1.0, 1.0], [1.0, 1.0]]

    def test_full_support_is_identity_operation(self):
        B = mat([[1, -2], [-2, 1]])
        assert principal_submatrix(B, [0, 1]).entries.tolist() == B.entries.tolist()

    def test_singleton(self):
        assert principal_submatrix(mat(np.eye(3)), [1]).entries.tolist() == [[1.0]]

    def test_rejects_empty_and_out_of_range(self):
        B = mat(np.eye(3))
        with pytest.raises(ParameterError):
            principal_submatrix(B, [])
        with pytest.raises(ParameterError):
            principal_submatrix(B, [3])


class TestNegativePartRowSums:
    def test_mixed_signs(self):
        B = mat([[1, -0.4, -0.4], [-0.4, 1, 0.5], [-0.4, 0.5, 1]])
        assert negative_part_row_sums(B) == pytest.approx([-0.8, -0.4, -0.4])

    def test_identity_is_zero(self):
        assert negative_part_row_sums(mat(np.eye(4))) == pytest.approx([0, 0, 0, 0])

    def test_b_epsilon_rows(self):
        B = mat([[1, -0.9, -0.9], [-0.9, 1, 1], [-0.9, 1, 1]])
        assert negative_part_row_sums(B) == pytest.approx([-1.8, -0.9, -0.9])
