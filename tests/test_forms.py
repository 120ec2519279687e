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
    quadratic_form,
)
from coposolve.forms import cone_power, p_form_batch


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

    def test_symmetrizes_near_float_maximum(self):
        B = SymMatrix([[1.5e308, 1e308], [1e308, 1.5e308]])
        assert np.array_equal(B.entries, [[1.5e308, 1e308], [1e308, 1.5e308]])

    def test_rejects_large_asymmetry(self):
        with pytest.raises(ParameterError):
            SymMatrix([[1.0, 1e-6], [0.0, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            SymMatrix([[1.0, 2.0, 3.0]])

    def test_rejects_no_rows(self):
        with pytest.raises(DimensionError):
            SymMatrix(np.zeros((0, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ParameterError):
            SymMatrix([[1.0, bad], [bad, 1.0]])

    def test_entries_are_frozen(self):
        B = mat([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            B.entries[0, 0] = 5.0


class TestConeVector:
    def test_rejects_negative_components(self):
        with pytest.raises(ParameterError):
            ConeVector([1.0, -0.5])

    @pytest.mark.parametrize("shape", [(), (0,), (2, 2)])
    def test_rejects_other_than_one_axis_of_components(self, shape):
        with pytest.raises(DimensionError):
            ConeVector(np.ones(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_components(self, bad):
        with pytest.raises(ParameterError):
            ConeVector([1.0, bad])


class TestConePower:
    @pytest.mark.parametrize("exponent", [0.0, -1.0, -0.5])
    def test_rejects_nonpositive_exponent(self, exponent):
        with pytest.raises(ParameterError):
            cone_power(np.ones(3), exponent)


class TestQuadraticForm:
    def test_identity(self):
        assert quadratic_form(mat([[1, 0], [0, 1]]), [1.0, 1.0]) == 2.0

    def test_negative_coupling(self):
        assert quadratic_form(mat([[1, -2], [-2, 1]]), [1.0, 1.0]) == -2.0

    def test_three_by_three(self):
        B = mat([[1, 0, 0], [0, 1, 1], [0, 1, 1]])
        assert quadratic_form(B, [1.0, 1.0, 1.0]) == 5.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            quadratic_form(mat([[1, 0], [0, 1]]), [1.0, 1.0, 1.0])

    @given(sym_matrices(), st.floats(min_value=-3.0, max_value=3.0))
    def test_degree_two_homogeneity(self, B, t):
        rng = np.random.default_rng(7)
        c = rng.uniform(-1.0, 1.0, B.n)
        base = quadratic_form(B, c)
        scaled = quadratic_form(B, t * c)
        assert scaled == pytest.approx(t**2 * base, rel=1e-12, abs=1e-12)


class TestPForm:
    def test_identity(self):
        assert p_form(mat([[1, 0], [0, 1]]), ConeVector([1, 1]), ConeVector([1, 1]), 4.0) == 2.0

    def test_limit_matrix_at_appendix_point(self):
        assert p_form(B_EPS_LIMIT, ConeVector([3, 2, 2]), ConeVector([1, 1, 1]), 4.0) == -1.0

    def test_single_support_cubic(self):
        assert p_form(mat([[1, 0], [0, 1]]), ConeVector([2, 0]), ConeVector([1, 1]), 4.0) == 8.0

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
        base = p_form(B, ConeVector(c), ConeVector(mu), p)
        scaled = p_form(B, ConeVector(t * c), ConeVector(mu), p)
        assert scaled == pytest.approx(t ** (p - 1) * base, rel=1e-10, abs=1e-12)

    @given(sym_matrices(), st.floats(min_value=0.0, max_value=2.0),
           st.floats(min_value=0.0, max_value=2.0))
    def test_linearity_in_weight(self, B, alpha, beta):
        rng = np.random.default_rng(17)
        c = rng.uniform(0.0, 2.0, B.n)
        mu = rng.uniform(0.1, 1.0, B.n)
        nu = rng.uniform(0.1, 1.0, B.n)
        mixed = p_form(B, ConeVector(c), ConeVector(alpha * mu + beta * nu), 4.0)
        parts = alpha * p_form(B, ConeVector(c), ConeVector(mu), 4.0)
        parts += beta * p_form(B, ConeVector(c), ConeVector(nu), 4.0)
        assert mixed == pytest.approx(parts, rel=1e-12, abs=1e-12)

    @given(sym_matrices())
    def test_diagonal_scaling_covariance(self, B):
        rng = np.random.default_rng(19)
        mu = rng.uniform(0.3, 1.5, B.n)
        d = rng.uniform(0.0, 2.0, B.n)
        scaled = SymMatrix(np.outer(mu**2, mu**2) * B.entries)
        lhs = p_form(scaled, ConeVector(d / mu), ConeVector(np.ones(B.n)), 4.0)
        rhs = p_form(B, ConeVector(d), ConeVector(mu), 4.0)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_batch_matches_scalar_path(self):
        rng = np.random.default_rng(29)
        B = mat([[1, -0.9, -0.9], [-0.9, 1, 1], [-0.9, 1, 1]])
        pts = rng.uniform(0.0, 1.0, (50, 3))
        # Exact zero components: pts[3] has one, pts[1] two, pts[6] three.
        pts[::3, 0] = 0.0
        pts[1::5, 1:] = 0.0
        mu = ConeVector([1.0, 0.8, 0.6])
        # p/2 - 1 takes every path of cone_power: half-integer (3), general
        # (3.5) and integer (4, 6).
        for p in (3.0, 3.5, 4.0, 6.0):
            batch = p_form_batch(B, pts, mu, p)
            for k in [*range(0, 50, 7), 1, 3, 6]:
                scalar = p_form(B, ConeVector(pts[k]), mu, p)
                assert batch[k] == pytest.approx(scalar, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("shape", [(3,), (4, 2), (2, 3, 3)])
    def test_batch_rejects_points_of_the_wrong_shape(self, shape):
        B = mat([[1, -0.9, -0.9], [-0.9, 1, 1], [-0.9, 1, 1]])
        with pytest.raises(DimensionError):
            p_form_batch(B, np.ones(shape), ConeVector([1.0, 1.0, 1.0]), 4.0)


class TestNegativePartRowSums:
    def test_mixed_signs(self):
        B = mat([[1, -0.4, -0.4], [-0.4, 1, 0.5], [-0.4, 0.5, 1]])
        assert negative_part_row_sums(B) == pytest.approx([-0.8, -0.4, -0.4])

    def test_identity_is_zero(self):
        assert negative_part_row_sums(mat(np.eye(4))) == pytest.approx([0, 0, 0, 0])

    def test_b_epsilon_rows(self):
        B = mat([[1, -0.9, -0.9], [-0.9, 1, 1], [-0.9, 1, 1]])
        assert negative_part_row_sums(B) == pytest.approx([-1.8, -0.9, -0.9])
