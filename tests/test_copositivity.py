"""Copositivity classification: frozen examples, oracle cross-checks, invariants."""

import itertools

import numpy as np
import pytest

from coposolve import (
    CapacityError,
    Copositivity,
    Definiteness,
    ParameterError,
    SymMatrix,
    Tolerance,
    boundary_positive,
    check_psd,
    classify_copositivity,
    quadratic_form,
    simplex_min_quadratic,
    strict_copositivity_closed_form,
)
from coposolve.mu_search import b_epsilon

from oracles import dense_min_quadratic, exact_quadratic_form, exact_simplex_min


def mat(rows):
    return SymMatrix(rows)


def random_symmetric(rng, n, nonneg_diag=True):
    raw = rng.uniform(-2.0, 2.0, (n, n))
    raw = (raw + raw.T) / 2.0
    if nonneg_diag:
        np.fill_diagonal(raw, np.abs(np.diag(raw)))
    return SymMatrix(raw)


class TestSimplexMinimum:
    def test_identity_two(self):
        m = simplex_min_quadratic(mat([[1, 0], [0, 1]]))
        assert m.min_value == pytest.approx(0.5, abs=1e-14)
        assert m.argmin.components == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_strongly_negative_coupling(self):
        m = simplex_min_quadratic(mat([[1, -2], [-2, 1]]))
        assert m.min_value == pytest.approx(-0.5, abs=1e-14)
        assert m.argmin.components == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_boundary_matrix(self):
        m = simplex_min_quadratic(mat([[1, -1], [-1, 1]]))
        assert m.min_value == pytest.approx(0.0, abs=1e-14)
        assert m.argmin.components == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_flat_face_exact_minimum(self):
        # The edge's stationarity system is singular (b is 1 on the whole
        # simplex); it is skipped and the minimum is read from the vertices,
        # the tie going to the smaller witness tuple.
        m = simplex_min_quadratic(mat([[1, 1], [1, 1]]))
        assert m.min_value == 1.0
        assert tuple(m.argmin.components) == (0.0, 1.0)
        assert not m.grid_assisted

    @pytest.mark.parametrize("family", ["flat", "low_rank", "duplicated_rows", "integer", "random"])
    def test_matches_exact_oracle(self, family):
        rng = np.random.default_rng(17)
        if family == "flat":
            cases = [np.ones((2, 2)), np.ones((4, 4))]
        elif family == "low_rank":
            cases = [g @ g.T for g in (rng.normal(size=(n, 3)) for n in (5, 6, 7))]
            cases += [g @ g.T for g in (rng.uniform(0.2, 1.0, size=(n, 3)) for n in (5, 6))]
        elif family == "duplicated_rows":
            cases = []
            for n in (3, 4, 5, 6):
                a = random_symmetric(rng, n).entries.copy()
                a[1], a[:, 1] = a[0], a[:, 0]
                cases.append(a)
        elif family == "integer":
            cases = [np.round(random_symmetric(rng, n).entries * 2) for n in (2, 3, 4, 5, 6) for _ in range(3)]
        else:
            cases = [random_symmetric(rng, n, nonneg_diag=False).entries for n in (2, 3, 4, 5, 6, 7)]
        for a in cases:
            B = SymMatrix(a)
            m = simplex_min_quadratic(B)
            exact_min = exact_simplex_min(a)
            tol = 1e-10 * (1.0 + float(np.max(np.abs(a))))
            assert abs(m.min_value - float(exact_min)) <= tol
            assert quadratic_form(B, m.argmin).value == m.min_value
            assert abs(float(exact_quadratic_form(a, m.argmin.components)) - m.min_value) <= tol

    def test_capacity_limit(self):
        with pytest.raises(CapacityError):
            simplex_min_quadratic(mat(np.eye(17)))

    def test_matches_dense_grid_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            B = random_symmetric(rng, 3)
            m = simplex_min_quadratic(B)
            grid_min, _ = dense_min_quadratic(B.entries, resolution=96)
            scale = 1.0 + float(np.max(np.abs(B.entries)))
            assert grid_min >= m.min_value - 1e-10
            assert grid_min - m.min_value <= 0.05 * scale


class TestClassify:
    def test_boundary_case_flagged(self):
        v = classify_copositivity(mat([[1, -1], [-1, 1]]))
        assert v.kind is Copositivity.COPOSITIVE_NOT_STRICT
        assert v.boundary_case
        assert v.witness.components == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_b_epsilon_strict(self):
        v = classify_copositivity(b_epsilon(0.1))
        assert v.kind is Copositivity.STRICTLY_COPOSITIVE

    def test_not_copositive_with_witness(self):
        v = classify_copositivity(mat([[1, -2], [-2, 1]]))
        assert v.kind is Copositivity.NOT_COPOSITIVE
        assert v.min_value == pytest.approx(-0.5, abs=1e-12)
        assert v.witness.components == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_witness_reproduces_minimum(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            B = random_symmetric(rng, 3)
            v = classify_copositivity(B)
            reproduced = quadratic_form(B, v.witness).value
            assert abs(reproduced - v.min_value) < 1e-10
            assert abs(v.witness.components.sum() - 1.0) < 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            B = random_symmetric(rng, 3)
            base = classify_copositivity(B)
            for perm in itertools.permutations(range(3)):
                P = np.eye(3)[list(perm)]
                permuted = classify_copositivity(SymMatrix(P.T @ B.entries @ P))
                assert permuted.kind is base.kind
                assert abs(permuted.min_value - base.min_value) < 1e-10

    def test_tolerance_validation(self):
        with pytest.raises(ParameterError):
            Tolerance(0.0)
        with pytest.raises(ParameterError):
            Tolerance(1e-2)


class TestClosedForm:
    def test_boundary_pair_not_strict(self):
        assert not strict_copositivity_closed_form(mat([[1, -1], [-1, 1]])).strict

    def test_b_epsilon_final_expression(self):
        result = strict_copositivity_closed_form(b_epsilon(0.25))
        assert result.strict
        assert result.final_expression == pytest.approx(1.0, abs=1e-12)

    def test_identity_two(self):
        assert strict_copositivity_closed_form(mat([[1, 0], [0, 1]])).strict

    def test_negative_diagonal_short_circuits(self):
        result = strict_copositivity_closed_form(mat([[-1, 0], [0, 1]]))
        assert not result.strict
        assert result.final_expression is None

    def test_capacity(self):
        with pytest.raises(CapacityError):
            strict_copositivity_closed_form(mat(np.eye(4)))

    def test_agrees_with_oracle_outside_dead_band(self):
        rng = np.random.default_rng(7)
        for n in (2, 3):
            for _ in range(300):
                B = random_symmetric(rng, n)
                m = simplex_min_quadratic(B)
                if abs(m.min_value) <= 1e-9:
                    continue
                assert strict_copositivity_closed_form(B).strict == (m.min_value > 0)


class TestPsd:
    def test_examples(self):
        assert check_psd(mat(np.eye(2))) is Definiteness.POSITIVE_DEFINITE
        assert check_psd(mat([[1, -1], [-1, 1]])) is Definiteness.POSITIVE_SEMIDEFINITE
        assert check_psd(mat([[1, -2], [-2, 1]])) is Definiteness.INDEFINITE

    def test_definite_implies_strictly_copositive(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            G = rng.normal(size=(3, 3))
            B = SymMatrix(G @ G.T + 0.05 * np.eye(3))
            if check_psd(B) is Definiteness.POSITIVE_DEFINITE:
                assert (
                    classify_copositivity(B).kind is Copositivity.STRICTLY_COPOSITIVE
                )

    def test_psd_plus_nonnegative_never_not_copositive(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            G = rng.normal(size=(3, 2))
            P = G @ G.T
            N = rng.uniform(0.0, 1.5, (3, 3))
            N = (N + N.T) / 2.0
            verdict = classify_copositivity(SymMatrix(P + N))
            assert verdict.kind is not Copositivity.NOT_COPOSITIVE


class TestBoundaryPositive:
    def test_limit_matrix_fails_on_pair_face(self):
        assert not boundary_positive(mat([[1, -1, -1], [-1, 1, 1], [-1, 1, 1]]))

    def test_b_epsilon_passes(self):
        assert boundary_positive(b_epsilon(0.1))

    def test_identity(self):
        assert boundary_positive(mat(np.eye(3)))

    def test_needs_two_components(self):
        with pytest.raises(ParameterError):
            boundary_positive(mat([[1.0]]))
