"""Solvability decision tree: constant solutions, route order, completeness."""

import numpy as np
import pytest
from scipy.linalg import block_diag

from coposolve import (
    Copositivity,
    MuCertificate,
    MuSearchFailure,
    ParameterError,
    PreconditionError,
    ProblemParams,
    SolvabilityKind,
    SymMatrix,
    b_epsilon,
    classify_copositivity,
    classify_solvability,
    constant_solution,
)

from oracles import kernel_scan_constant_support, mirror_residual


def mat(rows):
    return SymMatrix(rows)


# A 2x2 whose simplex minimum (9.3e-10) lies in the dead band, while the
# closed form reads it as not strictly copositive: CopositiveNotStrict, with
# a positive diagonal.
BOUNDARY_2X2 = [[26667962.233527064, -30140383.217575062], [-30140383.217575062, 34064946.2657549]]


class TestProblemParams:
    def test_accepts_standard_cases(self):
        ProblemParams(1, 4.0)
        ProblemParams(2, 17.0)
        ProblemParams(3, 4.0)
        ProblemParams(3, 5.999)

    def test_rejects_small_p(self):
        with pytest.raises(ParameterError):
            ProblemParams(2, 2.0)

    def test_rejects_supercritical(self):
        with pytest.raises(ParameterError):
            ProblemParams(3, 6.0)
        with pytest.raises(ParameterError):
            ProblemParams(4, 4.0)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ParameterError):
            ProblemParams(0, 4.0)

    @pytest.mark.parametrize("dim", [np.nan, np.inf, -np.inf, 2.5])
    def test_non_integer_dimension_is_a_parameter_error(self, dim):
        with pytest.raises(ParameterError):
            ProblemParams(dim, 4.0)

    def test_integral_dimension_is_read_as_int(self):
        params = ProblemParams(3.0, 4.0)
        assert params == ProblemParams(3, 4.0) and type(params.dim) is int


class TestConstantSolution:
    def test_kernel_pair(self):
        cert = constant_solution(mat([[1, -1], [-1, 1]]), 4.0)
        assert cert is not None
        assert cert.u.components == pytest.approx([1.0, 1.0])
        assert cert.residual_inf == 0.0

    def test_zero_diagonal_coordinate_vector(self):
        cert = constant_solution(mat([[0, 5], [5, 1]]), 4.0)
        assert cert is not None
        assert cert.u.components == pytest.approx([1.0, 0.0])
        assert cert.support == (0,)

    def test_identity_has_none(self):
        assert constant_solution(mat(np.eye(2)), 4.0) is None

    def test_limit_matrix_kernel(self):
        cert = constant_solution(mat([[1, -1, -1], [-1, 1, 1], [-1, 1, 1]]), 4.0)
        assert cert is not None
        assert cert.residual_inf < 1e-10

    def test_general_p_scaling(self):
        cert = constant_solution(mat([[2, -2], [-2, 2]]), 3.0)
        assert cert is not None
        # kernel direction (1,1): u_i = c_i^(2/p) stays equal across components
        assert cert.u.components[0] == pytest.approx(cert.u.components[1])


def _kernel_block(rng, k, kernel):
    """Random k x k PSD block whose kernel contains the given vectors."""
    basis = np.linalg.qr(np.column_stack(kernel))[0]
    Q = rng.normal(size=(k, k - len(kernel)))
    Q -= basis @ (basis.T @ Q)
    return Q @ Q.T


def _planted_nested(rng):
    # Positive kernel vectors on S1 and on S2 > S1: A_S2 has a kernel of
    # dimension 2, whose positive vectors reach sub-faces of S2.
    n = int(rng.integers(3, 7))
    s2 = np.sort(rng.choice(n, size=int(rng.integers(3, n + 1)), replace=False))
    s1 = np.sort(rng.choice(s2, size=int(rng.integers(2, len(s2))), replace=False))
    A = rng.uniform(-1.0, 2.0, (n, n))
    A = (A + A.T) / 2.0
    v1 = np.where(np.isin(s2, s1), rng.uniform(0.2, 1.0, len(s2)), 0.0)
    kernel = [v1, rng.uniform(0.2, 1.0, len(s2))] if rng.random() < 0.7 else [v1]
    A[np.ix_(s2, s2)] = _kernel_block(rng, len(s2), kernel)
    return A


def _integer_zero_blocks(rng):
    # Integer blocks on the diagonal, zero between them: Laplacian-like
    # blocks with kernel (1, ..., 1) make kernels of dimension >= 2.
    blocks = []
    while sum(len(b) for b in blocks) < 4:
        k = int(rng.integers(1, 4))
        if rng.random() < 0.5:
            a = int(rng.integers(1, 4))
            b = a * (k * np.eye(k) - np.ones((k, k)))
        else:
            b = rng.integers(-2, 4, (k, k))
            b = b + b.T
        blocks.append(b)
    A = block_diag(*blocks).astype(float)
    perm = rng.permutation(len(A))
    return A[np.ix_(perm, perm)]


def _duplicated_rows(rng):
    # A = D M D' repeats variables of M, so rows and columns of A repeat.
    m = int(rng.integers(2, 5))
    if rng.random() < 0.5:
        M = _kernel_block(rng, m, [rng.uniform(0.2, 1.0, m)])
    else:
        M = rng.integers(-3, 4, (m, m)).astype(float)
        M = M + M.T
    D = np.eye(m)[np.concatenate([np.arange(m), rng.integers(0, m, int(rng.integers(1, 3)))])]
    return D @ M @ D.T


def _zero_diagonal(rng):
    n = int(rng.integers(2, 6))
    A = rng.integers(-3, 4, (n, n)).astype(float)
    A = A + A.T
    np.fill_diagonal(A, np.abs(np.diag(A)))
    A[np.diag_indices(n)] *= rng.random(n) < 0.7
    return A


CONSTANT_FAMILIES = (_planted_nested, _integer_zero_blocks, _duplicated_rows, _zero_diagonal)


class TestConstantSolutionAgainstKernelScan:
    @pytest.mark.parametrize("family", CONSTANT_FAMILIES, ids=lambda f: f.__name__.strip("_"))
    @pytest.mark.parametrize("p", [3.0, 4.0, 5.0])
    def test_same_support_as_kernel_scan(self, family, p):
        rng = np.random.default_rng([67, CONSTANT_FAMILIES.index(family), int(p)])
        found = 0
        for _ in range(40):
            A = family(rng)
            cert = constant_solution(mat(A), p)
            reference = kernel_scan_constant_support(A, p)
            assert (cert is None) == (reference is None)
            if cert is None:
                continue
            found += 1
            assert cert.support == reference[0]
            u = cert.u.components
            assert tuple(np.nonzero(u)[0]) == cert.support
            # A constant field has no Laplacian: what is left is the equation.
            assert np.max(np.abs(mirror_residual(A, u, p, 1.0))) < 1e-10
        assert found >= 10


class TestClassifySolvability:
    def test_two_component_identity_in_three_dims(self):
        v = classify_solvability(mat(np.eye(2)), ProblemParams(3, 4.0))
        assert v.kind is SolvabilityKind.NO_NONTRIVIAL
        assert v.reason == "Cor1.3"
        assert isinstance(v.certificate, MuCertificate)

    def test_boundary_pair_has_constant_solution(self):
        v = classify_solvability(mat([[1, -1], [-1, 1]]), ProblemParams(3, 4.0))
        assert v.kind is SolvabilityKind.EXISTS
        assert v.reason == "ConstantSolution"
        assert v.certificate.u.components == pytest.approx([1.0, 1.0])

    def test_zero_diagonal_reason(self):
        v = classify_solvability(mat([[0, 5], [5, 1]]), ProblemParams(3, 4.0))
        assert v.kind is SolvabilityKind.EXISTS
        assert v.reason == "ZeroDiagonal"

    def test_not_strictly_copositive_exists(self):
        v = classify_solvability(mat([[1, -2], [-2, 1]]), ProblemParams(1, 4.0))
        assert v.kind is SolvabilityKind.EXISTS
        assert v.reason == "Thm1.1"

    def test_low_dimension_route(self):
        v = classify_solvability(b_epsilon(0.1), ProblemParams(2, 4.0))
        assert v.kind is SolvabilityKind.NO_NONTRIVIAL
        assert v.reason == "Thm1.6"

    def test_row_dominance_route(self):
        B = mat([[1, -0.4, -0.4], [-0.4, 1, 0.5], [-0.4, 0.5, 1]])
        v = classify_solvability(B, ProblemParams(3, 4.0))
        assert v.kind is SolvabilityKind.NO_NONTRIVIAL
        assert v.reason == "Prop1.7"
        assert v.certificate.kappa0 == pytest.approx(0.2)

    def test_weight_search_route_when_certifiable(self):
        # b_epsilon(0.1) is strictly copositive AND carries a verified weight
        # (dense-grid LP oracle margin ~ +1.5e-2), so the weight route fires.
        v = classify_solvability(b_epsilon(0.1), ProblemParams(3, 4.0))
        assert v.kind is SolvabilityKind.NO_NONTRIVIAL
        assert v.reason == "Prop1.2"
        assert isinstance(v.certificate, MuCertificate)

    def test_open_gap_below_weight_threshold(self):
        v = classify_solvability(b_epsilon(0.004), ProblemParams(3, 4.0))
        assert v.kind is SolvabilityKind.UNKNOWN
        assert v.reason == "OpenGap"
        assert v.note
        assert v.audit is not None

    def test_boundary_pair_without_a_verified_weight_is_the_open_gap(self):
        # The face pass reads this input as strictly copositive in the dead
        # band; the n = 2 weight does not verify, and nothing re-checks the
        # closed form, so the tree ends in the open gap instead of raising.
        v = classify_solvability(mat(BOUNDARY_2X2), ProblemParams(3, 4.0))
        assert v.kind is SolvabilityKind.UNKNOWN
        assert v.reason == "OpenGap"
        assert v.boundary_case
        assert isinstance(v.audit, MuSearchFailure)

    def test_general_p_reason_tags(self):
        v = classify_solvability(mat(np.eye(2)), ProblemParams(3, 3.0))
        assert v.reason == "Cor4.5"
        v = classify_solvability(b_epsilon(0.1), ProblemParams(2, 3.5))
        assert v.reason == "Thm4.6"
        v = classify_solvability(mat([[1, -2], [-2, 1]]), ProblemParams(1, 6.0))
        assert v.reason == "Thm4.1"
        v = classify_solvability(mat(np.eye(3)), ProblemParams(2, 5.0))
        assert v.reason == "Prop4.7"
        v = classify_solvability(b_epsilon(0.1), ProblemParams(3, 3.0))
        assert v.reason == "Prop4.3"

    def test_weighted_range_gate(self):
        # dim 4 allows p in (2, 8/3); the weighted routes stop at 2*(4)-2/2 = 3,
        # so p = 2.5 is inside both and must classify via weights for n >= 3.
        v = classify_solvability(mat(np.eye(3)), ProblemParams(4, 2.5))
        assert v.kind is SolvabilityKind.NO_NONTRIVIAL
        assert v.reason == "Prop4.7"

    def test_rejects_negative_diagonal(self):
        with pytest.raises(PreconditionError):
            classify_solvability(mat([[-1, 0], [0, 1]]), ProblemParams(3, 4.0))

    @pytest.mark.parametrize("max_iterations", [0, -3])
    def test_rejects_budget_below_one(self, max_iterations):
        # Rejected on entry, although this input stops at Thm1.1, before the weight search.
        with pytest.raises(ParameterError, match="budget must be at least 1"):
            classify_solvability(mat([[1, -2], [-2, 1]]), ProblemParams(3), max_iterations)

    def test_monotonicity_of_low_dimension_route(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            raw = rng.uniform(-1.5, 1.5, (3, 3))
            raw = (raw + raw.T) / 2.0
            np.fill_diagonal(raw, np.abs(np.diag(raw)) + 0.1)
            B = mat(raw)
            if classify_copositivity(B).kind is not Copositivity.STRICTLY_COPOSITIVE:
                continue
            v = classify_solvability(B, ProblemParams(2, 4.0))
            assert v.kind is SolvabilityKind.NO_NONTRIVIAL
            bumped = raw.copy()
            bumped[0, 1] += 0.7
            bumped[1, 0] += 0.7
            v2 = classify_solvability(mat(bumped), ProblemParams(2, 4.0))
            assert v2.kind is SolvabilityKind.NO_NONTRIVIAL

    def test_two_component_never_unknown(self):
        rng = np.random.default_rng(59)
        budget = 10
        for _ in range(60):
            raw = rng.uniform(-2.0, 2.0, (2, 2))
            raw = (raw + raw.T) / 2.0
            np.fill_diagonal(raw, np.abs(np.diag(raw)))
            for dim in (1, 2, 3):
                v = classify_solvability(mat(raw), ProblemParams(dim, 4.0), budget)
                assert v.kind is not SolvabilityKind.UNKNOWN

    def test_low_dimension_never_unknown(self):
        rng = np.random.default_rng(61)
        budget = 10
        for _ in range(40):
            n = int(rng.integers(2, 7))
            raw = rng.uniform(-2.0, 2.0, (n, n))
            raw = (raw + raw.T) / 2.0
            np.fill_diagonal(raw, np.abs(np.diag(raw)))
            for dim in (1, 2):
                for p in (2.5, 3.0, 4.0):
                    v = classify_solvability(mat(raw), ProblemParams(dim, p), budget)
                    assert v.kind is not SolvabilityKind.UNKNOWN
