"""Copositivity classification: frozen examples, oracle cross-checks, invariants."""

import itertools
import sys

import numpy as np
import pytest

from coposolve import (
    CapacityError,
    Copositivity,
    Definiteness,
    Grid,
    ParameterError,
    ProblemParams,
    SymMatrix,
    Tolerance,
    TrivialOnly,
    boundary_positive,
    check_psd,
    classify_copositivity,
    classify_solvability,
    constant_solution,
    find_direction_d,
    mountain_pass_solve,
    quadratic_form,
    simplex_min_quadratic,
    strict_copositivity_closed_form,
)
from coposolve import copositivity, neumann
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

    def test_matches_definition_on_integer_matrices(self):
        # Strict copositivity of every proper principal submatrix, decided
        # exactly; planted negative pair faces make single-pair failures.
        rng = np.random.default_rng(71)
        failed_on_one_pair = passed = 0
        for _ in range(40):
            n = int(rng.integers(2, 7))
            A = rng.integers(-1, 4, (n, n))
            A = A + A.T
            np.fill_diagonal(A, rng.integers(1, 4, n))
            if rng.random() < 0.5:
                i, j = rng.choice(n, size=2, replace=False)
                A[i, j] = A[j, i] = -int(rng.integers(1, 4)) - int(np.sqrt(A[i, i] * A[j, j]))
            proper = [s for k in range(1, n) for s in itertools.combinations(range(n), k)]
            strict = [exact_simplex_min(A[np.ix_(s, s)]) > 0 for s in proper]
            assert boundary_positive(mat(A)) == all(strict)
            passed += all(strict)
            pairs = [ok for s, ok in zip(proper, strict) if len(s) == 2]
            failed_on_one_pair += n > 2 and pairs.count(False) == 1
        assert failed_on_one_pair >= 5 and passed >= 5


def count_sweeps(monkeypatch) -> list:
    """Record one entry per face sweep started through any coposolve module."""
    calls = []
    for name, module in list(sys.modules.items()):
        if name.startswith("coposolve.") and hasattr(module, "_face_sweep"):
            def counted(A, sweep=module._face_sweep, name=name):
                calls.append(name)
                return sweep(A)
            monkeypatch.setattr(module, "_face_sweep", counted)
    return calls


PLANTED_SUPPORT = (3, 5, 6, 8, 9)


def sweep_cases() -> list[np.ndarray]:
    """The exact-oracle families, random and duplicated-row matrices at
    n = 8-10, and a positive kernel planted on a late size-5 support at
    n = 10.  At n = 10 the 252 size-5 supports span two default batches, and
    a duplicated row ties every face holding one of the twin indices with
    its mirror face, whose witness tuple is smaller but comes later."""
    rng = np.random.default_rng(29)
    cases = [np.ones((2, 2)), np.ones((4, 4))]
    cases += [g @ g.T for g in (rng.normal(size=(n, 3)) for n in (5, 6, 7))]
    cases += [np.round(random_symmetric(rng, n).entries * 2) for n in (2, 4, 6)]
    for n in (3, 5, 8, 9, 10):
        for nonneg_diag in (True, False):
            a = random_symmetric(rng, n, nonneg_diag).entries.copy()
            cases.append(a.copy())
            a[1], a[:, 1] = a[0], a[:, 0]
            cases.append(a)
    v = rng.uniform(0.5, 1.5, 5)
    planted = 2.0 * np.eye(10) + 0.3
    planted[np.ix_(PLANTED_SUPPORT, PLANTED_SUPPORT)] = np.eye(5) - np.outer(v, v) / (v @ v)
    cases.append(planted)
    return cases


def sweep_reads(a: np.ndarray) -> tuple:
    B = SymMatrix(a)
    m = simplex_min_quadratic(B)
    cert = constant_solution(B, 4.0)
    constant = None if cert is None else (tuple(cert.u.components), cert.support, cert.residual_inf)
    return m.min_value, tuple(m.argmin.components), boundary_positive(B), constant


class TestFacePass:
    WITNESS = SymMatrix([[1, -2], [-2, 1]])

    def test_one_sweep_per_decision(self, monkeypatch):
        calls = count_sweeps(monkeypatch)
        monkeypatch.setattr(neumann, "theta_seeds", lambda *args: [])
        runs = {
            "Thm1.1": lambda: classify_solvability(self.WITNESS, ProblemParams(dim=3)),
            "Prop1.7": lambda: classify_solvability(SymMatrix(np.eye(3)), ProblemParams(dim=3)),
            "find_direction_d": lambda: find_direction_d(self.WITNESS, 4.0),
            "mountain_pass_solve": lambda: mountain_pass_solve(self.WITNESS, 4.0, Grid(1, 1.0, 17)),
        }
        sweeps, results = {}, {}
        for label, run in runs.items():
            calls.clear()
            results[label] = run()
            sweeps[label] = len(calls)
        assert sweeps == dict.fromkeys(runs, 1)
        assert results["Thm1.1"].reason == "Thm1.1"
        assert results["Prop1.7"].reason == "Prop1.7"
        assert isinstance(results["mountain_pass_solve"], TrivialOnly)

    def test_capacity_checked_before_sweeping(self, monkeypatch):
        calls = count_sweeps(monkeypatch)
        B = SymMatrix(np.eye(17))
        for run in (
            lambda: classify_solvability(B, ProblemParams(dim=3)),
            lambda: constant_solution(B, 4.0),
            lambda: boundary_positive(B),
            lambda: find_direction_d(B, 4.0),
            lambda: mountain_pass_solve(B, 4.0, Grid(1, 1.0, 17)),
        ):
            with pytest.raises(CapacityError):
                run()
        assert calls == []

    @pytest.mark.parametrize("batch", [1, 7])
    def test_batch_size_invariance(self, monkeypatch, batch):
        cases = sweep_cases()
        default = [sweep_reads(a) for a in cases]
        assert default[-1][3][1] == PLANTED_SUPPORT
        monkeypatch.setattr(copositivity, "SWEEP_BATCH", batch)
        for a, expected in zip(cases, default):
            assert sweep_reads(a) == expected
