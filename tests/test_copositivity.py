"""Copositivity classification: frozen examples, oracle cross-checks, invariants."""

import functools
import itertools
import json
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from coposolve import (
    CapacityError,
    Copositivity,
    Definiteness,
    Grid,
    ParameterError,
    ProblemParams,
    SymMatrix,
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
from coposolve.forms import ConeVector
from coposolve.mu_search import b_epsilon
from coposolve.reports import to_doc

from oracles import (
    dense_min_quadratic,
    exact_conditionally_psd,
    exact_face_point,
    exact_quadratic_form,
    exact_simplex_min,
    kernel_scan_constant_support,
)


def mat(rows):
    return SymMatrix(rows)


def random_symmetric(rng, n, nonneg_diag=True):
    raw = rng.uniform(-2.0, 2.0, (n, n))
    raw = (raw + raw.T) / 2.0
    if nonneg_diag:
        np.fill_diagonal(raw, np.abs(np.diag(raw)))
    return SymMatrix(raw)


ORACLE_FAMILIES = ["flat", "low_rank", "duplicated_rows", "integer", "random"]


def oracle_family(family: str) -> list[np.ndarray]:
    """The matrices of one family checked against the exact simplex minimum."""
    rng = np.random.default_rng(17)
    if family == "flat":
        return [np.ones((2, 2)), np.ones((4, 4))]
    if family == "low_rank":
        cases = [g @ g.T for g in (rng.normal(size=(n, 3)) for n in (5, 6, 7))]
        return cases + [g @ g.T for g in (rng.uniform(0.2, 1.0, size=(n, 3)) for n in (5, 6))]
    if family == "duplicated_rows":
        cases = []
        for n in (3, 4, 5, 6):
            a = random_symmetric(rng, n).entries.copy()
            a[1], a[:, 1] = a[0], a[:, 0]
            cases.append(a)
        return cases
    if family == "integer":
        return [np.round(random_symmetric(rng, n).entries * 2) for n in (2, 3, 4, 5, 6) for _ in range(3)]
    return [random_symmetric(rng, n, nonneg_diag=False).entries for n in (2, 3, 4, 5, 6, 7)]


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

    @pytest.mark.parametrize("family", ORACLE_FAMILIES)
    def test_matches_exact_oracle(self, family):
        for a in oracle_family(family):
            B = SymMatrix(a)
            m = simplex_min_quadratic(B)
            exact_min = exact_simplex_min(a)
            tol = 1e-10 * (1.0 + float(np.max(np.abs(a))))
            assert abs(m.min_value - float(exact_min)) <= tol
            assert quadratic_form(B, m.argmin) == m.min_value
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
            reproduced = quadratic_form(B, v.witness)
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

    def test_huge_entries_keep_their_class(self):
        # sqrt(a00 a11) and sqrt(a00 a11 a22) overflow above about 1e154.
        for rows in ([[1, -2], [-2, 1]], [[1, -0.6, -0.6], [-0.6, 1, -0.6], [-0.6, -0.6, 1]]):
            B = mat(np.array(rows) * 1e160)
            assert not strict_copositivity_closed_form(B).strict
            assert classify_copositivity(B).kind is Copositivity.NOT_COPOSITIVE

    def test_final_expression_scales_exactly(self):
        rows = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, -0.3], [0.2, -0.3, 2.0]])
        base = strict_copositivity_closed_form(mat(rows))
        assert base.strict
        for e in (-250, -1, 1, 260):
            scaled = strict_copositivity_closed_form(mat(np.ldexp(rows, 2 * e)))
            assert scaled.strict and scaled.final_expression == np.ldexp(base.final_expression, 3 * e)

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
            def counted(A, *args, sweep=module._face_sweep, name=name, **kwargs):
                calls.append(name)
                return sweep(A, *args, **kwargs)
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


@pytest.fixture
def pruned_sweep_at_every_n(monkeypatch):
    """scan_faces without p takes the minimum-only sweep at every n, not only from PRUNED_SWEEP_MIN_N on."""
    monkeypatch.setattr(copositivity, "PRUNED_SWEEP_MIN_N", 1)


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
    def test_batch_size_invariance(self, monkeypatch, pruned_sweep_at_every_n, batch):
        cases = sweep_cases()
        default = [sweep_reads(a) for a in cases]
        assert default[-1][3][1] == PLANTED_SUPPORT
        monkeypatch.setattr(copositivity, "SWEEP_BATCH", batch)
        for a, expected in zip(cases, default):
            assert sweep_reads(a) == expected

    def test_plain_fold_below_the_pruned_sweep_threshold(self, monkeypatch):
        # Without p, scan_faces takes the minimum-only sweep from
        # PRUNED_SWEEP_MIN_N on and the plain fold below; both give the same
        # minimum, bit for bit.
        threshold = copositivity.PRUNED_SWEEP_MIN_N
        flags, sweep = [], copositivity._face_sweep

        def recorded(A, minimum_only=False):
            flags.append(minimum_only)
            return sweep(A, minimum_only)

        monkeypatch.setattr(copositivity, "_face_sweep", recorded)
        rng = np.random.default_rng(61)
        for n in (1, 2, 3, threshold - 1, threshold):
            B = random_symmetric(rng, n)
            flags.clear()
            default = copositivity.scan_faces(B).minimum
            assert flags == [n >= threshold]
            for pruned_from in (1, 17):
                monkeypatch.setattr(copositivity, "PRUNED_SWEEP_MIN_N", pruned_from)
                other = copositivity.scan_faces(B).minimum
                assert np.float64(other.min_value).tobytes() == np.float64(default.min_value).tobytes()
                assert other.argmin.components.tobytes() == default.argmin.components.tobytes()
            monkeypatch.setattr(copositivity, "PRUNED_SWEEP_MIN_N", threshold)


class TestSupportRows:
    def test_rows_follow_combinations(self):
        for n in range(1, copositivity.MAX_ENUMERATION_N + 1):
            tables = copositivity._support_rows(n)
            assert len(tables) == max(n - 1, 0)
            for k, table in enumerate(tables, start=2):
                assert table.dtype == np.uint8 and not table.flags.writeable
                assert table.tolist() == [[*s, n] for s in itertools.combinations(range(n), k)]

    @pytest.mark.parametrize("n", range(2, 17))
    def test_masks_are_the_bits_of_the_rows(self, n):
        masks = copositivity._support_masks(n)
        assert len(masks) == n - 1
        for k, mask in enumerate(masks, start=2):
            assert mask.dtype == np.uint16 and not mask.flags.writeable
            assert mask.tolist() == [sum(1 << i for i in s) for s in itertools.combinations(range(n), k)]


def full_fold_scan(B: SymMatrix, p: float | None = None) -> copositivity.FaceScan:
    """scan_faces with every batch searched for a constant solution (given p)
    and folded by the lexsort, none skipped."""
    best = (np.inf, ())
    for idx, points, blocks in copositivity._face_sweep(B.entries):
        if p is not None and (cert := copositivity._batch_constant(B.entries, idx, points, blocks, p)):
            return copositivity.FaceScan(cert, None)
        if len(idx):
            values = np.einsum("mi,mij,mj->m", points, blocks, points)
            witnesses = np.zeros((len(idx), B.n))
            np.put_along_axis(witnesses, idx, points, axis=1)
            first = np.lexsort((*witnesses.T[::-1], values))[0]
            best = min(best, (float(values[first]), tuple(witnesses[first])))
    witness = np.maximum(best[1], 0.0)
    arg = ConeVector(witness / witness.sum())
    return copositivity.FaceScan(None, copositivity.SimplexMinimum(quadratic_form(B, arg), arg, False))


def full_fold_minimum(B: SymMatrix) -> copositivity.SimplexMinimum:
    """The minimum of scan_faces with every batch folded, none skipped."""
    return full_fold_scan(B).minimum


def exact_tie_cases() -> list[np.ndarray]:
    """Matrices whose faces tie exactly, n = 3-10: zero, identity and all-ones
    matrices, and integer ones with duplicated rows and columns."""
    rng = np.random.default_rng(43)
    cases = []
    for n in range(3, 11):
        cases += [np.zeros((n, n)), np.eye(n), np.ones((n, n))]
        a = rng.integers(-2, 3, size=(n, n)).astype(float)
        a = a + a.T
        np.fill_diagonal(a, np.abs(np.diag(a)))
        for twin in range(1, n // 2 + 1):
            a[twin], a[:, twin] = a[0], a[:, 0]
        cases.append(a)
    return cases


class TestFoldSkip:
    @pytest.mark.parametrize("batch", [1, 7, 128])
    def test_matches_the_full_fold(self, monkeypatch, batch):
        monkeypatch.setattr(copositivity, "SWEEP_BATCH", batch)
        for a in sweep_cases() + exact_tie_cases():
            B = SymMatrix(a)
            m, expected = simplex_min_quadratic(B), full_fold_minimum(B)
            assert np.float64(m.min_value).tobytes() == np.float64(expected.min_value).tobytes()
            assert m.argmin.components.tobytes() == expected.argmin.components.tobytes()

    def test_lexsort_only_on_ties(self, monkeypatch):
        # Every tie case sorts a batch, and a batch is sorted only when its
        # least value occurs more than once.
        least_counts, lexsort = [], np.lexsort

        def recorded(keys):
            least_counts.append(np.count_nonzero(keys[-1] == keys[-1].min()))
            return lexsort(keys)

        monkeypatch.setattr(np, "lexsort", recorded)
        for a in exact_tie_cases():
            least_counts.clear()
            simplex_min_quadratic(SymMatrix(a))
            assert least_counts and min(least_counts) > 1


@functools.cache
def planted_kernel_cases(e: int) -> tuple:
    """Positive kernels planted on random supports of matrices at n = 2-8, at 2^e.

    A singleton support gets a zero diagonal entry, a larger one the block
    G'G with G = R (I - w w'/w'w), whose kernel is the positive w.  Every
    third block, on a support of size 2 or 3 with one dominant entry of w,
    also gets t J added, with t = 0.95 CONSTANT_RESIDUAL_TOL max(x) and not
    scaled, so that x = w / sum(w) is a stationary point of value t whose
    batched residuals lie just below the tolerance."""
    rng = np.random.default_rng(53)
    cases = []
    for i in range(24):
        n = int(rng.integers(2, 9))
        a = rng.uniform(-1.0, 2.0, (n, n))
        a = (a + a.T) / 2
        np.fill_diagonal(a, rng.uniform(0.5, 2.0, n))
        near = i % 3 == 0
        k = int(rng.integers(2, 4)) if near else int(rng.integers(1, n + 1))
        support = np.sort(rng.choice(n, k, replace=False))
        shift = np.zeros((n, n))
        if k == 1:
            a[support[0], support[0]] = 0.0
        else:
            w = rng.uniform(0.01, 0.05, k) if near else rng.uniform(0.2, 1.0, k)
            w[rng.integers(k)] = 1.0
            g = rng.normal(size=(k, k)) @ (np.eye(k) - np.outer(w, w) / (w @ w))
            a[np.ix_(support, support)] = g.T @ g
            if near:
                shift[np.ix_(support, support)] = 0.95 * copositivity.CONSTANT_RESIDUAL_TOL * w.max() / w.sum()
        cases.append(np.ldexp(a, e) + shift)
    return tuple(cases)


def constant_band_cases(e: int) -> list[np.ndarray]:
    return list(planted_kernel_cases(e)) + [np.ldexp(a, e) for a in [A for A, _ in singular_face_fuzz()] + sweep_cases()]


class TestConstantBand:
    """scan_faces with p scans a batch for constant solutions only if a value lies within _constant_band."""

    @pytest.mark.parametrize("e", [-30, 0, 30])
    def test_every_candidate_lies_within_the_band(self, e):
        nearest = 0.0
        for a in constant_band_cases(e):
            scale = np.abs(a).max()
            for idx, points, blocks in copositivity._face_sweep(a):
                values = np.abs(np.einsum("mi,mij,mj->m", points, blocks, points))
                band = copositivity._constant_band(idx.shape[1], scale)
                for p in (3.0, 4.0, 6.0):
                    _, candidates = copositivity._constant_candidates(points, blocks, p)
                    assert np.all(values[candidates] <= band)
                    nearest = max(nearest, values[candidates].max(initial=0.0) / band)
        # Below 2^30 candidates that are not kernel vectors come within a
        # factor of 8 of the band; at 2^30 the residual's rounding admits
        # only kernel vectors, whose values are rounding.
        assert nearest > 1 / 8 if e <= 0 else nearest < 1e-3

    @pytest.mark.parametrize("e", [-30, 0, 30])
    def test_scan_is_the_full_scan(self, monkeypatch, e):
        calls, batch_constant = [], copositivity._batch_constant
        monkeypatch.setattr(copositivity, "_batch_constant", lambda *args: calls.append(args) or batch_constant(*args))
        scanned = full = 0
        for a in constant_band_cases(e):
            B = SymMatrix(a)
            for p in (3.0, 4.0):
                calls.clear()
                scan = copositivity.scan_faces(B, p)
                scanned += len(calls)
                calls.clear()
                expected = full_fold_scan(B, p)
                full += len(calls)
                assert json.dumps(to_doc(scan)) == json.dumps(to_doc(expected))
        assert scanned < full


def minimum_pass_supports(monkeypatch, A: np.ndarray) -> tuple[list, list]:
    """The supports of size >= 2 that the minimum-only pass tests, and those it solves."""
    tested, solved = [], []

    def test(reduced, table, inner=copositivity._conditionally_psd):
        tested.extend(tuple(row[:-1]) for row in table.tolist())
        return inner(reduced, table)

    def solve(K, rows, rhs, inner=copositivity._sweep_batch):
        solved.extend(tuple(row[:-1]) for row in rows.tolist())
        return inner(K, rows, rhs)

    with monkeypatch.context() as patch:
        patch.setattr(copositivity, "_conditionally_psd", test)
        patch.setattr(copositivity, "_sweep_batch", solve)
        copositivity.scan_faces(SymMatrix(A))
    return tested, solved


def generic_cases() -> list[np.ndarray]:
    """Random matrices at n = 4-7, and positive definite plus nonnegative
    ones at n = 6, 7: every face of those is convex, and most of the faces'
    minima lie on their boundaries.  No face is singular."""
    rng = np.random.default_rng(37)
    cases = [random_symmetric(rng, n).entries for n in (4, 5, 6, 7)]
    for n in (6, 7):
        g, nonnegative = rng.standard_normal((n, n)), np.abs(rng.standard_normal((n, n)))
        cases.append(g @ g.T / n + 0.2 * np.eye(n) + (nonnegative + nonnegative.T) / 4 * (1 - np.eye(n)))
    return cases


def convexity_cases() -> list[np.ndarray]:
    """Small matrices for the exact convexity oracle: random, a duplicated
    row, integer G G' of rank 2 and 3 (conditionally PSD faces with a zero
    eigenvalue), the singular-face fuzz and a flat matrix."""
    rng = np.random.default_rng(31)
    cases = [np.ones((5, 5))]
    for n in (4, 5, 6):
        a = random_symmetric(rng, n).entries.copy()
        cases.append(a.copy())
        a[1], a[:, 1] = a[0], a[:, 0]
        cases.append(a)
    cases += [(g @ g.T).astype(float) for g in (rng.integers(-2, 3, size=(n, r)) for n, r in ((6, 2), (7, 3)))]
    return cases + [A for A, _ in singular_face_fuzz()[:12]]


@pytest.mark.usefixtures("pruned_sweep_at_every_n")
class TestMinimumOnlySweep:
    """scan_faces without p solves only the faces whose form is convex (conditionally PSD)."""

    def test_minimum_is_the_full_pass_minimum(self):
        cases = sweep_cases() + [a for family in ORACLE_FAMILIES for a in oracle_family(family)]
        compared = 0
        for a in cases:
            B = SymMatrix(a)
            m, full = copositivity.scan_faces(B).minimum, copositivity.scan_faces(B, 4.0)
            expected = [full_fold_minimum(B)] + ([full.minimum] if full.constant is None else [])
            for other in expected:
                assert np.float64(m.min_value).tobytes() == np.float64(other.min_value).tobytes()
                assert m.argmin.components.tobytes() == other.argmin.components.tobytes()
            compared += full.constant is None
        assert compared >= 40

    def test_solved_supports_are_the_convex_ones_that_can_hold_their_minimum(self, monkeypatch):
        # Solved: every conditionally PSD face with a strictly positive
        # stationary point, and no face that is not conditionally PSD.
        # Tested: no face that contains one that failed the test.  On random
        # matrices the solved faces are exactly those with a point inside.
        generic = generic_cases()
        skipped = 0
        for A in convexity_cases() + generic:
            n = len(A)
            faces = [s for k in range(2, n + 1) for s in itertools.combinations(range(n), k)]
            psd = {s for s in faces if exact_conditionally_psd(A, s)}
            inside = {s for s in psd if exact_face_point(A, s) is not None}
            tested, solved = minimum_pass_supports(monkeypatch, A)
            assert inside <= set(solved) <= psd and set(solved) <= set(tested)
            assert solved == sorted(solved, key=lambda s: (len(s), s))
            failed = set(tested) - set(solved)
            assert not any(set(f) < set(s) for f in failed for s in tested)
            if any(A is a for a in generic):
                assert set(solved) == inside
                skipped += len(psd - inside)
        assert skipped >= 50

    def test_zero_eigenvalues_and_the_zero_matrix_keep_every_face(self, monkeypatch):
        n = 6
        every = [s for k in range(2, n + 1) for s in itertools.combinations(range(n), k)]
        for A in (np.zeros((n, n)), np.ones((n, n)), np.diag(np.arange(1.0, n + 1))):
            assert minimum_pass_supports(monkeypatch, A)[1] == every

    @pytest.mark.parametrize("e", [-30, 30])
    def test_supports_do_not_change_under_power_of_two_scaling(self, monkeypatch, e):
        # The convexity test is exact under the scaling, so a support tested
        # at both scales gets the same verdict.  The exits come from solved
        # points, and a singular face's solve can land inside at one scale
        # only; without singular faces the supports are the same.
        for A in convexity_cases() + sweep_cases():
            (tested, solved), (tested_2e, solved_2e) = (minimum_pass_supports(monkeypatch, a)
                                                        for a in (A, np.ldexp(A, e)))
            assert all((s in solved) == (s in solved_2e) for s in set(tested) & set(tested_2e))
        for A in generic_cases():
            assert minimum_pass_supports(monkeypatch, np.ldexp(A, e)) == minimum_pass_supports(monkeypatch, A)

    @pytest.mark.parametrize("kind", [Copositivity.NOT_COPOSITIVE, Copositivity.STRICTLY_COPOSITIVE])
    def test_solves_fewer_systems_than_the_full_pass(self, monkeypatch, kind):
        n, rng = 12, np.random.default_rng(12)
        g = rng.standard_normal((n, n))
        nonnegative = np.abs(rng.standard_normal((n, n)))
        A = g @ g.T / n + 0.2 * np.eye(n) + (nonnegative + nonnegative.T) / 4 * (1 - np.eye(n))
        if kind is Copositivity.NOT_COPOSITIVE:
            # Off-diagonal mass removed along an interior direction d, so d'Ad < 0.
            d = rng.uniform(0.5, 1.5, n)
            off = np.outer(d, d) - np.diag(d * d)
            A = A - 1.2 * (d @ A @ d) / (d @ off @ d) * off
        _, solved = minimum_pass_supports(monkeypatch, A)
        assert len(solved) < 2 ** n - 1 - n
        B = SymMatrix(A)
        m = simplex_min_quadratic(B)
        assert m.min_value == full_fold_minimum(B).min_value
        assert classify_copositivity(B).kind is kind

    def test_private_cholesky_writes_nan_for_blocks_that_fail(self):
        # The convexity test relies on this gufunc behaviour of numpy.linalg.
        stack = np.stack([np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros((2, 2))])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(stack)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"):
                factors = _umath_linalg.cholesky_lo(stack, signature="d->d")
        assert factors[0].tobytes() == np.linalg.cholesky(stack[0]).tobytes()
        assert np.isnan(factors[1:]).all()

    def test_constant_scan_still_solves_every_face(self, monkeypatch):
        # B = Q R Q with Q the projection along c > 0: c is a positive kernel
        # vector of the whole support, which is not conditionally PSD for
        # the cases kept, so only the full pass can return its certificate.
        rng = np.random.default_rng(1)
        kept = 0
        for n in (3, 4, 5):
            for _ in range(100):
                R = rng.standard_normal((n, n))
                c = rng.uniform(0.5, 1.5, n)
                Q = np.eye(n) - np.outer(c, c) / (c @ c)
                B = Q @ ((R + R.T) / 2) @ Q
                B = (B + B.T) / 2
                reference = kernel_scan_constant_support(B, 4.0)
                everything = tuple(range(n))
                if (np.any(np.diag(B) <= 0) or reference is None or reference[0] != everything
                        or exact_conditionally_psd(B, everything)):
                    continue
                kept += 1
                assert everything not in minimum_pass_supports(monkeypatch, B)[1]
                assert copositivity.scan_faces(SymMatrix(B), 4.0).constant.support == everything
        assert kept >= 5


class TestScaleInvariance:
    """The sweep has no threshold that depends on scale, so 2^e beta keeps every face."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_power_of_two_scaling(self, n):
        rng = np.random.default_rng(200 + n)
        for nonneg_diag in (True, False):
            A = random_symmetric(rng, n, nonneg_diag).entries
            faces = [idx.tolist() for idx, _, _ in copositivity._face_sweep(A)]
            base = simplex_min_quadratic(SymMatrix(A))
            for e in range(-60, 61, 5):
                scaled = np.ldexp(A, e)
                assert [idx.tolist() for idx, _, _ in copositivity._face_sweep(scaled)] == faces
                m = simplex_min_quadratic(SymMatrix(scaled))
                assert np.ldexp(m.min_value, -e) == pytest.approx(base.min_value, rel=1e-12, abs=0)
                assert m.argmin.components == pytest.approx(base.argmin.components, rel=0, abs=1e-12)

    def test_huge_entry_elsewhere_keeps_the_minimum_face(self):
        # A threshold read at one scale for the whole matrix would let the
        # huge entry decide whether face {0, 1}, with the minimum, is kept.
        B = np.diag([1.0, 1.0, 1e14, 1.0])
        B[0, 1] = B[1, 0] = -2.0
        for e in (-40, 0, 40):
            m = simplex_min_quadratic(SymMatrix(np.ldexp(B, e)))
            assert np.ldexp(m.min_value, -e) == pytest.approx(-0.5, rel=1e-12)
            assert m.argmin.components == pytest.approx([0.5, 0.5, 0.0, 0.0], abs=1e-12)
        assert classify_copositivity(SymMatrix(B)).kind is Copositivity.NOT_COPOSITIVE


def bordered_systems(A: np.ndarray, supports) -> tuple:
    """The sweep's halved bordered systems [[A_S, -1/2], [1/2, 0]] c = (0, 1/2)."""
    idx = np.array(supports)
    k = idx.shape[1]
    blocks = A[idx[:, :, None], idx[:, None, :]]
    kkt = np.zeros((len(idx), k + 1, k + 1))
    kkt[:, :k, :k] = blocks
    kkt[:, :k, k] = -0.5
    kkt[:, k, :k] = 0.5
    rhs = np.zeros((k + 1, 1))
    rhs[k] = 0.5
    return idx, blocks, kkt, rhs


def solve_every_face_sweep(A: np.ndarray):
    """The face sweep with one np.linalg.solve per face, dropping those that raise."""
    n = A.shape[0]
    yield np.arange(n)[:, None], np.ones((n, 1)), np.diag(A)[:, None, None]
    for k in range(2, n + 1):
        supports = itertools.combinations(range(n), k)
        while batch := list(itertools.islice(supports, copositivity.SWEEP_BATCH)):
            idx, blocks, kkt, rhs = bordered_systems(A, batch)
            solved, points = [], []
            for i, system in enumerate(kkt):
                try:
                    points.append(np.linalg.solve(system, rhs)[:k, 0])
                except np.linalg.LinAlgError:
                    continue
                solved.append(i)
            idx, blocks, c = idx[solved], blocks[solved], np.array(points).reshape(-1, k)
            interior = np.all(c > 0, axis=1)
            yield idx[interior], c[interior], blocks[interior]


def exactly_singular_faces(A: np.ndarray) -> int:
    """Faces whose bordered system makes np.linalg.solve raise."""
    count = 0
    for k in range(2, len(A) + 1):
        _, _, kkt, rhs = bordered_systems(A, list(itertools.combinations(range(len(A)), k)))
        for system in kkt:
            try:
                np.linalg.solve(system, rhs)
            except np.linalg.LinAlgError:
                count += 1
    return count


def singular_face_cases() -> dict:
    g = np.array([[1, 0], [2, -1], [0, 3], [-1, 1], [3, 2], [1, -2]])
    return {
        "ones": np.ones((5, 5)),
        "b_epsilon": b_epsilon(0.1).entries,
        "rank2_integer": (g @ g.T).astype(float),
    }


class TestSolveFirstSweep:
    """The sweep keeps every face whose solved point is strictly positive."""

    @staticmethod
    def assert_same_sweep(A: np.ndarray) -> None:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            swept = list(copositivity._face_sweep(A))
        reference = list(solve_every_face_sweep(A))
        assert len(swept) == len(reference)
        for (idx, points, blocks), (ref_idx, ref_points, ref_blocks) in zip(swept, reference):
            assert idx.tolist() == ref_idx.tolist()
            assert points.shape == ref_points.shape and points.tobytes() == ref_points.tobytes()
            assert blocks.shape == ref_blocks.shape and blocks.tobytes() == ref_blocks.tobytes()

    @pytest.mark.parametrize("n", range(2, 10))
    def test_matches_every_face_sweep_on_random_matrices(self, n):
        rng = np.random.default_rng(100 + n)
        for nonneg_diag in (True, False):
            for _ in range(3):
                self.assert_same_sweep(random_symmetric(rng, n, nonneg_diag).entries)

    @pytest.mark.parametrize("case", ["ones", "b_epsilon", "rank2_integer"])
    def test_matches_every_face_sweep_on_exactly_singular_faces(self, case):
        A = singular_face_cases()[case]
        assert exactly_singular_faces(A) > 0
        self.assert_same_sweep(A)

    def test_nearly_singular_interior_face_is_kept(self):
        a = 1.0 + 1e-14
        A = np.array([[1.0, a], [a, 1.0]])
        _, _, kkt, rhs = bordered_systems(A, [(0, 1)])
        c = np.linalg.solve(kkt, rhs)[0, :2, 0]
        assert c == pytest.approx([0.5, 0.5]) and np.all(c > 0)
        assert np.linalg.cond(kkt[0], 1) > 1e13
        vertices, edge = list(copositivity._face_sweep(A))
        assert len(vertices[0]) == 2
        assert edge[0].tolist() == [[0, 1]] and edge[1].tobytes() == c.tobytes()
        m = simplex_min_quadratic(SymMatrix(A))
        assert m.min_value == 1.0 and m.argmin.components.tolist() == [0.0, 1.0]

    def test_private_solve_writes_nan_rows_for_singular_systems(self):
        # The sweep relies on this gufunc behaviour of numpy.linalg.
        regular = np.array([[2.0, 1.0], [1.0, 3.0]])
        stack = np.stack([regular, np.ones((2, 2)), np.zeros((2, 2))])
        rhs = np.array([[1.0], [2.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(stack, rhs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"):
                x = _umath_linalg.solve(stack, rhs, signature="dd->d")
        assert x.shape == (3, 2, 1)
        assert x[0].tobytes() == np.linalg.solve(regular, rhs).tobytes()
        assert np.isnan(x[1:]).all()


@functools.cache
def singular_face_fuzz() -> tuple:
    """Integer G1 G1' - G2 G2' with |diag|, n = 3-6, with their exact simplex minima.

    G1 has 1-3 columns and G2 0-2, so 24 of the 40 matrices have faces whose
    bordered system is singular in exact arithmetic, and the interior points
    of such faces reach the fold."""
    rng = np.random.default_rng(2)
    cases = []
    for _ in range(40):
        n = int(rng.integers(3, 7))
        g1 = rng.integers(-2, 3, size=(n, int(rng.integers(1, 4))))
        g2 = rng.integers(-2, 3, size=(n, int(rng.integers(0, 3))))
        A = (g1 @ g1.T - g2 @ g2.T).astype(float)
        np.fill_diagonal(A, np.abs(np.diag(A)))
        cases.append((A, exact_simplex_min(A)))
    return tuple(cases)


# DEAD_BAND and CONSTANT_RESIDUAL_TOL are absolute (ROADMAP item 10): at 2^30
# the rounding of a zero minimum leaves the dead band, and at 2^-30 a
# stationary point that is not a kernel vector passes the residual bound.
ABSOLUTE_THRESHOLDS = pytest.mark.xfail(
    strict=True, reason="absolute DEAD_BAND and CONSTANT_RESIDUAL_TOL")


class TestSingularFacesAgainstExactOracles:
    """Matrices with exactly singular faces against the exact and kernel-scan oracles."""

    @pytest.mark.parametrize("e", [0, -30, 30])
    def test_minimum_is_the_exact_one_to_rounding(self, e):
        for A, exact in singular_face_fuzz():
            scaled = np.ldexp(A, e)
            m = simplex_min_quadratic(SymMatrix(scaled))
            error = abs(Fraction(m.min_value) - exact * Fraction(2.0 ** e))
            assert error <= Fraction(1e-15) * Fraction(np.abs(scaled).max())

    @pytest.mark.parametrize("e", [0, 30, pytest.param(-30, marks=ABSOLUTE_THRESHOLDS)])
    def test_constant_support_is_the_kernel_scan_one(self, e):
        for A, _ in singular_face_fuzz():
            scaled = np.ldexp(A, e)
            constant = copositivity.scan_faces(SymMatrix(scaled), 4.0).constant
            reference = kernel_scan_constant_support(scaled, 4.0)
            assert (constant.support if constant else None) == (reference[0] if reference else None)

    @pytest.mark.parametrize("e", [0, -30, pytest.param(30, marks=ABSOLUTE_THRESHOLDS)])
    def test_kind_is_the_exact_sign_read_with_the_dead_band(self, e):
        band = Fraction(copositivity.DEAD_BAND)
        for A, exact in singular_face_fuzz():
            value = exact * Fraction(2.0 ** e)
            expected = (Copositivity.NOT_COPOSITIVE if value < -band
                        else Copositivity.STRICTLY_COPOSITIVE if value > band
                        else Copositivity.COPOSITIVE_NOT_STRICT)
            assert classify_copositivity(SymMatrix(np.ldexp(A, e))).kind is expected
