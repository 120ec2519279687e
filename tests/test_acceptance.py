"""Acceptance suite: one test per criterion, printing a pass/fail line each.

The b_epsilon family (p = 4) crosses its weight-existence threshold inside
the proven bracket (0.007, 0.008), for the float matrices b_epsilon returns:

- at eps = 0.1, 0.01 and 0.008 the weight find_mu certifies is proven
  positive on the whole simplex by exact Bernstein subdivision
  (oracles.exact_cubic_weight_positive, 15, 61 and 76 cells);
- at eps = 0.007, 0.006, 0.005 and 0.004 the adversarial set of the
  MuSearchFailure carries a Farkas vector checked exactly
  (oracles.exact_weight_obstruction; every component of the combination is
  about -1.3e-6 at 0.007 and -1.1e-4 at 0.004), so no positive weight exists.

The criterion 2 find_mu cases and the criterion 5 gap case rest on these
exact proofs, and negative controls show each checker rejecting a false claim.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from coposolve import (
    ConeVector,
    Grid,
    MuCertificate,
    MuSearchFailure,
    NeumannSolution,
    ProblemParams,
    SolvabilityKind,
    SymMatrix,
    TrivialOnly,
    appendix_limit_form,
    b_epsilon,
    classify_solvability,
    constructive_mu_n2,
    energy,
    find_mu,
    mountain_pass_solve,
    refine_solution,
    reflect_tile,
    simplex_min_quadratic,
    strict_copositivity_closed_form,
    verify_mu,
)
from coposolve.forms import cone_power, p_form_batch
from coposolve.mu_search import sufficient_condition
from coposolve.simplex import barycentric_grid

from oracles import (
    brute_force_mu_lp,
    exact_cubic_form,
    exact_cubic_weight_positive,
    exact_weight_obstruction,
)

WITNESS = SymMatrix([[1, -2], [-2, 1]])

# Proven bracket of the b_epsilon weight threshold at p = 4 (module docstring).
THRESHOLD_BRACKET = (0.007, 0.008)


def announce(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def random_symmetric(rng, n):
    raw = rng.uniform(-2.0, 2.0, (n, n))
    raw = (raw + raw.T) / 2.0
    np.fill_diagonal(raw, np.abs(np.diag(raw)))
    return SymMatrix(raw)


def test_criterion_1_closed_form_oracle_agreement():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    disagreements = 0
    checked = 0
    for n in (2, 3):
        for _ in range(10_000):
            B = random_symmetric(rng, n)
            minimum = simplex_min_quadratic(B)
            closed = strict_copositivity_closed_form(B)
            if abs(minimum.min_value) > 1e-9:
                checked += 1
                if closed.strict != (minimum.min_value > 0):
                    disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and elapsed < 30.0
    assert announce(
        "criterion 1",
        ok,
        f"{checked} instances outside dead band, {disagreements} disagreements, "
        f"{elapsed:.1f}s",
    )


def test_criterion_2_closed_form_diagnostic():
    worst = 0.0
    for eps in (0.25, 0.1, 0.01):
        result = strict_copositivity_closed_form(b_epsilon(eps))
        worst = max(worst, abs(result.final_expression - 4.0 * eps))
    ok = worst < 1e-12
    assert announce("criterion 2 (diagnostic=4*eps)", ok, f"max deviation {worst:.2e}")


def test_criterion_2_appendix_value():
    value = appendix_limit_form(ConeVector([3.0, 2.0, 2.0]))
    ok = value == -1.0
    assert announce("criterion 2 (appendix point)", ok, f"value {value}")


def adversarial_points(outcome):
    return [c.components for c in outcome.adversarial_set]


@pytest.mark.parametrize("eps", [0.1, 0.01, 0.005, 0.004])
def test_criterion_2_find_mu_never_certifies(eps):
    # find_mu never certifies below the proven bracket: there it must block,
    # with an adversarial set that is an exact Farkas obstruction.  Above the
    # bracket a weight exists, and the one it certifies must be proven
    # positive on the whole simplex in exact arithmetic.
    B = b_epsilon(eps)
    outcome = find_mu(B, 4.0)
    detail = f"outcome {type(outcome).__name__}"
    if eps >= THRESHOLD_BRACKET[1]:
        ok = isinstance(outcome, MuCertificate)
        if ok:
            cells, violation = exact_cubic_weight_positive(B.entries, outcome.mu.components)
            ok = violation is None
            detail += (f", exact positivity on {cells} cells" if ok
                       else f", form <= 0 at {violation}")
    else:
        ok = isinstance(outcome, MuSearchFailure)
        if ok:
            proof = exact_weight_obstruction(B.entries, adversarial_points(outcome))
            ok = proof is not None
            detail += (f", exact obstruction, combination <= {float(max(proof[1])):+.2e}"
                       if ok else ", no exact obstruction")
    assert announce(f"criterion 2 (find_mu eps={eps})", ok, detail)


def test_criterion_2_exact_checkers_reject_false_claims():
    # Negative controls: neither exact checker may prove what is false.
    blocked = find_mu(b_epsilon(0.004), 4.0)
    assert isinstance(blocked, MuSearchFailure)
    violations = []
    for mu in (np.ones(3), blocked.final_mu.components):
        cells, point = exact_cubic_weight_positive(b_epsilon(0.004).entries, mu)
        assert cells is None and point is not None
        assert min(point) >= 0 and sum(point) == 1
        assert exact_cubic_form(b_epsilon(0.004).entries, mu, point) <= 0
        violations.append(point)
    # A weight is proven to exist at eps = 0.1, so no point set obstructs it.
    spurious = exact_weight_obstruction(b_epsilon(0.1).entries, adversarial_points(blocked))
    lam, combination = exact_weight_obstruction(WITNESS.entries, [np.array([0.5, 0.5])])
    ok = spurious is None and lam == [1] and combination == [Fraction(-1, 8)] * 2
    assert announce(
        "criterion 2 (exact checker controls)",
        ok,
        f"violations {[tuple(map(str, v)) for v in violations]}, "
        f"spurious obstruction {spurious is not None}",
    )


def test_criterion_2_final_mu_band_confirmed_by_oracle():
    eps = 0.01
    # Confirm the band with the brute-force dense-grid LP oracle first.
    oracle_mu, _ = brute_force_mu_lp(b_epsilon(eps).entries, 4.0, 64)
    oracle_mu = oracle_mu / oracle_mu[0]
    oracle_band = max(abs(oracle_mu[1] - 1.0), abs(oracle_mu[2] - 1.0))
    outcome = find_mu(b_epsilon(eps), 4.0)
    if isinstance(outcome, MuCertificate):
        mu = outcome.mu.components
    else:
        mu = outcome.final_mu.components
    mu = mu / mu[0]
    band = max(abs(mu[1] - 1.0), abs(mu[2] - 1.0))
    ok = band < 0.2 and oracle_band < 0.2
    assert announce(
        "criterion 2 (mu band)",
        ok,
        f"final LP mu band {band:.3f}, oracle band {oracle_band:.3f}",
    )


def test_criterion_3_two_component_equivalence():
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    failures = 0
    count = 0
    while count < 1000:
        raw = rng.uniform(-2.0, 2.0, (2, 2))
        raw = (raw + raw.T) / 2.0
        np.fill_diagonal(raw, np.abs(np.diag(raw)))
        B = SymMatrix(raw)
        a = B.entries
        if not (a[0, 0] > 0 and a[1, 1] > 0 and a[0, 1] > -np.sqrt(a[0, 0] * a[1, 1])):
            continue
        count += 1
        for p in (3.0, 4.0, 6.0):
            outcome = verify_mu(B, constructive_mu_n2(B, p), p)
            if not (isinstance(outcome, MuCertificate) and outcome.min_on_simplex > 0):
                failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0
    assert announce(
        "criterion 3", ok, f"1000 matrices x 3 exponents, {failures} failures, {elapsed:.0f}s"
    )


def test_criterion_4_row_dominance_soundness():
    rng = np.random.default_rng(404)
    t0 = time.perf_counter()
    prepared = {}
    for n in (2, 3, 4, 5, 6):
        grid = barycentric_grid(n, 64, seed=404)
        prepared[n] = {
            p: (cone_power(grid, p / 2.0), cone_power(grid, p / 2.0 - 1.0),
                cone_power(grid, p - 1.0).sum(axis=1))
            for p in (3.0, 4.0)
        }
    worst = np.inf
    for k in range(1000):
        n = 2 + k % 5
        off = rng.uniform(-2.0, 2.0, (n, n))
        off = (off + off.T) / 2.0
        neg = np.minimum(off, 0.0)
        np.fill_diagonal(neg, 0.0)
        np.fill_diagonal(off, -neg.sum(axis=1) + rng.uniform(0.05, 1.0, n))
        B = SymMatrix(off)
        kappa0 = sufficient_condition(B)
        assert kappa0 is not None and kappa0 > 0
        for p in (3.0, 4.0):
            x, y, r = prepared[n][p]
            values = (y * (x @ B.entries)).sum(axis=1)
            worst = min(worst, float(np.min(values - kappa0 * r)))
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-10
    assert announce(
        "criterion 4", ok, f"1000 matrices, worst grid margin {worst:+.2e}, {elapsed:.0f}s"
    )


def test_criterion_5_two_component_truth_table():
    rng = np.random.default_rng(505)
    unknowns = 0
    for _ in range(1000):
        B = random_symmetric(rng, 2)
        for dim in (1, 2, 3):
            verdict = classify_solvability(B, ProblemParams(dim, 4.0))
            if verdict.kind is SolvabilityKind.UNKNOWN:
                unknowns += 1
    ok = unknowns == 0
    assert announce("criterion 5 (n=2 table)", ok, f"{unknowns} Unknown verdicts in 3000")


def test_criterion_5_low_dimension_truth_table():
    rng = np.random.default_rng(506)
    unknowns = 0
    for k in range(1000):
        n = 2 + k % 5
        B = random_symmetric(rng, n)
        for dim in (1, 2):
            for p in (2.5, 3.0, 4.0):
                verdict = classify_solvability(B, ProblemParams(dim, p))
                if verdict.kind is SolvabilityKind.UNKNOWN:
                    unknowns += 1
    ok = unknowns == 0
    assert announce(
        "criterion 5 (low-dimension table)", ok, f"{unknowns} Unknown verdicts in 6000"
    )


def test_criterion_5_b_epsilon_open_gap():
    # Below the proven bracket dimension 3 is the open gap: strictly copositive,
    # yet the audited search is exactly obstructed, so no weight decides it.
    # Above the bracket the weight route decides nonexistence (Prop1.2) with a
    # weight proven positive in exact arithmetic.
    gap_matrix = b_epsilon(0.004)
    gap = classify_solvability(gap_matrix, ProblemParams(3, 4.0))
    obstructed = isinstance(gap.audit, MuSearchFailure) and (
        exact_weight_obstruction(gap_matrix.entries, adversarial_points(gap.audit))
        is not None
    )
    weighted_matrix = b_epsilon(0.1)
    decided = classify_solvability(weighted_matrix, ProblemParams(3, 4.0))
    proven = isinstance(decided.certificate, MuCertificate) and (
        exact_cubic_weight_positive(weighted_matrix.entries, decided.certificate.mu.components)[1]
        is None
    )
    ok = (
        gap.kind is SolvabilityKind.UNKNOWN
        and gap.reason == "OpenGap"
        and obstructed
        and decided.kind is SolvabilityKind.NO_NONTRIVIAL
        and decided.reason == "Prop1.2"
        and proven
    )
    assert announce(
        "criterion 5 (b_epsilon gap case)",
        ok,
        f"eps=0.004 {gap.kind.value}/{gap.reason} exactly obstructed {obstructed}; "
        f"eps=0.1 {decided.kind.value}/{decided.reason} weight proven {proven}",
    )


def test_criterion_6_negative_control():
    t0 = time.perf_counter()
    outcome = mountain_pass_solve(SymMatrix(np.eye(2)), 4.0, Grid(1, 1.0, 129))
    elapsed = time.perf_counter() - t0
    ok = isinstance(outcome, TrivialOnly) and elapsed < 10.0
    assert announce(
        "criterion 6", ok, f"{type(outcome).__name__} in {elapsed:.1f}s"
    )


def test_criterion_7_boundary_control():
    outcome = mountain_pass_solve(SymMatrix([[1, -1], [-1, 1]]), 4.0, Grid(1, 1.0, 129))
    ok = (
        isinstance(outcome, NeumannSolution)
        and outcome.classification == "Constant"
        and outcome.report.residual_inf == 0.0
    )
    assert announce(
        "criterion 7",
        ok,
        f"{type(outcome).__name__}, residual {getattr(outcome, 'report', None) and outcome.report.residual_inf}",
    )


@pytest.fixture(scope="module")
def witness_solution():
    t0 = time.perf_counter()
    grid = Grid(1, 1.0, 129)
    solution = mountain_pass_solve(WITNESS, 4.0, grid)
    return solution, grid, time.perf_counter() - t0


def test_criterion_8_existence_witness(witness_solution):
    solution, grid, solve_time = witness_solution
    t0 = time.perf_counter()
    assert isinstance(solution, NeumannSolution)
    report = solution.report
    checks = {
        "nonconstant": solution.classification == "Nonconstant",
        "nonnegative": solution.field.components.min() >= 0.0,
        "residual": report.residual_inf < 1e-8,
        "energy positive": report.energy > 0,
        "energy identity": abs(report.energy - report.dirichlet / 4.0)
        <= 1e-6 * abs(report.energy),
        "identity defects": max(abs(d) for d in report.identity_defects) < 1e-6,
    }
    fine = refine_solution(WITNESS, solution, 4.0, grid, Grid(1, 1.0, 257))
    finest = refine_solution(WITNESS, fine, 4.0, Grid(1, 1.0, 257), Grid(1, 1.0, 513))
    e1, e2, e3 = solution.report.energy, fine.report.energy, finest.report.energy
    ratio = (e1 - e2) / (e2 - e3)
    checks["refinement ratio"] = 3.5 <= ratio <= 4.5
    elapsed = solve_time + (time.perf_counter() - t0)
    checks["runtime"] = elapsed < 60.0
    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    assert announce(
        "criterion 8",
        ok,
        f"residual {report.residual_inf:.1e}, energy {report.energy:.4f}, "
        f"ratio {ratio:.3f}, {elapsed:.1f}s"
        + (f", failed: {failed}" if failed else ""),
    )


def test_criterion_9_reflection(witness_solution):
    solution, grid, _ = witness_solution
    assert isinstance(solution, NeumannSolution)
    extended, extended_grid = reflect_tile(solution.field, grid, 2)
    report = energy(WITNESS, extended, 4.0, extended_grid)
    difference = abs(report.residual_inf - solution.report.residual_inf)
    ok = difference <= 1e-12
    assert announce(
        "criterion 9",
        ok,
        f"extended to {extended_grid.extent:.0f}-box, residual difference {difference:.2e}",
    )
