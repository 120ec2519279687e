"""Weight search and verification: frozen examples, LP oracle cross-checks,
and exact re-checks of the branch-and-bound verifier."""

import json
from fractions import Fraction

import numpy as np
import pytest

from coposolve import (
    CapacityError,
    ConeVector,
    Copositivity,
    MuCertificate,
    MuSearchBudget,
    MuSearchFailure,
    MuSearchInconclusive,
    MuViolation,
    ParameterError,
    PreconditionError,
    SymMatrix,
    appendix_limit_form,
    b_epsilon,
    classify_copositivity,
    constructive_mu_n2,
    find_mu,
    p_form,
    sufficient_condition,
    verify_mu,
)
from coposolve import cli, mu_search
from coposolve.forms import cone_power, p_form_batch
from coposolve.simplex import barycentric_grid

from oracles import (
    brute_force_mu_lp,
    dense_min_p_form,
    eval_p_form,
    exact_cubic_form,
    exact_cubic_weight_positive,
    simplex_lattice,
)

B_EPS_LIMIT = SymMatrix([[1, -1, -1], [-1, 1, 1], [-1, 1, 1]])
PROP_MATRIX = SymMatrix([[1, -0.4, -0.4], [-0.4, 1, 0.5], [-0.4, 0.5, 1]])


def random_strictly_copositive_2x2(rng):
    while True:
        raw = rng.uniform(-2.0, 2.0, (2, 2))
        raw = (raw + raw.T) / 2.0
        np.fill_diagonal(raw, np.abs(np.diag(raw)))
        a = raw
        if a[0, 0] > 0 and a[1, 1] > 0 and a[0, 1] > -np.sqrt(a[0, 0] * a[1, 1]):
            return SymMatrix(raw)


class TestVerifyMu:
    def test_identity_two_certificate(self):
        out = verify_mu(SymMatrix(np.eye(2)), ConeVector([1, 1]), 4.0)
        assert isinstance(out, MuCertificate)
        assert out.min_on_simplex == pytest.approx(0.25, abs=1e-12)
        assert out.worst_point.components == pytest.approx([0.5, 0.5], abs=1e-9)
        assert out.kappa == pytest.approx(0.25, abs=1e-9)

    def test_limit_matrix_violation(self):
        out = verify_mu(B_EPS_LIMIT, ConeVector([1, 1, 1]), 4.0)
        assert isinstance(out, MuViolation)
        # The violation must be at least as deep as the normalized witness
        # (3,2,2)/7, whose value is exactly -1/343.
        assert out.value <= -1.0 / 343.0 + 1e-12
        witness_value = p_form(
            B_EPS_LIMIT, ConeVector(np.array([3.0, 2.0, 2.0]) / 7.0),
            ConeVector([1, 1, 1]), 4.0,
        ).value
        assert witness_value == pytest.approx(-1.0 / 343.0, rel=1e-12)

    def test_row_dominance_bound_holds(self):
        out = verify_mu(PROP_MATRIX, ConeVector([1, 1, 1]), 4.0)
        assert isinstance(out, MuCertificate)
        assert out.min_on_simplex >= 0.2 / 9.0 - 1e-12

    def test_worst_point_reproduces_minimum(self):
        out = verify_mu(PROP_MATRIX, ConeVector([1, 1, 1]), 4.0)
        replay = p_form(PROP_MATRIX, out.worst_point, out.mu, 4.0).value
        assert replay == pytest.approx(out.min_on_simplex, abs=1e-9)

    def test_kappa_below_grid_ratio(self):
        out = verify_mu(PROP_MATRIX, ConeVector([1.0, 0.7, 0.9]), 4.0)
        assert isinstance(out, MuCertificate)
        grid = barycentric_grid(3, 64)
        vals = p_form_batch(PROP_MATRIX, grid, out.mu, 4.0)
        ratios = vals / np.power(grid @ out.mu.components, 3.0)
        assert out.kappa <= float(np.min(ratios)) + 1e-9

    def test_rejects_degenerate_weight_and_parameters(self):
        with pytest.raises(ParameterError):
            verify_mu(PROP_MATRIX, ConeVector([1, 0, 1]), 4.0)
        with pytest.raises(ParameterError):
            verify_mu(PROP_MATRIX, ConeVector([1, 1, 1]), 2.0)

    def test_certificate_mu_normalized(self):
        out = verify_mu(PROP_MATRIX, ConeVector([0.5, 0.25, 0.5]), 4.0)
        assert isinstance(out, MuCertificate)
        assert out.mu.components.max() == pytest.approx(1.0)


def random_case(rng, n, positive_coupling):
    """Symmetric matrix with positive diagonal and a weight in [0.2, 1]^n.

    Large positive couplings put the minimum of the form at a simplex vertex,
    where the least Bernstein coefficient is the rounded mu_k beta_kk itself.
    """
    raw = rng.uniform(-1.0, 1.0, (n, n))
    raw = (raw + raw.T) / 2.0
    if positive_coupling:
        raw = 3.0 * np.abs(raw)
    np.fill_diagonal(raw, rng.uniform(0.2, 1.5, n))
    return SymMatrix(raw), rng.uniform(0.2, 1.0, n)


class TestBranchAndBound:
    def test_cubic_outcomes_hold_exactly(self):
        rng = np.random.default_rng(71)
        kinds = set()
        for n in (2, 3, 4):
            for k in range(10):
                B, mu = random_case(rng, n, k % 2 == 1)
                out = verify_mu(B, mu, 4.0)
                kinds.add(type(out))
                if isinstance(out, MuCertificate):
                    assert exact_cubic_weight_positive(B.entries, out.mu.components)[1] is None
                    exact = exact_cubic_form(B.entries, out.mu.components, out.worst_point.components)
                    assert Fraction(out.kappa) <= exact
                    assert out.kappa <= out.min_on_simplex
                    assert out.min_on_simplex == pytest.approx(float(exact), rel=1e-12)
                else:
                    assert isinstance(out, MuViolation)
                    assert exact_cubic_form(B.entries, mu / mu.max(), out.point.components) <= 0
        assert kinds == {MuCertificate, MuViolation}

    @pytest.mark.parametrize("p", [3.0, 5.0])
    def test_corner_bound_below_lattice(self, p):
        rng = np.random.default_rng(73)
        certified = 0
        for n in (2, 3):
            lattice = simplex_lattice(n, 96)
            for k in range(8):
                B, mu = random_case(rng, n, k % 2 == 1)
                out = verify_mu(B, mu, p)
                if isinstance(out, MuCertificate):
                    certified += 1
                    mv = out.mu.components
                    ratios = eval_p_form(B.entries, lattice, mv, p) / (lattice @ mv) ** (p - 1.0)
                    assert out.kappa <= ratios.min()
                else:
                    assert isinstance(out, MuViolation) and out.value <= 0
        assert certified > 0

    @pytest.mark.parametrize("p", [2.5, 3.0, 3.5, 5.0, 7.25])
    def test_power_error_bound(self, p):
        # cone_power(v, e) = y within relative error r means
        # (y (1 - r))^q <= v^(e q) <= (y (1 + r))^q, checked exactly; each p
        # here makes e = p/2 a binary fraction with a small denominator q.
        rng = np.random.default_rng(79)
        # Down to where v^e would leave the normal range.
        values = np.concatenate([rng.uniform(0.0, 1.0, 40), 2.0 ** -rng.integers(1, 200, 20),
                                 rng.uniform(1e-60, 1e-40, 5)])
        r = Fraction(mu_search.power_error(p))
        for e in (Fraction(p / 2.0), Fraction(p / 2.0) - 1):
            q = e.denominator
            for v, y in zip(values, cone_power(values, float(e))):
                y, v = Fraction(float(y)), Fraction(float(v))
                assert (y * (1 - r)) ** q <= v ** e.numerator <= (y * (1 + r)) ** q

    def test_cell_cap_leaves_weight_search_open(self, monkeypatch, tmp_path, capsys):
        # One cell of three components: the simplex alone can neither be
        # proven positive nor shows a nonpositive vertex.
        monkeypatch.setattr(mu_search, "MAX_CELL_BYTES", 8 * (3 * 3 + 2))
        B = b_epsilon(0.1)
        assert verify_mu(B, np.ones(3), 4.0) is None
        out = find_mu(B, 4.0)
        assert isinstance(out, MuSearchInconclusive)
        assert out.iterations == 1 and out.last_violation is None
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"n": 3, "beta": B.entries.tolist()}))
        assert cli.main(["liouville", str(path), "--dim", "3"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["reason"] == "OpenGap"
        assert result["audit"]["type"] == "inconclusive"


class TestFindMu:
    def test_identity_three(self):
        out = find_mu(SymMatrix(np.eye(3)), 4.0)
        assert isinstance(out, MuCertificate)
        assert out.mu.components == pytest.approx([1.0, 1.0, 1.0])
        assert out.min_on_simplex == pytest.approx(1.0 / 9.0, rel=1e-6)

    def test_two_component_strictly_copositive(self):
        out = find_mu(SymMatrix([[1, -1.9], [-1.9, 4]]), 4.0)
        assert isinstance(out, MuCertificate)
        dense_min, _ = dense_min_p_form(
            np.array([[1, -1.9], [-1.9, 4.0]]), out.mu.components, 4.0, 512
        )
        assert dense_min > 0
        assert out.min_on_simplex == pytest.approx(dense_min, rel=1e-2)

    def test_b_epsilon_above_threshold_certifies(self):
        # The family admits a verifying weight above the exactly proven
        # threshold bracket (0.007, 0.008); 0.05 is solidly inside.
        out = find_mu(b_epsilon(0.05), 4.0)
        assert isinstance(out, MuCertificate)
        dense_min, _ = dense_min_p_form(
            b_epsilon(0.05).entries, out.mu.components, 4.0, 256
        )
        assert dense_min > 0

    def test_b_epsilon_below_threshold_blocked(self):
        out = find_mu(b_epsilon(0.004), 4.0)
        assert isinstance(out, (MuSearchFailure, MuSearchInconclusive))
        oracle_mu, oracle_margin = brute_force_mu_lp(b_epsilon(0.004).entries, 4.0)
        assert oracle_margin <= 1e-7

    def test_failure_margin_reproduces_on_adversarial_set(self):
        out = find_mu(b_epsilon(0.004), 4.0)
        assert isinstance(out, MuSearchFailure)
        values = [
            p_form(b_epsilon(0.004), c, out.final_mu, 4.0).value
            for c in out.adversarial_set
        ]
        assert min(values) == pytest.approx(out.best_margin, abs=1e-9)

    @pytest.mark.parametrize("eps", [0.007, 0.004])
    def test_failure_reports_normalized_weight(self, eps):
        # A blocked LP pushes every weight toward the lower bound; the report
        # scales it to max component 1, as certificates do, and gives the
        # margin at that scale.
        out = find_mu(b_epsilon(eps), 4.0)
        assert isinstance(out, MuSearchFailure)
        assert max(out.final_mu.components) == 1.0
        values = [p_form(b_epsilon(eps), c, out.final_mu, 4.0).value for c in out.adversarial_set]
        assert min(values) == pytest.approx(out.best_margin, rel=1e-9)
        assert out.best_margin < -1e-6

    def test_certificate_implies_strict_copositivity(self):
        rng = np.random.default_rng(31)
        budget = MuSearchBudget(max_iterations=8)
        certified = 0
        for _ in range(30):
            raw = rng.uniform(-1.5, 1.5, (3, 3))
            raw = (raw + raw.T) / 2.0
            np.fill_diagonal(raw, np.abs(np.diag(raw)) + 0.05)
            B = SymMatrix(raw)
            out = find_mu(B, 4.0, budget)
            if isinstance(out, MuCertificate):
                certified += 1
                assert (
                    classify_copositivity(B).kind is Copositivity.STRICTLY_COPOSITIVE
                )
        assert certified > 0

    def test_two_component_equivalence_sample(self):
        rng = np.random.default_rng(37)
        for k in range(25):
            B = random_strictly_copositive_2x2(rng)
            for p in (3.0, 4.0, 6.0):
                out = verify_mu(B, constructive_mu_n2(B, p), p)
                assert isinstance(out, MuCertificate)
                assert out.min_on_simplex > 0
            if k < 5:
                assert isinstance(find_mu(B, 4.0), MuCertificate)

    def test_diagonal_scaling_transport(self):
        out = find_mu(SymMatrix([[1, -1.9], [-1.9, 4]]), 4.0)
        assert isinstance(out, MuCertificate)
        mu = out.mu.components
        scaled = SymMatrix(np.outer(mu**2, mu**2) * np.array([[1, -1.9], [-1.9, 4.0]]))
        transported = verify_mu(scaled, ConeVector(np.ones(2)), 4.0)
        assert isinstance(transported, MuCertificate)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            find_mu(SymMatrix(np.eye(17)), 4.0)


class TestConstructiveMu:
    def test_quarter_roots(self):
        mu = constructive_mu_n2(SymMatrix([[4, -1], [-1, 9]]), 4.0)
        assert mu.components == pytest.approx([4 ** (-0.25), 9 ** (-0.25)], rel=1e-12)

    def test_identity_any_p(self):
        assert constructive_mu_n2(SymMatrix(np.eye(2)), 5.5).components == pytest.approx([1, 1])

    def test_cube_roots(self):
        mu = constructive_mu_n2(SymMatrix([[1, -1.9], [-1.9, 4]]), 3.0)
        assert mu.components == pytest.approx([1.0, 4 ** (-1.0 / 3.0)], rel=1e-12)

    def test_requires_strict_copositivity(self):
        with pytest.raises(PreconditionError):
            constructive_mu_n2(SymMatrix([[1, -2], [-2, 1]]), 4.0)

    def test_requires_two_components(self):
        with pytest.raises(CapacityError):
            constructive_mu_n2(SymMatrix(np.eye(3)), 4.0)


class TestSufficientCondition:
    def test_binding_row(self):
        assert sufficient_condition(PROP_MATRIX) == pytest.approx(0.2)

    def test_boundary_fails(self):
        assert sufficient_condition(SymMatrix([[1, -1], [-1, 1]])) is None

    def test_identity(self):
        assert sufficient_condition(SymMatrix(np.eye(5))) == pytest.approx(1.0)

    def test_soundness_on_grid(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            n = int(rng.integers(2, 5))
            off = rng.uniform(-2.0, 2.0, (n, n))
            off = (off + off.T) / 2.0
            neg = np.minimum(off, 0.0)
            np.fill_diagonal(neg, 0.0)
            np.fill_diagonal(off, -neg.sum(axis=1) + rng.uniform(0.05, 1.0, n))
            B = SymMatrix(off)
            kappa0 = sufficient_condition(B)
            assert kappa0 is not None
            grid = barycentric_grid(n, 32)
            for p in (3.0, 4.0):
                vals = p_form_batch(B, grid, np.ones(n), p)
                floor = kappa0 * np.power(grid, p - 1).sum(axis=1)
                assert np.min(vals - floor) >= -1e-10


class TestBEpsilonFamily:
    def test_entries(self):
        assert b_epsilon(0.1).entries.tolist() == [
            [1.0, -0.9, -0.9],
            [-0.9, 1.0, 1.0],
            [-0.9, 1.0, 1.0],
        ]
        assert b_epsilon(1.0).entries.tolist() == [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 1.0],
            [0.0, 1.0, 1.0],
        ]

    def test_requires_positive_eps(self):
        with pytest.raises(ParameterError):
            b_epsilon(0.0)

    def test_appendix_point_values(self):
        assert appendix_limit_form(ConeVector([3, 2, 2])) == -1.0
        assert appendix_limit_form(ConeVector([1, 0, 0])) == 1.0
        assert appendix_limit_form(ConeVector([0, 1, 1])) == 4.0

    def test_appendix_form_needs_three_components(self):
        with pytest.raises(ParameterError):
            appendix_limit_form(ConeVector([1, 1]))

    def test_appendix_form_equals_limit_p_form(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            c = rng.uniform(0.0, 3.0, 3)
            direct = appendix_limit_form(ConeVector(c))
            via_form = p_form(B_EPS_LIMIT, ConeVector(c), ConeVector([1, 1, 1]), 4.0).value
            assert direct == pytest.approx(via_form, rel=1e-12, abs=1e-12)
