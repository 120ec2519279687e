"""Weight search and verification: frozen examples, LP oracle cross-checks,
and exact re-checks of the branch-and-bound verifier."""

import json
import math
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import linprog as highs_linprog

from coposolve import (
    CapacityError,
    ConeVector,
    Copositivity,
    DimensionError,
    MuCertificate,
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
from coposolve import InternalConsistencyError, cli, mu_search
from coposolve.forms import cone_power, p_form_batch, p_form_coefficients
from coposolve.reports import to_doc
from coposolve.simplex import barycentric_grid

from oracles import (
    brute_force_mu_lp,
    dense_min_p_form,
    eval_p_form,
    exact_conditionally_psd,
    exact_cubic_form,
    exact_cubic_hessian,
    exact_cubic_weight_positive,
    exact_weight_obstruction,
    simplex_lattice,
)

B_EPS_LIMIT = SymMatrix([[1, -1, -1], [-1, 1, 1], [-1, 1, 1]])
PROP_MATRIX = SymMatrix([[1, -0.4, -0.4], [-0.4, 1, 0.5], [-0.4, 0.5, 1]])
# The 4x4 weight-search item of the liouville-mix benchmark at seed 1.
SEARCH_4 = SymMatrix([
    [1.0000000000000002, -0.23330434099726474, -0.5343271811264716, -0.35747215394518556],
    [-0.23330434099726474, 0.9999999999999998, -0.014531470737530767, 0.12439800398621506],
    [-0.5343271811264716, -0.014531470737530767, 0.9999999999999999, 0.06149390826316205],
    [-0.35747215394518556, 0.12439800398621506, 0.06149390826316205, 1.0],
])


def random_strictly_copositive_2x2(rng):
    while True:
        raw = rng.uniform(-2.0, 2.0, (2, 2))
        raw = (raw + raw.T) / 2.0
        np.fill_diagonal(raw, np.abs(np.diag(raw)))
        a = raw
        if a[0, 0] > 0 and a[1, 1] > 0 and a[0, 1] > -np.sqrt(a[0, 0] * a[1, 1]):
            return SymMatrix(raw)


class TestVerifyMu:
    def test_store_grows_under_a_trace_hook(self):
        # A tracer's snapshot of the frame's locals holds extra references
        # to the cell store, which an in-place resize refuses.  The
        # certificate of the 6x6 identity opens 6,439 cells, more than the
        # store starts with.
        B = SymMatrix(np.eye(6))
        cert = find_mu(B, 4.0)
        assert isinstance(cert, MuCertificate)
        assert cert.verification.cells > 4 * mu_search.BATCH
        untraced = verify_mu(B, cert.mu, 4.0)
        previous = sys.gettrace()
        sys.settrace(lambda *args: None)
        try:
            traced = verify_mu(B, cert.mu, 4.0)
        finally:
            sys.settrace(previous)
        assert to_doc(traced) == to_doc(untraced) == to_doc(cert)

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
        )
        assert witness_value == pytest.approx(-1.0 / 343.0, rel=1e-12)

    def test_limit_matrix_refutation_stops_early(self):
        # The violation is a cut, not the minimum: the search stops once it
        # is proven deep enough, after a few dozen cells (301 to close GAP).
        out = verify_mu(B_EPS_LIMIT, ConeVector([1, 1, 1]), 4.0)
        assert isinstance(out, MuViolation)
        assert out.verification.cells <= 48

    def test_row_dominance_bound_holds(self):
        out = verify_mu(PROP_MATRIX, ConeVector([1, 1, 1]), 4.0)
        assert isinstance(out, MuCertificate)
        assert out.min_on_simplex >= 0.2 / 9.0 - 1e-12

    def test_worst_point_reproduces_minimum(self):
        out = verify_mu(PROP_MATRIX, ConeVector([1, 1, 1]), 4.0)
        replay = p_form(PROP_MATRIX, out.worst_point, out.mu, 4.0)
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
        for bad in (np.nan, np.inf):
            with pytest.raises(ParameterError):
                verify_mu(SymMatrix(np.eye(2)), [bad, 1.0], 4.0)

    @pytest.mark.parametrize("mu", [[1.0, 1.0], [1.0, 1.0, 1.0, 1.0]])
    def test_rejects_weight_of_the_wrong_length(self, mu):
        with pytest.raises(DimensionError):
            verify_mu(PROP_MATRIX, mu, 4.0)

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

    def test_lowest_bounds_split_first(self):
        # More than BATCH cells stay open at n = 5, so each step splits the
        # BATCH with the lowest bounds.
        out = verify_mu(SymMatrix(np.eye(5)), np.ones(5), 4.0)
        assert isinstance(out, MuCertificate)
        assert out.verification.cells > mu_search.BATCH
        assert out.kappa > 0
        assert out.min_on_simplex == pytest.approx(1 / 25, rel=1e-9)

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


# verify_mu outcomes recorded before the cell store grew with the search:
# (matrix, weight, p, VerificationInfo fields, kappa, min_on_simplex).  They
# pin that refactor, the same subdivision and the same floating-point bounds,
# not a mathematical fact; a change to the splitting or the bounds may move
# them.  The p = 4 pins were re-recorded with the tangent finish.  The last
# two open more cells than the store starts with (4 * BATCH = 1,024):
# identity-6 6,439 cells and the corner search 4,221; identity-5 opens 718.
STORE_PINS = {
    "b-epsilon-0.1-p4": (b_epsilon(0.1), np.ones(3), 4.0, (25, 8),
                         "0x1.a281a37fd03bap-7", "0x1.a281a37fd4734p-7"),
    "identity-5-p4": (SymMatrix(np.eye(5)), np.ones(5), 4.0, (718, 13),
                      "0x1.47ae147adffdcp-5", "0x1.47ae147ae147cp-5"),
    "identity-6-p4": (SymMatrix(np.eye(6)), np.ones(6), 4.0, (6439, 20),
                      "0x1.c71c71c719a1cp-6", "0x1.c71c71c71c71dp-6"),
    "b-epsilon-0.1-p3-corner": (b_epsilon(0.1), np.ones(3), 3.0, (4221, 17),
                                "0x1.a454f4cef5333p-17", "0x1.d2a7e9276e5f4p-7"),
}


def traced_peak(call):
    """call() and the peak of the memory tracemalloc saw during it, in bytes."""
    tracemalloc.start()
    try:
        out = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


class TestCellStore:
    def test_small_search_allocates_little(self):
        # The store grows with the search: a 2x2 proof holds a few cells,
        # not room for the whole cell cap.
        B = SymMatrix([[1.0, -0.5], [-0.5, 2.0]])
        out, peak = traced_peak(lambda: verify_mu(B, constructive_mu_n2(B, 4.0), 4.0))
        assert isinstance(out, MuCertificate)
        assert peak < 1 << 20

    def test_store_grows_in_place_up_to_the_cap(self, monkeypatch):
        # b_epsilon(0.02) with unit weight at p = 5, padded by an identity
        # block to n = 6: no vertex is nonpositive and the corner bounds stay
        # below zero, so the search runs to its cap, here 16384 cells, which
        # the store reaches after several doublings.
        n = 6
        A = np.eye(n)
        A[:3, :3] = b_epsilon(0.02).entries
        monkeypatch.setattr(mu_search, "MAX_CELL_BYTES", 16384 * 8 * (n * n + 2))
        out, peak = traced_peak(lambda: verify_mu(SymMatrix(A), np.ones(n), 5.0))
        assert out is None
        # Slack for one round's temporaries: the selection's index arrays,
        # at most 25 bytes a cell against the 304 a cell holds at n = 6, and
        # BATCH cells' edge arrays, under 1 MiB.  A growth step that copied
        # the store would hold its old half next to the new whole.
        assert peak <= mu_search.MAX_CELL_BYTES * 9 // 8 + (1 << 20)

    @pytest.mark.parametrize("case", list(STORE_PINS))
    def test_outcome_pinned_across_growth(self, case):
        B, mu, p, info, kappa, minimum = STORE_PINS[case]
        out = verify_mu(B, mu, p)
        assert isinstance(out, MuCertificate)
        assert (out.verification.cells, out.verification.max_depth) == info
        assert (out.kappa.hex(), out.min_on_simplex.hex()) == (kappa, minimum)


# The seed-1 weight-search-n3-2 item of the liouville-mix benchmark: its
# weight search meets two violations before it certifies.
SEARCH_3 = SymMatrix([
    [1.0, -0.575172355947763, 0.11955959747917771],
    [-0.575172355947763, 1.0000000000000002, -0.4810119873118726],
    [0.11955959747917771, -0.4810119873118726, 0.9999999999999998],
])


def refutations(B, p):
    """Every (normalized weight, MuViolation) that find_mu(B, p) meets on its way."""
    seen, package_verify = [], mu_search.verify_mu

    def recording(B, mu, p):
        out = package_verify(B, mu, p)
        if isinstance(out, MuViolation):
            seen.append((np.asarray(mu, dtype=float) / np.max(mu), out))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mu_search, "verify_mu", recording)
        find_mu(B, p)
    return seen


# Weight searches that meet violations: (matrix, p).  At p = 6 the Bernstein
# bound has degree 5.
REFUTED_SEARCHES = {
    "b-epsilon-0.004-p4": (b_epsilon(0.004), 4.0),
    "search-3-p4": (SEARCH_3, 4.0),
    "search-4-p4": (SEARCH_4, 4.0),
    "b-epsilon-0.002-p6": (b_epsilon(0.002), 6.0),
}


class TestViolationDepth:
    """With Bernstein bounds a violation is proven at least 2/3 as deep as the
    simplex minimum, up to the rounding margin.  The lattice minimum is no
    deeper than the simplex minimum, so it checks that independently."""

    @staticmethod
    def assert_two_thirds_deep(B, mu, p, out):
        assert isinstance(out, MuViolation)
        lattice_min, _ = dense_min_p_form(B.entries, mu, p, 128 if B.n == 3 else 48)
        assert out.value <= 0
        assert out.value <= 2.0 / 3.0 * lattice_min + 1e-12

    def test_limit_matrix_at_unit_weight(self):
        self.assert_two_thirds_deep(B_EPS_LIMIT, np.ones(3), 4.0, verify_mu(B_EPS_LIMIT, np.ones(3), 4.0))

    @pytest.mark.parametrize("case", list(REFUTED_SEARCHES))
    def test_every_violation_find_mu_meets(self, case):
        B, p = REFUTED_SEARCHES[case]
        seen = refutations(B, p)
        assert seen
        for mu, out in seen:
            self.assert_two_thirds_deep(B, mu, p, out)


# verify_mu certificates of the eight strict-n2 items of the liouville-mix
# benchmark at seed 1 with their diagonal weight (the Cor1.3 route) and of
# PROP_MATRIX at unit weight, recorded with the tangent finish: the least
# vertex polished to the face minimiser, and the gap closed in 2-3 cells at
# n = 2 (16-18 before) and 14 for PROP_MATRIX (168).  Like STORE_PINS they
# pin the floating-point bounds, which a change to the bounds may move.
CERTIFICATE_PINS = {
    "strict-n2-0": (
        [[2.214710274716283, 0.5622244768092632], [0.5622244768092632, 0.44821819794843104]],
        '{"kappa": 0.28442688990223225, "min_on_simplex": 0.284426889902272, "mu": [0.6707229104807174, 1.0], "type": "certificate", "verification": {"cells": 2, "max_depth": 1}, "worst_point": [0.3118559968262224, 0.6881440031737777]}'),
    "strict-n2-1": (
        [[3.0412118673126933, -1.1340119566900169], [-1.1340119566900169, 0.8723082127057316]],
        '{"kappa": 0.10157698641339426, "min_on_simplex": 0.10157698641345358, "mu": [0.7318226068324455, 1.0], "type": "certificate", "verification": {"cells": 3, "max_depth": 2}, "worst_point": [0.41327182938827534, 0.5867281706117247]}'),
    "strict-n2-2": (
        [[1.5845329749150934, 0.847100149679537], [0.847100149679537, 0.9238790349814994]],
        '{"kappa": 0.4738742139346997, "min_on_simplex": 0.47387421393473667, "mu": [0.8738330321356738, 1.0], "type": "certificate", "verification": {"cells": 2, "max_depth": 1}, "worst_point": [0.42926708397436253, 0.5707329160256375]}'),
    "strict-n2-3": (
        [[0.5492920528680199, 0.35201025352136406], [0.35201025352136406, 0.3627053786377683]],
        '{"kappa": 0.18781710928779963, "min_on_simplex": 0.18781710928781287, "mu": [0.9014417533691078, 1.0], "type": "certificate", "verification": {"cells": 2, "max_depth": 1}, "worst_point": [0.44277505652248395, 0.5572249434775162]}'),
    "strict-n2-4": (
        [[1.424641973802983, 0.212572584284903], [0.212572584284903, 2.697326703087648]],
        '{"kappa": 0.4940856895971235, "min_on_simplex": 0.4940856895971848, "mu": [1.0, 0.8524973662983814], "type": "certificate", "verification": {"cells": 2, "max_depth": 1}, "worst_point": [0.5625173592533446, 0.4374826407466554]}'),
    "strict-n2-5": (
        [[1.1623680461753756, 0.5904449720028174], [0.5904449720028174, 0.31371720395910396]],
        '{"kappa": 0.2299570706066974, "min_on_simplex": 0.22995707060671974, "mu": [0.7207732631709437, 1.0], "type": "certificate", "verification": {"cells": 2, "max_depth": 1}, "worst_point": [0.30512668427577583, 0.6948733157242242]}'),
    "strict-n2-6": (
        [[1.4772791473800124, 0.49092321950524254], [0.49092321950524254, 0.32165067117633267]],
        '{"kappa": 0.21775284552074523, "min_on_simplex": 0.21775284552077206, "mu": [0.683094004565196, 1.0], "type": "certificate", "verification": {"cells": 2, "max_depth": 1}, "worst_point": [0.30586686239483074, 0.6941331376051693]}'),
    "strict-n2-7": (
        [[0.36815268788742145, 0.478851954442662], [0.478851954442662, 1.7466355039946309]],
        '{"kappa": 0.23582099122843264, "min_on_simplex": 0.23582099122846417, "mu": [1.0, 0.6775735165499804], "type": "certificate", "verification": {"cells": 2, "max_depth": 1}, "worst_point": [0.6867369363403704, 0.31326306365962964]}'),
}
PROP_MATRIX_PIN = '{"kappa": 0.07770085527362186, "min_on_simplex": 0.07770085527365185, "mu": [1.0, 1.0, 1.0], "type": "certificate", "verification": {"cells": 14, "max_depth": 4}, "worst_point": [0.40682850930617553, 0.2965857453469123, 0.2965857453469123]}'


class TestCertificatesUnchanged:
    @pytest.mark.parametrize("case", list(CERTIFICATE_PINS))
    def test_strict_n2_diagonal_weight(self, case):
        matrix, doc = CERTIFICATE_PINS[case]
        B = SymMatrix(matrix)
        out = verify_mu(B, mu_search.diagonal_weight(B, 4.0), 4.0)
        assert json.dumps(to_doc(out), sort_keys=True) == doc

    def test_prop_matrix_unit_weight(self):
        out = verify_mu(PROP_MATRIX, ConeVector([1, 1, 1]), 4.0)
        assert json.dumps(to_doc(out), sort_keys=True) == PROP_MATRIX_PIN


def random_cell(rng, n):
    """A cell of verify_mu's subdivision: a random chain of longest-edge bisections."""
    cell = np.eye(n)
    for _ in range(rng.integers(0, 4 * n)):
        _, i, j = max((np.sum((cell[i] - cell[j]) ** 2), i, j) for i, j in combinations(range(n), 2))
        cell = cell.copy()
        cell[i if rng.random() < 0.5 else j] = (cell[i] + cell[j]) / 2.0
    return cell


def gap_margin(B, mu):
    """verify_mu's rounding margin of a Bernstein bound at p = 4."""
    C = mu_search._coefficient_tensor(B.entries, mu / mu.max(), 4.0)
    return mu_search._gamma(2 * (3 * (B.n + 1) + 3 + 2)) * np.abs(C).max()


def assert_certificate_exact(B, out):
    """A p = 4 certificate is proven exactly, kappa is at most the form at
    worst_point, and kappa closes the gap to it up to GAP and the margin."""
    assert isinstance(out, MuCertificate)
    mu = out.mu.components
    assert exact_cubic_weight_positive(B.entries, mu)[1] is None
    assert Fraction(out.kappa) <= exact_cubic_form(B.entries, mu, out.worst_point.components)
    floor = out.min_on_simplex - mu_search.GAP * abs(out.min_on_simplex) - gap_margin(B, mu)
    assert out.kappa >= floor - 1e-15 * abs(out.min_on_simplex)


class TestTangentFinish:
    """verify_mu's finish at p = 4: the polished minimiser's tangent plane
    bounds the form below on every cell where the Hessian is proven PSD on
    the sum-zero directions."""

    def test_accepted_cells_are_convex_and_bounded(self):
        # The polish starts at the least lattice point and at random ones, so
        # that it also reaches KKT points on faces, where the tangent plane
        # is not level on the simplex.
        rng = np.random.default_rng(83)
        accepted = rejected = 0
        for n in (2, 3, 4):
            lattice = simplex_lattice(n, 8)
            for k in range(24):
                B, mu = random_case(rng, n, False)
                mv = mu / mu.max()
                C = mu_search._coefficient_tensor(B.entries, mv, 4.0)
                least = np.argmin(eval_p_form(B.entries, lattice, mv, 4.0))
                x0 = lattice[least if k % 2 else rng.integers(len(lattice))]
                finish = mu_search._tangent_finish(C, x0)
                if finish is None:
                    continue
                x, tangent = finish
                assert exact_conditionally_psd(exact_cubic_hessian(B.entries, mv, x), list(range(n)))
                cells = np.array([random_cell(rng, n) for _ in range(12)])
                weights = [[Fraction(t) for t in row] for row in simplex_lattice(n, 4)]
                for cell, bound in zip(cells, tangent(cells)):
                    if bound == -np.inf:
                        rejected += 1
                        continue
                    accepted += 1
                    for v in cell:
                        assert exact_conditionally_psd(exact_cubic_hessian(B.entries, mv, v), list(range(n)))
                    vertices = [[Fraction(c) for c in v] for v in cell]
                    for t in weights:
                        point = [sum(tk * v[i] for tk, v in zip(t, vertices)) for i in range(n)]
                        assert Fraction(float(bound)) <= exact_cubic_form(B.entries, mv, point)
        assert accepted >= 40 and rejected >= 10

    @pytest.mark.parametrize("n, most_cells", [(3, 16), (4, 40), (5, 1000), (6, 8000)])
    def test_identity_gap_closes_in_few_cells(self, n, most_cells):
        # Without the finish: 128, 40, 11,985 and 82,838 cells.  At n = 4 the
        # minimiser, the barycenter, is a dyadic vertex of the subdivision.
        out = verify_mu(SymMatrix(np.eye(n)), np.ones(n), 4.0)
        assert isinstance(out, MuCertificate)
        assert out.verification.cells <= most_cells
        assert Fraction(out.kappa) <= Fraction(1, n * n)
        assert 1.0 / n ** 2 - out.kappa <= mu_search.GAP / n ** 2
        assert out.min_on_simplex == pytest.approx(1.0 / n ** 2, rel=1e-15)

    def test_boundary_minimiser_keeps_bisecting(self):
        # The weight that find_mu certifies for b_epsilon(0.02) in the
        # liouville-mix benchmark at seed 1.  The minimum lies on the edges
        # c_2 = 0 and c_3 = 0, where the Hessian is indefinite on the
        # sum-zero directions, so no cell takes the tangent bound.
        B = b_epsilon(0.02)
        out = verify_mu(B, [1.0, 0.7844472116381471, 0.7844472116381179], 4.0)
        assert_certificate_exact(B, out)
        assert 0.0 in out.worst_point.components
        assert out.verification.cells > 100

    @pytest.mark.parametrize("case", ["prop-matrix", "b-epsilon-0.1", "search-4", "search-3", *CERTIFICATE_PINS])
    def test_certificates_hold_exactly(self, case):
        if case in CERTIFICATE_PINS:
            B = SymMatrix(CERTIFICATE_PINS[case][0])
            out = verify_mu(B, mu_search.diagonal_weight(B, 4.0), 4.0)
        elif case == "prop-matrix":
            B = PROP_MATRIX
            out = verify_mu(B, np.ones(3), 4.0)
        else:
            B = {"b-epsilon-0.1": b_epsilon(0.1), "search-4": SEARCH_4, "search-3": SEARCH_3}[case]
            out = find_mu(B, 4.0)
        assert_certificate_exact(B, out)

    def test_polished_point_is_a_kkt_point(self):
        # The certificate's worst point is the polished face minimiser, not a
        # cell vertex (whose coordinates are dyadic at depth 4): the gradient
        # is constant on its support.
        out = verify_mu(PROP_MATRIX, np.ones(3), 4.0)
        x = out.worst_point.components
        C = mu_search._coefficient_tensor(PROP_MATRIX.entries, np.ones(3), 4.0)
        gradient = 3.0 * (C @ x) @ x
        assert np.ptp(gradient) <= 1e-14
        assert gradient == pytest.approx(3.0 * out.min_on_simplex, rel=1e-13)
        assert out.verification.max_depth <= 4 and any(v * 2.0 ** 40 % 1 for v in x)


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
            p_form(b_epsilon(0.004), c, out.final_mu, 4.0)
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
        values = [p_form(b_epsilon(eps), c, out.final_mu, 4.0) for c in out.adversarial_set]
        assert min(values) == pytest.approx(out.best_margin, rel=1e-9)
        assert out.best_margin < -1e-6

    @pytest.mark.parametrize("eps", [0.1, 0.05, 0.02, 0.01, 0.008, 0.007, 0.006, 0.005, 0.004,
                                     0.003, 0.002, 0.001])
    def test_b_epsilon_at_p6(self, eps):
        # p = 6 takes the Bernstein bound at degree 5.  A certificate's weight
        # is positive on the lattice; a failure's cut set blocks the weight
        # LP, which HiGHS confirms on rows built by the oracle's formula.
        B, p = b_epsilon(eps), 6.0
        out = find_mu(B, p)
        if eps >= 0.003:
            assert isinstance(out, MuCertificate)
            assert dense_min_p_form(B.entries, out.mu.components, p, 128)[0] > 0
        else:
            assert isinstance(out, MuSearchFailure)
            points = np.array([c.components for c in out.adversarial_set])
            coef = points ** (p / 2.0 - 1.0) * (points ** (p / 2.0) @ B.entries)
            assert highs_weight_lp_margin(coef) <= mu_search.LP_MARGIN_TOL

    def test_certificate_implies_strict_copositivity(self):
        rng = np.random.default_rng(31)
        budget = 8
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

    @pytest.mark.parametrize("p", [3.0, 4.0])
    def test_weight_lp_rows_are_the_form_coefficients(self, monkeypatch, p):
        B = b_epsilon(0.02)
        points = np.vstack([np.eye(3), barycentric_grid(3, 5)])
        captured, package_linprog = [], mu_search.linprog

        def recording(*args, **kwargs):
            captured.append(kwargs["A_ub"])
            return package_linprog(*args, **kwargs)

        monkeypatch.setattr(mu_search, "linprog", recording)
        mu_search._weight_lp(B, list(points), p)
        (a_ub,) = captured
        # One cut row per point, then the three box rows of mu.
        assert a_ub.shape == (len(points) + 3, 4)
        expected = p_form_coefficients(B.entries, points, p)
        assert (-a_ub[:len(points), :3]).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("max_iterations", [0, -3])
    def test_rejects_budget_below_one(self, max_iterations):
        with pytest.raises(ParameterError):
            find_mu(b_epsilon(0.1), 4.0, max_iterations)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            find_mu(SymMatrix(np.eye(17)), 4.0)

    def test_rejects_negative_diagonal(self):
        with pytest.raises(PreconditionError):
            find_mu(SymMatrix([[-1, 0], [0, 1]]), 4.0)

    def test_outcomes_hold_exactly(self):
        # Unit diagonal, couplings drawn from [-1.2, 0.6]: this seed gives
        # both certificates and failures at n = 3 and at n = 4.
        rng = np.random.default_rng(2)
        kinds = set()
        for n in (3, 4):
            for _ in range(8):
                raw = rng.uniform(-1.2, 0.6, (n, n))
                raw = (raw + raw.T) / 2.0
                np.fill_diagonal(raw, 1.0)
                B = SymMatrix(raw)
                out = find_mu(B, 4.0)
                kinds.add((n, type(out)))
                if isinstance(out, MuCertificate):
                    assert exact_cubic_weight_positive(B.entries, out.mu.components)[1] is None
                elif isinstance(out, MuSearchFailure):
                    points = [c.components for c in out.adversarial_set]
                    assert exact_weight_obstruction(B.entries, points) is not None
        assert kinds == {(n, kind) for n in (3, 4) for kind in (MuCertificate, MuSearchFailure)}


def first_weight_lp(monkeypatch, B, p):
    """find_mu's first LP on B: the cut points handed to _weight_lp and linprog's A_ub.

    verify_mu is stubbed to leave every weight undecided, so find_mu stops
    after one round.
    """
    points, a_ubs = [], []
    package_weight_lp, package_linprog = mu_search._weight_lp, mu_search.linprog

    def recording_weight_lp(B, cuts, p):
        points.append([c.copy() for c in cuts])
        return package_weight_lp(B, cuts, p)

    def recording_linprog(c, A_ub, b_ub):
        a_ubs.append(A_ub)
        return package_linprog(c, A_ub=A_ub, b_ub=b_ub)

    monkeypatch.setattr(mu_search, "_weight_lp", recording_weight_lp)
    monkeypatch.setattr(mu_search, "linprog", recording_linprog)
    monkeypatch.setattr(mu_search, "verify_mu", lambda *args: None)
    out = find_mu(B, p)
    assert len(points) == len(a_ubs) == 1
    return out, points[0], a_ubs[0]


class TestFirstCutSet:
    """find_mu's first LP cuts at the vertices, the barycenter and the edge midpoints."""

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_points_and_order(self, monkeypatch, n):
        _, points, _ = first_weight_lp(monkeypatch, SymMatrix(np.eye(n)), 4.0)
        pairs = list(combinations(range(n), 2))
        assert len(points) == n + 1 + len(pairs)
        for i in range(n):
            assert points[i].tolist() == np.eye(n)[i].tolist()
        assert points[n].tolist() == [1.0 / n] * n
        for (i, j), point in zip(pairs, points[n + 1:]):
            expected = [0.0] * n
            expected[i] = expected[j] = 0.5
            assert point.tolist() == expected

    @pytest.mark.parametrize("matrix", ["identity", "pd_not_row_dominant", "not_copositive"])
    def test_first_lp_at_n16(self, monkeypatch, matrix):
        # The largest first LP: 137 cut rows and 16 box rows.
        n = 16
        if matrix == "identity":
            a = np.eye(n)
        elif matrix == "pd_not_row_dominant":
            g = np.random.default_rng(16).standard_normal((n, 2 * n))
            a = g @ g.T
            a = a / np.sqrt(np.outer(np.diag(a), np.diag(a)))
        else:
            a = np.full((n, n), -0.5)
        np.fill_diagonal(a, 1.0)
        B = SymMatrix(a)
        if matrix == "pd_not_row_dominant":
            assert np.linalg.eigvalsh(a).min() > 0 and sufficient_condition(B) is None
        out, points, a_ub = first_weight_lp(monkeypatch, B, 4.0)
        assert len(points) == n + 1 + n * (n - 1) // 2 == 137
        assert a_ub.shape == (137 + n, n + 1)
        expected = MuSearchFailure if matrix == "not_copositive" else MuSearchInconclusive
        assert isinstance(out, expected)


def highs_weight_lp_margin(coef):
    """max t s.t. coef @ mu >= t, MU_LOWER_BOUND <= mu <= 1 by HiGHS: the least row value at its mu."""
    m, n = coef.shape
    res = highs_linprog(np.r_[np.zeros(n), -1.0], A_ub=np.hstack([-coef, np.ones((m, 1))]),
                        b_ub=np.zeros(m), bounds=[(mu_search.MU_LOWER_BOUND, 1.0)] * n + [(None, None)],
                        method="highs")
    assert res.status == 0
    return min(math.fsum(row * res.x[:n]) for row in coef)


def package_weight_lp_margin(B, points, p):
    """The same LP through _weight_lp: the least row value at its unscaled mu = lb + x."""
    solutions, package_linprog = [], mu_search.linprog

    def recording(c, A_ub, b_ub):
        solutions.append(package_linprog(c, A_ub=A_ub, b_ub=b_ub))
        return solutions[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mu_search, "linprog", recording)
        mu_search._weight_lp(B, points, p)
    lb = mu_search.MU_LOWER_BOUND
    mu = lb + np.clip(solutions[-1][:B.n], 0.0, 1.0 - lb)
    coef = p_form_coefficients(B.entries, np.array(points), p)
    return min(math.fsum(row * mu) for row in coef), coef


def b_epsilon_cut_sets():
    """Every cut set find_mu hands the weight LP on b_epsilon, eps = 0.1 ... 0.004, p = 4 and 6.

    Since find_mu's first LP cuts at the edge midpoints too, the p = 4 runs
    alone make only 33 LP calls; the p = 6 runs (29 more, all certified)
    keep the sample above 50.  p = 3 would cost seconds: at eps = 0.02 its
    search runs verify_mu to the cell cap.
    """
    sets, package_weight_lp = [], mu_search._weight_lp

    def recording(B, points, p):
        sets.append((B, [c.copy() for c in points], p))
        return package_weight_lp(B, points, p)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mu_search, "_weight_lp", recording)
        for p in (4.0, 6.0):
            for eps in (0.1, 0.05, 0.02, 0.01, 0.008, 0.007, 0.006, 0.005, 0.004):
                find_mu(b_epsilon(eps), p)
    return sets


def random_cut_sets(count=50, seed=11):
    """Random symmetric matrices with positive diagonal, n = 2-8, cut at the
    vertices, the centroid and one to six random simplex points."""
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(count):
        n = int(rng.integers(2, 9))
        g = rng.standard_normal((n, n))
        a = (g + g.T) / 2.0
        np.fill_diagonal(a, np.abs(np.diag(a)) + 0.5)
        points = [*np.eye(n), np.full(n, 1.0 / n), *rng.dirichlet(np.ones(n), int(rng.integers(1, 7)))]
        sets.append((SymMatrix(a), points, float(rng.choice([3.0, 3.5, 4.0, 6.0]))))
    return sets


class TestWeightLP:
    """The package's tableau simplex against HiGHS, and its pivot rules."""

    @pytest.mark.parametrize("cut_sets", [b_epsilon_cut_sets, random_cut_sets])
    def test_margin_matches_highs(self, cut_sets):
        sets = cut_sets()
        assert len(sets) >= 50
        for B, points, p in sets:
            ours, coef = package_weight_lp_margin(B, points, p)
            theirs = highs_weight_lp_margin(coef)
            # Relative to the margin, or to the coefficients where the margin
            # is within rounding of zero (blocked b_epsilon sets reach 1e-12).
            assert abs(ours - theirs) <= 1e-12 * max(abs(theirs), np.abs(coef).max())

    BEALE = (np.array([0.75, -150.0, 0.02, -6.0]),
             np.array([[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0], [0.0, 0.0, 1.0, 0.0]]),
             np.array([0.0, 0.0, 1.0]))

    def test_beale_cycling_example_ends_at_its_optimum(self):
        # Beale (1955), degenerate at the origin: Dantzig's rule cycles there
        # (next test) until Bland's rule takes over and reaches x = (1/25, 0, 1, 0).
        c, a, b = self.BEALE
        x = mu_search.linprog(c, A_ub=a, b_ub=b)
        assert x == pytest.approx([0.04, 0.0, 1.0, 0.0], abs=1e-15)
        assert c @ x == pytest.approx(0.05, rel=1e-14)

    def test_beale_cycles_under_dantzig_rule_alone(self, monkeypatch):
        monkeypatch.setattr(mu_search, "BLAND_AFTER", mu_search.MAX_PIVOTS)
        with pytest.raises(InternalConsistencyError):
            mu_search.linprog(*self.BEALE)

    def test_unbounded_lp_raises(self):
        with pytest.raises(InternalConsistencyError):
            mu_search.linprog(np.array([1.0, 1.0]), A_ub=np.array([[1.0, -1.0]]), b_ub=np.array([1.0]))

    def test_pivot_cap_raises(self, monkeypatch):
        monkeypatch.setattr(mu_search, "MAX_PIVOTS", 1)
        with pytest.raises(InternalConsistencyError):
            find_mu(b_epsilon(0.1), 4.0)


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

    def test_appendix_form_needs_a_cone_point(self):
        with pytest.raises(ParameterError):
            appendix_limit_form([1.0, -0.5, 1.0])

    def test_appendix_form_equals_limit_p_form(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            c = rng.uniform(0.0, 3.0, 3)
            direct = appendix_limit_form(ConeVector(c))
            via_form = p_form(B_EPS_LIMIT, ConeVector(c), ConeVector([1, 1, 1]), 4.0)
            assert direct == pytest.approx(via_form, rel=1e-12, abs=1e-12)
