"""Neumann discretization and mountain-pass solver tests."""

import json
import tracemalloc

import numpy as np
import pytest
import scipy
from scipy.sparse.linalg import LinearOperator, gmres

from coposolve import (
    CapacityError,
    ConeVector,
    FieldTuple,
    Grid,
    NeumannSolution,
    NotApplicableError,
    ParameterError,
    SolveInconclusive,
    SymMatrix,
    TrivialOnly,
    energy,
    find_direction_d,
    mountain_pass_solve,
    quadratic_form,
    refine_solution,
    reflect_tile,
    theta_seeds,
    write_solution_csv,
)
from coposolve import neumann
from coposolve.forms import cone_power, fsum_terms
from coposolve.neumann import (
    KRYLOV_MAXITER,
    KRYLOV_RTOL,
    _dct_preconditioner,
    _FieldState,
    _gmres,
    _jacobian_product,
    _prolong,
    _quadrature,
    bump_profiles,
    homotopy_mixture,
)
from oracles import central_difference_gradient, mirror_laplacian, mirror_residual

BOUNDARY = SymMatrix([[1, -1], [-1, 1]])
WITNESS = SymMatrix([[1, -2], [-2, 1]])


class TestGrid:
    def test_spacing(self):
        g = Grid(1, 1.0, 129)
        assert g.h == pytest.approx(1.0 / 128.0)
        assert g.weights().sum() == pytest.approx(1.0)

    def test_2d_weights_integrate_to_area(self):
        g = Grid(2, 2.0, 33)
        assert g.weights().sum() == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            Grid(3, 1.0, 33)
        with pytest.raises(ParameterError):
            Grid(1, 0.0, 33)
        with pytest.raises(ParameterError):
            Grid(1, 1.0, 16)


class TestEnergy:
    def test_zero_field(self):
        g = Grid(1, 1.0, 33)
        rep = energy(BOUNDARY, FieldTuple(np.zeros((2, 33))), 4.0, g)
        assert rep.energy == 0.0
        assert rep.residual_inf == 0.0

    def test_constant_pair_on_boundary_matrix(self):
        g = Grid(1, 1.0, 33)
        rep = energy(BOUNDARY, FieldTuple(np.ones((2, 33))), 4.0, g)
        assert rep.energy == pytest.approx(0.0, abs=1e-15)
        assert rep.residual_inf == 0.0

    def test_single_component_identity(self):
        g = Grid(1, 1.0, 33)
        field = FieldTuple(np.stack([np.ones(33), np.zeros(33)]))
        rep = energy(SymMatrix(np.eye(2)), field, 4.0, g)
        assert rep.energy == pytest.approx(-0.25, abs=1e-14)

    def test_energy_splits_exactly(self):
        rng = np.random.default_rng(3)
        g = Grid(1, 1.0, 33)
        field = FieldTuple(rng.uniform(-1.0, 1.0, (2, 33)))
        rep = energy(WITNESS, field, 4.0, g)
        assert rep.energy == rep.dirichlet / 2.0 - rep.phi

    def test_residual_is_weighted_energy_gradient(self):
        rng = np.random.default_rng(5)
        g = Grid(1, 1.0, 17)
        A = WITNESS.entries
        U = rng.uniform(0.2, 1.2, (2, 17))
        U[1, 3:6] = -rng.uniform(0.2, 0.5, 3)
        W, q = g.weights(), _quadrature(g)
        analytic = W * _FieldState(A, U, 4.0).residual(g.h)
        fd = np.zeros_like(U)
        h = 1e-6
        for i in range(2):
            for k in range(17):
                up = U.copy()
                um = U.copy()
                up[i, k] += h
                um[i, k] -= h
                fd[i, k] = (
                    _FieldState(A, up, 4.0).energy(q) - _FieldState(A, um, 4.0).energy(q)
                ) / (2 * h)
        scale = float(np.max(np.abs(fd)))
        assert np.max(np.abs(analytic - fd)) / scale < 1e-8

    def test_2d_constant_pair(self):
        g = Grid(2, 1.0, 17)
        rep = energy(BOUNDARY, FieldTuple(np.ones((2, 17, 17))), 4.0, g)
        assert rep.energy == pytest.approx(0.0, abs=1e-15)
        assert rep.residual_inf == 0.0


class TestFindDirection:
    def test_negative_direction_for_witness_matrix(self):
        d = find_direction_d(WITNESS, 4.0)
        assert d.components == pytest.approx([1.0, 1.0], abs=1e-9)
        squared = d.components**2
        assert quadratic_form(WITNESS, squared) < 0

    def test_constant_solution_blocks(self):
        limit = SymMatrix([[1, -1, -1], [-1, 1, 1], [-1, 1, 1]])
        with pytest.raises(NotApplicableError, match="ConstantSolutionExists"):
            find_direction_d(limit, 4.0)

    def test_strictly_copositive_blocks(self):
        with pytest.raises(NotApplicableError, match="StrictlyCopositive"):
            find_direction_d(SymMatrix(np.eye(2)), 4.0)


class TestThetaSeeds:
    def test_family_shape_and_support(self):
        g = Grid(1, 1.0, 129)
        d = ConeVector([1.0, 1.0])
        seeds = list(theta_seeds(WITNESS, d, g))
        assert len(seeds) == 4 * WITNESS.n + 8
        labels = [name for name, _ in seeds]
        assert any("constant" in s for s in labels)
        assert any("bump" in s for s in labels)
        assert any("mixture" in s for s in labels)
        profiles = bump_profiles(WITNESS, g)
        assert np.all(profiles >= 0.0) and np.all(profiles <= 1.0)
        assert np.all(profiles[0] * profiles[1] == 0.0)
        x = g.axis()
        assert np.all(profiles[0][x > 0.4 + 1e-12] == 0.0)
        assert np.all(profiles[1][x < 0.6 - 1e-12] == 0.0)

    def test_boundary_ray_keeps_component_zero(self):
        g = Grid(1, 1.0, 129)
        profiles = bump_profiles(WITNESS, g)
        mix = homotopy_mixture(np.array([2.0, 0.0]), 0.5, profiles)
        assert np.all(mix[1] == 0.0)

    def test_homotopy_endpoint_is_constant(self):
        g = Grid(1, 1.0, 129)
        profiles = bump_profiles(WITNESS, g)
        mix = homotopy_mixture(np.array([1.5, 0.7]), 0.0, profiles)
        assert np.all(mix[0] == 1.5)
        assert np.all(mix[1] == 0.7)

    def test_capacity_error_when_bumps_do_not_fit(self):
        g = Grid(1, 1.0, 17)
        with pytest.raises(CapacityError):
            bump_profiles(SymMatrix(np.eye(5)), g)


class TestMountainPass:
    def test_identity_collapses(self):
        out = mountain_pass_solve(SymMatrix(np.eye(2)), 4.0, Grid(1, 1.0, 129))
        assert isinstance(out, TrivialOnly)

    def test_constant_shortcut_machine_zero(self):
        out = mountain_pass_solve(BOUNDARY, 4.0, Grid(1, 1.0, 129))
        assert isinstance(out, NeumannSolution)
        assert out.classification == "Constant"
        assert out.report.residual_inf == 0.0

    def test_existence_witness(self):
        out = mountain_pass_solve(WITNESS, 4.0, Grid(1, 1.0, 129))
        assert isinstance(out, NeumannSolution)
        assert out.classification == "Nonconstant"
        assert out.report.residual_inf < 1e-8
        assert out.report.energy > 0
        assert out.field.components.min() >= 0.0
        # criticality ties energy to the gradient integral
        rep = out.report
        assert rep.energy == pytest.approx(rep.dirichlet / 4.0, rel=1e-6)
        assert max(abs(d) for d in rep.identity_defects) < 1e-6

    def test_2d_constant_shortcut(self):
        out = mountain_pass_solve(BOUNDARY, 4.0, Grid(2, 1.0, 17))
        assert isinstance(out, NeumannSolution)
        assert out.report.residual_inf == 0.0

    def test_2d_identity_collapses(self):
        out = mountain_pass_solve(SymMatrix(np.eye(2)), 4.0, Grid(2, 1.0, 25))
        assert isinstance(out, TrivialOnly)

    def test_stalled_newton_is_inconclusive(self, monkeypatch):
        # The seeds that run all escape in the descent at 17 nodes; pin the
        # descent so each reaches the stalled Newton polish.
        monkeypatch.setattr(neumann, "_descend_energy", lambda A, U, p, grid: (U, 0.0, 0.0, False))
        monkeypatch.setattr(neumann, "_newton_polish", lambda A, U, p, grid: (U, 0.5, False))
        out = mountain_pass_solve(WITNESS, 4.0, Grid(1, 1.0, 17))
        assert isinstance(out, SolveInconclusive)
        assert out.best_residual == 0.5
        assert any("newton stalled at residual 5.00e-01" in s for s in out.seed_outcomes)

    def test_best_residual_ignores_collapsed_seeds(self, monkeypatch):
        # Alternate seeds collapse to zero (residual far below 0.5) and stall
        # at 0.5; only the stalled ones leave the outcome undecided.
        polished = []

        def polish(A, U, p, grid):
            polished.append(None)
            if len(polished) % 2:
                return np.zeros_like(U), 1e-33, True
            return U, 0.5, False

        monkeypatch.setattr(neumann, "_descend_energy", lambda A, U, p, grid: (U, 0.0, 0.0, False))
        monkeypatch.setattr(neumann, "_newton_polish", polish)
        out = mountain_pass_solve(WITNESS, 4.0, Grid(1, 1.0, 17))
        assert isinstance(out, SolveInconclusive)
        assert any(s.endswith("collapsed to trivial") for s in out.seed_outcomes)
        assert out.best_residual == 0.5

    def test_rejects_negative_diagonal(self):
        with pytest.raises(ParameterError):
            mountain_pass_solve(SymMatrix([[-1, 0], [0, 1]]), 4.0, Grid(1, 1.0, 33))


def skipped_label(name):
    """Outcome line of a seed that the search skips, or None if it runs."""
    if name.startswith("constant"):
        return f"{name}: skipped (constant field)"
    if name.startswith("bump") or name.startswith("mixture ray=e"):
        return f"{name}: skipped (one component)"
    return None


class TestSeedSkip:
    @pytest.fixture
    def descent_starts(self, monkeypatch):
        """Start fields handed to the Armijo descent, in call order."""
        starts = []
        descend = neumann._descend_energy

        def recorded(A, U0, p, grid):
            starts.append(U0.copy())
            return descend(A, U0, p, grid)

        monkeypatch.setattr(neumann, "_descend_energy", recorded)
        return starts

    def test_descent_starts_are_nonconstant_with_two_components(self, descent_starts):
        out = mountain_pass_solve(WITNESS, 4.0, Grid(1, 1.0, 65))
        assert isinstance(out, NeumannSolution)
        assert len(descent_starts) == 5
        for U in descent_starts:
            flat = U.reshape(U.shape[0], -1)
            assert not np.all(flat == flat[:, :1])
            assert np.count_nonzero(np.any(flat != 0.0, axis=1)) >= 2

    def test_trivial_report_names_every_seed(self, monkeypatch):
        # Every seed that runs collapses, so the report is TrivialOnly.
        monkeypatch.setattr(neumann, "_newton_polish",
                            lambda A, U, p, grid: (np.zeros_like(U), 0.0, True))
        g = Grid(1, 1.0, 65)
        out = mountain_pass_solve(WITNESS, 4.0, g)
        assert isinstance(out, TrivialOnly)
        names = [name for name, _ in theta_seeds(WITNESS, find_direction_d(WITNESS, 4.0), g)]
        expected = [skipped_label(name) or f"{name}: collapsed to trivial" for name in names]
        assert list(out.seed_outcomes) == expected
        # Seven of the family's first twelve seeds are skipped.
        assert sum(skipped_label(name) is not None for name in names[:12]) == 7

    def test_scalar_input_runs_no_descent(self, descent_starts):
        out = mountain_pass_solve(SymMatrix([[1.0]]), 4.0, Grid(1, 1.0, 33))
        assert isinstance(out, TrivialOnly)
        assert descent_starts == []
        assert len(out.seed_outcomes) == 12
        assert all(": skipped (" in line for line in out.seed_outcomes)

    def test_skip_applies_to_initial_fields(self, descent_starts, monkeypatch):
        g = Grid(1, 1.0, 33)
        U = np.zeros((2,) + g.shape)
        U[0] = np.linspace(0.0, 1.0, 33)
        monkeypatch.setattr(neumann, "theta_seeds", lambda *args: iter([("ramp", FieldTuple(U))]))
        out = mountain_pass_solve(WITNESS, 4.0, g)
        assert out == TrivialOnly(("ramp: skipped (one component)",))
        assert descent_starts == []

    def test_seed_family_is_drawn_one_field_at_a_time(self, monkeypatch):
        # With descent and polish patched out, the search holds a few fields
        # at a time, never the whole 4n + 8 family.
        monkeypatch.setattr(neumann, "_descend_energy", lambda A, U, p, grid: (U, 0.0, 0.0, False))
        monkeypatch.setattr(neumann, "_newton_polish",
                            lambda A, U, p, grid: (np.zeros_like(U), 0.0, True))
        n, g = 12, Grid(2, 1.0, 65)
        B = SymMatrix(3.0 * np.eye(n) - 2.0 * np.ones((n, n)))
        family_bytes = (4 * n + 8) * n * 65**2 * 8
        tracemalloc.start()
        try:
            out = mountain_pass_solve(B, 4.0, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert isinstance(out, TrivialOnly) and len(out.seed_outcomes) == 4 * n + 8
        assert peak < family_bytes / 4

    @pytest.mark.parametrize("dim", [1, 2])
    def test_weighted_laplacian_sums_to_zero(self, dim):
        # The one-component skip rests on sum W L u = 0 (mirror closure).
        g = Grid(dim, 1.0, 65 if dim == 1 else 33)
        U = np.random.default_rng(31).uniform(-1.0, 1.0, (3,) + g.shape)
        weighted = g.weights() * neumann._laplacian(U, g.h)
        total = weighted.reshape(3, -1).sum(axis=1)
        scale = np.abs(weighted).reshape(3, -1).sum(axis=1)
        assert np.all(np.abs(total) <= 1e-12 * scale)


class TestNewtonKrylov:
    @staticmethod
    def mixed_sign_field(grid, seed):
        rng = np.random.default_rng(seed)
        U = rng.uniform(0.2, 1.5, (2,) + grid.shape)
        # Bounded away from 0, so the central difference never crosses a kink.
        U[1] *= np.where(rng.uniform(size=grid.shape) < 0.3, -1.0, 1.0)
        return U

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("p", [4.0, 5.0])
    def test_jacobian_product_matches_central_difference(self, dim, p):
        g = Grid(dim, 1.0, 17)
        A = WITNESS.entries
        U = self.mixed_sign_field(g, 13)
        D = _FieldState(A, U, p).nodal_block()
        # Dense Jacobian from matrix-free products with the unit vectors.
        eye = np.eye(U.size).reshape((U.size,) + U.shape)
        jac = np.stack([_jacobian_product(D, e, g.h).ravel() for e in eye], axis=1)
        w = np.random.default_rng(17).standard_normal(U.size)
        fd = central_difference_gradient(
            lambda x: float(w @ _FieldState(A, x.reshape(U.shape), p).residual(g.h).ravel()),
            U.ravel(), 1e-6,
        )
        assert np.max(np.abs(fd - jac.T @ w)) <= 1e-6 * np.max(np.abs(fd))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_preconditioner_inverts_shifted_laplacian_on_mean_zero_fields(self, dim):
        g = Grid(dim, 2.0, 17)
        W = g.weights()
        v = np.random.default_rng(19).standard_normal((2,) + g.shape)
        v -= (np.sum(v * W, axis=tuple(range(1, dim + 1))) / W.sum()).reshape((2,) + (1,) * dim)
        shifted = -mirror_laplacian(v, g.h) + v
        # D = 0: the constant-mode block is singular, the mean-zero field never needs it.
        precondition = _dct_preconditioner(np.zeros((2, 2) + g.shape), g)
        back = precondition(shifted.ravel()).reshape(v.shape)
        assert np.max(np.abs(back - v)) <= 1e-11 * np.max(np.abs(v))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_preconditioner_exact_when_every_mode_is_coarse(self, dim, monkeypatch):
        monkeypatch.setattr(neumann, "COARSE_SIZE", 10**6)
        g = Grid(dim, 1.0, 17)
        rng = np.random.default_rng(23)
        D = 1e5 * rng.standard_normal((2, 2) + g.shape)
        v = rng.standard_normal((2,) + g.shape)
        back = _jacobian_product(D, _dct_preconditioner(D, g)(v.ravel()).reshape(v.shape), g.h)
        assert np.max(np.abs(back - v)) <= 1e-9

    def test_preconditioner_constants_are_shared_read_only(self):
        g = Grid(2, 1.0, 17)
        D = np.ones((2, 2) + g.shape)
        x = np.random.default_rng(29).standard_normal(2 * 17 * 17)
        first = _dct_preconditioner(D, g)(x)
        hits = neumann._dct_spectrum.cache_info().hits, neumann._dct_modes.cache_info().hits
        assert np.array_equal(_dct_preconditioner(D, g)(x), first)
        assert (neumann._dct_spectrum.cache_info().hits, neumann._dct_modes.cache_info().hits) == (
            hits[0] + 1, hits[1] + 1)
        cached = [*neumann._dct_spectrum(g), *neumann._dct_modes(17, 2)]
        assert not any(a.flags.writeable for a in cached)

    def test_2d_existence_witness(self):
        g = Grid(2, 1.0, 25)
        out = mountain_pass_solve(WITNESS, 4.0, g)
        assert isinstance(out, NeumannSolution)
        assert out.classification == "Nonconstant"
        U = out.field.components
        assert U.min() >= 0.0 and U.max() > 1.0
        assert np.max(np.abs(mirror_residual(WITNESS.entries, U, 4.0, g.h))) < 1e-8

    def test_accepted_solutions_ranked_by_energy(self, monkeypatch):
        # Two seeds converging to different solutions; their residuals differ
        # by round-off only (here the higher-energy one has the smaller).
        B = SymMatrix([[1, -2, -2], [-2, 1, -2], [-2, -2, 1]])
        g = Grid(1, 1.0, 49)
        seeds = dict(theta_seeds(B, ConeVector([1.0, 1.0, 1.0]), g))
        low, high = "mixture ray=d t=0.25", "mixture ray=d t=0.75"

        def solve_from(*names):
            monkeypatch.setattr(neumann, "theta_seeds",
                                lambda *args: iter([(name, seeds[name]) for name in names]))
            return mountain_pass_solve(B, 4.0, g)

        alone = {name: solve_from(name) for name in (low, high)}
        assert alone[low].report.energy < alone[high].report.energy - 100.0
        for order in ((low, high), (high, low)):
            out = solve_from(*order)
            assert out.seed_provenance == low
            assert out.report.energy == alone[low].report.energy


def signed_field(grid, seed, n=2):
    """Random field with both signs in every component, bounded away from zero."""
    rng = np.random.default_rng(seed)
    U = rng.uniform(0.2, 1.5, (n,) + grid.shape)
    return U * np.where(rng.uniform(size=U.shape) < 0.3, -1.0, 1.0)


def bit_equal(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


SCIPY_VERSION = tuple(int(part) for part in scipy.__version__.split(".")[:2])


@pytest.mark.skipif(SCIPY_VERSION < (1, 12),
                    reason="scipy before 1.12 runs the Fortran GMRES, whose arithmetic differs")
class TestGmresCycle:
    """_gmres against scipy.sparse.linalg.gmres with the same operators, bit for bit."""

    @staticmethod
    def both(D, r, grid):
        """(_gmres result, scipy result, Jacobian products _gmres took) for (-L + D) x = -r."""
        products = []

        def jac(v):
            products.append(None)
            return _jacobian_product(D, v.reshape(r.shape), grid.h).ravel()

        precondition = _dct_preconditioner(D, grid)
        ours = _gmres(jac, precondition, -r.ravel())
        steps = len(products)
        shape = (r.size, r.size)
        theirs, _ = gmres(LinearOperator(shape, jac, dtype=float), -r.ravel(), rtol=KRYLOV_RTOL,
                          restart=KRYLOV_MAXITER, maxiter=1,
                          M=LinearOperator(shape, precondition, dtype=float))
        return ours, theirs, steps

    @pytest.mark.parametrize("dim, nodes", [(1, 65), (2, 17)])
    @pytest.mark.parametrize("seed", [41, 47])
    @pytest.mark.parametrize("scale, full_cycle", [(1.0, False), (30.0, True)])
    def test_newton_systems(self, dim, nodes, seed, scale, full_cycle):
        # At amplitude 1 the cycle stops early at the tolerance; at 30 it runs
        # every iteration of the cycle.
        g = Grid(dim, 1.0, nodes)
        U = scale * signed_field(g, seed)
        state = _FieldState(WITNESS.entries, U, 4.0)
        ours, theirs, steps = self.both(state.nodal_block(), state.residual(g.h), g)
        assert bit_equal(ours, theirs)
        assert (steps == KRYLOV_MAXITER) == full_cycle

    @pytest.mark.parametrize("dim, nodes", [(1, 65), (2, 17)])
    def test_lucky_breakdown(self, dim, nodes):
        # D = I: the preconditioner inverts -L + I exactly, so one step solves it.
        g = Grid(dim, 1.0, nodes)
        D = np.zeros((2, 2) + g.shape)
        D[0, 0] = D[1, 1] = 1.0
        ours, theirs, steps = self.both(D, np.random.default_rng(59).standard_normal((2,) + g.shape), g)
        assert bit_equal(ours, theirs)
        assert steps == 1

    def test_zero_right_side(self):
        g = Grid(1, 1.0, 65)
        D = _FieldState(WITNESS.entries, signed_field(g, 61), 4.0).nodal_block()
        ours, theirs, steps = self.both(D, np.zeros((2,) + g.shape), g)
        assert bit_equal(ours, theirs)
        assert steps == 0 and not np.any(ours)


def two_call_descent(A, U0, p, grid):
    """The Armijo loop as it was before the fused evaluation: energy and residual called apart."""
    W, q = grid.weights(), _quadrature(grid)
    U = U0.copy()
    E = _FieldState(A, U, p).energy(q)
    grad = W * _FieldState(A, U, p).residual(grid.h)
    gnorm = float(np.sqrt(np.sum(grad**2)))
    best_U, best_g = U.copy(), gnorm
    step = 0.1 / max(1.0, gnorm)
    floor = 1e-10 * max(1.0, float(np.max(np.abs(U0))))
    g0 = gnorm
    energy_floor = -30.0 * (1.0 + abs(E))
    amp_ceiling = 8.0 * (1.0 + float(np.max(np.abs(U0))))
    escaped = False
    for _ in range(neumann.MAX_DESCENT_STEPS):
        if gnorm < floor:
            break
        cand = U - step * grad
        Ec = _FieldState(A, cand, p).energy(q)
        if Ec < E - 1e-4 * step * gnorm**2:
            U, E = cand, Ec
            grad = W * _FieldState(A, U, p).residual(grid.h)
            gnorm = float(np.sqrt(np.sum(grad**2)))
            if gnorm < best_g:
                best_U, best_g = U.copy(), gnorm
            step *= 1.3
            if E < energy_floor or np.max(np.abs(U)) > amp_ceiling:
                escaped = True
                break
        else:
            step *= 0.5
            if step < 1e-14:
                break
    return best_U, best_g, g0, escaped


def per_component_energy_parts(A, U, p, grid):
    """(Dirichlet term, Phi) summed one component at a time, each grid call apart."""
    h, w, W = grid.h, grid.weights_1d(), grid.weights()
    dirichlet = 0
    for u in U:
        if grid.dim == 1:
            dirichlet += float(np.sum(np.diff(u) ** 2)) / h
        else:
            dx, dy = np.diff(u, axis=0), np.diff(u, axis=1)
            dirichlet += float((dx**2).sum(axis=0) @ w + w @ (dy**2).sum(axis=1)) / h
    dirichlet += float(np.sum(W * np.minimum(U, 0.0) ** 2))
    flat = cone_power(np.maximum(U, 0.0), p / 2.0).reshape(U.shape[0], -1)
    return dirichlet, fsum_terms(A * ((flat * W.ravel()) @ flat.T)) / p


class TestFusedEvaluation:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("p", [3.0, 4.0, 5.0])
    def test_energy_and_residual(self, dim, p):
        g = Grid(dim, 1.0, 65 if dim == 1 else 17)
        B = SymMatrix([[1, -2, 0.5], [-2, 1, -1], [0.5, -1, 2]])
        # Summation order shows in the last bit on some fields only.
        for seed in range(67, 75):
            U = signed_field(g, seed, n=3)
            parts = _FieldState(B.entries, U, p).parts(_quadrature(g))
            assert parts == per_component_energy_parts(B.entries, U, p, g)
        state = _FieldState(B.entries, U, p)
        assert state.energy(_quadrature(g)) == energy(B, FieldTuple(U), p, g).energy
        oracle = mirror_residual(B.entries, U, p, g.h)
        assert np.max(np.abs(state.residual(g.h) - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_descent_matches_two_call_loop(self):
        g = Grid(1, 1.0, 65)
        seeds = dict(theta_seeds(WITNESS, find_direction_d(WITNESS, 4.0), g))
        U0 = seeds["combined bumps x0.9"].components
        fused = neumann._descend_energy(WITNESS.entries, U0, 4.0, g)
        reference = two_call_descent(WITNESS.entries, U0, 4.0, g)
        assert bit_equal(fused[0], reference[0])
        assert fused[1:] == reference[1:]


@pytest.fixture
def krylov_calls(monkeypatch):
    """List that grows by one entry per Newton step (one GMRES solve each)."""
    calls = []
    solve = neumann._krylov_step

    def counted(D, r, grid):
        calls.append(None)
        return solve(D, r, grid)

    monkeypatch.setattr(neumann, "_krylov_step", counted)
    return calls


def without_exits(monkeypatch):
    """Histories never fill the collapse or stall window: every seed runs to the cap."""
    monkeypatch.setattr(neumann, "COLLAPSE_STEPS", neumann.MAX_NEWTON_STEPS + 1)
    monkeypatch.setattr(neumann, "STALL_WINDOW", neumann.MAX_NEWTON_STEPS + 1)


class TestNewtonExits:
    def test_collapsing_seed_exits_early(self, krylov_calls, monkeypatch):
        g = Grid(1, 1.0, 33)
        d = find_direction_d(WITNESS, 4.0).components
        seed = 0.5 * d[:, None] * np.ones(g.shape)
        U, rnorm, converged = neumann._newton_polish(WITNESS.entries, seed, 4.0, g)
        steps = len(krylov_calls)
        assert converged and rnorm < neumann.RESIDUAL_TOL
        assert np.max(np.abs(U)) <= neumann.NONTRIVIALITY_THRESHOLD
        assert steps <= neumann.MAX_NEWTON_STEPS // 2
        # Without the exit the cubic zero is approached at 2/3 per step to the cap.
        without_exits(monkeypatch)
        krylov_calls.clear()
        _, _, converged = neumann._newton_polish(WITNESS.entries, seed, 4.0, g)
        assert converged and len(krylov_calls) == neumann.MAX_NEWTON_STEPS

    def test_stalled_seed_exits_early(self, krylov_calls, monkeypatch):
        g = Grid(1, 1.0, 513)
        seeds = dict(theta_seeds(WITNESS, find_direction_d(WITNESS, 4.0), g))
        start, _, _, escaped = neumann._descend_energy(
            WITNESS.entries, seeds["mixture ray=e0 t=0.5"].components, 4.0, g
        )
        assert not escaped
        _, rnorm, converged = neumann._newton_polish(WITNESS.entries, start, 4.0, g)
        assert not converged and rnorm > 1.0
        assert len(krylov_calls) <= 3 * neumann.STALL_WINDOW
        without_exits(monkeypatch)
        krylov_calls.clear()
        _, rnorm, converged = neumann._newton_polish(WITNESS.entries, start, 4.0, g)
        assert not converged and rnorm > 1.0
        assert len(krylov_calls) == neumann.MAX_NEWTON_STEPS

    def test_converging_refinement_takes_neither_exit(self, krylov_calls, monkeypatch):
        coarse, fine = Grid(1, 1.0, 33), Grid(1, 1.0, 65)
        solution = mountain_pass_solve(WITNESS, 4.0, coarse)
        krylov_calls.clear()
        refined = refine_solution(WITNESS, solution, 4.0, coarse, fine)
        steps = len(krylov_calls)
        without_exits(monkeypatch)
        krylov_calls.clear()
        reference = refine_solution(WITNESS, solution, 4.0, coarse, fine)
        assert len(krylov_calls) == steps
        assert np.array_equal(refined.field.components, reference.field.components)
        assert refined.report == reference.report


class TestRefine:
    def test_1d_prolongation_is_np_interp(self):
        rng = np.random.default_rng(29)
        for coarse, fine in ((129, 257), (33, 129), (20, 47)):
            g0, g1 = Grid(1, 1.0, coarse), Grid(1, 1.0, fine)
            U = rng.standard_normal((3, coarse))
            expected = np.stack([np.interp(g1.axis(), g0.axis(), u) for u in U])
            assert np.array_equal(_prolong(U, g0, g1), expected)

    def test_2d_prolongation_reproduces_bilinear_field(self):
        g0, g1 = Grid(2, 2.0, 17), Grid(2, 2.0, 41)

        def bilinear(x):
            X, Y = x[:, None], x[None, :]
            return np.stack([1.0 + 2.0 * X - 3.0 * Y + 0.5 * X * Y, 4.0 - X * Y])

        assert np.max(np.abs(_prolong(bilinear(g0.axis()), g0, g1) - bilinear(g1.axis()))) < 1e-14


class TestReflectTile:
    def test_constant_field_unchanged(self):
        g = Grid(1, 1.0, 17)
        field = FieldTuple(np.ones((2, 17)))
        ext, eg = reflect_tile(field, g, 2)
        assert eg.points_per_side == 16 * 4 + 1
        assert eg.extent == 4.0
        assert np.all(ext.components == 1.0)

    def test_mirror_symmetry_exact(self):
        rng = np.random.default_rng(7)
        g = Grid(1, 1.0, 17)
        field = FieldTuple(rng.uniform(0.0, 1.0, (2, 17)))
        ext, _ = reflect_tile(field, g, 1)
        U = ext.components
        assert np.array_equal(U, U[:, ::-1])

    def test_interior_residual_preserved(self):
        rng = np.random.default_rng(9)
        g = Grid(1, 1.0, 33)
        field = FieldTuple(rng.uniform(0.1, 1.0, (2, 33)))
        base = energy(WITNESS, field, 4.0, g)
        ext, eg = reflect_tile(field, g, 2)
        extended = energy(WITNESS, ext, 4.0, eg)
        assert abs(extended.residual_inf - base.residual_inf) <= 1e-12

    def test_2d_reflection(self):
        rng = np.random.default_rng(11)
        g = Grid(2, 1.0, 17)
        field = FieldTuple(rng.uniform(0.0, 1.0, (2, 17, 17)))
        base = energy(WITNESS, field, 4.0, g)
        ext, eg = reflect_tile(field, g, 1)
        extended = energy(WITNESS, ext, 4.0, eg)
        assert abs(extended.residual_inf - base.residual_inf) <= 1e-12

    def test_copies_validation(self):
        g = Grid(1, 1.0, 17)
        with pytest.raises(ParameterError):
            reflect_tile(FieldTuple(np.ones((2, 17))), g, 0)


class TestSolutionDump:
    def test_csv_and_sidecar(self, tmp_path):
        out = mountain_pass_solve(BOUNDARY, 4.0, Grid(1, 1.0, 33))
        path = tmp_path / "sol.csv"
        sidecar = write_solution_csv(out, Grid(1, 1.0, 33), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,u1,u2"
        assert len(lines) == 34
        doc = json.loads(sidecar.read_text())
        assert doc["classification"] == "Constant"
        assert doc["residual_inf"] == 0.0
