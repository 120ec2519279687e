"""Neumann discretization and mountain-pass solver tests."""

import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_banded

from coposolve import (
    CapacityError,
    ConeVector,
    DimensionError,
    EnergyReport,
    FieldTuple,
    Grid,
    NeumannSolution,
    NotApplicableError,
    ParameterError,
    PreconditionError,
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
    _FieldState,
    _newton_step,
    _quadrature,
    bump_profiles,
    homotopy_mixture,
)
from oracles import central_difference_gradient, mirror_laplacian, mirror_residual

BOUNDARY = SymMatrix([[1, -1], [-1, 1]])
WITNESS = SymMatrix([[1, -2], [-2, 1]])
WITNESS_3 = SymMatrix([[1, -2, -2], [-2, 1, -2], [-2, -2, 1]])
# Labels of the seed family for n >= 2, in the order it yields them.
FAMILY = ["combined bumps x0.9", "combined bumps x1.5",
          "mixture ray=d t=0.25", "mixture ray=d t=0.5", "mixture ray=d t=0.75"]


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
            Grid(1, np.inf, 33)
        with pytest.raises(ParameterError):
            Grid(1, np.nan, 33)
        with pytest.raises(ParameterError):
            Grid(1, 1.0, 16)
        with pytest.raises(ParameterError):
            Grid(1, 1.0, 33.5)

    @pytest.mark.parametrize("size", [np.nan, np.inf, -np.inf])
    def test_non_finite_size_is_a_parameter_error(self, size):
        with pytest.raises(ParameterError):
            Grid(1, 1.0, size)

    def test_integral_sizes_are_read_as_ints(self):
        assert Grid(1.0, 1.0, 33).shape == (33,)
        g = Grid(np.int64(2), 1.0, np.int64(17))
        assert g.shape == (17, 17) and g == Grid(2, 1.0, 17)


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
        analytic = W * live_residual(_FieldState(A, U[None], 4.0, q))[0]
        fd = np.zeros_like(U)
        h = 1e-6
        for i in range(2):
            for k in range(17):
                up = U.copy()
                um = U.copy()
                up[i, k] += h
                um[i, k] -= h
                fd[i, k] = (
                    _FieldState(A, up[None], 4.0, q).energies()[0] - _FieldState(A, um[None], 4.0, q).energies()[0]
                ) / (2 * h)
        scale = float(np.max(np.abs(fd)))
        assert np.max(np.abs(analytic - fd)) / scale < 1e-8

    def test_2d_constant_pair(self):
        g = Grid(2, 1.0, 17)
        rep = energy(BOUNDARY, FieldTuple(np.ones((2, 17, 17))), 4.0, g)
        assert rep.energy == pytest.approx(0.0, abs=1e-15)
        assert rep.residual_inf == 0.0

    @pytest.mark.parametrize("shape", [(3, 33), (2, 17), (2, 33, 33)])
    def test_shape_must_match_n_and_grid(self, shape):
        with pytest.raises(ParameterError):
            energy(WITNESS, FieldTuple(np.ones(shape)), 4.0, Grid(1, 1.0, 33))


class TestFieldTuple:
    def test_components_are_a_read_only_copy(self):
        U = np.ones((2, 17))
        field = FieldTuple(U)
        assert not field.components.flags.writeable and field.components.flags.c_contiguous
        assert not np.shares_memory(field.components, U)
        with pytest.raises(ValueError):
            field.components[0, 0] = 2.0
        U[0, 0] = 2.0
        assert field.components[0, 0] == 1.0

    @pytest.mark.parametrize("shape", [(), (17,)])
    def test_needs_a_component_axis_and_a_node_axis(self, shape):
        with pytest.raises(ParameterError):
            FieldTuple(np.ones(shape))


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
        assert [name for name, _ in seeds] == FAMILY
        for _, seed in seeds:
            flat = seed.components.reshape(WITNESS.n, -1)
            assert not np.all(flat == flat[:, :1])
            assert np.all(np.any(flat != 0.0, axis=1))
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

    def test_direction_length_must_match(self):
        with pytest.raises(DimensionError):
            theta_seeds(WITNESS, ConeVector([1, 1, 1]), Grid(1, 1.0, 33))

    def test_2d_grid_is_a_parameter_error(self):
        g = Grid(2, 1.0, 33)
        with pytest.raises(ParameterError):
            theta_seeds(WITNESS, ConeVector([1.0, 1.0]), g)
        with pytest.raises(ParameterError):
            bump_profiles(WITNESS, g)

    def test_direction_on_the_cone_boundary_is_a_parameter_error(self):
        with pytest.raises(ParameterError, match="interior"):
            theta_seeds(WITNESS, ConeVector([1.0, 0.0]), Grid(1, 1.0, 33))


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
        line = mountain_pass_solve(SymMatrix(np.eye(2)), 4.0, Grid(1, 1.0, 25))
        assert out.seed_outcomes == line.seed_outcomes

    def test_2d_three_component_witness(self):
        g = Grid(2, 1.0, 49)
        out = mountain_pass_solve(WITNESS_3, 4.0, g)
        assert isinstance(out, NeumannSolution)
        U = out.field.components
        assert U.shape == (3, 49, 49) and U.min() >= 0.0
        assert np.max(np.abs(mirror_residual(WITNESS_3.entries, U, 4.0, g.h))) < 1e-8

    def test_stalled_newton_is_inconclusive(self, monkeypatch):
        # The seeds that run all escape in the descent at 17 nodes; pin the
        # descent so each reaches the stalled Newton polish.
        monkeypatch.setattr(neumann, "_descend_energy", lambda A, U, p, grid: [(V, 0.0, 0.0, False) for V in U])
        monkeypatch.setattr(neumann, "_newton_polish", lambda A, U, p, grid: [(V, 0.5, False) for V in U])
        out = mountain_pass_solve(WITNESS, 4.0, Grid(1, 1.0, 17))
        assert isinstance(out, SolveInconclusive)
        assert out.best_residual == 0.5
        assert any("newton stalled at residual 5.00e-01" in s for s in out.seed_outcomes)

    def test_negative_and_clamped_seeds_are_inconclusive(self, monkeypatch):
        # Alternate seeds polish to a field with a negative part and to the
        # seed itself, which is no solution, so its clamped residual fails.
        polished = []

        def polish_one(U):
            polished.append(None)
            if len(polished) % 2:
                return U - 1e-3, 0.25, True
            return U, 1e-12, True

        def polish(A, U, p, grid):
            return [polish_one(V) for V in U]

        monkeypatch.setattr(neumann, "_descend_energy", lambda A, U, p, grid: [(V, 0.0, 0.0, False) for V in U])
        monkeypatch.setattr(neumann, "_newton_polish", polish)
        out = mountain_pass_solve(WITNESS, 4.0, Grid(1, 1.0, 17))
        assert isinstance(out, SolveInconclusive)
        assert any(": negative part -" in s for s in out.seed_outcomes)
        assert any(": clamped residual " in s for s in out.seed_outcomes)
        assert out.best_residual == 0.25

    def test_best_residual_ignores_collapsed_seeds(self, monkeypatch):
        # Alternate seeds collapse to zero (residual far below 0.5) and stall
        # at 0.5; only the stalled ones leave the outcome undecided.
        polished = []

        def polish_one(U):
            polished.append(None)
            if len(polished) % 2:
                return np.zeros_like(U), 1e-33, True
            return U, 0.5, False

        def polish(A, U, p, grid):
            return [polish_one(V) for V in U]

        monkeypatch.setattr(neumann, "_descend_energy", lambda A, U, p, grid: [(V, 0.0, 0.0, False) for V in U])
        monkeypatch.setattr(neumann, "_newton_polish", polish)
        out = mountain_pass_solve(WITNESS, 4.0, Grid(1, 1.0, 17))
        assert isinstance(out, SolveInconclusive)
        assert any(s.endswith("collapsed to trivial") for s in out.seed_outcomes)
        assert out.best_residual == 0.5

    def test_rejects_negative_diagonal(self):
        with pytest.raises(PreconditionError):
            mountain_pass_solve(SymMatrix([[-1, 0], [0, 1]]), 4.0, Grid(1, 1.0, 33))


class TestSeedSkip:
    @pytest.fixture
    def descent_starts(self, monkeypatch):
        """Start fields handed to the Armijo descent, in call order."""
        starts = []
        descend = neumann._descend_energy

        def recorded(A, U0, p, grid):
            starts.extend(U.copy() for U in U0)
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
                            lambda A, U, p, grid: [(np.zeros_like(V), 0.0, True) for V in U])
        g = Grid(1, 1.0, 65)
        out = mountain_pass_solve(WITNESS, 4.0, g)
        assert isinstance(out, TrivialOnly)
        assert list(out.seed_outcomes) == [f"{name}: collapsed to trivial" for name in FAMILY]

    def test_scalar_input_runs_no_descent(self, descent_starts):
        out = mountain_pass_solve(SymMatrix([[1.0]]), 4.0, Grid(1, 1.0, 33))
        assert isinstance(out, TrivialOnly)
        assert descent_starts == []
        assert out.seed_outcomes == ()

    def test_every_mixture_is_built_before_the_first_descent(self, monkeypatch):
        # (stack size, mixtures built) at each descent: the whole family is
        # built before any stack descends, and the bound only splits it.  The
        # two bump seeds come first, then the three mixtures; at 65 nodes the
        # bound holds the whole family.
        built, at_descent = [], []
        mixture = neumann.homotopy_mixture

        def counted(*args):
            built.append(None)
            return mixture(*args)

        def descend(A, U, p, grid):
            at_descent.append((len(U), len(built)))
            return [(V, 0.0, 0.0, False) for V in U]

        monkeypatch.setattr(neumann, "homotopy_mixture", counted)
        monkeypatch.setattr(neumann, "_descend_energy", descend)
        monkeypatch.setattr(neumann, "_newton_polish",
                            lambda A, U, p, grid: [(np.zeros_like(V), 0.0, True) for V in U])
        bound = neumann.DESCENT_STACK_VALUES
        for seeds_per_stack, expected in ((None, [(5, 3)]), (2, [(2, 3), (2, 3), (1, 3)]),
                                          (1, [(1, 3)] * 5)):
            values = bound if seeds_per_stack is None else seeds_per_stack * WITNESS.n * 65
            monkeypatch.setattr(neumann, "DESCENT_STACK_VALUES", values)
            built.clear()
            at_descent.clear()
            out = mountain_pass_solve(WITNESS, 4.0, Grid(1, 1.0, 65))
            assert isinstance(out, TrivialOnly)
            assert at_descent == expected

    def test_seed_family_is_drawn_one_field_at_a_time(self, monkeypatch):
        # With descent and polish patched out, the search holds the five
        # seeds and a few working fields, well under a quarter of the 4n + 8
        # fields of the family it once built.  The nodes are many enough that
        # the fields, not the face pass, set the peak.
        monkeypatch.setattr(neumann, "_descend_energy", lambda A, U, p, grid: [(V, 0.0, 0.0, False) for V in U])
        monkeypatch.setattr(neumann, "_newton_polish",
                            lambda A, U, p, grid: [(np.zeros_like(V), 0.0, True) for V in U])
        n, g = 12, Grid(1, 1.0, 4097)
        B = SymMatrix(3.0 * np.eye(n) - 2.0 * np.ones((n, n)))
        family_bytes = (4 * n + 8) * n * 4097 * 8
        tracemalloc.start()
        try:
            out = mountain_pass_solve(B, 4.0, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert isinstance(out, TrivialOnly) and len(out.seed_outcomes) == 5
        assert peak < family_bytes / 4

    @pytest.mark.parametrize("dim", [1, 2])
    def test_weighted_laplacian_sums_to_zero(self, dim):
        # That a one-component field reaches only u = 0, and so the empty
        # family at n = 1, rests on sum W L u = 0 (mirror closure).
        g = Grid(dim, 1.0, 65 if dim == 1 else 33)
        U = np.random.default_rng(31).uniform(-1.0, 1.0, (3,) + g.shape)
        weighted = g.weights() * neumann._laplacian(U[None], g.h, np.empty((1,) + U.shape),
                                                    np.empty((1,) + U.shape))[0]
        total = weighted.reshape(3, -1).sum(axis=1)
        scale = np.abs(weighted).reshape(3, -1).sum(axis=1)
        assert np.all(np.abs(total) <= 1e-12 * scale)


def jacobian_product(D, V, h):
    """(-L + D) V for a field V of shape (n, m), from the oracle's mirror Laplacian."""
    return -mirror_laplacian(V, h) + np.einsum("ijx,jx->ix", D, V)


SRC = Path(__file__).resolve().parents[1] / "src"

STEP_PROBE = textwrap.dedent("""
    import numpy as np
    from coposolve.neumann import _newton_step

    rng = np.random.default_rng(83)
    n, m = 16, 513
    D = rng.standard_normal((n, n, m))
    print(_newton_step(D, rng.standard_normal((n, m)), 1.0 / (m - 1)).tobytes().hex())
""")


class TestNewtonStep:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
    @pytest.mark.parametrize("m", [17, 513])
    def test_solves_the_newton_system(self, n, m):
        rng = np.random.default_rng(10 * n + m)
        h = 1.0 / (m - 1)
        D = rng.standard_normal((n, n, m))
        r = rng.standard_normal((n, m))
        delta = _newton_step(D, r, h)
        # Relative to |-L + D| |delta| + |r|: the backward error of the solve.
        scale = (4.0 / h**2 + np.abs(D).sum(axis=1).max()) * np.abs(delta).max() + np.abs(r).max()
        assert np.max(np.abs(jacobian_product(D, delta, h) + r)) <= 1e-10 * scale

    def test_zero_component_gets_zero_step(self):
        # The zero component's block is -L alone, singular with a zero right
        # side; the others are solved without it.
        g = Grid(1, 1.0, 65)
        U = signed_field(g, 79, n=3)
        U[1] = 0.0
        state = _FieldState(WITNESS_3.entries, U[None], 4.0, _quadrature(g))
        D, r = state.nodal_block()[0], live_residual(state)[0]
        delta = _newton_step(D, r, g.h)
        assert np.all(delta[1] == 0.0) and np.all(np.isfinite(delta))
        assert np.max(np.abs(jacobian_product(D, delta, g.h) + r)) <= 1e-10 * np.max(np.abs(r))

    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("m", [17, 513])
    def test_band_is_the_solve_banded_assembly(self, n, m):
        # Below gbsv's n fill-in rows, the band built from the cached layout
        # holds the bytes of the solve_banded assembly, signed zeros included.
        rng = np.random.default_rng(20 * n + m)
        D = rng.standard_normal((n, n, m))
        D[rng.uniform(size=D.shape) < 0.2] = 0.0
        D[rng.uniform(size=D.shape) < 0.2] = -0.0
        band = neumann._band(D, 1.0 / (m - 1))
        assert band.shape == (3 * n + 1, n * m) and not band[:n].any()
        assert bit_equal(np.ascontiguousarray(band[n:]), legacy_band(D, 1.0 / (m - 1)))

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    @pytest.mark.parametrize("m", [17, 513])
    def test_same_bits_as_solve_banded(self, n, m):
        # One live component is solved by gtsv, as solve_banded does; more by gbsv.
        rng = np.random.default_rng(30 * n + m)
        h = 1.0 / (m - 1)
        D = rng.standard_normal((n, n, m)) * 10.0 ** rng.uniform(-3.0, 6.0)
        r = rng.standard_normal((n, m))
        assert bit_equal(_newton_step(D, r, h), legacy_newton_step(D, r, h))
        if n > 1:
            D[0] = D[:, 0] = r[0] = 0.0
            assert bit_equal(_newton_step(D, r, h), legacy_newton_step(D, r, h))

    def test_same_bits_at_one_and_two_blas_threads(self):
        steps = [subprocess.run([sys.executable, "-c", STEP_PROBE], capture_output=True, text=True, check=True,
                                env=dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads)).stdout
                 for threads in ("1", "2")]
        assert len(steps[0]) == 2 * 8 * 16 * 513 + 1
        assert steps[0] == steps[1]


class TestNewtonPolish:
    @staticmethod
    def mixed_sign_field(grid, seed):
        rng = np.random.default_rng(seed)
        U = rng.uniform(0.2, 1.5, (2,) + grid.shape)
        # Bounded away from 0, so the central difference never crosses a kink.
        U[1] *= np.where(rng.uniform(size=grid.shape) < 0.3, -1.0, 1.0)
        return U

    @pytest.mark.parametrize("p", [4.0, 5.0])
    def test_jacobian_product_matches_central_difference(self, p):
        g = Grid(1, 1.0, 17)
        A = WITNESS.entries
        U = self.mixed_sign_field(g, 13)
        q = _quadrature(g)
        D = _FieldState(A, U[None], p, q).nodal_block()[0]
        # Dense Jacobian from the oracle's products with the unit vectors.
        eye = np.eye(U.size).reshape((U.size,) + U.shape)
        jac = np.stack([jacobian_product(D, e, g.h).ravel() for e in eye], axis=1)
        w = np.random.default_rng(17).standard_normal(U.size)
        fd = central_difference_gradient(
            lambda x: float(w @ live_residual(_FieldState(A, x.reshape((1,) + U.shape), p, q)).ravel()),
            U.ravel(), 1e-6,
        )
        assert np.max(np.abs(fd - jac.T @ w)) <= 1e-6 * np.max(np.abs(fd))

    def test_2d_existence_witness(self):
        g = Grid(2, 1.0, 25)
        out = mountain_pass_solve(WITNESS, 4.0, g)
        assert isinstance(out, NeumannSolution)
        assert out.classification == "Nonconstant"
        U = out.field.components
        assert U.min() >= 0.0 and U.max() > 1.0
        assert np.max(np.abs(mirror_residual(WITNESS.entries, U, 4.0, g.h))) < 1e-8
        # The 2-d solution is the 1-d one tiled along y, reported on the 2-d
        # grid; the second difference of a y-constant field is exactly zero.
        line = mountain_pass_solve(WITNESS, 4.0, Grid(1, 1.0, 25))
        assert bit_equal(U, np.repeat(line.field.components[:, :, None], 25, axis=2))
        assert out.report.residual_inf == line.report.residual_inf
        assert out.report.energy == pytest.approx(line.report.energy, rel=1e-12)
        assert out.seed_provenance == line.seed_provenance

    def test_accepted_solutions_ranked_by_energy(self, monkeypatch):
        # Two seeds converging to different solutions; their residuals differ
        # by round-off only (here the higher-energy one has the smaller).
        B = SymMatrix([[1, -2, -2], [-2, 1, -2], [-2, -2, 1]])
        g = Grid(1, 1.0, 49)
        seeds = dict(theta_seeds(B, ConeVector([1.0, 1.0, 1.0]), g))
        low, high = "mixture ray=d t=0.25", "mixture ray=d t=0.75"

        def solve_from(*names):
            monkeypatch.setattr(neumann, "theta_seeds",
                                lambda *args: [(name, seeds[name]) for name in names])
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


def live_residual(state):
    """The residual of a live field state, in a fresh array."""
    return state.residual(np.empty(state.U.shape))


# The field state's arithmetic as it was before it evaluated in place: the
# oracle of the descent and polish tests, so that a change of rounding in the
# live code cannot move it.


def legacy_laplacian(U, h):
    """Ghost-node Neumann Laplacian of each component of a stack U (shape (S, n, *grid))."""
    flat = U.reshape(-1)
    stride = flat.size // (U.shape[0] * U.shape[1])
    out = None
    for axis in range(2, U.ndim):
        stride //= U.shape[axis]
        head = (slice(None),) * axis
        left, right = np.empty(U.shape), np.empty(U.shape)
        left.reshape(-1)[stride:] = flat[:-stride]
        left[head + (0,)] = U[head + (1,)]
        right.reshape(-1)[:-stride] = flat[stride:]
        right[head + (-1,)] = U[head + (-2,)]
        second = -2.0 * U
        second += left
        second += right
        if out is None:
            second += 0.0
            out = second
        else:
            out += second
    out /= h**2
    return out


def legacy_factors(A, U, p):
    """((U^+)^(p/2-1), sum_j beta_ij (u_j^+)^(p/2)) of a stack U."""
    plus = np.maximum(U, 0.0)
    lowered = plus if p == 4.0 else cone_power(plus, p / 2.0 - 1.0)
    coupled = np.matmul(A, cone_power(plus, p / 2.0).reshape(U.shape[:2] + (-1,))).reshape(U.shape)
    return lowered, coupled


def legacy_parts(A, U, p, q):
    """Per field of a stack U, (Dirichlet term, Phi)."""
    S, n = U.shape[:2]
    if U.ndim == 3:
        gradient = (np.square(U[:, :, 1:] - U[:, :, :-1]).sum(axis=2) / q.h).tolist()
    else:
        rows = np.square(U[:, :, 1:] - U[:, :, :-1]).sum(axis=2)
        cols = np.square(U[:, :, :, 1:] - U[:, :, :, :-1]).sum(axis=3)
        gradient = [[float(rows[s, i] @ q.w + q.w @ cols[s, i]) / q.h for i in range(n)]
                    for s in range(S)]
    mass = (q.W * np.minimum(U, 0.0)**2).reshape(S, -1).sum(axis=1).tolist()
    flat = cone_power(np.maximum(U, 0.0), p / 2.0).reshape(S, n, -1)
    overlap = (flat * q.W.ravel()) @ flat.transpose(0, 2, 1)
    terms = (A * overlap).reshape(S, -1).tolist()
    return [(sum(g) + m, math.fsum(t) / p) for g, m, t in zip(gradient, mass, terms)]


def legacy_energies(A, U, p, q):
    return [dirichlet / 2.0 - phi for dirichlet, phi in legacy_parts(A, U, p, q)]


def legacy_residual(A, U, p, h):
    """Euler-Lagrange residual of each field of a stack U, as u^- - L u - nonlinear term."""
    r = legacy_laplacian(U, h)
    np.subtract(np.minimum(U, 0.0), r, out=r)
    lowered, coupled = legacy_factors(A, U, p)
    r -= lowered * coupled
    return r


def legacy_nodal_block(A, U, p):
    """Zeroth-order part of the Jacobian of each field of a stack U."""
    lowered, coupled = legacy_factors(A, U, p)
    z = np.zeros_like(U)
    z[U > 0] = U[U > 0] ** (p / 2.0 - 2.0)
    D = -(p / 2.0) * A[:, :, None] * lowered[:, :, None] * lowered[:, None, :]
    diag = np.arange(U.shape[1])
    D[:, diag, diag] += (U < 0).astype(float) - (p / 2.0 - 1.0) * z * coupled
    return D


def two_call_descent(A, U0, p, grid):
    """The Armijo loop of one seed as it was before the fused evaluation and the stack:
    energy and residual called apart, in the legacy arithmetic.  Returns the four
    outputs of the descent and how the loop ended, (reason, trials)."""
    W, q = grid.weights(), _quadrature(grid)
    U = U0.copy()
    E = legacy_energies(A, U[None], p, q)[0]
    grad = W * legacy_residual(A, U[None], p, grid.h)[0]
    gnorm = float(np.sqrt(np.sum(grad**2)))
    best_U, best_g = U.copy(), gnorm
    step = 0.1 / max(1.0, gnorm)
    floor = 1e-10 * max(1.0, float(np.max(np.abs(U0))))
    g0 = gnorm
    energy_floor = -30.0 * (1.0 + abs(E))
    amp_ceiling = 8.0 * (1.0 + float(np.max(np.abs(U0))))
    escaped = False
    end = "cap", neumann.MAX_DESCENT_STEPS
    for trial in range(neumann.MAX_DESCENT_STEPS):
        if gnorm < floor:
            end = "floor", trial
            break
        cand = U - step * grad
        Ec = legacy_energies(A, cand[None], p, q)[0]
        if Ec < E - 1e-4 * step * gnorm**2:
            U, E = cand, Ec
            grad = W * legacy_residual(A, U[None], p, grid.h)[0]
            gnorm = float(np.sqrt(np.sum(grad**2)))
            if gnorm < best_g:
                best_U, best_g = U.copy(), gnorm
            step *= 1.3
            if E < energy_floor or np.max(np.abs(U)) > amp_ceiling:
                escaped = True
                end = "escape", trial + 1
                break
        else:
            step *= 0.5
            if step < 1e-14:
                end = "underflow", trial + 1
                break
    return (best_U, best_g, g0, escaped), end


def assert_stack_matches_serial_loop(A, U0, p, grid, descents=None):
    """Each seed of the stack U0 descends to the bits of two_call_descent; returns how each loop ended."""
    if descents is None:
        descents = neumann._descend_energy(A, U0, p, grid)
    assert len(descents) == len(U0)
    ends = []
    for U, stacked in zip(U0, descents):
        reference, end = two_call_descent(A, U, p, grid)
        assert bit_equal(stacked[0], reference[0])
        assert stacked[1:] == reference[1:]
        ends.append(end)
    return ends


def legacy_band(D, h):
    """The (2n + 1, nm) solve_banded band of -L + D, assembled as _newton_step assembled it before it called gbsv."""
    n, m = D.shape[0], D.shape[2]
    ab = np.zeros((2 * n + 1, n * m))
    i, j = np.indices((n, n))
    ab[(n + i - j)[:, :, None], np.arange(n)[:, None] + n * np.arange(m)] = D
    ab[n] += 2.0 / h**2
    ab[0, n:] = ab[2 * n, :-n] = -1.0 / h**2
    ab[0, n:2 * n] = ab[2 * n, -2 * n:-n] = -2.0 / h**2
    return ab


def legacy_newton_step(D, r, h):
    """The Newton step through scipy.linalg.solve_banded, live components only."""
    delta = np.zeros_like(r)
    live = np.flatnonzero(np.any(r != 0, axis=1) | np.any(D != 0, axis=(1, 2)))
    n, m = live.size, r.shape[1]
    ab = legacy_band(D[np.ix_(live, live)], h)
    delta[live] = solve_banded((n, n), ab, -r[live].T.ravel(), check_finite=False).reshape(m, n).T
    return delta


def serial_polish(A, U0, p, grid):
    """The Newton polish of one seed as it ran before the lockstep, in the legacy
    arithmetic.  Returns the polish's (field, residual_inf, converged) and the exit it took."""
    h = grid.h
    U = U0.copy()
    r = legacy_residual(A, U[None], p, h)[0]
    rnorm = float(np.max(np.abs(r)))
    residuals, amplitudes = [rnorm], [float(np.max(np.abs(U)))]
    for _ in range(neumann.MAX_NEWTON_STEPS):
        if rnorm == 0.0:
            return (U, rnorm, True), "zero residual"
        if not np.isfinite(rnorm):
            return (U, rnorm, False), "non-finite residual"
        try:
            delta = legacy_newton_step(legacy_nodal_block(A, U[None], p)[0], r, h)
        except np.linalg.LinAlgError:
            return (U, rnorm, False), "singular"
        if not np.all(np.isfinite(delta)):
            return (U, rnorm, False), "non-finite step"
        step = 1.0
        while step > 1e-6:
            cand = U + step * delta
            rc = legacy_residual(A, cand[None], p, h)[0]
            rcnorm = float(np.abs(rc).max())
            if np.isfinite(rcnorm) and rcnorm < (1.0 - 0.25 * step) * rnorm:
                U, r, rnorm = cand, rc, rcnorm
                break
            step *= 0.5
        else:
            return (U, rnorm, rnorm < neumann.RESIDUAL_TOL), "floor"
        amp = float(np.abs(U).max())
        if amp > 1e8:
            return (U, rnorm, False), "amplitude"
        residuals.append(rnorm)
        amplitudes.append(amp)
        recent = amplitudes[-neumann.COLLAPSE_STEPS - 1:]
        if (rnorm < neumann.RESIDUAL_TOL and amp <= neumann.NONTRIVIALITY_THRESHOLD
                and len(recent) > neumann.COLLAPSE_STEPS
                and all(b <= neumann.COLLAPSE_RATIO * a for a, b in zip(recent, recent[1:]))):
            return (U, rnorm, True), "collapse"
        if (rnorm >= neumann.RESIDUAL_TOL and len(residuals) > neumann.STALL_WINDOW
                and rnorm > neumann.STALL_RATIO * residuals[-neumann.STALL_WINDOW - 1]):
            return (U, rnorm, False), "stall"
    return (U, rnorm, rnorm < neumann.RESIDUAL_TOL), "cap"


def assert_polish_matches_serial(A, U0, p, grid, polished=None):
    """Each seed of the stack U0 polishes to the bits of serial_polish; returns the exit each took."""
    if polished is None:
        polished = neumann._newton_polish(A, U0, p, grid)
    assert len(polished) == len(U0)
    exits = []
    for U, stacked in zip(U0, polished):
        (field, rnorm, converged), exit = serial_polish(A, U, p, grid)
        assert bit_equal(stacked[0], field) and stacked[2] == converged
        assert stacked[1] == rnorm or np.isnan(rnorm) and np.isnan(stacked[1])
        exits.append(exit)
    return exits


def coupled_matrix(n, seed):
    """Random coupling with unit diagonal and off-diagonal entries near -2: not copositive."""
    noise = np.random.default_rng(seed).uniform(-0.3, 0.3, (n, n))
    return SymMatrix(3.0 * np.eye(n) - 2.0 + noise + noise.T)


def family(B, grid, p):
    """The seed family along the all-ones direction, as one stack."""
    return np.stack([seed.components for _, seed in theta_seeds(B, ConeVector(np.ones(B.n)), grid, p)])


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
    # p = 3.5 takes cone_power's exp/log path; 3 and 5 its half-integer one.
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("p", [3.0, 4.0, 5.0, 3.5])
    def test_energy_and_residual(self, dim, p):
        g = Grid(dim, 1.0, 65 if dim == 1 else 17)
        B = SymMatrix([[1, -2, 0.5], [-2, 1, -1], [0.5, -1, 2]])
        # Summation order shows in the last bit on some fields only.
        fields = [signed_field(g, seed, n=3) for seed in range(67, 75)]
        q, stack = _quadrature(g), np.stack(fields)
        state = _FieldState(B.entries, stack, p, q)
        parts = state.parts()
        assert parts == [per_component_energy_parts(B.entries, U, p, g) for U in fields]
        # The live arithmetic keeps the legacy bits, also after a load into the buffers of another stack.
        for _ in range(2):
            assert state.parts() == legacy_parts(B.entries, stack, p, q)
            assert bit_equal(live_residual(state), legacy_residual(B.entries, stack, p, g.h))
            if dim == 1:  # The Jacobian is built on 1-d grids only.
                assert bit_equal(state.nodal_block(), legacy_nodal_block(B.entries, stack, p))
                assert bit_equal(state.nodal_block([1, 4]), legacy_nodal_block(B.entries, stack[[1, 4]], p))
            stack = -stack[::-1].copy()
            state.load(stack)
        U = fields[-1]
        state = _FieldState(B.entries, U[None], p, q)
        assert state.energies() == [energy(B, FieldTuple(U), p, g).energy]
        oracle = mirror_residual(B.entries, U, p, g.h)
        assert np.max(np.abs(live_residual(state)[0] - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_signed_zeros_keep_the_legacy_bits(self, dim):
        # Nodes and neighbours drawn from +-0.0 and +-1e-3: the live
        # Laplacian adds no +0.0, so it reads -0.0 at some nodes where the
        # legacy one read +0.0, and the residual must not show it.
        g, B = Grid(dim, 1.0, 17), SymMatrix([[1, -2, 0.5], [-2, 1, -1], [0.5, -1, 2]])
        values = np.array([0.0, -0.0, 1e-3, -1e-3])
        stack = values[np.random.default_rng(97).integers(0, 4, (8, 3) + g.shape)]
        state = _FieldState(B.entries, stack, 4.0, _quadrature(g))
        lap = neumann._laplacian(stack, g.h, np.empty(stack.shape), np.empty(stack.shape))
        assert np.any((lap == 0.0) & np.signbit(lap))
        assert bit_equal(live_residual(state), legacy_residual(B.entries, stack, 4.0, g.h))
        assert state.parts() == legacy_parts(B.entries, stack, 4.0, _quadrature(g))
        if dim == 1:
            assert bit_equal(state.nodal_block(), legacy_nodal_block(B.entries, stack, 4.0))

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("p", [3.0, 4.0, 5.0, 3.5])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_energy_report_keeps_the_legacy_bits(self, dim, p, order):
        # A field tuple holds a C-ordered copy, so a Fortran-ordered input
        # reports the legacy bits of the C-ordered field.
        g = Grid(dim, 1.0, 65 if dim == 1 else 17)
        B, q = SymMatrix([[1, -2, 0.5], [-2, 1, -1], [0.5, -1, 2]]), _quadrature(g)
        U = signed_field(g, 89, n=3)
        field = FieldTuple(np.asarray(U, order=order))
        assert field.components.flags.c_contiguous
        [(dirichlet, phi)] = legacy_parts(B.entries, U[None], p, q)
        lowered, coupled = legacy_factors(B.entries, U[None], p)
        nonlinear = (lowered * coupled)[0]
        assert energy(B, field, p, g) == EnergyReport(
            energy=dirichlet / 2.0 - phi, dirichlet=dirichlet, phi=phi,
            residual_inf=float(np.max(np.abs(legacy_residual(B.entries, U[None], p, g.h)))),
            identity_defects=tuple(float(np.sum(q.W * nonlinear[i])) for i in range(B.n)))

    def test_descent_matches_two_call_loop(self):
        g = Grid(1, 1.0, 65)
        seeds = dict(theta_seeds(WITNESS, find_direction_d(WITNESS, 4.0), g))
        U0 = seeds["combined bumps x0.9"].components
        assert_stack_matches_serial_loop(WITNESS.entries, U0[None], 4.0, g)

    @pytest.mark.parametrize("B, p, nodes", [
        (WITNESS, 4.0, 513), (WITNESS_3, 3.0, 129), (coupled_matrix(4, 41), 5.0, 65),
        (coupled_matrix(5, 43), 3.0, 33), (coupled_matrix(5, 47), 4.0, 49), (WITNESS_3, 3.5, 129),
    ], ids=["2x2-p4-513", "3x3-p3-129", "4x4-p5-65", "5x5-p3-33", "5x5-p4-49", "3x3-p3.5-129"])
    def test_stacked_family_matches_serial_loop_seed_by_seed(self, B, p, nodes):
        g = Grid(1, 1.0, nodes)
        assert_stack_matches_serial_loop(B.entries, family(B, g, p), p, g)

    @staticmethod
    def leaving_stack():
        """On [[1,-1],[-1,1]], whose constants (c, c) are exact critical points:
        the zero field is at the gradient floor, the ones field with noise of
        1e-12 reaches it and with noise of 1e-11 runs the step down to
        underflow, a bump escapes and a negative field runs to the cap."""
        g = Grid(1, 1.0, 33)
        noise = np.random.default_rng(53).standard_normal((2, 2, 33))
        return g, np.stack([np.zeros((2, 33)), 1.0 + 1e-12 * noise[1], 1.0 + 1e-11 * noise[0],
                            family(BOUNDARY, g, 4.0)[0], -np.ones((2, 33))])

    def test_seeds_leave_the_stack_at_their_own_trials(self):
        g, U0 = self.leaving_stack()
        ends = assert_stack_matches_serial_loop(BOUNDARY.entries, U0, 4.0, g)
        assert [reason for reason, _ in ends] == ["floor", "floor", "underflow", "escape", "cap"]
        assert len({trials for _, trials in ends}) == len(ends)

    def test_results_own_their_memory(self):
        # The buffers of a stack are reused from trial to trial and cut as
        # seeds leave; no returned field may be a view of them, of the input
        # or of another call's results, and the input is not written.
        g, U0 = self.leaving_stack()
        before = U0.copy()
        fields = []
        for _ in range(2):
            fields += [start for start, _, _, _ in neumann._descend_energy(BOUNDARY.entries, U0, 4.0, g)]
            fields += [U for U, _, _ in neumann._newton_polish(BOUNDARY.entries, U0, 4.0, g)]
        assert bit_equal(U0, before)
        for k, field in enumerate(fields):
            assert not np.shares_memory(field, U0)
            assert not any(np.shares_memory(field, other) for other in fields[k + 1:])

    @pytest.mark.parametrize("shape", [(1,), (5, 2, 513), (3, 3, 17, 17)])
    def test_buffers_start_on_a_cache_line(self, shape):
        buffers = [neumann._aligned_empty(shape) for _ in range(3)]
        for k, buffer in enumerate(buffers):
            assert buffer.shape == shape and buffer.dtype == float and buffer.flags.c_contiguous
            assert buffer.ctypes.data % 64 == 0 and buffer[:1].ctypes.data % 64 == 0
            assert not any(np.shares_memory(buffer, other) for other in buffers[k + 1:])

    def test_family_split_by_the_bound_matches_serial_loop(self, monkeypatch):
        # 5 x 513 values per seed and a bound of three seeds: the family
        # descends as stacks of three and two.
        B, g = coupled_matrix(5, 59), Grid(1, 1.0, 513)
        monkeypatch.setattr(neumann, "DESCENT_STACK_VALUES", 3 * 5 * 513)
        runs = []
        descend = neumann._descend_energy

        def recorded(A, U0, p, grid):
            runs.append((U0.copy(), descend(A, U0, p, grid)))
            return runs[-1][1]

        monkeypatch.setattr(neumann, "_descend_energy", recorded)
        monkeypatch.setattr(neumann, "_newton_polish",
                            lambda A, U, p, grid: [(np.zeros_like(V), 0.0, True) for V in U])
        assert isinstance(mountain_pass_solve(B, 4.0, g), TrivialOnly)
        assert [len(U0) for U0, _ in runs] == [3, 2]
        for U0, descents in runs:
            assert_stack_matches_serial_loop(B.entries, U0, 4.0, g, descents)

    @pytest.mark.parametrize("B, nodes, sizes", [
        (WITNESS, 513, [5]), (WITNESS_3, 513, [5]), (WITNESS_3, 2049, [2, 2, 1]),
        (WITNESS_3, 4097, [1, 1, 1, 1, 1]),
    ], ids=["2x2-513", "3x3-513", "3x3-2049", "3x3-4097"])
    def test_stack_sizes(self, monkeypatch, B, nodes, sizes):
        stacks = []

        def descend(A, U, p, grid):
            stacks.append(len(U))
            return [(V, 0.0, 0.0, False) for V in U]

        monkeypatch.setattr(neumann, "_descend_energy", descend)
        monkeypatch.setattr(neumann, "_newton_polish",
                            lambda A, U, p, grid: [(np.zeros_like(V), 0.0, True) for V in U])
        assert isinstance(mountain_pass_solve(B, 4.0, Grid(1, 1.0, nodes)), TrivialOnly)
        assert stacks == sizes


@pytest.fixture
def newton_calls(monkeypatch):
    """List that grows by one entry per Newton step (one banded solve each)."""
    calls = []
    solve = neumann._newton_step

    def counted(D, r, h):
        calls.append(None)
        return solve(D, r, h)

    monkeypatch.setattr(neumann, "_newton_step", counted)
    return calls


def without_exits(monkeypatch):
    """Histories never fill the collapse or stall window: every seed runs to the cap."""
    monkeypatch.setattr(neumann, "COLLAPSE_STEPS", neumann.MAX_NEWTON_STEPS + 1)
    monkeypatch.setattr(neumann, "STALL_WINDOW", neumann.MAX_NEWTON_STEPS + 1)


class TestNewtonExits:
    def test_collapsing_seed_exits_early(self, newton_calls, monkeypatch):
        g = Grid(1, 1.0, 33)
        d = find_direction_d(WITNESS, 4.0).components
        seed = 0.5 * d[:, None] * np.ones(g.shape)
        [(U, rnorm, converged)] = neumann._newton_polish(WITNESS.entries, seed[None], 4.0, g)
        steps = len(newton_calls)
        assert converged and rnorm < neumann.RESIDUAL_TOL
        assert np.max(np.abs(U)) <= neumann.NONTRIVIALITY_THRESHOLD
        assert steps <= neumann.MAX_NEWTON_STEPS // 2
        # Without the exit the cubic zero is approached at 2/3 per step to the cap.
        without_exits(monkeypatch)
        newton_calls.clear()
        [(_, _, converged)] = neumann._newton_polish(WITNESS.entries, seed[None], 4.0, g)
        assert converged and len(newton_calls) == neumann.MAX_NEWTON_STEPS

    def test_stalled_seed_exits_early(self, newton_calls, monkeypatch):
        # Start: the t = 0.5 mixture along the boundary ray e0 (one nonzero
        # component), from which Newton stalls.
        g = Grid(1, 1.0, 513)
        profiles = bump_profiles(WITNESS, g)
        scales = []
        for i in range(WITNESS.n):
            V = np.zeros((WITNESS.n,) + g.shape)
            V[i] = profiles[i]
            scales.append(neumann._ridge_scale(WITNESS.entries, V, 4.0, g))
        mixture = homotopy_mixture(np.array([1.5 * max(scales), 0.0]), 0.5, profiles)
        [(start, _, _, escaped)] = neumann._descend_energy(WITNESS.entries, mixture[None], 4.0, g)
        assert not escaped
        [(_, rnorm, converged)] = neumann._newton_polish(WITNESS.entries, start[None], 4.0, g)
        assert not converged and rnorm > 1.0
        assert len(newton_calls) <= 3 * neumann.STALL_WINDOW
        without_exits(monkeypatch)
        newton_calls.clear()
        [(_, rnorm, converged)] = neumann._newton_polish(WITNESS.entries, start[None], 4.0, g)
        assert not converged and rnorm > 1.0
        assert len(newton_calls) == neumann.MAX_NEWTON_STEPS

    def test_converging_refinement_takes_neither_exit(self, newton_calls, monkeypatch):
        coarse, fine = Grid(1, 1.0, 33), Grid(1, 1.0, 65)
        solution = mountain_pass_solve(WITNESS, 4.0, coarse)
        newton_calls.clear()
        refined = refine_solution(WITNESS, solution, 4.0, coarse, fine)
        steps = len(newton_calls)
        without_exits(monkeypatch)
        newton_calls.clear()
        reference = refine_solution(WITNESS, solution, 4.0, coarse, fine)
        assert len(newton_calls) == steps
        assert np.array_equal(refined.field.components, reference.field.components)
        assert refined.report == reference.report


def exit_stacks():
    """(matrix, p, nodes, [(exit, seed field)]): stacks whose seeds leave the polish by every exit.

    All exits but the cap are taken by inputs as they stand, at their own
    rounds.  'one component live' zeroes a component of a seed, so its
    Newton systems are solved without it: by gtsv for a 2 x 2, by gbsv on
    the pair left of a 3 x 3.
    """
    g33, g49 = Grid(1, 1.0, 33), Grid(1, 1.0, 49)
    ones = np.ones((2, 33))
    tilted = np.stack([np.ones(33), np.full(33, 1.0 + 1e-3)])
    d = find_direction_d(WITNESS, 4.0).components
    witness = family(WITNESS, g33, 4.0)
    boundary = family(BOUNDARY, g33, 4.0)
    witness_3 = family(WITNESS_3, g49, 5.0)

    def zeroed(U, i):
        U = U.copy()
        U[i] = 0.0
        return U

    return {
        "2x2-p4-33": (WITNESS, 4.0, g33, [
            ("zero residual", np.zeros((2, 33))), ("collapse", 0.5 * d[:, None] * ones),
            ("amplitude", 1e9 * ones), ("non-finite residual", 1e200 * ones), ("floor", witness[1]),
            ("singular", signed_field(g33, 103)), ("stall", zeroed(witness[2], 1)),
        ]),
        "boundary-p4-33": (BOUNDARY, 4.0, g33, [
            ("non-finite step", 1e103 * tilted), ("zero residual", ones), ("collapse", tilted),
            ("floor", boundary[0]), ("stall", boundary[4]),
        ]),
        "3x3-p5-49": (WITNESS_3, 5.0, g49, [
            ("floor", witness_3[0]), ("floor", zeroed(witness_3[1], 1)),
            ("stall", witness_3[2]), ("stall", zeroed(witness_3[3], 0)),
        ]),
    }


class TestLockstepPolish:
    """_newton_polish on a stack against serial_polish, the loop it replaced, seed by seed and bit for bit."""

    @pytest.mark.parametrize("case", ["2x2-p4-33", "boundary-p4-33", "3x3-p5-49"])
    def test_every_exit_matches_serial_polish(self, case):
        B, p, g, seeds = exit_stacks()[case]
        with np.errstate(over="ignore", invalid="ignore"):
            exits = assert_polish_matches_serial(B.entries, np.stack([U for _, U in seeds]), p, g)
        assert exits == [exit for exit, _ in seeds]

    def test_step_cap_matches_serial_polish(self, monkeypatch):
        # Without the early exits a collapsing seed runs to MAX_NEWTON_STEPS
        # while others of the stack reach the improvement floor first.
        without_exits(monkeypatch)
        B, p, g, seeds = exit_stacks()["2x2-p4-33"]
        U0 = np.stack([U for exit, U in seeds if exit in ("collapse", "floor", "singular", "stall")]
                      + [signed_field(g, 100)])
        exits = assert_polish_matches_serial(B.entries, U0, p, g)
        assert exits == ["cap", "floor", "singular", "floor", "cap"]

    def test_solve_polishes_every_stack_as_serial(self, monkeypatch):
        # Stacks of two, two and one under DESCENT_STACK_VALUES at 2049 nodes,
        # and a family a bound of three seeds splits into stacks of three and two.
        runs = []
        polish = neumann._newton_polish

        def recorded(A, U0, p, grid):
            runs.append((U0.copy(), polish(A, U0, p, grid)))
            return runs[-1][1]

        monkeypatch.setattr(neumann, "_newton_polish", recorded)
        for nodes, values, sizes in ((2049, neumann.DESCENT_STACK_VALUES, [2, 2, 1]),
                                     (129, 3 * WITNESS_3.n * 129, [3, 2])):
            monkeypatch.setattr(neumann, "DESCENT_STACK_VALUES", values)
            runs.clear()
            g = Grid(1, 1.0, nodes)
            assert isinstance(mountain_pass_solve(WITNESS_3, 4.0, g), NeumannSolution)
            assert [len(U0) for U0, _ in runs] == sizes
            for U0, polished in runs:
                assert_polish_matches_serial(WITNESS_3.entries, U0, 4.0, g, polished)


class TestRefine:
    def test_2d_grid_is_a_parameter_error(self):
        g = Grid(2, 1.0, 33)
        solution = mountain_pass_solve(BOUNDARY, 4.0, g)
        with pytest.raises(ParameterError):
            refine_solution(BOUNDARY, solution, 4.0, g, Grid(2, 1.0, 65))

    # A polish that converges to zero, to a field with a negative node, or
    # to a non-solution (the interpolated field grown by half): refinement
    # applies the acceptance rule of mountain_pass_solve and names its check.
    @pytest.mark.parametrize("polished, check", [
        (np.zeros_like, "collapsed to trivial"),
        (lambda U: U - U.min() - 1e-3, "negative part -1.00e-03"),
        (lambda U: 1.5 * U, "clamped residual"),
    ], ids=["zero", "negative", "non-solution"])
    def test_rejected_polish_is_a_parameter_error(self, monkeypatch, polished, check):
        coarse, fine = Grid(1, 1.0, 33), Grid(1, 1.0, 65)
        solution = mountain_pass_solve(WITNESS, 4.0, coarse)
        monkeypatch.setattr(neumann, "_newton_polish", lambda A, U, p, grid: [(polished(V), 0.0, True) for V in U])
        with pytest.raises(ParameterError, match=f"refinement rejected: .*: {check}"):
            refine_solution(WITNESS, solution, 4.0, coarse, fine)

    def test_unconverged_polish_is_a_parameter_error(self, monkeypatch):
        coarse, fine = Grid(1, 1.0, 33), Grid(1, 1.0, 65)
        solution = mountain_pass_solve(WITNESS, 4.0, coarse)
        monkeypatch.setattr(neumann, "_newton_polish", lambda A, U, p, grid: [(V, 0.25, False) for V in U])
        with pytest.raises(ParameterError, match="refinement failed to converge, residual 2.50e-01"):
            refine_solution(WITNESS, solution, 4.0, coarse, fine)


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

    @pytest.mark.parametrize("dim", [1, 2])
    def test_reflected_field_is_c_ordered_and_read_only(self, dim):
        g = Grid(dim, 1.0, 17)
        ext, eg = reflect_tile(FieldTuple(signed_field(g, 13)), g, 2)
        U = ext.components
        assert U.flags.c_contiguous and not U.flags.writeable
        assert energy(WITNESS, ext, 4.0, eg) == energy(WITNESS, FieldTuple(np.asfortranarray(U)), 4.0, eg)

    def test_copies_validation(self):
        g = Grid(1, 1.0, 17)
        with pytest.raises(ParameterError):
            reflect_tile(FieldTuple(np.ones((2, 17))), g, 0)

    @pytest.mark.parametrize("copies", [np.nan, np.inf, -np.inf])
    def test_non_finite_copies_is_a_parameter_error(self, copies):
        with pytest.raises(ParameterError):
            reflect_tile(FieldTuple(np.ones((2, 17))), Grid(1, 1.0, 17), copies)


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

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_csv_is_one_repr_per_cell(self, tmp_path, dim, n):
        # Every special value sits in the first cells and again at random
        # ones: signed zeros, the least subnormals, a large integral float,
        # 0.1 + 0.2 beside 0.3.  In 2-d one component is a tiled profile, as
        # a solve writes it.
        g = Grid(dim, 1.0, 17)
        rng = np.random.default_rng(10 * dim + n)
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e22, 0.1 + 0.2, 0.3, 1.0])
        U = rng.uniform(-2.0, 2.0, (n,) + g.shape)
        scattered = rng.uniform(size=U.shape) < 0.3
        U[scattered] = rng.choice(special, size=int(scattered.sum()))
        if dim == 2:
            U[-1] = U[-1, :, :1]
        U.reshape(-1)[:special.size] = special
        solution = NeumannSolution(FieldTuple(U), EnergyReport(0.0, 0.0, 0.0, 0.0, ()), "Nonconstant", "test")
        path = tmp_path / "u.csv"
        write_solution_csv(solution, g, path)
        assert path.read_bytes() == legacy_csv(U, g).encode()


def legacy_csv(U, grid):
    """The CSV text as write_solution_csv wrote it with one repr per cell."""
    n = U.shape[0]
    header = ("x," if grid.dim == 1 else "x,y,") + ",".join(f"u{i + 1}" for i in range(n))
    nodes = np.meshgrid(*[grid.axis()] * grid.dim, indexing="ij")
    rows = np.column_stack([*(x.ravel() for x in nodes), *U.reshape(n, -1)]).tolist()
    return "\n".join([header] + [",".join(map(repr, row)) for row in rows]) + "\n"
