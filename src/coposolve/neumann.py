"""Finite-difference realization of the Neumann problem on a box.

Second-order uniform grid with mirror (ghost-node) closure of the Laplacian.
The discrete energy uses cell-midpoint differences for the gradient term and
trapezoid weights for the mass terms, which makes the assembled Euler-Lagrange
residual exactly the weighted gradient of the discrete energy; one class,
_FieldState, evaluates both, for a stack of fields at once, into buffers
that the descent and the polish reuse from trial to trial.  Critical points
are located by Armijo gradient descent from a family of five seed fields
(separated bumps and homotopy mixtures along a negative direction, descended
in stacks, see DESCENT_STACK_VALUES).  The descent of a stack reads the
energies and, on acceptance, the gradients of its trial fields from one
evaluation, while each seed keeps its own step and ends where it would end
alone.  A damped Newton polish of the stack follows, in lockstep in the same
way: each round evaluates one residual for the trial fields of all its
seeds, each seed keeps its own line-search step and leaves when it exits,
and each step solves a seed's Jacobian system exactly by one banded LU
(LAPACK gbsv), the unknowns laid out node-major so that the mirror Laplacian
and the nodal coupling fill n sub- and super-diagonals.  The polished seeds
are then accepted or rejected one at a time in family order.

A 2-d solve is the 1-d solve on the same nodes tiled along y: every seed is
y-constant, and a y-constant field solves the 2-d system exactly when its
profile solves the 1-d one (the mirror closure zeroes the y-difference).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .copositivity import SimplexMinimum, scan_faces
from .copositivity import simplex_min_quadratic  # noqa: F401  (bench/spans.py wraps this attribute)
from .errors import CapacityError, DimensionError, NotApplicableError, ParameterError
from .forms import ConeVector, SymMatrix, _readonly, cone_power, quadratic_form
from .forms import require_int, require_nonnegative_diagonal, require_p
from .solvability import constant_solution  # noqa: F401  (bench/spans.py wraps this attribute)


def __getattr__(name: str):
    # Served only for bench/spans.py; retire with ROADMAP item 4.
    if name == "splu":
        from scipy.sparse.linalg import splu

        return splu
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on [0, extent]^dim with Neumann ghost closure."""

    dim: int
    extent: float = 1.0
    points_per_side: int = 129

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ParameterError(f"grid dimension must be 1 or 2, got {self.dim}")
        if not 0 < self.extent < np.inf:
            raise ParameterError(f"box side must be positive and finite, got {self.extent}")
        m = require_int(self.points_per_side, 17, "points per side must be an integer of at least 17")
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "points_per_side", m)

    @property
    def h(self) -> float:
        return self.extent / (self.points_per_side - 1)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_side,) * self.dim

    def axis(self) -> np.ndarray:
        return np.linspace(0.0, self.extent, self.points_per_side)

    def weights_1d(self) -> np.ndarray:
        w = np.full(self.points_per_side, self.h)
        w[0] = w[-1] = self.h / 2.0
        return w

    def weights(self) -> np.ndarray:
        w = self.weights_1d()
        if self.dim == 1:
            return w
        return np.outer(w, w)


@dataclass(frozen=True)
class FieldTuple:
    """Tuple of scalar nodal fields, one per system component, held as a read-only C-ordered copy."""

    components: np.ndarray  # shape (n, *grid.shape)

    def __post_init__(self) -> None:
        arr = np.array(self.components, dtype=float, order="C")
        if arr.ndim < 2:
            raise ParameterError("field tuple needs shape (n, nodes...)")
        object.__setattr__(self, "components", _readonly(arr))

    @property
    def amplitude(self) -> float:
        return float(np.max(np.abs(self.components)))


@dataclass(frozen=True)
class EnergyReport:
    energy: float
    dirichlet: float  # integral of |grad u|^2 + |u^-|^2
    phi: float
    residual_inf: float
    identity_defects: tuple[float, ...]


@dataclass(frozen=True)
class NeumannSolution:
    field: FieldTuple
    report: EnergyReport
    classification: str  # "Constant" | "Nonconstant"
    seed_provenance: str


@dataclass(frozen=True)
class TrivialOnly:
    """Every seed collapsed below the nontriviality threshold or escaped (n = 1 runs none)."""

    seed_outcomes: tuple[str, ...]


@dataclass(frozen=True)
class SolveInconclusive:
    """No seed was accepted and at least one did not collapse cleanly."""

    best_residual: float
    seed_outcomes: tuple[str, ...]


# Acceptance of a polished field: residual (sup norm), most negative nodal
# value, and amplitude below which it counts as trivial (relative to the
# seed's amplitude, at least 1).
RESIDUAL_TOL = 1e-8
NEGATIVITY_TOL = 1e-10
NONTRIVIALITY_THRESHOLD = 1e-4
# Step caps of the Armijo descent and of the Newton polish.
MAX_DESCENT_STEPS = 1200
MAX_NEWTON_STEPS = 60
# Early exits of the Newton polish.  Collapse: a converged field at most
# NONTRIVIALITY_THRESHOLD in amplitude whose amplitude shrank by COLLAPSE_RATIO
# or more in each of the last COLLAPSE_STEPS accepted steps.  Stall: a residual
# still at or above RESIDUAL_TOL and above STALL_RATIO times its value
# STALL_WINDOW accepted steps earlier.
COLLAPSE_RATIO = 0.75
COLLAPSE_STEPS = 3
STALL_RATIO = 0.95
STALL_WINDOW = 5
# Values (seeds x components x nodes) in one stack of the Armijo descent;
# a stack always holds at least one seed.  16384 doubles are 128 KiB per
# stacked array.  On small fields numpy's per-call cost, not arithmetic, sets
# the time of a trial, and a stack pays it once for all its seeds.  A trial
# allocates no stack-sized array (see _FieldState), so a large stack no
# longer faults its pages in again; the gain fades as the stack's buffers
# outgrow the cache.
# Descent of k seeds of the theta_seeds family as one stack, against k stacks
# of one: 0.54x at 3 x 513 nodes (7,695 values), 0.62x at 2 x 1025 (10,250),
# 0.76x at 3 x 1025 (15,375), 0.94x for k = 2 at 3 x 2049 (12,294), 0.84x at
# 2 x 2049 (20,490), 0.88x at 3 x 1537 (23,055) and 0.98x at 3 x 2049
# (30,735).  Medians of 4 alternated runs on a 2-vCPU x86-64 host, numpy 2.4.
# The split stays: a whole solve with the five seeds as one stack, against
# the split of this bound, took 0.99-1.06x the time at 3 x 2049 nodes,
# 1.36-1.42x at 3 x 4097 and 0.98-1.28x at 2 x 4097 (medians of 5, 7 and 9
# alternated runs, same host).
DESCENT_STACK_VALUES = 16384


def _laplacian(U: np.ndarray, h: float, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Ghost-node Neumann Laplacian of each component of a stack U (shape (S, n, *grid)), written to out.

    scratch is a C-ordered array of U's shape that holds each neighbour in
    turn.  A node reads -0.0 only where u = +0.0 and every neighbour is -0.0;
    there u^- is +0.0, so the residual u^- - L u is +0.0 whatever the sign
    of L u's zero, and no +0.0 is added to clear it.
    """
    flat, shifted = U.reshape(-1), scratch.reshape(-1)
    stride = flat.size // (U.shape[0] * U.shape[1])
    for axis in range(2, U.ndim):
        # (-2 u[k] + u[k-1]) + u[k+1], mirrored across each face.  The
        # neighbours are U shifted by one node's stride in memory, with the
        # faces redone.
        stride //= U.shape[axis]
        head = (slice(None),) * axis
        second = out if axis == 2 else np.empty_like(out)
        np.multiply(U, -2.0, out=second)
        shifted[stride:] = flat[:-stride]
        scratch[head + (0,)] = U[head + (1,)]
        second += scratch
        shifted[:-stride] = flat[stride:]
        scratch[head + (-1,)] = U[head + (-2,)]
        second += scratch
        if axis > 2:
            out += second
    out /= h**2
    return out


def _aligned_empty(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised C-ordered float array whose data starts on a 64-byte boundary.

    numpy's elementwise loops write such an array about 1.7x as fast as one
    at the 32-byte offset numpy's own allocations of a stack get (1.8 against
    3.1 us for a product of 5,130 doubles, 2-vCPU x86-64 host, numpy 2.4).
    The results, sums and matrix products included, do not depend on it.
    """
    size = math.prod(shape)
    raw = np.empty(size + 8)
    start = -raw.ctypes.data % 64 // 8
    return raw[start:start + size].reshape(shape)


class _Quadrature(NamedTuple):
    """Grid constants of the discrete energy: spacing, 1-d trapezoid weights, nodal weights."""

    h: float
    w: np.ndarray
    W: np.ndarray


@functools.lru_cache(maxsize=8)
def _quadrature(grid: Grid) -> _Quadrature:
    w, W = grid.weights_1d(), grid.weights()
    w.flags.writeable = W.flags.writeable = False
    return _Quadrature(grid.h, w, W)


class _FieldState:
    """A stack of fields U, shape (S, n, *grid), and the pieces their energy, residual and Jacobian share.

    The package's only implementation of the discrete energy: cell-midpoint
    differences for the Dirichlet integrand, trapezoid weights W for the mass
    terms, so that W times the residual is exactly the energy's gradient.
    U^+, U^- and (U^+)^(p/2) are computed once per load; the residual and the
    nodal Jacobian block share (U^+)^(p/2-1) and sum_j beta_ij (u_j^+)^(p/2).
    Every sum runs within one field and every product is per field, so a
    field of a stack gets the bits it gets in a stack of one.

    The pieces live in buffers of the shape of the first stack, allocated
    once: load() evaluates a new stack of fields into them, and resize(S)
    keeps the first S rows of each, so a solver that drops fields from its
    stack evaluates every trial in place.  W is a full-shape copy of the
    nodal weights, so no product broadcasts them.
    """

    _BUFFERS = ("plus", "neg", "powered", "lowered", "coupled", "nonlinear", "work", "W")

    def __init__(self, A: np.ndarray, U: np.ndarray, p: float, q: _Quadrature) -> None:
        self.A, self.p, self.q = A, p, q
        self.plus, self.neg, self.powered, self.coupled, self.nonlinear, self.work, self.W = (
            _aligned_empty(U.shape) for _ in range(7))
        # (U^+)^1 is U^+ itself.
        self.lowered = self.plus if p == 4.0 else _aligned_empty(U.shape)
        self.W[...] = q.W
        self.load(U)

    def resize(self, S: int) -> None:
        """Keep the first S rows of every buffer (contiguous views)."""
        for name in self._BUFFERS:
            setattr(self, name, getattr(self, name)[:S])

    def load(self, U: np.ndarray) -> None:
        """Evaluate U^+, U^- and (U^+)^(p/2) of a stack U of the buffers' shape; U is read, not copied."""
        self.U = U
        np.maximum(U, 0.0, out=self.plus)
        np.minimum(U, 0.0, out=self.neg)
        cone_power(self.plus, self.p / 2.0, out=self.powered)
        self._factored = False

    def parts(self) -> list[tuple[float, float]]:
        """Per field, (Dirichlet term, Phi): the integrals of |grad u|^2 + |u^-|^2 and of b(u^+)/p."""
        U, q, work = self.U, self.q, self.work
        S, n = U.shape[:2]
        if U.ndim == 3:
            # Differences of the flat stack, summed through an (S, n, m - 1)
            # view: the difference across two rows is summed by no field.
            flat, diffs = U.reshape(-1), work.reshape(-1)[:-1]
            np.subtract(flat[1:], flat[:-1], out=diffs)
            np.square(diffs, out=diffs)
            gradient = (work[:, :, :-1].sum(axis=2) / q.h).tolist()
        else:
            rows = np.square(U[:, :, 1:] - U[:, :, :-1]).sum(axis=2)
            cols = np.square(U[:, :, :, 1:] - U[:, :, :, :-1]).sum(axis=3)
            gradient = [[float(rows[s, i] @ q.w + q.w @ cols[s, i]) / q.h for i in range(n)]
                        for s in range(S)]
        np.square(self.neg, out=work)
        mass = np.multiply(work, self.W, out=work).reshape(S, -1).sum(axis=1).tolist()
        np.multiply(self.powered, self.W, out=work)
        flat = self.powered.reshape(S, n, -1)
        overlap = work.reshape(S, n, -1) @ flat.transpose(0, 2, 1)
        terms = (self.A * overlap).reshape(S, -1).tolist()
        # Each field sums its components' Dirichlet terms in order and takes its own exact fsum for Phi.
        return [(sum(g) + m, math.fsum(t) / self.p) for g, m, t in zip(gradient, mass, terms)]

    def energies(self) -> list[float]:
        return [dirichlet / 2.0 - phi for dirichlet, phi in self.parts()]

    def _factors(self) -> tuple[np.ndarray, np.ndarray]:
        """((U^+)^(p/2-1), sum_j beta_ij (u_j^+)^(p/2)), computed on first use after a load."""
        # Not forms.p_form_coefficients: the Jacobian reads both factors apart, on components x nodes.
        if not self._factored:
            if self.p != 4.0:
                cone_power(self.plus, self.p / 2.0 - 1.0, out=self.lowered)
            stacked = self.U.shape[:2] + (-1,)
            np.matmul(self.A, self.powered.reshape(stacked), out=self.coupled.reshape(stacked))
            self._factored = True
        return self.lowered, self.coupled

    def residual(self, out: np.ndarray) -> np.ndarray:
        """Euler-Lagrange residual -L u + u^- - nonlinear term, as u^- - L u - nonlinear term, written to out.

        Leaves the nonlinear term sum_j beta_ij (u_j^+)^(p/2) (u_i^+)^(p/2-1) in self.nonlinear.
        """
        _laplacian(self.U, self.q.h, out, self.nonlinear)
        np.subtract(self.neg, out, out=out)
        np.multiply(*self._factors(), out=self.nonlinear)
        out -= self.nonlinear
        return out

    def nodal_block(self, rows: list[int] | slice = slice(None)) -> np.ndarray:
        """Zeroth-order part of the Jacobian of these rows of the stack: D[k, i, j] is the
        nodal diagonal of block (i, j) of field rows[k]."""
        U, p = self.U[rows], self.p
        lowered, coupled = (factor[rows] for factor in self._factors())
        z = np.zeros_like(U)
        positive = U > 0
        z[positive] = U[positive] ** (p / 2.0 - 2.0)
        D = -(p / 2.0) * self.A[:, :, None] * lowered[:, :, None] * lowered[:, None, :]
        diag = np.arange(U.shape[1])
        D[:, diag, diag] += (U < 0).astype(float) - (p / 2.0 - 1.0) * z * coupled
        return D


def energy(B: SymMatrix, u: FieldTuple, p: float, grid: Grid) -> EnergyReport:
    """Energy, Euler-Lagrange residual and per-component integral identities."""
    require_p(p)
    U = u.components
    if U.shape[0] != B.n or U.shape[1:] != grid.shape:
        raise ParameterError(
            f"field shape {U.shape} does not match n={B.n}, grid {grid.shape}"
        )
    q = _quadrature(grid)
    state = _FieldState(B.entries, U[None], p, q)
    [(dirichlet, phi)] = state.parts()
    residual = state.residual(np.empty_like(U[None]))[0]
    nonlinear = state.nonlinear[0]
    defects = tuple(
        float(np.sum(q.W * nonlinear[i])) for i in range(B.n)
    )
    return EnergyReport(
        energy=dirichlet / 2.0 - phi,
        dirichlet=dirichlet,
        phi=phi,
        residual_inf=float(np.max(np.abs(residual))),
        identity_defects=defects,
    )


def find_direction_d(B: SymMatrix, p: float) -> ConeVector:
    """Interior cone direction d with b(d^(p/2)) < 0, normalized to max 1.

    Requires the matrix to fail strict copositivity while admitting no exact
    constant solution, both read from one face pass; the simplex minimizer of
    b is pushed to the interior (components at least 1e-4 of the largest) and
    mapped through the inverse power.
    """
    cert, minimum = scan_faces(B, p)
    if cert is not None:
        raise NotApplicableError("ConstantSolutionExists")
    return _interior_direction(B, p, minimum)


def _interior_direction(B: SymMatrix, p: float, minimum: SimplexMinimum) -> ConeVector:
    if minimum.min_value > 0:
        raise NotApplicableError("StrictlyCopositive")
    c_star = minimum.argmin.components
    center = np.full(B.n, 1.0 / B.n)
    for blend in (0.0, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2):
        c = (1.0 - blend) * c_star + blend * center
        c = np.maximum(c, 1e-4 * c.max())
        c = c / c.sum()
        if quadratic_form(B, c) < 0:
            d = cone_power(c, 2.0 / p)
            return ConeVector(d / d.max())
    raise NotApplicableError("NoInteriorNegativeDirection")


def _bump_intervals(n: int, extent: float) -> list[tuple[float, float]]:
    if n == 1:
        return [(0.1 * extent, 0.9 * extent)]
    width = 0.8 * extent / n
    gap = 0.2 * extent / (n - 1)
    return [(i * (width + gap), i * (width + gap) + width) for i in range(n)]


def _require_line(*grids: Grid) -> None:
    if any(grid.dim != 1 for grid in grids):
        raise ParameterError("seeds and refinement take 1-d grids; a 2-d solve tiles the 1-d one")


def bump_profiles(B: SymMatrix, grid: Grid) -> np.ndarray:
    """Smooth disjoint-support bump per component: cos^2 on its own interval.

    Profiles live on a 1-d grid, satisfy 0 <= phi_i <= 1 and phi_i phi_j = 0
    exactly on the grid nodes.
    """
    _require_line(grid)
    n = B.n
    x = grid.axis()
    intervals = _bump_intervals(n, grid.extent)
    profiles = []
    for a, b in intervals:
        inside = (x >= a) & (x <= b)
        if int(inside.sum()) < 4:
            raise CapacityError(
                f"grid too coarse for {n} disjoint bumps of >= 4 nodes each"
            )
        phi = np.zeros_like(x)
        phi[inside] = np.cos(np.pi * (x[inside] - (a + b) / 2.0) / (b - a)) ** 2
        profiles.append(phi)
    return np.stack(profiles)


def homotopy_mixture(c: np.ndarray, t: float, profiles: np.ndarray) -> np.ndarray:
    """Field (1-t) c + t (c_1 phi_1, ..., c_n phi_n) for a cone point c."""
    return np.asarray(c, dtype=float)[:, None] * ((1.0 - t) + t * profiles)


def _ridge_scale(A: np.ndarray, V: np.ndarray, p: float, grid: Grid) -> float:
    """Amplitude s maximizing E(sV) along the ray, or 1.0 when E has no ridge."""
    [(quad, phi)] = _FieldState(A, V[None], p, _quadrature(grid)).parts()
    if phi <= 0 or quad <= 0:
        return 1.0
    return float((quad / (p * phi)) ** (1.0 / (p - 2.0)))


def theta_seeds(B: SymMatrix, d: ConeVector, grid: Grid,
                p: float = 4.0) -> list[tuple[str, FieldTuple]]:
    """The seed fields of the mountain-pass search on a 1-d grid with provenance labels.

    For n >= 2, five fields, each nonconstant with every component
    nonzero: the combined separated bumps at 0.9 and 1.5 times their ridge
    amplitude, and the homotopy mixtures at t in {1/4, 1/2, 3/4} between the
    ray along d and the bump images.  A field with one nonzero component can only reach
    u = 0, so the family is empty for n = 1.  Past scan_faces every beta_ii
    is positive (a zero diagonal is a singleton constant solution) and a zero
    component stays zero (p > 2), so such a run ends at a critical point of
    -Lu + u^- = beta_ii (u^+)^(p-1).  Summed with the trapezoid weights W,
    sum W Lu = 0 leaves sum W u^- = beta_ii sum W (u^+)^(p-1), whose sides
    have opposite signs.  Constant fields along d are left out on
    measurement, not proof: Newton collapsed every one of them below 1e-4
    (0.5, 1 and 2 times d on [[1,-2],[-2,1]] at 49^2 nodes).
    """
    _require_line(grid)
    n = B.n
    if d.components.size != n:
        raise DimensionError(f"direction d has length {d.components.size}, expected {n}")
    if not d.strictly_positive:
        raise ParameterError("direction d must be interior to the cone")
    if n == 1:
        return []
    A = B.entries
    profiles = bump_profiles(B, grid)
    scales = []
    for i in range(n):
        V = np.zeros((n,) + grid.shape)
        V[i] = profiles[i]
        scales.append(_ridge_scale(A, V, p, grid))
    combined = np.stack([scales[i] * profiles[i] for i in range(n)])
    # Slightly below the ridge: descent from the exact ridge maximum is a
    # coin flip between collapse and escape.
    seeds = [("combined bumps x0.9", FieldTuple(0.9 * combined)),
             ("combined bumps x1.5", FieldTuple(1.5 * combined))]
    ray = d.components / d.components.max() * (1.5 * max(scales))
    return seeds + [(f"mixture ray=d t={t}", FieldTuple(homotopy_mixture(ray, t, profiles)))
                    for t in (0.25, 0.5, 0.75)]


@functools.lru_cache(maxsize=8)
def _band_layout(n: int, m: int) -> np.ndarray:
    """Where D[i, j, x] of n components on m nodes sits in the flattened transpose of the band (see _band)."""
    i, j, x = np.indices((n, n, m))
    flat = ((x * n + j) * (3 * n + 1) + 2 * n + i - j).ravel()
    flat.flags.writeable = False
    return flat


def _band(D: np.ndarray, h: float) -> np.ndarray:
    """-L + D in LAPACK's gbsv band layout, for D of shape (n, n, m).

    Node-major, (node x, component i) is unknown x n + i, so -L + D has n
    sub- and super-diagonals.  gbsv stores M[I, J] at row 2n + I - J, column
    J of a (3n + 1, nm) band, the first n rows left for the LU's fill-in: a
    nodal block (x' = x) fills rows 2n + i - j.  The band is the transpose of
    a C-ordered array, so gbsv reads it in place.
    """
    n, m = D.shape[0], D.shape[2]
    ab = np.zeros((n * m, 3 * n + 1))
    ab.reshape(-1)[_band_layout(n, m)] = D.ravel()
    ab[:, 2 * n] += 2.0 / h**2
    # Neighbour nodes; the mirror doubles the inward one at each end.
    ab[n:, n] = ab[:-n, 3 * n] = -1.0 / h**2
    ab[n:2 * n, n] = ab[-2 * n:-n, 3 * n] = -2.0 / h**2
    return ab.T


def _newton_step(D: np.ndarray, r: np.ndarray, h: float) -> np.ndarray:
    """The Newton step: (-L + D) delta = -r by one banded LU, for D of shape (n, n, m).

    LAPACK's gbsv solves the band (_band), or gtsv the tridiagonal system of
    one component read from the same band, as scipy.linalg.solve_banded
    would, without its checks and copies.  A component whose rows of D and r
    vanish (one identically zero, which stays zero for p > 2) has the block
    -L alone, singular with a zero right side; it gets delta = 0 and the
    others are solved without it.
    """
    from scipy.linalg.lapack import dgbsv, dgtsv

    delta = np.zeros_like(r)
    live = np.flatnonzero(np.any(r != 0, axis=1) | np.any(D != 0, axis=(1, 2)))
    n, m = live.size, r.shape[1]
    if n < len(r):
        D, r = D[np.ix_(live, live)], r[live]
    rhs, ab = -r.T.ravel(), _band(D, h)
    if n == 1:
        _, _, _, x, info = dgtsv(ab[3, :-1], ab[2], ab[1, 1:], rhs)
    else:
        _, _, x, info = dgbsv(n, n, ab, rhs, overwrite_ab=True, overwrite_b=True)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    delta[live] = x.reshape(m, n).T
    return delta


def _newton_polish(A: np.ndarray, U0: np.ndarray, p: float,
                   grid: Grid) -> list[tuple[np.ndarray, float, bool]]:
    """Damped Newton on the discrete Euler-Lagrange system of a 1-d grid, from each field of a stack U0 (shape (S, n, m)).

    Each seed runs at most MAX_NEWTON_STEPS steps, each an exact banded solve
    (_newton_step) and a residual line search, and stops early at the
    improvement floor, on a collapse to zero or on a stall (see
    COLLAPSE_RATIO and STALL_RATIO), or unimproved on a singular Jacobian, a
    non-finite step or an amplitude above 1e8.  The seeds run in lockstep:
    each round evaluates one residual for the trial fields of every seed in
    the stack and, when some seed takes a step, one nodal Jacobian block for
    those seeds.  Each seed keeps its own Newton state, line-search step and
    exit tests as Python floats and leaves the stack when it exits, so it
    ends with the bits it gets in a stack of one.  The stack, its trial
    fields, Newton steps and trial residuals live in buffers of U0's shape,
    built once and cut to the first S rows as seeds leave; one _FieldState
    evaluates every round in place.  U0 is read, not written.  Returns per
    seed, in stack order, (field, residual_inf, converged), each field a
    fresh array.
    """
    h = grid.h
    U, cand, delta, r = (_aligned_empty(U0.shape) for _ in range(4))
    U[...] = U0
    state = _FieldState(A, U, p, _quadrature(grid))
    state.residual(r)
    # Per stack row: its seed's index, residual sup norm, residual and amplitude histories, line-search step.
    seed = list(range(len(U0)))
    rnorm = _sup_norms(r, state.work)
    residuals = [[value] for value in rnorm]
    amplitudes = [[value] for value in _sup_norms(U, state.work)]
    step = [1.0] * len(U0)
    per_row = (seed, rnorm, residuals, amplitudes, step)
    results: list = [None] * len(U0)

    def newton_steps(rows: list[int], exits: dict[int, bool]) -> None:
        """Solve the Newton systems of these rows of the stack, at the fields loaded in state and their
        residuals r, or record their exits."""
        solving = []
        for row in rows:
            # The step cap, a zero residual and a non-finite one end a seed as it stands.
            if len(residuals[row]) > MAX_NEWTON_STEPS or rnorm[row] == 0.0 or not math.isfinite(rnorm[row]):
                exits[row] = rnorm[row] < RESIDUAL_TOL
            else:
                solving.append(row)
        if not solving:
            return
        D = state.nodal_block(solving if len(solving) < len(seed) else slice(None))
        for block, row in zip(D, solving):
            try:
                d = _newton_step(block, r[row], h)
            except np.linalg.LinAlgError:
                exits[row] = False
                continue
            if not np.all(np.isfinite(d)):
                exits[row] = False
                continue
            delta[row] = d
            step[row] = 1.0

    def finish(exits: dict[int, bool]) -> None:
        """Record the seeds on these rows and drop them from the stack."""
        nonlocal U, cand, delta, r
        for row, converged in exits.items():
            results[seed[row]] = U[row].copy(), rnorm[row], converged
        keep = [row for row in range(len(seed)) if row not in exits]
        S = len(keep)
        U[:S], delta[:S] = U[keep], delta[keep]
        U, cand, delta, r = U[:S], cand[:S], delta[:S], r[:S]
        state.resize(S)
        for values in per_row:
            values[:] = [values[row] for row in keep]

    exits: dict[int, bool] = {}
    newton_steps(seed[:], exits)
    finish(exits)
    while seed:
        np.multiply(np.array(step)[:, None, None], delta, out=cand)
        cand += U
        state.load(cand)
        state.residual(r)
        rcnorm = _sup_norms(r, state.work)
        accepted = [math.isfinite(value) and value < (1.0 - 0.25 * step[row]) * rnorm[row]
                    for row, value in enumerate(rcnorm)]
        if any(accepted):
            amp = _sup_norms(cand, state.work)
            if all(accepted):
                U, cand = cand, U
            else:
                np.copyto(U, cand, where=np.array(accepted)[:, None, None])
        exits, stepping = {}, []
        for row, ok in enumerate(accepted):
            if not ok:
                # The improvement floor: no step down to 1e-6 lowers the residual enough.
                step[row] *= 0.5
                if step[row] <= 1e-6:
                    exits[row] = rnorm[row] < RESIDUAL_TOL
                continue
            rnorm[row] = rcnorm[row]
            if amp[row] > 1e8:
                exits[row] = False
                continue
            residuals[row].append(rnorm[row])
            amplitudes[row].append(amp[row])
            # Newton contracts a cubic zero only by 2/3 per step.  Once the
            # field is converged, no larger than NONTRIVIALITY_THRESHOLD (never
            # above the per-seed threshold of mountain_pass_solve) and
            # shrinking geometrically, it is classed as collapsed however far
            # it goes on.
            recent = amplitudes[row][-COLLAPSE_STEPS - 1:]
            collapsed = (rnorm[row] < RESIDUAL_TOL and amp[row] <= NONTRIVIALITY_THRESHOLD
                         and len(recent) > COLLAPSE_STEPS
                         and all(b <= COLLAPSE_RATIO * a for a, b in zip(recent, recent[1:])))
            # A converging seed gains far more than 1 - STALL_RATIO over the
            # window; short damped steps that do not are a stall.  Below
            # RESIDUAL_TOL the round-off tail runs on to the improvement
            # floor, so no converged field depends on this exit.
            stalled = (rnorm[row] >= RESIDUAL_TOL and len(residuals[row]) > STALL_WINDOW
                       and rnorm[row] > STALL_RATIO * residuals[row][-STALL_WINDOW - 1])
            if collapsed or stalled:
                exits[row] = rnorm[row] < RESIDUAL_TOL
            else:
                stepping.append(row)
        newton_steps(stepping, exits)
        if exits:
            finish(exits)
    return results


def _norms(grad: np.ndarray, work: np.ndarray) -> list[float]:
    """Euclidean norm of each field of a stack, with work (of grad's shape) as scratch."""
    return [math.sqrt(s) for s in np.square(grad, out=work).reshape(len(grad), -1).sum(axis=1).tolist()]


def _sup_norms(U: np.ndarray, work: np.ndarray) -> list[float]:
    """Largest absolute value in each field of a stack, with work (of U's shape) as scratch."""
    return np.abs(U, out=work).reshape(len(U), -1).max(axis=1).tolist()


def _descend_energy(A: np.ndarray, U0: np.ndarray, p: float,
                    grid: Grid) -> list[tuple[np.ndarray, float, float, bool]]:
    """Armijo gradient descent on the energy from each seed of a stack U0 (shape (S, n, m)).

    Returns per seed, in stack order, (best iterate, its gradient norm,
    initial gradient norm, escaped), each iterate a fresh array.  The best
    iterate is where the gradient norm dipped lowest (the saddle-passage
    candidate).  The energy is unbounded below, so a trajectory that falls
    past every seed scale is flagged as escaped: it carries no critical point
    beyond the dip already recorded.  Each trial stack is evaluated once, in
    place: one _FieldState gives its energies and, when some seed's step is
    accepted, its gradients W r.  The stack, its gradients and best iterates
    and the trial fields and gradients live in buffers of U0's shape, built
    once and cut to the first S rows as seeds leave; U0 is read, not written.
    The seeds share the evaluations and nothing else: each keeps its own
    Armijo state (energy, gradient norm, step and floors as Python floats,
    and its best iterate) and leaves the stack when it finishes, at the trial
    cap, the gradient floor, a step underflow or an escape.  So every seed
    gets the bits it gets in a stack of one.
    """
    U, best, grad, cand, cand_grad = (_aligned_empty(U0.shape) for _ in range(5))
    U[...] = best[...] = U0
    state = _FieldState(A, U, p, _quadrature(grid))
    E = state.energies()
    np.multiply(state.residual(grad), state.W, out=grad)
    gnorm = _norms(grad, state.work)
    amp0 = _sup_norms(U0, state.work)
    # Per stack row: its seed's index and Armijo state.
    seed = list(range(len(U0)))
    step = [0.1 / max(1.0, g) for g in gnorm]
    floor = [1e-10 * max(1.0, a) for a in amp0]
    g0, best_g = list(gnorm), list(gnorm)
    energy_floor = [-30.0 * (1.0 + abs(e)) for e in E]
    amp_ceiling = [8.0 * (1.0 + a) for a in amp0]
    escaped = [False] * len(U0)
    per_row = (seed, E, gnorm, step, floor, g0, best_g, energy_floor, amp_ceiling, escaped)
    results: list = [None] * len(U0)

    def finish(rows: list[int]) -> None:
        """Record the seeds on these rows and drop them from the stack."""
        nonlocal U, grad, best, cand, cand_grad
        for row in rows:
            results[seed[row]] = best[row].copy(), best_g[row], g0[row], escaped[row]
        keep = [row for row in range(len(seed)) if row not in rows]
        S = len(keep)
        U[:S], grad[:S], best[:S] = U[keep], grad[keep], best[keep]
        U, grad, best, cand, cand_grad = U[:S], grad[:S], best[:S], cand[:S], cand_grad[:S]
        state.resize(S)
        for values in per_row:
            values[:] = [values[row] for row in keep]

    if done := [row for row in range(len(seed)) if gnorm[row] < floor[row]]:
        finish(done)
    for _ in range(MAX_DESCENT_STEPS):
        if not seed:
            break
        np.multiply(np.array(step)[:, None, None], grad, out=cand)
        np.subtract(U, cand, out=cand)
        state.load(cand)
        Ec = state.energies()
        accepted = [Ec[row] < E[row] - 1e-4 * step[row] * gnorm[row]**2 for row in range(len(seed))]
        if any(accepted):
            np.multiply(state.residual(cand_grad), state.W, out=cand_grad)
            cand_g = _norms(cand_grad, state.work)
            amp = _sup_norms(cand, state.work)
        improved, done = [], []
        for row, ok in enumerate(accepted):
            if ok:
                E[row], gnorm[row] = Ec[row], cand_g[row]
                if gnorm[row] < best_g[row]:
                    best_g[row] = gnorm[row]
                    improved.append(row)
                step[row] *= 1.3
                if E[row] < energy_floor[row] or amp[row] > amp_ceiling[row]:
                    escaped[row] = True
                    done.append(row)
                elif gnorm[row] < floor[row]:
                    done.append(row)
            else:
                step[row] *= 0.5
                if step[row] < 1e-14:
                    done.append(row)
        if len(improved) == len(seed):
            np.copyto(best, cand)
        elif improved:
            mask = np.zeros(len(seed), dtype=bool)
            mask[improved] = True
            np.copyto(best, cand, where=mask[:, None, None])
        if all(accepted):
            U, cand, grad, cand_grad = cand, U, cand_grad, grad
        elif any(accepted):
            mask = np.array(accepted)[:, None, None]
            np.copyto(U, cand, where=mask)
            np.copyto(grad, cand_grad, where=mask)
        if done:
            finish(done)
    finish(list(range(len(seed))))
    return results


def _accept(B: SymMatrix, U: np.ndarray, rnorm: float, threshold: float, p: float,
            grid: Grid, provenance: str) -> NeumannSolution | tuple[str, float | None]:
    """Accept a converged polish U, or give its seed-outcome text and pending residual.

    The checks, in order: amplitude above threshold (else collapsed, pending
    None), no node below -NEGATIVITY_TOL, clamped residual below RESIDUAL_TOL.
    """
    amp = float(np.max(np.abs(U)))
    if amp <= threshold:
        return f"{provenance}: collapsed to trivial", None
    if U.min() < -NEGATIVITY_TOL:
        return f"{provenance}: negative part {U.min():.2e}", rnorm
    clamped = np.maximum(U, 0.0)
    field = FieldTuple(clamped)
    report = energy(B, field, p, grid)
    if report.residual_inf >= RESIDUAL_TOL:
        return f"{provenance}: clamped residual {report.residual_inf:.2e}", report.residual_inf
    variation = max(float(clamped[i].max() - clamped[i].min()) for i in range(B.n))
    classification = "Nonconstant" if variation > 1e-6 * (1.0 + amp) else "Constant"
    return NeumannSolution(field, report, classification, provenance)


def mountain_pass_solve(B: SymMatrix, p: float,
                        grid: Grid) -> NeumannSolution | TrivialOnly | SolveInconclusive:
    """Locate a nontrivial nonnegative critical point of the discrete energy.

    Pipeline: constant shortcut from one face pass; otherwise descend from
    each field of the theta_seeds family, in stacks of as many seeds as
    DESCENT_STACK_VALUES holds (at least one), Newton-polish the
    iterates where the seeds' gradients were smallest, the stack in lockstep
    (_newton_polish), then accept or reject the polished fields one at a time
    in family order (five seeds for n >= 2, none for n = 1).  A field is
    accepted when its residual, negativity and nontriviality pass
    RESIDUAL_TOL, NEGATIVITY_TOL and NONTRIVIALITY_THRESHOLD; the accepted
    field with the least energy wins (ties by residual, then lexicographic
    comparison).  Residuals of accepted fields differ by round-off only, so
    ranking by them would pick by noise.
    With no accepted field the outcome is TrivialOnly when every seed
    collapsed or escaped, otherwise SolveInconclusive with the least finite
    residual among the seeds that stalled, kept a negative part or failed
    after clamping.  On a 2-d grid the search runs on the line of the same
    nodes; an accepted profile is tiled along y and reported on the 2-d grid.
    """
    if grid.dim == 2:
        out = mountain_pass_solve(B, p, Grid(1, grid.extent, grid.points_per_side))
        if not isinstance(out, NeumannSolution):
            return out
        field = FieldTuple(np.repeat(out.field.components[:, :, None], grid.points_per_side, axis=2))
        return NeumannSolution(field, energy(B, field, p, grid), out.classification, out.seed_provenance)
    require_nonnegative_diagonal(B)
    A = B.entries

    cert, minimum = scan_faces(B, p)  # also rejects p <= 2
    if cert is not None:
        field = FieldTuple(np.stack([np.full(grid.shape, v) for v in cert.u.components]))
        return NeumannSolution(field, energy(B, field, p, grid), "Constant", "constant-kernel shortcut")

    try:
        d = _interior_direction(B, p, minimum)
    except NotApplicableError:
        # No negative direction (e.g. strictly copositive input): the seed
        # family is still well defined, and no run should be accepted.
        d = ConeVector(np.ones(B.n))

    accepted: list[NeumannSolution] = []
    outcomes: list[str] = []
    # Residuals of the seeds that leave the outcome undecided.
    pending: list[float] = []
    seeds = theta_seeds(B, d, grid, p)
    size = max(1, DESCENT_STACK_VALUES // (B.n * grid.points_per_side))
    for first in range(0, len(seeds), size):
        stack = seeds[first:first + size]
        descents = _descend_energy(A, np.stack([seed.components for _, seed in stack]), p, grid)
        polished = _newton_polish(A, np.stack([start for start, _, _, _ in descents]), p, grid)
        for (provenance, seed), (_, _, _, escaped), (U, rnorm, converged) in zip(stack, descents, polished):
            threshold = NONTRIVIALITY_THRESHOLD * max(1.0, seed.amplitude)
            if converged:
                verdict = _accept(B, U, rnorm, threshold, p, grid, provenance)
            elif escaped:
                verdict = f"{provenance}: escaped (dip not polishable)", None
            else:
                verdict = f"{provenance}: newton stalled at residual {rnorm:.2e}", rnorm
            if isinstance(verdict, NeumannSolution):
                accepted.append(verdict)
                outcomes.append(f"{provenance}: accepted residual {verdict.report.residual_inf:.2e}")
                continue
            outcomes.append(verdict[0])
            if verdict[1] is not None:
                pending.append(verdict[1])

    if accepted:
        return min(accepted, key=lambda s: (s.report.energy, s.report.residual_inf,
                                            tuple(s.field.components.ravel())))
    if not pending:
        return TrivialOnly(tuple(outcomes))
    best_residual = min((r for r in pending if np.isfinite(r)), default=np.inf)
    return SolveInconclusive(best_residual=float(best_residual), seed_outcomes=tuple(outcomes))


def refine_solution(B: SymMatrix, solution: NeumannSolution, p: float,
                    grid_from: Grid, grid_to: Grid) -> NeumannSolution:
    """Interpolate a 1-d solution linearly to a finer grid, Newton-polish it there
    and accept it as mountain_pass_solve does; ParameterError names a failed check."""
    _require_line(grid_from, grid_to)
    x_from, x_to = grid_from.axis(), grid_to.axis()
    fine = np.stack([np.interp(x_to, x_from, u) for u in solution.field.components])
    [(polished, rnorm, converged)] = _newton_polish(B.entries, fine[None], p, grid_to)
    if not converged:
        raise ParameterError(f"refinement failed to converge, residual {rnorm:.2e}")
    threshold = NONTRIVIALITY_THRESHOLD * max(1.0, float(np.max(np.abs(fine))))
    verdict = _accept(B, polished, rnorm, threshold, p, grid_to, solution.seed_provenance)
    if not isinstance(verdict, NeumannSolution):
        raise ParameterError(f"refinement rejected: {verdict[0]}")
    return verdict


def reflect_tile(u: FieldTuple, grid: Grid, copies: int) -> tuple[FieldTuple, Grid]:
    """Even reflection across each face, doubling the box ``copies`` times.

    The extension is periodic with period twice the original side; interior
    stencils of the extension map onto original stencils, so the discrete
    residual is preserved node for node.
    """
    copies = require_int(copies, 1, "copies must be a positive integer")
    m = grid.points_per_side
    factor = 2**copies
    new_m = (m - 1) * factor + 1
    idx = np.arange(new_m) % (2 * (m - 1))
    idx = np.minimum(idx, 2 * (m - 1) - idx)
    ext = u.components[(slice(None),) + np.ix_(*[idx] * grid.dim)]
    new_grid = Grid(grid.dim, grid.extent * factor, new_m)
    return FieldTuple(ext), new_grid


def write_solution_csv(solution: NeumannSolution, grid: Grid, path: str | Path) -> Path:
    """Node-ordered CSV dump `x[,y],u1,...,un` plus a JSON sidecar holding the
    energy report's fields, the classification and the seed provenance.

    Each cell is the repr of its float, taken once per distinct bit pattern
    (so -0.0 keeps its sign): a 2-d solution is its profile tiled along y, so
    its (2 + n) m^2 cells hold at most (1 + n) m distinct values.
    """
    path = Path(path)
    U = solution.field.components
    n = U.shape[0]
    header = ("x," if grid.dim == 1 else "x,y,") + ",".join(
        f"u{i + 1}" for i in range(n)
    )
    nodes = np.meshgrid(*[grid.axis()] * grid.dim, indexing="ij")
    table = np.column_stack([*(x.ravel() for x in nodes), *U.reshape(n, -1)])
    bits, index = np.unique(table.view(np.uint64), return_inverse=True)
    texts = np.array([repr(value) for value in bits.view(np.float64).tolist()], dtype=object)
    rows = texts[index.reshape(table.shape)].tolist()
    path.write_text("\n".join([header] + [",".join(row) for row in rows]) + "\n")
    sidecar = path.with_suffix(path.suffix + ".json")
    doc = {
        **asdict(solution.report),
        "classification": solution.classification,
        "seed_provenance": solution.seed_provenance,
    }
    sidecar.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return sidecar
