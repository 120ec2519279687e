"""Finite-difference realization of the Neumann problem on a box.

Second-order uniform grid with mirror (ghost-node) closure of the Laplacian.
The discrete energy uses cell-midpoint differences for the gradient term and
trapezoid weights for the mass terms, which makes the assembled Euler-Lagrange
residual exactly the weighted gradient of the discrete energy.  Critical
points are located by Armijo gradient descent from a family of seed fields
(constants along a negative direction, separated bumps, and homotopy
mixtures), followed by a Newton-Krylov polish: GMRES on the matrix-free
Jacobian, preconditioned mode by mode in the DCT-I basis that diagonalises the
mirror Laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.fft import dctn
from scipy.sparse.linalg import LinearOperator, gmres
# Unused by the solver; the traced benchmark wraps ``neumann.splu`` by name.
from scipy.sparse.linalg import splu  # noqa: F401

from .copositivity import ConstantSolutionCertificate, SimplexMinimum, scan_faces
from .copositivity import simplex_min_quadratic  # noqa: F401  (bench/spans.py wraps this attribute)
from .errors import CapacityError, NotApplicableError, ParameterError
from .forms import ConeVector, SymMatrix, cone_power, fsum_terms, quadratic_form
from .solvability import constant_solution  # noqa: F401  (bench/spans.py wraps this attribute)


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on [0, extent]^dim with Neumann ghost closure."""

    dim: int
    extent: float = 1.0
    points_per_side: int = 129

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ParameterError(f"grid dimension must be 1 or 2, got {self.dim}")
        if not self.extent > 0:
            raise ParameterError(f"box side must be positive, got {self.extent}")
        if self.points_per_side < 17:
            raise ParameterError(
                f"need at least 17 points per side, got {self.points_per_side}"
            )

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
    """Tuple of scalar nodal fields, one per system component."""

    components: np.ndarray  # shape (n, *grid.shape)

    def __post_init__(self) -> None:
        arr = np.array(self.components, dtype=float)
        if arr.ndim < 2:
            raise ParameterError("field tuple needs shape (n, nodes...)")
        object.__setattr__(self, "components", arr)

    @property
    def n(self) -> int:
        return self.components.shape[0]

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
    """Every seed collapsed below the nontriviality threshold."""

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
# Seeds drawn from the competitor family (at least n + 2), and the step caps
# of the Armijo descent and of the Newton polish.
SEED_COUNT = 12
MAX_DESCENT_STEPS = 1200
MAX_NEWTON_STEPS = 60

# GMRES per Newton step: relative tolerance and iteration cap (one restart
# cycle); in the round-off tail the line search decides whether a step is taken.
KRYLOV_RTOL = 1e-9
KRYLOV_MAXITER = 30
# Cap on n * k^dim, the size of the preconditioner's low-mode Galerkin block.
COARSE_SIZE = 256


def _laplacian(U: np.ndarray, h: float) -> np.ndarray:
    """Ghost-node Neumann Laplacian of each component of U (shape (n, *grid))."""
    out = 0.0
    for axis in range(1, U.ndim):
        v = U.swapaxes(axis, 0)
        # u[k-1] - 2 u[k] + u[k+1], mirrored across each face
        second = -2.0 * v
        second[1:] += v[:-1]
        second[0] += v[1]
        second[:-1] += v[1:]
        second[-1] += v[-2]
        out = out + second.swapaxes(0, axis)
    return out / h**2


def _gradient_energy(u: np.ndarray, grid: Grid) -> float:
    """Cell-midpoint quadrature of the Dirichlet integrand of one component."""
    h = grid.h
    if grid.dim == 1:
        return float(np.sum(np.diff(u) ** 2)) / h
    w = grid.weights_1d()
    dx = np.diff(u, axis=0)
    dy = np.diff(u, axis=1)
    return float((dx**2).sum(axis=0) @ w + w @ (dy**2).sum(axis=1)) / h


def _nonlinear_term(A: np.ndarray, U: np.ndarray, p: float) -> np.ndarray:
    """Componentwise sum_j beta_ij (u_j^+)^(p/2) (u_i^+)^(p/2-1)."""
    plus = np.maximum(U, 0.0)
    powered = cone_power(plus, p / 2.0)
    lowered = cone_power(plus, p / 2.0 - 1.0)
    coupled = np.tensordot(A, powered, axes=1)
    return lowered * coupled


def _residual(A: np.ndarray, U: np.ndarray, p: float, grid: Grid,
              nonlinear: np.ndarray | None = None) -> np.ndarray:
    """Euler-Lagrange residual, from _nonlinear_term(A, U, p) when the caller has it."""
    nonlinear = _nonlinear_term(A, U, p) if nonlinear is None else nonlinear
    return -_laplacian(U, grid.h) + np.minimum(U, 0.0) - nonlinear


def _energy_parts(A: np.ndarray, U: np.ndarray, p: float, grid: Grid) -> tuple[float, float]:
    """(Dirichlet term, Phi): the integrals of |grad u|^2 + |u^-|^2 and of b(u^+)/p."""
    W = grid.weights()
    dirichlet = sum(_gradient_energy(U[i], grid) for i in range(U.shape[0]))
    dirichlet += float(np.sum(W * np.minimum(U, 0.0) ** 2))
    powered = cone_power(np.maximum(U, 0.0), p / 2.0)
    flat = powered.reshape(U.shape[0], -1)
    overlap = (flat * W.ravel()) @ flat.T
    return dirichlet, fsum_terms(A * overlap) / p


def _energy_value(A: np.ndarray, U: np.ndarray, p: float, grid: Grid) -> float:
    dirichlet, phi = _energy_parts(A, U, p, grid)
    return dirichlet / 2.0 - phi


def energy(B: SymMatrix, u: FieldTuple, p: float, grid: Grid) -> EnergyReport:
    """Energy, Euler-Lagrange residual and per-component integral identities."""
    if not p > 2:
        raise ParameterError(f"p must exceed 2, got {p}")
    U = u.components
    if U.shape[0] != B.n or U.shape[1:] != grid.shape:
        raise ParameterError(
            f"field shape {U.shape} does not match n={B.n}, grid {grid.shape}"
        )
    A = B.entries
    W = grid.weights()
    dirichlet, phi = _energy_parts(A, U, p, grid)
    nonlinear = _nonlinear_term(A, U, p)
    residual = _residual(A, U, p, grid, nonlinear)
    defects = tuple(
        float(np.sum(W * nonlinear[i])) for i in range(B.n)
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
        if quadratic_form(B, c).value < 0:
            d = cone_power(c, 2.0 / p)
            return ConeVector(d / d.max())
    raise NotApplicableError("NoInteriorNegativeDirection")


def _bump_intervals(n: int, extent: float) -> list[tuple[float, float]]:
    if n == 1:
        return [(0.1 * extent, 0.9 * extent)]
    width = 0.8 * extent / n
    gap = 0.2 * extent / (n - 1)
    return [(i * (width + gap), i * (width + gap) + width) for i in range(n)]


def bump_profiles(B: SymMatrix, grid: Grid) -> np.ndarray:
    """Smooth disjoint-support bump per component: cos^2 on its own interval.

    Profiles live along the first axis (constant across the second in 2d),
    satisfy 0 <= phi_i <= 1 and phi_i phi_j = 0 exactly on the grid nodes.
    """
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
        if grid.dim == 2:
            phi = np.tile(phi[:, None], (1, grid.points_per_side))
        profiles.append(phi)
    return np.stack(profiles)


def homotopy_mixture(c: np.ndarray, t: float, profiles: np.ndarray) -> np.ndarray:
    """Field (1-t) c + t (c_1 phi_1, ..., c_n phi_n) for a cone point c."""
    c = np.asarray(c, dtype=float)
    shape = (1,) * (profiles.ndim - 1)
    cb = c.reshape((-1,) + shape)
    return cb * ((1.0 - t) + t * profiles)


def _ridge_scale(A: np.ndarray, V: np.ndarray, p: float, grid: Grid) -> float:
    """Amplitude s maximizing E(sV) along the ray, or 1.0 when E has no ridge."""
    quad, phi = _energy_parts(A, V, p, grid)
    if phi <= 0 or quad <= 0:
        return 1.0
    return float((quad / (p * phi)) ** (1.0 / (p - 2.0)))


def theta_seeds(B: SymMatrix, d: ConeVector, grid: Grid, count: int,
                p: float = 4.0) -> list[tuple[str, FieldTuple]]:
    """The first ``count`` seed fields of the competitor family, with provenance labels.

    Constants along d, per-component and combined separated bumps at their
    ridge amplitude, and homotopy mixtures between boundary rays and bump
    images at t in {1/4, 1/2, 3/4}: 4n + 8 fields in all.
    """
    n = B.n
    if not d.strictly_positive:
        raise ParameterError("direction d must be interior to the cone")
    if not n + 2 <= count <= 4 * n + 8:
        raise ParameterError(f"count must be between n + 2 = {n + 2} and 4n + 8 = {4 * n + 8}")
    A = B.entries
    profiles = bump_profiles(B, grid)
    dv = d.components / d.components.max()
    ones_shape = (n,) + grid.shape

    seeds: list[tuple[str, FieldTuple]] = []

    def constant_field(scale: float) -> np.ndarray:
        return np.ones(ones_shape) * (scale * dv).reshape((n,) + (1,) * grid.dim)

    for lam in (0.5, 1.0, 2.0):
        seeds.append((f"constant lambda={lam}", FieldTuple(constant_field(lam))))

    scales = []
    for i in range(n):
        V = np.zeros(ones_shape)
        V[i] = profiles[i]
        s = _ridge_scale(A, V, p, grid)
        scales.append(s)
        # Slightly below the ridge: descent from the exact ridge maximum is a
        # coin flip between collapse and escape.
        seeds.append((f"bump component={i} amplitude={0.9 * s:.4g}", FieldTuple(0.9 * s * V)))

    combined = np.stack([scales[i] * profiles[i] for i in range(n)])
    seeds.append(("combined bumps x0.9", FieldTuple(0.9 * combined)))
    seeds.append(("combined bumps x1.5", FieldTuple(1.5 * combined)))

    ray_scale = 1.5 * max(scales)
    rays = [("d", dv * ray_scale)]
    for i in range(n):
        e = np.zeros(n)
        e[i] = ray_scale
        rays.append((f"e{i}", e))
    for name, c in rays:
        for t in (0.25, 0.5, 0.75):
            seeds.append(
                (f"mixture ray={name} t={t}", FieldTuple(homotopy_mixture(c, t, profiles)))
            )
    return seeds[:count]


def _nodal_block(A: np.ndarray, U: np.ndarray, p: float) -> np.ndarray:
    """Zeroth-order part of the Jacobian: D[i, j] is the nodal diagonal of block (i, j)."""
    plus = np.maximum(U, 0.0)
    lowered = cone_power(plus, p / 2.0 - 1.0)
    coupled = np.tensordot(A, cone_power(plus, p / 2.0), axes=1)
    z = np.zeros_like(U)
    z[U > 0] = U[U > 0] ** (p / 2.0 - 2.0)
    expand = (slice(None), slice(None)) + (None,) * (U.ndim - 1)
    D = -(p / 2.0) * A[expand] * lowered[:, None] * lowered[None, :]
    diag = np.arange(U.shape[0])
    D[diag, diag] += (U < 0).astype(float) - (p / 2.0 - 1.0) * z * coupled
    return D


def _jacobian_product(D: np.ndarray, V: np.ndarray, h: float) -> np.ndarray:
    """(-L + D) V for a field V of shape (n, *grid)."""
    return -_laplacian(V, h) + np.einsum("ij...,j...->i...", D, V)


def _dct_preconditioner(D: np.ndarray, grid: Grid):
    """x -> approximate inverse of the Jacobian -L + D, block diagonal in DCT-I modes.

    -L has eigenvalue eig[k] on mode cos(pi j k / (m - 1)) of an axis.  Modes
    with eig above every |D| entry get (-L + I)^-1; the box of lower ones (at
    least the constant mode, whose block is the trapezoid-weighted mean of D)
    gets the exact inverse of the Galerkin block of -L + D.
    """
    n, m, dim = D.shape[0], grid.points_per_side, grid.dim
    axes = tuple(range(1, dim + 1))
    scale = 2.0 * (m - 1)  # DCT-I applied twice multiplies by this, per axis
    eig = (2.0 - 2.0 * np.cos(np.pi * np.arange(m) / (m - 1))) / grid.h**2
    lap_eig = eig if dim == 1 else eig[:, None] + eig[None, :]
    cap = max(1, int((COARSE_SIZE / n) ** (1.0 / dim)))
    k = min(int(np.searchsorted(eig, np.max(np.abs(D)))) + 1, cap, m)
    cosines = np.cos(np.pi * np.outer(np.arange(k), np.arange(m)) / (m - 1))
    ends = np.r_[1.0, np.full(m - 2, 2.0), 1.0]
    rows = cosines * ends  # DCT-I coefficients k of a field
    cols = cosines * ends[:k, None] / scale  # mode k as a field
    block = D
    for _ in range(dim):
        block = np.einsum("ax,ijx...,cx->ij...ac", rows, block, cols, optimize=True)
    order = [0, *range(2, 2 + 2 * dim, 2), 1, *range(3, 3 + 2 * dim, 2)]
    size = n * k**dim
    box = (slice(None),) + (slice(0, k),) * dim
    block = block.transpose(order).reshape(size, size)
    block += np.diag(np.tile(lap_eig[box[1:]].ravel(), n))
    try:
        coarse = np.linalg.inv(block)
    except np.linalg.LinAlgError:
        coarse = np.linalg.pinv(block)
    inverse = 1.0 / ((1.0 + lap_eig) * scale**dim)

    def apply(x: np.ndarray) -> np.ndarray:
        C = dctn(x.reshape((n,) + grid.shape), type=1, axes=axes)
        low = coarse @ C[box].ravel()
        C *= inverse
        C[box] = low.reshape(C[box].shape) / scale**dim
        return dctn(C, type=1, axes=axes).ravel()

    return apply


def _krylov_step(D: np.ndarray, r: np.ndarray, grid: Grid) -> np.ndarray:
    """Preconditioned GMRES for the Newton step: (-L + D) delta = -r."""
    shape = (r.size, r.size)
    jac = LinearOperator(shape, lambda v: _jacobian_product(D, v.reshape(r.shape), grid.h).ravel(),
                         dtype=float)
    precondition = LinearOperator(shape, _dct_preconditioner(D, grid), dtype=float)
    delta, _ = gmres(jac, -r.ravel(), rtol=KRYLOV_RTOL, restart=KRYLOV_MAXITER,
                     maxiter=1, M=precondition)
    return delta.reshape(r.shape)


def _newton_polish(A: np.ndarray, U0: np.ndarray, p: float,
                   grid: Grid) -> tuple[np.ndarray, float, bool]:
    """Damped Newton-Krylov on the discrete Euler-Lagrange system.

    Returns (field, residual_inf, converged).
    """
    U = U0.copy()
    r = _residual(A, U, p, grid)
    rnorm = float(np.max(np.abs(r)))
    for _ in range(MAX_NEWTON_STEPS):
        # Iterate to the improvement floor: degenerate descents to zero must
        # shrink well below the nontriviality threshold, not stop at it.
        if rnorm == 0.0 or not np.isfinite(rnorm):
            break
        try:
            delta = _krylov_step(_nodal_block(A, U, p), r, grid)
        except np.linalg.LinAlgError:
            return U, rnorm, False
        if not np.all(np.isfinite(delta)):
            return U, rnorm, False
        step = 1.0
        improved = False
        while step > 1e-6:
            cand = U + step * delta
            rc = _residual(A, cand, p, grid)
            rcnorm = float(np.max(np.abs(rc)))
            if np.isfinite(rcnorm) and rcnorm < (1.0 - 0.25 * step) * rnorm:
                U, r, rnorm = cand, rc, rcnorm
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        if np.max(np.abs(U)) > 1e8:
            return U, rnorm, False
    return U, rnorm, rnorm < RESIDUAL_TOL


def _descend_energy(A: np.ndarray, U0: np.ndarray, p: float,
                    grid: Grid) -> tuple[np.ndarray, float, float, bool]:
    """Armijo gradient descent on the energy.

    Returns (best iterate, its gradient norm, initial gradient norm, escaped).
    The best iterate is where the gradient norm dipped lowest (the
    saddle-passage candidate).  The energy is unbounded below, so a
    trajectory that falls past every seed scale is flagged as escaped: it
    carries no critical point beyond the dip already recorded.
    """
    W = grid.weights()
    U = U0.copy()
    E = _energy_value(A, U, p, grid)
    grad = W * _residual(A, U, p, grid)
    gnorm = float(np.sqrt(np.sum(grad**2)))
    best_U, best_g = U.copy(), gnorm
    step = 0.1 / max(1.0, gnorm)
    floor = 1e-10 * max(1.0, float(np.max(np.abs(U0))))
    g0 = gnorm
    energy_floor = -30.0 * (1.0 + abs(E))
    amp_ceiling = 8.0 * (1.0 + float(np.max(np.abs(U0))))
    escaped = False
    for _ in range(MAX_DESCENT_STEPS):
        if gnorm < floor:
            break
        cand = U - step * grad
        Ec = _energy_value(A, cand, p, grid)
        if Ec < E - 1e-4 * step * gnorm**2:
            U, E = cand, Ec
            grad = W * _residual(A, U, p, grid)
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


def _constant_shortcut(B: SymMatrix, cert: ConstantSolutionCertificate,
                       p: float, grid: Grid) -> NeumannSolution:
    U = np.stack([np.full(grid.shape, v) for v in cert.u.components])
    field = FieldTuple(U)
    report = energy(B, field, p, grid)
    return NeumannSolution(
        field=field,
        report=report,
        classification="Constant",
        seed_provenance="constant-kernel shortcut",
    )


def mountain_pass_solve(
    B: SymMatrix,
    p: float,
    grid: Grid,
    initial_fields: list[tuple[str, FieldTuple]] | None = None,
) -> NeumannSolution | TrivialOnly | SolveInconclusive:
    """Locate a nontrivial nonnegative critical point of the discrete energy.

    Pipeline: constant shortcut from one face pass; otherwise descend from
    each seed field (``initial_fields``, or the first SEED_COUNT of theta_seeds)
    and Newton-polish the iterate where the gradient was smallest.  A field is
    accepted when its residual, negativity and nontriviality pass
    RESIDUAL_TOL, NEGATIVITY_TOL and NONTRIVIALITY_THRESHOLD; the accepted
    field with the least energy wins (ties by residual, then lexicographic
    comparison).  Residuals of accepted fields differ by round-off only, so
    ranking by them would pick by noise.  With no accepted field the outcome
    is TrivialOnly when every seed collapsed cleanly, otherwise
    SolveInconclusive with the least finite residual reached.
    """
    if np.any(np.diag(B.entries) < 0):
        raise ParameterError("diagonal entries must be nonnegative")
    A = B.entries

    cert, minimum = scan_faces(B, p)  # also rejects p <= 2
    if cert is not None:
        return _constant_shortcut(B, cert, p, grid)

    if initial_fields is None:
        try:
            d = _interior_direction(B, p, minimum)
        except NotApplicableError:
            # No negative direction (e.g. strictly copositive input): the seed
            # family is still well defined and every run should collapse.
            d = ConeVector(np.ones(B.n))
        seeds = theta_seeds(B, d, grid, max(SEED_COUNT, B.n + 2), p)
    else:
        seeds = initial_fields

    accepted: list[tuple[float, float, NeumannSolution]] = []
    outcomes: list[str] = []
    pending = False
    best_residual = np.inf
    for provenance, seed in seeds:
        seed_amp = max(1.0, seed.amplitude)
        threshold = NONTRIVIALITY_THRESHOLD * seed_amp
        start, dip_g, g0, escaped = _descend_energy(A, seed.components, p, grid)
        U, rnorm, converged = _newton_polish(A, start, p, grid)
        if rnorm < best_residual and np.all(np.isfinite(U)):
            best_residual = rnorm
        amp = float(np.max(np.abs(U))) if np.all(np.isfinite(U)) else 0.0
        if converged and amp <= threshold:
            outcomes.append(f"{provenance}: collapsed to trivial")
            continue
        if not converged:
            if escaped:
                outcomes.append(f"{provenance}: escaped (dip not polishable)")
            else:
                outcomes.append(f"{provenance}: newton stalled at residual {rnorm:.2e}")
                pending = True
            continue
        if U.min() < -NEGATIVITY_TOL:
            outcomes.append(f"{provenance}: negative part {U.min():.2e}")
            pending = True
            continue
        clamped = np.maximum(U, 0.0)
        field = FieldTuple(clamped)
        report = energy(B, field, p, grid)
        if report.residual_inf >= RESIDUAL_TOL:
            outcomes.append(f"{provenance}: clamped residual {report.residual_inf:.2e}")
            pending = True
            continue
        variation = max(
            float(clamped[i].max() - clamped[i].min()) for i in range(B.n)
        )
        classification = "Nonconstant" if variation > 1e-6 * (1.0 + amp) else "Constant"
        solution = NeumannSolution(field, report, classification, provenance)
        accepted.append((report.energy, report.residual_inf, solution))
        outcomes.append(f"{provenance}: accepted residual {report.residual_inf:.2e}")

    if accepted:
        return min(accepted, key=lambda a: (a[0], a[1], tuple(a[2].field.components.ravel())))[2]
    if not pending:
        return TrivialOnly(tuple(outcomes))
    return SolveInconclusive(best_residual=float(best_residual), seed_outcomes=tuple(outcomes))


def _prolong(U: np.ndarray, grid_from: Grid, grid_to: Grid) -> np.ndarray:
    """Separable (bi)linear interpolation of the fields U: np.interp along each axis."""
    x_from, x_to = grid_from.axis(), grid_to.axis()
    j = np.clip(np.searchsorted(x_from, x_to, side="right") - 1, 0, x_from.size - 2)
    for axis in range(1, U.ndim):
        v = U.swapaxes(axis, -1)
        lo, hi = v[..., j], v[..., j + 1]
        out = (hi - lo) / (x_from[j + 1] - x_from[j]) * (x_to - x_from[j]) + lo
        U = np.where(x_to == x_from[j], lo, np.where(x_to == x_from[j + 1], hi, out)).swapaxes(axis, -1)
    return U


def refine_solution(B: SymMatrix, solution: NeumannSolution, p: float,
                    grid_from: Grid, grid_to: Grid) -> NeumannSolution:
    """Prolong a solution to a finer grid and Newton-polish it there."""
    fine = _prolong(solution.field.components, grid_from, grid_to)
    polished, rnorm, converged = _newton_polish(B.entries, fine, p, grid_to)
    if not converged:
        raise ParameterError(f"refinement failed to converge, residual {rnorm:.2e}")
    field = FieldTuple(np.maximum(polished, 0.0))
    report = energy(B, field, p, grid_to)
    return NeumannSolution(field, report, solution.classification, solution.seed_provenance)


def reflect_tile(u: FieldTuple, grid: Grid, copies: int) -> tuple[FieldTuple, Grid]:
    """Even reflection across each face, doubling the box ``copies`` times.

    The extension is periodic with period twice the original side; interior
    stencils of the extension map onto original stencils, so the discrete
    residual is preserved node for node.
    """
    if int(copies) != copies or copies < 1:
        raise ParameterError(f"copies must be a positive integer, got {copies}")
    m = grid.points_per_side
    factor = 2**copies
    new_m = (m - 1) * factor + 1
    idx = np.arange(new_m) % (2 * (m - 1))
    idx = np.minimum(idx, 2 * (m - 1) - idx)
    ext = u.components[(slice(None),) + np.ix_(*[idx] * grid.dim)]
    new_grid = Grid(grid.dim, grid.extent * factor, new_m)
    return FieldTuple(ext), new_grid


def write_solution_csv(solution: NeumannSolution, grid: Grid, path: str | Path) -> Path:
    """Node-ordered CSV dump `x[,y],u1,...,un` plus a JSON sidecar report."""
    import json

    path = Path(path)
    U = solution.field.components
    n = U.shape[0]
    header = ("x," if grid.dim == 1 else "x,y,") + ",".join(
        f"u{i + 1}" for i in range(n)
    )
    lines = [header]
    nodes = np.stack(np.meshgrid(*[grid.axis()] * grid.dim, indexing="ij"), axis=-1)
    for row in zip(nodes.reshape(-1, grid.dim), U.reshape(n, -1).T):
        lines.append(",".join(repr(float(v)) for v in np.concatenate(row)))
    path.write_text("\n".join(lines) + "\n")
    sidecar = path.with_suffix(path.suffix + ".json")
    report = solution.report
    sidecar.write_text(
        json.dumps(
            {
                "energy": report.energy,
                "dirichlet": report.dirichlet,
                "phi": report.phi,
                "residual_inf": report.residual_inf,
                "identity_defects": list(report.identity_defects),
                "classification": solution.classification,
                "seed_provenance": solution.seed_provenance,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    return sidecar
