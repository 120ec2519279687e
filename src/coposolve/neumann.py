"""Finite-difference realization of the Neumann problem on a box.

Second-order uniform grid with mirror (ghost-node) closure of the Laplacian.
The discrete energy uses cell-midpoint differences for the gradient term and
trapezoid weights for the mass terms, which makes the assembled Euler-Lagrange
residual exactly the weighted gradient of the discrete energy; one class,
_FieldState, evaluates both.  Critical points are located by Armijo gradient
descent from a family of seed fields (constants along a negative direction,
separated bumps, and homotopy mixtures, drawn one field at a time), which
reads the energy and, on acceptance, the gradient of each trial field from
one evaluation.  A Newton-Krylov polish follows: each Newton step is one
restart cycle of left-preconditioned GMRES on the matrix-free Jacobian, run
in the package in scipy's arithmetic and independent of the installed
scipy's ``gmres`` version, preconditioned mode by mode in the DCT-I
basis that diagonalises the mirror Laplacian.  Seeds that cannot lead to an
accepted field (constant fields, fields with at most one nonzero component)
are skipped.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .copositivity import ConstantSolutionCertificate, SimplexMinimum, scan_faces
from .copositivity import simplex_min_quadratic  # noqa: F401  (bench/spans.py wraps this attribute)
from .errors import CapacityError, NotApplicableError, ParameterError
from .forms import ConeVector, SymMatrix, cone_power, fsum_terms, quadratic_form, require_p
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
    """Every seed was skipped, collapsed below the nontriviality threshold or escaped."""

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

# GMRES per Newton step: relative tolerance and iteration cap (one restart
# cycle); in the round-off tail the line search decides whether a step is taken.
KRYLOV_RTOL = 1e-9
KRYLOV_MAXITER = 30
# Cap on n * k^dim, the size of the preconditioner's low-mode Galerkin block.
COARSE_SIZE = 256


def _laplacian(U: np.ndarray, h: float) -> np.ndarray:
    """Ghost-node Neumann Laplacian of each component of U (shape (n, *grid))."""
    flat = U.reshape(-1)
    stride = flat.size // U.shape[0]
    out = None
    for axis in range(1, U.ndim):
        # u[k-1] - 2 u[k] + u[k+1], mirrored across each face.  The neighbours
        # are U shifted by one node's stride in memory, with the faces redone.
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
            second += 0.0  # -0.0 reads as +0.0
            out = second
        else:
            out += second
    out /= h**2
    return out


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
    """One field U and the pieces its energy, residual and Jacobian share.

    The package's only implementation of the discrete energy: cell-midpoint
    differences for the Dirichlet integrand, trapezoid weights W for the mass
    terms, so that W times the residual is exactly the energy's gradient.
    U^+, U^- and (U^+)^(p/2) are computed once; the residual and the nodal
    Jacobian block share (U^+)^(p/2-1) and sum_j beta_ij (u_j^+)^(p/2).
    """

    def __init__(self, A: np.ndarray, U: np.ndarray, p: float) -> None:
        self.A, self.U, self.p = A, U, p
        self.plus = np.maximum(U, 0.0)
        self.neg = np.minimum(U, 0.0)
        self.powered = cone_power(self.plus, p / 2.0)
        self._lowered = self._coupled = None

    def parts(self, q: _Quadrature) -> tuple[float, float]:
        """(Dirichlet term, Phi): the integrals of |grad u|^2 + |u^-|^2 and of b(u^+)/p."""
        U, n = self.U, self.U.shape[0]
        if U.ndim == 2:
            diff = U[:, 1:] - U[:, :-1]
            dirichlet = sum((np.square(diff).sum(axis=1) / q.h).tolist())
        else:
            rows = np.square(U[:, 1:] - U[:, :-1]).sum(axis=1)
            cols = np.square(U[:, :, 1:] - U[:, :, :-1]).sum(axis=2)
            dirichlet = sum(float(rows[i] @ q.w + q.w @ cols[i]) / q.h for i in range(n))
        dirichlet += float((q.W * self.neg**2).sum())
        flat = self.powered.reshape(n, -1)
        overlap = (flat * q.W.ravel()) @ flat.T
        return dirichlet, fsum_terms(self.A * overlap) / self.p

    def energy(self, q: _Quadrature) -> float:
        dirichlet, phi = self.parts(q)
        return dirichlet / 2.0 - phi

    def _factors(self) -> tuple[np.ndarray, np.ndarray]:
        """((U^+)^(p/2-1), sum_j beta_ij (u_j^+)^(p/2)), computed on first use."""
        if self._lowered is None:
            U = self.U
            self._lowered = cone_power(self.plus, self.p / 2.0 - 1.0)
            self._coupled = np.dot(self.A, self.powered.reshape(U.shape[0], -1)).reshape(U.shape)
        return self._lowered, self._coupled

    def nonlinear(self) -> np.ndarray:
        """Componentwise sum_j beta_ij (u_j^+)^(p/2) (u_i^+)^(p/2-1)."""
        lowered, coupled = self._factors()
        return lowered * coupled

    def residual(self, h: float) -> np.ndarray:
        """Euler-Lagrange residual -L u + u^- - nonlinear term."""
        return -_laplacian(self.U, h) + self.neg - self.nonlinear()

    def nodal_block(self) -> np.ndarray:
        """Zeroth-order part of the Jacobian: D[i, j] is the nodal diagonal of block (i, j)."""
        U, p = self.U, self.p
        lowered, coupled = self._factors()
        z = np.zeros_like(U)
        z[U > 0] = U[U > 0] ** (p / 2.0 - 2.0)
        expand = (slice(None), slice(None)) + (None,) * (U.ndim - 1)
        D = -(p / 2.0) * self.A[expand] * lowered[:, None] * lowered[None, :]
        diag = np.arange(U.shape[0])
        D[diag, diag] += (U < 0).astype(float) - (p / 2.0 - 1.0) * z * coupled
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
    state = _FieldState(B.entries, U, p)
    dirichlet, phi = state.parts(q)
    nonlinear = state.nonlinear()
    residual = state.residual(q.h)
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
    quad, phi = _FieldState(A, V, p).parts(_quadrature(grid))
    if phi <= 0 or quad <= 0:
        return 1.0
    return float((quad / (p * phi)) ** (1.0 / (p - 2.0)))


def theta_seeds(B: SymMatrix, d: ConeVector, grid: Grid,
                p: float = 4.0) -> Iterator[tuple[str, FieldTuple]]:
    """The seed fields of the competitor family with provenance labels, one at a time.

    Constants along d, per-component and combined separated bumps at their
    ridge amplitude, and homotopy mixtures between boundary rays and bump
    images at t in {1/4, 1/2, 3/4}: 4n + 8 fields in all.
    """
    n = B.n
    if not d.strictly_positive:
        raise ParameterError("direction d must be interior to the cone")
    A = B.entries
    profiles = bump_profiles(B, grid)
    dv = d.components / d.components.max()
    ones_shape = (n,) + grid.shape

    def constant_field(scale: float) -> np.ndarray:
        return np.ones(ones_shape) * (scale * dv).reshape((n,) + (1,) * grid.dim)

    for lam in (0.5, 1.0, 2.0):
        yield f"constant lambda={lam}", FieldTuple(constant_field(lam))

    scales = []
    for i in range(n):
        V = np.zeros(ones_shape)
        V[i] = profiles[i]
        s = _ridge_scale(A, V, p, grid)
        scales.append(s)
        # Slightly below the ridge: descent from the exact ridge maximum is a
        # coin flip between collapse and escape.
        yield f"bump component={i} amplitude={0.9 * s:.4g}", FieldTuple(0.9 * s * V)

    combined = np.stack([scales[i] * profiles[i] for i in range(n)])
    yield "combined bumps x0.9", FieldTuple(0.9 * combined)
    yield "combined bumps x1.5", FieldTuple(1.5 * combined)

    ray_scale = 1.5 * max(scales)
    rays = [("d", dv * ray_scale)]
    for i in range(n):
        e = np.zeros(n)
        e[i] = ray_scale
        rays.append((f"e{i}", e))
    for name, c in rays:
        for t in (0.25, 0.5, 0.75):
            yield f"mixture ray={name} t={t}", FieldTuple(homotopy_mixture(c, t, profiles))


def _jacobian_product(D: np.ndarray, V: np.ndarray, h: float) -> np.ndarray:
    """(-L + D) V for a field V of shape (n, *grid)."""
    return -_laplacian(V, h) + np.einsum("ij...,j...->i...", D, V)


@functools.cache
def _dct_spectrum(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(eig, lap_eig, inverse): -L's eigenvalues per axis and on the grid, and the high-mode factor."""
    m, dim = grid.points_per_side, grid.dim
    scale = 2.0 * (m - 1)
    eig = (2.0 - 2.0 * np.cos(np.pi * np.arange(m) / (m - 1))) / grid.h**2
    lap_eig = eig if dim == 1 else eig[:, None] + eig[None, :]
    inverse = 1.0 / ((1.0 + lap_eig) * scale**dim)
    eig.flags.writeable = lap_eig.flags.writeable = inverse.flags.writeable = False
    return eig, lap_eig, inverse


@functools.cache
def _dct_modes(m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) on m nodes per axis: DCT-I coefficients 0..k-1 of a field, and those modes as fields."""
    scale = 2.0 * (m - 1)
    cosines = np.cos(np.pi * np.outer(np.arange(k), np.arange(m)) / (m - 1))
    ends = np.r_[1.0, np.full(m - 2, 2.0), 1.0]
    rows = cosines * ends
    cols = cosines * ends[:k, None] / scale
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _dct_preconditioner(D: np.ndarray, grid: Grid):
    """x -> approximate inverse of the Jacobian -L + D, block diagonal in DCT-I modes.

    -L has eigenvalue eig[k] on mode cos(pi j k / (m - 1)) of an axis.  Modes
    with eig above every |D| entry get (-L + I)^-1; the box of lower ones (at
    least the constant mode, whose block is the trapezoid-weighted mean of D)
    gets the exact inverse of the Galerkin block of -L + D.
    """
    from scipy.fft import dctn

    n, m, dim = D.shape[0], grid.points_per_side, grid.dim
    axes = tuple(range(1, dim + 1))
    scale = 2.0 * (m - 1)  # DCT-I applied twice multiplies by this, per axis
    eig, lap_eig, inverse = _dct_spectrum(grid)
    cap = max(1, int((COARSE_SIZE / n) ** (1.0 / dim)))
    k = min(int(np.searchsorted(eig, np.max(np.abs(D)))) + 1, cap, m)
    rows, cols = _dct_modes(m, k)
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

    def apply(x: np.ndarray) -> np.ndarray:
        C = dctn(x.reshape((n,) + grid.shape), type=1, axes=axes)
        low = coarse @ C[box].ravel()
        C *= inverse
        C[box] = low.reshape(C[box].shape) / scale**dim
        return dctn(C, type=1, axes=axes).ravel()

    return apply


def _gmres(matvec, psolve, b: np.ndarray) -> np.ndarray:
    """One restart cycle of left-preconditioned GMRES for A x = b from x = 0.

    The arithmetic of scipy 1.17's ``gmres(A, b, rtol=KRYLOV_RTOL,
    restart=KRYLOV_MAXITER, maxiter=1, M=M)``, in the same order, so the
    result is bit-identical to it: modified Gram-Schmidt on M A v, LAPACK
    lartg Givens rotations, a stop once the preconditioned residual estimate
    is at most ptol = |M b| min(1, rtol |b| / |b|) or on a lucky breakdown,
    then back substitution.  The true residual b - A x, which scipy only
    turns into its convergence flag, is not formed.
    """
    from scipy.linalg.lapack import dlartg

    bnrm2 = np.linalg.norm(b)
    if bnrm2 == 0:
        return b
    size = b.size
    restart = min(KRYLOV_MAXITER, size)
    eps = np.finfo(float).eps
    v = np.empty((restart + 1, size))
    v[0] = psolve(b)
    mb_norm = np.linalg.norm(v[0])
    ptol = mb_norm * min(1.0, max(0.0, KRYLOV_RTOL * float(bnrm2)) / bnrm2)
    v[0] *= 1 / mb_norm
    # Hessenberg columns (row col of h holds column col) and the rotated right side.
    h = np.zeros((restart, restart + 1))
    S = [mb_norm] + [0.0] * restart
    givens: list[tuple[float, float]] = []
    for col in range(restart):
        w = psolve(matvec(v[col]))
        h0 = np.linalg.norm(w)
        column = []
        for k in range(col + 1):
            t = np.dot(v[k], w)
            column.append(t)
            w -= t * v[k]
        h1 = np.linalg.norm(w)
        breakdown = h1 <= eps * h0
        if breakdown:
            column.append(0.0)
        else:
            column.append(h1)
            np.multiply(w, 1 / h1, out=v[col + 1])
        for k, (c, s) in enumerate(givens):
            n0, n1 = column[k], column[k + 1]
            column[k] = c * n0 + s * n1
            column[k + 1] = -s * n0 + c * n1
        c, s, column[col] = dlartg(column[col], column[col + 1])
        column[col + 1] = 0.0
        givens.append((c, s))
        h[col, :col + 2] = column
        S[col], S[col + 1] = c * S[col], -s * S[col]
        if abs(S[col + 1]) <= ptol or breakdown:
            break
    if h[col, col] == 0:
        S[col] = 0
    y = np.array(S[:col + 1])
    for k in range(col, 0, -1):
        if y[k] != 0:
            y[k] /= h[k, k]
            y[:k] -= y[k] * h[k, :k]
    if y[0] != 0:
        y[0] /= h[0, 0]
    x = np.zeros(size)
    x += y @ v[:col + 1]  # as scipy forms it: a -0.0 entry reads +0.0
    return x


def _krylov_step(D: np.ndarray, r: np.ndarray, grid: Grid) -> np.ndarray:
    """Preconditioned GMRES for the Newton step: (-L + D) delta = -r."""
    h = grid.h

    def jacobian(v: np.ndarray) -> np.ndarray:
        return _jacobian_product(D, v.reshape(r.shape), h).ravel()

    return _gmres(jacobian, _dct_preconditioner(D, grid), -r.ravel()).reshape(r.shape)


def _newton_polish(A: np.ndarray, U0: np.ndarray, p: float,
                   grid: Grid) -> tuple[np.ndarray, float, bool]:
    """Damped Newton-Krylov on the discrete Euler-Lagrange system.

    Runs at most MAX_NEWTON_STEPS steps, each a GMRES solve and a residual
    line search, and stops early at the improvement floor, on a collapse to
    zero or on a stall (see COLLAPSE_RATIO and STALL_RATIO).
    Returns (field, residual_inf, converged).
    """
    h = grid.h
    U = U0.copy()
    state = _FieldState(A, U, p)
    r = state.residual(h)
    rnorm = float(np.max(np.abs(r)))
    residuals = [rnorm]
    amplitudes = [float(np.max(np.abs(U)))]
    for _ in range(MAX_NEWTON_STEPS):
        if rnorm == 0.0 or not np.isfinite(rnorm):
            break
        try:
            delta = _krylov_step(state.nodal_block(), r, grid)
        except np.linalg.LinAlgError:
            return U, rnorm, False
        if not np.all(np.isfinite(delta)):
            return U, rnorm, False
        step = 1.0
        improved = False
        while step > 1e-6:
            cand = U + step * delta
            trial = _FieldState(A, cand, p)
            rc = trial.residual(h)
            rcnorm = float(np.abs(rc).max())
            if np.isfinite(rcnorm) and rcnorm < (1.0 - 0.25 * step) * rnorm:
                U, r, rnorm, state = cand, rc, rcnorm, trial
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        amp = float(np.abs(U).max())
        if amp > 1e8:
            return U, rnorm, False
        residuals.append(rnorm)
        amplitudes.append(amp)
        # Newton contracts a cubic zero only by 2/3 per step.  Once the field
        # is converged, no larger than NONTRIVIALITY_THRESHOLD (never above the
        # per-seed threshold of mountain_pass_solve) and shrinking
        # geometrically, it is classed as collapsed however far it goes on.
        recent = amplitudes[-COLLAPSE_STEPS - 1:]
        if (rnorm < RESIDUAL_TOL and amp <= NONTRIVIALITY_THRESHOLD
                and len(recent) > COLLAPSE_STEPS
                and all(b <= COLLAPSE_RATIO * a for a, b in zip(recent, recent[1:]))):
            break
        # A converging seed gains far more than 1 - STALL_RATIO over the
        # window; short damped steps that do not are a stall.  Below
        # RESIDUAL_TOL the round-off tail runs on to the improvement floor,
        # so no converged field depends on this exit.
        if (rnorm >= RESIDUAL_TOL and len(residuals) > STALL_WINDOW
                and rnorm > STALL_RATIO * residuals[-STALL_WINDOW - 1]):
            break
    return U, rnorm, rnorm < RESIDUAL_TOL


def _descend_energy(A: np.ndarray, U0: np.ndarray, p: float,
                    grid: Grid) -> tuple[np.ndarray, float, float, bool]:
    """Armijo gradient descent on the energy.

    Returns (best iterate, its gradient norm, initial gradient norm, escaped).
    The best iterate is where the gradient norm dipped lowest (the
    saddle-passage candidate).  The energy is unbounded below, so a
    trajectory that falls past every seed scale is flagged as escaped: it
    carries no critical point beyond the dip already recorded.  Each trial
    field is evaluated once: its energy, and on acceptance its gradient
    W r, come from the same _FieldState.
    """
    q = _quadrature(grid)
    U = U0.copy()
    state = _FieldState(A, U, p)
    E = state.energy(q)
    grad = q.W * state.residual(q.h)
    gnorm = math.sqrt((grad**2).sum())
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
        trial = _FieldState(A, cand, p)
        Ec = trial.energy(q)
        if Ec < E - 1e-4 * step * gnorm**2:
            U, E = cand, Ec
            grad = q.W * trial.residual(q.h)
            gnorm = math.sqrt((grad**2).sum())
            if gnorm < best_g:
                best_U, best_g = U.copy(), gnorm
            step *= 1.3
            if E < energy_floor or np.abs(U).max() > amp_ceiling:
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


def _skip_reason(U: np.ndarray) -> str | None:
    """Why the seed field U cannot lead to an accepted field, or None if it may.

    One component: past scan_faces every beta_ii is positive (a zero diagonal
    is a singleton constant solution), and a zero component stays exactly
    zero under descent and Newton (p > 2), so the run can only end at a
    critical point of -Lu + u^- = beta_ii (u^+)^(p-1).  Summed with the
    trapezoid weights W, sum W Lu = 0 leaves sum W u^- = beta_ii sum W (u^+)^(p-1),
    whose sides have opposite signs, so u = 0.

    Constant: measured, not proven.  The descent steps along W r, and W is
    smaller on the box faces, so a 2-d constant seed drifts (spread 6.1e-4,
    4.0e-3 and 1.8e-2 after descent for lambda = 0.5, 1, 2 on [[1,-2],[-2,1]]
    at 49^2 nodes); Newton still collapses each one below 1e-4.
    """
    flat = U.reshape(U.shape[0], -1)
    if np.all(flat == flat[:, :1]):
        return "constant field"
    if np.count_nonzero(np.any(flat != 0.0, axis=1)) <= 1:
        return "one component"
    return None


def mountain_pass_solve(B: SymMatrix, p: float,
                        grid: Grid) -> NeumannSolution | TrivialOnly | SolveInconclusive:
    """Locate a nontrivial nonnegative critical point of the discrete energy.

    Pipeline: constant shortcut from one face pass; otherwise descend from
    each field of the theta_seeds family, drawn one field at a time, and
    Newton-polish the iterate where the gradient was smallest.  Seeds that are
    constant in every component or have at most one nonzero component are
    skipped with their reason (see _skip_reason), which leaves the two
    combined-bump seeds and the three d-mixtures.  A field is
    accepted when its residual, negativity and nontriviality pass
    RESIDUAL_TOL, NEGATIVITY_TOL and NONTRIVIALITY_THRESHOLD; the accepted
    field with the least energy wins (ties by residual, then lexicographic
    comparison).  Residuals of accepted fields differ by round-off only, so
    ranking by them would pick by noise.  With no accepted field the outcome
    is TrivialOnly when every seed was skipped, collapsed or escaped, otherwise
    SolveInconclusive with the least finite residual among the seeds that
    stalled, kept a negative part or failed after clamping.
    """
    if np.any(np.diag(B.entries) < 0):
        raise ParameterError("diagonal entries must be nonnegative")
    A = B.entries

    cert, minimum = scan_faces(B, p)  # also rejects p <= 2
    if cert is not None:
        return _constant_shortcut(B, cert, p, grid)

    try:
        d = _interior_direction(B, p, minimum)
    except NotApplicableError:
        # No negative direction (e.g. strictly copositive input): the seed
        # family is still well defined and every run should collapse.
        d = ConeVector(np.ones(B.n))

    accepted: list[tuple[float, float, NeumannSolution]] = []
    outcomes: list[str] = []
    # Residuals of the seeds that leave the outcome undecided.
    pending: list[float] = []
    for provenance, seed in theta_seeds(B, d, grid, p):
        skip = _skip_reason(seed.components)
        if skip is not None:
            outcomes.append(f"{provenance}: skipped ({skip})")
            continue
        seed_amp = max(1.0, seed.amplitude)
        threshold = NONTRIVIALITY_THRESHOLD * seed_amp
        start, dip_g, g0, escaped = _descend_energy(A, seed.components, p, grid)
        U, rnorm, converged = _newton_polish(A, start, p, grid)
        amp = float(np.max(np.abs(U))) if np.all(np.isfinite(U)) else 0.0
        if converged and amp <= threshold:
            outcomes.append(f"{provenance}: collapsed to trivial")
            continue
        if not converged:
            if escaped:
                outcomes.append(f"{provenance}: escaped (dip not polishable)")
            else:
                outcomes.append(f"{provenance}: newton stalled at residual {rnorm:.2e}")
                pending.append(rnorm)
            continue
        if U.min() < -NEGATIVITY_TOL:
            outcomes.append(f"{provenance}: negative part {U.min():.2e}")
            pending.append(rnorm)
            continue
        clamped = np.maximum(U, 0.0)
        field = FieldTuple(clamped)
        report = energy(B, field, p, grid)
        if report.residual_inf >= RESIDUAL_TOL:
            outcomes.append(f"{provenance}: clamped residual {report.residual_inf:.2e}")
            pending.append(report.residual_inf)
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
    best_residual = min((r for r in pending if np.isfinite(r)), default=np.inf)
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
    """Node-ordered CSV dump `x[,y],u1,...,un` plus a JSON sidecar holding the
    energy report's fields, the classification and the seed provenance."""
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
    doc = {
        **asdict(solution.report),
        "classification": solution.classification,
        "seed_provenance": solution.seed_provenance,
    }
    sidecar.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return sidecar
