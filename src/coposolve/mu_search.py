"""Search and verification of positive weights for the degree-(p-1) form.

A matrix passes the weighted-positivity test when some strictly positive
weight vector mu makes sum_ij beta_ij c_j^(p/2) c_i^(p/2-1) mu_i positive on
the whole cone minus the origin.  Existence is decided by a cutting-plane
loop: the form is linear in mu, so finitely many adversarial cone points give
a linear program over mu, and a global minimization of the form supplies new
adversarial points until either a weight verifies or the relaxation itself is
blocked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .copositivity import strict_copositivity_closed_form
from .errors import (
    CapacityError,
    DimensionError,
    InternalConsistencyError,
    ParameterError,
    PreconditionError,
)
from .forms import (
    ConeVector,
    SymMatrix,
    cone_power,
    fsum_terms,
    negative_part_row_sums,
    p_form,
    p_form_batch,
    p_form_gradient,
    p_form_values,
)
from .simplex import barycentric_grid

MAX_N = 16
MU_LOWER_BOUND = 1e-6
DESCENT_TOLERANCE = 1e-12


@dataclass(frozen=True)
class VerificationInfo:
    grid_resolution: int
    multistart_count: int
    local_tolerance: float


@dataclass(frozen=True)
class MuCertificate:
    """Verified weight: the form stays positive on the sampled simplex.

    mu is normalized to max component 1; kappa estimates the homogeneity
    constant min over the simplex of form / (sum mu_i c_i)^(p-1).
    """

    mu: ConeVector
    kappa: float
    min_on_simplex: float
    worst_point: ConeVector
    verification: VerificationInfo


@dataclass(frozen=True)
class MuViolation:
    """A cone point at which the weighted form is nonpositive."""

    point: ConeVector
    value: float
    verification: VerificationInfo


@dataclass(frozen=True)
class MuSearchFailure:
    """The finitely-cut relaxation is blocked: no weight clears the margin.

    adversarial_set jointly forces the LP optimum at or below the margin
    tolerance for every admissible mu, which is a rigorous obstruction up to
    the mu lower bound.  final_mu is normalized to max component 1 and
    best_margin is the least form value over the set at final_mu.
    """

    adversarial_set: tuple[ConeVector, ...]
    best_margin: float
    iterations: int
    final_mu: ConeVector


@dataclass(frozen=True)
class MuSearchInconclusive:
    """Budget exhausted with the relaxation still open."""

    final_mu: ConeVector
    lp_margin: float
    iterations: int
    last_violation: MuViolation | None


@dataclass(frozen=True)
class MuSearchBudget:
    max_iterations: int = 50
    lp_margin_tol: float = 1e-7
    resolution: int = 64
    seed: int = 0
    multistarts: int = 32


def _project_rows(X: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean projection onto the standard simplex."""
    m, n = X.shape
    u = -np.sort(-X, axis=1)
    css = np.cumsum(u, axis=1) - 1.0
    idx = np.arange(1, n + 1)
    cond = u - css / idx > 0
    rho = n - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = css[np.arange(m), rho] / (rho + 1)
    return np.maximum(X - theta[:, None], 0.0)


def _descend_batch(A: np.ndarray, mu: np.ndarray, p: float, starts: np.ndarray,
                   max_iter: int = 200) -> tuple[np.ndarray, np.ndarray]:
    """Projected-gradient descent on the simplex, all starts in lockstep.

    One trial step per point per sweep with per-point adaptive step sizes;
    points whose step has collapsed are frozen.
    """
    X = np.array(starts, dtype=float)
    F = p_form_values(A, X, mu, p)
    steps = np.full(X.shape[0], 0.5)
    active = np.ones(X.shape[0], dtype=bool)
    for _ in range(max_iter):
        rows = np.nonzero(active)[0]
        if rows.size == 0:
            break
        G = p_form_gradient(A, X[rows], mu, p)
        cand = _project_rows(X[rows] - steps[rows, None] * G)
        fc = p_form_values(A, cand, mu, p)
        improved = fc < F[rows] - DESCENT_TOLERANCE * np.maximum(1.0, np.abs(F[rows]))
        acc = rows[improved]
        X[acc] = cand[improved]
        F[acc] = fc[improved]
        steps[acc] *= 1.5
        rej = rows[~improved]
        steps[rej] *= 0.5
        active[rej[steps[rej] < 1e-16]] = False
    return X, F


def _candidate_starts(n: int, grid: np.ndarray, values: np.ndarray, count: int) -> np.ndarray:
    order = np.argsort(values, kind="stable")[: min(count, values.size)]
    starts = [grid[order]]
    starts.append(np.eye(n))
    mids = []
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros(n)
            m[i] = m[j] = 0.5
            mids.append(m)
    if mids:
        starts.append(np.array(mids))
    return np.vstack(starts)


def _min_search(B: SymMatrix, mu: np.ndarray, p: float, resolution: int,
                multistarts: int, seed: int) -> tuple[np.ndarray, float]:
    grid = barycentric_grid(B.n, resolution, seed=seed)
    vals = p_form_batch(B, grid, mu, p)
    j = int(np.argmin(vals))
    best_x, best_f = grid[j], float(vals[j])
    starts = _candidate_starts(B.n, grid, vals, multistarts)
    ends, fends = _descend_batch(B.entries, mu, p, starts)
    k = int(np.argmin(fends))
    if fends[k] < best_f:
        best_x, best_f = ends[k], float(fends[k])
    return best_x, best_f


def _kappa_estimate(B: SymMatrix, mu: np.ndarray, p: float, resolution: int,
                    seed: int, extra_points: list[np.ndarray]) -> float:
    grid = barycentric_grid(B.n, resolution, seed=seed)
    pts = np.vstack([grid] + [x[None, :] for x in extra_points])
    vals = p_form_batch(B, pts, mu, p)
    weights = np.power(pts @ mu, p - 1.0)
    return float(np.min(vals / weights))


def verify_mu(B: SymMatrix, mu, p: float, resolution: int = 64,
              multistarts: int = 32, seed: int = 0) -> MuCertificate | MuViolation:
    """Estimate the global simplex minimum of the weighted form for a fixed mu.

    Barycentric grid scan at the given resolution plus projected-gradient
    descents from the best grid points and from all vertices and edge
    midpoints; a positive minimum is re-checked at four times the resolution
    before a certificate is issued.  mu is normalized to max component 1.
    """
    if not p > 2:
        raise ParameterError(f"p must exceed 2, got {p}")
    if resolution < 16:
        raise ParameterError(f"resolution must be at least 16, got {resolution}")
    mv = np.asarray(mu.components if isinstance(mu, ConeVector) else mu, dtype=float)
    if mv.ndim != 1 or mv.size != B.n:
        raise DimensionError(f"mu has length {mv.size}, expected {B.n}")
    if np.any(mv <= 0):
        raise ParameterError("mu must have strictly positive components")
    mv = mv / mv.max()

    info = VerificationInfo(resolution, multistarts, DESCENT_TOLERANCE)
    x, f = _min_search(B, mv, p, resolution, multistarts, seed)
    if f <= 0:
        point = ConeVector(np.maximum(x, 0.0)).to_simplex()
        return MuViolation(point, p_form(B, point, mv, p).value, info)

    fine = resolution * 4
    info = VerificationInfo(fine, multistarts, DESCENT_TOLERANCE)
    x2, f2 = _min_search(B, mv, p, fine, multistarts, seed)
    if f2 < f:
        x, f = x2, f2
    if f <= 0:
        point = ConeVector(np.maximum(x, 0.0)).to_simplex()
        return MuViolation(point, p_form(B, point, mv, p).value, info)

    worst = ConeVector(np.maximum(x, 0.0)).to_simplex()
    min_val = p_form(B, worst, mv, p).value
    if min_val <= 0:
        return MuViolation(worst, min_val, info)
    kappa = _kappa_estimate(B, mv, p, resolution, seed, [x, x2])
    return MuCertificate(ConeVector(mv), kappa, min_val, worst, info)


def _lp_coefficients(B: SymMatrix, point: np.ndarray, p: float) -> np.ndarray:
    """Per-component coefficients a_i(c) so the form equals sum_i mu_i a_i(c)."""
    x = cone_power(point, p / 2.0)
    y = cone_power(point, p / 2.0 - 1.0)
    return y * (B.entries @ x)


def _weight_lp(B: SymMatrix, points: list[np.ndarray], p: float,
               lower: float = MU_LOWER_BOUND) -> tuple[np.ndarray, float]:
    """max t subject to form(c; mu) >= t for c in points, lower <= mu_i <= 1.

    Returns the optimal mu scaled to max component 1, as certificates report
    it, and the margin min over points of form(c; mu) at that scaled mu.  A
    blocked LP drives every mu_i toward the lower bound, which would shrink an
    unscaled margin by the same factor.
    """
    n = B.n
    coef = np.array([_lp_coefficients(B, c, p) for c in points])
    objective = np.zeros(n + 1)
    objective[-1] = -1.0
    a_ub = np.hstack([-coef, np.ones((len(points), 1))])
    b_ub = np.zeros(len(points))
    bounds = [(lower, 1.0)] * n + [(None, None)]
    res = linprog(objective, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status != 0:
        raise InternalConsistencyError(f"weight LP failed with status {res.status}")
    mu = np.asarray(res.x[:n], dtype=float)
    mu = mu / mu.max()
    margin = float(min(fsum_terms(coef[k] * mu) for k in range(len(points))))
    return mu, margin


def find_mu(B: SymMatrix, p: float, budget: MuSearchBudget = MuSearchBudget()
            ) -> MuCertificate | MuSearchFailure | MuSearchInconclusive:
    """Cutting-plane search for a verifying weight.

    A Failure is declared only when the linear relaxation over the recorded
    adversarial set is itself blocked (margin at or below the tolerance);
    otherwise an exhausted budget yields Inconclusive.
    """
    if not p > 2:
        raise ParameterError(f"p must exceed 2, got {p}")
    if B.n > MAX_N:
        raise CapacityError(f"weight search supports n <= {MAX_N}, got {B.n}")
    n = B.n
    adversaries: list[np.ndarray] = [np.eye(n)[i] for i in range(n)]
    adversaries.append(np.full(n, 1.0 / n))
    mu = np.ones(n)
    margin = np.inf
    last_violation: MuViolation | None = None
    iterations = 0
    for iterations in range(1, budget.max_iterations + 1):
        mu, margin = _weight_lp(B, adversaries, p)
        if margin <= budget.lp_margin_tol:
            return MuSearchFailure(
                adversarial_set=tuple(ConeVector(c) for c in adversaries),
                best_margin=margin,
                iterations=iterations,
                final_mu=ConeVector(mu),
            )
        outcome = verify_mu(
            B, mu, p,
            resolution=budget.resolution,
            multistarts=budget.multistarts,
            seed=budget.seed,
        )
        if isinstance(outcome, MuCertificate):
            return outcome
        last_violation = outcome
        adversaries.append(outcome.point.components.copy())
    return MuSearchInconclusive(
        final_mu=ConeVector(mu),
        lp_margin=margin,
        iterations=iterations,
        last_violation=last_violation,
    )


def constructive_mu_n2(B: SymMatrix, p: float) -> ConeVector:
    """Explicit weight (beta_11^(-1/p), beta_22^(-1/p)) for strictly copositive n=2.

    Valid for every p > 2; callers should confirm with verify_mu.
    """
    if B.n != 2:
        raise CapacityError(f"constructive weight exists only for n=2, got {B.n}")
    if not p > 2:
        raise ParameterError(f"p must exceed 2, got {p}")
    if not strict_copositivity_closed_form(B).strict:
        raise PreconditionError("matrix is not strictly copositive")
    a = B.entries
    return ConeVector([a[0, 0] ** (-1.0 / p), a[1, 1] ** (-1.0 / p)])


def sufficient_condition(B: SymMatrix) -> float | None:
    """Row-dominance bound: kappa_0 = min_i (beta_ii + sum_{j!=i} min(beta_ij, 0)).

    When positive (and all diagonal entries positive), mu = (1, ..., 1) is a
    valid weight for every p > 2 and the form dominates kappa_0 sum c_i^(p-1).
    """
    diag = np.diag(B.entries)
    if np.any(diag <= 0):
        return None
    kappa0 = float(np.min(diag + negative_part_row_sums(B)))
    return kappa0 if kappa0 > 0 else None


def b_epsilon(eps: float) -> SymMatrix:
    """The 3x3 family with unit diagonal, off-diagonal -1+eps to the first row."""
    if not eps > 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    off = -1.0 + eps
    return SymMatrix([[1.0, off, off], [off, 1.0, 1.0], [off, 1.0, 1.0]])


def appendix_limit_form(c) -> float:
    """Limiting unweighted cubic form of the b_epsilon family as eps -> 0.

    Equals p_form(B, c, (1,1,1), 4) for the eps = 0 endpoint matrix.
    """
    arr = np.asarray(c.components if isinstance(c, ConeVector) else c, dtype=float)
    if arr.ndim != 1 or arr.size != 3:
        raise ParameterError(f"expected a 3-vector, got shape {arr.shape}")
    if np.any(arr < 0):
        raise ParameterError("point must lie in the nonnegative cone")
    c1, c2, c3 = arr
    terms = [
        c1 ** 3, -c1 * c2 ** 2, -c1 * c3 ** 2,
        -(c1 ** 2) * c2, c2 ** 3, c2 * c3 ** 2,
        -(c1 ** 2) * c3, c2 ** 2 * c3, c3 ** 3,
    ]
    return fsum_terms(terms)
