"""Exact classification of the quadratic form's sign on the nonnegative cone.

One face sweep enumerates the vertices of the standard simplex and the
face-interior stationary points of b, support size by support size in
stacked batches; faces with a singular stationarity system are skipped, as
their minimum is also attained on a smaller face.  One pass over it finds the
exact constant solutions (stationary points with multiplier zero) and else
the minimum of b, which decides copositivity, since a quadratic attains its
minimum over a compact polytope at a swept point; the minimum over the proper
faces decides boundary positivity.  Closed-form strict-copositivity tests
exist for n in {2, 3} and are run as a redundant cross-check."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, InternalConsistencyError, ParameterError
from .forms import ConeVector, SymMatrix, cone_power, fsum_terms, quadratic_form
from .simplex import barycentric_grid  # noqa: F401  (bench/spans.py wraps this attribute)

MAX_ENUMERATION_N = 16
FACE_CONDITION_LIMIT = 1e12
CONSTANT_RESIDUAL_TOL = 1e-10
# Supports per stacked solve.  The batch's temporaries (about 0.8 MB at 128
# for n = 16) set the sweep's peak memory, while the gain in speed of larger
# batches flattens out.
SWEEP_BATCH = 128


class Copositivity(Enum):
    NOT_COPOSITIVE = "NotCopositive"
    COPOSITIVE_NOT_STRICT = "CopositiveNotStrict"
    STRICTLY_COPOSITIVE = "StrictlyCopositive"


class Definiteness(Enum):
    POSITIVE_DEFINITE = "PositiveDefinite"
    POSITIVE_SEMIDEFINITE = "PositiveSemidefinite"
    INDEFINITE = "Indefinite"


@dataclass(frozen=True)
class Tolerance:
    """Classification dead-band around zero."""

    tol: float = 1e-9

    def __post_init__(self) -> None:
        if not (0.0 < self.tol < 1e-3):
            raise ParameterError(f"tolerance must lie in (0, 1e-3), got {self.tol}")


class SimplexMinimum(NamedTuple):
    min_value: float
    argmin: ConeVector
    # Always False now that singular faces are skipped rather than sampled;
    # kept because the traced benchmark reads it from simplex_min_quadratic.
    grid_assisted: bool


@dataclass(frozen=True)
class ConstantSolutionCertificate:
    """Exact constant field u with componentwise equation residual below tol."""

    u: ConeVector
    support: tuple[int, ...]
    residual_inf: float


class FaceScan(NamedTuple):
    constant: ConstantSolutionCertificate | None
    minimum: SimplexMinimum | None


@dataclass(frozen=True)
class CopositivityVerdict:
    kind: Copositivity
    witness: ConeVector
    min_value: float
    method: str
    boundary_case: bool = False


@dataclass(frozen=True)
class ClosedFormResult:
    strict: bool
    # Value of the final inequality's left side for n = 3 (None when it was
    # not reached or n = 2).
    final_expression: float | None = None


def _face_sweep(A: np.ndarray):
    """Stationary points of b interior to the faces of the simplex, in batches.

    Yields (supports, points, blocks): supports of shape (m, k), the strictly
    positive stationary points on them, c > 0 with 2 A_S c = lambda 1 and
    sum c = 1, and the principal blocks A_S.  The vertices come first as one
    batch of singletons, then the larger supports one size at a time in
    itertools.combinations order, in batches of at most SWEEP_BATCH whose
    bordered systems are stacked and solved together.

    Faces whose system is singular (1-norm condition number above
    FACE_CONDITION_LIMIT, inf or NaN) are skipped.  A singular system has a
    null vector (d, nu) with d != 0 and 1'd = 0, so 2 A_S d = nu 1 and,
    through a stationary point c, b(c + t d) = b(c) + t lambda 1'd +
    t^2 nu 1'd / 2 = b(c).  Moving along d to the boundary of the face keeps
    the value, so the face minimum is also attained on a proper sub-face,
    which the sweep visits anyway.  On a nearly singular face b moves by only
    O(||K|| / cond) along d, about 1e-12 at FACE_CONDITION_LIMIT.
    """
    n = A.shape[0]
    yield np.arange(n)[:, None], np.ones((n, 1)), np.diag(A)[:, None, None]
    for k in range(2, n + 1):
        border = np.zeros((k + 1, k + 1))
        border[:k, k] = -1.0
        border[k, :k] = 1.0
        rhs = np.zeros((k + 1, 1))
        rhs[k] = 1.0
        supports = itertools.combinations(range(n), k)
        while batch := list(itertools.islice(supports, SWEEP_BATCH)):
            idx = np.array(batch)
            blocks = A[idx[:, :, None], idx[:, None, :]]
            kkt = np.repeat(border[None], len(batch), axis=0)
            kkt[:, :k, :k] = 2.0 * blocks
            # "not above the limit" also drops the inf and NaN of singular faces.
            regular = np.linalg.cond(kkt, 1) <= FACE_CONDITION_LIMIT
            idx, blocks, kkt = idx[regular], blocks[regular], kkt[regular]
            c = np.linalg.solve(kkt, rhs)[:, :k, 0]
            interior = np.all(c > 0, axis=1)
            yield idx[interior], c[interior], blocks[interior]


def _batch_constant(A: np.ndarray, idx: np.ndarray, points: np.ndarray,
                    blocks: np.ndarray, p: float) -> ConstantSolutionCertificate | None:
    """First exact constant solution among one batch of swept faces."""
    c = points / points.max(axis=1, keepdims=True)
    # Snap to short decimals when that does not hurt the kernel residual.
    snapped = np.round(c, 12)
    kernel = np.max(np.abs(blocks @ c[..., None]), axis=(1, 2))
    snapped_kernel = np.max(np.abs(blocks @ snapped[..., None]), axis=(1, 2))
    snap = np.all(snapped > 0, axis=1) & (snapped_kernel <= kernel)
    c[snap] = snapped[snap]
    residual = cone_power(c, 1.0 - 2.0 / p) * (blocks @ c[..., None])[..., 0]
    candidates = np.max(np.abs(residual), axis=1) < CONSTANT_RESIDUAL_TOL
    for s, c_s in zip(idx[candidates], c[candidates]):
        if len(s) == 1 and A[s[0], s[0]] != 0.0:
            continue
        c_full = np.zeros(A.shape[0])
        c_full[s] = c_s
        # Compensated componentwise residual of the constant field u = c^(2/p).
        factors = cone_power(c_full, 1.0 - 2.0 / p)
        residuals = np.array([factors[i] * fsum_terms(A[i] * c_full) for i in range(len(c_full))])
        if np.max(np.abs(residuals)) < CONSTANT_RESIDUAL_TOL:
            return ConstantSolutionCertificate(
                u=ConeVector(cone_power(c_full, 2.0 / p)),
                support=tuple(int(i) for i in s),
                residual_inf=float(np.max(np.abs(residuals))),
            )
    return None


def scan_faces(B: SymMatrix, p: float | None = None, max_size: int | None = None) -> FaceScan:
    """One face sweep: the first exact constant solution, else the minimum of b.

    With p given (p > 2), each batch is first searched for a constant
    solution.  A strictly positive c with B_S c = 0 yields the constant field
    u = c^(2/p) on S (zero off S), which solves the system exactly; a zero
    diagonal entry is the singleton case.  The candidates come by size and
    then lexicographically: on the smallest support with a positive kernel
    vector the kernel is the line through it (a second kernel direction would
    lead to a positive kernel vector on a proper sub-face), so the bordered
    system is regular there and c is its stationary point with lambda = 0.
    Each point is scaled to max 1 and snapped to 12 decimals when that does
    not hurt the kernel residual; a batched residual picks the candidates and
    a compensated residual decides.  The first certificate ends the pass.

    Otherwise every batch is folded into the least value of b over the faces
    of at most max_size components (default n), ties going to the smaller
    witness tuple, a total order, so the winner does not depend on the
    batches.  The reported minimum is recomputed through the compensated
    scalar path, so it reproduces exactly from the witness.
    """
    if p is not None and not p > 2:
        raise ParameterError(f"p must exceed 2, got {p}")
    n = B.n
    if n > MAX_ENUMERATION_N:
        raise CapacityError(f"face enumeration supports n <= {MAX_ENUMERATION_N}, got {n}")
    A = B.entries
    best = (np.inf, ())
    for idx, points, blocks in _face_sweep(A):
        if max_size is not None and idx.shape[1] > max_size:
            break
        if p is not None and (cert := _batch_constant(A, idx, points, blocks, p)):
            return FaceScan(cert, None)
        if len(idx):
            values = np.einsum("mi,mij,mj->m", points, blocks, points)
            witnesses = np.zeros((len(idx), n))
            np.put_along_axis(witnesses, idx, points, axis=1)
            first = np.lexsort((*witnesses.T[::-1], values))[0]
            best = min(best, (float(values[first]), tuple(witnesses[first])))

    witness = np.maximum(best[1], 0.0)
    arg = ConeVector(witness / witness.sum())
    return FaceScan(None, SimplexMinimum(quadratic_form(B, arg).value, arg, False))


def simplex_min_quadratic(B: SymMatrix) -> SimplexMinimum:
    """Global minimum of b over the standard simplex, from one face pass."""
    return scan_faces(B).minimum


def strict_copositivity_closed_form(B: SymMatrix) -> ClosedFormResult:
    """Closed-form strict copositivity test for n in {2, 3}."""
    n = B.n
    if n not in (2, 3):
        raise CapacityError(f"closed forms exist only for n in {{2, 3}}, got {n}")
    a = B.entries
    if np.any(np.diag(a) <= 0):
        return ClosedFormResult(False, None)
    if n == 2:
        return ClosedFormResult(bool(a[0, 1] > -np.sqrt(a[0, 0] * a[1, 1])), None)
    pair01 = a[0, 1] + np.sqrt(a[0, 0] * a[1, 1])
    pair02 = a[0, 2] + np.sqrt(a[0, 0] * a[2, 2])
    pair12 = a[1, 2] + np.sqrt(a[1, 1] * a[2, 2])
    if min(pair01, pair02, pair12) <= 0:
        return ClosedFormResult(False, None)
    final = (
        np.sqrt(a[0, 0] * a[1, 1] * a[2, 2])
        + a[0, 1] * np.sqrt(a[2, 2])
        + a[0, 2] * np.sqrt(a[1, 1])
        + a[1, 2] * np.sqrt(a[0, 0])
        + np.sqrt(2.0 * pair01 * pair02 * pair12)
    )
    return ClosedFormResult(bool(final > 0), float(final))


def classify_copositivity(B: SymMatrix, tol: Tolerance = Tolerance()) -> CopositivityVerdict:
    """Trichotomy verdict with witness; dead-band cases flagged as boundary."""
    return copositivity_verdict(B, simplex_min_quadratic(B), tol)


def copositivity_verdict(B: SymMatrix, minimum: SimplexMinimum, tol: Tolerance) -> CopositivityVerdict:
    """Trichotomy verdict read from the simplex minimum of B; for n in {2, 3} a
    closed-form disagreement outside the dead-band is an internal error."""
    if minimum.min_value < -tol.tol:
        kind = Copositivity.NOT_COPOSITIVE
        boundary = False
    elif minimum.min_value > tol.tol:
        kind = Copositivity.STRICTLY_COPOSITIVE
        boundary = False
    else:
        kind = Copositivity.COPOSITIVE_NOT_STRICT
        boundary = True
    method = "FaceEnumeration"
    if B.n in (2, 3):
        method = f"ClosedForm{B.n}"
        closed = strict_copositivity_closed_form(B)
        if abs(minimum.min_value) > tol.tol and closed.strict != (minimum.min_value > 0):
            raise InternalConsistencyError(
                f"closed form says strict={closed.strict} but simplex minimum is "
                f"{minimum.min_value:.6e}"
            )
    return CopositivityVerdict(
        kind=kind,
        witness=minimum.argmin,
        min_value=minimum.min_value,
        method=method,
        boundary_case=boundary,
    )


def check_psd(B: SymMatrix, tol: Tolerance = Tolerance()) -> Definiteness:
    """Definiteness via the symmetric eigenvalue spectrum."""
    lam_min = float(np.linalg.eigvalsh(B.entries)[0])
    if lam_min > tol.tol:
        return Definiteness.POSITIVE_DEFINITE
    if lam_min >= -tol.tol:
        return Definiteness.POSITIVE_SEMIDEFINITE
    return Definiteness.INDEFINITE


def boundary_positive(B: SymMatrix, tol: Tolerance = Tolerance()) -> bool:
    """True iff b is positive on the cone boundary minus the origin.

    Equivalent to strict copositivity of every proper principal submatrix,
    decided by one face sweep over the proper faces: the sweep of a proper
    principal submatrix visits exactly the proper faces inside its support,
    with the same stationarity systems.
    """
    if B.n < 2:
        raise ParameterError("boundary positivity needs n >= 2")
    return scan_faces(B, max_size=B.n - 1).minimum.min_value > tol.tol
