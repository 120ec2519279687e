"""Exact classification of the quadratic form's sign on the nonnegative cone.

One face sweep enumerates the vertices of the standard simplex and the
face-interior stationary points of b, support size by support size in
stacked batches; faces with a singular stationarity system are skipped, as
their minimum is also attained on a smaller face.  The minimum of a quadratic
over a compact polytope is attained at one of the swept points, so the sweep
decides copositivity, and its minimum over the proper faces decides boundary
positivity.  The constant solutions of `solvability` are read from the same
sweep.  Closed-form strict-copositivity tests exist for n in {2, 3} and are
run as a redundant cross-check."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, InternalConsistencyError, ParameterError
from .forms import ConeVector, SymMatrix, quadratic_form
from .simplex import barycentric_grid  # noqa: F401  (bench/spans.py wraps this attribute)

MAX_ENUMERATION_N = 16
FACE_CONDITION_LIMIT = 1e12
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

    Yields (supports, points): integer supports of shape (m, k) and the
    strictly positive stationary points on them, c > 0 with 2 A_S c = lambda 1
    and sum c = 1, of shape (m, k).  The vertices come first as one batch of
    singletons, then the larger supports one size at a time in
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
    yield np.arange(n)[:, None], np.ones((n, 1))
    for k in range(2, n + 1):
        border = np.zeros((k + 1, k + 1))
        border[:k, k] = -1.0
        border[k, :k] = 1.0
        rhs = np.zeros((k + 1, 1))
        rhs[k] = 1.0
        supports = itertools.combinations(range(n), k)
        while batch := list(itertools.islice(supports, SWEEP_BATCH)):
            idx = np.array(batch)
            kkt = np.repeat(border[None], len(batch), axis=0)
            kkt[:, :k, :k] = 2.0 * A[idx[:, :, None], idx[:, None, :]]
            # "not above the limit" also drops the inf and NaN of singular faces.
            regular = np.linalg.cond(kkt, 1) <= FACE_CONDITION_LIMIT
            idx, kkt = idx[regular], kkt[regular]
            c = np.linalg.solve(kkt, rhs)[:, :k, 0]
            interior = np.all(c > 0, axis=1)
            yield idx[interior], c[interior]


def _face_minimum(B: SymMatrix, max_size: int) -> SimplexMinimum:
    """Least value of b over the faces of at most max_size components.

    Ties are broken by the witness tuple, a total order, so the winner does
    not depend on the batch order.
    """
    n = B.n
    A = B.entries
    best_val = np.inf
    best_witness: np.ndarray | None = None
    for idx, points in _face_sweep(A):
        if idx.shape[1] > max_size:
            break
        for s, c_s in zip(idx, points):
            value = float(c_s @ A[np.ix_(s, s)] @ c_s)
            w = np.zeros(n)
            w[s] = c_s
            if value < best_val or (
                value == best_val
                and best_witness is not None
                and tuple(w) < tuple(best_witness)
            ):
                best_val = value
                best_witness = w

    witness = np.maximum(best_witness, 0.0)
    witness = witness / witness.sum()
    arg = ConeVector(witness)
    # Recompute through the compensated scalar path so the reported minimum
    # reproduces exactly from the witness.
    value = quadratic_form(B, arg).value
    return SimplexMinimum(value, arg, False)


def simplex_min_quadratic(B: SymMatrix) -> SimplexMinimum:
    """Global minimum of b over the standard simplex.

    The minimum of a quadratic over the simplex is attained at a vertex or at
    a stationary point interior to a face: a strictly positive solution of
    2 B_S c = lambda 1, sum c = 1 on some support S.  The face sweep visits
    all of them except on faces with a singular system, whose minimum is also
    attained on a smaller face.
    """
    if B.n > MAX_ENUMERATION_N:
        raise CapacityError(f"face enumeration supports n <= {MAX_ENUMERATION_N}, got {B.n}")
    return _face_minimum(B, B.n)


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
    """Trichotomy verdict with witness; dead-band cases flagged as boundary.

    For n in {2, 3} the closed form is evaluated as well and any disagreement
    with the oracle outside the dead-band raises InternalConsistencyError.
    """
    minimum = simplex_min_quadratic(B)
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
    return _face_minimum(B, B.n - 1).min_value > tol.tol
