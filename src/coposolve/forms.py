"""Core types and homogeneous forms for coupling matrices on the nonnegative cone.

The quadratic form b(c) = sum_ij beta_ij c_i c_j and its weighted degree-(p-1)
relative sum_ij beta_ij c_j^(p/2) c_i^(p/2-1) mu_i are the primitives every
other module builds on.  Scalar evaluations use exact (fsum) compensated
summation so certificate values do not depend on term order; batch evaluations
of the weighted form all read the coefficient rows of p_form_coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError, PreconditionError

MAX_ASYMMETRY = 1e-9


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SymMatrix:
    """Real symmetric n x n coupling matrix.

    Input is symmetrized to (A + A.T) / 2.  The largest asymmetry seen on the
    way in is recorded; anything above MAX_ASYMMETRY is rejected rather than
    silently averaged away.
    """

    entries: np.ndarray
    max_asymmetry: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise DimensionError("matrix must have at least one row")
        if not np.all(np.isfinite(arr)):
            raise ParameterError("matrix entries must be finite")
        asym = float(np.max(np.abs(arr - arr.T)))
        if asym > MAX_ASYMMETRY:
            raise ParameterError(
                f"input asymmetry {asym:.3e} exceeds the {MAX_ASYMMETRY:.0e} bound"
            )
        object.__setattr__(self, "entries", _readonly(arr / 2.0 + arr.T / 2.0))
        object.__setattr__(self, "max_asymmetry", asym)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class ConeVector:
    """Vector with nonnegative components (a point of the closed cone)."""

    components: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.components, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise DimensionError(f"expected a 1-d vector, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ParameterError("cone vector components must be finite")
        if np.any(arr < 0):
            raise ParameterError("cone vector components must be nonnegative")
        object.__setattr__(self, "components", _readonly(arr))

    @property
    def n(self) -> int:
        return self.components.size

    @property
    def strictly_positive(self) -> bool:
        return bool(np.all(self.components > 0))


def _vector(x, n: int, name: str = "vector") -> np.ndarray:
    arr = x.components if isinstance(x, ConeVector) else np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size != n:
        raise DimensionError(f"{name} has length {arr.size}, expected {n}")
    return np.asarray(arr, dtype=float)


def _cone_vector(x, n: int, name: str = "vector") -> np.ndarray:
    arr = _vector(x, n, name)
    if np.any(arr < 0):
        raise ParameterError(f"{name} must have nonnegative components")
    return arr


def fsum_terms(terms) -> float:
    """Exact compensated sum of an array of terms."""
    return math.fsum(np.asarray(terms, dtype=float).ravel().tolist())


def cone_power(values, exponent: float, out: np.ndarray | None = None) -> np.ndarray:
    """values**exponent on the closed cone: exact 0 at 0, exp/log elsewhere.

    Requires exponent > 0.  Integer and half-integer exponents take exact
    power/sqrt paths so that e.g. squares of lattice points stay exact.
    The result goes to out when given (same shape as values, not values itself).
    """
    if exponent <= 0:
        raise ParameterError("cone_power requires a positive exponent")
    v = np.asarray(values, dtype=float)
    if float(exponent).is_integer():
        return np.power(v, int(exponent), out=out)
    if float(2 * exponent).is_integer():
        k = int(2 * exponent) // 2
        return np.multiply(np.power(v, k, out=out), np.sqrt(v), out=out)
    if out is None:
        out = np.zeros_like(v)
    else:
        out.fill(0.0)
    mask = v > 0
    out[mask] = np.exp(exponent * np.log(v[mask]))
    return out


def require_p(p: float) -> None:
    """The one rule for the nonlinearity degree: finite and above 2."""
    if not 2 < p < math.inf:
        raise ParameterError(f"p must exceed 2 and be finite, got {p}")


def require_int(x, lo: int, rule: str) -> int:
    """The one rule for a size: an integer of at least lo, returned as int."""
    if not (lo <= x < math.inf and int(x) == x):
        raise ParameterError(f"{rule}, got {x}")
    return int(x)


def require_nonnegative_diagonal(B: SymMatrix) -> None:
    """The paper's scope for a system: every beta_ii is nonnegative."""
    if np.any(np.diag(B.entries) < 0):
        raise PreconditionError("negative diagonal entries are outside scope")


def quadratic_form(B: SymMatrix, c) -> float:
    """b(c) = sum_ij beta_ij c_i c_j.

    ``c`` may be any real vector; the quadratic form is defined on all of R^n.
    """
    v = _vector(c, B.n, "c")
    return fsum_terms(B.entries * np.outer(v, v))


def p_form(B: SymMatrix, c, mu, p: float) -> float:
    """Weighted degree-(p-1) form sum_ij beta_ij c_j^(p/2) c_i^(p/2-1) mu_i.

    Defined for p > 2 on the closed cone; c_i^(p/2-1) is taken as 0 at c_i = 0.
    """
    require_p(p)
    cv = _cone_vector(c, B.n, "c")
    mv = _cone_vector(mu, B.n, "mu")
    x = cone_power(cv, p / 2.0)
    y = cone_power(cv, p / 2.0 - 1.0)
    return fsum_terms(B.entries * np.outer(mv * y, x))


def p_form_coefficients(A: np.ndarray, points: np.ndarray, p: float) -> np.ndarray:
    """Rows a(c) = c^(p/2-1) * (A c^(p/2)) over rows c of ``points``, so that
    the weighted form at c is a(c) . mu; the batched form, without input
    validation."""
    return cone_power(points, p / 2.0 - 1.0) * (cone_power(points, p / 2.0) @ A)


def p_form_values(A: np.ndarray, points: np.ndarray, mu: np.ndarray, p: float) -> np.ndarray:
    """Weighted form over rows of ``points``, without input validation.

    A one-row batch goes through BLAS's matrix-vector path, which can round
    differently from the same row inside a batch of two or more."""
    return p_form_coefficients(A, points, p) @ mu


def p_form_batch(B: SymMatrix, points: np.ndarray, mu, p: float) -> np.ndarray:
    """Vectorized weighted form over rows of ``points`` (shape (m, n))."""
    require_p(p)
    mv = _cone_vector(mu, B.n, "mu")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != B.n:
        raise DimensionError(f"points have shape {pts.shape}, expected (m, {B.n})")
    return p_form_values(B.entries, pts, mv, p)


def negative_part_row_sums(B: SymMatrix) -> np.ndarray:
    """Per-row sum of negative off-diagonal entries, min(beta_ij, 0) over j != i."""
    neg = np.minimum(B.entries, 0.0)
    np.fill_diagonal(neg, 0.0)
    return neg.sum(axis=1)
