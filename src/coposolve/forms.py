"""Core types and homogeneous forms for coupling matrices on the nonnegative cone.

The quadratic form b(c) = sum_ij beta_ij c_i c_j and its weighted degree-(p-1)
relative sum_ij beta_ij c_j^(p/2) c_i^(p/2-1) mu_i are the primitives every
other module builds on.  Scalar evaluations use exact (fsum) compensated
summation so certificate values do not depend on term order; batch evaluations
rely on numpy's pairwise summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError

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
        object.__setattr__(self, "entries", _readonly((arr + arr.T) / 2.0))
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
    def nontrivial(self) -> bool:
        return bool(np.any(self.components > 0))

    @property
    def strictly_positive(self) -> bool:
        return bool(np.all(self.components > 0))

    def to_simplex(self) -> "ConeVector":
        total = float(self.components.sum())
        if total <= 0:
            raise ParameterError("cannot normalize the zero vector onto the simplex")
        return ConeVector(self.components / total)


@dataclass(frozen=True)
class FormValue:
    """Value of a form, optionally with its gradient in the cone variable."""

    value: float
    gradient: np.ndarray | None = None


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


def cone_power(values, exponent: float) -> np.ndarray:
    """values**exponent on the closed cone: exact 0 at 0, exp/log elsewhere.

    Requires exponent > 0.  Integer and half-integer exponents take exact
    power/sqrt paths so that e.g. squares of lattice points stay exact.
    """
    if exponent <= 0:
        raise ParameterError("cone_power requires a positive exponent")
    v = np.asarray(values, dtype=float)
    if float(exponent).is_integer():
        return np.power(v, int(exponent))
    if float(2 * exponent).is_integer():
        k = int(2 * exponent) // 2
        return np.power(v, k) * np.sqrt(v)
    out = np.zeros_like(v)
    mask = v > 0
    out[mask] = np.exp(exponent * np.log(v[mask]))
    return out


def quadratic_form(B: SymMatrix, c) -> FormValue:
    """b(c) = sum_ij beta_ij c_i c_j with gradient 2 B c.

    ``c`` may be any real vector; the quadratic form is defined on all of R^n.
    """
    v = _vector(c, B.n, "c")
    value = fsum_terms(B.entries * np.outer(v, v))
    gradient = 2.0 * (B.entries @ v)
    return FormValue(value, _readonly(gradient))


def p_form(B: SymMatrix, c, mu, p: float) -> FormValue:
    """Weighted degree-(p-1) form sum_ij beta_ij c_j^(p/2) c_i^(p/2-1) mu_i.

    Defined for p > 2 on the closed cone; c_i^(p/2-1) is taken as 0 at c_i = 0.
    The gradient is attached when it exists everywhere on the evaluation point
    (always for p >= 4, and for p < 4 only at strictly positive c).
    """
    if not p > 2:
        raise ParameterError(f"p must exceed 2, got {p}")
    cv = _cone_vector(c, B.n, "c")
    mv = _cone_vector(mu, B.n, "mu")
    x = cone_power(cv, p / 2.0)
    y = cone_power(cv, p / 2.0 - 1.0)
    value = fsum_terms(B.entries * np.outer(mv * y, x))
    gradient = None
    if p >= 4 or np.all(cv > 0):
        gradient = _readonly(p_form_gradient(B.entries, cv, mv, p))
    return FormValue(value, gradient)


def p_form_gradient(A: np.ndarray, c: np.ndarray, mu: np.ndarray, p: float) -> np.ndarray:
    """Gradient of the weighted form in c, row-wise for a stack of points.

    For 2 < p < 4 the derivative blows up at the cone boundary; the singular
    term is masked to 0 there (one-sided convention).
    """
    half = p / 2.0
    y = cone_power(c, half - 1.0)
    s = cone_power(c, half) @ A
    e2 = half - 2.0
    if e2 == 0.0:
        z = np.ones_like(c)
    elif e2 > 0:
        z = cone_power(c, e2)
    else:
        z = np.zeros_like(c)
        mask = c > 0
        z[mask] = np.exp(e2 * np.log(c[mask]))
    return half * y * ((mu * y) @ A) + (half - 1.0) * z * mu * s


def p_form_values(A: np.ndarray, points: np.ndarray, mu: np.ndarray, p: float) -> np.ndarray:
    """Weighted form over rows of ``points``, without input validation."""
    x = cone_power(points, p / 2.0)
    y = cone_power(points, p / 2.0 - 1.0)
    return np.sum((y * mu) * (x @ A), axis=1)


def p_form_batch(B: SymMatrix, points: np.ndarray, mu, p: float) -> np.ndarray:
    """Vectorized weighted form over rows of ``points`` (shape (m, n))."""
    if not p > 2:
        raise ParameterError(f"p must exceed 2, got {p}")
    mv = _cone_vector(mu, B.n, "mu")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != B.n:
        raise DimensionError(f"points have shape {pts.shape}, expected (m, {B.n})")
    return p_form_values(B.entries, pts, mv, p)


def principal_submatrix(B: SymMatrix, indices) -> SymMatrix:
    """Principal submatrix on the given zero-based component indices."""
    idx = sorted(set(int(i) for i in indices))
    if not idx:
        raise ParameterError("index set must be nonempty")
    if idx[0] < 0 or idx[-1] >= B.n:
        raise ParameterError(f"indices {idx} out of range for n={B.n}")
    return SymMatrix(B.entries[np.ix_(idx, idx)])


def negative_part_row_sums(B: SymMatrix) -> np.ndarray:
    """Per-row sum of negative off-diagonal entries, min(beta_ij, 0) over j != i."""
    neg = np.minimum(B.entries, 0.0)
    np.fill_diagonal(neg, 0.0)
    return neg.sum(axis=1)
