"""Search and verification of positive weights for the degree-(p-1) form.

A matrix passes the weighted-positivity test when some strictly positive
weight vector mu makes g(c) = sum_ij beta_ij c_j^(p/2) c_i^(p/2-1) mu_i
positive on the whole cone minus the origin.  Existence is decided by a
cutting-plane loop: the form is linear in mu, so finitely many adversarial
cone points give a linear program over mu, which linprog, a dense tableau
simplex, solves without scipy.  For each candidate weight, verify_mu bounds
g on the standard simplex by branch and bound over simplicial cells: it
either proves g > 0 with bounds checked against their own rounding error,
or returns a cone point where g <= 0, which becomes the next adversarial
point.  Nothing here is random.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations
from math import comb

import numpy as np

from .copositivity import _cholesky_ok, strict_copositivity_closed_form
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
    fsum_terms,
    negative_part_row_sums,
    p_form,
    p_form_coefficients,
    p_form_values,
    require_nonnegative_diagonal,
    require_p,
)
from .forms import p_form_batch  # noqa: F401  (bench/spans.py wraps this attribute)
from .simplex import barycentric_grid  # noqa: F401  (bench/spans.py wraps this attribute)

MAX_N = 16
# Cutting-plane iterations of find_mu unless the caller gives a budget.
MAX_ITERATIONS = 50
MU_LOWER_BOUND = 1e-6
# The LP relaxation counts as blocked when its margin is at most this.
LP_MARGIN_TOL = 1e-7
# linprog: reduced costs and pivot entries within PIVOT_TOL of zero count as
# zero; it pivots by Dantzig's rule, by Bland's (which cannot cycle) after
# BLAND_AFTER pivots, and gives up after MAX_PIVOTS.
PIVOT_TOL = 1e-12
BLAND_AFTER = 50
MAX_PIVOTS = 1000
# verify_mu: relative accuracy of the reported minimum, and of a violation
# (proven at least 1 / (1 + VIOLATION_GAP) = 2/3 as deep as the minimum),
# cells split per step, bytes the cell store may grow to (which caps the
# count of cells at any n), and the largest n^(p-1) Bernstein tensor (p = 4
# up to n = 16).
GAP = 1e-9
VIOLATION_GAP = 0.5
BATCH = 256
MAX_CELL_BYTES = 1 << 26
BERNSTEIN_MAX_TERMS = 4096
UNIT_ROUNDOFF = 2.0 ** -53
# Newton steps of the KKT polish before verify_mu's tangent finish; it stops
# earlier once a step no longer moves the point.
POLISH_STEPS = 32


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), the relative error of k roundings."""
    return k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)


def power_error(p: float) -> float:
    """Relative error bound of cone_power(v, e) for 0 < e <= p/2 and results in
    the normal range: pow and sqrt for (half-)integer e, else exp(e log v),
    with log and exp within 4 ulp and |e log v| < 745 p/2 for every double v."""
    return 8.0 * UNIT_ROUNDOFF * (1.0 + 745.0 * p / 2.0)


@dataclass(frozen=True)
class VerificationInfo:
    """Size of the subdivision: leaf cells and the deepest split chain."""

    cells: int
    max_depth: int


@dataclass(frozen=True)
class MuCertificate:
    """Proven weight: the form is positive on the whole simplex.

    mu is normalized to max component 1.  kappa is the least cell lower bound,
    already net of rounding error, so the form is at least kappa on the
    simplex and, as mu . c <= 1 there, kappa <= form / (mu . c)^(p-1).
    min_on_simplex is the form at worst_point, the least value seen at a cell
    vertex or, at p = 4, at the point the KKT polish reached (see verify_mu);
    when p/2 is an integer it is within GAP of the simplex minimum, unless
    the cell cap ended the search first.
    """

    mu: ConeVector
    kappa: float
    min_on_simplex: float
    worst_point: ConeVector
    verification: VerificationInfo


@dataclass(frozen=True)
class MuViolation:
    """A cone point at which the weighted form is nonpositive.

    When p/2 is an integer, value is at most 2/3 of the simplex minimum plus
    verify_mu's rounding margin (unless the cell cap or a rounding midpoint
    ended the search first); with the corner bound it is the first
    nonpositive vertex found.
    """

    point: ConeVector
    value: float
    verification: VerificationInfo


@dataclass(frozen=True)
class MuSearchFailure:
    """The finitely-cut relaxation is blocked: the weight LP found no weight clearing the margin.

    The LP over adversarial_set ended with its margin at or below
    LP_MARGIN_TOL.  No obstruction (a nonnegative combination of the set's
    coefficient rows with no positive entry) is checked.  final_mu is
    normalized to max component 1 and best_margin is the least form value
    over the set at final_mu.
    """

    adversarial_set: tuple[ConeVector, ...]
    best_margin: float
    iterations: int
    final_mu: ConeVector


@dataclass(frozen=True)
class MuSearchInconclusive:
    """The relaxation is still open: the budget ran out, or the verifier
    reached its cell cap on final_mu with neither a proof nor a violation."""

    final_mu: ConeVector
    lp_margin: float
    iterations: int
    last_violation: MuViolation | None


def _coefficient_tensor(A: np.ndarray, mu: np.ndarray, p: float) -> np.ndarray:
    """Symmetric tensor C of order d = p - 1 with C(c, ..., c) = g(c), p/2 integer.

    mu_i beta_ij sits at (i, ..., i, j, ..., j), i in the first p/2 - 1 slots;
    averaging over the placements of those slots symmetrizes it.
    """
    n, d, a = A.shape[0], int(p) - 1, int(p) // 2 - 1
    T = np.zeros((n,) * d)
    i, j = np.indices((n, n))
    T[(i,) * a + (j,) * (d - a)] = mu[:, None] * A
    return sum(np.moveaxis(T, range(a), s) for s in combinations(range(d), a)) / comb(d, a)


def _bernstein_bounds(C: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Least simplicial Bernstein coefficient of g on each cell.

    With c = sum_k t_k v_k on a cell, g(c) is the sum of C(v_k1, ..., v_kd)
    t_k1 ... t_kd over vertex tuples, and these t-products sum to 1, so the
    least polar value at the vertices bounds g below.
    """
    m, n, _ = cells.shape
    X = C.reshape(1, 1, C.size)
    for _ in range(C.ndim):
        # Contract the next tensor axis with the vertex matrix of each cell.
        X = cells[:, None] @ X.reshape(X.shape[0], -1, n, X.shape[-1] // n)
        X = X.reshape(m, -1, X.shape[-1])
    return X.min(axis=(1, 2))


def _corner_bounds(A: np.ndarray, mu: np.ndarray, p: float, cells: np.ndarray) -> np.ndarray:
    """Monotone-corner lower bound of g on each cell.

    Every term beta_ij mu_i c_i^(p/2-1) c_j^(p/2) is monotone in c >= 0, so it
    is least at the low corner of the cell's bounding box when beta_ij >= 0
    and at the high corner otherwise.
    """
    lo = p_form_coefficients(np.maximum(A, 0.0), cells.min(axis=1), p)
    hi = p_form_coefficients(np.minimum(A, 0.0), cells.max(axis=1), p)
    return (lo + hi) @ mu


def _kkt_polish(C: np.ndarray, x0: np.ndarray) -> np.ndarray | None:
    """Newton's method on the KKT system of the cubic g(x) = C(x, x, x) on the
    face of x0's support S: C(x, x, e_i) = lam for i in S and sum x = 1.

    It starts at x0 with lam = g(x0), the multiplier that Euler's identity
    gives at a KKT point.  Returns the point divided by its compensated sum,
    zero off S, or None if a step fails or the point leaves the open face.
    """
    S = np.flatnonzero(x0 > 0)
    k = S.size
    Cs = C[np.ix_(S, S, S)]
    x = x0[S]
    lam = (Cs @ x) @ x @ x
    J = np.zeros((k + 1, k + 1))
    J[:k, k], J[k, :k] = -1.0, 1.0
    F = np.empty(k + 1)
    with np.errstate(all="ignore"):
        for _ in range(POLISH_STEPS):
            M = Cs @ x
            F[:k], F[k] = M @ x - lam, x.sum() - 1.0
            J[:k, :k] = 2.0 * M
            try:
                step = np.linalg.solve(J, F)
            except np.linalg.LinAlgError:
                return None
            x, lam = x - step[:k], lam - step[k]
            if not np.abs(step[:k]).max() > UNIT_ROUNDOFF:
                break
    # Positive with a sum near 1, which a NaN or a diverged step fails.
    if not (np.all(x > 0) and x.sum() < 2.0):
        return None
    out = np.zeros_like(x0)
    out[S] = x / fsum_terms(x)
    return out


def _tangent_finish(C: np.ndarray, x0: np.ndarray):
    """Polish x0 and return (x, tangent), or None; the finish of verify_mu at p = 4.

    tangent(cells) is 3 min_k C(x, x, v_k) - 2 g(x) - margin on each cell
    whose vertices' Hessians pass the convexity test, else -inf; None if the
    polish fails or H(x) does not pass it.  See verify_mu for the argument.
    """
    x = _kkt_polish(C, x0)
    if x is None:
        return None
    n, d = len(x), C.ndim
    scale = float(np.abs(C).max())
    # Z'C_i Z for each slice C_i = C(e_i, ., .), Z = [I; -1'].
    R = (C[:, :-1, :-1] - C[:, :-1, -1:] - C[:, -1:, :-1] + C[:, -1:, -1:]).reshape(n, -1)
    shift = 8 * (n - 1) * _gamma(2 * n + 11) * scale * np.eye(n - 1)

    def convex(points: np.ndarray) -> np.ndarray:
        return _cholesky_ok((points @ R).reshape(-1, n - 1, n - 1) - shift)

    w = (C @ x) @ x
    value = w @ x
    # A point that is not KKT on the simplex, whose gradient is lower off
    # its face, is not the minimiser: its tangent plane would be loose there.
    if not convex(x[None])[0] or (w[x == 0] < value - 2 * scale * _gamma(4 * n)).any():
        return None
    margin = (2 * d - 1) * _gamma(2 * (d * (n + 1) + comb(d, d // 2) + 2 + 10)) * scale

    def tangent(cells: np.ndarray) -> np.ndarray:
        ok = convex(cells.reshape(-1, n)).reshape(len(cells), n).all(axis=1)
        return np.where(ok, d * (cells @ w).min(axis=1) - (d - 1) * value - margin, -np.inf)

    return x, tangent


def verify_mu(B: SymMatrix, mu, p: float) -> MuCertificate | MuViolation | None:
    """Prove the weighted form positive on the simplex, or find where it is not.

    Branch and bound over simplicial cells: from the simplex, the BATCH cells
    with the lowest bounds are split at the midpoints of their longest edges,
    so dyadic vertices stay exact (a midpoint that would round ends the
    search).  U is the least form value at a cell vertex.  If p/2 is an
    integer and n^(p-1) <= BERNSTEIN_MAX_TERMS, a cell's bound is its least
    Bernstein coefficient and the search runs until every bound is within
    GAP * |U| of U, or, once U <= 0, within VIOLATION_GAP * |U|: a violation
    is only find_mu's next cut, so it is proven at least 2/3 as deep as the
    simplex minimum, not the minimum itself.  Otherwise the monotone-corner
    bound, first order, only settles the sign.  Bounds are net of an a
    priori rounding bound, so the depth holds up to that bound.  Returns a
    MuViolation at the worst vertex if U <= 0, a MuCertificate if every
    bound is positive, None if the cell cap is reached first.  mu is
    normalized to max component 1.

    At p = 4 (d = 3) a certificate's gap is closed by a tangent finish,
    since Bernstein bounds close it only to O(h^2), one bisection a round.
    Once the sign is proven (U > 0 and every bound positive), Newton's
    method on the KKT system polishes the least vertex on its face, once a
    face (_kkt_polish); the point x is kept if it stays strictly positive
    there, and becomes U's point if its value is lower.  With Z = [I; -1']
    a basis of the sum-zero directions, the Hessian H(c) = 6 C(c, ., .) is
    linear in c, so if Z'H Z is PSD at each vertex v_k of a cell and at x,
    it is PSD on hull(cell + x), g is convex there on the plane sum c = 1,
    and for y in the cell the tangent plane and Euler's identity
    grad g(x) . x = 3 g(x) give

        g(y) >= g(x) + grad g(x) . (y - x) = 3 C(x, x, y) - 2 g(x)
             >= 3 min_k C(x, x, v_k) - 2 g(x),

    as y is a convex combination of the v_k.  Such a cell takes the larger
    of this and its Bernstein bound.  A cell or x that fails the test keeps
    the Bernstein bound, and so does every cell when x is not a KKT point of
    the whole simplex (the gradient is lower off its face), since its
    tangent plane is loose at the minimiser.  The bound holds at any simplex
    point x: the polish sets its tightness, never its soundness.

    Rounding, with s = max |C| and gamma_k = k u / (1 - k u).  Convexity:
    one stacked Cholesky of A = fl(Z'C(v, ., .)Z) - sigma I per point.  If
    it runs to completion, A + E = R'R with |E| <= gamma_n |R'||R| (Higham,
    Accuracy and Stability of Numerical Algorithms, Thm 10.3, order n - 1),
    so lambda_min(A) >= -gamma_n / (1 - gamma_n) trace(A), at least
    -4 (n - 1) gamma_n s (1 + O(u)) as the entries are at most 4 s.  The
    entries are formed with at most n + comb(3, 1) + 7 roundings, the tensor
    build included, so Z'C(v, ., .)Z is within 4 (n - 1) gamma_(n + 10) s
    (1 + O(u)) of A + sigma I in the spectral norm, and its least eigenvalue
    is at least sigma - 4 (n - 1) gamma_(2n + 10) s (1 + O(u)) > 0 for
    sigma = 8 (n - 1) gamma_(2n + 11) s.  Tangent: C(x, x, v_k) and g(x) are
    contracted like the Bernstein coefficients, each within gamma_K s,
    K = 3 (n + 1) + comb(3, 1) + 2.  The sum of x is 1 + delta, |delta| <=
    gamma_2 (x is divided by its correctly rounded sum), so the argument
    runs at x / (1 + delta), exactly on the plane, whose polar values are
    the computed ones over (1 + delta)^2 and (1 + delta)^3, within
    5 gamma_6 s of them in the bound.  Four roundings form and net it.  The
    margin charges 5 gamma_(2 (K + 10)) s, twice the sum.
    """
    require_p(p)
    mv = np.asarray(mu.components if isinstance(mu, ConeVector) else mu, dtype=float)
    if mv.ndim != 1 or mv.size != B.n:
        raise DimensionError(f"mu has length {mv.size}, expected {B.n}")
    if not np.all((mv > 0) & (mv < np.inf)):
        raise ParameterError("mu must have finite, strictly positive components")
    mv = mv / mv.max()
    A, n = B.entries, B.n

    bernstein = float(p / 2.0).is_integer() and n ** (int(p) - 1) <= BERNSTEIN_MAX_TERMS
    if bernstein:
        C = _coefficient_tensor(A, mv, p)
        bound = partial(_bernstein_bounds, C)
        # On simplex points |C| contracts to at most max |C|.  Roundings: the
        # tensor build, d contractions of n terms, and the bound itself.
        d = C.ndim
        margin = _gamma(2 * (d * (n + 1) + comb(d, d // 2) + 2)) * np.abs(C).max()
    else:
        bound = partial(_corner_bounds, A, mv, p)
        # On the simplex each term is at most |beta_ij| mu_i; two powers, then
        # 2n + 2 roundings (the n-term product with beta, the lower power, the
        # sum of the corners, the n-term product with mu), under the 4n + 16
        # charged.
        margin = (2.5 * power_error(p) + _gamma(4 * n + 16)) * np.abs(mv[:, None] * A).sum()

    # The store starts with room for a few rounds and doubles in place, up to
    # cap cells, so a search holds only about what it has opened.
    cap = MAX_CELL_BYTES // (8 * (n * n + 2))
    size = min(cap, 4 * BATCH)
    verts, low, depth = np.empty((size, n, n)), np.empty(size), np.zeros(size, dtype=int)
    verts[0] = np.eye(n)
    low[0] = bound(verts[:1])[0] - margin
    count = 1
    values = p_form_values(A, np.eye(n), mv, p)
    U, worst = float(values.min()), np.eye(n)[int(np.argmin(values))]
    pairs = np.triu_indices(n, 1)
    finish, tangent, polished_faces = bernstein and C.ndim == 3, None, set()
    # A nonpositive vertex settles the sign; only Bernstein bounds go on, to
    # the minimum or to a violation proven deep enough.
    while n > 1 and (bernstein or U > 0):
        floor = U - (GAP if U > 0 else VIOLATION_GAP) * abs(U) - margin if bernstein else -np.inf
        # Split a cell below the floor, or any nonpositive one while U > 0: one
        # of the two sets holds the other, as the floor is positive or not.
        rows = (low[:count] <= 0 if U > 0 >= floor else low[:count] < floor).nonzero()[0]
        take = min(rows.size, BATCH, cap - count)
        if take == 0:
            break
        if rows.size > take:
            rows = rows[low[rows].argpartition(take - 1)[:take]]
        if count + take > size:
            # In place, without the reference check: no view of the store is
            # held here, and a trace or profile hook adds references to the
            # arrays themselves, which would make the check refuse.
            size = min(cap, 2 * size)
            verts.resize((size, n, n), refcheck=False)
            low.resize(size, refcheck=False)
            depth.resize(size, refcheck=False)
        cells, r = verts[rows], np.arange(take)
        if n == 2:
            i, j = 0, 1  # the only edge
        else:
            edges = cells.take(pairs[0], axis=1) - cells.take(pairs[1], axis=1)
            longest = np.einsum("mek,mek->me", edges, edges).argmax(axis=1)
            i, j = pairs[0][longest], pairs[1][longest]
        ends_i, ends_j = cells[r, i], cells[r, j]
        total = ends_i + ends_j
        if (total - np.maximum(ends_i, ends_j) != np.minimum(ends_i, ends_j)).any():
            break
        mid = 0.5 * total
        vals = p_form_values(A, mid, mv, p)
        k = int(np.argmin(vals))
        if vals[k] < U:
            U, worst = float(vals[k]), mid[k]
        # Both children in one array: vertex i moved to the midpoint in the
        # first, which replaces its parent, and vertex j in the second, which
        # is stored after the open cells.
        kids = np.concatenate([cells, cells])
        kids[r, i] = mid
        kids[r + take, j] = mid
        bounds = bound(kids) - margin
        if tangent is not None and (below := (bounds < floor).nonzero()[0]).size:
            bounds[below] = np.maximum(bounds[below], tangent(kids[below]))
        slots = np.concatenate([rows, np.arange(count, count + take)])
        verts[slots], low[slots] = kids, bounds
        d = depth[rows] + 1
        depth[slots] = np.concatenate([d, d])
        count += take
        if finish and U > 0 and low[:count].min() > 0 \
                and (face := (worst > 0).tobytes()) not in polished_faces:
            # The sign is proven: polish the least vertex on its face, once a
            # face, then bound the open cells below the floor by the tangent
            # plane too.
            polished_faces.add(face)
            polished = _tangent_finish(C, worst)
            if polished is not None:
                x, tangent = polished
                value = float(p_form_values(A, x[None], mv, p)[0])
                if value < U:
                    U, worst = value, x
                floor = U - GAP * U - margin
                below = (low[:count] < floor).nonzero()[0]
                for start in range(0, below.size, 2 * BATCH):
                    r = below[start:start + 2 * BATCH]
                    low[r] = np.maximum(low[r], tangent(verts[r]))

    info = VerificationInfo(count, int(depth[:count].max()))
    point = ConeVector(worst)
    if U <= 0:
        return MuViolation(point, p_form(B, point, mv, p), info)
    kappa = float(low[:count].min())
    if kappa > 0:
        return MuCertificate(ConeVector(mv), kappa, p_form(B, point, mv, p), point, info)
    return None


def linprog(c: np.ndarray, A_ub: np.ndarray, b_ub: np.ndarray) -> np.ndarray:
    """argmax c . x subject to A_ub x <= b_ub, x >= 0, for b_ub >= 0: a dense tableau simplex.

    The slack basis is feasible, so no phase 1 is needed.  The entering column
    is the most negative reduced cost for the first BLAND_AFTER pivots, then
    the lowest-index negative one (Bland's rule, which cannot cycle); ratio
    ties leave by the lowest basis index.  Raises InternalConsistencyError on
    an unbounded LP or past MAX_PIVOTS pivots.
    """
    m, n = A_ub.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A_ub
    T[:m, n:-1] = np.eye(m)
    T[:m, -1] = b_ub
    T[m, :n] = -c
    basis = np.arange(n, n + m)
    pivots = 0
    while (entering := np.flatnonzero(T[m, :-1] < -PIVOT_TOL)).size:
        if pivots == MAX_PIVOTS:
            raise InternalConsistencyError(f"simplex took more than {MAX_PIVOTS} pivots")
        col = entering[np.argmin(T[m, entering])] if pivots < BLAND_AFTER else entering[0]
        rows = np.flatnonzero(T[:m, col] > PIVOT_TOL)
        if rows.size == 0:
            raise InternalConsistencyError("LP is unbounded")
        ratios = T[rows, -1] / T[rows, col]
        ties = rows[ratios == ratios.min()]
        row = ties[np.argmin(basis[ties])]
        T[row] /= T[row, col]
        pivot_row = T[row].copy()
        T -= np.outer(T[:, col], pivot_row)
        T[row] = pivot_row
        basis[row] = col
        pivots += 1
    x = np.zeros(n + m)
    x[basis] = T[:m, -1]
    return x[:n]


def _weight_lp(B: SymMatrix, points: list[np.ndarray], p: float) -> tuple[np.ndarray, float]:
    """max t subject to form(c; mu) >= t for c in points, MU_LOWER_BOUND <= mu_i <= 1.

    Solved by linprog after the shift mu = lb + x (box rows x_i <= 1 - lb) and
    t = t0 + s, where v_k = lb * sum_i a(c_k)_i is the form at mu = lb and
    t0 = min_k v_k; the cut rows -a(c_k) . x + s <= v_k - t0 then have a
    nonnegative right side, and t >= t0 at the optimum since mu = lb is
    feasible.  Returns the optimal mu scaled to max component 1, as
    certificates report it, and the margin min over points of form(c; mu) at
    that scaled mu.  A blocked LP drives every mu_i toward the lower bound,
    which would shrink an unscaled margin by the same factor.
    """
    n, lb = B.n, MU_LOWER_BOUND
    coef = p_form_coefficients(B.entries, np.array(points), p)
    v = lb * coef.sum(axis=1)
    a_ub = np.block([[-coef, np.ones((len(points), 1))], [np.eye(n), np.zeros((n, 1))]])
    b_ub = np.concatenate([v - v.min(), np.full(n, 1.0 - lb)])
    objective = np.zeros(n + 1)
    objective[-1] = 1.0
    x = linprog(objective, A_ub=a_ub, b_ub=b_ub)
    mu = lb + np.clip(x[:n], 0.0, 1.0 - lb)
    mu = mu / mu.max()
    margin = float(min(fsum_terms(coef[k] * mu) for k in range(len(points))))
    return mu, margin


def require_budget(max_iterations: int) -> None:
    """The one rule for the weight-search budget: at least one LP round."""
    if max_iterations < 1:
        raise ParameterError(f"budget must be at least 1, got {max_iterations}")


def find_mu(B: SymMatrix, p: float, max_iterations: int = MAX_ITERATIONS
            ) -> MuCertificate | MuSearchFailure | MuSearchInconclusive:
    """Cutting-plane search for a verifying weight.

    The first LP cuts at the n vertices, the barycenter and the C(n, 2) edge
    midpoints (e_i + e_j)/2, in combinations order.  On a two-component face
    a negative coupling beta_ij acts alone, as in the paper's n = 2 case, so
    cutting there first spares verify_mu the refutations of weights blind to
    those faces.  The midpoints are dyadic, so exact.  Each later cut is
    verify_mu's violation, proven at least 2/3 as deep as the form's simplex
    minimum at the refuted weight when p/2 is an integer.

    A Failure is declared only when the linear relaxation over the recorded
    adversarial set is itself blocked (margin at or below LP_MARGIN_TOL);
    an exhausted budget of max_iterations LP rounds, or a weight verify_mu
    leaves undecided, yields Inconclusive.  Before any LP runs it raises
    ParameterError for p or the budget, PreconditionError for a negative
    diagonal entry (outside the paper's scope) and CapacityError above MAX_N.
    """
    require_p(p)
    require_budget(max_iterations)
    require_nonnegative_diagonal(B)
    if B.n > MAX_N:
        raise CapacityError(f"weight search supports n <= {MAX_N}, got {B.n}")
    n = B.n
    adversaries: list[np.ndarray] = [np.eye(n)[i] for i in range(n)]
    adversaries.append(np.full(n, 1.0 / n))
    adversaries.extend((adversaries[i] + adversaries[j]) / 2.0 for i, j in combinations(range(n), 2))
    mu = np.ones(n)
    margin = np.inf
    last_violation: MuViolation | None = None
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        mu, margin = _weight_lp(B, adversaries, p)
        if margin <= LP_MARGIN_TOL:
            return MuSearchFailure(
                adversarial_set=tuple(ConeVector(c) for c in adversaries),
                best_margin=margin,
                iterations=iterations,
                final_mu=ConeVector(mu),
            )
        outcome = verify_mu(B, mu, p)
        if isinstance(outcome, MuCertificate):
            return outcome
        if outcome is None:
            break
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

    Valid for every p > 2; callers should confirm with verify_mu.  The
    decision tree takes the same diagonal_weight without the closed-form
    check here: its face pass has already decided strict copositivity.
    """
    if B.n != 2:
        raise CapacityError(f"constructive weight exists only for n=2, got {B.n}")
    require_p(p)
    if not strict_copositivity_closed_form(B).strict:
        raise PreconditionError("matrix is not strictly copositive")
    return diagonal_weight(B, p)


def diagonal_weight(B: SymMatrix, p: float) -> ConeVector:
    """The weight (beta_11^(-1/p), ..., beta_nn^(-1/p)); the diagonal must be positive."""
    a = B.entries
    return ConeVector([a[i, i] ** (-1.0 / p) for i in range(B.n)])


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
    if not 0 < eps < np.inf:
        raise ParameterError(f"eps must be positive and finite, got {eps}")
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
