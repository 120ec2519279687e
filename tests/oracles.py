"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately decoupled from the package internals: grids
are enumerated with itertools, forms are evaluated with plain numpy power,
and the weight LP is assembled over the complete grid in one shot.

kernel_scan_constant_support is a float reference for constant solutions:
scipy's null_space on every support, plus an LP where a kernel has dimension
two or more.

The exact checkers at the end work in fractions.Fraction arithmetic: one
finds the simplex minimum of the quadratic form, two settle the cubic (p = 4)
weight question.  Every float input is converted exactly, so a proof holds for
the very matrix, weight and points the package produced.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import linprog

# Cell budget of exact_cubic_weight_positive before it gives up undecided.
EXACT_MAX_CELLS = 100_000


def simplex_lattice(n: int, resolution: int) -> np.ndarray:
    """All points of the standard simplex with coordinates k/resolution."""
    points = []
    for cuts in combinations_with_replacement(range(resolution + 1), n - 1):
        parts = np.diff(np.array([0, *cuts, resolution]))
        points.append(parts / resolution)
    return np.array(points)


def eval_p_form(A: np.ndarray, points: np.ndarray, mu: np.ndarray, p: float) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        x = np.where(points > 0, points, 0.0) ** (p / 2.0)
        y = np.where(points > 0, points, 0.0) ** (p / 2.0 - 1.0)
    return np.einsum("mi,ij,mj->m", y * mu, A, x)


def dense_min_quadratic(A: np.ndarray, resolution: int = 128) -> tuple[float, np.ndarray]:
    pts = simplex_lattice(A.shape[0], resolution)
    vals = np.einsum("mi,ij,mj->m", pts, A, pts)
    k = int(np.argmin(vals))
    return float(vals[k]), pts[k]


def dense_min_p_form(A: np.ndarray, mu: np.ndarray, p: float,
                     resolution: int = 128) -> tuple[float, np.ndarray]:
    pts = simplex_lattice(A.shape[0], resolution)
    vals = eval_p_form(A, pts, mu, p)
    k = int(np.argmin(vals))
    return float(vals[k]), pts[k]


def brute_force_mu_lp(A: np.ndarray, p: float, resolution: int = 64,
                      mu_lower: float = 1e-6) -> tuple[np.ndarray, float]:
    """Best weight over the complete lattice of adversarial points.

    Solves max t s.t. form(c; mu) >= t for every lattice c, componentwise
    mu in [mu_lower, 1].  Returns (mu, margin).
    """
    n = A.shape[0]
    pts = simplex_lattice(n, resolution)
    with np.errstate(invalid="ignore"):
        x = np.where(pts > 0, pts, 0.0) ** (p / 2.0)
        y = np.where(pts > 0, pts, 0.0) ** (p / 2.0 - 1.0)
    coef = y * (x @ A)
    obj = np.zeros(n + 1)
    obj[-1] = -1.0
    res = linprog(
        obj,
        A_ub=np.hstack([-coef, np.ones((coef.shape[0], 1))]),
        b_ub=np.zeros(coef.shape[0]),
        bounds=[(mu_lower, 1.0)] * n + [(None, None)],
        method="highs",
    )
    assert res.status == 0
    return np.asarray(res.x[:n]), float(res.x[-1])


def central_difference_gradient(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for k in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[k] += step
        xm[k] -= step
        out[k] = (f(xp) - f(xm)) / (2.0 * step)
    return out


def _positive_kernel_vector(sub: np.ndarray) -> np.ndarray | None:
    """Strictly positive vector in ker(sub), scaled to max component 1."""
    ns = null_space(sub, rcond=1e-12)
    if ns.size == 0:
        return None
    if ns.shape[1] == 1:
        v = ns[:, 0]
        if np.all(v > 0) or np.all(v < 0):
            v = np.abs(v)
            if v.min() > 1e-9 * v.max():
                return v / v.max()
        return None
    # Higher-dimensional kernel: look for a componentwise >= 1 combination.
    res = linprog(
        np.zeros(ns.shape[1]),
        A_ub=-ns,
        b_ub=-np.ones(ns.shape[0]),
        bounds=[(None, None)] * ns.shape[1],
        method="highs",
    )
    if res.status != 0:
        return None
    v = ns @ res.x
    return v / v.max()


def kernel_scan_constant_support(A, p: float, tol: float = 1e-10
                                 ) -> tuple[tuple[int, ...], np.ndarray] | None:
    """First support with an exact constant solution, by a kernel scan.

    Float reference: supports are scanned by size, then lexicographically.
    A singleton needs a zero diagonal entry; a larger support S needs a
    strictly positive c in ker(A_S), from scipy's null_space, or from an LP
    over the null-space basis when the kernel has dimension >= 2.  c, scaled
    to max 1, is snapped to 12 decimals when that does not hurt the kernel
    residual, and the constant field u = c^(2/p) must leave an equation
    residual c_i^(1 - 2/p) (A c)_i below tol.  Returns (S, c) or None.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    for size in range(1, n + 1):
        for support in combinations(range(n), size):
            idx = list(support)
            sub = A[np.ix_(idx, idx)]
            if size == 1:
                if sub[0, 0] != 0.0:
                    continue
                c_sub = np.ones(1)
            else:
                c_sub = _positive_kernel_vector(sub)
                if c_sub is None:
                    continue
                snapped = np.round(c_sub, 12)
                if np.all(snapped > 0) and np.max(np.abs(sub @ snapped)) <= np.max(np.abs(sub @ c_sub)):
                    c_sub = snapped
            c = np.zeros(n)
            c[idx] = c_sub
            residual = c ** (1.0 - 2.0 / p) * (A @ c)
            if np.max(np.abs(residual)) < tol:
                return support, c
    return None


def mirror_laplacian(U: np.ndarray, h: float) -> np.ndarray:
    """Second differences of each field U[i] with ghost nodes mirrored across every face."""
    U = np.asarray(U, dtype=float)
    out = np.zeros_like(U)
    for axis in range(1, U.ndim):
        pad = [(1, 1) if a == axis else (0, 0) for a in range(U.ndim)]
        padded = np.pad(U, pad, mode="reflect")
        m = U.shape[axis]
        out += np.take(padded, range(m), axis=axis) - 2.0 * U + np.take(padded, range(2, m + 2), axis=axis)
    return out / h**2


def mirror_residual(A, U: np.ndarray, p: float, h: float) -> np.ndarray:
    """Neumann residual -Lap u_i + u_i^- - (u_i^+)^(p/2-1) sum_j beta_ij (u_j^+)^(p/2)."""
    U = np.asarray(U, dtype=float)
    plus = np.maximum(U, 0.0)
    coupled = np.einsum("ij,j...->i...", np.asarray(A, dtype=float), plus ** (p / 2.0))
    return -mirror_laplacian(U, h) + np.minimum(U, 0.0) - plus ** (p / 2.0 - 1.0) * coupled


def _exact(values) -> list:
    """Exact rationals of a float or rational array (Fraction(float) is exact)."""
    return [Fraction(v) for v in np.asarray(values, dtype=object).ravel().tolist()]


def _exact_matrix(A) -> list[list[Fraction]]:
    rows = np.asarray(A, dtype=object)
    return [_exact(row) for row in rows]


def exact_quadratic_form(A, point) -> Fraction:
    """c'Ac at one point, exactly."""
    c = _exact(point)
    return sum(ci * sum(b * cj for b, cj in zip(row, c)) for ci, row in zip(c, _exact_matrix(A)))


def _exact_solve(M: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solution of M x = rhs by Gauss-Jordan elimination, or None if M is singular."""
    k = len(M)
    rows = [list(row) + [b] for row, b in zip(M, rhs)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(k):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [row[k] for row in rows]


def exact_simplex_min(A) -> Fraction:
    """Minimum of c'Ac over the standard simplex, exactly.

    Every support S is visited (singletons are the vertices).  The bordered
    stationarity system 2 A_S c = lam 1, sum c = 1 is solved in Fractions and
    its strictly positive solutions are the candidates.  Only exactly
    singular systems are skipped: a null vector (d, nu) has d != 0 and
    sum d = 0, so c'Ac is constant along d through a stationary point and the
    face minimum is also reached on a smaller face.
    """
    beta = _exact_matrix(A)
    n = len(beta)
    values = []
    for size in range(1, n + 1):
        for support in combinations(range(n), size):
            kkt = [[2 * beta[i][j] for j in support] + [Fraction(-1)] for i in support]
            kkt.append([Fraction(1)] * size + [Fraction(0)])
            solution = _exact_solve(kkt, [Fraction(0)] * size + [Fraction(1)])
            if solution is None or any(x <= 0 for x in solution[:size]):
                continue
            point = [Fraction(0)] * n
            for i, x in zip(support, solution):
                point[i] = x
            values.append(exact_quadratic_form(beta, point))
    return min(values)


def _cubic_coefficients(A, point: list[Fraction]) -> list[Fraction]:
    """a_i(c) = c_i sum_j beta_ij c_j^2, so the cubic form is sum_i mu_i a_i(c)."""
    squares = [c * c for c in point]
    return [ci * sum(b * s for b, s in zip(row, squares)) for ci, row in zip(point, A)]


def exact_cubic_form(A, mu, point) -> Fraction:
    """The cubic form sum_ij beta_ij mu_i c_i c_j^2 at one point, exactly."""
    coefficients = _cubic_coefficients(_exact_matrix(A), _exact(point))
    return sum(m * a for m, a in zip(_exact(mu), coefficients))


def exact_cubic_weight_positive(A, mu
                                ) -> tuple[int | None, tuple[Fraction, ...] | None]:
    """Prove sum_ij beta_ij mu_i c_i c_j^2 > 0 on the closed simplex, or refute it.

    The simplex is bisected at the midpoint of each cell's longest edge.  On a
    cell with vertices v_0..v_{n-1} the cubic equals
    sum_{i<=j<=k} T(v_i, v_j, v_k) * (multinomial) * t_i t_j t_k in barycentric
    coordinates t, where T is the symmetric trilinear (polar) form.  When all
    these Bernstein coefficients are positive the cubic is positive on the
    cell.  Returns (cells, None) with the number of cells of the proving
    partition, or (None, point) with a rational simplex point, a cell vertex,
    at which the form is <= 0.  Raises RuntimeError past EXACT_MAX_CELLS.
    """
    beta = _exact_matrix(A)
    weight = _exact(mu)
    if any(m <= 0 for m in weight):
        raise ValueError("mu must be strictly positive")
    n = len(weight)

    def trilinear(u, v, w):
        # N(u, v, w) = sum_ij mu_i beta_ij u_i v_j w_j, so N(c, c, c) is the form
        return sum(ui * mi * sum(b * vj * wj for b, vj, wj in zip(row, v, w))
                   for ui, mi, row in zip(u, weight, beta))

    def polar(u, v, w):
        # 3 T(u, v, w): N is symmetric in its last two arguments
        return trilinear(u, v, w) + trilinear(v, u, w) + trilinear(w, u, v)

    one = Fraction(1)
    start = tuple(tuple(one if i == k else Fraction(0) for i in range(n)) for k in range(n))
    stack = [start]
    proven = 0
    while stack:
        cell = stack.pop()
        for vertex in cell:
            if polar(vertex, vertex, vertex) <= 0:
                return None, vertex
        if all(polar(cell[i], cell[j], cell[k]) > 0
               for i, j, k in combinations_with_replacement(range(n), 3)):
            proven += 1
            continue
        if proven + len(stack) >= EXACT_MAX_CELLS:
            raise RuntimeError(f"no decision within {EXACT_MAX_CELLS} cells")
        edges = [(sum((a - b) ** 2 for a, b in zip(cell[i], cell[j])), i, j)
                 for i in range(n) for j in range(i + 1, n)]
        _, i, j = max(edges, key=lambda e: e[0])
        middle = tuple((a + b) / 2 for a, b in zip(cell[i], cell[j]))
        stack.append(cell[:i] + (middle,) + cell[i + 1:])
        stack.append(cell[:j] + (middle,) + cell[j + 1:])
    return proven, None


def exact_weight_obstruction(A, points
                             ) -> tuple[list[Fraction], list[Fraction]] | None:
    """Farkas (Ville) obstruction to every positive weight of the cubic form.

    With a(c)_i = c_i sum_j beta_ij c_j^2 the form at c is mu . a(c).  A
    vector lam >= 0, lam != 0, with sum_k lam_k a(c_k) <= 0 in every
    component rules out any mu > 0 keeping the form positive at all the
    given cone points.  lam is found by the LP min t s.t.
    sum_k lam_k a(c_k) <= t, sum_k lam_k = 1, lam >= 0 (HiGHS, floats); it is
    then made rational and the combination re-checked exactly.  Returns
    (lam, combination) when the exact check holds, else None.
    """
    beta = _exact_matrix(A)
    cone = [_exact(c) for c in points]
    if any(x < 0 for c in cone for x in c) or any(not any(c) for c in cone):
        raise ValueError("points must be nonzero and componentwise nonnegative")
    rows = [_cubic_coefficients(beta, c) for c in cone]
    n, m = len(beta), len(rows)
    coef = np.array([[float(x) for x in r] for r in rows])
    objective = np.zeros(m + 1)
    objective[-1] = 1.0
    res = linprog(
        objective,
        A_ub=np.hstack([coef.T, -np.ones((n, 1))]),
        b_ub=np.zeros(n),
        A_eq=np.hstack([np.ones((1, m)), np.zeros((1, 1))]),
        b_eq=[1.0],
        bounds=[(0.0, None)] * m + [(None, None)],
        method="highs",
    )
    assert res.status == 0
    lam = [Fraction(max(float(x), 0.0)) for x in res.x[:m]]
    if not any(lam):
        return None
    combination = [sum(l * r[i] for l, r in zip(lam, rows)) for i in range(n)]
    if any(x > 0 for x in combination):
        return None
    return lam, combination
