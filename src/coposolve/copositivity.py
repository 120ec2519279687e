"""Exact classification of the quadratic form's sign on the nonnegative cone.

One face sweep enumerates the vertices of the standard simplex and the
face-interior stationary points of b, support size by support size in
stacked batches.  Each batch's stationarity systems are solved together, and
every face whose solution is strictly positive is kept: such a point is
bounded and lies on the simplex to rounding, even on a singular face, whose
minimum is also attained on a smaller face.  No threshold enters the sweep
that could depend on the units of beta.  One pass over it finds the
exact constant solutions (stationary points with multiplier zero) and else
the minimum of b, which decides copositivity, since a quadratic attains its
minimum over a compact polytope at a swept point; the minimum over the proper
faces decides boundary positivity.  A pass for the minimum alone skips every
face on which b is not convex, and so every face that contains one: there the
stationary point is a saddle and cannot hold the minimum.  It also skips every
convex face whose minimum a sub-face's minimiser already holds, because b
increases from that minimiser towards the rest of the face.  A pass that looks
for constant solutions sweeps every face.  Closed-form strict-copositivity
tests exist for n in {2, 3} and are run as a redundant cross-check."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import CapacityError, InternalConsistencyError, ParameterError
from .forms import ConeVector, SymMatrix, cone_power, fsum_terms, quadratic_form, require_p
from .simplex import barycentric_grid  # noqa: F401  (bench/spans.py wraps this attribute)

MAX_ENUMERATION_N = 16
# Dead-band around zero of the copositivity trichotomy and the PSD check.
DEAD_BAND = 1e-9
# Bound on a constant solution's compensated componentwise residual.  The
# band of values outside which scan_faces skips a batch's constant scan is
# derived from it (see _constant_band), so a rescaled or relative tolerance
# (ROADMAP items 10 and 16) must rescale that band with it.
CONSTANT_RESIDUAL_TOL = 1e-10
# Supports per stacked solve.  The batch's temporaries (about 0.43 MB at 128
# for n = 16, mostly the gathered systems and their flat indices) and the
# cached support tables and masks (0.69 MB at n = 16) set the sweep's peak
# memory, while the gain in speed of larger batches flattens out.
SWEEP_BATCH = 128
# Shift of the convexity test of the minimum-only sweep (see _face_sweep):
# far above the rounding of forming and factoring a block of the scaled
# matrix, below 4e-13 for n <= 16, so a failed factorization proves an exact
# negative eigenvalue.
SADDLE_SHIFT = 2.0 ** -30
# Supports per step of the minimum-only sweep's state update, which bounds
# its temporaries (about 0.2 MB at n = 16).
INHERIT_ROWS = 1024
# Least excess (A m)_j - b(m) of a face minimiser m, on the scaled matrix,
# that the minimum-only sweep reads as an exit towards j (see _face_sweep).
EXIT_MARGIN = 2.0 ** -30
# Least n at which scan_faces without p runs the minimum-only sweep; below it
# the sweep's fixed cost (the tables of Z'A_S Z, the 2^n states, one state
# update, convexity test and exit read per size) exceeds what it saves, and
# the plain fold, which solves every face, gives the same minimum.  Per call,
# best of 3 alternated passes over default_rng(0) matrices of the bench
# families Gaussian + 2I, not_copositive, strictly_copositive and
# row_dominant, pruned against plain: n = 2: 0.29-0.38 against 0.11-0.15 ms;
# n = 8: 0.89-1.30 against 0.47-0.56 ms; n = 10: 1.17-3.83 against
# 1.32-2.89 ms (pruning ahead on strictly_copositive only); n = 11, family
# by family: 1.75, 2.54, 1.41 and 6.12 against 2.46, 2.57, 2.47 and 3.38 ms;
# n = 12: pruning 1.4-2.6x ahead except on row_dominant (11.1 against 6.5 ms).
PRUNED_SWEEP_MIN_N = 11


class Copositivity(Enum):
    NOT_COPOSITIVE = "NotCopositive"
    COPOSITIVE_NOT_STRICT = "CopositiveNotStrict"
    STRICTLY_COPOSITIVE = "StrictlyCopositive"


class Definiteness(Enum):
    POSITIVE_DEFINITE = "PositiveDefinite"
    POSITIVE_SEMIDEFINITE = "PositiveSemidefinite"
    INDEFINITE = "Indefinite"


class SimplexMinimum(NamedTuple):
    min_value: float
    argmin: ConeVector
    # Always False now that singular faces are skipped rather than sampled;
    # kept because the traced benchmark reads it from simplex_min_quadratic.
    grid_assisted: bool


@dataclass(frozen=True)
class ConstantSolutionCertificate:
    """Constant field u whose compensated componentwise residual is below CONSTANT_RESIDUAL_TOL."""

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


@functools.lru_cache(maxsize=MAX_ENUMERATION_N)
def _support_rows(n: int) -> tuple[np.ndarray, ...]:
    """The supports of sizes 2..n, one read-only uint8 table per size.

    A row holds a support's indices in increasing order, then the border
    index n, and the rows come in itertools.combinations order: the size k-1
    supports whose least index is above i are a suffix of their table, and
    prefixing i to that suffix, for i in increasing order, gives the size k
    supports in order."""
    tables = []
    table = np.stack([np.arange(n), np.full(n, n)], axis=1).astype(np.uint8)
    for k in range(2, n + 1):
        # The suffix for least index i starts past the rows led by 0..i.
        starts = np.cumsum([math.comb(n - 1 - i, k - 2) for i in range(n - k + 1)])
        first = np.repeat(np.arange(len(starts), dtype=np.uint8), len(table) - starts)
        table = np.column_stack([first, np.concatenate([table[s:] for s in starts])])
        table.flags.writeable = False
        tables.append(table)
    return tuple(tables)


@functools.lru_cache(maxsize=MAX_ENUMERATION_N)
def _support_masks(n: int) -> tuple[np.ndarray, ...]:
    """The bit masks of the rows of _support_rows(n), one read-only uint16 array per size."""
    masks = []
    for table in _support_rows(n):
        mask = np.left_shift(np.uint16(1), table[:, :-1]).sum(axis=1, dtype=np.uint16)
        mask.flags.writeable = False
        masks.append(mask)
    return tuple(masks)


def _bordered(A: np.ndarray) -> np.ndarray:
    """[[A, -1/2 1], [1/2 1', 0]], every face's halved bordered system at once."""
    n = A.shape[0]
    K = np.full((n + 1, n + 1), -0.5)
    K[n] = 0.5
    K[n, n] = 0.0
    K[:n, :n] = A
    return K


def _face_sweep(A: np.ndarray, minimum_only: bool = False):
    """Stationary points of b interior to the faces of the simplex, in batches.

    Yields (supports, points, blocks): supports of shape (m, k), the strictly
    positive stationary points on them, c > 0 with 2 A_S c = lambda 1 and
    sum c = 1, and the principal blocks A_S.  The vertices come first as one
    batch of singletons, then the larger supports one size at a time in
    itertools.combinations order, in batches of at most SWEEP_BATCH rows of
    the cached support tables.

    With minimum_only, only the faces that can hold the minimum of b inside
    are solved.  Call A_S conditionally PSD when Z'A_S Z is PSD, with
    Z = [I; -1'] a basis of the sum-zero directions on S.  If Z'A_S Z has a
    negative eigenvalue, so has Z'A_T Z for every T containing S, since a
    sum-zero direction on S, padded with zeros, is one on T.  Along such a
    direction b is strictly concave, so the stationary point inside face T is
    a strict saddle: its value lies above the face's minimum, and hence above
    the global one.  A minimiser's face and all of its sub-faces are
    conditionally PSD.  A singular face that holds the minimum has it also
    on a proper sub-face (see _sweep_batch).

    On a conditionally PSD (convex) face a stationary point inside is a
    minimiser, and the sweep also skips the faces whose minimum lies on their
    boundary, read off a sub-face.  Let m minimise b on a convex face S, and
    call j outside S an exit of m when (A m)_j > b(m): b increases from m
    towards the vertex e_j.  On T = S + {j}, m then meets the optimality
    conditions ((A m)_i >= b(m) on T, with equality on the support of m), so
    it minimises b on T if T is convex; and no point x inside T does, since
    the slope of b from m towards x, 2 sum_i x_i ((A m)_i - b(m)), is at
    least 2 x_j ((A m)_j - b(m)) > 0, while b would be constant between two
    minimisers.  Every minimiser of S is then one of T, so the exits of T
    are those of all facets that pass it their minimiser.  If S or T is not
    convex, T holds no minimum inside either.

    So the sweep keeps 2^n states, one per support: dead (shown not
    conditionally PSD, or containing a support that is), or the exits of
    its face's minimiser as a bit mask.  A vertex e_i exits towards the j
    with a_ij > a_ii, and a solved face with a point inside has the exits of
    that point; other faces have none.  For each size k, a support with a
    dead facet is dead, a support whose facet without j exits towards j
    inherits the union of those facets' exits, and only the remaining
    supports are tested, and solved if the test passes.  The solved faces
    get the same systems, solutions and order as in the full sweep, and the
    minimum's fold does not depend on the batches, so the minimum and its
    witness are the full sweep's, unless rounding ties or inverts the values
    of a skipped face and the minimum.

    The test is a Cholesky factorization of Z'A_S Z + SADDLE_SHIFT I, formed
    on A 2^-e with max |A 2^-e| in [1/2, 1): the scaling is exact, so the
    test does not change under A -> 2^e A, nothing overflows, and an
    all-zero A skips no face.  Then Z'A_S Z has order at most 15 and entries
    of size at most 4, each formed by three roundings, and the rounding of
    forming and factoring it is below 4e-13 in the spectral norm (about
    k^2 eps times its largest entry), far below the shift, 2^-30 or about
    9.3e-10.  So a conditionally PSD block always factors, and a block that
    fails to has an exactly negative eigenvalue.  An exit counts when
    (A m)_j - b(m), computed from the solved point, exceeds EXIT_MARGIN
    (also 2^-30) on the same scale: exact ties, such as those of duplicated
    rows, never count, nor does the rounding of the point on any face but a
    badly conditioned one.  A false exit can hide only values within twice
    its error below b(m), since b(m) - b(x) <= -2 sum_i x_i ((A m)_i - b(m))
    by convexity, which is the order of the error of that face's solve.
    """
    n = A.shape[0]
    yield np.arange(n)[:, None], np.ones((n, 1)), np.diag(A)[:, None, None]
    K = _bordered(A)
    if minimum_only:
        # Indexed by the bit mask of a support: bit n marks a support shown
        # not conditionally PSD, bits j < n the exits of its face's minimiser.
        # A vertex e_i is its face's minimiser and exits where a_ij > a_ii.
        dead = np.uint32(1 << n)
        e = int(np.frexp(np.abs(A).max())[1])
        margin = np.ldexp(EXIT_MARGIN, e)
        state = np.zeros(1 << n, dtype=np.uint32)
        state[1 << np.arange(n)] = _exit_masks(A - np.diag(A)[:, None], margin)
        # Z'A_S Z + SADDLE_SHIFT I for every last index l of S, on the scaled
        # matrix: reduced[l, i, j] = a_ij - a_lj - (a_il - a_ll) + shift [i = j].
        scaled = np.ldexp(A, -e)
        reduced = (scaled - scaled[:, None, :]) - (scaled[:, :, None] - np.diag(scaled)[:, None, None])
        reduced += SADDLE_SHIFT * np.eye(n)
    for k, table in enumerate(_support_rows(n), start=2):
        rhs = np.zeros((k + 1, 1))
        rhs[k] = 0.5
        if minimum_only:
            masks = _support_masks(n)[k - 2]
            tested = _inherit_states(state, table, masks, dead)
            psd = _conditionally_psd(reduced, table[tested])
            state[masks[tested][~psd]] = dead
            if state[masks].min() == dead:
                return  # every support of size k is dead, so is every larger one
            table = table[tested][psd]
        for start in range(0, len(table), SWEEP_BATCH):
            idx, points, blocks = _sweep_batch(K, table[start:start + SWEEP_BATCH], rhs)
            if minimum_only and len(idx):
                witnesses = np.zeros((len(idx), n))
                np.put_along_axis(witnesses, idx, points, axis=1)
                gradients = witnesses @ A
                excess = gradients - np.einsum("mi,mi->m", witnesses, gradients)[:, None]
                state[np.left_shift(1, idx).sum(axis=1)] = _exit_masks(excess, margin)
            yield idx, points, blocks


def _inherit_states(state: np.ndarray, table: np.ndarray, masks: np.ndarray, dead: np.uint32) -> np.ndarray:
    """Sets the states of the support rows of one size from their facets' (see _face_sweep).

    A support is dead if a facet is, and otherwise inherits the union of the
    exits of every facet whose minimiser exits towards the support's index
    that the facet lacks.  Returns the rows that inherit nothing: those are
    tested.  Rows go INHERIT_ROWS at a time, which bounds the temporaries.
    """
    k = table.shape[1] - 1
    tested = np.zeros(len(table), dtype=bool)
    for start in range(0, len(table), INHERIT_ROWS):
        rows = slice(start, start + INHERIT_ROWS)
        # Row j: the facet without the j-th index, which counts if it is
        # dead or its minimiser exits towards that index.
        bits = np.left_shift(np.uint32(1), table[rows, :k].T)
        facets = state[masks[rows] ^ bits]
        inherited = np.bitwise_or.reduce(np.where(facets & (bits | dead), facets, 0), axis=0)
        state[masks[rows]] = np.minimum(inherited, dead)
        tested[rows] = inherited == 0
    return tested


def _exit_masks(excess: np.ndarray, margin: float) -> np.ndarray:
    """Bit masks of the columns j of each row of (A m)_j - b(m) with an excess above margin."""
    return (excess > margin) @ np.left_shift(np.uint32(1), np.arange(excess.shape[1], dtype=np.uint32))


def _conditionally_psd(reduced: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Flags the support rows of one size whose Z'A_S Z + SADDLE_SHIFT I factors.

    The blocks are taken from reduced (see _face_sweep) at each support's
    last index, SWEEP_BATCH supports at a time, and factored by one stacked
    Cholesky factorization each, which writes NaN where it fails.
    """
    n, k = len(reduced), table.shape[1] - 1
    psd = np.zeros(len(table), dtype=bool)
    for start in range(0, len(table), SWEEP_BATCH):
        rows = table[start:start + SWEEP_BATCH].astype(np.intp)
        head = rows[:, :k - 1]
        # Flat indices into reduced: the last index, then each pair of the others.
        lead = rows[:, k - 1, None] * (n * n) + head * n
        blocks = reduced.take(lead[:, :, None] + head[:, None, :])
        with np.errstate(all="ignore"):
            factors = _umath_linalg.cholesky_lo(blocks, signature="d->d")
        psd[start:start + SWEEP_BATCH] = ~np.isnan(factors[:, 0, 0])
    return psd


def _sweep_batch(K: np.ndarray, rows: np.ndarray, rhs: np.ndarray):
    """One batch of the face sweep: the interior faces among the support rows.

    A function of its own so that one batch's temporaries are freed before
    the next batch's are made; they set the sweep's peak memory.  The
    bordered systems are taken from K = _bordered(A) (halved throughout, so
    A_S itself fills the block and nothing overflows near the float
    maximum), and solved together, each by its own LAPACK gesv.  An
    exactly singular system (a zero pivot) gets a NaN solution, which is
    never interior; every face whose solution is strictly positive is kept,
    with no threshold that could depend on the units of beta.

    An interior point lies on the simplex.  A singular system has a null
    vector (d, nu) with d != 0 and 1'd = 0, so d has entries of both signs,
    and a solve that picks up a large null component is not interior.  An
    interior [c; lambda] is therefore bounded, and the backward-stable gesv
    puts sum c at 1 to rounding: its value is one that b takes at a point of
    the simplex, so folding it cannot push the minimum below the true one
    beyond rounding.  The minimiser's face is still visited: through a
    stationary point c, 2 A_S d = nu 1 gives
    b(c + t d) = b(c) + t lambda 1'd + t^2 nu 1'd / 2 = b(c), so moving along
    d to the boundary of a singular face keeps the value, and its minimum is
    also attained on a proper sub-face, which the sweep visits anyway.  Nor
    does a singular face come before the first constant solution: the
    smallest support with a positive kernel vector has a regular system (see
    scan_faces), and supports come by size.
    """
    k = len(rhs) - 1
    # Each support's indices, then the border index n: one take of flat indices.
    rows = rows.astype(np.intp)
    kkt = K.take(rows[:, :, None] * len(K) + rows[:, None, :])
    # The gufunc behind np.linalg.solve, which writes NaN rows for exactly
    # singular systems instead of raising for the stack.
    with np.errstate(all="ignore"):
        c = _umath_linalg.solve(kkt, rhs, signature="dd->d")[:, :k, 0]
    interior = np.all(c > 0, axis=1)
    return rows[interior, :k], c[interior], kkt[interior, :k, :k]


def _constant_candidates(points: np.ndarray, blocks: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """The points of one batch scaled to max 1 and snapped, and the rows whose batched residual passes."""
    c = points / points.max(axis=1, keepdims=True)
    # Snap to short decimals when that does not hurt the kernel residual.
    snapped = np.round(c, 12)
    kernel = np.max(np.abs(blocks @ c[..., None]), axis=(1, 2))
    snapped_kernel = np.max(np.abs(blocks @ snapped[..., None]), axis=(1, 2))
    snap = np.all(snapped > 0, axis=1) & (snapped_kernel <= kernel)
    c[snap] = snapped[snap]
    residual = cone_power(c, 1.0 - 2.0 / p) * (blocks @ c[..., None])[..., 0]
    return c, np.max(np.abs(residual), axis=1) < CONSTANT_RESIDUAL_TOL


def _constant_band(k: int, scale: float) -> float:
    """Bound on |b| at the swept point of every candidate of _constant_candidates on a size-k face.

    scale is max |A|, u = 2^-53 and tol = CONSTANT_RESIDUAL_TOL.  A candidate
    c has max c = 1 and batched residuals r_i = c_i^(1-2/p) (A_S c)_i below
    tol, and c_i^(2/p) <= 1 for p > 2, so |c'A_S c| = |sum_i c_i^(2/p) r_i|
    is at most k tol (1 + 3u), plus the rounding of the k products A_S c,
    at most k^3 u scale <= 2^-49 k^2 scale for k <= 16.  The 12-decimal snap
    moves each c_i by at most 5e-13, which moves the value by at most
    1e-12 k^2 scale.  The swept point x is the unsnapped c times max x, with
    max x <= sum x = 1 to rounding, so its value is at most that of c in
    size, and the einsum that forms it adds at most 2k u scale.  A
    candidate's value thus lies within k tol + 1.1e-12 k^2 scale, and the
    band, 2 k tol + 2^-36 k^2 scale (2^-36 is about 1.46e-11), holds it with
    twice the first term and over ten times the second.  It is a function of
    CONSTANT_RESIDUAL_TOL, not a setting of its own."""
    return 2.0 * k * CONSTANT_RESIDUAL_TOL + math.ldexp(k * k * scale, -36)


def _batch_constant(A: np.ndarray, idx: np.ndarray, points: np.ndarray,
                    blocks: np.ndarray, p: float) -> ConstantSolutionCertificate | None:
    """First exact constant solution among one batch of swept faces."""
    c, candidates = _constant_candidates(points, blocks, p)
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
    A candidate's value of b is 0 to within a band (see _constant_band), so
    a batch whose values are all finite and outside it is not scanned.

    Otherwise every batch is folded into the least value of b over the faces
    of at most max_size components (default n), ties going to the smaller
    witness tuple, a total order, so the winner does not depend on the
    batches.  A batch whose least value lies above the running minimum is
    not folded, and one whose least value occurs once folds that row's
    witness alone; only ties and NaN sort the batch's witnesses.  The
    reported minimum is recomputed through the compensated scalar path, so
    it reproduces exactly from the witness.  From n =
    PRUNED_SWEEP_MIN_N on, this pass solves only the faces that can hold the
    minimum (see _face_sweep); below it, it solves every face, which is
    faster there.  The pass with p solves every face, since the face of a
    constant solution need not be conditionally PSD.
    """
    if p is not None:
        require_p(p)
    n = B.n
    if n > MAX_ENUMERATION_N:
        raise CapacityError(f"face enumeration supports n <= {MAX_ENUMERATION_N}, got {n}")
    A = B.entries
    scale = float(np.abs(A).max()) if p is not None else 0.0
    best = (np.inf, ())
    for idx, points, blocks in _face_sweep(A, minimum_only=p is None and n >= PRUNED_SWEEP_MIN_N):
        if max_size is not None and idx.shape[1] > max_size:
            break
        if not len(idx):
            continue
        values = np.einsum("mi,mij,mj->m", points, blocks, points)
        if p is not None:
            # Every candidate's value lies within the band, so a batch whose
            # values are all finite and outside it holds no constant solution.
            size = np.abs(values)
            if not (size.min() > _constant_band(idx.shape[1], scale) and size.max() < np.inf):
                if cert := _batch_constant(A, idx, points, blocks, p):
                    return FaceScan(cert, None)
        least = values.min()
        # A batch that cannot win or tie skips the fold; NaN does not skip.
        if least > best[0]:
            continue
        ties = values == least
        if np.count_nonzero(ties) == 1:
            # The lexsort's first row is the unique least one.  A NaN value
            # makes least NaN, which no row equals, so it takes the lexsort.
            first = int(ties.argmax())
            witness = np.zeros(n)
            witness[idx[first]] = points[first]
        else:
            witnesses = np.zeros((len(idx), n))
            np.put_along_axis(witnesses, idx, points, axis=1)
            first = np.lexsort((*witnesses.T[::-1], values))[0]
            witness = witnesses[first]
        best = min(best, (float(values[first]), tuple(witness)))

    witness = np.maximum(best[1], 0.0)
    arg = ConeVector(witness / witness.sum())
    return FaceScan(None, SimplexMinimum(quadratic_form(B, arg), arg, False))


def simplex_min_quadratic(B: SymMatrix) -> SimplexMinimum:
    """Global minimum of b over the standard simplex, from one face pass."""
    return scan_faces(B).minimum


def strict_copositivity_closed_form(B: SymMatrix) -> ClosedFormResult:
    """Closed-form strict copositivity test for n in {2, 3}."""
    n = B.n
    if n not in (2, 3):
        raise CapacityError(f"closed forms exist only for n in {{2, 3}}, got {n}")
    # On B / 4^e with max |B / 4^e| in [1/2, 2), so the products below stay
    # in range; an even power of two passes exactly through every product and
    # square root, and final_expression, of degree 3/2, scales back by 8^e.
    e = int(np.frexp(np.abs(B.entries).max())[1]) // 2
    a = np.ldexp(B.entries, -2 * e)
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
    with np.errstate(over="ignore"):
        return ClosedFormResult(bool(final > 0), float(np.ldexp(final, 3 * e)))


def classify_copositivity(B: SymMatrix) -> CopositivityVerdict:
    """Trichotomy verdict with witness; dead-band cases flagged as boundary."""
    return copositivity_verdict(B, simplex_min_quadratic(B))


def copositivity_verdict(B: SymMatrix, minimum: SimplexMinimum) -> CopositivityVerdict:
    """Trichotomy verdict read from the simplex minimum of B.

    A minimum within DEAD_BAND of zero reads as copositive, not strictly,
    and is flagged as a boundary case; min_value is reported, so any other
    threshold can be applied to it.  For n in {2, 3} a closed-form
    disagreement outside the dead-band is an internal error."""
    if minimum.min_value < -DEAD_BAND:
        kind = Copositivity.NOT_COPOSITIVE
        boundary = False
    elif minimum.min_value > DEAD_BAND:
        kind = Copositivity.STRICTLY_COPOSITIVE
        boundary = False
    else:
        kind = Copositivity.COPOSITIVE_NOT_STRICT
        boundary = True
    method = "FaceEnumeration"
    if B.n in (2, 3):
        method = f"ClosedForm{B.n}"
        closed = strict_copositivity_closed_form(B)
        if abs(minimum.min_value) > DEAD_BAND and closed.strict != (minimum.min_value > 0):
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


def check_psd(B: SymMatrix) -> Definiteness:
    """Definiteness via the symmetric eigenvalue spectrum."""
    lam_min = float(np.linalg.eigvalsh(B.entries)[0])
    if lam_min > DEAD_BAND:
        return Definiteness.POSITIVE_DEFINITE
    if lam_min >= -DEAD_BAND:
        return Definiteness.POSITIVE_SEMIDEFINITE
    return Definiteness.INDEFINITE


def boundary_positive(B: SymMatrix) -> bool:
    """True iff b is positive on the cone boundary minus the origin.

    Equivalent to strict copositivity of every proper principal submatrix,
    decided by one face sweep over the proper faces: the sweep of a proper
    principal submatrix visits exactly the proper faces inside its support,
    with the same stationarity systems.
    """
    if B.n < 2:
        raise ParameterError("boundary positivity needs n >= 2")
    return scan_faces(B, max_size=B.n - 1).minimum.min_value > DEAD_BAND
