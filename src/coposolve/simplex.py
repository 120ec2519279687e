"""Standard-simplex sampling utilities.

Positivity questions for homogeneous forms reduce to the standard simplex
{c >= 0, sum c_i = 1}; everything here samples it.
"""

from __future__ import annotations

import functools
from math import comb

import numpy as np

from .errors import ParameterError

# Full barycentric grids explode combinatorially with dimension; above this
# many points a deterministic quasi-random lattice sample of the same
# cardinality is used instead (vertices, edges and barycenter always included).
DEFAULT_GRID_CAP = 131072


def grid_size(n: int, resolution: int) -> int:
    return comb(resolution + n - 1, n - 1)


@functools.lru_cache(maxsize=32)
def _full_grid(n: int, resolution: int) -> np.ndarray:
    def compositions(total: int, parts: int) -> np.ndarray:
        if parts == 1:
            return np.array([[total]], dtype=float)
        blocks = []
        for k in range(total, -1, -1):
            rest = compositions(total - k, parts - 1)
            head = np.full((rest.shape[0], 1), float(k))
            blocks.append(np.hstack([head, rest]))
        return np.vstack(blocks)

    grid = compositions(resolution, n) / float(resolution)
    grid.setflags(write=False)
    return grid


def _structured_points(n: int, resolution: int) -> np.ndarray:
    pts = [np.eye(n)[i] for i in range(n)]
    pts.append(np.full(n, 1.0 / n))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(1, resolution):
                c = np.zeros(n)
                c[i] = k / resolution
                c[j] = 1.0 - k / resolution
                pts.append(c)
    return np.array(pts)


def _sampled_grid(n: int, resolution: int, seed: int) -> np.ndarray:
    structured = _structured_points(n, resolution)
    remaining = max(DEFAULT_GRID_CAP - structured.shape[0], 0)
    rng = np.random.default_rng(np.random.SeedSequence([seed, n, resolution]))
    # Dirichlet(1) interior samples snapped to the barycentric lattice.
    raw = rng.standard_exponential((remaining, n))
    raw /= raw.sum(axis=1, keepdims=True)
    scaled = raw * resolution
    base = np.floor(scaled).astype(int)
    deficit = resolution - base.sum(axis=1)
    frac = scaled - base
    order = np.argsort(-frac, axis=1, kind="stable")
    for col in range(n):
        bump = deficit > col
        if not np.any(bump):
            break
        rows = np.nonzero(bump)[0]
        base[rows, order[rows, col]] += 1
    snapped = base / float(resolution)
    grid = np.unique(np.vstack([structured, snapped]), axis=0)
    grid.setflags(write=False)
    return grid


def barycentric_grid(n: int, resolution: int, seed: int = 0) -> np.ndarray:
    """Points of the standard simplex with components on the k/resolution lattice.

    Returns the complete barycentric grid when its size is at most
    DEFAULT_GRID_CAP, otherwise a deterministic (seeded) lattice sample of
    that many points that always contains all vertices, full edge lattices
    and the barycenter.
    """
    if n < 1:
        raise ParameterError("dimension must be at least 1")
    if resolution < 1:
        raise ParameterError("resolution must be at least 1")
    if n == 1:
        return np.array([[1.0]])
    if grid_size(n, resolution) <= DEFAULT_GRID_CAP:
        return _full_grid(n, resolution)
    return _sampled_grid(n, resolution, seed)

