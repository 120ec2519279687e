"""Seeded benchmark inputs whose class is known by construction.

Every matrix is built so that its copositivity class, and hence the verdict
the package must reach, follows from how it was made, not from running the
package:

* a planted interior cone direction d with d'Bd < 0 gives NotCopositive;
* a positive definite matrix plus a nonnegative one is strictly copositive;
* a PSD block with a strictly positive kernel vector gives an exact constant
  solution (and CopositiveNotStrict);
* a PSD matrix G G' of low rank whose G has a strictly positive column has no
  nonnegative kernel vector (Gordan), so it is strictly copositive while its
  larger faces are singular;
* a zero diagonal entry gives the singleton constant solution;
* the b_epsilon family sits on either side of its weight threshold, which the
  dense lattice LP oracle puts between eps = 0.006 and 0.008.

An item is one CLI invocation.  ``argv`` holds ``{file}`` where the matrix
file path goes; ``expect`` is what the independent checker needs and is never
shown to the package.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

WITNESS_2 = [[1.0, -2.0], [-2.0, 1.0]]
# Not copositive, no kernel on any support, so `solve` runs the full
# mountain-pass search rather than the constant shortcut.
WITNESS_3 = [[1.0, -2.0, -2.0], [-2.0, 1.0, -2.0], [-2.0, -2.0, 1.0]]

EPS_CERTIFIED = (0.1, 0.02)
EPS_OPEN_GAP = (0.004,)


@dataclass
class Item:
    id: str
    argv: list[str]
    matrix: np.ndarray | None = None
    expect: dict = field(default_factory=dict)


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(workload.encode())]))


def _sym(a: np.ndarray) -> np.ndarray:
    return (a + a.T) / 2.0


def positive_definite(rng, n: int) -> tuple[np.ndarray, float]:
    """Random PD matrix and its smallest eigenvalue."""
    g = rng.standard_normal((n, n))
    p = g @ g.T / n + 0.2 * np.eye(n)
    return _sym(p), float(np.linalg.eigvalsh(p)[0])


def strictly_copositive(rng, n: int) -> tuple[np.ndarray, float]:
    """PD + nonnegative; returns the matrix and a lower bound of b on the simplex.

    On the simplex |c|^2 >= 1/n, so b(c) >= lambda_min(P) / n.
    """
    p, lam = positive_definite(rng, n)
    nn = _sym(np.abs(rng.standard_normal((n, n)))) * 0.5
    np.fill_diagonal(nn, 0.0)
    return p + nn, lam / n


def not_copositive(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Strictly copositive base with off-diagonal mass removed along d.

    Subtracting gamma (d d' - diag(d^2)) leaves the diagonal positive and
    makes d'Bd equal to -margin for the interior direction d.
    """
    base, _ = strictly_copositive(rng, n)
    d = rng.uniform(0.5, 1.5, n)
    d /= d.sum()
    margin = float(rng.uniform(0.05, 0.5)) * float(d @ base @ d)
    off = np.outer(d, d) - np.diag(d * d)
    gamma = (float(d @ base @ d) + margin) / float(d @ off @ d)
    return base - gamma * off, d


def positive_kernel(rng, n: int, support: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Matrix whose principal block on ``support`` is PSD with a positive kernel vector.

    Off the support the matrix is strictly copositive filler; with the full
    support the whole matrix is PSD with kernel vector v > 0.
    """
    k = len(support)
    v = rng.uniform(0.5, 1.5, k)
    proj = np.eye(k) - np.outer(v, v) / float(v @ v)
    h = proj @ rng.standard_normal((k, k))
    block = _sym(h @ h.T)
    a, _ = strictly_copositive(rng, n)
    a[np.ix_(support, support)] = block
    kernel = np.zeros(n)
    kernel[support] = v
    return a, kernel


def low_rank_psd(rng, n: int, rank: int) -> np.ndarray:
    """G G' with an entrywise positive G of the given rank.

    G has a strictly positive column, so G'c = 0 has no nonnegative solution
    but zero (no nonnegative kernel vector); no entry is negative, so the
    row-dominance bound applies.
    """
    g = rng.uniform(0.2, 1.0, (n, rank))
    g[:, 0] = rng.uniform(0.5, 1.5, n)
    return _sym(g @ g.T)


def row_dominant(rng, n: int) -> np.ndarray:
    """Strictly diagonally dominant with some negative couplings (PD, row bound > 0)."""
    off = _sym(rng.uniform(-0.6, 0.6, (n, n)))
    np.fill_diagonal(off, 0.0)
    return off + np.diag(np.abs(off).sum(axis=1) + rng.uniform(0.2, 1.0, n))


def zero_diagonal(rng, n: int, i: int) -> np.ndarray:
    a = _sym(rng.uniform(-1.0, 1.0, (n, n)))
    np.fill_diagonal(a, rng.uniform(0.5, 1.5, n))
    a[i, i] = 0.0
    return a


def weight_search(rng, n: int) -> np.ndarray:
    """Unit-diagonal PD matrix that fails the row-dominance bound.

    Strictly copositive, so the verdict rests on the cutting-plane weight
    search (a certificate or the open gap).
    """
    while True:
        g = rng.standard_normal((n, n))
        p = g @ g.T + 0.3 * n * np.eye(n)
        s = 1.0 / np.sqrt(np.diag(p))
        a = _sym(p * np.outer(s, s))
        off = np.minimum(a, 0.0)
        np.fill_diagonal(off, 0.0)
        if np.min(np.diag(a) + off.sum(axis=1)) <= 0:
            return a


def copositive_not_strict(rng, n: int) -> np.ndarray:
    """Strictly copositive base with a zero diagonal entry and a nonnegative row.

    b(c) >= 0 on the cone and b(e_0) = 0, so the simplex minimum is exactly 0,
    while the matrix stays full rank.
    """
    a, _ = strictly_copositive(rng, n)
    a[0, :] = np.abs(a[0, :])
    a[:, 0] = a[0, :]
    a[0, 0] = 0.0
    return a


def _liouville(item_id: str, matrix: np.ndarray, expect: dict, dim: int = 3) -> Item:
    return Item(item_id, ["liouville", "{file}", "--dim", str(dim), "--p", "4"], matrix,
                dict(expect, command="liouville", dim=dim))


def _classify(item_id: str, matrix: np.ndarray, expect: dict) -> Item:
    return Item(item_id, ["classify", "{file}"], matrix, dict(expect, command="classify"))


def _solve(item_id: str, matrix, dim: int, nodes: int) -> Item:
    argv = ["solve", "{file}", "--dim", str(dim), "--nodes", str(nodes), "--out", "{out}"]
    return Item(item_id, argv, np.array(matrix, dtype=float),
                {"command": "solve", "dim": dim, "nodes": nodes, "p": 4.0})


def _classify_items(rng) -> tuple[list[Item], Item]:
    nc, d = not_copositive(rng, 16)
    sc, lower = strictly_copositive(rng, 15)
    items = [
        _classify("not-copositive-n16", nc, {"class": "NotCopositive", "planted": d.tolist()}),
        _classify("strict-n15", sc, {"class": "StrictlyCopositive", "lower": lower}),
        _classify("not-strict-n15", copositive_not_strict(rng, 15), {"class": "CopositiveNotStrict"}),
    ]
    warm, warm_lower = strictly_copositive(rng, 10)
    return items, _classify("warmup-strict-n10", warm, {"class": "StrictlyCopositive", "lower": warm_lower})


def _liouville_items(rng) -> tuple[list[Item], Item]:
    # The seed draws the entries; sizes, classes and planted supports are
    # fixed, so the work per pass hardly depends on the seed.
    items: list[Item] = []
    for n in range(2, 8):
        for k in range(2 if n < 6 else 1):
            items.append(_liouville(f"zero-diagonal-n{n}-{k}", zero_diagonal(rng, n, (n + k) % n),
                                    {"class": "zero_diagonal"}))
    for n in range(2, 6):
        for k in range(2):
            a, v = positive_kernel(rng, n, list(range(n)))
            items.append(_liouville(f"kernel-full-n{n}-{k}", a,
                                    {"class": "positive_kernel", "kernel": v.tolist()}))
    for n in range(4, 8):
        for k in range(3 if n < 6 else 2):
            support = list(range(n - 2 - k % 3, n))
            a, v = positive_kernel(rng, n, support)
            items.append(_liouville(f"kernel-sub-n{n}-{k}", a,
                                    {"class": "positive_kernel", "kernel": v.tolist()}))
    for n in range(2, 8):
        for k in range(5):
            a, d = not_copositive(rng, n)
            items.append(_liouville(f"not-copositive-n{n}-{k}", a,
                                    {"class": "not_copositive", "planted": d.tolist()}))
    for n in range(3, 8):
        for k in range(3):
            items.append(_liouville(f"row-dominant-n{n}-{k}", row_dominant(rng, n), {"class": "strict"}))
    for k in range(8):
        a, _ = strictly_copositive(rng, 2)
        items.append(_liouville(f"strict-n2-{k}", a, {"class": "strict"}))
    for n in (3, 4, 5):
        for k in range(2):
            a, _ = strictly_copositive(rng, n)
            items.append(_liouville(f"strict-dim2-n{n}-{k}", a, {"class": "strict"}, dim=2))
    for n, count in ((3, 6), (4, 1)):
        for k in range(count):
            items.append(_liouville(f"weight-search-n{n}-{k}", weight_search(rng, n), {"class": "strict"}))
    # Rank 3 at n = 5 leaves one face on the 131k-point sampled grid (about
    # 0.4 s an item on one core).  These 16 items and the n = 4 weight search
    # are the 17 dearest of 113, so the 90th-percentile item falls inside this
    # group, five or six from its cheap end, and item_p90_s tracks that
    # fallback rather than the edge between groups.  (At n = 7 one such item
    # takes about 10 s, at n = 10 minutes.)
    for k in range(16):
        items.append(_liouville(f"low-rank-n5-{k}", low_rank_psd(rng, 5, 3),
                                {"class": "strict"}))
    for eps in EPS_CERTIFIED + EPS_OPEN_GAP:
        reason = "Prop1.2" if eps in EPS_CERTIFIED else "OpenGap"
        items.append(Item(f"bepsilon-{eps}", ["bepsilon", "--eps", repr(eps), "--dim", "3", "--p", "4"],
                          None, {"command": "bepsilon", "class": "strict", "eps": eps, "reason": reason}))
    warm = _liouville("warmup-weight-search-n3", weight_search(rng, 3), {"class": "strict"})
    return items, warm


def build(workload: str, seed: int) -> tuple[list[Item], Item]:
    """Measured items and the warm-up item of a workload, from its seed."""
    rng = _rng(seed, workload)
    if workload == "classify-n16":
        return _classify_items(rng)
    if workload == "liouville-mix":
        return _liouville_items(rng)
    # The Neumann inputs are the fixed witness matrices; the seed changes
    # nothing, so the spread across seeds is the machine's own.
    if workload == "neumann-2d":
        # The smallest 2-d grid the CLI accepts (17^2) takes seconds; the 1-d
        # warm-up runs the same solver code in a fraction of that.
        return [_solve("witness2-2d-49", WITNESS_2, 2, 49)], _solve("warmup-1d-33", WITNESS_2, 1, 33)
    if workload == "neumann-1d":
        items = [_solve("witness2-1d-513", WITNESS_2, 1, 513), _solve("witness3-1d-513", WITNESS_3, 1, 513)]
        return items, _solve("warmup-1d-33", WITNESS_2, 1, 33)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("classify-n16", "liouville-mix", "neumann-2d", "neumann-1d")
