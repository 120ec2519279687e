"""Independent checks of coposolve reports, in plain numpy.

Nothing here imports coposolve.  Each check recomputes what a report claims
from the input matrix and from what the generator planted, so a wrong verdict,
a witness of the wrong sign or a field that does not solve the discrete
system is counted as a failed item.  ``check_item`` returns a list of
problems; an empty list means the report passed.
"""

from __future__ import annotations

import functools
import itertools
import json
from pathlib import Path

import numpy as np

TOL = 1e-9  # the CLI's default classification dead-band
CONSTANT_RESIDUAL_TOL = 1e-9
MARGIN_TOL = 1e-7
NEUMANN_RESIDUAL_TOL = 1e-8
NONTRIVIAL_AMPLITUDE = 1e-4
# Dense lattice resolution per dimension for re-checking weight certificates.
LATTICE_RESOLUTION = {2: 512, 3: 128, 4: 48, 5: 24}


def quadratic(a: np.ndarray, c: np.ndarray) -> float:
    return float(c @ a @ c)


def _power(c: np.ndarray, e: float) -> np.ndarray:
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(c > 0, np.where(c > 0, c, 1.0) ** e, 0.0)


def weighted_form(a: np.ndarray, points: np.ndarray, mu: np.ndarray, p: float) -> np.ndarray:
    """sum_ij beta_ij c_j^(p/2) c_i^(p/2-1) mu_i for each row c of ``points``."""
    pts = np.atleast_2d(points)
    return np.einsum("mi,ij,mj->m", _power(pts, p / 2.0 - 1.0) * mu, a, _power(pts, p / 2.0))


@functools.lru_cache(maxsize=None)
def simplex_lattice(n: int, resolution: int) -> np.ndarray:
    """All points of the standard simplex with coordinates k/resolution."""
    cuts = np.array(list(itertools.combinations_with_replacement(range(resolution + 1), n - 1)), dtype=float)
    ends = np.ones((cuts.shape[0], 1))
    lattice = np.diff(np.hstack([0 * ends, cuts.reshape(-1, n - 1), resolution * ends]), axis=1) / resolution
    lattice.setflags(write=False)
    return lattice


def simplex_minimum(a: np.ndarray) -> float:
    """Global minimum of c'Ac on the standard simplex, by enumerating faces.

    At a minimizer c with support S, c_S is a critical point of the quadratic
    on the relative interior of face S: A_SS c_S = m 1 with 1'c_S = 1.  So the
    minimum is the least value over every support whose bordered KKT system
    has a strictly positive solution.  All supports of one size are solved as
    a single batch; a support whose system is singular is skipped (it does
    not occur for the generated classify inputs).
    """
    key = (a.shape[0], a.tobytes())
    if key not in _MINIMA:
        _MINIMA[key] = _simplex_minimum(a)
    return _MINIMA[key]


_MINIMA: dict[tuple[int, bytes], float] = {}


def _simplex_minimum(a: np.ndarray) -> float:
    n = a.shape[0]
    best = np.inf
    for k in range(1, n + 1):
        supports = itertools.combinations(range(n), k)
        # Batches of 64 supports keep this checker's memory below
        # the package's, so it does not show in peak_rss_mb.
        while batch := list(itertools.islice(supports, 64)):
            idx = np.array(batch)
            sub = a[idx[:, :, None], idx[:, None, :]]
            kkt = np.zeros((len(idx), k + 1, k + 1))
            kkt[:, :k, :k] = sub
            kkt[:, :k, k] = -1.0
            kkt[:, k, :k] = 1.0
            rhs = np.zeros((k + 1, 1))
            rhs[k] = 1.0
            try:
                x = np.linalg.solve(kkt, rhs)[:, :k, 0]
            except np.linalg.LinAlgError:
                x = np.array([_solve_or_nan(m, rhs) for m in kkt])[:, :k]
            interior = np.all(x > 0, axis=1)
            if np.any(interior):
                values = np.einsum("ci,cij,cj->c", x[interior], sub[interior], x[interior])
                best = min(best, float(np.min(values)))
    return best


def _solve_or_nan(m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(m, rhs)[:, 0]
    except np.linalg.LinAlgError:
        return np.full(m.shape[0], np.nan)


def b_epsilon(eps: float) -> np.ndarray:
    off = -1.0 + eps
    return np.array([[1.0, off, off], [off, 1.0, 1.0], [off, 1.0, 1.0]])


def row_dominance(a: np.ndarray) -> float:
    neg = np.minimum(a, 0.0)
    np.fill_diagonal(neg, 0.0)
    return float(np.min(np.diag(a) + neg.sum(axis=1)))


def _close(x: float, y: float, rel: float = 1e-9, abs_tol: float = 1e-12) -> bool:
    return abs(x - y) <= abs_tol + rel * max(abs(x), abs(y))


def _simplex_point(problems: list[str], label: str, x, n: int) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (n,) or not np.all(np.isfinite(v)):
        problems.append(f"{label}: expected a finite {n}-vector, got {x!r}")
        return np.full(n, 1.0 / n)
    if np.any(v < 0):
        problems.append(f"{label}: negative component {v.min():.3e}")
    if not _close(float(v.sum()), 1.0, 1e-9):
        problems.append(f"{label}: components sum to {v.sum():.15g}, not 1")
    return v


def check_classify(a: np.ndarray, expect: dict, result: dict) -> list[str]:
    problems: list[str] = []
    n = a.shape[0]
    if result.get("kind") != expect["class"]:
        problems.append(f"verdict {result.get('kind')} but the input was built {expect['class']}")
    w = _simplex_point(problems, "witness", result.get("witness"), n)
    m = float(result.get("min_value", np.nan))
    if not _close(quadratic(a, w), m, 1e-9, 1e-12):
        problems.append(f"min_value {m!r} does not match b(witness) = {quadratic(a, w)!r}")
    exact = simplex_minimum(a)
    if not _close(m, exact, 1e-8, 1e-10):
        problems.append(f"min_value {m!r} is not the simplex minimum {exact!r}")
    if expect["class"] == "NotCopositive":
        d = np.asarray(expect["planted"])
        d = d / d.sum()
        if not m < -TOL:
            problems.append(f"NotCopositive with min_value {m!r}")
        if m > quadratic(a, d) + 1e-12:
            problems.append(f"min_value {m!r} above the planted direction's value {quadratic(a, d)!r}")
    elif expect["class"] == "StrictlyCopositive":
        if m < expect["lower"] - 1e-12:
            problems.append(f"min_value {m!r} below the construction's lower bound {expect['lower']!r}")
    elif abs(m) > TOL:
        problems.append(f"CopositiveNotStrict with min_value {m!r}")
    return problems


def check_mu_certificate(a: np.ndarray, cert: dict, p: float) -> list[str]:
    problems: list[str] = []
    n = a.shape[0]
    mu = np.asarray(cert.get("mu"), dtype=float)
    if mu.shape != (n,) or np.any(mu <= 0) or not _close(float(mu.max()), 1.0):
        problems.append(f"mu {cert.get('mu')!r} is not a positive weight normalized to max 1")
        return problems
    worst = _simplex_point(problems, "worst_point", cert.get("worst_point"), n)
    claimed = float(cert["min_on_simplex"])
    at_worst = float(weighted_form(a, worst, mu, p)[0])
    if not claimed > 0:
        problems.append(f"certificate with min_on_simplex {claimed!r}")
    if not _close(at_worst, claimed, 1e-9, 1e-12):
        problems.append(f"min_on_simplex {claimed!r} but the form at worst_point is {at_worst!r}")
    kappa = float(cert["kappa"])
    ratio = at_worst / float(mu @ worst) ** (p - 1.0)
    if not 0 < kappa <= ratio * (1 + 1e-9) + 1e-12:
        problems.append(f"kappa {kappa!r} not in (0, {ratio!r}]")
    if n in LATTICE_RESOLUTION:
        lattice = simplex_lattice(n, LATTICE_RESOLUTION[n])
        values = weighted_form(a, lattice, mu, p)
        k = int(np.argmin(values))
        if values[k] <= 0 or values[k] < claimed - 1e-6 * abs(claimed) - 1e-12:
            problems.append(
                f"lattice point {lattice[k].tolist()} gives {float(values[k])!r}, below the certified "
                f"minimum {claimed!r}"
            )
    return problems


def check_mu_failure(a: np.ndarray, doc: dict, p: float) -> list[str]:
    problems: list[str] = []
    n = a.shape[0]
    kind = doc.get("type")
    if kind == "failure":
        points = np.array([_simplex_point(problems, "adversary", c, n) for c in doc["adversarial_set"]])
        mu = np.asarray(doc["final_mu"], dtype=float)
        margin = float(np.min(weighted_form(a, points, mu, p)))
        if doc["best_margin"] > MARGIN_TOL:
            problems.append(f"failure with margin {doc['best_margin']!r} above {MARGIN_TOL}")
        if not _close(margin, float(doc["best_margin"]), 1e-6, 1e-12):
            problems.append(f"best_margin {doc['best_margin']!r} but final_mu gives {margin!r}")
    elif kind != "inconclusive":
        problems.append(f"open gap audited by a {kind!r} outcome")
    return problems


def _constant_solution(a: np.ndarray, cert: dict, p: float, expect: dict) -> list[str]:
    problems: list[str] = []
    u = np.asarray(cert.get("u"), dtype=float)
    if u.shape != (a.shape[0],) or np.any(u < 0) or not np.any(u > 0):
        return [f"constant solution u={cert.get('u')!r} is not a nontrivial cone vector"]
    support = sorted(int(i) for i in np.nonzero(u > 0)[0])
    if support != sorted(cert.get("support", [])):
        problems.append(f"support {cert.get('support')} but u is positive on {support}")
    residual = _power(u, p / 2.0 - 1.0) * (a @ _power(u, p / 2.0))
    scale = max(1.0, float(np.max(np.abs(a))))
    if float(np.max(np.abs(residual))) > CONSTANT_RESIDUAL_TOL * scale:
        problems.append(f"constant solution residual {np.max(np.abs(residual)):.3e}")
    if expect["class"] == "zero_diagonal" and (len(support) != 1 or a[support[0], support[0]] != 0):
        problems.append(f"zero-diagonal certificate on support {support}")
    if "kernel" in expect:
        planted = np.asarray(expect["kernel"])
        found = _power(u, p / 2.0)
        if support != sorted(np.nonzero(planted)[0].tolist()) or not np.allclose(
                found / found.max(), planted / planted.max(), rtol=1e-6, atol=1e-9):
            problems.append(f"constant solution on {support} is not the planted kernel vector")
    return problems


def check_solvability(a: np.ndarray, expect: dict, result: dict, p: float = 4.0) -> list[str]:
    """Verdict and certificate of `liouville` (or the solvability part of `bepsilon`)."""
    kind, reason, cert = result.get("kind"), result.get("reason"), result.get("certificate")
    cls = expect["class"]
    n = a.shape[0]
    if cls == "zero_diagonal":
        allowed = {("ExistsNontrivial", "ZeroDiagonal")}
    elif cls == "positive_kernel":
        allowed = {("ExistsNontrivial", "ConstantSolution")}
    elif cls == "not_copositive":
        allowed = {("ExistsNontrivial", "Thm1.1")}
    elif "reason" in expect:
        allowed = {("NoNontrivial", "Prop1.2")} if expect["reason"] == "Prop1.2" else {("Unknown", "OpenGap")}
    elif expect.get("dim", 3) <= 2:
        allowed = {("NoNontrivial", "Thm1.6")}
    elif n == 2:
        allowed = {("NoNontrivial", "Cor1.3")}
    elif row_dominance(a) > 0:
        allowed = {("NoNontrivial", "Prop1.7")}
    else:
        allowed = {("NoNontrivial", "Prop1.2"), ("Unknown", "OpenGap")}
    if (kind, reason) not in allowed:
        return [f"verdict {kind}/{reason}, expected one of {sorted(allowed)} for class {cls}"]

    if reason in ("ZeroDiagonal", "ConstantSolution"):
        if not cert or cert.get("type") != "constant_solution":
            return [f"{reason} without a constant-solution certificate"]
        return _constant_solution(a, cert, p, expect)
    if reason == "Thm1.1":
        if not cert or cert.get("type") != "cone_witness":
            return ["Thm1.1 without a cone witness"]
        problems: list[str] = []
        w = _simplex_point(problems, "cone witness", cert.get("point"), n)
        if not quadratic(a, w) < -TOL:
            problems.append(f"cone witness gives b = {quadratic(a, w)!r}, not negative")
        d = np.asarray(expect["planted"]) / np.sum(expect["planted"])
        if quadratic(a, w) > quadratic(a, d) + 1e-12:
            problems.append(f"cone witness is not the simplex minimum: b(planted) = {quadratic(a, d)!r}")
        return problems
    if reason == "Prop1.7":
        if not cert or cert.get("type") != "row_dominance":
            return ["Prop1.7 without a row-dominance certificate"]
        if not _close(float(cert["kappa0"]), row_dominance(a), 1e-12):
            return [f"kappa0 {cert['kappa0']!r} but the row bound is {row_dominance(a)!r}"]
        return []
    if reason in ("Cor1.3", "Prop1.2"):
        if not cert or cert.get("type") != "certificate":
            return [f"{reason} without a weight certificate"]
        return check_mu_certificate(a, cert, p)
    if reason == "OpenGap":
        return check_mu_failure(a, result.get("audit") or {}, p)
    if cert is not None:
        return [f"{reason} carries an unexpected certificate"]
    return []


def check_bepsilon(expect: dict, result: dict) -> list[str]:
    eps = expect["eps"]
    a = b_epsilon(eps)
    problems: list[str] = []
    closed = result.get("closed_form", {})
    if closed.get("strict") is not True or not _close(float(closed["final_expression"]), 4.0 * eps, 1e-6, 1e-9):
        problems.append(f"closed form {closed!r}, expected strict with final expression 4*eps")
    limit = float(weighted_form(b_epsilon(0.0), np.array([3.0, 2.0, 2.0]), np.ones(3), 4.0)[0])
    if not _close(float(result.get("appendix_form_at_322", np.nan)), limit):
        problems.append(f"appendix form {result.get('appendix_form_at_322')!r}, expected {limit!r}")
    found = result.get("find_mu", {})
    if expect["reason"] != "Prop1.2":
        problems += ["find_mu: " + s for s in check_mu_failure(a, found, 4.0)]
    elif found.get("type") != "certificate":
        problems.append(f"find_mu returned {found.get('type')!r}, expected a certificate")
    else:
        problems += ["find_mu: " + s for s in check_mu_certificate(a, found, 4.0)]
    problems += check_solvability(a, expect, result.get("solvability", {}))
    return problems


def _mirror_laplacian(u: np.ndarray, h: float) -> np.ndarray:
    """Second differences with ghost nodes mirrored across every face."""
    out = np.zeros_like(u)
    for axis in range(u.ndim):
        v = np.moveaxis(u, axis, 0)
        ghost_lo, ghost_hi = v[1:2], v[-2:-1]
        padded = np.concatenate([ghost_lo, v, ghost_hi])
        out += np.moveaxis(padded[:-2] - 2.0 * v + padded[2:], 0, axis)
    return out / (h * h)


def read_solution_csv(path: Path, dim: int, nodes: int) -> tuple[np.ndarray, float]:
    """Fields of shape (n, nodes[, nodes]) and the grid step from a `solve` CSV."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    coords = ["x"] if dim == 1 else ["x", "y"]
    if header[:dim] != coords or table.shape != (nodes**dim, len(header)):
        raise ValueError(f"unexpected CSV layout: header {header}, table {table.shape}")
    x = table[:, 0].reshape((nodes,) * dim)
    h = float(x.flat[-1] - x.flat[0]) / (nodes - 1)
    fields = table[:, dim:].T.reshape((len(header) - dim,) + (nodes,) * dim)
    return fields, h


def check_solve(a: np.ndarray, expect: dict, result: dict, csv_path: Path) -> list[str]:
    if result.get("outcome") != "solution":
        return [f"solve outcome {result.get('outcome')!r}, expected a solution"]
    try:
        u, h = read_solution_csv(csv_path, expect["dim"], expect["nodes"])
    except (OSError, ValueError) as exc:
        return [f"cannot read {csv_path.name}: {exc}"]
    if u.shape[0] != a.shape[0]:
        return [f"CSV holds {u.shape[0]} components for an n={a.shape[0]} matrix"]
    p = expect["p"]
    coupled = np.tensordot(a, _power(u, p / 2.0), axes=1)
    residual = -np.stack([_mirror_laplacian(c, h) for c in u]) + np.minimum(u, 0.0) \
        - _power(u, p / 2.0 - 1.0) * coupled
    problems = []
    if not float(np.max(np.abs(residual))) < NEUMANN_RESIDUAL_TOL:
        problems.append(f"recomputed residual {np.max(np.abs(residual)):.3e}")
    if float(u.min()) < 0:
        problems.append(f"negative field value {u.min():.3e}")
    if not float(u.max()) > NONTRIVIAL_AMPLITUDE:
        problems.append(f"trivial field, max {u.max():.3e}")
    return problems


def check_item(item, returncode: int, stdout: str, out_path: Path | None) -> list[str]:
    """Problems with one CLI run; ``item`` comes from the generator."""
    try:
        return _check_item(item, returncode, stdout, out_path)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        return [f"malformed report: {exc!r}"]


def _check_item(item, returncode: int, stdout: str, out_path: Path | None) -> list[str]:
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    result = report.get("result") or {}
    expect = item.expect
    command = expect["command"]
    if report.get("command") != command:
        return [f"report for {report.get('command')!r}, expected {command!r}"]
    if command == "bepsilon":
        return check_bepsilon(expect, result)
    a = np.asarray(item.matrix, dtype=float)
    echoed = np.asarray((report.get("input") or {}).get("beta"), dtype=float)
    if echoed.shape != a.shape or not np.array_equal(echoed, a):
        return ["report input does not echo the matrix file"]
    if command == "classify":
        return check_classify(a, expect, result)
    if command == "liouville":
        return check_solvability(a, expect, result)
    return check_solve(a, expect, result, out_path)


def decided(item, stdout: str) -> bool:
    """A verdict other than Unknown, or a `solve` that returned a solution."""
    result = json.loads(stdout).get("result") or {}
    command = item.expect["command"]
    if command == "bepsilon":
        result = result.get("solvability", {})
    if command == "solve":
        return result.get("outcome") == "solution"
    return result.get("kind") not in (None, "Unknown")
