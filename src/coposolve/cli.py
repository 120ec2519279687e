"""Command-line frontend: classify matrices, run verdicts, solve on a box.

Matrix files are JSON documents {"n": <int>, "beta": [[...], ...],
"name": <optional>}.  Every subcommand prints one report document (schema
coposolve-report/2) to standard output, holding the defaults and the
parameter values the run actually used.  Nothing is random, so identical
invocations produce byte-identical reports.  Any verdict, including Unknown,
exits 0; only input and validation failures exit nonzero, with a one-line
error on standard error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .copositivity import Tolerance, check_psd, classify_copositivity, strict_copositivity_closed_form
from .errors import CapacityError, CoposolveError, ParameterError
from .forms import ConeVector, SymMatrix
from .mu_search import MuSearchBudget, appendix_limit_form, b_epsilon, find_mu
from .neumann import Grid, SolveConfig, mountain_pass_solve, write_solution_csv, NeumannSolution
from .reports import (
    build_report,
    closed_form_doc,
    copositivity_doc,
    mu_outcome_doc,
    psd_doc,
    serialize_report,
    solvability_doc,
    solve_outcome_doc,
)
from .solvability import ProblemParams, classify_solvability

MAX_CLI_N = 16

DEFAULTS = {
    "tol": 1e-9,
    "p": 4.0,
    "budget": 50,
    "nodes": 129,
}


class InputError(Exception):
    """Invalid user input (file, schema, or parameter)."""

    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


def load_matrix(path: str | Path) -> tuple[SymMatrix, dict]:
    p = Path(path)
    try:
        raw = p.read_text()
    except OSError as exc:
        raise InputError("io", f"cannot read {p}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError("json", f"malformed JSON in {p}: {exc}") from exc
    if not isinstance(doc, dict) or "n" not in doc or "beta" not in doc:
        raise InputError("schema", f'{p}: expected {{"n": int, "beta": [[...]]}}')
    n = doc["n"]
    beta = doc["beta"]
    if not isinstance(n, int) or n < 1:
        raise InputError("schema", f"{p}: n must be a positive integer")
    if n > MAX_CLI_N:
        raise InputError("schema", f"{p}: n={n} exceeds the supported maximum {MAX_CLI_N}")
    arr = np.asarray(beta, dtype=float)
    if arr.shape != (n, n):
        raise InputError("schema", f"{p}: beta must be an {n}x{n} array")
    try:
        matrix = SymMatrix(arr)
    except CoposolveError as exc:
        raise InputError("matrix", f"{p}: {exc}") from exc
    name = doc.get("name")
    matrix_doc = {
        "n": n,
        "beta": [[float(x) for x in row] for row in arr],
        "name": name if isinstance(name, str) else None,
        "path": str(path),
    }
    return matrix, matrix_doc


def _tolerance(args) -> Tolerance:
    try:
        return Tolerance(args.tol)
    except CoposolveError as exc:
        raise InputError("parameter", str(exc)) from exc


def _classify_one(matrix: SymMatrix, tol: Tolerance) -> dict:
    verdict = classify_copositivity(matrix, tol)
    doc = copositivity_doc(verdict)
    doc["psd"] = psd_doc(check_psd(matrix, tol))
    if matrix.n in (2, 3):
        doc["closed_form"] = closed_form_doc(strict_copositivity_closed_form(matrix))
    return doc


def cmd_classify(args) -> tuple[dict, dict]:
    tol = _tolerance(args)
    path = Path(args.file)
    if path.is_dir():
        entries = []
        for child in sorted(path.glob("*.json")):
            matrix, matrix_doc = load_matrix(child)
            entry = _classify_one(matrix, tol)
            entry["file"] = child.name
            entry["input"] = matrix_doc
            entries.append(entry)
        if not entries:
            raise InputError("io", f"no .json matrix files in directory {path}")
        return {"directory": str(path)}, {"batch": entries}
    matrix, matrix_doc = load_matrix(path)
    return matrix_doc, _classify_one(matrix, tol)


def cmd_liouville(args) -> tuple[dict, dict]:
    matrix, matrix_doc = load_matrix(args.file)
    tol = _tolerance(args)
    try:
        params = ProblemParams(args.dim, args.p)
    except CoposolveError as exc:
        raise InputError("parameter", str(exc)) from exc
    try:
        verdict = classify_solvability(matrix, params, MuSearchBudget(args.budget), tol)
    except CoposolveError as exc:
        raise InputError("precondition", str(exc)) from exc
    return matrix_doc, solvability_doc(verdict)


def cmd_find_mu(args) -> tuple[dict, dict]:
    matrix, matrix_doc = load_matrix(args.file)
    if not args.p > 2:
        raise InputError("parameter", f"p must exceed 2, got {args.p}")
    return matrix_doc, mu_outcome_doc(find_mu(matrix, args.p, MuSearchBudget(args.budget)))


def cmd_solve(args) -> tuple[dict, dict]:
    matrix, matrix_doc = load_matrix(args.file)
    # Internal and precondition failures reach main's typed handler.
    try:
        grid = Grid(args.dim, args.extent, args.nodes)
        outcome = mountain_pass_solve(matrix, args.p, grid, SolveConfig())
    except ParameterError as exc:
        raise InputError("parameter", str(exc)) from exc
    except CapacityError as exc:
        raise InputError("capacity", str(exc)) from exc
    csv_path = None
    if isinstance(outcome, NeumannSolution):
        write_solution_csv(outcome, grid, args.out)
        csv_path = str(args.out)
    return matrix_doc, solve_outcome_doc(outcome, csv_path)


def cmd_bepsilon(args) -> tuple[dict, dict]:
    if not args.eps > 0:
        raise InputError("parameter", f"eps must be positive, got {args.eps}")
    matrix = b_epsilon(args.eps)
    matrix_doc = {
        "n": 3,
        "beta": [[float(x) for x in row] for row in matrix.entries],
        "name": f"b_epsilon({args.eps})",
        "path": None,
    }
    try:
        params = ProblemParams(args.dim, args.p)
    except CoposolveError as exc:
        raise InputError("parameter", str(exc)) from exc
    budget = MuSearchBudget(args.budget)
    closed = strict_copositivity_closed_form(matrix)
    verdict = classify_solvability(matrix, params, budget)
    # The decision tree already ran find_mu with this budget when it reached
    # the weight search; search here only when it stopped before that.
    if verdict.reason in ("Prop1.2", "Prop4.3"):
        outcome = verdict.certificate
    elif verdict.audit is not None:
        outcome = verdict.audit
    else:
        outcome = find_mu(matrix, args.p, budget)
    result = {
        "eps": float(args.eps),
        "closed_form": closed_form_doc(closed),
        "appendix_form_at_322": appendix_limit_form(ConeVector([3.0, 2.0, 2.0])),
        "find_mu": mu_outcome_doc(outcome),
        "solvability": solvability_doc(verdict),
    }
    return matrix_doc, result


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coposolve",
        description="Cone-positivity classification and system solvability verdicts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="copositivity trichotomy plus PSD check")
    p_classify.add_argument("file", help="matrix JSON file or a directory of them")
    p_classify.add_argument("--tol", type=float, default=DEFAULTS["tol"])
    p_classify.set_defaults(func=cmd_classify)

    p_liouville = sub.add_parser("liouville", help="existence/nonexistence verdict")
    p_liouville.add_argument("file")
    p_liouville.add_argument("--dim", type=int, required=True)
    p_liouville.add_argument("--p", type=float, default=DEFAULTS["p"])
    p_liouville.add_argument("--budget", type=int, default=DEFAULTS["budget"])
    p_liouville.add_argument("--tol", type=float, default=DEFAULTS["tol"])
    p_liouville.set_defaults(func=cmd_liouville)

    p_findmu = sub.add_parser("find-mu", help="search for a verifying weight vector")
    p_findmu.add_argument("file")
    p_findmu.add_argument("--p", type=float, default=DEFAULTS["p"])
    p_findmu.add_argument("--budget", type=int, default=DEFAULTS["budget"])
    p_findmu.set_defaults(func=cmd_find_mu)

    p_solve = sub.add_parser("solve", help="Neumann solve on the unit box")
    p_solve.add_argument("file")
    p_solve.add_argument("--dim", type=int, choices=(1, 2), required=True)
    p_solve.add_argument("--p", type=float, default=DEFAULTS["p"])
    p_solve.add_argument("--nodes", type=int, default=DEFAULTS["nodes"])
    p_solve.add_argument("--out", required=True, help="CSV path for the field dump")
    p_solve.add_argument("--extent", type=float, default=1.0)
    p_solve.set_defaults(func=cmd_solve)

    p_beps = sub.add_parser("bepsilon", help="full pipeline on the b_epsilon family")
    p_beps.add_argument("--eps", type=float, required=True)
    p_beps.add_argument("--dim", type=int, required=True)
    p_beps.add_argument("--p", type=float, default=DEFAULTS["p"])
    p_beps.add_argument("--budget", type=int, default=DEFAULTS["budget"])
    p_beps.set_defaults(func=cmd_bepsilon)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        matrix_doc, result = args.func(args)
    except InputError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return 1
    except CoposolveError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    # The parameter values this run used: every option except paths.
    effective = {k: v for k, v in vars(args).items() if k not in ("command", "func", "file", "out")}
    report = build_report(args.command, matrix_doc, dict(DEFAULTS), effective, result)
    sys.stdout.write(serialize_report(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
