"""Command-line frontend: classify matrices, run verdicts, solve on a box.

Matrix files are JSON documents {"n": <int>, "beta": [[...], ...],
"name": <optional>}, beta being n lists of n JSON numbers.  Every subcommand
prints one report document (schema coposolve-report/2) to standard output,
holding the defaults and the parameter values the run actually used; its
result block is the library's result passed through `reports.to_doc`.
Nothing is random, so identical invocations at a fixed BLAS thread count
produce byte-identical reports, also after other calls in the same process
(the parser is built on the first `main` call and reused); the default
`solve` runs (`--dim 2` is the `--dim 1` solve tiled along y) also match at
1 and 2 OpenBLAS threads in CI, measured, not proven, at large --nodes.
Any verdict, including Unknown, exits 0; only input and validation failures
exit nonzero, with a one-line `error: <category>: <message>` on standard
error.  Reading the file gives io, json, schema or matrix.  Every other
input rule lives in the library: CATEGORIES names its errors parameter,
capacity (n above 16) or precondition (a negative diagonal entry); any other
is a fault, named by its type.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .copositivity import DEAD_BAND, check_psd, classify_copositivity, strict_copositivity_closed_form
from .errors import CapacityError, CoposolveError, ParameterError, PreconditionError
from .forms import ConeVector, SymMatrix
from .mu_search import MAX_ITERATIONS, MuCertificate, appendix_limit_form, b_epsilon, find_mu
from .neumann import Grid, mountain_pass_solve, write_solution_csv, NeumannSolution
from .reports import build_report, serialize_report, to_doc
from .solvability import ProblemParams, classify_solvability

DEFAULTS = {
    "tol": DEAD_BAND,
    "p": 4.0,
    "budget": MAX_ITERATIONS,
    "nodes": 129,
}


# How main names a library error; any other CoposolveError is named by its type.
CATEGORIES = ((PreconditionError, "precondition"), (ParameterError, "parameter"), (CapacityError, "capacity"))


class InputError(Exception):
    """An unreadable or malformed matrix file, or an unwritable output path."""

    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


def _input_doc(beta, name: str | None, path: str | None) -> dict:
    """The input block of a report: the matrix as given, its name and file."""
    beta = np.asarray(beta, dtype=float)
    return {"n": len(beta), "beta": beta.tolist(), "name": name, "path": path}


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
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InputError("schema", f"{p}: n must be a positive integer")
    # JSON numbers only: bool is an int subclass and numpy would read "1" as 1.0.
    if not (isinstance(beta, list) and len(beta) == n
            and all(isinstance(row, list) and len(row) == n for row in beta)
            and all(type(v) in (int, float) for row in beta for v in row)):
        raise InputError("schema", f"{p}: beta must be {n} lists of {n} numbers")
    try:
        arr = np.asarray(beta, dtype=float)
    except OverflowError as exc:
        raise InputError("schema", f"{p}: beta entry out of float range: {exc}") from exc
    try:
        matrix = SymMatrix(arr)
    except CoposolveError as exc:
        raise InputError("matrix", f"{p}: {exc}") from exc
    name = doc.get("name")
    return matrix, _input_doc(arr, name if isinstance(name, str) else None, str(path))


def _classify_one(matrix: SymMatrix) -> dict:
    doc = to_doc(classify_copositivity(matrix))
    doc["psd"] = to_doc(check_psd(matrix))
    if matrix.n in (2, 3):
        doc["closed_form"] = to_doc(strict_copositivity_closed_form(matrix))
    return doc


def cmd_classify(args) -> tuple[dict, dict]:
    path = Path(args.file)
    if path.is_dir():
        entries = []
        for child in sorted(path.glob("*.json")):
            matrix, matrix_doc = load_matrix(child)
            entry = _classify_one(matrix)
            entry["file"] = child.name
            entry["input"] = matrix_doc
            entries.append(entry)
        if not entries:
            raise InputError("io", f"no .json matrix files in directory {path}")
        return {"directory": str(path)}, {"batch": entries}
    matrix, matrix_doc = load_matrix(path)
    return matrix_doc, _classify_one(matrix)


def cmd_liouville(args) -> tuple[dict, dict]:
    matrix, matrix_doc = load_matrix(args.file)
    verdict = classify_solvability(matrix, ProblemParams(args.dim, args.p), args.budget)
    return matrix_doc, to_doc(verdict)


def cmd_find_mu(args) -> tuple[dict, dict]:
    matrix, matrix_doc = load_matrix(args.file)
    return matrix_doc, to_doc(find_mu(matrix, args.p, args.budget))


def cmd_solve(args) -> tuple[dict, dict]:
    matrix, matrix_doc = load_matrix(args.file)
    grid = Grid(args.dim, points_per_side=args.nodes)
    outcome = mountain_pass_solve(matrix, args.p, grid)
    doc = to_doc(outcome)
    if isinstance(outcome, NeumannSolution):
        try:
            write_solution_csv(outcome, grid, args.out)
        except OSError as exc:
            raise InputError("io", f"cannot write {args.out}: {exc}") from exc
        doc["csv_path"] = str(args.out)
    return matrix_doc, doc


def cmd_bepsilon(args) -> tuple[dict, dict]:
    matrix = b_epsilon(args.eps)
    verdict = classify_solvability(matrix, ProblemParams(args.dim, args.p), args.budget)
    # The decision tree already ran find_mu with this budget when it reached
    # the weight search: its outcome is a weight certificate (b_epsilon is 3x3,
    # so no two-component one) or the audit.  Search here only when it stopped
    # before that.
    outcome = verdict.certificate if isinstance(verdict.certificate, MuCertificate) else verdict.audit
    if outcome is None:
        outcome = find_mu(matrix, args.p, args.budget)
    result = {
        "eps": args.eps,
        "closed_form": strict_copositivity_closed_form(matrix),
        "appendix_form_at_322": appendix_limit_form(ConeVector([3.0, 2.0, 2.0])),
        "find_mu": outcome,
        "solvability": verdict,
    }
    return _input_doc(matrix.entries, f"b_epsilon({args.eps})", None), to_doc(result)


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and reused by every later one.

    Every caller shares it, so none may change it.  Parsing leaves it
    unchanged, and each ``func`` default is a module function that looks up
    the library at call time.
    """
    parser = argparse.ArgumentParser(
        prog="coposolve",
        description="Cone-positivity classification and system solvability verdicts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="copositivity trichotomy plus PSD check")
    p_classify.add_argument("file", help="matrix JSON file or a directory of them")
    p_classify.set_defaults(func=cmd_classify)

    p_liouville = sub.add_parser("liouville", help="existence/nonexistence verdict")
    p_liouville.add_argument("file")
    p_liouville.add_argument("--dim", type=int, required=True)
    p_liouville.add_argument("--p", type=float, default=DEFAULTS["p"])
    p_liouville.add_argument("--budget", type=int, default=DEFAULTS["budget"])
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
        category = next((name for kind, name in CATEGORIES if isinstance(exc, kind)), type(exc).__name__)
        print(f"error: {category}: {exc}", file=sys.stderr)
        return 1
    # The parameter values this run used: every option except paths.
    effective = {k: v for k, v in vars(args).items() if k not in ("command", "func", "file", "out")}
    report = build_report(args.command, matrix_doc, dict(DEFAULTS), effective, result)
    sys.stdout.write(serialize_report(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
