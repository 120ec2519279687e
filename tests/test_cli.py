"""Command-line frontend: subcommands, reports, determinism, error paths."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from coposolve import cli, neumann
from coposolve.cli import main
from coposolve.errors import (
    CapacityError,
    InternalConsistencyError,
    ParameterError,
    PreconditionError,
)
from coposolve.mu_search import b_epsilon
from coposolve.reports import SCHEMA_VERSION, serialize_report

SRC = Path(__file__).resolve().parents[1] / "src"


def write_matrix(tmp_path, name, n, beta, label=None):
    doc = {"n": n, "beta": beta}
    if label:
        doc["name"] = label
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def command_argv(command, path, tmp_path):
    """A short invocation of each subcommand on the matrix file ``path``."""
    return {
        "classify": ["classify", str(path)],
        "liouville": ["liouville", str(path), "--dim", "3"],
        "find-mu": ["find-mu", str(path)],
        "solve": ["solve", str(path), "--dim", "1", "--nodes", "33", "--out", str(tmp_path / "s.csv")],
        "bepsilon": ["bepsilon", "--eps", "0.1", "--dim", "3"],
    }[command]


class TestClassify:
    def test_identity_report(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "id2.json", 2, [[1, 0], [0, 1]], "identity")
        code, out, err = run(capsys, ["classify", str(path)])
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["result"]["kind"] == "StrictlyCopositive"
        assert doc["result"]["min_value"] == pytest.approx(0.5)
        assert doc["result"]["psd"] == "PositiveDefinite"
        assert doc["input"]["beta"] == [[1.0, 0.0], [0.0, 1.0]]
        assert doc["defaults"]["tol"] == 1e-9

    def test_entries_near_float_maximum(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "huge.json", 2, [[1.5e308, 0], [0, 1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(capsys, ["classify", str(path)])
        assert code == 0 and err == ""
        result = json.loads(out)["result"]
        assert result["kind"] == "StrictlyCopositive"
        assert math.isfinite(result["min_value"])

    def test_round_trip(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "m.json", 2, [[1, -2], [-2, 1]])
        code, out, _ = run(capsys, ["classify", str(path)])
        doc = json.loads(out)
        assert json.loads(serialize_report(doc)) == doc

    def test_directory_batch_sorted(self, tmp_path, capsys):
        write_matrix(tmp_path, "b.json", 2, [[1, 0], [0, 1]])
        write_matrix(tmp_path, "a.json", 2, [[1, -2], [-2, 1]])
        code, out, _ = run(capsys, ["classify", str(tmp_path)])
        assert code == 0
        entries = json.loads(out)["result"]["batch"]
        assert [e["file"] for e in entries] == ["a.json", "b.json"]
        assert entries[0]["kind"] == "NotCopositive"


def scaled_not_copositive(scale):
    """scale times a 6 x 6 not copositive matrix, minimum -0.097 on the simplex."""
    m = np.random.default_rng(3).uniform(-1.0, 1.0, (6, 6))
    m = m + m.T
    np.fill_diagonal(m, 1.0)
    return (scale * m).tolist()


class TestScale:
    @pytest.mark.parametrize("scale", [1e8, 2.0**-20])
    def test_verdicts_do_not_depend_on_the_units_of_beta(self, tmp_path, capsys, scale):
        results = {}
        for s in (1.0, scale):
            path = write_matrix(tmp_path, f"m{s}.json", 6, scaled_not_copositive(s))
            for argv in (["classify", str(path)], ["liouville", str(path), "--dim", "2"]):
                code, out, err = run(capsys, argv)
                assert code == 0 and err == ""
                results[argv[0], s] = json.loads(out)["result"]
        classify, scaled = results["classify", 1.0], results["classify", scale]
        assert classify["kind"] == scaled["kind"] == "NotCopositive"
        assert scaled["min_value"] / scale == pytest.approx(classify["min_value"], rel=1e-9)
        assert scaled["witness"] == pytest.approx(classify["witness"], abs=1e-9)
        liouville, scaled = results["liouville", 1.0], results["liouville", scale]
        assert (liouville["kind"], liouville["reason"]) == (scaled["kind"], scaled["reason"])
        assert liouville["reason"] == "Thm1.1"
        assert scaled["certificate"]["point"] == pytest.approx(liouville["certificate"]["point"], abs=1e-9)


class TestLiouville:
    def test_constant_solution_certificate(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "boundary.json", 2, [[1, -1], [-1, 1]])
        code, out, _ = run(capsys, ["liouville", str(path), "--dim", "3", "--p", "4"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["kind"] == "ExistsNontrivial"
        assert result["reason"] == "ConstantSolution"
        assert result["certificate"]["u"] == [1.0, 1.0]

    def test_unknown_is_exit_zero(self, tmp_path, capsys):
        beta = [[1, -0.996, -0.996], [-0.996, 1, 1], [-0.996, 1, 1]]
        path = write_matrix(tmp_path, "gap.json", 3, beta)
        code, out, _ = run(capsys, ["liouville", str(path), "--dim", "3", "--p", "4"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["kind"] == "Unknown"
        assert result["reason"] == "OpenGap"
        assert result["note"]

    def test_boundary_pair_is_exit_zero(self, tmp_path, capsys):
        # Copositive, not strictly, by the closed form, with a positive
        # diagonal: a verdict, not a precondition error.
        beta = [[26667962.233527064, -30140383.217575062], [-30140383.217575062, 34064946.2657549]]
        path = write_matrix(tmp_path, "boundary2.json", 2, beta)
        code, out, err = run(capsys, ["liouville", str(path), "--dim", "3"])
        assert code == 0 and err == ""
        result = json.loads(out)["result"]
        assert (result["kind"], result["reason"], result["boundary_case"]) == ("Unknown", "OpenGap", True)

    def test_supercritical_rejected(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "m.json", 2, [[1, 0], [0, 1]])
        code, out, err = run(capsys, ["liouville", str(path), "--dim", "3", "--p", "6"])
        assert code == 1
        assert err.startswith("error:")
        assert out == ""

    @pytest.mark.parametrize(
        "error, prefix",
        [
            (PreconditionError, "error: precondition:"),
            (InternalConsistencyError, "error: InternalConsistencyError:"),
        ],
    )
    def test_error_categories(self, tmp_path, capsys, monkeypatch, error, prefix):
        # A precondition is the user's input; a failed cross-check is a fault.
        def fail(*args, **kwargs):
            raise error("boom")

        monkeypatch.setattr(cli, "classify_solvability", fail)
        path = write_matrix(tmp_path, "m.json", 2, [[1, -2], [-2, 1]])
        code, out, err = run(capsys, ["liouville", str(path), "--dim", "2"])
        assert code == 1 and out == ""
        assert err == f"{prefix} boom\n"


class TestFindMu:
    def test_certificate_report(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "m.json", 2, [[1, -1.9], [-1.9, 4]])
        code, out, _ = run(capsys, ["find-mu", str(path), "--p", "4"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["type"] == "certificate"
        assert result["min_on_simplex"] > 0
        assert result["verification"]["cells"] >= 1

    def test_deterministic_output(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "m.json", 2, [[1, -1.9], [-1.9, 4]])
        argv = ["find-mu", str(path), "--p", "4"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second


class TestSolve:
    def test_constant_solution_dump(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "boundary.json", 2, [[1, -1], [-1, 1]])
        out_csv = tmp_path / "sol.csv"
        code, out, _ = run(
            capsys,
            ["solve", str(path), "--dim", "1", "--p", "4", "--nodes", "33",
             "--out", str(out_csv)],
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["outcome"] == "solution"
        assert result["energy_report"]["residual_inf"] == 0.0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "x,u1,u2"
        assert len(lines) == 34
        sidecar = json.loads((tmp_path / "sol.csv.json").read_text())
        assert sidecar["classification"] == "Constant"

    def test_2d_csv_is_the_1d_csv_tiled(self, tmp_path, capsys):
        # Row (x, y) of the 2-d dump carries the x and u strings of row x of
        # the 1-d dump, and y the x string of row y.
        path = write_matrix(tmp_path, "witness.json", 2, [[1, -2], [-2, 1]])
        rows = {}
        for dim in (1, 2):
            out_csv = tmp_path / f"{dim}d.csv"
            code, _, _ = run(capsys, ["solve", str(path), "--dim", str(dim), "--nodes", "33", "--out", str(out_csv)])
            assert code == 0
            rows[dim] = [line.split(",") for line in out_csv.read_text().splitlines()[1:]]
        assert len(rows[1]) == 33 and len(rows[2]) == 33 * 33
        for k, (x, y, *u) in enumerate(rows[2]):
            line, column = rows[1][k // 33], rows[1][k % 33]
            assert [x, *u] == line and y == column[0]

    def test_unwritable_out_is_an_io_error(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "boundary.json", 2, [[1, -1], [-1, 1]])
        out_csv = tmp_path / "missing" / "sol.csv"
        code, out, err = run(
            capsys,
            ["solve", str(path), "--dim", "1", "--nodes", "33", "--out", str(out_csv)],
        )
        assert code == 1 and out == ""
        assert err.startswith(f"error: io: cannot write {out_csv}:")
        assert len(err.strip().splitlines()) == 1

    def test_trivial_only_report(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "id.json", 2, [[1, 0], [0, 1]])
        out_csv = tmp_path / "none.csv"
        code, out, _ = run(
            capsys,
            ["solve", str(path), "--dim", "1", "--p", "4", "--nodes", "33",
             "--out", str(out_csv)],
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["outcome"] == "trivial_only"
        assert not out_csv.exists()

    def test_inconclusive_report(self, tmp_path, capsys, monkeypatch):
        # A Newton polish that stalls at a finite residual leaves no seed
        # accepted and some not collapsed.  The seeds that run all escape in
        # the descent at 17 nodes; pin the descent so each reaches the polish.
        monkeypatch.setattr(neumann, "_descend_energy", lambda A, U, p, grid: [(V, 0.0, 0.0, False) for V in U])
        monkeypatch.setattr(neumann, "_newton_polish", lambda A, U, p, grid: [(V, 0.5, False) for V in U])
        path = write_matrix(tmp_path, "m.json", 2, [[1, -2], [-2, 1]])
        out_csv = tmp_path / "s.csv"
        code, out, _ = run(
            capsys,
            ["solve", str(path), "--dim", "1", "--nodes", "17", "--out", str(out_csv)],
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["outcome"] == "inconclusive"
        assert result["best_residual"] == 0.5
        assert not out_csv.exists()

    @pytest.mark.parametrize(
        "error, prefix",
        [
            (ParameterError, "error: parameter:"),
            (CapacityError, "error: capacity:"),
            (InternalConsistencyError, "error: InternalConsistencyError:"),
            (PreconditionError, "error: precondition:"),
        ],
    )
    def test_error_categories(self, tmp_path, capsys, monkeypatch, error, prefix):
        def fail(*args, **kwargs):
            raise error("boom")

        monkeypatch.setattr(cli, "mountain_pass_solve", fail)
        path = write_matrix(tmp_path, "m.json", 2, [[1, -2], [-2, 1]])
        code, out, err = run(
            capsys,
            ["solve", str(path), "--dim", "1", "--nodes", "33", "--out", str(tmp_path / "s.csv")],
        )
        assert code == 1 and out == ""
        assert err == f"{prefix} boom\n"


class TestBEpsilon:
    def test_pipeline_values(self, capsys):
        code, out, _ = run(capsys, ["bepsilon", "--eps", "0.25", "--dim", "3", "--p", "4"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["closed_form"]["final_expression"] == pytest.approx(1.0, abs=1e-12)
        assert result["appendix_form_at_322"] == -1.0
        # eps = 0.25 sits far above the weight-existence threshold (0.007-0.008):
        # the search certifies and the verdict is nonexistence.
        assert result["find_mu"]["type"] == "certificate"
        assert result["solvability"]["kind"] == "NoNontrivial"

    @pytest.mark.parametrize("p", ["4", "3"])
    def test_find_mu_reuses_the_certificate(self, capsys, p):
        # Prop1.2 at p = 4, Prop4.3 at p = 3: the tree's weight search certified.
        code, out, _ = run(capsys, ["bepsilon", "--eps", "0.1", "--dim", "3", "--p", p])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["find_mu"]["type"] == "certificate"
        assert result["find_mu"] == result["solvability"]["certificate"]

    def test_find_mu_reuses_the_audit(self, capsys):
        # Below the weight-existence threshold the decision tree ends in the
        # open gap after its own weight search.
        code, out, _ = run(capsys, ["bepsilon", "--eps", "0.005", "--dim", "3"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["solvability"]["reason"] == "OpenGap"
        assert result["find_mu"] == result["solvability"]["audit"]

    def test_find_mu_runs_when_the_tree_stops_early(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["bepsilon", "--eps", "0.1", "--dim", "2"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["solvability"]["reason"] == "Thm1.6"
        path = write_matrix(tmp_path, "b.json", 3, b_epsilon(0.1).entries.tolist())
        code, out, _ = run(capsys, ["find-mu", str(path)])
        assert code == 0
        assert result["find_mu"] == json.loads(out)["result"]

    def test_rejects_nonpositive_eps(self, capsys):
        code, out, err = run(capsys, ["bepsilon", "--eps", "0", "--dim", "3", "--p", "4"])
        assert code == 1 and out == ""
        assert err.startswith("error: parameter: eps must be positive")

    def test_rejects_infinite_eps(self, capsys):
        code, out, err = run(capsys, ["bepsilon", "--eps", "inf", "--dim", "3", "--p", "4"])
        assert code == 1 and out == ""
        assert err.startswith("error: parameter: eps must be positive and finite")


class TestBudget:
    # b_epsilon(0.1) is strictly copositive and not row-dominant, so the
    # decision tree reaches the weight search.
    @pytest.mark.parametrize("budget", ["0", "-3"])
    @pytest.mark.parametrize("command", ["liouville", "find-mu", "bepsilon"])
    def test_budget_below_one_rejected(self, tmp_path, capsys, command, budget):
        path = write_matrix(tmp_path, "m.json", 3, b_epsilon(0.1).entries.tolist())
        code, out, err = run(capsys, command_argv(command, path, tmp_path) + ["--budget", budget])
        assert code == 1 and out == ""
        assert err.startswith("error: parameter: budget must be at least 1")


class TestParameters:
    @pytest.mark.parametrize("command", ["liouville", "find-mu", "solve", "bepsilon"])
    def test_infinite_p_rejected(self, tmp_path, capsys, command):
        path = write_matrix(tmp_path, "m.json", 2, [[1, -2], [-2, 1]])
        code, out, err = run(capsys, command_argv(command, path, tmp_path) + ["--p", "inf"])
        assert code == 1 and out == ""
        assert err == "error: parameter: p must exceed 2 and be finite, got inf\n"


class TestErrors:
    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, out, err = run(capsys, ["classify", str(path)])
        assert code == 1
        assert err.startswith("error: json:")
        assert len(err.strip().splitlines()) == 1

    def test_asymmetric_matrix(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "asym.json", 2, [[1, 0.5], [0.0, 1]])
        code, _, err = run(capsys, ["classify", str(path)])
        assert code == 1
        assert err.startswith("error: matrix:")

    def test_oversized_matrix(self, tmp_path, capsys):
        beta = np.eye(17).tolist()
        path = write_matrix(tmp_path, "big.json", 17, beta)
        code, _, err = run(capsys, ["classify", str(path)])
        assert code == 1
        assert err.startswith("error: capacity:")

    # A negative diagonal is outside the paper's scope; n = 17 exceeds the
    # face enumeration and the weight search.  The library rejects both.
    @pytest.mark.parametrize("command, beta, category", [
        *[(command, [[-1, 0], [0, 1]], "precondition") for command in ("liouville", "find-mu", "solve")],
        *[(command, np.eye(17).tolist(), "capacity") for command in ("classify", "liouville", "find-mu", "solve")],
    ], ids=["negative-diagonal-liouville", "negative-diagonal-find-mu", "negative-diagonal-solve",
            "n17-classify", "n17-liouville", "n17-find-mu", "n17-solve"])
    def test_library_error_category(self, tmp_path, capsys, command, beta, category):
        path = write_matrix(tmp_path, "m.json", len(beta), beta)
        code, out, err = run(capsys, command_argv(command, path, tmp_path))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {category}: ")
        assert len(err.splitlines()) == 1

    def test_boolean_n_rejected(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "bool.json", True, [[1]])
        code, out, err = run(capsys, ["classify", str(path)])
        assert code == 1 and out == ""
        assert err.startswith("error: schema:")

    @pytest.mark.parametrize("n, beta", [
        (2, [[1, True], [True, "1"]]),
        (2, [[1, 2], [3]]),
        (1, [["a"]]),
        (2, [[1, {"x": 1}], [3, 4]]),
        (1, [[10**400]]),
    ], ids=["bool-and-string", "ragged", "string", "object", "int-beyond-float"])
    def test_non_numeric_beta_rejected(self, tmp_path, capsys, n, beta):
        path = write_matrix(tmp_path, "entries.json", n, beta)
        code, out, err = run(capsys, ["classify", str(path)])
        assert code == 1 and out == ""
        assert err.startswith("error: schema:")
        assert len(err.strip().splitlines()) == 1

    def test_nan_entry_is_a_matrix_error(self, tmp_path, capsys):
        # JSON's NaN passes the schema as a float; SymMatrix rejects it.
        path = write_matrix(tmp_path, "nan.json", 2, [[1.0, float("nan")], [float("nan"), 1.0]])
        assert "NaN" in path.read_text()
        code, out, err = run(capsys, ["classify", str(path)])
        assert code == 1 and out == ""
        assert err.startswith("error: matrix:")
        assert len(err.strip().splitlines()) == 1

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, ["classify", str(tmp_path / "none.json")])
        assert code == 1
        assert err.startswith("error: io:")


class TestRepeatedCalls:
    """Many `main` calls in one process: each report is the one a fresh process prints."""

    BETA = [[1, -2, 0], [-2, 1, 0], [0, 0, 1]]

    def test_parser_is_built_once(self):
        assert cli.make_parser() is cli.make_parser()

    def test_mixed_sequence(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "m.json", 3, self.BETA)
        for command in ("classify", "liouville", "find-mu", "solve", "bepsilon"):
            code, out, err = run(capsys, command_argv(command, path, tmp_path))
            assert code == 0 and err == ""
            assert json.loads(out)["command"] == command
        with pytest.raises(SystemExit) as exit_info:
            main(["liouville", str(path)])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the following arguments are required: --dim" in captured.err
        code, out, _ = run(capsys, ["liouville", str(path), "--dim", "2", "--p", "3", "--budget", "7"])
        assert code == 0
        assert json.loads(out)["effective"] == {"dim": 2, "p": 3.0, "budget": 7}
        code, out, _ = run(capsys, ["liouville", str(path), "--dim", "2"])
        assert code == 0
        assert json.loads(out)["effective"] == {"dim": 2, "p": 4.0, "budget": 50}

    @pytest.mark.parametrize("command", ["classify", "liouville", "solve"])
    def test_matches_a_fresh_process(self, tmp_path, capsys, command):
        path = write_matrix(tmp_path, "m.json", 3, self.BETA)
        argv = command_argv(command, path, tmp_path)
        # Other calls first, an override among them, so the parser is reused.
        run(capsys, ["liouville", str(path), "--dim", "2", "--p", "3", "--budget", "7"])
        run(capsys, command_argv("classify", path, tmp_path))
        code, out, err = run(capsys, argv)
        fresh = subprocess.run([sys.executable, "-m", "coposolve", *argv], capture_output=True,
                               env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert (code, out.encode(), err.encode()) == (fresh.returncode, fresh.stdout, fresh.stderr)
