"""Command-line frontend: subcommands, reports, determinism, error paths."""

import json

import pytest

from coposolve import cli
from coposolve.cli import main
from coposolve.errors import (
    CapacityError,
    InternalConsistencyError,
    ParameterError,
    PreconditionError,
)
from coposolve.reports import SCHEMA_VERSION, parse_report, serialize_report


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


class TestClassify:
    def test_identity_report(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "id2.json", 2, [[1, 0], [0, 1]], "identity")
        code, out, err = run(capsys, ["classify", str(path)])
        assert code == 0 and err == ""
        doc = parse_report(out)
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["result"]["kind"] == "StrictlyCopositive"
        assert doc["result"]["min_value"] == pytest.approx(0.5)
        assert doc["result"]["psd"] == "PositiveDefinite"
        assert doc["input"]["beta"] == [[1.0, 0.0], [0.0, 1.0]]
        assert doc["defaults"]["tol"] == 1e-9

    def test_round_trip(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "m.json", 2, [[1, -2], [-2, 1]])
        code, out, _ = run(capsys, ["classify", str(path)])
        doc = parse_report(out)
        assert parse_report(serialize_report(doc)) == doc

    def test_directory_batch_sorted(self, tmp_path, capsys):
        write_matrix(tmp_path, "b.json", 2, [[1, 0], [0, 1]])
        write_matrix(tmp_path, "a.json", 2, [[1, -2], [-2, 1]])
        code, out, _ = run(capsys, ["classify", str(tmp_path)])
        assert code == 0
        entries = parse_report(out)["result"]["batch"]
        assert [e["file"] for e in entries] == ["a.json", "b.json"]
        assert entries[0]["kind"] == "NotCopositive"


class TestLiouville:
    def test_constant_solution_certificate(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "boundary.json", 2, [[1, -1], [-1, 1]])
        code, out, _ = run(capsys, ["liouville", str(path), "--dim", "3", "--p", "4"])
        assert code == 0
        result = parse_report(out)["result"]
        assert result["kind"] == "ExistsNontrivial"
        assert result["reason"] == "ConstantSolution"
        assert result["certificate"]["u"] == [1.0, 1.0]

    def test_unknown_is_exit_zero(self, tmp_path, capsys):
        beta = [[1, -0.996, -0.996], [-0.996, 1, 1], [-0.996, 1, 1]]
        path = write_matrix(tmp_path, "gap.json", 3, beta)
        code, out, _ = run(capsys, ["liouville", str(path), "--dim", "3", "--p", "4"])
        assert code == 0
        result = parse_report(out)["result"]
        assert result["kind"] == "Unknown"
        assert result["reason"] == "OpenGap"
        assert result["note"]

    def test_supercritical_rejected(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "m.json", 2, [[1, 0], [0, 1]])
        code, out, err = run(capsys, ["liouville", str(path), "--dim", "3", "--p", "6"])
        assert code == 1
        assert err.startswith("error:")
        assert out == ""


class TestFindMu:
    def test_certificate_report(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "m.json", 2, [[1, -1.9], [-1.9, 4]])
        code, out, _ = run(capsys, ["find-mu", str(path), "--p", "4"])
        assert code == 0
        result = parse_report(out)["result"]
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
        result = parse_report(out)["result"]
        assert result["outcome"] == "solution"
        assert result["energy_report"]["residual_inf"] == 0.0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "x,u1,u2"
        assert len(lines) == 34
        sidecar = json.loads((tmp_path / "sol.csv.json").read_text())
        assert sidecar["classification"] == "Constant"

    def test_trivial_only_report(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "id.json", 2, [[1, 0], [0, 1]])
        out_csv = tmp_path / "none.csv"
        code, out, _ = run(
            capsys,
            ["solve", str(path), "--dim", "1", "--p", "4", "--nodes", "33",
             "--out", str(out_csv)],
        )
        assert code == 0
        result = parse_report(out)["result"]
        assert result["outcome"] == "trivial_only"
        assert not out_csv.exists()


    @pytest.mark.parametrize(
        "error, prefix",
        [
            (ParameterError, "error: parameter:"),
            (CapacityError, "error: capacity:"),
            (InternalConsistencyError, "error: InternalConsistencyError:"),
            (PreconditionError, "error: PreconditionError:"),
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
        result = parse_report(out)["result"]
        assert result["closed_form"]["final_expression"] == pytest.approx(1.0, abs=1e-12)
        assert result["appendix_form_at_322"] == -1.0
        # eps = 0.25 sits far above the weight-existence threshold (0.007-0.008):
        # the search certifies and the verdict is nonexistence.
        assert result["find_mu"]["type"] == "certificate"
        assert result["solvability"]["kind"] == "NoNontrivial"

    def test_rejects_nonpositive_eps(self, capsys):
        code, out, err = run(capsys, ["bepsilon", "--eps", "0", "--dim", "3", "--p", "4"])
        assert code == 1
        assert err.startswith("error:")


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
        import numpy as np

        beta = np.eye(17).tolist()
        path = write_matrix(tmp_path, "big.json", 17, beta)
        code, _, err = run(capsys, ["classify", str(path)])
        assert code == 1
        assert err.startswith("error: schema:")

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, ["classify", str(tmp_path / "none.json")])
        assert code == 1
        assert err.startswith("error: io:")
