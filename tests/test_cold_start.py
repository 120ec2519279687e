"""A fresh interpreter loads scipy only for the commands that run it, and only the parts they use.

This test process has scipy loaded already (``tests/oracles.py`` imports it),
so the checks run in a new interpreter.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = textwrap.dedent("""
    import contextlib, io, json, sys

    def scipy_modules():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    import coposolve, coposolve.cli

    seen = {"import": scipy_modules()}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        seen["classify_rc"] = coposolve.cli.main(["classify", sys.argv[1]])
    seen["classify"] = scipy_modules()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        seen["liouville_rc"] = coposolve.cli.main(["liouville", sys.argv[2], "--dim", "3", "--p", "4"])
    seen["liouville"] = scipy_modules()
    seen["liouville_reason"] = json.loads(out.getvalue())["result"]["reason"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        seen["solve_rc"] = coposolve.cli.main(["solve", sys.argv[3], "--dim", "1", "--nodes", "33",
                                               "--out", sys.argv[4]])
    seen["solve"] = scipy_modules()
    seen["solve_outcome"] = json.loads(out.getvalue())["result"]["outcome"]
    print(json.dumps(seen))
""")


def test_import_and_face_sweep_commands_load_no_scipy(tmp_path):
    classify_input = tmp_path / "n4.json"
    classify_input.write_text(json.dumps({"n": 4, "beta": [[2, -1, 0, 0.5], [-1, 2, -1, 0],
                                                           [0, -1, 2, -1], [0.5, 0, -1, 2]]}))
    liouville_input = tmp_path / "not_copositive.json"
    liouville_input.write_text(json.dumps({"n": 3, "beta": [[1, -2, 0], [-2, 1, 0], [0, 0, 1]]}))
    solve_input = tmp_path / "witness.json"
    solve_input.write_text(json.dumps({"n": 2, "beta": [[1, -2], [-2, 1]]}))
    run = subprocess.run([sys.executable, "-c", PROBE, str(classify_input), str(liouville_input),
                          str(solve_input), str(tmp_path / "witness.csv")],
                         capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC)))
    seen = json.loads(run.stdout)
    assert seen["import"] == []
    assert seen["classify_rc"] == 0 and seen["classify"] == []
    assert seen["liouville_rc"] == 0 and seen["liouville_reason"] == "Thm1.1"
    assert seen["liouville"] == []
    # The Newton step is a banded LU: solving loads scipy.linalg, never scipy.fft.
    assert seen["solve_rc"] == 0 and seen["solve_outcome"] == "solution"
    assert "scipy.linalg" in seen["solve"]
    assert not [m for m in seen["solve"] if m == "scipy.fft" or m.startswith("scipy.fft.")]
