"""The traced benchmark wraps package attributes by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

from coposolve import cli, mu_search

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_attributes_exist():
    spans = load_spans()
    missing = [
        f"coposolve.{module}.{attr}"
        for module, attr, *_ in spans.TARGETS
        if not hasattr(importlib.import_module(f"coposolve.{module}"), attr)
    ]
    assert missing == []


def test_traced_run_records_the_weight_lp():
    """The weight LP goes through the module attribute, so its wrapper sees every call."""
    package_linprog = mu_search.linprog
    recorder = load_spans().SpanRecorder()
    recorder.install()
    try:
        assert cli.main(["bepsilon", "--eps", "0.1", "--dim", "3", "--p", "4"]) == 0
    finally:
        recorder.uninstall()
    assert any(name == "mu_search.linprog" for name, *_ in recorder.spans)
    assert mu_search.linprog is package_linprog and package_linprog.__module__ == "coposolve.mu_search"
