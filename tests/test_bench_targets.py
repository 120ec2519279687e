"""The traced benchmark wraps package attributes by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_traced_attributes_exist():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"coposolve.{module}.{attr}"
        for module, attr, *_ in spans.TARGETS
        if not hasattr(importlib.import_module(f"coposolve.{module}"), attr)
    ]
    assert missing == []
