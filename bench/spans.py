"""Span recorder that wraps package functions from outside the package.

``SpanRecorder.install`` replaces a function at the module attribute through
which the package calls it (``solvability.find_mu``, ``neumann.splu``, ...)
with a wrapper that records a span: name, start, end, parent span and item
id.  Spans stay in memory until the run ends.  An untraced run never calls
``install``, so it executes the package unchanged.

Span times are read from the clock the recorder is given (``run.py`` passes
its reference clock).  The run is single-threaded, so the children of a span
never overlap and the part of a span they cover is the sum of their
durations; self time is the rest.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path


def _grid_assisted(counts: Counter, result) -> None:
    counts["copositivity.grid_assisted"] += bool(result.grid_assisted)


def _verify_outcome(counts: Counter, result) -> None:
    counts["mu_search.certificates"] += type(result).__name__ == "MuCertificate"


def _cut(counts: Counter, result) -> None:
    # find_mu adds one adversarial point per violation its verify_mu returns.
    counts["mu_search.cuts"] += type(result).__name__ == "MuViolation"
    _verify_outcome(counts, result)


def _reason(counts: Counter, result) -> None:
    counts[f"solvability.reason.{result.reason}"] += 1


def _factor_nnz(counts: Counter, result) -> None:
    counts["neumann.splu.factor_nnz"] += int(result.nnz)


# (module the package calls through, attribute, span name, result hook)
TARGETS = (
    ("cli", "load_matrix", "cli.load_matrix", None),
    ("cli", "serialize_report", "reports.serialize_report", None),
    ("cli", "write_solution_csv", "neumann.write_solution_csv", None),
    ("cli", "classify_solvability", "solvability.classify_solvability", _reason),
    ("cli", "classify_copositivity", "copositivity.classify_copositivity", None),
    ("solvability", "classify_copositivity", "copositivity.classify_copositivity", None),
    ("copositivity", "simplex_min_quadratic", "copositivity.simplex_min_quadratic", _grid_assisted),
    ("copositivity", "barycentric_grid", "copositivity.barycentric_grid", None),
    ("solvability", "constant_solution", "solvability.constant_solution", None),
    ("solvability", "null_space", "solvability.null_space", None),
    ("solvability", "linprog", "solvability.linprog", None),
    ("solvability", "verify_mu", "solvability.verify_mu", _verify_outcome),
    ("cli", "find_mu", "mu_search.find_mu", None),
    ("solvability", "find_mu", "mu_search.find_mu", None),
    ("mu_search", "verify_mu", "mu_search.verify_mu", _cut),
    ("mu_search", "linprog", "mu_search.linprog", None),
    ("mu_search", "p_form_batch", "mu_search.p_form_batch", None),
    ("mu_search", "barycentric_grid", "mu_search.barycentric_grid", None),
    ("cli", "mountain_pass_solve", "neumann.mountain_pass_solve", None),
    ("neumann", "constant_solution", "neumann.constant_solution", None),
    ("neumann", "find_direction_d", "neumann.find_direction_d", None),
    ("neumann", "simplex_min_quadratic", "neumann.simplex_min_quadratic", None),
    ("neumann", "theta_seeds", "neumann.theta_seeds", None),
    ("neumann", "energy", "neumann.energy", None),
    ("neumann", "splu", "neumann.splu", _factor_nnz),
)
ROOT = "cli.main"
LAYERS = (ROOT,) + tuple(dict.fromkeys(name for _, _, name, _ in TARGETS))
REASONS = ("ConstantSolution", "ZeroDiagonal", "Thm1.1", "Thm1.6", "Cor1.3", "Prop1.7", "Prop1.2", "OpenGap")


class SpanRecorder:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        # Each span is [name, start, end, parent index or -1, item id].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.item: str | None = None
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, hook=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.item])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, hook in TARGETS:
            module = importlib.import_module(f"coposolve.{module_name}")
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, hook))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def summary(self, first: int, last: int) -> dict[str, dict[str, float]]:
        """calls, busy_s and self_s per span name over spans[first:last]."""
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans[first:last]:
            child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for index in range(first, last):
            name, start, end, _, _ = self.spans[index]
            entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder: SpanRecorder, marks: list[int], traced_walls: list[float],
                  untraced_walls: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, per pass over the item list.

    ``marks`` holds the span index at which each traced pass began, then the
    total.  Counts come from the first traced pass (every pass runs the same
    items, so they repeat); times are medians over the traced passes.
    """
    per_pass = [recorder.summary(first, last) for first, last in zip(marks, marks[1:])]
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        calls = [p.get(layer, {}).get("calls", 0) for p in per_pass]
        if len(set(calls)) > 1:
            print(f"warning: {layer} calls differ between passes: {calls}", file=sys.stderr)
        metrics[f"{layer}.calls"] = (calls[0], "count")
        for key in ("busy_s", "self_s"):
            metrics[f"{layer}.{key}"] = (statistics.median(p.get(layer, {}).get(key, 0.0) for p in per_pass), "s")

    def calls(layer: str) -> int:
        return metrics[f"{layer}.calls"][0]

    per = {key: value / len(per_pass) for key, value in recorder.counts.items()}
    for reason in REASONS:
        metrics[f"solvability.reason.{reason}"] = (per.get(f"solvability.reason.{reason}", 0.0), "count")
    metrics["mu_search.cuts_per_find_mu"] = (_ratio(per.get("mu_search.cuts", 0.0), calls("mu_search.find_mu")), "ratio")
    metrics["mu_search.certify_frac"] = (
        _ratio(per.get("mu_search.certificates", 0.0), calls("mu_search.verify_mu") + calls("solvability.verify_mu")),
        "ratio")
    metrics["copositivity.grid_assisted_frac"] = (
        _ratio(per.get("copositivity.grid_assisted", 0.0), calls("copositivity.simplex_min_quadratic")), "ratio")
    metrics["neumann.splu.factor_nnz"] = (_ratio(per.get("neumann.splu.factor_nnz", 0.0), calls("neumann.splu")), "count")
    traced, untraced = statistics.median(traced_walls), statistics.median(untraced_walls)
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.self_sum_s"] = (sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s")), "s")
    metrics["trace.spans"] = (_ratio(len(recorder.spans), len(per_pass)), "count")
    return metrics
