"""Self-test of the benchmark: tampered reports must be counted as failed.

Run from the repository root:

    python3 bench/selftest.py

It runs a few small items through the CLI, checks that their real reports
pass, then alters one claim in each (a verdict, a witness sign, a constant
solution, a weight certificate, a field value in the solution CSV, a simplex
minimum replaced by the best vertex, consistent with its witness) and checks
that the tally of ``run.py`` counts every altered report as a failure.  It
also checks that the metric names ``run.py`` prints are the ones declared in
BENCHMARK.json.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402


def _tamper_report(mutate):
    """Like _tamper_json, but ``mutate`` also sees the echoed matrix as ``_beta``."""
    def apply(stdout: str, out_path: Path) -> str:
        report = json.loads(stdout)
        report["result"]["_beta"] = report["input"]["beta"]
        mutate(report["result"])
        del report["result"]["_beta"]
        return json.dumps(report)
    return apply


def _tamper_json(mutate):
    def apply(stdout: str, out_path: Path) -> str:
        report = json.loads(stdout)
        mutate(report["result"])
        return json.dumps(report)
    return apply


def _negate_first_witness(result):
    result["witness"][0] = -result["witness"][0] - 0.1


def _best_vertex(result):
    """A sweep that looked only at vertices: the best one, with its true value."""
    beta = np.asarray(result["_beta"])
    k = int(np.argmin(np.diag(beta)))
    result["witness"] = np.eye(len(beta))[k].tolist()
    result["min_value"] = float(beta[k, k])


def _tamper_csv(stdout: str, out_path: Path) -> str:
    lines = out_path.read_text().splitlines()
    middle = len(lines) // 2
    fields = lines[middle].split(",")
    fields[-1] = repr(float(fields[-1]) * (1 + 1e-6))
    lines[middle] = ",".join(fields)
    out_path.write_text("\n".join(lines) + "\n")
    return stdout


def cases(rng):
    nc, d = W.not_copositive(rng, 6)
    kernel, v = W.positive_kernel(rng, 3, [0, 1, 2])
    yield (W._classify("classify-nc", nc, {"class": "NotCopositive", "planted": d.tolist()}),
           "verdict flipped", _tamper_json(lambda r: r.update(kind="StrictlyCopositive")))
    yield (W._classify("classify-nc", nc, {"class": "NotCopositive", "planted": d.tolist()}),
           "witness sign", _tamper_json(_negate_first_witness))
    yield (W._liouville("kernel", kernel, {"class": "positive_kernel", "kernel": v.tolist()}),
           "constant solution", _tamper_json(lambda r: r["certificate"]["u"].__setitem__(0, r["certificate"]["u"][0] * 1.01)))
    yield (W._liouville("weights", W.weight_search(rng, 3), {"class": "strict"}),
           "weight certificate", _tamper_json(lambda r: r["certificate"].update(min_on_simplex=r["certificate"]["min_on_simplex"] * 2)))
    nc4, d4 = W.not_copositive(rng, 4)
    yield (W._liouville("not-copositive", nc4, {"class": "not_copositive", "planted": d4.tolist()}),
           "verdict reason", _tamper_json(lambda r: r.update(kind="NoNontrivial", reason="Prop1.7")))
    yield (W._solve("solve", W.WITNESS_2, 1, 33), "solution CSV", _tamper_csv)
    strict, lower = W.strictly_copositive(rng, 8)
    yield (W._classify("classify-strict", strict, {"class": "StrictlyCopositive", "lower": lower}),
           "weaker minimum", _tamper_report(_best_vertex))


def check_metric_names() -> list[str]:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    recorder = spans.SpanRecorder()
    printed_layers = {k: u for k, (_, u) in spans.layer_metrics(recorder, [0, 0], [1.0], [1.0]).items()}
    problems = []
    if end_to_end != run.END_TO_END_UNITS:
        problems.append(f"end_to_end metrics differ: {end_to_end} vs {run.END_TO_END_UNITS}")
    if per_layer != printed_layers:
        problems.append(f"per_layer metrics differ: {set(per_layer) ^ set(printed_layers)}")
    if [w["name"] for w in declared["workloads"]] != list(W.WORKLOADS):
        problems.append("workload names differ from BENCHMARK.json")
    return problems


def main() -> int:
    from coposolve import cli

    problems = check_metric_names()
    scratch = HERE.parent / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    try:
        for item, label, tamper in cases(np.random.default_rng(7)):
            run.write_inputs([item], workdir)
            rc, stdout, stderr, out_path, _ = run.call(cli.main, item, workdir)
            honest = run.Tally(check)
            honest.record(item, rc, stdout, stderr, out_path, measured=True)
            if honest.failed:
                problems.append(f"{label}: the untampered report failed the checker")
                continue
            tampered = run.Tally(check)
            tampered.record(item, rc, tamper(stdout, out_path), stderr, out_path, measured=True)
            status = "counted as failed" if tampered.failed == 1 else "NOT counted"
            print(f"tampered {label}: {status}")
            if tampered.failed != 1:
                problems.append(f"{label}: tampered report was not counted as failed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"SELFTEST FAILURE: {problem}", file=sys.stderr)
    print("selftest " + ("passed" if not problems else "failed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
