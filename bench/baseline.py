"""Run every workload over seeds 1-10 and record a baseline result.

Run from the repository root:

    python3 bench/baseline.py --out bench/results/baseline.json

Each run is ``bench/run.py`` in its own process with ``run_seconds`` from
BENCHMARK.json, for every workload BENCHMARK.json declares.  The runs go
round-robin: seed 1 of every workload, then seed 2 of every workload, and so
on, so a slow drift of the machine's speed is shared by all workloads instead
of reading as a spread between one workload's seeds.  Two traced rounds with
seed 1 follow.  For each workload the result holds every run, the median of
each end-to-end metric and its spread (interquartile distance over the
median), and the two traced runs, whose counts must repeat exactly.  A later
change is compared against this file with the same seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = tuple(range(1, 11))
# Per-layer figures that must be identical between two same-seed traced runs.
EXACT_SUFFIXES = (".calls", "_frac", "_per_find_mu", ".factor_nnz", ".spans")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    env = next((json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("environment ")), {})
    result.update(seed=seed, environment=env)
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]

    runs: dict[str, list[dict]] = {name: [] for name in names}
    for seed in SEEDS:
        for workload in names:
            runs[workload].append(run_once(workload, seed, seconds, 0))
            metrics = runs[workload][-1]["metrics"]
            print(f"{workload} seed {seed}: correct={runs[workload][-1]['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in metrics.items()), flush=True)
    traced: dict[str, list[dict]] = {name: [] for name in names}
    for _ in range(2):
        for workload in names:
            traced[workload].append(run_once(workload, SEEDS[0], seconds, 1))

    doc: dict = {"run_seconds": seconds, "seeds": list(SEEDS), "order": "round-robin",
                 "environment": runs[names[0]][0]["environment"], "workloads": {}}
    for workload in names:
        print(workload, flush=True)
        summary = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            summary[name] = {"median": statistics.median(values), "spread": spread(values),
                             "bound": bounds[name]}
            print(f"  {name}: median {summary[name]['median']:.6g} spread {summary[name]['spread']:.4f} "
                  f"(bound {bounds[name]})", flush=True)
        first, second = (t["metrics"] for t in traced[workload])
        mismatched = sorted(k for k in first if k.endswith(EXACT_SUFFIXES) and first[k]["value"] != second[k]["value"]
                            or k.startswith("solvability.reason.") and first[k]["value"] != second[k]["value"])
        print(f"  traced counts repeat: {not mismatched} {mismatched}; self-time sum "
              f"{first['trace.self_sum_s']['value']:.4f} s of traced wall {first['trace.wall_s']['value']:.4f} s, "
              f"overhead {first['trace.overhead_s']['value']:.4f} s", flush=True)
        doc["workloads"][workload] = {
            "runs": runs[workload],
            "summary": summary,
            "traced": traced[workload],
            "traced_counts_repeat": not mismatched,
        }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
