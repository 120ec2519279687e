"""Benchmark of the coposolve command line, one workload per process.

Run from the repository root:

    python3 bench/run.py --workload liouville-mix --seed 1 --seconds 20 --trace 0

One client sends the workload's items in sequence, each after the previous
one finished (a closed loop), by calling ``coposolve.cli.main`` in this
process with the generated matrix files.  Every report is checked by
``check.py``, which does not import the package.  The item list is repeated
while another pass still fits in ``--seconds`` (at least one pass runs); set-up
ends with one warm-up call, so every pass is timed.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  Their times
are read from a ``ReferenceClock``: the speed of the core this process runs
on drifts by up to a factor of two over seconds on a shared host, so a short
fixed calibration task is timed every 0.25 s and before each item, and each
stretch of wall time in between is scaled to what it would have been at a
fixed reference speed.  A change to the package that does more work still
costs proportionally more reference seconds.  The calibration times are
printed too, so the size of the correction can be seen.  ``--trace 1``
runs one warm-up pass, untraced passes for half of the time and traced passes
(``spans.py``) for the other half, and prints the per-layer metrics, also on
the reference clock; the difference of the two pass times is the tracing
overhead.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
SETUP_REPEATS = 5
# Time of one ``ReferenceClock.calibrate`` call at the reference speed: about
# its median on a 2-vCPU Intel Xeon VM with Python 3.11 and numpy 2.4, where
# the first baseline was recorded.
REFERENCE_CALIBRATION_S = 0.0025
SAMPLE_INTERVAL_S = 0.25

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_s": "s",
    "item_p90_s": "s",
    "decided_frac": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args: argparse.Namespace, item_count: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "items": item_count,
    }


class ReferenceClock:
    """A clock that advances at the speed of the machine relative to the reference.

    A SIGALRM handler times ``calibrate`` every SAMPLE_INTERVAL_S.  Wall time
    up to the next sample counts REFERENCE_CALIBRATION_S / (that calibration
    time) reference seconds per second, and the handler's own time counts
    nothing.  Handlers run between bytecodes of the main thread, so a long C
    call keeps the previous speed until it returns.
    """

    def __init__(self) -> None:
        import numpy

        self._np = numpy
        self._matrix = numpy.eye(6) + numpy.outer(numpy.arange(6.0), numpy.arange(6.0)) / 10.0
        self.samples: list[float] = []
        self._sampling = False
        self._state = (0.0, time.perf_counter(), self._scale())
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def calibrate(self) -> float:
        """Seconds taken by a fixed task of interpreter and small numpy work.

        The mix resembles the package's: Python loops around small array calls.
        """
        solve, m = self._np.linalg.solve, self._matrix
        start = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        for _ in range(60):
            solve(m, m.sum(axis=1))
            m.min()
            m @ m
        return time.perf_counter() - start

    def _scale(self, repeats: int = 1) -> float:
        self.samples.append(statistics.median(self.calibrate() for _ in range(repeats)))
        return REFERENCE_CALIBRATION_S / self.samples[-1]

    def _sample(self, signum=None, frame=None, repeats: int = 1) -> None:
        if self._sampling:  # the timer fired during a sample taken by resample()
            return
        self._sampling = True
        base, since, scale = self._state
        base += (time.perf_counter() - since) * scale
        scale = self._scale(repeats)
        self._state = (base, time.perf_counter(), scale)
        self._sampling = False

    def resample(self, item=None) -> None:
        """Sample now, as the median of three, so a short item is timed at a fresh speed."""
        self._sample(repeats=3)

    def __call__(self) -> float:
        while True:
            state = self._state
            now = time.perf_counter()
            if self._state is state:  # no sample was taken in between
                base, since, scale = state
                return base + (now - since) * scale

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def write_inputs(items, workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for item in items:
        if item.matrix is not None:
            doc = {"n": int(item.matrix.shape[0]), "beta": item.matrix.tolist(), "name": item.id}
            (workdir / f"{item.id}.json").write_text(json.dumps(doc))


def call(main, item, workdir: Path, clock=time.perf_counter) -> tuple[int, str, str, Path, float]:
    """Run one item through the CLI entry point; returns (rc, stdout, stderr, out, s)."""
    out_path = workdir / f"{item.id}.csv"
    argv = [a.format(file=workdir / f"{item.id}.json", out=out_path) for a in item.argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    start = clock()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an item that raises counts as failed, the run goes on
            traceback.print_exc()
            rc = -1
    seconds = clock() - start
    return rc, stdout.getvalue(), stderr.getvalue(), out_path, seconds


class Tally:
    """Checked CLI calls: attempted, failed, decided."""

    def __init__(self, check) -> None:
        self.check = check
        self.attempted = self.failed = self.decided = self.measured = 0

    def record(self, item, rc: int, stdout: str, stderr: str, out_path: Path, measured: bool) -> None:
        self.attempted += 1
        problems = self.check.check_item(item, rc, stdout, out_path)
        if problems:
            self.failed += 1
            detail = "; ".join(problems) + (f" | stderr: {stderr.strip()[-300:]}" if stderr.strip() else "")
            print(f"FAILED {item.id}: {detail}", file=sys.stderr)
        elif measured:
            self.decided += self.check.decided(item, stdout)
        self.measured += measured


def clear_caches() -> None:
    """Empty every functools cache of the package's modules.

    A pass then does the same work whether it runs first or later in the
    process, as a fresh CLI process would; caches still fill within a pass.
    """
    for name, module in list(sys.modules.items()):
        if name == "coposolve" or name.startswith("coposolve."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_pass(main, items, workdir: Path, tally: Tally, on_item=None,
             clock=time.perf_counter) -> tuple[float, list[float]]:
    """One pass over the items; returns its time and the item times on ``clock``.

    Reports are checked after the pass, outside the timed region.
    """
    clear_caches()
    results = []
    start = clock()
    for item in items:
        if on_item is not None:
            on_item(item)
        results.append((item, call(main, item, workdir, clock)))
    wall = clock() - start
    for item, (rc, stdout, stderr, out_path, _) in results:
        tally.record(item, rc, stdout, stderr, out_path, measured=True)
    return wall, [r[1][4] for r in results]


def run_passes(main, items, workdir: Path, budget_s: float, tally: Tally, on_item, clock):
    """Repeat the item list while another pass fits in the wall-time budget (at least once).

    Returns (time, item times) per pass, on ``clock``.
    """
    start = time.perf_counter()
    passes = []
    while True:
        pass_start = time.perf_counter()
        passes.append(run_pass(main, items, workdir, tally, on_item, clock))
        now = time.perf_counter()
        if now - start + (now - pass_start) > budget_s:
            return passes


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "coposolve" / "__init__.py").is_file():
        print(f"error: no coposolve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # An inherited COPOSOLVE_SEED would override the CLI's search seed.
    os.environ.pop("COPOSOLVE_SEED", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    from coposolve import cli

    import check
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2

    base = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    tally = Tally(check)
    clock = ReferenceClock()
    try:
        setup_times = []
        for rep in range(SETUP_REPEATS):
            start = clock()
            # The package import is timed in a fresh interpreter, as a CLI
            # user pays it; this process imported it once, untimed.
            subprocess.run([sys.executable, "-c", "import coposolve.cli"], check=True,
                           env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
            items, warmup = workloads.build(args.workload, args.seed)
            workdir = base / f"setup{rep}"
            write_inputs(items + [warmup], workdir)
            clear_caches()  # every repetition's warm-up starts from empty caches
            rc, stdout, stderr, out_path, _ = call(cli.main, warmup, workdir)
            setup_times.append(clock() - start)
            tally.record(warmup, rc, stdout, stderr, out_path, measured=False)
        setup_s = statistics.median(setup_times)
        env = environment(args, len(items))
        print("environment " + json.dumps(env, sort_keys=True))

        if args.trace == 0:
            passes = run_passes(cli.main, items, workdir, args.seconds, tally, clock.resample, clock)
            walls = [wall for wall, _ in passes]
            item_times = [t for _, times in passes for t in times]
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values = {
                "setup_s": setup_s,
                "wall_s": statistics.median(walls),
                "item_p50_s": statistics.median(item_times),
                "item_p90_s": percentile(item_times, 0.9),
                "decided_frac": tally.decided / max(tally.measured, 1),
                "peak_rss_mb": rss_mb,
            }
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
            print(f"timed passes {len(walls)} ({', '.join(f'{w:.3f}' for w in walls)} s); "
                  f"{len(item_times)} item times, {sum(t > values['item_p90_s'] for t in item_times)} above p90")
            cal = clock.samples
            print(f"reference clock: {len(cal)} calibrations, median {statistics.median(cal) * 1e3:.3f} ms "
                  f"(min {min(cal) * 1e3:.3f}, max {max(cal) * 1e3:.3f}) against {REFERENCE_CALIBRATION_S * 1e3} ms")
        else:
            metrics = traced_run(args, cli, items, workdir, tally, clock)
    finally:
        clock.stop()
        shutil.rmtree(base, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_work").rmdir()

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"fail_frac = {tally.failed / tally.attempted!r} ({tally.failed} of {tally.attempted} checked calls)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def traced_run(args, cli, items, workdir: Path, tally: Tally, clock: ReferenceClock) -> dict:
    """Spans and pass times are on the reference clock, like the untraced metrics."""
    import spans

    run_pass(cli.main, items, workdir, tally)  # warm-up pass, not timed
    untraced_walls = [wall for wall, _ in run_passes(cli.main, items, workdir, args.seconds / 2.0, tally,
                                                      clock.resample, clock)]
    recorder = spans.SpanRecorder(clock)
    recorder.install()
    traced_main = recorder.wrap(cli.main, spans.ROOT)
    marks: list[int] = []

    def mark(item) -> None:
        if item is items[0]:
            marks.append(len(recorder.spans))
        recorder.item = item.id
        clock.resample()

    try:
        traced_walls = [wall for wall, _ in run_passes(traced_main, items, workdir, args.seconds / 2.0, tally, mark,
                                                       clock)]
    finally:
        recorder.uninstall()
    marks.append(len(recorder.spans))
    recorder.write(ROOT / ".bench_trace" / f"{args.workload}-seed{args.seed}.jsonl")

    return spans.layer_metrics(recorder, marks, traced_walls, untraced_walls)


if __name__ == "__main__":
    sys.exit(main())
