"""cutcount benchmark: `verify --json` on seeded documents, run in-process
through `cutcount.cli.main` by one closed-loop caller.

    python3 bench/run.py --workload realizable-batch --seed 1 --seconds 40 --trace 0

The package is imported from the checkout's `src/`, so run it from a full
checkout. Each document is timed from the `main` call until it returns
(parse, both face-count pipelines and JSON output) and its report is
checked against the reference in `workloads.py`. The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
of a separate traced run with `--trace 1`.

Every measurement runs in a fresh child process, so that set-up includes
the import and peak RSS belongs to one workload. With `--trace 0` the run
sets up SETUP_RUNS times (the last child goes on to measure) and reports
the median set-up time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

from tracing import Tracer, baseline_table, firing_errors, layer_metrics, span_times, take_counts, traced
from workloads import WORKLOADS, check_verify, draw_arrangement, draw_wiring, in_general_position

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"
SETUP_RUNS = 5
# the whole run must end within 180 s; children are killed at this mark
DEADLINE_S = 170
# typical calibrate() time on a 2-core shared x86-64 VM under Python 3.11
REFERENCE_CALIBRATION_S = 0.020
CALIBRATE_EVERY_S = 0.5
CALIBRATION_WINDOW = 3
SETUP_CALIBRATIONS = 3
CALIBRATION_PLANES = draw_arrangement(3, 7, 9, 0)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class Runner:
    """Runs and checks documents of one workload through `cli.main`."""

    def __init__(self, main, docs, paths) -> None:
        self.main = main
        self.docs = docs
        self.paths = paths
        self.errors: list[str] = []

    def run(self, k: int, span=contextlib.nullcontext()) -> float:
        """Seconds `verify --json` took on document k; a wrong result is
        added to `errors`."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.main(["verify", self.paths[k], "--json"])
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "an exception"
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        error = check_verify(self.docs[k], code, out.getvalue())
        if error is not None:
            self.errors.append(f"{self.docs[k].name}: {error}")
            print(f"bench: {self.docs[k].name}: {error}\n{err.getvalue()}", file=sys.stderr)
        return elapsed


def percentile(sorted_values: list[float], p: int) -> tuple[float, int]:
    """Nearest-rank p-th percentile and the number of samples above it."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def calibrate(times: int = 1) -> float:
    """Mean seconds a fixed task from the benchmark's own code takes now:
    exact rational determinants and a wiring draw, the kind of work
    cutcount does, but no cutcount code, so a change to the program cannot
    move it."""
    start = time.perf_counter()
    for _ in range(times):
        in_general_position(3, CALIBRATION_PLANES)
        draw_wiring(24, 276, 0)
    return (time.perf_counter() - start) / times


def measure(runner: Runner, workload, seconds: float) -> dict:
    """Closed loop over the pool for `seconds`; end-to-end metrics.

    The shared machine's speed drifts by tens of percent over seconds, so
    the loop calibrates at least every CALIBRATE_EVERY_S and scales each
    document's time by REFERENCE_CALIBRATION_S over the mean of the
    CALIBRATION_WINDOW calibrations on either side of it: times read as on
    a machine of reference speed.
    """
    samples = []
    calibrations = []
    before = len(runner.errors)
    start = now = time.perf_counter()
    calibrated = start - CALIBRATE_EVERY_S
    while now - start < seconds:
        if now - calibrated >= CALIBRATE_EVERY_S:
            calibrations.append(calibrate())
            calibrated = time.perf_counter()
        samples.append((runner.run(len(samples) % len(runner.docs)), len(calibrations) - 1))
        now = time.perf_counter()
    calibrations.append(calibrate())
    times = [
        t * REFERENCE_CALIBRATION_S
        / statistics.mean(calibrations[max(0, i + 1 - CALIBRATION_WINDOW): i + 1 + CALIBRATION_WINDOW])
        for t, i in samples
    ]
    tail, beyond = percentile(sorted(times), workload.tail_percentile)
    if beyond < 10:
        print(f"bench: only {beyond} documents beyond p{workload.tail_percentile}", file=sys.stderr)
    good = len(times) - (len(runner.errors) - before)
    print(
        f"bench: {len(times)} documents, unscaled median {statistics.median(t for t, _ in samples) * 1e3:.3f} ms,"
        f" calibration median {statistics.median(calibrations) * 1e3:.3f} ms", file=sys.stderr,
    )
    return {
        "attempted": len(times),
        "metrics": {
            "doc_p50_ms": (statistics.median(times) * 1e3, "ms"),
            "doc_tail_ms": (tail * 1e3, "ms"),
            "docs_per_s": (good / sum(times), "1/s"),
        },
    }


def trace(runner: Runner, workload, name: str) -> dict:
    """Each document runs once untraced and twice traced, interleaved so
    that drift in machine speed hits all three alike; per-layer metrics
    come from the first traced pass."""
    docs = range(len(workload.pool))
    untraced_s = 0.0
    passes = [(Tracer(), defaultdict(int)) for _ in range(2)]
    for k in docs:
        untraced_s += runner.run(k)
        for tracer, counts in passes:
            mark = len(tracer.spans)
            with traced(tracer):
                runner.run(k, tracer.doc(k))
            take_counts(tracer.spans[mark:], counts)
    (tracer, counts), (_, again) = passes
    problems = [] if counts == again else [f"traced passes disagree on counts: {dict(counts)} vs {dict(again)}"]
    problems += firing_errors(counts, workload.bypassed)
    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)
    incl, selft = span_times(tracer.spans)
    print(baseline_table(name, incl, selft, len(docs), untraced_s), file=sys.stderr)
    return {
        "attempted": 3 * len(docs),
        "problems": len(problems),
        "metrics": layer_metrics(incl, selft, counts, len(docs), untraced_s),
    }


def child(args) -> int:
    """Set up (import, generate, reference, one warm-up document) and, for
    the measuring role, measure; prints one JSON line. Set-up time is
    scaled to reference speed like document times."""
    speed = calibrate(SETUP_CALIBRATIONS)
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from cutcount import cli

    if Path(cli.__file__).resolve().parent != SRC / "cutcount":
        print(f"bench: imported cutcount from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        paths = []
        for k, doc in enumerate(workload.pool):
            paths.append(os.path.join(tmp, f"{k}.json"))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                json.dump(doc.body, fh)
        runner = Runner(cli.main, workload.pool, paths)
        runner.run(0)
        setup_s = time.perf_counter() - start
        speed = (speed + calibrate(SETUP_CALIBRATIONS)) / 2
        result = {"setup_s": setup_s * REFERENCE_CALIBRATION_S / speed, "attempted": 0, "problems": 0, "metrics": {}}
        if args.role == "measure":
            unjudged = sum(doc.expected is None for doc in workload.pool)
            print(
                f"bench: {len(workload.pool) - unjudged} of {len(workload.pool)} documents have a reference"
                f" f-vector; {unjudged}, not in general position, rely on verify's cross-check", file=sys.stderr,
            )
            if args.trace:
                result.update(trace(runner, workload, args.workload))
            else:
                result.update(measure(runner, workload, args.seconds))
    result["failed"] = len(runner.errors)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


def spawn(args, role: str, deadline: float) -> dict | None:
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--role", role,
    ]
    try:
        proc = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        print(f"bench: {role} child did not finish before the deadline", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"bench: {role} child exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cutcount" / "cli.py").is_file():
        print(f"bench: no cutcount sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.role:
        return child(args)
    deadline = time.monotonic() + DEADLINE_S
    roles = ["measure"] if args.trace else ["setup"] * (SETUP_RUNS - 1) + ["measure"]
    results = []
    for role in roles:
        result = spawn(args, role, deadline)
        if result is None:
            return 1
        results.append(result)
    final = results[-1]
    metrics = final["metrics"]
    if not args.trace:
        metrics["setup_s"] = (statistics.median(r["setup_s"] for r in results), "s")
        metrics["peak_rss_mb"] = (final["peak_rss_mb"], "MB")
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0 and not final["problems"],
        "attempted": final["attempted"] + len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
