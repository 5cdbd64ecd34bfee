#!/usr/bin/env python3
"""Offline benchmark of jacobilab, one workload per invocation.

Run from the root of a source checkout (the package is imported from
``src/``, nothing is installed)::

    python3 perfbench/run.py --workload sparse --seed 0 --seconds 50 --trace 0

A user turns one JSON config into verdicts, so the timed unit is
``harness.run(config)`` followed by ``emit`` into a fresh directory, with
``workers=1``, one call after another (a closed loop with one caller).

``--trace 0`` repeats that unit for ``--seconds`` and reports the
end-to-end metrics named in BENCHMARK.json: wall and CPU seconds per
repeat (the mean over the window's repeats; on a shared host its run-to-run
spread is well below that of the median, which jumps between the host's
fast and slow phases), the median set-up time of fresh interpreters that
import the harness and materialize the config (started between repeats,
spread over the window), the process's peak RSS, and the share of cells
that passed the output check. ``--trace 1`` alternates untraced and traced
repeats and reports the per-layer metrics (medians over the traced
repeats) and the tracing overhead.

Every repeat's outputs are checked against ``reference/`` (see check.py)
and digested. The second-to-last stdout line is the run record: machine
facts, ``src/`` line count, output digests. The last line is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--tiny`` runs the small configs of the self-test.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from check import check_outputs, digests
from tracer import Tracer, layer_metric
from workloads import REFERENCE_SEED, WORKLOADS

SRC = "src"
HARNESS_SOURCE = os.path.join(SRC, "jacobilab", "harness.py")
OUT_ROOT = ".perfbench-out"
SETUP_REPEATS = 15
SETUP_CODE = ("import json, sys\n"
              "import jacobilab.harness as harness\n"
              "harness.materialize(json.loads(sys.argv[1]))\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measuring time; at least one repeat runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small configs (self-test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def src_facts():
    """Line count of src/jacobilab/*.py (as `wc -l`) and a digest of src/."""
    files = sorted(glob.glob(os.path.join(SRC, "jacobilab", "*.py")))
    lines = 0
    digest = hashlib.sha256()
    for path in files:
        with open(path, "rb") as f:
            body = f.read()
        lines += body.count(b"\n")
        digest.update(path.encode() + b"\0" + body)
    return {"src_lines": lines,
            "src_lines_rule": "newlines in src/jacobilab/*.py, as wc -l",
            "src_sha256": digest.hexdigest()}


def git_revision():
    """HEAD of the checkout, or None where it is not a git repository."""
    if not os.path.isdir(".git"):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() or None


def measure_setup(config, repeats):
    """Wall times of `repeats` fresh interpreters importing the harness and
    materializing the config."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", SETUP_CODE, json.dumps(config)]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


class Repeat:
    """One timed `run` + `emit`, with its checked outputs."""

    def __init__(self, harness, workload, config, seed, tiny):
        out_dir = tempfile.mkdtemp(dir=OUT_ROOT)
        error = None
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            harness.emit(harness.run(config), out_dir)
        except Exception as exc:  # a raising run fails all of its cells
            error = f"{type(exc).__name__}: {exc}"
        self.run_s = time.perf_counter() - start
        self.cpu_s = time.process_time() - cpu_start
        self.cells, self.failed, self.problems = check_outputs(
            workload, out_dir, seed, tiny)
        if error:
            self.failed = self.cells
            self.problems.insert(0, error)
        self.digests = digests(out_dir)
        shutil.rmtree(out_dir)


def timed_repeats(seconds, make_repeat, traced, between):
    """Repeat until `seconds` have passed; with `traced`, alternate
    untraced and traced repeats. After each round, `between` is called with
    the share of the window that has passed. Returns (untraced, traced)."""
    plain, with_trace = [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        plain.append(make_repeat(None))
        if traced:
            with_trace.append(make_repeat(len(with_trace)))
        elapsed = time.perf_counter() - start
        between(elapsed / seconds if seconds > 0 else 1.0)
    return plain, with_trace


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(HARNESS_SOURCE):
        print(f"perfbench: {HARNESS_SOURCE} not found; run from the root of "
              "a jacobilab source checkout", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workload = WORKLOADS[args.workload]
    os.makedirs(OUT_ROOT, exist_ok=True)
    load_at_start = os.getloadavg()
    config = workload.make_config(args.seed, args.tiny)

    sys.path.insert(0, os.path.abspath(SRC))
    import numpy
    import scipy
    from jacobilab import harness

    # imports are done; this also settles lazy first-call work
    warm_dir = tempfile.mkdtemp(dir=OUT_ROOT)
    harness.emit(harness.run(workload.make_config(REFERENCE_SEED, True)),
                 warm_dir)
    shutil.rmtree(warm_dir)

    tracers = []
    setup = []
    setup_repeats = 0 if args.trace else 1 if args.tiny else SETUP_REPEATS

    def take_setup_samples(share):
        # spread over the window, so that their median spans the host's
        # slow and fast phases; the imports above wrote the bytecode caches
        due = min(setup_repeats, math.ceil(setup_repeats * share))
        setup.extend(measure_setup(config, due - len(setup)))

    def make_repeat(trace_index):
        if trace_index is None:
            return Repeat(harness, workload, config, args.seed, args.tiny)
        tracer = Tracer(f"{args.workload}-seed{args.seed}-{trace_index}")
        tracers.append(tracer)
        with tracer.installed():
            return Repeat(harness, workload, config, args.seed, args.tiny)

    plain, traced = timed_repeats(args.seconds, make_repeat, bool(args.trace),
                                  take_setup_samples)
    repeats = plain + traced

    problems = [p for r in repeats for p in r.problems]
    if any(r.digests != repeats[0].digests for r in repeats):
        problems.append("output digests differ between repeats")
    attempted = sum(r.cells for r in repeats)
    failed = sum(r.failed for r in repeats)
    record = {
        "workload": args.workload, "seed": args.seed, "tiny": args.tiny,
        "config": config, "git_revision": git_revision(), **src_facts(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "loadavg_at_start": list(load_at_start),
        "repeats": len(plain), "run_s": [r.run_s for r in plain],
        "digests": repeats[0].digests,
    }

    if args.trace:
        per_tracer = [t.totals() for t in tracers]
        missing = [s for s in workload.spans
                   if any(t.get(f"{s}.calls", 0) == 0 for t in per_tracer)]
        if missing:
            print(f"perfbench: workload {args.workload} recorded zero calls "
                  f"of {', '.join(missing)}; a call has moved out of the "
                  "traced bindings", file=sys.stderr)
            return 3
        counts = [{k: v for k, v in t.items()
                   if not k.endswith((".s", ".self_s"))} for t in per_tracer]
        if any(c != counts[0] for c in counts):
            problems.append("work counts differ between traced repeats")
        values = {m["name"]: statistics.median_low(
            layer_metric(t, m["name"]) for t in per_tracer)
            for m in bench["per_layer"]
            if m["name"] != "trace.overhead_ratio"}
        values["trace.overhead_ratio"] = (
            statistics.fmean(r.run_s for r in traced)
            / statistics.fmean(r.run_s for r in plain))
        record["traced_run_s"] = [r.run_s for r in traced]
        record["bindings"] = tracers[0].bindings
        spans_path = os.path.join(
            OUT_ROOT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        with open(spans_path, "w") as f:
            for tracer in tracers:
                tracer.write_spans(f)
        record["spans_file"] = spans_path
        section = "per_layer"
    else:
        values = {
            "run_s": statistics.fmean(r.run_s for r in plain),
            "cpu_s": statistics.fmean(r.cpu_s for r in plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_ratio": (attempted - failed) / attempted,
        }
        record["setup_s"] = setup
        section = "end_to_end"

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in bench[section]}
    for p in problems[:20]:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
