#!/usr/bin/env python3
"""Build and run the repo benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which compiles the dramdig
library from src/) into .bench_build/, or into $CARGO_TARGET_DIR when set,
then runs the driver:

  --trace 0  end-to-end metrics. Set-up runs in five processes (set-up-only
             runs before and after the measuring run, plus that run);
             setup_s is their median and peak_rss_mb (peak memory right
             after the untimed reference batch) their minimum.
  --trace 1  per-layer metrics from the traced run; the Chrome trace of the
             first traced pass lands in <build>/traces/.

Prints one JSON object as the last line of stdout:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
and exits non-zero, without that line, when the build or a correctness
check fails. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_BUDGET_S = 850
RUN_BUDGET_S = 170
SETUP_ONLY_RUNS = 4


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(out_dir, deadline):
    """Configure (once) and build the driver; returns its path."""
    cache = os.path.join(out_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(out_dir)  # configured for another checkout
    steps = []
    if not os.path.exists(cache):
        configure = ["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench_driver",
                  "-j", "4"])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            fail("build failed")
    return os.path.join(out_dir, "perfbench_driver")


def run_driver(driver, args, out_dir, tag, extra, deadline):
    """One driver process; returns its result document."""
    workdir = os.path.join(out_dir, "work", f"{args.workload}-{os.getpid()}-{tag}")
    result = workdir + ".result.json"
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--result", result] + extra
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in time")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        fail(f"{args.workload} failed (exit {proc.returncode})")
    with open(result, encoding="utf-8") as f:
        doc = json.load(f)
    os.remove(result)
    return doc


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return [w["name"] for w in spec["workloads"]], {
        m["name"]: m["unit"] for m in section}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    start = time.monotonic()
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no src/ next to perfbench/: run from a full checkout")
    workloads, units = expected_metrics(args.trace)
    if args.workload not in workloads:
        fail(f"unknown workload '{args.workload}' (one of {workloads})")
    out_dir = build_dir()
    driver = build(out_dir, start + BUILD_BUDGET_S)
    deadline = time.monotonic() + RUN_BUDGET_S

    if args.trace:
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        trace_out = os.path.join(traces, f"{args.workload}-seed{args.seed}.json")
        doc = run_driver(driver, args, out_dir, "traced",
                         ["--trace-out", trace_out], deadline)
        metrics = doc["metrics"]
    else:
        # Half the set-up-only processes run before the measuring one and
        # half after, so the medians span two moments of host speed.
        def setup_only(k):
            return run_driver(driver, args, out_dir, f"setup{k}",
                              ["--setup-only"], deadline)
        half = SETUP_ONLY_RUNS // 2
        docs = [setup_only(k) for k in range(half)]
        doc = run_driver(driver, args, out_dir, "timed", [], deadline)
        docs += [doc] + [setup_only(k) for k in range(half, SETUP_ONLY_RUNS)]
        metrics = dict(doc["metrics"])
        # Peak memory steps by about 3 MB between processes of one seed;
        # the smallest reading is the steady one.
        for name, key, unit, pick in (
                ("setup_s", "setup_s", "s", statistics.median),
                ("peak_rss_mb", "reference_peak_rss_mb", "MB", min)):
            values = [d[key] for d in docs]
            metrics[name] = {"value": pick(values), "unit": unit}
            print(f"  {name} is the {pick.__name__} of {len(values)} "
                  "processes: " + ", ".join(f"{v:.4f}" for v in values))

    got = {name: m["unit"] for name, m in metrics.items()}
    if got != units:
        fail(f"metrics differ from BENCHMARK.json: got {sorted(got.items())}, "
             f"expected {sorted(units.items())}")
    print(json.dumps({"correct": bool(doc["correct"]),
                      "attempted": int(doc["attempted"]),
                      "failed": int(doc["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
