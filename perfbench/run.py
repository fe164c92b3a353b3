#!/usr/bin/env python3
"""ChipAlign serving/merge benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload chat --seed 1 --seconds 20 --trace 0

Builds the benchmark program from source (perfbench/CMakeLists.txt, which
compiles ../src), generates the workload's seeded fixtures in a separate
process, runs the measured process and prints, as the last line of stdout,
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 an untraced and a traced run are made and the metrics are the
per-layer ones, including the tracing overhead. Earlier stdout lines carry
the run fingerprint and the sample counts. Exits non-zero when a served
output differs from its reference or the program fails.

Build and scratch files go under $CARGO_TARGET_DIR (default .bench_build)
inside the current directory; the traced run's Chrome trace is kept there
under traces/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
DEADLINE_S = 170.0  # every run must exit within 180 s


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def remaining(start):
    left = DEADLINE_S - (time.monotonic() - start)
    if left <= 0:
        raise TimeoutError("benchmark ran out of time")
    return left


def build(build_dir):
    """Configures and builds the perfbench target; output to stderr."""
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    jobs = str(max(1, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def run_program(args, start):
    proc = subprocess.run(args, check=True, stdout=subprocess.PIPE,
                          text=True, timeout=remaining(start))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if opts.workload not in [w["name"] for w in bench["workloads"]]:
        parser.error("unknown workload %r" % opts.workload)
    config = os.path.join(HERE, "workloads.json")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    # The first run in a checkout compiles the library; later runs only
    # re-check the build, so the time limit is applied after it.
    binary = build(os.path.join(build_dir, "perfbench"))
    start = time.monotonic()

    run_dir = os.path.join(build_dir, "runs", "%s-%d-%d" % (
        opts.workload, opts.seed, os.getpid()))
    fixtures = os.path.join(run_dir, "fixtures")
    work = os.path.join(run_dir, "work")
    os.makedirs(work, exist_ok=True)
    common = ["--config", config, "--workload", opts.workload]
    try:
        subprocess.run([binary, "fixtures", *common, "--seed",
                        str(opts.seed), "--dir", fixtures],
                       check=True, timeout=remaining(start))
        run_args = [binary, "run", *common, "--seconds", repr(opts.seconds),
                    "--fixtures", fixtures, "--work-dir", work]
        plain = run_program(run_args, start)
        reports = [plain]
        if opts.trace:
            trace_dir = os.path.join(build_dir, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            trace_path = os.path.join(trace_dir, "%s-%d.json" % (
                opts.workload, opts.seed))
            traced = run_program(run_args + ["--trace-out", trace_path],
                                 start)
            reports.append(traced)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    report = reports[-1]
    if opts.trace:
        layers = dict(report["layers"])
        # Tracing overhead: traced minus untraced time inside the measured
        # calls per output token, as a share of the untraced figure.
        layers["trace.overhead_pct"] = 100.0 * (
            report["us_per_token"] - plain["us_per_token"]) / \
            plain["us_per_token"]
        wanted = bench["per_layer"]
        source = layers
    else:
        wanted = bench["end_to_end"]
        source = report["e2e"]
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name not in source:
            if name.startswith("trace.self_s."):
                source[name] = 0.0  # no span of this layer in this workload
            else:
                raise KeyError("program did not report %s" % name)
        metrics[name] = {"value": source[name], "unit": m["unit"]}

    correct = all(r["failed"] == 0 and r["checked"] > 0 and
                  r["checked"] == r["matched"] for r in reports)
    print(json.dumps({"fingerprint": report["fingerprint"]}))
    print(json.dumps({"samples": {k: v for k, v in report["layers"].items()
                                  if k.startswith("samples.")},
                      "checked": report["checked"],
                      "matched": report["matched"]}))
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in reports),
                      "failed": sum(r["failed"] for r in reports),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            TimeoutError, OSError, KeyError, ValueError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
