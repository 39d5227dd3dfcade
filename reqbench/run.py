#!/usr/bin/env python3
"""Request-level benchmark for EdgeTherm.

Run from the repository root:

    python3 reqbench/run.py --workload cold_day --seed 1 --seconds 12 --trace 0

Builds the library and the benchmark program from source (Release) under
.bench_build/reqbench on first use, runs one workload in a fresh process,
and relays its output. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 1 the
run is traced: it reports the per-layer metrics, writes the spans as
Chrome-trace JSON under .bench_build/reqbench/traces/, and prints each
span name's total and self time (duration minus the part its children
cover).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_day", "year_run")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("reqbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "reqbench")


def run_step(cmd, timeout):
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-4000:])
        fail("failed: " + " ".join(cmd))


def build(out_dir):
    """Configure once, then let the build tool decide what is stale."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no EdgeTherm sources next to the benchmark (src/ missing)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_step(cmd, BUILD_TIMEOUT_S)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    run_step(["cmake", "--build", out_dir, "--target", "reqbench",
              "-j", jobs], BUILD_TIMEOUT_S)
    return os.path.join(out_dir, "reqbench")


def self_times(trace_path):
    """Total and self time per span name, from a Chrome trace."""
    with open(trace_path) as f:
        events = [e for e in json.load(f)["traceEvents"]
                  if e.get("ph") == "X"]
    by_tid = {}
    for e in events:
        by_tid.setdefault(e["tid"], []).append(e)
    totals = {}
    for spans in by_tid.values():
        # Parents first: earlier start, then longer duration.
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end, name, child_cover, duration]
        def close(frame):
            entry = totals.setdefault(frame[1], [0, 0.0, 0.0])
            entry[2] += frame[3] - frame[2]
        for e in spans:
            start, end = e["ts"], e["ts"] + e["dur"]
            while stack and stack[-1][0] <= start:
                close(stack.pop())
            if stack:
                stack[-1][2] += e["dur"]
            entry = totals.setdefault(e["name"], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += e["dur"]
            stack.append([end, e["name"], 0.0, e["dur"]])
        while stack:
            close(stack.pop())
    return totals


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    out_dir = build_dir()
    binary = build(out_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    trace_path = None
    if args.trace:
        trace_dir = os.path.join(out_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))
        cmd += ["--trace-out", trace_path]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail("benchmark exited with code %d" % done.returncode)
    result = json.loads(lines[-1])
    body = lines[:-1]
    if trace_path and os.path.isfile(trace_path):
        totals = self_times(trace_path)
        body.append("span self time (ms), by total:")
        for name, (count, total, own) in sorted(
                totals.items(), key=lambda kv: -kv[1][1])[:24]:
            body.append("  %-28s n=%-8d total=%10.1f self=%10.1f"
                        % (name, count, total / 1e3, own / 1e3))
    print("\n".join(body))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
