#!/usr/bin/env python3
"""HYDE benchmark entry point.

    python3 perfbench/run.py --workload suite|systems|windowed \
        --seed N --seconds S --trace 0|1

Builds the benchmark binary (perfbench/CMakeLists.txt, compiling the
repository's src/ in Release) into .bench_build/perfbench on first use,
runs one workload and prints one JSON object as the last line of stdout:
{"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
binary also writes its spans as Chrome trace-event JSON to
.bench_build/traces/<workload>-seed<N>.json (open it in Perfetto), and this
script computes every span-derived per-layer metric from that file: span
totals, per-layer self time (duration minus what child spans cover), the
unattributed residual and the tracing overhead.
"""

import argparse
import collections
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "hyde_perfbench")
WORKLOADS = ("suite", "systems", "windowed")
RUN_TIMEOUT_S = 175

# Spans the traced passes record (see perfbench/src/workloads.cpp); each gets
# a `<name>.self_s` metric.
SPANS = (
    "trace.pass", "runtime.job", "mcnc.generate", "core.flow",
    "runtime.npn_call", "runtime.template", "mapper.cleanup", "mapper.resub",
    "mapper.count", "mapper.pack", "net.verify", "net.parse", "part.windows",
)
# Span totals reported under a layer metric name.
TOTALS = {
    "trace.pass_s": "trace.pass",
    "runtime.job_busy_s": "runtime.job",
    "core.flow_s": "core.flow",
    "mapper.cleanup_s": "mapper.cleanup",
    "mapper.resub_s": "mapper.resub",
    "mapper.pack_s": "mapper.pack",
    "net.parse_s": "net.parse",
    "net.verify_s": "net.verify",
    "part.windows_s": "part.windows",
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("HYDE sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=850, check=False)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def union_length(intervals):
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def span_metrics(trace_path, metrics, batch):
    """Per-layer metrics derived from the Chrome trace file."""
    with open(trace_path, encoding="utf-8") as f:
        events = [e for e in json.load(f)["traceEvents"] if e["ph"] == "X"]
    children = collections.defaultdict(list)
    for e in events:
        children[e["args"]["parent"]].append(e)
    total = collections.defaultdict(float)
    self_time = collections.defaultdict(float)
    for e in events:
        lo, hi = e["ts"], e["ts"] + e["dur"]
        covered = union_length(
            (max(lo, c["ts"]), min(hi, c["ts"] + c["dur"]))
            for c in children[e["args"]["id"]]
            if c["ts"] < hi and c["ts"] + c["dur"] > lo)
        total[e["name"]] += e["dur"] * 1e-6
        self_time[e["name"]] += (e["dur"] - covered) * 1e-6

    def value(name):
        return metrics[name]["value"]

    out = {}
    for name, span in TOTALS.items():
        out[name] = (total[span], "s")
    for span in SPANS:
        out[span + ".self_s"] = (self_time[span], "s")
    out["unattributed_s"] = (
        self_time["trace.pass"] + self_time["runtime.job"], "s")
    out["trace.overhead_s"] = (
        total["trace.pass"] - value("trace.untraced_pass_s"), "s")
    lanes = value("runtime.workers") if batch else 1
    capacity = lanes * total["trace.pass"]
    out["runtime.worker_idle_ratio"] = (
        1.0 - total["runtime.job"] / capacity if capacity else 0.0, "ratio")
    window_capacity = max(1, value("part.window_workers")) * total["part.windows"]
    out["part.busy_ratio"] = (
        value("part.worker_busy_s") / window_capacity if window_capacity else 0.0,
        "ratio")
    # Flow time the FlowStats phases leave unexplained. Batch jobs call
    # core::run_flow directly; windowed flows run inside the window workers,
    # so their busy time is the base there.
    flow_s = total["core.flow"] if batch else value("part.worker_busy_s")
    out["core.unattributed_s"] = (
        flow_s - value("decomp.varpart_s") - value("decomp.classes_s")
        - value("core.encoding_s") - value("runtime.npn_call_s"), "s")
    for name, (v, unit) in out.items():
        metrics[name] = {"value": v, "unit": unit}
    del metrics["runtime.workers"]  # configuration, needed only above


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    trace_path = None
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))
        command += ["--trace-out", trace_path]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("hyde_perfbench exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail("hyde_perfbench exited with code %d" % done.returncode)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if trace_path is not None:
        span_metrics(trace_path, result["metrics"],
                     batch=args.workload != "windowed")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    missing = {m["name"] for m in declared} ^ set(result["metrics"])
    if missing:
        fail("metrics differ from BENCHMARK.json: " + ", ".join(sorted(missing)))
    sys.stdout.flush()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
