#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and summarize its spread.

    python3 perfbench/calibrate.py --workloads suite,systems,windowed \
        --seeds 1-10 [--trace-check] [--out FILE]

For every workload and seed it runs perfbench/run.py with --trace 0 (and,
with --trace-check, once more with --trace 1, whose checksum must equal the
untraced run's), then prints each end-to-end metric's median, first and
third quartile (statistics.quantiles, n=4) and spread: the interquartile
distance as a share of the median. The bound a metric is held to is in
BENCHMARK.json; a spread within a third of it is steady. --out writes the
summary, with the machine facts, as JSON.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHECKSUM = re.compile(r"\bchecksum=([0-9a-f]+)")
NODES = re.compile(r"\bnetlist_nodes=(\d+)")


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("calibrate: %s seed %d trace %d exited %d"
                 % (workload, seed, trace, done.returncode))
    checksum = None
    nodes = None
    for line in lines[:-1]:
        match = CHECKSUM.search(line)
        if match:
            checksum = match.group(1)
        match = NODES.search(line)
        if match:
            nodes = int(match.group(1))
    return json.loads(lines[-1]), checksum, nodes


def machine_facts():
    facts = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "build_type": "Release"}
    cache = os.path.join(ROOT, ".bench_build", "perfbench", "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache, encoding="utf-8") as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    compiler = line.split("=", 1)[1].strip()
                    version = subprocess.run([compiler, "--version"],
                                             stdout=subprocess.PIPE, text=True,
                                             check=False).stdout
                    facts["compiler"] = version.splitlines()[0]
    return facts


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="suite,systems,windowed")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-check", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    summary = {"machine": machine_facts(), "run_seconds": seconds,
               "workloads": {}}
    for workload in args.workloads.split(","):
        values = {}
        seeds = parse_seeds(args.seeds)
        checksums = {}
        nodes = {}
        for seed in seeds:
            result, checksum, nodes[seed] = run(workload, seed, seconds, 0)
            if not result["correct"] or result["failed"]:
                sys.exit("calibrate: %s seed %d incorrect" % (workload, seed))
            checksums[seed] = checksum
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            line = " ".join("%s=%.4g" % (n, m["value"])
                            for n, m in result["metrics"].items())
            print("%s seed %d: %s" % (workload, seed, line), flush=True)
            if args.trace_check:
                traced, traced_checksum, _ = run(workload, seed, seconds, 1)
                if not traced["correct"] or traced_checksum != checksum:
                    sys.exit("calibrate: %s seed %d traced run disagrees"
                             % (workload, seed))
        rows = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            rows[name] = {"median": median, "q1": q1, "q3": q3,
                          "spread": spread}
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if spread <= bound / 3 else (
                    "WIDE" if spread > bound else "over a third")
            print("  %-12s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f "
                  "bound %s %s" % (name, median, q1, q3, spread, bound, flag))
        entry = {"seeds": seeds, "metrics": rows, "checksums": checksums}
        if workload == "windowed":
            entry["netlist_nodes"] = nodes
        summary["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
