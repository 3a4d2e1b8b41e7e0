#!/usr/bin/env python3
"""Entry point of the ptwgr wall-clock benchmark.

    python3 wallbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the library and the bench program
(wallbench.cpp) in Release mode under $CARGO_TARGET_DIR (default
.bench_build), runs one workload on inputs generated from --seed, and prints
the program's table followed, as the last line, by one JSON object with the
keys correct, attempted, failed and metrics.  With --trace 0 the metrics are
BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list; a layer
metric the workload does not exercise reads 0.  README.md in this directory
describes the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serial-220k", "parallel-220k-4r", "serve-suite")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "wallbench")


def build():
    """Configures and builds the bench program; returns its path."""
    out = build_dir()
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", "4"], check=True,
                   stdout=sys.stderr)
    return os.path.join(out, "wallbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    entries = bench["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in entries}


def run_bench(binary, workload, seed, seconds, trace, extra=()):
    """Runs the bench program once in a private input directory; returns its
    stdout lines.  Raises on a non-zero exit or a timeout."""
    workdir = os.path.join(build_dir(), "inputs-%d" % os.getpid())
    try:
        proc = subprocess.run(
            [binary, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--workdir", workdir, *extra],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError("bench program exited with %d" % proc.returncode)
    return proc.stdout.splitlines()


def complete_result(result, trace):
    """Checks the program's metrics against BENCHMARK.json and fills the layer
    metrics the workload does not exercise with 0."""
    declared = declared_metrics(trace)
    metrics = result["metrics"]
    for name, entry in metrics.items():
        if declared.get(name) != entry["unit"]:
            raise RuntimeError("metric %s (%s) is not declared with that unit"
                               % (name, entry["unit"]))
    for name, unit in declared.items():
        if name not in metrics:
            if not trace:
                raise RuntimeError("end-to-end metric %s missing" % name)
            metrics[name] = {"value": 0, "unit": unit}
    result["metrics"] = {name: metrics[name] for name in declared}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    lines = run_bench(binary, args.workload, args.seed, args.seconds,
                      args.trace)
    result = complete_result(json.loads(lines[-1]), args.trace)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        print("wallbench: %s" % e, file=sys.stderr)
        sys.exit(1)
