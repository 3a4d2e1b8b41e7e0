#!/usr/bin/env python3
"""Self-test of the wall-clock benchmark, on tiny inputs.

    python3 wallbench/selftest.py

Run from the repository root; takes about a minute after the build.  It
checks that:
  * every workload prints every end-to-end metric (--trace 0) and every
    per-layer metric (--trace 1) declared in BENCHMARK.json, with its unit,
    and passes its correctness checks;
  * each workload measures the layer metrics it exercises (the rest read 0);
  * a result with one wire removed, or a job forced to fail, counts as a
    failed operation and leaves the timing samples.
"""

import json
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (same directory)

SEED = 5
SECONDS = 1
TINY = ("--size", "tiny")

# Layer metrics each workload must measure itself (prefix match).
EXERCISED = {
    "serial-220k": ("circuit.", "route.", "trace_overhead",
                    "unattributed_frac"),
    "parallel-220k-4r": ("circuit.", "route.", "parallel.row-wise.",
                         "parallel.net-wise.", "parallel.hybrid.",
                         "parallel.taskgraph.", "mp.row-wise.",
                         "mp.net-wise.", "mp.hybrid.", "mp.taskgraph.",
                         "trace_overhead", "unattributed_frac"),
    "serve-suite": ("circuit.", "route.", "serve.", "trace_overhead",
                    "unattributed_frac"),
}
INJECT = {
    "serial-220k": "drop-wire",
    "parallel-220k-4r": "drop-wire",
    "serve-suite": "fail-job",
}

failures = []
reported = 0


def check(condition, what):
    if not condition:
        failures.append(what)
        print("FAIL", what)


def report(tag):
    """Prints "ok" for a case that added no failure."""
    global reported
    if len(failures) == reported:
        print("ok  ", tag)
    reported = len(failures)


def bench(binary, workload, trace, extra=()):
    """Returns (result, details) of one tiny run of the bench program."""
    lines = run.run_bench(binary, workload, SEED, SECONDS, trace,
                           TINY + tuple(extra))
    details = json.loads(lines[-2][len("details "):])
    return json.loads(lines[-1]), details


def main():
    binary = run.build()
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            raw, _ = bench(binary, workload, trace)
            tag = "%s --trace %d" % (workload, trace)
            check(raw["correct"] and raw["failed"] == 0
                  and raw["attempted"] >= 1, tag + ": checks pass")
            if trace:
                for name in raw["metrics"]:
                    check(name.startswith(EXERCISED[workload]),
                          "%s: %s is measured here" % (tag, name))
                for prefix in EXERCISED[workload]:
                    check(any(n.startswith(prefix) for n in raw["metrics"]),
                          "%s: some %s metric is measured" % (tag, prefix))
            result = run.complete_result(raw, trace)
            declared = run.declared_metrics(trace)
            check(list(result["metrics"]) == list(declared),
                  tag + ": prints every declared metric")
            for name, unit in declared.items():
                check(result["metrics"][name]["unit"] == unit,
                      "%s: %s has unit %s" % (tag, name, unit))
            report(tag)

        # One broken result: counted as failed, dropped from the timings.
        raw, details = bench(binary, workload, 0,
                              ("--inject", INJECT[workload]))
        tag = "%s --inject %s" % (workload, INJECT[workload])
        check(not raw["correct"] and raw["failed"] == 1,
              tag + ": counted as one failed operation")
        check(details["samples"].get("job_latency_s_p50")
              == raw["attempted"] - raw["failed"],
              tag + ": failed operation left out of the latency samples")
        if workload != "serve-suite":
            per_rep = 3 if workload == "parallel-220k-4r" else 1
            check(details["samples"].get("wall_s")
                  == raw["attempted"] // per_rep - 1,
                  tag + ": failed repetition left out of wall_s")
        report(tag)

    if failures:
        print("%d self-test failures" % len(failures))
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
