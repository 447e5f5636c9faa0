#!/usr/bin/env python3
"""Self-test of the benchmark's output.

    python3 perfbench/selftest.py

Run from the repository root. Runs perfbench/run.py once per workload
with tracing off and once with tracing on, and checks:

  - the result line has exactly the keys correct/attempted/failed/
    metrics, and its metrics are the end_to_end (--trace 0) or the
    per_layer (--trace 1) names and units of BENCHMARK.json;
  - every row verified: correct is true and failed is 0;
  - no layer time is negative;
  - on unprofiled_detailed, the identity leg's commit hook observed
    guest commits and found no Recorder active at any of them, and
    host.ops == trace.scopes == 0, so that workload really bypasses
    the trace and host layers;
  - host.ops equals the rows' RunResult::hostInsts (median over the
    traced passes of each pass's sum);
  - every pass's CPU time is positive and no more than its wall time;
  - the report carries the host and build fingerprint.

Exits non-zero at the first failed check.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = 1
SEED = 3


def fail(msg):
    print("selftest: FAIL: " + msg, file=sys.stderr)
    sys.exit(1)


def check(cond, msg):
    if not cond:
        fail(msg)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT)
    check(proc.returncode == 0,
          "%s exited %d" % (" ".join(cmd), proc.returncode))
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }

    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            where = "%s --trace %d" % (workload, trace)
            report, result = run(workload, SEED, SECONDS, trace)
            check(sorted(result) ==
                  ["attempted", "correct", "failed", "metrics"],
                  where + ": result keys " + str(sorted(result)))
            check(result["correct"] is True and result["failed"] == 0,
                  where + ": rows failed verification")
            check(isinstance(result["attempted"], int) and
                  result["attempted"] >= 1, where + ": attempted")
            metrics = result["metrics"]
            got = {k: v["unit"] for k, v in metrics.items()}
            check(got == expected[trace],
                  where + ": metrics differ from BENCHMARK.json: " +
                  str(sorted(set(got) ^ set(expected[trace]))))
            for name, m in metrics.items():
                check(isinstance(m["value"], (int, float)),
                      where + ": %s is not a number" % name)
                check(m["value"] >= 0,
                      where + ": %s is negative (%r)" % (name,
                                                         m["value"]))
            for key in ("nproc", "cpu_model", "git_commit"):
                check(key in report["host"], where + ": host." + key)
            for key in ("compiler", "build_type", "cxx_flags",
                        "hot_layout", "pgo"):
                check(key in report["build"], where + ": build." + key)
            # Rows are timed on the thread's CPU clock, which cannot
            # run ahead of the wall clock (1 ms of slack for rounding).
            for cpu_s, wall_s in zip(report["pass_cpu_s"],
                                     report["pass_wall_s"]):
                check(0 < cpu_s <= wall_s + 1e-3,
                      where + ": pass CPU time %r vs wall %r" %
                      (cpu_s, wall_s))
            if trace == 1:
                host_ops = metrics["host.ops"]["value"]
                check(host_ops ==
                      statistics.median(report["pass_host_insts"]),
                      where + ": host.ops %r != rows' hostInsts %r" %
                      (host_ops, report["pass_host_insts"]))
                if workload == "unprofiled_detailed":
                    probe = report["bypass_probe"]
                    check(probe["commits"] > 0,
                          where + ": bypass probe saw no commits")
                    check(probe["traced_commits"] == 0 and
                          host_ops == 0 and
                          metrics["trace.scopes"]["value"] == 0,
                          where + ": trace/host layers not bypassed: " +
                          str(probe))
                else:
                    check(host_ops > 0, where + ": no host ops")
            print("selftest: %s ok" % where, flush=True)
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
