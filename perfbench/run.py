#!/usr/bin/env python3
"""Benchmark entry point: build the harness, run one workload, print JSON.

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>
    python3 perfbench/run.py --regen-digests

Run from the repository root. The first run configures and builds the
program and the harness into .bench_build/perfbench (CMake, Release).
The last line of stdout is the result object; the line before it is a
report with the per-row results and the host fingerprint. With
--trace 0 the metrics are the end-to-end ones (guest_kips, setup_s,
peak_rss_mb); with --trace 1 the per-layer ones. See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "perfbench_harness")
DIGESTS = os.path.join(HERE, "expected_digests.txt")

WORKLOADS = ("profiled_single", "profiled_host_sweep",
             "unprofiled_detailed")
# Fresh processes timed up to "ready"; setup_s is their median.
SETUP_SAMPLES = 301
# Seeds whose digests the table holds (the harness's seed space).
SEED_SPACE = 64
# Budget for the harness after the build, inside the 180 s a run gets.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", BUILD, "--target",
                "perfbench_harness", "-j", jobs]

    def ok(cmd):
        return subprocess.run(cmd, stdout=sys.stderr).returncode == 0

    # cmake.check_cache is written only by a configure that completed.
    if os.path.exists(os.path.join(BUILD, "CMakeFiles",
                                   "cmake.check_cache")) and ok(compile_):
        return
    # A fresh tree, or one configured from an older CMakeLists.txt.
    if not (ok(configure) and ok(compile_)):
        log("perfbench: build failed")
        sys.exit(1)


def harness(workload, seed, *extra, timeout=RUN_TIMEOUT_S):
    cmd = [HARNESS, "--workload", workload, "--seed", str(seed),
           "--digests", DIGESTS, *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log("perfbench: harness timed out: " + " ".join(cmd))
        sys.exit(1)
    if proc.returncode != 0:
        log("perfbench: harness exited %d: %s" %
            (proc.returncode, " ".join(cmd)))
        sys.exit(proc.returncode)
    return proc.stdout.splitlines()


def setup_seconds(workload, seed):
    """Median over fresh processes of the CPU time each has used when
    its first timed pass could begin (fork, exec, loading, static
    initialisation, workload configs). CPU time, like the harness's
    row times, leaves out the time a shared host's hypervisor takes
    the vCPU away; the spawning Python's own cost is not counted.

    Sample k runs on the k-th allowed CPU in turn, as the harness's
    passes do, so one contended CPU does not set the figure.
    """
    cpus = sorted(os.sched_getaffinity(0))
    samples = []
    try:
        for k in range(SETUP_SAMPLES):
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
            lines = harness(workload, seed, "--setup-only")
            samples.append(int(lines[-1].split()[1]) / 1e9)
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(samples)


def host_fingerprint():
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    # Never look above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model,
            "git_commit": commit}


def run(args):
    build()
    t_start = time.monotonic()
    setup = None
    if args.trace == 0:
        setup = setup_seconds(args.workload, args.seed)
    remaining = RUN_TIMEOUT_S - (time.monotonic() - t_start)
    lines = harness(args.workload, args.seed, "--seconds",
                   str(args.seconds), "--trace", str(args.trace),
                   timeout=max(remaining, 30))
    report = json.loads(lines[-2])
    result = json.loads(lines[-1])
    report["report"]["host"] = host_fingerprint()
    if setup is not None:
        result["metrics"]["setup_s"] = {"value": setup, "unit": "s"}
    print(json.dumps(report))
    print(json.dumps(result))


def regen_digests():
    build()
    out = []
    for workload in WORKLOADS:
        seeds = range(SEED_SPACE) if workload != "unprofiled_detailed" \
            else [0]
        for seed in seeds:
            out.extend(harness(workload, seed, "--emit-digests",
                              timeout=None))
            log("%s seed %d done" % (workload, seed))
    with open(DIGESTS, "w") as f:
        f.write("\n".join(out) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--regen-digests", action="store_true",
                    help="rewrite expected_digests.txt from this build")
    args = ap.parse_args()
    if args.regen_digests:
        regen_digests()
        return
    if args.workload is None or args.seed is None or args.seed < 0:
        ap.error("--workload and a non-negative --seed are required")
    run(args)


if __name__ == "__main__":
    main()
