#!/usr/bin/env python3
"""Build the toolchain benchmark from this checkout's sources and run it.

usage:
  python3 toolbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
  python3 toolbench/run.py --selfcheck

Workloads: checked-sweep, fuzz-window, service (see BENCHMARK.json).
"all" runs each in turn, in its own process so that each peak_rss_mb is
its own, and ends with one JSON object whose metrics are named
"<workload>.<metric>". The first call configures and builds symbench
under .bench_build/toolbench (RelWithDebInfo, as the top-level build);
later calls rebuild only what changed. Build output goes to stderr, so
the last line of stdout is the benchmark's JSON result. Exits non-zero,
printing no result, when the build fails.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "toolbench")
WORKLOADS = ("checked-sweep", "fuzz-window", "service")


def build():
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    # Configure until a configure step has succeeded (it writes the
    # build system file last).
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "symbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, "symbench")


def run_all(binary, args):
    i = args.index("--workload")
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        args[i + 1] = name
        out = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                             text=True)
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            sys.exit("run.py: %s exited %d without a result"
                     % (name, out.returncode))
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][name + "." + metric] = value
    print(json.dumps(total))
    return 0 if total["failed"] == 0 else 1


def main():
    os.chdir(ROOT)
    binary = build()
    sys.stdout.flush()
    args = sys.argv[1:]
    if "--workload" in args[:-1] and \
            args[args.index("--workload") + 1] == "all":
        sys.exit(run_all(binary, args))
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    main()
