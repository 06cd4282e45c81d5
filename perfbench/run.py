#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
library and the perfbench binary (CMake, RelWithDebInfo) under the build
directory: $CARGO_TARGET_DIR when set, else .bench_build. Later runs
rebuild only what changed. The binary's standard output is passed through; its last line is
the JSON record. `--workload all` runs every workload in turn, each in its
own process, and ends with one combined record.

Exits non-zero, without printing a record, when the sources are missing,
the build fails, or the binary does not end with a well-formed record.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["noisy-fig1", "true-100k", "churn-noisy"]
RECORD_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print("perfbench/run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def flag(args, name):
    """The value following `name` in args, or None."""
    for i, a in enumerate(args[:-1]):
        if a == name:
            return args[i + 1]
    return None


def build(build_dir):
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "pipeline.hpp")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    bdir = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = [cmake, "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            fail("cmake configure failed")
    cmd = [cmake, "--build", bdir, "--target", "perfbench", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(bdir, "perfbench")


def parse_record(line):
    try:
        rec = json.loads(line)
    except ValueError:
        return None
    if not isinstance(rec, dict) or set(rec) != RECORD_KEYS:
        return None
    return rec


def run_one(exe, args):
    """Runs the binary, echoes its output, and returns its record."""
    proc = subprocess.run([exe] + args, stdout=subprocess.PIPE, text=True)
    out = proc.stdout.rstrip("\n")
    lines = out.split("\n") if out else []
    rec = parse_record(lines[-1]) if lines else None
    if proc.returncode != 0 or rec is None:
        sys.stderr.write(out + "\n")
        fail("perfbench exited with %d without a record" % proc.returncode)
    return lines, rec


def main():
    args = sys.argv[1:]
    workload = flag(args, "--workload")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(os.getcwd(), build_dir)
    exe = build(build_dir)

    trace = flag(args, "--trace")
    seed = flag(args, "--seed")
    names = WORKLOADS if workload == "all" else [workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        run_args = list(args)
        if workload == "all":
            run_args[run_args.index("--workload") + 1] = name
        if trace == "1" and flag(args, "--trace-out") is None and name in WORKLOADS:
            trace_dir = os.path.join(build_dir, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            run_args += ["--trace-out",
                         os.path.join(trace_dir, "%s-seed%s.json" % (name, seed))]
        lines, rec = run_one(exe, run_args)
        if workload != "all":
            print("\n".join(lines))
            return
        print("\n".join(lines[:-1]))
        combined["correct"] = combined["correct"] and rec["correct"]
        combined["attempted"] += rec["attempted"]
        combined["failed"] += rec["failed"]
        for metric, v in rec["metrics"].items():
            combined["metrics"][name + "." + metric] = v
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
