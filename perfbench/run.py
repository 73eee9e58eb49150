#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload district|lesson|playback \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # the three in turn
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the
program and the benchmark binary (perfbench/CMakeLists.txt) into
.bench_build/ ($CARGO_TARGET_DIR when set); later calls only rebuild what
changed. Build output goes to stderr. The binary's report lines are
copied to stdout, and the last line of stdout is the result object:
{"correct", "attempted", "failed", "metrics"} with every end-to-end metric
of BENCHMARK.json untraced, every per-layer metric traced (with `all`,
each workload's lines and result in turn). The exit code is nonzero when
the build fails, an output check fails, or the printed metrics do not
match BENCHMARK.json.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("district", "lesson", "playback")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(path):
        path = os.path.join(ROOT, path)
    return path


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("program sources (src/) not found next to perfbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    cmake_dir = os.path.join(out, "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", cmake_dir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    binary = os.path.join(cmake_dir, "vgbl_perfbench")
    if not os.path.isfile(binary):
        raise RuntimeError("build produced no vgbl_perfbench binary")
    return binary


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def self_test(binary, spec):
    """The binary's arithmetic self-tests, plus: every metric BENCHMARK.json
    names is one the binary prints, with the same unit and direction."""
    failures = []
    done = subprocess.run([binary, "--self-test"], capture_output=True, text=True)
    if done.returncode != 0:
        failures.append("binary self-test: " + (done.stderr.strip() or done.stdout.strip()))
    listing = subprocess.run([binary, "--catalog"], capture_output=True, text=True,
                             check=True)
    catalog = {m["name"]: m for m in json.loads(listing.stdout)}
    for kind in ("end_to_end", "per_layer"):
        listed = {m["name"]: m for m in spec[kind]}
        printed = {n for n, m in catalog.items() if m["kind"] == kind}
        if set(listed) != printed:
            failures.append(f"{kind}: BENCHMARK.json lists {sorted(set(listed) - printed)} "
                            f"the binary does not print; the binary prints "
                            f"{sorted(printed - set(listed))} BENCHMARK.json does not list")
        for name, m in listed.items():
            c = catalog.get(name)
            if c and (c["unit"] != m["unit"] or c["better"] != m["better"]):
                failures.append(f"{name}: unit/direction {c['unit']}/{c['better']} "
                                f"differ from BENCHMARK.json {m['unit']}/{m['better']}")
    return failures


def check_result(result, spec, trace):
    """Checks the result object against BENCHMARK.json; returns problems."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[kind]}
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"metrics {sorted(metrics)} != {sorted(expected)}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, expected {unit!r}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    try:
        spec = load_benchmark_json()
        binary = build()
    except (OSError, RuntimeError, ValueError, subprocess.CalledProcessError) as e:
        log(f"error: {e}")
        return 2

    failures = self_test(binary, spec)
    for f in failures:
        log(f"self-test failed: {f}")
    if args.self_test:
        print("self-test: " + ("ok" if not failures else "FAILED"))
        return 1 if failures else 0
    if failures:
        return 1

    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        status = run_workload(binary, spec, workload, args) or status
    return status


def run_workload(binary, spec, workload, args):
    """Runs one workload; prints its report lines, then its result object."""
    work_dir = os.path.join(build_dir(), "runs")
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if not lines:
        log(f"error: the binary printed nothing (exit {done.returncode})")
        return 1
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log(f"error: the binary's last line is not a result: {lines[-1]!r}")
        return 1
    problems = check_result(result, spec, args.trace == 1)
    for p in problems:
        log(f"error: {p}")
    if problems:
        return 1
    print(json.dumps(result), flush=True)
    if not result["correct"]:
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
