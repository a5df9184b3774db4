#!/usr/bin/env python3
"""Build and run one perfbench workload.

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds
the repository's libraries and the benchmark (perfbench/CMakeLists.txt)
into the build directory, $CARGO_TARGET_DIR or .bench_build; later
calls only rebuild what changed. The workload's phase counts and run
context are printed first; the last line of standard output is the
result object {"correct", "attempted", "failed", "metrics"}. Any failed
check exits non-zero with a message naming the workload and the check,
and prints no result. A workload that runs past RUN_LIMIT_S is killed
and fails the same way.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A first run builds, then runs: both together stay within 900 s.
BUILD_TIMEOUT_S = 700
# The watchdog: strix_perfbench is killed after this long. With the
# up-to-date check of the build before it, a run ends within 180 s.
RUN_LIMIT_S = 170


def die(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d) if not os.path.isabs(d) else d


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def build(workload):
    """Configure once, then build strix_perfbench and its tests."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die(f"workload {workload}: check 'sources present' failed: the "
            "repository's CMakeLists.txt and src/ are not beside "
            "perfbench/; run from a full checkout", 2)
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(os.path.join(out, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "--target", "strix_perfbench",
                      "perfbench_tests", "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, cwd=ROOT, stdout=log,
                                    stderr=subprocess.STDOUT,
                                    timeout=max(1, deadline - time.monotonic())
                                    ).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                die(f"workload {workload}: check 'build' failed: {e}", 2)
            if rc != 0:
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                die(f"workload {workload}: check 'build' failed "
                    f"({' '.join(cmd[:2])} exited {rc}):\n{tail}", 2)
    return out


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(workload, line, trace):
    """Validate the result line against BENCHMARK.json."""
    def bad(what):
        die(f"workload {workload}: check '{what}' failed")
    try:
        result = json.loads(line)
    except ValueError:
        bad("result line is JSON")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        bad("result keys")
    if result["correct"] is not True:
        bad("every output decodes to its cleartext result")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        bad("attempted/failed counts")
    want = expected_metrics(trace)
    got = result["metrics"]
    if sorted(got) != sorted(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        bad(f"metric names (missing {missing}, unexpected {extra})")
    for name, m in got.items():
        if m.get("unit") != want[name] or not isinstance(
                m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            bad(f"metric {name} value and unit")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.selftest:
        out = build("selftest")
        sys.exit(subprocess.run([os.path.join(out, "perfbench_tests")],
                                cwd=ROOT, timeout=RUN_LIMIT_S).returncode)
    if not args.workload:
        die("--workload is required", 2)
    out = build(args.workload)
    cmd = [os.path.join(out, "strix_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source", source_id()]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        die(f"workload {args.workload}: check 'finishes in time' failed: "
            f"killed after {RUN_LIMIT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        die(f"workload {args.workload}: check 'strix_perfbench exits 0' failed "
            f"(exit {proc.returncode})")
    check_result(args.workload, lines[-1], bool(args.trace))
    print("\n".join(lines))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
