#!/usr/bin/env python3
"""Build and run the mipp end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The script configures and builds
perfbench/ (a standalone CMake project that compiles the library from
src/) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
the variable is unset, then runs one workload. It prints the host
context and the workload's report, and as the last line of stdout one
JSON object {correct, attempted, failed, metrics}. Every result is also
appended to <build>/results.jsonl with its host context.

Exit status: 0 when the run completed and every output check passed;
1 when a check failed (the JSON line still reports correct=false); 2
when the build or the run failed, in which case no result is printed.
"""
import argparse
import datetime
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("profile-stream", "dse-million", "serve-mixed",
             "explore-validate")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir):
    """Configure (once) and build; returns the binary path or None."""
    cmake = shutil.which("cmake")
    if cmake is None:
        log("perfbench: cmake not found")
        return None
    cmake_dir = os.path.join(out_dir, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        cmd = [cmake, "-S", HERE, "-B", cmake_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            # Leave no half-configured tree behind for the next run.
            shutil.rmtree(cmake_dir, ignore_errors=True)
            return None
    jobs = str(os.cpu_count() or 1)
    if subprocess.run([cmake, "--build", cmake_dir, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr,
                      cwd=ROOT).returncode != 0:
        return None
    binary = os.path.join(cmake_dir, "perfbench")
    return binary if os.path.exists(binary) else None


def git_commit():
    """Commit of the checkout, or "unknown" outside a git work tree.
    The ceiling keeps git from searching directories above the root."""
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             env=env, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out_dir = build_dir()
    t0 = time.monotonic()
    binary = build(out_dir)
    if binary is None:
        log("perfbench: build failed")
        return 2
    log("perfbench: build ready in %.1f s" % (time.monotonic() - t0))

    work = os.path.relpath(os.path.join(out_dir, "work"), ROOT)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", work]
    try:
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        log(e.stdout or "")
        return 2
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if run.returncode not in (0, 1) or not isinstance(result, dict):
        log(run.stdout)
        log("perfbench: run failed (exit %d)" % run.returncode)
        return 2

    missing = expected_metrics(args.trace) - set(result["metrics"])
    if missing:
        log(run.stdout)
        log("perfbench: metrics missing: %s" % ", ".join(sorted(missing)))
        return 2

    host = {
        "commit": git_commit(),
        "date": datetime.datetime.now(datetime.timezone.utc)
                .isoformat(timespec="seconds"),
        "kernel": platform.release(),
        "python": platform.python_version(),
    }
    print("host commit=%s date=%s kernel=%s" %
          (host["commit"], host["date"], host["kernel"]))
    print("\n".join(lines[:-1]))
    with open(os.path.join(out_dir, "results.jsonl"), "a") as f:
        f.write(json.dumps({"host": host, "report": lines[:-1],
                            "args": vars(args), "result": result}) + "\n")
    print(lines[-1], flush=True)
    return 0 if run.returncode == 0 and result.get("correct") else 1


if __name__ == "__main__":
    sys.exit(main())
