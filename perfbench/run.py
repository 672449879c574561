#!/usr/bin/env python3
"""Builds and runs the benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload study-smoke --seed 1 --seconds 8 --trace 0
        [--trace-file trace.json]

Builds `perfbench` (this directory's package) and the `demodq-serve`
binary in release mode into $CARGO_TARGET_DIR (default `.bench_build`),
runs the workload in a fresh process on a pool of nproc threads, and
passes its output through: a report line (host block, details, sample
counts) and, last, the result line
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.

Exits nonzero without a result line when the checkout lacks the program's
sources or the build fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("study-smoke", "study-large", "rq1-full", "serve-low", "serve-high")
# A run must end within 180 s; leave room for the build check and cleanup.
RUN_TIMEOUT_S = 165


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join("perfbench", "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "-p", "demodq-serve",
         "--bin", "demodq-serve"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--trace-file", help="write the traced run's spans as Chrome trace JSON")
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("Cargo.toml", "crates", "vendor"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"run from the root of a source checkout ({needed} is missing)")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(root, target) if not os.path.isabs(target) else target
    build(root, target)

    work = os.path.join(root, ".bench_work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--work-dir", work,
        "--serve-bin", os.path.join(target, "release", "demodq-serve"),
        "--rustc", rustc_version(),
    ]
    if args.trace_file:
        cmd += ["--trace-file", args.trace_file]
    # Its own process group, so a timeout also stops the server it spawned.
    child = subprocess.Popen(cmd, cwd=root, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        print(f"perfbench/run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        code = 3
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
