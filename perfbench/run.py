#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-slipstream --seed 1 --seconds 15 --trace 0

perfbench/ is a Go module of its own that uses the repository's packages
through a replace directive. This script builds it with the Go toolchain
into .bench_build/ (build cache, temporary files and run caches stay there
too), runs it, and exits with its exit code. The last line of standard
output is the JSON result; build output goes to standard error.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def run_timeout(seconds):
    """Limit for one benchmark process: a traced run measures twice and sets
    up, so 175 s at --seconds 20 and more for longer runs."""
    return 115 + 3 * seconds


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
    )
    return env


def run(cmd, cwd, env, timeout=None, stdout=None):
    """Run cmd to completion; on timeout or interruption stop it and wait."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {cmd[0]} exceeded {timeout}s, stopped", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # A SIGTERM unwinds through run()'s cleanup, stopping the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod at the checkout root; the benchmark needs the repository's source",
              file=sys.stderr)
        return 2
    env = go_env()
    for d in ("gocache", "tmp", "config"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    code = run(["go", "build", "-o", BINARY, "."], BENCH, env, stdout=sys.stderr)
    if code != 0:
        print(f"perfbench: build failed ({code})", file=sys.stderr)
        return code or 1
    # The run caches live in a directory removed here, so a killed run
    # leaves nothing behind.
    work = tempfile.mkdtemp(prefix="run-", dir=BUILD)
    try:
        return run([BINARY, "-workload", args.workload, "-seed", str(args.seed),
                    "-seconds", str(args.seconds), "-trace", str(args.trace), "-workdir", work],
                   ROOT, env, timeout=run_timeout(args.seconds))
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
