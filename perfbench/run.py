#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload ingest|live|restart --seed N --seconds S --trace 0|1

The Go harness in this directory is its own module (it imports the
repository's packages through a replace directive), so it is built from
source with `go build` into .bench_build/perfbench/ of the checkout. Every
file the toolchain writes (build cache, temporary files, telemetry) stays
under that directory. The harness's standard output is passed through; its
last line is the JSON result. The exit code is the harness's, or 2 when the
build fails and 3 when the run overruns its time limit; neither prints a
result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    for sub in ("gocache", "gotmp", "gomodcache", "config"):
        os.makedirs(os.path.join(BUILD, sub), exist_ok=True)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "gotmp"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly",
        GOWORK="off",
        GOPROXY="off",
    )
    return env


def main():
    binary = os.path.join(BUILD, "perfbench")
    try:
        build = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=HERE, env=go_env(), timeout=BUILD_TIMEOUT_S,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        print("perfbench: build failed", file=sys.stderr)
        return 2

    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    sys.stdout.write(out.decode(errors="replace"))
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
