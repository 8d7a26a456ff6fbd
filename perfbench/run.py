#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 20 --trace 0

The Go program in this directory is built into the build directory
(CARGO_TARGET_DIR when set, else .bench_build), with the Go build cache,
module cache, home and temporary directories kept there too, so a run
reads and writes only inside the repository checkout. The program's
standard output passes through unchanged: its last line is the JSON
result. The exit code is the program's (non-zero when an output check
fails, or when the repository module to build is missing).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

BUILD_TIMEOUT_S = 900
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        fail("the repository module (go.mod next to perfbench/) is missing; nothing to benchmark")
    go = shutil.which("go")
    if go is None:
        fail("no go toolchain on PATH")

    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    work = os.path.join(ROOT, build, "perfbench")
    tmp = os.path.join(work, "tmp")
    home = os.path.join(work, "home")
    for d in (tmp, home):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(work, "gocache"),
        GOMODCACHE=os.path.join(work, "gomodcache"),
        GOPATH=os.path.join(work, "gopath"),
        GOTOOLCHAIN="local",
        GOFLAGS="-buildvcs=false",
        CGO_ENABLED="0",
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        TMPDIR=tmp,
    )
    binary = os.path.join(work, "perfbench")
    try:
        built = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env,
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if built.returncode != 0:
        sys.stderr.write(built.stdout.decode(errors="replace"))
        fail("build failed")

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace), "-tmp", tmp]
    try:
        ran = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    sys.exit(ran.returncode)


if __name__ == "__main__":
    main()
