#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is the OCaml executable perfbench/bench.exe, built here
with dune in the release profile into .bench_build/. Its last line of
standard output is the JSON result. Extra arguments (--scale, --perturb)
are passed through; perfbench/selftest.py uses them.

REPRO_DOMAINS (worker domains of the library) defaults to min(2, nproc):
every workload is one process with one caller and one call outstanding.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/bench.exe"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    root = os.getcwd()
    for needed in ("dune-project", "lib", "perfbench/bench.ml"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"run from the repository root: {needed} is missing")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    env.setdefault("REPRO_DOMAINS", str(min(2, os.cpu_count() or 1)))
    build = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", TARGET],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if build.returncode != 0:
        sys.stderr.write(build.stderr)
        fail(f"build failed with code {build.returncode}")
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
    run = subprocess.run([exe] + sys.argv[1:], env=env)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
