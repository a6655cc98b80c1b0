#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0

The benchmark is a Go program in perfbench/ (its own module, importing the
repository's packages through a replace directive). This wrapper builds it
with every Go cache and temp directory inside the checkout's build directory
($CARGO_TARGET_DIR, else .bench_build), then runs it with the same
arguments. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. The exit code is the benchmark's, or 1 when the
build fails.
"""

import os
import shutil
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    go = shutil.which("go") or "/usr/local/go/bin/go"
    env = dict(os.environ)
    for var, sub in [
        ("GOCACHE", "gocache"),
        ("GOMODCACHE", "gomodcache"),
        ("GOPATH", "gopath"),
        ("GOTMPDIR", "tmp"),
        ("TMPDIR", "tmp"),
        ("XDG_CONFIG_HOME", "config"),
    ]:
        env[var] = os.path.join(build, sub)
        os.makedirs(env[var], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOWORK="off", GOPROXY="off", GOSUMDB="off",
               GOFLAGS="", GOTELEMETRY="off")
    binary = os.path.join(build, "perfbench")
    built = subprocess.run([go, "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    work = os.path.join(build, "work")
    os.makedirs(work, exist_ok=True)
    ran = subprocess.run([binary, "-work", work] + sys.argv[1:], cwd=root, env=env)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
