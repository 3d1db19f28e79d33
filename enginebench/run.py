#!/usr/bin/env python3
"""Build and run the engine benchmark from the root of a checkout.

    python3 enginebench/run.py --workload read-mix --seed 1 --seconds 30 --trace 0

Builds enginebench (a Go module that uses the engine at the checkout
root) into .bench_build/ with the Go build cache, module cache and Go
configuration and temporary files kept inside .bench_build/, then runs it with the given
arguments and exits with its exit code. The last line of its standard
output is the result object.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("enginebench: no engine module at %s" % ROOT, file=sys.stderr)
        return 2
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "TMPDIR": os.path.join(BUILD, "tmp"),
    })
    binary = os.path.join(BUILD, "enginebench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("enginebench: build failed", file=sys.stderr)
        return build.returncode or 1
    workdir = os.path.join(BUILD, "work")
    run = subprocess.run([binary, "--workdir", workdir] + sys.argv[1:], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
