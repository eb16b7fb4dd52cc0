#!/usr/bin/env python3
"""Build and run the perfbench benchmark from a source checkout.

Usage (from the repository root):

    python3 perfbench/run.py --workload stream --seed 1 --seconds 30 --trace 0

The Go toolchain's caches, the binary and the span traces all go under
.bench_build/ in the checkout (or $CARGO_TARGET_DIR when it is set), so the
run reads and writes nothing outside the checkout but the toolchain itself.
The last line of standard output is the benchmark's JSON result; a failed
build exits non-zero without printing one.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    ran = subprocess.run([binary, *sys.argv[1:], "--out", build], cwd=root, env=env)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
