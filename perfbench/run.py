#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload graph-disk --seed 1 --seconds 10 --trace 0

The Go build cache, the binary and any span files stay under .bench_build
in the current directory. Arguments are passed to the benchmark binary
unchanged; its exit code is returned.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    out = os.path.abspath(".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOPATH=os.path.join(out, "gopath"),
        # The go command keeps telemetry counters under the user config
        # directory; keep them in the checkout too.
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
