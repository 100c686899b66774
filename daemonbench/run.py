#!/usr/bin/env python3
"""Build the daemon benchmark from source, then run it.

Run from the repository root:

    python3 daemonbench/run.py --workload verdicts --seed 1 --seconds 20 --trace 0

The benchmark is its own Go module (daemonbench/go.mod) that uses the
repository module through a local replace, so nothing is downloaded. The
build, everything it caches and every temporary file stay under
.bench_build/ in the current directory. After a successful build this
process replaces itself with the benchmark binary, so no child process
outlives it; a failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.getcwd(), ".bench_build")
BINARY = os.path.join(BUILD, "daemonbench", "bin", "daemonbench")
TMP = os.path.join(BUILD, "tmp")
BUILD_TIMEOUT_S = 840


def build_env():
    home = os.path.join(BUILD, "home")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTELEMETRY": "off",
        "GOFLAGS": "",
        "GOTMPDIR": TMP,
        "TMPDIR": TMP,
        "CGO_ENABLED": "0",
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
    })
    return env


def main():
    os.makedirs(os.path.dirname(BINARY), exist_ok=True)
    os.makedirs(TMP, exist_ok=True)
    try:
        subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=build_env(),
                       timeout=BUILD_TIMEOUT_S, check=True, stdout=sys.stderr)
    except (OSError, subprocess.SubprocessError) as err:
        print(f"daemonbench: build failed: {err}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    os.execve(BINARY, [BINARY] + sys.argv[1:], dict(os.environ, TMPDIR=TMP))


if __name__ == "__main__":
    sys.exit(main())
