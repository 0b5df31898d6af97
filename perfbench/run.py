#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload twip-static --seed 1 --seconds 10 --trace 0

Builds the server and the benchmark with dune (a no-op once built), then
runs the benchmark in its own process group, so that on a timeout the
benchmark and every server it forked are stopped together. The last line
of standard output is the benchmark's JSON result; the exit code is the
benchmark's (non-zero, with no result line, on any failure).
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_group(argv, timeout, **kwargs):
    """Run argv in a new process group; kill the whole group on timeout."""
    proc = subprocess.Popen(argv, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {argv[0]} exceeded {timeout}s, stopping it", file=sys.stderr)
        return 124
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def main():
    if not all(os.path.exists(p) for p in ("dune-project", "lib", "bin")):
        print("perfbench: run this from the root of a source checkout", file=sys.stderr)
        return 2
    build = run_group(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "perfbench/perfbench.exe", "bin/pequod_server.exe"],
        BUILD_TIMEOUT_S, stdout=sys.stderr)
    if build != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join("_build", "default", "perfbench", "perfbench.exe")
    return run_group([exe] + sys.argv[1:], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
