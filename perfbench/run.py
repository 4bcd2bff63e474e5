#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload screen --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The last line of standard output is the JSON result object.  Everything
is built and written inside the checkout (_build/ and perfbench/_out/);
the dune cache is disabled so nothing lands in the home directory.
"""

import argparse
import os
import signal
import subprocess
import sys

EXE = "_build/default/perfbench/perfbench.exe"
CLI = "_build/default/bin/scaguard_cli.exe"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run(cmd, timeout, stdout=None):
    """Run cmd in its own process group; on timeout, or when this script is
    told to stop, kill the whole group (the serve workload's daemon
    included) and wait for it."""
    proc = subprocess.Popen(cmd, stdout=stdout, start_new_session=True,
                            env=dict(os.environ, DUNE_CACHE="disabled"))

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"{cmd[0]} timed out after {timeout} s")
        return 124


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=["screen", "classify", "serve"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run every workload at a tiny size and check the harness")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    for need in ("dune-project", "lib", "bin", "BENCHMARK.json"):
        if not os.path.exists(need):
            log(f"{need} not found: run from the root of a scaguard checkout")
            return 2

    rc = run(["dune", "build", "--root", ".", "perfbench/perfbench.exe",
              "bin/scaguard_cli.exe"], BUILD_TIMEOUT_S, stdout=sys.stderr)
    if rc != 0:
        log("build failed")
        return 2

    if args.selftest:
        return run([EXE, "selftest", "--cli", CLI], RUN_TIMEOUT_S)
    return run([EXE, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--cli", CLI], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
