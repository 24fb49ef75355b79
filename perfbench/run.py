#!/usr/bin/env python3
"""Build and run the FastSim benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds perfbench/fsbench.exe with dune (inside the checkout, dune's
shared cache off), then runs it from the checkout root in its own
process group, which is killed as a whole if the run overstays its
time. The benchmark's last line of output is its JSON result; with
--workload all, each workload in turn prints its metrics and result.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "fsbench.exe")
# One workload must finish within 180 s; "all" runs three.
RUN_TIMEOUT_S = 170
ALL_TIMEOUT_S = 3 * RUN_TIMEOUT_S


def build():
    cmd = ["dune", "build", "--root", ROOT, "--cache=disabled",
           "./perfbench/fsbench.exe", "./perfbench/probe.exe"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr)
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(done.returncode or 1)


def run(argv):
    timeout = ALL_TIMEOUT_S if "all" in argv else RUN_TIMEOUT_S
    proc = subprocess.Popen([EXE] + argv, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        # The daemon and forked children share the run's process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        argv = ["selftest"]
    elif None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    else:
        argv = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    build()
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
