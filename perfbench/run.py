#!/usr/bin/env python3
"""Build the program from source and run one benchmark run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds the benchmark executable
and the `tbct` CLI with dune, runs the benchmark once in a fresh process,
and passes its output through: detail on stderr, and as the last line of
stdout one JSON object {correct, attempted, failed, metrics}.  It exits
non-zero, without printing a result, when the build or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("find", "find_tv", "reduce", "serve")
BENCH_EXE = "_build/default/perfbench/perfbench.exe"
TBCT_EXE = "_build/default/bin/tbct_cli.exe"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if a.seconds < 1:
        fail("--seconds must be at least 1")

    for f in ("dune-project", "bin/tbct_cli.ml", "lib", "perfbench/dune"):
        if not os.path.exists(f):
            fail(f"{f} not found: run from the root of a full checkout")

    # dune reports on stderr; stdout stays reserved for the result line
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe", "./bin/tbct_cli.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    cmd = [
        BENCH_EXE,
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
        "--tbct", TBCT_EXE,
    ]
    # serve runs on one CPU, the benchmark process and its daemons alike:
    # the client's calibration probes then measure the CPU the daemon runs
    # on, and the daemon's CPU time per round spread less (perfbench/README.md)
    if a.workload == "serve":
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # a session of its own, so a timeout can stop the run and any daemon
    # it spawned together
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"benchmark exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
