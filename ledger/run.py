#!/usr/bin/env python3
"""Build and run the whole-run ledger benchmark.

Usage (from the repository root):

    python3 ledger/run.py --workload mc-x1 --seed 1 --seconds 30 --trace 0
    python3 ledger/run.py --workload all --seed 1 --seconds 30 --trace 0

Builds ledger/ (which compiles ../src) into .bench_build/ledger as a
Release build on first use, then runs the driver for one workload (or
each in turn with ``all``). The driver's last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 1
the driver reports per-layer metrics and the Chrome-trace spans go to
.bench_build/ledger/traces/<workload>-seed<seed>.json.

Exit status: 0 when the driver ran (whether or not its correctness
gates passed; see "correct"), 1 when the build or the driver failed,
2 on bad arguments or an incomplete source tree.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "ledger"
BUILD = ROOT / ".bench_build" / "ledger"
DRIVER = BUILD / "flexon_ledger"
DRIVER_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"ledger: {msg}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log):
    with open(log, "w", encoding="utf-8") as out:
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT, check=False)
    if proc.returncode != 0:
        tail = Path(log).read_text(encoding="utf-8").splitlines()[-30:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"command failed ({proc.returncode}): {' '.join(cmd)}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"{ROOT / 'src'} is missing: the ledger builds the "
             "simulator from the repository sources", code=2)
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(LEDGER), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_logged(cmd, BUILD / "configure.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", str(BUILD), "--target",
                "flexon_ledger", "-j", jobs], BUILD / "build.log")


def run_driver(workload, args):
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        (BUILD / "traces").mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(BUILD / "traces" / f"{workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              text=True, timeout=DRIVER_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: driver exceeded {DRIVER_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"{workload}: driver exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail(f"{workload}: driver printed no result line")
    return lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must be non-negative", code=2)

    build()
    if args.workload != "all":
        lines, _ = run_driver(args.workload, args)
        print("\n".join(lines))
        return

    listing = subprocess.run([str(DRIVER), "--list"], stdout=subprocess.PIPE,
                             text=True, check=True)
    for workload in listing.stdout.split():
        lines, result = run_driver(workload, args)
        print("\n".join(lines[:-1]))
        print(f"== {workload}: correct={result['correct']} "
              f"fail_ratio={result['failed'] / result['attempted']:.4f} "
              f"({result['failed']}/{result['attempted']})")
        for name, m in result["metrics"].items():
            print(f"   {name:<40} {m['value']:>16.6g} {m['unit']}")


if __name__ == "__main__":
    main()
