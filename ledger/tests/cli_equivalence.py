#!/usr/bin/env python3
"""Driver-vs-CLI equivalence: the ledger follows the shipped code path.

For each ledger workload and seed, the spike total the driver reports
for its main run must equal the total that flexon_sim prints for the
same network, flags, seed and step count. A driver that drifted onto
another builder, engine or option set would fire different spikes.

    python3 ledger/tests/cli_equivalence.py \\
        --driver .bench_build/ledger/flexon_ledger \\
        --cli .bench_build/ledger/ledger_flexon_sim [--seeds 1,2]

Built and registered as a ctest by ledger/CMakeLists.txt:

    cmake --build .bench_build/ledger
    ctest --test-dir .bench_build/ledger --output-on-failure
"""

import argparse
import re
import subprocess
import sys

MICROCIRCUIT = ["--benchmark", "microcircuit", "--scale", "10",
                "--connectivity", "materialized", "--backend", "flexon"]

# Workload -> the flexon_sim flags that build and run the same network.
CLI_FLAGS = {
    "mc-x1": MICROCIRCUIT + ["--rate-scale", "1", "--threads", "1"],
    "mc-x8": MICROCIRCUIT + ["--rate-scale", "8", "--threads", "1"],
    "mc-x8-t4": MICROCIRCUIT + ["--rate-scale", "8", "--threads", "4"],
    "izh-proc": ["--benchmark", "Izhikevich", "--scale", "1",
                 "--connectivity", "procedural", "--backend", "flexon",
                 "--threads", "1"],
}


def run(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          check=False, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"FAIL: {' '.join(cmd)} exited {proc.returncode}\n"
                 f"{proc.stdout}")
    return proc.stdout


def field(text, pattern, what):
    match = re.search(pattern, text)
    if match is None:
        sys.exit(f"FAIL: no {what} in output:\n{text}")
    return int(match.group(1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--driver", required=True)
    parser.add_argument("--cli", required=True)
    parser.add_argument("--seeds", default="1,2")
    args = parser.parse_args()

    workloads = run([args.driver, "--list"]).split()
    if sorted(workloads) != sorted(CLI_FLAGS):
        sys.exit(f"FAIL: driver workloads {workloads} do not match "
                 f"this test's table {sorted(CLI_FLAGS)}")

    failures = 0
    for seed in args.seeds.split(","):
        for workload in workloads:
            out = run([args.driver, "--workload", workload, "--seed", seed,
                       "--seconds", "0", "--trace", "0"])
            ledger = re.search(r"^ledger: .*$", out, re.M)
            if ledger is None:
                sys.exit(f"FAIL: no ledger line from {workload}:\n{out}")
            steps = field(ledger.group(0), r"steps=(\d+)", "steps")
            spikes = field(ledger.group(0), r"spikes=(\d+)", "spikes")
            cli = run([args.cli] + CLI_FLAGS[workload] +
                      ["--seed", seed, "--steps", str(steps)])
            cli_steps = field(cli, r"steps=(\d+) spikes=", "steps")
            cli_spikes = field(cli, r"steps=\d+ spikes=(\d+)", "spikes")
            ok = cli_steps == steps and cli_spikes == spikes
            failures += 0 if ok else 1
            print(f"{'ok  ' if ok else 'FAIL'} {workload:<9} seed {seed}: "
                  f"driver {spikes} spikes / {steps} steps, "
                  f"flexon_sim {cli_spikes} / {cli_steps}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
