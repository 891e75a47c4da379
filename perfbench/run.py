#!/usr/bin/env python3
"""Runs one workload of the encodesat benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the harness and the serve CLI
from this checkout's sources into .bench_build/ (incrementally; the build
log is .bench_build/build.log), then runs the harness. The harness prints
every metric with its unit and sample count, and its last line of standard
output is the JSON result. The exit code is the harness's: 0 only when
every check passed.

--inputs-only generates the workload's inputs and prints their fingerprint
lines in the format of perfbench/fingerprints.txt, without timing anything.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("serve_repeat", "suite_exact", "suite_heuristic")


def build():
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "build.ninja").exists() and not (BUILD / "Makefile").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "perfbench", "encodesat_cli"])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(log_path.read_text()[-4000:])
                sys.exit(f"perfbench: build failed: {' '.join(step)}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inputs-only", action="store_true")
    a = p.parse_args()
    build()
    cmd = [str(BUILD / "perfbench"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           # Relative to ROOT, which keeps socket paths short.
           "--cli", os.path.join(".bench_build", "encodesat_examples", "encodesat_cli"),
           "--benchmark", str(ROOT / "BENCHMARK.json"),
           "--out", ".bench_build",
           "--fingerprints", str(HERE / "fingerprints.txt")]
    if a.inputs_only:
        cmd.append("--inputs-only")
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
