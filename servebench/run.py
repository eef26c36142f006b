#!/usr/bin/env python3
"""Serving benchmark entry point.

Builds the servebench program from the checkout's sources (an optimized,
uninstrumented CMake build under .bench_build/) and runs one workload:

    python3 servebench/run.py --workload hit_heavy --seed 1 --seconds 40 --trace 0

Run it from the root of the checkout.  Build output goes to stderr; the
program's report goes to stdout, whose last line is the JSON result.  The
exit code is the program's: 0 when every hit list was correct, non-zero on
a wrong hit list, a failed build or a missing source tree.
"""

import argparse
import os
import subprocess
import sys
import zlib
from pathlib import Path

ROOT = Path.cwd()
BUILD = ROOT / ".bench_build"
OUT = BUILD / "servebench-out"
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures once, then rebuilds the program; False on any failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "servebench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "servebench",
                  "-j", jobs])
    for step in steps:
        status = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if status.returncode:
            log("build step failed: " + " ".join(step))
            return False
    return True


def source_digest():
    """CRC32 over the sources the program is built from (path + bytes)."""
    crc = 0
    for top in ("include", "src", "servebench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                crc = zlib.crc32(str(path.relative_to(ROOT)).encode(), crc)
                crc = zlib.crc32(path.read_bytes(), crc)
    return f"{crc:08x}"


def commit():
    """HEAD of the checkout when it is a git work tree, read from .git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["scan_bound", "hit_heavy", "swap_churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        return 3
    OUT.mkdir(parents=True, exist_ok=True)
    command = [str(BUILD / "servebench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", str(OUT),
               "--stamp", "commit=" + commit(),
               "--stamp", "source_crc32=" + source_digest()]
    with subprocess.Popen(command, stdout=sys.stdout,
                          stderr=sys.stderr) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            log(f"servebench did not finish within {RUN_TIMEOUT_S} s")
            return 4


if __name__ == "__main__":
    sys.exit(main())
