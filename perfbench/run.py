#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload rx_stream --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The simulator is built from source into
.bench_build/perfbench; the last line of standard output is the run's JSON
result. Exits non-zero when the build fails, a correctness gate fails or the
result does not match the metrics BENCHMARK.json declares.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "sud_perfbench"
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "tests" / "harness.h").is_file():
        fail(f"simulator sources not found under {ROOT} (need src/ and tests/harness.h)", 2)
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    log_path = BUILD / "build.log"
    with open(log_path, "w") as log:
        steps = [["cmake", "--build", str(BUILD), "-j", jobs, "--target", "sud_perfbench"]]
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                             "-DCMAKE_BUILD_TYPE=Release"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (see {log_path})", 3)


def declared_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the Figure 8 anchor test, the determinism self-check and "
                             "the sealed_tx_long_run test (a known failure, see README.md)")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    build()
    if args.selftest:
        sys.exit(subprocess.run([str(BINARY), "--selftest", "all"], timeout=600).returncode)

    command = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = BUILD / "traces"
        trace_dir.mkdir(exist_ok=True)
        command += ["--trace-out", str(trace_dir / f"{args.workload}.spans.csv")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"no output (exit code {proc.returncode})")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"last line is not JSON: {lines[-1]!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    expected = declared_metrics(args.trace)
    if expected is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            units = sorted(n for n in got if n in expected and got[n] != expected[n])
            fail(f"metrics differ from BENCHMARK.json: missing "
                 f"{sorted(set(expected) - set(got))}, extra {sorted(set(got) - set(expected))}, "
                 f"unit mismatches {units}")
    print(lines[-1])
    sys.stdout.flush()
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(proc.returncode or 1)


if __name__ == "__main__":
    main()
