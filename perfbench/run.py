#!/usr/bin/env python3
"""Build and run the vulcan host-time benchmark.

    python3 perfbench/run.py --workload dilemma|fleet|paper --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout. The first call configures and
builds perfbench/ (which compiles ../src) under .bench_build/perfbench, or
under $CARGO_TARGET_DIR/perfbench when that is set; later calls only
rebuild what changed. The program's human-readable report goes to standard
output, build logs and failures to standard error, and the last line of
standard output is the result object: correct, attempted, failed and
metrics. With --trace 0 the metrics are BENCHMARK.json's end_to_end list,
with --trace 1 its per_layer list; a result missing any of them, or
carrying others, is an error. Traced runs also write their spans, one JSON
object per line, next to the build.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dilemma", "fleet", "paper")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return out / "perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    # Turn SIGTERM into an exception so subprocess.run kills and reaps the
    # build or benchmark process it is waiting on before we exit.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out",
                str(out / f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"perfbench exited with code {proc.returncode}")

    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"last line is not a result object: {e}")
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        fail("result object must have exactly the keys "
             + ", ".join(sorted(RESULT_KEYS)))
    names = set(result["metrics"])
    expected = expected_metrics(args.trace)
    if names != expected:
        fail(f"metrics missing {sorted(expected - names)}, "
             f"unexpected {sorted(names - expected)}")

    print(proc.stdout, end="")


if __name__ == "__main__":
    main()
