#!/usr/bin/env python3
"""Builds mlck_bench from this checkout and runs one workload once.

    python3 bench/suite/run.py --workload NAME --seed N --seconds T --trace 0|1

The build tree is $CARGO_TARGET_DIR/suite (default .bench_build/suite),
relative to the checkout root. Build output and the benchmark's own
report go to stderr; the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from the traced replay. Exits non-zero, without a result
line, when the build fails (for instance when the checkout holds only the
benchmark), and 1, after the result line, when an answer was wrong.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ["served_cold_mix", "served_warm_zipf", "served_churn",
             "local_direct"]


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "mlck_bench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build", "suite")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 3

    out = os.path.join(build_dir, f"result_{args.workload}.json")
    command = [os.path.join(build_dir, "mlck_bench"),
               f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--out={out}"]
    if args.trace:
        command.append("--trace=" + os.path.join(build_dir, "spans.jsonl"))
    if os.path.exists(out):
        os.remove(out)
    # The daemon's socket is created in the working directory.
    status = subprocess.run(command, cwd=build_dir,
                            stdout=sys.stderr).returncode
    if not os.path.exists(out):
        print(f"run.py: mlck_bench exited {status} without a result",
              file=sys.stderr)
        return status or 1

    with open(out) as f:
        result = json.load(f)["runs"][0]["workloads"][args.workload]
    metrics = result["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": result["correct"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in sorted(metrics.items())},
    }))
    return status


if __name__ == "__main__":
    sys.exit(main())
