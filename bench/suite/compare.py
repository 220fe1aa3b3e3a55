#!/usr/bin/env python3
"""Compares mlck_bench artifacts of a parent commit and a change.

    python3 bench/suite/compare.py --parent p1.json p2.json ... \\
        --change c1.json c2.json ... [--claim WORKLOAD:METRIC] \\
        [--bench BENCHMARK.json]

Each file is a BENCH_suite.json written by mlck_bench; a file made with
--repeat holds several runs. Runs pair up in order: the i-th parent run
with the i-th change run, which should share a seed and have been run
back to back, alternating which side ran first.

The claim, if given, is judged by the rule for a gain: at least ten
pairs, the change wins at least 9 in 10 of them (ties count for
neither), and the medians differ, in the better direction, by more than
the distance between the parent's quartiles.

Every other end-to-end metric of every workload is checked against its
bound in BENCHMARK.json: the change's median may be worse than the
parent's by at most the bound. Where the parent's own quartile spread is
wider than the bound the pair is "unresolved", unless every change run
beats every parent run. One row per workload. Exits 1 when the claim
fails or a metric regressed. Standard library only.
"""

import argparse
import json
import os
import statistics
import sys

DEFAULT_BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "..", "..", "BENCHMARK.json")


def load_runs(paths):
    """{workload: {metric: [value per run]}} over every run of the files."""
    runs = {}
    for path in paths:
        with open(path) as f:
            artifact = json.load(f)
        for run in artifact["runs"]:
            for workload, doc in run["workloads"].items():
                for name, m in doc["end_to_end"].items():
                    runs.setdefault(workload, {}).setdefault(name, []).append(
                        m["value"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    """True when a reads better than b."""
    return a < b if direction == "lower" else a > b


def judge_claim(parent, change, direction):
    pairs = min(len(parent), len(change))
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent[:pairs])
    _, cm, _ = quartiles(change[:pairs])
    holds = (pairs >= 10 and wins >= 0.9 * pairs and
             better(cm, pm, direction) and abs(cm - pm) > p3 - p1)
    verdict = "GAIN" if holds else "NOT MET"
    return holds, (f"{verdict} wins {wins}/{pairs}, median {pm:.6g} -> "
                   f"{cm:.6g}, parent IQR {p3 - p1:.6g}")


def judge_bound(parent, change, direction, bound):
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    worse = (cm - pm) / pm if direction == "lower" else (pm - cm) / pm
    text = f"{abs(worse):.1%} {'worse' if worse > 0 else 'better'}"
    if (p3 - p1) / pm > bound:
        if all(better(c, p, direction) for c in change for p in parent):
            return True, f"better, every run ({text})"
        return True, (f"unresolved, {text} (parent spread "
                      f"{(p3 - p1) / pm:.1%})")
    if worse > bound:
        return False, f"REGRESSED, {text} (bound {bound:.0%})"
    return True, f"ok, {text}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--claim", help="WORKLOAD:METRIC that should improve")
    parser.add_argument("--bench", default=DEFAULT_BENCH)
    args = parser.parse_args()

    with open(args.bench) as f:
        metrics = {m["name"]: m for m in json.load(f)["end_to_end"]}
    parent = load_runs(args.parent)
    change = load_runs(args.change)
    claim = tuple(args.claim.split(":", 1)) if args.claim else None

    ok = True
    claim_seen = claim is None
    for workload in sorted(set(parent) & set(change)):
        cells = []
        for name, spec in metrics.items():
            p = parent[workload].get(name)
            c = change[workload].get(name)
            if not p or not c:
                continue
            if (workload, name) == claim:
                claim_seen = True
                holds, text = judge_claim(p, c, spec["better"])
            else:
                holds, text = judge_bound(p, c, spec["better"], spec["bound"])
            ok = ok and holds
            cells.append(f"{name}: {text}")
        pairs = min(len(next(iter(parent[workload].values()))),
                    len(next(iter(change[workload].values()))))
        print(f"{workload} ({pairs} pairs)  " + "  |  ".join(cells))
    if not claim_seen:
        print(f"claim {args.claim}: no such workload and metric in both sides")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
