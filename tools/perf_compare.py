#!/usr/bin/env python3
"""Compares the repository benchmark of two source trees on one machine.

    python3 tools/perf_compare.py <base-tree> <head-tree>

Each tree is built by its own perfbench/run.py into its own
CARGO_TARGET_DIR (<tree>/.bench_build). Every workload that the head
tree's BENCHMARK.json lists then runs at its pinned seed (perfbench's
default when --seed is omitted) for RUN_SECONDS, untraced, in PAIRS pairs.
Within a pair the two sides run back to back, and the side that runs first
switches every pair, so slow drift in the machine's speed lands on both
sides alike.

The comparison fails (exit 1) if any run, on either side, does not end
with a result line saying correct: true and failed: 0, or if the head's
median of an end_to_end metric is worse than the base's by more than that
metric's bound in BENCHMARK.json. It prints each side's median,
quartiles and runs per workload and metric.

Ten pairs, because a shared machine's slow phases can last minutes: at
five pairs, three slow runs on one side moved a median past the bound
when a tree was compared with an identical copy of itself.
"""
import json
import os
import statistics
import subprocess
import sys

PAIRS = 10
RUN_SECONDS = 1


def fail(msg):
    print("perf_compare: " + msg, file=sys.stderr)
    sys.exit(1)


def run_bench(tree, command, args):
    """Runs the benchmark command in `tree`; returns its stdout."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    proc = subprocess.run(command + args, cwd=tree, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("%s: %s exited with %d" % (tree, " ".join(args), proc.returncode))
    return proc.stdout


def run_workload(tree, command, workload):
    """One untraced run; returns its metric values by name."""
    out = run_bench(tree, command, ["--workload", workload, "--seconds",
                                    str(RUN_SECONDS), "--trace", "0"])
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("%s: %s printed no result line" % (tree, workload))
    if result.get("correct") is not True or result.get("failed") != 0:
        fail("%s: %s is not correct: %s" % (tree, workload, lines[-1]))
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv):
    if len(argv) != 2:
        fail("usage: perf_compare.py <base-tree> <head-tree>")
    trees = {"base": os.path.abspath(argv[0]), "head": os.path.abspath(argv[1])}
    with open(os.path.join(trees["head"], "BENCHMARK.json")) as f:
        spec = json.load(f)
    command = spec["command"]
    workloads = [w["name"] for w in spec["workloads"]]

    for side, tree in trees.items():
        print("building %s (%s)" % (side, tree), flush=True)
        run_bench(tree, command, ["--selftest"])

    # runs[workload][side][metric] -> one value per pair
    runs = {w: {side: {} for side in trees} for w in workloads}
    for pair in range(PAIRS):
        order = ["base", "head"] if pair % 2 == 0 else ["head", "base"]
        for w in workloads:
            for side in order:
                values = run_workload(trees[side], command, w)
                for name, v in values.items():
                    runs[w][side].setdefault(name, []).append(v)
            print("pair %d/%d %s done (%s first)" % (pair + 1, PAIRS, w,
                                                     order[0]), flush=True)

    worse = []
    for w in workloads:
        for metric in spec["end_to_end"]:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            # (q1, median, q3) of each side's runs
            base_q = statistics.quantiles(runs[w]["base"][name], n=4,
                                          method="inclusive")
            head_q = statistics.quantiles(runs[w]["head"][name], n=4,
                                          method="inclusive")
            ratio = head_q[1] / base_q[1]
            if better == "higher":
                bad = ratio < 1.0 - bound
            else:
                bad = ratio > 1.0 + bound
            print("%s %s: head/base %.3f (%s is better, bound %g)%s" % (
                w, name, ratio, better, bound, "  WORSE" if bad else ""))
            for side, q in (("base", base_q), ("head", head_q)):
                print("  %s median %.6g [q1 %.6g, q3 %.6g]  runs %s" % (
                    side, q[1], q[0], q[2],
                    " ".join("%.6g" % v for v in runs[w][side][name])))
            if bad:
                worse.append("%s %s" % (w, name))
    if worse:
        fail("head is worse than base beyond the bound: " + ", ".join(worse))
    print("perf_compare: head within every bound of base")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
