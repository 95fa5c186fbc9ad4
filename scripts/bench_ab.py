#!/usr/bin/env python3
"""A/B-compares the serving benchmark between two checkouts.

    python3 scripts/bench_ab.py BASE HEAD --workloads lookup_zipf \\
        --seeds 1 2 3 --seconds 20 --pairs 5

BASE and HEAD are checkout directories (e.g. a `git archive` of the parent
commit and the working tree). For every pair, workload and seed the script
runs `servebench/run.py` once from each checkout, alternating which one goes
first, so a change in the host's speed lands on both sides. Each run
builds its own checkout's benchmark first (incrementally after the first
run). It then prints, per workload and end-to-end metric, the median and
quartiles of each side, the median change, on how many pairs HEAD was
better, and a verdict against each metric's bound in HEAD's BENCHMARK.json:
"clear gain" (HEAD wins at least 9 of 10 pairs and its median beats BASE's
by more than BASE's interquartile range), "REGRESSED" (HEAD's median is
worse by more than the bound) or "unresolved" (BASE's own spread exceeds
the bound).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN_TIMEOUT_S = 1800  # the first run of a checkout also builds it


def load_metrics(checkout):
    """Metric name -> (better, bound) from the checkout's BENCHMARK.json.

    `better` is "lower" or "higher"; `bound` is the fraction by which the
    metric may worsen before a change counts as a regression (None if the
    file gives none, as for the per-layer metrics of a traced run).
    """
    path = os.path.join(checkout, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: (m["better"], m.get("bound"))
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def compare(base, head, higher, bound):
    """One row: quartiles of each side, HEAD's wins, and the verdict.

    "clear gain": HEAD wins at least 9 of 10 pairs and its median beats
    BASE's by more than BASE's interquartile range. "unresolved": BASE's
    own spread (IQR over median) exceeds the bound, so a regression of the
    bound's size could not be told from noise, unless every HEAD run beats
    every BASE run. "REGRESSED": HEAD's median is worse than BASE's by
    more than the bound. "" when there is nothing to say.
    """
    b1, bm, b3 = quartiles(base)
    h1, hm, h3 = quartiles(head)
    wins = sum((h > b) if higher else (h < b) for b, h in zip(base, head))
    gain = (hm - bm) if higher else (bm - hm)
    note = ""
    if wins * 10 >= 9 * len(base) and gain > (b3 - b1):
        note = "clear gain"
    elif bound is not None and bm != 0:
        all_better = ((min(head) > max(base)) if higher
                      else (max(head) < min(base)))
        if (b3 - b1) / abs(bm) > bound and not all_better:
            note = "unresolved"
        elif -gain / abs(bm) > bound:
            note = "REGRESSED"
    return (b1, bm, b3), (h1, hm, h3), wins, note


def run_once(checkout, workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(checkout, "servebench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(done.stderr[-4000:])
        raise SystemExit(f"bench_ab: {workload} seed {seed} failed in "
                         f"{checkout} (exit {done.returncode})")
    result = json.loads(lines[-1])
    if not result.get("correct", False):
        raise SystemExit(f"bench_ab: {workload} seed {seed} in {checkout} "
                         "reported incorrect answers")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="checkout of the baseline")
    parser.add_argument("head", help="checkout of the change")
    parser.add_argument("--workloads", nargs="+", default=["lookup_zipf"])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--pairs", type=int, default=5,
                        help="runs per side for each workload and seed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json-out", help="also write every run here")
    args = parser.parse_args()
    checkouts = {"base": os.path.abspath(args.base),
                 "head": os.path.abspath(args.head)}
    for side, path in checkouts.items():
        if not os.path.isfile(os.path.join(path, "servebench", "run.py")):
            parser.error(f"{side} {path} has no servebench/run.py")
    metrics = load_metrics(checkouts["head"])

    # runs[workload] = list of (seed, base metrics, head metrics)
    runs = {w: [] for w in args.workloads}
    for pair in range(args.pairs):
        for workload in args.workloads:
            for seed in args.seeds:
                order = ("base", "head") if pair % 2 == 0 else ("head", "base")
                got = {}
                for side in order:
                    got[side] = run_once(checkouts[side], workload, seed,
                                         args.seconds, args.trace)
                runs[workload].append((seed, got["base"], got["head"]))
                # A traced run reports the per-layer metrics instead.
                shown = ("latency_p50_ms" if not args.trace
                         else "interpret.miss_self_ms")
                print(f"pair {pair + 1}/{args.pairs} {workload} seed {seed}: "
                      f"{shown} {got['base'].get(shown)} "
                      f"-> {got['head'].get(shown)}",
                      file=sys.stderr, flush=True)

    for workload, rows in runs.items():
        print(f"== {workload}: {len(rows)} pairs "
              f"(seeds {' '.join(map(str, args.seeds))}, {args.seconds} s)")
        print(f"  {'metric':<20} {'base median [q1, q3]':>30} "
              f"{'head median [q1, q3]':>30} {'change':>8} {'head wins':>10}")
        for name in rows[0][1]:
            base = [r[1][name] for r in rows]
            head = [r[2][name] for r in rows]
            better, bound = metrics.get(name, ("lower", None))
            (b1, bm, b3), (h1, hm, h3), wins, note = compare(
                base, head, better == "higher", bound)
            change = (hm - bm) / bm * 100.0 if bm else 0.0
            print(f"  {name:<20} {bm:>12.6g} [{b1:.6g}, {b3:.6g}]"
                  f"{'':>2} {hm:>12.6g} [{h1:.6g}, {h3:.6g}]"
                  f"{'':>2} {change:>+7.1f}% {wins:>5}/{len(rows)}"
                  f"{'  ' + note if note else ''}")

    if args.json_out:
        with open(args.json_out, "w") as f:
            json.dump({w: [{"seed": s, "base": b, "head": h}
                           for s, b, h in rows]
                       for w, rows in runs.items()}, f, indent=1)


if __name__ == "__main__":
    main()
