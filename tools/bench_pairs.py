"""Run the pipeline benchmark on two checkouts in alternating pairs.

    python tools/bench_pairs.py BASE CHANGE --workload NAME [--pairs 10]
        [--seed 1] [--seconds 55]

BASE and CHANGE are roots of full checkouts (each with ``src/``,
``pipebench/`` and ``BENCHMARK.json``); to measure another commit, unpack
it first with ``git archive <commit> | tar -x -C <dir>``. Each pair runs
``python3 pipebench/run.py --workload NAME --seed S --seconds T --trace 0``
once in each root, BASE first in even pairs and CHANGE first in odd ones,
so a drift in the host's speed falls on both sides alike.

For every end-to-end metric of BASE's ``BENCHMARK.json`` it prints each
side's per-run values, their median and quartiles, and the pairs CHANGE
won, lost and tied in the metric's better direction. A gain holds when
CHANGE wins at least nine tenths of the pairs (ties count for neither
side) and its median is better than BASE's by more than BASE's
interquartile range; a metric moves past its bound when CHANGE's median
is worse than BASE's by more than the bound's fraction (any move off a
BASE median of 0 counts as an infinite fraction). The last line is
one JSON object with every run's metrics and failure counts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys


def run_once(root, workload, seed, seconds):
    """One benchmark run in root: its last stdout line, parsed."""
    proc = subprocess.run(
        [sys.executable, "pipebench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: pipebench exited {proc.returncode}\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    """(q1, median, q3) of values, by the inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def compare(metric, base, change):
    """One metric's summary for the two sides' per-run values."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    losses = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    gain = (wins >= 0.9 * len(base)
            and sign * (cmed - bmed) > bq3 - bq1)
    if bmed:
        rel = (cmed - bmed) / bmed
    else:  # any move off a zero median is an unbounded relative change
        rel = math.copysign(math.inf, cmed) if cmed else 0.0
    return {"base": base, "change": change,
            "base_median": bmed, "base_quartiles": [bq1, bq3],
            "change_median": cmed, "change_quartiles": [cq1, cq3],
            "wins": wins, "losses": losses,
            "ties": len(base) - wins - losses,
            "median_change": rel, "gain": gain,
            "past_bound": -sign * rel > metric["bound"]}


def fmt(v):
    return f"{v:.4g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="root of the base checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(args.base, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    roots = {"base": args.base, "change": args.change}
    runs = {"base": [], "change": []}
    for i in range(args.pairs):
        for side in (("base", "change") if i % 2 == 0
                     else ("change", "base")):
            res = run_once(roots[side], args.workload, args.seed,
                           args.seconds)
            runs[side].append(res)
            value = res["metrics"].get("qat_steps_per_s", {}).get("value")
            print(f"pair {i + 1} {side}: failed {res['failed']}/"
                  f"{res['attempted']}, qat_steps_per_s {value}",
                  flush=True)
    summary = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "pairs": args.pairs,
               "failed": {s: [r["failed"] for r in runs[s]] for s in runs},
               "metrics": {}}
    for metric in metrics:
        name = metric["name"]
        vals = {s: [r["metrics"][name]["value"] for r in runs[s]]
                for s in runs}
        row = compare(metric, vals["base"], vals["change"])
        summary["metrics"][name] = row
        print(f"\n{name} ({metric['better']} is better, bound "
              f"{metric['bound']:.0%})")
        for side in runs:
            q1, q3 = row[f"{side}_quartiles"]
            print(f"  {side:<6} {' '.join(fmt(v) for v in vals[side])}")
            print(f"         median {fmt(row[f'{side}_median'])}, "
                  f"quartiles {fmt(q1)}-{fmt(q3)}")
        print(f"  change won {row['wins']}, lost {row['losses']}, tied "
              f"{row['ties']}; median {row['median_change']:+.1%}"
              f"{'; gain' if row['gain'] else ''}"
              f"{'; PAST BOUND' if row['past_bound'] else ''}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
