"""Compare two checkouts (or one with itself) on the benchmark.

Usage (from the repository root)::

    python3 perfbench/compare.py --old ../parent --new . --seeds 1-10
    python3 perfbench/compare.py --runs perfbench/out/compare-<stamp>.jsonl

For every workload and seed it runs ``perfbench/run.py --trace 0`` once
in each checkout, alternating which side goes first, and saves every
result line to ``perfbench/out/compare-<stamp>.jsonl``.  ``--runs``
re-reads such a file instead of running anything.

For every (end-to-end metric × workload) pair it reports each side's
median and quartiles and a verdict, using the bounds in
``BENCHMARK.json``:

* ``worse``      the new median is worse than the old by more than the bound;
* ``unresolved`` a side's spread (quartile distance over median) exceeds
  the bound, unless every new run reads better than every old run;
* ``within``     otherwise.

``steady`` marks a pair whose spreads are both below a third of the
bound.  Every run uses ``BENCHMARK.json``'s ``run_seconds`` and
workloads.  The exit code is 0 only when every pair is ``within``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(checkout: str, workload: str, seed: int, seconds: int) -> Dict[str, object]:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(command)} exited {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(old: Sequence[float], new: Sequence[float], better: str, bound: float) -> Dict[str, object]:
    """One (metric × workload) pair under the noise-aware rule."""
    old_q = quartiles(old)
    new_q = quartiles(new)
    old_spread = (old_q[2] - old_q[0]) / old_q[1]
    new_spread = (new_q[2] - new_q[0]) / new_q[1]
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (new_q[1] - old_q[1]) / old_q[1]
    all_better = all(sign * (n - o) < 0 for n in new for o in old)
    if max(old_spread, new_spread) > bound and not all_better:
        status = "unresolved"
    elif worse_by > bound:
        status = "worse"
    else:
        status = "within"
    return {
        "old": {"median": old_q[1], "q1": old_q[0], "q3": old_q[2], "spread": old_spread},
        "new": {"median": new_q[1], "q1": new_q[0], "q3": new_q[2], "spread": new_spread},
        "worse_by": worse_by,
        "bound": bound,
        "status": status,
        "steady": old_spread < bound / 3 and new_spread < bound / 3,
    }


def analyse(runs: List[Dict[str, object]], benchmark: Dict[str, object]) -> List[Dict[str, object]]:
    rows = []
    for workload in [w["name"] for w in benchmark["workloads"]]:
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            values = {side: [r["result"]["metrics"][name]["value"] for r in runs
                             if r["workload"] == workload and r["side"] == side]
                      for side in ("old", "new")}
            if not values["old"] or not values["new"]:
                continue
            row = verdict(values["old"], values["new"], metric["better"], metric["bound"])
            row.update(workload=workload, metric=name, runs=len(values["old"]))
            rows.append(row)
    return rows


def print_rows(rows: List[Dict[str, object]]) -> None:
    print(f"{'workload':10s} {'metric':12s} {'old median [q1, q3]':>32s} {'new median [q1, q3]':>32s}"
          f" {'spread':>13s} {'worse_by':>9s} {'bound':>6s}  verdict")
    for row in rows:
        old, new = row["old"], row["new"]
        print(f"{row['workload']:10s} {row['metric']:12s}"
              f" {old['median']:12.4f} [{old['q1']:8.3f}, {old['q3']:8.3f}]"
              f" {new['median']:12.4f} [{new['q1']:8.3f}, {new['q3']:8.3f}]"
              f" {old['spread']:6.3f}/{new['spread']:6.3f} {row['worse_by']:+9.4f} {row['bound']:6.3f}"
              f"  {row['status']}{' steady' if row['steady'] else ''}")


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description="Same-code or parent/child benchmark comparison.")
    parser.add_argument("--old", default=ROOT, help="checkout measured as the baseline")
    parser.add_argument("--new", default=ROOT, help="checkout measured as the change")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--runs", help="analyse a saved compare-*.jsonl instead of running")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    if args.runs:
        with open(args.runs, encoding="utf-8") as handle:
            runs = [json.loads(line) for line in handle if line.strip()]
    else:
        workloads = [w["name"] for w in benchmark["workloads"]]
        seconds = benchmark["run_seconds"]
        os.makedirs(OUT_DIR, exist_ok=True)
        stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%SZ")
        path = os.path.join(OUT_DIR, f"compare-{stamp}.jsonl")
        sides = {"old": os.path.abspath(args.old), "new": os.path.abspath(args.new)}
        runs = []
        with open(path, "w", encoding="utf-8") as handle:
            for workload in workloads:
                for position, seed in enumerate(parse_seeds(args.seeds)):
                    order = ("old", "new") if position % 2 == 0 else ("new", "old")
                    for side in order:
                        result = run_once(sides[side], workload, seed, seconds)
                        entry = {"workload": workload, "seed": seed, "side": side,
                                 "checkout": sides[side], "result": result}
                        runs.append(entry)
                        handle.write(json.dumps(entry) + "\n")
                        handle.flush()
                        print(f"{workload} seed {seed} {side}: "
                              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                              flush=True)
        print(f"runs saved to {os.path.relpath(path, ROOT)}")
    rows = analyse(runs, benchmark)
    print_rows(rows)
    return 0 if all(row["status"] == "within" for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
