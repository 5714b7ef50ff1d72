"""Run the benchmark of two checkouts in alternating pairs and compare them.

    python3 tools/bench_pairs.py PARENT CHANGE --workload classify_fp --pairs 10 --seed 3

PARENT and CHANGE are two checkouts of this repository.  Each pair runs
``python3 perfbench/run.py`` once in each checkout, with the same
arguments; even pairs run the parent first and odd pairs the change first,
so a drift in the machine's speed favours neither side.  Only the last
line of a run's stdout is read: the JSON object with its metrics.

For every metric the summary gives the median and quartiles of each side,
the pairs the change won (by the ``better`` direction that BENCHMARK.json
in CHANGE states for the metric), and the parent's quartile distance.  A
gain holds when at least ten pairs ran, the change wins at least nine
tenths of them and the medians differ in its favour by more than that
distance, and no larger share of the change's operations fails (failed over attempted, summed over
its runs).  A metric regresses when the change's median is worse than the
parent's by more than the metric's ``bound`` in BENCHMARK.json, a share of
the parent's median; metrics without a bound get no verdict.  A bounded
metric that does not regress is unresolved when either side's quartile
distance exceeds that share, unless every run of the change beats every
run of the parent: the runs then spread too widely to call it unchanged.
Every run
has perfbench's own fixed length, untraced.  The raw
results of every run go to stderr as they arrive, one JSON line each.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, args) -> dict:
    """One benchmark run in checkout: its metrics as {name: value}, plus
    the attempted and failed operation counts."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed",
           str(args.seed)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return dict(values, attempted=result["attempted"], failed=result["failed"])


def metric_specs(checkout: Path) -> tuple:
    """From BENCHMARK.json in checkout: ({metric: "lower" or "higher"},
    {metric: bound}), the bounds of the metrics that state one."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"] + spec["per_layer"]
    better = {m["name"]: m["better"] for m in metrics}
    return better, {m["name"]: m["bound"] for m in metrics if "bound" in m}


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def failed_share(runs: list) -> float:
    """Failed operations over attempted ones, summed over runs (0 if none)."""
    attempted = sum(run.get("attempted", 0) for run in runs)
    return sum(run.get("failed", 0) for run in runs) / attempted if attempted else 0.0


def summarize(parent: list, change: list, better: dict, bounds: dict | None = None) -> list:
    """One row per metric that both sides report, runs given in pair order.

    A pair is a win when the change is strictly better; a metric without a
    direction gets no wins and no gain, and no metric gains on fewer than
    ten pairs or when a larger share of the change's operations fails.  A metric with a direction and
    a bound regresses when the change's median is worse than the parent's
    by more than bound times the parent's median, and one that does not is
    unresolved when either side's quartile distance exceeds that margin,
    unless every change run beats every parent run."""
    bounds = bounds or {}
    more_failures = failed_share(change) > failed_share(parent)
    rows = []
    for name in parent[0]:
        if name not in change[0]:
            continue
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        p_q1, p_med, p_q3 = quartiles(p)
        c_q1, c_med, c_q3 = quartiles(c)
        direction = better.get(name)
        wins = gain = regression = unresolved = None
        if direction is not None:
            sign = 1 if direction == "higher" else -1
            wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
            gain = (len(p) >= 10 and wins >= 0.9 * len(p)
                    and sign * (c_med - p_med) > p_q3 - p_q1 and not more_failures)
            if name in bounds:
                margin = bounds[name] * abs(p_med)
                regression = sign * (p_med - c_med) > margin
                if not regression:
                    unresolved = (max(p_q3 - p_q1, c_q3 - c_q1) > margin
                                  and not all(sign * (b - a) > 0 for a in p for b in c))
        rows.append({
            "metric": name, "pairs": len(p), "parent": (p_q1, p_med, p_q3),
            "change": (c_q1, c_med, c_q3), "wins": wins, "parent_iqr": p_q3 - p_q1,
            "gain": gain, "regression": regression, "unresolved": unresolved,
        })
    return rows


def format_summary(rows: list) -> str:
    lines = ["metric: parent median (q1-q3) -> change median (q1-q3), wins, parent iqr, gain, "
             "regression"]
    for row in rows:
        (pq1, pm, pq3), (cq1, cm, cq3) = row["parent"], row["change"]
        wins = "-" if row["wins"] is None else f"{row['wins']}/{row['pairs']}"
        gain, regression = ("-" if row[key] is None else ("yes" if row[key] else "no")
                            for key in ("gain", "regression"))
        if row["unresolved"]:
            regression += " (unresolved)"
        lines.append(
            f"{row['metric']}: {pm:.6g} ({pq1:.6g}-{pq3:.6g}) -> {cm:.6g} ({cq1:.6g}-{cq3:.6g}), "
            f"wins {wins}, parent iqr {row['parent_iqr']:.6g}, gain {gain}, "
            f"regression {regression}"
        )
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    runs = {"parent": [], "change": []}
    for k in range(args.pairs):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            result = run_once(getattr(args, side), args)
            runs[side].append(result)
            print(json.dumps({"pair": k, "side": side, **result}), file=sys.stderr, flush=True)
    rows = summarize(runs["parent"], runs["change"], *metric_specs(args.change))
    sys.stdout.write(format_summary(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
