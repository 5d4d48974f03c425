"""Compare two sets of result files, metric by metric, against the bounds.

    PYTHONPATH=src python -m benchmarks.e2e.compare --a a1.json a2.json ... --b b1.json b2.json ...

Each file is one ``python -m benchmarks.e2e --output FILE`` run.  For every
workload x end-to-end metric this prints both sets' median, quartiles and
(max - min) / median spread, and whether the medians agree within the
bound ``BENCHMARK.json`` declares for the metric.  Exit status is non-zero
when a pair of medians disagrees or any spread exceeds
:data:`MAX_SPREAD` — run on two sets from one commit, that is the A/A
acceptance check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

from benchmarks.e2e.harness import spread

BENCHMARK_FILE = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MAX_SPREAD = 0.10


def load(paths: Sequence[str]) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [value per file]}}`` of the e2e results."""
    values: Dict[str, Dict[str, List[float]]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            results = json.load(handle)["results"]
        for workload, entry in results.items():
            for metric, reading in entry["e2e"]["metrics"].items():
                values.setdefault(workload, {}).setdefault(
                    metric, []).append(reading["value"])
    return values


def summarize(values: Sequence[float]) -> Dict[str, float]:
    median = statistics.median(values)
    low, _, high = (statistics.quantiles(values, n=4) if len(values) > 1
                    else (median, median, median))
    return {"median": median, "q1": low, "q3": high, "spread": spread(values)}


def compare(first, second, metrics: Sequence[dict]) -> List[dict]:
    """One row per workload x metric present in both sets."""
    rows = []
    for workload in first:
        for metric in metrics:
            name = metric["name"]
            if name not in first[workload] \
                    or name not in second.get(workload, {}):
                continue
            a = summarize(first[workload][name])
            b = summarize(second[workload][name])
            # Same commit on both sides: neither may be worse than the
            # other by more than the bound.
            shift = abs(b["median"] - a["median"]) / a["median"] \
                if a["median"] else 0.0
            rows.append({
                "workload": workload, "metric": name, "a": a, "b": b,
                "shift": shift, "bound": metric["bound"],
                "agree": shift <= metric["bound"],
                "steady": max(a["spread"], b["spread"]) <= MAX_SPREAD})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--a", nargs="+", required=True, metavar="FILE")
    parser.add_argument("--b", nargs="+", required=True, metavar="FILE")
    args = parser.parse_args(argv)

    with open(BENCHMARK_FILE, encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    rows = compare(load(args.a), load(args.b), metrics)
    if not rows:
        print("no workload x metric in common", file=sys.stderr)
        return 1
    print(f"{'workload':<14} {'metric':<19} "
          f"{'A median [q1, q3] spread':<42} "
          f"{'B median [q1, q3] spread':<42} shift  bound")
    for row in rows:
        cells = ["{median:.5g} [{q1:.5g}, {q3:.5g}] {spread:.3f}".format(
            **row[side]) for side in ("a", "b")]
        verdict = ("ok" if row["agree"] else "DISAGREE") \
            + ("" if row["steady"] else " SPREAD")
        print(f"{row['workload']:<14} {row['metric']:<19} "
              f"{cells[0]:<42} {cells[1]:<42} "
              f"{row['shift']:.3f}  {row['bound']:.3f}  {verdict}")
    return 0 if all(row["agree"] and row["steady"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
