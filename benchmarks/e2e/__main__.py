"""All four workloads, each in its own fresh process; one table, one file.

    PYTHONPATH=src python -m benchmarks.e2e [--workload NAME] [--seed N] [--traced] [--quick] [--output FILE]

Runs the ``BENCHMARK.json`` command (``run.py``) once per workload with
``--trace 0`` and, with ``--traced``, once more with ``--trace 1``, echoes
what each prints and collects the result lines into ``--output``, the
file format ``compare.py`` reads.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

from benchmarks.e2e.run import NOMINAL_SECONDS, WORKLOADS

RUN = [sys.executable, str(Path(__file__).resolve().with_name("run.py"))]
QUICK_SECONDS = 1.0
COUNT = re.compile(r"(\w+)=([0-9.e+-]+)")


def run_one(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``run.py`` process: its result line plus header and counts."""
    done = subprocess.run(
        RUN + ["--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 3:
        raise RuntimeError(f"{name} --trace {trace}: exit {done.returncode}"
                           f"\n{done.stderr}")
    print("\n".join(lines[1:-1]))
    entry = json.loads(lines[-1])
    entry["header"] = json.loads(lines[0])["header"]
    entry["counts"] = {key: float(value)
                       for key, value in COUNT.findall(lines[1])}
    entry["exit"] = done.returncode
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--traced", action="store_true",
                        help="after each workload, make its traced run too")
    parser.add_argument("--quick", action="store_true",
                        help="seconds, not minutes: a smoke run whose "
                             "numbers mean nothing")
    parser.add_argument("--output", default="",
                        help="write header and results to this JSON file")
    args = parser.parse_args(argv)

    seconds = QUICK_SECONDS if args.quick else NOMINAL_SECONDS
    results = {"results": {}}
    status = 0
    for name in [args.workload] if args.workload else WORKLOADS:
        modes = {"e2e": 0, "per_layer": 1} if args.traced else {"e2e": 0}
        entries = {key: run_one(name, args.seed, seconds, trace)
                   for key, trace in modes.items()}
        for entry in entries.values():
            results["header"] = entry.pop("header")
        results["results"][name] = entries
        status |= any(entry["exit"] for entry in entries.values())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
