"""Record the benchmark's medians on this machine in one bench history file.

    python3 tools/bench_history.py BENCH_<n>.json

Runs the command that BENCHMARK.json names (``python3 perfbench/run.py``),
unchanged, for every workload on the seeds in ``SEEDS``: once with
``--trace 0`` for the end-to-end metrics and once with ``--trace 1`` for the
per-layer ones, each for the benchmark's ``run_seconds``.  The file holds a
machine line (CPU count, Python, numpy, platform) and, per workload, the
median of every metric over the seeds with the per-seed values, the
operations attempted and failed, and whether every run was correct.  Compare
a file only with one written on the same machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
TRACES = ((0, "end_to_end"), (1, "per_layer"))


def machine() -> dict:
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform()}


def run_perfbench(command: list[str], workload: str, seed: int, seconds: float,
                  trace: int, cwd: Path = ROOT) -> dict:
    """One benchmark run in the tree ``cwd``; its last stdout line, parsed."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def summarize(results: dict, seeds, bench: dict, machine_line: dict) -> dict:
    """The history record from ``results[(workload, trace)]``, one line per seed."""
    record = {"machine": machine_line, "command": bench["command"],
              "run_seconds": bench["run_seconds"], "seeds": list(seeds), "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        entry = {"attempted": 0, "failed": 0, "correct": True}
        for trace, key in TRACES:
            lines = results[(workload, trace)]
            entry[key] = {}
            for name, metric in lines[0]["metrics"].items():
                values = [line["metrics"][name]["value"] for line in lines]
                entry[key][name] = {"median": statistics.median(values),
                                    "unit": metric["unit"], "values": values}
            entry["attempted"] += sum(line["attempted"] for line in lines)
            entry["failed"] += sum(line["failed"] for line in lines)
            entry["correct"] = entry["correct"] and all(line["correct"] for line in lines)
        record["workloads"][workload] = entry
    return record


def main(argv=None, run=run_perfbench) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="file to write, BENCH_<n>.json")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = {}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, _ in TRACES:
            results[(workload, trace)] = []
            for seed in SEEDS:
                print(f"[bench_history] {workload} seed {seed} trace {trace}", file=sys.stderr,
                      flush=True)
                results[(workload, trace)].append(
                    run(bench["command"], workload, seed, bench["run_seconds"], trace))
    record = summarize(results, SEEDS, bench, machine())
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
