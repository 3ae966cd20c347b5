"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads fit-broad,...] [--trace 0]

For every workload and metric it prints the median and the quartile
distance as a share of the median, next to the metric's bound from
BENCHMARK.json, and the failed share of operations.  Runs go one after
another, so they do not compete for the cores.  This is how the reference
figures in README.md were made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    for workload in args.workloads.split(","):
        values, failed, attempted = {}, 0, 0
        for seed in args.seeds:
            cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                           "--seconds", str(spec["run_seconds"]),
                                           "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: outputs are not correct", file=sys.stderr)
            failed += result["failed"]
            attempted += result["attempted"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), file=sys.stderr)
        print(f"{workload}: {len(args.seeds)} seeds, failed {failed} of {attempted} operations")
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
            share = (q3 - q1) / median if median else float("nan")
            print(f"  {name:28s} median {median:12.5g}  quartile spread {share:7.2%}"
                  f"  bound {bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
