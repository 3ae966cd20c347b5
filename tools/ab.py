"""Compare the benchmark's end-to-end metrics of a base commit and this tree in alternating pairs.

    python3 tools/ab.py --base REF [--workloads W,...] [--pairs N] [--seeds S,...] [--out AB.json]

Copies REF with ``git archive`` into a temporary directory, and runs the
command that BENCHMARK.json names (``python3 perfbench/run.py``), unchanged,
with ``--trace 0`` in that copy and in this tree, as it stands on disk.  Each
workload runs ``--pairs`` pairs, by default 10; pair i runs seed
``S[i % len(S)]`` on both sides, by default seed i + 1, and the base goes
first in even pairs and this tree in odd ones.  Per workload and end-to-end
metric the tool prints the base's median and quartiles, this tree's median,
and the pairs in which this tree read lower, and writes the same with every
value to ``--out``, by default ``ab.json``.  Compare trees only on one
machine, and only through pairs run together.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_history import ROOT, machine, run_perfbench  # noqa: E402

SIDES = ("base", "change")


def archive(ref: str, into: Path) -> None:
    """Write the files of commit ``ref`` of this repository into ``into``."""
    data = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref],
                          stdout=subprocess.PIPE, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(into, filter="data")


def run_side(tree: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One end-to-end benchmark run in ``tree``; its result line, parsed."""
    return run_perfbench(command, workload, seed, seconds, 0, cwd=tree)


def summarize(lines: dict, bench: dict) -> dict:
    """Per metric, both medians, the base's quartiles and the pairs that read lower.

    ``lines[side]`` holds one result line per pair, in pair order.
    """
    entry = {side: {"attempted": sum(line["attempted"] for line in lines[side]),
                    "failed": sum(line["failed"] for line in lines[side]),
                    "correct": all(line["correct"] for line in lines[side])}
             for side in SIDES}
    entry["metrics"] = {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = {side: [line["metrics"][name]["value"] for line in lines[side]]
                  for side in SIDES}
        q1, _, q3 = statistics.quantiles(values["base"], n=4, method="inclusive")
        entry["metrics"][name] = {
            "unit": metric["unit"],
            "base_median": statistics.median(values["base"]),
            "change_median": statistics.median(values["change"]),
            "base_quartiles": [q1, q3],
            "lower_in": sum(c < b for b, c in zip(values["base"], values["change"])),
            "values": values,
        }
    return entry


def main(argv=None, run=run_side, copy=archive) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the commit to compare with")
    parser.add_argument("--workloads", help="comma-separated workloads, by default all")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload, 2 at least")
    parser.add_argument("--seeds", help="comma-separated seeds, taken in turn by the pairs")
    parser.add_argument("--out", type=Path, default=Path("ab.json"), help="JSON file to write")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in bench["workloads"]]
    workloads = known if args.workloads is None else args.workloads.split(",")
    if any(w not in known for w in workloads):
        parser.error(f"--workloads must name workloads of {', '.join(known)}")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, so that the base has quartiles")
    try:
        seeds = (list(range(1, args.pairs + 1)) if args.seeds is None
                 else [int(s) for s in args.seeds.split(",")])
    except ValueError:
        parser.error("--seeds must be comma-separated integers")

    record = {"base": args.base, "machine": machine(), "command": bench["command"],
              "run_seconds": bench["run_seconds"], "pairs": args.pairs, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"base": Path(tmp), "change": ROOT}
        copy(args.base, trees["base"])
        for workload in workloads:
            lines = {side: [] for side in SIDES}
            for i in range(args.pairs):
                seed = seeds[i % len(seeds)]
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    print(f"[ab] {workload} pair {i + 1} seed {seed} {side}", file=sys.stderr,
                          flush=True)
                    lines[side].append(run(trees[side], bench["command"], workload, seed,
                                           bench["run_seconds"]))
            record["workloads"][workload] = entry = summarize(lines, bench)
            for name, m in entry["metrics"].items():
                q1, q3 = m["base_quartiles"]
                print(f"{workload} {name}: base {m['base_median']:.4g} {m['unit']} "
                      f"(quartiles {q1:.4g}-{q3:.4g}), change {m['change_median']:.4g}, "
                      f"lower in {m['lower_in']} of {args.pairs}")
            print(f"{workload} failed: base {entry['base']['failed']}, "
                  f"change {entry['change']['failed']}; correct: base "
                  f"{entry['base']['correct']}, change {entry['change']['correct']}")
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
