"""Compare the benchmark's end-to-end metrics of a base commit and this tree in alternating pairs.

    python3 tools/ab.py --base REF [--workloads W,...] [--pairs N] [--seeds S,...] [--out AB.json]
    python3 tools/ab.py --base REF --stages [--count C] [--threads T] [--pairs N] [--out AB.json]

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

``--stages`` compares the stages of a ``fit`` iteration instead.  Each side
of each pair is one fresh Python process in its tree, which runs that
tree's ``tools/stage_table.py`` ``fit_stages``: ``STAGE_ITERATIONS``
iterations of one ``fit`` at ``--threads`` from ``--count`` gaussians on the
tool's nuScenes grid, and gives each stage's median seconds over them and
their total.  Per stage the tool prints and writes the same summary as for
a metric.  At ``--threads`` N >= 2 the times are rank 0's, each with its
wait for the other ranks.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_history import ROOT, machine, run_perfbench  # noqa: E402

SIDES = ("base", "change")
STAGE_ITERATIONS = 5
# Run by ``python3 -c`` in a tree, with the count and the threads as arguments.
STAGE_SCRIPT = """
import json, statistics, sys
sys.path.insert(0, "tools")
import stage_table as st
count, threads = (int(arg) for arg in sys.argv[1:])
spec = st.GridSpec(*st.GRID_PRESETS["nuscenes"])
scene = st.random_bench_scene(count, spec, st.CLASSES, st.S_MAX, 0)
runs = st.fit_stages(scene, st.driving_truth(spec), %d, threads=threads)
times = {stage: statistics.median(run[stage] for run in runs) for stage in st.STAGES}
times["total"] = statistics.median(sum(run.values()) for run in runs)
print(json.dumps(times))
""" % STAGE_ITERATIONS


def archive(ref: str, into: Path) -> None:
    """Write the files of commit ``ref`` of this repository into ``into``."""
    data = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref],
                          stdout=subprocess.PIPE, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(into, filter="data")


def run_side(tree: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One end-to-end benchmark run in ``tree``; its result line, parsed."""
    return run_perfbench(command, workload, seed, seconds, 0, cwd=tree)


def run_stages(tree: Path, count: int, threads: int) -> dict:
    """One fresh process's median seconds per stage of a ``fit`` iteration in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    out = subprocess.run([sys.executable, "-c", STAGE_SCRIPT, str(count), str(threads)],
                         cwd=tree, env=env, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def compare(values: dict, unit: str) -> dict:
    """Both medians of ``values[side]``, one value per pair, the base's quartiles and
    the pairs in which the change read lower."""
    q1, _, q3 = statistics.quantiles(values["base"], n=4, method="inclusive")
    return {
        "unit": unit,
        "base_median": statistics.median(values["base"]),
        "change_median": statistics.median(values["change"]),
        "base_quartiles": [q1, q3],
        "lower_in": sum(c < b for b, c in zip(values["base"], values["change"])),
        "values": values,
    }


def report(label: str, m: dict, pairs: int) -> None:
    q1, q3 = m["base_quartiles"]
    print(f"{label}: base {m['base_median']:.4g} {m['unit']} (quartiles {q1:.4g}-{q3:.4g}), "
          f"change {m['change_median']:.4g}, lower in {m['lower_in']} of {pairs}")


def pairs_of(pairs: int, run_pair) -> dict:
    """``run_pair(side, i)`` for each pair i, alternating which side goes first; the
    results per side, in pair order."""
    results = {side: [] for side in SIDES}
    for i in range(pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            results[side].append(run_pair(side, i))
    return results


def summarize(lines: dict, bench: dict) -> dict:
    """Per metric, both medians, the base's quartiles and the pairs that read lower.

    ``lines[side]`` holds one result line per pair, in pair order.
    """
    entry = {side: {"attempted": sum(line["attempted"] for line in lines[side]),
                    "failed": sum(line["failed"] for line in lines[side]),
                    "correct": all(line["correct"] for line in lines[side])}
             for side in SIDES}
    entry["metrics"] = {
        metric["name"]: compare({side: [line["metrics"][metric["name"]]["value"]
                                        for line in lines[side]] for side in SIDES},
                                metric["unit"])
        for metric in bench["end_to_end"]}
    return entry


def main(argv=None, run=run_side, copy=archive, stages=run_stages) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the commit to compare with")
    parser.add_argument("--workloads", help="comma-separated workloads, by default all")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload, 2 at least")
    parser.add_argument("--seeds", help="comma-separated seeds, taken in turn by the pairs")
    parser.add_argument("--out", type=Path, default=Path("ab.json"), help="JSON file to write")
    parser.add_argument("--stages", action="store_true",
                        help="compare the stages of a fit iteration, not the benchmark's metrics")
    parser.add_argument("--count", type=int, default=25600, help="--stages: gaussians")
    parser.add_argument("--threads", type=int, default=1, help="--stages: threads of the fit")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in bench["workloads"]]
    workloads = known if args.workloads is None else args.workloads.split(",")
    if any(w not in known for w in workloads):
        parser.error(f"--workloads must name workloads of {', '.join(known)}")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, so that the base has quartiles")
    if args.stages and (args.workloads or args.seeds):
        parser.error("--stages takes neither --workloads nor --seeds")
    workloads = [] if args.stages else workloads
    if args.count < 1 or args.threads < 1:
        parser.error("--count and --threads must be at least 1")
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
        if args.stages:
            record.update(count=args.count, threads=args.threads, stages={})

            def stage_pair(side, i):
                print(f"[ab] stages pair {i + 1} {side}", file=sys.stderr, flush=True)
                return stages(trees[side], args.count, args.threads)

            times = pairs_of(args.pairs, stage_pair)
            for stage in times["base"][0]:
                m = record["stages"][stage] = compare(
                    {side: [t[stage] for t in times[side]] for side in SIDES}, "s")
                report(f"{stage} at {args.count} gaussians, {args.threads} threads", m,
                       args.pairs)
        for workload in workloads:
            def bench_pair(side, i, workload=workload):
                seed = seeds[i % len(seeds)]
                print(f"[ab] {workload} pair {i + 1} seed {seed} {side}", file=sys.stderr,
                      flush=True)
                return run(trees[side], bench["command"], workload, seed, bench["run_seconds"])

            entry = summarize(pairs_of(args.pairs, bench_pair), bench)
            record["workloads"][workload] = entry
            for name, m in entry["metrics"].items():
                report(f"{workload} {name}", m, args.pairs)
            print(f"{workload} failed: base {entry['base']['failed']}, "
                  f"change {entry['change']['failed']}; correct: base "
                  f"{entry['base']['correct']}, change {entry['change']['correct']}")
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
