"""The bench history tool builds its file from benchmark result lines.

The benchmark itself is not run: a stand-in returns canned result lines in
the benchmark's output format.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_history", ROOT / "tools" / "bench_history.py")
bench_history = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_history)


def canned_line(workload, seed, trace):
    """A result line whose every value encodes its workload, seed and trace."""
    base = {"splat-paper": 1.0, "fit-paper": 2.0, "fit-broad": 3.0}[workload] + seed / 10
    if trace:
        metrics = {"losses.loss.self_s": {"value": base + 100, "unit": "s"},
                   "splat.pairs": {"value": 1000 * seed, "unit": "count"}}
    else:
        metrics = {"op_s": {"value": base, "unit": "s"},
                   "peak_mb": {"value": 10 * base, "unit": "MB"},
                   "setup_s": {"value": base / 10, "unit": "s"}}
    return {"correct": workload != "fit-broad" or seed != 2, "attempted": 4,
            "failed": int(workload == "fit-broad" and seed == 2), "metrics": metrics}


def test_history_file_from_canned_lines(tmp_path):
    calls = []

    def run(command, workload, seed, seconds, trace):
        calls.append((workload, seed, trace))
        return canned_line(workload, seed, trace)

    out = tmp_path / "BENCH_0.json"
    assert bench_history.main([str(out)], run=run) == 0
    record = json.loads(out.read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = list(bench_history.SEEDS)

    assert sorted(calls) == sorted((w, s, t) for w in workloads for s in seeds for t in (0, 1))
    assert set(record["machine"]) == {"cpus", "python", "numpy", "platform"}
    assert record["command"] == bench["command"]
    assert record["run_seconds"] == bench["run_seconds"]
    assert record["seeds"] == seeds
    assert list(record["workloads"]) == workloads
    for name in workloads:
        entry = record["workloads"][name]
        lines = {t: [canned_line(name, s, t) for s in seeds] for t in (0, 1)}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            assert set(entry[key]) == set(lines[trace][0]["metrics"])
            for metric, summary in entry[key].items():
                values = sorted(line["metrics"][metric]["value"] for line in lines[trace])
                assert summary["values"] == [line["metrics"][metric]["value"]
                                             for line in lines[trace]]
                assert summary["median"] == values[len(values) // 2]
                assert summary["unit"] == lines[trace][0]["metrics"][metric]["unit"]
        assert entry["attempted"] == 4 * 2 * len(seeds)
        assert entry["failed"] == (2 if name == "fit-broad" else 0)
        assert entry["correct"] is (name != "fit-broad")
