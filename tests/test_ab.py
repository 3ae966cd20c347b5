"""The A/B tool alternates the two trees pair by pair and summarizes their metrics.

The benchmark itself is not run, and no commit is copied: stand-ins return
canned result lines in the benchmark's output format and mark the copy.
"""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)


def canned_line(side, workload, seed):
    """A result line whose values encode its side, workload and seed; the
    change reads lower on odd seeds only, and fails one operation on seed 4."""
    base = {"splat-paper": 1.0, "fit-paper": 2.0, "fit-broad": 3.0}[workload] + seed / 10
    value = base - 0.05 if side == "change" and seed % 2 else base
    failed = int(side == "change" and seed == 4)
    return {"correct": not failed, "attempted": 5, "failed": failed,
            "metrics": {"op_s": {"value": value, "unit": "s"},
                        "peak_mb": {"value": 10 * value, "unit": "MB"},
                        "setup_s": {"value": value / 10, "unit": "s"}}}


def run_tool(tmp_path, argv):
    calls, copies = [], []

    def copy(ref, into):
        copies.append(ref)
        (into / "BASE").write_text(ref)

    def run(tree, command, workload, seed, seconds):
        side = "base" if (tree / "BASE").exists() else "change"
        assert side == "base" or tree == ROOT
        calls.append((side, workload, seed))
        return canned_line(side, workload, seed)

    def stages(tree, count, threads):
        side = "base" if (tree / "BASE").exists() else "change"
        assert side == "base" or tree == ROOT
        calls.append((side, count, threads))
        return canned_stages(side, sum(s == side for s, *_ in calls))

    out = tmp_path / "ab.json"
    assert ab.main([*argv, "--out", str(out)], run=run, copy=copy, stages=stages) == 0
    return calls, copies, json.loads(out.read_text())


def canned_stages(side, k):
    """Stage times of a side's k-th process: the change's splat reads lower in its
    first three processes only, and every other stage ties."""
    times = {"activate": 0.01 * k, "splat": 0.2 + 0.01 * k, "total": 1.0 + k}
    if side == "change" and k <= 3:
        times["splat"] -= 0.05
    return times


def test_pairs_alternate_and_the_summary_reads_them(tmp_path, capsys):
    calls, copies, record = run_tool(tmp_path, ["--base", "HEAD~1", "--workloads",
                                                "fit-paper,fit-broad", "--pairs", "5",
                                                "--seeds", "1,2,3,4"])
    assert copies == ["HEAD~1"]
    seeds = [1, 2, 3, 4, 1]
    expected = []
    for workload in ("fit-paper", "fit-broad"):
        for i, seed in enumerate(seeds):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            expected += [(side, workload, seed) for side in order]
    assert calls == expected

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert record["base"] == "HEAD~1" and record["pairs"] == 5
    assert record["command"] == bench["command"]
    assert list(record["workloads"]) == ["fit-paper", "fit-broad"]
    for workload, entry in record["workloads"].items():
        assert entry["base"] == {"attempted": 25, "failed": 0, "correct": True}
        assert entry["change"] == {"attempted": 25, "failed": 1, "correct": False}
        assert set(entry["metrics"]) == {m["name"] for m in bench["end_to_end"]}
        for name, m in entry["metrics"].items():
            values = {side: [canned_line(side, workload, s)["metrics"][name]["value"]
                             for s in seeds] for side in ab.SIDES}
            assert m["values"] == values
            assert m["base_median"] == statistics.median(values["base"])
            assert m["change_median"] == statistics.median(values["change"])
            q1, _, q3 = statistics.quantiles(values["base"], n=4, method="inclusive")
            assert m["base_quartiles"] == [q1, q3]
            assert q1 < m["base_median"] < q3
            assert m["lower_in"] == 3  # seeds 1, 3 and 1 again
    printed = capsys.readouterr().out
    assert "fit-broad op_s: base" in printed and "lower in 3 of 5" in printed


def test_default_seeds_and_workloads(tmp_path):
    calls, _, record = run_tool(tmp_path, ["--base", "main", "--pairs", "2"])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(record["workloads"]) == [w["name"] for w in bench["workloads"]]
    assert [seed for _, _, seed in calls] == [1, 1, 2, 2] * len(bench["workloads"])


def test_stages_run_one_process_per_side_and_pair(tmp_path, capsys):
    calls, copies, record = run_tool(tmp_path, ["--base", "HEAD~1", "--stages", "--pairs", "4",
                                                "--count", "500", "--threads", "2"])
    assert copies == ["HEAD~1"]
    order = [("base", "change"), ("change", "base")] * 2
    assert calls == [(side, 500, 2) for pair in order for side in pair]
    assert record["workloads"] == {} and (record["count"], record["threads"]) == (500, 2)
    assert list(record["stages"]) == ["activate", "splat", "total"]
    splat = record["stages"]["splat"]
    values = {side: [canned_stages(side, k)["splat"] for k in range(1, 5)] for side in ab.SIDES}
    assert splat["values"] == values and splat["unit"] == "s"
    assert splat["base_median"] == statistics.median(values["base"])
    assert splat["change_median"] == statistics.median(values["change"])
    q1, _, q3 = statistics.quantiles(values["base"], n=4, method="inclusive")
    assert splat["base_quartiles"] == [q1, q3]
    assert splat["lower_in"] == 3 and record["stages"]["activate"]["lower_in"] == 0
    printed = capsys.readouterr().out
    assert "splat at 500 gaussians, 2 threads: base" in printed and "lower in 3 of 4" in printed


@pytest.mark.parametrize("argv", [
    ["--base", "HEAD", "--pairs", "1"],
    ["--base", "HEAD", "--workloads", "fit-paper,nope"],
    ["--base", "HEAD", "--seeds", "1,x"],
    ["--pairs", "3"],
    ["--base", "HEAD", "--stages", "--seeds", "1"],
    ["--base", "HEAD", "--stages", "--workloads", "fit-paper"],
    ["--base", "HEAD", "--stages", "--threads", "0"],
    ["--base", "HEAD", "--stages", "--count", "0"],
], ids=["one-pair", "unknown-workload", "bad-seed", "no-base", "stages-seeds",
        "stages-workloads", "stages-no-threads", "stages-no-count"])
def test_bad_flags_are_usage_errors(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        run_tool(tmp_path, argv)
    assert exc.value.code == 2
