"""The stage table tool times every stage of one fit iteration and takes its peak memory.

Timings and peaks are not asserted: the tests run the tool on a few
gaussians and check that each table names each stage and holds one row
per count.
"""

import importlib.util
from pathlib import Path

import numpy as np

from gaussvox import IGNORE_LABEL

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("stage_table", ROOT / "tools" / "stage_table.py")
stage_table = importlib.util.module_from_spec(spec)
spec.loader.exec_module(stage_table)


STAGES = ["activate", "index", "splat", "loss", "backward", "step"]


def tables(capsys):
    """The tool's time table and peak table for two counts, each as lines."""
    assert stage_table.main(["--counts", "40,80", "--repeats", "1"]) == 0
    times, peaks = capsys.readouterr().out.split("\n\n")
    return times.splitlines(), peaks.splitlines()


def test_table_names_every_stage(capsys):
    (header, *rows), _ = tables(capsys)
    assert header.split() == ["gaussians", "activate", "index", "splat", "loss", "backward",
                              "step", "total"]
    assert [row.split()[0] for row in rows] == ["40", "80"]
    for row in rows:
        times = [float(x) for x in row.split()[1:]]
        assert all(t >= 0 for t in times)
        assert abs(sum(times[:-1]) - times[-1]) < 1e-2


def test_peak_table_names_every_stage(capsys):
    _, (header, *rows) = tables(capsys)
    assert header.split() == ["peak", "MB", *STAGES, "max"]
    assert [row.split()[0] for row in rows] == ["40", "80"]
    assert all(len(row.split()) == len(STAGES) + 2 for row in rows)


def test_truth_is_driving_like():
    truth = stage_table.driving_truth(stage_table.GridSpec(*stage_table.GRID_PRESETS["nuscenes"]))
    labels = truth.labels.reshape(truth.spec.dims)
    valid = labels != IGNORE_LABEL
    assert np.all((labels[:, :, :2] == 1) | ~valid[:, :, :2])
    assert 0.04 < 1 - valid.mean() < 0.06
    assert len(np.unique(labels[valid])) > 10
