"""The stage table tool times every stage of `fit`'s iterations and takes their peak memory.

Timings and peaks are not asserted: the tests run the tool on a few
gaussians and check that each table names each stage and holds one row
per count, that every stage it measures runs inside `fit`, and that it
puts back every name it wraps.
"""

import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gaussvox import IGNORE_LABEL, GridSpec, OccupancyGrid

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("stage_table", ROOT / "tools" / "stage_table.py")
stage_table = importlib.util.module_from_spec(spec)
spec.loader.exec_module(stage_table)


STAGES = ["activate", "index", "splat", "loss", "backward", "step", "metrics"]


def tables(capsys):
    """The tool's time table and peak table for two counts, each as lines."""
    assert stage_table.main(["--counts", "40,80", "--repeats", "1"]) == 0
    times, peaks = capsys.readouterr().out.split("\n\n")
    return times.splitlines(), peaks.splitlines()


def test_table_names_every_stage(capsys):
    (header, *rows), _ = tables(capsys)
    assert header.split() == ["gaussians", *STAGES, "total"]
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


def wrapped_names():
    return [vars(owner)[name] for _, owner, name in stage_table.WRAPPED]


def test_every_stage_runs_inside_fit(monkeypatch, capsys):
    # The tool measures fit itself: each wrapped name is called only while
    # the tool's fit runs, and fit runs twice per count, timed and traced.
    running, fits = [], []
    calls = dict.fromkeys(STAGES, 0)
    real_fit = stage_table.fit

    def spy_fit(*args, **kwargs):
        fits.append(args[0])
        running.append(True)
        try:
            return real_fit(*args, **kwargs)
        finally:
            running.pop()

    def inside_fit(stage, fn):
        def call(*args, **kwargs):
            assert running, f"{stage} ran outside fit"
            calls[stage] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(stage_table, "fit", spy_fit)
    for stage, owner, name in stage_table.WRAPPED:
        monkeypatch.setattr(owner, name, inside_fit(stage, vars(owner)[name]))
    tables(capsys)
    assert [len(scene) for scene in fits] == [40, 40, 80, 80]
    assert all(calls.values()), calls


def test_wrapped_names_are_put_back(capsys):
    originals = wrapped_names()
    tables(capsys)
    assert all(now is before for now, before in zip(wrapped_names(), originals))
    # Also when fit raises: a truth with every voxel ignored.
    grid = GridSpec((0.0, 0.0, 0.0), (0.5, 0.5, 0.5), (4, 4, 4))
    truth = OccupancyGrid(grid, stage_table.CLASSES, np.full(grid.num_voxels, IGNORE_LABEL))
    scene = stage_table.random_bench_scene(5, grid, stage_table.CLASSES, 0.3, 0)
    with pytest.raises(ValueError, match="no non-ignore voxel"):
        stage_table.fit_stages(scene, truth, 1, memory=True)
    assert not tracemalloc.is_tracing()
    assert all(now is before for now, before in zip(wrapped_names(), originals))
