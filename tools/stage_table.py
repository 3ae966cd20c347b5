"""Print the wall time and peak memory of each stage of one `fit` iteration at paper scale.

    PYTHONPATH=src python3 tools/stage_table.py [--repeats 3] [--counts 25600,144000]

The grid is the ``nuscenes`` preset (200x200x16 voxels, 18 classes).  The
truth is driving-like: a ground plane, a few hundred random boxes of other
classes and 5% ignored voxels, all from a fixed seed.  The scene for each
gaussian count is ``random_bench_scene(count, nuscenes, 18, 0.3, 0)``.  Each
repeat runs one iteration from the same start, in the order ``fit`` runs its
stages, and the table shows each stage's median over the repeats in
seconds:

- activate: raw parameters to a scene;
- index: ``build_splat_index``;
- splat: the float32 score rows of the index's covered voxels, the covered
  mask included, as ``fit`` asks for them (``rows=True``);
- loss: ``voxel_losses`` over those rows;
- backward: ``backward_splat``;
- step: the AdamW deltas and the refinement step.

A second table follows, from one more iteration per count run under
``tracemalloc``: each stage's traced peak in MB, counting every array the
iteration has allocated and still holds, and in the last column the
iteration's peak.  Tracing slows that iteration, so it is not timed.

The timings are of this machine at the time of the run; compare two trees
by alternating their runs.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
import tracemalloc

import numpy as np

from gaussvox import GridSpec, OccupancyGrid, build_splat_index, splat, voxel_losses
from gaussvox.cli import GRID_PRESETS, random_bench_scene
from gaussvox.fitter import AdamW, Proposals, RawGaussianParams, backward_splat, refine_step
from gaussvox.grid import IGNORE_LABEL

CLASSES = 18
S_MIN, S_MAX = 0.01, 0.3
STAGES = ("activate", "index", "splat", "loss", "backward", "step")


def driving_truth(spec: GridSpec, seed: int = 0) -> OccupancyGrid:
    """A ground plane, 200-400 boxes of classes 2-17 and 5% ignored voxels."""
    rng = np.random.default_rng(seed)
    x_dim, y_dim, _ = spec.dims
    labels = np.zeros(spec.dims, dtype=np.uint8)
    labels[:, :, :2] = 1
    for _ in range(int(rng.integers(200, 401))):
        x, y = rng.integers(0, x_dim), rng.integers(0, y_dim)
        sx, sy, sz = rng.integers(2, 13), rng.integers(2, 13), rng.integers(2, 9)
        labels[x:x + sx, y:y + sy, 2:2 + sz] = rng.integers(2, CLASSES)
    labels = labels.reshape(-1)
    labels[rng.random(labels.size) < 0.05] = IGNORE_LABEL
    return OccupancyGrid(spec, CLASSES, labels)


def iteration(params: RawGaussianParams, truth: OccupancyGrid, memory: bool = False) -> dict:
    """Seconds per stage of one iteration from ``params``, which it leaves unchanged.

    With ``memory``, tracemalloc must be running, and each stage's traced
    peak in bytes is given instead.
    """
    stages = {}
    clock = time.perf_counter()

    def lap(stage):
        nonlocal clock
        now = time.perf_counter()
        if memory:
            stages[stage] = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
        else:
            stages[stage] = now - clock
        clock = now

    scene = params.activate(S_MIN, S_MAX)
    lap("activate")
    index = build_splat_index(scene, truth.spec)
    lap("index")
    grid = splat(scene, truth.spec, index=index, rows=True)
    lap("splat")
    loss = voxel_losses(grid, truth)
    lap("loss")
    grads = backward_splat(params, index, truth.spec, loss.d_scores, S_MIN, S_MAX, grid.voxels)
    lap("backward")
    stepped = params.copy()
    deltas = AdamW(stepped).deltas(stepped, grads, 0.01)
    refine_step(stepped, Proposals(deltas["means"],
                                   *(getattr(stepped, k) + deltas[k]
                                     for k in ("raw_scales", "rotations", "raw_logits"))))
    lap("step")
    return stages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3, help="iterations per count")
    parser.add_argument("--counts", default="25600,144000", help="gaussian counts")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    spec = GridSpec(*GRID_PRESETS["nuscenes"])
    truth = driving_truth(spec)
    print(f"{'gaussians':>10}" + "".join(f"{s:>10}" for s in STAGES) + f"{'total':>10}")
    peaks = []
    for count in (int(c) for c in args.counts.split(",")):
        scene = random_bench_scene(count, spec, CLASSES, S_MAX, 0)
        params = RawGaussianParams.from_scene(scene, S_MIN, S_MAX)
        runs = [iteration(params, truth) for _ in range(args.repeats)]
        medians = [statistics.median(run[s] for run in runs) for s in STAGES]
        totals = statistics.median(sum(run.values()) for run in runs)
        print(f"{count:>10}" + "".join(f"{m:>10.3f}" for m in medians) + f"{totals:>10.3f}",
              flush=True)
        tracemalloc.start()
        try:
            peaks.append((count, iteration(params, truth, memory=True)))
        finally:
            tracemalloc.stop()
    print(f"\n{'peak MB':>10}" + "".join(f"{s:>10}" for s in STAGES) + f"{'max':>10}")
    for count, peak in peaks:
        print(f"{count:>10}" + "".join(f"{peak[s] / 1e6:>10.1f}" for s in STAGES)
              + f"{max(peak.values()) / 1e6:>10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
