"""Print the wall time and peak memory of each stage of a `fit` iteration at paper scale.

    PYTHONPATH=src python3 tools/stage_table.py [--repeats 3] [--counts 25600,144000] [--threads 1]

The grid is the ``nuscenes`` preset (200x200x16 voxels, 18 classes), and the
truth is driving-like: a ground plane, a few hundred random boxes of other
classes and 5% ignored voxels, from a fixed seed.  For each count,
``gaussvox.fit`` runs ``--repeats`` iterations from
``random_bench_scene(count, nuscenes, 18, 0.3, 0)``, and the table shows the
median seconds of each stage: activate (raw parameters to a scene), index,
splat (score rows, ``rows=True``), loss, backward, step (AdamW deltas and the
refinement step) and metrics (confusion, mIoU, scene-completion IoU).  A
stage is the calls of its names in ``WRAPPED``, which ``fit`` looks up at
call time; ``fit``'s own lines between them are in no column.  ``fit``
activates the fitted scene once more after its last record, and that call
is in no iteration.

A second table gives each stage's largest traced peak in MB over a
2-iteration ``fit`` under ``tracemalloc``, counting every array ``fit``
holds, its parameters and AdamW moments included, and the largest of them
last.  Tracing slows that run, so it is not timed.  The timings are of this
machine at the time of the run; compare two trees by alternating their runs.

``--threads N`` runs each ``fit`` at N threads.  The other N - 1 ranks are
worker processes, so every time and traced peak is rank 0's, the caller's:
a split stage's time includes its wait for the other ranks, and its peak
leaves out the workers' memory and the arrays that the ranks share.  Each
rank back-propagates and steps its own gaussians without a barrier, so the
wait for the slowest rank's backward pass and step falls in the next
iteration's ``Team.reset``, which no column counts.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
import tracemalloc

import numpy as np

from gaussvox import FitConfig, GridSpec, OccupancyGrid, fit, fitter
from gaussvox.cli import GRID_PRESETS, random_bench_scene
from gaussvox.grid import IGNORE_LABEL

CLASSES = 18
S_MIN, S_MAX = 0.01, 0.3
STAGES = ("activate", "index", "splat", "loss", "backward", "step", "metrics")
# (stage, owner, name): each function that ``fit`` looks up at call time.
WRAPPED = [
    ("activate", fitter, "_activate"),
    ("index", fitter, "build_splat_index"),
    ("splat", fitter, "splat"),
    ("loss", fitter, "voxel_losses"),
    ("backward", fitter, "backward_splat"),
    ("step", fitter.AdamW, "deltas"),
    ("step", fitter, "refine_step"),
    ("metrics", fitter, "confusion"),
    ("metrics", fitter, "miou"),
    ("metrics", fitter, "scene_completion_iou"),
]


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


def fit_stages(scene, truth: OccupancyGrid, iterations: int, memory: bool = False,
               threads: int = 1) -> list:
    """Seconds per stage for each iteration of one ``fit`` from ``scene``, at ``threads``.

    With ``memory`` the fit runs under tracemalloc, and each stage's largest
    traced peak in bytes is given instead.
    """
    runs = [dict.fromkeys(STAGES, 0)]

    def wrap(stage, fn):
        def measured(*args, **kwargs):
            tracemalloc.reset_peak()  # does nothing unless tracing
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                run = runs[-1]
                run[stage] = (max(run[stage], tracemalloc.get_traced_memory()[1]) if memory
                              else run[stage] + time.perf_counter() - start)
        return measured

    saved = [(stage, owner, name, vars(owner)[name]) for stage, owner, name in WRAPPED]
    if memory:
        tracemalloc.start()
    try:
        for stage, owner, name, original in saved:
            setattr(owner, name, wrap(stage, original))
        fit(scene, truth, FitConfig(iterations, s_min=S_MIN, s_max=S_MAX), threads=threads,
            log_fn=lambda record: runs.append(dict.fromkeys(STAGES, 0)))
    finally:
        if memory:
            tracemalloc.stop()
        for _, owner, name, original in saved:
            setattr(owner, name, original)
    # The last record opens one more, which only the fitted scene's activation reaches.
    return runs[:-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3, help="iterations per count")
    parser.add_argument("--counts", default="25600,144000", help="gaussian counts",
                        type=lambda text: [int(c) for c in text.split(",")])
    parser.add_argument("--threads", type=int, default=1, help="thread count of each fit")
    args = parser.parse_args(argv)
    if args.repeats < 1 or min(args.counts) < 1 or args.threads < 1:
        parser.error("--repeats, --threads and every count of --counts must be >= 1")
    spec = GridSpec(*GRID_PRESETS["nuscenes"])
    truth = driving_truth(spec)
    print(f"{'gaussians':>10}" + "".join(f"{s:>10}" for s in STAGES) + f"{'total':>10}")
    peaks = []
    for count in args.counts:
        scene = random_bench_scene(count, spec, CLASSES, S_MAX, 0)
        runs = fit_stages(scene, truth, args.repeats, threads=args.threads)
        times = [statistics.median(run[s] for run in runs) for s in STAGES]
        times.append(statistics.median(sum(run.values()) for run in runs))
        print(f"{count:>10}" + "".join(f"{t:>10.3f}" for t in times), flush=True)
        runs = fit_stages(scene, truth, 2, memory=True, threads=args.threads)
        peak = [max(run[s] for run in runs) / 1e6 for s in STAGES]
        peaks.append(f"{count:>10}" + "".join(f"{p:>10.1f}" for p in peak + [max(peak)]))
    print(f"\n{'peak MB':>10}" + "".join(f"{s:>10}" for s in STAGES) + f"{'max':>10}")
    print("\n".join(peaks))
    return 0


if __name__ == "__main__":
    sys.exit(main())
