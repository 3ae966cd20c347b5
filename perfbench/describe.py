"""Print the make-up of each workload's inputs for a few seeds.

    python3 perfbench/describe.py --seeds 1-3

Per scene: gaussian and class counts, scale range, ignore share of the
truth grid, (gaussian, voxel) pairs at the 3-sigma cutoff, pairs per
gaussian, neighbours per touched voxel (mean and max), the touched share of
the grid and the gaussians whose cutoff box covers the whole grid.  Fit
workloads are described at their initial scenes.
"""

from __future__ import annotations

import argparse
import shutil
import tempfile
from pathlib import Path

import numpy as np

import reference
import workloads
from spread import seeds


def describe(gv, scene, spec, truth=None) -> str:
    index = gv.build_splat_index(scene, spec, reference.CUTOFF_SIGMA)
    per_voxel = np.diff(index.voxel_starts)
    per_gaussian = np.diff(index.gaussian_starts)
    touched = per_voxel > 0
    ignore = "" if truth is None else f" ignore {np.mean(truth.labels == 255):.1%}"
    return (f"{len(scene)} gaussians, {scene.class_count} classes, scales "
            f"{scene.scales.min():.3g}-{scene.scales.max():.3g} m{ignore}; "
            f"{index.pair_count} pairs, {index.pair_count / len(scene):.1f} per gaussian, "
            f"{per_voxel[touched].mean():.2f} (max {per_voxel.max()}) per touched voxel, "
            f"{touched.mean():.1%} touched, "
            f"{int(np.sum(per_gaussian == spec.num_voxels))} cover the whole grid")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-3"))
    args = parser.parse_args()
    gv = workloads.load_program()
    workloads.OUT.mkdir(exist_ok=True)
    for name, workload in workloads.WORKLOADS.items():
        for seed in args.seeds:
            workdir = Path(tempfile.mkdtemp(dir=workloads.OUT))
            try:
                workload.generate(gv, np.random.default_rng([seed, 0]), workdir)
                if isinstance(workload, workloads.SplatPaper):
                    spec = gv.GridSpec(*workloads.NUSCENES)
                    scenes = [(gv.read_scene(workdir / "scene.sgau"), None)]
                else:
                    scenes = workload.load(gv, workdir)
                    spec = scenes[0][1].spec
                for k, (scene, truth) in enumerate(scenes):
                    print(f"{name} seed {seed} scene {k}: {describe(gv, scene, spec, truth)}")
            finally:
                shutil.rmtree(workdir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
