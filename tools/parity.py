"""Write named digests of gaussvox's outputs, to show that a change keeps every bit.

    python3 tools/parity.py OUT.json [--quick] [--against OTHER.json]

Each name is one output, and its value the sha256 of its bytes:

- ``splat/<input>/<form>``: the file that ``gaussvox splat`` writes, on the
  benchmark's ``splat-paper`` scenes at 3 sigma, and on the scene of the
  CLI determinism criterion (criterion 7) at 3 sigma and with ``--exact``;
- ``scores/<input>/<form>``: the dense and the row scores of ``splat`` on
  each fit input's scene, as ``fit`` activates it;
- ``grad/<input>/<form>/<parameter>``: each parameter's gradient from
  ``backward_splat``, through the loss on the dense and on the row scores;
- ``fit/<input>/records`` and ``fit/<input>/scene``: a 3-iteration ``fit``'s
  records without ``millis``, and the bytes of the fitted scene's file.

An input is ``<workload>-<seed>.<scene>``.  The inputs are drawn by
``perfbench/workloads.py``, which is imported and left unchanged, from the
benchmark's seeds 1-3: ``splat-paper``, ``fit-paper`` and ``fit-broad``.
``--quick`` takes the criterion-7 splats and the first ``fit-broad``
seed-1 scene only, and runs in seconds.  Run the tool in two trees and pass one
tree's file to the other's ``--against``: it prints each name whose digest
differs or that only one file has, and exits 1 when there is one.  The tool
imports gaussvox from the ``src`` of the tree it is in.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

SEEDS = (1, 2, 3)
GRID_FLAGS = ["--dims", "8,8,8", "--origin", "0,0,0", "--cell", "0.5,0.5,0.5"]


def sha(data) -> str:
    return hashlib.sha256(data).hexdigest()


def criterion_7_scene(gv):
    """The 40-gaussian, 3-class scene of the CLI determinism criterion."""
    rng = np.random.default_rng(71)
    count = 40
    means = rng.uniform(0.5, 3.5, (count, 3)).astype(np.float32)
    scales = (0.1 + rng.random((count, 3)) * 0.5).astype(np.float32)
    rotations = rng.normal(size=(count, 4)).astype(np.float32)
    rotations /= np.linalg.norm(rotations, axis=1, keepdims=True)
    sem = rng.random((count, 3)).astype(np.float32)
    return gv.GaussianScene(means, scales, rotations, sem)


def cli_splat(cli, scene_path: Path, flags: list[str], out: Path) -> str:
    """The digest of the grid file that ``gaussvox splat`` writes."""
    code = cli.main(["splat", "--scene", str(scene_path), *flags, "--threads", "1",
                     "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"gaussvox splat {' '.join(flags)} exited {code}")
    return sha(out.read_bytes())


def splat_digests(gv, cli, workdir: Path, quick: bool) -> dict:
    digests = {}
    scene_path = workdir / "criterion-7.sgau"
    gv.write_scene(criterion_7_scene(gv), scene_path)
    for form, flags in (("3sigma", ["--cutoff", "3"]), ("exact", ["--exact"])):
        digests[f"splat/criterion-7/{form}"] = cli_splat(cli, scene_path, GRID_FLAGS + flags,
                                                         workdir / "grid.svox")
    for seed in () if quick else SEEDS:
        workload = workloads.WORKLOADS["splat-paper"]
        workload.generate(gv, np.random.default_rng([seed, 0]), workdir)
        digests[f"splat/splat-paper-{seed}/3sigma"] = cli_splat(
            cli, workdir / "scene.sgau", ["--preset", "nuscenes", "--cutoff", "3"],
            workdir / "grid.svox")
    return digests


def fit_digests(gv, name: str, workload, initial, truth, workdir: Path) -> dict:
    """Scores, gradients and a 3-iteration fit of one fit input."""
    digests = {}
    config = workload.config(gv, 3)
    s_min, s_max = config.s_min, config.s_max
    params = gv.RawGaussianParams.from_scene(initial, s_min, s_max)
    scene = params.activate(s_min, s_max)
    index = gv.build_splat_index(scene, truth.spec, config.cutoff_sigma)
    for form, rows in (("dense", False), ("rows", True)):
        grid = gv.splat(scene, truth.spec, index=index, rows=rows)
        digests[f"scores/{name}/{form}"] = sha(grid.scores.view(np.uint32))
        loss = gv.voxel_losses(grid, truth, config.loss_weights)
        grads = gv.backward_splat(params, index, truth.spec, loss.d_scores, s_min, s_max,
                                  grid.voxels)
        for key, grad in grads.items():
            digests[f"grad/{name}/{form}/{key}"] = sha(np.ascontiguousarray(grad).view(np.uint64))
    report = gv.fit(initial, truth, config, threads=workload.threads)
    records = [{k: float(v).hex() if isinstance(v, float) else v
                for k, v in dataclasses.asdict(rec).items() if k != "millis"}
               for rec in report.records]
    digests[f"fit/{name}/records"] = sha(json.dumps(records, sort_keys=True).encode())
    gv.write_scene(report.scene, workdir / "fitted.sgau")
    digests[f"fit/{name}/scene"] = sha((workdir / "fitted.sgau").read_bytes())
    return digests


def all_digests(quick: bool = False) -> dict:
    """Every digest of this tree, by name; ``quick`` takes the short set."""
    gv = workloads.load_program()
    from gaussvox import cli

    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        digests.update(splat_digests(gv, cli, workdir, quick))
        inputs = [(name, seed) for name in ("fit-paper", "fit-broad") for seed in SEEDS]
        for name, seed in inputs[3:4] if quick else inputs:
            workload = workloads.WORKLOADS[name]
            workload.generate(gv, np.random.default_rng([seed, 0]), workdir)
            scenes = workload.load(gv, workdir)
            for k, (initial, truth) in enumerate(scenes[:1] if quick else scenes):
                digests.update(fit_digests(gv, f"{name}-{seed}.{k}", workload, initial, truth,
                                           workdir))
    return digests


def differing(ours: dict, theirs: dict) -> list[str]:
    """The names whose digests differ, or that only one side has, sorted."""
    return sorted(name for name in ours.keys() | theirs.keys()
                  if ours.get(name) != theirs.get(name))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="JSON file of this tree's digests")
    parser.add_argument("--quick", action="store_true", help="the short set only")
    parser.add_argument("--against", type=Path, help="another tree's JSON file to compare with")
    args = parser.parse_args(argv)
    digests = all_digests(args.quick)
    args.out.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {args.out}")
    if args.against is None:
        return 0
    names = differing(digests, json.loads(args.against.read_text()))
    for name in names:
        print(f"differs: {name}")
    print(f"{len(names)} of the names differ from {args.against}")
    return 1 if names else 0


if __name__ == "__main__":
    sys.exit(main())
