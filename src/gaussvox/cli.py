"""Command-line interface: splat, eval, fit, gen, bench, info.

Exit codes: 0 success, 1 usage error, 2 data error (malformed files,
incompatible grids, capacity limits).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import tracemalloc

import numpy as np

from .core import GaussianScene, softmax
from .errors import GaussvoxError
from .fitter import _FLOAT32_MAX, _FLOAT32_TINY, FitConfig, fit, init_scene
from .grid import GridSpec
from .metrics import confusion, miou, scene_completion_iou
from .sceneio import (SceneFile, check_header_geometry, check_shapes, gen_synthetic,
                      generating_scene, read_grid, read_scene, write_grid, write_scene)
from .splat import (DEFAULT_CUTOFF_SIGMA, _check_dense_bytes, build_splat_index, splat,
                    splat_chunks)

THREADS_ENV = "GAUSSVOX_THREADS"
THREADS_HELP = (f"thread count (default: {THREADS_ENV}, else 1); must be a positive "
                "integer.  fit runs on this many processes, splat and bench on one; "
                "no result depends on it")

GRID_PRESETS = {
    # nuScenes-style volume: [-50, 50] m in X and Y, [-5, 3] m in Z, 200x200x16.
    "nuscenes": (( -50.0, -50.0, -5.0), (0.5, 0.5, 0.5), (200, 200, 16)),
    # KITTI-360-style volume: 51.2 x 51.2 x 6.4 m at 256x256x32.
    "kitti360": ((0.0, -25.6, -2.0), (0.2, 0.2, 0.2), (256, 256, 32)),
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _triple(text: str, cast):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated values, got {text!r}")
    return tuple(cast(p) for p in parts)


def _count(text: str, most: int | None = None) -> int:
    """A whole number in [1, ``most``], for an argparse ``type``."""
    if not text.strip().isdigit() or not 1 <= int(text) <= (most or int(text)):
        limit = "a positive integer" if most is None else f"an integer in [1, {most}]"
        raise argparse.ArgumentTypeError(f"must be {limit}, got {text!r}")
    return int(text)


def _counts(text: str) -> list[int]:
    counts = [_count(c) for c in text.split(",")]
    if len(set(counts)) < 2:
        raise argparse.ArgumentTypeError(f"a line needs at least two distinct counts, got {text!r}")
    return counts


def _add_grid_args(p: argparse.ArgumentParser):
    p.add_argument("--preset", choices=sorted(GRID_PRESETS), default="nuscenes",
                   help="named grid volume (default nuscenes)")
    p.add_argument("--dims", type=lambda s: _triple(s, int), help="X,Y,Z voxel counts")
    p.add_argument("--origin", type=lambda s: _triple(s, float), help="minimum corner x,y,z (m)")
    p.add_argument("--cell", type=lambda s: _triple(s, float), help="voxel edge lengths (m)")


def _grid_spec(args) -> GridSpec:
    """The grid of the preset and the grid flags; ValueError unless a grid header can hold it."""
    origin, cell, dims = GRID_PRESETS[args.preset]
    spec = GridSpec(
        args.origin if args.origin is not None else origin,
        args.cell if args.cell is not None else cell,
        args.dims if args.dims is not None else dims,
    )
    check_header_geometry(spec)
    return spec


def _threads(args) -> int:
    """The thread count from --threads, else GAUSSVOX_THREADS, else 1."""
    text = args.threads if args.threads is not None else os.environ.get(THREADS_ENV) or "1"
    if not text.strip().isdigit() or int(text) < 1:
        raise UsageError(f"--threads or {THREADS_ENV} must be a positive integer, got {text!r}")
    return int(text)


def build_parser() -> _Parser:
    parser = _Parser(prog="gaussvox", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("splat", help="splat a scene file into an occupancy grid")
    p.add_argument("--scene", required=True)
    _add_grid_args(p)
    p.add_argument("--cutoff", type=float, default=DEFAULT_CUTOFF_SIGMA,
                   help="neighborhood cutoff in sigmas (default 3)")
    p.add_argument("--exact", action="store_true",
                   help="exact mode: neighborhoods cover the whole grid")
    p.add_argument("--threads", default=None, help=THREADS_HELP)
    p.add_argument("--labels-only", action="store_true", help="omit scores from the output")
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="compare two grids and print IoU metrics")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--empty-class", type=int, default=0)

    p = sub.add_parser("fit", help="fit a scene to a target grid")
    p.add_argument("--truth", required=True)
    p.add_argument("--scene", help="initial scene file (otherwise synthesized)")
    p.add_argument("--init", choices=["uniform", "jittered-grid"], default="uniform")
    p.add_argument("--count", type=int, default=512, help="gaussian count for synthesized init")
    p.add_argument("--jitter", type=float, default=0.5)
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--weight-decay", type=float, default=0.0)
    p.add_argument("--smin", type=float, default=0.01)
    p.add_argument("--smax", type=float, default=0.3)
    p.add_argument("--cutoff", type=float, default=DEFAULT_CUTOFF_SIGMA)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--ce-weight", type=float, default=1.0)
    p.add_argument("--lovasz-weight", type=float, default=1.0)
    p.add_argument("--lr-schedule", choices=["constant", "cosine"], default="constant")
    p.add_argument("--warmup-iters", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", default=None, help=THREADS_HELP)
    p.add_argument("--log", help="append one line-delimited record per iteration")
    p.add_argument("--out", required=True)

    p = sub.add_parser("gen", help="rasterize synthetic shapes into a grid")
    _add_grid_args(p)
    p.add_argument("--shapes", required=True, help="JSON file with a list of shape dicts")
    p.add_argument("--class-count", type=int, default=None,
                   help="default: one past the largest shape class")
    p.add_argument("--out", required=True)
    p.add_argument("--scene-out", help="also emit a generating scene file")

    p = sub.add_parser("bench", help="time splatting across gaussian counts")
    _add_grid_args(p)
    p.add_argument("--counts", required=True, type=_counts,
                   help="two or more distinct positive gaussian counts, comma-separated")
    p.add_argument("--repeats", type=_count, default=5)
    p.add_argument("--cutoff", type=float, default=DEFAULT_CUTOFF_SIGMA)
    p.add_argument("--smax", type=float, default=0.3)
    p.add_argument("--class-count", type=lambda s: _count(s, 255), default=18)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", default=None, help=THREADS_HELP)

    p = sub.add_parser("info", help="dump the header of a scene or grid file")
    p.add_argument("path")
    return parser


def _cmd_splat(args) -> int:
    """Splat the scene file into the grid file, never holding the scene.

    The scene file stays open for the splat: the index's pass checks every
    record, and each gather of the splat reads the rows it needs from it."""
    with SceneFile(args.scene) as scene:
        spec = _grid_spec(args)
        cutoff = None if args.exact else args.cutoff
        grid = splat_chunks(scene, spec, cutoff)
        grid.scores = not args.labels_only
        write_grid(grid, args.out)
    return 0


def _cmd_eval(args, out) -> int:
    pred = read_grid(args.pred)
    truth = read_grid(args.truth)
    cm = confusion(pred, truth)
    per_class, mean_iou = miou(cm, args.empty_class)
    sc = scene_completion_iou(cm, args.empty_class)

    out.write(f"{'class':>8} {'iou':>10}\n")
    for i, iou in enumerate(per_class):
        shown = "absent" if np.isnan(iou) else f"{iou:.6f}"
        out.write(f"{i:>8} {shown:>10}\n")
    out.write(f"\nmIoU (non-empty classes): {mean_iou:.6f}\n")
    out.write(f"scene-completion IoU:     {sc:.6f}\n\n")
    for i, iou in enumerate(per_class):
        if not np.isnan(iou):
            out.write(f"iou_{i}={iou:.9f}\n")
    out.write(f"miou={mean_iou:.9f}\n")
    out.write(f"sc_iou={sc:.9f}\n")
    out.write(f"ignored_voxels={cm.ignore_count}\n")
    return 0


def _cmd_fit(args, out) -> int:
    config = FitConfig(
        iterations=args.iters,
        learning_rate=args.lr,
        weight_decay=args.weight_decay,
        s_min=args.smin,
        s_max=args.smax,
        cutoff_sigma=None if args.exact else args.cutoff,
        loss_weights=(args.ce_weight, args.lovasz_weight),
        lr_schedule=args.lr_schedule,
        warmup_iters=args.warmup_iters,
    )
    if args.seed < 0:  # refused with --scene too, which draws nothing
        raise ValueError(f"seed must be a non-negative int, got {args.seed}")
    truth = read_grid(args.truth)
    if args.scene:
        initial = read_scene(args.scene)
    else:
        initial = init_scene(args.init, args.count, truth.spec, args.seed, truth.class_count,
                             args.smin, args.smax, args.jitter)

    def log_fn(rec):  # opened per record: a fit failing before its first leaves no log
        with open(args.log, "a") as log_file:
            log_file.write(
                f"iter={rec.iteration} ce={rec.ce_loss:.9f} lovasz={rec.lovasz_loss:.9f} "
                f"loss={rec.total_loss:.9f} miou={rec.miou:.6f} sc_iou={rec.sc_iou:.6f} "
                f"ms={rec.millis:.3f}\n"
            )
    report = fit(initial, truth, config, threads=args.threads,
                 log_fn=log_fn if args.log else None)
    write_scene(report.scene, args.out)
    last = report.records[-1]
    out.write(
        f"final loss={last.total_loss:.6f} miou={last.miou:.6f} sc_iou={last.sc_iou:.6f}\n"
    )
    return 0


def _cmd_gen(args, out) -> int:
    if args.scene_out and os.path.realpath(args.scene_out) == os.path.realpath(args.out):
        raise ValueError(f"--out and --scene-out name one file, {args.out!r}")
    spec = _grid_spec(args)
    with open(args.shapes) as f:
        shapes = json.load(f)
    if not isinstance(shapes, list):
        raise ValueError("shapes file must hold a JSON list")
    class_count = args.class_count
    if class_count is None:
        check_shapes(shapes)
        class_count = max((s["cls"] for s in shapes), default=0) + 1
    grid = gen_synthetic(spec, shapes, class_count)
    if args.scene_out:
        write_scene(generating_scene(grid), args.scene_out)
    write_grid(grid, args.out)
    out.write(f"occupied_voxels={int(np.count_nonzero(grid.labels != 0))}\n")
    return 0


def random_bench_scene(count: int, spec: GridSpec, class_count: int, s_max: float,
                       seed: int) -> GaussianScene:
    """Deterministic random scene filling a grid volume, for benchmarking.

    The float64 draws and the float32 scene, ``8 (10 + 2 C) + 4 (10 + C)``
    bytes per gaussian, are checked against ``MAX_SCORE_BYTES`` before any
    exists.
    """
    _check_dense_bytes(count, 8 * (10 + 2 * class_count) + 4 * (10 + class_count),
                       per="gaussian")
    rng = np.random.default_rng(seed)
    origin = np.asarray(spec.origin)
    extent = np.asarray(spec.cell_size) * np.asarray(spec.dims)
    means = origin + rng.random((count, 3)) * extent
    scales = 0.05 * s_max + rng.random((count, 3)) * 0.95 * s_max
    rotations = rng.normal(size=(count, 4))
    rotations /= np.sqrt(np.sum(rotations ** 2, axis=1, keepdims=True))
    sem = softmax(rng.normal(size=(count, class_count)), axis=1)
    return GaussianScene(means.astype(np.float32), scales.astype(np.float32),
                         rotations.astype(np.float32), sem.astype(np.float32))


def run_bench(counts, spec: GridSpec, cutoff: float, class_count: int, s_max: float,
              seed: int, repeats: int, threads: int):
    """Median splat latency and peak traced memory per count; repeats cycle over the counts."""
    scenes = [random_bench_scene(count, spec, class_count, s_max, seed) for count in counts]
    timings = [[] for _ in scenes]
    for _ in range(repeats):
        for scene, times in zip(scenes, timings):
            t0 = time.perf_counter()
            index = build_splat_index(scene, spec, cutoff, threads=threads)
            splat(scene, spec, index=index)
            times.append((time.perf_counter() - t0) * 1e3)
    rows = []
    for count, scene, times in zip(counts, scenes, timings):
        tracemalloc.start()
        index = build_splat_index(scene, spec, cutoff, threads=threads)
        splat(scene, spec, index=index)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        rows.append((count, statistics.median(times), peak))
    return rows


def linear_fit(x, y):
    """Least-squares slope, intercept and R^2 of y against x."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def _cmd_bench(args, out) -> int:
    # The scales drawn lie in [0.05, 1] * smax, and each must be a positive
    # finite float32.
    if not (_FLOAT32_TINY <= 0.05 * args.smax and args.smax <= _FLOAT32_MAX):
        raise ValueError(f"--smax must lie in [{20 * _FLOAT32_TINY:g}, {_FLOAT32_MAX:g}], "
                         f"so that every scale drawn is a positive finite float32, "
                         f"got {args.smax:g}")
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative int, got {args.seed}")
    spec = _grid_spec(args)
    rows = run_bench(args.counts, spec, args.cutoff, args.class_count, args.smax,
                     args.seed, args.repeats, args.threads)
    out.write(f"{'gaussians':>10} {'latency_ms':>12} {'peak_bytes':>14}\n")
    for count, ms, peak in rows:
        out.write(f"{count:>10} {ms:>12.2f} {peak:>14}\n")
    counts = [r[0] for r in rows]
    slope, intercept, r2 = linear_fit(counts, [r[1] for r in rows])
    out.write(f"\nlatency_slope_ms_per_gaussian={slope:.9g}\n")
    out.write(f"latency_intercept_ms={intercept:.9g}\n")
    out.write(f"latency_r2={r2:.6f}\n")
    mslope, mintercept, mr2 = linear_fit(counts, [r[2] for r in rows])
    out.write(f"memory_slope_bytes_per_gaussian={mslope:.9g}\n")
    out.write(f"memory_intercept_bytes={mintercept:.9g}\n")
    out.write(f"memory_r2={mr2:.6f}\n")
    for count, ms, peak in rows:
        out.write(f"bench_{count}_latency_ms={ms:.6f}\n")
        out.write(f"bench_{count}_peak_bytes={peak}\n")
    return 0


def _cmd_info(args, out) -> int:
    with open(args.path, "rb") as f:
        magic = f.read(4)
    if magic == b"SGAU":
        with SceneFile(args.path) as scene:
            for _ in scene.geometry():  # checks every record, holding one block
                pass
        out.write("format=SGAU\n")
        out.write("version=1\n")
        out.write(f"class_count={scene.class_count}\n")
        out.write(f"gaussian_count={len(scene)}\n")
    elif magic == b"SVOX":
        grid = read_grid(args.path)
        out.write("format=SVOX\n")
        out.write("version=1\n")
        out.write(f"class_count={grid.class_count}\n")
        out.write(f"dims={grid.spec.dims[0]},{grid.spec.dims[1]},{grid.spec.dims[2]}\n")
        out.write(f"origin={grid.spec.origin[0]:g},{grid.spec.origin[1]:g},{grid.spec.origin[2]:g}\n")
        out.write(f"cell={grid.spec.cell_size[0]:g},{grid.spec.cell_size[1]:g},{grid.spec.cell_size[2]:g}\n")
        out.write(f"payload_kind={0 if grid.scores is None else 1}\n")
    else:
        from .errors import FormatError

        raise FormatError(f"unrecognized magic {magic!r}", 0)
    return 0


def main(argv=None, stdout=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if hasattr(args, "threads"):
            args.threads = _threads(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        print("run 'gaussvox --help' for usage", file=sys.stderr)
        return 1
    try:
        if args.command == "splat":
            return _cmd_splat(args)
        if args.command == "eval":
            return _cmd_eval(args, out)
        if args.command == "fit":
            return _cmd_fit(args, out)
        if args.command == "gen":
            return _cmd_gen(args, out)
        if args.command == "bench":
            return _cmd_bench(args, out)
        if args.command == "info":
            return _cmd_info(args, out)
        return 1
    except (GaussvoxError, OSError, ValueError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
