"""The benchmark's workloads: seeded inputs, set-up and the timed operations.

Inputs are drawn here from the seed and handed to the program only as scene
and grid files.  Set-up is what a user of the program pays before the first
operation: importing gaussvox and reading the input files through its
readers.  Every operation calls the program's public functions.
"""

from __future__ import annotations

import filecmp
import importlib
import math
import sys
import time
from pathlib import Path

import numpy as np

import reference

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
NUSCENES = ((-50.0, -50.0, -5.0), (0.5, 0.5, 0.5), (200, 200, 16))
BROAD = ((0.0, 0.0, 0.0), (0.25, 0.25, 0.25), (32, 32, 32))
# Measured errors reach 3e-3; a gradient 10% off must fail.
GRADIENT_TOL = 3e-2


def load_program():
    """Import gaussvox from this checkout's ``src``, and from nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import gaussvox

    if Path(gaussvox.__file__).resolve().parent.parent != src:
        raise ImportError(f"gaussvox was imported from {gaussvox.__file__}, not from {src}")
    return gaussvox


def _unit(q):
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def _rotations(rng, n):
    return _unit(rng.normal(size=(n, 4)))


def _softmax(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _scene(gv, means, scales, rotations, semantics):
    return gv.GaussianScene(*(np.asarray(a, dtype=np.float32)
                              for a in (means, scales, rotations, semantics)))


def _extent(geometry):
    origin, cell, dims = geometry
    return np.asarray(origin), np.asarray(cell) * np.asarray(dims)


class Timer:
    """Op windows of one worker: (start, end, traced) in perf_counter seconds."""

    def __init__(self, tracer, trace: bool):
        self.tracer = tracer
        self.trace = trace
        self.ops: list[tuple[float, float, bool]] = []

    def next_traced(self) -> bool:
        """Install or remove the spans for the next timed op and say which.

        In a traced run every second op is traced; otherwise none is.
        """
        traced = self.trace and len(self.ops) % 2 == 1
        if traced:
            self.tracer.install()
        else:
            self.tracer.uninstall()
        return traced

    def enough(self, started: float, seconds: float, minimum: int) -> bool:
        """Whether to stop: ``seconds`` have passed and ``minimum`` ops ran, or
        in a traced run at least one untraced-traced pair."""
        count = len(self.ops)
        if self.trace:
            done = count >= 2 and count % 2 == 0
        else:
            done = count >= minimum
        return done and time.perf_counter() - started >= seconds


class SplatPaper:
    """`gaussvox splat --threads 1` on one 144k-gaussian nuScenes-sized scene."""

    name = "splat-paper"
    count, classes = 144_000, 18
    min_timed = 2

    def generate(self, gv, rng, workdir: Path) -> None:
        lo, extent = _extent(NUSCENES)
        n = self.count
        scene = _scene(gv, lo + rng.random((n, 3)) * extent, rng.uniform(0.015, 0.3, (n, 3)),
                       _rotations(rng, n), _softmax(rng.normal(size=(n, self.classes))))
        gv.write_scene(scene, workdir / "scene.sgau")

    def load(self, gv, workdir: Path):
        """Read the scene once and import the CLI; the state is the CLI module."""
        gv.read_scene(workdir / "scene.sgau")
        return importlib.import_module("gaussvox.cli")

    def _splat(self, cli, workdir: Path, out: Path) -> int:
        return cli.main(["splat", "--scene", str(workdir / "scene.sgau"), "--preset", "nuscenes",
                         "--cutoff", "3", "--threads", "1", "--out", str(out)])

    def one_op(self, gv, cli, job: dict) -> None:
        workdir = Path(job["workdir"])
        self._splat(cli, workdir, workdir / "grid-memory.svox")

    def run(self, gv, cli, job: dict, timer: Timer, after_first) -> dict:
        workdir = Path(job["workdir"])
        first, later = workdir / "grid-first.svox", workdir / "grid.svox"
        codes = [self._splat(cli, workdir, first)]
        after_first()
        identical = []
        started = time.perf_counter()
        while not timer.enough(started, job["seconds"], self.min_timed):
            traced = timer.next_traced()
            t0 = time.perf_counter()
            codes.append(self._splat(cli, workdir, later))
            timer.ops.append((t0, time.perf_counter(), traced))
            timer.tracer.uninstall()
            identical.append(filecmp.cmp(first, later, shallow=False))
        return {"codes": codes, "identical": identical}

    def check(self, gv, workdir: Path, result: dict, rng) -> tuple[list[bool], list[str]]:
        """Per-op failure flags and faults: the first grid against the reference,
        every later grid byte for byte against the first."""
        geometry, labels, scores = reference.read_svox(workdir / "grid-first.svox")
        ref = reference.ReferenceSplat(*reference.read_sgau(workdir / "scene.sgau"))
        faults = reference.check_splat(ref, geometry, scores, labels,
                                       reference.sample_voxels(scores, rng))
        same = [True] + result["identical"]
        failed = [bool(faults) or rc != 0 or not ok for rc, ok in zip(result["codes"], same)]
        if not all(same):
            faults.append(f"{same.count(False)} grids differ from the first operation's file")
        return failed, faults


class FitWorkload:
    """One `fit` iteration per operation, timed from one log_fn callback to the next.

    Each scene's fit runs one untimed first iteration and then the timed
    ones.  The gradient check runs on the first scene before any timing.
    """

    name = ""
    threads = 1
    scenes = 1
    h = 1e-2
    s_min, s_max = 0.01, 0.3
    min_timed = 2

    def config(self, gv, iterations: int):
        return gv.FitConfig(iterations=iterations, cutoff_sigma=reference.CUTOFF_SIGMA,
                            s_min=self.s_min, s_max=self.s_max)

    def _write(self, gv, workdir, k, initial, truth) -> None:
        gv.write_scene(initial, workdir / f"initial-{k}.sgau")
        gv.write_grid(truth, workdir / f"truth-{k}.svox")

    def load(self, gv, workdir: Path):
        return [(gv.read_scene(workdir / f"initial-{k}.sgau"),
                 gv.read_grid(workdir / f"truth-{k}.svox")) for k in range(self.scenes)]

    def gradient_check(self, gv, workdir: Path, rng):
        """(relative error, passed, seconds of the unperturbed evaluation) on scene 0."""
        fitter = importlib.import_module("gaussvox.fitter")
        initial, truth = self.load(gv, workdir)[0]
        cfg = self.config(gv, 1)
        params = fitter.RawGaussianParams.from_scene(initial, cfg.s_min, cfg.s_max)

        def evaluate(p):
            scene = p.activate(cfg.s_min, cfg.s_max)
            index = gv.build_splat_index(scene, truth.spec, cfg.cutoff_sigma, threads=self.threads)
            grid = gv.splat(scene, truth.spec, index=index)
            return index, gv.voxel_losses(grid, truth, cfg.loss_weights)

        t0 = time.perf_counter()
        index, loss = evaluate(params)
        grads = gv.backward_splat(params, index, truth.spec, loss.d_scores, cfg.s_min, cfg.s_max)
        base_s = time.perf_counter() - t0
        arrays = {k: getattr(params, k) for k in fitter.PARAM_KEYS}
        rel, ok = reference.check_gradient(
            arrays, grads, lambda a: evaluate(fitter.RawGaussianParams(**a))[1].total,
            rng, self.h, GRADIENT_TOL)
        return rel, ok, base_s

    def timed_per_scene(self, seconds: float, op_estimate_s: float) -> int:
        total = max(self.min_timed, int(seconds // op_estimate_s))
        return -(-total // self.scenes)

    def one_op(self, gv, state, job: dict) -> None:
        initial, truth = state[0]
        gv.fit(initial, truth, self.config(gv, 1), threads=self.threads)

    def run(self, gv, state, job: dict, timer: Timer, after_first) -> dict:
        workdir = Path(job["workdir"])
        timed = job["timed_per_scene"] * (2 if timer.trace else 1)
        losses = []
        for k, (initial, truth) in enumerate(state):
            scene_losses = []
            clock = {}

            def log_fn(rec, k=k, scene_losses=scene_losses, clock=clock):
                now = time.perf_counter()
                if scene_losses:
                    timer.ops.append((clock["start"], now, clock["traced"]))
                elif k == 0:
                    after_first()
                scene_losses.append(rec.total_loss)
                clock["traced"] = timer.next_traced()
                clock["start"] = time.perf_counter()

            report = gv.fit(initial, truth, self.config(gv, 1 + timed), threads=self.threads,
                            log_fn=log_fn)
            timer.tracer.uninstall()
            gv.write_scene(report.scene, workdir / f"fitted-{k}.sgau")
            losses.append(scene_losses)
        return {"losses": losses}

    def check(self, gv, workdir: Path, result: dict, rng) -> tuple[list[bool], list[str]]:
        """Per-iteration failure flags and faults: each loss must be finite and
        below the one before, and each returned scene's 3-sigma splat must
        match the reference."""
        failed, faults = [], []
        for k, losses in enumerate(result["losses"]):
            flags = [not math.isfinite(x) or (i > 0 and not x < losses[i - 1])
                     for i, x in enumerate(losses)]
            if any(flags):
                faults.append(f"scene {k}: the loss did not fall every iteration: {losses}")
            scene_arrays = reference.read_sgau(workdir / f"fitted-{k}.sgau")
            truth = gv.read_grid(workdir / f"truth-{k}.svox")
            grid = gv.splat(_scene(gv, *scene_arrays), truth.spec, reference.CUTOFF_SIGMA)
            geometry = (truth.spec.origin, truth.spec.cell_size, truth.spec.dims)
            splat_faults = reference.check_splat(
                reference.ReferenceSplat(*scene_arrays), geometry, grid.scores, grid.labels,
                reference.sample_voxels(grid.scores, rng))
            if splat_faults:
                flags[-1] = True
                faults += [f"scene {k}, fitted splat: {f}" for f in splat_faults]
            failed += flags
        return failed, faults


class FitPaper(FitWorkload):
    """Fit 25,600 lattice gaussians to a driving-like nuScenes-sized truth grid, 2 threads."""

    name = "fit-paper"
    threads = 2
    classes = 18
    lattice = (40, 40, 16)
    ignore_share = 0.05

    def generate(self, gv, rng, workdir: Path) -> None:
        origin, cell, dims = NUSCENES
        labels = np.zeros(dims, dtype=np.uint8)
        labels[:, :, :2] = 1  # ground plane, the lowest metre
        for _ in range(int(rng.integers(200, 401))):
            x, y = rng.integers(0, dims[0]), rng.integers(0, dims[1])
            sx, sy, sz = rng.integers(2, 13), rng.integers(2, 13), rng.integers(2, 9)
            labels[x:x + sx, y:y + sy, 2:2 + sz] = rng.integers(2, self.classes)
        labels = labels.reshape(-1)
        labels[rng.random(labels.size) < self.ignore_share] = gv.IGNORE_LABEL
        spec = gv.GridSpec(origin, cell, dims)
        truth = gv.OccupancyGrid(spec, self.classes, labels)

        lo, extent = _extent(NUSCENES)
        n = int(np.prod(self.lattice))
        ijk = np.stack(np.meshgrid(*(np.arange(k) for k in self.lattice), indexing="ij"),
                       axis=-1).reshape(-1, 3)
        spacing = extent / np.asarray(self.lattice)
        means = lo + (ijk + 0.5) * spacing + rng.normal(0.0, 0.5, (n, 3)) * np.asarray(cell)
        mid = 0.5 * (self.s_min + self.s_max)
        initial = _scene(gv, means, mid * rng.uniform(0.9, 1.1, (n, 3)), _rotations(rng, n),
                         _softmax(0.1 * rng.normal(size=(n, self.classes))))
        self._write(gv, workdir, 0, initial, truth)


class FitBroad(FitWorkload):
    """Fit broad gaussians, many covering the whole grid, on a 32^3 grid, 1 thread.

    Each run fits two scenes whose gaussian counts are drawn from the lower
    and upper half of 150-200, so one seed's draw moves the median less.
    """

    name = "fit-broad"
    threads = 1
    scenes = 2
    h = 1e-3
    s_min, s_max = 0.1, 4.0

    def generate(self, gv, rng, workdir: Path) -> None:
        origin, cell, dims = BROAD
        lo, extent = _extent(BROAD)
        spec = gv.GridSpec(origin, cell, dims)
        for k in range(self.scenes):
            n = int(rng.integers(150 + 25 * k, 176 + 25 * k))
            c = int(rng.integers(2, 7))
            arrays = [(lo - 1.0) + rng.random((n, 3)) * (extent + 2.0),
                      np.exp(rng.uniform(np.log(0.5), np.log(3.0), (n, 3))),
                      _rotations(rng, n), _softmax(rng.normal(size=(n, c)))]
            scene = _scene(gv, *arrays)
            labels = reference.ReferenceSplat(scene.means, scene.scales, scene.rotations,
                                              scene.logits).labels(BROAD)
            means, scales, rotations, semantics = arrays
            initial = _scene(
                gv, means + rng.normal(0.0, 0.1, (n, 3)),
                np.clip(scales * np.exp(rng.normal(0.0, 0.05, (n, 3))), 0.45, 3.3),
                _unit(rotations + rng.normal(0.0, 0.05, (n, 4))),
                _softmax(np.log(semantics) + rng.normal(0.0, 0.2, (n, c))))
            self._write(gv, workdir, k, initial, gv.OccupancyGrid(spec, c, labels))


WORKLOADS = {w.name: w for w in (SplatPaper(), FitPaper(), FitBroad())}
