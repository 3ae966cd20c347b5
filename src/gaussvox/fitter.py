"""Gradient-based fitting of a Gaussian scene to a target occupancy grid.

Each iteration splats the current scene, evaluates the voxel losses, pulls
the loss gradient back through the splatting equations to the raw Gaussian
parameters, and applies a refinement step: the mean is updated residually
while scale, rotation and semantics are substituted with their proposed
values (the proposals here come from a decoupled-weight-decay adaptive-moment
optimizer instead of a learned network).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import GaussianScene, sigmoid, softmax
from .errors import DivergenceError, UndefinedMetricError
from .grid import IGNORE_LABEL, GridSpec, OccupancyGrid
from .losses import _ROW_BYTES, voxel_losses
from .metrics import confusion, miou, scene_completion_iou
from .splat import (
    _VJP_GAUSSIANS,
    SplatIndex,
    _check_dense_bytes,
    _pair_moments,
    build_splat_index,
    frames_vjp,
    gaussian_frames,
    splat,
)
from .team import Team, check_threads

PARAM_KEYS = ("means", "raw_scales", "rotations", "raw_logits")
# A scene stores float32 values: its parameters must lie within these.
_FLOAT32_MAX = float(np.finfo(np.float32).max)
_FLOAT32_TINY = float(np.finfo(np.float32).smallest_subnormal)


@dataclass
class FitConfig:
    iterations: int = 100
    learning_rate: float = 0.01
    weight_decay: float = 0.0
    s_min: float = 0.01
    s_max: float = 0.3
    cutoff_sigma: float | None = 3.0  # None = exact mode (full-coverage neighborhoods)
    loss_weights: tuple[float, float] = (1.0, 1.0)  # (ce, lovasz)
    seed: int = 0
    lr_schedule: str = "constant"  # "constant" or "cosine"
    warmup_iters: int = 0

    def __post_init__(self):
        # Written so that NaN fails every test.
        if not self.iterations >= 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if not 0 < self.s_min < self.s_max < math.inf:
            raise ValueError(f"need 0 < s_min < s_max, finite, got {self.s_min} and {self.s_max}")
        if not (_FLOAT32_TINY <= self.s_min and self.s_max <= _FLOAT32_MAX):
            raise ValueError(f"s_min and s_max must be positive finite float32 values, got "
                             f"{self.s_min} and {self.s_max}")
        if not self.warmup_iters >= 0:
            raise ValueError(f"warmup_iters must be >= 0, got {self.warmup_iters}")
        if not all(0 <= w < math.inf for w in self.loss_weights):
            raise ValueError(f"loss_weights must be finite and >= 0, got {self.loss_weights}")
        if self.lr_schedule not in ("constant", "cosine"):
            raise ValueError(f"unknown lr_schedule {self.lr_schedule!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)) \
                or self.seed < 0:
            raise ValueError(f"seed must be a non-negative int, got {self.seed!r}")

    def lr_at(self, iteration: int) -> float:
        lr = self.learning_rate
        if self.warmup_iters > 0 and iteration < self.warmup_iters:
            return lr * (iteration + 1) / self.warmup_iters
        if self.lr_schedule == "cosine":
            span = max(1, self.iterations - self.warmup_iters)
            t = (iteration - self.warmup_iters) / span
            return lr * 0.5 * (1.0 + math.cos(math.pi * t))
        return lr


@dataclass
class IterationRecord:
    iteration: int
    ce_loss: float
    lovasz_loss: float
    total_loss: float
    miou: float
    sc_iou: float
    millis: float


@dataclass
class FitReport:
    records: list[IterationRecord]
    scene: GaussianScene

    @property
    def losses(self) -> np.ndarray:
        return np.array([r.total_loss for r in self.records])


@dataclass
class RawGaussianParams:
    """Pre-activation parameterization: raw scale (pre-sigmoid), raw logits
    (pre-softmax), ambient quaternion renormalized every step."""

    means: np.ndarray  # (P, 3) float64
    raw_scales: np.ndarray  # (P, 3) float64
    rotations: np.ndarray  # (P, 4) float64
    raw_logits: np.ndarray  # (P, C) float64

    def __post_init__(self):
        for key in PARAM_KEYS:
            setattr(self, key, np.ascontiguousarray(getattr(self, key), dtype=np.float64))

    @classmethod
    def from_scene(cls, scene: GaussianScene, s_min: float, s_max: float) -> "RawGaussianParams":
        frac = (scene.scales.astype(np.float64) - s_min) / (s_max - s_min)
        frac = np.clip(frac, 1e-6, 1.0 - 1e-6)
        raw_scales = np.log(frac / (1.0 - frac))
        sem = np.clip(scene.logits.astype(np.float64), 1e-12, None)
        return cls(
            means=scene.means.astype(np.float64),
            raw_scales=raw_scales,
            rotations=scene.rotations.astype(np.float64),
            raw_logits=np.log(sem),
        )

    def activate(self, s_min: float, s_max: float) -> GaussianScene:
        return GaussianScene(*self.rows(s_min, s_max))

    def rows(self, s_min: float, s_max: float, out=None) -> tuple:
        """The activated scene's float32 means, scales, unit rotations and semantics,
        each row found from its gaussian's parameters alone, unchecked.

        They are written into ``out``, four (P, width) float32 arrays, by
        default new ones, which are returned.  Gaussians are taken
        ``_VJP_GAUSSIANS`` at a time, so that the float64 temporaries stay
        in cache; rows are elementwise, so the block changes no bit.
        """
        p, c = self.raw_logits.shape
        if out is None:
            out = tuple(np.empty((p, width), np.float32) for width in (3, 3, 4, c))
        for a in range(0, p, _VJP_GAUSSIANS):
            b = min(a + _VJP_GAUSSIANS, p)
            part = self.part(a, b)
            out[0][a:b] = part.means
            out[1][a:b] = s_min + sigmoid(part.raw_scales) * (s_max - s_min)
            norms = np.sqrt(np.sum(part.rotations ** 2, axis=1, keepdims=True))
            out[2][a:b] = part.rotations / norms
            out[3][a:b] = softmax(part.raw_logits, axis=1)
        return out

    def copy(self) -> "RawGaussianParams":
        return RawGaussianParams(*(getattr(self, k).copy() for k in PARAM_KEYS))

    def part(self, a: int, b: int) -> "RawGaussianParams":
        """Gaussians a to b - 1 alone, as views of these parameters."""
        return RawGaussianParams(*(getattr(self, k)[a:b] for k in PARAM_KEYS))


class AdamW:
    """Decoupled-weight-decay adaptive-moment optimizer over the raw params.

    ``deltas`` returns the update to add to each parameter array; it does not
    mutate the parameters, so the fit loop can route the step through the
    residual-mean / substitute-others refinement rule.
    """

    def __init__(self, params: RawGaussianParams, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay: float = 0.0):
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(getattr(params, k)) for k in PARAM_KEYS}
        self.v = {k: np.zeros_like(getattr(params, k)) for k in PARAM_KEYS}

    def deltas(self, params: RawGaussianParams, grads: dict, lr: float) -> dict:
        self.t += 1
        out = {}
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for k in PARAM_KEYS:
            g = grads[k]
            self.m[k] = self.beta1 * self.m[k] + (1.0 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1.0 - self.beta2) * g * g
            m_hat = self.m[k] / bc1
            v_hat = self.v[k] / bc2
            step = m_hat / (np.sqrt(v_hat) + self.eps)
            out[k] = -lr * (step + self.weight_decay * getattr(params, k))
        return out


def backward_splat(
    params: RawGaussianParams,
    index: SplatIndex,
    spec: GridSpec,
    d_scores: np.ndarray,
    s_min: float,
    s_max: float,
    voxels: np.ndarray | None = None,
) -> dict:
    """Chain the per-voxel score gradient back to the raw Gaussian parameters.

    ``d_scores`` has the rows of the scores the loss read: (V, C) with
    ``voxels`` None, else row i is voxel ``voxels[i]``, ascending, and every
    voxel of the index's boxes has a row; any other shape, or a ``spec``
    other than the index's, is a ValueError, raised before any pass.  Each
    gaussian accumulates only over its own neighborhood pairs, in ascending
    voxel order, mirroring the forward sparsity.  ``_pair_moments`` reads a
    gaussian of a large box as that box, in dense blocks of whole x-layers,
    whose sums come from per-layer moments, and the others as pair runs,
    split by the forward pass's rule, whose sums are ``pair_weights_vjp``'s
    ``np.bincount`` sums in pair order.  So the result depends on no run,
    block or slab size; the two paths round differently, and the tests hold
    both to one bound against a float64 reference.
    The rotation gradient is projected onto the unit-quaternion tangent.
    The frames are dropped once the moments are summed, and ``frames_vjp``
    takes the gaussians in blocks, so beyond one run's or one block's
    scratch the pass holds per-gaussian parameters, moments and gradients.
    """
    if spec != index.spec:
        raise ValueError("index was built for another grid")
    shape = (index.num_voxels if voxels is None else voxels.size, params.raw_logits.shape[1])
    if d_scores.shape != shape:
        raise ValueError(f"d_scores is {d_scores.shape}, not the rows' {shape}")
    span = s_max - s_min
    sig = sigmoid(params.raw_scales)
    sem = softmax(params.raw_logits, axis=1)
    scales = s_min + sig * span
    s_z, s_zz, d_sem = _pair_moments(gaussian_frames(params.means, scales, params.rotations),
                                      index, d_scores, sem, voxels)
    d_mean, d_scale, d_quat = frames_vjp(scales, params.rotations, s_z, s_zz)
    return {
        "means": d_mean,
        "raw_scales": d_scale * sig * (1.0 - sig) * span,
        "rotations": d_quat,
        "raw_logits": sem * (d_sem - np.sum(d_sem * sem, axis=1, keepdims=True)),
    }


def _arena_bytes(num_voxels: int, class_count: int, gaussians: int, ranks: int) -> int:
    """The bytes that a team's ranks share in a ``fit`` call, at most.

    Kept for the whole call: the (P, 10 + C) float64 parameters.  Then, in
    each iteration, per voxel: the splat's covered mask, float32 score rows
    and labels, 4 C + 2; the loss's row max, log-sum-exp and label
    log-probabilities, 24, and its float64 gradient rows, 8 C.  Per
    gaussian: the scene's float32 rows, 4 (10 + C), and the index's int32
    boxes and int64 pair counts, 32.  The loss's per-rank maxima and
    per-class terms, 8 C (ranks + 3); and a cache line of padding for each
    of at most 32 arrays.
    """
    c = class_count
    return (num_voxels * (12 * c + 26) + 8 * c * (ranks + 3) + gaussians * (12 * (10 + c) + 32)
            + (1 << 11))


def _shared(team: Team, params: RawGaussianParams, share) -> RawGaussianParams:
    """A copy of ``params`` in the team's arena, kept there for the whole call.

    Each rank copies its ``share`` of the gaussians, which its steps then
    update in place; the others read it only after the next barriers.
    """
    a, b = share
    kept = RawGaussianParams(*(team.empty(getattr(params, k).shape) for k in PARAM_KEYS))
    for key in PARAM_KEYS:
        getattr(kept, key)[a:b] = getattr(params, key)[a:b]
    team.keep()
    return kept


def _activate(team: Team, params: RawGaussianParams, share, s_min: float,
              s_max: float) -> GaussianScene:
    """The scene of ``params``, each rank activating its ``share`` of the gaussians.

    The scene's float32 rows live in the team's arena, and each rank writes
    those of its share: a row comes from its own gaussian's parameters
    alone, so it has the bits of ``activate``.  Once all are written, every
    rank checks the whole scene, so a bad value raises the error, naming
    the gaussian, that one process would.
    """
    a, b = share
    p, c = params.raw_logits.shape
    rows = [team.empty((p, width), np.float32) for width in (3, 3, 4, c)]
    params.part(a, b).rows(s_min, s_max, [row[a:b] for row in rows])
    team.barrier()
    return GaussianScene(*rows)


@dataclass
class Proposals:
    """Per-gaussian refinement proposals: a residual for the mean, full
    replacement values for everything else."""

    mean_residual: np.ndarray
    raw_scales: np.ndarray
    rotations: np.ndarray
    raw_logits: np.ndarray


def _check_step(params: RawGaussianParams, proposals: Proposals, iteration: int) -> None:
    """DivergenceError unless every value that ``proposals`` give ``params`` lies
    in float32's finite range, where a scene's rows must; NaN fails too."""
    stepped = (params.means + proposals.mean_residual, proposals.raw_scales,
               proposals.rotations, proposals.raw_logits)
    if not all(np.all(np.abs(value) <= _FLOAT32_MAX) for value in stepped):
        raise DivergenceError(iteration, "a step left a parameter non-finite or outside float32")


def refine_step(params: RawGaussianParams, proposals: Proposals) -> RawGaussianParams:
    """Apply the refinement rule: mean += residual, others substituted.

    The substituted rotation is renormalized.  The values are written into
    ``params``' own arrays, so a ``part`` of larger parameters updates them;
    returns ``params``.
    """
    params.means += proposals.mean_residual
    params.raw_scales[...] = proposals.raw_scales
    rot = np.ascontiguousarray(proposals.rotations, dtype=np.float64)
    params.rotations[...] = rot / np.sqrt(np.sum(rot ** 2, axis=1, keepdims=True))
    params.raw_logits[...] = proposals.raw_logits
    return params


@dataclass
class SceneInit:
    """Initialization request used when ``fit`` is not given a scene."""

    mode: str  # "uniform" or "jittered-grid"
    count: int
    jitter: float = 0.5  # lattice jitter in cells, jittered-grid only


def init_scene(
    mode: str,
    count: int,
    bounds: GridSpec,
    seed: int,
    class_count: int,
    s_min: float = 0.01,
    s_max: float = 0.3,
    jitter: float = 0.5,
) -> GaussianScene:
    """Deterministic scene initialization inside a grid volume.

    ``uniform`` draws means i.i.d. in the volume; ``jittered-grid`` places
    them on a near-regular lattice plus Gaussian jitter (in cells).  Scales
    start mid-range, rotations at identity, semantics uniform.  A jitter
    that puts a mean outside float32's finite range is a ValueError.  The
    float64 means drawn and the float32 scene, ``24 + 4 (10 + C)`` bytes
    per gaussian, are checked against ``MAX_SCORE_BYTES`` before either
    exists.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not 0 <= jitter < math.inf:
        raise ValueError(f"jitter must be finite and >= 0, got {jitter}")
    _check_dense_bytes(count, 24 + 4 * (10 + class_count), per="gaussian")
    rng = np.random.default_rng(seed)
    origin = np.asarray(bounds.origin)
    cell = np.asarray(bounds.cell_size)
    extent = cell * np.asarray(bounds.dims)

    if mode == "uniform":
        means = origin + rng.random((count, 3)) * extent
    elif mode == "jittered-grid":
        # Near-cubic lattice with per-axis counts proportional to extent.
        geo = float(np.prod(extent)) ** (1.0 / 3.0)
        n = np.maximum(1, np.round((count ** (1.0 / 3.0)) * extent / geo).astype(int))
        while int(np.prod(n)) < count:
            n[int(np.argmin(n * geo / extent))] += 1
        spacing = extent / n
        idx = np.stack(
            np.meshgrid(np.arange(n[0]), np.arange(n[1]), np.arange(n[2]), indexing="ij"),
            axis=-1,
        ).reshape(-1, 3)[:count]
        means = origin + (idx + 0.5) * spacing
        if jitter > 0:
            with np.errstate(over="ignore", invalid="ignore"):
                means = means + rng.normal(0.0, jitter, (count, 3)) * cell
            if not np.all(np.abs(means) <= _FLOAT32_MAX):
                raise ValueError(f"jitter {jitter} puts gaussian means outside float32's range")
    else:
        raise ValueError(f"unknown init mode {mode!r}")

    scales = np.full((count, 3), 0.5 * (s_min + s_max), dtype=np.float32)
    rotations = np.zeros((count, 4), dtype=np.float32)
    rotations[:, 0] = 1.0
    logits = np.full((count, class_count), 1.0 / class_count, dtype=np.float32)
    return GaussianScene(means.astype(np.float32), scales, rotations, logits)


def fit(
    initial: GaussianScene | SceneInit,
    truth: OccupancyGrid,
    config: FitConfig,
    threads: int = 1,
    log_fn=None,
) -> FitReport:
    """Iteratively refine a scene against a target grid.

    Runs ``config.iterations`` rounds of splat, loss, backward, optimizer and
    refinement, recording losses and metrics per iteration.  ``log_fn``, when
    given, receives each IterationRecord as it is produced.  ``threads``, a
    positive int, is the number of processes: with N >= 2, a ``Team`` forks
    N - 1 workers before the first iteration, and all N run every iteration
    in lockstep, with their shared arrays in the team's arena, a
    ``MAP_SHARED`` mapping of at most ``_arena_bytes``; at N = 1 the one
    rank runs the same code on numpy's arrays.  Each rank owns a contiguous
    share of the gaussians, by count, for the whole call: it activates
    their rows, finds their boxes, back-propagates to their parameters and
    steps them with its own AdamW moments.  A gaussian's gradients come
    from its own pairs and parameters alone, so they never leave its rank;
    the parameters live in the arena, where the next activation reads them.
    The splat's covered mask and scores go by slabs, and the loss by row
    blocks and classes.  Every voxel, class column and gaussian is found by
    the same code in the same order, so the result has the same bits at
    any ``threads``; only the speed changes.  The caller's process keeps
    the records, takes the metrics and calls ``log_fn``; a worker's error
    is raised here as its own type, and no worker outlives the call.
    Each iteration splats into float32 score rows, one per voxel in the
    index's boxes; the loss runs over them and gives its gradient in the
    same rows, which the backward pass reads, and the confusion matrix is
    tallied over them, every other voxel being empty.  The score rows with
    their voxel ids and the labels, ``4 C + 9`` bytes per row, and the
    loss's one float64 buffer and its per-row arrays, ``8 C +
    _ROW_BYTES``, are checked against ``MAX_SCORE_BYTES`` at one row per
    voxel before the first of them exists.
    Only the parameters and the AdamW moments live from one iteration into
    the next: the scene is dropped after the splat, the score rows after
    the loss, the gradient rows and the index after the backward pass, the
    gradients after the step, and the grid's labels and voxel ids once the
    metrics are taken.  The arena's pages, touched once, stay mapped until
    the call ends.
    """
    check_threads(threads)
    _check_dense_bytes(truth.spec.num_voxels, (4 + 8) * truth.class_count + 9 + _ROW_BYTES)
    # The count of each label value, for every iteration's confusion matrix.
    truth_counts = np.bincount(truth.labels, minlength=IGNORE_LABEL + 1)
    if truth_counts[IGNORE_LABEL] == truth.spec.num_voxels:
        raise ValueError("truth grid has no non-ignore voxel")
    if isinstance(initial, SceneInit):
        initial = init_scene(
            initial.mode, initial.count, truth.spec, config.seed,
            truth.class_count, config.s_min, config.s_max, initial.jitter,
        )
    if initial.class_count != truth.class_count:
        raise ValueError("scene and truth class counts differ")

    params = RawGaussianParams.from_scene(initial, config.s_min, config.s_max)
    records: list[IterationRecord] = []
    shared = _arena_bytes(truth.spec.num_voxels, truth.class_count, len(initial), threads)

    with Team(threads, shared) as team:
        share = a, b = team.span(np.arange(len(initial) + 1))
        params = _shared(team, params, share)
        mine = params.part(a, b)
        opt = AdamW(mine, weight_decay=config.weight_decay)
        for it in range(config.iterations):
            team.reset()
            t0 = time.perf_counter()
            scene = _activate(team, params, share, config.s_min, config.s_max)
            index = build_splat_index(scene, truth.spec, config.cutoff_sigma, team=team)
            grid = splat(scene, truth.spec, index=index, rows=True, team=team)
            scene = None  # the backward pass reads the parameters
            lb = voxel_losses(grid, truth, config.loss_weights, team=team)
            grid.scores = None  # the metrics read the labels and voxel ids only
            if not math.isfinite(lb.total):
                raise DivergenceError(it)

            grads = backward_splat(mine, index.part(a, b), truth.spec, lb.d_scores,
                                   config.s_min, config.s_max, grid.voxels)
            lb.d_scores = index = None
            # An overflow here is a divergence, which the check below raises.
            with np.errstate(over="ignore", invalid="ignore"):
                deltas = opt.deltas(mine, grads, config.lr_at(it))
                proposals = Proposals(
                    mean_residual=deltas["means"],
                    raw_scales=mine.raw_scales + deltas["raw_scales"],
                    rotations=mine.rotations + deltas["rotations"],
                    raw_logits=mine.raw_logits + deltas["raw_logits"],
                )
            grads = deltas = None
            _check_step(mine, proposals, it)
            refine_step(mine, proposals)
            proposals = None
            if team.rank:  # the caller's process alone reports
                grid = None
                continue

            try:
                cm = confusion(grid, truth, truth_counts)
                _, mean_iou = miou(cm)
                sc = scene_completion_iou(cm)
            except UndefinedMetricError:
                mean_iou, sc = float("nan"), float("nan")
            grid = None
            rec = IterationRecord(
                iteration=it,
                ce_loss=lb.ce,
                lovasz_loss=lb.lovasz,
                total_loss=lb.total,
                miou=mean_iou,
                sc_iou=sc,
                millis=(time.perf_counter() - t0) * 1e3,
            )
            records.append(rec)
            if log_fn is not None:
                log_fn(rec)

    return FitReport(records=records, scene=params.activate(config.s_min, config.s_max))
