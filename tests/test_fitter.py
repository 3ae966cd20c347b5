"""Tests for the gradient-based scene fitter."""

import importlib
import math
import tracemalloc

import numpy as np
import pytest

from gaussvox import (
    AdamW,
    CapacityError,
    FitConfig,
    GaussianScene,
    GridSpec,
    OccupancyGrid,
    Proposals,
    RawGaussianParams,
    SceneInit,
    backward_splat,
    build_splat_index,
    fit,
    init_scene,
    refine_step,
    splat,
    voxel_losses,
)
from gaussvox.fitter import PARAM_KEYS
from gaussvox.grid import IGNORE_LABEL
from test_loss_parity import driving_scene, octant_scene, sparse_driving_scene

fitter_module = importlib.import_module("gaussvox.fitter")
splat_module = importlib.import_module("gaussvox.splat")
losses_module = importlib.import_module("gaussvox.losses")

SPEC8 = GridSpec((-1.0, -1.0, -1.0), (0.25, 0.25, 0.25), (8, 8, 8))
S_MIN, S_MAX = 0.05, 0.6


def random_params(rng, count, class_count):
    rotations = rng.normal(size=(count, 4))
    # the fit loop renormalizes after every step, so unit quaternions are the
    # operational regime for gradients
    rotations /= np.linalg.norm(rotations, axis=1, keepdims=True)
    return RawGaussianParams(
        means=rng.uniform(-0.8, 0.8, (count, 3)),
        raw_scales=rng.normal(0.0, 0.5, (count, 3)),
        rotations=rotations,
        raw_logits=rng.normal(0.0, 0.5, (count, class_count)),
    )


def random_truth(rng, spec, class_count):
    labels = rng.integers(0, class_count, spec.num_voxels).astype(np.uint8)
    return OccupancyGrid(spec, class_count, labels)


def forward_loss(params, truth, weights):
    scene = params.activate(S_MIN, S_MAX)
    grid = splat(scene, truth.spec, cutoff_sigma=None)
    return voxel_losses(grid, truth, weights)


def test_backward_zero_upstream_gradient():
    rng = np.random.default_rng(51)
    params = random_params(rng, 3, 2)
    scene = params.activate(S_MIN, S_MAX)
    index = build_splat_index(scene, SPEC8, None)
    d_scores = np.zeros((SPEC8.num_voxels, 2))
    grads = backward_splat(params, index, SPEC8, d_scores, S_MIN, S_MAX)
    for k in PARAM_KEYS:
        assert np.all(grads[k] == 0)


def test_backward_mean_gradient_zero_at_peak():
    # A single gaussian centered on the only voxel: the weight peaks there,
    # so the mean gradient vanishes regardless of the upstream value.
    spec = GridSpec((0, 0, 0), (1, 1, 1), (1, 1, 1))
    params = RawGaussianParams(
        means=np.array([[0.5, 0.5, 0.5]]),
        raw_scales=np.zeros((1, 3)),
        rotations=np.array([[1.0, 0, 0, 0]]),
        raw_logits=np.zeros((1, 2)),
    )
    scene = params.activate(S_MIN, S_MAX)
    index = build_splat_index(scene, spec, None)
    d_scores = np.array([[0.3, -0.7]])
    grads = backward_splat(params, index, spec, d_scores, S_MIN, S_MAX)
    assert np.allclose(grads["means"], 0.0, atol=1e-12)


def test_end_to_end_gradients_match_finite_differences():
    # Forward splatting stores float32 scores, so finite differences need a
    # step well above that quantization; h = 1e-3 keeps the noise two orders
    # below the 1e-3 acceptance bound.
    rng = np.random.default_rng(52)
    h = 1e-3
    worst = 0.0
    for trial in range(3):
        count = int(rng.integers(1, 5))
        c = int(rng.integers(2, 4))
        params = random_params(rng, count, c)
        truth = random_truth(rng, SPEC8, c)
        weights = (1.0, 1.0)

        scene = params.activate(S_MIN, S_MAX)
        index = build_splat_index(scene, SPEC8, None)
        grid = splat(scene, SPEC8, index=index)
        lb = voxel_losses(grid, truth, weights)
        grads = backward_splat(params, index, SPEC8, lb.d_scores, S_MIN, S_MAX)

        for key in PARAM_KEYS:
            arr = getattr(params, key)
            fd = np.zeros_like(arr)
            for idx in np.ndindex(arr.shape):
                saved = arr[idx]
                arr[idx] = saved + h
                fp = forward_loss(params, truth, weights).total
                arr[idx] = saved - h
                fm = forward_loss(params, truth, weights).total
                arr[idx] = saved
                fd[idx] = (fp - fm) / (2 * h)
            if key == "rotations":
                # analytic rotation gradients live in the unit-sphere tangent
                q = params.rotations / np.linalg.norm(
                    params.rotations, axis=1, keepdims=True
                )
                fd = fd - np.sum(fd * q, axis=1, keepdims=True) * q
            ref = max(np.abs(grads[key]).max(), np.abs(fd).max(), 1e-6)
            rel = np.abs(grads[key] - fd).max() / ref
            worst = max(worst, rel)
    assert worst < 1e-3, f"worst relative error {worst:.3e}"


def test_refine_step_residual_mean():
    params = RawGaussianParams(
        means=np.array([[1.0, 1.0, 1.0]]),
        raw_scales=np.zeros((1, 3)),
        rotations=np.array([[1.0, 0, 0, 0]]),
        raw_logits=np.zeros((1, 2)),
    )
    refine_step(
        params,
        Proposals(
            mean_residual=np.array([[0.1, 0.0, 0.0]]),
            raw_scales=np.array([[0.2, 0.2, 0.2]]),
            rotations=np.array([[2.0, 0.0, 0.0, 0.0]]),
            raw_logits=np.array([[1.0, -1.0]]),
        ),
    )
    assert np.allclose(params.means, [[1.1, 1.0, 1.0]])
    assert np.allclose(params.raw_scales, 0.2)
    assert np.allclose(params.rotations, [[1.0, 0, 0, 0]])  # renormalized
    assert np.allclose(params.raw_logits, [[1.0, -1.0]])


def test_refine_step_identity_proposals():
    rng = np.random.default_rng(53)
    params = random_params(rng, 4, 3)
    params.rotations /= np.linalg.norm(params.rotations, axis=1, keepdims=True)
    before = params.copy()
    refine_step(
        params,
        Proposals(
            mean_residual=np.zeros((4, 3)),
            raw_scales=before.raw_scales,
            rotations=before.rotations,
            raw_logits=before.raw_logits,
        ),
    )
    for k in PARAM_KEYS:
        assert np.allclose(getattr(params, k), getattr(before, k), atol=1e-12)
    assert np.allclose(np.linalg.norm(params.rotations, axis=1), 1.0, atol=1e-6)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(54)
    params = random_params(rng, 3, 4)
    scene_a = params.activate(S_MIN, S_MAX)
    params.raw_logits[1] += 3.7
    scene_b = params.activate(S_MIN, S_MAX)
    assert np.allclose(scene_a.logits, scene_b.logits, atol=1e-6)
    ga = splat(scene_a, SPEC8, None)
    gb = splat(scene_b, SPEC8, None)
    assert np.array_equal(ga.labels, gb.labels)


def test_adamw_deltas_do_not_mutate_and_decay():
    rng = np.random.default_rng(55)
    params = random_params(rng, 2, 2)
    before = params.copy()
    opt = AdamW(params, weight_decay=0.1)
    grads = {k: np.zeros_like(getattr(params, k)) for k in PARAM_KEYS}
    deltas = opt.deltas(params, grads, lr=0.5)
    for k in PARAM_KEYS:
        assert np.array_equal(getattr(params, k), getattr(before, k))
        # zero gradient leaves only the decoupled decay term
        assert np.allclose(deltas[k], -0.5 * 0.1 * getattr(params, k))


def test_adamw_minimizes_quadratic():
    params = RawGaussianParams(
        means=np.array([[4.0, -3.0, 2.0]]),
        raw_scales=np.zeros((1, 3)),
        rotations=np.array([[1.0, 0, 0, 0]]),
        raw_logits=np.zeros((1, 2)),
    )
    opt = AdamW(params)
    for _ in range(800):
        grads = {k: np.zeros_like(getattr(params, k)) for k in PARAM_KEYS}
        grads["means"] = 2.0 * params.means
        deltas = opt.deltas(params, grads, lr=0.05)
        params.means += deltas["means"]
    assert np.all(np.abs(params.means) < 1e-3)


def test_init_scene_deterministic():
    a = init_scene("uniform", 10, SPEC8, seed=7, class_count=3)
    b = init_scene("uniform", 10, SPEC8, seed=7, class_count=3)
    assert np.array_equal(a.means, b.means)
    c = init_scene("uniform", 10, SPEC8, seed=8, class_count=3)
    assert not np.array_equal(a.means, c.means)


def test_init_scene_bounds_and_midrange_scales():
    scene = init_scene("uniform", 50, SPEC8, seed=1, class_count=2,
                       s_min=0.1, s_max=0.5)
    lo = np.asarray(SPEC8.origin)
    hi = np.asarray(SPEC8.upper)
    assert np.all(scene.means >= lo) and np.all(scene.means <= hi)
    assert np.allclose(scene.scales, 0.3)
    assert np.allclose(scene.rotations, [[1, 0, 0, 0]] * 50)
    assert np.allclose(scene.logits, 0.5)


def test_init_scene_lattice_zero_jitter():
    scene = init_scene("jittered-grid", 8, SPEC8, seed=0, class_count=2, jitter=0.0)
    xs = np.unique(np.round(scene.means[:, 0], 6))
    # a 2x2x2 lattice over a cubic volume has two equally spaced planes per axis
    assert xs.size == 2
    assert np.allclose(np.diff(xs), 1.0)


def test_init_scene_rejects_bad_input():
    with pytest.raises(ValueError):
        init_scene("uniform", 0, SPEC8, seed=0, class_count=2)
    with pytest.raises(ValueError):
        init_scene("triangular", 4, SPEC8, seed=0, class_count=2)
    for jitter in (math.nan, math.inf, -0.5):
        with pytest.raises(ValueError, match="jitter"):
            init_scene("jittered-grid", 4, SPEC8, seed=0, class_count=2, jitter=jitter)
    assert len(init_scene("jittered-grid", 4, SPEC8, seed=0, class_count=2, jitter=0.0)) == 4


def test_fit_zero_gradient_fixed_point():
    # With both loss weights zero and no weight decay every gradient is zero,
    # so the parameters must not move.
    rng = np.random.default_rng(56)
    initial = init_scene("uniform", 4, SPEC8, seed=3, class_count=3,
                         s_min=S_MIN, s_max=S_MAX)
    truth = random_truth(rng, SPEC8, 3)
    config = FitConfig(iterations=5, loss_weights=(0.0, 0.0), weight_decay=0.0,
                       s_min=S_MIN, s_max=S_MAX, cutoff_sigma=None)
    report = fit(initial, truth, config)
    assert np.allclose(report.scene.means, initial.means, atol=1e-7)
    assert np.allclose(report.scene.scales, initial.scales, atol=1e-7)
    assert np.allclose(report.scene.rotations, initial.rotations, atol=1e-7)
    assert np.allclose(report.scene.logits, initial.logits, atol=1e-7)


def test_fit_deterministic():
    rng = np.random.default_rng(57)
    truth = random_truth(rng, SPEC8, 3)
    config = FitConfig(iterations=8, s_min=S_MIN, s_max=S_MAX, cutoff_sigma=None,
                       seed=11)
    a = fit(SceneInit("uniform", 6), truth, config)
    b = fit(SceneInit("uniform", 6), truth, config)
    assert [r.total_loss for r in a.records] == [r.total_loss for r in b.records]
    assert np.array_equal(a.scene.means, b.scene.means)
    assert np.array_equal(a.scene.logits, b.scene.logits)
    assert len(a.records) == config.iterations


def test_fit_reduces_loss():
    rng = np.random.default_rng(58)
    truth = random_truth(rng, SPEC8, 2)
    config = FitConfig(iterations=30, learning_rate=0.05, s_min=S_MIN, s_max=S_MAX,
                       cutoff_sigma=None, seed=2)
    report = fit(SceneInit("uniform", 8), truth, config)
    assert report.records[-1].total_loss < report.records[0].total_loss


def test_fit_class_count_mismatch():
    rng = np.random.default_rng(59)
    truth = random_truth(rng, SPEC8, 3)
    initial = init_scene("uniform", 2, SPEC8, seed=0, class_count=2)
    with pytest.raises(ValueError):
        fit(initial, truth, FitConfig(iterations=1))


def test_fit_config_validation_and_schedule():
    with pytest.raises(ValueError):
        FitConfig(iterations=0)
    with pytest.raises(ValueError):
        FitConfig(learning_rate=-1.0)
    with pytest.raises(ValueError):
        FitConfig(lr_schedule="linear")
    # NaN and infinities fail too, and each error names its field.
    for field, value in (("learning_rate", math.nan), ("learning_rate", math.inf),
                         ("learning_rate", 0.0), ("weight_decay", math.nan),
                         ("weight_decay", math.inf), ("weight_decay", -1e-3),
                         ("warmup_iters", -3), ("iterations", math.nan),
                         ("loss_weights", (math.nan, 1.0)), ("loss_weights", (1.0, math.inf)),
                         ("loss_weights", (-1.0, 1.0))):
        with pytest.raises(ValueError, match=field):
            FitConfig(**{field: value})
    for s_min, s_max in ((math.nan, 0.3), (0.01, math.nan), (0.01, math.inf), (0.3, 0.3)):
        with pytest.raises(ValueError, match="s_min < s_max"):
            FitConfig(s_min=s_min, s_max=s_max)
    # The seed is a non-negative int, as numpy's generators take it; bools are refused.
    for seed in (-1, 1.5, True, "3", None, np.float64(2.0)):
        with pytest.raises(ValueError, match="seed must be a non-negative int"):
            FitConfig(seed=seed)
    assert FitConfig(seed=np.int64(3)).seed == 3 and FitConfig(seed=2 ** 70).seed == 2 ** 70
    cfg = FitConfig(iterations=100, learning_rate=1.0, lr_schedule="cosine",
                    warmup_iters=10)
    assert cfg.lr_at(0) == pytest.approx(0.1)
    assert cfg.lr_at(9) == pytest.approx(1.0)
    assert cfg.lr_at(10) == pytest.approx(1.0)
    assert cfg.lr_at(100) == pytest.approx(0.0, abs=1e-12)
    flat = FitConfig(iterations=10, learning_rate=0.3)
    assert flat.lr_at(0) == flat.lr_at(9) == 0.3


def test_raw_params_roundtrip_through_activation():
    rng = np.random.default_rng(60)
    scene = GaussianScene(
        rng.uniform(-1, 1, (5, 3)).astype(np.float32),
        (S_MIN + rng.random((5, 3)) * (S_MAX - S_MIN) * 0.98 + 0.001).astype(np.float32),
        np.tile([1.0, 0, 0, 0], (5, 1)).astype(np.float32),
        (rng.random((5, 4)) + 0.1).astype(np.float32),
    )
    sem = scene.logits / scene.logits.sum(axis=1, keepdims=True)
    scene = GaussianScene(scene.means, scene.scales, scene.rotations, sem)
    params = RawGaussianParams.from_scene(scene, S_MIN, S_MAX)
    back = params.activate(S_MIN, S_MAX)
    assert np.allclose(back.means, scene.means, atol=1e-6)
    assert np.allclose(back.scales, scene.scales, atol=1e-5)
    assert np.allclose(back.logits, sem, atol=1e-5)


def partly_covered_scene():
    """Box-path gaussians in two corners of a 24^3 grid, between runs of small
    gaussians spread over it, against a truth with 10% ignored voxels."""
    rng = np.random.default_rng(72)
    spec = GridSpec((0.0, 0.0, 0.0), (0.25, 0.25, 0.25), (24, 24, 24))
    small = [rng.uniform(0.5, 5.5, (40, 3)) for _ in range(3)]
    big = [np.full((1, 3), 1.5), np.full((1, 3), 4.5)]
    means = np.concatenate([small[0], big[0], small[1], big[1], small[2]])
    scales = np.concatenate([np.full((40, 3), 0.1), np.full((1, 3), 0.58)] * 2
                            + [np.full((40, 3), 0.1)])
    count, classes = means.shape[0], 5
    rotations = rng.normal(size=(count, 4))
    rotations /= np.linalg.norm(rotations, axis=1, keepdims=True)
    semantics = rng.dirichlet(np.ones(classes), count)
    scene = GaussianScene(means.astype(np.float32), scales.astype(np.float32),
                          rotations.astype(np.float32), semantics.astype(np.float32))
    labels = rng.integers(0, classes, spec.num_voxels).astype(np.uint8)
    labels[rng.random(spec.num_voxels) < 0.1] = IGNORE_LABEL
    return scene, OccupancyGrid(spec, classes, labels)


ROW_CASES = {
    "driving": (driving_scene, 3.0),
    "sparse-driving": (sparse_driving_scene, 3.0),
    "octant": (octant_scene, None),
    "partly-covered-boxes": (partly_covered_scene, 3.0),
}


@pytest.mark.parametrize("slab_pairs", [None, 7, 300])
@pytest.mark.parametrize("case", list(ROW_CASES))
def test_backward_reads_loss_rows_as_the_dense_gradient(monkeypatch, case, slab_pairs):
    # The loss's rows, one per covered voxel, and the dense gradient they
    # stand for give the same bits.  Octant is exact mode: every gaussian
    # takes the box path and every voxel has a row, so the rows are the
    # grid.  The partly covered case's box blocks gather their rows through
    # the row map.  The patched pair caps cut the runs and the blocks.
    make, cutoff = ROW_CASES[case]
    scene, truth = make()
    spec = truth.spec
    params = RawGaussianParams.from_scene(scene, S_MIN, S_MAX)
    activated = params.activate(S_MIN, S_MAX)
    index = build_splat_index(activated, spec, cutoff)
    grid = splat(activated, spec, index=index, rows=True)
    lb = voxel_losses(grid, truth)
    boxes = np.diff(index.gaussian_starts) > splat_module._BOX_PAIRS
    if case == "octant":
        assert boxes.all() and grid.voxels is None
    if case == "partly-covered-boxes":
        assert boxes.sum() == 2 and not boxes[0]
        assert (np.diff(index.voxel_starts) > 0).mean() < 0.9
        assert (truth.labels[grid.voxels] == IGNORE_LABEL).any()
    voxels = np.arange(spec.num_voxels) if grid.voxels is None else grid.voxels
    dense = np.zeros((spec.num_voxels, truth.class_count))
    dense[voxels] = lb.d_scores
    if slab_pairs is not None:
        monkeypatch.setattr(splat_module, "_SLAB_PAIRS", slab_pairs)
    rows = backward_splat(params, index, spec, lb.d_scores, S_MIN, S_MAX, grid.voxels)
    ref = backward_splat(params, index, spec, dense, S_MIN, S_MAX)
    assert rows["means"].any() and rows["raw_logits"].any()
    for key in PARAM_KEYS:
        assert np.array_equal(rows[key].view(np.uint64), ref[key].view(np.uint64)), key


PADDED_DIMS = ((32, 32, 16), (64, 64, 16))


def padded_case(dims):
    """300 small gaussians inside the first 32x32x16 voxels of a grid of
    ``dims``, and a random truth there, padded with class 0."""
    rng = np.random.default_rng(73)
    count, classes = 300, 6
    rotations = rng.normal(size=(count, 4))
    scene = GaussianScene(
        rng.uniform((1.0, 1.0, 0.5), (7.0, 7.0, 3.5), (count, 3)).astype(np.float32),
        np.full((count, 3), 0.1, dtype=np.float32),
        (rotations / np.linalg.norm(rotations, axis=1, keepdims=True)).astype(np.float32),
        rng.dirichlet(np.ones(classes), count).astype(np.float32))
    labels = rng.integers(0, classes, (32, 32, 16)).astype(np.uint8)
    params = RawGaussianParams.from_scene(scene, S_MIN, S_MAX)
    spec = GridSpec((0.0, 0.0, 0.0), (0.25, 0.25, 0.25), dims)
    padded = np.zeros(dims, dtype=np.uint8)
    padded[:32, :32] = labels
    return params, params.activate(S_MIN, S_MAX), spec, OccupancyGrid(spec, classes, padded.ravel())


def traced_growth(prepare, run):
    """Growth per added voxel of the traced peak of ``run(*prepare(...))``,
    from the small grid of ``padded_case`` to the large one; ``prepare`` runs
    untraced."""
    peaks = []
    for dims in PADDED_DIMS:
        state = prepare(*padded_case(dims))
        tracemalloc.start()
        try:
            run(*state)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    small, large = (int(np.prod(dims)) for dims in PADDED_DIMS)
    return (peaks[1] - peaks[0]) / (large - small)


def loss_and_backward(params, index, spec, grid, truth):
    lb = voxel_losses(grid, truth)
    backward_splat(params, index, spec, lb.d_scores, S_MIN, S_MAX, grid.voxels)


def test_loss_and_backward_memory_grows_by_no_dense_gradient():
    # The padding may add O(V) masks and the backward pass's row map, at
    # most 16 bytes per voxel, but not a dense float64 gradient of 8 * 6
    # bytes per voxel.
    def splatted(params, activated, spec, truth):
        index = build_splat_index(activated, spec, 3.0)
        return params, index, spec, splat(activated, spec, index=index, rows=True), truth

    assert traced_growth(splatted, loss_and_backward) <= 16


def test_box_path_backward_memory_grows_by_no_dense_gradient(monkeypatch):
    # Every gaussian takes the box path, and no box reaches the padding, so
    # the gradient comes as rows.  The padding may add the backward pass's
    # row map, 8 bytes per voxel, and at most 8 more, but not a dense
    # float64 gradient of 8 * 6 bytes per voxel gathered for the boxes.
    # Measured: 5.4; with the dense gradient, 55.8.
    monkeypatch.setattr(splat_module, "_BOX_PAIRS", 0)

    def lossed(params, activated, spec, truth):
        index = build_splat_index(activated, spec, 3.0)
        grid = splat(activated, spec, index=index, rows=True)
        assert grid.voxels is not None
        return params, index, spec, voxel_losses(grid, truth), grid.voxels

    def backward(params, index, spec, lb, voxels):
        backward_splat(params, index, spec, lb.d_scores, S_MIN, S_MAX, voxels)

    assert traced_growth(lossed, backward) <= 16


def small_gaussians_case(count):
    """``count`` small gaussians over a 32x32x16 grid of 6 classes, its
    index, the loss and the voxels of its gradient rows, as
    ``backward_splat`` takes them."""
    rng = np.random.default_rng(75)
    classes = 6
    spec = GridSpec((0.0, 0.0, 0.0), (0.25, 0.25, 0.25), (32, 32, 16))
    rotations = rng.normal(size=(count, 4))
    scene = GaussianScene(
        rng.uniform((0.5, 0.5, 0.5), (7.5, 7.5, 3.5), (count, 3)).astype(np.float32),
        np.full((count, 3), 0.1, dtype=np.float32),
        (rotations / np.linalg.norm(rotations, axis=1, keepdims=True)).astype(np.float32),
        rng.dirichlet(np.ones(classes), count).astype(np.float32))
    truth = OccupancyGrid(spec, classes, rng.integers(0, classes, spec.num_voxels))
    params = RawGaussianParams.from_scene(scene, S_MIN, S_MAX)
    activated = params.activate(S_MIN, S_MAX)
    index = build_splat_index(activated, spec, 3.0)
    grid = splat(activated, spec, index=index, rows=True)
    return params, index, spec, voxel_losses(grid, truth), grid.voxels


def test_backward_memory_per_gaussian_is_bounded():
    # From 6,000 to 18,000 gaussians on one grid, the backward pass's traced
    # peak may grow by the per-gaussian parameters, moments and gradients,
    # but not by a whole-scene frames_vjp, whose rotation Jacobian alone is
    # 288 bytes per gaussian and is built three times over.  Measured: 336
    # bytes per gaussian; with frames_vjp over the whole scene, 1,189.  The
    # bound lies between them.
    peaks = []
    counts = (6000, 18000)
    for count in counts:
        params, index, spec, lb, voxels = small_gaussians_case(count)
        tracemalloc.start()
        try:
            backward_splat(params, index, spec, lb.d_scores, S_MIN, S_MAX, voxels)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / (counts[1] - counts[0]) <= 600, peaks


@pytest.mark.parametrize("block", [1, 7])
def test_frames_vjp_blocks_keep_the_bits(monkeypatch, block):
    # frames_vjp takes a block of gaussians at a time; no gradient depends
    # on the block size.
    params, index, spec, lb, voxels = small_gaussians_case(300)
    ref = backward_splat(params, index, spec, lb.d_scores, S_MIN, S_MAX, voxels)
    monkeypatch.setattr(splat_module, "_VJP_GAUSSIANS", block)
    got = backward_splat(params, index, spec, lb.d_scores, S_MIN, S_MAX, voxels)
    assert ref["rotations"].any()
    for key in PARAM_KEYS:
        assert np.array_equal(got[key].view(np.uint64), ref[key].view(np.uint64)), key


def test_iteration_memory_grows_by_no_dense_scores():
    # Index, splat, loss and backward as fit runs them.  The padding may add
    # the index's per-voxel box counts while the covered mask is found, the
    # row maps and masks, at most 24 bytes per voxel, but not the dense
    # float32 scores of 4 * 6 bytes per voxel on top of them.
    def iteration(params, activated, spec, truth):
        index = build_splat_index(activated, spec, 3.0)
        grid = splat(activated, spec, index=index, rows=True)
        loss_and_backward(params, index, spec, grid, truth)

    assert traced_growth(lambda *case: case, iteration) <= 24


def test_fit_holds_no_iteration_into_the_next(monkeypatch):
    # 300 gaussians of 18 classes cover most of the first 32x32x16 voxels of
    # a 64x64x16 grid.  Runs of at most 256 pairs keep the backward pass
    # small, so the loss's two float64 row buffers set the peak.  Three
    # iterations may peak above one by 4 bytes per voxel, for the previous
    # labels and the like; measured: 2.1.  Holding the loss's gradient rows
    # into the next iteration's loss added 32.
    monkeypatch.setattr(splat_module, "_SLAB_PAIRS", 256)
    rng = np.random.default_rng(74)
    count, classes = 300, 18
    rotations = rng.normal(size=(count, 4))
    scene = GaussianScene(
        rng.uniform((0.5, 0.5, 0.5), (7.5, 7.5, 3.5), (count, 3)).astype(np.float32),
        np.full((count, 3), 0.2, dtype=np.float32),
        (rotations / np.linalg.norm(rotations, axis=1, keepdims=True)).astype(np.float32),
        rng.dirichlet(np.ones(classes), count).astype(np.float32))
    spec = GridSpec((0.0, 0.0, 0.0), (0.25, 0.25, 0.25), (64, 64, 16))
    labels = np.zeros(spec.dims, dtype=np.uint8)
    labels[:32, :32] = rng.integers(0, classes, (32, 32, 16))
    truth = OccupancyGrid(spec, classes, labels.ravel())
    peaks = []
    for iterations in (1, 3):
        config = FitConfig(iterations=iterations, s_min=0.05, s_max=0.6, cutoff_sigma=3.0)
        tracemalloc.start()
        try:
            fit(scene, truth, config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 4 * spec.num_voxels, peaks


def test_fit_drops_each_iteration_before_the_next_activate(monkeypatch):
    # The scene of the test above.  Each iteration starts at activate, so
    # the traced memory there is what the previous iterations left: the
    # parameters, the AdamW moments and the records.  Keeping the grid's
    # labels and covered-voxel ids into the next iteration added 2.7 bytes
    # per voxel at each later entry; measured since: 0.11 to 0.22, about
    # 3 KB per record.
    rng = np.random.default_rng(74)
    count, classes = 300, 18
    rotations = rng.normal(size=(count, 4))
    scene = GaussianScene(
        rng.uniform((0.5, 0.5, 0.5), (7.5, 7.5, 3.5), (count, 3)).astype(np.float32),
        np.full((count, 3), 0.2, dtype=np.float32),
        (rotations / np.linalg.norm(rotations, axis=1, keepdims=True)).astype(np.float32),
        rng.dirichlet(np.ones(classes), count).astype(np.float32))
    spec = GridSpec((0.0, 0.0, 0.0), (0.25, 0.25, 0.25), (64, 64, 16))
    labels = np.zeros(spec.dims, dtype=np.uint8)
    labels[:32, :32] = rng.integers(0, classes, (32, 32, 16))
    truth = OccupancyGrid(spec, classes, labels.ravel())
    entries = []

    def entered(real):
        def call(*args):
            entries.append(tracemalloc.get_traced_memory()[0])
            return real(*args)
        return call

    config = FitConfig(iterations=3, s_min=0.05, s_max=0.6, cutoff_sigma=3.0)
    fit(scene, truth, config)  # so that no first use of a module is traced
    monkeypatch.setattr(fitter_module, "_activate", entered(fitter_module._activate))
    monkeypatch.setattr(RawGaussianParams, "activate", entered(RawGaussianParams.activate))
    tracemalloc.start()
    try:
        fit(scene, truth, config)
    finally:
        tracemalloc.stop()
    # Three iterations and the activate of the fitted scene.
    assert len(entries) == 4
    assert max(entries[1:]) - entries[0] <= 0.5 * spec.num_voxels, entries


@pytest.mark.parametrize("slab_pairs", [7, 300])
@pytest.mark.parametrize("case", list(ROW_CASES))
def test_row_splat_matches_dense_splat(monkeypatch, case, slab_pairs):
    # The row form holds the dense splat's scores at the covered voxels, bit
    # for bit, and the same labels; the dense scores are zero elsewhere.
    # Octant is exact mode: every voxel is covered, so the dense form comes
    # back.  The patched pair caps cut the runs and the box blocks.
    monkeypatch.setattr(splat_module, "_SLAB_PAIRS", slab_pairs)
    make, cutoff = ROW_CASES[case]
    scene, truth = make()
    index = build_splat_index(scene, truth.spec, cutoff)
    dense = splat(scene, truth.spec, index=index)
    rows = splat(scene, truth.spec, index=index, rows=True)
    covered = np.diff(index.voxel_starts) > 0
    assert np.array_equal(rows.labels, dense.labels)
    if case == "octant":
        assert covered.all() and rows.voxels is None
        assert np.array_equal(rows.scores.view(np.uint32), dense.scores.view(np.uint32))
        return
    if case == "partly-covered-boxes":
        assert (np.diff(index.gaussian_starts) > splat_module._BOX_PAIRS).sum() == 2
    assert np.array_equal(rows.voxels, np.flatnonzero(covered))
    assert np.array_equal(rows.scores.view(np.uint32), dense.scores[covered].view(np.uint32))
    assert not dense.scores[~covered].view(np.uint32).any()


def test_fit_checks_its_per_voxel_arrays_before_the_first(monkeypatch):
    # Float32 score rows 4C, their voxel ids and the labels 9, the loss's one
    # float64 buffer 8C and its 101 bytes of per-row arrays: 12C + 110 bytes
    # per voxel, checked before the first splat.
    rng = np.random.default_rng(74)
    truth = random_truth(rng, SPEC8, 3)
    splats = []
    real_splat = fitter_module.splat
    monkeypatch.setattr(fitter_module, "splat",
                        lambda *args, **kwargs: splats.append(1) or real_splat(*args, **kwargs))
    bound = SPEC8.num_voxels * (12 * 3 + 110)
    monkeypatch.setattr(splat_module, "MAX_SCORE_BYTES", bound - 1)
    with pytest.raises(CapacityError):
        fit(SceneInit("uniform", 4), truth, FitConfig(iterations=1))
    assert splats == []
    monkeypatch.setattr(splat_module, "MAX_SCORE_BYTES", bound)
    fit(SceneInit("uniform", 4), truth, FitConfig(iterations=1))
    assert splats == [1]


PEAK_SPEC = GridSpec((0.0, 0.0, 0.0), (0.25, 0.25, 0.25), (32, 32, 32))


def peak_case(full, ignored, classes):
    """40 gaussians about the centre of a 32^3 grid, broad enough that their
    boxes cover every voxel or most of them, and a random truth of
    ``classes`` with an ``ignored`` share of ignored voxels."""
    rng = np.random.default_rng(76 + classes)
    count = 40
    rotations = rng.normal(size=(count, 4))
    scene = GaussianScene(
        rng.uniform(3.0, 5.0, (count, 3)).astype(np.float32),
        np.full((count, 3), 3.0 if full else 0.8, dtype=np.float32),
        (rotations / np.linalg.norm(rotations, axis=1, keepdims=True)).astype(np.float32),
        rng.dirichlet(np.ones(classes), count).astype(np.float32))
    labels = rng.integers(0, classes, PEAK_SPEC.num_voxels).astype(np.uint8)
    labels[rng.random(labels.size) < ignored] = IGNORE_LABEL
    return scene, OccupancyGrid(PEAK_SPEC, classes, labels), FitConfig(iterations=1, s_min=0.5,
                                                                       s_max=4.0)


@pytest.mark.parametrize("classes", [1, 4, 18])
@pytest.mark.parametrize("ignored", [0.0, 0.05])
@pytest.mark.parametrize("full", [True, False])
def test_fit_peaks_within_its_capacity_check(monkeypatch, full, ignored, classes):
    # A 1-iteration fit's traced peak stays within the bytes per voxel that
    # fit checks before its first array, plus 1 MiB for the scratch whose
    # size does not follow the grid: the loss's blocks of rows, and the
    # backward pass's runs and box blocks, which the patched pair cap keeps
    # small.  One class keeps every row in its sort, and in the partly
    # covered grid every kept row ties the outside rows.  Measured: 56 to
    # 310 bytes per voxel below the bound.  The loss that copied its rows
    # into a (V, C) gradient for a fully covered grid with ignored voxels
    # peaked 42 bytes per voxel above it at 18 classes.
    monkeypatch.setattr(splat_module, "_SLAB_PAIRS", 256)
    scene, truth, config = peak_case(full, ignored, classes)
    index = build_splat_index(scene, PEAK_SPEC, config.cutoff_sigma)
    assert (np.diff(index.voxel_starts) > 0).all() == full
    tracemalloc.start()
    try:
        fit(scene, truth, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = PEAK_SPEC.num_voxels * ((4 + 8) * classes + 9 + losses_module._ROW_BYTES) + (1 << 20)
    assert peak <= bound, (bound - peak) / PEAK_SPEC.num_voxels


def test_backward_rejects_gradient_rows_of_another_shape():
    # Row-form rows without their voxels, and a dense gradient with them,
    # are refused before any pass.
    params, index, spec, lb, voxels = small_gaussians_case(300)
    assert voxels is not None
    dense = np.zeros((spec.num_voxels, lb.d_scores.shape[1]))
    for d_scores, rows in ((lb.d_scores, None), (dense, voxels), (lb.d_scores[:-1], voxels)):
        with pytest.raises(ValueError, match="d_scores"):
            backward_splat(params, index, spec, d_scores, S_MIN, S_MAX, rows)


def test_backward_rejects_an_index_of_another_grid(monkeypatch):
    # A grid of the same dims but another origin or cell size is refused
    # before any pass, as splat refuses a prebuilt index of another grid.
    params, index, spec, lb, voxels = small_gaussians_case(300)
    monkeypatch.setattr(fitter_module, "gaussian_frames", lambda *args: pytest.fail("a pass ran"))
    for other in (GridSpec((0.5, 0.0, 0.0), spec.cell_size, spec.dims),
                  GridSpec(spec.origin, (0.5, 0.25, 0.25), spec.dims)):
        with pytest.raises(ValueError, match="another grid"):
            backward_splat(params, index, other, lb.d_scores, S_MIN, S_MAX, voxels)
