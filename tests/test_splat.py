"""Tests for the pair-list splatter against brute-force references."""

import importlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussvox import (
    CapacityError,
    FitConfig,
    GaussianScene,
    GridSpec,
    RawGaussianParams,
    backward_splat,
    build_splat_index,
    fit,
    gaussian_weight,
    splat,
    splat_oracle,
)
from gaussvox.splat import (
    _add_gaussians_in_order,
    _cutoff_radii,
    gaussian_frames,
    pair_weights,
)

# ``gaussvox.splat`` names the function; the module is reached by import path.
splat_module = importlib.import_module("gaussvox.splat")


def random_scene(rng, count, class_count=3, lo=-4.0, hi=4.0, s_lo=0.1, s_hi=1.0):
    means = lo + rng.random((count, 3)) * (hi - lo)
    scales = s_lo + rng.random((count, 3)) * (s_hi - s_lo)
    rotations = rng.normal(size=(count, 4))
    rotations /= np.linalg.norm(rotations, axis=1, keepdims=True)
    logits = rng.random((count, class_count))
    return GaussianScene(
        means.astype(np.float32), scales.astype(np.float32),
        rotations.astype(np.float32), logits.astype(np.float32),
    )


SPEC8 = GridSpec((-2.0, -2.0, -2.0), (0.5, 0.5, 0.5), (8, 8, 8))


def scene_of(*gaussians):
    """A scene from (mean, scale, rotation, semantics) tuples."""
    means, scales, rotations, logits = (np.array(field, dtype=np.float64)
                                        for field in zip(*gaussians))
    rotations /= np.linalg.norm(rotations, axis=1, keepdims=True)
    return GaussianScene(means, scales, rotations, logits)


def frames_of(scene):
    return gaussian_frames(scene.means, scene.scales, scene.rotations)


def index_voxels(index, a=0, b=None):
    """The voxels of gaussians [a, b), by default all, ascending per gaussian,
    as ``_pair_runs`` lists them over the whole grid."""
    b = index.num_gaussians if b is None else b

    def frames(ids):
        return np.zeros((3, 3, ids.size)), np.zeros((3, ids.size))

    runs = splat_module._pair_runs(frames, index, a, b)
    return np.concatenate([np.zeros(0, dtype=np.int64), *(vox for _, _, vox, _, _ in runs)])


def index_pairs(index):
    """The index's pair set as (gaussian, voxel) tuples."""
    g = np.repeat(np.arange(index.num_gaussians), np.diff(index.gaussian_starts))
    return set(zip(g.tolist(), index_voxels(index).tolist()))


def kernel_weights(frames, g, points):
    """Kernel weights of gaussian g at (n, 3) points, as one pair list."""
    n = points.shape[0]
    a = np.repeat(frames[0][..., g : g + 1], n, axis=-1)
    off = np.repeat(frames[1][:, g : g + 1], n, axis=-1)
    w, _ = pair_weights(a, off, np.ascontiguousarray(points.T))
    return w


def test_neighborhood_radius_values():
    g = scene_of(([0, 0, 0], [1, 1, 1], [1, 0, 0, 0], [1.0]))
    assert np.allclose(_cutoff_radii(g.scales, 3.0), [[3, 3, 3]])
    g = scene_of(([0, 0, 0], [0.1, 0.2, 0.3], [1, 0, 0, 0], [1.0]))
    assert np.allclose(_cutoff_radii(g.scales, 3.0), [[0.9, 0.9, 0.9]], atol=1e-7)
    with pytest.raises(ValueError):
        _cutoff_radii(g.scales, 0.0)
    with pytest.raises(ValueError):
        _cutoff_radii(g.scales, float("nan"))


def test_neighborhood_box_contains_cutoff_ellipsoid():
    # Dense directional sampling: outside the box the Mahalanobis distance
    # must exceed the cutoff.
    rng = np.random.default_rng(11)
    for _ in range(20):
        sc = scene_of(
            (rng.normal(size=3), 0.1 + rng.random(3), rng.normal(size=4), [1.0])
        )
        r = _cutoff_radii(sc.scales, 3.0)[0]
        dirs = rng.normal(size=(200, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        # points just past the box surface along each direction
        t = np.min(r / np.maximum(np.abs(dirs), 1e-12), axis=1) * 1.0001
        pts = sc.means[0].astype(np.float64) + dirs * t[:, None]
        w = kernel_weights(frames_of(sc), 0, pts)
        d = np.sqrt(-2.0 * np.log(np.maximum(w, 1e-300)))
        assert np.all(d > 3.0)


def _brute_force_pairs(scene, spec, cutoff):
    centers = spec.voxel_centers()
    pairs = set()
    for g in range(len(scene)):
        r = cutoff * float(scene.scales[g].max())
        m = scene.means[g].astype(np.float64)
        inside = np.all(np.abs(centers - m) <= r, axis=1)
        for v in np.flatnonzero(inside):
            pairs.add((g, int(v)))
    return pairs


def test_index_matches_brute_force_pair_set():
    rng = np.random.default_rng(12)
    spec = GridSpec((-4, -4, -4), (0.25, 0.25, 0.25), (32, 32, 32))
    for _ in range(5):
        scene = random_scene(rng, int(rng.integers(1, 101)), s_lo=0.05, s_hi=0.6)
        index = build_splat_index(scene, spec, 3.0)
        assert index_pairs(index) == _brute_force_pairs(scene, spec, 3.0)


CELLS = [0.1, 0.2, 0.25, 0.3, 0.5, 0.7, 1.0]


@st.composite
def index_cases(draw):
    """A small grid with gaussians inside, outside, far away and on the lattice.

    Cell sizes are drawn per axis and a dimension may be 1.  Snapped means sit
    on a voxel center or face, and their radius is the float64 distance from
    the first of them to a drawn voxel center, a whole number of half cells:
    that center lies exactly on its box face, where float64 rounding decides
    the containment test.
    """
    cell = np.array([draw(st.sampled_from(CELLS)) for _ in range(3)])
    dims = np.array([draw(st.integers(1, 6)) for _ in range(3)])
    origin = np.array([draw(st.integers(-20, 20)) * 0.1 for _ in range(3)])
    means, scales, kinds = [], [], []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["snapped", "snapped", "uniform", "far"]))
        kinds.append(kind)
        if kind == "snapped":
            half = np.array([draw(st.integers(-6, 2 * int(d) + 6)) for d in dims])
            means.append(origin + half * 0.5 * cell)
            scale = 1.0
        elif kind == "uniform":
            u = np.array([draw(st.floats(-0.5, 1.5)) for _ in range(3)])
            means.append(origin + u * dims * cell)
            scale = draw(st.floats(0.01, 2.0))
        else:
            means.append(np.array([draw(st.sampled_from([-1e12, 1e12, 0.0])) for _ in range(3)]))
            means[-1][draw(st.integers(0, 2))] = draw(st.sampled_from([-1e12, 1e12]))
            scale = draw(st.floats(0.01, 2.0))
        scales.append(np.full(3, scale) * [1.0, draw(st.sampled_from([0.5, 1.0])), 1.0])
    n = len(means)
    scene = GaussianScene(np.array(means), np.array(scales), np.tile([1.0, 0, 0, 0], (n, 1)),
                          np.ones((n, 1)))
    # Snapped gaussians have a largest scale of 1, so their radius is the
    # cutoff.  A far gaussian may draw that scale too; it is not aimed at.
    snapped = np.flatnonzero(np.array(kinds) == "snapped")
    cutoff = draw(st.sampled_from([1.0, 3.0]))
    if snapped.size:
        axis = draw(st.integers(0, 2))
        i = draw(st.integers(-2, int(dims[axis]) + 1))
        m = float(scene.means[snapped[0], axis])
        cutoff = abs(origin[axis] + (i + 0.5) * cell[axis] - m) or cutoff
    return scene, GridSpec(origin, cell, dims), cutoff


@settings(derandomize=True, max_examples=300, deadline=None)
@given(index_cases())
def test_index_matches_brute_force_property(case):
    scene, spec, cutoff = case
    index = build_splat_index(scene, spec, cutoff)
    assert index_pairs(index) == _brute_force_pairs(scene, spec, cutoff)
    g = np.repeat(np.arange(len(scene)), np.diff(index.gaussian_starts))
    voxels = index_voxels(index)
    assert np.all(np.diff(g * index.num_voxels + voxels) > 0)
    far = np.any(np.abs(scene.means) >= 1e12, axis=1)
    assert np.all(np.diff(index.gaussian_starts)[far] == 0)
    assert np.array_equal(np.diff(index.voxel_starts),
                          np.bincount(voxels, minlength=spec.num_voxels))
    assert np.array_equal(index.covered, np.bincount(voxels, minlength=spec.num_voxels) > 0)
    two = build_splat_index(scene, spec, cutoff, threads=2)
    assert np.array_equal(index_voxels(two), voxels)
    assert np.array_equal(two.gaussian_starts, index.gaussian_starts)


def test_capacity_checked_before_pair_arrays_exist(monkeypatch):
    # Four gaussians whose boxes cover the whole nuscenes grid: 2,560,000
    # pairs, 20 MB of int64 voxel indices, against a cap of 1,000,000.
    monkeypatch.setattr(splat_module, "MAX_PAIRS", 1_000_000)
    spec = GridSpec((-50.0, -50.0, -5.0), (0.5, 0.5, 0.5), (200, 200, 16))
    scene = GaussianScene(np.zeros((4, 3)), np.full((4, 3), 1e3),
                          np.tile([1.0, 0, 0, 0], (4, 1)), np.ones((4, 18)))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="2560000"):
            build_splat_index(scene, spec, 3.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _no_voxel_centers(self):
    raise AssertionError("voxel_centers called")


def test_oracle_checks_dense_bytes_before_allocation(monkeypatch):
    # SPEC8's 512 voxels hold 3 float32 classes, two (V, 3) float64 center
    # arrays and the loop's 52 bytes of float64 buffers and float32 cast,
    # 512 * 112 = 57344 bytes.
    scene = random_scene(np.random.default_rng(40), 5)
    monkeypatch.setattr(splat_module, "MAX_SCORE_BYTES", 57344)
    assert splat_oracle(scene, SPEC8).scores.any()

    monkeypatch.setattr(splat_module, "MAX_SCORE_BYTES", 57343)
    monkeypatch.setattr(GridSpec, "voxel_centers", _no_voxel_centers)
    with pytest.raises(CapacityError, match="57344 bytes"):
        splat_oracle(scene, SPEC8)


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("cutoff", [3.0, None], ids=["3sigma", "exact"])
def test_index_chunks_do_not_change_the_index(monkeypatch, chunk, cutoff):
    # Means span twice the grid, so some boxes miss it.
    scene = random_scene(np.random.default_rng(43), 40, lo=-4.0, hi=4.0)
    base = build_splat_index(scene, SPEC8, cutoff)
    monkeypatch.setattr(splat_module, "_INDEX_CHUNK", chunk)
    index = build_splat_index(scene, SPEC8, cutoff)
    assert (base.counts[:, 0] == 0).any() or cutoff is None
    for name in ("lo", "counts", "gaussian_starts"):
        assert np.array_equal(getattr(index, name), getattr(base, name)), name


def test_index_sorted_and_ranges_consistent():
    rng = np.random.default_rng(13)
    scene = random_scene(rng, 40)
    index = build_splat_index(scene, SPEC8, 3.0)
    g = np.repeat(np.arange(len(scene)), np.diff(index.gaussian_starts))
    voxels = index_voxels(index)
    keys = g * index.num_voxels + voxels
    assert np.all(np.diff(keys) > 0)  # strict (g, v) lexicographic order
    assert index.voxel_starts[0] == 0
    assert index.voxel_starts[-1] == index.pair_count
    per_voxel = np.bincount(voxels, minlength=index.num_voxels)
    assert np.array_equal(np.diff(index.voxel_starts), per_voxel)
    runs = [index_voxels(index, g, g + 1) for g in range(len(scene))]
    assert np.array_equal(np.concatenate(runs), voxels)
    assert voxels.size == index.pair_count


@pytest.mark.parametrize("cutoff, box_pairs", [(3.0, 1 << 11), (3.0, 7), (1.0, 1 << 11),
                                              (None, 1 << 11)])
def test_splat_scores_are_zero_outside_covered(monkeypatch, cutoff, box_pairs):
    # The loss stands one all-zero row in for every voxel outside
    # index.covered, so a splat must leave each such voxel at +0.0 in every
    # class, on the box path (a low _BOX_PAIRS) and the pair path alike.
    monkeypatch.setattr(splat_module, "_BOX_PAIRS", box_pairs)
    spec = GridSpec((-2.0, -2.0, -2.0), (0.25, 0.25, 0.25), (16, 16, 16))
    scene = random_scene(np.random.default_rng(44), 30, s_lo=0.05, s_hi=0.3)
    index = build_splat_index(scene, spec, cutoff)
    scores = splat(scene, spec, index=index).scores
    covered = index.covered
    assert 0 < covered.mean() <= 1 and (cutoff is None) == covered.all()
    assert not scores[~covered].view(np.uint32).any()


def test_index_empty_scene():
    scene = GaussianScene(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 4)),
                          np.zeros((0, 2)))
    index = build_splat_index(scene, SPEC8, 3.0)
    assert index.pair_count == 0
    assert np.all(index.voxel_starts == 0)
    grid = splat(scene, SPEC8, 3.0)
    assert np.all(grid.labels == 0)
    assert np.all(grid.scores == 0)
    for cutoff in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="cutoff_sigma"):
            build_splat_index(scene, SPEC8, cutoff)


def test_index_tiny_gaussian_single_voxel():
    spec = GridSpec((0, 0, 0), (1, 1, 1), (4, 4, 4))
    g = ([1.5, 1.5, 1.5], [0.01, 0.01, 0.01], [1, 0, 0, 0], [1.0])
    index = build_splat_index(scene_of(g), spec, 3.0)
    assert index.pair_count == 1
    assert index_voxels(index)[0] == (1 * 4 + 1) * 4 + 1


def test_pair_count_monotone_in_cutoff_and_scale():
    rng = np.random.default_rng(14)
    scene = random_scene(rng, 30)
    counts = [
        build_splat_index(scene, SPEC8, c).pair_count for c in (1.0, 2.0, 3.0, 5.0)
    ]
    assert counts == sorted(counts)
    bigger = GaussianScene(
        scene.means, scene.scales * 1.5, scene.rotations, scene.logits
    )
    assert build_splat_index(bigger, SPEC8, 3.0).pair_count >= counts[2]


def test_exact_mode_matches_oracle_bitwise():
    rng = np.random.default_rng(15)
    for _ in range(5):
        scene = random_scene(rng, int(rng.integers(1, 201)))
        a = splat(scene, SPEC8, cutoff_sigma=None)
        b = splat_oracle(scene, SPEC8)
        assert np.array_equal(a.scores, b.scores)
        assert np.array_equal(a.labels, b.labels)


def test_large_cutoff_matches_oracle_bitwise():
    # A finite cutoff whose boxes cover the whole grid behaves like exact mode.
    rng = np.random.default_rng(16)
    scene = random_scene(rng, 50, s_lo=0.5, s_hi=1.0)
    a = splat(scene, SPEC8, cutoff_sigma=100.0)
    b = splat_oracle(scene, SPEC8)
    assert np.array_equal(a.scores, b.scores)


SPEC16 = GridSpec((-4.0, -4.0, -4.0), (0.5, 0.5, 0.5), (16, 16, 16))


def mixed_scene(rng, count, broad):
    """Partial-coverage gaussians with ``broad`` grid-covering ones among them."""
    scene = random_scene(rng, count, class_count=4, s_lo=0.1, s_hi=0.8)
    scales = scene.scales.copy()
    scales[rng.choice(count, broad, replace=False)] = 5.0
    return GaussianScene(scene.means, scales, scene.rotations, scene.logits)


@pytest.mark.parametrize("seed, broad", [(31, 0), (32, 3), (33, 8)])
def test_sparse_splat_matches_plain_loop_bitwise(seed, broad):
    # The fast path at 3 sigma against the order contract written as a plain
    # loop over the brute-force pair set: one float32 add of float32(w * sem)
    # per gaussian, ascending, with the kernel's weight of each pair.
    scene = mixed_scene(np.random.default_rng(seed), 60, broad)
    centers = SPEC16.voxel_centers()
    voxels = {}
    for g, v in sorted(_brute_force_pairs(scene, SPEC16, 3.0)):
        voxels.setdefault(g, []).append(v)
    frames = frames_of(scene)
    expected = np.zeros((SPEC16.num_voxels, scene.class_count), dtype=np.float32)
    for g in sorted(voxels):
        vox = np.array(voxels[g])
        w = kernel_weights(frames, g, centers[vox])
        expected[vox] += (w[:, None] * scene.logits[g].astype(np.float64)).astype(np.float32)
    got = splat(scene, SPEC16, 3.0).scores
    assert np.array_equal(got.view(np.uint32), expected.view(np.uint32))


def test_frames_of_a_subset_keep_their_bits():
    # The forward pass builds frames per slab and per box run: a subset's
    # frames are the same rows of the whole scene's, bit for bit.
    scene = random_scene(np.random.default_rng(41), 50)
    a, off = frames_of(scene)
    rng = np.random.default_rng(42)
    for ids in ([7], rng.choice(50, 13, replace=False), np.arange(50)[::-3], slice(10, 31)):
        sub_a, sub_off = gaussian_frames(scene.means[ids], scene.scales[ids],
                                         scene.rotations[ids])
        assert np.array_equal(sub_a.view(np.uint64), a[..., ids].view(np.uint64))
        assert np.array_equal(sub_off.view(np.uint64), off[:, ids].view(np.uint64))


@pytest.mark.parametrize("width", [2, 3])
def test_pair_runs_ask_frames_only_for_gaussians_with_pairs(width):
    # At scales of 0.015-0.05, 3 sigma misses every cell center of SPEC8
    # around most means: such a box is empty, but keeps its lo, clipped into
    # the grid, and so may start inside a slab of several layers.
    scene = random_scene(np.random.default_rng(48), 300, lo=-2.0, hi=2.0, s_lo=0.015,
                         s_hi=0.05)
    index = build_splat_index(scene, SPEC8, 3.0)
    empty = index.counts[:, 0] == 0
    assert empty.sum() >= 30 and (index.lo[empty, 0] % width > 0).any()
    a, off = frames_of(scene)
    asked = []

    def spy(ids):
        asked.append(ids)
        return a[..., ids], off[:, ids]

    # frames_of is asked once per slab with pairs, for exactly the gaussians of its runs.
    for x0 in range(0, SPEC8.dims[0], width):
        asked.clear()
        runs = list(splat_module._pair_runs(spy, index, 0, len(scene),
                                            (x0, min(x0 + width, SPEC8.dims[0]))))
        assert len(asked) == min(len(runs), 1)
        if runs:
            assert all(per_gaussian.min() > 0 for _, per_gaussian, *_ in runs)
            assert np.array_equal(asked[0], np.concatenate([ids for ids, *_ in runs]))
            assert not empty[asked[0]].any()


def test_pair_weight_bits_do_not_depend_on_the_batch():
    scene = mixed_scene(np.random.default_rng(34), 20, 2)
    frames = frames_of(scene)
    a, off = frames
    pts = np.ascontiguousarray(SPEC8.voxel_centers().T)
    # Every pair in one (gaussian, voxel) block, gaussian-major.
    tile, _ = pair_weights(a[..., None], off[..., None], pts)
    # Every pair as one pair list, (gaussian, voxel) order.
    index = build_splat_index(scene, SPEC8, None)
    runs = splat_module._pair_runs(lambda ids: (a[..., ids], off[:, ids]), index, 0,
                                   len(scene))
    chunk = np.concatenate([w for *_, w, _ in runs])
    assert np.array_equal(chunk.reshape(tile.shape).view(np.uint64), tile.view(np.uint64))
    rng = np.random.default_rng(35)
    for g, v in zip(rng.integers(0, len(scene), 40), rng.integers(0, SPEC8.num_voxels, 40)):
        alone, _ = pair_weights(a[..., g : g + 1], off[:, g : g + 1], pts[:, v : v + 1])
        assert alone.view(np.uint64)[0] == tile[g, v : v + 1].view(np.uint64)[0]


@pytest.mark.parametrize(
    "pair_chunk, slab_layers",
    [pytest.param(7, 1, id="7"), pytest.param(300, 3, id="300")],
)
def test_chunk_sizes_do_not_change_bits(monkeypatch, pair_chunk, slab_layers):
    # The base run splats the 16^3 grid as one slab; the patched runs cut
    # every pair-path box across slabs of one or three x-layers, and send
    # most gaussians through the box path, in blocks of one or more layers,
    # interleaved with the slab runs.  The pair cap also cuts the backward
    # pass's runs.  The row form of a partly covered scene, whose means lie
    # in one octant, is cut at the same slab edges, and at 300 pairs it too
    # takes both paths.
    scene = mixed_scene(np.random.default_rng(36), 80, 6)
    part = random_scene(np.random.default_rng(37), 30, 4, -4.0, 0.0, 0.1, 0.7)
    part_index = build_splat_index(part, SPEC16, 3.0)
    assert 0.2 < part_index.covered.mean() < 0.4
    assert np.sum(np.diff(part_index.gaussian_starts) > 300) >= 5
    params = RawGaussianParams.from_scene(scene, 0.05, 6.0)
    d_scores = np.random.default_rng(37).normal(size=(SPEC16.num_voxels, scene.class_count))

    def run(threads):
        index = build_splat_index(scene, SPEC16, 3.0, threads=threads)
        grads = backward_splat(params, index, SPEC16, d_scores, 0.05, 6.0)
        rows = splat(part, SPEC16, index=build_splat_index(part, SPEC16, 3.0, threads=threads),
                     rows=True)
        return splat(scene, SPEC16, index=index).scores, rows.scores, grads

    base_scores, base_rows, base_grads = run(1)
    layer_bytes = 4 * scene.class_count * 16 * 16
    monkeypatch.setattr(splat_module, "_SLAB_PAIRS", pair_chunk)
    monkeypatch.setattr(splat_module, "_BOX_PAIRS", pair_chunk)
    monkeypatch.setattr(splat_module, "_SLAB_BYTES", slab_layers * layer_bytes)
    for threads in (1, 2):
        scores, rows, grads = run(threads)
        assert np.array_equal(scores.view(np.uint32), base_scores.view(np.uint32))
        assert np.array_equal(rows.view(np.uint32), base_rows.view(np.uint32))
        for key, grad in grads.items():
            assert np.array_equal(grad.view(np.uint64), base_grads[key].view(np.uint64)), key


def test_sparse_splat_builds_no_voxel_centers(monkeypatch):
    # Without a covering gaussian, every pair point of the forward pass, the
    # backward pass and a fit comes from the per-axis center tables.
    scene = mixed_scene(np.random.default_rng(38), 60, 0)
    index = build_splat_index(scene, SPEC16, 3.0)
    assert np.diff(index.gaussian_starts).max() < SPEC16.num_voxels
    truth = splat(scene, SPEC16, index=index)
    params = RawGaussianParams.from_scene(scene, 0.05, 1.0)
    d_scores = np.random.default_rng(39).normal(size=(SPEC16.num_voxels, scene.class_count))

    monkeypatch.setattr(GridSpec, "voxel_centers", _no_voxel_centers)
    assert splat(scene, SPEC16, index=index).scores.any()
    grads = backward_splat(params, index, SPEC16, d_scores, 0.05, 1.0)
    assert all(np.any(grad != 0) for grad in grads.values())
    config = FitConfig(iterations=1, s_min=0.05, s_max=1.0, cutoff_sigma=3.0)
    assert len(fit(scene, truth, config).records) == 1


def test_box_path_carries_sums_across_blocks(monkeypatch):
    # With the pair cap above every box, each gaussian takes the pair path.
    # At 600 pairs, every box of more than 600 pairs is read in blocks of
    # at most 600 pairs and at least one x-layer: a covering box in eight
    # blocks of two 16x16 layers, its sums carried from block to block.
    # Every pair point of the box path comes from the per-axis center tables.
    scene = mixed_scene(np.random.default_rng(41), 40, 5)
    index = build_splat_index(scene, SPEC16, 3.0)
    params = RawGaussianParams.from_scene(scene, 0.05, 6.0)
    d_scores = np.random.default_rng(42).normal(size=(SPEC16.num_voxels, scene.class_count))
    per_gaussian = np.diff(index.gaussian_starts)

    monkeypatch.setattr(splat_module, "_BOX_PAIRS", int(per_gaussian.max()))
    pair_grads = backward_splat(params, index, SPEC16, d_scores, 0.05, 6.0)
    monkeypatch.setattr(splat_module, "_BOX_PAIRS", 600)
    monkeypatch.setattr(splat_module, "_SLAB_PAIRS", 600)
    boxes = per_gaussian > 600
    assert boxes.sum() >= 5 and not boxes.all()
    assert np.all(index.counts[boxes, 0] > 2)
    assert np.sum(index.counts[:, 0] == 16) >= 5
    monkeypatch.setattr(GridSpec, "voxel_centers", _no_voxel_centers)
    box_grads = backward_splat(params, index, SPEC16, d_scores, 0.05, 6.0)
    for key, grad in box_grads.items():
        assert np.array_equal(grad.view(np.uint64), pair_grads[key].view(np.uint64)), key


def test_forward_box_path_keeps_the_add_order(monkeypatch):
    # Even gaussians have boxes of over 600 pairs and odd ones of at most
    # 64, so at a box cap of 600 the two paths alternate gaussian by
    # gaussian over overlapping voxels.  At 600 pairs a block is at most
    # 600 pairs and at least one x-layer, so every box spans several
    # blocks.  The reference takes the pair path for every gaussian.
    rng = np.random.default_rng(43)
    count = 30
    scales = np.where(np.arange(count)[:, None] % 2 == 0, 1.2, 0.2) * rng.uniform(
        0.8, 1.2, (count, 3))
    rotations = rng.normal(size=(count, 4))
    scene = GaussianScene(rng.uniform(-1.5, 1.5, (count, 3)), scales,
                          rotations / np.linalg.norm(rotations, axis=1, keepdims=True),
                          rng.random((count, 4)))
    index = build_splat_index(scene, SPEC16, 3.0)
    per_gaussian = np.diff(index.gaussian_starts)
    assert np.all(per_gaussian[::2] > 600) and np.all(per_gaussian[1::2] <= 64)
    layers = np.maximum(1, 600 // (index.counts[::2, 1] * index.counts[::2, 2]))
    assert np.all(index.counts[::2, 0] > layers)
    boxes = np.zeros(SPEC16.num_voxels, dtype=bool)
    for g in range(0, count, 2):
        boxes[index_voxels(index, g, g + 1)] = True
    assert all(boxes[index_voxels(index, g, g + 1)].any() for g in range(1, count, 2))

    monkeypatch.setattr(splat_module, "_BOX_PAIRS", int(per_gaussian.max()))
    expected = splat(scene, SPEC16, index=index).scores
    monkeypatch.setattr(splat_module, "_BOX_PAIRS", 600)
    monkeypatch.setattr(splat_module, "_SLAB_PAIRS", 600)
    got = splat(scene, SPEC16, index=index).scores
    assert np.array_equal(got.view(np.uint32), expected.view(np.uint32))


def _no_oracle_loop(*args, **kwargs):
    raise AssertionError("_add_gaussians_in_order called")


def test_exact_and_covering_splats_do_not_take_the_oracle_path(monkeypatch):
    # Criterion 1 compares exact mode with the oracle, so exact mode, and a
    # 3-sigma splat whose covering gaussians interleave with small ones, must
    # not reach the oracle's loop or build the voxel centers.
    scene = mixed_scene(np.random.default_rng(44), 40, 6)
    index = build_splat_index(scene, SPEC16, 3.0)
    assert np.sum(np.diff(index.gaussian_starts) == SPEC16.num_voxels) == 6
    oracle = splat_oracle(scene, SPEC16).scores
    sparse = splat(scene, SPEC16, 3.0).scores

    monkeypatch.setattr(splat_module, "_add_gaussians_in_order", _no_oracle_loop)
    monkeypatch.setattr(GridSpec, "voxel_centers", _no_voxel_centers)
    exact = splat(scene, SPEC16, cutoff_sigma=None).scores
    assert np.array_equal(exact.view(np.uint32), oracle.view(np.uint32))
    assert np.array_equal(splat(scene, SPEC16, 3.0).scores.view(np.uint32),
                          sparse.view(np.uint32))


def _add_one_gaussian_at_a_time(scene, centers, scores):
    # The accumulation order contract as a plain loop: one float32 add of
    # float32(w * sem) per gaussian, in ascending index.
    frames = frames_of(scene)
    for g in range(len(scene)):
        w = kernel_weights(frames, g, centers)
        sem = scene.logits[g].astype(np.float64)
        scores += (w[:, None] * sem).astype(np.float32)


def _fast_path_called(*args, **kwargs):
    raise AssertionError("the fast path was called")


def test_oracle_shares_no_code_with_the_fast_path(monkeypatch):
    # The oracle is the reference that exact mode and the cutoff are checked
    # against, so it may share the frames and the kernel with the fast path
    # but not its index, boxes, pair runs, accumulator or axis tables.
    scene = mixed_scene(np.random.default_rng(45), 40, 6)
    expected = np.zeros((SPEC16.num_voxels, scene.class_count), dtype=np.float32)
    _add_one_gaussian_at_a_time(scene, SPEC16.voxel_centers(), expected)
    for name in ("_accumulate", "_pair_runs", "_box_blocks", "build_splat_index"):
        monkeypatch.setattr(splat_module, name, _fast_path_called)
    monkeypatch.setattr(GridSpec, "axis_centers", _fast_path_called)
    got = splat_oracle(scene, SPEC16).scores
    assert np.array_equal(got.view(np.uint32), expected.view(np.uint32))


@pytest.mark.parametrize(
    "count, classes, dims",
    [
        (150, 3, (8, 8, 16)),
        (90, 1, (8, 8, 8)),
        (90, 7, (8, 8, 8)),
        (150, 4, (9, 10, 11)),  # 990 voxels
        (100, 2, (1, 1, 1)),  # one-voxel grid
    ],
)
def test_full_grid_adds_in_ascending_gaussian_order(count, classes, dims):
    rng = np.random.default_rng(22)
    scene = random_scene(rng, count, class_count=classes, s_lo=0.5, s_hi=2.0)
    spec = GridSpec((-2.0, -2.0, -2.0), (0.5, 0.5, 0.5), dims)
    centers = spec.voxel_centers()
    expected = np.zeros((spec.num_voxels, classes), dtype=np.float32)
    _add_one_gaussian_at_a_time(scene, centers, expected)
    got = np.zeros_like(expected)
    pts = np.ascontiguousarray(centers.T)
    _add_gaussians_in_order(frames_of(scene), scene.logits, pts, got)
    assert np.array_equal(got.view(np.uint32), expected.view(np.uint32))


def test_full_grid_memory_does_not_grow_with_gaussians():
    spec = GridSpec((-2.0, -2.0, -2.0), (0.25, 0.25, 0.25), (16, 16, 16))
    pts = np.ascontiguousarray(spec.voxel_centers().T)
    peaks = []
    for count in (64, 640):
        scene = random_scene(np.random.default_rng(23), count)
        # The frames are per-gaussian input, like the scene itself.
        frames = frames_of(scene)
        scores = np.zeros((spec.num_voxels, scene.class_count), dtype=np.float32)
        tracemalloc.start()
        try:
            _add_gaussians_in_order(frames, scene.logits, pts, scores)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 4096, peaks


def test_splat_memory_grows_by_no_per_gaussian_frames(monkeypatch):
    # Runs of at most 256 pairs keep the run arrays the same size at 2,000
    # and 8,000 small gaussians, so what the dense splat of a prebuilt index
    # adds with the count is what it holds per gaussian.  Measured: 30 bytes
    # per added gaussian, the frames of one of 32 one-layer slabs; the whole
    # scene's float64 frames, built at once, added 264.
    monkeypatch.setattr(splat_module, "_SLAB_BYTES", 1)
    monkeypatch.setattr(splat_module, "_SLAB_PAIRS", 256)
    spec = GridSpec((0.0, 0.0, 0.0), (0.25, 0.25, 0.25), (32, 32, 32))
    peaks = []
    for count in (2000, 8000):
        scene = random_scene(np.random.default_rng(44), count, 4, 0.0, 8.0, 0.05, 0.15)
        index = build_splat_index(scene, spec, 3.0)
        tracemalloc.start()
        try:
            splat(scene, spec, index=index)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 64 * 6000, peaks


def test_exact_index_holds_no_pair_array():
    # Exact mode pairs 200 gaussians with all 32^3 voxels: a pair list would
    # take 52 MB of int64 voxel indices.
    spec = GridSpec((-4.0, -4.0, -4.0), (0.25, 0.25, 0.25), (32, 32, 32))
    scene = random_scene(np.random.default_rng(24), 200)
    tracemalloc.start()
    try:
        index = build_splat_index(scene, spec, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert index.pair_count == 200 * spec.num_voxels
    assert peak < 1_000_000, peak


def _axis_voxels(spec, mean, radius, axis):
    """int64 voxels of one axis whose centers lie within ``radius`` of ``mean``.

    Each voxel of a window around the mean, ten voxels wider than the
    radius on each side, takes the per-voxel test; the passing ones must lie
    inside the window, clear of its ends where they do not meet the grid.
    """
    o, c, d = spec.origin[axis], spec.cell_size[axis], spec.dims[axis]
    first = int(np.floor((mean - radius - o) / c)) - 10
    stop = int(np.ceil((mean + radius - o) / c)) + 10
    i = np.arange(max(first, 0), min(max(stop, 0), d), dtype=np.int64)
    passing = i[np.abs(o + (i + 0.5) * c - mean) <= radius]
    assert passing.size == 0 or (passing[0] > first and passing[-1] < stop - 1)
    return passing


@pytest.mark.parametrize("dims, cell, corner", [
    ((2048, 2048, 1024), (1.0, 1.0, 1.0), (2046.0, 2045.0, 1021.0)),
    ((2**31 - 1, 2, 2), (2.0**-20, 2.0**-20, 2.0**-20), (2047.99998, 1e-6, 1e-6)),
], ids=["2^32-voxels", "2^31-1-layers"])
def test_index_past_int32_voxel_ids_matches_int64_brute_force(dims, cell, corner):
    # Gaussians near the far corner have voxel ids past 2^31, which the
    # int32 box ends must not wrap: the boxes, the pair starts and, listed
    # by the pair runs, the voxels and their order equal an int64 brute
    # force.  One gaussian lies past the far corner and misses the grid, one
    # straddles its edge, one sits at the origin.  The index builds no array
    # of the grid's size.
    spec = GridSpec((0.0, 0.0, 0.0), cell, dims)
    rng = np.random.default_rng(45)
    far = np.asarray(corner) + rng.uniform(-2.0, 2.0, (6, 3)) * np.asarray(cell)
    means = np.concatenate([far, [np.asarray(spec.upper) + 1000 * np.asarray(cell),
                                  np.asarray(spec.upper) - 0.5 * np.asarray(cell),
                                  np.asarray(cell)]])
    scales = cell[0] * rng.uniform(1.0, 1.5, (means.shape[0], 3))
    scene = scene_of(*((m, s, (1.0, 0.2, -0.3, 0.1), (0.5, 0.5))
                       for m, s in zip(means, scales)))
    tracemalloc.start()
    try:
        index = build_splat_index(scene, spec, 3.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000, peak

    expected, sizes = [], []
    for g in range(len(scene)):
        radius = 3.0 * scene.scales[g].astype(np.float64).max()
        i, j, k = (_axis_voxels(spec, float(scene.means[g, a]), radius, a) for a in range(3))
        ids = (i[:, None, None] * dims[1] + j[None, :, None]) * dims[2] + k[None, None, :]
        expected.append(ids.ravel())
        sizes.append(ids.size)
        if ids.size:
            assert index.lo[g].tolist() == [int(i[0]), int(j[0]), int(k[0])]
            assert index.counts[g].tolist() == [i.size, j.size, k.size]
        else:
            assert not index.counts[g].any()
    expected = np.concatenate(expected)
    assert sizes[6] == 0 and min(sizes[:6]) > 0 and sizes[7] > 0
    assert expected.max() >= 2**31
    assert index.lo.dtype == index.counts.dtype == np.int32
    assert np.all((index.lo >= 0) & (index.lo <= dims))
    assert np.array_equal(index.gaussian_starts, np.concatenate([[0], np.cumsum(sizes)]))
    # In exact mode one box is the whole grid, of 2^32 or more pairs.
    exact = build_splat_index(scene_of((means[0], scales[0], (1, 0, 0, 0), (1.0,))), spec, None)
    assert exact.pair_count == spec.num_voxels

    # The pair runs over the whole grid, as the backward pass walks them.
    # Their per-axis center tables would take 16 GiB on 2^31 - 1 layers.
    if max(dims) > 2048:
        return

    def take(ids):
        return gaussian_frames(scene.means[ids], scene.scales[ids], scene.rotations[ids])

    runs = splat_module._pair_runs(take, index, 0, len(scene))
    assert np.array_equal(np.concatenate([vox for _, _, vox, _, _ in runs]), expected)


def test_index_rejects_an_axis_of_2_31_voxels_before_allocating():
    # The index's box ends are int32.  A grid of 2^31 x-layers needs 8 GiB
    # of scores even at one class, past MAX_SCORE_BYTES, so no splat of it
    # could run; the index says so before it allocates 24 bytes per gaussian.
    spec = GridSpec((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (2**31, 1, 1))
    scene = random_scene(np.random.default_rng(46), 100_000)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="2147483648"):
            build_splat_index(scene, spec, 3.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 65536, peak


def test_splats_reject_more_than_255_classes_before_any_work(monkeypatch):
    # A grid holds at most 255 classes.  Both splats refuse 300 before they
    # build the index, let alone accumulate scores.
    calls = []
    monkeypatch.setattr(splat_module, "build_splat_index",
                        lambda *args, **kwargs: calls.append(args))
    scene = random_scene(np.random.default_rng(47), 5, class_count=300)
    for run in (splat_module.splat, splat_module.splat_chunks):
        with pytest.raises(ValueError, match="class_count must be in"):
            run(scene, SPEC8, 3.0)
    assert calls == []


def test_splat_independent_of_threads():
    rng = np.random.default_rng(17)
    scene = random_scene(rng, 120)
    base = splat(scene, SPEC8, 3.0, threads=1)
    for threads in (2, 4, 8):
        other = splat(scene, SPEC8, 3.0, threads=threads)
        assert np.array_equal(base.scores, other.scores)
        assert np.array_equal(base.labels, other.labels)


def test_splat_repeat_runs_identical():
    rng = np.random.default_rng(18)
    scene = random_scene(rng, 60)
    a = splat(scene, SPEC8, 3.0)
    b = splat(scene, SPEC8, 3.0)
    assert np.array_equal(a.scores, b.scores)


def test_single_gaussian_scores_at_mean():
    g = ([0.25, 0.25, 0.25], [0.1, 0.1, 0.1], [1, 0, 0, 0], [0.1, 0.8, 0.1])
    spec = GridSpec((0, 0, 0), (0.5, 0.5, 0.5), (4, 4, 4))
    grid = splat(scene_of(g), spec, 3.0)
    v = 0  # mean sits on the center of voxel (0, 0, 0)
    assert np.allclose(grid.scores[v], [0.1, 0.8, 0.1], atol=1e-6)
    assert grid.labels[v] == 1


def test_two_identical_gaussians_superpose():
    g = ([0.25, 0.25, 0.25], [0.1, 0.1, 0.1], [1, 0, 0, 0], [0.2, 0.5])
    spec = GridSpec((0, 0, 0), (0.5, 0.5, 0.5), (4, 4, 4))
    one = splat(scene_of(g), spec, 3.0)
    two = splat(scene_of(g, g), spec, 3.0)
    assert np.allclose(two.scores, 2.0 * one.scores, atol=1e-6)


def test_oracle_monotone_decay_isotropic():
    g = ([0, 0, 0], [0.8, 0.8, 0.8], [1, 0, 0, 0], [1.0])
    spec = GridSpec((-2, -2, -2), (0.5, 0.5, 0.5), (8, 8, 8))
    grid = splat_oracle(scene_of(g), spec)
    centers = spec.voxel_centers()
    d = np.linalg.norm(centers, axis=1)
    order = np.argsort(d)
    s = grid.scores[order, 0].astype(np.float64)
    dd = d[order]
    # strictly farther voxels never score higher
    for i in range(1, len(s)):
        if dd[i] > dd[i - 1] + 1e-9:
            assert s[i] <= s[i - 1] + 1e-7


def test_oracle_matches_direct_evaluate_loop():
    rng = np.random.default_rng(19)
    scene = random_scene(rng, 6, class_count=2)
    spec = GridSpec((-2, -2, -2), (1, 1, 1), (4, 4, 4))
    grid = splat_oracle(scene, spec)
    centers = spec.voxel_centers()
    for v in range(spec.num_voxels):
        expected = np.zeros(2)
        for g in range(len(scene)):
            w = gaussian_weight(scene.means[g], scene.scales[g], scene.rotations[g], centers[v])
            expected += w * scene.logits[g].astype(np.float64)
        assert np.allclose(grid.scores[v], expected, atol=1e-5)


def test_out_of_volume_gaussian_still_splats():
    # A gaussian beyond the volume boundary still contributes to in-volume
    # voxels inside its cutoff box.
    scene = scene_of(([-0.6, 0.5, 0.5], [0.5, 0.5, 0.5], [1, 0, 0, 0], [1.0]))
    spec = GridSpec((0, 0, 0), (1, 1, 1), (2, 2, 2))
    ijk = spec.point_to_ijk(scene.means)
    assert not np.all((ijk >= 0) & (ijk < spec.dims))
    grid = splat(scene, spec, 3.0)
    assert grid.scores[0, 0] > 0


def test_cutoff_omissions_are_small():
    # Every contribution the cutoff path drops has weight below e^{-4.5}.
    rng = np.random.default_rng(21)
    spec = GridSpec((-4, -4, -4), (0.25, 0.25, 0.25), (32, 32, 32))
    scene = random_scene(rng, 50, s_lo=0.1, s_hi=0.8)
    index = build_splat_index(scene, spec, 3.0)
    centers = spec.voxel_centers()
    kept = index_pairs(index)
    bound = np.exp(-4.5)
    frames = frames_of(scene)
    for g in range(len(scene)):
        w = kernel_weights(frames, g, centers)
        for v in np.flatnonzero(w >= bound):
            assert (g, int(v)) in kept


@pytest.mark.parametrize(
    "case",
    ["fewer-gaussians", "more-gaussians", "other-spec", "exact-cutoff", "other-cutoff", "threads"],
)
def test_splat_rejects_mismatched_index(case):
    # A prebuilt index fixes the cutoff, thread count, grid and gaussians; a
    # call that contradicts it must fail, not splat with the index's settings.
    rng = np.random.default_rng(71)
    scene = random_scene(rng, 10)
    small = GaussianScene(scene.means[:5], scene.scales[:5], scene.rotations[:5],
                          scene.logits[:5])
    index = build_splat_index(scene, SPEC8, 3.0)
    other_spec = GridSpec((-2.0, -2.0, -2.0), (0.25, 0.25, 0.25), (8, 8, 8))
    calls = {
        "fewer-gaussians": lambda: splat(small, SPEC8, index=index),
        "more-gaussians": lambda: splat(scene, SPEC8, index=build_splat_index(small, SPEC8)),
        "other-spec": lambda: splat(scene, other_spec, index=index),
        "exact-cutoff": lambda: splat(scene, SPEC8, cutoff_sigma=None, index=index),
        "other-cutoff": lambda: splat(scene, SPEC8, cutoff_sigma=2.0, index=index),
        "threads": lambda: splat(scene, SPEC8, threads=2, index=index),
    }
    with pytest.raises(ValueError):
        calls[case]()
    # The same index, passed alone with its own scene and grid, still splats.
    assert np.array_equal(splat(scene, SPEC8, index=index).scores, splat(scene, SPEC8).scores)
