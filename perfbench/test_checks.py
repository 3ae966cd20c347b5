"""The benchmark's own checks accept the program's output and reject wrong output.

    python3 -m pytest -q perfbench/test_checks.py
"""

import importlib

import numpy as np
import pytest

import reference
import workloads

gv = workloads.load_program()
GEOMETRY = ((-1.0, -1.0, -1.0), (0.25, 0.25, 0.25), (12, 10, 8))


def _scene(seed=0, count=80, classes=5, broad=0):
    """Small gaussians, and ``broad`` gaussians that cover the whole grid."""
    rng = np.random.default_rng(seed)
    origin, cell, dims = GEOMETRY
    lo = np.asarray(origin)
    extent = np.asarray(cell) * np.asarray(dims)
    scales = rng.uniform(0.05, 0.4, (count, 3))
    scales[:broad] = rng.uniform(2.0, 3.0, (broad, 3))
    q = rng.normal(size=(count, 4))
    sem = rng.random((count, classes)) + 0.01
    arrays = [lo + rng.random((count, 3)) * extent, scales,
              q / np.linalg.norm(q, axis=1, keepdims=True), sem / sem.sum(1, keepdims=True)]
    return gv.GaussianScene(*(a.astype(np.float32) for a in arrays))


def _splatted(count, broad):
    scene = _scene(count=count, broad=broad)
    grid = gv.splat(scene, gv.GridSpec(*GEOMETRY), reference.CUTOFF_SIGMA)
    ref = reference.ReferenceSplat(scene.means, scene.scales, scene.rotations, scene.logits)
    voxels = reference.sample_voxels(grid.scores, np.random.default_rng(7), 400, 200)
    return ref, grid, voxels


@pytest.fixture(scope="module")
def splatted():
    return _splatted(80, broad=4)


@pytest.fixture(scope="module")
def sparse():
    return _splatted(20, broad=0)


def test_program_splat_passes(splatted, sparse):
    for ref, grid, voxels in (splatted, sparse):
        assert reference.check_splat(ref, GEOMETRY, grid.scores, grid.labels, voxels) == []
    # Both the full-grid path and voxels no gaussian reaches were checked.
    assert np.all(splatted[0].sums(GEOMETRY, splatted[2])[2] >= 4)
    assert np.any(sparse[0].sums(GEOMETRY, sparse[2])[2] == 0)


def test_dropped_contribution_is_rejected(splatted):
    ref, grid, voxels = splatted
    _, _, counts = ref.sums(GEOMETRY, voxels)
    v = voxels[np.argmax(counts)]
    _, terms = ref.contributions(reference.voxel_centres(GEOMETRY, [v])[0])
    scores = grid.scores.copy()
    scores[v] -= terms[np.argmax(terms.sum(axis=1))].astype(np.float32)
    labels = np.argmax(scores, axis=1).astype(np.uint8)
    faults = reference.check_splat(ref, GEOMETRY, scores, labels, voxels)
    assert len(faults) == 1 and "differ from the reference" in faults[0]


def test_flipped_label_is_rejected(splatted):
    ref, grid, voxels = splatted
    labels = grid.labels.copy()
    v = voxels[np.flatnonzero(grid.scores[voxels].any(axis=1))[0]]
    labels[v] = (labels[v] + 1) % grid.class_count
    faults = reference.check_splat(ref, GEOMETRY, grid.scores, labels, voxels)
    assert len(faults) == 1 and "argmax" in faults[0]


def test_score_at_unreached_voxel_is_rejected(sparse):
    ref, grid, voxels = sparse
    _, _, counts = ref.sums(GEOMETRY, voxels)
    scores = grid.scores.copy()
    scores[voxels[np.flatnonzero(counts == 0)[0]], 0] = np.float32(1e-30)
    faults = reference.check_splat(ref, GEOMETRY, scores, grid.labels, voxels)
    assert len(faults) == 1 and "differ from the reference" in faults[0]


@pytest.mark.parametrize("scale, passes", [(1.0, True), (1.1, False)])
def test_gradient_check(scale, passes):
    fitter = importlib.import_module("gaussvox.fitter")
    scene = _scene(seed=1, count=40)
    spec = gv.GridSpec(*GEOMETRY)
    target = gv.splat(_scene(seed=2, count=40), spec).labels
    truth = gv.OccupancyGrid(spec, scene.class_count, target)
    s_min, s_max = 0.01, 4.0

    def evaluate(p):
        s = p.activate(s_min, s_max)
        index = gv.build_splat_index(s, spec, reference.CUTOFF_SIGMA)
        return index, gv.voxel_losses(gv.splat(s, spec, index=index), truth)

    params = fitter.RawGaussianParams.from_scene(scene, s_min, s_max)
    index, loss = evaluate(params)
    grads = gv.backward_splat(params, index, spec, loss.d_scores, s_min, s_max)
    grads = {k: scale * g for k, g in grads.items()}
    arrays = {k: getattr(params, k) for k in fitter.PARAM_KEYS}
    rel, ok = reference.check_gradient(
        arrays, grads, lambda a: evaluate(fitter.RawGaussianParams(**a))[1].total,
        np.random.default_rng(3), 1e-3, workloads.GRADIENT_TOL)
    assert ok is passes, rel


def test_readers_agree_with_program(tmp_path):
    scene = _scene()
    gv.write_scene(scene, tmp_path / "s.sgau")
    for mine, theirs in zip(reference.read_sgau(tmp_path / "s.sgau"),
                            (scene.means, scene.scales, scene.rotations, scene.logits)):
        assert np.array_equal(mine, theirs)
    grid = gv.splat(scene, gv.GridSpec(*GEOMETRY))
    gv.write_grid(grid, tmp_path / "g.svox")
    geometry, labels, scores = reference.read_svox(tmp_path / "g.svox")
    assert geometry == GEOMETRY
    assert np.array_equal(labels, grid.labels) and np.array_equal(scores, grid.scores)
