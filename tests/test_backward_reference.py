"""``backward_splat`` against the float64 reference of ``backward_reference.py``."""

import importlib

import numpy as np
import pytest

from backward_reference import KEYS, gradient_bound, reference_backward
from gaussvox import (GridSpec, OccupancyGrid, RawGaussianParams, backward_splat,
                      build_splat_index, splat, voxel_losses)
from test_splat import SPEC16, mixed_scene, random_scene

splat_module = importlib.import_module("gaussvox.splat")
fitter_module = importlib.import_module("gaussvox.fitter")


def partly_covered():
    """Means in one octant, boxes clipped by the grid's faces, read as score rows."""
    scene = random_scene(np.random.default_rng(37), 30, 4, -4.0, 0.0, 0.1, 1.4)
    d = np.random.default_rng(38).normal(size=(SPEC16.num_voxels, scene.class_count))
    return scene, SPEC16, 3.0, d, True


def fully_covered():
    """Five gaussians whose boxes are the whole grid among partly covering ones."""
    scene = mixed_scene(np.random.default_rng(41), 40, 5)
    d = np.random.default_rng(42).normal(size=(SPEC16.num_voxels, scene.class_count))
    return scene, SPEC16, 3.0, d, False


def exact():
    """Exact mode: every box is the whole grid."""
    scene = random_scene(np.random.default_rng(43), 8, 4, s_lo=0.3, s_hi=1.5)
    d = np.random.default_rng(44).normal(size=(SPEC16.num_voxels, scene.class_count))
    return scene, SPEC16, None, d, False


def broad():
    """``fit-broad``'s draw on a 16^3 grid, with the loss's score gradient."""
    rng = np.random.default_rng(45)
    spec = GridSpec((0.0, 0.0, 0.0), (0.25, 0.25, 0.25), (16, 16, 16))
    n, c = 24, 5
    means = -1.0 + rng.random((n, 3)) * 6.0
    scales = np.exp(rng.uniform(np.log(0.5), np.log(3.0), (n, 3)))
    rotations = rng.normal(size=(n, 4))
    rotations /= np.linalg.norm(rotations, axis=1, keepdims=True)
    semantics = rng.dirichlet(np.ones(c), n)
    params = RawGaussianParams(means, np.log((scales - 0.1) / (4.0 - scales)), rotations,
                               np.log(semantics))
    scene = params.activate(0.1, 4.0)
    truth = OccupancyGrid(spec, c, rng.integers(0, c, spec.num_voxels).astype(np.uint8))
    d = voxel_losses(splat(scene, spec, 3.0), truth).d_scores
    return scene, spec, 3.0, d, False


CASES = {"partly-covered-rows": partly_covered, "fully-covered": fully_covered,
         "exact": exact, "broad": broad}


def _raises(*args, **kwargs):
    raise AssertionError("the reference reached the fast path's sums")


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    """A case's inputs and its reference, taken with the fast path's sums made to raise."""
    scene, spec, cutoff, d, rows = CASES[request.param]()
    s_min, s_max = (0.1, 4.0) if request.param == "broad" else (0.05, 6.0)
    params = RawGaussianParams.from_scene(scene, s_min, s_max)
    activated = params.activate(s_min, s_max)
    index = build_splat_index(activated, spec, cutoff)
    voxels = np.flatnonzero(np.diff(index.voxel_starts)) if rows else None
    if rows:
        assert voxels.size < spec.num_voxels
        d = d[voxels]
    with pytest.MonkeyPatch.context() as patch:
        for module, name in ((splat_module, "_pair_moments"), (fitter_module, "_pair_moments"),
                             (splat_module, "pair_weights_vjp"), (splat_module, "_box_blocks")):
            patch.setattr(module, name, _raises)
        ref = reference_backward(params, activated, spec, cutoff, d, s_min, s_max, voxels)
    assert np.array_equal(ref.pairs, np.diff(index.gaussian_starts))
    return request.param, params, index, spec, d, (s_min, s_max), voxels, ref


@pytest.mark.parametrize("path", ["box", "pair"])
def test_backward_meets_the_float64_reference(monkeypatch, case, path):
    # Both paths are held to one bound.  At the default box cap every case
    # sends some gaussians down the box path, exact mode all of them; with
    # the cap above every box, every gaussian takes the pair path.  Runs and
    # blocks of at most 1,024 pairs cut a whole-grid box into four blocks;
    # at a fixed box cap the gradients' bits do not depend on that size.
    name, params, index, spec, d, (s_min, s_max), voxels, ref = case
    monkeypatch.setattr(splat_module, "_SLAB_PAIRS", 1024)
    per_gaussian = np.diff(index.gaussian_starts)
    if path == "pair":
        monkeypatch.setattr(splat_module, "_BOX_PAIRS", int(per_gaussian.max()))
    boxes = per_gaussian > splat_module._BOX_PAIRS
    assert boxes.any() == (path == "box")
    if name == "exact" and path == "box":
        assert boxes.all()
    grads = backward_splat(params, index, spec, d, s_min, s_max, voxels)
    bound = gradient_bound(ref)
    for key in KEYS:
        err = np.abs(grads[key] - ref.grads[key])
        assert np.all(err <= bound[key]), (key, float(np.max(err / bound[key])))
        assert np.abs(ref.grads[key]).max() > 0, key
