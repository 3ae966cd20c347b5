"""Bit parity of ``voxel_losses`` with the full-sort reference in loss_reference.py.

The library sorts, per class, only the errors that can come before the last
foreground entry of the stable descending order.  These tests hold it to the
reference's score gradients bit for bit (compared as uint64), and the loss
scalars to 1e-12 relative, on the inputs below.  They also check the fact the
cut relies on: in the reference's order, every coefficient after a class's
last foreground entry is exactly 0.0.

Given a prediction in row form, one score row per covered voxel, the
library runs over the covered rows only and stands one constant row in for
the others.  It returns the gradient in the prediction's rows.  The covered
tests hold every covered row, ignored rows included, to the reference's
dense gradient at its voxel bit for bit.
"""

import importlib
import tracemalloc

import numpy as np
import pytest

import loss_reference
from gaussvox import (
    GaussianScene,
    GridSpec,
    OccupancyGrid,
    build_splat_index,
    splat,
    voxel_losses,
)
from gaussvox.grid import IGNORE_LABEL
from test_acceptance import _octant_instance

losses_module = importlib.import_module("gaussvox.losses")

WEIGHTS = [(1.0, 1.0), (0.7, 1.3), (1.0, 0.0), (0.0, 1.0)]
SMALL = GridSpec((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (8, 8, 8))


def scored(spec, scores):
    scores = np.asarray(scores, dtype=np.float32)
    return OccupancyGrid(spec, scores.shape[1], np.argmax(scores, axis=1).astype(np.uint8),
                         scores)


def driving_scene(scale_range=(0.3, 0.6)):
    """A 64x64x25 driving-like truth and a jittered lattice scene over it."""
    rng = np.random.default_rng(61)
    spec = GridSpec((-16.0, -16.0, -2.0), (0.5, 0.5, 0.5), (64, 64, 25))
    classes = 18
    labels = np.zeros(spec.dims, dtype=np.uint8)
    labels[:, :, :2] = 1  # ground plane
    for _ in range(80):
        x, y = rng.integers(0, spec.dims[0], 2)
        sx, sy, sz = rng.integers(2, 13), rng.integers(2, 13), rng.integers(2, 9)
        labels[x:x + sx, y:y + sy, 2:2 + sz] = rng.integers(2, classes)
    labels = labels.reshape(-1)
    labels[rng.random(labels.size) < 0.05] = IGNORE_LABEL
    truth = OccupancyGrid(spec, classes, labels)

    lattice = np.array([16, 16, 8])
    ijk = np.stack(np.meshgrid(*(np.arange(k) for k in lattice), indexing="ij"),
                   axis=-1).reshape(-1, 3)
    origin, cell = np.array(spec.origin), np.array(spec.cell_size)
    spacing = cell * np.array(spec.dims) / lattice
    count = ijk.shape[0]
    means = origin + (ijk + 0.5) * spacing + rng.normal(0.0, 0.5, (count, 3)) * cell
    rotations = rng.normal(size=(count, 4))
    rotations /= np.linalg.norm(rotations, axis=1, keepdims=True)
    logits = rng.normal(size=(count, classes))
    semantics = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    scene = GaussianScene(means.astype(np.float32),
                          rng.uniform(*scale_range, (count, 3)).astype(np.float32),
                          rotations.astype(np.float32), semantics.astype(np.float32))
    return scene, truth


def sparse_driving_scene():
    """The driving truth under small gaussians, whose boxes cover a fraction of the grid."""
    return driving_scene((0.1, 0.2))


def driving_case():
    """The driving truth scored by a splat of its lattice scene."""
    scene, truth = driving_scene()
    return splat(scene, truth.spec), truth


def sparse_driving_case():
    scene, truth = sparse_driving_scene()
    return splat(scene, truth.spec), truth


def octant_scene():
    """Criterion 4's instance: the jittered start and the octant truth."""
    spec, truth_scene, truth = _octant_instance()
    rng = np.random.default_rng(11)
    jitter = rng.normal(0.0, 0.5 * spec.cell_size[0], truth_scene.means.shape)
    initial = GaussianScene(truth_scene.means + jitter.astype(np.float32),
                            truth_scene.scales, truth_scene.rotations, truth_scene.logits)
    return initial, truth


def octant_case():
    """The octant truth scored by the exact splat of the jittered start."""
    initial, truth = octant_scene()
    return splat(initial, truth.spec, cutoff_sigma=None), truth


def tied_case(seed):
    """Scores from {0, 1}, most rows all zero, so errors tie in long runs."""
    rng = np.random.default_rng(seed)
    n = SMALL.num_voxels
    c = int(rng.integers(2, 6))
    scores = (rng.random((n, c)) < 0.1).astype(np.float32)
    labels = rng.integers(0, c, n).astype(np.uint8)
    labels[rng.random(n) < 0.1] = IGNORE_LABEL
    return scored(SMALL, scores), OccupancyGrid(SMALL, c, labels)


def absent_class_case():
    rng = np.random.default_rng(62)
    n = SMALL.num_voxels
    labels = rng.choice([0, 1, 3], n).astype(np.uint8)
    return scored(SMALL, rng.normal(size=(n, 5))), OccupancyGrid(SMALL, 5, labels)


def saturated_case():
    pred, truth = driving_case()
    return scored(pred.spec, pred.scores * 50.0), truth


def one_class_case():
    rng = np.random.default_rng(63)
    n = SMALL.num_voxels
    return scored(SMALL, rng.normal(size=(n, 4))), OccupancyGrid(SMALL, 4, np.full(n, 2))


def tie_case():
    """A background voxel ties the smallest foreground error of class 0 and
    precedes it in index order, so it belongs to the sorted prefix.

    Voxel 0 is background with scores (0, x); voxel 1 is foreground with
    (x, 0), the largest class-0 probability of any foreground voxel.  Their
    class-0 errors are p0(voxel 0) and 1 - p0(voxel 1); x is the first
    candidate for which the two are equal in float64.
    """
    n = SMALL.num_voxels
    labels = np.zeros(n, dtype=np.uint8)
    labels[0] = 1
    labels[n // 2:] = 1
    for x in np.linspace(0.5, 3.0, 400, dtype=np.float32):
        scores = np.zeros((n, 2), dtype=np.float32)
        scores[0] = (0.0, x)
        scores[1] = (x, 0.0)
        scores[2:n // 2] = (x / 2, 0.0)
        scores[n // 2:] = (0.0, 2 * x)
        probs = reference_probs(scored(SMALL, scores), OccupancyGrid(SMALL, 2, labels))
        if probs[0, 0] == 1.0 - probs[1, 0]:
            return scored(SMALL, scores), OccupancyGrid(SMALL, 2, labels)
    raise AssertionError("no score gives an exact tie")


CASES = {
    "driving": driving_case,
    "sparse-driving": sparse_driving_case,
    "octant": octant_case,
    "tied-a": lambda: tied_case(64),
    "tied-b": lambda: tied_case(65),
    "tied-c": lambda: tied_case(66),
    "absent-class": absent_class_case,
    "saturated": saturated_case,
    "one-class": one_class_case,
    "tie": tie_case,
}


# Cases splatted from a scene take their covered mask from the scene's index.
INDEXED = {
    "driving": (driving_scene, 3.0),
    "sparse-driving": (sparse_driving_scene, 3.0),
    "octant": (octant_scene, None),
}


def covered_mask(case, pred):
    """The real index's covered voxels for a splatted case; otherwise every
    nonzero-score voxel and a random 30% of the others."""
    if case in INDEXED:
        make, cutoff = INDEXED[case]
        scene, truth = make()
        return np.diff(build_splat_index(scene, truth.spec, cutoff).voxel_starts) > 0
    rng = np.random.default_rng(67)
    nonzero = np.any(pred.scores != 0, axis=1)
    return nonzero | (rng.random(nonzero.size) < 0.3)


def row_form(pred, covered):
    """The dense ``pred`` in row form over the ``covered`` voxels."""
    voxels = np.flatnonzero(covered)
    return OccupancyGrid(pred.spec, pred.class_count, pred.labels, pred.scores[voxels], voxels)


def assert_covered_parity(pred, truth, covered, weights):
    """Given ``pred`` in row form over ``covered``: a row per covered voxel,
    ignored voxels included, in voxel order, bitwise the reference's
    gradient there; and the scalars within 1e-12."""
    ref = loss_reference.voxel_losses(pred, truth, weights)
    got = voxel_losses(row_form(pred, covered), truth, weights)
    voxels = np.flatnonzero(covered)
    assert got.d_scores.shape == (voxels.size, truth.class_count)
    assert np.array_equal(got.d_scores.view(np.uint64),
                          ref.d_scores[voxels].view(np.uint64)), weights
    assert close(ref.total, got.total), (weights, ref.total, got.total)
    assert close(ref.ce, got.ce), (weights, ref.ce, got.ce)
    assert close(ref.lovasz, got.lovasz), (weights, ref.lovasz, got.lovasz)
    return ref


def reference_probs(pred, truth):
    """The reference's softmax probabilities of the non-ignored voxels, same ops."""
    valid = truth.labels != IGNORE_LABEL
    scores = pred.scores[valid].astype(np.float64)
    logp = scores - scores.max(axis=1, keepdims=True)
    logp -= np.log(np.sum(np.exp(logp), axis=1, keepdims=True))
    return np.exp(logp)


def reference_orders(pred, truth):
    """Per present class: foreground flags and coefficients in the full stable order."""
    labels = truth.labels[truth.labels != IGNORE_LABEL].astype(np.int64)
    probs = reference_probs(pred, truth)
    for cls in np.unique(labels):
        fg = (labels == cls).astype(np.float64)
        order = np.argsort(-np.abs(fg - probs[:, cls]), kind="stable")
        yield cls, order, fg[order], loss_reference._lovasz_grad_coeffs(fg[order])


def close(a, b):
    return abs(a - b) <= 1e-12 * abs(a)


@pytest.mark.parametrize("case", list(CASES))
def test_loss_matches_full_sort_reference(case):
    pred, truth = CASES[case]()
    for weights in WEIGHTS:
        ref = loss_reference.voxel_losses(pred, truth, weights)
        got = voxel_losses(pred, truth, weights)
        assert np.array_equal(got.d_scores.view(np.uint64), ref.d_scores.view(np.uint64)), weights
        assert close(ref.total, got.total), (weights, ref.total, got.total)
        assert close(ref.ce, got.ce), (weights, ref.ce, got.ce)
        assert close(ref.lovasz, got.lovasz), (weights, ref.lovasz, got.lovasz)


@pytest.mark.parametrize("case", list(CASES))
def test_coefficients_after_last_foreground_are_zero(case):
    pred, truth = CASES[case]()
    for _, _, fg_sorted, coeffs in reference_orders(pred, truth):
        last = int(np.flatnonzero(fg_sorted)[-1])
        assert np.all(coeffs[last + 1:].view(np.uint64) == 0)


def test_tied_background_precedes_last_foreground():
    # The tie case is only a test of the >= threshold if the tied background
    # voxel really sorts before the last foreground entry of class 0.
    pred, truth = tie_case()
    cls, order, fg_sorted, coeffs = next(reference_orders(pred, truth))
    assert cls == 0
    position = int(np.flatnonzero(order == 0)[0])
    assert position < int(np.flatnonzero(fg_sorted)[-1])
    assert coeffs[position] != 0.0


def test_loss_holds_fewer_than_four_dense_gradients():
    # The gradient is V x C float64, the loss's one buffer for a dense
    # prediction; with its per-row arrays the traced peak stays below four
    # gradients.
    pred, truth = driving_case()
    tracemalloc.start()
    try:
        voxel_losses(pred, truth)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * pred.spec.num_voxels * pred.class_count * 8


def test_row_loss_holds_fewer_than_three_row_buffers():
    # The loss's float64 buffers of the covered rows: no more than two of
    # them and the blocks' scratch make the traced peak.  The bound counts
    # (m, C) buffers, m the covered non-ignored rows, 5% fewer.  The sparse
    # case leaves most voxels outside the boxes, so the outside rows' tie
    # groups and their counts are held too.  Measured: 2.08 buffers.
    pred, truth = sparse_driving_case()
    covered = covered_mask("sparse-driving", pred)
    grid = row_form(pred, covered)
    m = np.count_nonzero(covered & (truth.labels != IGNORE_LABEL))
    tracemalloc.start()
    try:
        voxel_losses(grid, truth)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * m * truth.class_count * 8


def test_row_loss_holds_fewer_than_two_row_buffers():
    # The loss holds one float64 buffer of the covered rows, which takes
    # the Lovasz gradient and then the score gradient.  Its per-row arrays,
    # one class's probabilities at a time and the per-voxel masks come to
    # less than one more.  The bound counts (m, C) buffers, m the covered
    # non-ignored rows, 5% fewer.  Measured: 1.64 buffers; with the
    # probabilities in a second buffer, as before, 2.71.
    pred, truth = driving_case()
    covered = covered_mask("driving", pred)
    grid = row_form(pred, covered)
    m = np.count_nonzero(covered & (truth.labels != IGNORE_LABEL))
    tracemalloc.start()
    try:
        voxel_losses(grid, truth)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * m * truth.class_count * 8, peak / (m * truth.class_count * 8)


@pytest.mark.parametrize("chain_rows", [1, 7])
@pytest.mark.parametrize("case", ["sparse-driving", "tied-a", "tie"])
def test_chain_blocks_keep_the_bits(monkeypatch, case, chain_rows):
    # Both passes over the score rows run a block of rows at a time: the
    # one that finds each row's max and log-sum-exp, and the chain through
    # the softmax with the cross-entropy gradient.  Neither form's gradient
    # depends on the block size.
    monkeypatch.setattr(losses_module, "_CHAIN_ROWS", chain_rows)
    pred, truth = CASES[case]()
    for weights in WEIGHTS[:2]:
        ref = loss_reference.voxel_losses(pred, truth, weights)
        got = voxel_losses(pred, truth, weights)
        assert np.array_equal(got.d_scores.view(np.uint64), ref.d_scores.view(np.uint64))
        assert_covered_parity(pred, truth, covered_mask(case, pred), weights)


@pytest.mark.parametrize("case", list(CASES))
def test_covered_rows_match_full_sort_reference(case):
    pred, truth = CASES[case]()
    covered = covered_mask(case, pred)
    # The precondition of the covered loss: no score outside the mask.
    assert not pred.scores[~covered].view(np.uint32).any()
    for weights in WEIGHTS:
        assert_covered_parity(pred, truth, covered, weights)


def test_sparse_driving_mask_leaves_most_voxels_outside():
    # The case stands for a fit whose boxes miss most of the grid.
    pred, truth = sparse_driving_case()
    assert covered_mask("sparse-driving", pred).mean() < 0.3


@pytest.mark.parametrize("classes", [2, 3])
def test_covered_zero_rows_tie_the_outside_row(classes):
    # All-zero covered rows have exactly the outside rows' probabilities, so
    # in every class they tie the outside tie groups and must fall between
    # those groups' members by voxel index.  With two classes the outside
    # row is (0.5, 0.5): its foreground and background groups tie as well.
    rng = np.random.default_rng(68 + classes)
    n = SMALL.num_voxels
    scores = np.where(rng.random((n, 1)) < 0.5, 0.0,
                      rng.integers(0, 3, (n, classes))).astype(np.float32)
    labels = rng.integers(0, classes, n).astype(np.uint8)
    labels[rng.random(n) < 0.1] = IGNORE_LABEL
    pred, truth = scored(SMALL, scores), OccupancyGrid(SMALL, classes, labels)
    zero = ~np.any(scores != 0, axis=1)
    covered = ~zero | (np.arange(n) % 3 == 0)
    valid = labels != IGNORE_LABEL
    tied = np.flatnonzero(covered & zero & valid)
    outside = np.flatnonzero(~covered & valid)
    assert tied.size and outside.size
    assert outside[0] < tied[-1] and tied[0] < outside[-1]
    for weights in WEIGHTS:
        assert_covered_parity(pred, truth, covered, weights)


def test_covered_label_entries_keep_negative_zero():
    # With no cross-entropy weight a label entry is (p - 1) * 0.0 = -0.0 plus
    # the Lovasz part, which is -0.0 when p underflows to 0: the sign must
    # survive.  Scores of +-500 against the label drive p to 0.
    rng = np.random.default_rng(70)
    n = SMALL.num_voxels
    labels = rng.integers(0, 3, n).astype(np.uint8)
    scores = np.where(rng.random((n, 1)) < 0.6, 0.0, rng.normal(size=(n, 3)))
    against = rng.random(n) < 0.2
    scores[against] = 500.0
    scores[against, labels[against]] = -500.0
    pred, truth = scored(SMALL, scores), OccupancyGrid(SMALL, 3, labels)
    covered = np.any(scores != 0, axis=1) | (rng.random(n) < 0.3)
    ref = assert_covered_parity(pred, truth, covered, (0.0, 1.0))
    entries = ref.d_scores[np.flatnonzero(covered), labels[covered]]
    assert np.any((entries == 0.0) & np.signbit(entries))


@pytest.mark.parametrize("case", ["tied-a", "sparse-driving"])
def test_ignored_rows_stay_positive_zero_under_negative_weights(case):
    # An ignored row is left out of every pass, so its gradient is +0.0 as
    # in the reference, even where a negative weight would turn a zero
    # product into -0.0.
    pred, truth = CASES[case]()
    weights = (-0.5, -1.0)
    ref = loss_reference.voxel_losses(pred, truth, weights)
    got = voxel_losses(pred, truth, weights)
    assert np.array_equal(got.d_scores.view(np.uint64), ref.d_scores.view(np.uint64))
    assert not got.d_scores[truth.labels == IGNORE_LABEL].view(np.uint64).any()
    assert_covered_parity(pred, truth, covered_mask(case, pred), weights)


@pytest.mark.parametrize("form", ["dense", "rows"])
def test_loss_calls_no_blas(monkeypatch, form):
    # OpenBLAS splits a long dot product over its threads, and a 200k dot
    # had other bits at 1 and 2 of them, so a BLAS call would tie the loss
    # scalars to the host.  The row form of the sparse case sums tie runs.
    if form == "dense":
        pred, truth = driving_case()
    else:
        pred, truth = sparse_driving_case()
        pred = row_form(pred, covered_mask("sparse-driving", pred))

    def refuse(*args, **kwargs):
        raise AssertionError("the loss called BLAS")

    for name in ("dot", "vdot", "inner", "matmul"):
        monkeypatch.setattr(np, name, refuse)
    assert np.isfinite(voxel_losses(pred, truth).total)
