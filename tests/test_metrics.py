"""Tests for the IoU metrics."""

import numpy as np
import pytest

from gaussvox import (
    ConfusionMatrix,
    GridSpec,
    OccupancyGrid,
    UndefinedMetricError,
    confusion,
    miou,
    scene_completion_iou,
)
from gaussvox.errors import GridMismatchError

SPEC = GridSpec((0, 0, 0), (1, 1, 1), (2, 2, 2))


def grid(labels, class_count=3):
    return OccupancyGrid(SPEC, class_count, np.asarray(labels, dtype=np.uint8))


def test_confusion_perfect_is_diagonal():
    labels = [0, 1, 2, 0, 1, 2, 0, 1]
    cm = confusion(grid(labels), grid(labels))
    assert np.array_equal(cm.counts, np.diag([3, 3, 2]))
    assert cm.ignore_count == 0


def test_confusion_all_ignore():
    truth = grid([255] * 8)
    pred = grid([0, 1, 2, 0, 1, 2, 0, 1])
    cm = confusion(pred, truth)
    assert np.all(cm.counts == 0)
    assert cm.ignore_count == 8


def test_confusion_direct_tally():
    truth = grid([0, 1, 0, 0, 0, 0, 0, 0], class_count=2)
    pred = grid([1, 1, 0, 0, 0, 0, 0, 0], class_count=2)
    cm = confusion(pred, truth)
    assert cm.counts[0][1] == 1
    assert cm.counts[1][1] == 1
    assert cm.counts[0][0] == 6


@pytest.mark.parametrize("covered, ignored", [(0.4, 0.0), (0.4, 0.3), (0.4, 1.0), (0.0, 0.3),
                                              (1.0, 0.3)])
def test_row_form_tally_equals_the_dense_tally(covered, ignored):
    # A row-form prediction is tallied over its rows, every other voxel
    # being empty, so its matrix is the dense one of the same labels.  At
    # full cover the grid has no voxel ids, and the dense tally runs.
    rng = np.random.default_rng(150)
    spec, c = GridSpec((0, 0, 0), (1, 1, 1), (6, 5, 4)), 4
    truth = rng.integers(0, c, spec.num_voxels).astype(np.uint8)
    truth[rng.random(truth.size) < ignored] = 255
    truth = OccupancyGrid(spec, c, truth)
    rows = rng.random(spec.num_voxels) < covered
    labels = np.where(rows, rng.integers(0, c, spec.num_voxels), 0).astype(np.uint8)
    voxels = None if rows.all() else np.flatnonzero(rows)
    scores = np.zeros((spec.num_voxels if voxels is None else voxels.size, c), np.float32)
    pred = OccupancyGrid(spec, c, labels, scores, voxels)
    dense = confusion(OccupancyGrid(spec, c, labels), truth)
    counts = np.bincount(truth.labels, minlength=256)
    for cm in (confusion(pred, truth), confusion(pred, truth, counts)):
        assert np.array_equal(cm.counts, dense.counts)
        assert cm.ignore_count == dense.ignore_count == counts[255]


def test_confusion_spec_mismatch():
    other = OccupancyGrid(GridSpec((0, 0, 0), (1, 1, 1), (1, 2, 2)), 3,
                          np.zeros(4, np.uint8))
    with pytest.raises(GridMismatchError):
        confusion(grid([0] * 8), other)


def test_confusion_additive():
    rng = np.random.default_rng(31)
    t = rng.integers(0, 3, 8).astype(np.uint8)
    p = rng.integers(0, 3, 8).astype(np.uint8)
    whole = confusion(grid(p), grid(t))
    # split voxels into two halves via ignore masking
    t_a, t_b = t.copy(), t.copy()
    t_a[4:] = 255
    t_b[:4] = 255
    parts = confusion(grid(p), grid(t_a)).counts + confusion(grid(p), grid(t_b)).counts
    assert np.array_equal(whole.counts, parts)


def test_miou_perfect():
    labels = [0, 1, 2, 0, 1, 2, 1, 2]
    per_class, mean = miou(confusion(grid(labels), grid(labels)))
    assert np.allclose(per_class, 1.0)
    assert mean == 1.0


def test_miou_half_case():
    # One class with TP=3, FP=1, FN=2 gives IoU 3/6 = 0.5.
    counts = np.zeros((2, 2), dtype=np.int64)
    counts[1][1] = 3
    counts[0][1] = 1  # false positive for class 1
    counts[1][0] = 2  # false negative for class 1
    counts[0][0] = 2
    per_class, mean = miou(ConfusionMatrix(counts, 0))
    assert per_class[1] == 0.5
    assert mean == 0.5


def test_miou_absent_class_excluded():
    truth = [0, 1, 0, 1, 0, 1, 0, 1]
    per_class, mean = miou(confusion(grid(truth), grid(truth)))
    assert np.isnan(per_class[2])
    assert mean == 1.0


def test_miou_never_predicted_class_counts_zero():
    truth = grid([1, 1, 2, 2, 0, 0, 0, 0])
    pred = grid([1, 1, 0, 0, 0, 0, 0, 0])
    per_class, mean = miou(confusion(pred, truth))
    assert per_class[2] == 0.0
    assert mean == pytest.approx((1.0 + 0.0) / 2)


def test_miou_undefined_when_everything_empty():
    cm = confusion(grid([0] * 8), grid([0] * 8))
    with pytest.raises(UndefinedMetricError):
        miou(cm)


def test_miou_bad_empty_class():
    cm = confusion(grid([0, 1] * 4), grid([0, 1] * 4))
    with pytest.raises(ValueError):
        miou(cm, empty_class=7)


def test_scene_completion_basic():
    # truth (occ, occ, empty), pred (occ, empty, occ) -> IoU 1/3
    truth = grid([1, 1, 0, 0, 0, 0, 0, 0], class_count=2)
    pred = grid([1, 0, 1, 0, 0, 0, 0, 0], class_count=2)
    sc = scene_completion_iou(confusion(pred, truth))
    assert sc == pytest.approx(1.0 / 3.0)


def test_scene_completion_ignores_semantics():
    truth = grid([1, 0, 0, 0, 0, 0, 0, 0])
    pred = grid([2, 0, 0, 0, 0, 0, 0, 0])
    assert scene_completion_iou(confusion(pred, truth)) == 1.0


def test_scene_completion_undefined_all_empty():
    cm = confusion(grid([0] * 8), grid([0] * 8))
    with pytest.raises(UndefinedMetricError):
        scene_completion_iou(cm)


def test_metrics_invariant_under_class_permutation():
    rng = np.random.default_rng(32)
    t = rng.integers(0, 3, 8).astype(np.uint8)
    p = rng.integers(0, 3, 8).astype(np.uint8)
    base_cm = confusion(grid(p), grid(t))
    _, base_miou = miou(base_cm)
    base_sc = scene_completion_iou(base_cm)
    # swap the non-empty classes 1 and 2 in both grids
    perm = np.array([0, 2, 1], dtype=np.uint8)
    cm = confusion(grid(perm[p]), grid(perm[t]))
    _, m = miou(cm)
    assert m == pytest.approx(base_miou)
    assert scene_completion_iou(cm) == pytest.approx(base_sc)


def test_confusion_matrix_validation():
    with pytest.raises(ValueError):
        ConfusionMatrix(np.zeros((2, 3), dtype=np.int64), 0)
    with pytest.raises(ValueError):
        ConfusionMatrix(-np.ones((2, 2), dtype=np.int64), 0)
