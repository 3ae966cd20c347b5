"""Occupancy evaluation metrics: per-class IoU, mIoU, scene-completion IoU."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, UndefinedMetricError
from .grid import IGNORE_LABEL, OccupancyGrid, grids_compatible


@dataclass
class ConfusionMatrix:
    """counts[t][p] = voxels with ground truth t predicted p; ignores tallied apart."""

    counts: np.ndarray
    ignore_count: int

    def __post_init__(self):
        self.counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise ValueError("counts must be square")
        if np.any(self.counts < 0) or self.ignore_count < 0:
            raise ValueError("counts must be non-negative")

    @property
    def class_count(self) -> int:
        return int(self.counts.shape[0])


def confusion(pred: OccupancyGrid, truth: OccupancyGrid, truth_counts=None) -> ConfusionMatrix:
    """Tally predicted vs ground-truth labels, excluding 255-ignore truth voxels.

    A ``pred`` in row form is tallied over its rows' voxels alone: every
    other voxel has all-zero scores, so label 0, and the rest of each truth
    class goes to column 0.  That rest comes from ``truth_counts``, the
    count of each label value of ``truth``, ``np.bincount(truth.labels,
    minlength=256)``, which a caller that tallies many predictions against
    one truth finds once; by default it is found here.
    """
    if not grids_compatible(pred, truth):
        raise GridMismatchError("prediction and truth must share GridSpec and class count")
    c = truth.class_count
    t, p = truth.labels, pred.labels
    if pred.voxels is not None:
        t, p = t[pred.voxels], p[pred.voxels]
    if np.any((p >= c) & (t != IGNORE_LABEL)):
        raise GridMismatchError("prediction contains labels >= class_count")
    # A voxel's key is t * C + p, below C * C unless its truth is ignored,
    # and then 255 * C at least; at most 255 * 255 + 255, so a uint16.
    key = t.astype(np.uint16)
    key *= c
    key += p
    tally = np.bincount(key, minlength=c * c)
    counts = tally[: c * c].reshape(c, c)
    if pred.voxels is None:
        return ConfusionMatrix(counts, int(tally[c * c :].sum()))
    if truth_counts is None:
        truth_counts = np.bincount(truth.labels, minlength=IGNORE_LABEL + 1)
    counts[:, 0] += truth_counts[:c] - counts.sum(axis=1)
    return ConfusionMatrix(counts, int(truth_counts[IGNORE_LABEL]))


def miou(cm: ConfusionMatrix, empty_class: int = 0):
    """Per-class IoU and the mean over non-empty classes.

    A class absent from both prediction and truth (TP + FP + FN = 0) gets a
    NaN IoU and is excluded from the mean.  Raises UndefinedMetricError when
    no non-empty class remains.
    """
    c = cm.class_count
    if not (0 <= empty_class < c):
        raise ValueError(f"empty_class {empty_class} out of range for {c} classes")
    tp = np.diag(cm.counts).astype(np.float64)
    fp = cm.counts.sum(axis=0) - tp
    fn = cm.counts.sum(axis=1) - tp
    denom = tp + fp + fn
    per_class = np.full(c, np.nan)
    defined = denom > 0
    per_class[defined] = tp[defined] / denom[defined]
    include = defined.copy()
    include[empty_class] = False
    if not np.any(include):
        raise UndefinedMetricError("no non-empty class present in prediction or truth")
    return per_class, float(per_class[include].mean())


def scene_completion_iou(cm: ConfusionMatrix, empty_class: int = 0) -> float:
    """IoU of occupied-vs-empty after binarizing away the semantic classes."""
    c = cm.class_count
    if not (0 <= empty_class < c):
        raise ValueError(f"empty_class {empty_class} out of range for {c} classes")
    occ = np.ones(c, dtype=bool)
    occ[empty_class] = False
    tp = int(cm.counts[np.ix_(occ, occ)].sum())
    fp = int(cm.counts[np.ix_(~occ, occ)].sum())
    fn = int(cm.counts[np.ix_(occ, ~occ)].sum())
    denom = tp + fp + fn
    if denom == 0:
        raise UndefinedMetricError("no occupied voxel in prediction or truth")
    return tp / denom
