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


def confusion(pred: OccupancyGrid, truth: OccupancyGrid) -> ConfusionMatrix:
    """Tally predicted vs ground-truth labels, excluding 255-ignore truth voxels."""
    if not grids_compatible(pred, truth):
        raise GridMismatchError("prediction and truth must share GridSpec and class count")
    c = truth.class_count
    valid = truth.labels != IGNORE_LABEL
    t = truth.labels[valid].astype(np.int64)
    p = pred.labels[valid].astype(np.int64)
    if np.any(p >= c):
        raise GridMismatchError("prediction contains labels >= class_count")
    counts = np.bincount(t * c + p, minlength=c * c).reshape(c, c)
    return ConfusionMatrix(counts, int(np.count_nonzero(~valid)))


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
