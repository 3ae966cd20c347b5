"""Per-voxel training losses with exact gradients w.r.t. raw scores.

Cross-entropy applies a softmax to each voxel's accumulated scores and takes
the negative log-likelihood of the truth label, averaged over non-ignored
voxels.  The second term is the Lovasz extension of the Jaccard loss over the
softmax probabilities, computed per class present in the truth and averaged
over those classes.

Each class's Lovasz gradient is a Jaccard difference over its errors in
stable descending order.  After the last foreground entry of that order the
intersection is 0, so every later coefficient is exactly 0.0: only the
foreground and the background whose error reaches the smallest foreground
error are sorted.  That kept set is a prefix of the full stable order, and
the foreground count and running sums are exact integers, so the score
gradients are bitwise those of a sort over every voxel.  Only the Lovasz
scalar can differ, by the rounding of a shorter dot product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, UndefinedLossError
from .grid import IGNORE_LABEL, OccupancyGrid, grids_compatible


@dataclass
class LossBreakdown:
    total: float
    ce: float
    lovasz: float
    d_scores: np.ndarray  # (num_voxels, C) float64, zero at ignored voxels


def _lovasz_grad_coeffs(fg_sorted: np.ndarray) -> np.ndarray:
    """Gradient coefficients of the Lovasz extension for one sorted class.

    ``fg_sorted`` may be any prefix of the sorted order that holds every
    foreground entry; the coefficients it drops are the exact zeros.
    """
    fg_sum = fg_sorted.sum()
    intersection = fg_sum - np.cumsum(fg_sorted)
    union = fg_sum + np.cumsum(1.0 - fg_sorted)
    jaccard = 1.0 - intersection / union
    jaccard[1:] = jaccard[1:] - jaccard[:-1]
    return jaccard


def voxel_losses(
    pred: OccupancyGrid,
    truth: OccupancyGrid,
    weights: tuple[float, float] = (1.0, 1.0),
) -> LossBreakdown:
    """Weighted cross-entropy + Lovasz-softmax loss and its score gradients.

    ``weights`` is (ce_weight, lovasz_weight).  Raises UndefinedLossError if
    every truth voxel carries the ignore label.
    """
    if pred.scores is None:
        raise ValueError("prediction grid must carry scores")
    if not grids_compatible(pred, truth):
        raise GridMismatchError("prediction and truth must share GridSpec and class count")
    ce_w, lov_w = (float(weights[0]), float(weights[1]))

    valid = truth.labels != IGNORE_LABEL
    n = int(np.count_nonzero(valid))
    if n == 0:
        raise UndefinedLossError("all voxels are ignored")
    labels = truth.labels[valid].astype(np.int64)
    c = pred.class_count
    # One log-softmax serves both terms; the probabilities derive from it.
    # Three (n, C) buffers serve every pass below, each op done in place.
    logp = pred.scores[valid].astype(np.float64)
    logp -= logp.max(axis=1, keepdims=True)
    probs = np.exp(logp)
    logp -= np.log(np.sum(probs, axis=1, keepdims=True))
    np.exp(logp, out=probs)
    rows = np.arange(n)
    p_label = probs[rows, labels]
    ce = float(-logp[rows, labels].mean())

    # Lovasz-softmax over classes present in the truth.  Each class sorts its
    # foreground and the background whose error p reaches the smallest
    # foreground error, 1 - max(p[fg]): the prefix of the module docstring.
    present = np.flatnonzero(np.bincount(labels, minlength=c))
    p_max = np.full(c, -np.inf)
    np.maximum.at(p_max, labels, p_label)
    keep = probs >= 1.0 - p_max
    keep[rows, labels] = True
    kept_cls, kept_rows = np.nonzero(keep.T)
    bounds = np.searchsorted(kept_cls, np.arange(c + 1))
    del keep, kept_cls
    lov = 0.0
    d_lov_probs = np.zeros_like(probs)
    for cls in present:
        idx = kept_rows[bounds[cls]:bounds[cls + 1]]
        fg = (labels[idx] == cls).astype(np.float64)
        errors = np.abs(fg - probs[idx, cls])
        order = np.argsort(-errors, kind="stable")
        coeffs = _lovasz_grad_coeffs(fg[order])
        lov += float(np.dot(errors[order], coeffs))
        # d|fg - p| / dp = -1 on foreground, +1 elsewhere
        d_lov_probs[idx[order], cls] = coeffs * (1.0 - 2.0 * fg[order]) / present.size
    lov /= present.size
    # Chain through the softmax: ds = p * (g - <g, p>).
    np.multiply(d_lov_probs, probs, out=logp)
    d_lov_probs -= np.sum(logp, axis=1, keepdims=True)
    np.multiply(probs, lov_w, out=logp)
    logp *= d_lov_probs
    # Cross-entropy gradient, then the Lovasz part added to it.
    d_scores_valid = probs
    d_scores_valid[rows, labels] -= 1.0
    d_scores_valid *= ce_w / n
    d_scores_valid += logp
    # Two of the three (n, C) buffers are done: free them before the (V, C)
    # gradient exists, so at most two such arrays are alive at once.
    del logp, d_lov_probs

    total = ce_w * ce + lov_w * lov
    d_scores = np.zeros((pred.spec.num_voxels, c))
    d_scores[valid] = d_scores_valid
    return LossBreakdown(total=total, ce=ce, lovasz=lov, d_scores=d_scores)
