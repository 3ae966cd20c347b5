"""Reference Lovasz-softmax loss: the full-sort form, kept verbatim.

This is ``gaussvox.losses.voxel_losses`` as it was before each class's sort
was cut to the prefix that ends at its last foreground entry.  It sorts every
voxel's error for every present class.  The parity tests require the
library's score gradients to equal this function's bit for bit.
"""

from __future__ import annotations

import numpy as np

from gaussvox.errors import GridMismatchError, UndefinedLossError
from gaussvox.grid import IGNORE_LABEL, OccupancyGrid, grids_compatible
from gaussvox.losses import LossBreakdown


def _lovasz_grad_coeffs(fg_sorted: np.ndarray) -> np.ndarray:
    """Gradient coefficients of the Lovasz extension for one sorted class."""
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
    scores = pred.scores[valid].astype(np.float64)
    c = pred.class_count
    # One log-softmax serves both terms; the probabilities derive from it.
    logp = scores - scores.max(axis=1, keepdims=True)
    logp -= np.log(np.sum(np.exp(logp), axis=1, keepdims=True))
    probs = np.exp(logp)
    rows = np.arange(n)

    # Cross-entropy.
    ce = float(-logp[rows, labels].mean())
    d_probs_space = probs.copy()
    d_probs_space[rows, labels] -= 1.0
    d_scores_valid = (ce_w / n) * d_probs_space

    # Lovasz-softmax over classes present in the truth.
    present = np.unique(labels)
    lov = 0.0
    d_lov_probs = np.zeros_like(probs)
    for cls in present:
        fg = (labels == cls).astype(np.float64)
        errors = np.abs(fg - probs[:, cls])
        order = np.argsort(-errors, kind="stable")
        coeffs = _lovasz_grad_coeffs(fg[order])
        lov += float(np.dot(errors[order], coeffs))
        d_err = np.empty(n)
        d_err[order] = coeffs
        # d|fg - p| / dp = -1 on foreground, +1 elsewhere
        d_lov_probs[:, cls] += d_err * (1.0 - 2.0 * fg)
    lov /= present.size
    d_lov_probs /= present.size
    # Chain through the softmax: ds = p * (g - <g, p>).
    inner = np.sum(d_lov_probs * probs, axis=1, keepdims=True)
    d_scores_valid += lov_w * probs * (d_lov_probs - inner)

    total = ce_w * ce + lov_w * lov
    d_scores = np.zeros((pred.spec.num_voxels, c))
    d_scores[valid] = d_scores_valid
    return LossBreakdown(total=total, ce=ce, lovasz=lov, d_scores=d_scores)
