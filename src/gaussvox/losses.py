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
error are sorted.  That kept set is a prefix of the full stable order.

A splat leaves every voxel outside its index's boxes with all-zero scores,
so their softmax rows are one constant row.  Given a prediction in row form,
one score row per covered voxel, the passes run over the covered non-ignored
rows only, and the constant row stands for the others: cross-entropy counts
it once per label, and per class its entries form two tie groups, foreground
at error ``1 - p`` and background at error ``p``, each in voxel order.  A
sorted entry's position and foreground count in the full stable order are
then exact integers, its covered rank plus the group members that precede
it, so its coefficient has the bits of a sort over every voxel.  The scalar
of a tie run telescopes to ``error * (J_last - J_before)``.  So the score
gradients at the covered rows are bitwise those of dense passes and a full
sort over every voxel; only the Lovasz and cross-entropy scalars can differ,
by the rounding of shorter sums.  The gradient has the prediction's rows, so
no (V, C) gradient is built for a prediction in row form.

One (rows, C) float64 buffer serves every pass: it holds the Lovasz
gradient and then the score gradient.  No probability is stored.  Each row
keeps its max and its log-sum-exp, found from blocks of the score rows, and
a probability is recomputed wherever it is needed, by the ops of a dense
log-softmax, ``exp((float64(s) - max) - lse)``, so it has the same bits
every time: one class column at a time in the Lovasz sort, and a block of
rows at a time in the chain through the softmax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, UndefinedLossError
from .grid import IGNORE_LABEL, OccupancyGrid, grids_compatible

# Rows per block of the passes over the score rows; their scratch holds two blocks.
_CHAIN_ROWS = 1 << 11
# Bytes per row that voxel_losses holds at most beside its (rows, C) float64
# buffer: the labels, the ignored mask and the outside mask; the row max and
# the log-sum-exp; and over one class's kept rows, which can be every row,
# two masks and ten 8-byte arrays: the ids, the foreground flags, the errors,
# two prefix counts, and the coefficients with two Jaccard temporaries or
# the tie groups' counts with the four arrays that place the tied rows.
_ROW_BYTES = 3 + 2 * 8 + 2 + 10 * 8


@dataclass
class LossBreakdown:
    total: float
    ce: float
    lovasz: float
    # (rows, C) float64, the rows of the prediction's scores; +0.0 at
    # ignored voxels.
    d_scores: np.ndarray


def _jaccard(fg_sum: float, fg: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Jaccard loss of a sorted class's prefixes of ``length`` entries, ``fg`` foreground.

    ``fg_sum`` is the class's foreground count.  Counts are exact integers
    in float64, so the intersection and union, and the loss, have the same
    bits wherever the counts come from.
    """
    union = length - fg
    union += fg_sum
    loss = np.asarray(fg_sum - fg)
    loss /= union
    return np.subtract(1.0, loss, out=loss)


def _run_jaccard(fg_sum, errors, fg, groups, err, side):
    """The prefix before (``side="left"``) or through the tie run at ``err``.

    ``errors`` and ``fg`` are a class's sorted covered entries, and
    ``groups`` its tie groups as (foreground flag, error, size).  Returns
    how many covered entries the prefix holds and its Jaccard loss.  Every
    entry of the run lies between the two prefixes, so the run's share of
    the Lovasz scalar is ``err`` times the difference of their losses.
    """
    k = int(np.searchsorted(-errors, -err, side))
    ahead = [(is_fg, size) for is_fg, e, size in groups
             if e > err or (side == "right" and e == err)]
    return k, _jaccard(fg_sum, fg[:k].sum() + sum(size for is_fg, size in ahead if is_fg),
                       k + sum(size for _, size in ahead))


def _log_sum_exp(rows: np.ndarray, row_max: np.ndarray, lse: np.ndarray) -> None:
    """Write the max and the log-sum-exp of each float64 row of ``rows``, which it overwrites."""
    rows.max(axis=1, out=row_max)
    rows -= row_max[:, None]
    np.sum(np.exp(rows, out=rows), axis=1, out=lse)
    np.log(lse, out=lse)


def _probs(rows: np.ndarray, row_max: np.ndarray, lse: np.ndarray) -> np.ndarray:
    """``exp((rows - max) - lse)`` in place, for (k, C) float64 score rows or one class's (k,)."""
    if rows.ndim == 2:
        row_max, lse = row_max[:, None], lse[:, None]
    rows -= row_max
    rows -= lse
    return np.exp(rows, out=rows)


def _count_before(mask: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """How many True entries of the (V,) ``mask`` precede each of the ascending ``ids``.

    ``mask`` is False at every id, so each segment sum between two ids,
    which includes the first of them, counts the entries between.
    """
    return np.cumsum(np.add.reduceat(mask, np.concatenate(([0], ids)), dtype=np.intp)[:-1])


def voxel_losses(
    pred: OccupancyGrid,
    truth: OccupancyGrid,
    weights: tuple[float, float] = (1.0, 1.0),
) -> LossBreakdown:
    """Weighted cross-entropy + Lovasz-softmax loss and its score gradients.

    ``weights`` is (ce_weight, lovasz_weight).  ``d_scores`` has the rows of
    ``pred.scores``: one per voxel for a dense ``pred``, and row i for voxel
    ``pred.voxels[i]`` in row form, such as ``splat(..., rows=True)`` gives.
    A row whose voxel is ignored stays +0.0.  Beside the (rows, C) float64
    buffer that it returns, the loss holds at most ``_ROW_BYTES`` per row.
    Raises UndefinedLossError if every truth voxel carries the ignore label.
    """
    if pred.scores is None:
        raise ValueError("prediction grid must carry scores")
    if not grids_compatible(pred, truth):
        raise GridMismatchError("prediction and truth must share GridSpec and class count")
    ce_w, lov_w = (float(weights[0]), float(weights[1]))

    # The non-ignored voxels, then those of them without a row.
    outside = truth.labels != IGNORE_LABEL
    n = int(np.count_nonzero(outside))
    if n == 0:
        raise UndefinedLossError("all voxels are ignored")
    dense = pred.voxels is None
    outside[slice(None) if dense else pred.voxels] = False

    def voxels_of(rows):
        return rows if dense else pred.voxels[rows]

    scores = pred.scores
    labels = truth.labels if dense else truth.labels[pred.voxels]
    # The rows that the passes read; an ignored row's gradient stays +0.0.
    valid = labels != IGNORE_LABEL
    valid_labels = labels[valid]
    out_labels = truth.labels[outside]
    c = pred.class_count
    out_count = np.bincount(out_labels, minlength=c)
    m = labels.size
    # Each row's max and log-sum-exp, found a block of rows at a time.  The
    # same ops on an all-zero row give the constant row of every voxel
    # outside the covered set.
    row_max, lse = np.empty((2, m))
    scratch = np.empty((2, min(_CHAIN_ROWS, m), c))
    for a in range(0, m, _CHAIN_ROWS):
        b = min(a + _CHAIN_ROWS, m)
        block = scratch[0, :b - a]
        block[...] = scores[a:b]
        _log_sum_exp(block, row_max[a:b], lse[a:b])
    zero_max, zero_lse = np.empty((2, 1))
    _log_sum_exp(np.zeros((1, c)), zero_max, zero_lse)
    logp_out = (np.zeros(c) - zero_max) - zero_lse
    p_out = np.exp(logp_out)
    logp_label = scores[valid, valid_labels].astype(np.float64)
    logp_label -= row_max[valid]
    logp_label -= lse[valid]
    ce = float(-(logp_label.sum() + np.dot(out_count, logp_out)) / n)

    # Lovasz-softmax over classes present in the truth.  Each class sorts its
    # foreground and the background whose error p reaches the smallest
    # foreground error, 1 - max(p[fg]): the prefix of the module docstring.
    fg_total = np.bincount(valid_labels, minlength=c) + out_count
    present = np.flatnonzero(fg_total)
    p_max = np.full(c, -np.inf)
    np.maximum.at(p_max, valid_labels, np.exp(logp_label, out=logp_label))
    del logp_label, valid_labels
    p_max = np.where(out_count > 0, np.maximum(p_max, p_out), p_max)
    threshold = 1.0 - p_max
    lov = 0.0
    # The one (rows, C) buffer: the Lovasz gradient, then the score gradient.
    d_scores = np.zeros((m, c))

    for cls in present:
        probs = _probs(scores[:, cls].astype(np.float64), row_max, lse)
        keep = probs >= threshold[cls]
        keep[labels == cls] = True
        keep &= valid
        idx = np.flatnonzero(keep)
        del keep
        fg = (labels[idx] == cls).astype(np.float64)
        errors = np.abs(fg - probs[idx])
        del probs
        order = np.argsort(-errors, kind="stable")
        idx, fg, errors = idx[order], fg[order], errors[order]
        del order  # one array fewer while the coefficients are built
        # Each entry's prefix of the full stable order: its length and its
        # foreground count, both exact.  The outside rows form two tie
        # groups, which precede an entry of smaller error, and of equal
        # error when their voxel is smaller.
        seen = np.cumsum(fg)
        length = np.arange(1.0, idx.size + 1)
        groups = ((True, 1.0 - p_out[cls], out_count[cls]),
                  (False, p_out[cls], out_labels.size - out_count[cls]))
        for is_fg, err, size in groups:
            if size == 0:
                continue
            ahead = np.where(errors < err, float(size), 0.0)
            tie = errors == err
            if tie.any():
                # The tied entries have one error, so the stable sort left
                # them in ascending voxel order.
                group = outside & ((truth.labels == cls) == is_fg)
                ahead[tie] = _count_before(group, voxels_of(idx[tie]))
                del group
            length += ahead
            if is_fg:
                seen += ahead
        fg_sum = float(fg_total[cls])
        coeffs = _jaccard(fg_sum, seen, length)
        seen -= fg
        length -= 1.0
        coeffs -= _jaccard(fg_sum, seen, length)
        lov += float(np.dot(errors, coeffs))
        # A tie run that holds a group enters whole, in place of its covered part.
        for err in {err for _, err, size in groups if size}:
            (lo, before), (hi, through) = (_run_jaccard(fg_sum, errors, fg, groups, err, side)
                                           for side in ("left", "right"))
            lov += float(err * (through - before) - np.dot(errors[lo:hi], coeffs[lo:hi]))
        # d|fg - p| / dp = -1 on foreground, +1 elsewhere
        d_scores[idx, cls] = coeffs * (1.0 - 2.0 * fg) / present.size
        del idx, fg, errors, seen, length, coeffs  # before the next class builds its own
    lov /= present.size
    # A block of rows at a time: the chain through the softmax,
    # ds = p * (g - <g, p>), then the cross-entropy gradient added to it.
    for a in range(0, m, _CHAIN_ROWS):
        b = min(a + _CHAIN_ROWS, m)
        p, gp = scratch[:, :b - a]
        p[...] = scores[a:b]
        _probs(p, row_max[a:b], lse[a:b])
        g = d_scores[a:b]
        np.multiply(g, p, out=gp)
        g -= np.sum(gp, axis=1, keepdims=True)
        g *= np.multiply(p, lov_w, out=gp)
        ok = valid[a:b]
        p[ok, labels[a:b][ok]] -= 1.0
        p *= ce_w / n
        g += p  # a float add commutes, so the sum has the bits of ce + lovasz
        g[~ok] = 0.0  # an ignored row has no gradient, whatever the weights' signs
    del scratch

    return LossBreakdown(total=ce_w * ce + lov_w * lov, ce=ce, lovasz=lov, d_scores=d_scores)
