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
gradients at the covered non-ignored rows are bitwise those of dense passes
and a full sort over every voxel; only the Lovasz and cross-entropy scalars
can differ, by the rounding of shorter sums.  The gradient is then returned
as those rows, in voxel order, in the buffer they were computed in, whose
last row is zeroed to stand for every other voxel: the backward pass reads
no other row, so no (V, C) gradient is built.  Two (rows, C) float64 buffers
serve every pass.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, UndefinedLossError
from .grid import IGNORE_LABEL, OccupancyGrid, grids_compatible

# Rows per block of the chain through the softmax; its scratch holds one block.
_CHAIN_ROWS = 1 << 11


@dataclass
class LossBreakdown:
    total: float
    ce: float
    lovasz: float
    # (rows, C) float64.  With ``voxels`` None, one row per voxel, zero at
    # ignored voxels.  Otherwise row i is voxel ``voxels[i]``, and a last
    # all-zero row stands for every voxel without a row.
    d_scores: np.ndarray
    voxels: np.ndarray | None = None


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


def voxel_losses(
    pred: OccupancyGrid,
    truth: OccupancyGrid,
    weights: tuple[float, float] = (1.0, 1.0),
) -> LossBreakdown:
    """Weighted cross-entropy + Lovasz-softmax loss and its score gradients.

    ``weights`` is (ce_weight, lovasz_weight).  For ``pred`` in row form,
    such as ``splat(..., rows=True)`` gives, ``d_scores`` holds one row per
    non-ignored voxel of ``pred.voxels``, listed in ``voxels``, plus the
    zero row of every other voxel.  A dense ``pred`` gives the dense form:
    a (V, C) ``d_scores``, exact at every non-ignored voxel, and ``voxels``
    None; so does a row form where every voxel has a row, with no copy.
    Raises UndefinedLossError if every truth voxel carries the ignore label.
    """
    if pred.scores is None:
        raise ValueError("prediction grid must carry scores")
    if not grids_compatible(pred, truth):
        raise GridMismatchError("prediction and truth must share GridSpec and class count")
    ce_w, lov_w = (float(weights[0]), float(weights[1]))
    v = pred.spec.num_voxels

    valid = truth.labels != IGNORE_LABEL
    n = int(np.count_nonzero(valid))
    if n == 0:
        raise UndefinedLossError("all voxels are ignored")
    dense = pred.voxels is None
    covered = np.full(v, dense)
    if not dense:
        covered[pred.voxels] = True
    inside = valid & covered
    outside = valid & ~covered
    labels = truth.labels[inside].astype(np.int64)
    out_labels = truth.labels[outside]
    c = pred.class_count
    out_count = np.bincount(out_labels, minlength=c)
    m = labels.size
    # One log-softmax serves both terms; the probabilities derive from it.
    # Row m is all zero, the scores of every voxel outside the covered set,
    # so the same ops give their constant row.  Two (m + 1, C) buffers
    # serve every pass below, each op done in place.
    logp = np.zeros((m + 1, c))
    logp[:m] = pred.scores[valid if dense else valid[pred.voxels]]
    logp -= logp.max(axis=1, keepdims=True)
    probs = np.exp(logp)
    logp -= np.log(np.sum(probs, axis=1, keepdims=True))
    np.exp(logp, out=probs)
    p_out = probs[m].copy()
    rows = np.arange(m)
    p_label = probs[rows, labels]
    ce = float(-(logp[rows, labels].sum() + np.dot(out_count, logp[m])) / n)

    # Lovasz-softmax over classes present in the truth.  Each class sorts its
    # foreground and the background whose error p reaches the smallest
    # foreground error, 1 - max(p[fg]): the prefix of the module docstring.
    fg_total = np.bincount(labels, minlength=c) + out_count
    present = np.flatnonzero(fg_total)
    p_max = np.full(c, -np.inf)
    np.maximum.at(p_max, labels, p_label)
    p_max = np.where(out_count > 0, np.maximum(p_max, p_out), p_max)
    keep = probs[:m] >= 1.0 - p_max
    keep[rows, labels] = True
    kept_cls, kept_rows = np.nonzero(keep.T)
    bounds = np.searchsorted(kept_cls, np.arange(c + 1))
    del keep, kept_cls
    lov = 0.0
    d_lov_probs = logp  # the log-probabilities are done with: reuse their buffer
    d_lov_probs.fill(0.0)

    @functools.cache
    def voxel_ids():
        """The voxels of the covered and of the outside rows, found at the first exact tie."""
        return np.flatnonzero(inside), np.flatnonzero(outside)

    for cls in present:
        idx = kept_rows[bounds[cls]:bounds[cls + 1]]
        fg = (labels[idx] == cls).astype(np.float64)
        errors = np.abs(fg - probs[idx, cls])
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
                in_voxels, out_voxels = voxel_ids()
                ahead[tie] = np.searchsorted(out_voxels[(out_labels == cls) == is_fg],
                                             in_voxels[idx[tie]])
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
        d_lov_probs[idx, cls] = coeffs * (1.0 - 2.0 * fg) / present.size
    lov /= present.size
    voxel_ids.cache_clear()
    # Chain through the softmax, a block of rows at a time: ds = p * (g - <g, p>).
    scratch = np.empty((min(_CHAIN_ROWS, m), c))
    for a in range(0, m, _CHAIN_ROWS):
        b = min(a + _CHAIN_ROWS, m)
        g, p = d_lov_probs[a:b], probs[a:b]
        gp = np.multiply(g, p, out=scratch[:b - a])
        g -= np.sum(gp, axis=1, keepdims=True)
        g *= np.multiply(p, lov_w, out=gp)
    # Cross-entropy gradient, then the Lovasz part added to it.
    d_scores_valid = probs[:m]
    d_scores_valid[rows, labels] -= 1.0
    d_scores_valid *= ce_w / n
    d_scores_valid += d_lov_probs[:m]
    # Free the other buffer before a dense (V, C) gradient exists, so at
    # most two such arrays are alive at once.
    del logp, d_lov_probs, scratch

    total = ce_w * ce + lov_w * lov
    probs[m] = 0.0
    if m == v:  # every voxel has a row: the rows are the dense form
        return LossBreakdown(total=total, ce=ce, lovasz=lov, d_scores=probs[:m])
    if not dense:
        return LossBreakdown(total=total, ce=ce, lovasz=lov, d_scores=probs,
                             voxels=pred.voxels[valid[pred.voxels]])
    d_scores = np.zeros((v, c))
    d_scores[inside] = d_scores_valid
    return LossBreakdown(total=total, ce=ce, lovasz=lov, d_scores=d_scores)
