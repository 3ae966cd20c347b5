"""Float64 reference for ``backward_splat``: every pair walked, every sum correctly rounded.

For each gaussian it takes the voxels whose centers lie in the gaussian's
cutoff box, or every voxel in exact mode, as the tests' brute-force pair
set does, and each pair's ``w, z`` from ``pair_weights``.  The moments
``s_z``, ``s_zz`` and ``d_sem`` are ``math.fsum`` sums over those pairs,
so each is the correctly rounded sum of its float64 terms.  ``frames_vjp``
and the activation chain then give the gradients as ``backward_splat``
does.  Only ``pair_weights`` and ``frames_vjp`` are shared with the fast
path: the frames, the activations and the pair set are built here.

``gradient_bound`` says how far a float64 backward pass may lie from the
reference, entry by entry, whatever order it adds its terms in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gaussvox.splat import frames_vjp, pair_weights

KEYS = ("means", "raw_scales", "rotations", "raw_logits")
# Above ``n eps sum|terms|``, the chain after the moments may round each
# gradient entry by this much of its column's largest magnitude.
REL = 1e-13


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _softmax(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _frames(means, scales, rotations):
    """``a[i, j] = R[i, j] / s[j]`` (3, 3, P) and ``off[j] = sum_i m[i] a[i, j]`` (3, P)."""
    w, x, y, z = (rotations / np.linalg.norm(rotations, axis=1, keepdims=True)).T
    rot = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])
    a = rot / scales.T[None]
    return a, np.sum(means.T[:, None] * a, axis=0)


@dataclass
class Reference:
    """The reference gradients and what ``gradient_bound`` needs of the pass.

    ``pairs`` (P,) counts each gaussian's pairs, and ``terms`` (P, 12 + C)
    holds, per moment column in ``pair_weights_vjp``'s order, the sum of
    its terms' magnitudes, each weight ``c = w * sum d * sem`` taken as
    ``w * sum |d * sem|``.  ``response`` maps each moment column to the
    magnitudes of the gradients that a unit change of it makes, per key.
    """

    grads: dict
    pairs: np.ndarray
    terms: np.ndarray
    response: list


def reference_backward(params, scene, spec, cutoff, d_scores, s_min, s_max, voxels=None):
    """The gradients of ``backward_splat(params, index, spec, d_scores, s_min, s_max, voxels)``
    for the index ``build_splat_index(scene, spec, cutoff)``, from the pairs alone."""
    p, c = params.raw_logits.shape
    dense = np.zeros((spec.num_voxels, c))
    dense[slice(None) if voxels is None else voxels] = d_scores
    sig = _sigmoid(params.raw_scales)
    span = s_max - s_min
    scales = s_min + sig * span
    sem = _softmax(params.raw_logits)
    a, off = _frames(params.means, scales, params.rotations)
    centers = spec.voxel_centers()
    moments, terms = np.zeros((p, 12 + c)), np.zeros((p, 12 + c))
    pairs = np.zeros(p, dtype=np.int64)
    for g in range(p):
        if cutoff is None:
            vox = np.arange(spec.num_voxels)
        else:
            r = cutoff * float(scene.scales[g].max())
            inside = np.all(np.abs(centers - scene.means[g].astype(np.float64)) <= r, axis=1)
            vox = np.flatnonzero(inside)
        pairs[g] = vox.size
        w, z = pair_weights(a[..., g], off[:, g], np.ascontiguousarray(centers[vox].T))
        d = dense[vox]
        cw = w * np.sum(d * sem[g], axis=1)
        mag = w * np.sum(np.abs(d * sem[g]), axis=1)
        columns = [(cw * z[j], mag * np.abs(z[j])) for j in range(3)]
        columns += [(cw * z[i] * z[j], mag * np.abs(z[i] * z[j]))
                    for i in range(3) for j in range(3)]
        columns += [(w * d[:, cls], w * np.abs(d[:, cls])) for cls in range(c)]
        for col, (term, size) in enumerate(columns):
            moments[g, col] = math.fsum(term)
            terms[g, col] = math.fsum(size)

    def chain(s_z, s_zz, d_sem):
        d_mean, d_scale, d_quat = frames_vjp(scales, params.rotations, s_z, s_zz)
        return {
            "means": d_mean,
            "raw_scales": d_scale * sig * (1.0 - sig) * span,
            "rotations": d_quat,
            "raw_logits": sem * (d_sem - np.sum(d_sem * sem, axis=1, keepdims=True)),
        }

    def split(m):
        return m[:, :3], m[:, 3:12].reshape(-1, 3, 3), m[:, 12:]

    response = []
    for col in range(12 + c):
        unit = np.zeros((p, 12 + c))
        unit[:, col] = 1.0
        response.append({key: np.abs(grad) for key, grad in chain(*split(unit)).items()})
    return Reference(chain(*split(moments)), pairs, terms, response)


def gradient_bound(ref: Reference, rel: float = REL) -> dict:
    """Per key, the (P, width) bound on a float64 pass's distance from the reference.

    Each moment of a gaussian of n pairs, summed in any order, lies within
    ``n eps sum|terms|`` of its correctly rounded sum; each gradient entry
    moves by that times its response to the moment, summed over the
    moments.  ``rel`` times the largest magnitude of the entry's column
    adds the rounding of the chain after the moments.
    """
    eps = np.finfo(np.float64).eps
    scale = eps * ref.pairs[:, None] * ref.terms
    bound = {}
    for key in KEYS:
        moved = sum(scale[:, col, None] * resp[key] for col, resp in enumerate(ref.response))
        bound[key] = moved + rel * np.abs(ref.grads[key]).max(axis=0)
    return bound
