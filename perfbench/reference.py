"""Checks of the program's outputs that use none of the program's code.

The score check recomputes, in float64, the documented splat at a seeded
sample of voxels: the sum of exp(-1/2 d' Sigma^-1 d) * semantics over the
gaussians whose 3-sigma box (3 * max scale on every axis) holds the voxel
centre, with Sigma = R diag(s^2) R' built from this file's own quaternion
formula.  The program adds float32 terms, so it may differ from that sum by
float32 rounding of each term (underflow included) and of each partial sum,
and by nothing else.

The gradient check compares one directional finite difference of a loss
with the directional derivative of a gradient.
"""

from __future__ import annotations

import struct

import numpy as np

CUTOFF_SIGMA = 3.0
F32_EPS = 2.0 ** -24
F32_TINY = 2.0 ** -149  # smallest float32 subnormal: a term may underflow by this much


def read_sgau(path):
    """(means, scales, rotations, semantics) of a scene file, as float32."""
    with open(path, "rb") as f:
        data = f.read()
    magic, _, c, p = struct.unpack_from("<4sHHQ", data)
    if magic != b"SGAU":
        raise ValueError(f"{path} is not a scene file")
    rec = np.frombuffer(data, dtype="<f4", offset=16).reshape(p, 10 + c)
    return rec[:, 0:3], rec[:, 3:6], rec[:, 6:10], rec[:, 10:]


def read_svox(path):
    """(geometry, labels, scores or None) of a grid file.

    ``geometry`` is (origin, cell size, dims).
    """
    with open(path, "rb") as f:
        data = f.read()
    head = struct.unpack_from("<4sHHIIIffffffB", data)
    if head[0] != b"SVOX":
        raise ValueError(f"{path} is not a grid file")
    c, dims, origin, cell, kind = head[2], head[3:6], head[6:9], head[9:12], head[12]
    v = dims[0] * dims[1] * dims[2]
    at = struct.calcsize("<4sHHIIIffffffB")
    labels = np.frombuffer(data, dtype=np.uint8, offset=at, count=v)
    scores = None
    if kind == 1:
        scores = np.frombuffer(data, dtype="<f4", offset=at + v).reshape(v, c)
    return (origin, cell, dims), labels, scores


def rotation_matrices(quaternions: np.ndarray) -> np.ndarray:
    """(P, 3, 3) rotations of (w, x, y, z) quaternions, normalized first."""
    q = np.asarray(quaternions, dtype=np.float64)
    w, x, y, z = (q / np.linalg.norm(q, axis=1, keepdims=True)).T
    return np.stack(
        [
            np.stack([w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
            np.stack([2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)], -1),
            np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z], -1),
        ],
        axis=1,
    )


def inverse_covariances(scales: np.ndarray, quaternions: np.ndarray) -> np.ndarray:
    """(P, 3, 3) inverses of Sigma = R diag(s^2) R'."""
    r = rotation_matrices(quaternions)
    s2 = np.asarray(scales, dtype=np.float64) ** 2
    return np.linalg.inv((r * s2[:, None, :]) @ r.transpose(0, 2, 1))


def voxel_centres(geometry, voxels: np.ndarray) -> np.ndarray:
    """Centres of linear voxel indices (i * Y + j) * Z + k, as float64."""
    origin, cell, (_, ny, nz) = geometry
    v = np.asarray(voxels, dtype=np.int64)
    ijk = np.stack([v // (ny * nz), (v // nz) % ny, v % nz], axis=1)
    return np.asarray(origin, dtype=np.float64) + (ijk + 0.5) * np.asarray(cell, dtype=np.float64)


class ReferenceSplat:
    """Float64 3-sigma splat of one scene, evaluated voxel by voxel."""

    def __init__(self, means, scales, rotations, semantics):
        self.means = np.asarray(means, dtype=np.float64)
        self.semantics = np.asarray(semantics, dtype=np.float64)
        self.radii = CUTOFF_SIGMA * np.asarray(scales, dtype=np.float64).max(axis=1)
        self.inv_cov = inverse_covariances(scales, rotations)
        self.order = np.argsort(self.means[:, 0], kind="stable")
        self.sorted_x = self.means[self.order, 0]
        self.max_radius = float(self.radii.max()) if self.radii.size else 0.0

    def contributions(self, centre: np.ndarray):
        """Gaussian indices whose box holds ``centre`` and their (n, C) terms."""
        lo = np.searchsorted(self.sorted_x, centre[0] - self.max_radius, side="left")
        hi = np.searchsorted(self.sorted_x, centre[0] + self.max_radius, side="right")
        cand = self.order[lo:hi]
        d = centre - self.means[cand]
        inside = np.all(np.abs(d) <= self.radii[cand, None], axis=1)
        g, d = cand[inside], d[inside]
        mahalanobis = np.einsum("ni,nij,nj->n", d, self.inv_cov[g], d)
        return g, np.exp(-0.5 * mahalanobis)[:, None] * self.semantics[g]

    def sums(self, geometry, voxels: np.ndarray):
        """Per voxel: reference scores, sum of |terms| and contributor count."""
        c = self.semantics.shape[1]
        out = np.zeros((len(voxels), c))
        mags = np.zeros((len(voxels), c))
        counts = np.zeros(len(voxels), dtype=np.int64)
        for i, centre in enumerate(voxel_centres(geometry, voxels)):
            g, terms = self.contributions(centre)
            out[i] = terms.sum(axis=0)
            mags[i] = np.abs(terms).sum(axis=0)
            counts[i] = g.size
        return out, mags, counts

    def labels(self, geometry) -> np.ndarray:
        """First-argmax label of every voxel; 0 where no gaussian reaches."""
        dims = geometry[2]
        voxels = np.arange(int(np.prod(dims)))
        scores = np.zeros((voxels.size, self.semantics.shape[1]))
        centres = voxel_centres(geometry, voxels)
        for g in range(self.means.shape[0]):
            d = centres - self.means[g]
            inside = np.all(np.abs(d) <= self.radii[g], axis=1)
            d = d[inside]
            m = np.einsum("ni,ij,nj->n", d, self.inv_cov[g], d)
            scores[inside] += np.exp(-0.5 * m)[:, None] * self.semantics[g]
        return np.argmax(scores, axis=1).astype(np.uint8)


def sample_voxels(scores: np.ndarray, rng: np.random.Generator, reached: int = 3000,
                  anywhere: int = 1000) -> np.ndarray:
    """Sorted seeded sample: voxels with nonzero scores, plus voxels drawn anywhere."""
    v = scores.shape[0]
    nonzero = np.flatnonzero(scores.any(axis=1))
    picked = [rng.choice(v, size=min(anywhere, v), replace=False)]
    if nonzero.size:
        picked.append(rng.choice(nonzero, size=min(reached, nonzero.size), replace=False))
    return np.unique(np.concatenate(picked))


def check_splat(ref: ReferenceSplat, geometry, scores: np.ndarray, labels: np.ndarray,
                voxels: np.ndarray) -> list[str]:
    """Faults of a scored grid against the reference at ``voxels``; empty if none."""
    faults = []
    if not np.all(np.isfinite(scores)):
        faults.append("scores hold non-finite values")
    argmax = np.argmax(scores, axis=1)
    wrong = np.flatnonzero(labels != argmax)
    if wrong.size:
        faults.append(f"{wrong.size} labels are not the first argmax of the scores, "
                      f"first at voxel {wrong[0]}")
    want, mags, counts = ref.sums(geometry, voxels)
    got = scores[voxels].astype(np.float64)
    tol = (counts[:, None] + 2) * F32_EPS * mags + counts[:, None] * F32_TINY
    off = np.flatnonzero(np.any(np.abs(got - want) > tol, axis=1))
    if off.size:
        i = off[0]
        faults.append(f"{off.size} of {voxels.size} sampled voxels differ from the reference "
                      f"beyond float32 rounding, first voxel {voxels[i]}: "
                      f"{got[i].tolist()} vs {want[i].tolist()}")
    unreached = voxels[counts == 0]
    if np.any(labels[unreached] != 0):
        faults.append("a voxel no gaussian reaches has a label other than 0")
    return faults


def check_gradient(params: dict, grads: dict, loss_at, rng: np.random.Generator, h: float,
                   tol: float):
    """Central difference of ``loss_at`` along a seeded direction against ``grads``.

    The direction has uniform random magnitudes and the signs of the
    gradient, so its directional derivative is never near zero.  Returns
    ``(relative_error, passed)``.
    """
    direction = {k: rng.random(np.shape(g)) * np.sign(g) for k, g in grads.items()}
    analytic = sum(float(np.sum(grads[k] * direction[k])) for k in grads)
    plus = loss_at({k: params[k] + h * direction[k] for k in grads})
    minus = loss_at({k: params[k] - h * direction[k] for k in grads})
    numeric = (plus - minus) / (2.0 * h)
    rel = abs(numeric - analytic) / max(abs(analytic), 1e-300)
    return rel, bool(np.isfinite(rel) and rel <= tol)
