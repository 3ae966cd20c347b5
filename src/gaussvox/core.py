"""Semantic 3D Gaussian primitives.

A scene primitive is a 3D Gaussian with a per-class semantic vector: mean,
per-axis standard deviations, a unit rotation quaternion (w, x, y, z) and
semantic values, one per class (class 0 is the empty class).  Stored values
are float32; all internal math runs in float64.  ``RowChecks`` holds the
checks a scene's rows must pass, for a scene in memory and for a scene file
read block by block alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRotationError, InvalidScaleError, NonFiniteValueError

QUAT_NORM_EPS = 1e-12


def _rotation_entries(rotation) -> list[list[np.ndarray]]:
    """The rotation matrix entries ``R[i][j]`` of (w, x, y, z) quaternions (..., 4).

    Each entry is an array of shape (...).  Each quaternion is normalized
    internally; a norm of 1e-12 or below raises DegenerateRotationError.
    """
    q = np.asarray(rotation, dtype=np.float64)
    if q.shape[-1:] != (4,):
        raise ValueError(f"rotation must have 4 components, got shape {q.shape}")
    norm = np.sqrt(np.sum(q * q, axis=-1, keepdims=True))
    if np.any(norm <= QUAT_NORM_EPS):
        raise DegenerateRotationError(f"quaternion norm {np.min(norm):.3e} too small")
    w, x, y, z = np.moveaxis(q / norm, -1, 0)
    return [
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ]


def quat_to_rotation(rotation) -> np.ndarray:
    """Convert (w, x, y, z) quaternions, shape (..., 4), to rotation matrices.

    Returns shape (..., 3, 3).  Each quaternion is normalized internally; a
    norm of 1e-12 or below raises DegenerateRotationError.
    """
    return np.moveaxis(np.array(_rotation_entries(rotation)), (0, 1), (-2, -1))


def _rotation_jacobian(q_unit) -> np.ndarray:
    """d(rotation matrix)/d(quaternion) for unit quaternions (..., 4): (..., 4, 3, 3)."""
    w, x, y, z = np.moveaxis(np.asarray(q_unit, dtype=np.float64), -1, 0)
    o = np.zeros_like(w)
    blocks = [
        [[o, -z, y], [z, o, -x], [-y, x, o]],
        [[o, y, z], [y, -2 * x, -w], [z, w, -2 * x]],
        [[-2 * y, x, w], [x, o, z], [-w, z, -2 * y]],
        [[-2 * z, -w, x], [w, -2 * z, y], [x, y, o]],
    ]
    return 2.0 * np.moveaxis(np.array(blocks), (0, 1, 2), (-3, -2, -1))


# A scene's rows are checked this many at a time.
_CHECK_ROWS = 1 << 14
# The checks on a gaussian's fields, in the order that picks the error to
# raise: the first failing gaussian of the first check that fails.
_CHECKS = (
    (NonFiniteValueError, "means must be finite"),
    (NonFiniteValueError, "logits must be finite"),
    (InvalidScaleError, "scale components must be finite and > 0"),
    (DegenerateRotationError, f"quaternion must be finite with norm above {QUAT_NORM_EPS}"),
)


class RowChecks:
    """``GaussianScene``'s checks, over blocks of rows given in ascending order.

    ``add`` records, for each check, the first failing gaussian of a block,
    unless an earlier block had one, and says whether every row so far has
    passed.  ``raise_first`` then raises the error of the first check that
    failed, naming its first failing gaussian, so blocks of any size give
    the error of the whole-scene checks run one after another.
    """

    def __init__(self):
        self.first: list[int | None] = [None] * len(_CHECKS)

    def add(self, start: int, means, scales, rotations, logits) -> bool:
        norms = np.sqrt(np.sum(rotations.astype(np.float64) ** 2, axis=1))
        passed = (
            np.isfinite(means),
            np.isfinite(logits),
            np.isfinite(scales) & (scales > 0),
            np.isfinite(norms) & (norms > QUAT_NORM_EPS),
        )
        for k, ok in enumerate(passed):
            if self.first[k] is None and not ok.all():
                # In C order the first failing entry lies in the first failing row.
                self.first[k] = start + int(np.unravel_index(np.argmin(ok), ok.shape)[0])
        return all(g is None for g in self.first)

    def raise_first(self) -> None:
        for (error, message), g in zip(_CHECKS, self.first):
            if g is not None:
                raise error(message, g)


@dataclass
class GaussianScene:
    """Ordered collection of semantic Gaussians.

    Backed by packed float32 arrays so that splatting and fitting can run
    vectorized.  Every value must be finite, every scale component > 0 and
    every quaternion row must have a norm above 1e-12.  The rows are checked
    ``_CHECK_ROWS`` at a time through ``RowChecks``, so the checks' masks
    and float64 quaternion squares exist for one block only; the error
    raised is that of the first failing check over the whole scene.
    """

    means: np.ndarray  # (P, 3) float32
    scales: np.ndarray  # (P, 3) float32
    rotations: np.ndarray  # (P, 4) float32, unit rows
    logits: np.ndarray  # (P, C) float32

    def __post_init__(self):
        self.means = np.ascontiguousarray(self.means, dtype=np.float32).reshape(-1, 3)
        p = self.means.shape[0]
        self.scales = np.ascontiguousarray(self.scales, dtype=np.float32).reshape(p, 3)
        self.rotations = np.ascontiguousarray(self.rotations, dtype=np.float32).reshape(p, 4)
        self.logits = np.ascontiguousarray(self.logits, dtype=np.float32)
        if self.logits.ndim != 2 or self.logits.shape[0] != p:
            raise ValueError("logits must be (P, C)")
        checks = RowChecks()
        for a in range(0, p, _CHECK_ROWS):
            rows = slice(a, a + _CHECK_ROWS)
            checks.add(a, self.means[rows], self.scales[rows], self.rotations[rows],
                       self.logits[rows])
        checks.raise_first()

    def __len__(self) -> int:
        return self.means.shape[0]

    @property
    def class_count(self) -> int:
        return int(self.logits.shape[1])


def gaussian_weight(mean, scale, rotation, point) -> float:
    """exp(-d_M^2 / 2) from raw parameter vectors, entirely in float64.

    d_M is the Mahalanobis distance under covariance R diag(s^2) R^T; the
    inverse is applied in closed form as R diag(1/s^2) R^T.  This scalar
    form is the independent reference that the batched splat kernel and its
    gradient are checked against.
    """
    m, s, p = (np.asarray(x, dtype=np.float64).reshape(3) for x in (mean, scale, point))
    r = quat_to_rotation(np.asarray(rotation, dtype=np.float64).reshape(4))
    u = r.T @ (p - m)
    return float(np.exp(-0.5 * np.sum((u / s) ** 2)))


def sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)
