"""Voxel grid geometry and dense occupancy grids."""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError

IGNORE_LABEL = 255

# Hard cap on addressable voxels; anything above this is a data error, not a
# workload this package is meant to hold in memory.
MAX_VOXELS = 1 << 34


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned voxel volume: minimum corner, per-axis cell size, dims.

    Voxel (i, j, k) has center origin + ((i, j, k) + 0.5) * cell_size and
    linear index (i * Y + j) * Z + k.
    """

    origin: tuple[float, float, float]
    cell_size: tuple[float, float, float]
    dims: tuple[int, int, int]

    def __post_init__(self):
        origin = tuple(float(v) for v in self.origin)
        cell = tuple(float(v) for v in self.cell_size)
        dims = tuple(int(v) for v in self.dims)
        if len(origin) != 3 or len(cell) != 3 or len(dims) != 3:
            raise ValueError("origin, cell_size and dims must each have 3 entries")
        if not all(map(math.isfinite, origin + cell)) or min(cell) <= 0:
            raise ValueError(f"origin must be finite and cell_size finite and positive, "
                             f"got {origin} and {cell}")
        if any(d <= 0 for d in dims):
            raise ValueError(f"dims must be positive, got {dims}")
        if dims[0] * dims[1] * dims[2] > MAX_VOXELS:
            raise CapacityError(
                f"grid of {dims[0]}x{dims[1]}x{dims[2]} voxels exceeds the "
                f"addressable limit of {MAX_VOXELS}"
            )
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "cell_size", cell)
        object.__setattr__(self, "dims", dims)

    @property
    def num_voxels(self) -> int:
        x, y, z = self.dims
        return x * y * z

    @property
    def upper(self) -> tuple[float, float, float]:
        return tuple(o + d * c for o, c, d in zip(self.origin, self.cell_size, self.dims))

    def axis_centers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Voxel center coordinates along each axis, dims[d] float64 each.

        Entry i of axis d is ``origin[d] + (i + 0.5) * cell_size[d]``, which
        has the bits of that coordinate in ``voxel_centers``.
        """
        return tuple(
            o + (np.arange(d) + 0.5) * c
            for o, c, d in zip(self.origin, self.cell_size, self.dims)
        )

    def voxel_centers(self) -> np.ndarray:
        """World coordinates of every voxel center, (num_voxels, 3) float64.

        Each axis's coordinates, with the ops and bits of ``axis_centers``,
        are broadcast into the one result array, so nothing else of the
        grid's size is allocated.  They are not taken from ``axis_centers``,
        which only the fast splat path reads: the oracle's centers come from
        here.
        """
        centers = np.empty((*self.dims, 3))
        for axis, (o, c, d) in enumerate(zip(self.origin, self.cell_size, self.dims)):
            shape = [1, 1, 1]
            shape[axis] = d
            centers[..., axis] = (o + (np.arange(d) + 0.5) * c).reshape(shape)
        return centers.reshape(-1, 3)

    def point_to_ijk(self, points: np.ndarray) -> np.ndarray:
        """Integer cell coordinates of points under the half-open cell convention."""
        rel = (np.asarray(points, dtype=np.float64) - np.asarray(self.origin)) / np.asarray(
            self.cell_size
        )
        return np.floor(rel).astype(np.int64)


@dataclass
class OccupancyGrid:
    """Dense per-voxel class labels over a GridSpec, optionally with scores.

    ``labels`` holds one uint8 class index per voxel in linear-index order;
    255 marks ignored voxels.  When ``scores`` is present it holds the
    accumulated per-class semantic values (float32) and labels must be its
    per-voxel argmax with lowest-index tie-break.  With ``voxels``, strictly
    ascending voxel ids, the grid is in row form: ``scores`` holds one row
    per listed voxel, and every other voxel's scores are zero.
    """

    spec: GridSpec
    class_count: int
    labels: np.ndarray
    scores: np.ndarray | None = field(default=None)
    voxels: np.ndarray | None = field(default=None)

    def __post_init__(self):
        _check_class_count(self.class_count)
        v = self.spec.num_voxels
        self.labels = np.ascontiguousarray(self.labels, dtype=np.uint8).reshape(-1)
        if self.labels.shape != (v,):
            raise ValueError(f"labels must have {v} entries, got {self.labels.shape}")
        bad = (self.labels != IGNORE_LABEL) & (self.labels >= self.class_count)
        if np.any(bad):
            raise ValueError("labels contain class indices >= class_count")
        if self.voxels is not None:
            ids = self.voxels = np.ascontiguousarray(self.voxels, dtype=np.intp).reshape(-1)
            bad = np.any(np.diff(ids) <= 0) or ids.size and not 0 <= ids[0] <= ids[-1] < v
            if self.scores is None or bad:
                raise ValueError(f"voxels must be strictly ascending ids below {v}, with scores")
            v = ids.size
        if self.scores is not None:
            self.scores = np.ascontiguousarray(self.scores, dtype=np.float32)
            if self.scores.shape != (v, self.class_count):
                raise ValueError(
                    f"scores must be ({v}, {self.class_count}), got {self.scores.shape}"
                )


@dataclass
class GridChunks:
    """A dense grid as a stream of chunks of consecutive voxels, for writing.

    ``chunks`` yields ``(labels, scores)`` per chunk, in voxel order: (n,)
    uint8 labels and (n, C) float32 scores, and covers every voxel once.  A
    chunk may reuse the previous one's buffer, so each is used before the
    next is asked for.  With ``scores`` False a writer keeps the labels only.
    """

    spec: GridSpec
    class_count: int
    chunks: Iterator[tuple[np.ndarray, np.ndarray]]
    scores: bool = True

    def __post_init__(self):
        _check_class_count(self.class_count)


def _check_class_count(class_count: int) -> None:
    if not (1 <= class_count <= 255):
        raise ValueError(f"class_count must be in [1, 255], got {class_count}")


def grids_compatible(a: OccupancyGrid, b: OccupancyGrid) -> bool:
    return a.spec == b.spec and a.class_count == b.class_count
