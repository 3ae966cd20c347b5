"""Gaussian-to-voxel splatting.

The fast path embeds each Gaussian into the grid as the box of voxels
inside its cutoff neighborhood, and accumulates per-voxel semantic scores
from the neighboring Gaussians only.  ``splat_oracle`` is the exact
O(voxels * P) reference, a plain loop over the gaussians and every voxel
center that shares only the frames and the kernel with it.  One
elementwise kernel, ``pair_weights``, computes every pair weight, so a pair
has the same bits in every path, the backward pass included.

Accumulation is float32 in ascending gaussian index per voxel; this order is
part of the contract so results are reproducible across runs and block, run
and slab sizes.  Both passes split the gaussians into the same ascending
runs by box size.  ``_box_blocks`` walks a large box, a dense block of the
grid, in blocks of whole x-layers that are added to, or read from, a view
of the scores.  ``_pair_runs`` writes the other boxes' pairs, clipped to
one range of x-layers, in runs of whole gaussians.  A box's C-order is its
pair order, and both paths add each per-gaussian sum in that order from
+0.0, so no result depends on a gaussian's path.

The forward pass cuts the grid along x one way only, into slabs of whole
x-layers of about ``_SLAB_BYTES`` of scores, a block that stays in cache
while pairs are scattered into it.  Slab by slab, it takes every run in
ascending order, clipped to the slab, and builds the kernel's float64 frames
for the slab's gaussians only, never for the whole scene.  A run's products
are formed one class at a time, and a run is released before the next is
built.  ``splat`` adds each slab in place in its dense (V, C) scores, or,
in the row form that ``fit`` runs, into one score row per voxel of the
boxes, reached through a (V,) row map; so it holds the scene, the index,
the scores and little else.  ``splat_chunks``, from which the CLI writes
its grid file, adds each slab into one slab's buffer, which it yields and
then reuses, and it can take a scene file in place of the scene: the
index's pass reads and checks every record, and each few slabs read the
rows of the gaussians that meet them.  The index is found in blocks of
gaussians and stored as int32 box ends.  The backward pass takes the pairs
over the whole grid, and ``fit`` gives it one gradient row per score row.
Every pass runs on the calling thread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GaussianScene, _rotation_entries, _rotation_jacobian, quat_to_rotation
from .errors import CapacityError
from .grid import GridChunks, GridSpec, OccupancyGrid, _check_class_count

DEFAULT_CUTOFF_SIGMA = 3.0
# The index finds the boxes of this many gaussians at a time, and a streamed
# splat of a scene file gathers the rows of about this many at a time.
_INDEX_CHUNK = 1 << 14
# The index stores box ends as int32, so no axis may have more voxels.
_MAX_AXIS = np.iinfo(np.int32).max
# frames_vjp takes this many gaussians at a time.
_VJP_GAUSSIANS = 1 << 12

# Cap on a scene's (gaussian, voxel) pairs.  Pairs exist only one run at a
# time, so this bounds the work of a pass over the index, not its memory.
MAX_PAIRS = 1 << 33
# Cap on the dense per-voxel arrays of a splat, such as its V * C * 4 bytes
# of float32 scores, checked before they are allocated.
MAX_SCORE_BYTES = 1 << 32


@dataclass
class SplatIndex:
    """Each gaussian's neighborhood as a box of voxels, in gaussian order.

    Gaussian g's box starts at voxel ``lo[g]`` and spans ``counts[g]``
    voxels per axis, both int32, since no axis may reach 2^31 voxels; a box
    that misses the grid has all counts zero.  ``gaussian_starts`` is the
    running pair count, int64, so gaussian g owns pairs
    ``gaussian_starts[g] : gaussian_starts[g + 1]``.  Voxel ids, box sizes
    and pair counts are formed in int64 from the int32 entries.  No pair
    list is held: the passes walk the boxes, and ``_pair_runs`` writes a
    range's pairs run by run.
    """

    spec: GridSpec
    lo: np.ndarray
    counts: np.ndarray
    gaussian_starts: np.ndarray

    @property
    def num_gaussians(self) -> int:
        return self.lo.shape[0]

    @property
    def num_voxels(self) -> int:
        return self.spec.num_voxels

    @property
    def pair_count(self) -> int:
        return int(self.gaussian_starts[-1])

    def _box_counts(self) -> np.ndarray:
        """How many boxes hold each voxel, an (X, Y, Z) int64 view.

        Each box adds +1 and -1 at its eight corners, by the parity of its
        upper ends, in a grid one larger per axis; running sums along the
        three axes then count, at each voxel, the boxes that hold it.  So the
        cost follows the number of boxes and of voxels, not of pairs.
        """
        x_dim, y_dim, z_dim = self.spec.dims
        hit = self.counts[:, 0] > 0
        lo = self.lo[hit]
        ends = np.stack([lo, lo + self.counts[hit]], dtype=np.int64)
        ends *= np.array([(y_dim + 1) * (z_dim + 1), z_dim + 1, 1])
        x, y, z = ends[..., 0], ends[..., 1], ends[..., 2]
        # Corner (a, b, c) of the ends is row 4a + 2b + c; rows 0, 3, 5 and
        # 6 have an even count of upper ends.
        corners = (x[:, None, None] + y[None, :, None] + z[None, None, :]).reshape(8, -1)
        size = (x_dim + 1) * (y_dim + 1) * (z_dim + 1)
        counts = np.bincount(corners[[0, 3, 5, 6]].ravel(), minlength=size)
        counts -= np.bincount(corners[[1, 2, 4, 7]].ravel(), minlength=size)
        counts = counts.reshape(x_dim + 1, y_dim + 1, z_dim + 1)
        for axis in range(3):
            np.cumsum(counts, axis=axis, out=counts)
        return counts[:x_dim, :y_dim, :z_dim]

    @property
    def voxel_starts(self) -> np.ndarray:
        """Running pair count per voxel; its ``np.diff`` is each voxel's gaussian count."""
        starts = np.zeros(self.num_voxels + 1, dtype=np.int64)
        np.cumsum(self._box_counts(), out=starts[1:])
        return starts

    @property
    def covered(self) -> np.ndarray:
        """(V,) bool: whether each voxel lies in at least one box.

        A splat leaves every other voxel with all-zero scores, and the
        backward pass reads the score gradient at these voxels only.
        """
        return (self._box_counts() > 0).reshape(-1)


def _cutoff(cutoff_sigma: float | None) -> float:
    """The cutoff in sigmas, ``inf`` for exact mode (``None``); ValueError unless > 0."""
    if cutoff_sigma is None:
        return np.inf
    if not cutoff_sigma > 0:
        raise ValueError(f"cutoff_sigma must be > 0, got {cutoff_sigma}")
    return cutoff_sigma


def _cutoff_radii(scales: np.ndarray, cutoff_sigma: float | None):
    """Half-extents (k, 3) of the axis-aligned cutoff boxes of gaussians of ``scales`` (k, 3).

    The box cutoff_sigma * max(scale) per axis contains the ellipsoid of
    Mahalanobis distance <= cutoff_sigma for any rotation.  ``None`` is
    exact mode: an infinite radius, whose box is the whole grid.
    """
    r = _cutoff(cutoff_sigma) * scales.astype(np.float64).max(axis=1)
    return np.repeat(r[:, None], 3, axis=1)


def _axis_ranges(means: np.ndarray, radii: np.ndarray, spec: GridSpec):
    """Per-axis voxel ranges of each gaussian's cutoff box, clipped to the grid.

    Voxel i lies in the box along an axis when its center passes the
    float64 test ``abs(origin + (i + 0.5) * cell - m) <= r``.  The range
    ends are estimated in closed form, clipped in float to [-2, dims + 1] so
    that far-away means cannot overflow the int64 cast, and then moved by at
    most one step onto that test, whose passing indices form an interval.
    Returns the first voxel (P, 3) and the voxel count (P, 3) per axis;
    a gaussian whose box misses the grid has all three counts zero.
    """
    origin = np.asarray(spec.origin)
    cell = np.asarray(spec.cell_size)
    dims = np.asarray(spec.dims, dtype=np.int64)

    def offset(i):
        return origin + (i + 0.5) * cell - means

    lo = np.clip(np.ceil((means - radii - origin) / cell - 0.5), -2, dims + 1).astype(np.int64)
    hi = np.clip(np.floor((means + radii - origin) / cell - 0.5), -2, dims + 1).astype(np.int64)
    # Passing voxels have offset >= -r from lo on and offset <= r up to hi;
    # rounding can leave an estimate one voxel off either way.
    lo += offset(lo) < -radii
    lo -= offset(lo - 1) >= -radii
    hi -= offset(hi) > radii
    hi += offset(hi + 1) <= radii

    # A box that starts past the grid keeps a count of zero at lo = dims.
    lo = np.clip(lo, 0, dims)
    counts = np.maximum(np.minimum(hi, dims - 1) - lo + 1, 0)
    counts[np.any(counts == 0, axis=1)] = 0
    return lo, counts


def _box_lines(lo: np.ndarray, counts: np.ndarray):
    """The (gaussian, i, j) lines of a run of boxes, in (gaussian, i, j) order.

    ``lo`` and ``counts`` come from ``_axis_ranges``, and are widened to
    int64.  Returns each line's voxel indices i and j and its length, the
    ``counts[g, 2]`` z-voxels from ``lo[g, 2]``, and the z-index k of each
    pair of the lines in turn.
    """
    lo, counts = lo.astype(np.int64, copy=False), counts.astype(np.int64, copy=False)
    lines = counts[:, 0] * counts[:, 1]
    g = np.repeat(np.arange(lo.shape[0]), lines)
    line = np.arange(g.size) - np.repeat(np.cumsum(lines) - lines, lines)
    ny = counts[g, 1]
    di = line // ny
    run = counts[g, 2]
    k = np.arange(run.sum()) + np.repeat(lo[g, 2] - (np.cumsum(run) - run), run)
    return lo[g, 0] + di, lo[g, 1] + line - di * ny, run, k


def _geometry(scene):
    """Yield ``a, means, scales`` of the gaussians in blocks, from gaussian a on.

    An in-memory scene gives row slices of ``_INDEX_CHUNK`` gaussians; any
    other scene, such as ``sceneio.SceneFile``, gives the blocks of its
    ``geometry()``.
    """
    if not isinstance(scene, GaussianScene):
        yield from scene.geometry()
        return
    for a in range(0, len(scene), _INDEX_CHUNK):
        rows = slice(a, a + _INDEX_CHUNK)
        yield a, scene.means[rows], scene.scales[rows]


def build_splat_index(
    scene,
    spec: GridSpec,
    cutoff_sigma: float | None = DEFAULT_CUTOFF_SIGMA,
    threads: int = 1,
) -> SplatIndex:
    """Find each gaussian's neighborhood box and count its pairs.

    Gaussian g pairs with the voxels whose centers lie in its box of
    half-width ``cutoff_sigma * max(scale)`` per axis.  ``cutoff_sigma=None``
    selects exact mode: every box is the whole grid, so every gaussian pairs
    with every voxel and the fast splat is bitwise equal to the brute-force
    oracle.  The per-axis ranges are exact, so the pair total is known, and
    checked against ``MAX_PAIRS``, before any pair is written.  ``threads``
    is accepted for the callers that pass a thread count; every pass runs on
    the calling thread, so it changes neither the result nor the speed.
    The boxes are found a block of gaussians at a time and written into the
    index's own arrays, so no other array grows with the scene.  ``scene``
    is a ``GaussianScene``, taken ``_INDEX_CHUNK`` rows at a time, or an
    open ``sceneio.SceneFile``, whose records are read, checked and indexed
    in one pass, a block at a time, and raise its first fault once read.
    The box ends are int32, so a grid with an axis of 2^31 or more voxels
    is a CapacityError, raised before anything is allocated.  Such a grid
    has more voxels than ``MAX_SCORE_BYTES`` lets a splat hold scores for.
    """
    if max(spec.dims) > _MAX_AXIS:
        raise CapacityError(f"an axis of {max(spec.dims)} voxels exceeds the index's "
                            f"limit of {_MAX_AXIS}")
    _cutoff(cutoff_sigma)  # checked before any block, so an empty scene's is checked too
    p = len(scene)
    lo, counts = np.empty((2, p, 3), dtype=np.int32)
    gaussian_starts = np.zeros(p + 1, dtype=np.int64)
    for a, means, scales in _geometry(scene):
        b = a + len(means)
        box_lo, box_counts = _axis_ranges(means.astype(np.float64),
                                          _cutoff_radii(scales, cutoff_sigma), spec)
        lo[a:b], counts[a:b] = box_lo, box_counts
        x, y, z = box_counts.T
        gaussian_starts[a + 1 : b + 1] = x * y * z
    # Summed in float64, which cannot wrap around as an int64 sum could.
    total = gaussian_starts.sum(dtype=np.float64)
    if total > MAX_PAIRS:
        raise CapacityError(f"{total:.0f} (gaussian, voxel) pairs exceed {MAX_PAIRS}")
    np.cumsum(gaussian_starts, out=gaussian_starts)
    return SplatIndex(spec, lo, counts, gaussian_starts)


def gaussian_frames(means, scales, rotations):
    """Geometry of the pair kernel for P gaussians, in float64.

    Returns ``a[i, j] = R[i, j] / s[j]`` and ``off[j] = sum_i m[i] * a[i, j]``
    for each gaussian, coordinate-major, shaped (3, 3, P) and (3, P), so
    that they broadcast against voxel coordinates.
    """
    m = np.asarray(means, dtype=np.float64)
    s = np.asarray(scales, dtype=np.float64)
    rot = _rotation_entries(rotations)
    a = np.empty((3, 3, s.shape[0]))
    for i in range(3):
        for j in range(3):
            np.divide(rot[i][j], s[:, j], out=a[i, j])
    return a, m[:, 0] * a[0] + m[:, 1] * a[1] + m[:, 2] * a[2]


def pair_weights(a: np.ndarray, off: np.ndarray, pts: np.ndarray):
    """Weights of gaussian-voxel pairs and the pairs' local coordinates.

    ``a`` (3, 3, ...) and ``off`` (3, ...) come from ``gaussian_frames``,
    ``pts`` holds the x, y and z coordinates of voxel centers, as a (3, ...)
    array or as three arrays; the trailing axes broadcast.  A pair list
    passes equal trailing shapes, the oracle passes one gaussian's (3, 3)
    geometry against (V,) points, and a block of one gaussian's box passes
    it against (nx, 1, 1), (1, ny, 1) and (nz,) axis coordinates.

    Returns ``w = exp(-|z|^2 / 2)`` and ``z = R^T (p - m) / s``, computed as
    ``p . a - off``, shaped (...) and (3, ...).  Only elementwise ufuncs are
    used, so a pair's bits do not depend on the other pairs in the call, nor
    on whether its coordinates were broadcast.
    """
    shape = np.broadcast_shapes(a.shape[2:], off.shape[1:], *(p.shape for p in pts))
    z = np.empty((3, *shape))
    t = np.empty(shape)
    for j in range(3):
        np.multiply(pts[0], a[0, j], out=z[j])
        z[j] += np.multiply(pts[1], a[1, j], out=t)
        z[j] += np.multiply(pts[2], a[2, j], out=t)
        z[j] -= off[j]
    # Summed as (z0^2 + z2^2) + z1^2, the association of the einsum reduction
    # that earlier versions used, so that written grids keep their bytes.
    w = np.multiply(z[0], z[0])
    w += np.multiply(z[2], z[2], out=t)
    w += np.multiply(z[1], z[1], out=t)
    w *= -0.5
    np.exp(w, out=w)
    return w, z


def pair_weights_vjp(g: np.ndarray, k: int, w: np.ndarray, z: np.ndarray, d_w: np.ndarray):
    """Pull per-pair weight cotangents ``d_w`` back to per-gaussian moments.

    ``g`` holds each pair's gaussian in 0..k-1; ``w, z`` come from
    ``pair_weights``.  With ``c = d_w * w`` the moments are ``sum c z``
    (k, 3) and ``sum c z z^T`` (k, 3, 3), summed over each gaussian's pairs
    in pair order.  ``frames_vjp`` turns them into parameter gradients.
    """
    cz = d_w * w * z
    s_z = np.stack([np.bincount(g, cz[j], minlength=k) for j in range(3)], axis=1)
    s_zz = np.empty((k, 3, 3))
    for i in range(3):
        for j in range(i, 3):
            s_zz[:, i, j] = s_zz[:, j, i] = np.bincount(g, cz[i] * z[j], minlength=k)
    return s_z, s_zz


def frames_vjp(scales, rotations, s_z: np.ndarray, s_zz: np.ndarray):
    """Gradients w.r.t. mean, scale and quaternion from the pair moments.

    ``scales`` (P, 3) and ``rotations`` (P, 4) are the parameters the frames
    were built from.  Since dw/dz = -w z and z = R^T (p - m) / s, the
    weight's gradients are ``R (z / s)`` for the mean, ``z^2 / s`` for the
    scale, and for the rotation ``-(p - m) (z / s)^T`` with
    ``p - m = R diag(s) z``.  The quaternion gradient is projected onto the
    tangent of the unit sphere, matching derivatives taken through
    renormalization.  Gaussians are taken ``_VJP_GAUSSIANS`` at a time, so
    the rotations and their (n, 4, 3, 3) Jacobian exist for one block only;
    each gaussian's gradients come from its own entries alone, in an order
    that does not depend on the block's size.
    """
    scales = np.asarray(scales, dtype=np.float64)
    rotations = np.asarray(rotations, dtype=np.float64)
    p = scales.shape[0]
    d_mean, d_scale, d_quat = np.empty((p, 3)), np.empty((p, 3)), np.empty((p, 4))
    for a in range(0, p, _VJP_GAUSSIANS):
        b = min(a + _VJP_GAUSSIANS, p)
        s, q, zz = scales[a:b], rotations[a:b], s_zz[a:b]
        q = q / np.sqrt(np.sum(q * q, axis=1, keepdims=True))
        rot = quat_to_rotation(q)
        # Each contraction adds its products to +0.0 in a fixed order, so a
        # gaussian's bits do not depend on the size of its block.
        z_s = s_z[a:b] / s
        dm = np.zeros((b - a, 3))
        d_rot = np.zeros((b - a, 3, 3))
        for l in range(3):
            dm += rot[:, :, l] * z_s[:, None, l]
            d_rot += (rot[:, :, l, None] * s[:, None, l, None]) * zz[:, None, l, :]
        d_mean[a:b] = dm
        d_scale[a:b] = np.diagonal(zz, axis1=1, axis2=2) / s
        d_rot = -d_rot / s[:, None, :]
        # dR/dq against d_rot, row by row: each row's three products are
        # summed left to right, then added.
        jac = _rotation_jacobian(q)
        dq = np.zeros((b - a, 4))
        for i in range(3):
            row = [jac[:, :, i, j] * d_rot[:, None, i, j] for j in range(3)]
            dq += (row[0] + row[1]) + row[2]
        dq -= np.sum(dq * q, axis=1, keepdims=True) * q
        d_quat[a:b] = dq
    return d_mean, d_scale, d_quat


# Pairs are written in runs of whole gaussians of about _SLAB_PAIRS pairs,
# and a box in blocks of at most that many.  The forward pass adds its
# scores one slab of whole x-layers at a time, about _SLAB_BYTES of them, a
# contiguous block that stays in L2 while its pairs are scattered into it.
# Gaussians are spread over the whole volume, so scattering pairs in
# gaussian order across the whole score array misses the cache on most
# adds.  A streamed splat holds one slab of scores, and a large box is cut
# into blocks at each slab's ends.
_SLAB_BYTES = 1 << 21
_SLAB_PAIRS = 1 << 14
# A gaussian of more than _BOX_PAIRS pairs is read as its box, a dense block
# of the grid, by both passes.  Per pair the box path costs a half to a third
# of a pair run, but about 120 us of fixed cost per gaussian, so both passes
# broke even on cubic boxes of 1,000-2,000 pairs on 32^3 grids.
_BOX_PAIRS = 1 << 11


def _gaussian_chunks(starts: np.ndarray):
    """Split gaussians into runs [a, b) of at most ``_SLAB_PAIRS`` pairs.

    ``starts`` is the running pair count.  A gaussian is never split; one
    with more pairs forms a run of its own.
    """
    a, n = 0, starts.size - 1
    while a < n:
        b = int(np.searchsorted(starts, starts[a] + _SLAB_PAIRS, side="right")) - 1
        b = min(max(b, a + 1), n)
        yield a, b
        a = b


def _pair_runs(frames_of, index: SplatIndex, g_lo: int, g_hi: int, x_range=None):
    """Yield the pairs of gaussians [g_lo, g_hi) in the x-layers ``x_range``, run by run.

    Each box is clipped to the layers [x0, x1) of ``x_range = (x0, x1)``,
    by default the whole grid, and the pairs come in runs of whole
    gaussians, ascending, of at most ``_SLAB_PAIRS`` pairs.
    ``frames_of(ids)`` gives the ``gaussian_frames`` of gaussians ``ids``;
    it is asked once, for the gaussians with pairs in the range only.  Each
    item is ``ids, counts, vox, w, z``: the run's gaussians, the pair count
    of each, and per pair its voxel, counted from the range's first voxel,
    and the kernel's ``w, z``, in (gaussian, voxel) order.  Pair points
    come from the per-axis center tables, which have the bits of
    ``voxel_centers``.
    """
    spec = index.spec
    cx, cy, cz = spec.axis_centers()
    lo = index.lo[g_lo:g_hi]
    counts = index.counts[g_lo:g_hi]
    x_lo, x_n = lo[:, 0], counts[:, 0]
    x0, x1 = (0, spec.dims[0]) if x_range is None else x_range
    # A box that misses the grid has counts of zero, but may keep its lo in the range.
    gs = np.flatnonzero((x_n > 0) & (x_lo < x1) & (x_n > x0 - x_lo))
    if gs.size == 0:
        return
    box_lo = lo[gs]
    box_counts = counts[gs]
    x_hi = box_lo[:, 0] + box_counts[:, 0]
    box_lo[:, 0] = np.maximum(box_lo[:, 0], x0)
    box_counts[:, 0] = np.minimum(x_hi, x1) - box_lo[:, 0]
    box_lo[:, 0] -= x0
    starts = np.zeros(gs.size + 1, dtype=np.int64)
    np.cumsum(box_counts[:, 0].astype(np.int64) * box_counts[:, 1] * box_counts[:, 2],
              out=starts[1:])
    ids = g_lo + gs
    frames = frames_of(ids)
    for a, b in _gaussian_chunks(starts):
        per_gaussian = np.diff(starts[a : b + 1])
        # Built by a call and yielded unbound, so that nothing of this run
        # is held here while the next one is built.
        yield ids[a:b], per_gaussian, *_run_pairs(
            (frames[0][..., a:b], frames[1][:, a:b]), box_lo[a:b], box_counts[a:b], per_gaussian,
            (cx[x0:x1], cy, cz), spec.dims)


def _run_pairs(frames, box_lo, box_counts, per_gaussian, axes, dims):
    """The voxels and the kernel's ``w, z`` of one run of ``_pair_runs``' clipped boxes.

    ``frames`` are the run's gaussians' frames, ``axes`` the center tables
    of the range's x-layers and of the grid's y and z.  Voxels are counted
    from the range's first, in (gaussian, voxel) order.
    """
    _, y_dim, z_dim = dims
    xc, cy, cz = axes
    i, j, run, k = _box_lines(box_lo, box_counts)
    vox = k + np.repeat((i * y_dim + j) * z_dim, run)
    pts = np.stack([np.repeat(xc[i], run), np.repeat(cy[j], run), cz[k]])
    w, z = pair_weights(
        np.repeat(frames[0], per_gaussian, axis=-1),
        np.repeat(frames[1], per_gaussian, axis=-1),
        pts,
    )
    return vox, w, z


def _box_blocks(frame, index: SplatIndex, axes, g: int, x_range=None):
    """Yield gaussian g's box, clipped to the x-layers ``x_range``, in blocks.

    ``frame`` is g's ``gaussian_frames``, shaped (3, 3) and (3,), and
    ``axes`` are the grid's per-axis center tables, and ``x_range`` is
    ``(start, stop)``, by default the whole grid.  Blocks are whole
    x-layers, ascending, at most ``_SLAB_PAIRS`` pairs and at least one
    layer.  Each item is the block's (x, y, z) slices of the grid, with x
    counted from ``start``, and its ``w, z`` from ``pair_weights`` against
    the broadcast (nx, 1, 1), (1, ny, 1) and (nz,) axis centers.
    """
    cx, cy, cz = axes
    (x_lo, y_lo, z_lo), (nx, ny, nz) = index.lo[g].tolist(), index.counts[g].tolist()
    ys, zs = slice(y_lo, y_lo + ny), slice(z_lo, z_lo + nz)
    pts_y, pts_z = cy[ys, None], cz[zs]
    a, off = frame
    start, stop = (0, index.spec.dims[0]) if x_range is None else x_range
    x_end = min(x_lo + nx, stop)
    layers = max(1, _SLAB_PAIRS // (ny * nz))
    for x0 in range(max(x_lo, start), x_end, layers):
        x1 = min(x0 + layers, x_end)
        w, z = pair_weights(a, off, (cx[x0:x1, None, None], pts_y, pts_z))
        yield (slice(x0 - start, x1 - start), ys, zs), w, z


def _box_sums(frames, index: SplatIndex, axes, d_scores: np.ndarray, row_grid, sem: np.ndarray,
              g: int):
    """Gaussian g's ``s_z`` (3,), ``s_zz`` (3, 3) and ``d_sem`` (C,), read from its box.

    ``d_scores`` holds the score cotangent rows and ``sem`` the gaussian's C
    semantics.  ``row_grid`` is the (X, Y, Z) view of the row map, through
    which each block gathers its rows, or None when row v is voxel v and a
    block is a view of the rows.  Each sum is added sequentially in pair
    order from +0.0, carried across blocks, so it has the bits of the pair
    path's ``np.bincount`` sums.
    """
    c = sem.size
    d_grid = d_scores.reshape(*index.spec.dims, c) if row_grid is None else None
    # One row per sum: c z (3), c z_i z_j for i <= j (6), w * d_score (C).
    upper = np.triu_indices(3)
    sums = np.zeros(9 + c)
    terms = None
    for block, w, z in _box_blocks((frames[0][..., g], frames[1][:, g]), index, axes, g):
        gup = d_grid[block] if row_grid is None else d_scores[row_grid[block]]
        d_w = gup[..., 0] * sem[0]
        for cls in range(1, c):
            d_w += gup[..., cls] * sem[cls]
        d_w *= w
        n = w.size
        if terms is None:
            # The first block is the largest.
            terms = np.empty((9 + c, n))
        rows = terms[:, :n].reshape(9 + c, *w.shape)
        for j in range(3):
            np.multiply(d_w, z[j], out=rows[j])
        for row, (i, j) in enumerate(zip(*upper), start=3):
            np.multiply(rows[i], z[j], out=rows[row])
        for cls in range(c):
            np.multiply(w, gup[..., cls], out=rows[9 + cls])
        rows = terms[:, :n]
        rows[:, 0] += sums
        np.cumsum(rows, axis=1, out=rows)
        sums = rows[:, -1].copy()
    s_zz = np.empty((3, 3))
    s_zz[upper] = s_zz[upper[::-1]] = sums[3:9]
    return sums[:3], s_zz, sums[9:]


def _path_runs(index: SplatIndex):
    """Ascending runs ``(a, b, box)`` of gaussians; ``box``: over ``_BOX_PAIRS`` pairs each."""
    box = np.diff(index.gaussian_starts) > _BOX_PAIRS
    cuts = [0, *(np.flatnonzero(box[1:] != box[:-1]) + 1).tolist(), box.size]
    return [(a, b, bool(box[a])) for a, b in zip(cuts[:-1], cuts[1:]) if a < b]


def _row_map(voxels: np.ndarray, v: int) -> np.ndarray:
    """(V,) row of each voxel: its place in the ascending ``voxels``, else
    ``voxels.size``, past the last row, so that reading it raises IndexError."""
    row_of = np.full(v, voxels.size, dtype=np.intp)
    row_of[voxels] = np.arange(voxels.size)
    return row_of


def _pair_moments(frames, index: SplatIndex, d_scores: np.ndarray, sem: np.ndarray, voxels):
    """Every gaussian's pair moments and semantic cotangents.

    ``d_scores`` holds the score cotangent rows and ``sem`` (P, C) the
    semantics.  Row i is voxel ``voxels[i]``, ascending, and every voxel of
    the index's boxes has a row; ``None`` means row v is voxel v.  Returns
    ``s_z`` (P, 3) and ``s_zz`` (P, 3, 3), the moments that
    ``pair_weights_vjp`` defines, and ``d_sem`` (P, C), the sum of
    ``w * d_scores`` over each gaussian's pairs.  Box runs are read by
    ``_box_sums`` in blocks, each gathered through the (V,) row map; when
    ``voxels`` is None a block is a view of the rows.  In the others each
    gaussian's pairs lie in one run, read class-major through the row map
    and summed by ``np.bincount`` in pair order; each class's semantics are
    repeated over the run's pairs in turn, so no (C, pairs) copy is made.
    """
    p, c = sem.shape
    dims, v = index.spec.dims, index.num_voxels
    s_z = np.zeros((p, 3))
    s_zz = np.zeros((p, 3, 3))
    d_sem = np.zeros((p, c))
    axes = index.spec.axis_centers()
    row_of = None if voxels is None else _row_map(voxels, v)
    row_grid = None if voxels is None else row_of.reshape(dims)

    def take(ids):
        return frames[0][..., ids], frames[1][:, ids]

    for lo, hi, box in _path_runs(index):
        if box:
            for g in range(lo, hi):
                s_z[g], s_zz[g], d_sem[g] = _box_sums(frames, index, axes, d_scores, row_grid,
                                                      sem[g], g)
            continue
        # Each run takes the whole grid on its own, so only its frames are gathered.
        runs = (item for a, b in _gaussian_chunks(index.gaussian_starts[lo : hi + 1])
                for item in _pair_runs(take, index, lo + a, lo + b))
        for ids, per_gaussian, vox, w, z in runs:
            k = ids.size
            g = np.repeat(np.arange(k), per_gaussian)
            rows = vox if voxels is None else np.take(row_of, vox)
            gup = np.ascontiguousarray(np.take(d_scores, rows, axis=0).T)
            # dL/dw per pair, summed class by class so no pair depends on the run.
            d_w = gup[0] * np.repeat(sem[ids, 0], per_gaussian)
            for cls in range(1, c):
                d_w += gup[cls] * np.repeat(sem[ids, cls], per_gaussian)
            s_z[ids], s_zz[ids] = pair_weights_vjp(g, k, w, z, d_w)
            for cls in range(c):
                d_sem[ids, cls] = np.bincount(g, w * gup[cls], minlength=k)
    return s_z, s_zz, d_sem


def _accumulate_slab(
    frames_of,
    sem_of,
    index: SplatIndex,
    scores: np.ndarray,
    g_lo: int,
    g_hi: int,
    row_of: np.ndarray | None,
    x_range,
) -> None:
    """Add gaussians [g_lo, g_hi) over their boxes in the slab ``x_range``.

    ``scores`` are the slab's, from its first layer on, or the rows, which
    are reached through the ``row_of`` map from that layer on.  Each class
    receives a run's float32 products ``w * sem`` through one
    ``np.add.at``, which applies them in pair order.  The products are
    formed one class at a time in one (pairs,) buffer, from a class-major
    copy of the run's semantics, which ``sem_of(ids)`` gives as
    ``frames_of(ids)`` gives the frames.  A run's arrays are released before
    the next is built.
    """
    c = scores.shape[1]
    for ids, per_gaussian, vox, w, z in _pair_runs(frames_of, index, g_lo, g_hi, x_range):
        del z
        vox = vox if row_of is None else np.take(row_of, vox)
        sem = np.ascontiguousarray(sem_of(ids).T)
        adds = np.empty(w.size, dtype=np.float32)
        for cls in range(c):
            # float32(sem * w), multiplied in float64 and rounded once into the float32 buffer.
            np.multiply(sem[cls].repeat(per_gaussian), w, out=adds, casting="same_kind")
            np.add.at(scores[:, cls], vox, adds)
        # Released before the next run is built.
        del vox, w, sem, adds


def _check_dense_bytes(num_voxels: int, bytes_per_voxel: int) -> None:
    """Raise CapacityError when dense per-voxel arrays would exceed ``MAX_SCORE_BYTES``."""
    size = float(num_voxels) * bytes_per_voxel
    if size > MAX_SCORE_BYTES:
        raise CapacityError(f"{size:.0f} bytes of dense per-voxel arrays exceed {MAX_SCORE_BYTES}")


def _gathers(scene, index: SplatIndex, layers: int):
    """Yield ``x0, x1, rows, ids``: the slabs' x-layers [x0, x1) and their gaussians' rows.

    An in-memory scene is its own rows for the whole grid, row g being
    gaussian g, and ``ids`` is None.  A scene file, such as
    ``sceneio.SceneFile``, gathers the rows of the ascending gaussians
    ``ids`` whose boxes meet the slabs, row i being gaussian ``ids[i]``.
    Each gather covers as many whole slabs of ``layers`` x-layers as keep
    it to ``_INDEX_CHUNK`` gaussians, one at least, so that each slab's
    gaussians are read in one pass over the file; their count is taken
    from the boxes' first and last slabs.
    """
    x_dim = index.spec.dims[0]
    if isinstance(scene, GaussianScene):
        yield 0, x_dim, scene, None
        return
    x_lo, x_n = index.lo[:, 0], index.counts[:, 0]
    hit = x_n > 0
    n = -(-x_dim // layers)
    # Boxes whose first slab is at most k, and whose last slab is below k.
    begun = np.cumsum(np.bincount(x_lo[hit] // layers, minlength=n))
    ended = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount((x_lo[hit] + x_n[hit] - 1) // layers, minlength=n), out=ended[1:])
    k0 = 0
    while k0 < n:
        k1 = k0 + 1
        while k1 < n and begun[k1] - ended[k0] <= _INDEX_CHUNK:
            k1 += 1
        x0, x1 = k0 * layers, min(k1 * layers, x_dim)
        ids = np.flatnonzero(hit & (x_lo < x1) & (x_n > x0 - x_lo))
        yield x0, x1, scene.gather(ids), ids
        k0 = k1


def _takers(rows, ids):
    """``frames_of(g)`` and ``sem_of(g)`` of gaussians g from the rows of ``_gathers``."""

    def at(g):
        return g if ids is None else np.searchsorted(ids, g)

    def frames_of(g):
        r = at(g)
        return gaussian_frames(rows.means[r], rows.scales[r], rows.rotations[r])

    def sem_of(g):
        return rows.logits[at(g)]

    return frames_of, sem_of


def _accumulate(scene, index: SplatIndex, scores=None, voxels=None):
    """Add the float32 scores slab by slab, in ascending gaussian order per
    voxel, and yield each slab's scores once they are added.

    A slab is consecutive whole x-layers, about ``_SLAB_BYTES`` of scores
    and one layer at least.  Each slab is added into ``scores``: the dense
    (V, C) scores, of which each slab is a view; the rows, one per voxel of
    ascending ``voxels``, which must hold every box, each slab reaching its
    rows through the row map; or, for ``None``, one slab's buffer, cleared
    for each slab, so that a caller uses each slab before it asks for the
    next.  The caller checks the scores' size against ``MAX_SCORE_BYTES``.
    Within a slab the runs go in ascending order, clipped to the slab's
    x-layers.  A box-path gaussian adds ``float32(w * sem)`` to each block
    of its box, one class at a time, through a view of the scores or its
    rows, gathered through the row map; the other runs take
    ``_accumulate_slab``.  So every voxel gets one float32 add per gaussian,
    in order.  The gaussians' parameters come from ``_gathers``: an
    in-memory scene is read in place, and a scene file is read for the
    gaussians of a few slabs at a time, each gather released before the
    next.  Beside the index, the scores and one gather, nothing of the
    scene's size is held: the runs' x-extents are taken once, before the
    first slab.
    """
    c, dims = scene.class_count, index.spec.dims
    x_dim, y_dim, z_dim = dims
    layer = y_dim * z_dim
    width = max(1, _SLAB_BYTES // (4 * c * layer))
    x_lo, x_n = index.lo[:, 0], index.counts[:, 0]
    runs = _path_runs(index)
    # Each run's x-layers, so that a slab skips the runs it does not meet.
    firsts = [a for a, _, _ in runs]
    run_lo = np.minimum.reduceat(x_lo, firsts) if runs else []
    run_hi = np.maximum.reduceat(x_lo + x_n, firsts) if runs else []
    boxes = np.flatnonzero(np.diff(index.gaussian_starts) > _BOX_PAIRS)
    box_x_lo = x_lo[boxes]
    box_x_hi = box_x_lo + x_n[boxes]
    reused = scores is None
    if reused:
        scores = np.zeros((min(width, x_dim) * layer, c), dtype=np.float32)
    axes = index.spec.axis_centers()
    row_of = None if voxels is None else _row_map(voxels, index.num_voxels)

    for x_start, x_end, rows, ids in _gathers(scene, index, width):
        frames_of, sem_of = _takers(rows, ids)
        for x0 in range(x_start, x_end, width):
            x1 = min(x0 + width, x_dim)
            if voxels is not None:
                slab, grid, grid_rows = scores, row_of.reshape(dims)[x0:x1], row_of[x0 * layer :]
            else:
                slab = scores[: (x1 - x0) * layer] if reused else scores[x0 * layer : x1 * layer]
                if reused and x0:
                    slab[...] = 0
                grid, grid_rows = slab.reshape(x1 - x0, y_dim, z_dim, c), None
            # The frames of the slab's box-path gaussians, built once; a
            # slab without any skips the frames' fixed cost of about 80 us.
            hit = boxes[(box_x_lo < x1) & (box_x_hi > x0)]
            a, off = frames_of(hit) if hit.size else (None, None)
            for (lo, hi, box), first, end in zip(runs, run_lo, run_hi):
                if first >= x1 or end <= x0:
                    continue
                if not box:
                    _accumulate_slab(frames_of, sem_of, index, slab, lo, hi, grid_rows, (x0, x1))
                    continue
                for k in range(*np.searchsorted(hit, [lo, hi])):
                    g = hit[k]
                    sem = sem_of(g).astype(np.float64)
                    for block, w, _ in _box_blocks((a[..., k], off[:, k]), index, axes, g,
                                                   (x0, x1)):
                        part = grid[block] if voxels is None else slab[grid[block]]
                        for cls in range(c):
                            part[..., cls] += (w * sem[cls]).astype(np.float32)
                        if voxels is not None:
                            slab[grid[block]] = part
            yield slab
        # Released before the next gather is read.
        del rows, ids, frames_of, sem_of


def _argmax_labels(scores: np.ndarray) -> np.ndarray:
    # np.argmax returns the first maximizer, which is the required
    # lowest-index tie-break; all-zero rows therefore decode to class 0.
    return np.argmax(scores, axis=1).astype(np.uint8)


def splat(
    scene: GaussianScene,
    spec: GridSpec,
    cutoff_sigma: float | None = DEFAULT_CUTOFF_SIGMA,
    threads: int = 1,
    index: SplatIndex | None = None,
    rows: bool = False,
) -> OccupancyGrid:
    """Splat a scene into an occupancy grid with per-voxel scores.

    Voxels with no neighboring gaussian keep zero scores and the empty label.
    A class count outside [1, 255], which no grid can hold, is a ValueError
    raised before any work.  ``rows`` gives the row form over
    ``index.covered``, as ``fit`` runs it, unless every voxel is covered;
    the bits are those of the dense form.  The scores' size is checked
    against ``MAX_SCORE_BYTES`` first.  Each slab is added in place in them,
    or in their rows, by the loop that ``splat_chunks`` runs, so both give
    the same bits.
    A prebuilt ``index`` carries its own cutoff, so it must come alone,
    built for this scene and grid; anything else, a non-default ``threads``
    included, is a ValueError.  ``threads`` changes neither the result nor
    the speed: every pass runs on the calling thread.
    """
    _check_class_count(scene.class_count)
    if index is None:
        index = build_splat_index(scene, spec, cutoff_sigma, threads=threads)
    elif cutoff_sigma != DEFAULT_CUTOFF_SIGMA or threads != 1:
        raise ValueError(
            "cutoff_sigma and threads belong to build_splat_index when an index is given"
        )
    elif index.spec != spec:
        raise ValueError("index was built for another grid")
    elif index.num_gaussians != len(scene):
        raise ValueError(
            f"index was built for {index.num_gaussians} gaussians, the scene has {len(scene)}"
        )
    covered = index.covered if rows else None
    voxels = None if covered is None or covered.all() else np.flatnonzero(covered)
    size = spec.num_voxels if voxels is None else voxels.size
    _check_dense_bytes(size, 4 * scene.class_count)
    scores = np.zeros((size, scene.class_count), dtype=np.float32)
    for _ in _accumulate(scene, index, scores, voxels):
        pass
    labels = np.zeros(spec.num_voxels, dtype=np.uint8)  # an all-zero row's argmax
    labels[slice(None) if voxels is None else voxels] = _argmax_labels(scores)
    return OccupancyGrid(spec, scene.class_count, labels, scores, voxels)


def splat_chunks(
    scene,
    spec: GridSpec,
    cutoff_sigma: float | None = DEFAULT_CUTOFF_SIGMA,
    threads: int = 1,
) -> GridChunks:
    """``splat``'s dense grid as one chunk per slab of whole x-layers, for a writer to store.

    ``scene`` is a ``GaussianScene`` or an open ``sceneio.SceneFile``, which
    must stay open until the last chunk is read.  Every check runs before
    this returns: the class count, first, then the index with its pair cap,
    and the V * C * 4 bytes of scores against ``MAX_SCORE_BYTES``; a scene
    file's records are checked in the index's pass.  The scores are added as
    the chunks are read, in one slab's buffer, about ``_SLAB_BYTES``, that
    every chunk reuses, so reading them holds the int32 index, one slab of
    scores, one run of pairs and the scene, or, for a scene file, the rows
    of the gaussians of a few slabs; the bits are those of ``splat``.
    """
    _check_class_count(scene.class_count)
    index = build_splat_index(scene, spec, cutoff_sigma, threads=threads)
    _check_dense_bytes(spec.num_voxels, 4 * scene.class_count)
    chunks = _accumulate(scene, index)
    return GridChunks(spec, scene.class_count, ((_argmax_labels(s), s) for s in chunks))


def _add_gaussians_in_order(frames, logits: np.ndarray, pts: np.ndarray,
                            scores: np.ndarray) -> None:
    """Add every gaussian to every voxel, one gaussian at a time, ascending.

    ``frames`` come from ``gaussian_frames``, ``pts`` holds the (3, V) voxel
    centers and ``scores`` the (V, C) float32 sums.  Each voxel receives one
    float32 add of ``float32(w * sem)`` per gaussian and class, in the order
    that the contract fixes.
    """
    a, off = frames
    for g in range(logits.shape[0]):
        w, _ = pair_weights(a[..., g], off[:, g], pts)
        sem = logits[g].astype(np.float64)
        for c in range(scores.shape[1]):
            scores[:, c] += (w * sem[c]).astype(np.float32)


def splat_oracle(scene: GaussianScene, spec: GridSpec) -> OccupancyGrid:
    """Exact brute-force splat: every voxel sums every gaussian.

    O(voxels * P); intended for small instances and as the correctness
    reference for the fast path's box and pair runs alike.  It shares only
    ``gaussian_frames`` and ``pair_weights`` with them, and its points are
    ``voxel_centers``, copied coordinate-major.  The float32 scores, both
    center arrays and the loop's float64 per-voxel buffers, 52 bytes for
    the kernel's z, w and scratch row, a product and its float32 cast, are
    checked against ``MAX_SCORE_BYTES`` before they exist.
    """
    _check_dense_bytes(spec.num_voxels, 4 * scene.class_count + 2 * 24 + 52)
    pts = np.ascontiguousarray(spec.voxel_centers().T)
    scores = np.zeros((spec.num_voxels, scene.class_count), dtype=np.float32)
    frames = gaussian_frames(scene.means, scene.scales, scene.rotations)
    _add_gaussians_in_order(frames, scene.logits, pts, scores)
    return OccupancyGrid(spec, scene.class_count, _argmax_labels(scores), scores)
