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
and slab sizes.  Both passes send a gaussian by its box size down one of
two paths.  ``_box_blocks`` walks a large box, a dense block of the grid,
in blocks of whole x-layers that are added to, or read from, a view of the
scores.  ``_pair_runs`` writes the pairs of the other gaussians it is
given, clipped to one range of x-layers, in runs of whole gaussians.  The
forward bits do not depend on a gaussian's path.  The backward sums of a
pair run are ``pair_weights_vjp``'s ``np.bincount`` sums in pair order
from +0.0; those of a box come from ``_box_moments``, reductions of each
x-layer's pairs added in x order, so no backward bit depends on the block,
run or slab size or on the thread count.  The two paths associate the
backward sums differently, so a gaussian's gradients depend on its path in
the last bits; the tests hold each path to one bound against a float64
reference.

The forward pass cuts the grid along x one way only, into slabs of whole
x-layers of about ``_SLAB_BYTES`` of scores, a block that stays in cache
while pairs are scattered into it.  Slab by slab, it takes the gaussians
whose boxes meet the slab, ascending, builds their float64 frames in one
call, never for the whole scene, and walks them in stretches of one path,
clipped to the slab.  A run's products are formed one class at a time, and
a run is released before the next is built.  ``splat`` adds each slab in
place in its dense (V, C) scores, or, in the row form that ``fit`` runs,
into one score row per voxel of the boxes, reached through a (V,) row map;
so it holds the scene, the index, the scores and little else.
``splat_chunks``, from which the CLI writes its grid file, adds each slab
into one slab's buffer, which it yields and then reuses, and it can take a
scene file in place of the scene: the index's pass reads and checks every
record, and each few slabs read the rows of the gaussians that meet them.
The index is found in blocks of gaussians and stored as int32 box ends.
The backward pass takes the pairs over the whole grid, and ``fit`` gives it
one gradient row per score row.  Every pass runs on the calling process;
in a ``fit`` at several threads, each rank of its ``team.Team`` adds whole
slabs of the grid, and takes the backward pass of a range of the gaussians.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GaussianScene, _rotation_entries, _rotation_jacobian, quat_to_rotation
from .errors import CapacityError
from .grid import GridChunks, GridSpec, OccupancyGrid, _check_class_count
from .team import SOLO, check_threads

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

    def part(self, a: int, b: int) -> "SplatIndex":
        """The index of gaussians a to b - 1 alone, as views of this one's boxes."""
        starts = self.gaussian_starts[a : b + 1]
        return SplatIndex(self.spec, self.lo[a:b], self.counts[a:b], starts - starts[0])

    def _box_counts(self, x_range=None) -> np.ndarray:
        """How many boxes hold each voxel of the x-layers [x0, x1) of ``x_range``,
        by default the whole grid, an (x1 - x0, Y, Z) int64 view.

        Each box, clipped to the layers, adds +1 and -1 at its eight corners,
        by the parity of its upper ends, in a grid one larger per axis;
        running sums along the three axes then count, at each voxel, the
        boxes that hold it.  So the cost follows the number of boxes and of
        voxels, not of pairs.
        """
        _, y_dim, z_dim = self.spec.dims
        x0, x1 = (0, self.spec.dims[0]) if x_range is None else x_range
        hit = _meeting(self, slice(None), x0, x1)
        lo = self.lo[hit]
        ends = np.stack([lo, lo + self.counts[hit]], dtype=np.int64)
        ends[..., 0] = np.clip(ends[..., 0], x0, x1) - x0
        ends *= np.array([(y_dim + 1) * (z_dim + 1), z_dim + 1, 1])
        x, y, z = ends[..., 0], ends[..., 1], ends[..., 2]
        # Corner (a, b, c) of the ends is row 4a + 2b + c; rows 0, 3, 5 and
        # 6 have an even count of upper ends.
        corners = (x[:, None, None] + y[None, :, None] + z[None, None, :]).reshape(8, -1)
        size = (x1 - x0 + 1) * (y_dim + 1) * (z_dim + 1)
        counts = np.bincount(corners[[0, 3, 5, 6]].ravel(), minlength=size)
        counts -= np.bincount(corners[[1, 2, 4, 7]].ravel(), minlength=size)
        counts = counts.reshape(x1 - x0 + 1, y_dim + 1, z_dim + 1)
        for axis in range(3):
            np.cumsum(counts, axis=axis, out=counts)
        return counts[:-1, :y_dim, :z_dim]

    @property
    def voxel_starts(self) -> np.ndarray:
        """Running pair count per voxel; its ``np.diff`` is each voxel's gaussian count."""
        starts = np.zeros(self.num_voxels + 1, dtype=np.int64)
        np.cumsum(self._box_counts(), out=starts[1:])
        return starts


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


def _geometry(scene, first: int, last: int):
    """Yield ``a, means, scales`` of the gaussians in blocks, from gaussian a on.

    An in-memory scene gives row slices of ``_INDEX_CHUNK`` gaussians, of
    the gaussians [first, last); any other scene, such as
    ``sceneio.SceneFile``, gives the blocks of its ``geometry()``, so every
    gaussian.
    """
    if not isinstance(scene, GaussianScene):
        yield from scene.geometry()
        return
    for a in range(first, last, _INDEX_CHUNK):
        rows = slice(a, min(a + _INDEX_CHUNK, last))
        yield a, scene.means[rows], scene.scales[rows]


def build_splat_index(
    scene,
    spec: GridSpec,
    cutoff_sigma: float | None = DEFAULT_CUTOFF_SIGMA,
    threads: int = 1,
    team=None,
) -> SplatIndex:
    """Find each gaussian's neighborhood box and count its pairs.

    Gaussian g pairs with the voxels whose centers lie in its box of
    half-width ``cutoff_sigma * max(scale)`` per axis.  ``cutoff_sigma=None``
    selects exact mode: every box is the whole grid, so every gaussian pairs
    with every voxel and the fast splat is bitwise equal to the brute-force
    oracle.  The per-axis ranges are exact, so the pair total is known, and
    checked against ``MAX_PAIRS``, before any pair is written.  ``threads``
    must be a positive int, else ValueError; it does not split the work.
    A ``team`` of ranks, which ``fit`` passes with an in-memory scene, holds
    the boxes and pair counts in its arena, and each rank finds those of its
    own contiguous share of the gaussians, by count; once every rank is
    done, each takes the running pair count and checks the total itself.
    The boxes are found a block of gaussians at a time and written into the
    index's own arrays, so no other array grows with the scene.  ``scene``
    is a ``GaussianScene``, taken ``_INDEX_CHUNK`` rows at a time, or an
    open ``sceneio.SceneFile``, whose records are read, checked and indexed
    in one pass, a block at a time, and raise its first fault once read.
    The box ends are int32, so a grid with an axis of 2^31 or more voxels
    is a CapacityError, raised before anything is allocated.  Such a grid
    has more voxels than ``MAX_SCORE_BYTES`` lets a splat hold scores for.
    """
    check_threads(threads)
    if max(spec.dims) > _MAX_AXIS:
        raise CapacityError(f"an axis of {max(spec.dims)} voxels exceeds the index's "
                            f"limit of {_MAX_AXIS}")
    _cutoff(cutoff_sigma)  # checked before any block, so an empty scene's is checked too
    team = SOLO if team is None else team
    p = len(scene)
    lo, counts = team.empty((2, p, 3), np.int32)
    pairs = team.empty(p, np.int64)
    for a, means, scales in _geometry(scene, *team.span(np.arange(p + 1))):
        b = a + len(means)
        box_lo, box_counts = _axis_ranges(means.astype(np.float64),
                                          _cutoff_radii(scales, cutoff_sigma), spec)
        lo[a:b], counts[a:b] = box_lo, box_counts
        x, y, z = box_counts.T
        pairs[a:b] = x * y * z
    team.barrier()
    # Summed in float64, which cannot wrap around as an int64 sum could.
    total = pairs.sum(dtype=np.float64)
    if total > MAX_PAIRS:
        raise CapacityError(f"{total:.0f} (gaussian, voxel) pairs exceed {MAX_PAIRS}")
    gaussian_starts = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(pairs, out=gaussian_starts[1:])
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


def pair_weights_vjp(g: np.ndarray, k: int, w: np.ndarray, z: np.ndarray, d_scores, sem):
    """Every per-gaussian backward sum of a run of pairs.

    ``g`` holds each pair's gaussian in 0..k-1, and ``w, z`` come from
    ``pair_weights``, in the run's (pairs,) shape.  ``d_scores`` holds the
    pairs' score cotangents class by class, (C, pairs), and ``sem`` (k, C)
    the gaussians' semantics.  With ``dL/dw = sum d_scores * sem``, added
    class by class, and ``c = dL/dw * w``, returns the (k, 12 + C) sums of
    ``c z`` (3), of ``c z z^T`` (9, row-major) and of ``w * d_scores`` (C).
    Each is an ``np.bincount`` in pair order from +0.0, formed one (pairs,)
    term at a time, and ``c z_j z_i`` is a copy of ``c z_i z_j`` for i < j.
    """
    c = sem.shape[1]
    d_w = d_scores[0] * sem[g, 0]
    for cls in range(1, c):
        d_w += d_scores[cls] * sem[g, cls]
    d_w *= w
    cz = [d_w * z[j] for j in range(3)]
    sums = np.empty((k, 12 + c))
    for i, j in zip(*np.triu_indices(3)):
        sums[:, 3 + 3 * i + j] = np.bincount(g, cz[i] * z[j], minlength=k)
        sums[:, 3 + 3 * j + i] = sums[:, 3 + 3 * i + j]
    for j in range(3):
        sums[:, j] = np.bincount(g, cz[j], minlength=k)
    for cls in range(c):
        sums[:, 12 + cls] = np.bincount(g, w * d_scores[cls], minlength=k)
    return sums


def vjp_moments(sums: np.ndarray):
    """``s_z`` (k, 3), ``s_zz`` (k, 3, 3) and ``d_sem`` (k, C): views of
    ``pair_weights_vjp``'s sums."""
    return sums[:, :3], sums[:, 3:12].reshape(-1, 3, 3), sums[:, 12:]


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


def _pair_runs(frames, index: SplatIndex, ids: np.ndarray, x_range=None):
    """Yield the pairs of the ascending gaussians ``ids`` in the x-layers ``x_range``, run by run.

    ``frames`` are the gaussians' ``gaussian_frames``, column i being
    gaussian ``ids[i]``.  Each box is clipped to the layers [x0, x1) of
    ``x_range = (x0, x1)``, by default the whole grid; a box that is not
    empty must meet them.  The pairs come in runs of whole gaussians,
    ascending, of at most ``_SLAB_PAIRS`` pairs.  Each item is ``a, b,
    counts, vox, w, z``: the run is ``ids[a:b]``, ``counts`` the pair count
    of each of its gaussians, and per pair its voxel, counted from the
    range's first voxel, and the kernel's ``w, z``, in (gaussian, voxel)
    order.  Pair points come from the per-axis center tables, which have
    the bits of ``voxel_centers``.
    """
    spec = index.spec
    cx, cy, cz = spec.axis_centers()
    x0, x1 = (0, spec.dims[0]) if x_range is None else x_range
    box_lo = index.lo[ids]
    box_counts = index.counts[ids]
    x_hi = box_lo[:, 0] + box_counts[:, 0]
    box_lo[:, 0] = np.maximum(box_lo[:, 0], x0)
    box_counts[:, 0] = np.minimum(x_hi, x1) - box_lo[:, 0]
    box_lo[:, 0] -= x0
    starts = np.zeros(ids.size + 1, dtype=np.int64)
    np.cumsum(box_counts[:, 0].astype(np.int64) * box_counts[:, 1] * box_counts[:, 2],
              out=starts[1:])
    for a, b in _gaussian_chunks(starts):
        per_gaussian = np.diff(starts[a : b + 1])
        # Built by a call and yielded unbound, so that nothing of this run
        # is held here while the next one is built.
        yield a, b, per_gaussian, *_run_pairs(
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
    counted from ``start``, and its weights ``w`` from ``pair_weights``
    against the broadcast (nx, 1, 1), (1, ny, 1) and (nz,) axis centers.
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
        w = pair_weights(a, off, (cx[x0:x1, None, None], pts_y, pts_z))[0]
        yield (slice(x0 - start, x1 - start), ys, zs), w


def _row_map(voxels: np.ndarray, v: int) -> np.ndarray:
    """(V,) row of each voxel: its place in the ascending ``voxels``, else
    ``voxels.size``, past the last row, so that reading it raises IndexError."""
    row_of = np.full(v, voxels.size, dtype=np.intp)
    row_of[voxels] = np.arange(voxels.size)
    return row_of


def _from_middle(n: int) -> np.ndarray:
    """The float64 indices of n voxels along a box's axis, counted from its
    middle voxel, ``(n - 1) // 2``."""
    return np.arange(n, dtype=np.float64) - (n - 1) // 2


def _box_moments(frame, index: SplatIndex, axes, g: int, gather, sem: np.ndarray) -> np.ndarray:
    """Gaussian g's (10 + C) sums over its box, from per-x-layer reductions.

    With ``c = dL/dw * w``, ``dL/dw`` added class by class, and (i, j, k)
    a voxel's index in the box, counted from its middle voxel, returns the
    sums of c, of c i, c j and c k, of c ii, c ij, c ik, c jj, c jk and
    c kk, and of ``w * d_scores`` per class.  ``gather(block)`` gives a
    ``_box_blocks`` block's score cotangents, (nx, ny, nz, C), and ``sem``
    (C,) the gaussian's semantics.  Each x-layer's sums are reductions of
    its own pairs: along z weighted by 1, k and k^2, then along y weighted
    by 1, j and j^2, and each class's ``w * d_scores`` along z and y.  They
    fill the layer's row of an (nx, 10 + C) table; once the last block is
    in, the layers are weighted by i and i^2 and added in x order.  So no
    bit depends on which block holds a layer.
    """
    c = sem.shape[0]
    nx, ny, nz = index.counts[g].tolist()
    x_lo = int(index.lo[g, 0])
    ks, js = _from_middle(nz), _from_middle(ny)
    layers = np.empty((nx, 10 + c))
    for block, w in _box_blocks(frame, index, axes, g):
        rows = layers[block[0].start - x_lo : block[0].stop - x_lo]
        d = np.moveaxis(gather(block), -1, 0)
        cw = d[0] * sem[0]
        for cls in range(1, c):
            cw += d[cls] * sem[cls]
        cw *= w
        by_k = [np.add.reduce(cw, axis=2)]  # sums of c, c k and c k^2 along z
        for _ in range(2):
            cw *= ks
            by_k.append(np.add.reduce(cw, axis=2))
        rows[:, 0] = np.add.reduce(by_k[0], axis=1)
        rows[:, 3] = np.add.reduce(by_k[1], axis=1)
        rows[:, 9] = np.add.reduce(by_k[2], axis=1)
        by_k[0] *= js
        rows[:, 2] = np.add.reduce(by_k[0], axis=1)
        by_k[0] *= js
        rows[:, 7] = np.add.reduce(by_k[0], axis=1)
        by_k[1] *= js
        rows[:, 8] = np.add.reduce(by_k[1], axis=1)
        for cls in range(c):
            rows[:, 10 + cls] = np.add.reduce(np.add.reduce(w * d[cls], axis=2), axis=1)
    i = _from_middle(nx)
    np.multiply(layers[:, 0], i, out=layers[:, 1])
    np.multiply(layers[:, 1], i, out=layers[:, 4])
    np.multiply(layers[:, 2], i, out=layers[:, 5])
    np.multiply(layers[:, 3], i, out=layers[:, 6])
    return np.add.reduce(layers, axis=0)


def _box_sums(frames, index: SplatIndex, axes, boxes: np.ndarray, moments: np.ndarray):
    """``pair_weights_vjp``'s (n, 12 + C) sums of the gaussians ``boxes`` from
    their (n, 10 + C) ``_box_moments``.

    A box's voxel centers are ``p0 + cell * idx`` from its middle voxel's
    center p0, and z is affine in them, so ``z = z0 + A'^T idx`` with z0
    the kernel's z at p0 and ``A'[u, j] = cell[u] * a[u, j]``.  Then, with
    the moments m0 = sum c, m1 = sum c idx and M2 = sum c idx idx^T and
    ``t = A'^T m1``, ``s_z = t + z0 m0`` and ``s_zz = A'^T M2 A' + t z0^T +
    z0 t^T + m0 z0 z0^T``, each entry a fixed sum of products of (n,)
    columns, with no BLAS call; ``s_zz`` is filled for i <= j and mirrored.
    Counted from the middle voxel, which is the voxel nearest the mean of a
    box that the grid does not clip, z0 is small, so the products keep
    about the accuracy of the per-pair terms.
    """
    c = moments.shape[1] - 10
    a, off = frames[0][..., boxes], frames[1][:, boxes]
    middle = index.lo[boxes].T + (index.counts[boxes].T - 1) // 2
    _, z0 = pair_weights(a, off, [axis[k] for axis, k in zip(axes, middle)])
    cell = index.spec.cell_size
    ap = [[cell[u] * a[u, j] for j in range(3)] for u in range(3)]
    m = moments.T
    m0, m1 = m[0], m[1:4]
    m2 = [[m[4], m[5], m[6]], [m[5], m[7], m[8]], [m[6], m[8], m[9]]]
    t = [ap[0][j] * m1[0] + ap[1][j] * m1[1] + ap[2][j] * m1[2] for j in range(3)]
    q = [[m2[u][0] * ap[0][j] + m2[u][1] * ap[1][j] + m2[u][2] * ap[2][j] for j in range(3)]
         for u in range(3)]
    sums = np.empty((boxes.size, 12 + c))
    for j in range(3):
        sums[:, j] = t[j] + z0[j] * m0
    for i, j in zip(*np.triu_indices(3)):
        quad = ap[0][i] * q[0][j] + ap[1][i] * q[1][j] + ap[2][i] * q[2][j]
        sums[:, 3 + 3 * i + j] = quad + t[i] * z0[j] + z0[i] * t[j] + m0 * z0[i] * z0[j]
        sums[:, 3 + 3 * j + i] = sums[:, 3 + 3 * i + j]
    sums[:, 12:] = moments[:, 10:]
    return sums


def _pair_moments(frames, index: SplatIndex, d_scores: np.ndarray, sem: np.ndarray, voxels):
    """Every gaussian's pair moments and semantic cotangents.

    ``d_scores`` holds the score cotangent rows and ``sem`` (P, C) the
    semantics.  Row i is voxel ``voxels[i]``, ascending, and every voxel of
    the index's boxes has a row; ``None`` means row v is voxel v.  Returns
    ``vjp_moments`` of the (P, 12 + C) sums: ``s_z`` (P, 3), ``s_zz`` (P, 3,
    3) and ``d_sem`` (P, C).  A gaussian of more than ``_BOX_PAIRS`` pairs
    is read in ``_box_blocks``, each gathered through the (X, Y, Z) view of
    the row map, or a view of the rows when ``voxels`` is None; its sums
    come from ``_box_moments``' per-layer reductions through ``_box_sums``,
    so they depend neither on the block size nor on the slab size.  The
    other gaussians with pairs are taken in ``_gaussian_chunks`` of their
    own pair counts, each one run of ``_pair_runs`` over the whole grid,
    read class-major through the row map, and summed by
    ``pair_weights_vjp``, an ``np.bincount`` in pair order from +0.0.  A
    gaussian's sums come from its own pairs alone, so the order of the
    gaussians or their chunks changes no bit; the two paths associate the
    sums differently, so they agree to rounding, not bit for bit.
    """
    p, c = sem.shape
    dims, v = index.spec.dims, index.num_voxels
    sums = np.zeros((p, 12 + c))
    axes = index.spec.axis_centers()
    row_of = None if voxels is None else _row_map(voxels, v)
    row_grid = None if voxels is None else row_of.reshape(dims)
    d_grid = d_scores.reshape(*dims, c) if voxels is None else None

    def gather(block):
        return d_grid[block] if voxels is None else d_scores[row_grid[block]]

    pairs = np.diff(index.gaussian_starts)
    boxes = np.flatnonzero(pairs > _BOX_PAIRS)
    moments = np.empty((boxes.size, 10 + c))
    for n, g in enumerate(boxes.tolist()):
        moments[n] = _box_moments((frames[0][..., g], frames[1][:, g]), index, axes, g, gather,
                                  sem[g])
    sums[boxes] = _box_sums(frames, index, axes, boxes, moments)
    paired = np.flatnonzero((pairs > 0) & (pairs <= _BOX_PAIRS))
    starts = np.zeros(paired.size + 1, dtype=np.int64)
    np.cumsum(pairs[paired], out=starts[1:])
    del pairs
    for lo, hi in _gaussian_chunks(starts):
        # Each chunk takes the whole grid on its own, so only its frames are gathered.
        chunk = paired[lo:hi]
        for a, b, per_gaussian, vox, w, z in _pair_runs(
                (frames[0][..., chunk], frames[1][:, chunk]), index, chunk):
            ids = chunk[a:b]
            rows = vox if voxels is None else np.take(row_of, vox)
            gup = np.ascontiguousarray(np.take(d_scores, rows, axis=0).T)
            sums[ids] = pair_weights_vjp(np.repeat(np.arange(ids.size), per_gaussian), ids.size,
                                         w, z, gup, sem[ids])
    return vjp_moments(sums)


def _accumulate_slab(frames, logits: np.ndarray, index: SplatIndex, ids: np.ndarray,
                     at: np.ndarray, scores: np.ndarray, row_of: np.ndarray | None,
                     x_range) -> None:
    """Add the ascending gaussians ``ids`` over their boxes in the slab ``x_range``.

    Column i of ``frames`` and row ``at[i]`` of ``logits`` are gaussian
    ``ids[i]``, and each box meets the slab.  ``scores`` are the slab's,
    from its first layer on, or the rows, which are reached through the
    ``row_of`` map from that layer on.  Each class receives a run's float32
    products ``w * sem`` through one ``np.add.at``, which applies them in
    pair order.  The products are formed one class at a time in one
    (pairs,) buffer, from a class-major copy of the run's semantics,
    gathered run by run.  A run's arrays are released before the next is
    built.
    """
    c = scores.shape[1]
    for a, b, per_gaussian, vox, w, z in _pair_runs(frames, index, ids, x_range):
        del z
        vox = vox if row_of is None else np.take(row_of, vox)
        sem = np.ascontiguousarray(logits[at[a:b]].T)
        adds = np.empty(w.size, dtype=np.float32)
        for cls in range(c):
            # float32(sem * w), multiplied in float64 and rounded once into the float32 buffer.
            np.multiply(sem[cls].repeat(per_gaussian), w, out=adds, casting="same_kind")
            np.add.at(scores[:, cls], vox, adds)
        # Released before the next run is built.
        del vox, w, sem, adds


def _check_dense_bytes(rows: int, bytes_per_row: int, per: str = "voxel") -> None:
    """Raise CapacityError when dense arrays of ``rows`` rows, one per ``per``,
    would exceed ``MAX_SCORE_BYTES``."""
    size = float(rows) * bytes_per_row
    if size > MAX_SCORE_BYTES:
        raise CapacityError(f"{size:.0f} bytes of dense per-{per} arrays exceed {MAX_SCORE_BYTES}")


def _meeting(index: SplatIndex, ids, x0: int, x1: int) -> np.ndarray:
    """The ascending places in ``ids`` of the gaussians whose boxes meet the x-layers [x0, x1)."""
    x_lo, x_n = index.lo[ids, 0], index.counts[ids, 0]
    # A box that misses the grid has counts of zero, but may keep its lo in the range.
    return np.flatnonzero((x_n > 0) & (x_lo < x1) & (x_n > x0 - x_lo))


def _gathers(scene, index: SplatIndex, layers: int):
    """Yield ``x0, x1, rows, ids``: the slabs' x-layers [x0, x1) and their gaussians' rows.

    Row i of ``rows`` is gaussian ``ids[i]``, ascending.  An in-memory
    scene is its own rows for the whole grid, with ``ids`` every gaussian.
    A scene file, such as ``sceneio.SceneFile``, gathers the rows of the
    gaussians whose boxes meet the slabs.  Each of its gathers covers as
    many whole slabs of ``layers`` x-layers as keep it to ``_INDEX_CHUNK``
    gaussians, one at least, so that each slab's gaussians are read in one
    pass over the file; their count is taken from the boxes' first and last
    slabs.
    """
    x_dim = index.spec.dims[0]
    if isinstance(scene, GaussianScene):
        yield 0, x_dim, scene, np.arange(len(scene))
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
        ids = _meeting(index, slice(None), x0, x1)
        yield x0, x1, scene.gather(ids), ids
        k0 = k1


def _slab_width(class_count: int, dims) -> int:
    """x-layers per slab: about ``_SLAB_BYTES`` of float32 scores, one layer at least."""
    return max(1, _SLAB_BYTES // (4 * class_count * dims[1] * dims[2]))


def _slab_pairs(index: SplatIndex, width: int) -> np.ndarray:
    """The running pair count over the slabs of ``width`` x-layers, from 0, float64.

    Each box adds its y-z area to every x-layer that it spans.  The counts
    are integers below 2^53, so they are exact.
    """
    x_dim = index.spec.dims[0]
    hit = index.counts[:, 0] > 0
    x_lo, n = index.lo[hit, 0], index.counts[hit].astype(np.int64)
    area = n[:, 1] * n[:, 2]
    steps = np.bincount(x_lo, area, x_dim + 1) - np.bincount(x_lo + n[:, 0], area, x_dim + 1)
    layers = np.zeros(x_dim + 1)
    np.cumsum(np.cumsum(steps[:x_dim]), out=layers[1:])
    return layers[np.minimum(np.arange(0, x_dim + width, width), x_dim)]


def _accumulate(scene, index: SplatIndex, scores=None, voxels=None, x_range=None):
    """Add the float32 scores slab by slab, in ascending gaussian order per
    voxel, and yield each slab's scores once they are added.

    A slab is ``_slab_width`` consecutive whole x-layers, counted from
    layer 0, and the slabs are those of the x-layers [x0, x1) of
    ``x_range``, by default the whole grid, where x0 starts a slab.  Each
    slab is added into ``scores``: the dense (V, C) scores, of which each
    slab is a view; the rows, one per voxel of ascending ``voxels``, which
    must hold every box, each slab reaching its rows through the row map;
    or, for ``None``, one slab's buffer, cleared for each slab, so that a
    caller uses each slab before it asks for the next.  The caller checks the scores' size against ``MAX_SCORE_BYTES``.
    Each slab takes the ascending gaussians of the current gather whose
    boxes meet it, builds their frames in one ``gaussian_frames`` call, and
    walks them in stretches of one path, clipped to the slab's x-layers.  A
    gaussian of more than ``_BOX_PAIRS`` pairs adds ``float32(w * sem)`` to
    each block of its box, one class at a time, through a view of the
    scores or its rows, gathered through the row map; a stretch of the
    others takes ``_accumulate_slab``.  So every voxel gets one float32 add
    per gaussian, in order.  The gaussians' parameters come from
    ``_gathers``: an in-memory scene is read in place, and a scene file is
    read for the gaussians of a few slabs at a time, each gather released
    before the next.  Beside the index, the scores and one gather, nothing
    of the scene's size is held but the in-memory scene's ids.
    """
    c, dims = scene.class_count, index.spec.dims
    x_dim, y_dim, z_dim = dims
    layer = y_dim * z_dim
    width = _slab_width(c, dims)
    first, last = (0, x_dim) if x_range is None else x_range
    reused = scores is None
    if reused:
        scores = np.zeros((min(width, x_dim) * layer, c), dtype=np.float32)
    axes = index.spec.axis_centers()
    row_of = None if voxels is None else _row_map(voxels, index.num_voxels)

    for x_start, x_end, rows, ids in _gathers(scene, index, width):
        for x0 in range(max(x_start, first), min(x_end, last), width):
            x1 = min(x0 + width, last)
            if voxels is not None:
                slab, grid, grid_rows = scores, row_of.reshape(dims)[x0:x1], row_of[x0 * layer :]
            else:
                slab = scores[: (x1 - x0) * layer] if reused else scores[x0 * layer : x1 * layer]
                if reused and x0:
                    slab[...] = 0
                grid, grid_rows = slab.reshape(x1 - x0, y_dim, z_dim, c), None
            # Row meet[i] of the gather is gaussian g[i], the i-th to meet the slab.
            meet = _meeting(index, ids, x0, x1)
            g = ids[meet]
            a, off = gaussian_frames(rows.means[meet], rows.scales[meet], rows.rotations[meet])
            box = index.gaussian_starts[g + 1] - index.gaussian_starts[g] > _BOX_PAIRS
            # The first gaussian of each stretch of one path.
            firsts = np.flatnonzero(np.diff(box, prepend=~box[:1])).tolist()
            for lo, hi in zip(firsts, [*firsts[1:], g.size]):
                if not box[lo]:
                    _accumulate_slab((a[..., lo:hi], off[:, lo:hi]), rows.logits, index, g[lo:hi],
                                     meet[lo:hi], slab, grid_rows, (x0, x1))
                    continue
                for k in range(lo, hi):
                    sem = rows.logits[meet[k]].astype(np.float64)
                    for block, w in _box_blocks((a[..., k], off[:, k]), index, axes, g[k],
                                                (x0, x1)):
                        part = grid[block] if voxels is None else slab[grid[block]]
                        for cls in range(c):
                            part[..., cls] += (w * sem[cls]).astype(np.float32)
                        if voxels is not None:
                            slab[grid[block]] = part
            yield slab
        # Released before the next gather is read.
        del rows, ids


def _argmax_labels(scores: np.ndarray) -> np.ndarray:
    # np.argmax returns the first maximizer, which is the required
    # lowest-index tie-break; all-zero rows therefore decode to class 0.
    return np.argmax(scores, axis=1).astype(np.uint8)


def splat(
    scene: GaussianScene,
    spec: GridSpec,
    cutoff_sigma: float | None = DEFAULT_CUTOFF_SIGMA,
    index: SplatIndex | None = None,
    rows: bool = False,
    team=None,
) -> OccupancyGrid:
    """Splat a scene into an occupancy grid with per-voxel scores.

    Voxels with no neighboring gaussian keep zero scores and the empty label.
    A class count outside [1, 255], which no grid can hold, is a ValueError
    raised before any work.  ``rows`` gives the row form over the voxels
    that lie in at least one of the index's boxes, as ``fit`` runs it,
    unless every voxel does; the bits are those of the dense form.  The
    scores' size is checked against ``MAX_SCORE_BYTES`` first.  Each slab
    is added in place in them, or in their rows, by the loop that
    ``splat_chunks`` runs, so both give the same bits.
    A ``team`` of ranks, which ``fit`` passes, holds the covered mask, the
    scores and the labels in its arena.  Each rank takes the slabs of its
    share of the pairs, contiguous whole slabs: it finds which of their
    voxels are covered, adds their scores and takes the labels of their
    rows.  Every voxel lies in one slab, so it gets the same adds in the
    same order; every rank lists the covered voxels from the whole mask.
    A prebuilt ``index`` carries its own cutoff, so it must come alone,
    built for this scene and grid; anything else is a ValueError.
    """
    _check_class_count(scene.class_count)
    if index is None:
        index = build_splat_index(scene, spec, cutoff_sigma)
    elif cutoff_sigma != DEFAULT_CUTOFF_SIGMA:
        raise ValueError("cutoff_sigma belongs to build_splat_index when an index is given")
    elif index.spec != spec:
        raise ValueError("index was built for another grid")
    elif index.num_gaussians != len(scene):
        raise ValueError(
            f"index was built for {index.num_gaussians} gaussians, the scene has {len(scene)}"
        )
    team = SOLO if team is None else team
    width = _slab_width(scene.class_count, spec.dims)
    x0, x1 = (min(k * width, spec.dims[0]) for k in team.span(_slab_pairs(index, width)))
    lo, hi = (k * spec.dims[1] * spec.dims[2] for k in (x0, x1))
    voxels = None
    if rows:
        covered = team.empty(spec.num_voxels, bool)
        covered[lo:hi] = index._box_counts((x0, x1)).reshape(-1) > 0
        team.barrier()
        if not covered.all():
            voxels = np.flatnonzero(covered)
        del covered
    size = spec.num_voxels if voxels is None else voxels.size
    _check_dense_bytes(size, 4 * scene.class_count)
    scores = team.zeros((size, scene.class_count), np.float32)
    for _ in _accumulate(scene, index, scores, voxels, (x0, x1)):
        pass
    labels = team.zeros(spec.num_voxels, np.uint8)  # an all-zero row's argmax
    if voxels is None:
        labels[lo:hi] = _argmax_labels(scores[lo:hi])
    else:
        lo, hi = np.searchsorted(voxels, (lo, hi))
        labels[voxels[lo:hi]] = _argmax_labels(scores[lo:hi])
    team.barrier()
    return OccupancyGrid(spec, scene.class_count, labels, scores, voxels)


def splat_chunks(
    scene,
    spec: GridSpec,
    cutoff_sigma: float | None = DEFAULT_CUTOFF_SIGMA,
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
    index = build_splat_index(scene, spec, cutoff_sigma)
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
