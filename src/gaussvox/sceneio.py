"""Bit-exact binary formats for scenes and grids, plus synthetic targets.

Both formats are little-endian with no padding so files parse identically on
any platform.  ``write_grid`` writes a grid, or a stream of chunks of
consecutive voxels such as ``splat_chunks`` gives: it seeks past the label
section, writes each chunk's scores as the chunk comes and the labels last,
so a streamed grid is never held whole.  Scene records are written and read
``_RECORD_CHUNK`` at a time through one buffer.  ``SceneFile`` keeps a scene
file open and reads its records in blocks: ``read_scene`` reads them all
into a scene, the CLI's splat checks them in the index's pass and then
gathers only the rows that each few chunks of the grid need, so it never
holds the scene.

SGAU scene file:
    magic "SGAU" | u16 version (=1) | u16 class_count | u64 gaussian_count
    then per gaussian (10 + class_count) float32:
    mean[3], scale[3], rotation[4] (w, x, y, z), semantics[class_count]

SVOX grid file:
    magic "SVOX" | u16 version (=1) | u16 class_count | u32 dims[3]
    | f32 origin[3] | f32 cell_size[3] | u8 payload_kind
    payload_kind 0: labels u8[X*Y*Z]
    payload_kind 1: labels u8[X*Y*Z] then scores f32[X*Y*Z * class_count]
"""

from __future__ import annotations

import contextlib
import math
import os
import struct

import numpy as np

from .core import GaussianScene, RowChecks
from .errors import CapacityError, FormatError, InvalidGaussianError
from .grid import IGNORE_LABEL, MAX_VOXELS, GridChunks, GridSpec, OccupancyGrid, _check_class_count
from .splat import _check_dense_bytes

SCENE_MAGIC = b"SGAU"
GRID_MAGIC = b"SVOX"
FORMAT_VERSION = 1

_SCENE_HEADER = struct.Struct("<4sHHQ")
_GRID_HEADER = struct.Struct("<4sHHIIIffffffB")
# A scene is read this many records at a time.
_RECORD_CHUNK = 1 << 14
# gen tests its shapes against this many voxel centers at a time.
_SHAPE_BLOCK = 1 << 14


@contextlib.contextmanager
def _replacing(path):
    """Open a new file beside ``path`` for writing, and move it onto ``path`` on success.

    ``os.replace`` is atomic, so ``path`` holds either its old content or the
    whole new file; a failure removes the partial file and leaves no output.
    """
    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    f = open(tmp, "xb")
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_scene(scene: GaussianScene, path) -> None:
    """Write a scene file, ``_RECORD_CHUNK`` records at a time through one buffer."""
    p = len(scene)
    c = scene.class_count
    columns = (scene.means, scene.scales, scene.rotations, scene.logits)
    buffer = np.empty((min(p, _RECORD_CHUNK), 10 + c), dtype="<f4")
    with _replacing(path) as f:
        f.write(_SCENE_HEADER.pack(SCENE_MAGIC, FORMAT_VERSION, c, p))
        for a in range(0, p, _RECORD_CHUNK):
            records = buffer[: p - a]
            for column, fields in zip(columns, np.split(records, [3, 6, 10], axis=1)):
                fields[...] = column[a : a + _RECORD_CHUNK]
            f.write(records)


class SceneFile:
    """An open scene file whose records are read in blocks, as they are needed.

    Opening reads the header and checks it and the record section's size,
    before anything grows with the scene.  The file stays open until
    ``close``, and the record section is read ``_RECORD_CHUNK`` records at a
    time through one buffer: whole by ``read_scene``, checked and handed out
    as geometry by ``geometry``, and picked over for some gaussians' rows by
    ``gather``.  Each gather checks the file's size and mtime against those
    at opening, on the open descriptor, and checks the rows it read, so a
    file changed while it is open is a FormatError, not a wrong grid.
    """

    def __init__(self, path):
        self._f = open(path, "rb")
        try:
            self._read_header()
        except BaseException:
            self._f.close()
            raise
        self._buffer = np.empty((min(self._count, _RECORD_CHUNK), 10 + self.class_count),
                                dtype="<f4")

    def _read_header(self) -> None:
        hs = _SCENE_HEADER.size
        data = self._f.read(hs)
        if (have := len(data)) < hs:
            raise FormatError(f"truncated header: need {hs} bytes, have {have}", have)
        magic, version, c, p = _SCENE_HEADER.unpack(data)
        if magic != SCENE_MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {SCENE_MAGIC!r}", 0)
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported version {version}", 4)
        if c < 1:
            raise FormatError("class_count must be >= 1", 6)
        self._stat = os.fstat(self._f.fileno())
        expected = p * (10 + c) * 4
        actual = self._stat.st_size - hs
        if actual != expected:
            raise FormatError(f"record section is {actual} bytes, expected {expected}", hs)
        self.class_count, self._count = c, p

    def __len__(self) -> int:
        return self._count

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        self._f.close()

    def _offset(self, g: int) -> int:
        """The byte offset of gaussian g's record."""
        return _SCENE_HEADER.size + g * (10 + self.class_count) * 4

    def _blocks(self):
        """Yield ``a, records`` for each block of records in turn, all in one buffer."""
        p = self._count
        self._f.seek(_SCENE_HEADER.size)
        for a in range(0, p, _RECORD_CHUNK):
            records = self._buffer[: p - a]
            if (got := self._f.readinto(records)) != records.nbytes:
                raise FormatError("the file ended inside a record", self._offset(a) + got)
            yield a, records

    def _scene(self, columns, ids=None) -> GaussianScene:
        """The scene of ``columns``, whose row i is gaussian ``ids[i]``, or i by default.

        A row that fails the checks is a FormatError at its gaussian's record."""
        try:
            return GaussianScene(*columns)
        except InvalidGaussianError as e:
            self._raise_at_record(e if ids is None else type(e)(e.detail, int(ids[e.gaussian])))

    def _raise_at_record(self, e: InvalidGaussianError):
        raise FormatError(str(e), self._offset(e.gaussian)) from e

    def geometry(self):
        """Yield ``a, means, scales`` of each block of records, checked, from the first.

        The rows go through ``GaussianScene``'s checks, carried from block to
        block; once every record has passed them, or once one fails and the
        rest have been read, the first fault is raised as ``read_scene``
        raises it, with its gaussian and byte offset.  A block is yielded
        only while no row has failed, as views of the reader's buffer.
        """
        checks = RowChecks()
        for a, records in self._blocks():
            means, scales, rotations, logits = np.split(records, [3, 6, 10], axis=1)
            if checks.add(a, means, scales, rotations, logits):
                yield a, means, scales
        try:
            checks.raise_first()
        except InvalidGaussianError as e:
            self._raise_at_record(e)

    def gather(self, ids: np.ndarray) -> GaussianScene:
        """The scene of ascending gaussians ``ids``, whose row i is gaussian ``ids[i]``.

        One pass over the record section picks each block's rows out of the
        buffer.  The file's size and mtime must still be those at opening,
        and the rows must pass ``GaussianScene``'s checks.
        """
        columns = [np.empty((ids.size, n), dtype=np.float32) for n in (3, 3, 4, self.class_count)]
        ends = np.searchsorted(ids, [*range(0, self._count, _RECORD_CHUNK), self._count])
        for (a, records), i, j in zip(self._blocks(), ends[:-1], ends[1:]):
            if i < j:
                rows = records[ids[i:j] - a]
                for column, fields in zip(columns, np.split(rows, [3, 6, 10], axis=1)):
                    column[i:j] = fields
        stat = os.fstat(self._f.fileno())
        if (stat.st_size, stat.st_mtime_ns) != (self._stat.st_size, self._stat.st_mtime_ns):
            raise FormatError("the file changed while it was open", _SCENE_HEADER.size)
        return self._scene(columns, ids)


def read_scene(path) -> GaussianScene:
    """Read a scene file; its header and size are checked before any allocation.

    Records are read ``_RECORD_CHUNK`` at a time through one buffer into the
    four column arrays, so no other array grows with the scene; the scene
    then checks its rows in blocks."""
    with SceneFile(path) as scene_file:
        p, c = len(scene_file), scene_file.class_count
        columns = [np.empty((p, n), dtype=np.float32) for n in (3, 3, 4, c)]
        for a, records in scene_file._blocks():
            for column, fields in zip(columns, np.split(records, [3, 6, 10], axis=1)):
                column[a : a + _RECORD_CHUNK] = fields
        return scene_file._scene(columns)


def check_header_geometry(spec: GridSpec) -> None:
    """Raise ValueError unless a grid header can hold ``spec``'s origin and cell size.

    The header stores them as float32: a value that overflows float32, or a
    cell size that rounds to 0, cannot be written.
    """
    try:
        fields = struct.unpack("<6f", struct.pack("<6f", *spec.origin, *spec.cell_size))
    except OverflowError:
        fields = None
    if fields is None or min(fields[3:]) <= 0:
        raise ValueError(f"origin {spec.origin} and cell size {spec.cell_size} do not fit "
                         f"the float32 fields of a grid header")


def write_grid(grid: OccupancyGrid | GridChunks, path) -> None:
    """Write a grid file from a dense grid or from a stream of chunks.

    A grid is written as one chunk.  After the header the file seeks past
    the label section and writes each chunk's scores as the chunk comes,
    gathering its labels, one byte per voxel, which are written last.  Every
    check on the grid runs before any file exists, and the file appears at
    ``path`` only once it is whole.
    """
    if isinstance(grid, OccupancyGrid):
        if grid.voxels is not None:
            raise ValueError("a grid file holds dense scores, not a grid in row form")
        kind, chunks = grid.scores is not None, [(grid.labels, grid.scores)]
    else:
        kind, chunks = grid.scores, grid.chunks
    spec = grid.spec
    check_header_geometry(spec)
    hs, v = _GRID_HEADER.size, spec.num_voxels
    labels = np.empty(v, dtype=np.uint8)
    with _replacing(path) as f:
        f.write(
            _GRID_HEADER.pack(
                GRID_MAGIC, FORMAT_VERSION, grid.class_count,
                *spec.dims, *spec.origin, *spec.cell_size, int(kind),
            )
        )
        f.seek(hs + v)
        done = 0
        for chunk_labels, scores in chunks:
            labels[done : done + chunk_labels.size] = chunk_labels
            done += chunk_labels.size
            if kind:
                # Written through its buffer: on a little-endian host the C-order
                # float32 scores are already "<f4", so no copy is made.
                f.write(np.ascontiguousarray(scores, dtype="<f4"))
        if done != v:
            raise ValueError(f"the chunks hold {done} voxels, the grid {v}")
        f.seek(hs)
        f.write(labels)


def read_grid(path) -> OccupancyGrid:
    with open(path, "rb") as f:
        data = f.read()
    hs = _GRID_HEADER.size
    if len(data) < hs:
        raise FormatError(f"truncated header: need {hs} bytes, have {len(data)}", len(data))
    magic, version, c, dx, dy, dz, ox, oy, oz, cx, cy, cz, kind = _GRID_HEADER.unpack_from(
        data, 0
    )
    if magic != GRID_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {GRID_MAGIC!r}", 0)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported version {version}", 4)
    if c < 1 or c > 255:
        raise FormatError(f"class_count {c} out of range [1, 255]", 6)
    if dx < 1 or dy < 1 or dz < 1:
        raise FormatError(f"non-positive dims ({dx}, {dy}, {dz})", 8)
    v = dx * dy * dz
    if v > MAX_VOXELS:
        raise CapacityError(f"grid of {v} voxels exceeds the addressable limit of {MAX_VOXELS}")
    if kind not in (0, 1):
        raise FormatError(f"unknown payload_kind {kind}", hs - 1)
    expected = v + (v * c * 4 if kind == 1 else 0)
    actual = len(data) - hs
    if actual != expected:
        raise FormatError(f"payload is {actual} bytes, expected {expected}", hs)
    # origin[3] and cell_size[3] are the six float32 fields from byte 20.
    bad = [i for i, v in enumerate((ox, oy, oz, cx, cy, cz))
           if not math.isfinite(v) or (i >= 3 and v <= 0)]
    if bad:
        raise FormatError(f"origin ({ox}, {oy}, {oz}) must be finite and cell size "
                          f"({cx}, {cy}, {cz}) finite and positive", 20 + 4 * bad[0])
    labels = np.frombuffer(data, dtype=np.uint8, offset=hs, count=v)
    scores = None
    if kind == 1:
        scores = np.frombuffer(data, dtype="<f4", offset=hs + v).reshape(v, c)
    spec = GridSpec((ox, oy, oz), (cx, cy, cz), (dx, dy, dz))
    try:
        return OccupancyGrid(spec, c, labels.copy(), None if scores is None else scores.copy())
    except ValueError as e:
        raise FormatError(str(e), hs) from e


# The fields each shape kind must have, besides ``kind`` and ``cls``.
_SHAPE_FIELDS = {"box": ("min", "max"), "sphere": ("center", "radius"),
                 "plane": ("axis", "offset")}


def _finite(value) -> bool:
    """Whether ``value`` is a number, not a bool, that a float64 holds finitely."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int past the float64 range
        return False


def _point(value) -> bool:
    return isinstance(value, (list, tuple)) and len(value) == 3 and all(map(_finite, value))


# Each value field's test, and what it must be.
_FIELD_TESTS = {
    "min": (_point, "3 finite numbers"),
    "max": (_point, "3 finite numbers"),
    "center": (_point, "3 finite numbers"),
    "radius": (lambda r: _finite(r) and r > 0, "a finite number > 0"),
    "offset": (_finite, "a finite number"),
    "thickness": (lambda t: _finite(t) and t >= 0, "a finite number >= 0"),
}


def check_shapes(shapes) -> None:
    """Raise ValueError, naming the shape's position, unless every shape
    is a dict of a known kind with an integer ``cls`` that a label can hold,
    0 to ``IGNORE_LABEL - 1``, and its kind's fields, every plane's axis is
    x, y, z or 0-2, and each field of ``_FIELD_TESTS`` that a shape holds
    passes its test: finite 3-vectors, a finite radius > 0, a finite offset
    and a finite thickness >= 0."""
    for i, shape in enumerate(shapes):
        # Tested against a tuple, by equality: a JSON list or object kind has no hash.
        if not isinstance(shape, dict) or shape.get("kind") not in tuple(_SHAPE_FIELDS):
            raise ValueError(f"shape {i} must be an object of kind box, sphere or plane")
        cls = shape.get("cls")
        if (isinstance(cls, bool) or not isinstance(cls, (int, np.integer))
                or not 0 <= cls < IGNORE_LABEL):
            raise ValueError(f"shape {i} needs an integer cls in 0-{IGNORE_LABEL - 1}, "
                             f"got {cls!r}")
        kind = shape["kind"]
        missing = [f for f in _SHAPE_FIELDS[kind] if f not in shape]
        if missing:
            raise ValueError(f"shape {i}, a {kind}, lacks {', '.join(missing)}")
        axis = shape.get("axis")  # 1.0 and True equal 1, but cannot index an axis
        if kind == "plane" and (isinstance(axis, (bool, float))
                                or axis not in ("x", "y", "z", 0, 1, 2)):
            raise ValueError(f"shape {i} has axis {axis!r}, not x, y, z or 0-2")
        for field, (test, what) in _FIELD_TESTS.items():
            if field in shape and not test(shape[field]):
                raise ValueError(f"shape {i}'s {field} must be {what}, got {shape[field]!r}")


def _shape_mask(shape: dict, centers: np.ndarray) -> np.ndarray:
    """Which of ``centers`` lie in a shape that ``check_shapes`` passed."""
    kind = shape["kind"]
    if kind == "box":
        lo = np.asarray(shape["min"], dtype=np.float64)
        hi = np.asarray(shape["max"], dtype=np.float64)
        return np.all((centers >= lo) & (centers <= hi), axis=1)
    if kind == "sphere":
        ctr = np.asarray(shape["center"], dtype=np.float64)
        r = float(shape["radius"])
        return np.sum((centers - ctr) ** 2, axis=1) <= r * r
    axis = shape["axis"]  # a plane
    if isinstance(axis, str):
        axis = "xyz".index(axis)
    half = 0.5 * float(shape.get("thickness", 0.0))
    return np.abs(centers[:, axis] - float(shape["offset"])) <= half


def gen_synthetic(spec: GridSpec, shapes: list[dict], class_count: int) -> OccupancyGrid:
    """Rasterize simple shapes into a labeled grid; later shapes overwrite.

    Each shape dict carries ``kind`` (box / sphere / plane), ``cls`` and its
    pose fields.  ``class_count``, in [1, 255], is checked first, then the
    shapes by ``check_shapes``, before any work.  The (V, 3) float64 voxel
    centers and the V labels are checked against ``MAX_SCORE_BYTES`` before
    they exist; each shape is tested ``_SHAPE_BLOCK`` voxels at a time, so
    its temporaries do not grow with the grid, and the centers are dropped
    before the grid checks its labels.
    """
    _check_class_count(class_count)
    check_shapes(shapes)
    _check_dense_bytes(spec.num_voxels, 24 + 1)
    centers = spec.voxel_centers()
    labels = np.zeros(spec.num_voxels, dtype=np.uint8)
    for shape in shapes:
        cls = shape["cls"]
        if not (0 <= cls < class_count):
            raise ValueError(f"shape class {cls} out of range for {class_count} classes")
        for a in range(0, spec.num_voxels, _SHAPE_BLOCK):
            block = slice(a, a + _SHAPE_BLOCK)
            labels[block][_shape_mask(shape, centers[block])] = cls
    del centers
    return OccupancyGrid(spec, class_count, labels)


def generating_scene(grid: OccupancyGrid) -> GaussianScene:
    """A scene whose cutoff splat reproduces ``grid``'s labels on its non-empty voxels.

    One small gaussian per voxel labeled neither 0 nor ``IGNORE_LABEL``, in
    voxel order: its mean is the voxel's center, ``origin + (i + 0.5) *
    cell`` per axis, the ops and bits of ``voxel_centers``; its scales 0.4
    cells, its rotation the identity, its semantics 0.9 at its label and 0.1
    shared by the rest.  All it allocates per gaussian is checked against
    ``MAX_SCORE_BYTES`` before any of it exists.
    """
    spec, c = grid.spec, grid.class_count
    occupied = (grid.labels != 0) & (grid.labels != IGNORE_LABEL)
    n = int(np.count_nonzero(occupied))
    _check_dense_bytes(n, 8 + 1 + 24 + 16 + 8 + 4 * (10 + c), per="gaussian")
    ids = np.flatnonzero(occupied)
    labels = grid.labels[ids]
    means = np.empty((n, 3), dtype=np.float32)
    for axis, (o, cell, i) in enumerate(zip(spec.origin, spec.cell_size,
                                            np.unravel_index(ids, spec.dims))):
        means[:, axis] = o + (i + 0.5) * cell
    scales = np.tile((0.4 * np.asarray(spec.cell_size)).astype(np.float32), (n, 1))
    rotations = np.zeros((n, 4), dtype=np.float32)
    rotations[:, 0] = 1.0
    sem = np.full((n, c), 0.1 / max(1, c - 1), dtype=np.float32)
    sem[np.arange(n), labels] = 0.9
    return GaussianScene(means, scales, rotations, sem)
