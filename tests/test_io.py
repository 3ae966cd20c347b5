"""Round-trip and robustness tests for the binary scene/grid formats."""

import importlib
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from gaussvox import (
    CapacityError,
    DegenerateRotationError,
    FormatError,
    GaussianScene,
    GridSpec,
    InvalidScaleError,
    NonFiniteValueError,
    OccupancyGrid,
    gen_synthetic,
    generating_scene,
    read_grid,
    read_scene,
    splat,
    write_grid,
    write_scene,
)
from gaussvox.grid import IGNORE_LABEL


def random_scene(rng, count, class_count):
    means = rng.normal(0.0, 10.0, (count, 3)).astype(np.float32)
    scales = (0.01 + rng.random((count, 3))).astype(np.float32)
    rotations = rng.normal(size=(count, 4)).astype(np.float32)
    rotations /= np.linalg.norm(rotations, axis=1, keepdims=True)
    logits = rng.normal(size=(count, class_count)).astype(np.float32)
    return GaussianScene(means, scales, rotations, logits)


def test_scene_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(61)
    scene = random_scene(rng, 3, 4)
    path = tmp_path / "scene.sgau"
    write_scene(scene, path)
    back = read_scene(path)
    assert np.array_equal(back.means, scene.means)
    assert np.array_equal(back.scales, scene.scales)
    assert np.array_equal(back.rotations, scene.rotations)
    assert np.array_equal(back.logits, scene.logits)


def test_empty_scene_roundtrip(tmp_path):
    scene = GaussianScene(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 4)),
                          np.zeros((0, 5)))
    path = tmp_path / "empty.sgau"
    write_scene(scene, path)
    back = read_scene(path)
    assert len(back) == 0
    assert back.class_count == 5


def test_grid_roundtrip_labels_only(tmp_path):
    spec = GridSpec((-50, -50, -5), (0.5, 0.5, 0.5), (200, 200, 16))
    rng = np.random.default_rng(62)
    labels = rng.integers(0, 18, spec.num_voxels).astype(np.uint8)
    labels[rng.random(spec.num_voxels) < 0.05] = 255
    grid = OccupancyGrid(spec, 18, labels)
    path = tmp_path / "grid.svox"
    write_grid(grid, path)
    back = read_grid(path)
    assert back.spec == spec
    assert back.class_count == 18
    assert np.array_equal(back.labels, labels)
    assert back.scores is None


def test_grid_roundtrip_with_scores(tmp_path):
    spec = GridSpec((0, 0, 0), (0.2, 0.2, 0.2), (6, 5, 4))
    rng = np.random.default_rng(63)
    scores = rng.normal(size=(spec.num_voxels, 3)).astype(np.float32)
    labels = np.argmax(scores, axis=1).astype(np.uint8)
    grid = OccupancyGrid(spec, 3, labels, scores)
    path = tmp_path / "scored.svox"
    write_grid(grid, path)
    back = read_grid(path)
    assert np.array_equal(back.labels, labels)
    assert np.array_equal(back.scores, scores)


def test_scene_write_read_write_identical_bytes(tmp_path):
    rng = np.random.default_rng(64)
    scene = random_scene(rng, 17, 6)
    a = tmp_path / "a.sgau"
    b = tmp_path / "b.sgau"
    write_scene(scene, a)
    write_scene(read_scene(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_scene_bad_magic(tmp_path):
    path = tmp_path / "bad.sgau"
    path.write_bytes(b"XXXX" + b"\x00" * 12)
    with pytest.raises(FormatError) as e:
        read_scene(path)
    assert e.value.offset == 0


def test_scene_bad_version(tmp_path):
    path = tmp_path / "bad.sgau"
    path.write_bytes(struct.pack("<4sHHQ", b"SGAU", 9, 2, 0))
    with pytest.raises(FormatError) as e:
        read_scene(path)
    assert e.value.offset == 4


def test_scene_truncated(tmp_path):
    rng = np.random.default_rng(65)
    full = tmp_path / "full.sgau"
    write_scene(random_scene(rng, 4, 2), full)
    data = full.read_bytes()
    cut = tmp_path / "cut.sgau"
    cut.write_bytes(data[:-7])
    with pytest.raises(FormatError):
        read_scene(cut)
    header_only = tmp_path / "hdr.sgau"
    header_only.write_bytes(data[:10])
    with pytest.raises(FormatError):
        read_scene(header_only)


# A record is mean[3], scale[3], rotation[4] and the semantics as float32;
# each case writes its value into records 2 and 4 of a 3-class scene.
@pytest.mark.parametrize("field, payload, error", [
    (0, [float("nan")], NonFiniteValueError),
    (2, [float("inf")], NonFiniteValueError),
    (12, [float("-inf")], NonFiniteValueError),
    (3, [float("nan")], InvalidScaleError),
    (5, [0.0], InvalidScaleError),
    (6, [0.0] * 4, DegenerateRotationError),
], ids=["nan-mean", "inf-mean", "inf-semantics", "nan-scale", "zero-scale",
        "zero-quaternion"])
def test_scene_bad_record_offset(tmp_path, field, payload, error):
    path = tmp_path / "scene.sgau"
    write_scene(random_scene(np.random.default_rng(66), 6, 3), path)
    data = bytearray(path.read_bytes())
    for g in (2, 4):
        at = 16 + (g * 13 + field) * 4
        data[at : at + 4 * len(payload)] = struct.pack(f"<{len(payload)}f", *payload)
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError) as e:
        read_scene(path)
    assert e.value.offset == 16 + 2 * 13 * 4
    assert type(e.value.__cause__) is error
    assert e.value.__cause__.gaussian == 2


sceneio = importlib.import_module("gaussvox.sceneio")


def chunk_scene_file(path, count=23, class_count=5):
    """A scene file of ``count`` records, with a -0.0 and a subnormal among its values."""
    scene = random_scene(np.random.default_rng(67), count, class_count)
    scene.means[3, 1] = -0.0
    scene.logits[5, 2] = np.float32(1e-45)
    write_scene(scene, path)
    return path.read_bytes()


@pytest.mark.parametrize("chunk", [1, 7])
def test_scene_read_in_chunks_keeps_the_bits(tmp_path, monkeypatch, chunk):
    path = tmp_path / "scene.sgau"
    data = chunk_scene_file(path)
    records = np.frombuffer(data, dtype="<f4", offset=16).reshape(-1, 15)
    monkeypatch.setattr(sceneio, "_RECORD_CHUNK", chunk)
    back = read_scene(path)
    for got, want in zip((back.means, back.scales, back.rotations, back.logits),
                         np.split(records, [3, 6, 10], axis=1)):
        assert got.dtype == np.float32 and got.flags.c_contiguous
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


@pytest.mark.parametrize("chunk", [1, 7])
def test_invalid_gaussian_in_a_later_chunk_names_its_offset(tmp_path, monkeypatch, chunk):
    path = tmp_path / "scene.sgau"
    data = bytearray(chunk_scene_file(path))
    at = 16 + (17 * 15 + 4) * 4  # gaussian 17's y scale, in the third chunk of 7
    data[at : at + 4] = struct.pack("<f", -1.0)
    path.write_bytes(bytes(data))
    monkeypatch.setattr(sceneio, "_RECORD_CHUNK", chunk)
    with pytest.raises(FormatError) as e:
        read_scene(path)
    assert e.value.offset == 16 + 17 * 15 * 4
    assert type(e.value.__cause__) is InvalidScaleError
    assert e.value.__cause__.gaussian == 17


core = importlib.import_module("gaussvox.core")


def later_nan_logit_earlier_zero_scale(path):
    """A scene file with a zero scale at gaussian 4 and a NaN logit at gaussian 17.

    Returns the offset of gaussian 17's record, which the checks must name:
    the logits are checked over the whole scene before the scales.
    """
    data = bytearray(chunk_scene_file(path))
    data[16 + (4 * 15 + 5) * 4 : 16 + (4 * 15 + 6) * 4] = struct.pack("<f", 0.0)
    data[16 + (17 * 15 + 12) * 4 : 16 + (17 * 15 + 13) * 4] = struct.pack("<f", float("nan"))
    path.write_bytes(bytes(data))
    return 16 + 17 * 15 * 4


@pytest.mark.parametrize("records, rows", [(3, 2), (7, 1), (1 << 14, 1 << 14)])
def test_checks_across_blocks_report_the_first_failing_check(tmp_path, monkeypatch, records,
                                                             rows):
    path = tmp_path / "scene.sgau"
    offset = later_nan_logit_earlier_zero_scale(path)
    monkeypatch.setattr(sceneio, "_RECORD_CHUNK", records)
    monkeypatch.setattr(core, "_CHECK_ROWS", rows)
    with pytest.raises(FormatError, match="gaussian 17: logits must be finite") as e:
        read_scene(path)
    assert e.value.offset == offset
    assert type(e.value.__cause__) is NonFiniteValueError
    assert e.value.__cause__.gaussian == 17
    # The streamed check pass raises the same error once it has read every block.
    with sceneio.SceneFile(path) as scene_file:
        with pytest.raises(FormatError, match="gaussian 17: logits must be finite") as e:
            for _ in scene_file.geometry():
                pass
    assert e.value.offset == offset
    assert type(e.value.__cause__) is NonFiniteValueError


def test_scene_written_in_blocks_holds_one_block(tmp_path, monkeypatch):
    # 10,000 records of 18 classes are 1.1 MB; written 256 at a time, the
    # writer holds one 28.7 kB block and the file's buffer.  Measured: 36.8 kB;
    # the whole-scene copy peaked at 14.7 MB on a 65,536-gaussian scene.
    monkeypatch.setattr(sceneio, "_RECORD_CHUNK", 256)
    scene = random_scene(np.random.default_rng(68), 10_000, 18)
    block = 256 * (10 + 18) * 4
    tracemalloc.start()
    try:
        write_scene(scene, tmp_path / "blocks.sgau")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * block, peak
    monkeypatch.undo()
    write_scene(scene, tmp_path / "whole.sgau")
    assert (tmp_path / "blocks.sgau").read_bytes() == (tmp_path / "whole.sgau").read_bytes()


def test_scene_cut_inside_a_record_is_a_format_error(tmp_path, monkeypatch):
    path = tmp_path / "scene.sgau"
    data = chunk_scene_file(path)
    cut = 16 + 9 * 15 * 4 + 20  # inside record 9, in the second chunk of 7
    path.write_bytes(data[:cut])
    monkeypatch.setattr(sceneio, "_RECORD_CHUNK", 7)
    # The size check rejects the file before any record is read.
    with pytest.raises(FormatError, match="record section") as e:
        read_scene(path)
    assert e.value.offset == 16
    # A file that shrinks after its size was taken ends inside a chunk.
    monkeypatch.setattr(sceneio, "os", SimpleNamespace(fstat=lambda fd: SimpleNamespace(
        st_size=len(data))))
    with pytest.raises(FormatError, match="ended inside a record") as e:
        read_scene(path)
    assert e.value.offset == cut


def test_grid_bad_magic_and_version(tmp_path):
    spec = GridSpec((0, 0, 0), (1, 1, 1), (2, 2, 2))
    grid = OccupancyGrid(spec, 2, np.zeros(8, np.uint8))
    path = tmp_path / "g.svox"
    write_grid(grid, path)
    data = bytearray(path.read_bytes())

    bad = tmp_path / "bad.svox"
    bad.write_bytes(b"VOXS" + bytes(data[4:]))
    with pytest.raises(FormatError) as e:
        read_grid(bad)
    assert e.value.offset == 0

    data2 = bytearray(data)
    data2[4:6] = struct.pack("<H", 3)
    bad.write_bytes(bytes(data2))
    with pytest.raises(FormatError) as e:
        read_grid(bad)
    assert e.value.offset == 4


def test_grid_oversize_dims(tmp_path):
    spec = GridSpec((0, 0, 0), (1, 1, 1), (2, 2, 2))
    grid = OccupancyGrid(spec, 2, np.zeros(8, np.uint8))
    path = tmp_path / "g.svox"
    write_grid(grid, path)
    data = bytearray(path.read_bytes())
    data[8:20] = struct.pack("<III", 1 << 20, 1 << 20, 1 << 20)
    bad = tmp_path / "huge.svox"
    bad.write_bytes(bytes(data))
    with pytest.raises(CapacityError):
        read_grid(bad)


# origin[3] then cell_size[3], float32 each, start at byte 20 of the header.
@pytest.mark.parametrize("offset, value", [
    (20, float("nan")), (24, float("inf")), (28, float("-inf")),
    (32, float("inf")), (36, float("nan")), (40, float("-inf")), (40, 0.0),
])
def test_grid_non_finite_geometry_names_its_offset(tmp_path, offset, value):
    spec = GridSpec((0, 0, 0), (1, 1, 1), (2, 2, 2))
    path = tmp_path / "g.svox"
    write_grid(OccupancyGrid(spec, 2, np.zeros(8, np.uint8)), path)
    data = bytearray(path.read_bytes())
    data[offset : offset + 4] = struct.pack("<f", value)
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError) as e:
        read_grid(path)
    assert e.value.offset == offset


@pytest.mark.parametrize("origin, cell", [((1e308, 0.0, 0.0), (0.5, 0.5, 0.5)),
                                          ((0.0, 0.0, 0.0), (1e300, 0.5, 0.5)),
                                          ((0.0, -3.5e38, 0.0), (0.5, 0.5, 0.5)),
                                          ((0.0, 0.0, 0.0), (0.5, 1e-50, 0.5))])
def test_grid_geometry_the_header_cannot_hold_is_rejected(tmp_path, origin, cell):
    # Finite in float64, but float32 overflows or rounds the cell size to 0.
    spec = GridSpec(origin, cell, (2, 2, 2))
    path = tmp_path / "g.svox"
    with pytest.raises(ValueError, match="float32"):
        write_grid(OccupancyGrid(spec, 2, np.zeros(8, np.uint8)), path)
    assert list(tmp_path.iterdir()) == []


def test_row_form_grid_is_rejected_before_any_file_exists(tmp_path):
    # A grid file holds dense scores: a row-form grid must not become one,
    # nor clobber an existing target.
    spec = GridSpec((0, 0, 0), (1, 1, 1), (2, 2, 2))
    rows = OccupancyGrid(spec, 2, np.zeros(8, np.uint8), np.ones((2, 2)), np.array([1, 6]))
    path = tmp_path / "g.svox"
    with pytest.raises(ValueError, match="row form"):
        write_grid(rows, path)
    assert list(tmp_path.iterdir()) == []
    write_grid(OccupancyGrid(spec, 2, np.zeros(8, np.uint8)), path)
    before = path.read_bytes()
    with pytest.raises(ValueError, match="row form"):
        write_grid(rows, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["g.svox"]


@pytest.mark.parametrize("voxels, rows", [([1, 1], 2), ([3, 2], 2), ([-1, 2], 2), ([2, 8], 2),
                                          ([1, 2], 3), ([1, 2], None)])
def test_row_form_grid_validates_its_voxels(voxels, rows):
    # Strictly ascending ids inside the grid, one score row each, scores present.
    spec = GridSpec((0, 0, 0), (1, 1, 1), (2, 2, 2))
    scores = None if rows is None else np.zeros((rows, 2))
    with pytest.raises(ValueError):
        OccupancyGrid(spec, 2, np.zeros(8, np.uint8), scores, np.array(voxels))


class _FailingFile:
    """A binary file whose second write raises, as on a full disk."""

    def __init__(self, f):
        self.f = f
        self.writes = 0

    def write(self, data):
        self.writes += 1
        if self.writes == 2:
            raise OSError("no space left on device")
        return self.f.write(data)

    def seek(self, offset):
        return self.f.seek(offset)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("writer", ["scene", "grid"])
def test_failed_write_leaves_no_file(tmp_path, monkeypatch, writer, existing):
    # The writers write beside the target and rename on success, so a write
    # that fails midway leaves neither a partial file nor a temporary one,
    # and an existing target keeps its bytes.
    rng = np.random.default_rng(66)
    if writer == "scene":
        obj, write = random_scene(rng, 5, 3), write_scene
    else:
        spec = GridSpec((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (4, 4, 4))
        obj, write = splat(random_scene(rng, 5, 3), spec), write_grid
    path = tmp_path / "out.bin"
    if existing:
        path.write_bytes(b"old")
    monkeypatch.setattr(sceneio, "open", lambda *a: _FailingFile(open(*a)), raising=False)
    with pytest.raises(OSError, match="no space"):
        write(obj, path)
    assert [p.name for p in tmp_path.iterdir()] == (["out.bin"] if existing else [])
    if existing:
        assert path.read_bytes() == b"old"
    monkeypatch.undo()
    write(obj, path)
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
    assert path.stat().st_size > 16


def test_grid_payload_mismatch(tmp_path):
    spec = GridSpec((0, 0, 0), (1, 1, 1), (2, 2, 2))
    grid = OccupancyGrid(spec, 2, np.zeros(8, np.uint8))
    path = tmp_path / "g.svox"
    write_grid(grid, path)
    data = path.read_bytes()
    bad = tmp_path / "short.svox"
    bad.write_bytes(data[:-3])
    with pytest.raises(FormatError):
        read_grid(bad)


def test_grid_invalid_label(tmp_path):
    spec = GridSpec((0, 0, 0), (1, 1, 1), (2, 2, 2))
    grid = OccupancyGrid(spec, 2, np.zeros(8, np.uint8))
    path = tmp_path / "g.svox"
    write_grid(grid, path)
    data = bytearray(path.read_bytes())
    data[-1] = 9  # class index past class_count, not the ignore value
    bad = tmp_path / "lbl.svox"
    bad.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        read_grid(bad)


def test_gen_synthetic_box_containment():
    spec = GridSpec((0, 0, 0), (1, 1, 1), (8, 8, 8))
    grid = gen_synthetic(
        spec, [{"kind": "box", "cls": 2, "min": [1, 1, 1], "max": [3.2, 3.2, 3.2]}], 3
    )
    centers = spec.voxel_centers()
    inside = np.all((centers >= 1.0) & (centers <= 3.2), axis=1)
    assert np.all(grid.labels[inside] == 2)
    assert np.all(grid.labels[~inside] == 0)


def test_voxel_centers_hold_one_result_array():
    # The centers are the result's 24 bytes per voxel and nothing else of the
    # grid's size: the per-axis tables and the loop's small arrays fit in the
    # stated 16 KiB.  Measured: 24.02 bytes per voxel.  Built from an int64
    # index meshgrid, they peaked at 72.5.  The bits are that build's.
    spec = GridSpec((-3.1, 0.7, 12.25), (0.3, 0.17, 1.1), (64, 64, 32))
    tracemalloc.start()
    try:
        centers = spec.voxel_centers()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 24 * spec.num_voxels + 16384, peak / spec.num_voxels
    idx = np.stack(np.meshgrid(*(np.arange(d) for d in spec.dims), indexing="ij"),
                   axis=-1).reshape(-1, 3)
    expected = np.asarray(spec.origin) + (idx + 0.5) * np.asarray(spec.cell_size)
    assert np.array_equal(centers.view(np.uint64), expected.view(np.uint64))


def test_gen_holds_what_its_capacity_check_counts():
    # gen's check counts 25 bytes per voxel: the (V, 3) float64 centers and
    # the labels.  The shapes are tested _SHAPE_BLOCK voxels at a time, whose
    # temporaries take at most 64 bytes per voxel of a block.  Measured: 26.2
    # bytes per voxel; tested against the whole grid at once, 57.0.  The
    # labels and the scene's means have the bits of those whole-grid tests.
    spec = GridSpec((-3.1, 0.7, 0.25), (0.1, 0.07, 0.1), (96, 96, 47))
    shapes = [{"kind": "box", "cls": 1, "min": [-2.0, 2.0, 1.0], "max": [3.0, 6.0, 3.3]},
              {"kind": "sphere", "cls": 2, "center": [1.7, 4.1, 2.2], "radius": 1.9},
              {"kind": "plane", "cls": 3, "axis": "z", "offset": 0.6, "thickness": 0.3}]
    tracemalloc.start()
    try:
        grid = gen_synthetic(spec, shapes[:2], 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = importlib.import_module("gaussvox.sceneio")._SHAPE_BLOCK
    assert peak <= 25 * spec.num_voxels + 64 * block, peak / spec.num_voxels

    centers = spec.voxel_centers()
    expected = np.zeros(spec.num_voxels, dtype=np.uint8)
    expected[np.all((centers >= shapes[0]["min"]) & (centers <= shapes[0]["max"]), axis=1)] = 1
    expected[np.sum((centers - shapes[1]["center"]) ** 2, axis=1) <= 1.9 * 1.9] = 2
    assert np.array_equal(grid.labels, expected)
    expected[np.abs(centers[:, 2] - 0.6) <= 0.15] = 3
    grid = gen_synthetic(spec, shapes, 4)
    assert np.array_equal(grid.labels, expected)
    # generating_scene checks 57 + 4 (10 + C) bytes per gaussian; its masks
    # over the labels, 3 bytes per voxel at most, fall in gen's 25.
    # Measured: 101.9 bytes per gaussian, masks included.
    n = int(np.count_nonzero(expected))
    tracemalloc.start()
    try:
        scene = generating_scene(grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (57 + 4 * (10 + 4)) * n + 3 * spec.num_voxels, peak / n
    assert np.array_equal(scene.means, centers[expected != 0].astype(np.float32))


def test_gen_synthetic_empty_and_overwrite():
    spec = GridSpec((0, 0, 0), (1, 1, 1), (4, 4, 4))
    empty = gen_synthetic(spec, [], 2)
    assert np.all(empty.labels == 0)
    both = gen_synthetic(
        spec,
        [
            {"kind": "sphere", "cls": 1, "center": [2, 2, 2], "radius": 2.0},
            {"kind": "plane", "cls": 2, "axis": "z", "offset": 2.0, "thickness": 1.0},
        ],
        3,
    )
    # the later plane overwrites the sphere where they overlap
    centers = spec.voxel_centers()
    in_plane = np.abs(centers[:, 2] - 2.0) <= 0.5
    in_sphere = np.sum((centers - 2.0) ** 2, axis=1) <= 4.0
    assert np.all(both.labels[in_plane] == 2)
    assert np.all(both.labels[in_sphere & ~in_plane] == 1)


def test_gen_synthetic_scene_reproduces_labels():
    spec = GridSpec((0, 0, 0), (0.5, 0.5, 0.5), (12, 12, 12))
    shapes = [
        {"kind": "box", "cls": 1, "min": [0.5, 0.5, 0.5], "max": [2.5, 2.5, 2.5]},
        {"kind": "sphere", "cls": 2, "center": [4.0, 4.0, 3.0], "radius": 1.4},
    ]
    grid = gen_synthetic(spec, shapes, 3)
    pred = splat(generating_scene(grid), spec, 3.0)
    occupied = grid.labels != 0
    assert occupied.any()
    agreement = np.mean(pred.labels[occupied] == grid.labels[occupied])
    assert agreement >= 0.99


def test_generating_scene_skips_empty_and_ignored_voxels():
    spec = GridSpec((0.5, -1.0, 2.0), (0.5, 0.25, 1.0), (3, 4, 2))
    labels = np.zeros(spec.num_voxels, dtype=np.uint8)
    labels[[1, 6, 7, 20]] = [2, IGNORE_LABEL, 1, 2]
    scene = generating_scene(OccupancyGrid(spec, 3, labels))
    assert np.array_equal(scene.means, spec.voxel_centers()[[1, 7, 20]].astype(np.float32))
    assert np.array_equal(scene.logits.argmax(axis=1), [2, 1, 2])
    assert np.allclose(scene.logits.sum(axis=1), 1.0)
    assert np.array_equal(scene.scales, np.tile(np.float32([0.2, 0.1, 0.4]), (3, 1)))


def test_gen_synthetic_rejects_bad_class():
    spec = GridSpec((0, 0, 0), (1, 1, 1), (2, 2, 2))
    with pytest.raises(ValueError):
        gen_synthetic(spec, [{"kind": "box", "cls": 5, "min": [0, 0, 0],
                              "max": [1, 1, 1]}], 3)
    with pytest.raises(ValueError):
        gen_synthetic(spec, [{"kind": "torus", "cls": 1}], 3)
    # The class count is checked before the shapes, malformed ones included.
    for class_count in (0, 256):
        with pytest.raises(ValueError, match="class_count must be in"):
            gen_synthetic(spec, [{"kind": "torus", "cls": 1}], class_count)
