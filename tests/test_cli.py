"""End-to-end tests of the command-line interface."""

import importlib
import io
import json
import os
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from gaussvox import (FormatError, GaussianScene, GridSpec, NonFiniteValueError, read_grid,
                      read_scene, splat, write_grid, write_scene)
from gaussvox import cli
from gaussvox.cli import GRID_PRESETS, main


def run(argv):
    out = io.StringIO()
    code = main(argv, stdout=out)
    return code, out.getvalue()


def kv(text):
    pairs = {}
    for line in text.splitlines():
        if "=" in line and " " not in line.split("=", 1)[0]:
            k, v = line.split("=", 1)
            pairs[k] = v
    return pairs


@pytest.fixture
def small_scene(tmp_path):
    rng = np.random.default_rng(71)
    count = 20
    means = rng.uniform(0.5, 3.5, (count, 3)).astype(np.float32)
    scales = (0.2 + rng.random((count, 3)) * 0.5).astype(np.float32)
    rotations = rng.normal(size=(count, 4)).astype(np.float32)
    rotations /= np.linalg.norm(rotations, axis=1, keepdims=True)
    logits = rng.random((count, 4)).astype(np.float32)
    path = tmp_path / "scene.sgau"
    write_scene(GaussianScene(means, scales, rotations, logits), path)
    return path


GRID_FLAGS = ["--dims", "8,8,8", "--origin", "0,0,0", "--cell", "0.5,0.5,0.5"]


def test_usage_errors_exit_1():
    code, _ = run(["frobnicate"])
    assert code == 1
    code, _ = run(["splat", "--no-such-flag"])
    assert code == 1
    code, _ = run([])
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["--threads", "0"],
    ["--threads", "-2"],
    ["--threads", "two"],
])
def test_bad_thread_flag_exits_1(small_scene, tmp_path, argv):
    code, _ = run(["splat", "--scene", str(small_scene), *GRID_FLAGS, *argv,
                   "--out", str(tmp_path / "g.svox")])
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["--counts", "100"],
    ["--counts", "10,10"],
    ["--counts", "10,-5"],
    ["--counts", "10,x"],
    ["--counts", "0,10"],
    ["--class-count", "0"],
    ["--class-count", "256"],
    ["--repeats", "0"],
])
def test_bad_bench_flag_exits_1(monkeypatch, capsys, argv):
    # Each is refused before any scene is drawn, with the flag named.
    monkeypatch.setattr(cli, "random_bench_scene", lambda *args: pytest.fail("scene drawn"))
    flags = {"--counts": "10,20", "--class-count": "4", "--repeats": "1"}
    flags.update(zip(argv[::2], argv[1::2]))
    code, _ = run(["bench", *GRID_FLAGS, *(x for pair in flags.items() for x in pair)])
    assert code == 1
    assert f"argument {argv[0]}:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "0", "-1"])
def test_bad_threads_env_var_exits_1(small_scene, tmp_path, monkeypatch, value):
    monkeypatch.setenv("GAUSSVOX_THREADS", value)
    code, _ = run(["splat", "--scene", str(small_scene), *GRID_FLAGS,
                   "--out", str(tmp_path / "g.svox")])
    assert code == 1


# Byte offsets in a scene file: a 16-byte header, then per gaussian mean[3],
# scale[3], rotation[4] and the semantics (4 classes here) as float32.
@pytest.mark.parametrize("offset, payload", [
    (16 + 4 * 4, struct.pack("<f", 0.0)),
    (16 + 6 * 4, struct.pack("<4f", 0.0, 0.0, 0.0, 0.0)),
    (16, struct.pack("<f", float("nan"))),
    (16 + 5 * 4, struct.pack("<f", float("inf"))),
    (16 + 6 * 4, struct.pack("<f", float("nan"))),
    (16 + 10 * 4, struct.pack("<f", float("-inf"))),
    (16 + 3 * 4, struct.pack("<f", -0.5)),
    (16 + 1 * 4, struct.pack("<f", float("-inf"))),
    (16 + 11 * 4, struct.pack("<f", float("nan"))),
], ids=["zero-scale", "zero-quaternion", "nan-mean", "inf-scale", "nan-quaternion",
        "inf-semantics", "negative-scale", "neginf-mean", "nan-semantics"])
def test_splat_rejects_degenerate_gaussian_exit_2(small_scene, tmp_path, capsys, offset,
                                                  payload):
    data = bytearray(small_scene.read_bytes())
    data[offset : offset + len(payload)] = payload
    bad = tmp_path / "bad.sgau"
    bad.write_bytes(bytes(data))
    code, _ = run(["splat", "--scene", str(bad), *GRID_FLAGS,
                   "--out", str(tmp_path / "g.svox")])
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "g.svox").exists()


# Every invalid value of every scene field, written into gaussian 3: the
# four fields at their offsets within a record, each value over one
# component, and a zero quaternion over all four.
FIELDS = {"mean": 0, "scale": 3, "rotation": 6, "semantics": 10}
INVALID_FIELDS = [(field, value) for field in FIELDS for value in ("nan", "inf", "-inf")]
INVALID_FIELDS += [("scale", "0"), ("scale", "-0.5"), ("rotation", "zero")]


@pytest.mark.parametrize("field, value", INVALID_FIELDS,
                         ids=[f"{field}={value}" for field, value in INVALID_FIELDS])
def test_splat_rejects_every_invalid_field_exit_2(small_scene, tmp_path, capsys, field, value):
    # 16-byte header, then 10 + 4 float32 per gaussian.
    offset = 16 + (3 * 14 + FIELDS[field]) * 4
    if value == "zero":
        payload = struct.pack("<4f", 0.0, 0.0, 0.0, 0.0)
    else:
        offset += 4
        payload = struct.pack("<f", float(value))
    data = bytearray(small_scene.read_bytes())
    data[offset : offset + len(payload)] = payload
    bad = tmp_path / "bad.sgau"
    bad.write_bytes(bytes(data))
    out = tmp_path / "g.svox"
    code, _ = run(["splat", "--scene", str(bad), *GRID_FLAGS, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "gaussian 3" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("count", [21, 2**64 - 1])
def test_splat_rejects_gaussian_count_beyond_the_file_exit_2(small_scene, tmp_path, capsys,
                                                              count):
    # The header's u64 gaussian_count, at byte 8, claims more than the 20 records held.
    data = bytearray(small_scene.read_bytes())
    data[8:16] = struct.pack("<Q", count)
    bad = tmp_path / "bad.sgau"
    bad.write_bytes(bytes(data))
    out = tmp_path / "g.svox"
    code, _ = run(["splat", "--scene", str(bad), *GRID_FLAGS, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "record section" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("dims", ["100000,100000,100000", "0,8,8"])
def test_splat_rejects_absurd_dims_exit_2(small_scene, tmp_path, capsys, dims):
    out = tmp_path / "g.svox"
    code, _ = run(["splat", "--scene", str(small_scene), "--dims", dims, "--out", str(out)])
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--origin", "nan,0,0"), ("--origin", "inf,0,0"), ("--origin", "0,0,-inf"),
    ("--cell", "inf,0.5,0.5"), ("--cell", "0.5,nan,0.5"), ("--cell", "0.5,0.5,-inf"),
    # Finite, but more than the float32 fields of a grid header can hold.
    ("--origin", "1e308,0,0"), ("--cell", "1e300,0.5,0.5"),
])
def test_splat_rejects_non_finite_grid_exit_2(small_scene, tmp_path, capsys, flag, value):
    out = tmp_path / "g.svox"
    code, _ = run(["splat", "--scene", str(small_scene), "--dims", "8,8,8", flag, value,
                   "--out", str(out)])
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_gen_rejects_geometry_the_header_cannot_hold_exit_2(tmp_path, capsys):
    shapes = tmp_path / "shapes.json"
    shapes.write_text(json.dumps([{"kind": "box", "cls": 1, "min": [1, 1, 1],
                                   "max": [3, 3, 3]}]))
    out = tmp_path / "g.svox"
    code, _ = run(["gen", "--dims", "8,8,8", "--cell", "0.5,1e-50,0.5", "--shapes",
                   str(shapes), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "float32" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("offset, value", [(20, float("nan")), (28, float("-inf")),
                                           (32, float("inf")), (40, float("nan"))])
def test_fit_rejects_non_finite_grid_header_exit_2(tmp_path, capsys, offset, value):
    # origin[3] then cell_size[3], float32 each, start at byte 20 of a grid header.
    shapes = tmp_path / "shapes.json"
    shapes.write_text(json.dumps([{"kind": "box", "cls": 1, "min": [1, 1, 1],
                                   "max": [3, 3, 3]}]))
    truth = tmp_path / "truth.svox"
    assert run(["gen", *GRID_FLAGS, "--shapes", str(shapes), "--out", str(truth)])[0] == 0
    data = bytearray(truth.read_bytes())
    data[offset : offset + 4] = struct.pack("<f", value)
    truth.write_bytes(bytes(data))
    out = tmp_path / "fit.sgau"
    code, _ = run(["fit", "--truth", str(truth), "--out", str(out), "--count", "8",
                   "--iters", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert f"byte offset {offset}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_score_capacity_checked_before_allocation_exit_2(small_scene, tmp_path, monkeypatch,
                                                        capsys):
    # 8^3 voxels of 4 float32 classes are 8192 bytes, against a cap of 8191.
    monkeypatch.setattr(importlib.import_module("gaussvox.splat"), "MAX_SCORE_BYTES", 8191)
    out = tmp_path / "g.svox"
    code, _ = run(["splat", "--scene", str(small_scene), *GRID_FLAGS, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "8192 bytes" in err
    assert "Traceback" not in err
    assert not out.exists()


def _not_reached(*args, **kwargs):
    raise AssertionError("allocated before the capacity check")


def test_gen_capacity_checked_before_allocation_exit_2(tmp_path, monkeypatch, capsys):
    # 8^3 voxels of (x, y, z) float64 centers and uint8 labels are
    # 512 * 25 = 12800 bytes, against a cap of 12799.
    monkeypatch.setattr(importlib.import_module("gaussvox.splat"), "MAX_SCORE_BYTES", 12799)
    monkeypatch.setattr(GridSpec, "voxel_centers", _not_reached)
    shapes = tmp_path / "shapes.json"
    shapes.write_text(json.dumps([{"kind": "sphere", "cls": 1, "center": [2, 2, 2],
                                   "radius": 1.0}]))
    out = tmp_path / "g.svox"
    code, _ = run(["gen", *GRID_FLAGS, "--shapes", str(shapes), "--out", str(out),
                   "--scene-out", str(tmp_path / "g.sgau")])
    err = capsys.readouterr().err
    assert code == 2
    assert "12800 bytes" in err
    assert "Traceback" not in err
    assert not out.exists()
    assert not (tmp_path / "g.sgau").exists()


def test_fit_capacity_checked_before_allocation_exit_2(tmp_path, monkeypatch, capsys):
    # Per voxel, a fit holds 4 bytes per class of float32 score rows, 8 of
    # the loss's buffer, 9 of voxel ids and labels and 101 of the loss's
    # per-row arrays: 512 * (2 * 12 + 110) = 68608 bytes on 8^3 voxels of 2
    # classes, against a cap of 68607.
    shapes = tmp_path / "shapes.json"
    shapes.write_text(json.dumps([{"kind": "box", "cls": 1, "min": [1, 1, 1],
                                   "max": [3, 3, 3]}]))
    truth = tmp_path / "truth.svox"
    assert run(["gen", *GRID_FLAGS, "--shapes", str(shapes), "--out", str(truth)])[0] == 0
    monkeypatch.setattr(importlib.import_module("gaussvox.splat"), "MAX_SCORE_BYTES", 68607)
    monkeypatch.setattr(importlib.import_module("gaussvox.fitter"), "build_splat_index",
                        _not_reached)
    out = tmp_path / "fit.sgau"
    code, _ = run(["fit", "--truth", str(truth), "--out", str(out), "--count", "8",
                   "--iters", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "68608 bytes" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_data_errors_exit_2(tmp_path):
    code, _ = run(["info", str(tmp_path / "missing.sgau")])
    assert code == 2
    bad = tmp_path / "bad.svox"
    bad.write_bytes(b"JUNKJUNKJUNK")
    code, _ = run(["info", str(bad)])
    assert code == 2
    code, _ = run(["eval", "--pred", str(bad), "--truth", str(bad)])
    assert code == 2


def test_splat_and_info(small_scene, tmp_path):
    out_grid = tmp_path / "out.svox"
    code, _ = run(["splat", "--scene", str(small_scene), *GRID_FLAGS,
                   "--out", str(out_grid)])
    assert code == 0
    grid = read_grid(out_grid)
    assert grid.spec.dims == (8, 8, 8)
    assert grid.scores is not None

    code, text = run(["info", str(out_grid)])
    assert code == 0
    info = kv(text)
    assert info["format"] == "SVOX"
    assert info["dims"] == "8,8,8"
    assert info["payload_kind"] == "1"

    code, text = run(["info", str(small_scene)])
    assert code == 0
    info = kv(text)
    assert info["format"] == "SGAU"
    assert info["gaussian_count"] == "20"


def test_splat_labels_only_and_exact(small_scene, tmp_path):
    labels_path = tmp_path / "labels.svox"
    code, _ = run(["splat", "--scene", str(small_scene), *GRID_FLAGS,
                   "--labels-only", "--out", str(labels_path)])
    assert code == 0
    assert read_grid(labels_path).scores is None

    exact_path = tmp_path / "exact.svox"
    code, _ = run(["splat", "--scene", str(small_scene), *GRID_FLAGS,
                   "--exact", "--out", str(exact_path)])
    assert code == 0


def test_eval_self_comparison(small_scene, tmp_path):
    grid_path = tmp_path / "g.svox"
    run(["splat", "--scene", str(small_scene), *GRID_FLAGS, "--out", str(grid_path)])
    code, text = run(["eval", "--pred", str(grid_path), "--truth", str(grid_path)])
    assert code == 0
    values = kv(text)
    assert float(values["miou"]) == 1.0
    assert float(values["sc_iou"]) == 1.0
    assert values["ignored_voxels"] == "0"


def test_gen_eval_flow(tmp_path):
    shapes = tmp_path / "shapes.json"
    shapes.write_text(json.dumps([
        {"kind": "box", "cls": 1, "min": [0.5, 0.5, 0.5], "max": [2.0, 2.0, 2.0]},
        {"kind": "sphere", "cls": 2, "center": [3.0, 3.0, 3.0], "radius": 0.8},
    ]))
    grid_path = tmp_path / "truth.svox"
    scene_path = tmp_path / "gen.sgau"
    code, text = run(["gen", *GRID_FLAGS, "--shapes", str(shapes),
                      "--out", str(grid_path), "--scene-out", str(scene_path)])
    assert code == 0
    assert int(kv(text)["occupied_voxels"]) > 0
    assert read_scene(scene_path).class_count == 3

    pred_path = tmp_path / "pred.svox"
    run(["splat", "--scene", str(scene_path), *GRID_FLAGS, "--labels-only",
         "--out", str(pred_path)])
    code, text = run(["eval", "--pred", str(pred_path), "--truth", str(grid_path)])
    assert code == 0
    assert 0.0 < float(kv(text)["sc_iou"]) <= 1.0
    # the generating scene must reproduce the labels on the occupied voxels
    pred = read_grid(pred_path)
    truth = read_grid(grid_path)
    occupied = truth.labels != 0
    assert np.mean(pred.labels[occupied] == truth.labels[occupied]) >= 0.99


def test_gen_bad_shapes_json(tmp_path):
    shapes = tmp_path / "shapes.json"
    shapes.write_text("{not json")
    code, _ = run(["gen", *GRID_FLAGS, "--shapes", str(shapes),
                   "--out", str(tmp_path / "x.svox")])
    assert code == 2


BOX = {"kind": "box", "cls": 1, "min": [1, 1, 1], "max": [3, 3, 3]}


@pytest.mark.parametrize("class_count", [None, "4"], ids=["default-classes", "class-count"])
@pytest.mark.parametrize("bad, message", [
    ({"kind": "box", "min": [0, 0, 0], "max": [1, 1, 1]}, "integer cls"),
    ({"kind": "sphere", "cls": 1, "center": [1, 1, 1]}, "lacks radius"),
    ({"kind": "plane", "cls": 1, "axis": 5, "offset": 1.0}, "axis 5"),
    ({"kind": "plane", "cls": 1, "axis": "w", "offset": 1.0}, "axis 'w'"),
    ({"kind": "box", "cls": 1.5, "min": [0, 0, 0], "max": [1, 1, 1]}, "integer cls"),
    ({"kind": "box", "cls": True, "min": [0, 0, 0], "max": [1, 1, 1]}, "integer cls"),
    ({"kind": "box", "cls": 1, "max": [1, 1, 1]}, "lacks min"),
    ({"kind": "torus", "cls": 1}, "kind box, sphere or plane"),
    ({"cls": 1}, "kind box, sphere or plane"),
    (3, "kind box, sphere or plane"),
    ({"kind": "box", "cls": 300, "min": [0, 0, 0], "max": [1, 1, 1]}, "integer cls in 0-254"),
    ({"kind": "box", "cls": 255, "min": [0, 0, 0], "max": [1, 1, 1]}, "integer cls in 0-254"),
    ({"kind": "box", "cls": -1, "min": [0, 0, 0], "max": [1, 1, 1]}, "integer cls in 0-254"),
    ({"kind": "box", "cls": 1, "min": [0, 0], "max": [1, 1, 1]}, "min must be 3 finite"),
    ({"kind": "box", "cls": 1, "min": [0, 0, 0], "max": [1, float("nan"), 1]},
     "max must be 3 finite"),
    ({"kind": "box", "cls": 1, "min": [0, 0, 0], "max": [1, 10**400, 1]}, "max must be 3 finite"),
    ({"kind": "box", "cls": 1, "min": 0, "max": [1, 1, 1]}, "min must be 3 finite"),
    ({"kind": "sphere", "cls": 1, "center": [1, "1", 1], "radius": 1.0},
     "center must be 3 finite"),
    ({"kind": "sphere", "cls": 1, "center": [1, 1, 1], "radius": None}, "radius must be"),
    ({"kind": "sphere", "cls": 1, "center": [1, 1, 1], "radius": 0}, "radius must be"),
    ({"kind": "sphere", "cls": 1, "center": [1, 1, 1], "radius": float("inf")}, "radius must be"),
    ({"kind": "sphere", "cls": 1, "center": [1, 1, 1], "radius": True}, "radius must be"),
    ({"kind": "plane", "cls": 1, "axis": "x", "offset": float("-inf")}, "offset must be"),
    ({"kind": "plane", "cls": 1, "axis": "x", "offset": "1"}, "offset must be"),
    ({"kind": "plane", "cls": 1, "axis": "x", "offset": 1.0, "thickness": -0.5},
     "thickness must be"),
    ({"kind": "plane", "cls": 1, "axis": "x", "offset": 1.0, "thickness": float("nan")},
     "thickness must be"),
], ids=["no-cls", "no-radius", "axis-5", "axis-w", "float-cls", "bool-cls", "no-min",
        "torus", "no-kind", "number", "cls-300", "cls-255", "cls-negative", "min-of-2",
        "nan-max", "huge-max", "scalar-min", "string-center", "null-radius", "zero-radius",
        "inf-radius", "bool-radius", "inf-offset", "string-offset", "negative-thickness",
        "nan-thickness"])
def test_gen_rejects_a_malformed_shape_exit_2(tmp_path, capsys, class_count, bad, message):
    # Each shape is checked before any work: a malformed one is a data error
    # naming its position, with no traceback and no output file.
    shapes = tmp_path / "shapes.json"
    shapes.write_text(json.dumps([BOX, bad]))
    out = tmp_path / "truth.svox"
    flags = [] if class_count is None else ["--class-count", class_count]
    code, _ = run(["gen", *GRID_FLAGS, "--shapes", str(shapes), *flags, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "shape 1" in err and message in err, err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("with_scene", [False, True])
def test_fit_rejects_a_negative_seed_exit_2(tmp_path, capsys, small_scene, with_scene):
    # With --scene the seed draws nothing, and is refused all the same.
    shapes = tmp_path / "shapes.json"
    shapes.write_text(json.dumps([{"kind": "box", "cls": 1, "min": [1, 1, 1],
                                   "max": [3, 3, 3]}]))
    truth = tmp_path / "truth.svox"
    assert run(["gen", *GRID_FLAGS, "--shapes", str(shapes), "--class-count", "4",
                "--out", str(truth)])[0] == 0
    out = tmp_path / "fit.sgau"
    initial = ["--scene", str(small_scene)] if with_scene else ["--count", "8"]
    code, _ = run(["fit", "--truth", str(truth), "--out", str(out), *initial, "--iters", "1",
                   "--seed", "-1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: seed must be a non-negative int, got -1")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--init", "jittered-grid", "--jitter", "1e300"],
     "error: jitter 1e+300 puts gaussian means outside float32's range"),
    (["--lr", "1e300"], "error: a step left a parameter non-finite or outside float32 "
                        "at iteration 0"),
    (["--lr", "1e300", "--threads", "2"], "error: a step left a parameter non-finite or "
                                          "outside float32 at iteration 0"),
    (["--smin", "1e-320", "--smax", "1e-300"],
     "error: s_min and s_max must be positive finite float32 values, got 1e-320 and 1e-300"),
    (["--smax", "1e39"], "error: s_min and s_max must be positive finite float32 values"),
], ids=["jitter", "lr", "lr-threads", "tiny-scales", "huge-smax"])
def test_fit_rejects_values_past_float32_exit_2(tmp_path, capsys, flags, message):
    # Each value overflowed or underflowed a float32 cast: numpy warned, and
    # the error named a gaussian, not the flag or the divergence.
    shapes = tmp_path / "shapes.json"
    shapes.write_text(json.dumps([{"kind": "box", "cls": 1, "min": [1, 1, 0.5],
                                   "max": [3, 3, 1.5]}]))
    truth = tmp_path / "truth.svox"
    assert run(["gen", "--dims", "8,8,4", "--origin", "0,0,0", "--cell", "0.5,0.5,0.5",
                "--shapes", str(shapes), "--class-count", "3", "--out", str(truth)])[0] == 0
    out = tmp_path / "fit.sgau"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run(["fit", "--truth", str(truth), "--out", str(out), "--count", "8",
                       "--iters", "2", *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(message) and err.count("\n") == 1, err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "-1", "inf", "1e300", "1e-46"])
def test_bench_rejects_an_smax_past_float32_exit_2(capsys, value):
    # NaN and -1 were refused as "gaussian 0", and 1e300 overflowed the
    # scales' float32 cast with a RuntimeWarning.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run(["bench", *GRID_FLAGS, "--counts", "10,20", "--repeats", "1",
                         "--smax", value])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: --smax must lie in") and err.count("\n") == 1, err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command", ["bench", "fit"])
def test_a_gaussian_count_past_capacity_exits_2_before_the_draw(tmp_path, capsys, command):
    # numpy's _ArrayMemoryError came with a traceback.  Only a count far
    # past the cap is tried: one that malloc can reserve pages memory in.
    if command == "bench":
        argv = ["bench", *GRID_FLAGS, "--counts", "100000000000,2", "--repeats", "1"]
    else:
        shapes = tmp_path / "shapes.json"
        shapes.write_text(json.dumps([{"kind": "box", "cls": 1, "min": [1, 1, 1],
                                       "max": [3, 3, 3]}]))
        truth = tmp_path / "truth.svox"
        assert run(["gen", *GRID_FLAGS, "--shapes", str(shapes), "--out", str(truth)])[0] == 0
        argv = ["fit", "--truth", str(truth), "--count", "100000000000", "--iters", "1",
                "--out", str(tmp_path / "fit.sgau")]
    capsys.readouterr()
    code, _ = run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "bytes of dense per-gaussian arrays exceed" in err
    assert not (tmp_path / "fit.sgau").exists()


def test_fit_command(tmp_path):
    shapes = tmp_path / "shapes.json"
    shapes.write_text(json.dumps([
        {"kind": "box", "cls": 1, "min": [1.0, 1.0, 1.0], "max": [3.0, 3.0, 3.0]},
    ]))
    truth_path = tmp_path / "truth.svox"
    run(["gen", *GRID_FLAGS, "--shapes", str(shapes), "--out", str(truth_path)])

    out_scene = tmp_path / "fit.sgau"
    log_path = tmp_path / "fit.log"
    code, text = run([
        "fit", "--truth", str(truth_path), "--out", str(out_scene),
        "--count", "8", "--iters", "5", "--exact", "--smin", "0.05",
        "--smax", "0.8", "--seed", "4", "--log", str(log_path),
    ])
    assert code == 0
    assert "final loss=" in text
    assert len(read_scene(out_scene)) == 8
    lines = log_path.read_text().strip().splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("iter=0 ")


def test_nuscenes_preset_default(small_scene, tmp_path):
    out = tmp_path / "nusc.svox"
    code, _ = run(["splat", "--scene", str(small_scene), "--out", str(out)])
    assert code == 0
    grid = read_grid(out)
    origin, cell, dims = GRID_PRESETS["nuscenes"]
    assert grid.spec.dims == dims
    assert grid.spec.origin == origin
    assert grid.spec.cell_size == cell


def test_kitti_preset(tmp_path, small_scene):
    out = tmp_path / "kitti.svox"
    code, _ = run(["splat", "--scene", str(small_scene), "--preset", "kitti360",
                   "--dims", "8,8,8", "--out", str(out)])
    assert code == 0
    grid = read_grid(out)
    assert grid.spec.dims == (8, 8, 8)  # explicit flag overrides the preset
    # header floats are 32-bit, so compare after the same rounding
    expected = tuple(np.float32(v) for v in GRID_PRESETS["kitti360"][0])
    assert grid.spec.origin == expected


def test_threads_env_var(small_scene, tmp_path, monkeypatch):
    a = tmp_path / "a.svox"
    b = tmp_path / "b.svox"
    run(["splat", "--scene", str(small_scene), *GRID_FLAGS, "--out", str(a)])
    monkeypatch.setenv("GAUSSVOX_THREADS", "4")
    run(["splat", "--scene", str(small_scene), *GRID_FLAGS, "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_bench_output(tmp_path):
    code, text = run([
        "bench", "--counts", "50,100", "--repeats", "1",
        "--dims", "16,16,4", "--origin", "0,0,0", "--cell", "0.5,0.5,0.5",
    ])
    assert code == 0
    values = kv(text)
    assert "latency_r2" in values
    assert "bench_50_latency_ms" in values
    assert "bench_100_peak_bytes" in values


def test_bench_runs_each_repeat_over_every_count(monkeypatch):
    # Repeat r of every count runs before repeat r + 1, so a burst of load
    # from elsewhere spreads over the counts; the traced passes come last.
    seen = []

    def spy(scene, *args, **kwargs):
        seen.append(len(scene))
        return real(scene, *args, **kwargs)

    real = cli.splat
    monkeypatch.setattr(cli, "splat", spy)
    spec = GridSpec((0, 0, 0), (0.5, 0.5, 0.5), (16, 16, 4))
    rows = cli.run_bench([30, 50, 40], spec, cutoff=3.0, class_count=3, s_max=0.3, seed=0,
                         repeats=3, threads=1)
    assert seen == [30, 50, 40] * 4
    assert [row[0] for row in rows] == [30, 50, 40]


def test_bench_peak_uses_timed_thread_count(monkeypatch):
    seen = []

    def spy(*args, threads=1, **kwargs):
        seen.append(threads)
        return build(*args, threads=threads, **kwargs)

    build = cli.build_splat_index
    monkeypatch.setattr(cli, "build_splat_index", spy)
    spec = GridSpec((0, 0, 0), (0.5, 0.5, 0.5), (16, 16, 4))
    cli.run_bench([50], spec, cutoff=3.0, class_count=3, s_max=0.3, seed=0,
                  repeats=2, threads=2)
    assert seen == [2, 2, 2]


splat_module = importlib.import_module("gaussvox.splat")
sceneio = importlib.import_module("gaussvox.sceneio")


def _random_scene(rng, count, lo, hi, s_lo, s_hi, classes):
    rotations = rng.normal(size=(count, 4))
    return GaussianScene(rng.uniform(lo, hi, (count, 3)), rng.uniform(s_lo, s_hi, (count, 3)),
                         rotations / np.linalg.norm(rotations, axis=1, keepdims=True),
                         rng.random((count, classes)))


SMALL_FLAGS = ["--dims", "40,24,16", "--origin", "0,0,0", "--cell", "0.4,0.4,0.4"]
SMALL_BOX = ((-1, -1, -1), (17, 10.6, 7.4))
# name: scene, grid flags, splat flags, layers per slab.
STREAM_CASES = {
    "kitti360": (lambda rng: _random_scene(rng, 300, (0, -25.6, -2), (51.2, 25.6, 4.4),
                                           0.02, 1.2, 2),
                 ["--preset", "kitti360"], [], 16),
    # Box-path and pair-path runs alternate, and boxes cross slab edges.
    "mixed": (lambda rng: _random_scene(rng, 3000, *SMALL_BOX, 0.02, 1.2, 18), SMALL_FLAGS, [],
              4),
    "exact": (lambda rng: _random_scene(rng, 30, 0, 4, 0.1, 0.6, 4), GRID_FLAGS, ["--exact"],
              1),
    "labels-only": (lambda rng: _random_scene(rng, 300, *SMALL_BOX, 0.02, 1.2, 5),
                    SMALL_FLAGS, ["--labels-only"], 3),
    "exact-labels-only": (lambda rng: _random_scene(rng, 30, 0, 4, 0.1, 0.6, 4), GRID_FLAGS,
                          ["--exact", "--labels-only"], 1),
    "one-class": (lambda rng: _random_scene(rng, 300, *SMALL_BOX, 0.02, 1.2, 1),
                  SMALL_FLAGS, [], 3),
    "all-miss": (lambda rng: _random_scene(rng, 50, 20, 30, 0.1, 1.0, 3), SMALL_FLAGS, [], 3),
}


@pytest.mark.parametrize("case", list(STREAM_CASES))
def test_streamed_splat_file_matches_the_grid_writer(tmp_path, monkeypatch, case):
    # The CLI writes its grid slab by slab from one slab's buffer; the file
    # has the bytes of write_grid(splat(...)), which adds each slab in place
    # in the whole grid's scores.
    make, grid_flags, flags, slab_layers = STREAM_CASES[case]
    scene_path = tmp_path / "scene.sgau"
    write_scene(make(np.random.default_rng(81)), scene_path)
    scene = read_scene(scene_path)
    spec = cli._grid_spec(cli.build_parser().parse_args(
        ["splat", "--scene", "s", *grid_flags, "--out", "o"]))
    cutoff = None if "--exact" in flags else 3.0
    expected = splat(scene, spec, cutoff)
    if "--labels-only" in flags:
        expected.scores = None
    write_grid(expected, tmp_path / "expected.svox")

    if case == "mixed":
        # The ascending runs of gaussians of one path, box or pair.
        index = splat_module.build_splat_index(scene, spec, 3.0)
        box = np.diff(index.gaussian_starts) > splat_module._BOX_PAIRS
        firsts = np.flatnonzero(np.diff(box, prepend=~box[:1]))
        runs = [(a, b, bool(box[a])) for a, b in zip(firsts, [*firsts[1:], box.size])]
        assert sum(box for *_, box in runs) >= 400 and sum(not box for *_, box in runs) >= 400

    layer_bytes = 4 * scene.class_count * spec.dims[1] * spec.dims[2]
    monkeypatch.setattr(splat_module, "_SLAB_BYTES", slab_layers * layer_bytes)
    chunks = []
    real = splat_module._argmax_labels
    monkeypatch.setattr(splat_module, "_argmax_labels",
                        lambda scores: chunks.append(len(scores)) or real(scores))
    out = tmp_path / "out.svox"
    code, _ = run(["splat", "--scene", str(scene_path), *grid_flags, *flags, "--out", str(out)])
    assert code == 0
    assert len(chunks) == -(-spec.dims[0] // slab_layers) >= 8
    assert out.read_bytes() == (tmp_path / "expected.svox").read_bytes()


def test_streamed_splat_holds_no_dense_scores(tmp_path, monkeypatch):
    # 64x64x16 voxels of 18 classes are 4.7 MB of float32 scores, added in
    # 10 slabs of 7 layers; runs of at most 1,024 pairs keep the pair
    # arrays small.  The CLI's traced peak stays below half of the scores.
    # Measured: 1.4 MB, against 5.8 MB when the scores are splatted whole.
    monkeypatch.setattr(splat_module, "_SLAB_BYTES", 1 << 19)
    monkeypatch.setattr(splat_module, "_SLAB_PAIRS", 1 << 10)
    scene_path = tmp_path / "scene.sgau"
    write_scene(_random_scene(np.random.default_rng(82), 2000, 0, (12.8, 12.8, 3.2),
                              0.05, 0.3, 18), scene_path)
    dense = 64 * 64 * 16 * 18 * 4
    tracemalloc.start()
    try:
        code, _ = run(["splat", "--scene", str(scene_path), "--dims", "64,64,16",
                       "--origin", "0,0,0", "--cell", "0.2,0.2,0.2",
                       "--out", str(tmp_path / "g.svox")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < dense / 2, peak


def test_streamed_splat_holds_the_index_one_slab_and_one_gather(tmp_path, monkeypatch):
    # At the default slab and run sizes, on the nuScenes grid, with the
    # reader's block and each gather at 4,096 records: above the index's
    # int32 box ends and int64 pair starts, the CLI holds one slab of
    # scores, the writer's label per voxel, one run's pair arrays, stated as
    # 224 bytes per pair of a run, the reader's block and one gather of
    # rows.  Nothing is held for the scene.  Measured: 212 bytes per pair
    # for the run, 7.1 MB above the index in all; with the scene held, int64
    # box ends and (C, pairs) products, 16.0 MB.
    monkeypatch.setattr(splat_module, "_INDEX_CHUNK", 4096)
    monkeypatch.setattr(sceneio, "_RECORD_CHUNK", 4096)
    count, classes = 20000, 18
    write_scene(_random_scene(np.random.default_rng(83), count, (-50, -50, -5), (50, 50, 3),
                              0.015, 0.3, classes), tmp_path / "scene.sgau")
    tracemalloc.start()
    try:
        code, _ = run(["splat", "--scene", str(tmp_path / "scene.sgau"), "--preset", "nuscenes",
                       "--out", str(tmp_path / "g.svox")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    index = count * 2 * 3 * 4 + (count + 1) * 8
    labels = GridSpec(*GRID_PRESETS["nuscenes"]).num_voxels
    run_bound = 224 * splat_module._SLAB_PAIRS
    rows = 2 * 4096 * (10 + classes) * 4
    assert peak - index <= splat_module._SLAB_BYTES + labels + run_bound + rows, peak - index


def test_streamed_splat_peak_has_no_term_in_gaussians_times_classes(tmp_path, monkeypatch):
    # 20,000 gaussians of 2 and of 34 classes: the scene grows by 2.56 MB.
    # With one-layer slabs, runs of at most 1,024 pairs and gathers of at
    # most 1,024 records, what the CLI holds per class is one layer of
    # scores, the reader's block, one gather and a run's semantics, at most
    # one gaussian per pair.  Measured: +0.48 MB; with the scene held, +2.80 MB.
    monkeypatch.setattr(splat_module, "_SLAB_BYTES", 1)
    monkeypatch.setattr(splat_module, "_SLAB_PAIRS", 1024)
    monkeypatch.setattr(splat_module, "_INDEX_CHUNK", 1024)
    monkeypatch.setattr(sceneio, "_RECORD_CHUNK", 1024)
    count, few, many = 20000, 2, 34
    peaks = []
    for classes in (few, many):
        write_scene(_random_scene(np.random.default_rng(84), count, (-50, -50, -5), (50, 50, 3),
                                  0.015, 0.3, classes), tmp_path / "scene.sgau")
        tracemalloc.start()
        try:
            code, _ = run(["splat", "--scene", str(tmp_path / "scene.sgau"), "--preset",
                           "nuscenes", "--out", str(tmp_path / "g.svox")])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    layer = 200 * 16
    per_class = 4 * layer + 2 * 4 * 1024 + 8 * 1024
    assert peaks[1] - peaks[0] <= (many - few) * per_class < count * (many - few) * 4 / 2, peaks


def test_splat_and_info_never_read_the_whole_scene(small_scene, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "read_scene", _not_reached)
    out = tmp_path / "g.svox"
    code, _ = run(["splat", "--scene", str(small_scene), *GRID_FLAGS, "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == _grid_bytes(tmp_path, sceneio.read_scene(small_scene), GRID_FLAGS)
    code, text = run(["info", str(small_scene)])
    assert code == 0
    assert text == "format=SGAU\nversion=1\nclass_count=4\ngaussian_count=20\n"


def _grid_bytes(tmp_path, scene, grid_flags, flags=()):
    """The bytes of ``write_grid(splat(...))`` for the CLI's grid flags."""
    spec = cli._grid_spec(cli.build_parser().parse_args(
        ["splat", "--scene", "s", *grid_flags, "--out", "o"]))
    expected = splat(scene, spec, None if "--exact" in flags else 3.0)
    if "--labels-only" in flags:
        expected.scores = None
    write_grid(expected, tmp_path / "expected.svox")
    return (tmp_path / "expected.svox").read_bytes()


@pytest.mark.parametrize("bound, gathers", [(64, 10), (1500, 4)])
def test_streamed_splat_in_many_gathers_keeps_the_bytes(tmp_path, monkeypatch, bound, gathers):
    # The "mixed" case's ten slabs of four layers each need 829-1,099
    # gaussians.  Gathers of at most 64 take one slab each, past the bound;
    # gathers of at most 1,500 take two or three slabs each.  The reader
    # reads 64 records at a time.
    make, grid_flags, flags, slab_layers = STREAM_CASES["mixed"]
    scene_path = tmp_path / "scene.sgau"
    write_scene(make(np.random.default_rng(85)), scene_path)
    scene = read_scene(scene_path)
    expected = _grid_bytes(tmp_path, scene, grid_flags, flags)
    layer_bytes = 4 * scene.class_count * 24 * 16
    monkeypatch.setattr(splat_module, "_SLAB_BYTES", slab_layers * layer_bytes)
    monkeypatch.setattr(splat_module, "_INDEX_CHUNK", bound)
    monkeypatch.setattr(sceneio, "_RECORD_CHUNK", 64)
    gathered = []
    real = sceneio.SceneFile.gather
    monkeypatch.setattr(sceneio.SceneFile, "gather",
                        lambda self, ids: gathered.append(ids) or real(self, ids))
    out = tmp_path / "out.svox"
    code, _ = run(["splat", "--scene", str(scene_path), *grid_flags, *flags, "--out", str(out)])
    assert code == 0
    assert len(gathered) == gathers
    assert all(np.all(np.diff(ids) > 0) for ids in gathered)
    assert gathers == 10 or max(ids.size for ids in gathered) <= bound
    assert out.read_bytes() == expected


def test_checks_across_blocks_report_the_first_failing_check_exit_2(tmp_path, monkeypatch,
                                                                    capsys):
    # A zero scale at gaussian 4 and a NaN logit at gaussian 17, read in
    # blocks of 3 records and checked in blocks of 2 rows: the logits are
    # checked over the whole scene before the scales, so the logit is
    # reported, as read_scene reports it.
    path = tmp_path / "scene.sgau"
    classes = 5
    write_scene(_random_scene(np.random.default_rng(86), 23, 0.5, 3.5, 0.2, 0.7, classes), path)
    record = (10 + classes) * 4
    data = bytearray(path.read_bytes())
    data[16 + 4 * record + 5 * 4 : 16 + 4 * record + 6 * 4] = struct.pack("<f", 0.0)
    data[16 + 17 * record + 12 * 4 : 16 + 17 * record + 13 * 4] = struct.pack("<f", float("nan"))
    path.write_bytes(bytes(data))
    monkeypatch.setattr(sceneio, "_RECORD_CHUNK", 3)
    monkeypatch.setattr(importlib.import_module("gaussvox.core"), "_CHECK_ROWS", 2)
    out = tmp_path / "g.svox"
    code, _ = run(["splat", "--scene", str(path), *GRID_FLAGS, "--out", str(out)])
    assert code == 2
    message = f"gaussian 17: logits must be finite (at byte offset {16 + 17 * record})"
    assert message in capsys.readouterr().err
    assert not out.exists()
    with sceneio.SceneFile(path) as scene_file:
        with pytest.raises(FormatError) as e:
            splat_module.splat_chunks(scene_file, GridSpec((0, 0, 0), (0.5, 0.5, 0.5),
                                                           (8, 8, 8)))
    assert e.value.offset == 16 + 17 * record
    assert type(e.value.__cause__) is NonFiniteValueError
    assert e.value.__cause__.gaussian == 17


@pytest.mark.parametrize("change", ["nan", "mtime"])
def test_scene_file_changed_mid_splat_exits_2(tmp_path, monkeypatch, capsys, change):
    # One-layer slabs, each with its own gather of the file.  Once the
    # first slab's labels are taken, a NaN is written into the record of a
    # gaussian that only later slabs meet, with the mtime put back, or the
    # mtime is moved with the bytes unchanged.  A later gather finds either
    # change, by the rows' checks or by the mtime: exit 2, and the old
    # output stays.
    make, grid_flags = STREAM_CASES["labels-only"][:2]
    scene_path = tmp_path / "scene.sgau"
    scene = make(np.random.default_rng(87))
    write_scene(scene, scene_path)
    spec = cli._grid_spec(cli.build_parser().parse_args(
        ["splat", "--scene", "s", *grid_flags, "--out", "o"]))
    index = splat_module.build_splat_index(scene, spec, 3.0)
    late = np.flatnonzero((index.counts[:, 0] > 0) & (index.lo[:, 0] >= spec.dims[0] // 2))
    g = int(late[0])
    monkeypatch.setattr(splat_module, "_SLAB_BYTES", 1)
    monkeypatch.setattr(splat_module, "_INDEX_CHUNK", 1)
    real = splat_module._argmax_labels
    chunks = []

    def rewrite(scores):
        chunks.append(len(scores))
        if len(chunks) == 1:
            stat = scene_path.stat()
            if change == "nan":
                with open(scene_path, "r+b") as f:
                    f.seek(16 + g * (10 + scene.class_count) * 4)
                    f.write(struct.pack("<f", float("nan")))
            os.utime(scene_path, ns=(stat.st_atime_ns,
                                     stat.st_mtime_ns + (change == "mtime") * 10**9))
        return real(scores)

    monkeypatch.setattr(splat_module, "_argmax_labels", rewrite)
    out = tmp_path / "g.svox"
    out.write_bytes(b"the previous grid")
    code, _ = run(["splat", "--scene", str(scene_path), *grid_flags, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert 1 <= len(chunks) < spec.dims[0]
    if change == "mtime":
        assert "changed while it was open" in err
    else:
        offset = 16 + g * (10 + scene.class_count) * 4
        assert f"gaussian {g}: means must be finite (at byte offset {offset})" in err
    assert out.read_bytes() == b"the previous grid"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.svox", "scene.sgau"]


def test_stream_failing_part_way_leaves_the_old_file(small_scene, tmp_path, monkeypatch,
                                                     capsys):
    # One-layer slabs; the second slab's labels raise, as a full disk
    # would, once the first slab has gone to the temporary file.
    monkeypatch.setattr(splat_module, "_SLAB_BYTES", 1)
    real = splat_module._argmax_labels
    chunks = []

    def failing(scores):
        chunks.append(len(scores))
        if len(chunks) == 2:
            raise OSError("no space left on device")
        return real(scores)

    monkeypatch.setattr(splat_module, "_argmax_labels", failing)
    out = tmp_path / "g.svox"
    out.write_bytes(b"the previous grid")
    code, _ = run(["splat", "--scene", str(small_scene), *GRID_FLAGS, "--out", str(out)])
    assert code == 2
    assert "no space" in capsys.readouterr().err
    # The first slab, one 8x8 layer, went to the writer before the second failed.
    assert chunks == [64, 64]
    assert out.read_bytes() == b"the previous grid"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.svox", "scene.sgau"]
