"""Fuzz test of the command line: drawn flag values and gen shape lists.

Every run of ``main`` on an 8x8x4 grid must exit 0, 1 or 2, raise no
warning, and leave only files that read back.  A non-zero exit must write
one ``error:`` line and no traceback, and leave no output or temporary
file.  Gaussian counts are drawn at most 64 or far past the capacity cap,
and ``--threads`` only from 0 to 3 and non-integers, because each thread is
a process.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussvox import (GaussianScene, gen_synthetic, read_grid, read_scene, write_grid,
                      write_scene)
from gaussvox.cli import main
from gaussvox.grid import GridSpec

SPEC = GridSpec((0.0, 0.0, 0.0), (0.5, 0.5, 0.5), (8, 8, 4))
HUGE_INT = str(10 ** 30)
# Each kind of flag value: plain ones, odd ones that parse, being
# non-finite, huge, tiny or negative, and ones that do not, a usage error.
FLOATS = (["0.05", "0.5", "1", "3"],
          ["nan", "inf", "-inf", "1e300", "-1e300", "1e-300", "-1e-300", "1e39", "1e-46", "-1",
           "0", HUGE_INT], ["", "abc", "1,2", "0x10"])
INTS = (["0", "1", "2"], ["-1", "-3", HUGE_INT], ["1.5", "nan", "", "abc"])
THREADS = (["1", "2"], ["3"], ["0", "1.5", "-1", "two", ""])
# Gaussian counts: at most 64, or far past the cap.
COUNTS = (["1", "8", "64"], ["100000000000", HUGE_INT, "0", "-5"], ["1.5", "nan", "abc"])
BENCH_COUNTS = (["1", "8", "20", "64"], ["100000000000"], ["0", "-5", "1.5", "abc"])
DIMS = (["8,8,4"], ["0,8,4", "8,-1,4", "100000,100000,100000"], ["8,8", "a,b,c", "1.5,8,4"])
TRIPLES = (["0,0,0", "0.5,0.5,0.5", "-1,0.25,2"],
           ["nan,0,0", "0,inf,0", "1e300,1,1", "1e-300,1,1", "1e39,0,0", "-1,0.5,0.5",
            "0,0,-1e300"], ["0,0", "0,0,0,0", "a,0,0", "0,,0"])


@st.composite
def flag_value(draw, kind):
    """A value of ``kind``: mostly a plain one, often an odd one, now and then
    one that does not parse."""
    plain, odd, unparsed = kind
    pick = draw(st.integers(0, 15))
    return draw(st.sampled_from(plain if pick < 9 else odd if pick < 15 else unparsed))


@st.composite
def some_flags(draw, table):
    """A drawn subset of ``table``'s flags, each with a drawn value (None: a switch)."""
    flags = {}
    for flag, values in table.items():
        if draw(st.integers(0, 3)) == 3:
            flags[flag] = None if values is None else draw(values)
    return flags


def grid_flags():
    """--dims, --origin and --cell: the 8x8x4 grid's, or drawn."""
    return some_flags({"--dims": flag_value(DIMS), "--origin": flag_value(TRIPLES),
                       "--cell": flag_value(TRIPLES)}).map(
        lambda drawn: {"--dims": "8,8,4", "--origin": "0,0,0", "--cell": "0.5,0.5,0.5", **drawn})


def argv_of(flags):
    return [flag if value is None else f"{flag}={value}" for flag, value in flags.items()]


FIT_FLAGS = {
    "--init": st.sampled_from(["uniform", "jittered-grid"]),
    "--count": flag_value(COUNTS),
    "--jitter": flag_value(FLOATS),
    "--iters": st.sampled_from(["1", "2", "0", "-1"]),
    "--lr": flag_value(FLOATS),
    "--weight-decay": flag_value(FLOATS),
    "--smin": flag_value(FLOATS),
    "--smax": flag_value(FLOATS),
    "--cutoff": flag_value(FLOATS),
    "--exact": None,
    "--ce-weight": flag_value(FLOATS),
    "--lovasz-weight": flag_value(FLOATS),
    "--lr-schedule": st.sampled_from(["constant", "cosine"]),
    "--warmup-iters": flag_value(INTS),
    "--seed": flag_value(INTS),
    "--threads": flag_value(THREADS),
}
BENCH_FLAGS = {
    "--repeats": st.sampled_from(["1", "2"]),
    "--cutoff": flag_value(FLOATS),
    "--smax": flag_value(FLOATS),
    "--class-count": flag_value((["1", "3", "255"], ["256", "0", "-1", HUGE_INT], ["x"])),
    "--seed": flag_value(INTS),
    "--threads": flag_value(THREADS),
}
SPLAT_FLAGS = {
    "--cutoff": flag_value(FLOATS),
    "--exact": None,
    "--labels-only": None,
    "--threads": flag_value(THREADS),
}
GEN_FLAGS = {"--class-count": flag_value((["1", "4", "255"], ["256", "0", "-3", HUGE_INT],
                                          ["1.5", "x"]))}

# JSON values a shape field may hold: right and wrong types, lengths and values.
FIELD_VALUES = st.one_of(
    st.sampled_from([None, True, "1", 0, 1, -1, 2.5, 254, 255, 1e300, 10 ** 400,
                     float("nan"), float("inf"), -float("inf"), "x", "z", "torus", 5, {}]),
    st.lists(st.sampled_from([0, 1, 3.5, -2, None, "1", float("nan"), float("inf"), 1e300]),
             max_size=4),
)


@st.composite
def shape_lists(draw):
    """A JSON value for --shapes: mostly a list of shapes, some malformed."""
    if draw(st.integers(0, 9)) == 9:
        return draw(st.sampled_from([None, {}, 3, "shapes", {"kind": "box"}]))
    shapes = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["box", "sphere", "plane"]))
        shape = {"kind": kind, "cls": draw(st.integers(0, 3)),
                 **{"box": {"min": [0.5, 0.5, 0.5], "max": [2.5, 2.5, 1.5]},
                    "sphere": {"center": [2.0, 2.0, 1.0], "radius": 1.2},
                    "plane": {"axis": "z", "offset": 1.0, "thickness": 0.5}}[kind]}
        if draw(st.integers(0, 2)) == 2:  # a malformed shape
            field = draw(st.sampled_from(["kind", "cls", "min", "max", "center", "radius",
                                          "axis", "offset", "thickness"]))
            if draw(st.booleans()):
                shape.pop(field, None)
            else:
                shape[field] = draw(FIELD_VALUES)
        if draw(st.integers(0, 9)) == 9:
            shape = draw(FIELD_VALUES)
        shapes.append(shape)
    return shapes


def _inputs(workdir):
    """Write the runs' input files: a truth grid, a scene and (by the caller) shapes."""
    truth = gen_synthetic(SPEC, [{"kind": "box", "cls": 1, "min": [0.5, 0.5, 0.5],
                                  "max": [2.5, 2.5, 1.5]}], 3)
    write_grid(truth, os.path.join(workdir, "truth.svox"))
    rng = np.random.default_rng(5)
    n = 12
    rotations = rng.normal(size=(n, 4))
    rotations /= np.linalg.norm(rotations, axis=1, keepdims=True)
    sem = rng.random((n, 3)) + 0.1
    scene = GaussianScene((rng.random((n, 3)) * [4.0, 4.0, 2.0]).astype(np.float32),
                          (0.2 + 0.3 * rng.random((n, 3))).astype(np.float32),
                          rotations.astype(np.float32), (sem / sem.sum(1, keepdims=True))
                          .astype(np.float32))
    write_scene(scene, os.path.join(workdir, "scene.sgau"))


def _read_back(path):
    """Read an output file back as its kind; a log must hold whole records."""
    if path.endswith(".svox"):
        read_grid(path)
    elif path.endswith(".sgau"):
        read_scene(path)
    else:
        with open(path) as f:
            records = f.read().splitlines()
        assert records and all(line.startswith("iter=") for line in records), records


def check_run(argv, shapes=None):
    """Run ``main`` on ``argv`` in a fresh directory holding the input files.

    Every file the run leaves must read back.  A failed run may leave only
    a fit's ``--log``, ``fit.log``, with the records of the iterations that
    it finished.
    """
    with tempfile.TemporaryDirectory() as workdir:
        _inputs(workdir)
        if shapes is not None:
            with open(os.path.join(workdir, "shapes.json"), "w") as f:
                json.dump(shapes, f)
        before = set(os.listdir(workdir))
        cwd = os.getcwd()
        err = io.StringIO()
        os.chdir(workdir)
        try:
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = main(argv, stdout=io.StringIO())
        finally:
            os.chdir(cwd)
        text = err.getvalue()
        assert code in (0, 1, 2), (argv, code, text)
        assert not caught, (argv, [str(w.message) for w in caught])
        left = set(os.listdir(workdir)) - before
        for name in left:
            _read_back(os.path.join(workdir, name))
    if code:
        lines = text.splitlines()
        assert sum(line.startswith("error:") for line in lines) == 1, (argv, text)
        assert lines[0].startswith("error:") and "Traceback" not in text, (argv, text)
        assert left <= {"fit.log"}, (argv, code, text, left)


SETTINGS = settings(derandomize=True, max_examples=300, deadline=None)


@SETTINGS
@given(some_flags(FIT_FLAGS), st.booleans(), st.booleans())
def test_fit_flags_exit_cleanly(flags, with_scene, with_log):
    argv = ["fit", "--truth", "truth.svox", "--out", "fit.sgau", *argv_of(flags)]
    if "--iters" not in flags:
        argv.append("--iters=1")
    if with_scene:
        argv.append("--scene=scene.sgau")
    if with_log:
        argv.append("--log=fit.log")
    check_run(argv)


@SETTINGS
@given(some_flags(GEN_FLAGS), grid_flags(), shape_lists(),
       st.sampled_from([None, "g.sgau"] * 3 + ["g.svox", "./g.svox"]))
def test_gen_flags_and_shapes_exit_cleanly(flags, grid, shapes, scene_out):
    argv = ["gen", "--shapes", "shapes.json", "--out", "g.svox", *argv_of(grid),
            *argv_of(flags)]
    if scene_out is not None:
        argv.append(f"--scene-out={scene_out}")
    check_run(argv, shapes)


@SETTINGS
@given(some_flags(BENCH_FLAGS), grid_flags(),
       st.lists(flag_value(BENCH_COUNTS), min_size=2, max_size=3, unique=True))
def test_bench_flags_exit_cleanly(flags, grid, counts):
    argv = ["bench", f"--counts={','.join(counts)}", *argv_of(grid), *argv_of(flags)]
    if "--repeats" not in flags:
        argv.append("--repeats=1")
    check_run(argv)


@SETTINGS
@given(some_flags(SPLAT_FLAGS), grid_flags())
def test_splat_flags_exit_cleanly(flags, grid):
    check_run(["splat", "--scene", "scene.sgau", "--out", "g.svox", *argv_of(grid),
               *argv_of(flags)])
