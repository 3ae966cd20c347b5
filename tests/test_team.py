"""``fit`` at several threads: worker processes that keep every bit and never outlive the call.

With ``threads`` N >= 2, ``fit`` forks N - 1 workers that run each
iteration in lockstep with the caller, splitting the splat, the loss and the
backward pass.  These tests hold such fits to the one-process fit bit for
bit, on cases cut into many slabs, row blocks and pair runs, and on cases
with fewer gaussians, rows or classes than ranks.  They check that a
worker's error reaches the caller as its own type, and that no worker is
left, however ``fit`` ends.
"""

import dataclasses
import importlib
import os

import numpy as np
import pytest

from gaussvox import (
    DivergenceError,
    FitConfig,
    GaussianScene,
    GridSpec,
    NonFiniteValueError,
    OccupancyGrid,
    build_splat_index,
    fit,
)
from gaussvox.grid import IGNORE_LABEL
from gaussvox.team import Team
from test_splat import SPEC16, random_scene

fitter = importlib.import_module("gaussvox.fitter")
losses_module = importlib.import_module("gaussvox.losses")
splat_module = importlib.import_module("gaussvox.splat")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fingerprint(report):
    """The records without their times, and the fitted scene's bytes."""
    records = [{k: float(v).hex() if isinstance(v, float) else v
                for k, v in dataclasses.asdict(rec).items() if k != "millis"}
               for rec in report.records]
    scene = report.scene
    return records, [a.tobytes() for a in (scene.means, scene.scales, scene.rotations,
                                           scene.logits)]


def truth_for(rng, spec, classes, ignored=0.1):
    labels = rng.integers(0, classes, spec.num_voxels).astype(np.uint8)
    labels[rng.random(labels.size) < ignored] = IGNORE_LABEL
    return OccupancyGrid(spec, classes, labels)


def mixed_case(cutoff):
    """30 gaussians of 4 classes in one octant of a 16^3 grid, which their
    boxes cover in part at 3 sigma."""
    rng = np.random.default_rng(90)
    scene = random_scene(rng, 30, 4, -4.0, 0.0, 0.1, 0.7)
    config = FitConfig(iterations=3, s_min=0.05, s_max=1.0, cutoff_sigma=cutoff)
    return scene, truth_for(rng, SPEC16, 4), config


@pytest.mark.parametrize("cutoff", [3.0, None])
def test_fit_has_the_bits_of_one_process_at_any_thread_count(monkeypatch, cutoff):
    # Slabs of two x-layers, row blocks of 64 and runs of 300 pairs cut
    # every pass into many parts, so each rank takes several; boxes of more
    # than 300 pairs take the box path.
    monkeypatch.setattr(splat_module, "_SLAB_BYTES", 2 * 4 * 4 * 16 * 16)
    monkeypatch.setattr(splat_module, "_SLAB_PAIRS", 300)
    monkeypatch.setattr(splat_module, "_BOX_PAIRS", 300)
    scene, truth, config = mixed_case(cutoff)
    index = build_splat_index(scene, SPEC16, cutoff)
    pairs = np.diff(index.gaussian_starts)
    assert pairs.max() > 300 and (cutoff is None or 0 < pairs.min() <= 300)
    assert index.covered.all() == (cutoff is None)
    monkeypatch.setattr(losses_module, "_CHAIN_ROWS", 64)
    base = fingerprint(fit(scene, truth, config))
    for threads in (2, 3):
        assert fingerprint(fit(scene, truth, config, threads=threads)) == base, threads
    assert_no_child_left()


def tiny_case(gaussians, dims, classes):
    rng = np.random.default_rng(91)
    spec = GridSpec((0.0, 0.0, 0.0), (0.5, 0.5, 0.5), dims)
    scene = random_scene(rng, gaussians, classes, 0.0, 0.5 * min(dims), 0.2, 0.5)
    return scene, truth_for(rng, spec, classes, ignored=0.0)


@pytest.mark.parametrize("gaussians, dims, classes", [
    (1, (4, 4, 4), 3),  # fewer gaussians than ranks
    (5, (2, 1, 1), 2),  # fewer voxels, so rows and slabs, than ranks
    (6, (4, 4, 4), 1),  # fewer classes than ranks
])
def test_ranks_without_work_keep_the_bits(gaussians, dims, classes):
    scene, truth = tiny_case(gaussians, dims, classes)
    config = FitConfig(iterations=2, s_min=0.1, s_max=1.0)
    base = fingerprint(fit(scene, truth, config))
    assert fingerprint(fit(scene, truth, config, threads=4)) == base
    assert_no_child_left()


def test_a_fit_without_covered_voxels_keeps_the_bits():
    # Every box misses the grid, so the splat has no score rows at all.
    spec = GridSpec((0.0, 0.0, 0.0), (0.5, 0.5, 0.5), (4, 4, 4))
    scene = GaussianScene(np.full((3, 3), 100.0), np.full((3, 3), 0.2),
                          np.tile([1.0, 0.0, 0.0, 0.0], (3, 1)), np.full((3, 2), 0.5))
    assert not build_splat_index(scene, spec, 3.0).covered.any()
    truth = truth_for(np.random.default_rng(92), spec, 2, ignored=0.0)
    config = FitConfig(iterations=2, s_min=0.1, s_max=1.0)
    base = fingerprint(fit(scene, truth, config))
    assert fingerprint(fit(scene, truth, config, threads=2)) == base
    assert_no_child_left()


def in_worker_only(parent, action):
    """A stand-in that runs ``action`` in a worker, and the real function elsewhere."""
    def wrap(real):
        def call(*args, **kwargs):
            if os.getpid() != parent:
                action()
            return real(*args, **kwargs)
        return call
    return wrap


def raise_non_finite():
    raise NonFiniteValueError("means must be finite", 7)


@pytest.mark.parametrize("name, iterations", [
    ("backward_splat", 2),  # raised before a barrier
    ("refine_step", 1),     # raised after the last barrier
])
def test_a_worker_error_reaches_the_caller_as_its_type(monkeypatch, name, iterations):
    scene, truth, config = mixed_case(3.0)
    config = dataclasses.replace(config, iterations=iterations)
    wrap = in_worker_only(os.getpid(), raise_non_finite)
    monkeypatch.setattr(fitter, name, wrap(getattr(fitter, name)))
    with pytest.raises(NonFiniteValueError) as info:
        fit(scene, truth, config, threads=2)
    assert str(info.value) == "gaussian 7: means must be finite"
    assert info.value.gaussian == 7 and info.value.detail == "means must be finite"
    assert "raised in team worker 1" in info.value.__notes__[-1]
    assert_no_child_left()


def test_a_worker_that_dies_is_an_error(monkeypatch):
    scene, truth, config = mixed_case(3.0)
    wrap = in_worker_only(os.getpid(), lambda: os._exit(3))
    monkeypatch.setattr(fitter, "voxel_losses", wrap(fitter.voxel_losses))
    with pytest.raises(RuntimeError, match="team worker 1 ended"):
        fit(scene, truth, config, threads=3)
    assert_no_child_left()


def test_no_worker_outlives_a_divergence(monkeypatch):
    # Every rank finds the same non-finite loss at iteration 1 and raises.
    scene, truth, config = mixed_case(3.0)
    real = fitter.voxel_losses
    calls = []

    def diverge(*args, **kwargs):
        lb = real(*args, **kwargs)
        calls.append(1)
        if len(calls) == 2:
            lb.total = float("nan")
        return lb

    monkeypatch.setattr(fitter, "voxel_losses", diverge)
    with pytest.raises(DivergenceError, match="iteration 1"):
        fit(scene, truth, config, threads=2)
    assert_no_child_left()


def test_no_worker_outlives_an_interrupt_in_the_caller():
    scene, truth, config = mixed_case(3.0)

    def interrupt(record):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        fit(scene, truth, config, threads=2, log_fn=interrupt)
    assert_no_child_left()


@pytest.mark.parametrize("threads", [0, -1, 2.5, True, "x", None])
def test_threads_must_be_a_positive_int(threads):
    scene, truth = tiny_case(3, (4, 4, 4), 2)
    with pytest.raises(ValueError, match="threads"):
        fit(scene, truth, FitConfig(iterations=1), threads=threads)
    with pytest.raises(ValueError, match="threads"):
        build_splat_index(scene, truth.spec, 3.0, threads=threads)
    build_splat_index(scene, truth.spec, 3.0, threads=np.int64(2))


def ranks(size):
    """One unentered team per rank: their shares, without a fork."""
    teams = [Team(size) for _ in range(size)]
    for rank, team in enumerate(teams):
        team.rank = rank
    return teams


@pytest.mark.parametrize("running", [[0], [0, 0, 0], [0, 5], [0, 1, 2, 3, 4, 5, 6, 7],
                                     [0, 10, 10, 11, 30, 31]])
@pytest.mark.parametrize("size", [1, 2, 3, 5])
def test_spans_cover_the_items_once_in_rank_order(running, size):
    spans = [team.span(np.array(running)) for team in ranks(size)]
    assert spans[0][0] == 0 and spans[-1][1] == len(running) - 1
    assert all(lo <= hi for lo, hi in spans)
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    if running == [0, 1, 2, 3, 4, 5, 6, 7] and size == 2:
        assert spans == [(0, 4), (4, 7)]


@pytest.mark.parametrize("work", [[], [5.0], [3.0, 3.0, 3.0], [100.0, 1.0, 2.0, 50.0, 49.0]])
@pytest.mark.parametrize("size", [1, 2, 3])
def test_packs_take_every_item_once(work, size):
    packs = [team.pack(np.array(work)) for team in ranks(size)]
    assert sorted(np.concatenate(packs).tolist()) == list(range(len(work)))
    if work == [100.0, 1.0, 2.0, 50.0, 49.0] and size == 2:
        assert [p.tolist() for p in packs] == [[0, 1], [2, 3, 4]]


def test_a_team_of_one_forks_nothing_and_holds_numpy_arrays():
    with Team(1, 1 << 20) as team:
        team.reset()
        zeros = team.zeros((3, 2), np.float32)
        assert zeros.dtype == np.float32 and not zeros.any() and zeros.base is None
        assert team.region(zeros) is None
        team.barrier()
    assert_no_child_left()


def test_team_arrays_are_shared_and_reused():
    # Rank 1 writes its share of a shared array; rank 0 reads it after the
    # barrier.  An array laid over a dead one takes its pages.
    with Team(2, 1 << 12) as team:
        team.reset()
        shared = team.zeros(8, np.int64)
        lo, hi = team.span(np.arange(9))
        shared[lo:hi] = np.arange(lo, hi) * (team.rank + 1)
        team.barrier()
        seen = shared.copy()
        over = team.empty(4, np.float64, over=team.region(shared))
        assert team.region(over)[0] == team.region(shared)[0]
        wide = team.empty(16, np.float64, over=team.region(shared))
        assert team.region(wide)[0] >= team.region(shared)[1]
        team.barrier()
    assert seen.tolist() == [0, 1, 2, 3, 8, 10, 12, 14]
    assert_no_child_left()

