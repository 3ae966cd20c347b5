"""``fit`` at several threads: worker processes that keep every bit and never outlive the call.

With ``threads`` N >= 2, ``fit`` forks N - 1 workers that run each
iteration in lockstep with the caller, splitting the splat, the loss, the
backward pass and the step.  These tests hold such fits to the one-process
fit bit for bit, on cases cut into many slabs, row blocks and pair runs, on
cases with fewer gaussians, rows or classes than ranks, and on one whose
pairs crowd into the first gaussians.  They check that each rank
back-propagates the gaussians it steps, that no arena array is taken
before the first round, that a worker's error reaches the caller as its
own type, and that no worker is left, however ``fit`` ends.
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
    assert (np.diff(index.voxel_starts) > 0).all() == (cutoff is None)
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
    assert not np.diff(build_splat_index(scene, spec, 3.0).voxel_starts).any()
    truth = truth_for(np.random.default_rng(92), spec, 2, ignored=0.0)
    config = FitConfig(iterations=2, s_min=0.1, s_max=1.0)
    base = fingerprint(fit(scene, truth, config))
    assert fingerprint(fit(scene, truth, config, threads=2)) == base
    assert_no_child_left()


def ignore_heavy_case():
    """The mixed case's scene against a truth with nine voxels of ten ignored."""
    scene, _, config = mixed_case(3.0)
    return scene, truth_for(np.random.default_rng(93), SPEC16, 4, ignored=0.9), config


def uncovered_case():
    """Three gaussians whose boxes all miss a 4^3 grid with ignored voxels."""
    spec = GridSpec((0.0, 0.0, 0.0), (0.5, 0.5, 0.5), (4, 4, 4))
    scene = GaussianScene(np.full((3, 3), 100.0), np.full((3, 3), 0.2),
                          np.tile([1.0, 0.0, 0.0, 0.0], (3, 1)), np.full((3, 2), 0.5))
    truth = truth_for(np.random.default_rng(94), spec, 2, ignored=0.3)
    return scene, truth, FitConfig(iterations=2, s_min=0.1, s_max=1.0)


def gaussian_heavy_case():
    """200 gaussians in exact mode on a 4^3 grid: their arrays outweigh the
    voxels'."""
    scene, truth = tiny_case(200, (4, 4, 4), 2)
    return scene, truth, FitConfig(iterations=2, s_min=0.1, s_max=1.0, cutoff_sigma=None)


def front_heavy_case():
    """24 gaussians on a 16^3 grid, the first 12 broad and the last 12
    narrow: the first half holds nearly every pair, so a split by pairs
    would differ from the ranks' split by count."""
    rng = np.random.default_rng(95)
    broad = random_scene(rng, 12, 4, -4.0, 4.0, 0.6, 1.0)
    narrow = random_scene(rng, 12, 4, -4.0, 4.0, 0.05, 0.1)
    scene = GaussianScene(*(np.concatenate([getattr(broad, k), getattr(narrow, k)])
                            for k in ("means", "scales", "rotations", "logits")))
    config = FitConfig(iterations=3, s_min=0.05, s_max=1.0)
    return scene, truth_for(rng, SPEC16, 4), config


CASES = {
    "mixed": lambda: mixed_case(3.0),
    "exact-mode": lambda: mixed_case(None),
    "ignore-heavy": ignore_heavy_case,
    "uncovered": uncovered_case,
    "gaussian-heavy": gaussian_heavy_case,
    "front-heavy": front_heavy_case,
}


@pytest.mark.parametrize("case", ["mixed", "exact-mode", "ignore-heavy", "uncovered",
                                  "front-heavy"])
def test_the_metrics_tally_the_rows_as_the_dense_grid(monkeypatch, case):
    # Rank 0 tallies the score rows alone; at every thread count each
    # matrix equals the dense tally of the same labels.  In exact mode every
    # voxel is covered, the grid has no voxel ids and the dense tally runs.
    scene, truth, config = CASES[case]()
    real, forms = fitter.confusion, []

    def tally(pred, truth, *args):
        cm = real(pred, truth, *args)
        dense = real(OccupancyGrid(pred.spec, pred.class_count, pred.labels), truth)
        assert np.array_equal(cm.counts, dense.counts), (case, len(forms))
        assert cm.ignore_count == dense.ignore_count
        forms.append(pred.voxels is None)
        return cm

    monkeypatch.setattr(fitter, "confusion", tally)
    base = fingerprint(fit(scene, truth, config))
    for threads in (2, 3):
        assert fingerprint(fit(scene, truth, config, threads=threads)) == base, threads
    assert forms == [case == "exact-mode"] * 3 * config.iterations
    assert_no_child_left()


@pytest.mark.parametrize("case", ["mixed", "exact-mode", "ignore-heavy", "gaussian-heavy"])
def test_the_arena_holds_every_shared_array(monkeypatch, case):
    # An arena too small for one grid's arrays fails only when that grid
    # comes, so the highest mark that rank 0 reaches is held to the bound.
    # On the gaussian-heavy case, the bound is within 5% of the mark.
    scene, truth, config = CASES[case]()
    real, tops = Team.empty, []

    def empty(team, *args, **kwargs):
        out = real(team, *args, **kwargs)
        tops.append(team._top)
        return out

    monkeypatch.setattr(Team, "empty", empty)
    for ranks in (2, 3, 4):
        tops.clear()
        fit(scene, truth, config, threads=ranks)
        bound = fitter._arena_bytes(truth.spec.num_voxels, truth.class_count, len(scene), ranks)
        assert 0 < max(tops) <= bound, (ranks, max(tops), bound)
        assert case != "gaussian-heavy" or max(tops) > 0.95 * bound, (ranks, max(tops), bound)
    assert_no_child_left()


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_each_rank_back_propagates_the_share_it_steps(monkeypatch, tmp_path, threads):
    # Every rank activates its share by count, in every iteration and once
    # more for the fitted scene, and passes ``backward_splat`` the same
    # parameters, those of that share, with the index of the same gaussians.
    # On the front-heavy case a split by pair counts gives rank 0 fewer.
    scene, truth, config = CASES["front-heavy"]()
    real_activate, real_backward = fitter._activate, fitter.backward_splat
    log = tmp_path / "calls"

    def note(*fields):
        with open(log, "a") as out:
            out.write(" ".join(map(str, (os.getpid(), *fields))) + "\n")

    def activate(team, mine, share, *args):
        note("activate", *share, len(mine.means), mine.means.ctypes.data)
        return real_activate(team, mine, share, *args)

    def backward(params, index, *args):
        note("backward", index.num_gaussians, len(params.means), params.means.ctypes.data)
        return real_backward(params, index, *args)

    monkeypatch.setattr(fitter, "_activate", activate)
    monkeypatch.setattr(fitter, "backward_splat", backward)
    fit(scene, truth, config, threads=threads)
    calls, held = {}, {}
    for pid, name, *numbers in (line.split() for line in log.read_text().splitlines()):
        *sizes, address = map(int, numbers)
        # Each rank's calls all read the one set of parameters that it steps.
        assert held.setdefault(pid, address) == address, (pid, name)
        calls.setdefault(int(pid), []).append((name, *sizes))
    shares = [team.span(np.arange(len(scene) + 1)) for team in ranks(threads)]
    want = [[("activate", a, b, b - a), ("backward", b - a, b - a)] * config.iterations
            + [("activate", a, b, b - a)] for a, b in shares]
    assert calls.pop(os.getpid()) == want[0]
    assert sorted(calls.values()) == sorted(want[1:])
    assert_no_child_left()


@pytest.mark.parametrize("threads", [2, 3])
def test_a_fit_takes_no_arena_array_before_its_first_round(monkeypatch, tmp_path, threads):
    # Every array of the arena lives for one iteration, so no rank takes
    # one before its first ``reset``.
    scene, truth, config = mixed_case(3.0)
    real_reset, real_empty = Team.reset, Team.empty
    log = tmp_path / "calls"

    def note(name):
        with open(log, "a") as out:
            out.write(f"{os.getpid()} {name}\n")

    def reset(team):
        note("reset")
        return real_reset(team)

    def empty(team, *args, **kwargs):
        note("empty")
        return real_empty(team, *args, **kwargs)

    monkeypatch.setattr(Team, "reset", reset)
    monkeypatch.setattr(Team, "empty", empty)
    fit(scene, truth, config, threads=threads)
    firsts = {}
    for pid, name in (line.split() for line in log.read_text().splitlines()):
        firsts.setdefault(pid, name)
    assert str(os.getpid()) in firsts and len(firsts) == threads
    assert set(firsts.values()) == {"reset"}, firsts
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
        team.barrier()
    assert_no_child_left()


def test_team_arrays_are_shared_and_reused():
    # Rank 1 writes its share of a shared array; rank 0 reads it after the
    # barrier.
    with Team(2, 1 << 12) as team:
        team.reset()
        shared = team.zeros(8, np.int64)
        lo, hi = team.span(np.arange(9))
        shared[lo:hi] = np.arange(lo, hi) * (team.rank + 1)
        team.barrier()
        seen = shared.copy()
    assert seen.tolist() == [0, 1, 2, 3, 8, 10, 12, 14]
    assert_no_child_left()

