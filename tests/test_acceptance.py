"""Acceptance gate: eight end-to-end criteria with pinned tolerances.

Each test records a single PASS/FAIL line that the terminal summary hook in
conftest.py echoes at the end of the run.
"""

import io
import json
import os
import struct
import time

import conftest
import numpy as np
import pytest

from gaussvox import (
    CapacityError,
    FitConfig,
    FormatError,
    GaussianScene,
    GridSpec,
    OccupancyGrid,
    RawGaussianParams,
    build_splat_index,
    confusion,
    fit,
    gaussian_weight,
    miou,
    read_grid,
    read_scene,
    scene_completion_iou,
    splat,
    splat_oracle,
    voxel_losses,
    write_grid,
    write_scene,
)
from gaussvox.cli import main as cli_main
from gaussvox.cli import linear_fit, run_bench
from gaussvox.fitter import PARAM_KEYS, backward_splat
from gaussvox.splat import (frames_vjp, gaussian_frames, pair_weights, pair_weights_vjp,
                            vjp_moments)
from gaussvox.metrics import ConfusionMatrix

SPEC32 = GridSpec((-4.0, -4.0, -4.0), (0.25, 0.25, 0.25), (32, 32, 32))
CORPUS_SEED = 20240817
CORPUS_SIZE = 100


def report(name, ok, detail=""):
    suffix = f"  ({detail})" if detail else ""
    line = f"{name}: {'PASS' if ok else 'FAIL'}{suffix}"
    print(line)
    conftest.acceptance_lines.append(line)


def make_corpus():
    """Random scenes over a padded 32-cubed volume.

    Means extend one meter past the grid so border voxels see the same
    gaussian density as the interior; log-uniform scales mix primitives whose
    cutoff boxes truly cut with broad ones that cover the grid.
    """
    rng = np.random.default_rng(CORPUS_SEED)
    scenes = []
    origin = np.asarray(SPEC32.origin)
    extent = np.asarray(SPEC32.cell_size) * np.asarray(SPEC32.dims)
    for _ in range(CORPUS_SIZE):
        count = int(rng.integers(150, 201))
        c = int(rng.integers(2, 7))
        means = (origin - 1.0) + rng.random((count, 3)) * (extent + 2.0)
        scales = np.exp(rng.uniform(np.log(0.5), np.log(3.0), (count, 3)))
        rotations = rng.normal(size=(count, 4))
        rotations /= np.linalg.norm(rotations, axis=1, keepdims=True)
        logits = rng.normal(size=(count, c))
        sem = np.exp(logits - logits.max(axis=1, keepdims=True))
        sem /= sem.sum(axis=1, keepdims=True)
        scenes.append(
            GaussianScene(means.astype(np.float32), scales.astype(np.float32),
                          rotations.astype(np.float32), sem.astype(np.float32))
        )
    return scenes


_cache = {}


@pytest.fixture(scope="module")
def corpus():
    if "scenes" not in _cache:
        _cache["scenes"] = make_corpus()
    return _cache["scenes"]


def test_criterion_1_oracle_equivalence(corpus):
    t0 = time.perf_counter()
    oracles = []
    identical = True
    for scene in corpus:
        oracle = splat_oracle(scene, SPEC32)
        exact = splat(scene, SPEC32, cutoff_sigma=None)
        if not (np.array_equal(oracle.scores, exact.scores)
                and np.array_equal(oracle.labels, exact.labels)):
            identical = False
        oracles.append(oracle)
    elapsed = time.perf_counter() - t0
    _cache["oracles"] = oracles
    ok = identical and elapsed < 60.0
    report("criterion 1 oracle equivalence", ok,
           f"bitwise={identical}, {elapsed:.1f}s of 60s")
    assert identical, "exact-mode splat differs from the oracle"
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def test_criterion_2_cutoff_fidelity(corpus):
    oracles = _cache.get("oracles")
    if oracles is None:
        oracles = [splat_oracle(scene, SPEC32) for scene in corpus]
    worst_rel = 0.0
    worst_agree = 1.0
    for scene, oracle in zip(corpus, oracles):
        fast = splat(scene, SPEC32, cutoff_sigma=3.0)
        total = oracle.scores.sum(axis=1)
        significant = total > 1e-3
        if significant.any():
            err = np.abs(oracle.scores - fast.scores).sum(axis=1)
            rel = err[significant] / total[significant]
            worst_rel = max(worst_rel, float(rel.max()))
        occupied = significant & (oracle.labels != 0)
        if occupied.any():
            agree = float(np.mean(oracle.labels[occupied] == fast.labels[occupied]))
            worst_agree = min(worst_agree, agree)
    ok = worst_rel <= 0.02 and worst_agree >= 0.995
    report("criterion 2 cutoff fidelity", ok,
           f"worst rel err {worst_rel:.4f} of 0.02, "
           f"worst agreement {worst_agree:.4f} of 0.995")
    assert worst_rel <= 0.02
    assert worst_agree >= 0.995


def _weight_gradient_worst():
    rng = np.random.default_rng(42)
    h = 1e-4
    worst = 0.0
    for _ in range(1000):
        # Parameters rounded as a scene stores them: float32, the quaternion
        # normalized first.
        m = rng.normal(0.0, 2.0, 3).astype(np.float32).astype(np.float64)
        s = (0.2 + rng.random(3) * 1.3).astype(np.float32).astype(np.float64)
        q = rng.normal(size=4)
        q = (q / np.sqrt(np.dot(q, q))).astype(np.float32).astype(np.float64)
        rng.normal(size=3)  # semantics, which the weight does not use
        point = m + rng.normal(0.0, 1.0, 3) * s
        a, off = gaussian_frames(m[None], s[None], q[None])
        w, z = pair_weights(a, off, point[:, None])
        s_z, s_zz, _ = vjp_moments(pair_weights_vjp(np.zeros(1, dtype=np.intp), 1, w, z,
                                                    np.ones((1, 1)), np.ones((1, 1))))
        d_mean, d_scale, d_quat = (d[0] for d in frames_vjp(s[None], q[None], s_z, s_zz))
        analytic = np.concatenate([d_mean, d_scale, d_quat])
        fd = np.zeros(10)
        for block, base in ((m, 0), (s, 3), (q, 6)):
            for i in range(block.size):
                hi, lo = block.copy(), block.copy()
                hi[i] += h
                lo[i] -= h
                args = {0: (hi if base == 0 else m, s, q),
                        3: (m, hi if base == 3 else s, q),
                        6: (m, s, hi if base == 6 else q)}[base]
                argsl = {0: (lo if base == 0 else m, s, q),
                         3: (m, lo if base == 3 else s, q),
                         6: (m, s, lo if base == 6 else q)}[base]
                fd[base + i] = (
                    gaussian_weight(*args, point) - gaussian_weight(*argsl, point)
                ) / (2 * h)
        fd[6:] -= np.dot(fd[6:], q) * q
        ref = max(np.abs(analytic).max(), np.abs(fd).max(), 1e-8)
        worst = max(worst, np.abs(analytic - fd).max() / ref)
    return worst


def _loss_gradient_worst():
    rng = np.random.default_rng(45)
    spec = GridSpec((0, 0, 0), (1, 1, 1), (4, 4, 4))
    worst = 0.0
    for _ in range(5):
        n = spec.num_voxels
        c = int(rng.integers(2, 5))
        scores = rng.normal(size=(n, c)).astype(np.float32)
        labels = rng.integers(0, c, n).astype(np.uint8)
        labels[rng.random(n) < 0.1] = 255
        truth = OccupancyGrid(spec, c, labels)
        pred = OccupancyGrid(spec, c, np.argmax(scores, axis=1).astype(np.uint8),
                             scores)
        lb = voxel_losses(pred, truth)
        h = 1e-4
        for _ in range(40):
            v = int(rng.integers(0, n))
            k = int(rng.integers(0, c))
            sp, sm = scores.copy(), scores.copy()
            sp[v, k] += h
            sm[v, k] -= h
            step = float(sp[v, k]) - float(sm[v, k])
            gp = OccupancyGrid(spec, c, np.argmax(sp, axis=1).astype(np.uint8), sp)
            gm = OccupancyGrid(spec, c, np.argmax(sm, axis=1).astype(np.uint8), sm)
            fd = (voxel_losses(gp, truth).total - voxel_losses(gm, truth).total) / step
            ref = max(abs(lb.d_scores[v, k]), abs(fd), 1e-6)
            worst = max(worst, abs(lb.d_scores[v, k] - fd) / ref)
    return worst


def _end_to_end_gradient_worst():
    rng = np.random.default_rng(52)
    spec = GridSpec((-1.0, -1.0, -1.0), (0.25, 0.25, 0.25), (8, 8, 8))
    s_min, s_max = 0.05, 0.6
    h = 1e-3
    worst = 0.0

    def forward(params, truth):
        grid = splat(params.activate(s_min, s_max), spec, cutoff_sigma=None)
        return voxel_losses(grid, truth).total

    for _ in range(3):
        count = int(rng.integers(1, 5))
        c = int(rng.integers(2, 4))
        rotations = rng.normal(size=(count, 4))
        rotations /= np.linalg.norm(rotations, axis=1, keepdims=True)
        params = RawGaussianParams(
            means=rng.uniform(-0.8, 0.8, (count, 3)),
            raw_scales=rng.normal(0.0, 0.5, (count, 3)),
            rotations=rotations,
            raw_logits=rng.normal(0.0, 0.5, (count, c)),
        )
        truth = OccupancyGrid(
            spec, c, rng.integers(0, c, spec.num_voxels).astype(np.uint8)
        )
        scene = params.activate(s_min, s_max)
        index = build_splat_index(scene, spec, None)
        grid = splat(scene, spec, index=index)
        lb = voxel_losses(grid, truth)
        grads = backward_splat(params, index, spec, lb.d_scores, s_min, s_max)

        for key in PARAM_KEYS:
            arr = getattr(params, key)
            fd = np.zeros_like(arr)
            for idx in np.ndindex(arr.shape):
                saved = arr[idx]
                arr[idx] = saved + h
                fp = forward(params, truth)
                arr[idx] = saved - h
                fm = forward(params, truth)
                arr[idx] = saved
                fd[idx] = (fp - fm) / (2 * h)
            if key == "rotations":
                q = params.rotations
                fd = fd - np.sum(fd * q, axis=1, keepdims=True) * q
            ref = max(np.abs(grads[key]).max(), np.abs(fd).max(), 1e-6)
            worst = max(worst, np.abs(grads[key] - fd).max() / ref)
    return worst


def test_criterion_3_gradient_suite():
    w1 = _weight_gradient_worst()
    w2 = _loss_gradient_worst()
    w3 = _end_to_end_gradient_worst()
    ok = w1 < 1e-4 and w2 < 1e-4 and w3 < 1e-3
    report("criterion 3 gradient suite", ok,
           f"weight {w1:.2e} of 1e-4, loss {w2:.2e} of 1e-4, "
           f"end-to-end {w3:.2e} of 1e-3")
    assert w1 < 1e-4
    assert w2 < 1e-4
    assert w3 < 1e-3


def _octant_instance():
    """Eight well-separated gaussians whose splat is the recovery target."""
    spec = GridSpec((-2.0, -2.0, -2.0), (0.25, 0.25, 0.25), (16, 16, 16))
    class_count = 9
    corners = np.array(
        [[x, y, z] for x in (-1.0, 1.0) for y in (-1.0, 1.0) for z in (-1.0, 1.0)],
        dtype=np.float32,
    )
    count = corners.shape[0]
    scales = np.full((count, 3), 0.2, dtype=np.float32)
    rotations = np.zeros((count, 4), dtype=np.float32)
    rotations[:, 0] = 1.0
    sem = np.full((count, class_count), 0.02 / (class_count - 1), dtype=np.float32)
    sem[np.arange(count), np.arange(1, count + 1)] = 0.98
    truth_scene = GaussianScene(corners, scales, rotations, sem)
    truth = splat(truth_scene, spec, cutoff_sigma=None)
    truth.scores = None
    return spec, truth_scene, truth


def test_criterion_4_fit_recovery():
    spec, truth_scene, truth = _octant_instance()
    rng = np.random.default_rng(11)
    jitter = rng.normal(0.0, 0.5 * spec.cell_size[0], truth_scene.means.shape)
    initial = GaussianScene(
        truth_scene.means + jitter.astype(np.float32),
        truth_scene.scales, truth_scene.rotations, truth_scene.logits,
    )
    config = FitConfig(iterations=500, learning_rate=0.01, weight_decay=0.0,
                       cutoff_sigma=None, seed=0)
    t0 = time.perf_counter()
    fit_report = fit(initial, truth, config)
    elapsed = time.perf_counter() - t0

    final = splat(fit_report.scene, spec, cutoff_sigma=None)
    cm = confusion(final, truth)
    _, final_miou = miou(cm)
    losses = fit_report.losses
    max_rise = float(np.max(np.diff(losses[50:])))

    ok = final_miou >= 0.9 and elapsed < 120.0 and max_rise <= 1e-4
    report("criterion 4 fit recovery", ok,
           f"mIoU {final_miou:.3f} of 0.9, {elapsed:.1f}s of 120s, "
           f"max loss rise after iter 50 = {max_rise:.2e} of 1e-4")
    assert final_miou >= 0.9
    assert elapsed < 120.0
    assert max_rise <= 1e-4


def test_criterion_5_linear_scaling():
    counts = [25600, 38400, 51200, 91200, 144000]
    spec = GridSpec((-50.0, -50.0, -5.0), (0.5, 0.5, 0.5), (200, 200, 16))
    rows = run_bench(counts, spec, cutoff=3.0, class_count=18, s_max=0.3,
                     seed=0, repeats=5, threads=1)
    latencies = [r[1] for r in rows]
    peaks = [r[2] for r in rows]
    _, _, r2 = linear_fit(counts, latencies)
    slope, intercept, _ = linear_fit(counts, peaks)
    fitted = [slope * c + intercept for c in counts]
    mem_dev = max(abs(p - f) / f for p, f in zip(peaks, fitted))

    ok = r2 >= 0.9 and mem_dev <= 0.2
    report("criterion 5 linear scaling", ok,
           f"latency R^2 {r2:.4f} of 0.9, worst memory deviation "
           f"{mem_dev:.3f} of 0.2")
    assert r2 >= 0.9, f"latency R^2 {r2:.4f}"
    assert mem_dev <= 0.2, f"memory deviation {mem_dev:.3f}"


def test_criterion_6_metrics_unit_suite():
    spec = GridSpec((0, 0, 0), (1, 1, 1), (2, 2, 2))

    def grid(labels):
        return OccupancyGrid(spec, 3, np.asarray(labels, dtype=np.uint8))

    checks = []
    # TP=3 FP=1 FN=2 -> IoU 0.5
    counts = np.array([[2, 1], [2, 3]], dtype=np.int64)
    per_class, _ = miou(ConfusionMatrix(counts, 0))
    checks.append(per_class[1] == 0.5)
    # all-ignore tallies
    cm = confusion(grid([0, 1, 2, 0, 1, 2, 0, 1]), grid([255] * 8))
    checks.append(bool(np.all(cm.counts == 0)) and cm.ignore_count == 8)
    # permutation invariance of both metrics
    rng = np.random.default_rng(32)
    t = rng.integers(0, 3, 8).astype(np.uint8)
    p = rng.integers(0, 3, 8).astype(np.uint8)
    perm = np.array([0, 2, 1], dtype=np.uint8)
    _, m_a = miou(confusion(grid(p), grid(t)))
    _, m_b = miou(confusion(grid(perm[p]), grid(perm[t])))
    checks.append(abs(m_a - m_b) < 1e-12)
    sc_a = scene_completion_iou(confusion(grid(p), grid(t)))
    sc_b = scene_completion_iou(confusion(grid(perm[p]), grid(perm[t])))
    checks.append(abs(sc_a - sc_b) < 1e-12)
    # perfect prediction
    labels = [0, 1, 2, 0, 1, 2, 1, 2]
    per_class, mean = miou(confusion(grid(labels), grid(labels)))
    checks.append(mean == 1.0 and bool(np.all(per_class == 1.0)))

    ok = all(checks)
    report("criterion 6 metrics unit suite", ok, f"{sum(checks)}/{len(checks)} cases")
    assert ok


def _run_cli(argv):
    out = io.StringIO()
    code = cli_main(argv, stdout=out)
    return code, out.getvalue()


def test_criterion_7_cli_determinism(tmp_path):
    rng = np.random.default_rng(71)
    count = 40
    means = rng.uniform(0.5, 3.5, (count, 3)).astype(np.float32)
    scales = (0.1 + rng.random((count, 3)) * 0.5).astype(np.float32)
    rotations = rng.normal(size=(count, 4)).astype(np.float32)
    rotations /= np.linalg.norm(rotations, axis=1, keepdims=True)
    sem = rng.random((count, 3)).astype(np.float32)
    scene_path = tmp_path / "scene.sgau"
    write_scene(GaussianScene(means, scales, rotations, sem), scene_path)

    shapes_path = tmp_path / "shapes.json"
    shapes_path.write_text(json.dumps([
        {"kind": "box", "cls": 1, "min": [1, 1, 1], "max": [3, 3, 3]},
    ]))
    grid_flags = ["--dims", "8,8,8", "--origin", "0,0,0", "--cell", "0.5,0.5,0.5"]
    max_threads = str(os.cpu_count() or 1)

    results = {}
    ok = True

    def check(tag, argv_fn, out_name=None, runs=3):
        nonlocal ok
        outputs = []
        for run_idx in range(runs):
            for threads in ("1", "4", max_threads):
                out_file = tmp_path / f"{tag}_{run_idx}_{threads}"
                code, text = _run_cli(argv_fn(str(out_file), threads))
                if code != 0:
                    ok = False
                outputs.append(out_file.read_bytes() if out_name else text.encode())
        same = all(o == outputs[0] for o in outputs)
        results[tag] = same
        if not same:
            ok = False

    check("splat",
          lambda out, th: ["splat", "--scene", str(scene_path), *grid_flags,
                           "--threads", th, "--out", out],
          out_name=True)
    check("gen",
          lambda out, th: ["gen", *grid_flags, "--shapes", str(shapes_path),
                           "--out", out],
          out_name=True)
    check("fit",
          lambda out, th: ["fit", "--truth", str(tmp_path / "gen_0_1"),
                           "--count", "4", "--iters", "3", "--exact",
                           "--smin", "0.05", "--smax", "0.8", "--seed", "5",
                           "--threads", th, "--out", out],
          out_name=True)

    # eval and info write only to stdout
    grid_a = tmp_path / "eval_in.svox"
    _run_cli(["splat", "--scene", str(scene_path), *grid_flags, "--out", str(grid_a)])
    eval_outputs = []
    info_outputs = []
    for _ in range(3):
        _, text = _run_cli(["eval", "--pred", str(grid_a), "--truth", str(grid_a)])
        eval_outputs.append(text)
        _, text = _run_cli(["info", str(grid_a)])
        info_outputs.append(text)
    results["eval"] = all(t == eval_outputs[0] for t in eval_outputs)
    results["info"] = all(t == info_outputs[0] for t in info_outputs)
    ok = ok and results["eval"] and results["info"]

    # bench stdout carries wall-clock measurements; the deterministic part is
    # the benchmark scene itself, checked through the splat of the same seed.
    detail = ", ".join(f"{k}={'ok' if v else 'DIFF'}" for k, v in results.items())
    report("criterion 7 CLI determinism", ok, detail)
    assert ok, detail


def test_criterion_8_format_robustness(tmp_path):
    rng = np.random.default_rng(81)
    scene = GaussianScene(
        rng.normal(size=(4, 3)).astype(np.float32),
        (0.1 + rng.random((4, 3))).astype(np.float32),
        np.tile([1, 0, 0, 0], (4, 1)).astype(np.float32),
        rng.random((4, 3)).astype(np.float32),
    )
    scene_path = tmp_path / "scene.sgau"
    write_scene(scene, scene_path)
    scene_bytes = scene_path.read_bytes()

    spec = GridSpec((0, 0, 0), (1, 1, 1), (4, 4, 4))
    grid = OccupancyGrid(spec, 3, np.zeros(64, np.uint8),
                         np.zeros((64, 3), np.float32))
    grid_path = tmp_path / "grid.svox"
    write_grid(grid, grid_path)
    grid_bytes = grid_path.read_bytes()

    def patched(base, offset, payload):
        data = bytearray(base)
        data[offset:offset + len(payload)] = payload
        return bytes(data)

    mutations = [
        # scene file faults
        ("scene bad magic", read_scene, patched(scene_bytes, 0, b"XXXX")),
        ("scene zeroed magic", read_scene, patched(scene_bytes, 0, b"\x00\x00\x00\x00")),
        ("scene bad version", read_scene, patched(scene_bytes, 4, struct.pack("<H", 2))),
        ("scene version 0", read_scene, patched(scene_bytes, 4, struct.pack("<H", 0))),
        ("scene zero classes", read_scene, patched(scene_bytes, 6, struct.pack("<H", 0))),
        ("scene truncated header", read_scene, scene_bytes[:10]),
        ("scene truncated records", read_scene, scene_bytes[:-5]),
        ("scene extra bytes", read_scene, scene_bytes + b"\x00\x00\x00"),
        ("scene count mismatch", read_scene, patched(scene_bytes, 8, struct.pack("<Q", 99))),
        ("scene empty file", read_scene, b""),
        # grid file faults
        ("grid bad magic", read_grid, patched(grid_bytes, 0, b"VOXS")),
        ("grid bad version", read_grid, patched(grid_bytes, 4, struct.pack("<H", 7))),
        ("grid zero classes", read_grid, patched(grid_bytes, 6, struct.pack("<H", 0))),
        ("grid zero dims", read_grid, patched(grid_bytes, 8, struct.pack("<III", 0, 4, 4))),
        ("grid oversize dims", read_grid,
         patched(grid_bytes, 8, struct.pack("<III", 1 << 20, 1 << 20, 1 << 20))),
        ("grid bad payload kind", read_grid, patched(grid_bytes, 44, b"\x07")),
        ("grid truncated payload", read_grid, grid_bytes[:-9]),
        ("grid truncated header", read_grid, grid_bytes[:20]),
        ("grid bad cell size", read_grid,
         patched(grid_bytes, 32, struct.pack("<f", -1.0))),
        ("grid label out of range", read_grid, None),  # built below
    ]
    # labels-only grid with an out-of-range class value
    labels_grid = OccupancyGrid(spec, 3, np.zeros(64, np.uint8))
    labels_path = tmp_path / "labels.svox"
    write_grid(labels_grid, labels_path)
    bad_labels = bytearray(labels_path.read_bytes())
    bad_labels[-1] = 200
    mutations[-1] = ("grid label out of range", read_grid, bytes(bad_labels))

    assert len(mutations) == 20
    failures = []
    for name, reader, data in mutations:
        path = tmp_path / "mutant.bin"
        path.write_bytes(data)
        try:
            reader(path)
            failures.append(f"{name}: accepted")
        except (FormatError, CapacityError):
            pass
        except Exception as e:  # noqa: BLE001 - anything else is a defect
            failures.append(f"{name}: {type(e).__name__}")
        # the CLI must also reject it cleanly with a data-error exit code
        code, _ = _run_cli(["info", str(path)])
        if code != 2:
            failures.append(f"{name}: cli exit {code}")

    ok = not failures
    report("criterion 8 format robustness", ok,
           f"{20 - len(failures)}/20 rejected cleanly" if ok else "; ".join(failures))
    assert ok, failures
