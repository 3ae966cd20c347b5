"""Tests for the semantic Gaussian primitive, the pair kernel and its VJP."""

import importlib
import tracemalloc

import numpy as np
import pytest

from gaussvox import (
    DegenerateRotationError,
    FitConfig,
    GaussianScene,
    InvalidScaleError,
    NonFiniteValueError,
    RawGaussianParams,
    gaussian_weight,
    quat_to_rotation,
)
from gaussvox.splat import (frames_vjp, gaussian_frames, pair_weights, pair_weights_vjp,
                            vjp_moments)

SQ2 = np.sqrt(2.0) / 2.0


def stored(mean, scale, rotation):
    """Parameters rounded as a scene stores them: float32, unit quaternion."""
    q = np.asarray(rotation, dtype=np.float64)
    q = (q / np.sqrt(np.dot(q, q))).astype(np.float32)
    return (np.asarray(mean, dtype=np.float32), np.asarray(scale, dtype=np.float32), q)


def kernel_weight(params, point):
    """The splat kernel's weight of one gaussian at one point."""
    a, off = gaussian_frames(*(x[None] for x in params))
    w, _ = pair_weights(a, off, np.asarray(point, dtype=np.float64)[:, None])
    return float(w[0])


def kernel_weight_grad(params, point):
    """Weight and its gradients w.r.t. mean, scale and quaternion, from the VJP."""
    m, s, q = (x[None] for x in params)
    a, off = gaussian_frames(m, s, q)
    w, z = pair_weights(a, off, np.asarray(point, dtype=np.float64)[:, None])
    s_z, s_zz, _ = vjp_moments(
        pair_weights_vjp(np.zeros(1, dtype=np.intp), 1, w, z, np.ones((1, 1)), np.ones((1, 1))))
    d_mean, d_scale, d_quat = frames_vjp(s, q, s_z, s_zz)
    return float(w[0]), d_mean[0], d_scale[0], d_quat[0]


def inverse_covariance(scale, rotation):
    """Sigma^-1 = A A^T from the kernel geometry A = R diag(1/s)."""
    a = gaussian_frames(np.zeros((1, 3)), [scale], [rotation])[0][:, :, 0]
    return a @ a.T


def covariance(scale, rotation):
    return np.linalg.inv(inverse_covariance(scale, rotation))


def random_gaussian(rng, class_count=3):
    mean = rng.normal(0.0, 2.0, 3)
    scale = 0.1 + rng.random(3) * 1.5
    rotation = rng.normal(size=4)
    rng.normal(size=class_count)  # semantics, which the weight does not use
    return stored(mean, scale, rotation)


def test_identity_quaternion():
    assert np.allclose(quat_to_rotation([1, 0, 0, 0]), np.eye(3))


def test_quaternion_90deg_about_z():
    r = quat_to_rotation([SQ2, 0, 0, SQ2])
    assert np.allclose(r @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0])


def test_quaternion_normalized_internally():
    assert np.allclose(quat_to_rotation([2, 0, 0, 0]), np.eye(3))


def test_quaternion_near_zero_rejected():
    with pytest.raises(DegenerateRotationError):
        quat_to_rotation([0, 0, 0, 1e-13])


def test_rotation_matrix_orthonormal():
    rng = np.random.default_rng(3)
    for _ in range(50):
        q = rng.normal(size=4)
        r = quat_to_rotation(q)
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-9)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)


def test_quaternion_batch_matches_rows():
    qs = np.random.default_rng(2).normal(size=(2, 5, 4))
    rows = [[quat_to_rotation(q) for q in batch] for batch in qs]
    assert np.array_equal(quat_to_rotation(qs), np.array(rows))


def test_covariance_identity_rotation():
    cov = covariance([1, 2, 3], [1, 0, 0, 0])
    assert np.allclose(cov, np.diag([1.0, 4.0, 9.0]))


def test_covariance_rotated():
    # 90 degrees about z swaps the x and y variances.
    cov = covariance([1, 2, 1], [SQ2, 0, 0, SQ2])
    assert np.allclose(cov, np.diag([4.0, 1.0, 1.0]), atol=1e-12)


def test_covariance_isotropic_rotation_invariant():
    rng = np.random.default_rng(4)
    for _ in range(20):
        q = rng.normal(size=4)
        cov = covariance([0.7, 0.7, 0.7], q)
        assert np.allclose(cov, 0.49 * np.eye(3), atol=1e-9)


def test_covariance_sign_flip_invariant():
    rng = np.random.default_rng(5)
    for _ in range(20):
        q = rng.normal(size=4)
        s = 0.1 + rng.random(3)
        a = covariance(s, q)
        b = covariance(s, -q)
        assert np.allclose(a, b, atol=1e-9)


def test_covariance_spd():
    rng = np.random.default_rng(6)
    for _ in range(20):
        cov = covariance(0.1 + rng.random(3), rng.normal(size=4))
        assert np.allclose(cov, cov.T, atol=1e-9)
        assert np.all(np.linalg.eigvalsh(cov) > 0)


def _scene(scales, rotations):
    n = len(scales)
    return GaussianScene(np.zeros((n, 3)), scales, rotations, np.ones((n, 1)))


def test_nonpositive_scale_rejected():
    with pytest.raises(InvalidScaleError):
        _scene([[1, 0, 1]], [[1, 0, 0, 0]])
    with pytest.raises(InvalidScaleError):
        _scene([[1, 1, 1], [1, -1, 1]], [[1, 0, 0, 0]] * 2)


def test_scene_rejects_degenerate_quaternion():
    with pytest.raises(DegenerateRotationError):
        _scene([[1, 1, 1], [1, 1, 1]], [[1, 0, 0, 0], [0, 0, 0, 1e-13]])


def _valid_fields(n=3):
    return {
        "means": np.zeros((n, 3)),
        "scales": np.ones((n, 3)),
        "rotations": np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)),
        "logits": np.ones((n, 2)),
    }


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["means", "logits"])
def test_scene_rejects_non_finite_mean_or_semantics(field, bad):
    fields = _valid_fields()
    fields[field][2, 1] = bad
    with pytest.raises(NonFiniteValueError, match=f"gaussian 2: {field}"):
        GaussianScene(**fields)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_scene_rejects_non_finite_scale(bad):
    fields = _valid_fields()
    fields["scales"][1, 0] = bad
    with pytest.raises(InvalidScaleError, match="gaussian 1"):
        GaussianScene(**fields)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_scene_rejects_non_finite_quaternion(bad):
    fields = _valid_fields()
    fields["rotations"][1, 3] = bad
    with pytest.raises(DegenerateRotationError, match="gaussian 1"):
        GaussianScene(**fields)


core = importlib.import_module("gaussvox.core")


@pytest.mark.parametrize("rows", [1, 2, 5, 1 << 14])
def test_scene_checks_in_blocks_raise_the_first_failing_check(monkeypatch, rows):
    # A zero scale at gaussian 1 and a NaN logit at gaussian 7, in different
    # blocks unless one block holds the scene.  The logits are checked over
    # the whole scene before the scales, so the logit is reported.
    monkeypatch.setattr(core, "_CHECK_ROWS", rows)
    fields = _valid_fields(9)
    fields["scales"][1, 2] = 0.0
    fields["logits"][7, 0] = np.nan
    fields["rotations"][8] = 0.0
    with pytest.raises(NonFiniteValueError, match="gaussian 7: logits") as e:
        GaussianScene(**fields)
    assert e.value.gaussian == 7
    fields["logits"][7, 0] = 1.0
    with pytest.raises(InvalidScaleError, match="gaussian 1: scale") as e:
        GaussianScene(**fields)
    fields["means"][4, 1] = np.inf
    with pytest.raises(NonFiniteValueError, match="gaussian 4: means"):
        GaussianScene(**fields)


def test_scene_checks_hold_one_block_of_temporaries(monkeypatch):
    # The checks' masks and float64 quaternion squares exist for one block
    # of rows.  Measured: 66 bytes per row of a 1,024-row block; the
    # whole-scene checks peaked at 2.6 MB on these 65,536 gaussians.
    monkeypatch.setattr(core, "_CHECK_ROWS", 1024)
    rng = np.random.default_rng(19)
    count, classes = 1 << 16, 18
    rotations = rng.normal(size=(count, 4))
    fields = [rng.normal(size=(count, 3)), 0.1 + rng.random((count, 3)),
              rotations / np.linalg.norm(rotations, axis=1, keepdims=True),
              rng.random((count, classes))]
    fields = [np.asarray(f, dtype=np.float32) for f in fields]
    tracemalloc.start()
    try:
        GaussianScene(*fields)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 96 * 1024, peak


def test_evaluate_at_mean_returns_logits():
    params = stored([1, 2, 3], [0.5, 0.5, 0.5], [1, 0, 0, 0])
    logits = np.asarray([0.2, 0.7, 0.1], dtype=np.float32)
    out = kernel_weight(params, [1, 2, 3]) * logits.astype(np.float64)
    assert np.allclose(out, [0.2, 0.7, 0.1], atol=1e-7)


def test_evaluate_unit_offset():
    params = stored([0, 0, 0], [1, 1, 1], [1, 0, 0, 0])
    out = kernel_weight(params, [1, 0, 0]) * np.array([1.0, 0.0])
    assert out[0] == pytest.approx(np.exp(-0.5), rel=1e-7)
    assert out[1] == 0.0


def test_weight_at_six_sigma_negligible():
    w = kernel_weight(stored([0, 0, 0], [1, 1, 1], [1, 0, 0, 0]), [6, 0, 0])
    assert w == pytest.approx(np.exp(-18.0), rel=1e-9)
    assert w < 1.6e-8


def test_weight_range_and_peak():
    rng = np.random.default_rng(7)
    for _ in range(100):
        params = random_gaussian(rng)
        m, s, _ = params
        # stay within a few standard deviations so exp cannot underflow
        p = m.astype(np.float64) + rng.normal(0.0, 2.0, 3) * s
        w = kernel_weight(params, p)
        assert 0.0 < w <= 1.0
        assert kernel_weight(params, m) == pytest.approx(1.0)


def test_evaluate_rotation_consistent():
    # Rotating both the gaussian and the query point must not change the weight.
    rng = np.random.default_rng(8)
    for _ in range(30):
        mean = rng.normal(size=3)
        scale = 0.2 + rng.random(3)
        point = rng.normal(0.0, 2.0, 3)
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        extra = rng.normal(size=4)
        extra /= np.linalg.norm(extra)
        r_extra = quat_to_rotation(extra)
        # quaternion product extra * q rotates by r_extra after q
        w0, x0, y0, z0 = extra
        w1, x1, y1, z1 = q
        combined = [
            w0 * w1 - x0 * x1 - y0 * y1 - z0 * z1,
            w0 * x1 + x0 * w1 + y0 * z1 - z0 * y1,
            w0 * y1 - x0 * z1 + y0 * w1 + z0 * x1,
            w0 * z1 + x0 * y1 - y0 * x1 + z0 * w1,
        ]
        a = gaussian_weight(mean, scale, q, point)
        b = gaussian_weight(r_extra @ mean, scale, combined, r_extra @ point)
        assert b == pytest.approx(a, abs=1e-9)


def test_weight_grad_zero_at_mean():
    params = stored([1, -1, 2], [0.3, 0.6, 0.9], [0.5, 0.5, 0.5, 0.5])
    w, d_mean, d_scale, d_quat = kernel_weight_grad(params, [1, -1, 2])
    assert w == pytest.approx(1.0)
    assert np.allclose(d_mean, 0.0)
    assert np.allclose(d_scale, 0.0)
    assert np.allclose(d_quat, 0.0)


def test_weight_grad_isotropic_mean_direction():
    # For an isotropic gaussian the mean gradient is w * (p - m) / sigma^2.
    sigma = 0.8
    params = stored([0, 0, 0], [sigma] * 3, [1, 0, 0, 0])
    p = np.array([0.3, -0.2, 0.5])
    w, d_mean, _, _ = kernel_weight_grad(params, p)
    assert np.allclose(d_mean, w * p / sigma**2, atol=1e-9)


def _project_tangent(vec, q):
    return vec - np.dot(vec, q) * q


def test_weight_grad_matches_finite_differences():
    # Central differences against the float64 weight evaluation; base
    # parameters are rounded to float32 first so both sides see the exact
    # stored values.
    rng = np.random.default_rng(42)
    h = 1e-4
    worst = 0.0
    for _ in range(1000):
        # scales from 0.2 keep the h^2 truncation error of the quotient well
        # below the acceptance threshold
        m32, s32, q32 = stored(
            rng.normal(0.0, 2.0, 3), 0.2 + rng.random(3) * 1.3, rng.normal(size=4)
        )
        rng.normal(size=3)  # semantics, which the weight does not use
        point = m32.astype(np.float64) + rng.normal(0.0, 1.0, 3) * s32
        m = m32.astype(np.float64)
        s = s32.astype(np.float64)
        q = q32.astype(np.float64)
        w, d_mean, d_scale, d_quat = kernel_weight_grad((m32, s32, q32), point)

        analytic = np.concatenate([d_mean, d_scale, d_quat])
        fd = np.zeros(10)
        for i in range(3):
            mp, mm = m.copy(), m.copy()
            mp[i] += h
            mm[i] -= h
            fd[i] = (
                gaussian_weight(mp, s, q, point) - gaussian_weight(mm, s, q, point)
            ) / (2 * h)
        for i in range(3):
            sp, sm = s.copy(), s.copy()
            sp[i] += h
            sm[i] -= h
            fd[3 + i] = (
                gaussian_weight(m, sp, q, point) - gaussian_weight(m, sm, q, point)
            ) / (2 * h)
        for i in range(4):
            qp, qm = q.copy(), q.copy()
            qp[i] += h
            qm[i] -= h
            fd[6 + i] = (
                gaussian_weight(m, s, qp, point) - gaussian_weight(m, s, qm, point)
            ) / (2 * h)
        # gaussian_weight normalizes the quaternion, so its finite differences
        # live in the tangent space already; project to compare like for like.
        fd[6:] = _project_tangent(fd[6:], q)

        scale_ref = max(np.abs(analytic).max(), np.abs(fd).max(), 1e-8)
        rel = np.abs(analytic - fd).max() / scale_ref
        worst = max(worst, rel)
    assert worst < 1e-4, f"worst relative error {worst:.3e}"


def _activate(raw_scale, raw_logits, s_min, s_max):
    params = RawGaussianParams(
        means=np.zeros((1, 3)), raw_scales=np.reshape(raw_scale, (1, 3)),
        rotations=[[1.0, 0, 0, 0]], raw_logits=np.reshape(raw_logits, (1, -1)),
    )
    scene = params.activate(s_min, s_max)
    return scene.scales[0], scene.logits[0]


def test_activate_midpoint():
    scale, sem = _activate(np.zeros(3), np.zeros(4), s_min=0.01, s_max=0.3)
    assert np.allclose(scale, 0.155)
    assert np.allclose(sem, 0.25)


def test_activate_saturation_and_range():
    # Scenes store float32, so the saturated ends are the float32 bounds.
    scale, _ = _activate(np.array([50.0, -50.0, 0.0]), np.zeros(2), 0.01, 0.3)
    assert scale[0] == pytest.approx(np.float32(0.3), abs=1e-9)
    assert scale[1] == pytest.approx(np.float32(0.01), abs=1e-9)
    rng = np.random.default_rng(10)
    for _ in range(50):
        s, sem = _activate(rng.normal(0, 5, 3), rng.normal(0, 5, 6), 0.01, 0.3)
        assert np.all((s > 0.01) & (s < 0.3))
        assert sem.sum() == pytest.approx(1.0, abs=1e-6)
        assert np.all(sem > 0)


def test_activate_rejects_bad_bounds():
    # The scale bounds are validated where a fit takes them.
    with pytest.raises(ValueError):
        FitConfig(s_min=0.3, s_max=0.1)
