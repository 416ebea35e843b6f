import math
import re
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demoaug import imageaug
from demoaug.data import Action, EntityState, Provenance, RobotState, Timestep, Trajectory
from demoaug.errors import ColorJitterRefused, ConfigError, InvariantViolation, IoFailure
from demoaug.geometry import Pose, quat_from_rotvec, quat_multiply, quat_normalize
from demoaug.imageaug import (
    VisualAugConfig,
    _contrast_mean,
    _convolve_axis,
    _jitter,
    _reflect,
    _resize_bilinear,
    channel_permute,
    check_color_ops_allowed,
    color_jitter,
    gaussian_blur,
    gaussian_kernel,
    hsv_to_rgb,
    proprio_noise,
    random_resized_crop,
    read_ppm,
    rgb_to_hsv,
    write_ppm,
)
from demoaug.render import rasterize_state
from demoaug.rng import derive_stream
from demoaug.sim import reset


@pytest.fixture(scope="module")
def fixture_image(request):
    task = request.getfixturevalue("stack_task")
    return rasterize_state(reset(task, 31), task, size=64)


def test_crop_identity_bit_exact(fixture_image):
    cfg = VisualAugConfig(crop_scale=(1.0, 1.0), output_hw=fixture_image.shape[:2])
    out = random_resized_crop(fixture_image, cfg, derive_stream(0, "crop"))
    assert np.array_equal(out, fixture_image)


def test_crop_output_shape_contract(fixture_image):
    cfg = VisualAugConfig(crop_scale=(0.5, 0.9), output_hw=(48, 40))
    out = random_resized_crop(fixture_image, cfg, derive_stream(1, "crop"))
    assert out.shape == (48, 40, 3)
    assert out.dtype == np.uint8


def test_crop_deterministic_under_seed(fixture_image):
    cfg = VisualAugConfig(crop_scale=(0.5, 0.9), output_hw=(32, 32))
    a = random_resized_crop(fixture_image, cfg, derive_stream(7, "crop"))
    b = random_resized_crop(fixture_image, cfg, derive_stream(7, "crop"))
    assert np.array_equal(a, b)


def test_jitter_identity_factors_bit_exact(fixture_image):
    cfg = VisualAugConfig(brightness=0.0, contrast=0.0, saturation=0.0, hue=0.0)
    out = color_jitter(fixture_image, cfg, derive_stream(2, "jit"))
    assert np.array_equal(out, fixture_image)


class _ForcedRng:
    """Deterministic stand-in handing out scripted jitter factors."""

    def __init__(self, b=1.0, c=1.0, s=1.0, h=0.0):
        self.values = [b, c, s, h]
        self.i = 0

    def uniform(self, lo, hi):
        v = self.values[self.i]
        self.i += 1
        return v


def test_jitter_brightness_zero_blacks_out(fixture_image):
    out = color_jitter(fixture_image, VisualAugConfig(brightness=1.0), _ForcedRng(b=0.0))
    assert np.all(out == 0)


def test_jitter_hue_full_turn_round_trips(fixture_image):
    out = color_jitter(fixture_image, VisualAugConfig(hue=2 * np.pi), _ForcedRng(h=2 * np.pi))
    diff = np.abs(out.astype(np.int16) - fixture_image.astype(np.int16))
    assert diff.max() <= 1


def test_hsv_round_trip():
    rng = np.random.default_rng(0)
    rgb = rng.random((17, 13, 3))
    back = hsv_to_rgb(rgb_to_hsv(rgb))
    assert np.allclose(back, rgb, atol=1e-12)


def test_channel_permute_definition():
    img = np.zeros((2, 2, 3), dtype=np.uint8)
    img[0, 0] = (10, 20, 30)
    out = channel_permute(img, (2, 0, 1))
    assert tuple(out[0, 0]) == (30, 10, 20)
    assert np.array_equal(channel_permute(img, (0, 1, 2)), img)


def test_channel_permute_inverse_round_trip(fixture_image):
    perm = (2, 0, 1)
    inverse = (1, 2, 0)
    out = channel_permute(channel_permute(fixture_image, perm), inverse)
    assert np.array_equal(out, fixture_image)


def test_channel_permute_invalid():
    img = np.zeros((2, 2, 3), dtype=np.uint8)
    with pytest.raises(InvariantViolation, match=r"\(0, 0, 1\) is not a permutation of \(0, 1, 2\)"):
        channel_permute(img, (0, 0, 1))


def test_blur_sigma_zero_identity(fixture_image):
    assert np.array_equal(gaussian_blur(fixture_image, 0.0), fixture_image)


def test_blur_kernel_normalized():
    for sigma in (0.4, 1.0, 2.7):
        k = gaussian_kernel(sigma)
        assert len(k) == 2 * int(np.ceil(3 * sigma)) + 1
        assert abs(k.sum() - 1.0) <= 1e-12


def test_blur_constant_image_unchanged():
    img = np.full((9, 9, 3), 137, dtype=np.uint8)
    assert np.array_equal(gaussian_blur(img, 1.3), img)


def test_blur_impulse_reproduces_kernel():
    sigma = 1.0
    k = gaussian_kernel(sigma)
    r = len(k) // 2
    size = 4 * r + 1
    img = np.zeros((size, size, 3), dtype=np.uint8)
    img[size // 2, size // 2] = 255
    out = gaussian_blur(img, sigma).astype(np.float64)
    expected = np.zeros((size, size))
    expected[size // 2 - r : size // 2 + r + 1, size // 2 - r : size // 2 + r + 1] = np.outer(k, k) * 255
    assert np.max(np.abs(out[..., 0] - np.rint(expected))) <= 1.0


def test_proprio_noise_identity_at_zero(stack_demos):
    traj = stack_demos.trajectories[0]
    assert proprio_noise(traj, 0.0, derive_stream(0, "pn")) is traj


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -0.1])
def test_proprio_noise_rejects_bad_sigma(stack_demos, sigma):
    with pytest.raises(ConfigError):
        proprio_noise(stack_demos.trajectories[0], sigma, derive_stream(0, "pn"))


def test_proprio_noise_statistics(stack_demos):
    sigma = 0.01
    traj = stack_demos.trajectories[0]
    deltas = []
    rng = derive_stream(4, "pn")
    # accumulate >= 1e5 samples over repeated noisings
    reps = int(np.ceil(100_000 / (len(traj) * 3)))
    for _ in range(reps):
        noisy = proprio_noise(traj, sigma, rng)
        for ts_o, ts_n in zip(traj.timesteps, noisy.timesteps):
            deltas.append(ts_n.robots[0].eef_pose.position - ts_o.robots[0].eef_pose.position)
            # actions byte-identical, entities untouched
            assert ts_n.actions == ts_o.actions
            assert ts_n.entities == ts_o.entities
    deltas = np.concatenate(deltas)
    assert deltas.size >= 100_000
    assert abs(deltas.mean()) <= 3 * sigma / np.sqrt(deltas.size) * 3
    assert abs(deltas.std() - sigma) <= 0.02 * sigma


def reference_proprio_noise(traj, sigma, rng):
    """proprio_noise as it was before the bulk draw: two 3-value draws per
    robot state, and the time step and robot state rebuilt through replace."""
    if sigma == 0.0:
        return traj
    new_steps = []
    for ts in traj.timesteps:
        robots = []
        for robot in ts.robots:
            pos = robot.eef_pose.position + rng.normal(0.0, sigma, 3)
            rotvec = rng.normal(0.0, sigma, 3)
            ori = quat_normalize(quat_multiply(quat_from_rotvec(rotvec), robot.eef_pose.orientation))
            robots.append(replace(robot, eef_pose=Pose(pos, ori)))
        new_steps.append(replace(ts, robots=tuple(robots)))
    return replace(traj, timesteps=tuple(new_steps))


def _trajectory(seed: int, n_steps: int) -> Trajectory:
    rng = np.random.default_rng(seed)

    def pose():
        return Pose(rng.uniform(-1.0, 1.0, 3), quat_normalize(rng.normal(0.0, 1.0, 4)))

    steps = tuple(
        Timestep(
            t,
            (EntityState("block", pose()),),
            (RobotState(pose(), rng.uniform(0.0, 1.0)),),
            (Action(pose(), rng.uniform(0.0, 1.0)),),
            phase=t // 2,
            interp=t % 3 == 1,
        )
        for t in range(n_steps)
    )
    return Trajectory("tr", steps, True, Provenance.SE3_SYNTHETIC)


@settings(max_examples=150, deadline=None)
@given(
    sigma=st.one_of(st.just(0.0), st.sampled_from([5e-324, 1e-12, 0.01]), st.floats(1e-9, 2.0)),
    n_steps=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_proprio_noise_equals_per_step_draws(sigma, n_steps, seed):
    traj = _trajectory(seed, n_steps)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = proprio_noise(traj, sigma, rng)
    want = reference_proprio_noise(traj, sigma, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert (got.traj_id, got.success, got.provenance) == (want.traj_id, want.success, want.provenance)
    assert len(got) == len(want)
    for a, b in zip(got.timesteps, want.timesteps):
        assert (a.t, a.phase, a.interp, a.entities, a.actions) == (b.t, b.phase, b.interp, b.entities, b.actions)
        assert [r.gripper_aperture for r in a.robots] == [r.gripper_aperture for r in b.robots]
        for ra, rb in zip(a.robots, b.robots):
            assert ra.eef_pose.position.tobytes() == rb.eef_pose.position.tobytes()
            assert ra.eef_pose.orientation.tobytes() == rb.eef_pose.orientation.tobytes()


def test_proprio_noise_perturbs_orientation(stack_demos):
    traj = stack_demos.trajectories[0]
    noisy = proprio_noise(traj, 0.05, derive_stream(5, "pn"))
    qs = [ts.robots[0].eef_pose.orientation for ts in noisy.timesteps]
    assert all(abs(np.linalg.norm(q) - 1.0) <= 1e-9 for q in qs)
    assert any(
        not np.array_equal(a.robots[0].eef_pose.orientation, b.robots[0].eef_pose.orientation)
        for a, b in zip(traj.timesteps, noisy.timesteps)
    )


def test_color_sensitivity_guard():
    check_color_ops_allowed(False)
    check_color_ops_allowed(True, force=True)
    with pytest.raises(ColorJitterRefused):
        check_color_ops_allowed(True)


def test_visual_config_validation():
    with pytest.raises(ConfigError):
        VisualAugConfig(crop_scale=(0.0, 1.0))
    with pytest.raises(ConfigError):
        VisualAugConfig(crop_scale=(0.9, 0.5))
    with pytest.raises(ConfigError):
        VisualAugConfig(blur_sigma=(1.0, 0.5))


JITTER_WIDTHS = ("brightness", "contrast", "saturation", "hue")


@pytest.mark.parametrize(
    "name, bad",
    [pytest.param(name, bad, id=f"{name}-{bad}")
     for name in (*JITTER_WIDTHS, "blur_sigma") for bad in (math.nan, math.inf)]
    # past the widest range whose factors stay finite in float32
    + [pytest.param(name, bad, id=f"{name}-{bad:g}") for name in JITTER_WIDTHS for bad in (1e19, 1e308)],
)
def test_visual_config_rejects_non_finite(name, bad):
    value = (0.0, bad) if name == "blur_sigma" else bad
    with pytest.raises(ConfigError):
        VisualAugConfig(**{name: value})


@pytest.mark.parametrize(
    "factors",
    [lambda w: (1 + w, 1 + w, 1 + w, w), lambda w: (0.0, 1 + w, 0.0, -w), lambda w: (1 + w, 0.0, 1.0, 0.0)],
    ids=["largest", "smallest", "bright_flat"],
)
def test_jitter_at_the_widest_ranges_stays_finite(fixture_image, factors):
    width = imageaug._MAX_JITTER_WIDTH
    cfg = VisualAugConfig(**{name: width for name in JITTER_WIDTHS})
    with np.errstate(over="raise", invalid="raise"):
        out = color_jitter(fixture_image, cfg, _ForcedRng(*factors(width)))
        color_jitter(fixture_image, cfg, derive_stream(0, "jit"))
    assert out.dtype == np.uint8


# 1e8: a radius past the bound, which numpy would allocate gigabytes for;
# 1e300: the radius does not fit an array; 1e308: 3 sigma is inf
@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf, -0.5, 1e8, 1e300, 1e308])
def test_blur_rejects_bad_sigma(sigma):
    with pytest.raises(ConfigError):
        gaussian_blur(np.zeros((4, 4, 3), dtype=np.uint8), sigma)


def test_blur_radius_bound_is_inclusive():
    bound = imageaug._MAX_BLUR_RADIUS
    assert len(gaussian_kernel(bound / 3.0)) == 2 * bound + 1
    with pytest.raises(ConfigError):
        gaussian_kernel((bound + 1e-6) / 3.0)


# 2 sigma^2 is 0 below about 1.6e-162, and 1 / (2 sigma^2) overflows below
# about 5e-155; the kernel's formula underflows to [0, 1, 0] from there up
@pytest.mark.parametrize("sigma", [5e-324, 1e-200, 1e-160, 1e-100])
def test_a_tiny_blur_sigma_is_the_identity(sigma):
    img = np.random.default_rng(4).integers(0, 256, (9, 7, 3), dtype=np.uint8)
    with np.errstate(all="raise"):
        assert gaussian_kernel(sigma).tolist() == [0.0, 1.0, 0.0]
        assert_same(gaussian_blur(img, sigma), img)


def test_the_kernel_formula_gives_the_identity_at_the_cutoff():
    # the formula runs from _IDENTITY_SIGMA up, and already gives [0, 1, 0] there
    assert gaussian_kernel(imageaug._IDENTITY_SIGMA).tolist() == [0.0, 1.0, 0.0]


def test_reflect_equals_np_pad():
    for n in range(1, 41):
        for radius in range(91):
            want = np.pad(np.arange(n), radius, mode="reflect")
            got = _reflect(n, radius)
            assert got.dtype == want.dtype and np.array_equal(got, want), (n, radius)


def test_ppm_round_trip(tmp_path, fixture_image):
    path = tmp_path / "img.ppm"
    write_ppm(path, fixture_image)
    back = read_ppm(path)
    assert np.array_equal(back, fixture_image)
    raw = path.read_bytes()
    assert raw.startswith(b"P6\n64 64\n255\n")


@pytest.mark.parametrize(
    "header, message",
    [
        (b"P6\nxx 2\n255\n", "width 'xx' is not an integer of at most 9 digits"),
        (b"P6\n2 2.5\n255\n", "height '2.5' is not an integer of at most 9 digits"),
        (b"P6\n2 -2\n255\n", "height '-2' is not an integer of at most 9 digits"),
        (b"P6\n" + b"1" * 5000 + b" 2\n255\n", f"width '{'1' * 5000}' is not an integer of at most 9 digits"),
        (b"P6", "width is missing"),
        (b"P6\n2 2\n", "maxval is missing"),
        (b"P6\n0 0\n255\n", "a 0x0 image is empty"),
        (b"P6\n3 0\n255\n", "a 3x0 image is empty"),
    ],
    ids=["width_not_a_number", "height_not_an_integer", "height_negative", "width_too_long", "no_width", "no_maxval",
         "empty", "no_rows"],
)
def test_ppm_malformed_header_is_an_io_failure(tmp_path, header, message):
    path = tmp_path / "bad.ppm"
    path.write_bytes(header)
    with pytest.raises(IoFailure, match=f"bad.ppm: malformed PPM header: {re.escape(message)}$"):
        read_ppm(path)


# ---------------------------------------------------------------------------
# image ops never alias or write to their input


IMAGE_OPS = {
    "crop": lambda img: random_resized_crop(
        img, VisualAugConfig(crop_scale=(0.5, 0.9), output_hw=(40, 36)), derive_stream(0, "crop")
    ),
    "crop_same_size": lambda img: random_resized_crop(
        img, VisualAugConfig(crop_scale=(1.0, 1.0)), derive_stream(0, "crop")
    ),
    "jitter": lambda img: color_jitter(
        img, VisualAugConfig(brightness=0.3, contrast=0.3, saturation=0.3, hue=0.3), derive_stream(0, "jit")
    ),
    "jitter_zero": lambda img: color_jitter(img, VisualAugConfig(), derive_stream(0, "jit")),
    "permute": lambda img: channel_permute(img, (2, 0, 1)),
    "permute_identity": lambda img: channel_permute(img, (0, 1, 2)),
    "blur": lambda img: gaussian_blur(img, 1.2),
    "blur_zero": lambda img: gaussian_blur(img, 0.0),
}


@pytest.mark.parametrize("op", list(IMAGE_OPS.values()), ids=list(IMAGE_OPS))
def test_image_ops_leave_input_untouched(op):
    img = np.random.default_rng(3).integers(0, 256, (33, 29, 3), dtype=np.uint8)
    before = img.tobytes()
    out = op(img)
    assert img.tobytes() == before
    assert not np.shares_memory(out, img)
    assert out.dtype == np.uint8 and out.flags.c_contiguous


@pytest.mark.parametrize("shape", [(0, 0, 3), (0, 4, 3), (4, 0, 3)], ids=["0x0", "0x4", "4x0"])
@pytest.mark.parametrize("op", list(IMAGE_OPS.values()), ids=list(IMAGE_OPS))
def test_image_ops_refuse_an_empty_frame(op, shape):
    with pytest.raises(InvariantViolation, match=re.escape(f"with H, W >= 1, got uint8 {shape}")):
        op(np.zeros(shape, dtype=np.uint8))


# ---------------------------------------------------------------------------
# the numpy kernels the image ops replaced, kept as references: run in
# float32 (the `dtype` argument), every op must give the same bytes (see the
# "Bit-identity rules" in demoaug.imageaug); run in float64, as the ops ran
# before they moved to float32, every op must stay within 1 level


def ref_rgb_to_hsv(rgb):
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    maxc = np.max(rgb, axis=-1)
    minc = np.min(rgb, axis=-1)
    v = maxc
    delta = maxc - minc
    s = np.where(maxc > 0, delta / np.where(maxc > 0, maxc, 1.0), 0.0)
    safe = np.where(delta > 0, delta, 1.0)
    rc = (maxc - r) / safe
    gc = (maxc - g) / safe
    bc = (maxc - b) / safe
    h = np.where(r == maxc, bc - gc, np.where(g == maxc, 2.0 + rc - bc, 4.0 + gc - rc))
    h = np.where(delta > 0, (h / 6.0) % 1.0, 0.0)
    return np.stack([h, s, v], axis=-1)


def ref_hsv_to_rgb(hsv):
    h, s, v = hsv[..., 0], hsv[..., 1], hsv[..., 2]
    i = np.floor(h * 6.0).astype(np.int64) % 6
    f = h * 6.0 - np.floor(h * 6.0)
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    choices_r = [v, q, p, p, t, v]
    choices_g = [t, v, v, q, p, p]
    choices_b = [p, p, t, v, v, q]
    r = np.select([i == k for k in range(6)], choices_r)
    g = np.select([i == k for k in range(6)], choices_g)
    b = np.select([i == k for k in range(6)], choices_b)
    return np.stack([r, g, b], axis=-1)


def ref_resize_bilinear(img_f, out_h, out_w):
    """Bilinear resize of a float image, with weights of its dtype."""
    h, w = img_f.shape[:2]
    ys = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    wy = (ys - y0).astype(img_f.dtype)[:, None, None]
    wx = (xs - x0).astype(img_f.dtype)[None, :, None]
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    top = img_f[y0[:, None], x0[None, :]] * (1 - wx) + img_f[y0[:, None], x1[None, :]] * wx
    bot = img_f[y1[:, None], x0[None, :]] * (1 - wx) + img_f[y1[:, None], x1[None, :]] * wx
    return top * (1 - wy) + bot * wy


def ref_random_resized_crop(img, cfg, rng, dtype=np.float64):
    h, w = img.shape[:2]
    out_h, out_w = cfg.output_hw if cfg.output_hw is not None else (h, w)
    scale = float(rng.uniform(cfg.crop_scale[0], cfg.crop_scale[1]))
    side = np.sqrt(scale)
    crop_h = max(1, int(round(h * side)))
    crop_w = max(1, int(round(w * side)))
    top = int(rng.integers(0, h - crop_h + 1))
    left = int(rng.integers(0, w - crop_w + 1))
    crop = img[top : top + crop_h, left : left + crop_w]
    if (crop_h, crop_w) == (out_h, out_w):
        return crop.copy()
    resized = ref_resize_bilinear(crop.astype(dtype), out_h, out_w)
    return np.clip(np.rint(resized), 0, 255).astype(np.uint8)


def ref_color_jitter(img, cfg, rng, dtype=np.float64):
    b = float(rng.uniform(max(0.0, 1.0 - cfg.brightness), 1.0 + cfg.brightness))
    c = float(rng.uniform(max(0.0, 1.0 - cfg.contrast), 1.0 + cfg.contrast))
    s = float(rng.uniform(max(0.0, 1.0 - cfg.saturation), 1.0 + cfg.saturation))
    hue_delta = float(rng.uniform(-cfg.hue, cfg.hue))
    if b == 1.0 and c == 1.0 and s == 1.0 and hue_delta == 0.0:
        return img.copy()
    out = ref_jitter(img, b, c, s, hue_delta, dtype)
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def ref_jitter(img, b, c, s, hue_delta, dtype=np.float64):
    out = img.astype(dtype)
    if b != 1.0:
        out = out * b
    if c != 1.0:
        # float32 scales the image's exact mean by b (imageaug._contrast_mean),
        # float64 took the mean of the brightness-scaled image
        mean = out.mean() if dtype == np.float64 else float(img.mean(dtype=np.float64)) * b
        out = (out - mean) * c + mean
    if s != 1.0 or hue_delta != 0.0:
        hsv = ref_rgb_to_hsv(np.clip(out, 0.0, 255.0) / 255.0)
        if s != 1.0:
            hsv[..., 1] = np.clip(hsv[..., 1] * s, 0.0, 1.0)
        if hue_delta != 0.0:
            hsv[..., 0] = (hsv[..., 0] + hue_delta / (2.0 * np.pi)) % 1.0
        out = ref_hsv_to_rgb(hsv) * 255.0
    return out


def ref_convolve_axis(arr, kernel, axis):
    radius = len(kernel) // 2
    pad = [(0, 0)] * arr.ndim
    pad[axis] = (radius, radius)
    padded = np.pad(arr, pad, mode="reflect")
    out = np.zeros_like(arr)
    view = np.moveaxis(padded, axis, 0)
    out_view = np.moveaxis(out, axis, 0)
    n = out_view.shape[0]
    for i, weight in enumerate(kernel):
        out_view += weight * view[i : i + n]
    return out


def ref_gaussian_blur(img, sigma, dtype=np.float64):
    if sigma == 0.0:
        return img.copy()
    kernel = gaussian_kernel(sigma).astype(dtype)
    out = img.astype(dtype)
    out = ref_convolve_axis(out, kernel, axis=0)
    out = ref_convolve_axis(out, kernel, axis=1)
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


# One pixel in each of the six hue sectors, the sector boundaries, gray,
# black and white.
EDGE_COLORS = np.array(
    [
        (255, 0, 0), (255, 200, 0), (200, 255, 0), (0, 255, 0), (0, 255, 200), (0, 200, 255),
        (0, 0, 255), (200, 0, 255), (255, 0, 200), (255, 255, 0), (0, 255, 255), (255, 0, 255),
        (0, 0, 0), (255, 255, 255), (1, 1, 1), (128, 128, 128), (254, 255, 254), (0, 0, 1),
    ],
    dtype=np.uint8,
)


def test_edge_colors_cover_every_hue_sector():
    hsv = ref_rgb_to_hsv(EDGE_COLORS.astype(np.float64) / 255.0)
    chroma = hsv[:, 2] > hsv[:, 2] * (1.0 - hsv[:, 1])
    assert set(np.floor(hsv[chroma, 0] * 6.0).astype(int)) == set(range(6))
    assert (~chroma).sum() >= 4  # gray, black and white pixels


@st.composite
def images(draw, max_h=40, max_w=50, min_h=1, min_w=1):
    """uint8 (h, w, 3) images of odd sizes: random bytes, edge colors, or gray."""
    h = draw(st.integers(min_h, max_h))
    w = draw(st.integers(min_w, max_w))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["bytes", "edge_colors", "gray"]))
    if kind == "bytes":
        return rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    if kind == "edge_colors":
        return EDGE_COLORS[rng.integers(0, len(EDGE_COLORS), (h, w))]
    return np.repeat(rng.integers(0, 256, (h, w, 1), dtype=np.uint8), 3, axis=2)


def assert_same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def rounded(values):
    return np.clip(np.rint(values), 0, 255).astype(np.uint8)


def stored_strips(op, *args):
    """op(*args) and the list of float32 strips it rounds, in order."""
    strips = []
    store = imageaug._store

    def keep(strip, out):
        strips.append(strip.copy())
        store(strip, out)

    with mock.patch.object(imageaug, "_store", keep):
        result = op(*args)
    return result, strips


def float_strips(op, *args):
    """op(*args) and the float32 values it rounds into its uint8 output:
    the values before rounding, where a changed operation order shows. They
    are the strips it rounds, joined in row order, then expanded along the
    row and column maps that the op expands its rounded distinct rows and
    columns by (imageaug._expand)."""
    expand = imageaug._expand
    maps = []

    def keep(compact, index, axis):
        maps.append((index, axis))
        return expand(compact, index, axis)

    with mock.patch.object(imageaug, "_expand", keep):
        result, strips = stored_strips(op, *args)
    values = np.concatenate(strips)
    for index, axis in maps:
        values = values.take(index, axis=axis)
    return result, values.reshape(result.shape)


def jitter_values(img, b, c, s, hue_delta):
    """color_jitter's output for factors b, c, s and hue_delta, and the
    float32 value of every pixel before rounding. Jitter works on the
    image's distinct rows, the first row of each run of equal consecutive
    rows, and rounds one value per run of equal consecutive pixels of a
    strip of them (imageaug._strips), in row-major order. Each run's value
    is expanded to its pixels through the strip's run index, and each
    distinct row to the rows of its run, both found here by comparing whole
    pixels and rows."""
    result, strips = stored_strips(color_jitter, img, VisualAugConfig(), _ForcedRng(b, c, s, hue_delta))
    first = np.r_[True, np.any(img[1:] != img[:-1], axis=(1, 2))]
    distinct = img[first]
    values = []
    for band, runs in zip(imageaug._strips(*distinct.shape[:2]), strips, strict=True):
        pixels = distinct[band].reshape(-1, 3)
        index = np.cumsum(np.r_[True, np.any(pixels[1:] != pixels[:-1], axis=1)]) - 1
        assert runs.shape == (index[-1] + 1, 1, 3)  # one value per run
        values.append(runs.reshape(-1, 3)[index])
    return result, np.concatenate(values).reshape(distinct.shape)[np.cumsum(first) - 1]


@settings(max_examples=200, deadline=None)
@given(images(), st.floats(0.0, 2.0), st.floats(-5.0, 5.0))
def test_hsv_kernels_match_reference(img, sat, hue_shift):
    rgb = img.astype(np.float64) / 255.0
    assert_same(rgb_to_hsv(rgb), ref_rgb_to_hsv(rgb))
    hsv = ref_rgb_to_hsv(rgb)
    assert_same(hsv_to_rgb(hsv), ref_hsv_to_rgb(hsv))
    hsv[..., 1] = np.clip(hsv[..., 1] * sat, 0.0, 1.0)
    hsv[..., 0] = (hsv[..., 0] + hue_shift) % 1.0
    assert_same(hsv_to_rgb(hsv), ref_hsv_to_rgb(hsv))
    hsv[..., 0] += hue_shift  # hues outside [0, 1) wrap by sector
    assert_same(hsv_to_rgb(hsv), ref_hsv_to_rgb(hsv))


def test_hsv_kernels_match_reference_on_non_finite_values():
    values = np.array([0.0, 0.25, 1.0, math.nan, math.inf, -math.inf])
    grid = np.stack(np.meshgrid(values, values, values, indexing="ij"), axis=-1).reshape(-1, 1, 3)
    with np.errstate(invalid="ignore"):
        assert np.array_equal(rgb_to_hsv(grid), ref_rgb_to_hsv(grid), equal_nan=True)


@settings(max_examples=200, deadline=None)
@given(images(), st.integers(1, 60), st.integers(1, 60))
def test_resize_matches_reference(img, out_h, out_w):
    got, values = float_strips(_resize_bilinear, img, out_h, out_w)
    want = ref_resize_bilinear(img.astype(np.float32), out_h, out_w)
    assert_same(values, want)
    assert_same(got, rounded(want))


@settings(max_examples=200, deadline=None)
@given(
    images(),
    st.floats(0.01, 1.0),
    st.floats(0.0, 1.0),
    st.none() | st.tuples(st.integers(1, 60), st.integers(1, 60)),
    st.integers(0, 2**32 - 1),
)
def test_crop_matches_reference(img, lo, span, output_hw, seed):
    cfg = VisualAugConfig(crop_scale=(lo, lo + (1.0 - lo) * span), output_hw=output_hw)
    got = random_resized_crop(img, cfg, np.random.default_rng(seed))
    assert_same(got, ref_random_resized_crop(img, cfg, np.random.default_rng(seed), np.float32))


jitter_strength = st.sampled_from([0.0, 0.2]) | st.floats(0.0, 1.5)


@settings(max_examples=200, deadline=None)
@given(
    images(),
    jitter_strength,
    jitter_strength,
    jitter_strength,
    st.sampled_from([0.0, 0.1]) | st.floats(0.0, 50.0),
    st.integers(0, 2**32 - 1),
)
def test_jitter_matches_reference(img, brightness, contrast, saturation, hue, seed):
    cfg = VisualAugConfig(brightness=brightness, contrast=contrast, saturation=saturation, hue=hue)
    got = color_jitter(img, cfg, np.random.default_rng(seed))
    assert_same(got, ref_color_jitter(img, cfg, np.random.default_rng(seed), np.float32))


factors = st.sampled_from([1.0, 0.8]) | st.floats(0.0, 2.5)


@settings(max_examples=200, deadline=None)
@given(images(), factors, factors, factors, st.sampled_from([0.0, 0.3]) | st.floats(-50.0, 50.0))
def test_jitter_float_image_matches_reference(img, b, c, s, hue_delta):
    # compared before rounding, where a changed operation order shows
    want = ref_jitter(img, b, c, s, hue_delta, np.float32)
    assert_same(_jitter(img, b, c, _contrast_mean(img, b), s, hue_delta), want)


@settings(max_examples=200, deadline=None)
@given(images(), st.floats(0.05, 20.0), st.sampled_from([0, 1]))
def test_convolve_axis_matches_reference(img, sigma, axis):
    kernel = gaussian_kernel(sigma).astype(np.float32)
    arr = img.astype(np.float32)
    padded = arr.take(_reflect(arr.shape[axis], len(kernel) // 2), axis=axis)
    assert_same(_convolve_axis(padded, kernel, axis), ref_convolve_axis(arr, kernel, axis))


@settings(max_examples=200, deadline=None)
@given(images(), st.sampled_from([0.0, 0.3, 1.0]) | st.floats(0.01, 20.0))
def test_blur_matches_reference(img, sigma):
    # sigmas up to 20 give radii up to 60, beyond the size of every image drawn
    assert_same(gaussian_blur(img, sigma), ref_gaussian_blur(img, sigma, np.float32))


def assert_within_one_level(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.abs(got.astype(np.int16) - want).max(initial=0) <= 1


@settings(max_examples=100, deadline=None)
@given(
    images(),
    st.floats(0.05, 1.0),
    st.none() | st.tuples(st.integers(1, 60), st.integers(1, 60)),
    jitter_strength,
    jitter_strength,
    jitter_strength,
    st.sampled_from([0.0, 0.1]) | st.floats(0.0, 50.0),
    st.sampled_from([0.0, 1.0]) | st.floats(0.05, 20.0),
    st.integers(0, 2**32 - 1),
)
def test_ops_stay_within_one_level_of_float64(img, lo, output_hw, brightness, contrast, saturation, hue, sigma, seed):
    """Crop, jitter and blur, and each op along the crop, jitter, permute
    and blur chain, round to within 1 level of the float64 references on the
    image they are handed. The chain's end result is not held to 1 level
    here: a jitter factor above 1 widens a 1-level difference in its input
    (test_chain_stays_within_one_level_on_rendered_frames)."""
    crop = VisualAugConfig(crop_scale=(lo, 1.0), output_hw=output_hw)
    jitter = VisualAugConfig(brightness=brightness, contrast=contrast, saturation=saturation, hue=hue)
    perm = np.random.default_rng(seed).permutation(3)
    chain = [
        (lambda x, g: random_resized_crop(x, crop, g), lambda x, g: ref_random_resized_crop(x, crop, g)),
        (lambda x, g: color_jitter(x, jitter, g), lambda x, g: ref_color_jitter(x, jitter, g)),
        (lambda x, g: channel_permute(x, perm), lambda x, g: channel_permute(x, perm)),
        (lambda x, g: gaussian_blur(x, sigma), lambda x, g: ref_gaussian_blur(x, sigma)),
    ]
    link = img
    for k, (op, ref) in enumerate(chain):
        def rng():
            return np.random.default_rng([seed, k])

        assert_within_one_level(op(img, rng()), ref(img, rng()))
        out = op(link, rng())
        assert_within_one_level(out, ref(link, rng()))
        link = out


def test_chain_stays_within_one_level_on_rendered_frames(coffee_task):
    """The float32 chain, end to end, on rendered coffee frames with the
    benchmark's parameters: flat colour regions leave few values near a
    rounding boundary for a later op to widen."""
    crop = VisualAugConfig(crop_scale=(0.6, 1.0), output_hw=(128, 128))
    jitter = VisualAugConfig(brightness=0.2, contrast=0.2, saturation=0.2, hue=0.1)
    for frame_seed in range(8):
        frame = rasterize_state(reset(coffee_task, frame_seed), coffee_task, size=128)
        outs = []
        for crop_op, jitter_op, blur_op in (
            (random_resized_crop, color_jitter, gaussian_blur),
            (ref_random_resized_crop, ref_color_jitter, ref_gaussian_blur),
        ):
            g = derive_stream(frame_seed, "visual")
            img = jitter_op(crop_op(frame, crop, g), jitter, g)
            img = channel_permute(img, g.permutation(3))
            outs.append(blur_op(img, float(g.uniform(0.5, 1.5))))
        assert_within_one_level(*outs)


# ---------------------------------------------------------------------------
# the kernels run on strips of output rows (imageaug._strips): images that
# span several strips give the same bytes as the references


def _ref_blur_values(img, sigma):
    kernel = gaussian_kernel(sigma).astype(np.float32)
    return ref_convolve_axis(ref_convolve_axis(img.astype(np.float32), kernel, 0), kernel, 1)


# wide images, where a strip holds one or two rows, and 100-200 px wide ones
# whose height is rarely a multiple of the strip height
strip_images = images(min_h=3, max_h=8, min_w=2800, max_w=8400) | images(min_h=82, max_h=200, min_w=100, max_w=200)


def test_strip_images_span_several_strips():
    assert len(imageaug._strips(3, 2800)) == 2 and len(imageaug._strips(82, 100)) == 2
    assert [s.stop - s.start for s in imageaug._strips(100, 128)] == [64, 36]
    assert len(imageaug._strips(128, 128)) == 2


@settings(max_examples=40, deadline=None)
@given(strip_images, st.sampled_from([1.0, 2.5]) | st.floats(0.05, 4.0))
def test_blur_strips_match_reference(img, sigma):
    # at 2800 px and more a strip holds at most 2 rows, fewer than the
    # radius ceil(3 sigma) once sigma > 2/3
    got, values = float_strips(gaussian_blur, img, sigma)
    want = _ref_blur_values(img, sigma)
    assert_same(values, want)
    assert_same(got, rounded(want))


@settings(max_examples=40, deadline=None)
@given(strip_images, st.integers(1, 9), st.integers(2800, 4200))
def test_resize_strips_match_reference(img, out_h, out_w):
    got, values = float_strips(_resize_bilinear, img, out_h, out_w)
    want = ref_resize_bilinear(img.astype(np.float32), out_h, out_w)
    assert_same(values, want)
    assert_same(got, rounded(want))


@settings(max_examples=40, deadline=None)
@given(
    images() | strip_images,
    st.floats(0.05, 1.0),
    st.tuples(st.integers(82, 200), st.integers(100, 200)) | st.tuples(st.integers(3, 9), st.integers(2800, 4200)),
    st.integers(0, 2**32 - 1),
)
def test_crop_strips_match_reference(img, lo, output_hw, seed):
    # the output heights are rarely a multiple of the strip height, so the
    # last strip is mostly partial
    cfg = VisualAugConfig(crop_scale=(lo, 1.0), output_hw=output_hw)
    got = random_resized_crop(img, cfg, np.random.default_rng(seed))
    assert_same(got, ref_random_resized_crop(img, cfg, np.random.default_rng(seed), np.float32))


@settings(max_examples=40, deadline=None)
@given(strip_images, factors, factors, factors, st.sampled_from([0.0, 0.3]) | st.floats(-50.0, 50.0))
def test_jitter_strips_match_reference(img, b, c, s, hue_delta):
    if (b, c, s, hue_delta) == (1.0, 1.0, 1.0, 0.0):
        return  # the identity copies the image (test_jitter_matches_reference)
    want = ref_jitter(img, b, c, s, hue_delta, np.float32)
    got, values = jitter_values(img, b, c, s, hue_delta)
    assert_same(values, want)
    assert_same(got, rounded(want))


@st.composite
def run_images(draw):
    """uint8 (h, w, 3) images made of runs of equal consecutive pixels in
    row-major order: runs that cross row ends and strip boundaries, a 1x1
    image, one colour over the whole image, and the wide images whose
    strips hold 1 or 2 rows."""
    h, w = draw(
        st.just((1, 1))
        | st.tuples(st.integers(1, 40), st.integers(1, 50))
        | st.tuples(st.integers(3, 8), st.integers(2800, 8400))
        | st.tuples(st.integers(82, 200), st.integers(100, 200))
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_runs = min(h * w, draw(st.just(1) | st.integers(1, 400)))
    cuts = np.sort(rng.choice(np.arange(1, h * w), n_runs - 1, replace=False))
    lengths = np.diff(cuts, prepend=0, append=h * w)
    if draw(st.booleans()):
        colors = EDGE_COLORS[rng.integers(0, len(EDGE_COLORS), n_runs)]  # neighbouring runs may share a colour
    else:
        colors = rng.integers(0, 256, (n_runs, 3), dtype=np.uint8)
    return np.repeat(colors, lengths, axis=0).reshape(h, w, 3)


@settings(max_examples=60, deadline=None)
@given(run_images(), factors, factors, factors, st.sampled_from([0.0, 0.3]) | st.floats(-50.0, 50.0))
def test_jitter_runs_match_reference(img, b, c, s, hue_delta):
    if (b, c, s, hue_delta) == (1.0, 1.0, 1.0, 0.0):
        return  # the identity copies the image (test_jitter_matches_reference)
    want = ref_jitter(img, b, c, s, hue_delta, np.float32)
    got, values = jitter_values(img, b, c, s, hue_delta)
    assert_same(values, want)
    assert_same(got, rounded(want))


def test_jitter_runs_span_rows_and_strips():
    """One colour over a 128 px frame is one distinct row, so one strip and
    one run. Runs of 200 pixels of two alternating colours leave every row
    of a 128 px frame distinct, and cross row ends and the end of the first
    of its two strips: the second holds 41 runs that start in it and one
    that began in the first. Both give the reference bytes."""
    factors = (1.1, 1.2, 0.9, 0.3)
    flat = np.full((128, 128, 3), (226, 226, 220), dtype=np.uint8)
    got, strips = stored_strips(color_jitter, flat, VisualAugConfig(), _ForcedRng(*factors))
    assert [runs.shape for runs in strips] == [(1, 1, 3)]
    assert_same(got, rounded(ref_jitter(flat, *factors, np.float32)))
    runs = np.array([(204, 48, 48), (48, 80, 220)], dtype=np.uint8)[np.arange(128 * 128) // 200 % 2].reshape(flat.shape)
    got, strips = stored_strips(color_jitter, runs, VisualAugConfig(), _ForcedRng(*factors))
    assert [len(values) for values in strips] == [41, 1 + 41]
    assert_same(got, rounded(ref_jitter(runs, *factors, np.float32)))


def tartan(row_runs, col_runs, palette):
    """The image whose pixel (i, j) is palette[a, b] for the run a of row
    lengths `row_runs` that holds row i and the run b of column lengths
    `col_runs` that holds column j."""
    rows = np.repeat(np.arange(len(row_runs)), row_runs)
    cols = np.repeat(np.arange(len(col_runs)), col_runs)
    return palette[rows[:, None], cols[None, :]]


@st.composite
def tartan_images(draw):
    """uint8 (h, w, 3) tartan images: runs of equal rows crossed with runs
    of equal columns, 1 to 30 long, so shorter and longer than the blur
    window 2 * radius + 1 of sigmas up to 4, and 1-row and 1-column images.
    Half the palettes hold a few edge colours, so neighbouring runs may be
    equal and merge."""
    row_runs = draw(st.just([1]) | st.lists(st.integers(1, 30), min_size=1, max_size=8))
    col_runs = draw(st.just([1]) | st.lists(st.integers(1, 30), min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (len(row_runs), len(col_runs))
    if draw(st.booleans()):
        palette = EDGE_COLORS[rng.integers(0, draw(st.integers(1, 4)), shape)]
    else:
        palette = rng.integers(0, 256, (*shape, 3), dtype=np.uint8)
    return tartan(row_runs, col_runs, palette)


@settings(max_examples=100, deadline=None)
@given(tartan_images(), st.integers(1, 60), st.integers(1, 60), st.floats(0.05, 1.0), st.integers(0, 2**32 - 1))
def test_tartan_crop_matches_reference(img, out_h, out_w, lo, seed):
    got, values = float_strips(_resize_bilinear, img, out_h, out_w)
    want = ref_resize_bilinear(img.astype(np.float32), out_h, out_w)
    assert_same(values, want)
    assert_same(got, rounded(want))
    cfg = VisualAugConfig(crop_scale=(lo, 1.0), output_hw=(out_h, out_w))
    got = random_resized_crop(img, cfg, np.random.default_rng(seed))
    assert_same(got, ref_random_resized_crop(img, cfg, np.random.default_rng(seed), np.float32))


@settings(max_examples=100, deadline=None)
@given(tartan_images(), factors, factors, factors, st.sampled_from([0.0, 0.3]) | st.floats(-50.0, 50.0))
def test_tartan_jitter_matches_reference(img, b, c, s, hue_delta):
    if (b, c, s, hue_delta) == (1.0, 1.0, 1.0, 0.0):
        return  # the identity copies the image (test_jitter_matches_reference)
    want = ref_jitter(img, b, c, s, hue_delta, np.float32)
    got, values = jitter_values(img, b, c, s, hue_delta)
    assert_same(values, want)
    assert_same(got, rounded(want))


@settings(max_examples=100, deadline=None)
@given(tartan_images(), st.sampled_from([0.5, 1.0, 1.5]) | st.floats(0.05, 4.0))
def test_tartan_blur_matches_reference(img, sigma):
    got, values = float_strips(gaussian_blur, img, sigma)
    want = _ref_blur_values(img, sigma)
    assert_same(values, want)
    assert_same(got, rounded(want))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 20), min_size=1, max_size=10), st.integers(0, 3), st.integers(1, 8))
def test_cut_windows_keep_each_window(runs, colours, radius):
    """Along an axis of runs of equal entries (neighbouring runs may share
    a colour and merge), each output position's window of the reflect-padded
    axis is the window of the cut axis that its map names; the map reaches
    every output position of the cut axis, and no run of the cut axis is
    longer than a window."""
    axis = np.repeat(np.arange(len(runs)) % (colours + 1), runs)
    span = 2 * radius + 1
    rows, ends = imageaug._cut_windows(axis[1:] != axis[:-1], radius)
    padded, cut = axis[_reflect(len(axis), radius)], axis[rows]
    for i, end in enumerate(ends):
        assert np.array_equal(padded[i : i + span], cut[end : end + span])
    assert np.array_equal(np.unique(ends), np.arange(len(cut) - 2 * radius))
    assert np.all(np.diff(ends) >= 0)
    starts = np.flatnonzero(np.r_[True, cut[1:] != cut[:-1], True])
    assert np.diff(starts).max() <= span


def test_blur_computes_each_distinct_window_once():
    """A blur at radius 3 (sigma 1) computes the windows of 7 entries of a
    tartan's padded axes once. Row runs of 1, 20 and 1 reflect-pad to runs
    of 3, 1, 20, 1 and 3, and the 20 is cut to 7: 15 padded rows, 9 output
    rows. Column runs of 20, 1 and 20 pad to 23, 1 and 23, cut to 7, 1 and
    7: 9 output columns. Noise has nothing to cut."""
    img = tartan([1, 20, 1], [20, 1, 20], np.arange(27, dtype=np.uint8).reshape(3, 3, 3))
    got, strips = stored_strips(gaussian_blur, img, 1.0)
    assert [strip.shape[:2] for strip in strips] == [(9, 9)]
    assert_same(got, rounded(_ref_blur_values(img, 1.0)))
    noise = np.random.default_rng(0).integers(0, 256, (22, 41, 3), dtype=np.uint8)
    got, strips = stored_strips(gaussian_blur, noise, 1.0)
    assert [strip.shape[:2] for strip in strips] == [(22, 41)]


def _traced_peak(op) -> int:
    tracemalloc.start()
    try:
        op()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_strip_kernels_bound_their_memory():
    """No crop or blur allocates as much as one full-frame float32 array, and
    jitter no more than its strips, with or without a contrast change."""
    img = np.random.default_rng(5).integers(0, 256, (256, 256, 3), dtype=np.uint8)
    frame = img.size * 4
    strips = 8 * imageaug._STRIP_BYTES  # a strip's RGB, HSV and per-channel temporaries
    assert _traced_peak(lambda: gaussian_blur(img, 1.5)) < frame
    assert _traced_peak(lambda: gaussian_blur(img, 5.0)) < frame
    crop = VisualAugConfig(crop_scale=(0.5, 0.5))
    assert _traced_peak(lambda: random_resized_crop(img, crop, derive_stream(0, "crop"))) < frame
    for output_hw in ((40, 256), (256, 40)):
        shrink = VisualAugConfig(crop_scale=(0.5, 0.5), output_hw=output_hw)
        assert _traced_peak(lambda: random_resized_crop(img, shrink, derive_stream(0, "crop"))) < frame
    jitter = VisualAugConfig()
    assert _traced_peak(lambda: color_jitter(img, jitter, _ForcedRng(1.1, 1.2, 0.9, 0.3))) <= strips
    assert _traced_peak(lambda: color_jitter(img, jitter, _ForcedRng(1.1, 1.0, 0.9, 0.3))) <= strips
    # a tartan with runs of 1 to 40 rows and columns: the blur and jitter expand
    # their distinct rows and columns to the full frame
    rng = np.random.default_rng(6)
    palette = rng.integers(0, 256, (24, 24, 3), dtype=np.uint8)
    plaid = np.ascontiguousarray(tartan(rng.integers(1, 41, 24), rng.integers(1, 41, 24), palette)[:256, :256])
    assert plaid.shape == img.shape
    assert _traced_peak(lambda: gaussian_blur(plaid, 1.5)) < frame
    assert _traced_peak(lambda: gaussian_blur(plaid, 5.0)) < frame
    assert _traced_peak(lambda: random_resized_crop(plaid, crop, derive_stream(0, "crop"))) < frame
    assert _traced_peak(lambda: color_jitter(plaid, jitter, _ForcedRng(1.1, 1.2, 0.9, 0.3))) <= strips
