"""Standard invariance-based augmentations over images and proprioception.

Images are plain uint8 (H, W, 3) arrays, produced on demand by the
simulator's schematic rasterizer and exchanged as binary PPM (P6) files;
they are never stored inside trajectory datasets. All stochastic ops are
deterministic under a fixed RNG stream, and every zero-strength setting is
a bit-exact identity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import Trajectory
from .errors import ColorJitterRefused, ConfigError, InvalidPermutation, InvariantViolation, IoFailure
from .geometry import Pose, quat_from_rotvec, quat_multiply, quat_normalize


def _check_image(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img)
    if img.dtype != np.uint8 or img.ndim != 3 or img.shape[2] != 3:
        raise InvariantViolation(f"expected uint8 (H, W, 3) image, got {img.dtype} {img.shape}")
    return img


@dataclass(frozen=True)
class VisualAugConfig:
    crop_scale: tuple[float, float] = (0.8, 1.0)
    output_hw: tuple[int, int] | None = None  # None: keep input dims
    brightness: float = 0.0  # factor half-width around 1
    contrast: float = 0.0
    saturation: float = 0.0
    hue: float = 0.0  # rotation half-width, radians
    blur_sigma: tuple[float, float] = (0.0, 0.0)
    noise_sigma: float = 0.01  # proprio units (meters / radians)
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.crop_scale
        if not (0.0 < lo <= hi <= 1.0):
            raise ConfigError(f"crop_scale {self.crop_scale} must satisfy 0 < lo <= hi <= 1")
        if self.output_hw is not None and (self.output_hw[0] <= 0 or self.output_hw[1] <= 0):
            raise ConfigError("output dims must be positive")
        for name in ("brightness", "contrast", "saturation", "hue", "noise_sigma"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if not (0.0 <= self.blur_sigma[0] <= self.blur_sigma[1]):
            raise ConfigError(f"blur_sigma range {self.blur_sigma} ill-ordered")


def check_color_ops_allowed(color_sensitive: bool, force: bool = False):
    """Color jitter / channel permutation are refused on color-sensitive tasks."""
    if color_sensitive and not force:
        raise ColorJitterRefused(
            "task is color-sensitive: color jitter / channel permutation would corrupt "
            "task-relevant information (pass force=True / --force to override)"
        )


# ---------------------------------------------------------------------------
# geometry ops


def _resize_bilinear(img_f: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    h, w = img_f.shape[:2]
    ys = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    wy = (ys - y0)[:, None, None]
    wx = (xs - x0)[None, :, None]
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    top = img_f[y0[:, None], x0[None, :]] * (1 - wx) + img_f[y0[:, None], x1[None, :]] * wx
    bot = img_f[y1[:, None], x0[None, :]] * (1 - wx) + img_f[y1[:, None], x1[None, :]] * wx
    return top * (1 - wy) + bot * wy


def random_resized_crop(img: np.ndarray, cfg: VisualAugConfig, rng: np.random.Generator) -> np.ndarray:
    """Uniform area-scale crop (aspect preserved) + bilinear resize."""
    img = _check_image(img)
    h, w = img.shape[:2]
    out_h, out_w = cfg.output_hw if cfg.output_hw is not None else (h, w)
    scale = float(rng.uniform(cfg.crop_scale[0], cfg.crop_scale[1]))
    side = np.sqrt(scale)
    crop_h = max(1, int(round(h * side)))
    crop_w = max(1, int(round(w * side)))
    if crop_h > h or crop_w > w:
        raise ConfigError(f"crop window ({crop_h}, {crop_w}) exceeds image ({h}, {w})")
    top = int(rng.integers(0, h - crop_h + 1))
    left = int(rng.integers(0, w - crop_w + 1))
    crop = img[top : top + crop_h, left : left + crop_w]
    if (crop_h, crop_w) == (out_h, out_w):
        return crop.copy()
    resized = _resize_bilinear(crop.astype(np.float64), out_h, out_w)
    return np.clip(np.rint(resized), 0, 255).astype(np.uint8)


def channel_permute(img: np.ndarray, perm) -> np.ndarray:
    img = _check_image(img)
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != [0, 1, 2]:
        raise InvalidPermutation(f"{perm} is not a permutation of (0, 1, 2)")
    return img[..., perm].copy()


def gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian, radius ceil(3 sigma), reflect padding."""
    img = _check_image(img)
    if sigma < 0:
        raise ConfigError("sigma must be >= 0")
    if sigma == 0.0:
        return img.copy()
    kernel = gaussian_kernel(sigma)
    out = img.astype(np.float64)
    out = _convolve_axis(out, kernel, axis=0)
    out = _convolve_axis(out, kernel, axis=1)
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def gaussian_kernel(sigma: float) -> np.ndarray:
    radius = int(np.ceil(3.0 * sigma))
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(xs**2) / (2.0 * sigma * sigma))
    return k / k.sum()


def _convolve_axis(arr: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# color ops


def rgb_to_hsv(rgb: np.ndarray) -> np.ndarray:
    """Vectorized RGB [0,1] -> HSV [0,1]."""
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


def hsv_to_rgb(hsv: np.ndarray) -> np.ndarray:
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


def color_jitter(img: np.ndarray, cfg: VisualAugConfig, rng: np.random.Generator) -> np.ndarray:
    """Per-image brightness/contrast scaling plus HSV saturation/hue shifts.

    Factors are sampled once per call; zero-width ranges leave the image
    untouched bit for bit.
    """
    img = _check_image(img)
    b = float(rng.uniform(max(0.0, 1.0 - cfg.brightness), 1.0 + cfg.brightness))
    c = float(rng.uniform(max(0.0, 1.0 - cfg.contrast), 1.0 + cfg.contrast))
    s = float(rng.uniform(max(0.0, 1.0 - cfg.saturation), 1.0 + cfg.saturation))
    hue_delta = float(rng.uniform(-cfg.hue, cfg.hue))
    if b == 1.0 and c == 1.0 and s == 1.0 and hue_delta == 0.0:
        return img.copy()
    out = img.astype(np.float64)
    if b != 1.0:
        out = out * b
    if c != 1.0:
        mean = out.mean()
        out = (out - mean) * c + mean
    if s != 1.0 or hue_delta != 0.0:
        hsv = rgb_to_hsv(np.clip(out, 0.0, 255.0) / 255.0)
        if s != 1.0:
            hsv[..., 1] = np.clip(hsv[..., 1] * s, 0.0, 1.0)
        if hue_delta != 0.0:
            hsv[..., 0] = (hsv[..., 0] + hue_delta / (2.0 * np.pi)) % 1.0
        out = hsv_to_rgb(hsv) * 255.0
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# proprioception noise


def proprio_noise(traj: Trajectory, sigma: float, rng: np.random.Generator) -> Trajectory:
    """Gaussian noise on eef position observations; tangent-space jiggle on
    eef orientations. Actions and object states are untouched."""
    if sigma < 0:
        raise ConfigError("sigma must be >= 0")
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


# ---------------------------------------------------------------------------
# PPM (P6) fixtures


def write_ppm(path, img: np.ndarray) -> None:
    img = _check_image(img)
    h, w = img.shape[:2]
    try:
        with open(path, "wb") as fh:
            fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
            fh.write(img.tobytes())
    except OSError as exc:
        raise IoFailure(f"failed writing {path}: {exc}") from exc


def read_ppm(path) -> np.ndarray:
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise IoFailure(f"failed reading {path}: {exc}") from exc
    if not blob.startswith(b"P6"):
        raise IoFailure(f"{path}: not a P6 PPM file")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if blob[pos : pos + 1] == b"#":
            while pos < len(blob) and blob[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        fields.append(int(blob[start:pos]))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise IoFailure(f"{path}: unsupported maxval {maxval}")
    data = np.frombuffer(blob[pos : pos + w * h * 3], dtype=np.uint8)
    if data.size != w * h * 3:
        raise IoFailure(f"{path}: truncated pixel data")
    return data.reshape(h, w, 3).copy()
