"""Standard invariance-based augmentations over images and proprioception.

Images are plain uint8 (H, W, 3) arrays, produced on demand by the
simulator's schematic rasterizer and exchanged as binary PPM (P6) files;
they are never stored inside trajectory datasets. All stochastic ops are
deterministic under a fixed RNG stream, and every zero-strength setting is
a bit-exact identity. The image ops return a new array and never write to
their input.

Working precision. Crop, jitter and blur compute in float32 (`_FLOAT`),
and round into uint8. Each float32 value lies within about 1e-3 of a
level of what the same op computes in float64 (jitter with a large hue
shift comes closest), so an output byte moves only where the float64 value
lies that close to a rounding boundary, and then to the neighbouring
level: one op's output is within 1 level of its float64 output. A chain of ops can drift further, because a factor above 1
(brightness, contrast, saturation) widens a 1-level difference in its
input. The kernels keep every operation in float32: resize weights and
blur taps are cast to float32 once per call, and the jitter factors, hue
shift and contrast mean enter as Python floats, which numpy rounds to
float32 in a float32 loop, where a numpy float64 operand would promote the
strip to a float64 loop.

Bit-identity rules. The image kernels avoid the numpy forms that are slow
on (H, W, 3) arrays, but only where the replacement gives the same values
as the form it replaced, run in the same precision on the same operands
(the tests keep the old forms as references, and run them in float32):

- `np.maximum(np.maximum(r, g), b)` replaces `np.max(rgb, axis=-1)`, and
  likewise for the minimum: the maximum of three numbers is one of them in
  any order, and a reduction over a length-3 axis is far slower.
- `x - np.floor(x)` replaces `x % 1.0`. numpy's float remainder is
  `fmod(x, 1.0)`, plus 1.0 when that is negative, and +0.0 when it is
  zero. For x >= 0 both give the exact fraction; for x < 0 both round the
  same exact value x - floor(x) once; an integral x gives +0.0 either way.
  That holds for every float32 and float64, so the unbounded hue shift
  uses it too.
- `i - 6 * (i // 6)` replaces `i % 6` on int64: the two agree modulo
  2**64 and both lie in [0, 6).
- In-place operations replace expressions that made a temporary; each
  element sees the same operations, only operands of `+` and `*` swap
  sides, which IEEE arithmetic allows. No sum is regrouped.
- Sector picks in `hsv_to_rgb` and the hue branches in `rgb_to_hsv` copy
  values under masks instead of `np.select`/`np.where`, and the saturation
  divides only where the maximum is > 0 instead of by a 1.0 stand-in
  elsewhere; copying is exact and each division is the same.
- `color_jitter` holds the pixels it computes as channel planes (a
  transposed contiguous array): the layout changes no value, and the
  channel views of the HSV kernels become contiguous.
- Distinct rows. Where two rows (for the blur, two windows of rows or of
  columns) hold the same bytes, an op gives both the same float32
  operations on the same operands, so it computes one of them and copies
  the result: a rendered frame is a few flat squares on a flat
  background, with few distinct rows and columns. A row equal to the row
  before it belongs to that row's run (`_row_changes`, `_col_changes`).
  Noise, where no two neighbours are equal, goes through the same code:
  it pays for finding the runs and has nothing removed.
- Jitter is per pixel: `_jitter` gives each pixel the same float32
  operations, whose operands are the pixel's own values, the factors and
  the whole image's contrast mean. So `color_jitter` computes the first
  row of each run of equal rows, and of those one pixel of each run of
  equal consecutive pixels of a strip (in row-major order, so a run may
  cross row ends). It rounds that pixel once and copies its bytes to the
  run's other pixels, then the rows to their runs with one uint8 `take`:
  they would get the same bytes.
- The bilinear resize converts the crop's rows to float32 (uint8 to
  float32 is exact), interpolates each source row it reads along x, then
  blends two such rows along y: every output is still
  `top * (1 - wy) + bot * wy` with `top = a * (1 - wx) + b * wx`, where
  wx and wy are rounded to float32 and `1 - w` is taken in float32. A
  source row is read as the first row of its run, whose x interpolation
  gives the same values; the blend along y runs for every output row.
- The blur starts each sum at the first tap instead of adding it to 0.0
  (the taps are >= 0, and 0.0 + x == x for those), and reflect-pads each
  strip of the uint8 image along both axes before the vertical pass,
  because that pass treats the padded columns like any other. An output
  pixel is a function of its window alone: the 2 * radius + 1 rows by
  2 * radius + 1 columns of the padded image that its taps read. The blur
  cuts each run of more than 2 * radius + 1 equal padded rows to that many
  rows, and likewise for columns (`_cut_windows`). That keeps every
  window: one inside a run is that many copies of the run's row, still
  there, and one that crosses a run boundary holds at most 2 * radius rows
  of each run it meets, where a cut run keeps 2 * radius + 1. No window
  appears that the full image lacks, since each run of the cut axis is no
  longer than the run it was cut from. Rows and columns are cut whole, so
  a window of the cut image whose rows and columns equal those of a window
  of the full image holds its bytes. The blur of the cut image holds each
  window's result once, and one uint8 `take` along each axis copies it to
  the output positions whose window ends at the same place, skipped along
  an axis where nothing was cut.
- Crop, jitter and blur work on strips of output rows (see `_strips`) and
  round each strip (jitter: the first pixel of each of its runs) into
  uint8 before it lands in a preallocated output. An output row reads only
  the input rows its strip holds, so each element sees the same operations
  in the same order: a resize strip interpolates the source
  rows its output rows read, and a blur strip converts its rows plus
  2 * radius halo rows of the cut, padded image and adds the taps of both
  passes in kernel order. Jitter and the blur size their strips by the
  distinct rows and the cut image's width.
- The contrast mean is the whole image's mean times the brightness
  factor, never a mean of strip means. Its float64 sum of uint8 values is
  exact in any order, so the mean is the exact one rounded once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import RobotState, Timestep, Trajectory
from .errors import ColorJitterRefused, ConfigError, InvariantViolation, IoFailure
from .geometry import Pose, _from_rotvec, _normalize, _qmul


def _check_image(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img)
    if img.dtype != np.uint8 or img.ndim != 3 or img.shape[2] != 3 or 0 in img.shape:
        raise InvariantViolation(f"expected a uint8 (H, W, 3) image with H, W >= 1, got {img.dtype} {img.shape}")
    return img


# The largest half-width of a jitter factor's range. Every factor drawn is
# then a finite float32, and so is a pixel value scaled by both the
# brightness and the contrast factor: 255 * (1 + 1e18)**2 < 3.4e38.
_MAX_JITTER_WIDTH = 1e18


@dataclass(frozen=True)
class VisualAugConfig:
    crop_scale: tuple[float, float] = (0.8, 1.0)
    output_hw: tuple[int, int] | None = None  # None: keep input dims
    brightness: float = 0.0  # factor half-width around 1
    contrast: float = 0.0
    saturation: float = 0.0
    hue: float = 0.0  # rotation half-width, radians
    blur_sigma: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        lo, hi = self.crop_scale
        if not (0.0 < lo <= hi <= 1.0):
            raise ConfigError(f"crop_scale {self.crop_scale} must satisfy 0 < lo <= hi <= 1")
        if self.output_hw is not None and (self.output_hw[0] <= 0 or self.output_hw[1] <= 0):
            raise ConfigError("output dims must be positive")
        for name in ("brightness", "contrast", "saturation", "hue"):
            value = getattr(self, name)
            if not (0 <= value <= _MAX_JITTER_WIDTH):
                raise ConfigError(f"{name} must lie in [0, {_MAX_JITTER_WIDTH:g}], got {value}")
        if not (0.0 <= self.blur_sigma[0] <= self.blur_sigma[1] < math.inf):
            raise ConfigError(f"blur_sigma range {self.blur_sigma} ill-ordered or not finite")


def check_color_ops_allowed(color_sensitive: bool, force: bool = False):
    """Color jitter / channel permutation are refused on color-sensitive tasks."""
    if color_sensitive and not force:
        raise ColorJitterRefused(
            "task is color-sensitive: color jitter / channel permutation would corrupt "
            "task-relevant information (pass force=True / --force to override)"
        )


# ---------------------------------------------------------------------------
# row strips


# The working precision of crop, jitter and blur. float32 halves the bytes
# that each numpy call moves against float64, and the number of strips per
# frame; the kernels' scalars enter as Python floats or float32 values,
# because a float64 operand would promote a strip to a float64 loop.
_FLOAT = np.dtype(np.float32)

# Byte budget of one row strip. Crop, jitter and blur work on strips of
# output rows whose float temporaries hold at most this many bytes, which
# keeps them under glibc's default 128 KiB mmap threshold: they are reused
# from the heap, where full-frame temporaries were mapped, unmapped or
# trimmed back to the OS after each call and faulted in again on the next.
_STRIP_BYTES = 96 * 1024


def _strips(h: int, w: int) -> list[slice]:
    """Row slices that cover h rows of width w, as many rows each as fit
    _STRIP_BYTES as RGB in the working precision (one row at least)."""
    rows = max(1, _STRIP_BYTES // (w * 3 * _FLOAT.itemsize))
    return [slice(r, min(r + rows, h)) for r in range(0, h, rows)]


def _store(strip: np.ndarray, out: np.ndarray) -> None:
    """Round a float32 strip, clip it to [0, 255] and write it into its
    uint8 rows `out`."""
    np.rint(strip, out=strip)
    np.clip(strip, 0, 255, out=strip)
    np.copyto(out, strip, casting="unsafe")


# ---------------------------------------------------------------------------
# distinct rows and columns


def _row_changes(img: np.ndarray) -> np.ndarray:
    """The h - 1 flags of an (h, w, 3) image that say whether each row but
    the first differs from the row before it, compared as w * 3 bytes."""
    rows = img.reshape(img.shape[0], -1)
    return (rows[1:] != rows[:-1]).any(axis=1)


def _col_changes(img: np.ndarray) -> np.ndarray:
    """The w - 1 flags of an (h, w, 3) image that say whether each column
    but the first differs from the column before it. Two single-axis
    reductions: numpy runs one over axes (0, 2) far slower."""
    return (img[:, 1:] != img[:, :-1]).any(axis=0).any(axis=1)


def _row_runs(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each run of equal consecutive rows of an image, and
    the index of each row's run."""
    first = np.empty(img.shape[0], dtype=bool)
    first[0] = True
    first[1:] = _row_changes(img)
    return first.nonzero()[0], first.cumsum() - 1


def _expand(compact: np.ndarray, index: np.ndarray, axis: int) -> np.ndarray:
    """compact.take(index, axis): an image from its distinct rows (axis 0)
    or columns (axis 1). The index never decreases and reaches every
    position of that axis, so one as long as the axis is the identity, and
    the copy is skipped."""
    if len(index) == compact.shape[axis]:
        return compact
    return compact.take(index, axis=axis)


# ---------------------------------------------------------------------------
# geometry ops


def _resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of a uint8 (h, w, 3) array to uint8 (out_h, out_w, 3),
    rounded and clipped.

    Separable: each distinct source row that an output row reads is
    interpolated along x, then the output rows blend two of those rows
    along y. Both passes run per strip of output rows, on the distinct
    source rows the strip reads: a row equal to the row before it is read
    as the first row of their run.
    """
    h, w = img.shape[:2]
    ys = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    wy = (ys - y0).astype(_FLOAT)[:, None]
    wx = np.repeat(xs - x0, 3).astype(_FLOAT)  # one weight per (column, channel) of a flattened row
    wx_left = 1 - wx
    starts, runs = _row_runs(img)
    y1 = starts[runs[np.minimum(y0 + 1, h - 1)]]
    y0 = starts[runs[y0]]
    x1 = np.minimum(x0 + 1, w - 1)
    channels = np.arange(3)
    cols0 = (x0[:, None] * 3 + channels).ravel()
    cols1 = (x1[:, None] * 3 + channels).ravel()
    read = np.zeros(h, dtype=bool)
    read[y0] = True
    read[y1] = True
    src = np.flatnonzero(read)  # the source rows some output row reads
    at = np.cumsum(read) - 1  # source row -> its index in src
    rows = img.reshape(h, w * 3)
    out = np.empty((out_h, out_w * 3), dtype=np.uint8)
    # strips as wide as the wider of the source rows and the output rows
    for band in _strips(out_h, max(w, out_w)):
        first, last = at[y0[band.start]], at[y1[band.stop - 1]] + 1
        source = rows.take(src[first:last], axis=0).astype(_FLOAT)
        horiz = source.take(cols0, axis=1)
        horiz *= wx_left
        right = source.take(cols1, axis=1)
        right *= wx
        horiz += right
        del source, right  # freed before the vertical pass allocates
        strip = horiz.take(at[y0[band]] - first, axis=0)
        strip *= 1 - wy[band]
        bot = horiz.take(at[y1[band]] - first, axis=0)
        bot *= wy[band]
        strip += bot
        _store(strip, out[band])
        del horiz, strip, bot  # freed before the next strip allocates
    return out.reshape(out_h, out_w, 3)


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
    return _resize_bilinear(crop, out_h, out_w)


def channel_permute(img: np.ndarray, perm) -> np.ndarray:
    img = _check_image(img)
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != [0, 1, 2]:
        raise InvariantViolation(f"{perm} is not a permutation of (0, 1, 2)")
    out = np.empty_like(img)
    for dst, src in enumerate(perm):
        out[..., dst] = img[..., src]
    return out


def gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian, radius ceil(3 sigma), reflect padding."""
    img = _check_image(img)
    if not math.isfinite(sigma) or sigma < 0:
        raise ConfigError(f"sigma must be finite and >= 0, got {sigma}")
    if sigma == 0.0:
        return img.copy()
    taps = gaussian_kernel(sigma).astype(_FLOAT)
    radius = len(taps) // 2
    # The blur of the image with its long runs of equal rows and columns cut
    # (_cut_windows) holds every distinct output row and column once. Each
    # strip of its output rows reads its own rows of the cut, reflect-padded
    # image plus 2 * radius halo rows, and is padded along both axes before
    # the vertical pass: that pass treats every column alike, so its output
    # over the padded columns is the horizontal pass's reflect-padded input.
    rows, row_ends = _cut_windows(_row_changes(img), radius)
    cols, col_ends = _cut_windows(_col_changes(img), radius)
    out = np.empty((len(rows) - 2 * radius, len(cols) - 2 * radius, 3), dtype=np.uint8)
    for band in _strips(*out.shape[:2]):
        strip = img.take(rows[band.start : band.stop + 2 * radius], axis=0).take(cols, axis=1).astype(_FLOAT)
        strip = _convolve_axis(strip, taps, axis=0)
        _store(_convolve_axis(strip, taps, axis=1), out[band])
    return _expand(_expand(out, col_ends, axis=1), row_ends, axis=0)


def _cut_windows(changes: np.ndarray, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """One axis of the blur, cut to its distinct windows.

    `changes` are the n - 1 change flags of an axis of n entries (see
    _row_changes). Returns the source indices of the axis reflect-padded by
    radius with each run of more than 2 * radius + 1 equal entries cut to
    that many, and for each of the n output positions the output position
    of the cut axis whose window ends where its own does: a window that
    lies inside a run ends on the run's last kept entry, and one that
    crosses a run boundary holds fewer than 2 * radius + 1 entries of each
    run it meets, all of them kept."""
    span = 2 * radius + 1
    padded = _reflect(len(changes) + 1, radius)
    # neighbours on the padded axis are neighbours on the axis, or both the
    # one entry of an axis of length 1
    differs = np.append(changes, False)[np.minimum(padded[:-1], padded[1:])]
    seen = np.zeros(len(padded), dtype=np.intp)  # run boundaries before each position
    differs.cumsum(out=seen[1:])
    keep = np.ones(len(padded), dtype=bool)
    np.not_equal(seen[span:], seen[:-span], out=keep[span:])  # cut: equal to the span entries before it
    return padded[keep], keep.cumsum()[2 * radius :] - span


# The widest blur kernel radius, ceil(3 sigma): a blur of a 128 px frame at
# this radius peaks near 71 MB, where an unbounded finite sigma could ask for
# gigabytes. The tests' widest radius is 60.
_MAX_BLUR_RADIUS = 1024

# Below this sigma the off-centre taps exp(-1 / (2 sigma^2)) of the radius-1
# kernel are 0 in float64 (exp underflows to 0 below about -745, and
# 1 / (2 * 0.025**2) = 800), so the kernel is the identity [0, 1, 0]. It is
# returned without the formula, which overflows its division below a sigma
# of about 5e-155, and below about 1.6e-162, where 2 sigma^2 is 0, gives nan
# taps.
_IDENTITY_SIGMA = 0.025


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Normalized float64 taps of radius ceil(3 sigma), for a sigma > 0."""
    reach = 3.0 * sigma
    if not reach <= _MAX_BLUR_RADIUS:  # ceil(reach) <= the bound; also refuses inf and nan
        raise ConfigError(f"blur sigma {sigma} gives a kernel radius ceil(3 sigma) above {_MAX_BLUR_RADIUS}")
    if sigma < _IDENTITY_SIGMA:
        return np.array([0.0, 1.0, 0.0])
    radius = math.ceil(reach)
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(xs**2) / (2.0 * sigma * sigma))
    return k / k.sum()


def _reflect(n: int, radius: int) -> np.ndarray:
    """Source indices of an axis of length n reflect-padded by radius, as
    np.pad(np.arange(n), radius, mode="reflect") gives them: the reflection
    repeats every 2n - 2 entries, and an axis of length 1 repeats its one
    entry."""
    if n == 1:
        return np.zeros(1 + 2 * radius, dtype=np.intp)
    period = 2 * n - 2
    j = np.abs(np.arange(-radius, n + radius)) % period
    return np.minimum(j, period - j)


def _convolve_axis(padded: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """Correlate a float array, padded by len(kernel) // 2 on both ends of
    `axis`, with `kernel` of the same dtype along that axis, adding the taps
    in kernel order.

    Each tap is one slice of the array viewed as (outer, axis * inner)
    values: whole blocks of `inner` values shifted along `axis`, which numpy
    runs faster than the same taps along a moved axis."""
    shape = padded.shape
    n = shape[axis] - (len(kernel) - 1)
    inner = math.prod(shape[axis + 1 :])
    rows = padded.reshape(math.prod(shape[:axis]), shape[axis] * inner)
    out = kernel[0] * rows[:, : n * inner]
    for i in range(1, len(kernel)):
        out += kernel[i] * rows[:, i * inner : (i + n) * inner]
    return out.reshape(shape[:axis] + (n,) + shape[axis + 1 :])


# ---------------------------------------------------------------------------
# color ops


def rgb_to_hsv(rgb: np.ndarray) -> np.ndarray:
    """Vectorized float RGB [0,1] -> HSV [0,1]."""
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    hsv = np.empty_like(rgb)
    h, s, v = hsv[..., 0], hsv[..., 1], hsv[..., 2]
    np.maximum(r, g, out=v)
    np.maximum(v, b, out=v)
    delta = np.minimum(r, g)
    np.minimum(delta, b, out=delta)
    np.subtract(v, delta, out=delta)
    s.fill(0.0)
    np.divide(delta, v, out=s, where=v > 0)
    gray = ~(delta > 0)
    safe = delta
    safe[gray] = 1.0
    rc = v - r
    rc /= safe
    gc = v - g
    gc /= safe
    np.subtract(v, b, out=h)
    h /= safe  # bc
    hue = np.add(gc, 4.0, out=safe)  # blue is the maximum: 4 + gc - rc
    hue -= rc
    rc += 2.0  # green is the maximum: 2 + rc - bc
    rc -= h
    h -= gc  # red is the maximum: bc - gc
    np.copyto(hue, rc, where=g == v)
    np.copyto(hue, h, where=r == v)
    hue /= 6.0
    hue -= np.floor(hue, out=gc)
    hue[gray] = 0.0
    h[...] = hue
    return hsv


def hsv_to_rgb(hsv: np.ndarray) -> np.ndarray:
    h, s, v = hsv[..., 0], hsv[..., 1], hsv[..., 2]
    f = h * 6.0
    sector = np.floor(f)
    f -= sector
    i = sector.astype(np.int64)
    i -= 6 * (i // 6)  # i % 6
    p = np.subtract(1.0, s, out=sector)
    p *= v
    q = s * f
    np.subtract(1.0, q, out=q)
    q *= v
    t = np.subtract(1.0, f, out=f)
    t *= s
    np.subtract(1.0, t, out=t)
    t *= v
    sectors = [i == k for k in range(6)]
    rgb = np.empty_like(hsv)
    for channel, picks in enumerate(((v, q, p, p, t, v), (t, v, v, q, p, p), (p, p, t, v, v, q))):
        out = rgb[..., channel]
        np.copyto(out, picks[0])
        for k in range(1, 6):
            np.copyto(out, picks[k], where=sectors[k])
    return rgb


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
    mean = _contrast_mean(img, b) if c != 1.0 else 0.0
    starts, runs = _row_runs(img)
    out = np.empty((len(starts), *img.shape[1:]), dtype=np.uint8)
    for band in _strips(*out.shape[:2]):
        out[band] = _jitter_runs(img.take(starts[band], axis=0), b, c, mean, s, hue_delta)
    return _expand(out, runs, axis=0)


def _jitter_runs(rows: np.ndarray, b: float, c: float, mean: float, s: float, hue_delta: float) -> np.ndarray:
    """color_jitter's uint8 bytes of some uint8 rows: the _jitter values of
    one pixel per run of equal consecutive pixels (in row-major order),
    rounded once and copied to every pixel of the run."""
    pixels = rows.reshape(-1, 3)
    bounds = _run_bounds(pixels)
    values = _jitter(pixels.take(bounds[:-1], axis=0)[:, None], b, c, mean, s, hue_delta)
    runs = np.empty(values.shape, dtype=np.uint8)  # allocated past _jitter's peak
    _store(values, runs)
    del values
    return np.repeat(runs, np.diff(bounds), axis=0).reshape(rows.shape)


def _run_bounds(pixels: np.ndarray) -> np.ndarray:
    """The index of the first pixel of each run of equal consecutive pixels
    of an (n, 3) array, in order, followed by n: the first pixel starts a
    run, and so does each one that differs from the pixel before it in some
    channel."""
    n = len(pixels)
    changed = pixels[1:] != pixels[:-1]
    edges = np.empty(n + 1, dtype=bool)
    edges[0] = edges[n] = True
    np.logical_or(changed[:, 0], changed[:, 1], out=edges[1:n])
    edges[1:n] |= changed[:, 2]
    return np.flatnonzero(edges)


def _contrast_mean(img: np.ndarray, b: float) -> float:
    """The gray level the contrast factor scales about: the mean of the
    whole image, scaled by the brightness factor b. The float64 sum of uint8
    values is exact in any order (it stays below 2**53), so the mean is one
    rounding of the exact one, and numpy takes it in buffered chunks,
    without a frame-sized copy."""
    return float(img.mean(dtype=np.float64)) * b


def _jitter(rows: np.ndarray, b: float, c: float, mean: float, s: float, hue_delta: float) -> np.ndarray:
    """color_jitter's float32 values of some uint8 rows before rounding, for
    factors b, c, s, a hue rotation of hue_delta radians and the whole
    image's contrast mean `mean` (unused when c == 1)."""
    # stored as channel planes: the channel views that rgb_to_hsv and
    # hsv_to_rgb work on are then contiguous, which numpy runs faster
    out = rows.transpose(2, 0, 1).astype(_FLOAT, order="C").transpose(1, 2, 0)
    if b != 1.0:
        out *= b
    if c != 1.0:
        out -= mean
        out *= c
        out += mean
    if s == 1.0 and hue_delta == 0.0:
        return out
    np.clip(out, 0.0, 255.0, out=out)
    out /= 255.0
    hsv = rgb_to_hsv(out)
    del out  # free the RGB buffer before hsv_to_rgb allocates its result
    if s != 1.0:
        sat = hsv[..., 1]
        sat *= s
        np.clip(sat, 0.0, 1.0, out=sat)
    if hue_delta != 0.0:
        hue = hsv[..., 0]
        hue += hue_delta / (2.0 * np.pi)
        hue -= np.floor(hue)
    out = hsv_to_rgb(hsv)
    out *= 255.0
    return out


# ---------------------------------------------------------------------------
# proprioception noise


def proprio_noise(traj: Trajectory, sigma: float, rng: np.random.Generator) -> Trajectory:
    """Gaussian noise on eef position observations; tangent-space jiggle on
    eef orientations. Actions and object states are untouched.

    The noise of the whole trajectory is one draw of 6 values per step (its
    one robot state), position then rotation vector: the order of the
    3-value draws it replaces, which give the same values and leave the
    generator in the same state. The draw is read as Python floats, and
    positions are added as floats: IEEE addition, the same bits as numpy's
    add."""
    if not math.isfinite(sigma) or sigma < 0:
        raise ConfigError(f"sigma must be finite and >= 0, got {sigma}")
    if sigma == 0.0:
        return traj
    n = len(traj.timesteps)
    new_steps = []
    for ts, (dx, dy, dz, *rotvec) in zip(traj.timesteps, rng.normal(0.0, sigma, 6 * n).reshape(n, 6).tolist()):
        (robot,) = ts.robots
        pose = robot.eef_pose
        x, y, z = pose.xyz
        ori = _normalize(_qmul(_from_rotvec(rotvec), pose.wxyz))
        noisy = RobotState(Pose((x + dx, y + dy, z + dz), ori), robot.gripper_aperture)
        new_steps.append(Timestep(ts.t, ts.entities, (noisy,), ts.actions, ts.phase, ts.interp))
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
        name, text = ("width", "height", "maxval")[len(fields)], blob[start:pos]
        if not text.isdigit() or len(text) > 9:  # past any real image; int() refuses over 4300 digits
            problem = f"{text.decode('latin-1')!r} is not an integer of at most 9 digits" if text else "is missing"
            raise IoFailure(f"{path}: malformed PPM header: {name} {problem}")
        fields.append(int(text))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if w < 1 or h < 1:
        raise IoFailure(f"{path}: malformed PPM header: a {w}x{h} image is empty")
    if maxval != 255:
        raise IoFailure(f"{path}: unsupported maxval {maxval}")
    data = np.frombuffer(blob[pos : pos + w * h * 3], dtype=np.uint8)
    if data.size != w * h * 3:
        raise IoFailure(f"{path}: truncated pixel data")
    return data.reshape(h, w, 3).copy()
