"""Schematic top-down rasterization of simulator states.

Produces small deterministic uint8 images used as fixtures for the visual
augmentation ops; this is a diagram renderer, not a camera model. A frame
starts as the background colour, filled one row at a time (`_background`,
the same bytes as broadcasting the colour over the frame, and faster), and
each entity and the gripper are drawn over it as flat squares and strokes,
so a frame is made of long runs of equal pixels. It also has few distinct
rows and few distinct columns, counting a row (column) equal to the one
before it as the same: the benchmark's 128 px coffee frames have 10 to 13
of each, and the image ops compute each distinct row once.
"""

from __future__ import annotations

import numpy as np

from .sim import CLOSE_THRESHOLD, LID_OPEN_ANGLE, ReceptacleGeom, SimState, TaskDefinition, _local_xy

_PALETTE = (
    (204, 48, 48),
    (48, 160, 48),
    (48, 80, 220),
    (220, 160, 40),
    (150, 60, 180),
)
_BACKGROUND = (226, 226, 220)
_GRIPPER_OPEN = (30, 30, 30)
_GRIPPER_CLOSED = (240, 240, 240)


def _background(size: int) -> np.ndarray:
    """A size x size frame of the background colour, filled by rows: one row
    built per call and copied to each row of the frame viewed as (size,
    size * 3) bytes. Broadcasting the 3-tuple over the (size, size, 3) frame
    gives the same bytes, but numpy copies it 3 bytes at a time, over ten
    times slower at 128 px."""
    img = np.empty((size, size, 3), dtype=np.uint8)
    img.reshape(size, size * 3)[...] = np.tile(np.array(_BACKGROUND, dtype=np.uint8), size)
    return img


def rasterize_state(state: SimState, task: TaskDefinition, size: int = 128) -> np.ndarray:
    img = _background(size)
    lo = task.schema.workspace_min
    hi = task.schema.workspace_max
    span = max(hi[0] - lo[0], hi[1] - lo[1])

    def to_px(xy):
        col = int((xy[0] - lo[0]) / span * (size - 1))
        row = int((xy[1] - lo[1]) / span * (size - 1))
        return (size - 1) - min(max(row, 0), size - 1), min(max(col, 0), size - 1)

    def fill_square(xy, half_m, color):
        r, c = to_px(xy)
        half = max(1, int(half_m / span * (size - 1)))
        img[max(0, r - half) : r + half + 1, max(0, c - half) : c + half + 1] = color

    for idx, decl in enumerate(task.schema.entities):
        pose = state.objects[decl.entity_id]
        geom = task.geoms[decl.entity_id]
        color = _PALETTE[idx % len(_PALETTE)]
        if isinstance(geom, ReceptacleGeom):
            fill_square(pose.xyz, geom.body_radius, color)
            fill_square(_local_xy(pose, geom.well_offset), geom.well_radius, (40, 40, 40))
            lid = state.lids.get(decl.entity_id)  # a receptacle may have no lid
            if lid is not None:
                # lid indicator: dark when open, light when closed
                shade = tuple(int(60 + 180 * (1 - lid / LID_OPEN_ANGLE)) for _ in range(3))
                fill_square(_local_xy(pose, geom.push_offset), geom.push_radius, shade)
        else:
            fill_square(pose.xyz, geom.height / 2, color)

    grip = state.gripper
    color = _GRIPPER_CLOSED if grip.gripper_aperture < CLOSE_THRESHOLD else _GRIPPER_OPEN
    r, c = to_px(grip.eef_pose.xyz)
    arm = max(2, size // 32)
    img[max(0, r - arm) : r + arm + 1, c] = color
    img[r, max(0, c - arm) : c + arm + 1] = color
    return img
