"""Splitting trajectories into causal phases at gripper open/close events."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .causal import TaskCausalSpec
from .data import Trajectory
from .errors import InvariantViolation
from .sim import CLOSE_THRESHOLD


@dataclass(frozen=True)
class SegmentationConfig:
    close_threshold: float = CLOSE_THRESHOLD
    debounce_steps: int = 3
    min_phase_len: int = 5

    def __post_init__(self):
        if not (0.0 < self.close_threshold < 1.0):
            raise InvariantViolation("close_threshold must lie strictly inside (0, 1)")
        if self.debounce_steps < 1 or self.min_phase_len < 1:
            raise InvariantViolation("debounce_steps and min_phase_len must be >= 1")


@dataclass(frozen=True)
class PhaseBoundary:
    t: int
    transition: str  # "open_to_close" | "close_to_open"

    def __post_init__(self):
        if self.t <= 0:
            raise InvariantViolation("boundary t must be > 0")
        if self.transition not in ("open_to_close", "close_to_open"):
            raise InvariantViolation(f"unknown transition {self.transition!r}")


def detect_boundaries(traj: Trajectory, cfg: SegmentationConfig) -> list[PhaseBoundary]:
    """Boundaries at the first step of each debounced flip of the agent's
    gripper state (the schema's one agent: each timestep's one robot).

    A maximal run of the flipped binary state (closed = aperture below the
    threshold) only counts when it lasts at least debounce_steps; shorter
    blips are ignored and do not change the accepted state.
    """
    binary = [ts.robots[0].gripper_aperture < cfg.close_threshold for ts in traj.timesteps]
    boundaries = []
    accepted = binary[0]
    i = 1
    while i < len(binary):
        if binary[i] == accepted:
            i += 1
            continue
        run_start = i
        run_state = binary[i]
        while i < len(binary) and binary[i] == run_state:
            i += 1
        if i - run_start >= cfg.debounce_steps:
            transition = "open_to_close" if run_state else "close_to_open"
            boundaries.append(PhaseBoundary(run_start, transition))
            accepted = run_state
    return boundaries


def _merged_segments(n: int, boundaries: list[PhaseBoundary], min_phase_len: int) -> list[tuple[int, int]]:
    cuts = [0] + [b.t for b in boundaries] + [n]
    segments = [(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)]
    # fold short segments into their predecessor (the first one folds forward)
    merged: list[tuple[int, int]] = []
    for seg in segments:
        if merged and seg[1] - seg[0] < min_phase_len:
            merged[-1] = (merged[-1][0], seg[1])
        else:
            merged.append(seg)
    if merged and merged[0][1] - merged[0][0] < min_phase_len and len(merged) > 1:
        merged[1] = (merged[0][0], merged[1][1])
        merged.pop(0)
    return merged


def assign_phases(traj: Trajectory, spec: TaskCausalSpec, cfg: SegmentationConfig) -> Trajectory:
    """Label every timestep with its spec phase index.

    Detected segments are merged by min_phase_len, then mapped through the
    spec's segment_merge_map; a count mismatch signals a bad demo or spec.
    """
    boundaries = detect_boundaries(traj, cfg)
    segments = _merged_segments(len(traj.timesteps), boundaries, cfg.min_phase_len)
    if len(segments) != len(spec.segment_merge_map):
        raise InvariantViolation(
            f"trajectory {traj.traj_id!r}: {len(segments)} segments but merge map expects "
            f"{len(spec.segment_merge_map)}"
        )
    labels = [0] * len(traj.timesteps)
    for seg_idx, (a, b) in enumerate(segments):
        phase = spec.segment_merge_map[seg_idx]
        for t in range(a, b):
            labels[t] = phase
    timesteps = tuple(replace(ts, phase=labels[i]) for i, ts in enumerate(traj.timesteps))
    return replace(traj, timesteps=timesteps)

