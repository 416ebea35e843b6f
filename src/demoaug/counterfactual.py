"""Offline counterfactual augmentation.

New trajectories are synthesized by swapping causally irrelevant state
partitions with states sampled from donor trajectories in the same causal
phase. Actions and all non-swapped state are copied bit for bit, so the
expert action remains valid on every augmented state. One donor is drawn
per (phase, partition, copy): irrelevant partitions are static within a
phase, and a single donor keeps the swapped objects from teleporting
frame to frame.

The phase index (build_phase_index) maps each phase to its ranges in the
dataset, as DonorEntry(trajectory, t0, t1): the donor pool here and the
source pool of retarget.generate_demos. A swap reads the partition's states
from the donor timestep itself, so they are the donor's own objects.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

from .causal import Partition, TaskCausalSpec, check_phase_labels, swap_candidates
from .data import Action, Dataset, RobotState, Timestep, Trajectory, Provenance
from .errors import InvariantViolation
from .rng import derive_stream
from .sim import CLOSE_THRESHOLD

logger = logging.getLogger(__name__)

DONOR_POLICIES = ("same_phase_any_timestep", "same_phase_aligned_timestep")
JITTER_BOUNDARY_MARGIN = 3  # gripper jitter stops this many steps before a grasp-closing boundary


@dataclass(frozen=True)
class CounterfactualConfig:
    master_seed: int = 0
    swap_probability: float = 1.0
    donor_policy: str = "same_phase_any_timestep"
    gripper_jitter_range: float = 0.0
    copies_per_trajectory: int = 1

    def __post_init__(self):
        if not (0.0 <= self.swap_probability <= 1.0):
            raise InvariantViolation("swap_probability must lie in [0, 1]")
        if self.donor_policy not in DONOR_POLICIES:
            raise InvariantViolation(f"unknown donor_policy {self.donor_policy!r}")
        if self.gripper_jitter_range < 0:
            raise InvariantViolation("gripper_jitter_range must be >= 0")
        if self.copies_per_trajectory < 1:
            raise InvariantViolation("copies_per_trajectory must be >= 1")


@dataclass(frozen=True)
class DonorEntry:
    """A donor: the range [t0, t1) of one phase in trajectory `traj`."""

    traj: Trajectory
    t0: int
    t1: int


PhaseIndex = dict[int, list[DonorEntry]]


def build_phase_index(ds: Dataset, spec: TaskCausalSpec) -> PhaseIndex:
    """Each phase -> its range in every trajectory, in dataset order; the one
    label check of augment_offline and generate_demos: a phase past the spec
    (check_phase_labels) or a trajectory without labels is refused."""
    check_phase_labels(ds, spec)
    index: PhaseIndex = {}
    for traj in ds.trajectories:
        for phase, t0, t1 in traj.phase_ranges():
            index.setdefault(phase, []).append(DonorEntry(traj, t0, t1))
    return index


def _swap_timestep(ts: Timestep, donor_ts: Timestep, members: frozenset[str]) -> Timestep:
    """`ts` with each entity in `members` in its state at the donor timestep."""
    entities = tuple(donor_ts.entity(e.entity_id) if e.entity_id in members else e for e in ts.entities)
    return Timestep(ts.t, entities, ts.robots, ts.actions, ts.phase, ts.interp)


def _counterfactual_copy(
    traj: Trajectory,
    copy_index: int,
    cfg: CounterfactualConfig,
    pool: PhaseIndex,
    candidates: dict[int, list[Partition]],
) -> tuple[Trajectory, int, int]:
    """Returns (copy, swaps_done, swaps_without_donor); `candidates` holds
    each phase's swap_candidates."""
    rng = derive_stream(cfg.master_seed, "cf", traj.traj_id, copy_index)
    timesteps = list(traj.timesteps)
    swapped = 0
    missing = 0
    for phase, t0, t1 in traj.phase_ranges():
        donors = [d for d in pool[phase] if d.traj.traj_id != traj.traj_id]
        for part in candidates[phase]:
            if rng.uniform() >= cfg.swap_probability:
                continue
            if not donors:
                missing += 1
                continue
            donor = donors[int(rng.integers(len(donors)))]
            if cfg.donor_policy == "same_phase_any_timestep":
                at = [donor.t0 + int(rng.integers(donor.t1 - donor.t0))] * (t1 - t0)
            else:  # aligned: the same relative index within the phase, held at the donor's last step
                at = [min(donor.t0 + k, donor.t1 - 1) for k in range(t1 - t0)]
            for t, d in enumerate(at, t0):
                timesteps[t] = _swap_timestep(timesteps[t], donor.traj.timesteps[d], part.members)
            swapped += 1
    copy = replace(traj, traj_id=f"{traj.traj_id}_cf{copy_index:03d}", timesteps=tuple(timesteps),
                   provenance=Provenance.COUNTERFACTUAL_SYNTHETIC)
    return copy, swapped, missing


def augment_offline(
    ds: Dataset,
    spec: TaskCausalSpec,
    cfg: CounterfactualConfig,
    report: dict | None = None,
) -> Dataset:
    """Alg.-style offline augmentation: originals retained, plus
    copies_per_trajectory counterfactual copies of every source trajectory.
    With gripper_jitter_range > 0, each copy is then jittered by
    gripper_transit_jitter on the stream of the seed and the copy's id.

    Copies that found no donor for any selected partition are still emitted
    (unswapped) with a warning, so output counts stay exact. The phase index
    (build_phase_index) refuses a dataset it cannot index before any copy.
    """
    pool = build_phase_index(ds, spec)
    candidates = {p.phase_index: swap_candidates(p, ds.task_schema.agent) for p in spec.phases}
    out = list(ds.trajectories)
    total_swaps = 0
    no_donor = 0
    for traj in ds.trajectories:
        for copy_index in range(cfg.copies_per_trajectory):
            copy, swapped, missing = _counterfactual_copy(traj, copy_index, cfg, pool, candidates)
            if missing and not swapped:
                no_donor += 1
                logger.warning(
                    "no donor available for %s copy %d; emitted unswapped", traj.traj_id, copy_index
                )
            total_swaps += swapped
            if cfg.gripper_jitter_range > 0.0:
                copy = gripper_transit_jitter(copy, spec, cfg, derive_stream(cfg.master_seed, "jitter", copy.traj_id))
            out.append(copy)
    if report is not None:
        report["copies"] = cfg.copies_per_trajectory * len(ds.trajectories)
        report["partition_swaps"] = total_swaps
        report["no_donor_copies"] = no_donor
        if cfg.gripper_jitter_range > 0.0:
            report["gripper_jitter_range"] = cfg.gripper_jitter_range
    return Dataset(ds.task_schema, tuple(out))


def gripper_transit_jitter(
    traj: Trajectory,
    spec: TaskCausalSpec,
    cfg: CounterfactualConfig,
    rng_stream,
) -> Trajectory:
    """Perturb gripper aperture and command together during transit.

    Only inside grasp-closing phases, strictly before the closing boundary
    (with a debounce-sized margin) and only while the gripper is open, so
    the perturbed pair stays expert-consistent. A phase the spec does not
    have raises InvariantViolation naming the trajectory.
    """
    if cfg.gripper_jitter_range == 0.0:
        return traj
    timesteps = list(traj.timesteps)
    for phase, t0, t1 in traj.phase_ranges():
        try:
            grasp_closes = spec.phase(phase).grasp_closes
        except InvariantViolation as exc:
            raise InvariantViolation(f"trajectory {traj.traj_id!r}, timestep {t0}: {exc}") from exc
        if not grasp_closes:
            continue
        window_end = t1 - JITTER_BOUNDARY_MARGIN
        for t in range(t0, max(t0, window_end)):
            ts = timesteps[t]
            (robot,), (act,) = ts.robots, ts.actions
            if robot.gripper_aperture <= CLOSE_THRESHOLD:
                continue  # attached or closing; leave untouched
            delta = float(rng_stream.uniform(-cfg.gripper_jitter_range, cfg.gripper_jitter_range))
            robot = RobotState(robot.eef_pose, robot.gripper_aperture + delta)  # the constructors clamp to [0, 1]
            act = Action(act.target_eef_pose, act.gripper_command + delta)
            timesteps[t] = replace(ts, robots=(robot,), actions=(act,))
    return replace(traj, timesteps=tuple(timesteps))
