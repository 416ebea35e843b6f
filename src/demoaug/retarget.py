"""SE(3)-equivariant demonstration generation.

Sub-trajectories are retargeted to novel object poses: the phase target's
pose delta determines a rigid transform applied to the target pose, the
end-effector poses, and the action targets (the gripper-to-target relative
pose is therefore preserved at every step). A spherically/linearly
interpolated action prefix connects the robot's current pose to the start
of each retargeted segment, everything is executed in the simulator, and
only rollouts passing the task success predicate are kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .causal import TaskCausalSpec
from .counterfactual import build_phase_index
from .data import Action, Dataset, Timestep, Trajectory, Provenance
from .errors import BudgetExhausted, InvariantViolation
from .geometry import Pose, SE3Transform, _slerp, quat_geodesic, relative_transform, vec_norm
from .rng import derive_stream
from .sim import MAX_POS_STEP, MAX_ROT_STEP, PoseSampler, TaskDefinition, check_success, observe, reset, step

APPROACH_RADIUS = 0.10  # meters: a source segment starts where its eef first comes this close to the target


@dataclass(frozen=True)
class InterpolationConfig:
    max_pos_step: float = MAX_POS_STEP
    max_rot_step: float = MAX_ROT_STEP

    def __post_init__(self):
        if self.max_pos_step <= 0 or self.max_rot_step <= 0:
            raise InvariantViolation("interpolation step bounds must be positive")


@dataclass
class GenerationReport:
    attempts: int = 0
    accepted: int = 0
    segments: dict[str, list[dict]] = field(default_factory=dict)

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.attempts if self.attempts else 0.0


def transform_subtrajectory(sub: Trajectory, T: SE3Transform, target: str) -> Trajectory:
    """Map target-entity poses, eef poses, and action targets by T."""
    new_steps = []
    for ts in sub.timesteps:
        if all(e.entity_id != target for e in ts.entities):
            raise InvariantViolation(f"target {target!r} missing at timestep {ts.t}")
        entities = tuple(
            replace(e, pose=T.apply_pose(e.pose)) if e.entity_id == target else e for e in ts.entities
        )
        robots = tuple(replace(r, eef_pose=T.apply_pose(r.eef_pose)) for r in ts.robots)
        actions = tuple(replace(a, target_eef_pose=T.apply_pose(a.target_eef_pose)) for a in ts.actions)
        new_steps.append(replace(ts, entities=entities, robots=robots, actions=actions))
    return replace(sub, timesteps=tuple(new_steps))


def interpolate_prefix(from_pose: Pose, to_pose: Pose, cfg: InterpolationConfig, gripper: float) -> list[Action]:
    """Linear position / spherical orientation ramp, gripper held constant.

    Step count is the smallest n respecting both per-step bounds; the final
    action equals `to_pose` exactly. Returns [] when the poses coincide.
    """
    (fx, fy, fz), (tx, ty, tz) = from_pose.xyz, to_pose.xyz
    dx, dy, dz = tx - fx, ty - fy, tz - fz
    dist = vec_norm((dx, dy, dz))
    angle = quat_geodesic(from_pose.wxyz, to_pose.wxyz)
    n = max(
        math.ceil(dist / cfg.max_pos_step - 1e-9),
        math.ceil(angle / cfg.max_rot_step - 1e-9),
    )
    if n <= 0:
        return []
    actions = []
    for i in range(1, n + 1):
        if i == n:
            pose = to_pose
        else:
            u = i / n
            pos = (fx + u * dx, fy + u * dy, fz + u * dz)
            pose = Pose(pos, _slerp(from_pose.wxyz, to_pose.wxyz, u))
        actions.append(Action(pose, gripper))
    return actions


def _trim_start(traj: Trajectory, t0: int, t1: int, target: str) -> int:
    """First index whose eef is within the approach ball of the phase target.

    The transit prelude before that point is replaced by the interpolation
    prefix; trimming keeps the retargeted poses inside the workspace when
    the transform has a large rotation component.
    """
    tx, ty, tz = traj.timesteps[t0].entity(target).pose.xyz
    for i in range(t0, t1):
        x, y, z = traj.timesteps[i].robots[0].eef_pose.xyz
        if vec_norm((x - tx, y - ty, z - tz)) <= APPROACH_RADIUS:
            return i
    return t0


def _one_attempt(
    attempt: int,
    sources,
    spec: TaskCausalSpec,
    task: TaskDefinition,
    icfg: InterpolationConfig,
    master_seed: int,
):
    rng = derive_stream(master_seed, "se3_attempt", attempt)
    state = reset(task, rng)
    timesteps: list[Timestep] = []
    seg_meta = []
    t = 0
    for phase_spec in spec.phases:
        p = phase_spec.phase_index
        options = sources[p]
        src = options[int(rng.integers(len(options)))]
        target = phase_spec.target_entity
        if target is None:  # a spec as read from JSON, not yet filled in by a task
            raise InvariantViolation(f"causal spec phase {p} has no target: it is not a task's spec")
        trim = _trim_start(src.traj, src.t0, src.t1, target)
        segment = src.traj.timesteps[trim:src.t1]
        T = relative_transform(segment[0].entity(target).pose, state.objects[target])
        # of the transformed segment (transform_subtrajectory), the attempt
        # replays each step's first action and starts from its first robot pose
        actions = [replace(ts.actions[0], target_eef_pose=T.apply_pose(ts.actions[0].target_eef_pose))
                   for ts in segment]
        prefix = interpolate_prefix(state.gripper.eef_pose, T.apply_pose(segment[0].robots[0].eef_pose), icfg,
                                    gripper=actions[0].gripper_command)
        for i, a in enumerate(prefix + actions):
            timesteps.append(observe(state, task, t, a, phase=p, interp=i < len(prefix)))
            state = step(state, a, task)
            t += 1
        seg_meta.append(
            {"phase": p, "src_traj_id": src.traj.traj_id, "src_start": trim, "src_end": src.t1}
        )
    success = check_success(state, task)
    return success, timesteps, seg_meta


def generate_demos(
    ds: Dataset,
    spec: TaskCausalSpec,
    sampler: PoseSampler | None,
    icfg: InterpolationConfig,
    task: TaskDefinition,
    n_target: int,
    master_seed: int = 0,
    attempt_budget: int | None = None,
    report: GenerationReport | None = None,
) -> Dataset:
    """Generate n_target accepted synthetic demonstrations.

    sampler may be None (use the task's pose distributions) or a
    PoseSampler applied to every entity (keeping per-entity rest heights).
    Each phase's sources are its ranges in the successful trajectories, read
    from the phase index (build_phase_index). Attempts run in index order
    until the n_target-th success, and whether an attempt succeeds depends
    on its index alone. Raises BudgetExhausted when the attempt budget runs
    out first, and InvariantViolation on a negative n_target and, even for
    n_target 0, on a dataset the index refuses (any trajectory, failed or
    not, without phase labels or labelled with a phase the spec does not have).
    """
    index = build_phase_index(ds, spec)
    if n_target < 0:
        raise InvariantViolation(f"cannot generate a negative number of demonstrations: n_target {n_target}")
    if report is None:
        report = GenerationReport()
    if n_target == 0:
        return Dataset(ds.task_schema, ())
    sources = {p.phase_index: [e for e in index.get(p.phase_index, ()) if e.traj.success] for p in spec.phases}
    for p, options in sources.items():
        if not options:
            raise InvariantViolation(f"no successful phase-labeled source covers phase {p}")
    if sampler is not None:  # one sampler for every entity, at its rest height; checked here, once
        samplers = {eid: replace(sampler, z_range=base.z_range) for eid, base in task.samplers.items()}
        task = replace(task, samplers=samplers)
    budget = attempt_budget if attempt_budget is not None else 10 * n_target
    accepted: list[Trajectory] = []
    attempt = 0
    while attempt < budget and len(accepted) < n_target:
        success, timesteps, seg_meta = _one_attempt(attempt, sources, spec, task, icfg, master_seed)
        if success:
            traj = Trajectory(
                traj_id=f"se3_{master_seed}_{attempt:06d}",
                timesteps=tuple(timesteps),
                success=True,
                provenance=Provenance.SE3_SYNTHETIC,
            )
            accepted.append(traj)
            report.segments[traj.traj_id] = seg_meta
        attempt += 1
    report.attempts = attempt
    report.accepted = len(accepted)
    if len(accepted) < n_target:
        raise BudgetExhausted(
            f"accepted {len(accepted)}/{n_target} within {report.attempts} attempts "
            f"(rate {report.acceptance_rate:.3f})",
            accepted=len(accepted),
            attempts=report.attempts,
        )
    return Dataset(ds.task_schema, tuple(accepted))
