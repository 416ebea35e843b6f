"""Quasi-static kinematic manipulation simulator plus scripted experts.

A floating gripper tracks absolute pose targets with per-step clamps.
Grasping is proximity-based with rigid attachment; releasing snaps the
object down onto the nearest support (table, stack top, or receptacle
well). Everything is deterministic and side-effect free, which makes the
scripted experts usable as analytic oracles: each expert action is a pure
function of the gripper state and the phase's dependent entities only.

A task kind is one TASK_KINDS entry, which owns its roles, phases (each
with its target role, grasp flag and edges), merge map, success predicate
and articulated state (an Articulation and its extra field; pod_lid's is
the machine's lid, stack3 has none), so a task's causal spec is its
kind's: adding a kind takes one entry plus a task file. A
task is checked when it is built, so a home_pose or sampler box outside
the workspace is refused before any rollout. The schema alone holds the
task id and the one agent's id: the gripper's state and actions carry no
agent id.

The simulator and expert settings are the same for every task, so they
are the module constants below and a task file does not set them (a `sim`,
`expert`, `xy_tol`, `z_tol`, `lid_closed_threshold` or `lid_initial_angle`
key is refused as unknown): MAX_POS_STEP and MAX_ROT_STEP, APERTURE_RATE,
GRASP_RADIUS, CLOSE_THRESHOLD, SUPPORT_RADIUS, MIN_SEPARATION and
PLACEMENT_ATTEMPTS of the simulator, TRANSIT_Z and ALIGN_TOL of the expert,
XY_TOL and Z_TOL of the placement checks, and LID_OPEN_ANGLE and
LID_CLOSED_THRESHOLD of the lid.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from itertools import combinations
from typing import Callable, ClassVar

import numpy as np

from .causal import CausalGraph, PhaseSpec, TaskCausalSpec, check_spec
from .data import Action, EntityState, RobotState, TaskSchema, Timestep, Trajectory, Provenance
from .errors import InvariantViolation
from .geometry import Pose, SE3Transform, _from_yaw, _rigid, relative_in_frame, step_toward
from .rng import derive_stream

MAX_POS_STEP = 0.02  # m a step: the eef's tracking clamp, and the expert's step
MAX_ROT_STEP = 0.1  # rad a step: the same for orientation
APERTURE_RATE = 0.25  # the aperture's slew a step
GRASP_RADIUS = 0.02  # m: a closed gripper grasps the nearest graspable object this near
CLOSE_THRESHOLD = 0.5  # an aperture below this is closed
SUPPORT_RADIUS = 0.025  # m in xy: a released object rests on another this near
MIN_SEPARATION = 0.08  # m in xy between objects at reset
PLACEMENT_ATTEMPTS = 1000  # draws reset makes before it gives up
TRANSIT_Z = 0.20  # m: the expert's carry and retreat height
ALIGN_TOL = 1e-6  # m: the expert counts a waypoint this near as reached
XY_TOL = 0.015  # m: an object is placed on another, or in a well, within XY_TOL in xy
Z_TOL = 0.005  # m: and Z_TOL in height
LID_OPEN_ANGLE = math.pi / 2  # rad: a lid starts here and never opens past it
LID_CLOSED_THRESHOLD = 0.1  # rad: a lid at or below this is shut


@dataclass(frozen=True)
class PoseSampler:
    """Uniform pose distribution: an axis-aligned position box plus a yaw range."""

    x_range: tuple[float, float]
    y_range: tuple[float, float]
    z_range: tuple[float, float]
    yaw_range: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        for lo, hi in (self.x_range, self.y_range, self.z_range, self.yaw_range):
            if hi < lo:
                raise InvariantViolation(f"sampler range ({lo}, {hi}) has hi < lo")

    def sample(self, rng: np.random.Generator) -> Pose:
        x = rng.uniform(*self.x_range)
        y = rng.uniform(*self.y_range)
        z = rng.uniform(*self.z_range)
        yaw = rng.uniform(*self.yaw_range)
        return Pose((x, y, z), _from_yaw(yaw))


@dataclass(frozen=True)
class ObjectGeom:
    """Extent data used for grasping and support snapping."""

    height: float
    graspable: bool = True


@dataclass(frozen=True)
class ReceptacleGeom:
    """A lidded receptacle: a well that captures dropped objects plus a
    push zone through which downward end-effector motion closes the lid."""

    height: float
    well_offset: tuple[float, float]
    well_radius: float
    well_floor_z: float
    push_offset: tuple[float, float]
    push_radius: float
    push_band: tuple[float, float]
    lid_gain: float
    body_radius: float
    graspable: ClassVar[bool] = False


@dataclass(frozen=True)
class TaskDefinition:
    """A task: what differs between tasks (the simulator and expert settings
    are this module's constants). `roles` is not given: it is the entity ids
    the kind's predicates and expert bind (TASK_KINDS), resolved from the
    other sections when the task is built. Nor is `causal`: its graphs and
    merge map are the kind's, over the roles, unless `spec` overrides them
    (as --spec does), and its phases take their index, target and grasp flag
    from the kind's phase table whatever `spec` held. `spec` is an init-only
    argument, so dataclasses.replace does not carry it: a task replaced
    without one has its kind's graphs. Its id is `schema.task_id`."""

    kind: str  # a key of TASK_KINDS
    schema: TaskSchema
    samplers: dict[str, PoseSampler]
    geoms: dict[str, object]
    home_pose: Pose
    stack_order: tuple[str, ...] = ()  # read by stack3 alone
    color_sensitive: bool = False
    spec: InitVar[TaskCausalSpec | None] = None
    roles: tuple[str, ...] = field(init=False)
    causal: TaskCausalSpec = field(init=False)

    def __post_init__(self, spec):
        """Check the sections against each other, so that a task whose
        sections disagree is refused when it is built, not in the middle of a
        rollout."""
        kind = TASK_KINDS.get(self.kind)
        if kind is None:
            raise InvariantViolation(f"unknown task kind {self.kind!r} (known kinds: {', '.join(TASK_KINDS)})")
        ids = self.schema.entity_ids()
        for name in ("samplers", "geoms"):
            keys = getattr(self, name)
            if set(keys) != set(ids):
                raise InvariantViolation(
                    f"{name} are keyed by {sorted(keys)}, not by the schema's entities {sorted(ids)}")
        object.__setattr__(self, "roles", kind.roles(self))
        if spec is None:  # the kind's graphs, each pair a phase's edges name coupled both ways
            agent = self.schema.agent
            pairs = [edges(agent, *self.roles) for *_, edges in kind.phases]
            spec = TaskCausalSpec(tuple(PhaseSpec(i, CausalGraph.from_edges((agent, *ids), [*p, *(e[::-1] for e in p)]))
                                        for i, p in enumerate(pairs)), kind.merge_map)
        if spec.num_phases != len(kind.phases):
            raise InvariantViolation(
                f"a {self.kind} task has {len(kind.phases)} phases, but its causal spec declares {spec.num_phases}")
        check_spec(spec, self.schema)
        object.__setattr__(self, "causal", TaskCausalSpec(
            tuple(PhaseSpec(i, phase.graph, self.roles[target], grasp)
                  for i, (phase, (_, _, target, grasp, _)) in enumerate(zip(spec.phases, kind.phases))),
            spec.segment_merge_map))
        # an extra field is a kind's articulated state (TASK_KINDS), and the task's kind must own it
        owners = {k.articulation.extra_field: k.articulation for k in TASK_KINDS.values() if k.articulation}
        for decl in self.schema.entities:
            for name in decl.extra_fields:
                if name not in owners:
                    raise InvariantViolation(f"entity {decl.entity_id!r} declares extra field {name!r}; "
                                             f"the simulator sources only {', '.join(owners)}")
                owners[name].check(self, decl.entity_id)
                if owners[name] is not kind.articulation:
                    raise InvariantViolation(
                        f"entity {decl.entity_id!r} declares extra field {name!r}, which a {self.kind} task does not simulate")
        _check_reachable(self, self.home_pose.xyz, "home_pose")
        lo, hi = self.schema.workspace_min, self.schema.workspace_max
        for eid in ids:
            s = self.samplers[eid]
            for (r_lo, r_hi), w_lo, w_hi in zip((s.x_range, s.y_range, s.z_range), lo, hi):
                if r_lo < w_lo or r_hi > w_hi:
                    raise InvariantViolation(f"sampler box for {eid!r} exceeds the task workspace")


@dataclass(frozen=True)
class SimState:
    objects: dict[str, Pose]
    lids: dict[str, float]
    gripper: RobotState
    attachment: tuple[str, SE3Transform] | None = None
    step_count: int = 0

    def __post_init__(self):
        object.__setattr__(self, "objects", dict(self.objects))
        object.__setattr__(self, "lids", dict(self.lids))


def _gripper_tf(pose: Pose) -> SE3Transform:
    return SE3Transform(pose.wxyz, pose.xyz)


def _height(task: TaskDefinition, entity_id: str) -> float:
    return task.geoms[entity_id].height


def _xy_dist(a, b) -> float:
    """Distance in the xy plane between two points of floats."""
    dx, dy = a[0] - b[0], a[1] - b[1]
    return math.sqrt(dx * dx + dy * dy)


def _dist(a, b) -> float:
    dx, dy, dz = a[0] - b[0], a[1] - b[1], a[2] - b[2]
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def _local_xy(pose: Pose, offset: tuple[float, float]) -> tuple[float, float]:
    """World (x, y) of the point at `offset` (x, y) in the pose's frame."""
    x, y, _ = _rigid(pose.wxyz, pose.xyz, (offset[0], offset[1], 0.0))
    return x, y


# ---------------------------------------------------------------------------
# reset / step


def reset(task: TaskDefinition, seed) -> SimState:
    """Sample non-overlapping initial object poses; gripper at home, open."""
    rng = seed if isinstance(seed, np.random.Generator) else derive_stream(int(seed), "reset")
    order = task.schema.entity_ids()
    for _ in range(PLACEMENT_ATTEMPTS):
        poses = {eid: task.samplers[eid].sample(rng) for eid in order}
        if all(_xy_dist(poses[a].xyz, poses[b].xyz) >= MIN_SEPARATION for a, b in combinations(order, 2)):
            art = TASK_KINDS[task.kind].articulation  # an entity has an extra field only if its kind has one
            joints = {d.entity_id: art.initial for d in task.schema.entities if d.extra_fields}
            gripper = RobotState(task.home_pose, 1.0)
            return SimState(poses, joints, gripper, None, 0)
    boxes = ", ".join(f"{eid} x {list(task.samplers[eid].x_range)} y {list(task.samplers[eid].y_range)}" for eid in order)
    raise InvariantViolation(f"no non-overlapping placement found in {PLACEMENT_ATTEMPTS} attempts: entities "
                             f"{list(order)} must lie {MIN_SEPARATION} m apart in xy (MIN_SEPARATION), drawn from {boxes}")


def _drop_pose(task: TaskDefinition, objects: dict[str, Pose], obj_id: str, pose: Pose) -> Pose:
    """Snap a released object down onto its support surface."""
    h = _height(task, obj_id)
    z_eps = 1e-6
    best_rest = h / 2.0  # table
    x, y, z = xyz = pose.xyz
    for other_id, other in objects.items():
        if other_id == obj_id:
            continue
        geom = task.geoms[other_id]
        if isinstance(geom, ReceptacleGeom):
            if _xy_dist(xyz, _local_xy(other, geom.well_offset)) <= geom.well_radius:
                rest = geom.well_floor_z + h / 2.0
            elif _xy_dist(xyz, other.xyz) <= geom.body_radius:
                rest = other.xyz[2] + geom.height / 2.0 + h / 2.0
            else:
                continue
        else:
            if _xy_dist(xyz, other.xyz) > SUPPORT_RADIUS:
                continue
            rest = other.xyz[2] + geom.height / 2.0 + h / 2.0
        if rest <= z + z_eps and rest > best_rest:
            best_rest = rest
    return Pose((x, y, best_rest), pose.wxyz)


def _clip(x: float, lo: float, hi: float) -> float:
    """np.clip on floats, including which bound wins a tie (it matters for -0.0)."""
    x = x if x > lo else lo
    return x if x < hi else hi


def step(state: SimState, action: Action, task: TaskDefinition) -> SimState:
    """Advance one tick: clamped eef tracking, aperture slew, grasp logic,
    support snapping, and the kind's articulated state. Pure and deterministic."""
    old_eef = state.gripper.eef_pose
    moved = step_toward(old_eef, action.target_eef_pose, MAX_POS_STEP, MAX_ROT_STEP)
    (x, y, z), lo, hi = moved.xyz, task.schema.workspace_min, task.schema.workspace_max
    if lo[0] < x < hi[0] and lo[1] < y < hi[1] and lo[2] < z < hi[2]:
        new_eef = moved  # strictly inside: _clip would return every value as it is
    else:
        new_eef = Pose((_clip(x, lo[0], hi[0]), _clip(y, lo[1], hi[1]), _clip(z, lo[2], hi[2])), moved.wxyz)

    ap = state.gripper.gripper_aperture
    delta = _clip(action.gripper_command - ap, -APERTURE_RATE, APERTURE_RATE)
    new_ap = min(1.0, max(0.0, ap + delta))

    objects = dict(state.objects)
    attachment = state.attachment

    if attachment is not None:
        obj_id, offset = attachment
        carried = _gripper_tf(new_eef).compose(offset)
        carried_pose = Pose(carried.xyz, carried.wxyz)
        if new_ap >= CLOSE_THRESHOLD:
            attachment = None
            carried_pose = _drop_pose(task, objects, obj_id, carried_pose)
        objects[obj_id] = carried_pose
    elif new_ap < CLOSE_THRESHOLD:
        best = None
        for eid, pose in objects.items():
            if not getattr(task.geoms[eid], "graspable", False):
                continue
            d = _dist(pose.xyz, new_eef.xyz)
            if d <= GRASP_RADIUS and (best is None or d < best[0]):
                best = (d, eid)
        if best is not None:
            _, eid = best
            offset = relative_in_frame(new_eef, objects[eid])
            attachment = (eid, offset)

    joints = state.lids
    if joints:
        update = TASK_KINDS[task.kind].articulation.update
        joints = {eid: update(task, eid, value, objects, old_eef, new_eef) for eid, value in joints.items()}

    gripper = RobotState(new_eef, new_ap)
    return SimState(objects, joints, gripper, attachment, state.step_count + 1)


# ---------------------------------------------------------------------------
# success predicates


def _placed_on(state: SimState, task: TaskDefinition, upper: str, lower: str) -> bool:
    up, lo = state.objects[upper].xyz, state.objects[lower].xyz
    if _xy_dist(up, lo) > XY_TOL:
        return False
    expected_z = lo[2] + (_height(task, lower) + _height(task, upper)) / 2.0
    return abs(up[2] - expected_z) <= Z_TOL


def _attached(state: SimState, entity_id: str) -> bool:
    return state.attachment is not None and state.attachment[0] == entity_id


def _pod_in_well(state: SimState, task: TaskDefinition, pod: str, machine: str) -> bool:
    geom = task.geoms[machine]
    pod_xyz = state.objects[pod].xyz
    if _xy_dist(pod_xyz, _local_xy(state.objects[machine], geom.well_offset)) > XY_TOL:
        return False
    rest = geom.well_floor_z + _height(task, pod) / 2.0
    return abs(pod_xyz[2] - rest) <= Z_TOL


# ---------------------------------------------------------------------------
# scripted experts


def _check_reachable(task: TaskDefinition, point: tuple, what: str):
    lo, hi = task.schema.workspace_min, task.schema.workspace_max
    if any(x < w_lo or x > w_hi for x, w_lo, w_hi in zip(point, lo, hi)):
        raise InvariantViolation(f"{what} {list(point)} outside workspace")


def _bounded_action(state: SimState, waypoint: tuple, grip: float) -> Action:
    """A step toward the waypoint (x, y, z floats) at the eef's orientation."""
    eef = state.gripper.eef_pose
    goal = Pose(waypoint, eef.wxyz)
    stepped = step_toward(eef, goal, MAX_POS_STEP, MAX_ROT_STEP)
    return Action(stepped, grip)


def _hold(state: SimState, grip: float) -> Action:
    return Action(state.gripper.eef_pose, grip)


def _grasp_policy(state: SimState, task: TaskDefinition, obj_id: str) -> Action:
    if _attached(state, obj_id):
        return _hold(state, 0.0)
    eef = state.gripper.eef_pose.xyz
    grasp_point = state.objects[obj_id].xyz
    _check_reachable(task, grasp_point, f"grasp point for {obj_id}")
    if _xy_dist(eef, grasp_point) > ALIGN_TOL:
        wp = (grasp_point[0], grasp_point[1], TRANSIT_Z)
        return _bounded_action(state, wp, 1.0)
    if abs(eef[2] - grasp_point[2]) > ALIGN_TOL:
        return _bounded_action(state, grasp_point, 1.0)
    return _bounded_action(state, grasp_point, 0.0)


def _place_policy(state: SimState, task: TaskDefinition, carried_id: str, place_point: tuple) -> Action:
    if not _attached(state, carried_id):
        return _retreat_policy(state)
    _check_reachable(task, place_point, f"place point for {carried_id}")
    eef = state.gripper.eef_pose.xyz
    obj = state.objects[carried_id].xyz
    # the eef's offset from the object, rigid while orientation is held
    ox, oy, oz = eef[0] - obj[0], eef[1] - obj[1], eef[2] - obj[2]
    px, py, pz = place_point
    if _xy_dist(obj, place_point) > ALIGN_TOL:
        return _bounded_action(state, (px + ox, py + oy, TRANSIT_Z + oz), 0.0)
    if obj[2] - pz > ALIGN_TOL:
        return _bounded_action(state, (px + ox, py + oy, pz + oz), 0.0)
    return _hold(state, 1.0)  # release


def _retreat_policy(state: SimState) -> Action:
    x, y, _ = state.gripper.eef_pose.xyz
    return _bounded_action(state, (x, y, TRANSIT_Z), 1.0)


def _stack_policy(state: SimState, task: TaskDefinition, carried: str, base: str) -> Action:
    """Carry `carried` onto `base` and release it there; retreat once released."""
    x, y, z = state.objects[base].xyz
    return _place_policy(state, task, carried, (x, y, z + (_height(task, base) + _height(task, carried)) / 2.0))


def _pod_lid_policy(state: SimState, task: TaskDefinition, pod: str, machine: str) -> Action:
    """Place the pod in the machine's well, then push the lid shut."""
    geom = task.geoms[machine]
    machine_pose = state.objects[machine]
    if _attached(state, pod):
        x, y = _local_xy(machine_pose, geom.well_offset)
        return _place_policy(state, task, pod, (x, y, geom.well_floor_z + _height(task, pod) / 2.0))
    if state.lids[machine] > LID_CLOSED_THRESHOLD:
        x, y = _local_xy(machine_pose, geom.push_offset)
        eef = state.gripper.eef_pose.xyz
        approach = (x, y, geom.push_band[1])
        _check_reachable(task, approach, "lid push point")
        if _xy_dist(eef, approach) > ALIGN_TOL or eef[2] > geom.push_band[1] + ALIGN_TOL:
            return _bounded_action(state, approach, 1.0)
        return _bounded_action(state, (x, y, geom.push_band[0] + 0.01), 1.0)
    return _retreat_policy(state)


# ---------------------------------------------------------------------------
# task kinds


@dataclass(frozen=True)
class Articulation:
    """One float per entity that declares `extra_field`, in SimState.lids by
    entity id, observed as that field and read back from it. `check(task,
    eid)` refuses an entity that cannot carry it when the task is built;
    `initial` is its value at reset and `update(task, eid, value, objects,
    old_eef, new_eef)` its value after a step."""

    extra_field: str
    check: Callable[[TaskDefinition, str], None]
    initial: float
    update: Callable[[TaskDefinition, str, float, dict[str, Pose], Pose, Pose], float]


_Phase = tuple[Callable[..., Action], Callable[..., bool], int, bool, Callable[..., tuple]]


@dataclass(frozen=True)
class TaskKind:
    """What a task kind means to the simulator.

    `roles(task)` checks the task's layout and returns the entity ids the
    kind binds, in a fixed order; it runs once, when the TaskDefinition is
    built. `success` is the task-success predicate. `phases` is the phase
    table: per phase, (expert policy, completion predicate, target, grasp
    flag, edges), where the target indexes roles, so its length is the kind's
    phase count. Each predicate and policy is called as f(state, task,
    *task.roles), and edges as f(agent, *task.roles): the pairs of nodes the
    phase couples, each both ways, which are the agent and the object it
    grasps or carries, and the objects it places, or has placed, on one
    another. `merge_map` folds the raw gripper segments into the phases (a
    causal spec's segment_merge_map). `articulation` is its articulated
    state."""

    roles: Callable[[TaskDefinition], tuple[str, ...]]
    success: Callable[..., bool]
    phases: tuple[_Phase, ...]
    merge_map: tuple[int, ...]
    articulation: Articulation | None = None


def _stack3_roles(task: TaskDefinition) -> tuple[str, str, str]:
    """(bottom, mid, top), from stack_order."""
    order = task.stack_order
    if len(order) != 3 or len(set(order)) != 3 or not set(order) <= set(task.schema.entity_ids()):
        raise InvariantViolation(f"stack_order {list(order)} must be 3 distinct schema entities")
    return order


def _pod_lid_roles(task: TaskDefinition) -> tuple[str, str]:
    """(pod, machine): the ids of the one pod and the one receptacle, after
    checking what the pod_lid expert needs of them."""
    if task.stack_order:
        raise InvariantViolation(f"a pod_lid task takes no stack_order, got {list(task.stack_order)}")
    pods = [e for e in task.schema.entities if e.kind == "pod"]
    machines = [e for e in task.schema.entities if e.kind == "receptacle"]
    if len(pods) != 1 or len(machines) != 1:
        raise InvariantViolation(
            f"a pod_lid task needs exactly one pod and one receptacle entity, got "
            f"pods {[e.entity_id for e in pods]} and receptacles {[e.entity_id for e in machines]}")
    pod, machine = pods[0].entity_id, machines[0]
    geom = task.geoms[pod]
    if not (isinstance(geom, ObjectGeom) and geom.graspable):
        raise InvariantViolation(f"pod {pod!r} needs a graspable object geom")
    if not isinstance(task.geoms[machine.entity_id], ReceptacleGeom):
        raise InvariantViolation(f"receptacle {machine.entity_id!r} needs a receptacle geom")
    if "lid_angle" not in machine.extra_fields:
        raise InvariantViolation(f"receptacle {machine.entity_id!r} needs a lid_angle extra field")
    return pod, machine.entity_id


def _lid_check(task: TaskDefinition, entity_id: str):
    if not isinstance(task.geoms[entity_id], ReceptacleGeom):
        raise InvariantViolation(f"entity {entity_id!r} has a lid_angle extra field but no receptacle geom")


def _lid_update(task: TaskDefinition, entity_id: str, angle: float, objects: dict[str, Pose],
                old_eef: Pose, new_eef: Pose) -> float:
    """The lid shuts by lid_gain per unit of downward eef travel through the
    push band, while the eef is inside the push zone."""
    old_z, new_z = old_eef.xyz[2], new_eef.xyz[2]
    if not new_z - old_z < 0.0:
        return angle
    geom = task.geoms[entity_id]
    if _xy_dist(new_eef.xyz, _local_xy(objects[entity_id], geom.push_offset)) > geom.push_radius:
        return angle
    zmin, zmax = geom.push_band
    travel = min(old_z, zmax) - max(new_z, zmin)
    if travel > 0.0:
        return min(LID_OPEN_ANGLE, max(0.0, angle - geom.lid_gain * travel))
    return angle


def _stacked(state: SimState, task: TaskDefinition, bottom: str, mid: str, top: str) -> bool:
    return _placed_on(state, task, mid, bottom) and _placed_on(state, task, top, mid)


def _pod_lid_done(state: SimState, task: TaskDefinition, pod: str, machine: str) -> bool:
    return _pod_in_well(state, task, pod, machine) and state.lids[machine] <= LID_CLOSED_THRESHOLD


TASK_KINDS = {
    "stack3": TaskKind(_stack3_roles, _stacked, (
        (lambda s, task, bottom, mid, top: _grasp_policy(s, task, mid),
         lambda s, task, bottom, mid, top: _attached(s, mid) or _placed_on(s, task, mid, bottom), 1, True,
         lambda agent, bottom, mid, top: ((agent, mid),)),
        (lambda s, task, bottom, mid, top: _stack_policy(s, task, mid, bottom),
         lambda s, task, bottom, mid, top: _placed_on(s, task, mid, bottom) and not _attached(s, mid), 0, False,
         lambda agent, bottom, mid, top: ((agent, mid), (mid, bottom))),
        (lambda s, task, bottom, mid, top: _grasp_policy(s, task, top),
         lambda s, task, bottom, mid, top: _attached(s, top) or _placed_on(s, task, top, mid), 2, True,
         lambda agent, bottom, mid, top: ((agent, top), (mid, bottom))),
        (lambda s, task, bottom, mid, top: _stack_policy(s, task, top, mid),
         lambda s, task, bottom, mid, top: _stacked(s, task, bottom, mid, top) and not _attached(s, top), 1, False,
         lambda agent, bottom, mid, top: ((agent, top), (mid, bottom), (mid, top))),
    ), (0, 1, 2, 3)),
    "pod_lid": TaskKind(_pod_lid_roles, _pod_lid_done, (
        (lambda s, task, pod, machine: _grasp_policy(s, task, pod),
         lambda s, task, pod, machine: _attached(s, pod) or _pod_in_well(s, task, pod, machine), 0, True,
         lambda agent, pod, machine: ((agent, pod),)),
        (_pod_lid_policy,
         lambda s, task, pod, machine: _pod_lid_done(s, task, pod, machine) and not _attached(s, pod), 1, False,
         lambda agent, pod, machine: ((agent, pod), (pod, machine))),
    ), (0, 1, 1), Articulation("lid_angle", _lid_check, LID_OPEN_ANGLE, _lid_update)),
}


def _phase(task: TaskDefinition, phase: int) -> _Phase:
    phases = TASK_KINDS[task.kind].phases
    if not 0 <= phase < len(phases):
        raise InvariantViolation(f"{task.kind} has no phase {phase}")
    return phases[phase]


def check_success(state: SimState, task: TaskDefinition, phase: int | None = None) -> bool:
    """Task-level success, or the phase-completion predicate when given."""
    if phase is None:
        return TASK_KINDS[task.kind].success(state, task, *task.roles)
    return _phase(task, phase)[1](state, task, *task.roles)


def expert_action(state: SimState, task: TaskDefinition, phase: int) -> Action:
    """Deterministic waypoint policy; reads only the phase's dependent entities."""
    return _phase(task, phase)[0](state, task, *task.roles)


# ---------------------------------------------------------------------------
# rollout / replay


def observe(state: SimState, task: TaskDefinition, t: int, action: Action,
            phase: int | None = None, interp: bool = False) -> Timestep:
    entities = []
    for decl in task.schema.entities:
        extra = {name: float(state.lids[decl.entity_id]) for name in decl.extra_fields}  # the kind's field alone
        entities.append(EntityState(decl.entity_id, state.objects[decl.entity_id], extra))
    return Timestep(
        t=t,
        entities=tuple(entities),
        robots=(state.gripper,),
        actions=(action,),
        phase=phase,
        interp=interp,
    )


def _scan_phase(state: SimState, task: TaskDefinition) -> int | None:
    """First incomplete phase, or None once the whole task is done."""
    for p in range(task.causal.num_phases):
        if not check_success(state, task, phase=p):
            return p
    return None


EXPERT_MAX_STEPS = 400  # the expert gives up after this many steps
EXPERT_TAIL_STEPS = 3  # and records this many more once the task succeeds


def rollout_expert(task: TaskDefinition, seed) -> Trajectory:
    """Run the scripted expert from a sampled reset to task success."""
    state = reset(task, seed)
    timesteps = []
    remaining_tail = EXPERT_TAIL_STEPS
    phase = _scan_phase(state, task)
    for t in range(EXPERT_MAX_STEPS):
        acting_phase = phase if phase is not None else task.causal.num_phases - 1
        action = expert_action(state, task, acting_phase)
        timesteps.append(observe(state, task, t, action))
        state = step(state, action, task)
        phase = _scan_phase(state, task)  # the next step's phase too
        if phase is None and check_success(state, task):
            if remaining_tail == 0:
                break
            remaining_tail -= 1
    if not check_success(state, task):
        raise InvariantViolation(f"expert did not finish {task.schema.task_id!r} within {EXPERT_MAX_STEPS} steps")
    return Trajectory(
        traj_id=f"demo_{seed}" if isinstance(seed, int) else "demo",
        timesteps=tuple(timesteps),
        success=True,
        provenance=Provenance.HUMAN_SOURCE,
    )


def sim_state_from_timestep(ts: Timestep, task: TaskDefinition) -> SimState:
    """Reconstruct a SimState from an observation, inferring attachment."""
    objects = {e.entity_id: e.pose for e in ts.entities}
    name = getattr(TASK_KINDS[task.kind].articulation, "extra_field", None)
    joints = {e.entity_id: float(e.extra[name]) for e in ts.entities if name in e.extra}
    gripper = ts.robots[0]
    attachment = None
    if gripper.gripper_aperture < CLOSE_THRESHOLD:
        near = []
        for eid, pose in objects.items():
            if not getattr(task.geoms[eid], "graspable", False):
                continue
            if _dist(pose.xyz, gripper.eef_pose.xyz) <= GRASP_RADIUS:
                near.append(eid)
        if len(near) > 1:
            raise InvariantViolation(
                f"timestep {ts.t}: ambiguous attachment among {sorted(near)}"
            )
        if near:
            offset = relative_in_frame(gripper.eef_pose, objects[near[0]])
            attachment = (near[0], offset)
    return SimState(objects, joints, gripper, attachment, ts.t)


def replay(traj: Trajectory, task: TaskDefinition) -> tuple[SimState, bool]:
    """Feed stored actions through step() from the stored initial state;
    return the final state and whether it succeeds."""
    if not traj.timesteps:
        raise InvariantViolation(f"trajectory {traj.traj_id!r} has no timesteps")
    state = sim_state_from_timestep(traj.timesteps[0], task)
    for ts in traj.timesteps:
        state = step(state, ts.actions[0], task)
    return state, check_success(state, task)
