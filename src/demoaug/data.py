"""Demonstration data model and its deterministic on-disk representation.

A dataset directory holds `manifest.json` (schema version, task schema and
trajectory index, each required) plus one `traj_<id>.jsonl` file per
trajectory with one timestep per line. Key order is fixed and floats are
written as shortest round-trip decimals, so saving the same dataset twice
is byte-identical and load(save(ds)) == ds field for field.

Records are immutable. The per-timestep ones (EntityState, RobotState,
Action, Timestep) set their slots directly, with the constructors' checks
and conversions, and no more. Each fact of a dataset has one holder. The
schema alone holds the task id and the agent id: a line's agent ids and a
manifest entry's task_id are written from it, and checked against it when
the line or the manifest is read. No record holds the manifest's
schema_version: a load checks its major version, and a save writes
SCHEMA_VERSION. A trajectory records the schema its timesteps passed their
checks under, and a save, load or validate checks them once per schema;
each such check counts each distinct entities and actions tuple once. A
load reads each distinct value once and shares it: each distinct pose is
built once, and each distinct text of a timestep line's entities, robots or
actions array is decoded, built and checked once, its tuple of records
shared by every line that holds the text. Lines in another layout, and
lines with a malformed section, are read whole by timestep_from_json, the
reference. These caches live for one load_dataset call only.

Task files, causal specs and pipeline configs go through the same reader,
read_json. Task files and causal specs are read by record_from_json, with
Param checking each value; pipeline_config_from_dict checks a config's own
keys, and Param its stage parameters.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import struct
from dataclasses import MISSING, dataclass, field, fields, replace
from enum import Enum
from pathlib import Path

from .errors import InvariantViolation, IoFailure
from .geometry import Pose

SCHEMA_VERSION = "1.0"

ENTITY_KINDS = ("block", "pod", "receptacle", "bin", "tool")

_ID_RE = re.compile(r"[A-Za-z0-9_\-]+")
_TRAJ_FILE_RE = re.compile(r"traj_[A-Za-z0-9_\-]+\.jsonl")


class Provenance(str, Enum):
    HUMAN_SOURCE = "human_source"
    SE3_SYNTHETIC = "se3_synthetic"
    COUNTERFACTUAL_SYNTHETIC = "counterfactual_synthetic"
    MIXED = "mixed"


@dataclass(frozen=True)
class EntityDecl:
    entity_id: str
    kind: str
    extra_fields: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in ENTITY_KINDS:
            raise InvariantViolation(f"unknown entity kind {self.kind!r}")
        object.__setattr__(self, "extra_fields", tuple(self.extra_fields))


@dataclass(frozen=True)
class TaskSchema:
    """Entity declarations, the one agent and the axis-aligned workspace box,
    whose corners `workspace_min` and `workspace_max` are 3-tuples of floats.
    The simulator drives one gripper, so a timestep holds one robot state and
    one action, and the lines name `agent`."""

    task_id: str
    entities: tuple[EntityDecl, ...]
    agent: str
    workspace_min: tuple[float, float, float]
    workspace_max: tuple[float, float, float]
    _line_heads: tuple = field(init=False, repr=False, compare=False)  # see timestep_to_json

    def __post_init__(self):
        object.__setattr__(self, "entities", tuple(self.entities))
        lo, hi = tuple(map(float, self.workspace_min)), tuple(map(float, self.workspace_max))
        if len(lo) != 3 or len(hi) != 3:
            raise InvariantViolation(f"workspace corners must hold 3 numbers each, got {list(lo)} and {list(hi)}")
        if not all(b > a for a, b in zip(lo, hi)):
            raise InvariantViolation("degenerate workspace box")
        object.__setattr__(self, "workspace_min", lo)
        object.__setattr__(self, "workspace_max", hi)
        ids = [e.entity_id for e in self.entities]
        if len(set(ids)) != len(ids):
            raise InvariantViolation("duplicate entity ids in schema")
        if self.agent in ids:
            raise InvariantViolation(f"the schema's agent {self.agent!r} is also one of its entity ids")
        object.__setattr__(self, "_line_heads", _line_heads(self))

    def entity_ids(self) -> tuple[str, ...]:
        return tuple(e.entity_id for e in self.entities)


def _slot_setters(cls) -> tuple:
    """The `__set__` of each field's slot of slotted dataclass `cls`. The
    records below, built per timestep, have hand-written __init__s with the
    generated signature and defaults, which set their slots through these."""
    return tuple(getattr(cls, f.name).__set__ for f in fields(cls))


@dataclass(frozen=True, slots=True, init=False)
class EntityState:
    entity_id: str
    pose: Pose
    extra: dict[str, float] = field(default_factory=dict)

    def __init__(self, entity_id, pose, extra=()):
        set_id, set_pose, set_extra = _ENTITY_SLOTS
        set_id(self, entity_id)
        set_pose(self, pose)
        set_extra(self, dict(extra))  # a fresh dict: the record's own


@dataclass(frozen=True, slots=True, init=False)
class RobotState:
    eef_pose: Pose
    gripper_aperture: float

    def __init__(self, eef_pose, gripper_aperture):
        set_pose, set_aperture = _ROBOT_SLOTS
        set_pose(self, eef_pose)
        set_aperture(self, min(1.0, max(0.0, float(gripper_aperture))))


@dataclass(frozen=True, slots=True, init=False)
class Action:
    target_eef_pose: Pose
    gripper_command: float

    def __init__(self, target_eef_pose, gripper_command):
        set_pose, set_command = _ACTION_SLOTS
        set_pose(self, target_eef_pose)
        set_command(self, min(1.0, max(0.0, float(gripper_command))))


@dataclass(frozen=True, slots=True, init=False)
class Timestep:
    t: int
    entities: tuple[EntityState, ...]
    robots: tuple[RobotState, ...]
    actions: tuple[Action, ...]
    phase: int | None = None
    interp: bool = False

    def __init__(self, t, entities, robots, actions, phase=None, interp=False):
        set_t, set_entities, set_robots, set_actions, set_phase, set_interp = _TIMESTEP_SLOTS
        set_t(self, t)
        set_entities(self, tuple(entities))
        set_robots(self, tuple(robots))
        set_actions(self, tuple(actions))
        set_phase(self, phase)
        set_interp(self, interp)
        if t < 0:
            raise InvariantViolation(f"timestep index {t} < 0")

    def entity(self, entity_id: str) -> EntityState:
        for e in self.entities:
            if e.entity_id == entity_id:
                return e
        raise InvariantViolation(f"entity {entity_id!r} missing from timestep {self.t}")


_ENTITY_SLOTS, _ROBOT_SLOTS, _ACTION_SLOTS, _TIMESTEP_SLOTS = map(
    _slot_setters, (EntityState, RobotState, Action, Timestep))


@dataclass(frozen=True)
class Trajectory:
    traj_id: str
    timesteps: tuple[Timestep, ...]
    success: bool
    provenance: Provenance
    # the TaskSchema these timesteps passed _check_timesteps under; set by
    # validate_dataset, and unset in a copy made by dataclasses.replace
    _checked_under: TaskSchema | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "timesteps", tuple(self.timesteps))
        object.__setattr__(self, "provenance", Provenance(self.provenance))
        if not self.timesteps:
            raise InvariantViolation(f"trajectory {self.traj_id!r} is empty")

    def __len__(self):
        return len(self.timesteps)

    def phase_ranges(self) -> list[tuple[int, int, int]]:
        """Contiguous (phase, start, end) runs; requires phase labels."""
        if any(ts.phase is None for ts in self.timesteps):
            raise InvariantViolation(f"trajectory {self.traj_id!r} has unlabeled timesteps")
        runs = []
        start = 0
        for i in range(1, len(self.timesteps) + 1):
            if i == len(self.timesteps) or self.timesteps[i].phase != self.timesteps[start].phase:
                runs.append((int(self.timesteps[start].phase), start, i))
                start = i
        return runs


@dataclass(frozen=True)
class Dataset:
    task_schema: TaskSchema
    trajectories: tuple[Trajectory, ...]

    def __post_init__(self):
        object.__setattr__(self, "trajectories", tuple(self.trajectories))

    def __len__(self):
        return len(self.trajectories)

    def trajectory(self, traj_id: str) -> Trajectory:
        for tr in self.trajectories:
            if tr.traj_id == traj_id:
                return tr
        raise InvariantViolation(f"trajectory {traj_id!r} not in dataset")


# ---------------------------------------------------------------------------
# validation


_BOX_TOL = 1e-9


def _is_real(value) -> bool:
    """Whether `value` is a finite number as a JSON decode yields one: exactly
    an int or a float (so never a bool or a string) that fits a float64."""
    try:
        return (type(value) is float or type(value) is int) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _timestep_error(traj: Trajectory, ts: Timestep, what: str) -> InvariantViolation:
    return InvariantViolation(f"trajectory {traj.traj_id!r}, timestep {ts.t}: {what}")


def _check_timesteps(traj: Trajectory, schema: TaskSchema, checked: tuple[set, set]):
    """Raise InvariantViolation naming the offending trajectory/timestep.

    Every timestep is checked for t strictly increasing, phase labels >= 0
    that never decrease and one robot state, as timestep_to_json needs.
    The checks of its entities and its actions (one, inside the workspace)
    depend only on that tuple and the schema. `checked` holds per kind the
    ids of the tuples that passed earlier in this validate_dataset call,
    whose dataset keeps them alive; those are not checked again. A tuple
    that fails raises, which ends the call and its memo. One set per kind
    keeps apart the empty tuple, which they share."""
    expected_entities, decls = schema.entity_ids(), schema.entities
    lx, ly, lz = [x - _BOX_TOL for x in schema.workspace_min]
    hx, hy, hz = [x + _BOX_TOL for x in schema.workspace_max]
    seen_entities, seen_actions = checked
    prev_t = prev_phase = None
    for ts in traj.timesteps:
        if prev_t is not None and ts.t <= prev_t:
            raise _timestep_error(traj, ts, "ordering violation, t not strictly increasing")
        prev_t = ts.t
        entities, actions = ts.entities, ts.actions
        if id(entities) not in seen_entities:
            seen_entities.add(id(entities))
            got = tuple([e.entity_id for e in entities])
            if got != expected_entities:
                raise _timestep_error(traj, ts, f"entity ordering {got} != schema {expected_entities}")
            for e, decl in zip(entities, decls):
                if not e.extra and not decl.extra_fields:  # nothing to check, as for most entities
                    continue
                if tuple(e.extra) != decl.extra_fields:
                    raise _timestep_error(
                        traj, ts, f"entity {e.entity_id!r} extra fields {tuple(e.extra)} != {decl.extra_fields}")
                for key, value in e.extra.items():
                    if not _is_real(value):
                        raise _timestep_error(
                            traj, ts, f"entity {e.entity_id!r} extra {key!r} is {value!r}, not a finite real number")
        if len(ts.robots) != 1:
            raise _timestep_error(traj, ts, f"exactly one robot state required, got {len(ts.robots)}")
        if id(actions) not in seen_actions:
            seen_actions.add(id(actions))
            if len(actions) != 1:
                raise _timestep_error(traj, ts, f"exactly one action required, got {len(actions)}")
            x, y, z = actions[0].target_eef_pose.xyz
            if not (lx <= x <= hx and ly <= y <= hy and lz <= z <= hz):
                raise _timestep_error(traj, ts, f"action target position {[x, y, z]} outside workspace bounds")
        phase = ts.phase
        if phase is not None:
            if phase < 0:
                raise _timestep_error(traj, ts, f"phase {phase} < 0")
            if prev_phase is not None and phase < prev_phase:
                raise _timestep_error(traj, ts, "phase labels decrease")
            prev_phase = phase


def validate_dataset(ds: Dataset):
    """Check that traj_ids are unique and filesystem-safe, and every
    trajectory's timesteps, each distinct entities and actions tuple once
    per call (see _check_timesteps), on a save, a load and a validate alike.

    A trajectory whose timesteps pass is marked with the schema they passed
    under (`_checked_under`), as a pose keeps its encoding: it is immutable,
    so under that schema, or an equal one, its timestep checks are not run
    again."""
    schema = ds.task_schema
    seen, checked = set(), (set(), set())
    for tr in ds.trajectories:
        if tr.traj_id in seen:
            raise InvariantViolation(f"duplicate traj_id {tr.traj_id!r}")
        seen.add(tr.traj_id)
        if not _ID_RE.fullmatch(tr.traj_id):
            raise InvariantViolation(f"trajectory {tr.traj_id!r}: traj_id is not filesystem-safe")
        if tr._checked_under is not schema and tr._checked_under != schema:
            _check_timesteps(tr, schema, checked)
            object.__setattr__(tr, "_checked_under", schema)


# ---------------------------------------------------------------------------
# slicing


def slice_subtrajectory(traj: Trajectory, t0: int, t1: int) -> Trajectory:
    """Timesteps [t0, t1) with indices re-based to zero."""
    if not (0 <= t0 < t1 <= len(traj.timesteps)):
        raise InvariantViolation(f"slice [{t0}, {t1}) invalid for length {len(traj.timesteps)}")
    sliced = tuple(replace(ts, t=i) for i, ts in enumerate(traj.timesteps[t0:t1]))
    return Trajectory(
        traj_id=f"{traj.traj_id}_s{t0}_{t1}",
        timesteps=sliced,
        success=traj.success,
        provenance=traj.provenance,
    )


# ---------------------------------------------------------------------------
# JSON codecs (explicit key order everywhere; floats via repr round-trip)

_quote = json.encoder.encode_basestring_ascii


def _pose_to_json(pose: Pose) -> str:
    """The pose's JSON object, encoded on the first call and kept in the
    pose's `_json` slot: a Pose and its floats are immutable."""
    try:
        return pose._json
    except AttributeError:
        pass
    x, y, z = pose.xyz
    w, qx, qy, qz = pose.wxyz
    text = f'{{"position":[{x!r},{y!r},{z!r}],"orientation":[{w!r},{qx!r},{qy!r},{qz!r}]}}'
    object.__setattr__(pose, "_json", text)
    return text


def _reject_constant(name: str):
    raise InvariantViolation(f"non-finite number {name} is not allowed")


_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def read_json(path, failure: str):
    """The JSON value in the file at `path` (a path or a package resource).
    A file that cannot be read, is not JSON, or holds NaN or Infinity raises
    IoFailure with the message `{failure} {path}: {reason}`."""
    try:
        path = Path(path) if isinstance(path, (str, os.PathLike)) else path
        return _DECODER.decode(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError, InvariantViolation) as exc:  # ValueError: not UTF-8 or not JSON
        raise IoFailure(f"{failure} {path}: {exc}") from exc


def write_json(path, value, failure: str) -> None:
    """Write `value` to the file at `path` as JSON, indented by 2 with sorted
    keys and a final newline. A file that cannot be written (its directory
    is missing, or it is a directory) raises IoFailure with the message
    `{failure} {path}: {reason}`."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(value, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise IoFailure(f"{failure} {path}: {exc}") from exc


@dataclass(frozen=True)
class Param:
    """One typed value of an input file or a stage: its kind and its default.

    `kind` is int, float, bool or str; a dict of choices, each under the name
    the subcommand flag gives it; a count n, for a list of n numbers; or
    (str,) or (int,), for a list of strings or of integers. Values have the
    exact types a JSON decode yields: numbers must be finite, and bools JSON
    bools. An int below `minimum` is refused. A None default is worked out
    by the value's user from its input, and None is then also a value the
    parameter takes; a MISSING default, that the value must be given.
    """

    kind: object
    default: object
    minimum: int | None = None

    def parse(self, what: str, value, error=InvariantViolation):
        """The value as its user takes it, lists as tuples; `error` naming
        `what` if it is malformed."""
        if value is None and self.default is None:
            return None
        kind = self.kind
        if kind is bool:
            ok, want = type(value) is bool, "true or false"
        elif kind is int:
            ok = type(value) is int and (self.minimum is None or value >= self.minimum)
            want = "an integer" if self.minimum is None else f"an integer >= {self.minimum}"
        elif kind is float:
            ok, want = _is_real(value), "a finite number"
        elif kind is str:
            ok, want = type(value) is str, "a string"
        elif isinstance(kind, dict):
            ok, want = value in kind.values(), f"one of {', '.join(kind.values())}"
        elif isinstance(kind, tuple):
            ok = isinstance(value, (list, tuple)) and all(type(v) is kind[0] for v in value)
            want = "a list of strings" if kind[0] is str else "a list of integers"
        else:
            ok = isinstance(value, (list, tuple)) and len(value) == kind and all(map(_is_real, value))
            want = f"a list of {kind} finite numbers"
        if not ok:
            raise error(f"{what} must be {want}, got {value!r}")
        if kind is float:
            return float(value)
        if isinstance(kind, int):
            return tuple(map(float, value))
        return tuple(value) if isinstance(kind, tuple) else value


def _at(where: str, key) -> str:
    """The path of `key` inside the JSON value at path `where`."""
    return f"{where}.{key}" if where else str(key)


def check_keys(where: str, obj, required, known) -> None:
    """InvariantViolation unless `obj`, the JSON value at path `where`, is an
    object that holds every key in `required` and no key outside `known`.
    An unknown key is named first: a key of an old layout is refused as what
    it is, not as the new key it lacks."""
    if type(obj) is not dict:
        raise InvariantViolation(f"{where or 'the file'} must be a JSON object, got {type(obj).__name__}")
    for key in obj:
        if key not in known:
            raise InvariantViolation(f"unknown key {_at(where, key)!r} (known: {', '.join(known)})")
    for key in required:
        if key not in obj:
            raise InvariantViolation(f"KeyError: {_at(where, key)!r}")


# the Param kind of each field annotation (a string: the modules postpone
# their annotations) whose value a JSON value holds directly
_FIELD_KINDS = {"int": int, "float": float, "bool": bool, "str": str, "tuple[float, float]": 2,
                "tuple[str, ...]": (str,), "tuple[int, ...]": (int,)}


def record_from_json(cls, where: str, obj, **readers):
    """The instance of dataclass `cls` in the JSON object `obj` at path `where`.

    A field named in `readers` is read from its key by its reader, called as
    reader(path, value); a pair (key, reader) reads it from another key.
    Every other field is a value of the kind its annotation names in
    _FIELD_KINDS, checked by a Param with the field's default. A missing key
    takes the field's default; a missing key of a field without one, or a
    key that names no field, raises InvariantViolation. Fields that are not
    __init__ parameters are worked out by the class and are not read.
    """
    table = {}  # JSON key -> (field name, reader)
    for name, read in readers.items():
        key, read = read if isinstance(read, tuple) else (name, read)
        table[key] = (name, read)
    given = [f for f in fields(cls) if f.init]
    required = {f.name for f in given if f.default is MISSING and f.default_factory is MISSING}
    for f in given:
        if f.name not in readers:
            table[f.name] = (f.name, Param(_FIELD_KINDS[f.type], f.default).parse)
    check_keys(where, obj, [key for key, (name, _) in table.items() if name in required], table)
    return cls(**{table[key][0]: table[key][1](_at(where, key), value) for key, value in obj.items()})


def dict_from_json(where: str, obj, read) -> dict:
    """{key: read(path, value)} over the entries of the JSON object `obj`."""
    check_keys(where, obj, (), obj)
    return {key: read(_at(where, key), value) for key, value in obj.items()}


def list_from_json(where: str, obj, read) -> tuple:
    """(read(path, value), ...) over the items of the JSON list `obj`."""
    if type(obj) is not list:
        raise InvariantViolation(f"{where} must be a list, got {type(obj).__name__}")
    return tuple(read(f"{where}[{i}]", value) for i, value in enumerate(obj))


_POSE_BITS = struct.Struct("<7d").pack


def _refuse_unknown_key(where: str, what: str, obj, known) -> None:
    """InvariantViolation naming a key of `obj`, the JSON object of a `what`
    in the timestep line or file at `where`, that is not in `known`. The
    parse hot path calls it only when the object's key count is off; if no
    key is unknown (a required one is missing), the caller's lookup reports
    that."""
    for key in obj if type(obj) is dict else ():
        if key not in known:
            raise InvariantViolation(f"{where}: unknown key {key!r} in {what} (known: {', '.join(known)})")


_POSE_KEYS = ("position", "orientation")


def _pose_from_json(obj, where: str, poses: dict) -> Pose:
    """The checked Pose of a JSON pose object. `poses` maps the exact float64
    bits of every pose built so far in this load to its Pose: the Pose checks
    are a pure function of those bits, so a pose seen before is returned as
    is. The key keeps -0.0 and 0.0 apart, which float == would merge. The
    per-value type checks (exact ints and floats, as in _is_real; Pose
    checks finiteness) run on every occurrence, before the lookup. A two-key
    pose of seven floats, as a save writes it, is looked up first and built
    by the Pose constructor if new; any other pose, and any failure there,
    goes to the second branch, which takes ints and raises a malformed
    pose's error."""
    try:
        pos, ori = obj["position"], obj["orientation"]
        if type(pos) is list and type(ori) is list and len(obj) == 2:
            (x, y, z), (w, i, j, k) = pos, ori
            if (type(x) is float and type(y) is float and type(z) is float and type(w) is float
                    and type(i) is float and type(j) is float and type(k) is float):
                key = _POSE_BITS(x, y, z, w, i, j, k)
                pose = poses.get(key)
                if pose is None:
                    pose = poses[key] = Pose(pos, ori)
                return pose
    except (KeyError, TypeError, ValueError, InvariantViolation):
        pass
    try:
        if len(obj) != 2:
            _refuse_unknown_key(where, "a pose", obj, _POSE_KEYS)
        pos, ori = obj["position"], obj["orientation"]
        if type(pos) is not list or type(ori) is not list:
            raise InvariantViolation(f"{where}: pose position and orientation must be lists, got {obj!r}")
        for x in pos + ori:
            if type(x) is not float and type(x) is not int:
                raise InvariantViolation(f"{where}: pose value {x!r} is not a number")
    except (KeyError, TypeError) as exc:
        raise InvariantViolation(f"{where}: malformed pose ({exc})") from exc
    key = None
    if len(pos) == 3 and len(ori) == 4:  # else Pose reports the wrong size
        try:
            key = _POSE_BITS(*pos, *ori)
        except struct.error:  # an int too large for a float: Pose reports it
            pass
        pose = poses.get(key)
        if pose is not None:
            return pose
    try:
        pose = Pose(pos, ori)
    except OverflowError as exc:  # an int too large for a float
        raise InvariantViolation(f"{where}: malformed pose ({exc})") from exc
    except InvariantViolation as exc:
        raise InvariantViolation(f"{where}: {exc}") from exc
    if key is not None:
        poses[key] = pose
    return pose


def _line_heads(schema: TaskSchema) -> tuple:
    """The text of a timestep line that the schema fixes: per entity, with
    the comma before each but the first, its text up to the pose and each
    extra key's `"key":`; and the text of the agent's robot state and of its
    action up to the pose."""
    entities = tuple(("," * (i > 0) + f'{{"entity_id":{_quote(d.entity_id)},"pose":',
                      tuple(f"{_quote(k)}:" for k in d.extra_fields)) for i, d in enumerate(schema.entities))
    robot, action = (f'{{"agent_id":{_quote(schema.agent)},"{key}":' for key in ("eef_pose", "target_eef_pose"))
    return entities, robot, action


def timestep_to_json(ts: Timestep, schema: TaskSchema) -> str:
    """One JSONL line (without its newline) for a timestep that passed
    validate_dataset's checks against `schema`. The bytes equal
    json.dumps(..., separators=(",", ":"), ensure_ascii=True) of the nested
    dict in key order t, entities, robots, actions, phase[, interp]: floats
    are written with repr and strings with json's ASCII escaper. The ids
    and extra keys are written from the schema's `_line_heads`: the checks
    compared the entity ids and extra keys with the schema's, and the one
    robot state and the one action are the schema's one agent's."""
    entity_heads, robot_head, action_head = schema._line_heads
    (r,), (a,) = ts.robots, ts.actions
    entities = ""
    for e, (head, extras) in zip(ts.entities, entity_heads):
        extra = ",".join([key + repr(float(v)) for key, v in zip(extras, e.extra.values())]) if extras else ""
        entities += f'{head}{_pose_to_json(e.pose)},"extra":{{{extra}}}}}'
    robots = f'{robot_head}{_pose_to_json(r.eef_pose)},"gripper_aperture":{float(r.gripper_aperture)!r}}}'
    actions = f'{action_head}{_pose_to_json(a.target_eef_pose)},"gripper_command":{float(a.gripper_command)!r}}}'
    phase = "null" if ts.phase is None else int(ts.phase)
    interp = ',"interp":true' if ts.interp else ""
    return (
        f'{{"t":{int(ts.t)},"entities":[{entities}],"robots":[{robots}],"actions":[{actions}],'
        f'"phase":{phase}{interp}}}'
    )


_REAL = Param(float, MISSING)


_LINE_KEYS = ("t", "entities", "robots", "actions", "phase", "interp")
_ENTITY_KEYS = ("entity_id", "pose", "extra")
_ROBOT_KEYS = ("agent_id", "eef_pose", "gripper_aperture")
_ACTION_KEYS = ("agent_id", "target_eef_pose", "gripper_command")


def _entities_from_json(items, where: str, poses: dict, agent: str) -> tuple[EntityState, ...]:
    """The EntityStates of a line's decoded `entities` array. This and the
    two readers below, which check each agent id against `agent`, raise
    InvariantViolation for a malformed pose, value, agent id or unknown key,
    and a raw lookup or type error for any other malformed shape."""
    entities = []
    for e in items:
        if len(e) != 2 + ("extra" in e):
            _refuse_unknown_key(where, "an entity", e, _ENTITY_KEYS)
        entities.append(EntityState(e["entity_id"], _pose_from_json(e["pose"], where, poses), e.get("extra", ())))
    return tuple(entities)


def _agent_reader(cls, what: str, keys: tuple[str, str, str]):
    """The reader of a line's robots (RobotState) or actions (Action) array,
    whose objects hold `keys`: agent id, pose and gripper value in [0, 1]."""
    agent_key, pose_key, value_key = keys

    def read(items, where: str, poses: dict, agent: str) -> tuple:
        records = []
        for r in items:
            if len(r) != 3:
                _refuse_unknown_key(where, what, r, keys)
            if r[agent_key] != agent:
                raise InvariantViolation(f"{where}: {what}'s agent_id {r[agent_key]!r} is not the schema's agent {agent!r}")
            pose, value = _pose_from_json(r[pose_key], where, poses), r[value_key]
            if type(value) is not float or not 0.0 <= value <= 1.0:
                value = _REAL.parse(f"{where}: {value_key}", value)
                if not 0.0 <= value <= 1.0:
                    raise InvariantViolation(f"{where}: {value_key} {value!r} is outside [0, 1]")
            records.append(cls(pose, value))
        return tuple(records)

    return read


_robots_from_json = _agent_reader(RobotState, "a robot", _ROBOT_KEYS)
_actions_from_json = _agent_reader(Action, "an action", _ACTION_KEYS)


# what a section reader raises, besides InvariantViolation, for a malformed shape
_MALFORMED = (AttributeError, KeyError, OverflowError, TypeError, ValueError)


def timestep_from_json(obj: dict, where: str, poses: dict, agent: str) -> Timestep:
    """The Timestep of one decoded JSONL line of a dataset whose schema's
    agent is `agent`; `poses` is the load's pose cache (see _pose_from_json).
    Unknown keys are refused: each object's key count is compared with the
    count of its required keys plus the optional ones it holds, and only a
    mismatch looks for the unknown key."""
    try:
        if len(obj) != 4 + ("phase" in obj) + ("interp" in obj):
            _refuse_unknown_key(where, "a timestep", obj, _LINE_KEYS)
        entities = _entities_from_json(obj["entities"], where, poses, agent)
        robots = _robots_from_json(obj["robots"], where, poses, agent)
        actions = _actions_from_json(obj["actions"], where, poses, agent)
        t, phase, interp = obj["t"], obj.get("phase"), obj.get("interp", False)
        if type(t) is not int:
            raise InvariantViolation(f"{where}: t must be an integer, got {t!r}")
        if phase is not None and (type(phase) is not int or phase < 0):
            raise InvariantViolation(f"{where}: phase must be null or an integer >= 0, got {phase!r}")
        if type(interp) is not bool:
            raise InvariantViolation(f"{where}: interp must be a bool, got {interp!r}")
    except _MALFORMED as exc:
        raise InvariantViolation(f"{where}: malformed timestep ({exc})") from exc
    try:
        return Timestep(t=t, entities=entities, robots=robots, actions=actions, phase=phase, interp=interp)
    except InvariantViolation as exc:  # its check of t >= 0
        raise InvariantViolation(f"{where}: {exc}") from exc


def schema_to_json(schema: TaskSchema) -> dict:
    return {
        "task_id": schema.task_id,
        "entities": [{"entity_id": e.entity_id, "kind": e.kind, "extra_fields": list(e.extra_fields)}
                     for e in schema.entities],
        "agents": [schema.agent],
        "workspace": {"min": list(schema.workspace_min), "max": list(schema.workspace_max)},
    }


_SCHEMA_KEYS = ("task_id", "entities", "agents", "workspace")


def schema_from_json(where: str, obj) -> TaskSchema:
    """The TaskSchema in its JSON object at path `where`, as schema_to_json
    writes it; InvariantViolation if that is malformed. Its `agents` list
    must hold exactly one id."""
    check_keys(where, obj, _SCHEMA_KEYS, _SCHEMA_KEYS)
    box, at = obj["workspace"], _at(where, "workspace")
    check_keys(at, box, ("min", "max"), ("min", "max"))
    agents = Param((str,), MISSING).parse(_at(where, "agents"), obj["agents"])
    if len(agents) != 1:
        raise InvariantViolation(f"a schema declares exactly one agent, got agents {list(agents)}")
    return TaskSchema(
        task_id=Param(str, MISSING).parse(_at(where, "task_id"), obj["task_id"]),
        entities=list_from_json(_at(where, "entities"), obj["entities"],
                                lambda path, e: record_from_json(EntityDecl, path, e)),
        agent=agents[0],
        workspace_min=Param(3, MISSING).parse(_at(at, "min"), box["min"]),
        workspace_max=Param(3, MISSING).parse(_at(at, "max"), box["max"]),
    )


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=True, allow_nan=False)


# ---------------------------------------------------------------------------
# save / load


def traj_filename(traj_id: str) -> str:
    return f"traj_{traj_id}.jsonl"


@dataclass(frozen=True)
class SavedFiles:
    """What one save_dataset call wrote: the task schema it wrote under, and
    id(timesteps) -> (that timesteps tuple, the file holding its lines).
    Holding the tuple keeps its id from being reused by another object while
    the mapping lives."""

    schema: TaskSchema
    files: dict[int, tuple[tuple[Timestep, ...], Path]]


def save_dataset(ds: Dataset, path, previous: SavedFiles | None = None) -> SavedFiles:
    """Validate `ds` (see validate_dataset) and write its manifest and one
    jsonl file per trajectory; deterministic bytes.

    A trajectory file's bytes depend only on its timesteps and the schema, so
    a trajectory whose timesteps tuple is the very object that `previous`
    (the return value of the immediately preceding save, under an equal
    schema) wrote is copied from that file instead of re-encoded. Never build
    a SavedFiles from loaded files, which need not be in canonical form. That
    save may have been to `path` itself: its files stay in place until the
    swap below.

    The save is atomic: the files are written into a new hidden sibling
    directory, manifest last, which then replaces `path` by rename, so no
    file of an earlier dataset at `path` survives and a failed save leaves
    that dataset as it was. `path` must be absent or hold only dataset files.
    """
    validate_dataset(ds)
    reused = previous.files if previous is not None and previous.schema == ds.task_schema else {}
    root = Path(path).resolve()
    staging = root.with_name(f".{root.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    old = staging.with_suffix(".old")
    saved = SavedFiles(ds.task_schema, {})
    try:
        _check_replaceable(root)
        root.parent.mkdir(parents=True, exist_ok=True)
        staging.mkdir()
    except OSError as exc:
        raise IoFailure(f"failed writing dataset to {root}: {exc}") from exc
    try:
        for tr in ds.trajectories:
            dest = root / traj_filename(tr.traj_id)
            earlier = reused.get(id(tr.timesteps))
            if earlier is not None:
                shutil.copyfile(earlier[1], staging / dest.name)
            else:
                lines = [timestep_to_json(ts, ds.task_schema) for ts in tr.timesteps]
                with open(staging / dest.name, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write("\n".join(lines) + "\n")
            saved.files[id(tr.timesteps)] = (tr.timesteps, dest)
        manifest = {
            "schema_version": SCHEMA_VERSION,
            "task_schema": schema_to_json(ds.task_schema),
            "trajectories": [
                {
                    "traj_id": tr.traj_id,
                    "task_id": ds.task_schema.task_id,
                    "file": traj_filename(tr.traj_id),
                    "num_timesteps": len(tr.timesteps),
                    "success": tr.success,
                    "provenance": tr.provenance.value,
                }
                for tr in ds.trajectories
            ],
        }
        with open(staging / "manifest.json", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_dumps(manifest))
            fh.write("\n")
        if root.exists():
            root.rename(old)
        try:
            staging.rename(root)
        except OSError:
            if old.exists():
                old.rename(root)
            raise
    except OSError as exc:
        raise IoFailure(f"failed writing dataset to {root}: {exc}") from exc
    finally:
        shutil.rmtree(staging, ignore_errors=True)
        shutil.rmtree(old, ignore_errors=True)
    return saved


def _check_replaceable(root: Path) -> None:
    """Refuse to replace anything but a dataset directory."""
    if not root.exists():
        return
    if not root.is_dir():
        raise IoFailure(f"{root} exists and is not a directory")
    for entry in root.iterdir():
        if not entry.is_file() or not (entry.name == "manifest.json" or _TRAJ_FILE_RE.fullmatch(entry.name)):
            raise IoFailure(f"{root} holds {entry.name!r}, which is not a dataset file; refusing to replace it")


# the keys save_dataset writes, at the top level of the manifest and in each
# trajectory entry: all are required but an entry's task_id (the schema's)
_MANIFEST_KEYS = ("schema_version", "task_schema", "trajectories")
_MANIFEST_ENTRY_KEYS = ("traj_id", "task_id", "file", "num_timesteps", "success", "provenance")
_MANIFEST_ENTRY_REQUIRED = tuple(key for key in _MANIFEST_ENTRY_KEYS if key != "task_id")
_NUM_TIMESTEPS = Param(int, MISSING, minimum=0)


def _check_manifest_entry(entry, n: int, schema: TaskSchema) -> None:
    where = f"manifest.trajectories.{n}"
    check_keys(where, entry, _MANIFEST_ENTRY_REQUIRED, _MANIFEST_ENTRY_KEYS)
    if entry.get("task_id", schema.task_id) != schema.task_id:
        raise InvariantViolation(f"{where}: task_id {entry['task_id']!r} != schema {schema.task_id!r}")
    _NUM_TIMESTEPS.parse(_at(where, "num_timesteps"), entry["num_timesteps"])
    traj_id = entry["traj_id"]
    if not isinstance(traj_id, str) or not _ID_RE.fullmatch(traj_id):
        raise InvariantViolation(f"{where}: traj_id {traj_id!r} is not a filesystem-safe string")
    if entry["file"] != traj_filename(traj_id):
        raise InvariantViolation(f"{where}: file {entry['file']!r} != {traj_filename(traj_id)!r}")
    if not isinstance(entry["success"], bool):
        raise InvariantViolation(f"{where}: success {entry['success']!r} is not a JSON bool")
    if entry["provenance"] not in [p.value for p in Provenance]:
        raise InvariantViolation(f"{where}: unknown provenance {entry['provenance']!r}")


# A timestep line in the layout timestep_to_json writes: t, the entities,
# robots and actions arrays, phase, and interp when it is true.
_LINE_RE = re.compile(
    r'\{"t":(0|[1-9][0-9]*),"entities":(\[.*\]),"robots":(\[.*\]),"actions":(\[.*\]),'
    r'"phase":(null|0|[1-9][0-9]*)(,"interp":true)?\}',
    re.DOTALL,
)
_SECTION_READERS = (_entities_from_json, _robots_from_json, _actions_from_json)


def _timestep_from_line(line: str, traj_id: str, i: int, poses: dict,
                        sections: tuple[dict, dict, dict], agent: str) -> Timestep:
    """The Timestep of line `i` of trajectory `traj_id`'s JSONL file, in a
    dataset whose schema's agent is `agent`.

    A line that _LINE_RE matches is read section by section: `sections`
    maps, per section kind, each section text read so far in this load to
    its tuple of records, which every later line holding that text shares.
    The split is sound: if each of the three texts decodes to a JSON array,
    the whole line decodes to exactly the object the pieces make up, as a
    split at any other point would leave some piece unbalanced.

    Any other line, and any line with a section that fails to read, goes
    to the whole-line reader (decode, then timestep_from_json), the
    reference, which accepts any JSON layout and raises the errors of a
    malformed line. A failed section is not cached, and its error is
    dropped: only the whole-line reader needs the line's `where` text."""
    match = _LINE_RE.fullmatch(line)
    if match is not None:
        t, *texts, phase, interp = match.groups()
        try:
            records = []
            for text, read, cache in zip(texts, _SECTION_READERS, sections):
                section = cache.get(text)
                if section is None:
                    section = cache[text] = read(_DECODER.decode(text), "", poses, agent)
                records.append(section)
            return Timestep(int(t), *records, None if phase == "null" else int(phase), interp is not None)
        except (*_MALFORMED, RecursionError, InvariantViolation):
            pass  # the whole-line reader raises the error, if the line has one
    where = f"trajectory {traj_id!r}, timestep line {i}"
    try:
        obj = _DECODER.decode(line)
    except (ValueError, RecursionError) as exc:  # not JSON, or an int or a nesting past the decoder's limits
        raise IoFailure(f"{where}: bad JSON ({exc})") from exc
    except InvariantViolation as exc:
        raise InvariantViolation(f"{where}: {exc}") from exc
    return timestep_from_json(obj, where, poses, agent)


def load_dataset(path) -> Dataset:
    """Read and fully validate a dataset directory.

    A load shares what it has already read and checked. Each distinct pose,
    by the exact float64 bits of its 7 values, is checked and built once
    and shared by every timestep that holds it. Each distinct text of a
    timestep line's entities, robots or actions array is decoded, built
    and checked against the schema once, and every line holding that text
    shares its tuple of records (see _timestep_from_line). These caches
    live for one load_dataset call; nothing is kept across loads. What
    loads, and every error raised, is the same as if each line were read
    whole and afresh."""
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise IoFailure(f"no manifest.json under {root}")
    manifest = read_json(manifest_path, "failed reading")
    check_keys("manifest", manifest, _MANIFEST_KEYS, _MANIFEST_KEYS)
    version = manifest["schema_version"]
    if not isinstance(version, str) or version.split(".")[0] != SCHEMA_VERSION.split(".")[0]:
        raise InvariantViolation(
            f"manifest schema_version {version!r} unsupported (tool supports {SCHEMA_VERSION.split('.')[0]}.x)"
        )
    schema = schema_from_json("task_schema", manifest["task_schema"])
    entries = manifest["trajectories"]
    if not isinstance(entries, list):
        raise InvariantViolation("manifest trajectories is not a JSON list")
    trajectories = []
    poses: dict[bytes, Pose] = {}
    sections: tuple[dict, dict, dict] = ({}, {}, {})
    for n, entry in enumerate(entries):
        _check_manifest_entry(entry, n, schema)
        traj_id = entry["traj_id"]
        fpath = root / entry["file"]
        try:
            # "\n" alone ends a line: splitlines() would also break at U+2028,
            # U+2029 and U+0085, which JSON allows raw inside a string
            lines = fpath.read_text(encoding="utf-8").split("\n")
        except (OSError, UnicodeDecodeError) as exc:
            raise IoFailure(f"failed reading {fpath}: {exc}") from exc
        timesteps = []
        for i, line in enumerate(lines):
            if not line.strip():
                continue
            timesteps.append(_timestep_from_line(line, traj_id, i, poses, sections, schema.agent))
        if entry["num_timesteps"] != len(timesteps):
            raise InvariantViolation(
                f"trajectory {traj_id!r}: manifest num_timesteps {entry['num_timesteps']!r} "
                f"!= {len(timesteps)} timestep lines in {entry['file']}"
            )
        trajectories.append(
            Trajectory(
                traj_id=traj_id,
                timesteps=tuple(timesteps),
                success=entry["success"],
                provenance=Provenance(entry["provenance"]),
            )
        )
    ds = Dataset(task_schema=schema, trajectories=tuple(trajectories))
    validate_dataset(ds)
    return ds
