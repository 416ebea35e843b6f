"""Task definitions and their JSON form.

The bundled toy tasks are JSON files in the package's `bundled` directory:
`stack` (three-block stacking) and `coffee` (a pod placed into a machine
whose lid is then pushed shut). Any other task file with the same field
layout can be given by path wherever a bundled name is accepted.

A task file goes through the dataset codec's typed checks: its schema and
home pose through their codecs in `data`, and every other section through
the fields of its dataclass in `sim`, which give each key's kind and
default. Unknown keys are refused: the task's id is its schema's `task_id`,
so a top-level `task_id` is one, and the causal spec is its kind's
(sim.TASK_KINDS), so a `causal_spec` is one too; a --spec file is the one
override of the kind's graphs and merge map."""

from __future__ import annotations

from dataclasses import MISSING
from importlib.resources import files
from pathlib import Path

from .data import Param, _pose_from_json, check_keys, dict_from_json, read_json, record_from_json, schema_from_json
from .errors import InvariantViolation, IoFailure
from .sim import ObjectGeom, PoseSampler, ReceptacleGeom, TaskDefinition

# a geom's "type" key names its class; its other keys are that class's fields
GEOMS = {"object": ObjectGeom, "receptacle": ReceptacleGeom}
_GEOM_TYPE = Param({name: name for name in GEOMS}, MISSING)


def _geom_from_json(where: str, obj):
    check_keys(where, obj, ("type",), obj)
    cls = GEOMS[_GEOM_TYPE.parse(f"{where}.type", obj["type"])]
    return record_from_json(cls, where, {key: value for key, value in obj.items() if key != "type"})


def task_from_dict(obj) -> TaskDefinition:
    """Build a task from its JSON layout; anything malformed raises
    InvariantViolation (a DemoaugError), never a bare KeyError or TypeError."""
    try:
        return record_from_json(
            TaskDefinition, "", obj,
            schema=schema_from_json,
            samplers=lambda where, value: dict_from_json(
                where, value, lambda at, sampler: record_from_json(PoseSampler, at, sampler)),
            geoms=lambda where, value: dict_from_json(where, value, _geom_from_json),
            home_pose=lambda where, value: _pose_from_json(value, where, {}),
        )
    except InvariantViolation as exc:
        raise InvariantViolation(f"malformed task definition ({exc})") from exc


def load_task_definition(path) -> TaskDefinition:
    """The task in a JSON file: IoFailure if the file cannot be read or is
    not JSON, InvariantViolation naming the file if its content is malformed."""
    obj = read_json(path, "failed reading task file")
    try:
        return task_from_dict(obj)
    except InvariantViolation as exc:
        raise InvariantViolation(f"task file {path}: {exc}") from exc


def resolve_task(name_or_path: str) -> TaskDefinition:
    """Accept a bundled task name (`bundled/<name>.json` in this package) or
    a path to a task JSON file."""
    bundled = files(__package__) / "bundled" / f"{name_or_path}.json"
    if name_or_path.isidentifier() and bundled.is_file():
        return load_task_definition(bundled)
    p = Path(name_or_path)
    if p.is_file():
        return load_task_definition(p)
    raise IoFailure(f"no bundled task or config file named {name_or_path!r}")
