"""Task definitions and their JSON form.

The bundled toy tasks are JSON files in the package's `bundled` directory:
`stack` (three-block stacking) and `coffee` (a pod placed into a machine
whose lid is then pushed shut). Any other task file with the same field
layout can be given by path wherever a bundled name is accepted."""

from __future__ import annotations

import json
import math
from importlib.resources import files
from pathlib import Path

import numpy as np

from .causal import causal_spec_from_dict, causal_spec_to_dict
from .data import EntityDecl, TaskSchema
from .errors import InvariantViolation, IoFailure, UnknownTask
from .geometry import Pose
from .sim import ExpertParams, ObjectGeom, PoseSampler, ReceptacleGeom, SimParams, TaskDefinition


def task_to_dict(task: TaskDefinition) -> dict:
    def geom_to_dict(g):
        if isinstance(g, ReceptacleGeom):
            return {
                "type": "receptacle",
                "height": g.height,
                "well_offset": list(g.well_offset),
                "well_radius": g.well_radius,
                "well_floor_z": g.well_floor_z,
                "push_offset": list(g.push_offset),
                "push_radius": g.push_radius,
                "push_band": list(g.push_band),
                "lid_gain": g.lid_gain,
                "body_radius": g.body_radius,
            }
        return {"type": "object", "height": g.height, "graspable": g.graspable}

    return {
        "task_id": task.task_id,
        "kind": task.kind,
        "schema": {
            "task_id": task.schema.task_id,
            "entities": [
                {"entity_id": e.entity_id, "kind": e.kind, "extra_fields": list(e.extra_fields)}
                for e in task.schema.entities
            ],
            "agents": list(task.schema.agents),
            "workspace": {
                "min": [float(x) for x in task.schema.workspace_min],
                "max": [float(x) for x in task.schema.workspace_max],
            },
        },
        "samplers": {
            eid: {
                "x_range": list(s.x_range),
                "y_range": list(s.y_range),
                "z_range": list(s.z_range),
                "yaw_range": list(s.yaw_range),
            }
            for eid, s in task.samplers.items()
        },
        "geoms": {eid: geom_to_dict(g) for eid, g in task.geoms.items()},
        "home_pose": {
            "position": [float(x) for x in task.home_pose.position],
            "orientation": [float(x) for x in task.home_pose.orientation],
        },
        "sim": {
            "max_pos_step": task.sim.max_pos_step,
            "max_rot_step": task.sim.max_rot_step,
            "aperture_rate": task.sim.aperture_rate,
            "grasp_radius": task.sim.grasp_radius,
            "close_threshold": task.sim.close_threshold,
            "support_radius": task.sim.support_radius,
            "min_separation": task.sim.min_separation,
            "placement_attempts": task.sim.placement_attempts,
        },
        "expert": {
            "transit_z": task.expert.transit_z,
            "align_tol": task.expert.align_tol,
            "step_pos": task.expert.step_pos,
            "step_rot": task.expert.step_rot,
        },
        "xy_tol": task.xy_tol,
        "z_tol": task.z_tol,
        "lid_closed_threshold": task.lid_closed_threshold,
        "lid_initial_angle": task.lid_initial_angle,
        "stack_order": list(task.stack_order),
        "color_sensitive": task.color_sensitive,
        "causal_spec": causal_spec_to_dict(task.causal),
    }


def task_from_dict(obj: dict) -> TaskDefinition:
    """Build a task from its JSON layout; anything malformed raises
    InvariantViolation (a DemoaugError), never a bare KeyError or TypeError."""
    def geom_from_dict(g):
        if g["type"] == "receptacle":
            return ReceptacleGeom(
                height=float(g["height"]),
                well_offset=tuple(g["well_offset"]),
                well_radius=float(g["well_radius"]),
                well_floor_z=float(g["well_floor_z"]),
                push_offset=tuple(g["push_offset"]),
                push_radius=float(g["push_radius"]),
                push_band=tuple(g["push_band"]),
                lid_gain=float(g["lid_gain"]),
                body_radius=float(g["body_radius"]),
            )
        return ObjectGeom(float(g["height"]), bool(g.get("graspable", True)))

    try:
        sch = obj["schema"]
        schema = TaskSchema(
            task_id=sch["task_id"],
            entities=tuple(
                EntityDecl(e["entity_id"], e["kind"], tuple(e.get("extra_fields", ()))) for e in sch["entities"]
            ),
            agents=tuple(sch["agents"]),
            workspace_min=np.array(sch["workspace"]["min"]),
            workspace_max=np.array(sch["workspace"]["max"]),
        )
        samplers = {
            eid: PoseSampler(
                tuple(s["x_range"]), tuple(s["y_range"]), tuple(s["z_range"]), tuple(s.get("yaw_range", (0, 0)))
            )
            for eid, s in obj["samplers"].items()
        }
        return TaskDefinition(
            task_id=obj["task_id"],
            kind=obj["kind"],
            schema=schema,
            samplers=samplers,
            geoms={eid: geom_from_dict(g) for eid, g in obj["geoms"].items()},
            causal=causal_spec_from_dict(obj["causal_spec"]),
            home_pose=Pose(np.array(obj["home_pose"]["position"]), np.array(obj["home_pose"]["orientation"])),
            sim=SimParams(**obj.get("sim", {})),
            expert=ExpertParams(**obj.get("expert", {})),
            xy_tol=float(obj.get("xy_tol", 0.015)),
            z_tol=float(obj.get("z_tol", 0.005)),
            lid_closed_threshold=float(obj.get("lid_closed_threshold", 0.1)),
            lid_initial_angle=float(obj.get("lid_initial_angle", math.pi / 2)),
            stack_order=tuple(obj.get("stack_order", ())),
            color_sensitive=bool(obj.get("color_sensitive", False)),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvariantViolation(f"malformed task definition ({type(exc).__name__}: {exc})") from exc


def load_task_definition(path) -> TaskDefinition:
    """The task in a JSON file: IoFailure if the file cannot be read or is
    not JSON, InvariantViolation naming the file if its content is malformed."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IoFailure(f"failed reading task file {path}: {exc}") from exc
    try:
        return task_from_dict(obj)
    except InvariantViolation as exc:
        raise InvariantViolation(f"task file {path}: {exc}") from exc


def resolve_task(name_or_path: str) -> TaskDefinition:
    """Accept a bundled task name (`bundled/<name>.json` in this package) or
    a path to a task JSON file."""
    bundled = files(__package__) / "bundled" / f"{name_or_path}.json"
    if name_or_path.isidentifier() and bundled.is_file():
        return task_from_dict(json.loads(bundled.read_text(encoding="utf-8")))
    p = Path(name_or_path)
    if p.is_file():
        return load_task_definition(p)
    raise UnknownTask(f"no bundled task or config file named {name_or_path!r}")
