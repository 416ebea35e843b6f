"""Shared fixtures: bundled tasks and small labeled demo datasets."""

import json
from dataclasses import replace
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import settings

from demoaug.data import Dataset
from demoaug.rng import derive_stream
from demoaug.segmentation import SegmentationConfig, assign_phases
from demoaug.sim import rollout_expert, sim_state_from_timestep, step
from demoaug.tasks import resolve_task

BUNDLED = files("demoaug") / "bundled"

# Every run draws the same examples, and none are replayed from a database:
# a property test that passes once passes on every run, and one that fails
# fails on every run. Each test's own max_examples still applies.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def bundled_task_json(name: str) -> dict:
    """The JSON layout of bundled task `name`, as its file holds it: a
    fresh dict for the caller to edit."""
    return json.loads((BUNDLED / f"{name}.json").read_text(encoding="utf-8"))


def spec_json(task) -> dict:
    """The --spec layout of `task.causal`: each phase's off-diagonal adjacency
    as [source, target] pairs in node order, and the merge map. A fresh dict
    for the caller to edit."""
    phases = [{"edges": [[p.graph.nodes[i], p.graph.nodes[j]] for i, j in zip(*np.nonzero(p.graph.adjacency)) if i != j]}
              for p in task.causal.phases]
    return {"phases": phases, "segment_merge_map": list(task.causal.segment_merge_map)}


def replay_states(traj, task) -> list:
    """The states replay passes through: states[i] is the state before
    action i, and the last one the state after every action."""
    states = [sim_state_from_timestep(traj.timesteps[0], task)]
    for ts in traj.timesteps:
        states.append(step(states[-1], ts.actions[0], task))
    return states


@pytest.fixture(scope="session")
def stack_task():
    return resolve_task("stack")


@pytest.fixture(scope="session")
def coffee_task():
    return resolve_task("coffee")


def stack_task_plus(entity_id, kind, sampler, geom) -> dict:
    """The bundled stack task's JSON layout plus one entity of `kind`, drawn
    from `sampler` and shaped by `geom`: a node of every phase graph (the
    graphs take their nodes from the schema) with no edge, since no role of
    the kind names it. A test-only task."""
    obj = bundled_task_json("stack")
    obj["schema"]["entities"].append({"entity_id": entity_id, "kind": kind, "extra_fields": []})
    obj["samplers"][entity_id] = sampler
    obj["geoms"][entity_id] = geom
    return obj


def make_labeled_demos(task, n, seed_base=0):
    cfg = SegmentationConfig()
    trajs = []
    for i in range(n):
        tr = rollout_expert(task, derive_stream(seed_base, "demo", i))
        tr = assign_phases(tr, task.causal, cfg)
        trajs.append(replace(tr, traj_id=f"demo_{i:03d}"))
    return Dataset(task.schema, tuple(trajs))


@pytest.fixture(scope="session")
def stack_demos(stack_task):
    return make_labeled_demos(stack_task, 4)


@pytest.fixture(scope="session")
def coffee_demos(coffee_task):
    return make_labeled_demos(coffee_task, 4)
