"""Shared fixtures: bundled tasks and small labeled demo datasets."""

from dataclasses import replace

import pytest

from demoaug.data import Dataset
from demoaug.rng import derive_stream
from demoaug.segmentation import SegmentationConfig, assign_phases
from demoaug.sim import rollout_expert
from demoaug.tasks import resolve_task, task_to_dict


@pytest.fixture(scope="session")
def stack_task():
    return resolve_task("stack")


@pytest.fixture(scope="session")
def coffee_task():
    return resolve_task("coffee")


def stack_task_plus(entity_id, kind, sampler, geom) -> dict:
    """The bundled stack task's JSON layout plus one entity of `kind`, drawn
    from `sampler` and shaped by `geom`: a node of every phase graph with no
    spec edge. A test-only task."""
    obj = task_to_dict(resolve_task("stack"))
    obj["schema"]["entities"].append({"entity_id": entity_id, "kind": kind, "extra_fields": []})
    obj["samplers"][entity_id] = sampler
    obj["geoms"][entity_id] = geom
    for phase in obj["causal_spec"]["phases"]:
        for graph in phase["agents"].values():
            graph["nodes"].append(entity_id)
    return obj


def make_labeled_demos(task, n, seed_base=0):
    cfg = SegmentationConfig()
    trajs = []
    for i in range(n):
        tr = rollout_expert(task, derive_stream(seed_base, "demo", i))
        tr = assign_phases(tr, task.causal, cfg)
        trajs.append(replace(tr, traj_id=f"demo_{i:03d}"))
    return Dataset("1.0", task.schema, tuple(trajs))


@pytest.fixture(scope="session")
def stack_demos(stack_task):
    return make_labeled_demos(stack_task, 4)


@pytest.fixture(scope="session")
def coffee_demos(coffee_task):
    return make_labeled_demos(coffee_task, 4)
