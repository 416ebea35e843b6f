import json

import numpy as np
import pytest

from demoaug.causal import load_causal_spec, causal_spec_to_dict, count_partitions
from demoaug.errors import UnknownTask
from demoaug.sim import rollout_expert, replay
from demoaug.tasks import (
    make_coffee_task,
    make_stack_task,
    load_task_definition,
    resolve_task,
    task_to_dict,
    stack_causal_spec,
)


def test_resolve_bundled_names():
    assert resolve_task("stack").kind == "stack3"
    assert resolve_task("coffee").kind == "pod_lid"
    with pytest.raises(UnknownTask):
        resolve_task("no_such_task")


def test_task_json_round_trip(tmp_path):
    for make in (make_stack_task, make_coffee_task):
        task = make()
        path = tmp_path / f"{task.task_id}.json"
        path.write_text(json.dumps(task_to_dict(task), indent=2))
        loaded = load_task_definition(path)
        assert loaded.task_id == task.task_id
        assert loaded.kind == task.kind
        assert loaded.schema == task.schema
        assert loaded.stack_order == task.stack_order
        assert loaded.color_sensitive == task.color_sensitive
        assert loaded.causal.segment_merge_map == task.causal.segment_merge_map
        for eid in task.samplers:
            assert loaded.samplers[eid] == task.samplers[eid]
        # a task loaded from JSON drives the simulator identically
        a = rollout_expert(task, seed=3)
        b = rollout_expert(loaded, seed=3)
        assert a.timesteps == b.timesteps


def test_resolve_task_from_path(tmp_path):
    task = make_coffee_task()
    path = tmp_path / "coffee.json"
    path.write_text(json.dumps(task_to_dict(task)))
    loaded = resolve_task(str(path))
    assert replay(rollout_expert(loaded, seed=1), loaded)[1]


def test_causal_spec_file_round_trip(tmp_path):
    spec = stack_causal_spec()
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(causal_spec_to_dict(spec)))
    loaded = load_causal_spec(path)
    assert count_partitions(loaded) == 8
    assert loaded.segment_merge_map == (0, 1, 2, 3)
    # loader injects the diagonal
    for phase in loaded.phases:
        for g in phase.graphs.values():
            assert np.all(np.diag(g.adjacency))


def test_missing_trajectory_file_is_io_failure(tmp_path, stack_task, stack_demos):
    from demoaug.data import save_dataset, load_dataset
    from demoaug.errors import IoFailure

    save_dataset(stack_demos, tmp_path / "ds")
    (tmp_path / "ds" / "traj_demo_000.jsonl").unlink()
    with pytest.raises(IoFailure):
        load_dataset(tmp_path / "ds")


def test_bundled_configs_match_task_constructors():
    """The JSON files under configs/ say what the bundled task constructors build."""
    from pathlib import Path

    from demoaug.pipeline import pipeline_config_from_dict

    configs = Path(__file__).resolve().parents[1] / "configs"
    for name in ("stack", "coffee"):
        task = resolve_task(name)
        assert json.loads((configs / f"task_{name}.json").read_text()) == task_to_dict(task)
        assert json.loads((configs / f"causal_{name}.json").read_text()) == causal_spec_to_dict(task.causal)
    pipeline_config_from_dict(json.loads((configs / "pipeline_stack.json").read_text()))
