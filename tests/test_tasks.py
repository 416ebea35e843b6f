import json
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

from demoaug.causal import load_causal_spec, causal_spec_to_dict, count_partitions
from demoaug.errors import UnknownTask
from demoaug.sim import rollout_expert, replay
from demoaug.pipeline import pipeline_config_from_dict
from demoaug.tasks import load_task_definition, resolve_task, task_to_dict

BUNDLED = files("demoaug") / "bundled"


def test_resolve_bundled_names():
    assert resolve_task("stack").kind == "stack3"
    assert resolve_task("coffee").kind == "pod_lid"
    with pytest.raises(UnknownTask):
        resolve_task("no_such_task")


def test_task_json_round_trip(tmp_path):
    for name in ("stack", "coffee"):
        task = resolve_task(name)
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
    task = resolve_task("coffee")
    path = tmp_path / "coffee.json"
    path.write_text(json.dumps(task_to_dict(task)))
    loaded = resolve_task(str(path))
    assert replay(rollout_expert(loaded, seed=1), loaded)[1]


def test_causal_spec_file_round_trip(tmp_path):
    spec = resolve_task("stack").causal
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


def test_bundled_task_files_round_trip():
    """Each bundled task file says exactly what resolve_task builds from it."""
    for name in ("stack", "coffee"):
        assert task_to_dict(resolve_task(name)) == json.loads((BUNDLED / f"{name}.json").read_text())
    configs = Path(__file__).resolve().parents[1] / "configs"
    pipeline_config_from_dict(json.loads((configs / "pipeline_stack.json").read_text()))


def test_bundled_directory_holds_the_task_files():
    """The files a wheel must ship (pyproject.toml's package-data) are all
    that resolve_task reads by name."""
    assert sorted(p.name for p in BUNDLED.iterdir()) == ["coffee.json", "stack.json"]


@pytest.mark.parametrize("name", ["./stack", "../bundled/stack"])
def test_only_plain_names_resolve_to_bundled_tasks(tmp_path, monkeypatch, name):
    """A name with a directory part is a path (here a missing one), never a
    file reached from the bundled directory."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(UnknownTask):
        resolve_task(name)
