import json
import re
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demoaug.causal import load_causal_spec, count_partitions
from demoaug.data import EntityDecl, schema_to_json
from demoaug.errors import DemoaugError, IoFailure
from demoaug.sim import (
    ObjectGeom,
    PoseSampler,
    TaskDefinition,
    replay,
    rollout_expert,
)
from demoaug.pipeline import pipeline_config_from_dict
from demoaug.tasks import load_task_definition, resolve_task
from tests.conftest import BUNDLED, bundled_task_json


def test_resolve_bundled_names():
    assert resolve_task("stack").kind == "stack3"
    assert resolve_task("coffee").kind == "pod_lid"
    with pytest.raises(IoFailure, match="no bundled task or config file named 'no_such_task'"):
        resolve_task("no_such_task")


def test_task_json_round_trip(tmp_path):
    for name in ("stack", "coffee"):
        task = resolve_task(name)
        path = tmp_path / f"{task.schema.task_id}.json"
        path.write_text(json.dumps(bundled_task_json(name), indent=2))
        loaded = load_task_definition(path)
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


@pytest.mark.parametrize("name", ["stack", "coffee"])
def test_task_schema_is_hashable_by_what_it_compares(tmp_path, name):
    from demoaug.data import Dataset, load_dataset, save_dataset

    schema = resolve_task(name).schema
    again = resolve_task(name).schema
    assert again is not schema and hash(again) == hash(schema)
    save_dataset(Dataset(schema, ()), tmp_path / "d")
    loaded = load_dataset(tmp_path / "d").task_schema
    assert loaded == schema and hash(loaded) == hash(schema)
    table = {schema: name}
    assert table[again] == table[loaded] == name
    other = replace(schema, task_id="other")
    assert other != schema and other not in table and len({schema, again, loaded, other}) == 2


def test_resolve_task_from_path(tmp_path):
    task = resolve_task("coffee")
    path = tmp_path / "coffee.json"
    path.write_text(json.dumps(bundled_task_json("coffee")))
    loaded = resolve_task(str(path))
    assert loaded == task
    assert replay(rollout_expert(loaded, seed=1), loaded)[1]


def test_causal_spec_file_round_trip(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(bundled_task_json("stack")["causal_spec"]))
    loaded = load_causal_spec(path, resolve_task("stack").schema)
    assert replace(resolve_task("stack"), causal=loaded).causal == resolve_task("stack").causal
    assert count_partitions(loaded) == 8
    assert loaded.segment_merge_map == (0, 1, 2, 3)
    # loader injects the diagonal
    for phase in loaded.phases:
        assert np.all(np.diag(phase.graph.adjacency))


def test_missing_trajectory_file_is_io_failure(tmp_path, stack_task, stack_demos):
    from demoaug.data import save_dataset, load_dataset
    from demoaug.errors import IoFailure

    save_dataset(stack_demos, tmp_path / "ds")
    (tmp_path / "ds" / "traj_demo_000.jsonl").unlink()
    with pytest.raises(IoFailure):
        load_dataset(tmp_path / "ds")


def test_bundled_task_files_round_trip(tmp_path):
    """Each bundled task file builds the same task from a path as by its
    name, and its schema section is what the manifest writer writes for the
    schema built from it."""
    for name in ("stack", "coffee"):
        obj = bundled_task_json(name)
        task = resolve_task(name)
        assert schema_to_json(task.schema) == obj["schema"]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        assert load_task_definition(path) == task
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
    with pytest.raises(IoFailure, match=f"no bundled task or config file named '{re.escape(name)}'"):
        resolve_task(name)


def _leaves(obj, path=()):
    """(parent path, key) of every value in a JSON tree that is not an
    object or a list."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaves(value, path + (key,))
        else:
            yield path, key


_REPLACEMENTS = ["x", True, None, float("nan"), [1.0]]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_task_file_loads_or_raises_a_demoaug_error(tmp_path_factory, data):
    """One mutation of one leaf of a bundled task file either loads or
    raises a DemoaugError; a numeric or bool leaf whose type changes always
    raises."""
    name = data.draw(st.sampled_from(["stack", "coffee"]))
    obj = json.loads((BUNDLED / f"{name}.json").read_text())
    path, key = data.draw(st.sampled_from(sorted(_leaves(obj), key=repr)))
    parent = obj
    for step in path:
        parent = parent[step]
    old = parent[key]
    mutation = data.draw(st.sampled_from(["replace", "delete", "add_sibling"]))
    if mutation == "replace":
        parent[key] = new = data.draw(st.sampled_from(_REPLACEMENTS))
    elif mutation == "delete":
        del parent[key]
    elif isinstance(parent, dict):
        parent["unknown_key"] = old
    else:
        parent.append(old)
    file = tmp_path_factory.getbasetemp() / "mutated_task.json"
    file.write_text(json.dumps(obj))
    numeric_or_bool = isinstance(old, (int, float))  # bools included
    type_changed = mutation == "replace" and (type(new) is not type(old) or new != new)
    if numeric_or_bool and type_changed:
        with pytest.raises(DemoaugError):
            load_task_definition(file)
    else:
        try:
            load_task_definition(file)
        except DemoaugError:
            pass


def test_readme_task_file_defaults_match_dataclasses():
    """Every default that a task file section takes from its dataclass
    appears in the README's task-file table as `key` (default)."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = text[text.index("| key | fields and kinds |"):text.index("| `causal_spec` |")]
    for cls in (EntityDecl, PoseSampler, ObjectGeom, TaskDefinition):
        for f in fields(cls):
            if f.default is MISSING:
                continue
            value = list(f.default) if isinstance(f.default, tuple) else f.default
            assert f"`{f.name}` ({json.dumps(value)})" in table, (cls.__name__, f.name)
