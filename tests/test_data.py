import copy
import json
import re
import pickle
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from demoaug.data import (
    Action,
    Dataset,
    EntityDecl,
    EntityState,
    Provenance,
    RobotState,
    TaskSchema,
    Timestep,
    Trajectory,
    _pose_to_json,
    load_dataset,
    save_dataset,
    schema_from_json,
    schema_to_json,
    slice_subtrajectory,
    timestep_to_json,
    validate_dataset,
)
from demoaug.errors import InvariantViolation, IoFailure
from demoaug.geometry import Pose, quat_from_yaw, quat_normalize


def make_schema():
    return TaskSchema(
        task_id="rt_task",
        entities=(EntityDecl("obj_a", "block"), EntityDecl("obj_b", "receptacle", ("lid_angle",))),
        agent="robot0",
        workspace_min=np.array([-1.0, -1.0, 0.0]),
        workspace_max=np.array([1.0, 1.0, 1.0]),
    )


def random_pose(rng):
    pos = rng.uniform(-0.9, 0.9, 3)
    pos[2] = abs(pos[2])
    return Pose(pos, quat_normalize(rng.normal(0, 1, 4)))


def random_dataset(seed=0, n_traj=3, n_steps=5) -> Dataset:
    rng = np.random.default_rng(seed)
    schema = make_schema()
    trajs = []
    for k in range(n_traj):
        steps = []
        for t in range(n_steps):
            entities = (
                EntityState("obj_a", random_pose(rng)),
                EntityState("obj_b", random_pose(rng), {"lid_angle": float(rng.uniform(0, 1.5))}),
            )
            robots = (RobotState(random_pose(rng), float(rng.uniform(0, 1))),)
            actions = (Action(random_pose(rng), float(rng.uniform(0, 1))),)
            steps.append(Timestep(t, entities, robots, actions, phase=t // 2))
        trajs.append(
            Trajectory(
                traj_id=f"tr_{k:02d}",
                timesteps=tuple(steps),
                success=bool(rng.integers(2)),
                provenance=list(Provenance)[k % 4],
            )
        )
    return Dataset(schema, tuple(trajs))


def test_round_trip_is_field_exact(tmp_path):
    for seed in range(5):
        ds = random_dataset(seed)
        out = tmp_path / f"ds_{seed}"
        save_dataset(ds, out)
        loaded = load_dataset(out)
        assert loaded == ds


def test_save_is_byte_deterministic(tmp_path):
    ds = random_dataset(1)
    save_dataset(ds, tmp_path / "a")
    save_dataset(ds, tmp_path / "b")
    for f in sorted((tmp_path / "a").iterdir()):
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()


def test_save_load_save_round_trip_bytes(tmp_path):
    ds = random_dataset(2)
    save_dataset(ds, tmp_path / "a")
    save_dataset(load_dataset(tmp_path / "a"), tmp_path / "b")
    for f in sorted((tmp_path / "a").iterdir()):
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()


def test_empty_dataset_round_trips(tmp_path):
    ds = Dataset(make_schema(), ())
    save_dataset(ds, tmp_path / "empty")
    loaded = load_dataset(tmp_path / "empty")
    assert len(loaded) == 0
    assert loaded == ds


def test_single_timestep_trajectory_layout(tmp_path):
    ds = random_dataset(3, n_traj=1, n_steps=1)
    save_dataset(ds, tmp_path / "one")
    files = sorted(p.name for p in (tmp_path / "one").iterdir())
    assert files == ["manifest.json", "traj_tr_00.jsonl"]
    lines = (tmp_path / "one" / "traj_tr_00.jsonl").read_text().splitlines()
    assert len(lines) == 1


def test_missing_manifest(tmp_path):
    with pytest.raises(IoFailure, match="no manifest.json under"):
        load_dataset(tmp_path / "nothing")


def test_schema_version_mismatch(tmp_path):
    ds = random_dataset(4)
    save_dataset(ds, tmp_path / "v")
    manifest = json.loads((tmp_path / "v" / "manifest.json").read_text())
    manifest["schema_version"] = "2.0"
    (tmp_path / "v" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(InvariantViolation, match=r"manifest schema_version '2.0' unsupported \(tool supports 1.x\)"):
        load_dataset(tmp_path / "v")


def test_a_1x_manifest_loads_and_saves_as_1_0(tmp_path):
    save_dataset(random_dataset(4), tmp_path / "v")
    _edit_manifest(lambda manifest: {**manifest, "schema_version": "1.7"})(tmp_path / "v")
    save_dataset(load_dataset(tmp_path / "v"), tmp_path / "w")
    assert json.loads((tmp_path / "w" / "manifest.json").read_text())["schema_version"] == "1.0"


def test_a_manifest_entry_of_another_task_is_refused_at_load(tmp_path):
    """No in-memory record holds a trajectory's task id: the load checks
    each manifest entry's optional task_id against the schema's."""
    save_dataset(random_dataset(4), tmp_path / "t")
    _set_entry("task_id", "other", n=1)(tmp_path / "t")
    with pytest.raises(InvariantViolation, match=r"^manifest\.trajectories\.1: task_id 'other' != schema 'rt_task'$"):
        load_dataset(tmp_path / "t")
    _set_entry("task_id", "rt_task", n=1)(tmp_path / "t")
    _drop_key("task_id")(tmp_path / "t")  # the key is optional
    assert load_dataset(tmp_path / "t") == random_dataset(4)


def test_schemas_equal_in_value_compare_and_hash_equal():
    """The workspace corners are float tuples, whichever sequence built
    them, so the generated __eq__ and __hash__ cover the whole schema."""
    arrays = make_schema()
    lists = TaskSchema("rt_task", arrays.entities, "robot0", [-1, -1, 0], [1.0, 1.0, 1.0])
    assert lists == arrays and hash(lists) == hash(arrays)
    assert lists.workspace_min == (-1.0, -1.0, 0.0) and all(type(x) is float for x in lists.workspace_min)
    assert {lists: 1}[arrays] == 1
    for other in (replace(arrays, workspace_max=(1.0, 1.0, 2.0)), replace(arrays, agent="robot1")):
        assert other != arrays and other not in {arrays}


@pytest.mark.parametrize("agents", [[], ["robot0", "robot1"]], ids=["no_agent", "two_agents"])
def test_schema_from_json_refuses_any_agent_list_but_one_id(agents):
    obj = schema_to_json(make_schema())
    assert schema_from_json("task_schema", obj) == make_schema()
    obj["agents"] = agents
    with pytest.raises(InvariantViolation, match=re.escape(f"a schema declares exactly one agent, got agents {agents}")):
        schema_from_json("task_schema", obj)


def test_bad_quaternion_names_trajectory_and_timestep(tmp_path):
    ds = random_dataset(5, n_traj=1, n_steps=2)
    save_dataset(ds, tmp_path / "bad")
    traj_file = tmp_path / "bad" / "traj_tr_00.jsonl"
    lines = traj_file.read_text().splitlines()
    obj = json.loads(lines[1])
    obj["entities"][0]["pose"]["orientation"] = [2.0, 0.0, 0.0, 0.0]
    lines[1] = json.dumps(obj)
    traj_file.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvariantViolation, match="tr_00.*line 1"):
        load_dataset(tmp_path / "bad")


def test_ordering_violation_detected(tmp_path):
    ds = random_dataset(6, n_traj=1, n_steps=3)
    save_dataset(ds, tmp_path / "ord")
    traj_file = tmp_path / "ord" / "traj_tr_00.jsonl"
    lines = traj_file.read_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    traj_file.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvariantViolation, match="ordering|phase"):
        load_dataset(tmp_path / "ord")


def test_action_outside_workspace_rejected():
    schema = make_schema()
    pose = Pose(np.array([5.0, 0.0, 0.0]), np.array([1.0, 0, 0, 0]))
    ts = Timestep(
        0,
        (EntityState("obj_a", Pose.identity()), EntityState("obj_b", Pose.identity(), {"lid_angle": 0.0})),
        (RobotState(Pose.identity(), 1.0),),
        (Action(pose, 1.0),),
    )
    traj = Trajectory("t", (ts,), True, Provenance.HUMAN_SOURCE)
    ds = Dataset(schema, (traj,))
    with pytest.raises(InvariantViolation, match="workspace"):
        save_dataset(ds, "/tmp/never_written")


def test_gripper_values_clamped():
    r = RobotState(Pose.identity(), 1.7)
    assert r.gripper_aperture == 1.0
    a = Action(Pose.identity(), -0.2)
    assert a.gripper_command == 0.0


def test_slice_identity_and_rebase():
    ds = random_dataset(7, n_traj=1, n_steps=6)
    traj = ds.trajectories[0]
    full = slice_subtrajectory(traj, 0, len(traj))
    assert full.traj_id != traj.traj_id
    assert full.timesteps == traj.timesteps
    assert full.success == traj.success and full.provenance == traj.provenance

    single = slice_subtrajectory(traj, 2, 3)
    assert len(single) == 1
    assert single.timesteps[0].t == 0
    assert single.timesteps[0].entities == traj.timesteps[2].entities


def test_slice_empty_or_out_of_range():
    ds = random_dataset(8, n_traj=1, n_steps=4)
    traj = ds.trajectories[0]
    with pytest.raises(InvariantViolation, match=r"slice \[2, 2\) invalid for length 4"):
        slice_subtrajectory(traj, 2, 2)
    with pytest.raises(InvariantViolation, match=r"slice \[0, 5\) invalid for length 4"):
        slice_subtrajectory(traj, 0, 5)
    with pytest.raises(InvariantViolation, match=r"slice \[-1, 2\) invalid for length 4"):
        slice_subtrajectory(traj, -1, 2)


def test_slice_concat_reconstructs_sequence():
    ds = random_dataset(9, n_traj=1, n_steps=8)
    traj = ds.trajectories[0]
    left = slice_subtrajectory(traj, 0, 3)
    right = slice_subtrajectory(traj, 3, 8)
    merged = list(left.timesteps) + [ts for ts in right.timesteps]
    for i, ts in enumerate(merged):
        orig = traj.timesteps[i]
        assert ts.entities == orig.entities
        assert ts.robots == orig.robots
        assert ts.actions == orig.actions


def test_quaternion_canonicalization_idempotent_through_io(tmp_path):
    # a stored negative-w quaternion loads canonicalized, then survives
    # a save/load cycle untouched
    ds = random_dataset(10, n_traj=1, n_steps=1)
    save_dataset(ds, tmp_path / "c")
    traj_file = tmp_path / "c" / "traj_tr_00.jsonl"
    obj = json.loads(traj_file.read_text())
    q = obj["entities"][0]["pose"]["orientation"]
    obj["entities"][0]["pose"]["orientation"] = [-q[0], -q[1], -q[2], -q[3]]
    traj_file.write_text(json.dumps(obj) + "\n")
    first = load_dataset(tmp_path / "c")
    qq = first.trajectories[0].timesteps[0].entities[0].pose.orientation
    assert qq[0] >= 0
    save_dataset(first, tmp_path / "c2")
    assert load_dataset(tmp_path / "c2") == first


def _edit_manifest(edit):
    def apply(root):
        path = root / "manifest.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))

    return apply


def _drop_key(key):
    def edit(manifest):
        del manifest["trajectories"][0][key]
        return manifest

    return _edit_manifest(edit)


def _set_entry(key, value, n=0):
    def edit(manifest):
        manifest["trajectories"][n][key] = value
        return manifest

    return _edit_manifest(edit)


def _set_in(obj, *keys_then_value):
    """obj, after setting the value at the path the keys name."""
    *keys, last, value = keys_then_value
    target = obj
    for key in keys:
        target = target[key]
    target[last] = value
    return obj


def _share_file(root):
    _set_entry("file", "traj_tr_00.jsonl", n=1)(root)


def _escape_directory(root):
    outside = root.parent / "outside"
    outside.mkdir()
    (outside / "traj_tr_00.jsonl").write_bytes((root / "traj_tr_00.jsonl").read_bytes())
    _set_entry("file", "../outside/traj_tr_00.jsonl")(root)


def _edit_line(edit):
    """Rewrite the first timestep line of trajectory tr_00; json.dumps
    writes NaN and Infinity as bare constants."""

    def apply(root):
        path = root / "traj_tr_00.jsonl"
        lines = path.read_text().splitlines()
        obj = json.loads(lines[0])
        edit(obj)
        lines[0] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")

    return apply


def _set_field(*keys_then_value):
    *keys, last, value = keys_then_value

    def edit(obj):
        for key in keys:
            obj = obj[key]
        obj[last] = value

    return _edit_line(edit)


@pytest.mark.parametrize(
    "edit",
    [
        _drop_key("traj_id"),
        _drop_key("success"),
        _set_entry("provenance", "scripted"),
        _edit_manifest(lambda manifest: [manifest]),
        _set_entry("num_timesteps", 4),
        _set_entry("success", "no"),
        _escape_directory,
        _share_file,
        _set_field("t", "x"),
        _set_field("t", float("inf")),
        _set_field("phase", "x"),
        _set_field("phase", 0.5),
        _set_field("robots", 0, "gripper_aperture", "x"),
        _set_field("robots", 0, "gripper_aperture", float("nan")),
        _set_field("actions", 0, "gripper_command", "x"),
        _set_field("entities", 1, "extra", "lid_angle", float("nan")),
        _set_field("entities", 1, "extra", "lid_angle", 1e400),
        _set_field("entities", 1, "extra", "lid_angle", "x"),
        _set_field("entities", 1, "extra", "lid_angle", True),
        _set_field("entities", 1, "extra", "lid_angle", 10**400),
        _set_field("robots", 0, "gripper_aperture", 10**400),
        _set_field("entities", 0, "pose", "position", 0, 10**400),
        _set_field("entities", 0, "pose", "position", 0, "0.25"),
        _set_field("entities", 0, "pose", "position", 0, True),
        _set_field("robots", 0, "eef_pose", "orientation", "x"),
        _set_field("interp", "no"),
        _set_field("interp", 1),
        _set_field("phase", -3),
        _edit_manifest(lambda manifest: _set_in(manifest, "task_schema", "workspace", "min", 0, "-1.0")),
        _set_entry("num_timesteps", 3.0),
        _set_entry("frame", "world"),
        _edit_manifest(lambda manifest: {**manifest, "notes": "x"}),
        _edit_manifest(lambda manifest: _set_in(manifest, "task_schema", "agents", ["robot0", "robot1"])),
    ],
    ids=["missing_traj_id", "missing_success", "unknown_provenance", "manifest_is_list",
         "num_timesteps_mismatch", "success_not_bool", "file_escapes_directory", "file_shared",
         "t_not_numeric", "t_infinity", "phase_not_numeric", "phase_not_integer",
         "gripper_aperture_not_numeric", "gripper_aperture_nan", "gripper_command_not_numeric",
         "extra_nan", "extra_overflows_to_inf", "extra_string", "extra_bool", "extra_int_overflow",
         "gripper_aperture_int_overflow", "position_int_overflow", "position_string", "position_bool",
         "orientation_not_list", "interp_string", "interp_int", "phase_negative",
         "workspace_bound_string", "num_timesteps_float", "entry_unknown_key",
         "manifest_unknown_key", "schema_with_two_agents"],
)
def test_malformed_manifest_raises_invariant_violation(tmp_path, edit):
    from demoaug.cli import main

    save_dataset(random_dataset(6, n_traj=2, n_steps=3), tmp_path / "m")
    edit(tmp_path / "m")
    with pytest.raises(InvariantViolation):
        load_dataset(tmp_path / "m")
    assert main(["validate", "--task", "stack", "--in", str(tmp_path / "m")]) == 2


def _entity_key_instead_of_extra(obj):
    """An entity without its optional `extra` but with an unknown key in its
    place: as many keys as a valid entity with `extra`."""
    entity = obj["entities"][0]
    del entity["extra"]
    entity["frame"] = "world"


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set_field("tt", 0), "unknown key 'tt' in a timestep"),
        (_set_field("entities", 0, "extra_fields", {}), "unknown key 'extra_fields' in an entity"),
        (_edit_line(_entity_key_instead_of_extra), "unknown key 'frame' in an entity"),
        (_set_field("robots", 0, "gripper_aperture_typo", 0.5), "unknown key 'gripper_aperture_typo' in a robot"),
        (_set_field("actions", 0, "gripper", 1.0), "unknown key 'gripper' in an action"),
        (_set_field("entities", 0, "pose", "frame", "world"), "unknown key 'frame' in a pose"),
        (_set_field("actions", 0, "target_eef_pose", "frame", "world"), "unknown key 'frame' in a pose"),
    ],
    ids=["line", "entity", "entity_without_extra", "robot", "action", "entity_pose", "action_pose"],
)
def test_unknown_key_in_a_timestep_line_is_refused(tmp_path, edit, message):
    save_dataset(random_dataset(6, n_traj=2, n_steps=3), tmp_path / "m")
    edit(tmp_path / "m")
    with pytest.raises(InvariantViolation, match=re.escape(message)):
        load_dataset(tmp_path / "m")


def test_save_rejects_non_finite_extra(tmp_path):
    from dataclasses import replace

    ds = random_dataset(11, n_traj=1, n_steps=2)
    tr = ds.trajectories[0]
    ts = tr.timesteps[1]
    bad = replace(ts, entities=(ts.entities[0], replace(ts.entities[1], extra={"lid_angle": float("nan")})))
    broken = replace(ds, trajectories=(replace(tr, timesteps=(tr.timesteps[0], bad)),))
    with pytest.raises(InvariantViolation, match="lid_angle"):
        save_dataset(broken, tmp_path / "nan")


def test_save_rejects_negative_phase(tmp_path):
    from dataclasses import replace

    ds = random_dataset(12, n_traj=1, n_steps=2)
    tr = ds.trajectories[0]
    broken = replace(ds, trajectories=(replace(tr, timesteps=tuple(replace(ts, phase=-1) for ts in tr.timesteps)),))
    with pytest.raises(InvariantViolation, match="phase"):
        save_dataset(broken, tmp_path / "neg")
    assert not (tmp_path / "neg").exists()


def _names(path):
    return sorted(p.name for p in path.iterdir())


def test_save_replaces_earlier_dataset_without_stale_files(tmp_path):
    save_dataset(random_dataset(1, n_traj=3), tmp_path / "d")
    saved = save_dataset(random_dataset(2, n_traj=1), tmp_path / "d")
    assert _names(tmp_path / "d") == ["manifest.json", "traj_tr_00.jsonl"]
    assert load_dataset(tmp_path / "d") == random_dataset(2, n_traj=1)
    assert [path for _, path in saved.files.values()] == [(tmp_path / "d" / "traj_tr_00.jsonl").resolve()]
    assert _names(tmp_path) == ["d"]  # no temporary directory left behind


def test_failed_save_leaves_earlier_dataset(tmp_path, monkeypatch):
    from demoaug import data

    first = random_dataset(3, n_traj=2)
    save_dataset(first, tmp_path / "d")
    before = {p.name: p.read_bytes() for p in (tmp_path / "d").iterdir()}
    real_encode = data.timestep_to_json
    encoded = []

    def encode_then_fail(ts, schema):
        encoded.append(ts)
        if len(encoded) > 7:  # midway through the second trajectory file
            raise RuntimeError("encoder failed")
        return real_encode(ts, schema)

    monkeypatch.setattr(data, "timestep_to_json", encode_then_fail)
    with pytest.raises(RuntimeError, match="encoder failed"):
        save_dataset(random_dataset(4, n_traj=2), tmp_path / "d")
    assert {p.name: p.read_bytes() for p in (tmp_path / "d").iterdir()} == before
    assert load_dataset(tmp_path / "d") == first
    assert _names(tmp_path) == ["d"]


def _record_timestep_checks(monkeypatch):
    """Record the traj_id of every trajectory whose timesteps get checked."""
    from demoaug import data

    checked = []
    real_check = data._check_timesteps

    def check(tr, schema, *args):
        checked.append(tr.traj_id)
        real_check(tr, schema, *args)

    monkeypatch.setattr(data, "_check_timesteps", check)
    return checked


def test_save_reuses_validation_of_inherited_trajectories(tmp_path, monkeypatch):
    ds = random_dataset(7, n_traj=2)
    first = save_dataset(ds, tmp_path / "a")
    checked = _record_timestep_checks(monkeypatch)
    new = replace(random_dataset(8, n_traj=1).trajectories[0], traj_id="new")
    grown = Dataset(make_schema(), ds.trajectories + (new,))  # an equal schema object
    save_dataset(grown, tmp_path / "b", previous=first)
    assert checked == ["new"]
    assert load_dataset(tmp_path / "b") == grown


def test_save_under_another_schema_revalidates(tmp_path, monkeypatch):
    ds = random_dataset(9, n_traj=2)
    first = save_dataset(ds, tmp_path / "a")
    checked = _record_timestep_checks(monkeypatch)
    a, b = make_schema().entities
    other = replace(make_schema(), entities=(a, replace(b, extra_fields=("lid_angle", "hinge"))))
    with pytest.raises(InvariantViolation, match="extra fields"):
        save_dataset(Dataset(other, ds.trajectories), tmp_path / "b", previous=first)
    assert checked == ["tr_00"]
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize(
    "edit, error, message",
    [
        (lambda ds: replace(ds, trajectories=(replace(ds.trajectories[0], traj_id="tr 00"),)),
         InvariantViolation, "filesystem-safe"),
        (lambda ds: replace(ds, trajectories=ds.trajectories + ds.trajectories[:1]),
         InvariantViolation, "duplicate traj_id"),
    ],
    ids=["unsafe_traj_id", "duplicate_traj_id"],
)
def test_save_rechecks_inherited_trajectories(tmp_path, edit, error, message):
    ds = random_dataset(10, n_traj=2)
    first = save_dataset(ds, tmp_path / "a")
    with pytest.raises(error, match=message):
        save_dataset(edit(ds), tmp_path / "b", previous=first)
    assert not (tmp_path / "b").exists()


def test_save_rechecks_an_edited_trajectory(tmp_path, monkeypatch):
    """dataclasses.replace builds an unmarked trajectory, so an edit is
    checked again even by a save whose previous one wrote the original."""
    ds = random_dataset(13, n_traj=2)
    first = save_dataset(ds, tmp_path / "a")
    checked = _record_timestep_checks(monkeypatch)
    tr = ds.trajectories[1]
    ts = tr.timesteps[2]
    act = ts.actions[0]
    outside = replace(act, target_eef_pose=Pose([0.0, 0.0, 1.5], act.target_eef_pose.orientation))
    edited = replace(tr, timesteps=tr.timesteps[:2] + (replace(ts, actions=(outside,)),) + tr.timesteps[3:])
    assert edited._checked_under is None and tr._checked_under is ds.task_schema
    with pytest.raises(InvariantViolation, match=r"'tr_01', timestep 2: action target position .* outside workspace"):
        save_dataset(replace(ds, trajectories=(ds.trajectories[0], edited)), tmp_path / "b", previous=first)
    assert checked == ["tr_01"]
    assert not (tmp_path / "b").exists()


def test_validate_rechecks_under_an_unequal_schema(monkeypatch):
    ds = random_dataset(14, n_traj=2)
    validate_dataset(ds)
    checked = _record_timestep_checks(monkeypatch)
    validate_dataset(Dataset(make_schema(), ds.trajectories))  # an equal schema object
    assert checked == []
    a, b = make_schema().entities
    other = replace(make_schema(), entities=(a, replace(b, extra_fields=("lid_angle", "hinge"))))
    with pytest.raises(InvariantViolation, match="extra fields"):
        validate_dataset(Dataset(other, ds.trajectories))
    assert checked == ["tr_00"]
    assert ds.trajectories[0]._checked_under == make_schema()  # a failed check leaves the mark as it was


def test_pipeline_checks_each_trajectory_once(tmp_path, monkeypatch):
    """In run_pipeline each save checks only the trajectories its stage
    built, and the validate stage none."""
    from demoaug.pipeline import PipelineConfig, StageConfig, run_pipeline

    checked = _record_timestep_checks(monkeypatch)
    stages = (StageConfig("gen", {"count": 2}), StageConfig("segment"), StageConfig("se3", {"count": 1}),
              StageConfig("causal"), StageConfig("obs"), StageConfig("validate"))
    report = run_pipeline(PipelineConfig("stack", stages, str(tmp_path / "run"), master_seed=2))
    assert report["stages"][-1]["ok"]
    built, before = [], set()
    for stage in sorted((tmp_path / "run").glob("stage_*")):
        ids = [e["traj_id"] for e in json.loads((stage / "manifest.json").read_text())["trajectories"]]
        built += ids if stage.name.endswith("segment") else [i for i in ids if i not in before]
        before = set(ids)
    assert checked == built and len(built) == 2 + 2 + 1 + 3 + 6


def _replay_fails(ds: Dataset, task) -> Dataset:
    """ds with its first trajectory's last grasp approach pushed 0.5 m aside
    (inside the workspace), so that its replay misses the grasp."""
    traj = ds.trajectories[0]
    steps = list(traj.timesteps)
    idx = next(i for i, ts in enumerate(steps) if ts.phase == 1) - 1
    act = steps[idx].actions[0]
    lo, hi = task.schema.workspace_min, task.schema.workspace_max
    shifted = Pose(np.clip(act.target_eef_pose.position + [0.5, 0.0, 0.0], lo, hi), act.target_eef_pose.orientation)
    steps[idx] = replace(steps[idx], actions=(replace(act, target_eef_pose=shifted),))
    return replace(ds, trajectories=(replace(traj, timesteps=tuple(steps)),) + ds.trajectories[1:])


def test_validate_stage_reuses_the_last_save_checks(tmp_path, monkeypatch, stack_task, stack_demos):
    from demoaug.errors import StageFailure
    from demoaug.pipeline import PipelineConfig, StageConfig, run_pipeline

    checked = _record_timestep_checks(monkeypatch)
    stages = (StageConfig("gen", {"count": 2}), StageConfig("validate"))
    report = run_pipeline(PipelineConfig("stack", stages, str(tmp_path / "run"), master_seed=1))
    assert report["stages"][-1]["ok"] and report["stages"][-1]["replayed"] == 2
    assert checked == ["demo_0000", "demo_0001"]  # by the gen save alone

    save_dataset(_replay_fails(stack_demos, stack_task), tmp_path / "in")
    checked.clear()
    stages = (StageConfig("obs", {"copies": 0}), StageConfig("validate"))
    with pytest.raises(StageFailure, match="replay: trajectory 'demo_000' does not reach success"):
        run_pipeline(PipelineConfig("stack", stages, str(tmp_path / "bad"), input_path=str(tmp_path / "in")))
    ids = [tr.traj_id for tr in stack_demos.trajectories]
    assert checked == ids  # by the input's load alone: the obs save and the stage trust its marks


@pytest.mark.parametrize("case", ["valid", "replay_fails", "corrupt_file"])
def test_cli_validate_checks_each_trajectory_once(tmp_path, monkeypatch, capsys, stack_task, stack_demos, case):
    from demoaug.cli import main

    ds = _replay_fails(stack_demos, stack_task) if case == "replay_fails" else stack_demos
    save_dataset(ds, tmp_path / "d")
    if case == "corrupt_file":
        path = tmp_path / "d" / "traj_demo_001.jsonl"
        path.write_text(path.read_text().replace('"orientation":[1.0,', '"orientation":[0.7,', 1))
    checked = _record_timestep_checks(monkeypatch)
    code = main(["validate", "--task", "stack", "--in", str(tmp_path / "d")])
    report = json.loads(capsys.readouterr().out)
    if case == "corrupt_file":
        assert code == 2 and not report["ok"]
        [failure] = report["failures"]
        assert failure.startswith("load: trajectory 'demo_001', timestep line 0: quaternion norm")
        return
    assert checked == [tr.traj_id for tr in ds.trajectories]  # by load_dataset, not again by the stage
    assert report["replayed"] == len(ds)
    if case == "valid":
        assert code == 0 and report["ok"]
    else:
        assert code == 2 and report["failures"] == ["replay: trajectory 'demo_000' does not reach success"]


def test_cli_save_checks_only_what_its_stage_built(tmp_path, monkeypatch, capsys, stack_demos):
    from demoaug.cli import main

    save_dataset(stack_demos, tmp_path / "d")
    checked = _record_timestep_checks(monkeypatch)
    assert main(["augment-obs", "--in", str(tmp_path / "d"), "--out", str(tmp_path / "o"), "--copies", "1"]) == 0
    ids = [tr.traj_id for tr in stack_demos.trajectories]
    assert checked == ids + [f"{i}_obs00" for i in ids]  # by the load, then by the save: the noised copies alone
    assert len(load_dataset(tmp_path / "o")) == 2 * len(ids)


def test_negative_t_names_its_trajectory_and_line(tmp_path, capsys):
    from demoaug.cli import main

    save_dataset(random_dataset(6, n_traj=2, n_steps=3), tmp_path / "d")
    path = tmp_path / "d" / "traj_tr_01.jsonl"
    lines = path.read_text().splitlines()
    lines[2] = lines[2].replace('{"t":2,', '{"t":-1,', 1)
    path.write_text("\n".join(lines) + "\n")
    assert main(["validate", "--task", "stack", "--in", str(tmp_path / "d")]) == 2
    [failure] = json.loads(capsys.readouterr().out)["failures"]
    assert failure == "load: trajectory 'tr_01', timestep line 2: timestep index -1 < 0"


def test_save_refuses_to_replace_a_directory_with_other_files(tmp_path):
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "notes.txt").write_text("keep")
    with pytest.raises(IoFailure, match="notes.txt"):
        save_dataset(random_dataset(5, n_traj=1), tmp_path / "d")
    assert _names(tmp_path / "d") == ["notes.txt"]
    assert _names(tmp_path) == ["d"]


# ---------------------------------------------------------------------------
# the direct line encoder against the dict + json.dumps encoder it replaced


def _reference_pose(pose):
    return {"position": pose.position.tolist(), "orientation": pose.orientation.tolist()}


def reference_timestep_to_json(ts, schema) -> str:
    extra_fields = {e.entity_id: e.extra_fields for e in schema.entities}
    out = {
        "t": int(ts.t),
        "entities": [
            {
                "entity_id": e.entity_id,
                "pose": _reference_pose(e.pose),
                "extra": {k: float(e.extra[k]) for k in extra_fields[e.entity_id]},
            }
            for e in ts.entities
        ],
        "robots": [
            {
                "agent_id": schema.agent,
                "eef_pose": _reference_pose(r.eef_pose),
                "gripper_aperture": float(r.gripper_aperture),
            }
            for r in ts.robots
        ],
        "actions": [
            {
                "agent_id": schema.agent,
                "target_eef_pose": _reference_pose(a.target_eef_pose),
                "gripper_command": float(a.gripper_command),
            }
            for a in ts.actions
        ],
        "phase": None if ts.phase is None else int(ts.phase),
    }
    if ts.interp:
        out["interp"] = True
    return json.dumps(out, separators=(",", ":"), ensure_ascii=True, allow_nan=False)


_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e16, -1e16, 1e-7, 1.5e-7,
                   0.1, 1.0 / 3.0, 123456789.125, 1e22, 9007199254740993.0]
_floats = st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
_unit = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-7, 1.0]), st.floats(0.0, 1.0))
_extra_values = st.one_of(_floats, _floats.map(np.float64), st.integers(-(2**53), 2**53))
_ids = st.text(alphabet=st.sampled_from('ab"\\/\n\t\x00\x7fé中😀 '), min_size=1, max_size=6)


_SPECIAL_QUATS = [[1.0, -0.0, 5e-324, 0.0], [-0.0, 0.6, -0.8, -2.5e-320], [0.5, -0.5, 0.5, -0.5]]


@st.composite
def _pose(draw):
    q = draw(st.one_of(st.sampled_from(_SPECIAL_QUATS), st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)))
    assume(sum(x * x for x in q) > 0.01)
    return Pose(draw(st.lists(_floats, min_size=3, max_size=3)), quat_normalize(np.array(q)))


@st.composite
def _schema_and_timestep(draw):
    entity_ids = draw(st.lists(_ids, min_size=1, max_size=3, unique=True))
    decls = tuple(
        EntityDecl(eid, "block", tuple(draw(st.lists(_ids, max_size=3, unique=True)))) for eid in entity_ids
    )
    agent = draw(_ids.filter(lambda agent: agent not in entity_ids))  # a schema's agent is none of its entities
    schema = TaskSchema("t", decls, agent, np.zeros(3), np.ones(3))
    entities = tuple(
        EntityState(d.entity_id, draw(_pose()), {k: draw(_extra_values) for k in d.extra_fields})
        for d in decls
    )
    robots = (RobotState(draw(_pose()), draw(_unit)),)
    actions = (Action(draw(_pose()), draw(_unit)),)
    phase = draw(st.one_of(st.none(), st.integers(0, 2**40)))
    ts = Timestep(draw(st.integers(0, 2**40)), entities, robots, actions, phase, draw(st.booleans()))
    return schema, ts


@settings(max_examples=300, deadline=None)
@given(_schema_and_timestep())
def test_timestep_encoder_matches_json_dumps(schema_ts):
    schema, ts = schema_ts
    assert timestep_to_json(ts, schema) == reference_timestep_to_json(ts, schema)


def per_line_timestep_to_json(ts, schema) -> str:
    """timestep_to_json as it was before it took the ids' and keys' text from
    the schema: it quoted each entity id, extra key and agent id per line
    (the agent id, which no record holds, is the schema's)."""
    quote = json.encoder.encode_basestring_ascii
    entities = ",".join([
        f'{{"entity_id":{quote(e.entity_id)},"pose":{_pose_to_json(e.pose)},"extra":{{'
        + ",".join([f"{quote(k)}:{float(e.extra[k])!r}" for k in decl.extra_fields])
        + "}}"
        for e, decl in zip(ts.entities, schema.entities)
    ])
    robots = ",".join([
        f'{{"agent_id":{quote(schema.agent)},"eef_pose":{_pose_to_json(r.eef_pose)},'
        f'"gripper_aperture":{float(r.gripper_aperture)!r}}}'
        for r in ts.robots
    ])
    actions = ",".join([
        f'{{"agent_id":{quote(schema.agent)},"target_eef_pose":{_pose_to_json(a.target_eef_pose)},'
        f'"gripper_command":{float(a.gripper_command)!r}}}'
        for a in ts.actions
    ])
    phase = "null" if ts.phase is None else int(ts.phase)
    interp = ',"interp":true' if ts.interp else ""
    return (
        f'{{"t":{int(ts.t)},"entities":[{entities}],"robots":[{robots}],"actions":[{actions}],'
        f'"phase":{phase}{interp}}}'
    )


@pytest.mark.parametrize("task", ["stack", "coffee"])
def test_timestep_encoder_matches_the_per_line_encoder_on_a_pipeline_dataset(tmp_path, task):
    from demoaug.pipeline import PipelineConfig, StageConfig, run_pipeline

    stages = (StageConfig("gen", {"count": 2}), StageConfig("segment"), StageConfig("se3", {"count": 2}),
              StageConfig("causal", {"copies": 1}), StageConfig("obs", {"noise_sigma": 0.01}))
    run_pipeline(PipelineConfig(task, stages, str(tmp_path / "run"), master_seed=3))
    final = tmp_path / "run" / "stage_04_obs"
    ds = load_dataset(final)
    lines = 0
    for tr in ds.trajectories:
        text = (final / f"traj_{tr.traj_id}.jsonl").read_text(encoding="utf-8").splitlines()
        for ts, line in zip(tr.timesteps, text, strict=True):
            assert timestep_to_json(ts, ds.task_schema) == per_line_timestep_to_json(ts, ds.task_schema) == line
            lines += 1
    assert lines > 500



@settings(max_examples=300, deadline=None)
@given(_pose())
def test_pose_json_is_encoded_once(pose):
    text = _pose_to_json(pose)
    assert text == json.dumps(_reference_pose(pose), separators=(",", ":"), allow_nan=False)
    assert _pose_to_json(pose) is text


def test_pose_slots_stay_frozen():
    pose = Pose((0.1, 0.2, 0.3), quat_from_yaw(0.4))
    for encoded in (False, True):
        if encoded:
            _pose_to_json(pose)
        for attr in ("position", "orientation", "_json"):
            with pytest.raises(FrozenInstanceError):
                setattr(pose, attr, None)


def _one_timestep():
    return random_dataset(11, n_traj=1, n_steps=1).trajectories[0].timesteps[0]


def test_data_model_instances_have_no_dict():
    # slots keep a saved run's memory flat now that every Pose carries its encoding
    ts = _one_timestep()
    for obj in (ts, ts.entities[1], ts.robots[0], ts.actions[0], ts.robots[0].eef_pose):
        assert not hasattr(obj, "__dict__"), type(obj).__name__


def test_replace_works_on_slotted_data_model():
    ts = _one_timestep()
    entity = replace(ts.entities[1], extra={"lid_angle": 0.25})
    assert entity.extra == {"lid_angle": 0.25} and entity.pose is ts.entities[1].pose
    assert replace(ts.robots[0], gripper_aperture=2.0).gripper_aperture == 1.0
    assert replace(ts.actions[0], gripper_command=-1.0).gripper_command == 0.0
    moved = replace(ts, t=7)
    assert moved.t == 7 and moved.robots is ts.robots
    with pytest.raises(InvariantViolation):
        replace(ts, t=-1)


def test_data_model_survives_pickle_and_deepcopy():
    ts = _one_timestep()
    _pose_to_json(ts.robots[0].eef_pose)
    for clone in (pickle.loads(pickle.dumps(ts)), copy.deepcopy(ts)):
        assert clone == ts
        assert not clone.robots[0].eef_pose.position.flags.writeable
        assert timestep_to_json(clone, make_schema()) == timestep_to_json(ts, make_schema())


@pytest.mark.parametrize("cls", [EntityState, RobotState, Action, Timestep], ids=lambda c: c.__name__)
def test_record_constructor_signature_matches_its_fields(cls):
    import inspect
    from dataclasses import MISSING, fields

    params = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in params] == [f.name for f in fields(cls)]
    for p, f in zip(params, fields(cls)):
        assert p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        if f.default is not MISSING:
            assert p.default == f.default and type(p.default) is type(f.default), f.name
        else:  # extra, with its default_factory, is the only other field with a default
            assert (p.default is inspect.Parameter.empty) == (f.default_factory is MISSING), f.name


def test_record_constructors_keep_their_contract():
    pose = Pose.identity()
    a, b = EntityState("obj_a", pose), EntityState("obj_a", pose)
    assert a.extra == {} and type(a.extra) is dict and a.extra is not b.extra
    given = {"lid_angle": 0.5}
    e = EntityState("obj_b", pose, given)
    given["lid_angle"] = 9.0
    given["other"] = 1.0
    assert e.extra == {"lid_angle": 0.5} and e.extra is not given
    for value, clamped in ((1.5, 1.0), (-0.2, 0.0), (1, 1.0), (0.25, 0.25)):
        for record in (RobotState(pose, value), Action(pose, value)):
            got = record.gripper_aperture if isinstance(record, RobotState) else record.gripper_command
            assert got == clamped and type(got) is float
    ts = Timestep(3, [e], [RobotState(pose, 1)], iter([Action(pose, 0.0)]))
    assert type(ts.entities) is type(ts.robots) is type(ts.actions) is tuple
    assert (ts.phase, ts.interp) == (None, False)
    assert ts == Timestep(t=3, entities=(e,), robots=ts.robots, actions=ts.actions, phase=None, interp=False)
    with pytest.raises(InvariantViolation, match=re.escape("timestep index -1 < 0")):
        Timestep(-1, (), (), ())
    for record, name in ((ts, "t"), (e, "extra"), (ts.robots[0], "gripper_aperture"), (ts.actions[0], "target_eef_pose")):
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, None)


def _raw_timestep_line(ts, robot_agent="robot0") -> str:
    """A timestep line in the layout a save writes, of the record's own ids,
    extra keys and values (an infinity as 1e999, which decodes to inf) and
    the given robot agent id, where a save writes the schema's and refuses
    what fails the checks."""
    def pose(p):
        return {"position": list(p.xyz), "orientation": list(p.wxyz)}

    obj = {
        "t": ts.t,
        "entities": [{"entity_id": e.entity_id, "pose": pose(e.pose), "extra": e.extra} for e in ts.entities],
        "robots": [{"agent_id": robot_agent, "eef_pose": pose(r.eef_pose), "gripper_aperture": r.gripper_aperture}
                   for r in ts.robots],
        "actions": [{"agent_id": "robot0", "target_eef_pose": pose(a.target_eef_pose),
                     "gripper_command": a.gripper_command} for a in ts.actions],
        "phase": ts.phase,
    }
    return json.dumps(obj, separators=(",", ":")).replace("Infinity", "1e999")


def _break_step(ts, case):
    a, b = ts.entities
    far = Action(Pose((5.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)), 1.0)
    return {
        "t_order": lambda: replace(ts, t=2),
        "entity_ordering": lambda: replace(ts, entities=(b, a)),
        "extra_keys": lambda: replace(ts, entities=(a, replace(b, extra={"other": 0.5}))),
        "non_finite_extra": lambda: replace(ts, entities=(a, replace(b, extra={"lid_angle": float("inf")}))),
        "robot_ordering": lambda: ts,  # its line names robot1: a record holds no agent id
        "robot_count": lambda: replace(ts, robots=ts.robots * 2),
        "action_agents": lambda: replace(ts, actions=()),
        "action_outside_workspace": lambda: replace(ts, actions=(far,)),
        "negative_phase": lambda: replace(ts, phase=-1),
        "decreasing_phase": lambda: replace(ts, phase=0),
    }[case]()


_AT = "trajectory 'tr_00', timestep 3: "
_LINE_AT = "trajectory 'tr_00', timestep line 3: "

# each timestep check's message, as save_dataset and load_dataset raised it
# before the checks were folded into one loop; a negative phase does not
# reach the load's checks, as the line reader refuses it. A record holds no
# agent id, so a line's is checked only when it is read (save None).
_CHECK_MESSAGES = {
    "t_order": (
        "trajectory 'tr_00', timestep 2: ordering violation, t not strictly increasing",
    ) * 2,
    "entity_ordering": (_AT + "entity ordering ('obj_b', 'obj_a') != schema ('obj_a', 'obj_b')",) * 2,
    "extra_keys": (_AT + "entity 'obj_b' extra fields ('other',) != ('lid_angle',)",) * 2,
    "non_finite_extra": (_AT + "entity 'obj_b' extra 'lid_angle' is inf, not a finite real number",) * 2,
    "robot_ordering": (None, _LINE_AT + "a robot's agent_id 'robot1' is not the schema's agent 'robot0'"),
    "robot_count": (_AT + "exactly one robot state required, got 2",) * 2,
    "action_agents": (_AT + "exactly one action required, got 0",) * 2,
    "action_outside_workspace": (_AT + "action target position [5.0, 0.0, 0.0] outside workspace bounds",) * 2,
    "negative_phase": (
        _AT + "phase -1 < 0",
        "trajectory 'tr_00', timestep line 3: phase must be null or an integer >= 0, got -1",
    ),
    "decreasing_phase": (_AT + "phase labels decrease",) * 2,
}


@pytest.mark.parametrize("case", list(_CHECK_MESSAGES))
def test_each_timestep_check_keeps_its_message(tmp_path, case):
    ds = random_dataset(21, n_traj=1, n_steps=4)
    tr = ds.trajectories[0]
    bad = replace(tr, timesteps=tr.timesteps[:3] + (_break_step(tr.timesteps[3], case),))
    on_save, on_load = _CHECK_MESSAGES[case]
    if on_save is not None:
        with pytest.raises(InvariantViolation) as exc:
            save_dataset(replace(ds, trajectories=(bad,)), tmp_path / "s")
        assert str(exc.value) == on_save
        assert not (tmp_path / "s").exists()
    save_dataset(ds, tmp_path / "l")
    lines = [_raw_timestep_line(ts) for ts in bad.timesteps[:3]]
    lines.append(_raw_timestep_line(bad.timesteps[3], "robot1" if case == "robot_ordering" else "robot0"))
    (tmp_path / "l" / "traj_tr_00.jsonl").write_text("".join(line + "\n" for line in lines))
    with pytest.raises(InvariantViolation) as exc:
        load_dataset(tmp_path / "l")
    assert str(exc.value) == on_load


# ---------------------------------------------------------------------------
# load_dataset builds each distinct pose once and shares it


def _pose_bits(pose):
    return pose.position.tobytes() + pose.orientation.tobytes()


def _timestep_poses(ts):
    return [e.pose for e in ts.entities] + [r.eef_pose for r in ts.robots] + [a.target_eef_pose for a in ts.actions]


def _all_poses(ds):
    return [p for tr in ds.trajectories for ts in tr.timesteps for p in _timestep_poses(ts)]


def test_load_builds_one_pose_per_distinct_bit_pattern(tmp_path, monkeypatch):
    base = random_dataset(12, n_traj=1, n_steps=4)
    steps = base.trajectories[0].timesteps
    still = steps[0].entities[0]  # obj_a rests through the whole trajectory
    steps = tuple(replace(ts, entities=(still, ts.entities[1])) for ts in steps)
    trajs = tuple(replace(base.trajectories[0], traj_id=f"tr_{k}", timesteps=steps) for k in range(2))
    ds = Dataset(base.task_schema, trajs)
    save_dataset(ds, tmp_path / "d")

    built = []
    init = Pose.__init__

    def counting_init(self, position, orientation):
        built.append(1)
        init(self, position, orientation)

    monkeypatch.setattr(Pose, "__init__", counting_init)
    loaded = load_dataset(tmp_path / "d")
    assert loaded == ds
    assert len(built) == len({_pose_bits(p) for p in _all_poses(ds)}) == 1 + 3 * 4
    a, b = loaded.trajectories
    assert a.timesteps[0].entities[0].pose is a.timesteps[3].entities[0].pose  # across lines
    for ts_a, ts_b in zip(a.timesteps, b.timesteps):  # across trajectories
        assert all(x is y for x, y in zip(_timestep_poses(ts_a), _timestep_poses(ts_b)))
    again = load_dataset(tmp_path / "d")  # nothing is kept across loads
    assert again.trajectories[0].timesteps[0].entities[0].pose is not a.timesteps[0].entities[0].pose


def _write_poses(root, rows):
    """Save a dataset shaped like `rows` (trajectories of timesteps of four
    raw (position, orientation) lists: obj_a, obj_b, the robot, its action
    target), then write those raw values into its timestep lines with
    json.dumps, which keeps ints as ints and writes -0.0."""
    save_dataset(random_dataset(13, n_traj=len(rows), n_steps=len(rows[0])), root)
    for k, steps in enumerate(rows):
        path = root / f"traj_tr_{k:02d}.jsonl"
        lines = []
        for line, raw in zip(path.read_text().splitlines(), steps):
            obj = json.loads(line)
            slots = [(obj["entities"][0], "pose"), (obj["entities"][1], "pose"),
                     (obj["robots"][0], "eef_pose"), (obj["actions"][0], "target_eef_pose")]
            for (holder, key), (pos, ori) in zip(slots, raw):
                holder[key] = {"position": pos, "orientation": ori}
            lines.append(json.dumps(obj))
        path.write_text("\n".join(lines) + "\n")


_RAW_COORDS = [0.0, -0.0, 1.0, 0.5, 0.25]
_RAW_QUATS = [[1.0, 0.0, 0.0, 0.0], [1.0, -0.0, 0.0, -0.0], [-1.0, 0.0, -0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
              [-0.0, 0.0, 0.0, -1.0], [0.5, -0.5, 0.5, -0.5]]


def _written(values, as_int):
    """Integral values the draw marks are written as JSON ints (1, not 1.0)."""
    return [int(v) if flag and v == int(v) else v for v, flag in zip(values, as_int)]


@st.composite
def _raw_pose(draw):
    pos = draw(st.lists(st.sampled_from(_RAW_COORDS), min_size=3, max_size=3))
    ori = draw(st.sampled_from(_RAW_QUATS))
    return (_written(pos, draw(st.lists(st.booleans(), min_size=3, max_size=3))),
            _written(ori, draw(st.lists(st.booleans(), min_size=4, max_size=4))))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.lists(_raw_pose(), min_size=4, max_size=4), min_size=3, max_size=3),
                min_size=2, max_size=2))
def test_interned_load_keeps_exact_bits_and_round_trips(tmp_path_factory, rows):
    """Poses that differ only in -0.0 against 0.0, or in 1 against 1.0, load
    to the bits a fresh Pose of the written values has, and save -> load ->
    save is byte-identical."""
    root = tmp_path_factory.mktemp("raw")
    _write_poses(root / "in", rows)
    loaded = load_dataset(root / "in")
    fresh = [Pose(pos, ori) for steps in rows for raw in steps for pos, ori in raw]
    assert [_pose_bits(p) for p in _all_poses(loaded)] == [_pose_bits(p) for p in fresh]
    save_dataset(loaded, root / "a")
    save_dataset(load_dataset(root / "a"), root / "b")
    for path in sorted((root / "a").iterdir()):
        assert path.read_bytes() == (root / "b" / path.name).read_bytes()


_VALID_RAW = ([0.5, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize(
    "pos, ori",
    [
        ([0.5, 0.0, True], [1.0, 0.0, 0.0, 0.0]),
        ([0.5, 0.0, "1.0"], [1.0, 0.0, 0.0, 0.0]),
        ([0.5, 0.0, 1.0], [True, 0.0, 0.0, 0.0]),
        ([0.5, 0.0, 10**400], [1.0, 0.0, 0.0, 0.0]),
        ([0.5, 0.0], [1.0, 1.0, 0.0, 0.0, 0.0]),
    ],
    ids=["bool_position", "string_position", "bool_orientation", "int_overflow", "values_shifted_across_lists"],
)
def test_pose_after_an_equal_valid_pose_is_still_checked(tmp_path, pos, ori):
    """The type and size checks run on every occurrence, before the cache
    lookup: a malformed pose whose values pack to the bits of a pose loaded
    on an earlier line is refused, naming its own line."""
    rows = [[[_VALID_RAW] * 4, [(pos, ori)] + [_VALID_RAW] * 3]]
    _write_poses(tmp_path / "d", rows)
    with pytest.raises(InvariantViolation, match="tr_00.*line 1"):
        load_dataset(tmp_path / "d")


# ---------------------------------------------------------------------------
# the section reader against the whole-line reader


def _load_whole_lines(path):
    """load_dataset with the layout pattern patched to never match, so that
    every line goes through the whole-line reader, the reference."""
    from unittest import mock

    from demoaug import data

    with mock.patch.object(data, "_LINE_RE", re.compile(r"(?!)")):
        return load_dataset(path)


def _repeating_dataset() -> Dataset:
    """Two trajectories whose sections repeat as an observation copy's do:
    obj_a and obj_b rest, so every line holds the same entities; the second
    trajectory keeps the first one's entities and actions under other
    robots. Odd lines are interpolated."""
    base = random_dataset(14, n_traj=2, n_steps=4)
    a, b = base.trajectories
    still = a.timesteps[0].entities
    steps = tuple(replace(ts, entities=still, interp=ts.t % 2 == 1) for ts in a.timesteps)
    copy = tuple(replace(ts, robots=other.robots) for ts, other in zip(steps, b.timesteps))
    return replace(base, trajectories=(replace(a, timesteps=steps), replace(b, timesteps=copy)))


def _same_files(a, b):
    assert _names(a) == _names(b)
    for path in sorted(a.iterdir()):
        assert path.read_bytes() == (b / path.name).read_bytes(), path.name


@pytest.mark.parametrize("task", ["stack", "coffee"])
def test_both_read_paths_load_every_pipeline_stage_alike(tmp_path, task):
    from demoaug.pipeline import PipelineConfig, StageConfig, run_pipeline

    stages = (
        StageConfig("gen", {"count": 2}),
        StageConfig("segment"),
        StageConfig("se3", {"count": 2}),
        StageConfig("causal", {"copies": 2}),
        StageConfig("obs", {"noise_sigma": 0.01}),
    )
    run_pipeline(PipelineConfig(task, stages, str(tmp_path / "run"), master_seed=5))
    stage_dirs = sorted(p for p in (tmp_path / "run").iterdir() if p.is_dir())
    assert len(stage_dirs) == len(stages)
    for stage in stage_dirs:
        sections, whole = load_dataset(stage), _load_whole_lines(stage)
        assert sections == whole
        save_dataset(sections, tmp_path / "a" / stage.name)
        save_dataset(whole, tmp_path / "b" / stage.name)
        _same_files(tmp_path / "a" / stage.name, tmp_path / "b" / stage.name)
        _same_files(stage, tmp_path / "a" / stage.name)


def test_json_dumps_layout_loads_equal(tmp_path):
    """Lines written by json.dumps with its default separators, an explicit
    "interp": false and the keys in reverse order load through the
    whole-line reader to the same dataset."""
    ds = _repeating_dataset()
    save_dataset(ds, tmp_path / "d")
    for path in (tmp_path / "d").glob("traj_*.jsonl"):
        lines = []
        for line in path.read_text().splitlines():
            obj = json.loads(line)
            obj.setdefault("interp", False)
            lines.append(json.dumps(dict(reversed(obj.items()))))
        path.write_text("\n".join(lines) + "\n")
    assert load_dataset(tmp_path / "d") == ds


def test_line_separators_inside_a_json_string_load(tmp_path):
    """Only "\n" ends a timestep line: the raw U+2028, U+2029 and U+0085
    that json.dumps(..., ensure_ascii=False) leaves inside a string load."""
    ds = random_dataset(3, n_traj=1)
    save_dataset(ds, tmp_path / "d")
    entity = "po\u2028d\u2029x\x85"
    for path in (tmp_path / "d").iterdir():
        text = path.read_text(encoding="utf-8").replace('"obj_a"', json.dumps(entity, ensure_ascii=False))
        path.write_text(text, encoding="utf-8")
    assert "\u2028" in (tmp_path / "d" / "traj_tr_00.jsonl").read_text(encoding="utf-8")
    loaded = load_dataset(tmp_path / "d")
    assert loaded.task_schema.entity_ids() == (entity, "obj_b")
    [got], [want] = loaded.trajectories, ds.trajectories
    assert [ts.entities[0].entity_id for ts in got.timesteps] == [entity] * len(want)
    assert [ts.entities[0].pose for ts in got.timesteps] == [ts.entities[0].pose for ts in want.timesteps]
    assert [ts.robots for ts in got.timesteps] == [ts.robots for ts in want.timesteps]


def test_crlf_lines_load(tmp_path):
    ds = random_dataset(4)
    save_dataset(ds, tmp_path / "d")
    for path in (tmp_path / "d").glob("traj_*.jsonl"):
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert load_dataset(tmp_path / "d") == ds


def test_lines_share_section_tuples_within_one_load(tmp_path):
    save_dataset(_repeating_dataset(), tmp_path / "d")
    first = load_dataset(tmp_path / "d")
    a, b = first.trajectories
    assert all(ts.entities is a.timesteps[0].entities for ts in a.timesteps + b.timesteps)
    assert all(x.actions is y.actions for x, y in zip(a.timesteps, b.timesteps))
    assert all(x.robots is not y.robots for x, y in zip(a.timesteps, b.timesteps))
    again = load_dataset(tmp_path / "d")  # nothing is kept across loads
    assert again == first and again.trajectories[0].timesteps[0].entities is not a.timesteps[0].entities
    whole = _load_whole_lines(tmp_path / "d")  # the reference shares poses, not sections
    assert whole == first and whole.trajectories[0].timesteps[1].entities is not whole.trajectories[0].timesteps[0].entities


def _bad_quaternion(entities):
    entities[0]["pose"]["orientation"] = [2.0, 0.0, 0.0, 0.0]


def _misnamed_extra(entities):
    entities[1]["extra"] = {"lid_angel": 0.5}


@pytest.mark.parametrize(
    "edit, message",
    [
        (_bad_quaternion, "trajectory 'tr_00', timestep line 2: quaternion norm"),
        (_misnamed_extra, "trajectory 'tr_00', timestep 2: entity 'obj_b' extra fields ('lid_angel',)"),
    ],
    ids=["read", "checked"],
)
def test_malformed_repeated_section_names_its_first_line(tmp_path, edit, message):
    """A bad entities section that lines 2 and 3 share, in the layout
    timestep_to_json writes, is refused at line 2 by both readers."""
    save_dataset(_repeating_dataset(), tmp_path / "d")
    path = tmp_path / "d" / "traj_tr_00.jsonl"
    lines = path.read_text().splitlines()
    entities = json.loads(lines[0])["entities"]
    edit(entities)
    text = json.dumps(entities, separators=(",", ":"))
    for i in (2, 3):
        head, rest = lines[i].split(',"robots":', 1)
        lines[i] = head.split('"entities":')[0] + f'"entities":{text},"robots":' + rest
    path.write_text("\n".join(lines) + "\n")
    for load in (load_dataset, _load_whole_lines):
        with pytest.raises(InvariantViolation) as exc:
            load(tmp_path / "d")
        assert str(exc.value).startswith(message)


@pytest.mark.parametrize("value", ["[" * 100_000 + "]" * 100_000, "1" * 5000], ids=["deep_nesting", "huge_int"])
@pytest.mark.parametrize(
    "file, anchor, message",
    [("traj_tr_00.jsonl", '"phase":0', "timestep line 0: bad JSON"),
     ("manifest.json", '"schema_version":"1.0"', "failed reading")],
    ids=["line", "manifest"],
)
def test_json_past_the_decoders_limits_is_bad_json(tmp_path, file, anchor, message, value):
    """A nesting too deep for the decoder's recursion, or an int with more
    digits than int() converts, is refused as bad JSON by both readers."""
    save_dataset(_repeating_dataset(), tmp_path / "d")
    path = tmp_path / "d" / file
    path.write_text(path.read_text().replace(anchor, f'{anchor},"x":{value}', 1))
    for load in (load_dataset, _load_whole_lines):
        with pytest.raises(IoFailure, match=message):
            load(tmp_path / "d")


# the dataset fuzz gate: one mutation of a valid dataset directory


_JSON_VALUES = st.sampled_from([None, True, False, -1, 0, 2, 0.5, 1e300, 10**400, float("nan"), "x", "", [], {},
                                [0.0, 0.0, 0.0], {"position": [0.0, 0.0, 0.0]}])


def _paths(value, at=()):
    """The path of every value nested in a JSON value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    return [p for key, item in items for p in [at + (key,)] + _paths(item, at + (key,))]


def _json_edit(draw, obj):
    """obj after deleting the value at a drawn path, or replacing it."""
    *keys, last = draw(st.sampled_from(_paths(obj)))
    holder = obj
    for key in keys:
        holder = holder[key]
    if draw(st.booleans()):
        del holder[last]
    else:
        holder[last] = draw(_JSON_VALUES)
    return obj


@st.composite
def _mutation(draw, files):
    """(file name, new bytes): a byte flip, a truncated line, a deleted or
    replaced value in a timestep line (written in the compact layout, so
    that the section reader meets it), or a manifest edit."""
    names = sorted(files)
    kind = draw(st.sampled_from(["flip", "truncate", "line", "manifest"]))
    if kind == "flip":
        name = draw(st.sampled_from(names))
        blob = bytearray(files[name])
        at = draw(st.integers(0, len(blob) - 1))
        blob[at] ^= draw(st.integers(1, 255))
        return name, bytes(blob)
    if kind == "manifest":
        manifest = _json_edit(draw, json.loads(files["manifest.json"]))
        return "manifest.json", json.dumps(manifest).encode()
    name = draw(st.sampled_from([n for n in names if n != "manifest.json"]))
    lines = files[name].decode().splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "truncate":
        lines[i] = lines[i][: draw(st.integers(0, len(lines[i]) - 1))]
    else:
        lines[i] = json.dumps(_json_edit(draw, json.loads(lines[i])), separators=(",", ":"))
    return name, ("\n".join(lines) + "\n").encode()


def _outcome(load, root):
    """("ok", the dataset) or ("error", type, message); anything but a
    DemoaugError fails the test."""
    from demoaug.errors import DemoaugError

    try:
        return "ok", load(root)
    except DemoaugError as exc:
        return "error", type(exc), str(exc)


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz_base")
    save_dataset(_repeating_dataset(), root)
    return {p.name: p.read_bytes() for p in root.iterdir()}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_mutation_loads_or_raises_a_typed_error_alike_on_both_paths(tmp_path_factory, fuzz_base, data):
    """Any single mutation of a valid dataset directory loads, or raises a
    DemoaugError; the section reader and the whole-line reader give equal
    datasets, or the same error type and message."""
    name, blob = data.draw(_mutation(fuzz_base))
    root = tmp_path_factory.mktemp("fuzz")
    for file, content in fuzz_base.items():
        (root / file).write_bytes(blob if file == name else content)
    assert _outcome(load_dataset, root) == _outcome(_load_whole_lines, root)
