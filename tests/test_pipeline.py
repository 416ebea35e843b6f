import hashlib
import json

import numpy as np
import pytest

from demoaug.causal import partitions
from demoaug.counterfactual import CounterfactualConfig
from demoaug.data import Dataset, Provenance, load_dataset
from demoaug.errors import ConfigError, InvariantViolation, StageFailure
from demoaug.pipeline import (
    PipelineConfig,
    RatioPlan,
    StageConfig,
    pipeline_config_from_dict,
    ratio_study,
    run_pipeline,
    run_stage,
    stats,
    validate_dataset_full,
)
from demoaug.tasks import resolve_task
from tests.conftest import bundled_task_json, make_labeled_demos, stack_task_plus


def tree_digest(root):
    digest = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            digest[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return digest


@pytest.mark.parametrize("input_path", ["", 5, b"in"], ids=["empty", "integer", "bytes"])
def test_an_input_path_that_is_not_a_non_empty_string_is_a_config_error(input_path):
    """PipelineConfig holds the rule on its input, so a config built in
    Python is refused as one read from JSON is, before any stage runs."""
    with pytest.raises(ConfigError, match=f"input must be a non-empty string, got {input_path!r}"):
        PipelineConfig("stack", (StageConfig("segment"),), "out", input_path=input_path)


def test_stage_order_validation():
    with pytest.raises(InvariantViolation):
        PipelineConfig("stack", (StageConfig("causal"), StageConfig("gen")), "/tmp/x")
    with pytest.raises(InvariantViolation):
        PipelineConfig("stack", (StageConfig("segment"),), "/tmp/x")  # no input, no gen
    with pytest.raises(InvariantViolation):
        StageConfig("transmogrify")


def test_gen_only_pipeline(tmp_path):
    cfg = PipelineConfig("stack", (StageConfig("gen", {"count": 4}),), str(tmp_path / "o"), master_seed=2)
    report = run_pipeline(cfg)
    assert report["stages"][0]["generated"] == 4
    assert report["stages"][0]["all_success"]
    ds = load_dataset(tmp_path / "o" / "stage_00_gen")
    assert len(ds) == 4
    assert all(t.success for t in ds.trajectories)


def test_empty_stage_list(tmp_path):
    cfg = PipelineConfig("stack", (), str(tmp_path / "empty"))
    report = run_pipeline(cfg)
    assert report["stages"] == []


def test_full_pipeline_reconciles_counts(tmp_path):
    cfg = PipelineConfig(
        "stack",
        (
            StageConfig("gen", {"count": 3}),
            StageConfig("segment"),
            StageConfig("se3", {"count": 2}),
            StageConfig("causal", {"copies": 2}),
            StageConfig("obs", {"noise_sigma": 0.005}),
            StageConfig("validate"),
        ),
        str(tmp_path / "full"),
        master_seed=4,
    )
    report = run_pipeline(cfg)
    by_name = {s["name"]: s for s in report["stages"]}
    assert by_name["se3"]["acceptance_rate"] >= 0.95
    assert by_name["causal"]["copies"] == 2 * 5
    # counts reconcile stage to stage
    assert by_name["segment"]["in"] == 3
    assert by_name["se3"]["out"] == by_name["se3"]["in"] + by_name["se3"]["accepted"]
    assert by_name["causal"]["out"] == by_name["causal"]["in"] + by_name["causal"]["copies"]
    assert by_name["validate"]["ok"]


def test_pipeline_deterministic_across_worker_counts(tmp_path):
    stages = (
        StageConfig("gen", {"count": 3}),
        StageConfig("segment"),
        StageConfig("se3", {"count": 2}),
        StageConfig("causal", {"copies": 1}),
        StageConfig("obs", {"noise_sigma": 0.005}),
        StageConfig("validate"),
    )
    digests = []
    for workers in (1, 4):
        out = tmp_path / f"w{workers}"
        run_pipeline(PipelineConfig("stack", stages, str(out), master_seed=11, workers=workers))
        digests.append(tree_digest(out))
    assert digests[0] == digests[1]


@pytest.mark.parametrize("task", ["stack", "coffee"])
def test_internal_pose_constructors_match_the_public_ones(tmp_path, monkeypatch, task):
    """The pipeline's output is byte-identical, and nothing raises, when
    every Pose and SE3Transform is built through the constructors' numpy
    path: every value that the float path the kernels take (tuples of exact
    floats, taken as is) stored passed the same checks, with the same bits."""
    from demoaug import geometry

    stages = (
        StageConfig("gen", {"count": 3}),
        StageConfig("segment"),
        StageConfig("se3", {"count": 3}),
        StageConfig("causal", {"copies": 1}),
        StageConfig("obs", {"noise_sigma": 0.01}),
        StageConfig("validate"),
    )
    run_pipeline(PipelineConfig(task, stages, str(tmp_path / "internal"), master_seed=7))
    vec3, unit_quat = geometry._vec3, geometry._unit_quat
    monkeypatch.setattr(geometry, "_vec3", lambda x, what: vec3(np.array(x), what))
    monkeypatch.setattr(geometry, "_unit_quat", lambda q, what: unit_quat(np.array(q), what))
    run_pipeline(PipelineConfig(task, stages, str(tmp_path / "public"), master_seed=7))
    internal = tree_digest(tmp_path / "internal")
    assert "report.json" in internal and len(internal) > 5
    assert internal == tree_digest(tmp_path / "public")


@pytest.mark.parametrize("task", ["stack", "coffee"])
def test_a_pass_reads_no_pose_as_arrays(tmp_path, monkeypatch, task):
    """The per-step kernels (sim.step, _gripper_tf, the experts, proprio_noise,
    retargeting) and the codec read poses as floats: a whole pass builds no
    array of a Pose or an SE3Transform."""
    from demoaug import geometry

    built = []
    array = geometry._array
    monkeypatch.setattr(geometry, "_array", lambda values: built.append(len(values)) or array(values))
    stages = (
        StageConfig("gen", {"count": 3}),
        StageConfig("segment"),
        StageConfig("se3", {"count": 3}),
        StageConfig("causal", {"copies": 1}),
        StageConfig("obs", {"noise_sigma": 0.01}),
        StageConfig("validate"),
    )
    run_pipeline(PipelineConfig(task, stages, str(tmp_path / "run"), master_seed=5))
    assert built == []
    geometry.Pose.identity().position  # the probe sees a read
    assert built == [3]


def test_a_distractor_runs_through_the_pipeline_and_is_swapped_in_every_copy(tmp_path):
    """A fourth block added only to the stack task file's schema, samplers
    and geoms, with no spec edge, is its own partition in every phase: the
    task plus `cube_d` generates, segments, retargets, augments and
    validates, and every counterfactual copy swaps `cube_d`."""
    stack = bundled_task_json("stack")
    sampler = dict(stack["samplers"]["cube_b"], y_range=[0.08, 0.2])  # the free quadrant
    task_path = tmp_path / "stack_distractor.json"
    task_path.write_text(json.dumps(stack_task_plus("cube_d", "block", sampler, stack["geoms"]["cube_b"])))
    stages = (
        StageConfig("gen", {"count": 3}),
        StageConfig("segment"),
        StageConfig("se3", {"count": 3}),
        StageConfig("causal", {"copies": 1}),
        StageConfig("validate"),
    )
    task = resolve_task(str(task_path))
    for phase in task.causal.phases:
        assert frozenset({"cube_d"}) in [p.members for p in partitions(phase.joint_graph())]
    report = run_pipeline(PipelineConfig(str(task_path), stages, str(tmp_path / "run"), master_seed=2))
    assert [s["out"] for s in report["stages"]] == [3, 3, 6, 12, 12]
    ds = load_dataset(tmp_path / "run" / "stage_03_causal")
    copies = [t for t in ds.trajectories if t.provenance is Provenance.COUNTERFACTUAL_SYNTHETIC]
    assert len(copies) == 6
    for copy in copies:
        src = ds.trajectory(copy.traj_id.rsplit("_cf", 1)[0])
        assert any(c.entity("cube_d") != s.entity("cube_d") for c, s in zip(copy.timesteps, src.timesteps))


def _spy_copies(monkeypatch):
    """Record the destination of every file copy save_dataset makes."""
    import shutil

    copies = []
    real_copy = shutil.copyfile
    monkeypatch.setattr(shutil, "copyfile", lambda src, dst: copies.append(dst) or real_copy(src, dst))
    return copies


def _assert_fresh_save_equal(saves, fresh_root):
    from demoaug.data import save_dataset

    for n, (ds, path) in enumerate(saves):
        fresh = fresh_root / str(n)
        save_dataset(ds, fresh)
        assert tree_digest(path) == tree_digest(fresh)
        assert all(f.stat().st_nlink == 1 for f in path.iterdir())


def test_stage_outputs_equal_fresh_saves(tmp_path, monkeypatch):
    from demoaug import data, pipeline

    saves = []

    def save(ds, path, previous=None):
        saves.append((ds, path))
        return data.save_dataset(ds, path, previous=previous)

    monkeypatch.setattr(pipeline, "save_dataset", save)
    copies = _spy_copies(monkeypatch)
    stages = (
        StageConfig("gen", {"count": 2}),
        StageConfig("segment"),
        StageConfig("se3", {"count": 2}),
        StageConfig("causal", {"copies": 1}),
        StageConfig("obs", {"noise_sigma": 0.005}),
    )
    run_pipeline(PipelineConfig("stack", stages, str(tmp_path / "run"), master_seed=5))
    assert [p.name for _, p in saves] == sorted(p.name for p in (tmp_path / "run").glob("stage_*"))
    # se3, causal and obs inherit every trajectory of the stage before
    assert len(copies) == 2 + 4 + 8
    _assert_fresh_save_equal(saves, tmp_path / "fresh")


def test_ratio_outputs_equal_fresh_saves(tmp_path, monkeypatch, stack_task):
    copies = _spy_copies(monkeypatch)
    base = make_labeled_demos(stack_task, 2, seed_base=4)
    # ratio 1 copies the two originals; the repeated ratio copies all four
    # files (the copies are made once, so they are the same objects) from the
    # directory it replaces, which stays intact until the atomic swap
    datasets, _ = ratio_study(base, RatioPlan(2, (0, 1, 1)), stack_task.causal,
                              CounterfactualConfig(master_seed=0), out_root=tmp_path / "ratio")
    assert len(copies) == 6
    saves = [(datasets[0], tmp_path / "ratio" / "ratio_0"), (datasets[2], tmp_path / "ratio" / "ratio_1")]
    _assert_fresh_save_equal(saves, tmp_path / "fresh")


def test_validate_fails_on_corrupt_replay(stack_task, stack_demos):
    from dataclasses import replace
    import numpy as np
    from demoaug.geometry import Pose

    traj = stack_demos.trajectories[0]
    steps = list(traj.timesteps)
    # corrupt the grasp-critical action: last one before the gripper closes
    idx = next(i for i, ts in enumerate(steps) if ts.phase == 1) - 1
    act = steps[idx].actions[0]
    shifted = Pose(
        np.clip(act.target_eef_pose.position + np.array([0.5, 0.0, 0.0]),
                stack_task.schema.workspace_min, stack_task.schema.workspace_max),
        act.target_eef_pose.orientation,
    )
    steps[idx] = replace(steps[idx], actions=(replace(act, target_eef_pose=shifted),))
    broken = replace(traj, timesteps=tuple(steps))
    result = validate_dataset_full(Dataset(stack_task.schema, (broken,)), stack_task)
    assert not result["ok"]
    assert any("replay" in f for f in result["failures"])


def test_validate_counts_exclude_counterfactual_replays(stack_task, stack_demos):
    from demoaug.counterfactual import augment_offline

    out = augment_offline(stack_demos, stack_task.causal, CounterfactualConfig(master_seed=1))
    result = validate_dataset_full(out, stack_task)
    assert result["ok"]
    assert result["replayed"] == len(stack_demos)  # originals only
    assert result["checked"] == len(out)


def test_ratio_study_exact_counts(tmp_path, stack_task):
    base = make_labeled_demos(stack_task, 5, seed_base=3)
    plan = RatioPlan(5, (0, 1, 2))
    datasets, table = ratio_study(base, plan, stack_task.causal, CounterfactualConfig(master_seed=0),
                                  out_root=tmp_path / "ratio")
    assert [row["synthetic_count"] for row in table] == [0, 5, 10]
    assert [row["real_count"] for row in table] == [5, 5, 5]
    for r, ds in zip((0, 1, 2), datasets):
        assert len(ds) == 5 + 5 * r
        reloaded = load_dataset(tmp_path / "ratio" / f"ratio_{r}")
        assert reloaded == ds
    assert json.loads((tmp_path / "ratio" / "ratio_table.json").read_text()) == table


def test_each_ratio_takes_the_first_copies_of_one_augment(stack_task, stack_demos):
    """The copies are made once, for the largest ratio; ratio r, in any order
    of the plan, is the dataset augment_offline makes with r copies."""
    from dataclasses import replace
    from demoaug.counterfactual import augment_offline

    cfg = CounterfactualConfig(master_seed=2, swap_probability=0.7, gripper_jitter_range=0.05)
    ratios = (2, 0, 3, 1)
    datasets, _ = ratio_study(stack_demos, RatioPlan(len(stack_demos), ratios), stack_task.causal, cfg)
    for r, ds in zip(ratios, datasets):
        fresh = augment_offline(stack_demos, stack_task.causal, replace(cfg, copies_per_trajectory=r)) if r else stack_demos
        assert ds == fresh
    n = len(stack_demos)
    assert all(a is b for a, b in zip(datasets[3].trajectories[n:], datasets[0].trajectories[n::2]))


def test_ratio_copies_are_the_causal_stage_copies(stack_task, stack_demos):
    """ratio_study and the causal stage share one implementation: ratio 1
    with gripper jitter gives the stage's dataset, and ratio 0 passes the
    base through."""
    cfg = CounterfactualConfig(master_seed=5, gripper_jitter_range=0.05)
    (passed, ratio_1), _ = ratio_study(stack_demos, RatioPlan(len(stack_demos), (0, 1)), stack_task.causal, cfg)
    stage, info = run_stage(StageConfig("causal", {"gripper_jitter": 0.05}), stack_demos, stack_task, 5)
    assert passed == stack_demos and ratio_1 == stage and info["gripper_jitter_range"] == 0.05
    unjittered, _ = run_stage(StageConfig("causal"), stack_demos, stack_task, 5)
    assert ratio_1 != unjittered


def test_se3_with_a_pos_range_outside_the_workspace_fails_the_stage(tmp_path):
    stages = (StageConfig("gen", {"count": 2}), StageConfig("segment"),
              StageConfig("se3", {"count": 1, "pos_range": [0.3, 0.5, -0.1, 0.1]}))
    with pytest.raises(StageFailure) as exc:
        run_pipeline(PipelineConfig("stack", stages, str(tmp_path / "o")))
    assert str(exc.value) == "stage 'se3' failed: sampler box for 'cube_a' exceeds the task workspace"


def test_stats_summary(stack_task, stack_demos):
    s = stats(stack_demos)
    assert s["trajectories"] == len(stack_demos)
    assert s["trajectories_by_provenance"] == {"human_source": len(stack_demos)}
    assert set(s["phase_length_histogram"]) == {"0", "1", "2", "3"}
    for eid, box in s["entity_position_bounds"].items():
        assert all(lo <= hi for lo, hi in zip(box["min"], box["max"]))


def test_stats_empty():
    from demoaug.data import TaskSchema, EntityDecl
    import numpy as np

    schema = TaskSchema("t", (EntityDecl("a", "block"),), "r",
                        np.array([-1.0, -1, 0]), np.array([1.0, 1, 1]))
    s = stats(Dataset(schema, ()))
    assert s["trajectories"] == 0 and s["timesteps"] == 0


def test_stats_counts_counterfactual_copies(stack_task, stack_demos):
    from demoaug.counterfactual import augment_offline

    out = augment_offline(stack_demos, stack_task.causal,
                          CounterfactualConfig(master_seed=2, copies_per_trajectory=2))
    s = stats(out)
    assert s["trajectories_by_provenance"]["counterfactual_synthetic"] == 2 * len(stack_demos)


def reference_stats(ds) -> dict:
    """stats as it was before it visited each distinct entities tuple once:
    the bounds run over every timestep's entities."""
    from collections import Counter

    traj_by_prov = Counter(tr.provenance.value for tr in ds.trajectories)
    step_by_prov: Counter = Counter()
    phase_hist: dict = {}
    bounds: dict = {}
    for tr in ds.trajectories:
        step_by_prov[tr.provenance.value] += len(tr)
        if all(ts.phase is not None for ts in tr.timesteps):
            for phase, t0, t1 in tr.phase_ranges():
                phase_hist.setdefault(phase, Counter())[t1 - t0] += 1
        for ts in tr.timesteps:
            for e in ts.entities:
                box = bounds.setdefault(e.entity_id, {"min": [float("inf")] * 3, "max": [float("-inf")] * 3})
                for k, x in enumerate(e.pose.xyz):
                    box["min"][k] = min(box["min"][k], x)
                    box["max"][k] = max(box["max"][k], x)
    return {
        "trajectories": len(ds),
        "timesteps": sum(step_by_prov.values()),
        "trajectories_by_provenance": dict(sorted(traj_by_prov.items())),
        "timesteps_by_provenance": dict(sorted(step_by_prov.items())),
        "phase_length_histogram": {str(p): dict(sorted(c.items())) for p, c in sorted(phase_hist.items())},
        "entity_position_bounds": {k: bounds[k] for k in sorted(bounds)},
    }


def _same_stats(ds):
    got, want = stats(ds), reference_stats(ds)
    assert json.dumps(got) == json.dumps(want)  # the same bits, -0.0 included
    return got


@pytest.mark.parametrize("task", ["stack", "coffee"])
def test_stats_equals_the_per_timestep_reference(tmp_path, task):
    from dataclasses import replace

    from demoaug.data import EntityState

    stages = (StageConfig("gen", {"count": 2}), StageConfig("segment"), StageConfig("se3", {"count": 2}),
              StageConfig("causal", {"copies": 2}), StageConfig("obs", {"noise_sigma": 0.01}))
    run_pipeline(PipelineConfig(task, stages, str(tmp_path / "run"), master_seed=4))
    for stage_dir in sorted(p for p in (tmp_path / "run").iterdir() if p.is_dir()):
        ds = load_dataset(stage_dir)
        _same_stats(ds)
    steps = [ts for tr in ds.trajectories for ts in tr.timesteps]
    assert len({id(ts.entities) for ts in steps}) < len(steps) / 2  # the load shares most entities tuples
    unshared = replace(ds, trajectories=tuple(
        replace(tr, timesteps=tuple(replace(ts, entities=tuple(EntityState(e.entity_id, e.pose, e.extra)
                                                               for e in ts.entities)) for ts in tr.timesteps))
        for tr in ds.trajectories))
    assert _same_stats(unshared) == stats(ds)


@pytest.mark.parametrize("order", ["plus_first", "minus_first"])
def test_stats_keeps_the_first_zero_of_a_signed_zero_tie(order):
    from demoaug.data import EntityDecl, EntityState, TaskSchema, Timestep, Trajectory
    from demoaug.geometry import Pose

    schema = TaskSchema("t", (EntityDecl("a", "block"),), "r", [-1.0, -1.0, 0.0], [1.0, 1.0, 1.0])
    plus, minus = ((EntityState("a", Pose([x, 0.5, 0.5], [1.0, 0.0, 0.0, 0.0])),) for x in (0.0, -0.0))
    first, second = (plus, minus) if order == "plus_first" else (minus, plus)
    steps = tuple(Timestep(t, ents, (), ()) for t, ents in enumerate((first, second, first, second, first)))
    ds = Dataset(schema, (Trajectory("a", steps, True, "human_source"),))
    x_min, x_max = (_same_stats(ds)["entity_position_bounds"]["a"][k][0] for k in ("min", "max"))
    assert repr((x_min, x_max)) == ("(0.0, 0.0)" if order == "plus_first" else "(-0.0, -0.0)")


def test_pipeline_config_from_dict(tmp_path):
    obj = {
        "task": "stack",
        "seed": 7,
        "workers": 2,
        "out": str(tmp_path / "cfg"),
        "stages": [{"name": "gen", "count": 2}, {"name": "segment"}],
    }
    cfg = pipeline_config_from_dict(obj)
    assert cfg.master_seed == 7 and cfg.workers == 2
    assert cfg.stages[0].params == {"count": 2}
    report = run_pipeline(cfg)
    assert len(report["stages"]) == 2


def test_stage_params_are_typed_when_given():
    params = StageConfig("obs", {"noise_sigma": 0, "copies": 2}).params
    assert params == {"noise_sigma": 0.0, "copies": 2}
    assert type(params["noise_sigma"]) is float
    se3 = StageConfig("se3", {"count": None, "pos_range": [0, 1, -1, 0.5], "yaw_range": None}).params
    assert se3 == {"count": None, "pos_range": (0.0, 1.0, -1.0, 0.5), "yaw_range": None}
    for name, params in [("gen", {"count": None}), ("obs", {"noise_sigma": float("nan")}),
                         ("obs", {"noise_sigma": True}), ("se3", {"yaw_range": [0, float("inf")]}),
                         ("se3", {"pos_range": [True, 0, 0, 0]}), ("causal", {"copies": 0}),
                         ("causal", {"donor_policy": "any"})]:
        with pytest.raises(ConfigError):
            StageConfig(name, params)


def test_color_sensitive_obs_stage_refused(tmp_path):
    """The obs stage adds proprio noise alone: a color-op key is refused as
    an unknown parameter, with or without force, before any stage runs."""
    for key in ("jitter", "permute", "force"):
        with pytest.raises(ConfigError, match=rf"stage 'obs' has no parameter '{key}' \(it takes noise_sigma, copies\)"):
            StageConfig("obs", {"noise_sigma": 0.0, key: True})
    obj = {
        "task": "stack",
        "out": str(tmp_path / "ref"),
        "stages": [{"name": "gen", "count": 1}, {"name": "segment"},
                   {"name": "obs", "noise_sigma": 0.0, "jitter": True, "force": True}],
    }
    with pytest.raises(ConfigError, match="stage 'obs' has no parameter 'force', 'jitter'"):
        pipeline_config_from_dict(obj)
    assert not (tmp_path / "ref").exists()


def test_readme_stage_table_matches_stages():
    """Every stage, parameter key and default in STAGES appears in its row
    of the README's stage-parameter table."""
    from pathlib import Path

    from demoaug.pipeline import STAGES

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = text[text.index("Stage parameters ("):].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    rows, stage = {}, None
    for line in lines[start + 2:]:  # past the header and its rule
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in line.strip("|").split(" | ")]
        stage = cells[0].strip("`") or stage
        for key in cells[1].replace("`", "").split(", "):
            rows[stage, key] = cells[3]
    expected = {(name, key) for name, (_, table) in STAGES.items() for key in table}
    assert set(rows) == expected
    for (name, key), default in rows.items():
        value = STAGES[name][1][key].default
        if value is not None:
            shown = str(value).lower() if isinstance(value, bool) else str(value)
            assert shown in default, (name, key, default)
