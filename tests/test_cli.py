import inspect
import json
import logging
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import demoaug
from demoaug import errors
from demoaug.cli import main
from demoaug.data import load_dataset
from demoaug.imageaug import (
    VisualAugConfig,
    channel_permute,
    color_jitter,
    gaussian_blur,
    random_resized_crop,
    read_ppm,
    write_ppm,
)
from demoaug.render import rasterize_state
from demoaug.rng import derive_stream
from demoaug.sim import reset
from demoaug.tasks import resolve_task
from tests.conftest import bundled_task_json, spec_json


def run_cli(*argv):
    return main(list(argv))


def test_usage_error_exit_code():
    assert run_cli("no-such-command") == 1
    assert run_cli("gen-demos") == 1  # missing required flags


def test_readme_lists_each_error_class():
    """errors.py declares one class per way a caller handles a failure, and
    the README's errors table lists each of them."""
    declared = {name for name, obj in vars(errors).items()
                if inspect.isclass(obj) and issubclass(obj, errors.DemoaugError)}
    assert declared == {"DemoaugError", "InvariantViolation", "IoFailure", "ConfigError", "BudgetExhausted",
                        "ColorJitterRefused", "StageFailure"}
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = text[text.index("## Errors and exit codes"):text.index("## Pipeline configs")]
    assert {name for name in declared if f"| `{name}` |" in table} == declared


def test_gen_segment_stats_flow(tmp_path, capsys):
    demos = tmp_path / "demos"
    assert run_cli("gen-demos", "--task", "stack", "--count", "2", "--seed", "3",
                   "--out", str(demos)) == 0
    capsys.readouterr()
    labeled = tmp_path / "labeled"
    assert run_cli("segment", "--task", "stack", "--in", str(demos), "--out", str(labeled)) == 0
    capsys.readouterr()
    assert run_cli("stats", "--in", str(labeled)) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["trajectories"] == 2
    assert set(out["phase_length_histogram"]) == {"0", "1", "2", "3"}


@pytest.fixture(scope="module")
def labeled_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    demos = root / "demos"
    assert run_cli("gen-demos", "--task", "stack", "--count", "3", "--seed", "5",
                   "--out", str(demos)) == 0
    labeled = root / "labeled"
    assert run_cli("segment", "--task", "stack", "--in", str(demos), "--out", str(labeled)) == 0
    return labeled


def test_augment_causal_cli(tmp_path, labeled_dir, capsys):
    out = tmp_path / "causal"
    code = run_cli("augment-causal", "--task", "stack", "--in", str(labeled_dir),
                   "--out", str(out), "--seed", "1", "--swap-prob", "1.0", "--copies", "2")
    assert code == 0
    ds = load_dataset(out)
    assert len(ds) == 9


def test_augment_se3_cli(tmp_path, labeled_dir, capsys):
    out = tmp_path / "se3"
    code = run_cli("augment-se3", "--task", "stack", "--in", str(labeled_dir),
                   "--out", str(out), "--seed", "2", "--count", "2")
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["accepted"] == 2
    ds = load_dataset(out)
    assert len(ds) == 5


def test_validate_and_replay_cli(labeled_dir, capsys):
    assert run_cli("validate", "--task", "stack", "--in", str(labeled_dir)) == 0
    capsys.readouterr()
    assert run_cli("replay", "--task", "stack", "--in", str(labeled_dir), "--strict") == 0


@pytest.mark.parametrize("task", ["stack", "coffee"])
def test_replay_replays_what_validate_replays(tmp_path, capsys, task):
    """`replay` replays the trajectories `validate` does, the human and SE(3)
    demos, and not the counterfactual composites or their noised copies,
    which are no single rollout: --strict exits 0 on a `gen -> segment ->
    causal -> obs` dataset whose replayable trajectories succeed."""
    stages = [{"name": "gen", "count": 3}, {"name": "segment"}, {"name": "causal", "copies": 2}, {"name": "obs"}]
    config = tmp_path / "pipeline.json"
    config.write_text(json.dumps({"task": task, "out": str(tmp_path / "run"), "seed": 3, "stages": stages}))
    assert run_cli("run", "--config", str(config)) == 0
    final = tmp_path / "run" / "stage_03_obs"
    capsys.readouterr()
    assert run_cli("replay", "--task", task, "--in", str(final), "--strict") == 0
    replayed = json.loads(capsys.readouterr().out)
    assert run_cli("validate", "--task", task, "--in", str(final)) == 0
    validated = json.loads(capsys.readouterr().out)
    assert replayed == {"replayed": 3, "failures": []}
    assert (validated["checked"], validated["replayed"]) == (18, 3)


def test_validate_exit_two_on_corruption(tmp_path, labeled_dir, capsys):
    import shutil

    broken = tmp_path / "broken"
    shutil.copytree(labeled_dir, broken)
    traj_file = next(broken.glob("traj_*.jsonl"))
    lines = traj_file.read_text().splitlines()
    obj = json.loads(lines[0])
    obj["entities"][0]["pose"]["orientation"] = [0.7, 0.0, 0.0, 0.0]
    lines[0] = json.dumps(obj)
    traj_file.write_text("\n".join(lines) + "\n")
    assert run_cli("validate", "--task", "stack", "--in", str(broken)) == 2


OTHER_TASK = "error: dataset of task 'three_block_stack' does not match the schema of task 'pod_machine'\n"


@pytest.mark.parametrize("command", ["replay", "validate", "ratio-study"])
def test_dataset_of_another_task_is_an_error(tmp_path, labeled_dir, capsys, command):
    out = ("--out", str(tmp_path / "out")) if command == "ratio-study" else ()
    capsys.readouterr()
    assert run_cli(command, "--task", "coffee", "--in", str(labeled_dir), *out) == 3
    captured = capsys.readouterr()
    assert captured.err == OTHER_TASK and captured.out == ""
    assert not (tmp_path / "out").exists()


def test_run_on_a_dataset_of_another_task_is_a_stage_failure(tmp_path, labeled_dir, capsys):
    cfg_path = tmp_path / "pipeline.json"
    cfg_path.write_text(json.dumps({"task": "coffee", "input": str(labeled_dir), "out": str(tmp_path / "run"),
                                    "stages": [{"name": "validate"}]}))
    capsys.readouterr()
    assert run_cli("run", "--config", str(cfg_path)) == 3
    err = capsys.readouterr().err
    assert err == "stage failure: stage 'validate' failed: " + OTHER_TASK.removeprefix("error: ")
    assert not (tmp_path / "run" / "report.json").exists()


def test_run_with_a_too_narrow_pos_range_names_the_range(tmp_path, labeled_dir, capsys):
    """An se3 pos_range too narrow for the objects' separation fails the
    stage, naming the entities, the separation and each sampler's range."""
    cfg_path = tmp_path / "pipeline.json"
    cfg_path.write_text(json.dumps({"task": "stack", "input": str(labeled_dir), "out": str(tmp_path / "run"),
                                    "stages": [{"name": "se3", "pos_range": [0, 0.01, 0, 0.01]}]}))
    capsys.readouterr()
    assert run_cli("run", "--config", str(cfg_path)) == 3
    err = capsys.readouterr().err
    assert err.startswith("stage failure: stage 'se3' failed: no non-overlapping placement found in 1000 attempts: ")
    assert err.count("\n") == 1 and "['cube_a', 'cube_b', 'cube_c']" in err and "0.08 m apart in xy" in err
    assert all(f"{eid} x [0.0, 0.01] y [0.0, 0.01]" in err for eid in ("cube_a", "cube_b", "cube_c"))


def test_a_copy_without_a_donor_is_counted_not_logged(tmp_path, capsys, caplog):
    """One demo has no donor: its copy is written unswapped and counted in
    the report's no_donor_copies, and nothing is logged or written to stderr."""
    demos, labeled = tmp_path / "demos", tmp_path / "labeled"
    assert run_cli("gen-demos", "--task", "stack", "--count", "1", "--out", str(demos)) == 0
    assert run_cli("segment", "--task", "stack", "--in", str(demos), "--out", str(labeled)) == 0
    capsys.readouterr()
    with caplog.at_level(logging.DEBUG):
        assert run_cli("augment-causal", "--task", "stack", "--in", str(labeled), "--out", str(tmp_path / "cf")) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["no_donor_copies"] == 1 and captured.err == ""
    assert not [record for record in caplog.records if record.name.startswith("demoaug")]


def test_ratio_study_cli(tmp_path, labeled_dir, capsys):
    out = tmp_path / "ratio"
    code = run_cli("ratio-study", "--task", "stack", "--in", str(labeled_dir),
                   "--out", str(out), "--ratios", "0,1", "--seed", "0")
    assert code == 0
    table = json.loads(capsys.readouterr().out)["table"]
    assert [r["synthetic_count"] for r in table] == [0, 3]


def test_augment_obs_dataset_cli(tmp_path, labeled_dir, capsys):
    out = tmp_path / "obs"
    code = run_cli("augment-obs", "--in", str(labeled_dir), "--out", str(out),
                   "--noise-sigma", "0.005", "--seed", "4")
    assert code == 0
    ds = load_dataset(out)
    assert len(ds) == 6


def test_augment_obs_image_cli(tmp_path, capsys):
    task = resolve_task("stack")
    img = rasterize_state(reset(task, 1), task, size=48)
    src = tmp_path / "in.ppm"
    dst = tmp_path / "out.ppm"
    write_ppm(src, img)
    code = run_cli("augment-obs", "--image", str(src), "--image-out", str(dst),
                   "--blur-sigma", "1.0", "--seed", "0")
    assert code == 0
    out = read_ppm(dst)
    assert out.shape == img.shape
    assert not np.array_equal(out, img)


@pytest.mark.parametrize(
    "flags",
    [("--blur-sigma", "nan"), ("--blur-sigma", "inf"), ("--blur-sigma", "0,inf"), ("--jitter", "nan,0,0,0"),
     ("--jitter", "0,0,0,1e308"), ("--blur-sigma", "1e300"), ("--blur-sigma", "0.5,1e308"), ("--blur-sigma", "1e8")],
    ids=["blur_nan", "blur_inf", "blur_range_inf", "jitter_nan", "jitter_hue_past_float32", "blur_radius_past_an_array",
         "blur_range_radius_not_finite", "blur_radius_past_the_bound"],
)
def test_augment_obs_non_finite_parameter_is_an_error(tmp_path, capsys, flags):
    src = tmp_path / "a.ppm"
    write_ppm(src, np.zeros((8, 8, 3), dtype=np.uint8))
    code = run_cli("augment-obs", "--image", str(src), "--image-out", str(tmp_path / "b.ppm"), *flags)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "b.ppm").exists()


def test_augment_obs_image_matches_the_library_chain(tmp_path, capsys):
    """The image half of augment-obs is the library's crop, jitter, permute
    and blur, in that order, on one stream derived from the file name."""
    task = resolve_task("coffee")
    img = rasterize_state(reset(task, 3), task, size=64)
    src, dst = tmp_path / "cam.ppm", tmp_path / "aug.ppm"
    write_ppm(src, img)
    code = run_cli("augment-obs", "--image", str(src), "--image-out", str(dst), "--crop-scale", "0.6,0.9",
                   "--out-size", "48,40", "--jitter", "0.2,0.2,0.2,0.1", "--permute", "2,0,1",
                   "--blur-sigma", "0.5,1.5", "--task", "coffee", "--seed", "5")
    assert code == 0
    rng = derive_stream(5, "obs_image", "cam.ppm")
    want = random_resized_crop(img, VisualAugConfig(crop_scale=(0.6, 0.9), output_hw=(48, 40)), rng)
    want = color_jitter(want, VisualAugConfig(brightness=0.2, contrast=0.2, saturation=0.2, hue=0.1), rng)
    want = channel_permute(want, (2, 0, 1))
    write_ppm(tmp_path / "want.ppm", gaussian_blur(want, float(rng.uniform(0.5, 1.5))))
    assert dst.read_bytes() == (tmp_path / "want.ppm").read_bytes()


def test_color_sensitive_refusal_and_force(tmp_path, capsys):
    task = resolve_task("stack")
    img = rasterize_state(reset(task, 2), task, size=32)
    src = tmp_path / "c.ppm"
    write_ppm(src, img)
    code = run_cli("augment-obs", "--image", str(src), "--image-out", str(tmp_path / "o.ppm"),
                   "--jitter", "0.2,0.2,0.2,0.5", "--task", "stack")
    assert code == 2  # stack is color-sensitive
    code = run_cli("augment-obs", "--image", str(src), "--image-out", str(tmp_path / "o.ppm"),
                   "--jitter", "0.2,0.2,0.2,0.5", "--task", "stack", "--force")
    assert code == 0
    # coffee is not color sensitive: no refusal
    code = run_cli("augment-obs", "--image", str(src), "--image-out", str(tmp_path / "o2.ppm"),
                   "--jitter", "0.1,0.1,0.1,0.1", "--task", "coffee")
    assert code == 0


@pytest.mark.parametrize("command", ["segment", "augment-causal"])
def test_neither_task_nor_spec_is_a_usage_error(tmp_path, labeled_dir, capsys, command):
    """--task is required, with or without --spec: a spec gives only the
    graphs, and each phase's target and grasp flag are the task kind's."""
    out = tmp_path / "out"
    assert run_cli(command, "--in", str(labeled_dir), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: demoaug {command}")
    assert f"demoaug {command}: error: the following arguments are required: --task" in err
    assert not out.exists()
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(spec_json(resolve_task("stack"))))
    assert run_cli(command, "--spec", str(spec), "--in", str(labeled_dir), "--out", str(out)) == 1
    assert "the following arguments are required: --task" in capsys.readouterr().err
    assert not out.exists()


def test_augment_obs_malformed_ppm_is_an_error(tmp_path, capsys):
    src = tmp_path / "bad.ppm"
    src.write_bytes(b"P6\nxx 2\n255\n")
    code = run_cli("augment-obs", "--image", str(src), "--image-out", str(tmp_path / "o.ppm"), "--blur-sigma", "1.0")
    err = capsys.readouterr().err
    assert code == 3
    assert err == f"error: {src}: malformed PPM header: width 'xx' is not an integer of at most 9 digits\n"
    assert not (tmp_path / "o.ppm").exists()


def test_run_pipeline_cli(tmp_path, capsys):
    cfg = {
        "task": "coffee",
        "seed": 6,
        "out": str(tmp_path / "run"),
        "stages": [
            {"name": "gen", "count": 2},
            {"name": "segment"},
            {"name": "causal", "copies": 1},
            {"name": "validate"},
        ],
    }
    cfg_path = tmp_path / "pipeline.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("run", "--config", str(cfg_path)) == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert [s["name"] for s in report["stages"]] == ["gen", "segment", "causal", "validate"]


def test_spec_file_flag_drives_segment_and_causal(tmp_path, labeled_dir, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_json(resolve_task("stack"))))
    demos = tmp_path / "demos"
    assert run_cli("gen-demos", "--task", "stack", "--count", "2", "--seed", "9",
                   "--out", str(demos)) == 0
    seg = tmp_path / "seg"
    assert run_cli("segment", "--task", "stack", "--spec", str(spec_path), "--in", str(demos), "--out", str(seg)) == 0
    out = tmp_path / "cf"
    assert run_cli("augment-causal", "--task", "stack", "--spec", str(spec_path), "--in", str(seg),
                   "--out", str(out), "--copies", "1", "--donor-policy", "aligned") == 0
    assert len(load_dataset(out)) == 4


def test_cli_subcommands_match_pipeline_stages(tmp_path, capsys):
    """Each stage subcommand writes the same bytes as its run_pipeline stage."""
    from demoaug.pipeline import PipelineConfig, StageConfig, run_pipeline
    from tests.test_pipeline import tree_digest

    stages = (
        ("gen", "gen-demos", {"count": 2}, ["--count", "2"]),
        ("segment", "segment", {"debounce": 3}, ["--debounce", "3"]),
        ("se3", "augment-se3", {"count": 2}, ["--count", "2"]),
        ("causal", "augment-causal",
         {"copies": 1, "gripper_jitter": 0.2, "donor_policy": "same_phase_aligned_timestep"},
         ["--copies", "1", "--gripper-jitter", "0.2", "--donor-policy", "aligned"]),
        ("obs", "augment-obs", {"noise_sigma": 0.005}, ["--noise-sigma", "0.005"]),
    )
    report = run_pipeline(PipelineConfig("stack", tuple(StageConfig(n, p) for n, _, p, _ in stages),
                                         str(tmp_path / "pipe"), master_seed=12))
    assert report["stages"][3]["gripper_jitter_range"] == 0.2
    prev = []
    for i, (name, command, _, flags) in enumerate(stages):
        out = tmp_path / "cli" / name
        seed = [] if command == "segment" else ["--seed", "12"]  # segment draws nothing and takes no --seed
        assert run_cli(command, "--task", "stack", *seed, *prev, "--out", str(out), *flags) == 0
        assert tree_digest(out) == tree_digest(tmp_path / "pipe" / f"stage_{i:02d}_{name}"), name
        prev = ["--in", str(out)]
    # noised copies of the 4 composites stay counterfactual; the other 4 copies are mixed
    provenance = [t.provenance.value for t in load_dataset(out).trajectories]
    assert provenance.count("counterfactual_synthetic") == 8 and provenance.count("mixed") == 4


@pytest.mark.parametrize(
    "config, message",
    [
        (None, "cannot read"),
        ("{", "cannot read"),
        ("[]", "JSON object"),
        ({"out": "o", "stages": []}, "KeyError: 'pipeline config.task'"),
        ({"task": "stack", "out": "o", "stages": [{"count": 2}]}, "'name'"),
        ({"task": "stack", "out": "o"}, "KeyError: 'pipeline config.stages'"),
        ({"task": "stack", "out": "o", "stages": [{"name": "gen"}, {"name": "segment", "close_treshold": 0.4}]},
         "'close_treshold'"),
        ({"task": "stack", "out": "o", "sed": 1, "stages": []}, "unknown key 'pipeline config.sed'"),
        ({"task": "stack", "out": "o", "seed": "x", "stages": []}, "pipeline config.seed must be an integer, got 'x'"),
        ({"task": "stack", "out": "o", "seed": 2.7, "stages": []}, "pipeline config.seed must be an integer, got 2.7"),
        ({"task": "stack", "out": "o", "seed": "7", "stages": []}, "pipeline config.seed must be an integer, got '7'"),
        ({"task": "stack", "out": "o", "seed": True, "stages": []}, "pipeline config.seed must be an integer, got True"),
        ({"task": "stack", "out": "o", "workers": 2.0, "stages": []}, "pipeline config.workers must be an integer, got 2.0"),
        ({"task": "stack", "out": "o", "stages": [{"name": "gen", "count": 1}, {"name": "segment"},
                                                   {"name": "se3", "pos_range": [0.1, 0.2]}]}, "pos_range"),
        ({"task": "stack", "out": "o", "stages": [{"name": "gen", "count": -1}]}, "gen count"),
        ({"task": "stack", "out": "o", "stages": [{"name": "gen", "count": "x"}]}, "gen count"),
        ({"task": "stack", "out": "o", "stages": [{"name": "gen", "count": 1}, {"name": "segment"},
                                                   {"name": "se3", "count": -1}]}, "se3 count"),
        ({"task": "stack", "out": "o", "stages": [{"name": "gen", "count": 1}, {"name": "segment"},
                                                   {"name": "se3", "count": 1, "budget": 0}]}, "se3 budget"),
        ({"task": "stack", "out": "o", "stages": [{"name": "gen", "count": 1}, {"name": "segment"},
                                                   {"name": "causal", "copies": -1}]}, "causal copies"),
        ({"task": "stack", "out": "o", "stages": [{"name": "gen", "count": 1}, {"name": "segment"},
                                                   {"name": "obs", "copies": -1}]}, "obs copies"),
        ({"task": "stack", "out": "o", "stages": [{"name": "gen", "count": 1},
                                                   {"name": "segment", "close_threshold": "x"}]}, "close_threshold"),
        ({"task": "stack", "out": "o", "stages": [{"name": "gen", "count": 1},
                                                   {"name": "segment", "debounce": 2.7}]}, "segment debounce"),
        ({"task": "stack", "out": "o", "stages": [{"name": "gen", "count": 1},
                                                   {"name": "validate", "no_replay": "false"}]}, "no_replay"),
        ({"task": "stack", "out": "o", "stages": [{"name": "gen", "count": 1},
                                                   {"name": "obs", "jitter": "false"}]}, "no parameter 'jitter'"),
        ({"task": "stack", "out": "o", "stages": [{"name": "gen", "count": 1},
                                                   {"name": "obs", "force": 1}]}, "no parameter 'force'"),
        ({"task": "stack", "out": "o", "stages": [{"name": "gen", "count": 1}, {"name": "segment"},
                                                   {"name": "obs", "jitter": True}]},
         "stage 'obs' has no parameter 'jitter' (it takes noise_sigma, copies)"),
        ({"task": "coffee", "out": "o", "stages": [{"name": "gen", "count": 1}, {"name": "segment"},
                                                    {"name": "obs", "jitter": True, "permute": True}]},
         "stage 'obs' has no parameter 'jitter', 'permute'"),
        ({"task": "stack", "out": "o", "input": "in", "stages": [{"name": "gen", "count": 1}]},
         "a pipeline with a gen stage takes no input"),
        ({"task": "stack", "out": "o", "stages": [{"name": "gen", "count": 1}, {"name": "segment"},
                                                   {"name": "causal", "donor_policy": 3}]}, "donor_policy"),
        ({"task": "stack", "out": "o", "stages": [{"name": "gen", "count": 1}, {"name": "segment"},
                                                   {"name": "se3", "pos_range": ["a", 0, 0, 0]}]}, "pos_range"),
        ({"task": "stack", "out": "o", "input": 5, "stages": [{"name": "segment"}]},
         "pipeline config.input must be a string, got 5"),
        ({"task": "stack", "out": "o", "input": [1], "stages": [{"name": "segment"}]},
         "pipeline config.input must be a string, got [1]"),
        ({"task": "stack", "out": "o", "input": True, "stages": [{"name": "segment"}]},
         "pipeline config.input must be a string, got True"),
        ({"task": "stack", "out": "o", "input": "", "stages": [{"name": "segment"}]},
         "input must be a non-empty string, got ''"),
        *(({"task": "stack", "out": "o", "stages": [{"name": "gen", "count": 2}, {"name": "segment"},
                                                    {"name": name}, {"name": name}]},
           f"repeat {name}: each stage may appear at most once") for name in ("se3", "causal", "obs")),
    ],
    ids=["missing_file", "bad_json", "json_list", "no_task", "stage_without_name", "no_stages", "misspelt_stage_key",
         "misspelt_top_level_key", "non_integer_seed", "float_seed", "string_seed", "bool_seed", "float_workers",
         "short_pos_range", "negative_gen_count",
         "non_integer_gen_count", "negative_se3_count", "zero_se3_budget", "negative_causal_copies",
         "negative_obs_copies", "string_close_threshold", "float_debounce", "string_no_replay",
         "string_obs_jitter", "integer_obs_force", "obs_jitter", "obs_jitter_and_permute_on_coffee", "input_with_gen",
         "integer_donor_policy", "string_in_pos_range", "integer_input", "list_input", "bool_input",
         "empty_input", "repeated_se3", "repeated_causal", "repeated_obs"],
)
def test_run_malformed_config_is_a_config_error(tmp_path, capsys, config, message):
    path = tmp_path / "pipeline.json"
    if config is not None:
        path.write_text(config if isinstance(config, str) else json.dumps(config))
    code = run_cli("run", "--config", str(path), "--out", str(tmp_path / "run"))
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and message in err and "Traceback" not in err
    assert not list((tmp_path / "run").glob("stage_*"))  # refused before any stage ran


def _task_with(name, edit):
    """The bundled task file's JSON text after `edit` changed its dict;
    json.dumps writes NaN and Infinity as bare constants."""
    task = bundled_task_json(name)
    edit(task)
    return json.dumps(task)


def _set(*keys_then_value):
    *keys, last, value = keys_then_value

    def edit(obj):
        for key in keys:
            obj = obj[key]
        obj[last] = value

    return edit


def _drop_last_phase(spec):
    """Drop a causal spec's last phase, with a segment_merge_map that fits."""
    spec["phases"].pop()
    spec["segment_merge_map"] = [min(m, len(spec["phases"]) - 1) for m in spec["segment_merge_map"]]
    return spec


def _each_phase(edit):
    """An edit of every phase of a causal spec."""
    def each(spec):
        for phase in spec["phases"]:
            edit(phase)
    return each


def _rename_node(old, new):
    """An edit of a phase that renames node `old` to `new` in its edges."""
    def rename(phase):
        phase["edges"] = [[new if n == old else n for n in e] for e in phase["edges"]]
    return rename


def _graph_layout(spec):
    """A stack causal spec in the layout whose phases each held a `graph`
    with its `nodes` and `edges`."""
    for phase in spec["phases"]:
        phase["graph"] = {"nodes": ["robot0", "cube_a", "cube_b", "cube_c"], "edges": phase.pop("edges")}


def _old_layout(spec):
    """A stack causal spec in the layout that kept one graph per agent."""
    _graph_layout(spec)
    for phase in spec["phases"]:
        phase["agents"] = {"robot0": phase.pop("graph")}


def _task_with_spec(name, edit):
    """The bundled task file's JSON text with a causal_spec section, the
    kind's spec in the --spec layout after `edit` changed it: the section
    task files held before the task kind owned the spec."""
    def add(task):
        spec = spec_json(resolve_task(name))
        edit(spec)
        task["causal_spec"] = spec
    return _task_with(name, add)


# what an edge naming an id the stack schema lacks is refused with
NOT_A_STACK_NODE = "not one of ['robot0', 'cube_a', 'cube_b', 'cube_c']"


@pytest.mark.parametrize(
    "content, message",
    [
        ("{}", "malformed task definition (KeyError: 'schema')"),
        (_task_with("stack", lambda task: task.pop("geoms")), "malformed task definition (KeyError: 'geoms')"),
        ('{"schema": ', "failed reading task file"),
        ("[]", "malformed task definition"),
        (_task_with("stack", _set("color_sensitive", "false")), "color_sensitive must be true or false"),
        (_task_with("stack", _set("geoms", "cube_b", "height", float("nan"))), "non-finite number NaN"),
        (_task_with("stack", _set("geoms", "cube_a", "height", float("inf"))), "non-finite number Infinity"),
        (_task_with("stack", _set("geoms", "cube_a", "height", "0.05")), "geoms.cube_a.height must be a finite number"),
        (_task_with("stack", _set("samplers", "cube_a", "x_range", ["a", "b"])),
         "samplers.cube_a.x_range must be a list of 2 finite numbers"),
        (_task_with("stack", _set("colour_sensitive", True)), "unknown key 'colour_sensitive'"),
        # the schema alone holds the task id
        (_task_with("stack", _set("task_id", "foo")), "unknown key 'task_id'"),
        # the causal spec is the task kind's: a --spec file is its one override
        (_task_with("stack", _set("causal_spec", spec_json(resolve_task("stack")))), "unknown key 'causal_spec'"),
        # whatever such a section holds, the section itself is what is refused
        (_task_with_spec("stack", _set("phases", 0, "grasp_closes", "no")), "unknown key 'causal_spec'"),
        (_task_with_spec("stack", _each_phase(lambda phase: phase["edges"].append(["robot0", "ghost"]))),
         "unknown key 'causal_spec'"),
        (_task_with_spec("stack", _each_phase(_rename_node("robot0", "robotX"))), "unknown key 'causal_spec'"),
        (_task_with_spec("stack", _graph_layout), "unknown key 'causal_spec'"),
        (_task_with_spec("stack", _old_layout), "unknown key 'causal_spec'"),
        (_task_with_spec("stack", _set("phases", 1, "target_entity", "cube_c")), "unknown key 'causal_spec'"),
        (_task_with_spec("stack", _each_phase(lambda phase: phase.update(grasp_closes=len(phase["edges"]) > 2))),
         "unknown key 'causal_spec'"),
        (_task_with_spec("coffee", _set("phases", 0, "phase_index", 0)), "unknown key 'causal_spec'"),
        (_task_with_spec("stack", _drop_last_phase), "unknown key 'causal_spec'"),
        (_task_with_spec("coffee", _drop_last_phase), "unknown key 'causal_spec'"),
        # the simulator and expert settings are sim's constants, not task file keys
        (_task_with("stack", _set("sim", {"max_pos_step": "x"})), "unknown key 'sim'"),
        (_task_with("stack", _set("sim", {"max_rot_step": -1})), "unknown key 'sim'"),
        (_task_with("stack", _set("expert", {"transit_z": 0.2})), "unknown key 'expert'"),
        (_task_with("stack", _set("xy_tol", 0.015)), "unknown key 'xy_tol'"),
        (_task_with("coffee", _set("lid_initial_angle", 1.0)), "unknown key 'lid_initial_angle'"),
        (_task_with("stack", _set("geoms", "cube_a", "graspable", "no")), "geoms.cube_a.graspable must be true or false"),
        (_task_with("stack", _set("home_pose", "frame", "world")), "home_pose: unknown key 'frame' in a pose"),
        # sections that disagree with each other
        (_task_with("stack", _set("stack_order", ["cube_b", "cube_a"])), "must be 3 distinct schema entities"),
        (_task_with("stack", _set("schema", "agents", [])), "a schema declares exactly one agent, got agents []"),
        (_task_with("stack", _set("schema", "agents", ["robot0", "robot1"])),
         "a schema declares exactly one agent, got agents ['robot0', 'robot1']"),
        (_task_with("stack", _set("schema", "agents", ["cube_a"])),
         "the schema's agent 'cube_a' is also one of its entity ids"),
        (_task_with("coffee", lambda task: task["samplers"].pop("pod")),
         "samplers are keyed by ['machine'], not by the schema's entities ['machine', 'pod']"),
        (_task_with("stack", lambda task: task["schema"]["entities"].pop(0)),
         "samplers are keyed by ['cube_a', 'cube_b', 'cube_c'], not by the schema's entities ['cube_b', 'cube_c']"),
        # what the task kind's expert needs of the task
        (_task_with("coffee", _set("schema", "entities", 0, "kind", "block")),
         "a pod_lid task needs exactly one pod and one receptacle entity, got pods [] and receptacles ['machine']"),
        (_task_with("coffee", _set("schema", "entities", 1, "extra_fields", [])),
         "receptacle 'machine' needs a lid_angle extra field"),
        (_task_with("coffee", _set("geoms", "machine", {"type": "object", "height": 0.08})),
         "receptacle 'machine' needs a receptacle geom"),
        (_task_with("coffee", _set("geoms", "pod", "graspable", False)), "pod 'pod' needs a graspable object geom"),
        (_task_with("stack", _set("schema", "entities", 0, "extra_fields", ["lid_angle"])),
         "entity 'cube_a' has a lid_angle extra field but no receptacle geom"),
        (_task_with("coffee", _set("schema", "entities", 1, "extra_fields", ["lid_angle", "hinge"])),
         "entity 'machine' declares extra field 'hinge'; the simulator sources only lid_angle"),
        (_task_with("stack", _set("kind", "juggling")), "unknown task kind 'juggling' (known kinds: stack3, pod_lid)"),
        (_task_with("coffee", _set("stack_order", ["pod", "machine"])),
         "a pod_lid task takes no stack_order, got ['pod', 'machine']"),
        # where the task starts and samples must lie in its workspace
        (_task_with("stack", _set("home_pose", "position", [0.22, 0.22, 1e308])),
         "home_pose [0.22, 0.22, 1e+308] outside workspace"),
        (_task_with("stack", _set("home_pose", "position", [0.22, 0.22, 280000.0])),
         "home_pose [0.22, 0.22, 280000.0] outside workspace"),
        (_task_with("stack", _set("samplers", "cube_b", "x_range", [0.3, 0.5])),
         "sampler box for 'cube_b' exceeds the task workspace"),
    ],
    ids=["empty_object", "no_geoms", "not_json", "json_list", "string_bool", "nan",
         "infinity", "string_number", "string_sampler_range", "unknown_top_level_key",
         "top_level_task_id", "causal_spec_section", "string_grasp_closes", "ghost_node_in_every_phase",
         "graphs_of_another_agent", "graph_and_nodes_spec_layout", "old_per_agent_spec_layout",
         "phase_1_target_cube_c", "flipped_grasp_closes", "phase_index_key", "stack_phase_too_few",
         "coffee_phase_too_few", "string_sim_param", "negative_sim_step", "expert_section",
         "xy_tol_key", "lid_initial_angle_key",
         "string_graspable", "home_pose_unknown_key", "short_stack_order", "no_agents",
         "two_agents", "agent_is_an_entity",
         "no_pod_sampler",
         "deleted_schema_entity", "pod_of_kind_block", "machine_without_lid_angle", "machine_object_geom",
         "pod_not_graspable", "lid_angle_on_object_geom", "unsourced_extra_field",
         "unknown_kind", "pod_lid_with_stack_order", "home_pose_at_1e308", "home_pose_at_280000",
         "sampler_box_outside_workspace"],
)
def test_malformed_task_file_is_an_error(tmp_path, capsys, content, message):
    path = tmp_path / "bad.json"
    path.write_text(content)
    out = tmp_path / "demos"
    assert run_cli("gen-demos", "--task", str(path), "--count", "1", "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "Traceback" not in err
    assert err.count("\n") == 1 and str(path) in err
    assert not out.exists()


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "failed reading causal spec file"),
        ("{", "failed reading causal spec file"),
        (_set("phases", 0, "phase_index", "x"), "unknown key 'phases[0].phase_index' (known: edges)"),
        (_set("phases", 0, "grasp_closes", "no"), "unknown key 'phases[0].grasp_closes' (known: edges)"),
        (_old_layout, "unknown key 'phases[0].agents'"),
        (_graph_layout, "unknown key 'phases[0].graph' (known: edges)"),
        (_set("task_id", "bar"), "unknown key 'task_id'"),
        (_set("phases", 2, "target_entity", "cube_c"), "unknown key 'phases[2].target_entity' (known: edges)"),
    ],
    ids=["missing_file", "bad_json", "string_phase_index", "string_grasp_closes", "old_per_agent_layout",
         "graph_and_nodes_layout", "task_id", "target_entity_key"],
)
def test_malformed_spec_file_is_an_error(tmp_path, labeled_dir, capsys, content, message):
    path = tmp_path / "spec.json"
    if callable(content):
        spec = spec_json(resolve_task("stack"))
        content(spec)
        content = json.dumps(spec)
    if content is not None:
        path.write_text(content)
    out = tmp_path / "seg"
    assert run_cli("segment", "--task", "stack", "--spec", str(path), "--in", str(labeled_dir), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "Traceback" not in err
    assert err.count("\n") == 1 and str(path) in err
    assert not out.exists()


def test_a_spec_file_is_read_before_the_dataset(tmp_path, capsys):
    """A malformed --spec is refused by its name even when --in names no
    dataset: the spec is read first, so a bad one never waits on a load."""
    path = tmp_path / "bad.json"
    path.write_text("{")
    out = tmp_path / "seg"
    assert run_cli("segment", "--task", "stack", "--spec", str(path), "--in", str(tmp_path / "missing"),
                   "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    assert "failed reading causal spec file" in err and str(path) in err
    assert not out.exists()


def test_spec_file_that_disagrees_with_the_task_is_an_error(tmp_path, labeled_dir, capsys):
    """--spec replaces the task's spec and is read over the task's schema:
    an edge naming an id the schema lacks is refused before any stage runs."""
    spec = spec_json(resolve_task("stack"))
    _each_phase(lambda phase: phase["edges"].append(["robot0", "ghost"]))(spec)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "cf"
    assert run_cli("augment-causal", "--task", "stack", "--spec", str(path), "--in", str(labeled_dir),
                   "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and str(path) in err
    assert f"phases[0].edges: edge ['robot0', 'ghost'] names 'ghost', {NOT_A_STACK_NODE}" in err
    assert not out.exists()


def _add_agent(spec):
    """Give every phase of a stack causal spec an edge from a second agent,
    robot1, to the phase's target, which the task kind names."""
    for phase, kind_phase in zip(spec["phases"], resolve_task("stack").causal.phases):
        phase["edges"].append(["robot1", kind_phase.target_entity])


@pytest.mark.parametrize("command", ["segment", "augment-causal"])
@pytest.mark.parametrize(
    "edit, message",
    [
        (_add_agent, f"phases[0].edges: edge ['robot1', 'cube_a'] names 'robot1', {NOT_A_STACK_NODE}"),
        (_each_phase(_rename_node("robot0", "robotX")),
         f"phases[0].edges: edge ['robotX', 'cube_a'] names 'robotX', {NOT_A_STACK_NODE}"),
    ],
    ids=["second_agent", "unknown_agent"],
)
def test_spec_file_that_does_not_fit_the_dataset_is_an_error(tmp_path, labeled_dir, capsys, command, edit, message):
    """A --spec is read over the schema of the --task, which the dataset it
    runs on has too, and refused before the stage writes anything."""
    spec = spec_json(resolve_task("stack"))
    edit(spec)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert run_cli(command, "--task", "stack", "--spec", str(path), "--in", str(labeled_dir), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and message in err and str(path) in err
    assert not out.exists()


@pytest.mark.parametrize(
    "task, spec, message",
    [
        (json.dumps(bundled_task_json("stack")).replace('"cube_a"', '"cube_d"'), spec_json(resolve_task("stack")),
         "phases[0].edges: edge ['robot0', 'cube_a'] names 'cube_a', not one of ['robot0', 'cube_d', 'cube_b', 'cube_c']"),
        (json.dumps(bundled_task_json("coffee")), _drop_last_phase(spec_json(resolve_task("coffee"))),
         "a pod_lid task has 2 phases, but its causal spec declares 1"),
    ],
    ids=["deleted_schema_entity", "coffee_phase_too_few"],
)
def test_spec_file_that_does_not_fit_the_task_is_an_error(tmp_path, capsys, task, spec, message):
    """A --spec is read over the --task's schema and then put into the task:
    a spec naming an entity the schema does not have (here a stack task whose
    cube_d took cube_a's place), or with another phase count than the kind's,
    is refused before the stage writes anything."""
    task_path, spec_path = tmp_path / "task.json", tmp_path / "spec.json"
    task_path.write_text(task)
    spec_path.write_text(json.dumps(spec))
    demos, out = tmp_path / "demos", tmp_path / "seg"
    assert run_cli("gen-demos", "--task", str(task_path), "--count", "1", "--out", str(demos)) == 0
    capsys.readouterr()
    assert run_cli("segment", "--task", str(task_path), "--spec", str(spec_path), "--in", str(demos),
                   "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and message in err and str(spec_path) in err
    assert not out.exists()


@pytest.fixture(scope="module")
def label_past_spec_dir(labeled_dir, tmp_path_factory):
    """The labelled stack dataset with the last five lines of one file
    relabelled as phase 4, which the stack spec (phases 0-3) does not have."""
    root = tmp_path_factory.mktemp("label_past_spec") / "ds"
    shutil.copytree(labeled_dir, root)
    path = root / "traj_demo_0000.jsonl"
    lines = path.read_text().splitlines()
    lines[-5:] = [re.sub(r'"phase":\d+', '"phase":4', line) for line in lines[-5:]]
    path.write_text("\n".join(lines) + "\n")
    return root


@pytest.mark.parametrize("argv", [
    ("augment-se3", "--task", "stack"),
    ("augment-causal", "--task", "stack"),
    ("ratio-study", "--task", "stack"),
], ids=lambda argv: argv[0])
def test_a_phase_label_past_the_spec_is_an_error(tmp_path, label_past_spec_dir, capsys, argv):
    """A stage that reads phase labels refuses one the causal spec has no
    phase for, naming the trajectory and the label, before writing anything."""
    out = tmp_path / "out"
    assert run_cli(*argv, "--in", str(label_past_spec_dir), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "trajectory 'demo_0000'" in err and "phase label 4 is past the causal spec's 4 phases" in err
    assert not out.exists()


def test_segment_relabels_a_dataset_labelled_past_the_spec(tmp_path, label_past_spec_dir, capsys):
    out = tmp_path / "relabelled"
    assert run_cli("segment", "--task", "stack", "--in", str(label_past_spec_dir), "--out", str(out)) == 0
    assert {ts.phase for tr in load_dataset(out).trajectories for ts in tr.timesteps} == {0, 1, 2, 3}


def test_validate_lists_a_phase_label_past_the_spec(label_past_spec_dir, capsys):
    assert run_cli("validate", "--task", "stack", "--in", str(label_past_spec_dir)) == 2
    report = json.loads(capsys.readouterr().out)
    assert not report["ok"]
    assert [f for f in report["failures"] if "phase label 4" in f and "'demo_0000'" in f]


def _three_phase_spec(path: Path) -> Path:
    """The stack spec without its last phase: segment merges the raw
    segments of phase 3 into phase 2."""
    path.write_text(json.dumps(_drop_last_phase(spec_json(resolve_task("stack")))))
    return path


def test_a_spec_with_fewer_phases_than_the_labels_is_an_error(tmp_path, labeled_dir, capsys):
    """A --spec with fewer phases than the task's kind is refused when it
    replaces the task's spec, before the stage reads a label or writes."""
    spec = _three_phase_spec(tmp_path / "spec.json")
    out = tmp_path / "out"
    for command in ("segment", "augment-causal"):
        assert run_cli(command, "--task", "stack", "--spec", str(spec), "--in", str(labeled_dir),
                       "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "a stack3 task has 4 phases, but its causal spec declares 3" in err
        assert str(spec) in err
        assert not out.exists()


@pytest.mark.parametrize("layout", ["saved", "respaced"])
@pytest.mark.parametrize("section, what", [("robots", "a robot"), ("actions", "an action")], ids=["robot", "action"])
def test_a_line_agent_id_that_is_not_the_schemas_is_an_error(tmp_path, labeled_dir, capsys, layout, section, what):
    """A line's agent ids are checked against the schema's agent when it is
    read: by the section reader in the saved layout, and by the whole-line
    reader in any other, each naming the timestep line."""
    root = tmp_path / "ds"
    shutil.copytree(labeled_dir, root)
    path = root / "traj_demo_0000.jsonl"
    lines = path.read_text().splitlines()
    obj = json.loads(lines[2])
    obj[section][0]["agent_id"] = "robot1"
    lines[2] = json.dumps(obj, separators=(",", ":")) if layout == "saved" else json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")
    assert run_cli("stats", "--in", str(root)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert (f"trajectory 'demo_0000', timestep line 2: {what}'s agent_id 'robot1' "
            f"is not the schema's agent 'robot0'") in err


def test_manifest_with_two_agents_is_an_error(tmp_path, labeled_dir, capsys):
    root = tmp_path / "two_agents"
    shutil.copytree(labeled_dir, root)
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["task_schema"]["agents"].append("robot1")
    (root / "manifest.json").write_text(json.dumps(manifest))
    assert run_cli("stats", "--in", str(root)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "a schema declares exactly one agent, got agents ['robot0', 'robot1']" in err


def test_manifest_whose_agent_is_an_entity_is_an_error(tmp_path, labeled_dir, capsys):
    """A schema whose agent id is also an entity id is refused at load, even
    when every line names that agent."""
    root = tmp_path / "agent_cube_a"
    shutil.copytree(labeled_dir, root)
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["task_schema"]["agents"] = ["cube_a"]
    (root / "manifest.json").write_text(json.dumps(manifest))
    for path in root.glob("traj_*.jsonl"):
        path.write_text(path.read_text().replace('"agent_id":"robot0"', '"agent_id":"cube_a"'))
    assert run_cli("stats", "--in", str(root)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "the schema's agent 'cube_a' is also one of its entity ids" in err


@pytest.mark.parametrize(
    "key",
    ["schema_version", "task_schema", "trajectories",
     *(f"trajectories.0.{k}" for k in ("traj_id", "file", "num_timesteps", "success", "provenance", "task_id"))],
)
def test_boundary_dataset_manifest_without_a_key(tmp_path, labeled_dir, capsys, key):
    """Every key a save writes to the manifest is required, but an entry's
    task_id: a manifest without one is refused by every command that loads
    it (exit 3, one error line) and listed by validate (exit 2)."""
    root = tmp_path / "ds"
    shutil.copytree(labeled_dir, root)
    manifest = json.loads((root / "manifest.json").read_text())
    *path, last = key.split(".")
    obj = manifest
    for step in path:
        obj = obj[int(step)] if step.isdigit() else obj[step]
    del obj[last]
    (root / "manifest.json").write_text(json.dumps(manifest))
    if key == "trajectories.0.task_id":
        assert run_cli("stats", "--in", str(root)) == 0
        assert json.loads(capsys.readouterr().out)["trajectories"] == 3
        assert run_cli("validate", "--task", "stack", "--in", str(root)) == 0
        return
    assert run_cli("stats", "--in", str(root)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"KeyError: 'manifest.{key}'" in err
    assert run_cli("validate", "--task", "stack", "--in", str(root)) == 2
    assert json.loads(capsys.readouterr().out)["failures"] == [f"load: KeyError: 'manifest.{key}'"]


@pytest.mark.parametrize("where", ["config", "flag"])
def test_run_refuses_an_empty_out(tmp_path, monkeypatch, capsys, where):
    """An empty output root is refused before any stage runs, as an empty
    input is, so nothing is written into the working directory."""
    monkeypatch.chdir(tmp_path)
    config = {"task": "stack", "out": "" if where == "config" else "o", "stages": [{"name": "gen", "count": 1}]}
    (tmp_path / "pipeline.json").write_text(json.dumps(config))
    code = run_cli("run", "--config", "pipeline.json", *(("--out", "") if where == "flag" else ()))
    err = capsys.readouterr().err
    assert code == 3
    assert err == "error: pipeline config: out must be a non-empty string, got ''\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pipeline.json"]


@pytest.mark.parametrize("layout", ["saved", "respaced"])
@pytest.mark.parametrize("value", [1e308, -5.0])
@pytest.mark.parametrize("section, key", [("robots", "gripper_aperture"), ("actions", "gripper_command")],
                         ids=["aperture", "command"])
def test_a_gripper_value_outside_the_unit_interval_is_an_error(tmp_path, labeled_dir, capsys, section, key, value,
                                                                layout):
    """The loader refuses a gripper value the constructors would clamp into
    [0, 1], naming the timestep line, in either reader; validate lists it."""
    root = tmp_path / "ds"
    shutil.copytree(labeled_dir, root)
    path = root / "traj_demo_0000.jsonl"
    lines = path.read_text().splitlines()
    obj = json.loads(lines[3])
    obj[section][0][key] = value
    lines[3] = json.dumps(obj, separators=(",", ":")) if layout == "saved" else json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")
    assert run_cli("stats", "--in", str(root)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"trajectory 'demo_0000', timestep line 3: {key} {value!r} is outside [0, 1]" in err
    assert run_cli("validate", "--task", "stack", "--in", str(root)) == 2
    assert "is outside [0, 1]" in json.loads(capsys.readouterr().out)["failures"][0]


def _demoaug(*argv) -> list[str]:
    return [sys.executable, "-m", "demoaug", *argv]


def _subprocess_env() -> dict:
    """The environment of a demoaug subprocess that imports this checkout's package."""
    src = str(Path(demoaug.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def test_a_report_printed_to_a_closed_stdout_exits_141(labeled_dir):
    """`demoaug validate ... | head -1`: when the reader has closed the pipe
    before the report is printed, demoaug exits 141 (128 + SIGPIPE) with no
    traceback; when head read the whole report first, it exits 0."""
    read, write = os.pipe()
    os.close(read)  # the reader is gone before demoaug prints
    try:
        proc = subprocess.run(_demoaug("validate", "--task", "stack", "--in", str(labeled_dir)), stdout=write,
                              stderr=subprocess.PIPE, text=True, env=_subprocess_env(), timeout=300)
    finally:
        os.close(write)
    assert proc.returncode == 141 and proc.stderr == ""
    with subprocess.Popen(_demoaug("validate", "--task", "stack", "--in", str(labeled_dir)), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=_subprocess_env()) as validate:
        head = subprocess.run(["head", "-1"], stdin=validate.stdout, capture_output=True, text=True, timeout=300)
        validate.stdout.close()
        stderr = validate.stderr.read()
    assert head.stdout == "{\n"
    assert validate.returncode in (0, 141) and "Traceback" not in stderr


@pytest.mark.parametrize("command", ["segment", "validate", "replay"])
def test_seed_flag_of_a_stage_that_draws_nothing_is_a_usage_error(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    argv = ["--task", "stack", "--in", "i"] + (["--out", "o"] if command == "segment" else [])
    assert run_cli(command, *argv, "--seed", "1") == 1
    assert "demoaug: error: unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# each subcommand that once took --workers, with the flags it needs otherwise
_WITHOUT_WORKERS = {
    "gen-demos": ["--task", "stack", "--out", "o"],
    "segment": ["--task", "stack", "--in", "i", "--out", "o"],
    "augment-se3": ["--task", "stack", "--in", "i", "--out", "o"],
    "augment-causal": ["--task", "stack", "--in", "i", "--out", "o"],
    "augment-obs": ["--in", "i", "--out", "o"],
    "validate": ["--task", "stack", "--in", "i"],
    "replay": ["--task", "stack", "--in", "i"],
    "ratio-study": ["--task", "stack", "--in", "i", "--out", "o"],
    "run": ["--config", "c.json"],
}


@pytest.mark.parametrize("command", list(_WITHOUT_WORKERS))
def test_workers_flag_is_a_usage_error(tmp_path, monkeypatch, capsys, command):
    """No subcommand takes --workers: every stage runs serially."""
    monkeypatch.chdir(tmp_path)
    assert run_cli(command, *_WITHOUT_WORKERS[command], "--workers", "1") == 1
    assert "demoaug: error: unrecognized arguments: --workers 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--in", "{in}", "--out", "{out}", "--jitter", "0.2,0.2,0.2,0.1", "--task", "coffee"],
         "--jitter given without --image"),
        (["--in", "{in}", "--out", "{out}", "--crop-scale", "0.8,1.0"], "--crop-scale given without --image"),
        (["--in", "{in}", "--out", "{out}", "--image-out", "{out}.ppm"], "--image-out given without --image"),
        (["--in", "{in}", "--out", "{out}", "--permute", "2,0,1", "--blur-sigma", "1.0"],
         "--permute, --blur-sigma given without --image"),
        (["--in", "{in}", "--out", "{out}", "--force"], "--force given without --image"),
        (["--in", "{in}", "--out", "{out}", "--out-size", "64,64"], "--out-size given without --image"),
        (["--image", "{img}", "--image-out", "{out}.ppm", "--out-size", "64,64"],
         "--out-size is the size of the crop and needs --crop-scale"),
        (["--image", "{img}", "--image-out", "{out}.ppm", "--noise-sigma", "0.5", "--copies", "2"],
         "--noise-sigma, --copies given without --in"),
        (["--image", "{img}", "--image-out", "{out}.ppm", "--out", "{out}"], "--out given without --in"),
        (["--image", "{img}", "--image-out", "{out}.ppm", "--in", "{in}"], "--in needs --out"),
        (["--task", "coffee"], "augment-obs needs --image or --in"),
        (["--image", "{img}", "--image-out", "{out}.ppm", "--blur-sigma", "1.0", "--task", "coffee", "--force"],
         "--force overrides a task's color-op refusal and acts only with --task and --jitter or --permute"),
        (["--image", "{img}", "--image-out", "{out}.ppm", "--permute", "2,0,1", "--force"],
         "--force overrides a task's color-op refusal and acts only with --task and --jitter or --permute"),
    ],
    ids=["jitter_without_image", "crop_scale_without_image", "image_out_without_image",
         "permute_and_blur_without_image", "force_without_image", "out_size_without_image",
         "out_size_without_crop_scale", "noise_without_in", "out_without_in", "in_without_out",
         "neither_image_nor_in", "force_without_color_op", "force_without_task"],
)
def test_augment_obs_refuses_a_flag_it_would_ignore(tmp_path, labeled_dir, capsys, argv, message):
    img = tmp_path / "a.ppm"
    write_ppm(img, np.zeros((8, 8, 3), dtype=np.uint8))
    out = tmp_path / "out"
    argv = [a.format(img=img, out=out, **{"in": labeled_dir}) for a in argv]
    assert run_cli("augment-obs", *argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and message in err
    assert not out.exists() and not (tmp_path / "out.ppm").exists()


def test_gen_demos_negative_count_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "demos"
    assert run_cli("gen-demos", "--task", "stack", "--count", "-1", "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "gen count" in err
    assert not out.exists()


def _report_in_a_missing_directory(tmp_path, labeled_dir):
    return ["stats", "--in", str(labeled_dir), "--report", str(tmp_path / "nodir" / "r.json")]


def _report_onto_a_directory(tmp_path, labeled_dir):
    return ["stats", "--in", str(labeled_dir), "--report", str(tmp_path)]


def _run_config(tmp_path, out):
    config = tmp_path / "pipeline.json"
    config.write_text(json.dumps({"task": "stack", "out": str(out), "stages": [{"name": "gen", "count": 1}]}))
    return ["run", "--config", str(config)]


def _run_out_names_a_file(tmp_path, labeled_dir):
    (tmp_path / "run").write_text("")
    return _run_config(tmp_path, tmp_path / "run")


def _run_report_json_is_a_directory(tmp_path, labeled_dir):
    (tmp_path / "run" / "report.json").mkdir(parents=True)
    return _run_config(tmp_path, tmp_path / "run")


def _ratio_table_json_is_a_directory(tmp_path, labeled_dir):
    (tmp_path / "ratio" / "ratio_table.json").mkdir(parents=True)
    return ["ratio-study", "--task", "stack", "--in", str(labeled_dir), "--out", str(tmp_path / "ratio"),
            "--ratios", "0"]


@pytest.mark.parametrize(
    "setup, message",
    [
        (_report_in_a_missing_directory, "failed writing report"),
        (_report_onto_a_directory, "failed writing report"),
        (_run_out_names_a_file, "failed creating output root"),
        (_run_report_json_is_a_directory, "failed writing report"),
        (_ratio_table_json_is_a_directory, "failed writing ratio table"),
    ],
    ids=["report_in_a_missing_directory", "report_onto_a_directory", "run_out_names_a_file",
         "run_report_json_is_a_directory", "ratio_table_json_is_a_directory"],
)
def test_output_file_that_cannot_be_written_is_an_io_failure(tmp_path, labeled_dir, capsys, setup, message):
    argv = setup(tmp_path, labeled_dir)
    assert run_cli(*argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1 and "Traceback" not in err


def test_run_out_flag_supplies_a_missing_out(tmp_path, capsys):
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps({"task": "stack", "stages": [{"name": "gen", "count": 1}]}))
    assert run_cli("run", "--config", str(path), "--out", str(tmp_path / "run")) == 0
    assert (tmp_path / "run" / "report.json").is_file()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["ratio-study", "--task", "stack", "--ratios", "1,x"], 1),
        (["augment-se3", "--task", "stack", "--pos-range", "1,2"], 3),
        (["augment-se3", "--task", "stack", "--yaw-range", "1"], 3),
        (["augment-se3", "--task", "stack", "--yaw-range", "a,b"], 1),
        (["augment-obs", "--image", "{img}", "--image-out", "{out}.ppm", "--crop-scale", "0.8"], 3),
        (["augment-obs", "--image", "{img}", "--image-out", "{out}.ppm", "--jitter", "0.1,0.1"], 3),
        (["augment-obs", "--image", "{img}", "--image-out", "{out}.ppm", "--blur-sigma", "1,2,3"], 3),
    ],
    ids=["ratios_not_a_number", "pos_range_length", "yaw_range_length", "yaw_range_not_a_number",
         "crop_scale_length", "jitter_length", "blur_range_length"],
)
def test_malformed_list_flag_is_an_error(tmp_path, labeled_dir, capsys, argv, code):
    img = tmp_path / "a.ppm"
    write_ppm(img, np.zeros((8, 8, 3), dtype=np.uint8))
    out = tmp_path / "out"
    argv = [a.format(img=img, out=out) for a in argv]
    if argv[0] != "augment-obs":
        argv += ["--in", str(labeled_dir), "--out", str(out)]
    assert run_cli(*argv) == code
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not out.exists() and not (tmp_path / "out.ppm").exists()
