"""Pipeline orchestration: demo generation, segmentation, the three
augmentation families, validation, statistics, and the ratio-scaling
harness. All stage outputs are deterministic under a fixed master seed:
every random draw flows through RNG streams derived from stable labels."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .causal import check_phase_labels
from .counterfactual import DONOR_POLICIES, CounterfactualConfig, augment_offline
from .data import Dataset, Param, Provenance, Trajectory, load_dataset, save_dataset, validate_dataset, write_json
from .errors import ConfigError, DemoaugError, InvariantViolation, IoFailure, StageFailure
from .imageaug import proprio_noise
from .retarget import GenerationReport, InterpolationConfig, generate_demos
from .rng import derive_stream
from .segmentation import SegmentationConfig, assign_phases
from .sim import PoseSampler, TaskDefinition, replay, rollout_expert
from .tasks import resolve_task

REPLAYABLE = (Provenance.HUMAN_SOURCE, Provenance.SE3_SYNTHETIC)


@dataclass(frozen=True)
class StageConfig:
    """A stage and the parameters given for it, each checked against STAGES."""

    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in STAGES:
            raise InvariantViolation(f"unknown stage {self.name!r}")
        table = STAGES[self.name][1]
        unknown = sorted(set(self.params) - set(table))
        if unknown:
            raise ConfigError(
                f"stage {self.name!r} has no parameter {', '.join(map(repr, unknown))} "
                f"(it takes {', '.join(table)})"
            )
        object.__setattr__(self, "params", {key: table[key].parse(f"{self.name} {key}", value, ConfigError)
                                            for key, value in self.params.items()})


@dataclass(frozen=True)
class PipelineConfig:
    """A pipeline run. `workers` (the config key of the same name) is
    accepted for compatibility and unused: every stage runs serially."""

    task: str
    stages: tuple[StageConfig, ...]
    output_root: str
    master_seed: int = 0
    workers: int = 1
    input_path: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        if self.input_path is not None and not (isinstance(self.input_path, str) and self.input_path):
            raise ConfigError(f"pipeline config: input must be a non-empty string, got {self.input_path!r}")
        if not (isinstance(self.output_root, str) and self.output_root):
            raise ConfigError(f"pipeline config: out must be a non-empty string, got {self.output_root!r}")
        _check_stage_order([s.name for s in self.stages], self.input_path is not None)


def _check_stage_order(names: list[str], has_input: bool):
    order = {"gen": 0, "segment": 1, "se3": 2, "causal": 2, "obs": 2, "validate": 3}
    ranks = [order[n] for n in names]
    if ranks != sorted(ranks):
        raise InvariantViolation(f"stages {names} out of order (gen -> segment -> augs -> validate)")
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise InvariantViolation(f"stages {names} repeat {', '.join(repeated)}: each stage may appear at most once")
    if "gen" not in names and names and not has_input:
        raise InvariantViolation("pipeline without a gen stage needs input_path")
    if "gen" in names and has_input:
        raise ConfigError("a pipeline with a gen stage takes no input: gen does not read a dataset")


_CONFIG_KEYS = ("task", "out", "stages", "seed", "workers", "input")


def pipeline_config_from_dict(obj: dict) -> PipelineConfig:
    """Parse a pipeline config; anything malformed raises ConfigError."""
    if not isinstance(obj, dict):
        raise ConfigError(f"a pipeline config is a JSON object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"pipeline config has unknown keys {unknown} (it takes {', '.join(_CONFIG_KEYS)})")
    missing = [key for key in ("task", "out") if not isinstance(obj.get(key), str)]
    if missing:
        raise ConfigError(f"pipeline config lacks {', '.join(missing)} (a string)")
    entries = obj.get("stages", [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) and isinstance(e.get("name"), str)
                                                for e in entries):
        raise ConfigError("pipeline config: 'stages' must be a list of objects, each with a 'name'")
    stages = [StageConfig(e["name"], {k: v for k, v in e.items() if k != "name"}) for e in entries]
    seed, workers = obj.get("seed", 0), obj.get("workers", 1)
    for key, value in (("seed", seed), ("workers", workers)):
        if type(value) is not int:
            raise ConfigError(f"pipeline config: seed and workers must be integers, got {key} {value!r}")
    return PipelineConfig(obj["task"], tuple(stages), obj["out"], seed, workers, obj.get("input"))


# ---------------------------------------------------------------------------
# stages
#
# Every stage has the signature (ds, task, params, seed) -> (Dataset, info)
# and reads its parameters from `params`: the values StageConfig checked,
# over the defaults in STAGES. A stage that reads a causal spec reads the
# task's (`task.causal`), whose phases its kind filled in; a CLI --spec
# replaces the task's graphs and merge map. Only obs runs without a task.


def _stage_gen(ds, task: TaskDefinition, p: dict, seed: int) -> tuple[Dataset, dict]:
    trajs = tuple(replace(rollout_expert(task, derive_stream(seed, "gen", i)), traj_id=f"demo_{i:04d}")
                  for i in range(p["count"]))
    ds = Dataset(task.schema, trajs)
    return ds, {"generated": p["count"], "all_success": all(t.success for t in trajs)}


def _stage_segment(ds: Dataset, task: TaskDefinition, p: dict, seed: int) -> tuple[Dataset, dict]:
    cfg = SegmentationConfig(
        close_threshold=p["close_threshold"],
        debounce_steps=p["debounce"],
        min_phase_len=p["min_phase_len"],
    )
    labeled = tuple(assign_phases(tr, task.causal, cfg) for tr in ds.trajectories)
    out = Dataset(ds.task_schema, labeled)
    return out, {"segmented": len(labeled), "phases": task.causal.num_phases}


def _stage_se3(ds: Dataset, task: TaskDefinition, p: dict, seed: int) -> tuple[Dataset, dict]:
    count = len(ds) if p["count"] is None else p["count"]
    icfg = InterpolationConfig(max_pos_step=p["max_pos_step"], max_rot_step=p["max_rot_step"])
    sampler = None  # the task's own samplers
    if p["pos_range"] is not None or p["yaw_range"] is not None:
        x0, x1, y0, y1 = p["pos_range"] or (-0.2, 0.2, -0.2, 0.2)
        sampler = PoseSampler((x0, x1), (y0, y1), (0.0, 0.0), p["yaw_range"] or (-np.pi, np.pi))
    report = GenerationReport()
    synth = generate_demos(ds, task.causal, sampler, icfg, task, n_target=count, master_seed=seed,
                           attempt_budget=p["budget"], report=report)
    merged = Dataset(ds.task_schema, ds.trajectories + synth.trajectories)
    return merged, {
        "requested": count,
        "accepted": report.accepted,
        "attempts": report.attempts,
        "acceptance_rate": report.acceptance_rate,
    }


def _stage_causal(ds: Dataset, task: TaskDefinition, p: dict, seed: int) -> tuple[Dataset, dict]:
    cfg = CounterfactualConfig(
        master_seed=seed,
        swap_probability=p["swap_prob"],
        donor_policy=p["donor_policy"],
        gripper_jitter_range=p["gripper_jitter"],
        copies_per_trajectory=p["copies"],
    )
    info: dict = {}
    return augment_offline(ds, task.causal, cfg, report=info), info


def _stage_obs(ds: Dataset, task, p: dict, seed: int) -> tuple[Dataset, dict]:
    sigma = p["noise_sigma"]

    def noise_one(tr: Trajectory, k: int) -> Trajectory:
        rng = derive_stream(seed, "obs", tr.traj_id, k)
        noisy = proprio_noise(tr, sigma, rng)
        prov = (
            Provenance.COUNTERFACTUAL_SYNTHETIC
            if tr.provenance is Provenance.COUNTERFACTUAL_SYNTHETIC
            else Provenance.MIXED
        )
        return replace(noisy, traj_id=f"{tr.traj_id}_obs{k:02d}", provenance=prov)

    noisy = tuple(noise_one(tr, k) for tr in ds.trajectories for k in range(p["copies"]))
    out = Dataset(ds.task_schema, ds.trajectories + noisy)
    return out, {"noise_sigma": sigma, "noised_copies": len(noisy)}


def _stage_validate(ds: Dataset, task: TaskDefinition, p: dict, seed: int) -> tuple[Dataset, dict]:
    return ds, validate_dataset_full(ds, task, replay_check=not p["no_replay"])


# stage name -> (stage function, {parameter key: Param}). These are the only
# parameter keys a stage accepts. A parameter that sets a library config
# field takes its default from that field, and bounds that the class already
# checks (close_threshold, swap_prob, the interpolation steps, ...) are left
# to it.
STAGES = {
    "gen": (_stage_gen, {"count": Param(int, 10, minimum=0)}),
    "segment": (_stage_segment, {
        "close_threshold": Param(float, SegmentationConfig.close_threshold),
        "debounce": Param(int, SegmentationConfig.debounce_steps),
        "min_phase_len": Param(int, SegmentationConfig.min_phase_len),
    }),
    "se3": (_stage_se3, {
        "count": Param(int, None, minimum=0),
        "pos_range": Param(4, None),
        "yaw_range": Param(2, None),
        "max_pos_step": Param(float, InterpolationConfig.max_pos_step),
        "max_rot_step": Param(float, InterpolationConfig.max_rot_step),
        "budget": Param(int, None, minimum=1),
    }),
    "causal": (_stage_causal, {
        "swap_prob": Param(float, CounterfactualConfig.swap_probability),
        "copies": Param(int, CounterfactualConfig.copies_per_trajectory, minimum=1),
        "donor_policy": Param(dict(any=DONOR_POLICIES[0], aligned=DONOR_POLICIES[1]), CounterfactualConfig.donor_policy),
        "gripper_jitter": Param(float, CounterfactualConfig.gripper_jitter_range),
    }),
    "obs": (_stage_obs, {
        "noise_sigma": Param(float, 0.01),
        "copies": Param(int, 1, minimum=0),
    }),
    "validate": (_stage_validate, {"no_replay": Param(bool, False)}),
}


def check_dataset_task(ds: Dataset, task: TaskDefinition) -> None:
    """Refuse a dataset recorded under another schema than the task's: the
    simulator and the checks would look up entities it does not have."""
    if ds.task_schema != task.schema:
        raise InvariantViolation(
            f"dataset of task {ds.task_schema.task_id!r} does not match the schema of task {task.schema.task_id!r}")


def run_stage(stage: StageConfig, ds: Dataset | None, task: TaskDefinition | None, seed: int) -> tuple[Dataset, dict]:
    """Run one stage on `ds`, once checked against `task` when both are
    given; the pipeline and the CLI subcommands both call this."""
    if ds is not None and task is not None:
        check_dataset_task(ds, task)
    fn, table = STAGES[stage.name]
    return fn(ds, task, {**{key: param.default for key, param in table.items()}, **stage.params}, seed)


def replay_dataset(ds: Dataset, task: TaskDefinition) -> tuple[int, list[str]]:
    """Replay each trajectory of a REPLAYABLE provenance, for `validate` and
    `replay`: the number replayed, and the ids of those that miss success."""
    trajs = [tr for tr in ds.trajectories if tr.provenance in REPLAYABLE]
    return len(trajs), [tr.traj_id for tr in trajs if not replay(tr, task)[1]]


def validate_dataset_full(ds: Dataset, task: TaskDefinition, replay_check: bool = True) -> dict:
    """Invariant and phase-label validation, then replay_dataset.

    Timesteps already checked under this schema are not checked again (see
    validate_dataset); every other check, and the replay, runs. Counterfactual
    composites, no single dynamics rollout, are not replayed: the test suite's
    expert-action oracle covers their causal validity.
    """
    failures: list[str] = []
    try:
        validate_dataset(ds)
        check_phase_labels(ds, task.causal)
    except DemoaugError as exc:
        failures.append(f"invariant: {exc}")
    replayed, missed = replay_dataset(ds, task) if replay_check and not failures else (0, [])
    failures += [f"replay: trajectory {traj_id!r} does not reach success" for traj_id in missed]
    return {"ok": not failures, "replayed": replayed, "checked": len(ds), "failures": failures}


# ---------------------------------------------------------------------------
# pipeline driver


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Execute the configured stages; write per-stage datasets and a report."""
    task = resolve_task(cfg.task)
    root = Path(cfg.output_root)
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"failed creating output root {root}: {exc}") from exc
    ds = load_dataset(cfg.input_path) if cfg.input_path is not None else None
    report = {"task": task.schema.task_id, "seed": cfg.master_seed, "stages": []}
    saved = None  # files of the last stage written; later stages copy what they inherit
    for i, stage in enumerate(cfg.stages):
        in_count = len(ds) if ds is not None else 0
        try:
            ds, info = run_stage(stage, ds, task, cfg.master_seed)
        except ConfigError:
            raise
        except DemoaugError as exc:
            raise StageFailure(stage.name, str(exc)) from exc
        if stage.name == "validate":
            if not info["ok"]:
                raise StageFailure(stage.name, "; ".join(info["failures"]))
        else:
            saved = save_dataset(ds, root / f"stage_{i:02d}_{stage.name}", previous=saved)
        report["stages"].append(
            {"name": stage.name, "in": in_count, "out": len(ds) if ds is not None else 0, **info}
        )
    write_json(root / "report.json", report, "failed writing report")
    return report


# ---------------------------------------------------------------------------
# ratio harness


@dataclass(frozen=True)
class RatioPlan:
    base_count: int
    ratios: tuple[int, ...]

    def __post_init__(self):
        if any(r < 0 for r in self.ratios):
            raise InvariantViolation("ratios must be >= 0")


def ratio_study(
    base: Dataset,
    plan: RatioPlan,
    spec,
    cfg: CounterfactualConfig,
    out_root=None,
) -> tuple[list[Dataset], list[dict]]:
    """Emit one dataset per ratio r with exactly r * |base| counterfactual
    trajectories on top of the originals; policy training is out of scope.
    Copy k of a source depends only on the source and k, so the copies are
    made once, for the largest ratio, and ratio r takes the first r of each."""
    if len(base) != plan.base_count:
        raise InvariantViolation(f"plan expects {plan.base_count} base demos, dataset has {len(base)}")
    top = max(plan.ratios, default=0)
    copies = augment_offline(base, spec, replace(cfg, copies_per_trajectory=top)).trajectories[len(base):] if top else ()
    datasets = []
    table = []
    saved = None
    for r in plan.ratios:
        ds_r = Dataset(base.task_schema,
                       base.trajectories + tuple(c for i in range(len(base)) for c in copies[i * top:i * top + r]))
        synthetic = sum(1 for t in ds_r.trajectories if t.provenance is Provenance.COUNTERFACTUAL_SYNTHETIC)
        real = len(ds_r) - synthetic
        datasets.append(ds_r)
        table.append({"ratio": r, "real_count": real, "synthetic_count": synthetic})
        if out_root is not None:
            saved = save_dataset(ds_r, Path(out_root) / f"ratio_{r}", previous=saved)
    if out_root is not None:
        write_json(Path(out_root) / "ratio_table.json", table, "failed writing ratio table")
    return datasets, table


# ---------------------------------------------------------------------------
# statistics


def stats(ds: Dataset) -> dict:
    """Counts by provenance, phase-length histograms, per-entity pose bounds,
    over each distinct `entities` tuple once, by id (the dataset keeps it
    alive): on a repeat, min and max would return each bound as it is."""
    traj_by_prov = Counter(tr.provenance.value for tr in ds.trajectories)
    step_by_prov: Counter = Counter()
    phase_hist: dict[int, Counter] = {}
    bounds: dict[str, dict] = {}
    total_steps = 0
    seen: set[int] = set()
    for tr in ds.trajectories:
        step_by_prov[tr.provenance.value] += len(tr)
        total_steps += len(tr)
        if all(ts.phase is not None for ts in tr.timesteps):
            for phase, t0, t1 in tr.phase_ranges():
                phase_hist.setdefault(phase, Counter())[t1 - t0] += 1
        for ts in tr.timesteps:
            if id(ts.entities) in seen:
                continue
            seen.add(id(ts.entities))
            for e in ts.entities:
                box = bounds.setdefault(
                    e.entity_id,
                    {"min": [np.inf] * 3, "max": [-np.inf] * 3},
                )
                lo, hi = box["min"], box["max"]
                for k, x in enumerate(e.pose.xyz):
                    lo[k] = min(lo[k], x)
                    hi[k] = max(hi[k], x)
    return {
        "trajectories": len(ds),
        "timesteps": total_steps,
        "trajectories_by_provenance": dict(sorted(traj_by_prov.items())),
        "timesteps_by_provenance": dict(sorted(step_by_prov.items())),
        "phase_length_histogram": {
            str(p): dict(sorted(c.items())) for p, c in sorted(phase_hist.items())
        },
        "entity_position_bounds": {k: bounds[k] for k in sorted(bounds)},
    }
