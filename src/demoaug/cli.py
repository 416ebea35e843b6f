"""Command-line interface.

Subcommands: gen-demos | segment | augment-se3 | augment-causal |
augment-obs | validate | replay | ratio-study | stats | run.
Exit codes: 0 ok, 1 usage, 2 validation failure, 3 stage failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .causal import load_causal_spec
from .counterfactual import CounterfactualConfig, augment_offline
from .data import Dataset, load_dataset, save_dataset
from .errors import ColorJitterRefused, DemoaugError, StageFailure
from .imageaug import (
    VisualAugConfig,
    channel_permute,
    check_color_ops_allowed,
    color_jitter,
    gaussian_blur,
    proprio_noise,
    random_resized_crop,
    read_ppm,
    write_ppm,
)
from .pipeline import (
    RatioPlan,
    pipeline_config_from_dict,
    ratio_study,
    run_pipeline,
    stats,
    validate_dataset_full,
)
from .retarget import GenerationReport, InterpolationConfig, generate_demos
from .rng import derive_stream
from .segmentation import SegmentationConfig, assign_phases
from .sim import PoseSampler, replay, rollout_expert
from .tasks import resolve_task

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_STAGE = 3

logger = logging.getLogger("demoaug")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(report: dict, out: str | None):
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x != ""]


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x != ""]


# ---------------------------------------------------------------------------
# handlers


def _cmd_gen(args) -> int:
    task = resolve_task(args.task)
    trajs = []
    for i in range(args.count):
        tr = rollout_expert(task, derive_stream(args.seed, "gen", i))
        trajs.append(replace(tr, traj_id=f"demo_{i:04d}"))
    ds = Dataset("1.0", task.schema, tuple(trajs))
    save_dataset(ds, args.out)
    _emit({"generated": len(ds), "out": str(args.out)}, args.report)
    return EXIT_OK


def _resolve_spec(args):
    """Causal spec from --spec (JSON file), falling back to the task's."""
    if getattr(args, "spec", None):
        return load_causal_spec(args.spec)
    if args.task:
        return resolve_task(args.task).causal
    raise DemoaugError("either --spec or --task is required")


def _cmd_segment(args) -> int:
    spec = _resolve_spec(args)
    ds = load_dataset(args.inp)
    cfg = SegmentationConfig(args.close_threshold, args.debounce, args.min_phase_len)
    labeled = tuple(assign_phases(tr, spec, cfg) for tr in ds.trajectories)
    save_dataset(Dataset(ds.schema_version, ds.task_schema, labeled), args.out)
    _emit({"segmented": len(labeled), "phases": spec.num_phases}, args.report)
    return EXIT_OK


def _cmd_se3(args) -> int:
    task = resolve_task(args.task)
    if args.spec:
        task = replace(task, causal=load_causal_spec(args.spec))
    ds = load_dataset(args.inp)
    sampler = None
    if args.pos_range or args.yaw_range:
        pos = _floats(args.pos_range) if args.pos_range else [-0.2, 0.2, -0.2, 0.2]
        yaw = _floats(args.yaw_range) if args.yaw_range else [-np.pi, np.pi]
        sampler = PoseSampler((pos[0], pos[1]), (pos[2], pos[3]), (0.0, 0.0), (yaw[0], yaw[1]))
    icfg = InterpolationConfig(args.max_pos_step, args.max_rot_step)
    report = GenerationReport()
    synth = generate_demos(
        ds, task.causal, sampler, icfg, task, args.count,
        master_seed=args.seed, attempt_budget=args.budget, workers=args.workers, report=report,
    )
    merged = Dataset(ds.schema_version, ds.task_schema, ds.trajectories + synth.trajectories)
    save_dataset(merged, args.out)
    _emit(
        {"accepted": report.accepted, "attempts": report.attempts,
         "acceptance_rate": report.acceptance_rate, "out": str(args.out)},
        args.report,
    )
    return EXIT_OK


def _cmd_causal(args) -> int:
    spec = _resolve_spec(args)
    ds = load_dataset(args.inp)
    policy = {"any": "same_phase_any_timestep", "aligned": "same_phase_aligned_timestep"}[args.donor_policy]
    cfg = CounterfactualConfig(
        master_seed=args.seed,
        swap_probability=args.swap_prob,
        donor_policy=policy,
        copies_per_trajectory=args.copies,
    )
    info: dict = {}
    out = augment_offline(ds, spec, cfg, report=info)
    save_dataset(out, args.out)
    _emit({**info, "out": str(args.out)}, args.report)
    return EXIT_OK


def _cmd_obs(args) -> int:
    task = resolve_task(args.task) if args.task else None
    wants_color_ops = bool(args.jitter or args.permute)
    if wants_color_ops and task is not None:
        check_color_ops_allowed(task.color_sensitive, args.force)
    report: dict = {}
    if args.image:
        img = read_ppm(args.image)
        rng = derive_stream(args.seed, "obs_image", Path(args.image).name)
        if args.crop_scale:
            lo, hi = _floats(args.crop_scale)
            out_hw = tuple(_ints(args.out_size)) if args.out_size else None
            img = random_resized_crop(img, VisualAugConfig(crop_scale=(lo, hi), output_hw=out_hw), rng)
        if args.jitter:
            b, c, s, h = _floats(args.jitter)
            img = color_jitter(img, VisualAugConfig(brightness=b, contrast=c, saturation=s, hue=h), rng)
        if args.permute:
            img = channel_permute(img, _ints(args.permute))
        if args.blur_sigma:
            sig = _floats(args.blur_sigma)
            if len(sig) == 1:
                sigma = sig[0]
            else:
                lo, hi = VisualAugConfig(blur_sigma=(sig[0], sig[1])).blur_sigma
                sigma = float(rng.uniform(lo, hi))
            img = gaussian_blur(img, sigma)
        write_ppm(args.image_out or args.image, img)
        report["image_out"] = str(args.image_out or args.image)
    if args.inp:
        ds = load_dataset(args.inp)
        noisy = []
        for tr in ds.trajectories:
            for k in range(args.copies):
                rng = derive_stream(args.seed, "obs", tr.traj_id, k)
                out_tr = proprio_noise(tr, args.noise_sigma, rng)
                noisy.append(replace(out_tr, traj_id=f"{tr.traj_id}_obs{k:02d}", provenance="mixed"))
        merged = Dataset(ds.schema_version, ds.task_schema, ds.trajectories + tuple(noisy))
        save_dataset(merged, args.out)
        report.update({"noised_copies": len(noisy), "out": str(args.out)})
    _emit(report, args.report)
    return EXIT_OK


def _cmd_validate(args) -> int:
    task = resolve_task(args.task)
    try:
        ds = load_dataset(args.inp)
    except DemoaugError as exc:
        _emit({"ok": False, "failures": [f"load: {exc}"]}, args.report)
        return EXIT_VALIDATION
    result = validate_dataset_full(ds, task, replay_check=not args.no_replay, workers=args.workers)
    _emit(result, args.report)
    return EXIT_OK if result["ok"] else EXIT_VALIDATION


def _cmd_replay(args) -> int:
    task = resolve_task(args.task)
    ds = load_dataset(args.inp)
    failures = []
    for tr in ds.trajectories:
        _, ok = replay(tr, task)
        if not ok:
            failures.append(tr.traj_id)
    _emit({"replayed": len(ds), "failures": failures}, args.report)
    if failures and args.strict:
        return EXIT_VALIDATION
    return EXIT_OK


def _cmd_ratio(args) -> int:
    task = resolve_task(args.task)
    ds = load_dataset(args.inp)
    plan = RatioPlan(len(ds), tuple(_ints(args.ratios)))
    cfg = CounterfactualConfig(master_seed=args.seed, swap_probability=args.swap_prob)
    _, table = ratio_study(ds, plan, task.causal, cfg, out_root=args.out)
    _emit({"table": table, "out": str(args.out)}, args.report)
    return EXIT_OK


def _cmd_stats(args) -> int:
    ds = load_dataset(args.inp)
    _emit(stats(ds), args.report)
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg_obj = json.loads(Path(args.config).read_text(encoding="utf-8"))
    cfg = pipeline_config_from_dict(cfg_obj)
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)
    if args.workers is not None:
        cfg = replace(cfg, workers=args.workers)
    if args.out is not None:
        cfg = replace(cfg, output_root=args.out)
    report = run_pipeline(cfg)
    _emit(report, args.report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="demoaug", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, inp=True, out=True, task=True, spec=False):
        if inp:
            p.add_argument("--in", dest="inp", required=True, help="input dataset directory")
        if out:
            p.add_argument("--out", required=True, help="output directory")
        if task:
            required = not spec
            p.add_argument("--task", required=required, default=None,
                           help="bundled task name (stack|coffee) or task JSON path")
        if spec:
            p.add_argument("--spec", default=None,
                           help="causal spec JSON (overrides the task's bundled spec)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--report", default=None, help="write the JSON report here instead of stdout")

    p = sub.add_parser("gen-demos", help="roll out scripted expert demonstrations")
    common(p, inp=False)
    p.add_argument("--count", type=int, default=10)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("segment", help="label trajectories with causal phases")
    common(p, spec=True)
    p.add_argument("--close-threshold", type=float, default=0.5)
    p.add_argument("--debounce", type=int, default=3)
    p.add_argument("--min-phase-len", type=int, default=5)
    p.set_defaults(fn=_cmd_segment)

    p = sub.add_parser("augment-se3", help="SE(3)-equivariant demo generation")
    common(p)
    p.add_argument("--spec", default=None, help="causal spec JSON (overrides the task's)")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--pos-range", default=None, help="x0,x1,y0,y1 sample box (meters)")
    p.add_argument("--yaw-range", default=None, help="min,max yaw (radians)")
    p.add_argument("--max-pos-step", type=float, default=0.02)
    p.add_argument("--max-rot-step", type=float, default=0.1)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(fn=_cmd_se3)

    p = sub.add_parser("augment-causal", help="offline counterfactual augmentation")
    common(p, spec=True)
    p.add_argument("--swap-prob", type=float, default=1.0)
    p.add_argument("--copies", type=int, default=1)
    p.add_argument("--donor-policy", choices=("any", "aligned"), default="any")
    p.set_defaults(fn=_cmd_causal)

    p = sub.add_parser("augment-obs", help="observation augmentations (proprio noise, image ops)")
    p.add_argument("--in", dest="inp", default=None, help="input dataset directory (proprio noise)")
    p.add_argument("--out", default=None, help="output dataset directory")
    p.add_argument("--task", default=None, help="task name/path (needed for color-sensitivity check)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--report", default=None)
    p.add_argument("--noise-sigma", type=float, default=0.01)
    p.add_argument("--copies", type=int, default=1)
    p.add_argument("--image", default=None, help="input PPM image")
    p.add_argument("--image-out", default=None, help="output PPM image")
    p.add_argument("--crop-scale", default=None, help="lo,hi area scale range")
    p.add_argument("--out-size", default=None, help="H,W output dims for crop")
    p.add_argument("--jitter", default=None, help="brightness,contrast,saturation,hue ranges")
    p.add_argument("--permute", default=None, help="channel permutation, e.g. 2,0,1")
    p.add_argument("--blur-sigma", default=None, help="gaussian blur sigma, or lo,hi to sample one")
    p.add_argument("--force", action="store_true", help="override the color-sensitivity refusal")
    p.set_defaults(fn=_cmd_obs)

    p = sub.add_parser("validate", help="invariant + replay validation")
    common(p, out=False)
    p.add_argument("--no-replay", action="store_true")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("replay", help="replay stored actions through the simulator")
    common(p, out=False)
    p.add_argument("--strict", action="store_true", help="nonzero exit on any failed trajectory")
    p.set_defaults(fn=_cmd_replay)

    p = sub.add_parser("ratio-study", help="emit datasets at several synthetic:real ratios")
    common(p)
    p.add_argument("--ratios", default="0,1,2,3,5,10")
    p.add_argument("--swap-prob", type=float, default=1.0)
    p.set_defaults(fn=_cmd_ratio)

    p = sub.add_parser("stats", help="dataset summary statistics")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("run", help="run a configured pipeline")
    p.add_argument("--config", required=True, help="pipeline JSON config")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--workers", type=int, default=None, help="override config workers")
    p.add_argument("--out", default=None, help="override config output root")
    p.add_argument("--report", default=None)
    p.set_defaults(fn=_cmd_run)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ColorJitterRefused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except StageFailure as exc:
        print(f"stage failure: {exc}", file=sys.stderr)
        return EXIT_STAGE
    except DemoaugError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    raise SystemExit(main())
