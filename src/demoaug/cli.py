"""Command-line interface.

Subcommands: gen-demos | segment | augment-se3 | augment-causal |
augment-obs | validate | replay | ratio-study | stats | run.
Exit codes: 0 ok, 1 usage, 2 validation failure or a refused color op, 3
stage failure or malformed input (an `error:` line, no traceback), 141 a
report printed to a closed stdout (128 + SIGPIPE, as by `| head -1`).

Every flag acts: there is no --workers flag (a pipeline config's `workers`
key is accepted and unused), segment, validate and replay take no --seed
(they draw nothing), augment-obs refuses its image flags without --image,
its dataset flags without --in, --out-size without --crop-scale and
--force unless --jitter or --permute is given with --task, and `run`
overrides only the config's seed and out. segment, augment-se3 and
augment-causal require --task, and a --spec, read over the task's schema,
replaces only the task's phase graphs and merge map.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from .causal import load_causal_spec
from .counterfactual import CounterfactualConfig
from .data import Param, load_dataset, read_json, save_dataset, write_json
from .errors import ColorJitterRefused, ConfigError, DemoaugError, InvariantViolation, StageFailure
from .imageaug import (
    VisualAugConfig,
    channel_permute,
    check_color_ops_allowed,
    color_jitter,
    gaussian_blur,
    random_resized_crop,
    read_ppm,
    write_ppm,
)
from .pipeline import (
    STAGES,
    RatioPlan,
    StageConfig,
    check_dataset_task,
    pipeline_config_from_dict,
    ratio_study,
    replay_dataset,
    run_pipeline,
    run_stage,
    stats,
)
from .rng import derive_stream
from .tasks import resolve_task

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_STAGE = 3
EXIT_CLOSED_STDOUT = 141

logger = logging.getLogger("demoaug")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(report: dict, out: str | None):
    if out:
        write_json(out, report, "failed writing report")
    else:
        print(json.dumps(report, indent=2, sort_keys=True), flush=True)


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x != ""]


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x != ""]


def _flag_type(param: Param):
    """The argparse type of the flag that sets a stage parameter: int or
    float, comma-separated numbers for a list, or a choice by its flag name."""
    kind = param.kind
    if isinstance(kind, dict):
        def choice(text: str) -> str:
            if text not in kind:
                raise argparse.ArgumentTypeError(f"invalid choice {text!r} (choose from {', '.join(kind)})")
            return kind[text]
        return choice
    return kind if kind in (int, float) else _floats


def _values(values: list, n: int, flag: str) -> list:
    if len(values) != n:
        raise ConfigError(f"{flag} takes {n} comma-separated values, got {len(values)}")
    return values


# ---------------------------------------------------------------------------
# handlers


def _run_stage(args, task) -> dict:
    """Run the pipeline stage `args.stage` on --in with the stage parameters
    the user gave as flags (`args.params`; the stage fills in the rest), save
    the result to --out, and return the stage's info; a --spec replaces the
    task's graphs and merge map."""
    params = {key: getattr(args, key) for key in args.params if getattr(args, key) is not None}
    stage = StageConfig(args.stage, params)
    ds = load_dataset(args.inp) if args.inp else None
    if args.spec:  # the task checks the spec against its kind: that refusal names the file too
        spec = load_causal_spec(args.spec, task.schema)
        try:
            task = replace(task, causal=spec)
        except InvariantViolation as exc:
            raise InvariantViolation(f"causal spec file {args.spec}: {exc}") from exc
    ds, info = run_stage(stage, ds, task, args.seed)
    save_dataset(ds, args.out)
    return {**info, "out": str(args.out)}


def _cmd_stage(args) -> int:
    _emit(_run_stage(args, resolve_task(args.task)), args.report)
    return EXIT_OK


# the augment-obs flags that act on --image alone, and on --in alone
_IMAGE_FLAGS = ("image_out", "crop_scale", "out_size", "jitter", "permute", "blur_sigma", "force")
_DATASET_FLAGS = ("out", "noise_sigma", "copies")


def _refuse_unused(args, keys, anchor: str) -> None:
    given = ["--" + key.replace("_", "-") for key in keys if getattr(args, key) not in (None, False)]
    if given:
        raise ConfigError(f"{', '.join(given)} given without {anchor} (these flags act on {anchor} alone)")


def _cmd_obs(args) -> int:
    if not args.image and not args.inp:
        raise ConfigError("augment-obs needs --image or --in")
    if not args.image:
        _refuse_unused(args, _IMAGE_FLAGS, "--image")
    if not args.inp:
        _refuse_unused(args, _DATASET_FLAGS, "--in")
    elif args.out is None:
        raise ConfigError("--in needs --out")
    if args.out_size is not None and args.crop_scale is None:
        raise ConfigError("--out-size is the size of the crop and needs --crop-scale")
    if args.force and (args.task is None or (args.jitter is None and args.permute is None)):
        raise ConfigError("--force overrides a task's color-op refusal and acts only with --task and --jitter or --permute")
    task = resolve_task(args.task) if args.task else None
    report: dict = {}
    if args.image:
        if (args.jitter is not None or args.permute is not None) and task is not None:
            check_color_ops_allowed(task.color_sensitive, args.force)
        img = read_ppm(args.image)
        rng = derive_stream(args.seed, "obs_image", Path(args.image).name)
        if args.crop_scale is not None:
            lo, hi = _values(args.crop_scale, 2, "--crop-scale")
            out_hw = tuple(_values(args.out_size, 2, "--out-size")) if args.out_size is not None else None
            img = random_resized_crop(img, VisualAugConfig(crop_scale=(lo, hi), output_hw=out_hw), rng)
        if args.jitter is not None:
            b, c, s, h = _values(args.jitter, 4, "--jitter")
            img = color_jitter(img, VisualAugConfig(brightness=b, contrast=c, saturation=s, hue=h), rng)
        if args.permute is not None:
            img = channel_permute(img, args.permute)
        if args.blur_sigma is not None:
            sig = args.blur_sigma
            if len(sig) == 1:
                sigma = sig[0]
            else:
                lo, hi = VisualAugConfig(blur_sigma=tuple(_values(sig, 2, "--blur-sigma"))).blur_sigma
                sigma = float(rng.uniform(lo, hi))
            img = gaussian_blur(img, sigma)
        write_ppm(args.image_out or args.image, img)
        report["image_out"] = str(args.image_out or args.image)
    if args.inp:
        report.update(_run_stage(args, task))
    _emit(report, args.report)
    return EXIT_OK


def _cmd_validate(args) -> int:
    task = resolve_task(args.task)
    try:
        ds = load_dataset(args.inp)
    except DemoaugError as exc:
        _emit({"ok": False, "failures": [f"load: {exc}"]}, args.report)
        return EXIT_VALIDATION
    stage = StageConfig("validate", {"no_replay": args.no_replay})
    _, result = run_stage(stage, ds, task, args.seed)
    _emit(result, args.report)
    return EXIT_OK if result["ok"] else EXIT_VALIDATION


def _cmd_replay(args) -> int:
    task = resolve_task(args.task)
    ds = load_dataset(args.inp)
    check_dataset_task(ds, task)
    replayed, failures = replay_dataset(ds, task)
    _emit({"replayed": replayed, "failures": failures}, args.report)
    if failures and args.strict:
        return EXIT_VALIDATION
    return EXIT_OK


def _cmd_ratio(args) -> int:
    task = resolve_task(args.task)
    ds = load_dataset(args.inp)
    check_dataset_task(ds, task)
    plan = RatioPlan(len(ds), tuple(args.ratios))
    cfg = CounterfactualConfig(master_seed=args.seed, swap_probability=args.swap_prob)
    _, table = ratio_study(ds, plan, task.causal, cfg, out_root=args.out)
    _emit({"table": table, "out": str(args.out)}, args.report)
    return EXIT_OK


def _cmd_stats(args) -> int:
    ds = load_dataset(args.inp)
    _emit(stats(ds), args.report)
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg_obj = read_json(args.config, "cannot read pipeline config")
    overrides = {key: value for key, value in (("seed", args.seed), ("out", args.out)) if value is not None}
    if isinstance(cfg_obj, dict):  # anything else is pipeline_config_from_dict's error to report
        cfg_obj = {**cfg_obj, **overrides}
    report = run_pipeline(pipeline_config_from_dict(cfg_obj))
    _emit(report, args.report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="demoaug", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, inp=True, out=True, spec=False, seed=True):
        if inp:
            p.add_argument("--in", dest="inp", required=True, help="input dataset directory")
        if out:
            p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--task", required=True, help="bundled task name (stack|coffee) or task JSON path")
        if spec:
            p.add_argument("--spec", default=None, help="causal spec JSON (replaces the task's graphs and merge map)")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        else:  # the stage draws nothing; run_stage takes a seed all the same
            p.set_defaults(seed=0)
        p.add_argument("--report", default=None, help="write the JSON report here instead of stdout")

    def stage_flags(p, stage, *flags, fn=_cmd_stage):
        """One flag per (parameter, help) of `stage`, named after the parameter
        and typed by its kind in STAGES; each defaults to None, which leaves
        the value to the stage."""
        table = STAGES[stage][1]
        for key, text in flags:
            p.add_argument("--" + key.replace("_", "-"), type=_flag_type(table[key]), help=text)
        p.set_defaults(fn=fn, stage=stage, params=tuple(key for key, _ in flags))

    p = sub.add_parser("gen-demos", help="roll out scripted expert demonstrations")
    common(p, inp=False)
    p.set_defaults(inp=None, spec=None)
    stage_flags(p, "gen", ("count", "number of demos"))

    p = sub.add_parser("segment", help="label trajectories with causal phases")
    common(p, spec=True, seed=False)
    stage_flags(p, "segment", ("close_threshold", "gripper aperture below which it counts as closed"),
                ("debounce", "steps a gripper change must last"),
                ("min_phase_len", "shortest phase in steps"))

    p = sub.add_parser("augment-se3", help="SE(3)-equivariant demo generation")
    common(p, spec=True)
    stage_flags(p, "se3", ("count", "synthetic demos to accept (default: one per input demo)"),
                ("pos_range", "x0,x1,y0,y1 sample box (meters)"),
                ("yaw_range", "min,max yaw (radians)"),
                ("max_pos_step", "interpolation step (meters)"),
                ("max_rot_step", "interpolation step (radians)"),
                ("budget", "attempt budget (default: 10 per requested demo)"))

    p = sub.add_parser("augment-causal", help="offline counterfactual augmentation")
    common(p, spec=True)
    stage_flags(p, "causal", ("swap_prob", "probability of swapping each partition"),
                ("copies", "counterfactual copies per trajectory"),
                ("donor_policy", "any|aligned: donor timestep anywhere in the phase, "
                 "or at the same relative index"),
                ("gripper_jitter", "gripper aperture jitter range on counterfactual copies"))

    p = sub.add_parser("augment-obs", help="observation augmentations (proprio noise, image ops)")
    p.add_argument("--in", dest="inp", default=None, help="input dataset directory (proprio noise)")
    p.add_argument("--out", default=None, help="output dataset directory")
    p.add_argument("--task", default=None, help="task name/path (needed for color-sensitivity check)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None)
    p.set_defaults(spec=None)
    stage_flags(p, "obs", ("noise_sigma", "proprio noise standard deviation"),
                ("copies", "noised copies per trajectory"), fn=_cmd_obs)
    p.add_argument("--image", default=None, help="input PPM image")
    p.add_argument("--image-out", default=None, help="output PPM image")
    p.add_argument("--crop-scale", type=_floats, default=None, help="lo,hi area scale range")
    p.add_argument("--out-size", type=_ints, default=None, help="H,W output dims for crop")
    p.add_argument("--jitter", type=_floats, default=None, help="brightness,contrast,saturation,hue ranges")
    p.add_argument("--permute", type=_ints, default=None, help="channel permutation, e.g. 2,0,1")
    p.add_argument("--blur-sigma", type=_floats, default=None, help="gaussian blur sigma, or lo,hi to sample one")
    p.add_argument("--force", action="store_true", help="override the task's color-sensitivity refusal of --jitter/--permute")

    p = sub.add_parser("validate", help="invariant + replay validation")
    common(p, out=False, seed=False)
    p.add_argument("--no-replay", action="store_true")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("replay", help="replay the stored actions of human and SE(3) demos through the simulator")
    common(p, out=False, seed=False)
    p.add_argument("--strict", action="store_true", help="nonzero exit on any failed trajectory")
    p.set_defaults(fn=_cmd_replay)

    p = sub.add_parser("ratio-study", help="emit datasets at several synthetic:real ratios")
    common(p)
    p.add_argument("--ratios", type=_ints, default="0,1,2,3,5,10")
    p.add_argument("--swap-prob", type=float, default=CounterfactualConfig.swap_probability)
    p.set_defaults(fn=_cmd_ratio)

    p = sub.add_parser("stats", help="dataset summary statistics")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("run", help="run a configured pipeline")
    p.add_argument("--config", required=True, help="pipeline JSON config")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--out", default=None, help="override config output root")
    p.add_argument("--report", default=None)
    p.set_defaults(fn=_cmd_run)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except BrokenPipeError:  # the report's reader closed stdout; its final flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
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
