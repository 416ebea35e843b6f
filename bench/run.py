"""demoaug benchmark: one workload per run, as a closed loop of passes.

    python3 bench/run.py --workload run_stack_w1 --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Each pass feeds the same seed-generated inputs to demoaug's public entry
points (pipeline.run_pipeline, cli.main, render and imageaug functions) and
starts only after the previous pass ended. The first pass's outputs are
checked in full; every later pass must reproduce its output tree byte for
byte (sha256). With --trace 0 the run prints the end-to-end metrics; with
--trace 1 it runs untraced passes, then traced passes, and prints the
per-layer metrics. The last line of stdout is the result JSON; a longer
result file with run metadata goes to bench/_out/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# every workload runs demoaug single-threaded; keep BLAS from adding threads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path("bench") / "_out"  # relative to ROOT, so reports name stable paths
SETUP_REPEATS = 7


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed set-up)."""


# ---------------------------------------------------------------------------
# workloads


@dataclass
class PassResult:
    items: int  # timesteps in the final dataset, or frames
    attempted: int  # operations: stages, CLI calls, frames
    failed: int


def _manifest_steps(dataset_dir: Path) -> int:
    manifest = json.loads((dataset_dir / "manifest.json").read_text(encoding="utf-8"))
    return sum(entry["num_timesteps"] for entry in manifest["trajectories"])


def _replay_se3(dataset_dir: Path, task_name: str, expected: int) -> tuple[int, int]:
    """Replay the accepted SE(3) demos of a saved dataset: one operation per
    requested demo; all fail when the dataset holds another number of them."""
    from demoaug.data import Provenance, load_dataset
    from demoaug.sim import replay
    from demoaug.tasks import resolve_task

    task = resolve_task(task_name)
    synth = [t for t in load_dataset(dataset_dir).trajectories if t.provenance is Provenance.SE3_SYNTHETIC]
    if len(synth) != expected:
        return expected, expected
    return expected, sum(1 for tr in synth if not replay(tr, task)[1])


class PipelineWorkload:
    """`run_pipeline` on the README's stack stage shape at workers=1; the seed
    picks the master seed."""

    task = "stack"

    def __init__(self, demos: int, se3: int):
        self.se3 = se3
        self.stages = [
            {"name": "gen", "count": demos},
            {"name": "segment"},
            {"name": "se3", "count": se3},
            {"name": "causal", "copies": 1, "swap_prob": 1.0},
            {"name": "obs", "noise_sigma": 0.01},
            {"name": "validate"},
        ]

    def prepare(self, seed: int, out: Path) -> None:
        self.out = out
        self.master_seed = random.Random(f"pipeline:{seed}").randrange(2**31)

    def run(self) -> PassResult:
        from demoaug import pipeline
        from demoaug.errors import StageFailure

        cfg = pipeline.pipeline_config_from_dict(
            {"task": self.task, "seed": self.master_seed, "workers": 1,
             "out": str(self.out), "stages": self.stages}
        )
        try:
            report = pipeline.run_pipeline(cfg)
        except StageFailure as exc:
            print(f"stage failure: {exc}", file=sys.stderr)
            return PassResult(0, len(self.stages), 1)
        failed = int(not report["stages"][-1]["ok"])
        return PassResult(_manifest_steps(self.out / "stage_04_obs"), len(self.stages), failed)

    def check(self) -> tuple[int, int]:
        return _replay_se3(self.out / "stage_02_se3", self.task, self.se3)


class CliChainWorkload:
    """The README's step-by-step CLI, each step loading the previous output."""

    task = "stack"

    def __init__(self, demos: int, se3: int, copies: int):
        self.demos, self.se3, self.copies = demos, se3, copies

    def prepare(self, seed: int, out: Path) -> None:
        rng = random.Random(f"cli:{seed}")
        gen_seed, se3_seed, cf_seed, obs_seed = (rng.randrange(2**31) for _ in range(4))
        d = {k: str(out / k) for k in ("demos", "labeled", "se3", "causal", "final", "reports")}
        self.out = out
        self.reports = Path(d["reports"])
        t = ["--task", self.task]
        self.calls = [
            ["gen-demos", *t, "--count", str(self.demos), "--seed", str(gen_seed), "--out", d["demos"]],
            ["segment", *t, "--in", d["demos"], "--out", d["labeled"]],
            ["augment-se3", *t, "--in", d["labeled"], "--out", d["se3"], "--seed", str(se3_seed),
             "--count", str(self.se3)],
            ["augment-causal", *t, "--in", d["se3"], "--out", d["causal"], "--seed", str(cf_seed),
             "--copies", str(self.copies)],
            ["augment-obs", *t, "--in", d["causal"], "--out", d["final"], "--seed", str(obs_seed),
             "--noise-sigma", "0.01"],
            ["validate", *t, "--in", d["final"]],
            ["stats", "--in", d["final"]],
        ]
        for call in self.calls:
            call += ["--report", str(self.reports / f"{call[0]}.json")]

    def run(self) -> PassResult:
        from demoaug import cli

        self.reports.mkdir(parents=True, exist_ok=True)
        for done, argv in enumerate(self.calls):
            code = cli.main(argv)
            if code != 0:
                print(f"demoaug {argv[0]} exited {code}", file=sys.stderr)
                return PassResult(0, done + 1, 1)
        validate = json.loads((self.reports / "validate.json").read_text(encoding="utf-8"))
        steps = _manifest_steps(self.out / "final")
        stats = json.loads((self.reports / "stats.json").read_text(encoding="utf-8"))
        failed = int(not validate["ok"]) + int(stats["timesteps"] != steps)
        return PassResult(steps, len(self.calls), failed)

    def check(self) -> tuple[int, int]:
        return _replay_se3(self.out / "se3", self.task, self.se3)


class VisualWorkload:
    """Render a sampled reset state, then crop, jitter, permute and blur it."""

    task = "coffee"
    size = 128

    def __init__(self, frames: int):
        self.frames = frames

    def prepare(self, seed: int, out: Path) -> None:
        rng = random.Random(f"visual:{seed}")
        self.frame_seeds = [rng.randrange(2**31) for _ in range(self.frames)]
        self.out = out

    def run(self) -> PassResult:
        import numpy as np

        from demoaug import imageaug, render, rng, sim, tasks

        task = tasks.resolve_task(self.task)
        imageaug.check_color_ops_allowed(task.color_sensitive)
        crop = imageaug.VisualAugConfig(crop_scale=(0.6, 1.0), output_hw=(self.size, self.size))
        jitter = imageaug.VisualAugConfig(brightness=0.2, contrast=0.2, saturation=0.2, hue=0.1)
        self.out.mkdir(parents=True, exist_ok=True)
        failed = 0
        for i, frame_seed in enumerate(self.frame_seeds):
            img = render.rasterize_state(sim.reset(task, frame_seed), task, self.size)
            g = rng.derive_stream(frame_seed, "visual")
            img = imageaug.random_resized_crop(img, crop, g)
            img = imageaug.color_jitter(img, jitter, g)
            img = imageaug.channel_permute(img, g.permutation(3))
            img = imageaug.gaussian_blur(img, float(g.uniform(0.5, 1.5)))
            if img.dtype != np.uint8 or img.shape != (self.size, self.size, 3):
                failed += 1
            imageaug.write_ppm(self.out / f"frame_{i:05d}.ppm", img)
        return PassResult(self.frames, self.frames, failed)

    def check(self) -> tuple[int, int]:
        return 0, 0


# workload name -> factory taking `tiny` (the smoke-test size). The full sizes
# keep one pass between about 1 s and 5 s on a 2-vCPU machine, so that a
# 30 s run holds several passes to take the median of.
WORKLOADS = {
    "run_stack_w1": lambda tiny: PipelineWorkload(*((2, 1) if tiny else (10, 10))),
    "cli_chain_stack": lambda tiny: CliChainWorkload(*((2, 1, 3) if tiny else (2, 2, 3))),
    "visual_frames_coffee": lambda tiny: VisualWorkload(4 if tiny else 100),
}


# ---------------------------------------------------------------------------
# measurement


def _tree_digest(root: Path) -> str:
    """sha256 over the sorted (relative path, bytes) of every file under root."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


def _bytes_written() -> int:
    with open("/proc/self/io", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise BenchError("/proc/self/io has no wchar line")


@dataclass
class Pass:
    wall_s: float
    items: int
    bytes_written: int
    digest: str
    traced: bool

    @property
    def items_per_s(self) -> float:
        return self.items / self.wall_s


class Run:
    """The closed loop of passes of one workload, with correctness totals."""

    def __init__(self, name: str, workload, seed: int):
        self.workload = workload
        self.work_dir = OUT / "work" / name
        workload.prepare(seed, self.work_dir)
        self.passes: list[Pass] = []
        self.attempted = 0
        self.failed = 0
        self.reference = None

    def one_pass(self, traced: bool = False) -> Pass:
        shutil.rmtree(self.work_dir, ignore_errors=True)
        w0 = _bytes_written()
        t0 = time.perf_counter()
        result = self.workload.run()
        wall = time.perf_counter() - t0
        written = _bytes_written() - w0
        digest = _tree_digest(self.work_dir)
        self.attempted += result.attempted
        self.failed += result.failed
        if self.reference is None:
            self.reference = digest
            checked, bad = self.workload.check()
            self.attempted += checked
            self.failed += bad
        elif digest != self.reference:
            print(f"output digest changed between passes: {digest} != {self.reference}", file=sys.stderr)
            self.attempted += 1
            self.failed += 1
        p = Pass(wall, result.items, written, digest, traced)
        self.passes.append(p)
        return p

    def loop(self, seconds: float, traced: bool = False, min_passes: int = 1) -> list[Pass]:
        """At least min_passes passes; more while the next one, as long as the
        median pass so far, still ends within `seconds`."""
        done: list[Pass] = []
        start = time.perf_counter()
        while len(done) < min_passes or (
            time.perf_counter() - start + statistics.median(p.wall_s for p in done) <= seconds
        ):
            done.append(self.one_pass(traced))
        return done


def measure_setup(task: str, repeats: int) -> list[float]:
    """Import demoaug and resolve the task in fresh interpreters."""
    code = (
        "import time\n"
        "t0 = time.perf_counter()\n"
        "import demoaug.cli, demoaug.render\n"
        "from demoaug.tasks import resolve_task\n"
        f"resolve_task({task!r})\n"
        "print(time.perf_counter() - t0)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def end_to_end_metrics(timed: list[Pass], setup: list[float]) -> dict:
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(setup), "s"),
        "out_items_per_s": (statistics.median(p.items_per_s for p in timed), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "bytes_written_mb": (statistics.median(p.bytes_written for p in timed) / 1e6, "MB"),
    }


def per_layer_metrics(agg: dict, counters: dict, traced: list[Pass], untraced: list[Pass]) -> dict:
    """Per pass: call counts, mean self time per call, inclusive seconds and
    counter ratios; a layer that did no work reports 0."""
    n = len(traced)
    c = counters

    def stat(name, key):
        return agg.get(name, {}).get(key, 0.0)

    def count(name):
        return stat(name, "count") / n

    def mean_self(name, scale):
        calls = stat(name, "count")
        return stat(name, "self_s") / calls * scale if calls else 0.0

    def incl(name):
        return stat(name, "incl_s") / n

    def per(numer, denom):
        return numer / denom if denom else 0.0

    def module_self(prefix):
        return sum(s["self_s"] for k, s in agg.items() if k.startswith(prefix + ".")) / n

    final_steps = sum(p.items for p in traced)
    m = {
        "geometry.Pose.count": (count("geometry.Pose"), "count"),
        "geometry.Pose.us": (mean_self("geometry.Pose", 1e6), "us"),
        "geometry.apply_pose.count": (count("geometry.apply_pose"), "count"),
        "geometry.apply_pose.us": (mean_self("geometry.apply_pose", 1e6), "us"),
        "geometry.self_s": (module_self("geometry"), "s"),
        "sim.step.count": (count("sim.step"), "count"),
        "sim.step.us": (mean_self("sim.step", 1e6), "us"),
        "sim.expert_action.us": (mean_self("sim.expert_action", 1e6), "us"),
        "sim.observe.us": (mean_self("sim.observe", 1e6), "us"),
        "sim.replay.count": (count("sim.replay"), "count"),
        "sim.replay.ms": (mean_self("sim.replay", 1e3), "ms"),
        "sim.rollout_expert.ms": (mean_self("sim.rollout_expert", 1e3), "ms"),
        "sim.self_s": (module_self("sim"), "s"),
        "retarget.generate_demos.s": (incl("retarget.generate_demos"), "s"),
        "retarget.attempts": (c["retarget.attempts"] / n, "count"),
        "retarget.accepted": (c["retarget.accepted"] / n, "count"),
        "se3_acceptance": (per(c["retarget.accepted"], c["retarget.attempts"]), "ratio"),
        "retarget.attempt_ms": (per(stat("retarget.generate_demos", "incl_s") * 1e3, c["retarget.attempts"]), "ms"),
        "retarget.transform_subtrajectory.us": (mean_self("retarget.transform_subtrajectory", 1e6), "us"),
        "retarget.interpolate_prefix.us": (mean_self("retarget.interpolate_prefix", 1e6), "us"),
        "retarget.cpu_util": (per(c["retarget.generate_demos.cpu_s"], c["retarget.generate_demos.wall_s"]), "ratio"),
        "data.save_dataset.s": (incl("data.save_dataset"), "s"),
        "data.encode_us_per_step": (per(stat("data.save_dataset", "incl_s") * 1e6, c["data.steps_encoded"]), "us"),
        "data.load_dataset.s": (incl("data.load_dataset"), "s"),
        "data.parse_us_per_step": (per(stat("data.load_dataset", "incl_s") * 1e6, c["data.steps_parsed"]), "us"),
        "data.validate_dataset.s": (incl("data.validate_dataset"), "s"),
        "data.validate_us_per_step": (per(stat("data.validate_dataset", "incl_s") * 1e6, c["data.steps_validated"]), "us"),
        "data.steps_encoded": (c["data.steps_encoded"] / n, "count"),
        "data.steps_parsed": (c["data.steps_parsed"] / n, "count"),
        "data.bytes_per_step": (per(c["data.bytes_encoded"], c["data.steps_encoded"]), "B"),
        "data.rewrite_ratio": (per(c["data.steps_encoded"], final_steps), "ratio"),
        "counterfactual.augment_offline.s": (incl("counterfactual.augment_offline"), "s"),
        "counterfactual.us_per_step": (per(stat("counterfactual.augment_offline", "incl_s") * 1e6, c["counterfactual.steps_out"]), "us"),
        "counterfactual.partition_swaps": (c["counterfactual.partition_swaps"] / n, "count"),
        "counterfactual.no_donor_copies": (c["counterfactual.no_donor_copies"] / n, "count"),
        "imageaug.random_resized_crop.us": (mean_self("imageaug.random_resized_crop", 1e6), "us"),
        "imageaug.color_jitter.us": (mean_self("imageaug.color_jitter", 1e6), "us"),
        "imageaug.channel_permute.us": (mean_self("imageaug.channel_permute", 1e6), "us"),
        "imageaug.gaussian_blur.us": (mean_self("imageaug.gaussian_blur", 1e6), "us"),
        "imageaug.proprio_noise.us_per_step": (per(stat("imageaug.proprio_noise", "incl_s") * 1e6, c["imageaug.proprio_noise.steps"]), "us"),
        "render.rasterize_state.us": (mean_self("render.rasterize_state", 1e6), "us"),
        "segmentation.assign_phases.ms": (mean_self("segmentation.assign_phases", 1e3), "ms"),
        "causal.self_s": (module_self("causal"), "s"),
        "rng.derive_stream.count": (count("rng.derive_stream"), "count"),
        "rng.derive_stream.us": (mean_self("rng.derive_stream", 1e6), "us"),
        "tasks.resolve_task.count": (count("tasks.resolve_task"), "count"),
        "tasks.resolve_task.ms": (mean_self("tasks.resolve_task", 1e3), "ms"),
        "pipeline.run_pipeline.s": (incl("pipeline.run_pipeline"), "s"),
        "pipeline.validate_dataset_full.s": (incl("pipeline.validate_dataset_full"), "s"),
        "pipeline.self_s": (module_self("pipeline"), "s"),
        "pipeline.cpu_util": (per(c["pipeline.run_pipeline.cpu_s"], c["pipeline.run_pipeline.wall_s"]), "ratio"),
        "cli.main.count": (count("cli.main"), "count"),
        "cli.main.s": (incl("cli.main"), "s"),
        "cli.self_s": (module_self("cli"), "s"),
        "trace.overhead": (
            statistics.median(p.items_per_s for p in traced) / statistics.median(p.items_per_s for p in untraced),
            "ratio",
        ),
    }
    return m


# ---------------------------------------------------------------------------
# metadata and entry point


def _git_commit() -> str | None:
    """HEAD's commit from .git, when the checkout is a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def metadata(workload: str, seed: int) -> dict:
    import numpy as np

    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "demoaug").rglob("*.py"))
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "src_demoaug_lines": src_lines,
    }


def run_benchmark(args) -> dict:
    if not (SRC / "demoaug" / "__init__.py").is_file():
        raise BenchError(f"demoaug sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload](args.tiny)
    task = workload.task
    setup = [] if args.trace else measure_setup(task, 2 if args.tiny else SETUP_REPEATS)
    run = Run(args.workload, workload, args.seed)
    run.one_pass()  # reference pass: full output check, warms lazy imports
    if args.trace:
        from tracing import Tracer

        timed = run.loop(args.seconds / 2, min_passes=2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run.loop(args.seconds / 2, traced=True)
        finally:
            tracer.uninstall()
        agg = tracer.aggregate()
        metrics = per_layer_metrics(agg, tracer.counters, traced, timed)
        trace_path = ROOT / OUT / "traces" / f"{args.workload}_seed{args.seed}.npz"
        tracer.save(trace_path)
        extra = {"spans": tracer.span_count(), "trace_file": str(trace_path.relative_to(ROOT)),
                 "layers_seen": sorted({k.split(".")[0] for k in agg})}
    else:
        timed = run.loop(args.seconds, min_passes=3)
        metrics = end_to_end_metrics(timed, setup)
        extra = {"setup_samples_s": setup}
    digests = sorted({p.digest for p in run.passes})
    summary = {
        "correct": run.failed == 0 and len(digests) == 1,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    error_rate = run.failed / run.attempted
    print(f"{args.workload} seed={args.seed} trace={args.trace}: untraced out_items_per_s median "
          f"{statistics.median(p.items_per_s for p in timed):.1f} over n={len(timed)} passes, "
          f"pass_s median {statistics.median(p.wall_s for p in timed):.3f}, "
          f"error_rate {error_rate:g} ({run.failed}/{run.attempted}), digest {digests[0][:16]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    record = {
        **summary,
        "error_rate": error_rate,
        "meta": metadata(args.workload, args.seed),
        "output_digest": digests[0] if len(digests) == 1 else digests,
        "passes": [{"wall_s": p.wall_s, "items": p.items, "bytes_written": p.bytes_written,
                    "traced": p.traced, "digest": p.digest} for p in run.passes],
        **extra,
    }
    result_path = ROOT / OUT / "results" / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    shutil.rmtree(ROOT / run.work_dir, ignore_errors=True)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="generates every input of the run")
    parser.add_argument("--seconds", type=float, default=20.0, help="pass time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs (used by --smoke)")
    parser.add_argument("--smoke", action="store_true", help="run the benchmark's own checks")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    try:
        if args.smoke:
            from smoke import smoke

            return smoke(Path(__file__), ROOT)
        if args.workload is None:
            parser.error("--workload is required")
        summary = run_benchmark(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
