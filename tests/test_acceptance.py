"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each. Run with `pytest tests/test_acceptance.py -v -s`."""

import hashlib

import numpy as np
from dataclasses import replace

from demoaug.causal import CausalGraph, count_partitions, join_adjacency, partitions
from demoaug.cli import main as cli_main
from demoaug.counterfactual import CounterfactualConfig, augment_offline
from demoaug.data import Provenance, load_dataset, save_dataset
from demoaug.errors import BudgetExhausted, ColorJitterRefused
from demoaug.geometry import SE3Transform, quat_from_yaw, quat_geodesic, relative_in_frame
from demoaug.imageaug import (
    VisualAugConfig,
    channel_permute,
    check_color_ops_allowed,
    color_jitter,
    gaussian_blur,
    gaussian_kernel,
    proprio_noise,
    random_resized_crop,
    write_ppm,
)
from demoaug.pipeline import PipelineConfig, RatioPlan, StageConfig, ratio_study, run_pipeline
from demoaug.render import rasterize_state
from demoaug.retarget import GenerationReport, InterpolationConfig, generate_demos
from demoaug.rng import derive_stream
from demoaug.sim import SimState, expert_action, replay, reset, sim_state_from_timestep
from demoaug.tasks import resolve_task
from tests.conftest import make_labeled_demos
from tests.test_causal import brute_force_partitions, random_graph
from tests.test_data import random_dataset


def report(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_01_partition_oracle_equivalence():
    rng = np.random.default_rng(101)
    mismatches = 0
    n_cases = 1200
    for _ in range(n_cases):
        g = random_graph(rng, int(rng.integers(1, 9)))
        if [p.members for p in partitions(g)] != brute_force_partitions(g.nodes, g.adjacency):
            mismatches += 1
    report("01 partition-oracle", mismatches == 0, f"{n_cases} random graphs, {mismatches} mismatches")


def test_criterion_02_joint_adjacency_laws():
    rng = np.random.default_rng(102)
    n_cases = 1200
    failures = 0
    for _ in range(n_cases):
        n = int(rng.integers(1, 9))
        a = random_graph(rng, n)
        b = CausalGraph(a.nodes, (rng.random((n, n)) < 0.35) | np.eye(n, dtype=bool))
        ab = join_adjacency(a, b).adjacency
        ok = (
            np.array_equal(ab, ab.T)
            and np.array_equal(ab, join_adjacency(b, a).adjacency)
            and np.array_equal(join_adjacency(a, a).adjacency, a.adjacency | a.adjacency.T)
        )
        failures += not ok
    report("02 joint-adjacency-laws", failures == 0, f"{n_cases} random pairs, {failures} law violations")


def test_criterion_03_structural_counts():
    stack = resolve_task("stack").causal
    coffee = resolve_task("coffee").causal
    phase3 = [p.members for p in partitions(stack.phases[2].joint_graph())]
    ok = (
        stack.num_phases == 4
        and count_partitions(stack) == 8
        and coffee.num_phases == 2
        and phase3 == [frozenset({"cube_a", "cube_b"}), frozenset({"cube_c", "robot0"})]
    )
    report(
        "03 structural-counts",
        ok,
        f"stack phases={stack.num_phases} partitions={count_partitions(stack)}, "
        f"coffee phases={coffee.num_phases}, stack phase-3 partitions={phase3}",
    )


def test_criterion_04_counterfactual_invariance_oracle(stack_task, stack_demos):
    cfg = CounterfactualConfig(master_seed=104, swap_probability=1.0, copies_per_trajectory=2)
    out = augment_offline(stack_demos, stack_task.causal, cfg)
    checked = 0
    worst_pos = 0.0
    worst_rot = 0.0
    for traj in out.trajectories:
        if traj.provenance is not Provenance.COUNTERFACTUAL_SYNTHETIC:
            continue
        for ts in traj.timesteps:
            state = sim_state_from_timestep(ts, stack_task)
            act = expert_action(state, stack_task, ts.phase)
            stored = ts.actions[0]
            worst_pos = max(worst_pos, float(np.linalg.norm(
                act.target_eef_pose.position - stored.target_eef_pose.position)))
            worst_rot = max(worst_rot, quat_geodesic(
                act.target_eef_pose.orientation, stored.target_eef_pose.orientation))
            checked += 1
    ok = checked >= 500 and worst_pos <= 1e-9 and worst_rot <= 1e-9
    report(
        "04 counterfactual-invariance",
        ok,
        f"{checked} augmented timesteps, worst pos err {worst_pos:.2e} m, worst rot err {worst_rot:.2e} rad",
    )


def test_criterion_05_se3_retargeting(stack_task):
    sources = make_labeled_demos(stack_task, 5, seed_base=105)
    rep = GenerationReport()
    try:
        synth = generate_demos(
            sources, stack_task.causal, None, InterpolationConfig(), stack_task,
            n_target=200, master_seed=105, attempt_budget=200, report=rep,
        )
        accepted = list(synth.trajectories)
    except BudgetExhausted:
        accepted = []  # rate check below will fail and report it
    rate = rep.acceptance_rate
    replay_ok = all(replay(tr, stack_task)[1] for tr in accepted)
    worst = 0.0
    for tr in accepted:
        metas = {m["phase"]: m for m in rep.segments[tr.traj_id]}
        by_phase: dict[int, list] = {}
        for ts in tr.timesteps:
            if not ts.interp:
                by_phase.setdefault(ts.phase, []).append(ts)
        for phase, steps in by_phase.items():
            meta = metas[phase]
            src = sources.trajectory(meta["src_traj_id"])
            src_steps = src.timesteps[meta["src_start"]: meta["src_end"]]
            target = stack_task.causal.phase(phase).target_entity
            for g, s in zip(steps, src_steps):
                rg = relative_in_frame(g.entity(target).pose, g.robots[0].eef_pose)
                rs = relative_in_frame(s.entity(target).pose, s.robots[0].eef_pose)
                worst = max(worst, float(np.linalg.norm(rg.translation - rs.translation)),
                            quat_geodesic(rg.rotation, rs.rotation))
    ok = rate >= 0.95 and replay_ok and worst <= 1e-9 and rep.attempts >= 200
    report(
        "05 se3-retargeting",
        ok,
        f"{rep.attempts} sampled poses, acceptance {rate:.3f}, replays ok={replay_ok}, "
        f"worst relpose dev {worst:.2e}",
    )


def _planar_state(state, g):
    objects = {eid: g.apply_pose(p) for eid, p in state.objects.items()}
    gripper = replace(state.gripper, eef_pose=g.apply_pose(state.gripper.eef_pose))
    return SimState(objects, state.lids, gripper, state.attachment, state.step_count)


def _in_box(state, task):
    lo, hi = task.schema.workspace_min, task.schema.workspace_max
    pts = [p.position for p in state.objects.values()] + [state.gripper.eef_pose.position]
    return all(np.all(p >= lo) and np.all(p <= hi) for p in pts)


def test_criterion_06_expert_equivariance(stack_task, coffee_task, stack_demos, coffee_demos):
    rng = np.random.default_rng(106)
    results = {}
    for task, demos, name in ((stack_task, stack_demos, "stack"), (coffee_task, coffee_demos, "coffee")):
        checked = 0
        worst = 0.0
        for traj in demos.trajectories:
            for ts in traj.timesteps[:: max(1, len(traj.timesteps) // 10)]:
                state = sim_state_from_timestep(ts, task)
                base = expert_action(state, task, ts.phase)
                done = 0
                while done < 3:
                    g = SE3Transform(
                        quat_from_yaw(rng.uniform(-np.pi, np.pi)),
                        np.array([rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05), 0.0]),
                    )
                    moved = _planar_state(state, g)
                    if not _in_box(moved, task):
                        continue
                    done += 1
                    got = expert_action(moved, task, ts.phase)
                    want = g.apply_pose(base.target_eef_pose)
                    worst = max(
                        worst,
                        float(np.linalg.norm(got.target_eef_pose.position - want.position)),
                        quat_geodesic(got.target_eef_pose.orientation, want.orientation),
                        abs(got.gripper_command - base.gripper_command),
                    )
                    checked += 1
        results[name] = (checked, worst)
    ok = all(c >= 100 and w <= 1e-9 for c, w in results.values())
    report(
        "06 expert-equivariance",
        ok,
        ", ".join(f"{k}: {c} transforms, worst err {w:.2e}" for k, (c, w) in results.items()),
    )


def _tree_digest(root):
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def test_criterion_07_pipeline_determinism(tmp_path):
    stages = (
        StageConfig("gen", {"count": 3}),
        StageConfig("segment"),
        StageConfig("se3", {"count": 2}),
        StageConfig("causal", {"copies": 1}),
        StageConfig("obs", {"noise_sigma": 0.005}),
        StageConfig("validate"),
    )
    digests = []
    for workers in (1, 8):
        out = tmp_path / f"workers_{workers}"
        run_pipeline(PipelineConfig("stack", stages, str(out), master_seed=107, workers=workers))
        digests.append(_tree_digest(out))
    same_files = set(digests[0]) == set(digests[1])
    same_bytes = digests[0] == digests[1]
    report(
        "07 pipeline-determinism",
        same_files and same_bytes,
        f"{len(digests[0])} files, workers 1 vs 8, byte-identical={same_bytes}",
    )


def test_criterion_08_serialization(tmp_path):
    failures = []
    for seed in range(8):
        ds = random_dataset(seed, n_traj=3, n_steps=6)
        p1, p2 = tmp_path / f"a{seed}", tmp_path / f"b{seed}"
        save_dataset(ds, p1)
        loaded = load_dataset(p1)
        if loaded != ds:
            failures.append(f"seed {seed}: load(save(ds)) != ds")
        save_dataset(loaded, p2)
        for f in sorted(p1.iterdir()):
            if f.read_bytes() != (p2 / f.name).read_bytes():
                failures.append(f"seed {seed}: byte mismatch {f.name}")
    report("08 serialization", not failures, failures or "8 random datasets round-trip field- and byte-exact")


def test_criterion_09_ratio_harness(stack_task):
    base = make_labeled_demos(stack_task, 50, seed_base=109)
    plan = RatioPlan(50, (0, 1, 2, 3, 5, 10))
    _, table = ratio_study(base, plan, stack_task.causal, CounterfactualConfig(master_seed=109))
    got = [row["synthetic_count"] for row in table]
    reals = [row["real_count"] for row in table]
    ok = got == [0, 50, 100, 150, 250, 500] and reals == [50] * 6
    report("09 ratio-harness", ok, f"synthetic counts {got}, real counts {reals}")


def test_criterion_10_visual_proprio_properties(tmp_path, stack_task, stack_demos):
    failures = []
    img = rasterize_state(reset(stack_task, 110), stack_task, size=64)

    ident = random_resized_crop(img, VisualAugConfig(crop_scale=(1.0, 1.0), output_hw=img.shape[:2]),
                                derive_stream(0, "a"))
    if not np.array_equal(ident, img):
        failures.append("crop identity not bit-exact")
    if not np.array_equal(color_jitter(img, VisualAugConfig(), derive_stream(0, "b")), img):
        failures.append("jitter identity not bit-exact")
    if not np.array_equal(gaussian_blur(img, 0.0), img):
        failures.append("blur sigma=0 not bit-exact")

    if not np.array_equal(channel_permute(channel_permute(img, (2, 0, 1)), (1, 2, 0)), img):
        failures.append("channel permutation inverse not bit-exact")

    kerr = max(abs(gaussian_kernel(s).sum() - 1.0) for s in (0.3, 1.0, 2.5))
    if kerr > 1e-12:
        failures.append(f"blur kernel normalization error {kerr:.2e}")

    sigma = 0.01
    traj = stack_demos.trajectories[0]
    if proprio_noise(traj, 0.0, derive_stream(0, "c")) is not traj:
        failures.append("proprio sigma=0 not identity")
    rng = derive_stream(110, "d")
    deltas = []
    reps = int(np.ceil(100_000 / (len(traj) * 3)))
    for _ in range(reps):
        noisy = proprio_noise(traj, sigma, rng)
        deltas.extend(
            ts_n.robots[0].eef_pose.position - ts_o.robots[0].eef_pose.position
            for ts_o, ts_n in zip(traj.timesteps, noisy.timesteps)
        )
    flat = np.concatenate(deltas)
    std_err = abs(flat.std() - sigma) / sigma
    if flat.size < 100_000 or std_err > 0.02:
        failures.append(f"proprio std off by {std_err:.3%} at n={flat.size}")

    try:
        check_color_ops_allowed(color_sensitive=True, force=False)
        failures.append("color-sensitive jitter was not refused")
    except ColorJitterRefused:
        pass
    src = tmp_path / "img.ppm"
    write_ppm(src, img)
    code = cli_main(["augment-obs", "--image", str(src), "--image-out", str(tmp_path / "o.ppm"),
                     "--jitter", "0.2,0.2,0.2,0.5", "--task", "stack"])
    if code != 2:
        failures.append(f"CLI refusal exit code {code} != 2")
    code = cli_main(["augment-obs", "--image", str(src), "--image-out", str(tmp_path / "o.ppm"),
                     "--jitter", "0.2,0.2,0.2,0.5", "--task", "stack", "--force"])
    if code != 0:
        failures.append(f"CLI --force exit code {code} != 0")

    report(
        "10 visual-proprio-properties",
        not failures,
        failures or f"identities bit-exact, kernel err {kerr:.1e}, proprio std err {std_err:.3%}, refusal enforced",
    )
