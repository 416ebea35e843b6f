import numpy as np
import pytest
from dataclasses import replace
from unittest import mock

from demoaug.data import Action, timestep_to_json
from demoaug.errors import InvariantViolation
from demoaug.geometry import Pose, SE3Transform, quat_from_yaw, quat_geodesic
from demoaug.segmentation import SegmentationConfig, assign_phases
from demoaug.sim import (
    LID_CLOSED_THRESHOLD,
    LID_OPEN_ANGLE,
    PoseSampler,
    SimState,
    _scan_phase,
    check_success,
    expert_action,
    observe,
    replay,
    reset,
    rollout_expert,
    sim_state_from_timestep,
    step,
)
from demoaug import render
from demoaug.render import rasterize_state
from demoaug.tasks import task_from_dict
from tests.conftest import bundled_task_json, replay_states, stack_task_plus


def test_reset_deterministic(stack_task):
    a = reset(stack_task, 123)
    b = reset(stack_task, 123)
    for eid in a.objects:
        assert a.objects[eid] == b.objects[eid]
    assert a.gripper == b.gripper


def test_reset_degenerate_samplers_hit_exact_poses(stack_task):
    samplers = {
        "cube_a": PoseSampler((-0.1, -0.1), (-0.1, -0.1), (0.02, 0.02)),
        "cube_b": PoseSampler((0.1, 0.1), (-0.1, -0.1), (0.02, 0.02)),
        "cube_c": PoseSampler((-0.1, -0.1), (0.1, 0.1), (0.02, 0.02)),
    }
    task = replace(stack_task, samplers=samplers)
    state = reset(task, 0)
    assert np.allclose(state.objects["cube_a"].position, [-0.1, -0.1, 0.02])
    assert np.allclose(state.objects["cube_b"].position, [0.1, -0.1, 0.02])


def test_reset_overlap_forces_placement_failure(stack_task):
    samplers = {eid: PoseSampler((0.0, 0.0), (0.0, 0.0), (0.02, 0.02)) for eid in stack_task.samplers}
    task = replace(stack_task, samplers=samplers)
    with pytest.raises(InvariantViolation, match="no non-overlapping placement found in 1000 attempts"):
        reset(task, 0)


def test_step_fixed_point(stack_task):
    state = reset(stack_task, 5)
    hold = Action(state.gripper.eef_pose, state.gripper.gripper_aperture)
    after = step(state, hold, stack_task)
    assert after.gripper.eef_pose == state.gripper.eef_pose
    assert after.gripper.gripper_aperture == state.gripper.gripper_aperture
    for eid in state.objects:
        assert after.objects[eid] == state.objects[eid]


def test_step_deterministic_bit_exact(stack_task):
    state = reset(stack_task, 6)
    target = Pose(state.gripper.eef_pose.position + np.array([0.05, -0.03, -0.04]), quat_from_yaw(0.4))
    act = Action(Pose(np.clip(target.position, stack_task.schema.workspace_min,
                              stack_task.schema.workspace_max), target.orientation), 0.3)
    a = step(state, act, stack_task)
    b = step(state, act, stack_task)
    assert a.gripper.eef_pose == b.gripper.eef_pose
    assert a.gripper.gripper_aperture == b.gripper.gripper_aperture


def test_attachment_invariant_through_carry(stack_task):
    traj = rollout_expert(stack_task, seed=2)
    assert replay(traj, stack_task)[1]
    for s in replay_states(traj, stack_task):
        if s.attachment is None:
            continue
        eid, offset = s.attachment
        expected = SE3Transform(s.gripper.eef_pose.orientation, s.gripper.eef_pose.position).compose(offset)
        obj = s.objects[eid]
        assert np.linalg.norm(expected.translation - obj.position) <= 1e-12
        assert quat_geodesic(expected.rotation, obj.orientation) <= 1e-12


def test_release_snaps_to_stack_top(stack_task):
    state = reset(stack_task, 3)
    b_pose = state.objects["cube_b"]
    h = 0.04
    # place cube_a artificially in the gripper right above cube_b, then open
    grip_pose = Pose(b_pose.position + np.array([0.0, 0.0, 0.15]), np.array([1.0, 0, 0, 0]))
    objects = dict(state.objects)
    objects["cube_a"] = grip_pose
    carried = SimState(objects, state.lids, replace(state.gripper, eef_pose=grip_pose, gripper_aperture=0.0),
                       ("cube_a", SE3Transform.identity()), 0)
    opened = carried
    for _ in range(6):
        opened = step(opened, Action(grip_pose, 1.0), stack_task)
    assert opened.attachment is None
    dropped = opened.objects["cube_a"]
    assert abs(dropped.position[2] - (b_pose.position[2] + h)) <= 1e-9
    assert np.allclose(dropped.position[:2], grip_pose.position[:2])


def test_release_on_empty_table_snaps_to_rest(stack_task):
    state = reset(stack_task, 3)
    spot = Pose(np.array([0.0, 0.25, 0.18]), np.array([1.0, 0, 0, 0]))
    objects = dict(state.objects)
    objects["cube_a"] = spot
    carried = SimState(objects, state.lids, replace(state.gripper, eef_pose=spot, gripper_aperture=0.0),
                       ("cube_a", SE3Transform.identity()), 0)
    opened = carried
    for _ in range(6):
        opened = step(opened, Action(spot, 1.0), stack_task)
    assert abs(opened.objects["cube_a"].position[2] - 0.02) <= 1e-9


def test_check_success_examples(stack_task):
    state = reset(stack_task, 8)
    assert not check_success(state, stack_task)
    objects = dict(state.objects)
    b = objects["cube_b"].position
    objects["cube_a"] = Pose(np.array([b[0], b[1], b[2] + 0.04]), objects["cube_a"].orientation)
    objects["cube_c"] = Pose(np.array([b[0], b[1], b[2] + 0.08]), objects["cube_c"].orientation)
    stacked = SimState(objects, state.lids, state.gripper, None, 0)
    assert check_success(stacked, stack_task)


def test_unknown_task_kind(stack_task):
    with pytest.raises(InvariantViolation, match=r"unknown task kind 'juggling' \(known kinds: stack3, pod_lid\)"):
        replace(stack_task, kind="juggling")


@pytest.mark.parametrize("task_name", ["stack_task", "coffee_task"])
def test_phase_out_of_range(request, task_name):
    task = request.getfixturevalue(task_name)
    state = reset(task, 0)
    for phase in (-1, task.causal.num_phases):
        with pytest.raises(InvariantViolation, match=f"^{task.kind} has no phase {phase}$"):
            check_success(state, task, phase)
        with pytest.raises(InvariantViolation, match=f"^{task.kind} has no phase {phase}$"):
            expert_action(state, task, phase)


def test_rollout_then_replay_matches_trace(stack_task):
    traj = rollout_expert(stack_task, seed=11)
    final, ok = replay(traj, stack_task)
    states = replay_states(traj, stack_task)
    assert ok and final == states[-1]
    # replayed states reproduce the stored observations exactly
    for ts, s in zip(traj.timesteps, states):
        for e in ts.entities:
            assert e.pose == s.objects[e.entity_id]
        assert ts.robots[0].eef_pose == s.gripper.eef_pose
        assert ts.robots[0].gripper_aperture == s.gripper.gripper_aperture


def test_replay_detects_corrupted_action(stack_task):
    traj = rollout_expert(stack_task, seed=12)
    assert replay(traj, stack_task)[1]
    labeled = assign_phases(traj, stack_task.causal, SegmentationConfig())
    # shift the grasp-critical action (the last one before the gripper
    # crosses closed) half a meter: the grasp misses or picks up the block
    # with an offset beyond placement tolerance
    idx = next(i for i, ts in enumerate(labeled.timesteps) if ts.phase == 1) - 1
    ts = labeled.timesteps[idx]
    act = ts.actions[0]
    shifted = Pose(
        np.clip(act.target_eef_pose.position + np.array([0.5, 0.0, 0.0]),
                stack_task.schema.workspace_min, stack_task.schema.workspace_max),
        act.target_eef_pose.orientation,
    )
    new_ts = replace(ts, actions=(replace(act, target_eef_pose=shifted),))
    broken = replace(labeled, timesteps=labeled.timesteps[:idx] + (new_ts,) + labeled.timesteps[idx + 1:])
    _, ok = replay(broken, stack_task)
    assert not ok


def test_coffee_rollout_closes_lid(coffee_task):
    traj = rollout_expert(coffee_task, seed=4)
    final, ok = replay(traj, coffee_task)
    assert ok
    assert final.lids["machine"] <= LID_CLOSED_THRESHOLD


def test_expert_causal_invariance_randomized(stack_task, stack_demos):
    """Perturbing entities outside the phase's dependent partition leaves the
    expert action bit-identical."""
    from demoaug.causal import swap_candidates

    rng = np.random.default_rng(0)
    trials = 0
    for traj in stack_demos.trajectories:
        for ts in traj.timesteps[:: max(1, len(traj.timesteps) // 40)]:
            state = sim_state_from_timestep(ts, stack_task)
            base = expert_action(state, stack_task, ts.phase)
            free = swap_candidates(stack_task.causal.phase(ts.phase), stack_task.schema.agent)
            free_ids = [m for p in free for m in p.members]
            if not free_ids:
                continue
            for _ in range(8):
                objects = dict(state.objects)
                for eid in free_ids:
                    objects[eid] = Pose(
                        np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), 0.02]),
                        quat_from_yaw(rng.uniform(-np.pi, np.pi)),
                    )
                perturbed = SimState(objects, state.lids, state.gripper, state.attachment, 0)
                got = expert_action(perturbed, stack_task, ts.phase)
                assert got.target_eef_pose == base.target_eef_pose
                assert got.gripper_command == base.gripper_command
                trials += 1
    assert trials >= 1000


def _apply_planar_to_state(state, g):
    objects = {eid: g.apply_pose(p) for eid, p in state.objects.items()}
    gripper = replace(state.gripper, eef_pose=g.apply_pose(state.gripper.eef_pose))
    return SimState(objects, state.lids, gripper, state.attachment, state.step_count)


def _in_workspace(state, task):
    lo, hi = task.schema.workspace_min, task.schema.workspace_max
    points = [p.position for p in state.objects.values()] + [state.gripper.eef_pose.position]
    return all(np.all(p >= lo) and np.all(p <= hi) for p in points)


@pytest.mark.parametrize("task_name", ["stack", "coffee"])
def test_expert_planar_equivariance(task_name, stack_task, coffee_task, stack_demos, coffee_demos):
    task = stack_task if task_name == "stack" else coffee_task
    demos = stack_demos if task_name == "stack" else coffee_demos
    rng = np.random.default_rng(1)
    checked = 0
    for traj in demos.trajectories:
        for ts in traj.timesteps[:: max(1, len(traj.timesteps) // 10)]:
            state = sim_state_from_timestep(ts, task)
            base = expert_action(state, task, ts.phase)
            tries = 0
            while tries < 4:
                g = SE3Transform(quat_from_yaw(rng.uniform(-np.pi, np.pi)),
                                 np.array([rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05), 0.0]))
                moved = _apply_planar_to_state(state, g)
                if not _in_workspace(moved, task):
                    continue
                tries += 1
                got = expert_action(moved, task, ts.phase)
                expected_pose = g.apply_pose(base.target_eef_pose)
                assert np.linalg.norm(got.target_eef_pose.position - expected_pose.position) <= 1e-9
                assert quat_geodesic(got.target_eef_pose.orientation, expected_pose.orientation) <= 1e-9
                assert got.gripper_command == base.gripper_command
                checked += 1
    assert checked >= 100


def test_rasterizer_deterministic_and_shaped(stack_task):
    state = reset(stack_task, 9)
    img1 = rasterize_state(state, stack_task, size=96)
    img2 = rasterize_state(state, stack_task, size=96)
    assert img1.shape == (96, 96, 3) and img1.dtype == np.uint8
    assert np.array_equal(img1, img2)
    # moving a block changes the image
    objects = dict(state.objects)
    objects["cube_a"] = Pose(np.array([0.3, 0.3, 0.02]), objects["cube_a"].orientation)
    img3 = rasterize_state(SimState(objects, state.lids, state.gripper, None, 0), stack_task, size=96)
    assert not np.array_equal(img1, img3)


def _broadcast_background(size):
    img = np.empty((size, size, 3), dtype=np.uint8)
    img[...] = render._BACKGROUND
    return img


@pytest.mark.parametrize("size", [1, 2, 3, 64, 128, 257])
def test_rasterizer_background_rows_match_the_broadcast_fill(stack_task, coffee_task, size):
    """The frame filled by background rows equals the one filled by
    broadcasting the background 3-tuple, before and after the drawing."""
    assert np.array_equal(render._background(size), _broadcast_background(size))
    for task in (stack_task, coffee_task):
        for seed in range(20):
            state = reset(task, seed)
            got = rasterize_state(state, task, size)
            with mock.patch.object(render, "_background", _broadcast_background):
                want = rasterize_state(state, task, size)
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_rasterizer_draws_a_receptacle_without_a_lid():
    """A receptacle entity with no lid_angle (the stack task plus a tray with
    the coffee machine's geometry) is drawn without the lid indicator."""
    coffee = bundled_task_json("coffee")
    task = task_from_dict(stack_task_plus("tray", "receptacle", coffee["samplers"]["machine"], coffee["geoms"]["machine"]))
    state = reset(task, 0)
    assert "tray" in state.objects and state.lids == {}
    img = rasterize_state(state, task, size=96)
    assert img.shape == (96, 96, 3) and img.dtype == np.uint8
    assert (img == (220, 160, 40)).all(axis=2).any()  # the tray's body, in the fourth palette color
    assert not (img == 60).all(axis=2).any()  # no lid shade (an open lid's is 60)
    lidded = rasterize_state(replace(state, lids={"tray": LID_OPEN_ANGLE}), task, size=96)
    assert (lidded == 60).all(axis=2).any()


def test_sampler_box_outside_workspace_rejected(stack_task):
    from demoaug.errors import InvariantViolation

    samplers = dict(stack_task.samplers)
    samplers["cube_a"] = PoseSampler((0.3, 0.5), (0.0, 0.0), (0.02, 0.02))
    with pytest.raises(InvariantViolation, match="workspace"):
        reset(replace(stack_task, samplers=samplers), 0)


def test_expert_commands_close_at_grasp_pose(stack_task):
    state = reset(stack_task, 17)
    target = state.objects["cube_a"]
    at_grasp = SimState(
        state.objects, state.lids,
        replace(state.gripper, eef_pose=Pose(target.position, state.gripper.eef_pose.orientation)),
        None, 0,
    )
    act = expert_action(at_grasp, stack_task, 0)
    assert act.gripper_command == 0.0
    assert act.target_eef_pose == at_grasp.gripper.eef_pose


def test_expert_unreachable_target(stack_task):
    state = reset(stack_task, 18)
    objects = dict(state.objects)
    # object artificially placed outside the workspace box
    objects["cube_a"] = Pose(np.array([0.5, 0.0, 0.02]), objects["cube_a"].orientation)
    bad = SimState(objects, state.lids, state.gripper, None, 0)
    with pytest.raises(InvariantViolation, match=r"grasp point for cube_a \[0.5, 0.0, 0.02\] outside workspace"):
        expert_action(bad, stack_task, 0)


def test_ambiguous_attachment_inference(stack_task):
    from demoaug.data import EntityState, Timestep, Action, RobotState

    state = reset(stack_task, 19)
    spot = np.array([0.0, 0.25, 0.02])
    entities = []
    for decl in stack_task.schema.entities:
        pose = state.objects[decl.entity_id]
        if decl.entity_id in ("cube_a", "cube_b"):
            pose = Pose(spot + (0.001 if decl.entity_id == "cube_b" else 0.0), pose.orientation)
        entities.append(EntityState(decl.entity_id, pose))
    grip = RobotState(Pose(spot, np.array([1.0, 0, 0, 0])), 0.0)
    ts = Timestep(0, tuple(entities), (grip,), (Action(grip.eef_pose, 0.0),))
    with pytest.raises(InvariantViolation, match=r"timestep 0: ambiguous attachment among \['cube_a', 'cube_b'\]"):
        sim_state_from_timestep(ts, stack_task)


def reference_rollout_steps(task, seed, max_steps=400, tail_steps=3):
    """rollout_expert's timesteps as the loop made them when it scanned each
    state's phase twice: once after the step, again before the next one."""
    state = reset(task, seed)
    timesteps = []
    for t in range(max_steps):
        phase = _scan_phase(state, task)
        acting_phase = phase if phase is not None else task.causal.num_phases - 1
        action = expert_action(state, task, acting_phase)
        timesteps.append(observe(state, task, t, action))
        state = step(state, action, task)
        if _scan_phase(state, task) is None and check_success(state, task):
            if tail_steps == 0:
                break
            tail_steps -= 1
    return timesteps


@pytest.mark.parametrize("name", ["stack", "coffee"])
def test_rollout_matches_twice_scanned_reference(name, stack_task, coffee_task):
    task = {"stack": stack_task, "coffee": coffee_task}[name]
    for seed in range(3):
        got = [timestep_to_json(ts, task.schema) for ts in rollout_expert(task, seed).timesteps]
        assert got == [timestep_to_json(ts, task.schema) for ts in reference_rollout_steps(task, seed)]


def _dial_update(task, entity_id, value, objects, old_eef, new_eef):
    """A test-only articulated state: a dial that adds up the end effector's
    vertical travel."""
    return value + abs(new_eef.xyz[2] - old_eef.xyz[2])


def test_a_kind_in_the_table_brings_its_own_articulated_state(monkeypatch, tmp_path, stack_task):
    """A test-only kind (stack3's roles, phases and success, plus a dial on
    cube_c observed as `dial`) runs through reset, step, observe, the dataset
    codec and replay from its TASK_KINDS entry alone."""
    from demoaug import sim
    from demoaug.data import Dataset, load_dataset, save_dataset

    checked = []
    dial = sim.Articulation("dial", lambda task, eid: checked.append(eid), 0.25, _dial_update)
    monkeypatch.setitem(sim.TASK_KINDS, "stack3_dial", replace(sim.TASK_KINDS["stack3"], articulation=dial))
    obj = bundled_task_json("stack")
    obj["kind"] = "stack3_dial"
    next(e for e in obj["schema"]["entities"] if e["entity_id"] == "cube_c")["extra_fields"] = ["dial"]
    task = task_from_dict(obj)
    assert checked == ["cube_c"]
    assert reset(task, 0).lids == {"cube_c": 0.25}

    traj = rollout_expert(task, 0)
    dials = [ts.entity("cube_c").extra["dial"] for ts in traj.timesteps]
    assert dials[0] == 0.25
    for before, after, d0, d1 in zip(traj.timesteps, traj.timesteps[1:], dials, dials[1:]):
        assert d1 == d0 + abs(after.robots[0].eef_pose.xyz[2] - before.robots[0].eef_pose.xyz[2])
    assert dials[-1] > 0.25

    ds = Dataset(task.schema, (traj,))
    save_dataset(ds, tmp_path / "dial")
    loaded = load_dataset(tmp_path / "dial")
    assert loaded == ds
    ok = replay(loaded.trajectories[0], task)[1]
    states = replay_states(loaded.trajectories[0], task)
    assert ok and [s.lids["cube_c"] for s in states[:-1]] == dials

    # a stack3 task does not simulate the dial, and an unknown field names both kinds' fields
    obj["kind"] = "stack3"
    with pytest.raises(InvariantViolation, match="extra field 'dial', which a stack3 task does not simulate"):
        task_from_dict(obj)
    next(e for e in obj["schema"]["entities"] if e["entity_id"] == "cube_c")["extra_fields"] = ["knob"]
    with pytest.raises(InvariantViolation, match="the simulator sources only lid_angle, dial"):
        task_from_dict(obj)


def test_stack3_states_carry_no_articulated_state(stack_task):
    assert reset(stack_task, 3).lids == {}
    traj = rollout_expert(stack_task, 3)
    assert replay(traj, stack_task)[1]
    assert all(s.lids == {} for s in replay_states(traj, stack_task))


def test_a_stack_task_with_a_lidded_receptacle_is_refused():
    """The lid is the pod_lid kind's articulated state: a stack3 task whose
    receptacle declares lid_angle is refused when it is built."""
    coffee = bundled_task_json("coffee")
    obj = stack_task_plus("tray", "receptacle", coffee["samplers"]["machine"], coffee["geoms"]["machine"])
    obj["schema"]["entities"][-1]["extra_fields"] = ["lid_angle"]
    with pytest.raises(InvariantViolation, match="extra field 'lid_angle', which a stack3 task does not simulate"):
        task_from_dict(obj)


@pytest.mark.parametrize("z", [1e308, 280000.0, -0.01])
def test_home_pose_outside_workspace_is_refused_when_the_task_is_built(stack_task, z):
    x, y, _ = stack_task.home_pose.xyz
    with pytest.raises(InvariantViolation, match=r"home_pose \[.*\] outside workspace"):
        replace(stack_task, home_pose=Pose((x, y, z), stack_task.home_pose.wxyz))
