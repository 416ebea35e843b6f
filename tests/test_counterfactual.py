import numpy as np
import pytest
from dataclasses import replace

from demoaug.counterfactual import (
    JITTER_BOUNDARY_MARGIN,
    CounterfactualConfig,
    augment_offline,
    build_phase_index,
    gripper_transit_jitter,
)
from demoaug.causal import swap_candidates
from demoaug.data import Dataset, Provenance
from demoaug.errors import InvariantViolation
from demoaug.geometry import quat_geodesic
from demoaug.retarget import InterpolationConfig, generate_demos
from demoaug.rng import derive_stream
from demoaug.sim import CLOSE_THRESHOLD, expert_action, sim_state_from_timestep
from tests.conftest import make_labeled_demos


def test_build_phase_index_covers_expected_donors(stack_task):
    ds = make_labeled_demos(stack_task, 2, seed_base=5)
    pool = build_phase_index(ds, stack_task.causal)
    # phase 2 (reach cube_c): the stacked pair {cube_a, cube_b} is donorable,
    # and every demo's phase-2 range donates it
    agent = stack_task.schema.agent
    assert frozenset({"cube_a", "cube_b"}) in {p.members for p in swap_candidates(stack_task.causal.phase(2), agent)}
    assert [d.traj for d in pool[2]] == list(ds.trajectories)
    # hand-enumerated: each entry is exactly the phase-2 range of its demo
    for donor in pool[2]:
        ranges = {p: (a, b) for p, a, b in donor.traj.phase_ranges()}
        assert (donor.t0, donor.t1) == ranges[2]
    # every key is a phase of the spec, and every entry that phase's range
    # in a trajectory of the dataset
    assert sorted(pool) == [p.phase_index for p in stack_task.causal.phases]
    for phase, donors in pool.items():
        for d in donors:
            assert all(ts.phase == phase for ts in d.traj.timesteps[d.t0:d.t1])
            assert d.traj in ds.trajectories


def test_build_phase_index_empty_dataset(stack_task):
    ds = Dataset(stack_task.schema, ())
    assert build_phase_index(ds, stack_task.causal) == {}


def test_single_trajectory_has_no_donors(stack_task):
    ds = make_labeled_demos(stack_task, 1)
    pool = build_phase_index(ds, stack_task.causal)
    assert pool  # the one trajectory holds every phase range ...
    for phase, donors in pool.items():
        assert [d.traj.traj_id for d in donors] == ["demo_000"]  # ... and is no donor to itself
        assert _donor_timesteps(pool, phase, exclude_traj="demo_000") == []


def _donor_timesteps(pool, phase, exclude_traj):
    """Every timestep of the phase ranges that may donate a partition of
    `phase` to a copy of trajectory `exclude_traj`."""
    return [ts for d in pool[phase] if d.traj.traj_id != exclude_traj
            for ts in d.traj.timesteps[d.t0:d.t1]]


def test_unlabeled_trajectory_rejected(stack_task):
    ds = make_labeled_demos(stack_task, 1)
    raw = replace(ds.trajectories[0], timesteps=tuple(replace(ts, phase=None) for ts in ds.trajectories[0].timesteps))
    with pytest.raises(InvariantViolation, match="trajectory 'demo_000' has unlabeled timesteps"):
        build_phase_index(Dataset(stack_task.schema, (raw,)), stack_task.causal)


def test_augment_swaps_donor_partition_states(stack_task, stack_demos):
    cfg = CounterfactualConfig(master_seed=1, swap_probability=1.0, copies_per_trajectory=1)
    out = augment_offline(stack_demos, stack_task.causal, cfg)
    assert len(out) == 2 * len(stack_demos)
    copies = [t for t in out.trajectories if t.provenance is Provenance.COUNTERFACTUAL_SYNTHETIC]
    pool = build_phase_index(stack_demos, stack_task.causal)
    for copy in copies:
        src = stack_demos.trajectory(copy.traj_id.rsplit("_cf", 1)[0])
        swapped_somewhere = False
        for phase, t0, t1 in copy.phase_ranges():
            for ts_c, ts_s in zip(copy.timesteps[t0:t1], src.timesteps[t0:t1]):
                # actions byte-identical
                assert ts_c.actions == ts_s.actions
                assert ts_c.robots == ts_s.robots
            # swapped partitions must hold verbatim donor states (phase 2: {a, b})
            if phase == 2:
                sig = frozenset({"cube_a", "cube_b"})
                state_a = copy.timesteps[t0].entity("cube_a")
                # donor validity: the swapped state is the very object a donor timestep holds
                assert any(ts.entity("cube_a") is state_a
                           for ts in _donor_timesteps(pool, phase, src.traj_id))
                if state_a != src.timesteps[t0].entity("cube_a"):
                    swapped_somewhere = True
        assert swapped_somewhere


def test_partitions_swap_together(stack_task, stack_demos):
    """Entities of one partition always come from the same donor timestep."""
    cfg = CounterfactualConfig(master_seed=3, swap_probability=1.0, copies_per_trajectory=2)
    out = augment_offline(stack_demos, stack_task.causal, cfg)
    pool = build_phase_index(stack_demos, stack_task.causal)
    for copy in (t for t in out.trajectories if t.provenance is Provenance.COUNTERFACTUAL_SYNTHETIC):
        src_id = copy.traj_id.rsplit("_cf", 1)[0]
        for phase, t0, t1 in copy.phase_ranges():
            if phase != 2:
                continue
            sig = frozenset({"cube_a", "cube_b"})
            pair = {eid: copy.timesteps[t0].entity(eid) for eid in sig}
            assert any(all(ts.entity(eid) == pair[eid] for eid in sig)
                       for ts in _donor_timesteps(pool, phase, src_id))


def test_swap_probability_zero_duplicates(stack_demos, stack_task):
    cfg = CounterfactualConfig(master_seed=2, swap_probability=0.0, copies_per_trajectory=1)
    out = augment_offline(stack_demos, stack_task.causal, cfg)
    copies = [t for t in out.trajectories if t.provenance is Provenance.COUNTERFACTUAL_SYNTHETIC]
    for copy in copies:
        src = stack_demos.trajectory(copy.traj_id.rsplit("_cf", 1)[0])
        assert copy.timesteps == src.timesteps
        assert copy.provenance != src.provenance


def test_augment_deterministic(stack_demos, stack_task):
    cfg = CounterfactualConfig(master_seed=9, swap_probability=0.7, copies_per_trajectory=2)
    a = augment_offline(stack_demos, stack_task.causal, cfg)
    b = augment_offline(stack_demos, stack_task.causal, cfg)
    assert a == b


def test_no_donor_degrades_to_unswapped_copy(stack_task):
    ds = make_labeled_demos(stack_task, 1)
    cfg = CounterfactualConfig(master_seed=0, swap_probability=1.0, copies_per_trajectory=3)
    info: dict = {}
    out = augment_offline(ds, stack_task.causal, cfg, report=info)
    assert len(out) == 4  # original + 3 copies, counts stay exact
    assert info["no_donor_copies"] == 3
    for copy in out.trajectories[1:]:
        assert copy.timesteps == ds.trajectories[0].timesteps


def test_expert_oracle_on_augmented_states(stack_task, stack_demos):
    """Scripted expert on swapped states reproduces stored actions: the
    executable form of action invariance to the irrelevant partition."""
    cfg = CounterfactualConfig(master_seed=5, swap_probability=1.0, copies_per_trajectory=2)
    out = augment_offline(stack_demos, stack_task.causal, cfg)
    checked = 0
    for traj in out.trajectories:
        if traj.provenance is not Provenance.COUNTERFACTUAL_SYNTHETIC:
            continue
        for ts in traj.timesteps:
            state = sim_state_from_timestep(ts, stack_task)
            act = expert_action(state, stack_task, ts.phase)
            stored = ts.actions[0]
            dp = float(np.linalg.norm(act.target_eef_pose.position - stored.target_eef_pose.position))
            dq = quat_geodesic(act.target_eef_pose.orientation, stored.target_eef_pose.orientation)
            assert dp <= 1e-9 and dq <= 1e-9
            assert act.gripper_command == stored.gripper_command
            checked += 1
    assert checked >= 500


def test_jitter_zero_range_is_identity(stack_demos, stack_task):
    cfg = CounterfactualConfig(master_seed=0, gripper_jitter_range=0.0)
    traj = stack_demos.trajectories[0]
    rng = derive_stream(0, "jitter")
    assert gripper_transit_jitter(traj, stack_task.causal, cfg, rng) is traj


def test_jitter_perturbs_obs_and_command_together(stack_demos, stack_task):
    cfg = CounterfactualConfig(master_seed=0, gripper_jitter_range=0.2)
    traj = stack_demos.trajectories[0]
    out = gripper_transit_jitter(traj, stack_task.causal, cfg, derive_stream(1, "jit"))
    changed = 0
    for ts_o, ts_n in zip(traj.timesteps, out.timesteps):
        ap_o, ap_n = ts_o.robots[0].gripper_aperture, ts_n.robots[0].gripper_aperture
        cmd_o, cmd_n = ts_o.actions[0].gripper_command, ts_n.actions[0].gripper_command
        if ap_o != ap_n:
            changed += 1
            assert 0.8 <= ap_n <= 1.0  # aperture was 1.0, range 0.2, clamped
            # same draw applied to both sides when both started equal
            if ap_o == cmd_o:
                assert abs((ap_n - ap_o) - (cmd_n - cmd_o)) <= 1e-15 or ap_n == 1.0
        # positions and entity states untouched
        assert ts_n.actions[0].target_eef_pose == ts_o.actions[0].target_eef_pose
        assert ts_n.entities == ts_o.entities
    assert changed > 0


def test_jitter_never_touches_carry_or_boundary_window(stack_demos, stack_task):
    cfg = CounterfactualConfig(master_seed=0, gripper_jitter_range=0.3)
    traj = stack_demos.trajectories[0]
    out = gripper_transit_jitter(traj, stack_task.causal, cfg, derive_stream(2, "jit"))
    ranges = {p: (a, b) for p, a, b in traj.phase_ranges()}
    for i, (ts_o, ts_n) in enumerate(zip(traj.timesteps, out.timesteps)):
        if ts_o.robots[0].gripper_aperture != ts_n.robots[0].gripper_aperture:
            p = ts_o.phase
            assert stack_task.causal.phase(p).grasp_closes
            t0, t1 = ranges[p]
            assert i < t1 - JITTER_BOUNDARY_MARGIN
            assert ts_o.robots[0].gripper_aperture > CLOSE_THRESHOLD


def test_aligned_donor_policy_tracks_relative_index(stack_task, stack_demos):
    cfg = CounterfactualConfig(master_seed=11, swap_probability=1.0, copies_per_trajectory=1,
                               donor_policy="same_phase_aligned_timestep")
    out = augment_offline(stack_demos, stack_task.causal, cfg)
    pool = build_phase_index(stack_demos, stack_task.causal)
    for copy in (t for t in out.trajectories if t.provenance is Provenance.COUNTERFACTUAL_SYNTHETIC):
        src_id = copy.traj_id.rsplit("_cf", 1)[0]
        for phase, t0, t1 in copy.phase_ranges():
            if phase != 2:
                continue
            sig = frozenset({"cube_a", "cube_b"})
            # identify the donor by the first swapped timestep, then check
            # every timestep matches that donor at the aligned relative index
            first = {eid: copy.timesteps[t0].entity(eid) for eid in sig}
            donor = next(
                d for d in pool[phase]
                if d.traj.traj_id != src_id and all(d.traj.timesteps[d.t0].entity(eid) == first[eid] for eid in sig)
            )
            for t in range(t0, t1):
                at = min(donor.t0 + t - t0, donor.t1 - 1)
                for eid in sig:
                    assert copy.timesteps[t].entity(eid) == donor.traj.timesteps[at].entity(eid)


def test_jittered_trajectories_segment_identically(stack_task, stack_demos):
    from demoaug.segmentation import SegmentationConfig, assign_phases

    cfg = CounterfactualConfig(master_seed=0, gripper_jitter_range=0.1)
    seg = SegmentationConfig()
    for traj in stack_demos.trajectories:
        jittered = gripper_transit_jitter(traj, stack_task.causal, cfg, derive_stream(3, "jit", traj.traj_id))
        relabeled = assign_phases(jittered, stack_task.causal, seg)
        assert [ts.phase for ts in relabeled.timesteps] == [ts.phase for ts in traj.timesteps]


def test_expert_oracle_on_mixed_source_pool(stack_task, stack_demos):
    """Counterfactual copies of retargeted trajectories stay expert-consistent
    on every non-connector timestep. Interp-marked steps carry interpolation
    connector actions rather than expert outputs, so the expert oracle does
    not apply there (the connector is equally independent of swapped
    partitions, keeping the pair valid)."""
    from demoaug.retarget import InterpolationConfig, generate_demos

    synth = generate_demos(stack_demos, stack_task.causal, None, InterpolationConfig(),
                           stack_task, 2, master_seed=19)
    merged = Dataset(stack_task.schema, stack_demos.trajectories + synth.trajectories)
    cfg = CounterfactualConfig(master_seed=19, swap_probability=1.0, copies_per_trajectory=1)
    aug = augment_offline(merged, stack_task.causal, cfg)
    checked = 0
    for tr in aug.trajectories:
        if tr.provenance is not Provenance.COUNTERFACTUAL_SYNTHETIC:
            continue
        for ts in tr.timesteps:
            if ts.interp:
                continue
            s = sim_state_from_timestep(ts, stack_task)
            a = expert_action(s, stack_task, ts.phase)
            stored = ts.actions[0]
            assert float(np.linalg.norm(
                a.target_eef_pose.position - stored.target_eef_pose.position)) <= 1e-9
            assert quat_geodesic(a.target_eef_pose.orientation,
                                 stored.target_eef_pose.orientation) <= 1e-9
            checked += 1
    assert checked >= 500


def _labelled_past_the_spec(ds):
    """`ds` with the last five steps of its first trajectory labelled phase
    4, which the stack spec (phases 0-3) does not have."""
    first = ds.trajectories[0]
    steps = first.timesteps[:-5] + tuple(replace(ts, phase=4) for ts in first.timesteps[-5:])
    return replace(ds, trajectories=(replace(first, timesteps=steps),) + ds.trajectories[1:])


@pytest.mark.parametrize("call", ["augment_offline", "generate_demos", "generate_demos_count_0",
                                  "gripper_transit_jitter"])
def test_library_calls_refuse_a_phase_label_past_the_spec(stack_task, stack_demos, call):
    """The label contract holds for a library caller as at the CLI: an
    InvariantViolation naming the trajectory and the label, whatever the
    count, never a raw lookup error."""
    ds, spec = _labelled_past_the_spec(stack_demos), stack_task.causal
    calls = {
        "augment_offline": lambda: augment_offline(ds, spec, CounterfactualConfig()),
        "generate_demos": lambda: generate_demos(ds, spec, None, InterpolationConfig(), stack_task, 1),
        "generate_demos_count_0": lambda: generate_demos(ds, spec, None, InterpolationConfig(), stack_task, 0),
        "gripper_transit_jitter": lambda: gripper_transit_jitter(
            ds.trajectories[0], spec, CounterfactualConfig(gripper_jitter_range=0.1), derive_stream(0, "jitter")),
    }
    traj_id = ds.trajectories[0].traj_id
    with pytest.raises(InvariantViolation,
                       match=rf"^trajectory '{traj_id}', timestep \d+: phase (label )?4 is past the causal spec's 4 phases$"):
        calls[call]()


def test_a_spec_phase_past_its_phases_is_an_error(stack_task):
    assert stack_task.causal.phase(3).phase_index == 3
    for index in (4, -1):
        with pytest.raises(InvariantViolation, match=rf"^phase {index} is past the causal spec's 4 phases$"):
            stack_task.causal.phase(index)
