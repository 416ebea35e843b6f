import pytest

from demoaug.data import Action, EntityState, Provenance, RobotState, Timestep, Trajectory
from demoaug.errors import InvariantViolation
from demoaug.geometry import Pose
from demoaug.segmentation import PhaseBoundary, SegmentationConfig, assign_phases, detect_boundaries
from demoaug.causal import CausalGraph, PhaseSpec, TaskCausalSpec


def traj_from_apertures(apertures):
    steps = []
    for t, ap in enumerate(apertures):
        steps.append(
            Timestep(
                t,
                (EntityState("obj", Pose.identity()),),
                (RobotState(Pose.identity(), float(ap)),),
                (Action(Pose.identity(), float(ap)),),
            )
        )
    return Trajectory("apt", tuple(steps), True, Provenance.HUMAN_SOURCE)


def single_phase_spec(n_segments=1):
    g = CausalGraph.from_edges(("robot0", "obj"), [("robot0", "obj")])
    phases = (PhaseSpec(0, g, "obj", True),)
    return TaskCausalSpec(phases, tuple([0] * n_segments))


def two_phase_spec(merge_map):
    g = CausalGraph.from_edges(("robot0", "obj"), [("robot0", "obj")])
    phases = (
        PhaseSpec(0, g, "obj", True),
        PhaseSpec(1, g, "obj", False),
    )
    return TaskCausalSpec(phases, tuple(merge_map))


def test_boundaries_basic_runs():
    traj = traj_from_apertures([1] * 5 + [0] * 5 + [1] * 5)
    cfg = SegmentationConfig(debounce_steps=2)
    got = detect_boundaries(traj, cfg)
    assert [(b.t, b.transition) for b in got] == [(5, "open_to_close"), (10, "close_to_open")]


def test_boundaries_debounce_rejects_blip():
    traj = traj_from_apertures([1] * 5 + [0] * 1 + [1] * 4)
    cfg = SegmentationConfig(debounce_steps=2)
    assert detect_boundaries(traj, cfg) == []


def test_boundaries_constant_aperture():
    traj = traj_from_apertures([0.8] * 7)
    assert detect_boundaries(traj, SegmentationConfig()) == []


def test_boundaries_alternate_strictly():
    traj = traj_from_apertures([1] * 5 + [0] * 5 + [1] * 5 + [0] * 5 + [1] * 5)
    got = detect_boundaries(traj, SegmentationConfig(debounce_steps=2))
    transitions = [b.transition for b in got]
    assert transitions == ["open_to_close", "close_to_open", "open_to_close", "close_to_open"]


def test_boundary_invariants():
    with pytest.raises(Exception):
        PhaseBoundary(0, "open_to_close")
    with pytest.raises(Exception):
        PhaseBoundary(3, "sideways")


def test_assign_phases_zero_boundaries_single_phase():
    traj = traj_from_apertures([1.0] * 9)
    labeled = assign_phases(traj, single_phase_spec(), SegmentationConfig())
    assert all(ts.phase == 0 for ts in labeled.timesteps)


def test_assign_phases_merge_map_folds_segments():
    # open run, closed run, open run: 3 raw segments onto 2 phases
    traj = traj_from_apertures([1] * 6 + [0] * 6 + [1] * 6)
    labeled = assign_phases(traj, two_phase_spec([0, 1, 1]), SegmentationConfig(debounce_steps=2))
    labels = [ts.phase for ts in labeled.timesteps]
    assert labels == [0] * 6 + [1] * 12


def test_assign_phases_short_terminal_stub_merges_back():
    traj = traj_from_apertures([1] * 6 + [0] * 8 + [1] * 3)
    cfg = SegmentationConfig(debounce_steps=2, min_phase_len=5)
    labeled = assign_phases(traj, two_phase_spec([0, 1]), cfg)
    labels = [ts.phase for ts in labeled.timesteps]
    assert labels == [0] * 6 + [1] * 11


def test_assign_phases_count_mismatch():
    traj = traj_from_apertures([1] * 6 + [0] * 6 + [1] * 6)
    with pytest.raises(InvariantViolation, match="3 segments but merge map expects 2"):
        assign_phases(traj, two_phase_spec([0, 1]), SegmentationConfig(debounce_steps=2))


def test_assign_phases_idempotent(stack_task, stack_demos):
    cfg = SegmentationConfig()
    for traj in stack_demos.trajectories:
        again = assign_phases(traj, stack_task.causal, cfg)
        assert [ts.phase for ts in again.timesteps] == [ts.phase for ts in traj.timesteps]


def test_scripted_demos_segment_to_spec_counts(stack_task, stack_demos, coffee_task, coffee_demos):
    for ds, task, expected in ((stack_demos, stack_task, 4), (coffee_demos, coffee_task, 2)):
        for traj in ds.trajectories:
            labels = sorted({ts.phase for ts in traj.timesteps})
            assert labels == list(range(expected))
            seq = [ts.phase for ts in traj.timesteps]
            assert seq == sorted(seq)  # non-decreasing
