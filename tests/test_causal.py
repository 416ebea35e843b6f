from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demoaug.causal import (
    CausalGraph,
    PhaseSpec,
    TaskCausalSpec,
    count_partitions,
    join_adjacency,
    partitions,
    swap_candidates,
    causal_spec_from_dict,
    check_spec,
)
from demoaug.errors import InvariantViolation
from demoaug.retarget import InterpolationConfig, generate_demos
from demoaug.tasks import resolve_task
from tests.conftest import bundled_task_json


def brute_force_partitions(nodes, adj):
    """Independent oracle: plain union-find over symmetrized edges."""
    parent = list(range(len(nodes)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    n = len(nodes)
    for i in range(n):
        for j in range(n):
            if adj[i][j] or adj[j][i]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), set()).add(nodes[i])
    return sorted((frozenset(g) for g in groups.values()), key=min)


def random_graph(rng, n):
    adj = rng.random((n, n)) < 0.3
    np.fill_diagonal(adj, True)
    nodes = tuple(f"n{i}" for i in range(n))
    return CausalGraph(nodes, adj)


def test_partitions_match_brute_force_oracle():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        g = random_graph(rng, int(rng.integers(1, 9)))
        got = [p.members for p in partitions(g)]
        expected = brute_force_partitions(g.nodes, g.adjacency)
        assert got == expected


def test_partitions_stack_reach_top_phase():
    g = CausalGraph.from_edges(
        ("R", "A", "B", "C"), [("R", "C"), ("C", "R"), ("A", "B"), ("B", "A")]
    )
    parts = [p.members for p in partitions(g)]
    assert parts == [frozenset({"A", "B"}), frozenset({"C", "R"})]


def test_partitions_trivial_cases():
    empty = CausalGraph.from_edges(("a", "b", "c"), [])
    assert [p.members for p in partitions(empty)] == [frozenset({x}) for x in "abc"]
    full = CausalGraph(("a", "b", "c"), np.ones((3, 3), dtype=bool))
    assert [p.members for p in partitions(full)] == [frozenset("abc")]


def test_join_adjacency_examples():
    nodes = ("x", "y")
    ident = CausalGraph(nodes, np.eye(2, dtype=bool))
    assert np.array_equal(join_adjacency(ident, ident).adjacency, np.eye(2, dtype=bool))

    a1 = CausalGraph(nodes, np.array([[True, True], [False, True]]))
    a2 = CausalGraph(nodes, np.eye(2, dtype=bool))
    joined = join_adjacency(a1, a2)
    assert joined.adjacency[0, 1] and joined.adjacency[1, 0]
    assert np.array_equal(joined.adjacency, np.ones((2, 2), dtype=bool))


def test_join_adjacency_dimension_mismatch():
    a = CausalGraph(("x",), np.array([[True]]))
    b = CausalGraph(("x", "y"), np.eye(2, dtype=bool))
    with pytest.raises(InvariantViolation, match="node sets differ"):
        join_adjacency(a, b)


def test_join_adjacency_laws_randomized():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        a = random_graph(rng, n)
        b = CausalGraph(a.nodes, (rng.random((n, n)) < 0.3) | np.eye(n, dtype=bool))
        ab = join_adjacency(a, b)
        assert np.array_equal(ab.adjacency, ab.adjacency.T)  # symmetric
        ba = join_adjacency(b, a)
        assert np.array_equal(ab.adjacency, ba.adjacency)  # commutative
        aa = join_adjacency(a, a)
        assert np.array_equal(aa.adjacency, a.adjacency | a.adjacency.T)  # idempotent


@settings(max_examples=300)
@given(st.integers(1, 8), st.randoms(use_true_random=False))
def test_partition_list_is_set_partition(n, rnd):
    rng = np.random.default_rng(rnd.randint(0, 2**32 - 1))
    g = random_graph(rng, n)
    parts = partitions(g)
    members = [m for p in parts for m in p.members]
    assert sorted(members) == sorted(g.nodes)  # disjoint + covering
    assert all(p.members for p in parts)


def test_count_partitions_bundled_stack():
    assert count_partitions(resolve_task("stack").causal) == 8
    per_phase = [len(partitions(p.joint_graph())) for p in resolve_task("stack").causal.phases]
    assert per_phase == [3, 2, 2, 1]


def test_count_partitions_trivial():
    spec = resolve_task("stack").causal
    # single phase with a complete joint graph -> exactly one partition
    complete = PhaseSpec(0, spec.phases[3].graph, spec.phases[3].target_entity, False)
    assert count_partitions(TaskCausalSpec((complete,), (0,))) == 1
    # two phases of two singletons each -> 4
    empty = CausalGraph.from_edges(("R", "A"), [])
    p0 = PhaseSpec(0, empty, "A", True)
    p1 = PhaseSpec(1, empty, "A", False)
    assert count_partitions(TaskCausalSpec((p0, p1), (0, 1))) == 4


def test_resampleable_partitions_examples():
    spec = resolve_task("stack").causal
    phase3 = spec.phases[2]  # reach cube_c; stacked pair is independent
    free = swap_candidates(phase3, "robot0")
    assert [p.members for p in free] == [frozenset({"cube_a", "cube_b"})]

    phase4 = spec.phases[3]
    assert swap_candidates(phase4, "robot0") == []

    singles = CausalGraph.from_edges(("R", "A", "B"), [])
    phase = PhaseSpec(0, singles, "A", True)
    assert [p.members for p in swap_candidates(phase, "R")] == [frozenset({"B"})]


def test_resampleable_subset_and_exclusions():
    for task in (resolve_task("stack"), resolve_task("coffee")):
        agent = task.schema.agent
        for phase in task.causal.phases:
            free = swap_candidates(phase, agent)
            all_parts = {p.members for p in partitions(phase.graph)}
            for p in free:
                assert p.members in all_parts
                assert agent not in p.members
                assert phase.target_entity not in p.members


def test_spec_dict_round_trip():
    """A spec read from JSON holds the graphs and the merge map; put into a
    task, it is the task's spec, its phases filled in from the kind."""
    for name in ("stack", "coffee"):
        task, obj = resolve_task(name), bundled_task_json(name)["causal_spec"]
        spec, rebuilt = task.causal, causal_spec_from_dict(obj, task.schema)
        assert replace(task, causal=rebuilt).causal == spec
        assert rebuilt.segment_merge_map == spec.segment_merge_map
        for i, (a, b) in enumerate(zip(rebuilt.phases, spec.phases)):
            assert (a.phase_index, a.target_entity, a.grasp_closes) == (i, None, None)
            assert a.graph == b.graph


def test_the_task_kind_gives_each_phase_its_target_and_grasp_flag():
    """Each phase's index, target entity and grasp flag are the kind's phase
    table, over the task's roles, also for a spec built in Python."""
    kinds = {"stack": (("cube_a", "cube_b", "cube_c", "cube_a"), (True, False, True, False)),
             "coffee": (("pod", "machine"), (True, False))}
    for name, (targets, grasps) in kinds.items():
        task = resolve_task(name)
        assert tuple(p.phase_index for p in task.causal.phases) == tuple(range(len(targets)))
        assert tuple(p.target_entity for p in task.causal.phases) == targets
        assert tuple(p.grasp_closes for p in task.causal.phases) == grasps
        wrong = TaskCausalSpec(tuple(PhaseSpec(i, p.graph, task.schema.agent, not p.grasp_closes)
                                     for i, p in enumerate(task.causal.phases)), task.causal.segment_merge_map)
        assert replace(task, causal=wrong).causal == task.causal


def test_a_phase_without_its_tasks_target_is_refused(stack_demos):
    """A spec as read from JSON has no targets until a task fills them in:
    swap_candidates and SE(3) retargeting refuse it rather than read None."""
    task = resolve_task("stack")
    unfilled = causal_spec_from_dict(bundled_task_json("stack")["causal_spec"], task.schema)
    with pytest.raises(InvariantViolation, match="causal spec phase 0 has no target"):
        swap_candidates(unfilled.phases[0], task.schema.agent)
    with pytest.raises(InvariantViolation, match="causal spec phase 0 has no target"):
        generate_demos(stack_demos, unfilled, None, InterpolationConfig(), task, 1)


def test_check_spec_against_schema():
    stack, coffee = resolve_task("stack"), resolve_task("coffee")
    check_spec(stack.causal, stack.schema)
    check_spec(coffee.causal, coffee.schema)
    with pytest.raises(InvariantViolation, match=r"causal spec phase 0 has nodes \['cube_a', 'cube_b', 'cube_c', "
                                                 r"'robot0'\], not the schema's entities and agent \['machine', 'pod', 'robot0'\]"):
        check_spec(stack.causal, coffee.schema)


def test_diagonal_required():
    with pytest.raises(InvariantViolation):
        CausalGraph(("a", "b"), np.zeros((2, 2), dtype=bool))


def test_merge_map_validation():
    spec = resolve_task("stack").causal
    with pytest.raises(InvariantViolation):
        type(spec)(spec.phases, (0, 2, 1, 3))
    with pytest.raises(InvariantViolation):
        type(spec)(spec.phases, (0, 1, 2))  # not surjective
