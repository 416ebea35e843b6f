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
)
from demoaug.errors import InvariantViolation
from demoaug.tasks import resolve_task
from tests.conftest import bundled_task_json


def _graph(nodes, pairs):
    """Undirected interaction pairs -> adjacency with both directions set."""
    return CausalGraph.from_edges(nodes, [e for a, b in pairs for e in ((a, b), (b, a))])


def transport_causal_fixture() -> TaskCausalSpec:
    """Two-agent causal spec used to exercise multi-agent graph joins."""
    nodes = ("robot0", "robot1", "hammer", "cube", "bin_lid", "target_bin")
    phases = (
        PhaseSpec(
            0,
            {
                "robot0": _graph(nodes, [("robot0", "bin_lid")]),
                "robot1": _graph(nodes, [("robot1", "cube")]),
            },
            "bin_lid",
            True,
        ),
        PhaseSpec(
            1,
            {
                "robot0": _graph(nodes, [("robot0", "hammer")]),
                "robot1": _graph(nodes, [("robot1", "cube"), ("cube", "target_bin")]),
            },
            "hammer",
            True,
        ),
        PhaseSpec(
            2,
            {
                "robot0": _graph(nodes, [("robot0", "hammer"), ("hammer", "robot1")]),
                "robot1": _graph(nodes, [("robot1", "hammer")]),
            },
            "hammer",
            False,
        ),
    )
    return TaskCausalSpec("transport_fixture", phases, (0, 1, 2))


_TRANSPORT_NODES = ["robot0", "robot1", "hammer", "cube", "bin_lid", "target_bin"]

# transport_causal_fixture() in the JSON layout of a causal spec file
TRANSPORT_JSON = {
    "task_id": "transport_fixture",
    "phases": [
        {"phase_index": 0, "target_entity": "bin_lid", "grasp_closes": True, "agents": {
            "robot0": {"nodes": _TRANSPORT_NODES, "edges": [["robot0", "bin_lid"], ["bin_lid", "robot0"]]},
            "robot1": {"nodes": _TRANSPORT_NODES, "edges": [["robot1", "cube"], ["cube", "robot1"]]}}},
        {"phase_index": 1, "target_entity": "hammer", "grasp_closes": True, "agents": {
            "robot0": {"nodes": _TRANSPORT_NODES, "edges": [["robot0", "hammer"], ["hammer", "robot0"]]},
            "robot1": {"nodes": _TRANSPORT_NODES, "edges": [["robot1", "cube"], ["cube", "robot1"],
                                                            ["cube", "target_bin"], ["target_bin", "cube"]]}}},
        {"phase_index": 2, "target_entity": "hammer", "grasp_closes": False, "agents": {
            "robot0": {"nodes": _TRANSPORT_NODES, "edges": [["robot0", "hammer"], ["hammer", "robot0"],
                                                            ["hammer", "robot1"], ["robot1", "hammer"]]},
            "robot1": {"nodes": _TRANSPORT_NODES, "edges": [["robot1", "hammer"], ["hammer", "robot1"]]}}},
    ],
    "segment_merge_map": [0, 1, 2],
}


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
    complete = type(spec.phases[0])(0, spec.phases[3].graphs, spec.phases[3].target_entity, False)
    assert count_partitions(type(spec)("one", (complete,), (0,))) == 1
    # two phases of two singletons each -> 4
    nodes = ("R", "A")
    empty = CausalGraph.from_edges(nodes, [])
    p0 = type(spec.phases[0])(0, {"R": empty}, "A", True)
    p1 = type(spec.phases[0])(1, {"R": empty}, "A", False)
    assert count_partitions(type(spec)("two", (p0, p1), (0, 1))) == 4


def test_resampleable_partitions_examples():
    spec = resolve_task("stack").causal
    phase3 = spec.phases[2]  # reach cube_c; stacked pair is independent
    free = swap_candidates(phase3)
    assert [p.members for p in free] == [frozenset({"cube_a", "cube_b"})]

    phase4 = spec.phases[3]
    assert swap_candidates(phase4) == []

    singles = CausalGraph.from_edges(("R", "A", "B"), [])
    phase = type(spec.phases[0])(0, {"R": singles}, "A", True)
    assert [p.members for p in swap_candidates(phase)] == [frozenset({"B"})]


def test_resampleable_subset_and_exclusions():
    for spec in (resolve_task("stack").causal, resolve_task("coffee").causal):
        for phase in spec.phases:
            (agent,) = phase.graphs
            free = swap_candidates(phase)
            all_parts = {p.members for p in partitions(phase.graphs[agent])}
            for p in free:
                assert p.members in all_parts
                assert agent not in p.members
                assert phase.target_entity not in p.members


def test_transport_fixture_joint_graphs():
    spec = transport_causal_fixture()
    parts0 = [p.members for p in partitions(spec.phases[0].joint_graph())]
    assert frozenset({"robot0", "bin_lid"}) in parts0
    assert frozenset({"robot1", "cube"}) in parts0
    parts2 = [p.members for p in partitions(spec.phases[2].joint_graph())]
    assert frozenset({"robot0", "robot1", "hammer"}) in parts2
    # partitions irrelevant to both agents are swap candidates
    cands = swap_candidates(spec.phases[2])
    assert all("robot0" not in c.members and "robot1" not in c.members for c in cands)
    assert frozenset({"cube"}) in {c.members for c in cands}


def test_spec_dict_round_trip():
    for spec, obj in ((resolve_task("stack").causal, bundled_task_json("stack")["causal_spec"]),
                      (resolve_task("coffee").causal, bundled_task_json("coffee")["causal_spec"]),
                      (transport_causal_fixture(), TRANSPORT_JSON)):
        rebuilt = causal_spec_from_dict(obj)
        assert rebuilt == spec
        assert rebuilt.task_id == spec.task_id
        assert rebuilt.segment_merge_map == spec.segment_merge_map
        for a, b in zip(rebuilt.phases, spec.phases):
            assert a.target_entity == b.target_entity
            assert a.grasp_closes == b.grasp_closes
            assert set(a.graphs) == set(b.graphs)
            for agent in a.graphs:
                assert a.graphs[agent] == b.graphs[agent]


def test_diagonal_required():
    with pytest.raises(InvariantViolation):
        CausalGraph(("a", "b"), np.zeros((2, 2), dtype=bool))


def test_merge_map_validation():
    spec = resolve_task("stack").causal
    with pytest.raises(InvariantViolation):
        type(spec)(spec.task_id, spec.phases, (0, 2, 1, 3))
    with pytest.raises(InvariantViolation):
        type(spec)(spec.task_id, spec.phases, (0, 1, 2))  # not surjective
