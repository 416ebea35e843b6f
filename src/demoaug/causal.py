"""Per-phase causal graphs over entities and their independent partitions.

A graph's boolean adjacency has A[i][j] = True iff node j's next state
depends on node i's current state; the diagonal is always True. Partitions
are connected components of the symmetrized adjacency: entities in
different partitions never interact during the phase, so their states can
be resampled independently.

A causal spec holds one graph per phase, and no task id: the schema it is
used with holds that. A task's spec is its kind's (sim.TASK_KINDS), built
when the task is; a spec file (--spec) is the one override of its graphs
and merge map. In JSON it is `phases` and `segment_merge_map`; each phase
is an object with only `edges` ([source, target] pairs without the
diagonal). It is read over a schema, whose agent, then entities, are every
graph's nodes, so a phase names no nodes. A phase's index is its position;
its target entity and grasp flag are its task kind's, left unset when read
and filled in by the TaskDefinition the spec is given to. check_spec
refuses a spec built in Python whose graphs do not cover exactly its
task's schema.
check_phase_labels refuses a dataset labelled with a phase past the spec:
in the phase index (counterfactual.build_phase_index) and in validation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, TaskSchema, check_keys, list_from_json, read_json, record_from_json
from .errors import InvariantViolation


@dataclass(frozen=True, eq=False)
class CausalGraph:
    nodes: tuple[str, ...]
    adjacency: np.ndarray

    def __post_init__(self):
        nodes = tuple(self.nodes)
        adj = np.asarray(self.adjacency, dtype=bool).copy()
        n = len(nodes)
        if len(set(nodes)) != n:
            raise InvariantViolation("duplicate node ids in causal graph")
        if adj.shape != (n, n):
            raise InvariantViolation(f"adjacency shape {adj.shape} does not match {n} nodes")
        if not np.all(np.diag(adj)):
            raise InvariantViolation("adjacency diagonal must be all True")
        adj.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "adjacency", adj)

    @classmethod
    def from_edges(cls, nodes, edges) -> "CausalGraph":
        """Build from (src, dst) pairs; the diagonal is injected."""
        nodes = tuple(nodes)
        index = {n: i for i, n in enumerate(nodes)}
        adj = np.eye(len(nodes), dtype=bool)
        for src, dst in edges:
            if src not in index or dst not in index:
                raise InvariantViolation(f"edge [{src!r}, {dst!r}] names {dst if src in index else src!r}, not one of {list(nodes)}")
            adj[index[src], index[dst]] = True
        return cls(nodes, adj)

    def __eq__(self, other):
        if not isinstance(other, CausalGraph):
            return NotImplemented
        return self.nodes == other.nodes and np.array_equal(self.adjacency, other.adjacency)


@dataclass(frozen=True)
class Partition:
    members: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        if not self.members:
            raise InvariantViolation("empty partition")

    def __contains__(self, entity_id):
        return entity_id in self.members


def join_adjacency(a1: CausalGraph, a2: CausalGraph) -> CausalGraph:
    """The join of two graphs over the same nodes: OR them, then OR with the transpose."""
    if a1.nodes != a2.nodes:
        raise InvariantViolation(f"node sets differ: {a1.nodes} vs {a2.nodes}")
    merged = a1.adjacency | a2.adjacency
    return CausalGraph(a1.nodes, merged | merged.T)


def partitions(g: CausalGraph) -> list[Partition]:
    """Connected components of the symmetrized adjacency, sorted by smallest member."""
    sym = g.adjacency | g.adjacency.T
    n = len(g.nodes)
    seen = np.zeros(n, dtype=bool)
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        members = []
        while stack:
            i = stack.pop()
            members.append(g.nodes[i])
            for j in np.flatnonzero(sym[i]):
                if not seen[j]:
                    seen[j] = True
                    stack.append(int(j))
        comps.append(Partition(frozenset(members)))
    comps.sort(key=lambda p: min(p.members))
    return comps


@dataclass(frozen=True)
class PhaseSpec:
    """One causal phase: the agent's graph plus SE(3) retargeting metadata,
    which a TaskDefinition fills in from its kind (None until then)."""

    phase_index: int
    graph: CausalGraph
    target_entity: str | None = None
    grasp_closes: bool | None = None

    def joint_graph(self) -> CausalGraph:
        """The symmetrized graph whose components are the phase's partitions."""
        return join_adjacency(self.graph, self.graph)


@dataclass(frozen=True)
class TaskCausalSpec:
    phases: tuple[PhaseSpec, ...]
    segment_merge_map: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "phases", tuple(self.phases))
        object.__setattr__(self, "segment_merge_map", tuple(self.segment_merge_map))
        indices = [p.phase_index for p in self.phases]
        if indices != list(range(len(self.phases))):
            raise InvariantViolation(f"phase indices {indices} not contiguous from 0")
        m = self.segment_merge_map
        if list(m) != sorted(m):
            raise InvariantViolation("segment_merge_map must be monotone non-decreasing")
        if sorted(set(m)) != list(range(len(self.phases))):
            raise InvariantViolation("segment_merge_map must be surjective onto phase indices")

    @property
    def num_phases(self) -> int:
        return len(self.phases)

    def phase(self, index: int) -> PhaseSpec:
        if not 0 <= index < len(self.phases):
            raise InvariantViolation(f"phase {index} is past the causal spec's {self.num_phases} phases")
        return self.phases[index]


def count_partitions(spec: TaskCausalSpec) -> int:
    """Total causally independent state partitions across all phases."""
    return sum(len(partitions(p.graph)) for p in spec.phases)


def swap_candidates(phase: PhaseSpec, agent: str) -> list[Partition]:
    """Joint-graph partitions containing neither the agent nor the target entity.

    Replacing any of these leaves the expert action unchanged: the policy
    is a function of the causally relevant subset only.
    """
    if phase.target_entity is None:  # a spec as read from JSON, not yet filled in by a task
        raise InvariantViolation(f"causal spec phase {phase.phase_index} has no target: it is not a task's spec")
    return [part for part in partitions(phase.graph)
            if agent not in part and phase.target_entity not in part]


def check_spec(spec: TaskCausalSpec, schema: TaskSchema) -> None:
    """Refuse a spec built in Python that does not fit its task's schema:
    each phase graph's nodes must be exactly the schema's entities and its
    agent. An entity left out of a graph would be swapped as if it interacted
    with nothing. A spec read from JSON fits by construction."""
    nodes = {*schema.entity_ids(), schema.agent}
    for phase in spec.phases:
        if set(phase.graph.nodes) != nodes:
            raise InvariantViolation(f"causal spec phase {phase.phase_index} has nodes {sorted(phase.graph.nodes)}, "
                                     f"not the schema's entities and agent {sorted(nodes)}")


def check_phase_labels(ds: Dataset, spec: TaskCausalSpec) -> None:
    """Refuse a dataset labelled with a phase the spec does not have: a
    stage that reads the labels would look that phase up."""
    for traj in ds.trajectories:
        for ts in traj.timesteps:
            if ts.phase is not None and ts.phase >= spec.num_phases:
                raise InvariantViolation(f"trajectory {traj.traj_id!r}, timestep {ts.t}: phase label {ts.phase} "
                                         f"is past the causal spec's {spec.num_phases} phases")


# ---------------------------------------------------------------------------
# config I/O


def causal_spec_from_dict(obj, schema: TaskSchema, where: str = "") -> TaskCausalSpec:
    """The causal spec in its JSON object at path `where`, read over `schema`,
    whose agent and entities are each graph's nodes (the edges omit the
    diagonal), each phase indexed by its position; InvariantViolation if it is malformed."""
    nodes = (schema.agent, *schema.entity_ids())

    def graph(at: str, obj) -> CausalGraph:
        check_keys(at, obj, ("edges",), ("edges",))
        at, edges = f"{at}.edges", obj["edges"]
        if type(edges) is not list or not all(type(e) is list and len(e) == 2 and type(e[0]) is str and type(e[1]) is str
                                              for e in edges):
            raise InvariantViolation(f"{at} must be a list of [source, target] node pairs, got {edges!r}")
        try:
            return CausalGraph.from_edges(nodes, edges)
        except InvariantViolation as exc:
            raise InvariantViolation(f"{at}: {exc}") from exc

    def phases(at: str, items) -> tuple[PhaseSpec, ...]:
        return tuple(PhaseSpec(i, g) for i, g in enumerate(list_from_json(at, items, graph)))

    return record_from_json(TaskCausalSpec, where, obj, phases=phases)


def load_causal_spec(path, schema: TaskSchema) -> TaskCausalSpec:
    """The causal spec in a JSON file, read over `schema`: IoFailure if the file
    cannot be read or is not JSON, InvariantViolation naming it if malformed."""
    obj = read_json(path, "failed reading causal spec file")
    try:
        return causal_spec_from_dict(obj, schema)
    except InvariantViolation as exc:
        raise InvariantViolation(f"causal spec file {path}: malformed causal spec ({exc})") from exc
