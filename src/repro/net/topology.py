"""Topology builders for the evaluation scenarios.

The paper evaluates GT-TSCH on DODAG-shaped static networks: Fig. 8 uses two
DODAGs with 14 nodes in total, Fig. 9 sweeps the number of nodes per DODAG
from 6 to 9 (two DODAGs, one root each), and Fig. 10 reuses a fixed topology.
DODAGs are placed far apart ("in many applications of LLNs there is no common
area in wireless ranges of DODAGs"), so inter-DODAG interference is absent by
construction.

A topology is described declaratively as a list of :class:`NodeSpec` entries
-- position, root flag, and (optionally) the intended parent for
deterministic warm-started runs -- which :class:`repro.net.network.Network`
turns into actual nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.rpl.rank import MIN_HOP_RANK_INCREASE

Position = tuple[float, float]


@dataclass
class NodeSpec:
    """Declarative description of one node in a topology."""

    node_id: int
    position: Position
    is_root: bool = False
    #: Intended preferred parent for warm-started (deterministic) scenarios.
    parent: Optional[int] = None
    #: Hop distance to the root implied by the intended tree (0 for roots).
    depth: int = 0
    #: Identifier of the DODAG this node belongs to (its root's node id).
    dodag_id: Optional[int] = None

    def initial_rank(self, initial_etx: float = 2.0) -> int:
        """Rank to preset for warm-started runs (root rank + depth x ETX x MinHopRankIncrease)."""
        if self.is_root:
            return MIN_HOP_RANK_INCREASE
        return int(MIN_HOP_RANK_INCREASE + self.depth * initial_etx * MIN_HOP_RANK_INCREASE)


@dataclass
class TopologyBuilder:
    """A collection of node specs plus convenience queries."""

    nodes: list[NodeSpec] = field(default_factory=list)

    def add(self, spec: NodeSpec) -> NodeSpec:
        if any(existing.node_id == spec.node_id for existing in self.nodes):
            raise ValueError(f"duplicate node id {spec.node_id}")
        self.nodes.append(spec)
        return spec

    def roots(self) -> list[NodeSpec]:
        return [spec for spec in self.nodes if spec.is_root]

    def node_ids(self) -> list[int]:
        return [spec.node_id for spec in self.nodes]

    def spec(self, node_id: int) -> NodeSpec:
        for candidate in self.nodes:
            if candidate.node_id == node_id:
                return candidate
        raise KeyError(node_id)

    def parent_map(self) -> dict[int, Optional[int]]:
        return {spec.node_id: spec.parent for spec in self.nodes}

    def children_of(self, node_id: int) -> list[int]:
        return [spec.node_id for spec in self.nodes if spec.parent == node_id]

    def max_depth(self) -> int:
        return max((spec.depth for spec in self.nodes), default=0)

    def initial_rank(self, node_id: int, initial_etx: float = 2.0) -> int:
        """Rank to preset for ``node_id`` in warm-started runs (see :meth:`NodeSpec.initial_rank`)."""
        return self.spec(node_id).initial_rank(initial_etx)

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)


# ----------------------------------------------------------------------
# position helpers
# ----------------------------------------------------------------------
def grid_positions(count: int, spacing: float, origin: Position = (0.0, 0.0)) -> list[Position]:
    """Positions on a square grid, row-major, ``spacing`` metres apart."""
    side = max(1, math.ceil(math.sqrt(count)))
    positions = []
    for index in range(count):
        row, col = divmod(index, side)
        positions.append((origin[0] + col * spacing, origin[1] + row * spacing))
    return positions


def _ring_position(center: Position, radius: float, angle: float) -> Position:
    return (center[0] + radius * math.cos(angle), center[1] + radius * math.sin(angle))


# ----------------------------------------------------------------------
# canonical topologies
# ----------------------------------------------------------------------
def line_topology(num_nodes: int, spacing: float = 15.0, first_id: int = 0) -> TopologyBuilder:
    """A multi-hop chain: node 0 is the root, node k's parent is node k-1."""
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    topo = TopologyBuilder()
    root_id = first_id
    for index in range(num_nodes):
        node_id = first_id + index
        topo.add(
            NodeSpec(
                node_id=node_id,
                position=(index * spacing, 0.0),
                is_root=index == 0,
                parent=None if index == 0 else node_id - 1,
                depth=index,
                dodag_id=root_id,
            )
        )
    return topo


def star_topology(num_leaves: int, radius: float = 15.0, first_id: int = 0) -> TopologyBuilder:
    """One root with ``num_leaves`` one-hop children placed on a circle."""
    if num_leaves < 1:
        raise ValueError("num_leaves must be >= 1")
    topo = TopologyBuilder()
    root_id = first_id
    topo.add(NodeSpec(node_id=root_id, position=(0.0, 0.0), is_root=True, dodag_id=root_id))
    for index in range(num_leaves):
        angle = 2.0 * math.pi * index / num_leaves
        topo.add(
            NodeSpec(
                node_id=first_id + 1 + index,
                position=_ring_position((0.0, 0.0), radius, angle),
                parent=root_id,
                depth=1,
                dodag_id=root_id,
            )
        )
    return topo


def tree_topology(
    depth: int,
    branching: int,
    spacing: float = 15.0,
    first_id: int = 0,
    origin: Position = (0.0, 0.0),
) -> TopologyBuilder:
    """A complete ``branching``-ary tree of the given depth (root = depth 0)."""
    if depth < 0 or branching < 1:
        raise ValueError("depth must be >= 0 and branching >= 1")
    topo = TopologyBuilder()
    root_id = first_id
    topo.add(NodeSpec(node_id=root_id, position=origin, is_root=True, dodag_id=root_id))
    next_id = first_id + 1
    current_level = [root_id]
    for level in range(1, depth + 1):
        new_level: list[int] = []
        radius = spacing * level
        total_at_level = len(current_level) * branching
        slot = 0
        for parent in current_level:
            for _ in range(branching):
                angle = 2.0 * math.pi * slot / max(total_at_level, 1)
                node_id = next_id
                next_id += 1
                topo.add(
                    NodeSpec(
                        node_id=node_id,
                        position=_ring_position(origin, radius, angle),
                        parent=parent,
                        depth=level,
                        dodag_id=root_id,
                    )
                )
                new_level.append(node_id)
                slot += 1
        current_level = new_level
    return topo


def single_dodag_topology(
    num_nodes: int,
    first_id: int = 0,
    origin: Position = (0.0, 0.0),
    hop_spacing: float = 28.0,
    max_children_per_node: int = 3,
) -> TopologyBuilder:
    """One DODAG of ``num_nodes`` nodes (root included), filled breadth-first.

    The root sits at ``origin``; children are attached to the shallowest node
    that still has capacity (at most ``max_children_per_node`` children), and
    placed within reliable radio range of their parent.  This mirrors the
    compact indoor DODAGs of the paper's testbed, where most nodes are one or
    two hops from the border router.
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    topo = TopologyBuilder()
    root_id = first_id
    topo.add(NodeSpec(node_id=root_id, position=origin, is_root=True, dodag_id=root_id))

    # Breadth-first attachment: parents are consumed in creation order.
    attach_order: list[int] = [root_id]
    children_count: dict[int, int] = {root_id: 0}
    parent_cursor = 0
    for index in range(1, num_nodes):
        while children_count[attach_order[parent_cursor]] >= max_children_per_node:
            parent_cursor += 1
        parent_id = attach_order[parent_cursor]
        parent_spec = topo.spec(parent_id)
        child_id = first_id + index
        child_index = children_count[parent_id]
        # Fan children out on the side of the parent facing away from the root.
        base_angle = math.atan2(
            parent_spec.position[1] - origin[1], parent_spec.position[0] - origin[0]
        ) if parent_spec.depth > 0 else 0.0
        angle = base_angle + (child_index - (max_children_per_node - 1) / 2.0) * (math.pi / 4.0)
        position = _ring_position(parent_spec.position, hop_spacing, angle)
        topo.add(
            NodeSpec(
                node_id=child_id,
                position=position,
                parent=parent_id,
                depth=parent_spec.depth + 1,
                dodag_id=root_id,
            )
        )
        children_count[parent_id] += 1
        children_count[child_id] = 0
        attach_order.append(child_id)
    return topo


def multi_dodag_topology(
    num_dodags: int = 2,
    nodes_per_dodag: int = 7,
    dodag_separation: float = 500.0,
    hop_spacing: float = 28.0,
    max_children_per_node: int = 3,
) -> TopologyBuilder:
    """Several non-interfering DODAGs, as in the paper's Fig. 8/9 scenarios.

    ``nodes_per_dodag`` counts the root, matching the paper's accounting
    ("the total size of the network is increased from 12 to 18 nodes (for two
    DODAGs)" when sweeping 6 to 9 nodes per DODAG).  DODAGs are separated by
    ``dodag_separation`` metres, far beyond interference range, because the
    paper's building-automation scenario assumes no common wireless area
    between DODAGs.
    """
    if num_dodags < 1:
        raise ValueError("num_dodags must be >= 1")
    topo = TopologyBuilder()
    for dodag_index in range(num_dodags):
        origin = (dodag_index * dodag_separation, 0.0)
        sub = single_dodag_topology(
            num_nodes=nodes_per_dodag,
            first_id=dodag_index * nodes_per_dodag,
            origin=origin,
            hop_spacing=hop_spacing,
            max_children_per_node=max_children_per_node,
        )
        for spec in sub:
            topo.add(spec)
    return topo


def scale_topology(
    num_nodes: int,
    nodes_per_dodag: int = 10,
    dodag_separation: float = 500.0,
    hop_spacing: float = 28.0,
    max_children_per_node: int = 3,
) -> TopologyBuilder:
    """A large building-automation site: many paper-sized DODAGs.

    The paper evaluates DODAGs of 6-9 nodes and scales by adding DODAGs
    ("in many applications of LLNs there is no common area in wireless
    ranges of DODAGs"); this builder extends that construction to hundreds
    of nodes -- ``num_nodes`` total, split into DODAGs of ``nodes_per_dodag``
    (the last one takes the remainder), each far outside the others'
    interference range.
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    if nodes_per_dodag < 1:
        raise ValueError("nodes_per_dodag must be >= 1")
    topo = TopologyBuilder()
    first_id = 0
    dodag_index = 0
    remaining = num_nodes
    while remaining > 0:
        size = min(nodes_per_dodag, remaining)
        sub = single_dodag_topology(
            num_nodes=size,
            first_id=first_id,
            origin=(dodag_index * dodag_separation, 0.0),
            hop_spacing=hop_spacing,
            max_children_per_node=max_children_per_node,
        )
        for spec in sub:
            topo.add(spec)
        first_id += size
        remaining -= size
        dodag_index += 1
    return topo


def random_topology(
    num_nodes: int,
    area: float,
    rng,
    communication_range: float = 40.0,
    root_id: int = 0,
) -> TopologyBuilder:
    """Uniformly random node placement with a BFS-derived intended tree.

    Nodes are dropped uniformly in an ``area x area`` square; the intended
    parents follow shortest hop paths to the root over the connectivity graph
    implied by ``communication_range``.  Unreachable nodes are re-dropped near
    already-connected ones so the topology is always a single DODAG.
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    positions: list[Position] = [(area / 2.0, area / 2.0)]
    for _ in range(num_nodes - 1):
        positions.append((rng.uniform(0, area), rng.uniform(0, area)))

    def connected(a: Position, b: Position) -> bool:
        return math.hypot(a[0] - b[0], a[1] - b[1]) <= communication_range

    # Re-drop isolated nodes next to a random already-placed node.
    for index in range(1, num_nodes):
        attempts = 0
        while not any(connected(positions[index], positions[j]) for j in range(index)):
            anchor = positions[rng.randrange(0, index)]
            offset_angle = rng.uniform(0, 2 * math.pi)
            offset_radius = rng.uniform(0.3, 0.8) * communication_range
            positions[index] = _ring_position(anchor, offset_radius, offset_angle)
            attempts += 1
            if attempts > 100:  # pragma: no cover - defensive
                raise RuntimeError("failed to build a connected random topology")

    # BFS from the root over the connectivity graph.
    parents: dict[int, Optional[int]] = {0: None}
    depths: dict[int, int] = {0: 0}
    frontier = [0]
    while frontier:
        nxt: list[int] = []
        for current in frontier:
            for candidate in range(num_nodes):
                if candidate in parents:
                    continue
                if connected(positions[current], positions[candidate]):
                    parents[candidate] = current
                    depths[candidate] = depths[current] + 1
                    nxt.append(candidate)
        frontier = nxt

    topo = TopologyBuilder()
    for index in range(num_nodes):
        topo.add(
            NodeSpec(
                node_id=root_id + index,
                position=positions[index],
                is_root=index == 0,
                parent=None if index == 0 else root_id + parents[index],
                depth=depths.get(index, 1),
                dodag_id=root_id,
            )
        )
    return topo
