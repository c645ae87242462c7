"""Path-selection strategies for generic leveled networks.

The paper assumes paths are given; these selectors produce them.  Besides
uniform random monotone paths, :func:`select_paths_bottleneck` implements a
greedy congestion-minimizing selection (route packets one by one, each along
a path minimizing the maximum resulting edge load — computable exactly on a
leveled DAG by a min-bottleneck dynamic program), which is how the scaling
experiments hold ``C`` down while sweeping ``L`` and vice versa.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..errors import PathError
from ..net import LeveledNetwork
from ..rng import RngLike, make_rng, shuffled
from ..types import EdgeId, NodeId
from .path import Path, random_monotone_path
from .problem import PacketSpec, RoutingProblem


def select_paths_random(
    net: LeveledNetwork,
    endpoints: Sequence[Tuple[NodeId, NodeId]],
    seed: RngLike = None,
) -> RoutingProblem:
    """Give every (source, destination) pair a random monotone path."""
    rng = make_rng(seed)
    specs = [
        PacketSpec(k, src, dst, random_monotone_path(net, src, dst, rng))
        for k, (src, dst) in enumerate(endpoints)
    ]
    return RoutingProblem(net, specs)


def min_bottleneck_path(
    net: LeveledNetwork,
    source: NodeId,
    destination: NodeId,
    load: Sequence[int],
    rng=None,
) -> Path:
    """A source->destination path minimizing ``max(load[e] + 1)`` over edges.

    Dynamic program backward from the destination over the leveled DAG:
    ``best[v]`` is the smallest achievable bottleneck from ``v`` to the
    destination.  Ties broken randomly when ``rng`` is given, else by edge id.
    """
    geo = net.geometry()
    out_edges, in_edges = geo.out_edges, geo.in_edges
    edge_src, edge_dst = geo.edge_src, geo.edge_dst
    levels = geo.node_levels
    # Walk backward from the destination one level at a time, down to the
    # source's level: every edge joins consecutive levels, so each frontier
    # is exactly the nodes of one level that reach the destination, and the
    # level above it already holds its final ``best`` values.
    best: dict[NodeId, int] = {destination: 0}
    lookup = best.get
    frontier = {destination}
    for _ in range(levels[destination] - levels[source]):
        frontier = {edge_src[e] for v in frontier for e in in_edges[v]}
        for v in frontier:
            value = None
            for e in out_edges[v]:
                below = lookup(edge_dst[e])
                if below is not None:
                    candidate = load[e] + 1
                    if candidate < below:
                        candidate = below
                    if value is None or candidate < value:
                        value = candidate
            best[v] = value
    if source not in frontier:
        raise PathError(f"no forward path from {source} to {destination}")

    edges: List[EdgeId] = []
    here = source
    while here != destination:
        target = best[here]
        options = []
        for e in out_edges[here]:
            below = best.get(edge_dst[e])
            if below is not None and max(load[e] + 1, below) == target:
                options.append(e)
        pick = (
            options[int(rng.integers(0, len(options)))]
            if rng is not None and len(options) > 1
            else options[0]
        )
        edges.append(pick)
        here = edge_dst[pick]
    return Path(net, edges, source=source)


def select_paths_bottleneck(
    net: LeveledNetwork,
    endpoints: Sequence[Tuple[NodeId, NodeId]],
    seed: RngLike = None,
) -> RoutingProblem:
    """Greedy congestion-minimizing selection over all packets.

    Packets are processed in random order; each takes a min-bottleneck path
    against the load of the already-routed packets.  Not optimal in general
    but close in practice, and deterministic given the seed.
    """
    rng = make_rng(seed)
    load = [0] * net.num_edges
    order = shuffled(rng, range(len(endpoints)))
    chosen: List[Optional[Path]] = [None] * len(endpoints)
    for k in order:
        src, dst = endpoints[k]
        path = min_bottleneck_path(net, src, dst, load, rng=rng)
        chosen[k] = path
        for e in path.edges:
            load[e] += 1
    specs = [
        PacketSpec(k, endpoints[k][0], endpoints[k][1], path)
        for k, path in enumerate(chosen)
        if path is not None
    ]
    return RoutingProblem(net, specs)


def paths_through_edge(
    net: LeveledNetwork,
    edge: EdgeId,
    sources: Sequence[NodeId],
    destinations: Sequence[NodeId],
    seed: RngLike = None,
) -> RoutingProblem:
    """Route packet ``k`` from ``sources[k]`` to ``destinations[k]`` *through*
    the given edge.

    Used by adversarial workloads that force congestion ``C = N`` on one
    edge.  Each source must reach the edge tail and each destination must be
    reachable from the edge head.
    """
    if len(sources) != len(destinations):
        raise PathError("sources and destinations must align")
    rng = make_rng(seed)
    tail, head = net.edge_endpoints(edge)
    specs = []
    for k, (src, dst) in enumerate(zip(sources, destinations)):
        before = random_monotone_path(net, src, tail, rng)
        after = random_monotone_path(net, head, dst, rng)
        combined = Path(net, before.edges + (edge,) + after.edges, source=src)
        specs.append(PacketSpec(k, src, dst, combined))
    return RoutingProblem(net, specs)
