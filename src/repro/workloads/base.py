"""Workload model.

A :class:`Workload` is a set of (source, destination) pairs obeying the
paper's problem model: at most one packet per source node, destinations
arbitrary (many-to-one).  Workloads are independent of path selection —
combine them with the selectors in :mod:`repro.paths` to get a
:class:`~repro.paths.RoutingProblem`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from ..errors import WorkloadError
from ..net import LeveledNetwork
from ..paths import RoutingProblem, select_paths_random
from ..rng import RngLike
from ..types import NodeId

#: Signature of the path selectors in :mod:`repro.paths`.
PathSelector = Callable[
    [LeveledNetwork, Sequence[Tuple[NodeId, NodeId]]], RoutingProblem
]


@dataclass(frozen=True)
class Workload:
    """Named endpoint set for one network."""

    name: str
    net: LeveledNetwork
    endpoints: Tuple[Tuple[NodeId, NodeId], ...]

    def __post_init__(self) -> None:
        seen: set[NodeId] = set()
        for src, dst in self.endpoints:
            if src in seen:
                raise WorkloadError(
                    f"workload {self.name!r}: two packets share source {src}"
                )
            seen.add(src)
            if src == dst:
                raise WorkloadError(
                    f"workload {self.name!r}: packet with source == "
                    f"destination ({src})"
                )
            if self.net.level(dst) <= self.net.level(src):
                raise WorkloadError(
                    f"workload {self.name!r}: destination {dst} (level "
                    f"{self.net.level(dst)}) not above source {src} (level "
                    f"{self.net.level(src)})"
                )

    @property
    def num_packets(self) -> int:
        """Number of packets (the paper's ``N``)."""
        return len(self.endpoints)

    def to_problem(self, seed: RngLike = None, selector=None) -> RoutingProblem:
        """Attach paths; defaults to random monotone selection."""
        if selector is None:
            return select_paths_random(self.net, self.endpoints, seed=seed)
        return selector(self.net, self.endpoints)


def sample_distinct_sources(
    net: LeveledNetwork,
    count: int,
    rng,
    levels: Sequence[int] | None = None,
    require_outgoing: bool = True,
) -> List[NodeId]:
    """Sample ``count`` distinct source nodes, optionally from given levels.

    Sources must be able to emit a packet, so by default nodes without
    outgoing edges are excluded; the topmost level never qualifies.
    """
    if levels is None:
        candidate_levels = range(net.depth)  # level L nodes cannot source
    else:
        candidate_levels = [l for l in levels if 0 <= l < net.depth]
    pool: List[NodeId] = []
    for level in candidate_levels:
        for v in net.nodes_at_level(level):
            if not require_outgoing or net.out_degree(v) > 0:
                pool.append(v)
    if count > len(pool):
        raise WorkloadError(
            f"requested {count} sources but only {len(pool)} candidates"
        )
    picks = rng.choice(len(pool), size=count, replace=False)
    return [pool[int(i)] for i in picks]


def random_forward_destination(
    net: LeveledNetwork,
    source: NodeId,
    rng,
    min_level: int | None = None,
) -> NodeId:
    """A uniformly random node forward-reachable from ``source``.

    ``min_level`` restricts to destinations at or above that level; raises
    :class:`~repro.errors.WorkloadError` when none exists.
    """
    above = net.level(source) + 1
    floor = above if min_level is None else min_level
    lowest = max(floor, above)
    levels = net.geometry().node_levels
    options = sorted(
        v for v in net.forward_reachable(source) if levels[v] >= lowest
    )
    if not options:
        raise WorkloadError(
            f"no forward destination from source {source} at level >= {floor}"
        )
    return options[int(rng.integers(0, len(options)))]
