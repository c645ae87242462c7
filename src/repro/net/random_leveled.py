"""Random leveled networks.

The paper's algorithm "works for any leveled network, and its performance
doesn't depend on the edge degrees of the nodes"; random leveled networks
exercise exactly that claim — irregular level widths, irregular degrees —
while guaranteeing that forward routes exist (every non-sink node has at
least one outgoing edge, every non-source node at least one incoming edge).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..errors import TopologyError
from ..rng import RngLike, make_rng
from .leveled import LeveledNetwork


def random_leveled(
    level_sizes: Sequence[int],
    edge_probability: float = 0.3,
    seed: RngLike = None,
    min_out_degree: int = 1,
    min_in_degree: int = 1,
) -> LeveledNetwork:
    """Sample a random leveled network with the given level widths.

    Between each pair of adjacent levels every possible edge is included
    independently with ``edge_probability``; afterwards edges are added so
    that every node on a non-final level has at least ``min_out_degree``
    outgoing edges and every node on a non-initial level has at least
    ``min_in_degree`` incoming edges (sampling without replacement, so the
    guarantee is capped by the neighboring level's width).
    """
    sizes = tuple(int(s) for s in level_sizes)
    if len(sizes) < 2:
        raise TopologyError("random leveled network needs at least two levels")
    if any(s < 1 for s in sizes):
        raise TopologyError(f"level sizes must be >= 1, got {sizes}")
    if not (0.0 <= edge_probability <= 1.0):
        raise TopologyError(f"edge probability {edge_probability} outside [0, 1]")
    if min_out_degree < 0 or min_in_degree < 0:
        raise TopologyError("minimum degrees must be non-negative")

    rng = make_rng(seed)
    if len(set(sizes)) == 1:
        shape = f"{sizes[0]}w x {len(sizes)}L"
    elif len(sizes) <= 8:
        shape = "x".join(str(s) for s in sizes)
    else:
        shape = f"{min(sizes)}..{max(sizes)}w x {len(sizes)}L"
    # Node ids run level by level, so level ``l`` holds ids
    # ``first[l] .. first[l] + sizes[l] - 1``.
    first = [0]
    for size in sizes:
        first.append(first[-1] + size)
    node_levels = [level for level, size in enumerate(sizes) for _ in range(size)]
    edges: list[tuple[int, int]] = []

    for level in range(len(sizes) - 1):
        lower, upper = sizes[level], sizes[level + 1]
        present = rng.random((lower, upper)) < edge_probability

        # Degree repair: flip extra entries on so every row/column reaches
        # its minimum, without ever duplicating an edge.  A repair touches
        # only its own row (column), so the counts can be taken up front.
        out_need = min(min_out_degree, upper)
        for a, count in enumerate(present.sum(axis=1).tolist()):
            missing = out_need - count
            if missing > 0:
                absent = np.flatnonzero(~present[a])
                picks = rng.choice(absent, size=missing, replace=False)
                present[a, picks] = True
        in_need = min(min_in_degree, lower)
        for b, count in enumerate(present.sum(axis=0).tolist()):
            missing = in_need - count
            if missing > 0:
                absent = np.flatnonzero(~present[:, b])
                picks = rng.choice(absent, size=missing, replace=False)
                present[picks, b] = True

        # Row-major order: the edges of each lower node by ascending head.
        rows, cols = np.nonzero(present)
        edges.extend(
            zip(
                (rows + first[level]).tolist(),
                (cols + first[level + 1]).tolist(),
            )
        )
    # The constructor validates every edge joins consecutive levels.
    return LeveledNetwork(
        node_levels, edges, name=f"random({shape},p={edge_probability})"
    )


def random_level_sizes(
    depth: int,
    mean_width: int,
    seed: RngLike = None,
    min_width: int = 1,
    max_width: Optional[int] = None,
) -> list[int]:
    """Sample plausible level widths for :func:`random_leveled`.

    Widths are Poisson around ``mean_width``, clipped to
    ``[min_width, max_width]``.
    """
    if depth < 1:
        raise TopologyError(f"depth must be >= 1, got {depth}")
    if mean_width < 1:
        raise TopologyError(f"mean width must be >= 1, got {mean_width}")
    rng = make_rng(seed)
    hi = max_width if max_width is not None else 4 * mean_width
    widths = rng.poisson(mean_width, size=depth + 1)
    return [int(np.clip(w, min_width, hi)) for w in widths]
