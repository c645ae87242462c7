"""Struct-of-arrays state containers for the vectorized engine kernel.

The reference engine keeps one Python :class:`~repro.sim.packet.Packet`
object per packet and walks them in its hot loop.  The vectorized kernel
(:mod:`repro.sim.engine_vec`) instead keeps every per-packet field in a
dense numpy array indexed by packet id — the struct-of-arrays layout — so
one simulation step becomes a handful of batched array operations.  The
kernels over these arrays are untraced: the state here carries nothing
for observers, and observed runs use the reference engine.

Two containers live here:

* :class:`GeometryArrays` — the network's endpoint/level tables as int64
  arrays, built once per :class:`~repro.net.NetworkGeometry` and cached on
  it (networks are immutable, so the cache can never go stale).
* :class:`PacketArrays` — the mutable per-packet state: position, status,
  move statistics, and the *current path* of Section 2.3 stored as a
  right-aligned edge buffer with a per-packet cursor.

Path representation
-------------------
``path_buf`` is an ``N x width`` int64 matrix; packet ``p``'s current path
is ``path_buf[p, cursor[p]:width]`` (head first).  A path-following move
pops the head by incrementing the cursor; a deflection/oscillation prepend
decrements it and writes the traversed edge at the new cursor.  The path is
empty exactly when ``cursor[p] == width``.  Prepends normally shrink the
distance-to-go as fast as they grow the path, but *forward* deflections
(unsafe, never taken by the paper's algorithm) can grow it past the initial
headroom; :meth:`PacketArrays.grow_front` reallocates with more front
columns in that rare case.

This module deliberately imports only :mod:`numpy` and the flat geometry
tables — no engine or router types — so it can be loaded lazily from
:meth:`NetworkGeometry.arrays` without import cycles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ..net.geometry import NetworkGeometry
    from ..paths import RoutingProblem

#: Extra front columns allocated ahead of the longest initial path, so the
#: common backward prepend/pop oscillation never triggers a reallocation.
_FRONT_SLACK = 2


class GeometryArrays:
    """Dense int64 views of one network's geometry tables."""

    __slots__ = ("edge_src", "edge_dst", "node_levels", "num_nodes", "num_edges")

    def __init__(self, geometry: "NetworkGeometry") -> None:
        self.num_nodes: int = geometry.num_nodes
        self.num_edges: int = geometry.num_edges
        self.edge_src = np.asarray(geometry.edge_src, dtype=np.int64)
        self.edge_dst = np.asarray(geometry.edge_dst, dtype=np.int64)
        self.node_levels = np.asarray(geometry.node_levels, dtype=np.int64)


class PacketArrays:
    """Mutable per-packet simulation state in struct-of-arrays layout.

    Field-for-field twin of :class:`~repro.sim.packet.Packet`; sentinel
    ``-1`` stands in for the reference engine's ``None`` (``injected_at``,
    ``absorbed_at``, ``last_edge``, ``last_direction``).
    """

    __slots__ = (
        "num_packets",
        "width",
        "source",
        "destination",
        "node",
        "path_buf",
        "cursor",
        "status",
        "injected_at",
        "absorbed_at",
        "last_edge",
        "last_direction",
        "moves",
        "deflections",
        "unsafe_deflections",
        "backward_moves",
    )

    def __init__(self, num_packets: int, width: int) -> None:
        n = num_packets
        self.num_packets = n
        self.width = width
        self.source = np.zeros(n, dtype=np.int64)
        self.destination = np.zeros(n, dtype=np.int64)
        self.node = np.zeros(n, dtype=np.int64)
        self.path_buf = np.zeros((n, width), dtype=np.int64)
        self.cursor = np.full(n, width, dtype=np.int64)
        self.status = np.zeros(n, dtype=np.int64)  # PacketStatus.PENDING
        self.injected_at = np.full(n, -1, dtype=np.int64)
        self.absorbed_at = np.full(n, -1, dtype=np.int64)
        self.last_edge = np.full(n, -1, dtype=np.int64)
        self.last_direction = np.full(n, -1, dtype=np.int64)
        self.moves = np.zeros(n, dtype=np.int64)
        self.deflections = np.zeros(n, dtype=np.int64)
        self.unsafe_deflections = np.zeros(n, dtype=np.int64)
        self.backward_moves = np.zeros(n, dtype=np.int64)

    # ------------------------------------------------------------- building

    @classmethod
    def from_problem(cls, problem: "RoutingProblem") -> "PacketArrays":
        """Fresh per-run state for one routing problem.

        The immutable parts (sources, destinations, initial paths) are
        built once and cached on the problem; per-run instances copy them,
        so warm-pool sweeps that reuse a problem across seeds skip the
        Python-loop build entirely.
        """
        template = getattr(problem, "_soa_template", None)
        if template is None:
            template = cls._build(problem)
            problem._soa_template = template
        return template.copy()

    @classmethod
    def _build(cls, problem: "RoutingProblem") -> "PacketArrays":
        specs = problem.packets
        max_len = max((len(spec.path) for spec in specs), default=0)
        width = max_len + _FRONT_SLACK
        arrays = cls(len(specs), width)
        for pid, spec in enumerate(specs):
            edges = spec.path.edges
            arrays.source[pid] = spec.source
            arrays.destination[pid] = spec.destination
            arrays.node[pid] = spec.source
            cursor = width - len(edges)
            arrays.cursor[pid] = cursor
            arrays.path_buf[pid, cursor:] = edges
        return arrays

    def copy(self) -> "PacketArrays":
        """Independent deep copy (template -> per-run instance)."""
        out = PacketArrays.__new__(PacketArrays)
        out.num_packets = self.num_packets
        out.width = self.width
        for name in (
            "source",
            "destination",
            "node",
            "path_buf",
            "cursor",
            "status",
            "injected_at",
            "absorbed_at",
            "last_edge",
            "last_direction",
            "moves",
            "deflections",
            "unsafe_deflections",
            "backward_moves",
        ):
            setattr(out, name, getattr(self, name).copy())
        return out

    # ------------------------------------------------------------ path ops

    def grow_front(self) -> None:
        """Double the front headroom of the path buffer.

        Needed only when forward deflections stack prepends past the
        initial slack; backward prepends always have a pop in their future
        before the cursor can underflow again.
        """
        pad = max(4, self.width)
        self.path_buf = np.concatenate(
            [np.zeros((self.num_packets, pad), dtype=np.int64), self.path_buf],
            axis=1,
        )
        self.cursor += pad
        self.width += pad


class StackedPacketArrays:
    """Per-packet state for a whole *batch* of trials: ``(T, N)`` arrays.

    The lockstep kernel (:mod:`repro.sim.engine_lockstep`) advances many
    Monte Carlo trials of one shared :class:`~repro.paths.RoutingProblem`
    at once; every :class:`PacketArrays` field gains a leading trial axis
    (``path_buf`` becomes ``T x N x width``) while the immutable
    ``source``/``destination`` columns stay one-dimensional — they are
    identical across trials by construction.
    """

    __slots__ = (
        "trials",
        "num_packets",
        "width",
        "source",
        "destination",
        "node",
        "path_buf",
        "cursor",
        "status",
        "injected_at",
        "absorbed_at",
        "last_edge",
        "last_direction",
        "moves",
        "deflections",
        "unsafe_deflections",
        "backward_moves",
    )

    _TILED = (
        "node",
        "path_buf",
        "cursor",
        "status",
        "injected_at",
        "absorbed_at",
        "last_edge",
        "last_direction",
        "moves",
        "deflections",
        "unsafe_deflections",
        "backward_moves",
    )

    def __init__(self, template: "PacketArrays", trials: int) -> None:
        self.trials = trials
        self.num_packets = template.num_packets
        self.width = template.width
        self.source = template.source.copy()
        self.destination = template.destination.copy()
        for name in self._TILED:
            field = getattr(template, name)
            setattr(self, name, np.repeat(field[None, ...], trials, axis=0))

    @classmethod
    def from_problem(
        cls, problem: "RoutingProblem", trials: int
    ) -> "StackedPacketArrays":
        """Stacked per-batch state sharing the problem's cached template."""
        template = getattr(problem, "_soa_template", None)
        if template is None:
            template = PacketArrays._build(problem)
            problem._soa_template = template
        return cls(template, trials)

    def grow_front(self) -> None:
        """Double the shared front headroom across every trial at once."""
        pad = max(4, self.width)
        self.path_buf = np.concatenate(
            [
                np.zeros(
                    (self.trials, self.num_packets, pad), dtype=np.int64
                ),
                self.path_buf,
            ],
            axis=2,
        )
        self.cursor += pad
        self.width += pad


class StackedFrontierArrays:
    """Frontier-frame router state with a leading trial axis.

    Twin of :class:`FrontierArrays` for the lockstep kernel; ``set_index``
    (and therefore ``injection_phase``) differs per trial because each
    trial draws its own frontier-set assignment.
    """

    __slots__ = ("state", "wait_node", "wait_edge", "set_index", "injection_phase")

    def __init__(self, set_index, injection_phase) -> None:
        shape = set_index.shape
        self.state = np.full(shape, 2, dtype=np.int64)  # PacketState.NORMAL
        self.wait_node = np.full(shape, -1, dtype=np.int64)
        self.wait_edge = np.full(shape, -1, dtype=np.int64)
        self.set_index = np.asarray(set_index, dtype=np.int64)
        self.injection_phase = np.asarray(injection_phase, dtype=np.int64)


class FrontierArrays:
    """Frontier-frame router state in struct-of-arrays layout.

    Twin of :class:`~repro.core.states.AlgorithmPacketState`: the
    ``wait < normal < excited`` machine (the int value *is* the conflict
    priority), the oscillation anchor, and the frame-schedule constants.
    """

    __slots__ = ("state", "wait_node", "wait_edge", "set_index", "injection_phase")

    def __init__(self, set_index, injection_phase) -> None:
        n = len(set_index)
        self.state = np.full(n, 2, dtype=np.int64)  # PacketState.NORMAL
        self.wait_node = np.full(n, -1, dtype=np.int64)
        self.wait_edge = np.full(n, -1, dtype=np.int64)
        self.set_index = np.asarray(set_index, dtype=np.int64)
        self.injection_phase = np.asarray(injection_phase, dtype=np.int64)


__all__ = [
    "GeometryArrays",
    "PacketArrays",
    "FrontierArrays",
    "StackedPacketArrays",
    "StackedFrontierArrays",
]
