"""Step-rule code shared by the two numpy kernels.

:class:`~repro.sim.engine_vec.VecEngine` and
:class:`~repro.sim.engine_lockstep.LockstepEngine` hold packet state in
different array layouts, so each applies moves itself.  Everything that
does not depend on the layout lives here, once:

* :func:`replay_contended` — the reference arbitration of one contended
  step: contenders grouped per directed slot, ``(class, priority)``
  tie-breaking, and Lemma 2.1's loser matching against the safe backward
  slot set ``E'`` with injection-grant revocation, drawing every
  tie-break and loser shuffle in the reference engine's order;
* :func:`count_crowded` — the reference isolation test for injections;
* :func:`check_frontier_params` and :func:`frontier_extra` — the frontier
  factories' parameter checks and the router's ``RunResult.extra`` block;
* :func:`reference_engine_required` and :func:`check_unobserved` — the
  rule that an observed or audited run uses the reference
  :class:`~repro.sim.Engine`.  The kernels emit no trace events and take
  no post-step hooks, so they run unobserved only.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import CapacityError, ParameterError, ReproError
from ..telemetry.context import current_session

#: ``RunResult.extra`` keys of the frontier router, in the reference order.
FRONTIER_EXTRA_KEYS = (
    "num_sets",
    "m",
    "w",
    "q",
    "excitations",
    "wait_entries",
    "wait_evictions",
    "phase_releases",
    "isolation_violations",
    "phases_elapsed",
)


def reference_engine_required(audit: bool = False, telemetry: bool = False) -> bool:
    """Whether a run must use the reference :class:`~repro.sim.Engine`.

    An audited run (``audit``), a run that opens its own telemetry session
    (``telemetry``), and any run under an active session are observed; the
    reference engine gives them the same result, bit for bit, plus the
    events, counters and audit report the numpy kernels cannot produce.
    """
    return audit or telemetry or current_session() is not None


def check_unobserved(kernel: str) -> None:
    """Refuse to build ``kernel`` while a telemetry session is active."""
    if current_session() is not None:
        raise ReproError(
            f"{kernel} runs unobserved only and would drop the active "
            "telemetry session's counters and trace; run observed trials on "
            "the reference engine (repro.sim.Engine)"
        )


def check_frontier_params(problem, params) -> None:
    """The frontier router's checks of ``params`` against ``problem``."""
    if params.depth != problem.net.depth:
        raise ParameterError(
            f"params built for depth {params.depth} but network has "
            f"depth {problem.net.depth}"
        )
    if params.num_packets != problem.num_packets:
        raise ParameterError(
            f"params built for {params.num_packets} packets but "
            f"problem has {problem.num_packets}"
        )


def frontier_extra(values: Sequence) -> Dict[str, float]:
    """The frontier router's ``RunResult.extra`` from values in
    :data:`FRONTIER_EXTRA_KEYS` order."""
    return {key: float(value) for key, value in zip(FRONTIER_EXTRA_KEYS, values)}


def count_crowded(act_nodes: Sequence[int], inj_nodes: Sequence[int]) -> int:
    """Injections failing the reference isolation test.

    An injection is isolated when no active packet sits at its node and it
    is the only packet injected there this step.
    """
    occupied = set(act_nodes)
    injectors: Dict[int, int] = {}
    for nd in inj_nodes:
        injectors[nd] = injectors.get(nd, 0) + 1
    return sum(1 for nd in inj_nodes if nd in occupied or injectors[nd] != 1)


def replay_contended(
    t, geo, rng, pids, nodes, edges, backward, wait_at, slots, prios, n_act,
    safe_nodes, safe_edges,
):
    """Replay the reference arbitration of one contended step.

    The participants are the step's packets in reference order: the
    ``n_act`` active packets in injection order, then the eligible pending
    packets in ascending id order.  ``pids``, ``nodes``, ``edges`` and
    ``backward`` are aligned 1-D arrays over them, ``wait_at`` marks the
    reversing ones (None when none reverses) and ``slots`` lists their
    desired directed slots.  ``prios`` lists the frontier priorities, or
    is None for the naive policy, which ranks on class alone and keeps no
    isolation count.  ``safe_nodes``/``safe_edges`` hold last step's safe
    backward set ``E'`` as (arrival node, edge) pairs.

    Returns ``(w_pids, w_edges, w_back, w_rev, inj_ids, crowded,
    deflected)``: the granted moves in grant order, the injected ids (None
    when nothing injects) with the count of crowded injections, and the
    losers' deflections as ``(pids, edges, unsafe)`` arrays (None when
    nothing deflects).  ``rng`` draws one ``integers`` per tied slot, in
    slot first-appearance order, then one ``shuffle`` per node with
    several losers, in first-loser order — the reference draw order.
    """
    pids_list = pids.tolist()
    nodes_list = nodes.tolist()
    contenders: Dict[int, object] = {}
    for pos, slot in enumerate(slots):
        prev = contenders.get(slot)
        if prev is None:
            contenders[slot] = pos
        elif type(prev) is list:
            prev.append(pos)
        else:
            contenders[slot] = [prev, pos]
    winner_pos: List[int] = []
    losers_by_node: Dict[int, List[int]] = {}
    pending_grants: Dict[int, List[Tuple[int, int]]] = {}
    # Contender-dict insertion order = slot first-appearance order, the
    # reference's arbitration (and tie-break draw) order.
    for slot, entry in contenders.items():
        if type(entry) is int:
            win = entry
        else:
            # sequential best-keeping on (class, priority), exactly as the
            # reference: the first maximum opens the tie pool
            first = entry[0]
            best = [first]
            if prios is not None:
                bk = (1 if first < n_act else 0, prios[first])
                for pos in entry[1:]:
                    k = (1 if pos < n_act else 0, prios[pos])
                    if k > bk:
                        best = [pos]
                        bk = k
                    elif k == bk:
                        best.append(pos)
            else:
                bk = 1 if first < n_act else 0
                for pos in entry[1:]:
                    k = 1 if pos < n_act else 0
                    if k > bk:
                        best = [pos]
                        bk = k
                    elif k == bk:
                        best.append(pos)
            if len(best) > 1:
                win = best[int(rng.integers(0, len(best)))]
            else:
                win = best[0]
            for pos in entry:
                if pos != win and pos < n_act:
                    # pending losers simply fail to inject
                    losers_by_node.setdefault(nodes_list[pos], []).append(
                        pids_list[pos]
                    )
        winner_pos.append(win)
        if win >= n_act:
            pending_grants.setdefault(nodes_list[win], []).append(
                (pids_list[win], slot)
            )

    deflected = None
    if losers_by_node:
        deflected, revoked = _match_deflections(
            t, geo, rng, losers_by_node, set(slots), pending_grants,
            safe_nodes, safe_edges,
        )
        if revoked:
            winner_pos = [
                pos for pos in winner_pos if pids_list[pos] not in revoked
            ]
    w_pos = np.asarray(winner_pos, dtype=np.int64)
    w_rev = wait_at[w_pos] if wait_at is not None else None
    inj_pos = [pos for pos in winner_pos if pos >= n_act]
    inj_ids = None
    crowded = 0
    if inj_pos:
        inj_ids = np.asarray([pids_list[pos] for pos in inj_pos], dtype=np.int64)
        if prios is not None:
            crowded = count_crowded(
                nodes_list[:n_act], [nodes_list[pos] for pos in inj_pos]
            )
    return (
        pids[w_pos], edges[w_pos], backward[w_pos], w_rev, inj_ids, crowded,
        deflected,
    )


def _match_deflections(
    t, geo, rng, losers_by_node, used_slots, pending_grants, safe_nodes,
    safe_edges,
):
    """Match losers to free slots (safe in-edges first, Lemma 2.1)."""
    in_edges = geo.in_edges
    in_slot_ids = geo.in_slot_ids
    out_edges = geo.out_edges
    out_slot_ids = geo.out_slot_ids
    safe_by_node: Dict[int, Set[int]] = {}
    for nd, e in zip(safe_nodes.tolist(), safe_edges.tolist()):
        safe_by_node.setdefault(nd, set()).add(e)
    d_pids: List[int] = []
    d_edges: List[int] = []
    d_unsafe: List[bool] = []
    revoked: Optional[Set[int]] = None
    for node, losers in losers_by_node.items():
        if len(losers) > 1:
            rng.shuffle(losers)
        safe_here = safe_by_node.get(node, ())
        needed = len(losers)
        candidates: List[Tuple[int, int, bool]] = []
        node_in = in_edges[node]
        node_in_slots = in_slot_ids[node]
        if safe_here:
            for e, s in zip(node_in, node_in_slots):
                if e in safe_here and s not in used_slots:
                    candidates.append((e, s, True))
                    if len(candidates) == needed:
                        break
            if len(candidates) < needed:
                for e, s in zip(node_in, node_in_slots):
                    if e not in safe_here and s not in used_slots:
                        candidates.append((e, s, False))
                        if len(candidates) == needed:
                            break
        else:
            for e, s in zip(node_in, node_in_slots):
                if s not in used_slots:
                    candidates.append((e, s, False))
                    if len(candidates) == needed:
                        break
        if len(candidates) < needed:
            for e, s in zip(out_edges[node], out_slot_ids[node]):
                if s not in used_slots:
                    candidates.append((e, s, False))
                    if len(candidates) == needed:
                        break
        node_pending = pending_grants.get(node)
        while len(candidates) < needed and node_pending:
            # Revoke an injection grant at this node and recycle its slot;
            # the pending packet retries later.
            revoke_pid, slot = node_pending.pop()
            if revoked is None:
                revoked = set()
            revoked.add(revoke_pid)
            used_slots.discard(slot)
            candidates.append((slot >> 1, slot, False))
        if len(candidates) < needed:
            raise CapacityError(
                f"step {t}: node {node} has {needed} deflected "
                f"packets but only {len(candidates)} free slots"
            )
        for pid, (edge, slot, safe) in zip(losers, candidates):
            used_slots.add(slot)
            d_pids.append(pid)
            d_edges.append(edge)
            d_unsafe.append(not safe)
    deflected = (
        np.asarray(d_pids, dtype=np.int64),
        np.asarray(d_edges, dtype=np.int64),
        np.asarray(d_unsafe, dtype=bool),
    )
    return deflected, revoked


__all__ = [
    "FRONTIER_EXTRA_KEYS",
    "check_frontier_params",
    "check_unobserved",
    "count_crowded",
    "frontier_extra",
    "reference_engine_required",
    "replay_contended",
]
