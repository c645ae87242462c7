"""Vectorized struct-of-arrays engine kernel (the ``frontier_vec`` backend).

:class:`VecEngine` replays the reference :class:`~repro.sim.engine.Engine`
semantics with per-packet state held in numpy arrays
(:mod:`repro.sim.soa`) instead of Python objects.  One simulation step is a
handful of batched array operations: desired directed slots are computed
vectorially, excitation coins are drawn as one batched
``Generator.random(n)`` call, and winner moves apply as masked scatters.
A step whose desired slots are pairwise distinct — the overwhelmingly
common case — is **conflict-free**: it skips arbitration entirely (no
priority keys, no RNG) and applies every move in participant order, which
is exactly the reference's granted order.  Contended steps fall back to a
dict-based arbitration pass replaying the reference contender order on
``(class, priority)`` keys; only the genuinely sequential parts —
tie-break draws, loser shuffles, and the deflection matching against the
safe backward slot set (Lemma 2.1's ``E'``) — stay as Python loops over
the (rare) conflicted slots and loser nodes.

Equivalence contract
--------------------
The reference engine remains the semantic oracle.  For the two supported
policies (the paper's frontier-frame algorithm and the naive path-following
baseline) a ``VecEngine`` run is **byte-identical** to the reference run
with the same seeds: equal :class:`~repro.sim.RunResult` fields (delivery
times, deflection counts, move totals, router extras).  This holds because
the kernel reproduces the reference's RNG draw order exactly:

* excitation coins: ``Generator.random(n)`` draws the same doubles as
  ``n`` successive scalar ``random()`` calls, in active-packet order;
* arbitration tie-breaks: one scalar ``integers(0, len(best))`` per
  conflicted slot, in slot first-appearance order;
* loser shuffles: one ``shuffle`` per multi-loser node, in node
  first-loser order —

and mirrors every ordering the reference exposes (active ids in injection
order, eligible ids sorted, winner application in slot order).  The
contended-step arbitration is the one :func:`~repro.sim.kernels.
replay_contended` shared with the lockstep kernel.  The differential fuzz
tests in ``tests/test_engine_vec.py`` pin the contract.

The kernel is untraced: it emits no events, so it takes no observers and
refuses to be built under an active telemetry session.  Observed runs
(telemetry, traces, the invariant auditor) use the reference engine, as
do routers other than the two above and ``collect_round_stats``; the
trial runners apply that rule (:func:`~repro.sim.kernels.
reference_engine_required`).

Performance
-----------
Dense steps win by batching; sparse schedules win by *bulk advance*: when
every active packet provably oscillates in wait state on pairwise-distinct
slots (or none is active and no injection is due), whole spans of steps are
applied analytically — the same closed form the reference router uses for
quiescence fast-forward — even when fast-forward is disabled and the span
must still be accounted as executed steps.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from ..errors import SimulationError
from ..rng import RngLike, make_rng
from .kernels import (
    check_frontier_params,
    check_unobserved,
    count_crowded,
    frontier_extra,
    replay_contended,
)
from .metrics import RunResult
from .soa import FrontierArrays, PacketArrays

_PENDING = 0  # PacketStatus values, as plain ints for array compares
_ACTIVE = 1
_ABSORBED = 2
_WAIT = 1  # PacketState values (the value IS the priority)
_NORMAL = 2
_EXCITED = 3


class VecEngine:
    """Array-kernel twin of the reference engine for two fixed policies.

    Construct through :meth:`frontier` or :meth:`naive`; the constructor
    itself is shared plumbing.  ``router_rng`` must already have drawn the
    frontier-set assignment (mirroring ``FrontierFrameRouter.attach``) so
    the excitation-coin stream starts at the same position as the
    reference's.
    """

    def __init__(
        self,
        problem,
        *,
        mode: str,
        seed: RngLike = None,
        enable_fast_forward: bool = True,
        geometry=None,
        router_rng=None,
        num_sets: int = 0,
        m: int = 1,
        w: int = 1,
        q: float = 0.0,
        set_of: Optional[Sequence[int]] = None,
    ) -> None:
        check_unobserved("VecEngine")
        self.problem = problem
        self.net = problem.net
        self.mode = mode
        self.router_name = (
            "FrontierFrameRouter" if mode == "frontier" else "NaivePathRouter"
        )
        self.rng = make_rng(seed)
        self.t = 0
        self.steps_executed = 0
        self.steps_skipped = 0
        self.num_active = 0
        self.num_absorbed = 0
        self.unsafe_deflections = 0
        self._enable_fast_forward = enable_fast_forward

        geo = geometry if geometry is not None else self.net.geometry()
        self._geo = geo
        ga = geo.arrays()
        self._edge_src = ga.edge_src
        self._edge_dst = ga.edge_dst
        self._node_levels = ga.node_levels

        self.soa = PacketArrays.from_problem(problem)
        n = self.soa.num_packets
        #: shared empty array (never mutated in place; assignments replace)
        self._empty = np.empty(0, dtype=np.int64)
        #: active packet ids in injection order (mirrors ``Engine.active_ids``)
        self._act = self._empty
        #: eligible pending packet ids, kept sorted (``sorted(eligible)``)
        self._elig = self._empty
        #: safe backward in-edges of last step as (arrival node, edge) pairs
        self._safe_nodes = self._empty
        self._safe_edges = self._empty

        if mode == "frontier":
            self._router_rng = router_rng if router_rng is not None else make_rng()
            self._num_sets = int(num_sets)
            self._m = int(m)
            self._w = int(w)
            self._q = float(q)
            self._spp = self._m * self._w
            src_levels = self._node_levels[self.soa.source]
            set_idx = np.asarray(set_of, dtype=np.int64)
            inj_phase = set_idx * self._m + (self._m - 1) + src_levels
            self.fr = FrontierArrays(set_idx, inj_phase)
            self._elig_by_phase: Dict[int, "np.ndarray"] = {}
            for phase in np.unique(inj_phase):
                pids = np.nonzero(inj_phase == phase)[0].astype(np.int64)
                self._elig_by_phase[int(phase)] = pids  # ascending = sorted
            #: sorted injection phases with a cursor over the unmarked tail;
            #: ``pending and not eligible`` <=> injection phase not yet
            #: marked, so ``_phase_keys[_next_phase_idx]`` is the minimum
            #: pending injection phase with no array scan.
            self._phase_keys: List[int] = sorted(self._elig_by_phase)
            self._next_phase_idx = 0
            self._set_offsets = (
                np.arange(self._num_sets, dtype=np.int64) * self._m
            )
            self._target_by_set = np.zeros(self._num_sets, dtype=np.int64)
        else:
            self.fr = None
            self._router_rng = None
            self._spp = 0
            self._phase_keys = []
            self._next_phase_idx = 0
            # NaivePathRouter.attach marks everything eligible immediately.
            self._elig = np.arange(n, dtype=np.int64)

        # Arrival gating (see Engine.set_arrival_schedule): marks for
        # packets whose arrival time has not come are held and released at
        # the top of their due step, mirroring the reference engine.
        schedule = getattr(problem, "arrival_schedule", None)
        self._sched = schedule
        self._held: Set[int] = set()
        if schedule is not None:
            schedule.validate_for(n)
            self._times = np.asarray(schedule.times, dtype=np.int64)
            if self._elig.size:
                due = self._times[self._elig] <= 0
                if not due.all():
                    self._held = set(self._elig[~due].tolist())
                    self._elig = self._elig[due]
        else:
            self._times = None

        self._current_phase = -1
        self.excitations = 0
        self.wait_entries = 0
        self.wait_evictions = 0
        self.phase_releases = 0
        self.round_calms = 0
        self.isolation_violations = 0
        #: live occupancy counters; when both are zero every active packet
        #: is NORMAL and whole gather/compare blocks can be skipped
        self._num_waiting = 0
        self._num_excited = 0

    # ------------------------------------------------------------- factories

    @classmethod
    def frontier(
        cls,
        problem,
        params,
        *,
        set_of: Optional[Sequence[int]] = None,
        router_seed: RngLike = None,
        seed: RngLike = None,
        enable_fast_forward: bool = True,
        geometry=None,
    ) -> "VecEngine":
        """Kernel for the paper's frontier-frame algorithm.

        Mirrors ``Engine(problem, FrontierFrameRouter(params, set_of,
        router_seed), seed)`` including the router's RNG stream: the
        frontier-set assignment is drawn from ``router_seed`` exactly when
        ``set_of`` is omitted, leaving the excitation-coin stream aligned.
        """
        from ..core.frontier import assign_frontier_sets

        check_frontier_params(problem, params)
        router_rng = make_rng(router_seed)
        if set_of is None:
            set_of = assign_frontier_sets(problem, params.num_sets, router_rng)
        return cls(
            problem,
            mode="frontier",
            seed=seed,
            enable_fast_forward=enable_fast_forward,
            geometry=geometry,
            router_rng=router_rng,
            num_sets=params.num_sets,
            m=params.m,
            w=params.w,
            q=params.q,
            set_of=set_of,
        )

    @classmethod
    def naive(
        cls,
        problem,
        *,
        seed: RngLike = None,
        geometry=None,
    ) -> "VecEngine":
        """Kernel for the naive path-following baseline."""
        return cls(problem, mode="naive", seed=seed, geometry=geometry)

    # -------------------------------------------------------------- pre-step

    def _pre_step(self, t: int) -> None:
        """Frontier router pre-step: schedule events, wait entries, coins."""
        fr = self.fr
        soa = self.soa
        if t % self._spp == 0:
            phase = t // self._spp
            self._current_phase = phase
            keys = self._phase_keys
            idx = self._next_phase_idx
            while idx < len(keys) and keys[idx] <= phase:
                # mark_eligible: all these are still pending by construction
                newly = self._elig_by_phase[keys[idx]]
                if self._times is not None:
                    due = self._times[newly] <= t
                    if not due.all():
                        self._held.update(newly[~due].tolist())
                        newly = newly[due]
                if newly.size:
                    elig = self._elig
                    self._elig = np.union1d(elig, newly) if elig.size else newly
                idx += 1
            self._next_phase_idx = idx
        if t % self._w == 0:
            phase = t // self._spp
            rnd = (t % self._spp) // self._w
            tinner = 0 if rnd <= 1 else rnd - 1
            self._target_by_set = (phase - tinner) - self._set_offsets
            act = self._act
            if act.size:
                # Packets that forward-arrived on the new round's target
                # level are already standing on their target node.
                st = fr.state[act]
                mask = (
                    (st != _WAIT)
                    & (soa.last_direction[act] == 0)
                    & (
                        self._node_levels[soa.node[act]]
                        == self._target_by_set[fr.set_index[act]]
                    )
                )
                if mask.any():
                    pids = act[mask]
                    fr.state[pids] = _WAIT
                    fr.wait_node[pids] = soa.node[pids]
                    fr.wait_edge[pids] = soa.last_edge[pids]
                    self.wait_entries += int(pids.size)
                    self._num_waiting += int(pids.size)
        # Excitation coins: one uniform per active normal packet, in
        # active-id order (Generator.random(n) == n scalar draws).
        if self._q > 0.0:
            act = self._act
            if act.size:
                if self._num_waiting or self._num_excited:
                    normal = act[fr.state[act] == _NORMAL]
                else:
                    normal = act
                if normal.size:
                    hits = self._router_rng.random(normal.size) < self._q
                    if hits.any():
                        excited = normal[hits]
                        fr.state[excited] = _EXCITED
                        self.excitations += int(excited.size)
                        self._num_excited += int(excited.size)

    # ------------------------------------------------------------- post-step

    def _post_step(self, t: int) -> None:
        """Frontier router post-step: round-end calms, phase-end releases."""
        round_end = (t + 1) % self._w == 0
        phase_end = (t + 1) % self._spp == 0
        if not (round_end or phase_end):
            return
        if not (self._num_excited or (phase_end and self._num_waiting)):
            return
        fr = self.fr
        act = self._act
        if not act.size:
            return
        st = fr.state[act]
        excited = act[st == _EXCITED]
        if excited.size:
            fr.state[excited] = _NORMAL
            self.round_calms += int(excited.size)
            self._num_excited -= int(excited.size)
        if phase_end:
            waiting = act[st == _WAIT]
            if waiting.size:
                fr.state[waiting] = _NORMAL
                fr.wait_node[waiting] = -1
                fr.wait_edge[waiting] = -1
                self.phase_releases += int(waiting.size)
                self._num_waiting -= int(waiting.size)

    # ------------------------------------------------------------------ step

    def step(self) -> None:
        """Execute one synchronous time step (array semantics)."""
        t = self.t
        soa = self.soa
        fr = self.fr

        # -- arrival release (mirrors Engine.step's held-mark release) ------
        if self._held:
            rel = [pid for pid in self._sched.due_at(t) if pid in self._held]
            if rel:
                self._held.difference_update(rel)
                newly = np.asarray(rel, dtype=np.int64)
                elig = self._elig
                self._elig = np.union1d(elig, newly) if elig.size else newly

        if fr is not None:
            self._pre_step(t)

        # -- gather desires over participants ------------------------------
        act = self._act
        elig = self._elig
        n_act = act.size
        parts = np.concatenate([act, elig]) if elig.size else act
        n_parts = parts.size
        if not n_parts:
            if fr is not None:
                self._post_step(t)
            self._safe_nodes = self._empty
            self._safe_edges = self._empty
            self.t = t + 1
            self.steps_executed += 1
            return

        nodes = soa.node[parts]
        cur = soa.cursor[parts]
        width = soa.width
        if fr is not None and n_act and self._num_waiting:
            wait_at = (fr.state[parts] == _WAIT) & (nodes == fr.wait_node[parts])
            any_wait = bool(wait_at.any())
        else:
            # pending packets are never in wait state, so an active-free
            # step (and every naive step) has no REVERSE desires at all
            wait_at = None
            any_wait = False
        cmax = int(cur.max())
        if cmax >= width:  # pragma: no cover - malformed problem guard
            bad_mask = cur >= width
            if any_wait:
                bad_mask &= ~wait_at
            if bad_mask.any():
                bad = int(np.argmax(bad_mask))
                raise SimulationError(
                    f"packet {int(parts[bad])} has an empty current path at "
                    f"node {int(nodes[bad])}"
                )
            cur = np.minimum(cur, width - 1)
            cmax = width - 1
        # a FOLLOW can only exhaust its path when some cursor is one off
        # the end already — lets the apply stage skip the delivery check
        maybe_deliver = cmax >= width - 1
        heads = soa.path_buf[parts, cur]
        if any_wait:
            edges = np.where(wait_at, fr.wait_edge[parts], heads)
        else:
            edges = heads
        backward = self._edge_src[edges] != nodes
        any_back = bool(backward.any())
        slots = (edges << 1) + backward if any_back else edges << 1

        # -- arbitration per directed slot ----------------------------------
        # The arbitration itself runs as plain Python over the (small)
        # participant lists: on conflict-free steps nothing runs at all,
        # and on conflicted steps the reference's dict walk beats per-slot
        # numpy group math by an order of magnitude at these sizes.
        slots_list = slots.tolist()
        w_rev = wait_at if any_wait else None
        if len(set(slots_list)) == n_parts:
            # Conflict-free fast path: every desire is granted, and
            # participant order IS the reference's granted order.
            w_pids = parts
            w_edges = edges
            w_back = backward
            deflected = None
            crowded = 0
            if n_act < n_parts:
                inj_ids = parts[n_act:]
                if fr is not None:
                    nodes_list = nodes.tolist()
                    crowded = count_crowded(
                        nodes_list[:n_act], nodes_list[n_act:]
                    )
            else:
                inj_ids = None
        else:
            (
                w_pids, w_edges, w_back, w_rev, inj_ids, crowded, deflected,
            ) = replay_contended(
                t, self._geo, self.rng, parts, nodes, edges, backward, w_rev,
                slots_list, fr.state[parts].tolist() if fr is not None else None,
                n_act, self._safe_nodes, self._safe_edges,
            )
            any_back = bool(w_back.any())

        self._apply(
            t, w_pids, w_edges, w_back, w_rev, inj_ids, crowded, deflected,
            any_back, maybe_deliver,
        )
        if fr is not None:
            self._post_step(t)
        self.t = t + 1
        self.steps_executed += 1

    # ----------------------------------------------------- move application

    def _apply(
        self, t, w_pids, w_edges, w_back, w_rev, inj_ids, crowded,
        deflected, any_back, maybe_deliver,
    ) -> None:
        """Apply granted moves in grant order, then the deflections."""
        soa = self.soa
        fr = self.fr

        # Injections (winner order is already the array order).
        if inj_ids is not None:
            soa.status[inj_ids] = _ACTIVE
            soa.injected_at[inj_ids] = t
            elig = self._elig
            self._elig = elig[soa.status[elig] == _PENDING]
            self._act = np.concatenate([self._act, inj_ids])
            self.num_active += int(inj_ids.size)
            self.isolation_violations += crowded

        if w_rev is not None and w_rev.any():
            rev_pids = w_pids[w_rev]
            if int(soa.cursor[rev_pids].min()) == 0:
                soa.grow_front()
            soa.cursor[rev_pids] -= 1
            soa.path_buf[rev_pids, soa.cursor[rev_pids]] = w_edges[w_rev]
            soa.cursor[w_pids[~w_rev]] += 1
        else:
            soa.cursor[w_pids] += 1
        if any_back:
            new_nodes = np.where(
                w_back, self._edge_src[w_edges], self._edge_dst[w_edges]
            )
            soa.backward_moves[w_pids[w_back]] += 1
            # REVERSE only happens backward, so forward winner moves are
            # all FOLLOW: the safe backward set E' is exactly ~backward.
            fwd = ~w_back
            self._safe_nodes = new_nodes[fwd]
            self._safe_edges = w_edges[fwd]
            soa.last_direction[w_pids] = w_back
        else:
            new_nodes = self._edge_dst[w_edges]
            fwd = None
            self._safe_nodes = new_nodes
            self._safe_edges = w_edges
            soa.last_direction[w_pids] = 0
        soa.node[w_pids] = new_nodes
        soa.last_edge[w_pids] = w_edges
        soa.moves[w_pids] += 1

        deliv_any = False
        delivered = None
        if maybe_deliver:
            delivered = soa.cursor[w_pids] == soa.width
            deliv_any = bool(delivered.any())
        if deliv_any:
            delivered &= new_nodes == soa.destination[w_pids]
            deliv_any = bool(delivered.any())
        if deliv_any:
            absorbed = w_pids[delivered]
            soa.status[absorbed] = _ABSORBED
            soa.absorbed_at[absorbed] = t + 1
            self.num_active -= int(absorbed.size)
            self.num_absorbed += int(absorbed.size)
            if fr is not None and self._num_excited:
                self._num_excited -= int(
                    (fr.state[absorbed] == _EXCITED).sum()
                )
            act = self._act
            self._act = act[soa.status[act] == _ACTIVE]
        if fr is not None:
            # on_moved: forward path arrivals on the target level wait.
            cand = None
            if self._num_waiting:
                cand = fr.state[w_pids] != _WAIT
            if deliv_any:
                cand = ~delivered if cand is None else cand & ~delivered
            if any_back:
                cand = fwd if cand is None else cand & fwd
            if cand is None:
                go = w_pids.size > 0
                pids, nn, we = w_pids, new_nodes, w_edges
            else:
                go = bool(cand.any())
                if go:
                    pids = w_pids[cand]
                    nn = new_nodes[cand]
                    we = w_edges[cand]
            if go:
                lvl_ok = (
                    self._node_levels[nn]
                    == self._target_by_set[fr.set_index[pids]]
                )
                if lvl_ok.any():
                    entering = pids[lvl_ok]
                    fr.state[entering] = _WAIT
                    fr.wait_node[entering] = nn[lvl_ok]
                    fr.wait_edge[entering] = we[lvl_ok]
                    self.wait_entries += int(entering.size)
                    self._num_waiting += int(entering.size)

        if deflected is None:
            return
        # Order inside the batch is free: each packet deflects at most once
        # per step and the counters are additive.  Path routers never
        # deliver by deflection: the prepend leaves the current path
        # non-empty, so the delivery check is skipped.
        pids, eidx, unsafe = deflected
        c = soa.cursor[pids]
        if int(c.min()) == 0:
            soa.grow_front()
            c = soa.cursor[pids]
        soa.cursor[pids] = c - 1
        soa.path_buf[pids, c - 1] = eidx
        src = self._edge_src[eidx]
        back = soa.node[pids] != src
        soa.node[pids] = np.where(back, src, self._edge_dst[eidx])
        soa.last_direction[pids] = back
        soa.backward_moves[pids] += back
        soa.last_edge[pids] = eidx
        soa.moves[pids] += 1
        soa.deflections[pids] += 1
        n_unsafe = int(unsafe.sum())
        if n_unsafe:
            soa.unsafe_deflections[pids] += unsafe
            self.unsafe_deflections += n_unsafe
        if fr is not None and (self._num_waiting or self._num_excited):
            st = fr.state[pids]
            waiting = pids[st == _WAIT]
            if waiting.size:
                fr.state[waiting] = _NORMAL
                fr.wait_node[waiting] = -1
                fr.wait_edge[waiting] = -1
                self.wait_evictions += int(waiting.size)
                self._num_waiting -= int(waiting.size)
            excited = pids[st == _EXCITED]
            if excited.size:
                fr.state[excited] = _NORMAL
                self._num_excited -= int(excited.size)

    # ---------------------------------------------------------- fast-forward

    def _quiescent_horizon(self, t: int) -> Optional[int]:
        """Pointer port of ``FrontierFrameRouter.quiescent_horizon``.

        With eligibility empty, every pending packet's injection phase is
        still unmarked, so the minimum pending phase is the phase cursor's
        current key — no array scan needed.
        """
        if self._elig.size:
            return None
        if self._held:
            # Held marks are due injections the phase cursor no longer
            # tracks; the reference router returns None for them too.
            return None
        keys = self._phase_keys
        idx = self._next_phase_idx
        pending_phase = keys[idx] if idx < len(keys) else None
        current_phase = t // self._spp
        if pending_phase is not None and pending_phase <= current_phase:
            return None
        act = self._act
        if not act.size:
            if pending_phase is None:
                return None
            return pending_phase * self._spp
        fr = self.fr
        st = fr.state[act]
        if int(st.max()) != _WAIT:  # states are >= _WAIT, so max==WAIT <=> all
            return None
        soa = self.soa
        osc = fr.wait_edge[act] * 2 + (soa.node[act] == fr.wait_node[act])
        if np.unique(osc).size != act.size:
            return None  # pragma: no cover - theory says impossible
        return (current_phase + 1) * self._spp

    def _advance_span(self, t: int, target: int) -> None:
        """Analytically apply ``target - t`` quiescent oscillation steps.

        Mirrors ``FrontierFrameRouter.fast_forward``: every active packet
        (all in wait state) oscillates once per step; odd spans toggle it
        across its wait edge.
        """
        k = target - t
        fr = self.fr
        soa = self.soa
        act = self._act
        if not act.size:
            self._safe_nodes = self._empty
            self._safe_edges = self._empty
            return
        at_wait = soa.node[act] == fr.wait_node[act]
        backward_total = np.where(at_wait, (k + 1) // 2, k // 2)
        if k % 2:
            we = fr.wait_edge[act]
            leaving = act[at_wait]
            if leaving.size:
                if (soa.cursor[leaving] == 0).any():
                    soa.grow_front()
                soa.cursor[leaving] -= 1
                soa.path_buf[leaving, soa.cursor[leaving]] = fr.wait_edge[leaving]
                soa.node[leaving] = self._edge_src[fr.wait_edge[leaving]]
                soa.last_direction[leaving] = 1
            returning = act[~at_wait]
            if returning.size:
                soa.cursor[returning] += 1
                soa.node[returning] = self._edge_dst[fr.wait_edge[returning]]
                soa.last_direction[returning] = 0
            soa.last_edge[act] = we
        soa.moves[act] += k
        soa.backward_moves[act] += backward_total
        ended_at_wait = soa.node[act] == fr.wait_node[act]
        self._safe_nodes = fr.wait_node[act][ended_at_wait]
        self._safe_edges = fr.wait_edge[act][ended_at_wait]

    def _try_fast_forward(self) -> None:
        """Reference-equivalent quiescence skip (fast-forward enabled)."""
        horizon = self._quiescent_horizon(self.t)
        if horizon is None:
            return
        target = horizon - 1  # simulate the boundary step normally
        k = target - self.t
        if k <= 0:
            return
        self._advance_span(self.t, target)
        self.t = target
        self.steps_skipped += k

    def _try_bulk_advance(self, max_steps: int) -> None:
        """Quiescent span as *executed* steps (fast-forward disabled).

        The reference engine would step through the span one no-RNG,
        no-event step at a time; the closed form lands on the same state,
        so the span is applied analytically and booked as executed steps.
        """
        horizon = self._quiescent_horizon(self.t)
        if horizon is None:
            return
        target = min(horizon - 1, max_steps)
        k = target - self.t
        if k <= 0:
            return
        self._advance_span(self.t, target)
        # The reference executes every phase-start step in the span,
        # tracking the current phase; match the value after the span's
        # last executed step (``target - 1``; step ``target`` runs
        # normally next, or not at all when clamped to the budget).
        phase = (target - 1) // self._spp
        if phase > self._current_phase:
            self._current_phase = phase
        self.t = target
        self.steps_executed += k

    # ------------------------------------------------------------------- run

    @property
    def done(self) -> bool:
        """All packets absorbed."""
        return self.num_absorbed == self.soa.num_packets

    def run(self, max_steps: int) -> RunResult:
        """Run until delivery or the step budget; return metrics."""
        frontier = self.fr is not None
        ff = frontier and self._enable_fast_forward
        bulk = frontier and not self._enable_fast_forward
        while not self.done and self.t < max_steps:
            if ff:
                self._try_fast_forward()
            elif bulk:
                self._try_bulk_advance(max_steps)
                if self.t >= max_steps:
                    break
            self.step()
        return self.result()

    def result(self) -> RunResult:
        """Snapshot the metrics of the run so far (reference-identical)."""
        soa = self.soa
        absorbed_at = soa.absorbed_at
        if self.done:
            makespan = int(absorbed_at.max()) if soa.num_packets else self.t
        else:
            makespan = self.t
        delivery_times = [
            a if a >= 0 else None for a in absorbed_at.tolist()
        ]
        extra: Dict[str, float] = {}
        if self.fr is not None:
            extra = frontier_extra((
                self._num_sets, self._m, self._w, self._q, self.excitations,
                self.wait_entries, self.wait_evictions, self.phase_releases,
                self.isolation_violations, self._current_phase + 1,
            ))
        return RunResult(
            router_name=self.router_name,
            network_name=self.net.name,
            num_packets=soa.num_packets,
            congestion=self.problem.congestion,
            dilation=self.problem.dilation,
            depth=self.net.depth,
            delivered=self.num_absorbed,
            makespan=makespan,
            steps_executed=self.steps_executed,
            steps_skipped=self.steps_skipped,
            delivery_times=delivery_times,
            deflections_per_packet=soa.deflections.tolist(),
            unsafe_deflections=self.unsafe_deflections,
            total_moves=int(soa.moves.sum()),
            total_backward_moves=int(soa.backward_moves.sum()),
            extra=extra,
        )


__all__ = ["VecEngine"]
