"""Registry entries for every built-in topology, workload, selector, backend.

Importing this module (which :mod:`repro.scenarios` does automatically)
populates the four registries with wrappers over the existing builders in
:mod:`repro.net`, :mod:`repro.workloads`, :mod:`repro.paths`,
:mod:`repro.baselines`, :mod:`repro.core`, and :mod:`repro.traffic`.

Conventions
-----------
* **Topology** entries: ``fn(*, seed, **params) -> LeveledNetwork``.
  Deterministic topologies accept and ignore ``seed``.
* **Workload** entries: ``fn(net, *, seed, **params)`` returning either a
  :class:`~repro.workloads.Workload` (endpoints; paths still to be chosen)
  or a full :class:`~repro.paths.RoutingProblem` (adversarial workloads
  where the paths *are* the point).
* **Path-selector** entries: ``fn(net, endpoints, *, seed, **params) ->
  RoutingProblem``.
* **Backend** entries: ``fn(problem, seed, params) -> (RunResult, audit)``
  for the batch families, mirroring each family's legacy call path
  seed-for-seed (the parametrized equality tests in
  ``tests/test_scenarios.py`` pin this).  Backends registered with
  ``needs="network"`` (the dynamic family) instead receive the bare
  network and generate their own timed traffic, exactly like the legacy
  ``repro dynamic`` command.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..baselines import GreedyHotPotatoRouter, NaivePathRouter
from ..errors import ReproError, WorkloadError
from ..net import (
    benes,
    butterfly,
    complete_binary_tree,
    diamond,
    fat_tree,
    hypercube,
    layered_complete,
    line,
    mesh,
    multidim_array,
    omega_network,
    random_leveled,
)
from ..paths import (
    select_paths_bit_fixing,
    select_paths_bottleneck,
    select_paths_dimension_order,
    select_paths_random,
    select_paths_valiant,
)
from ..workloads import (
    butterfly_workloads,
    funnel_through_edge,
    hotspot,
    level_to_level,
    mesh_workloads,
    random_many_to_one,
    single_destination,
)
from ..workloads.generators import end_to_end_permutation
from .registry import ARRIVALS, BACKENDS, PATH_SELECTORS, TOPOLOGIES, WORKLOADS

# --------------------------------------------------------------- topologies


@TOPOLOGIES.register("butterfly")
def _topology_butterfly(*, dim: int, seed=None):
    """Wrapped butterfly of the given dimension (2^dim rows)."""
    return butterfly(int(dim))


@TOPOLOGIES.register("mesh")
def _topology_mesh(*, rows: int, cols: Optional[int] = None, seed=None):
    """n x m mesh in its NORTH_WEST leveled orientation."""
    return mesh(int(rows), int(cols if cols is not None else rows))


@TOPOLOGIES.register("hypercube")
def _topology_hypercube(*, dim: int, seed=None):
    """Leveled (unrolled) hypercube of the given dimension."""
    return hypercube(int(dim))


@TOPOLOGIES.register("line")
def _topology_line(*, length: int, seed=None):
    """Path network with one node per level."""
    return line(int(length))


@TOPOLOGIES.register("omega")
def _topology_omega(*, dim: int, seed=None):
    """Omega (shuffle-exchange) network of the given dimension."""
    return omega_network(int(dim))


@TOPOLOGIES.register("fat_tree", "fattree")
def _topology_fat_tree(
    *, height: int, branching: int = 2, capacity_cap: int = 8, seed=None
):
    """Fat tree (leaves to root) with capacity-capped upper links."""
    return fat_tree(int(height), int(branching), int(capacity_cap))


@TOPOLOGIES.register("btree")
def _topology_btree(*, height: int, root_at_top: bool = True, seed=None):
    """Complete binary tree, leveled leaf-to-root."""
    return complete_binary_tree(int(height), bool(root_at_top))


@TOPOLOGIES.register("benes")
def _topology_benes(*, dim: int, seed=None):
    """Benes network (back-to-back butterflies)."""
    return benes(int(dim))


@TOPOLOGIES.register("multidim")
def _topology_multidim(*, shape: Sequence[int], seed=None):
    """Multidimensional array in leveled orientation."""
    return multidim_array([int(s) for s in shape])


@TOPOLOGIES.register("layered")
def _topology_layered(*, level_sizes: Sequence[int], seed=None):
    """Layered-complete network (every consecutive pair fully connected)."""
    return layered_complete([int(s) for s in level_sizes])


@TOPOLOGIES.register("diamond")
def _topology_diamond(*, width: int, depth: int, seed=None):
    """Diamond network: single source/sink around wide middle levels."""
    return diamond(int(width), int(depth))


@TOPOLOGIES.register("random_leveled", "random")
def _topology_random_leveled(
    *,
    width: int,
    depth: int,
    edge_probability: float = 0.5,
    min_out_degree: int = 2,
    min_in_degree: int = 2,
    seed=None,
):
    """Random leveled network of uniform width (seeded)."""
    return random_leveled(
        [int(width)] * (int(depth) + 1),
        edge_probability=float(edge_probability),
        seed=seed,
        min_out_degree=int(min_out_degree),
        min_in_degree=int(min_in_degree),
    )


# ---------------------------------------------------------------- workloads


def _default_count(net) -> int:
    """The CLI's historical default packet count."""
    return max(2, net.num_nodes // 8)


@WORKLOADS.register("random_many_to_one", "random")
def _workload_random_many_to_one(
    net,
    *,
    seed=None,
    num_packets: Optional[int] = None,
    source_levels: Optional[Sequence[int]] = None,
    min_dest_level: Optional[int] = None,
):
    """Distinct random sources, uniform forward destinations."""
    count = int(num_packets) if num_packets is not None else _default_count(net)
    return random_many_to_one(
        net,
        count,
        seed=seed,
        source_levels=source_levels,
        min_dest_level=min_dest_level,
    )


@WORKLOADS.register("hotspot")
def _workload_hotspot(
    net,
    *,
    seed=None,
    num_packets: Optional[int] = None,
    num_hotspots: int = 1,
    hotspot_level: Optional[int] = None,
):
    """Many-to-few traffic into a handful of hot destinations."""
    count = int(num_packets) if num_packets is not None else _default_count(net)
    return hotspot(
        net,
        count,
        num_hotspots=int(num_hotspots),
        seed=seed,
        hotspot_level=hotspot_level,
    )


@WORKLOADS.register("single_destination")
def _workload_single_destination(
    net, *, seed=None, num_packets: int, destination=None
):
    """Every packet shares one destination node."""
    return single_destination(
        net, int(num_packets), destination=destination, seed=seed
    )


@WORKLOADS.register("level_to_level")
def _workload_level_to_level(
    net, *, seed=None, num_packets: int, source_level: int, dest_level: int
):
    """Random sources on one level, reachable destinations on another."""
    return level_to_level(
        net, int(num_packets), int(source_level), int(dest_level), seed=seed
    )


@WORKLOADS.register("end_to_end_permutation")
def _workload_end_to_end_permutation(net, *, seed=None):
    """Random bijection from level-0 nodes onto top-level nodes."""
    return end_to_end_permutation(net, seed=seed)


@WORKLOADS.register("bf_random_end_to_end")
def _workload_bf_random(net, *, seed=None, num_packets: Optional[int] = None):
    """Butterfly rows send to uniformly random output rows."""
    return butterfly_workloads.random_end_to_end(
        net, num_packets=num_packets, seed=seed
    )


@WORKLOADS.register("bf_permutation")
def _workload_bf_permutation(net, *, seed=None):
    """Full random row permutation on a butterfly."""
    return butterfly_workloads.full_permutation(net, seed=seed)


@WORKLOADS.register("bf_hot_row")
def _workload_bf_hot_row(net, *, seed=None, num_packets: Optional[int] = None):
    """All packets target one butterfly output row (C = Theta(N))."""
    return butterfly_workloads.hot_row(net, num_packets=num_packets, seed=seed)


@WORKLOADS.register("bf_bit_complement")
def _workload_bf_bit_complement(net, *, seed=None):
    """Butterfly row r sends to row ~r."""
    return butterfly_workloads.bit_complement(net)


@WORKLOADS.register("mesh_monotone")
def _workload_mesh_monotone(
    net, *, seed=None, num_packets: int, min_displacement: int = 1
):
    """Random monotone (weakly down-right) mesh pairs."""
    return mesh_workloads.monotone_random_pairs(
        net, int(num_packets), seed=seed, min_displacement=int(min_displacement)
    )


@WORKLOADS.register("mesh_corner_shift")
def _workload_mesh_corner_shift(net, *, seed=None, block: Optional[int] = None):
    """Deterministic corner-to-corner block shift on a mesh."""
    return mesh_workloads.corner_shift(
        net, block=None if block is None else int(block)
    )


@WORKLOADS.register("funnel_through_edge", "funnel")
def _workload_funnel(net, *, seed=None, num_packets: int, edge=None):
    """Adversarial: every path crosses one chosen edge (returns a problem)."""
    return funnel_through_edge(
        net, int(num_packets), edge=edge, seed=seed
    )


# --------------------------------------------------------- arrival processes
#
# Arrival entries: ``fn(net, *, seed, **params) -> InjectionSource``.  The
# dispatcher collects the source over its horizon and materializes a
# schedule-carrying problem (selector 'random' draws the paths), so these
# run on any problem-level backend.


@ARRIVALS.register("bernoulli")
def _arrival_bernoulli(
    net,
    *,
    seed=None,
    rate: float = 0.3,
    horizon: Optional[int] = 200,
    source_levels: Optional[Sequence[int]] = None,
    min_hops: int = 1,
):
    """Per-step, per-source Bernoulli(rate) arrivals (horizon None = open-loop)."""
    from ..traffic import BernoulliSource

    return BernoulliSource(
        net,
        float(rate),
        seed=seed,
        horizon=None if horizon is None else int(horizon),
        source_levels=source_levels,
        min_hops=int(min_hops),
    )


@ARRIVALS.register("poisson")
def _arrival_poisson(
    net,
    *,
    seed=None,
    mean_rate: float = 1.0,
    horizon: Optional[int] = 200,
    source_levels: Optional[Sequence[int]] = None,
    min_hops: int = 1,
):
    """Poisson(mean_rate) aggregate arrivals per step, placed uniformly."""
    from ..traffic import PoissonSource

    return PoissonSource(
        net,
        float(mean_rate),
        seed=seed,
        horizon=None if horizon is None else int(horizon),
        source_levels=source_levels,
        min_hops=int(min_hops),
    )


@ARRIVALS.register("trace")
def _arrival_trace(net, *, seed=None, arrivals: Sequence[Sequence[int]] = ()):
    """Replay recorded ``[time, source, destination]`` triples."""
    from ..traffic import Arrival, TraceSource

    return TraceSource(
        Arrival(int(t), int(src), int(dst)) for t, src, dst in arrivals
    )


# ----------------------------------------------------------- path selectors


@PATH_SELECTORS.register("random")
def _select_random(net, endpoints, *, seed=None):
    """Uniformly random monotone path per packet."""
    return select_paths_random(net, endpoints, seed=seed)


@PATH_SELECTORS.register("bottleneck")
def _select_bottleneck(net, endpoints, *, seed=None):
    """Greedy congestion-minimizing (min-bottleneck DP) selection."""
    return select_paths_bottleneck(net, endpoints, seed=seed)


@PATH_SELECTORS.register("bit_fixing")
def _select_bit_fixing(net, endpoints, *, seed=None):
    """Unique bit-fixing butterfly paths (deterministic)."""
    return select_paths_bit_fixing(net, endpoints)


@PATH_SELECTORS.register("dimension_order")
def _select_dimension_order(net, endpoints, *, seed=None, row_first: bool = True):
    """Dimension-order mesh paths (deterministic)."""
    return select_paths_dimension_order(net, endpoints, row_first=bool(row_first))


@PATH_SELECTORS.register("valiant")
def _select_valiant(net, endpoints, *, seed=None, intermediate_level=None):
    """Two-phase paths through random intermediate nodes."""
    return select_paths_valiant(
        net,
        endpoints,
        seed=seed,
        intermediate_level=(
            None if intermediate_level is None else int(intermediate_level)
        ),
    )


@PATH_SELECTORS.register("none")
def _select_none(net, endpoints, *, seed=None):
    """Placeholder for workloads that already carry their paths."""
    raise ReproError(
        "selector 'none' cannot build paths; use it only with workloads "
        "that return a full routing problem (e.g. 'funnel_through_edge')"
    )


# ----------------------------------------------------------------- backends
#
# Batch backends mirror their family's legacy call path exactly:
#
# * frontier      -> experiments.runner.run_frontier_trial(problem, seed)
# * deflection    -> experiments.runner.run_router_trial(problem, factory,
#   (naive/greedy/    seed, baseline_budget(problem))
#    randgreedy)
# * storeforward  -> StoreForwardScheduler(problem, policy, seed).run()
# * random_delay  -> run_random_delay(problem, alpha, seed)
# * bounded_buffer-> BoundedBufferScheduler(problem, k, seed).run()
# * dynamic_*     -> the legacy ``repro dynamic`` pipeline (seed..seed+3)


def _budget(problem, params) -> int:
    from ..experiments.configs import baseline_budget

    explicit = params.get("max_steps")
    return int(explicit) if explicit is not None else baseline_budget(problem)


def _env_backend() -> Optional[str]:
    """The ``REPRO_BACKEND`` engine override, if set.

    Lets CI (and users) rerun frontier-family scenarios on the vectorized
    kernel without touching specs: ``REPRO_BACKEND=frontier_vec`` reroutes
    the ``frontier`` backend to :func:`run_frontier_vec_trial`, which is
    byte-identical to the reference path (the equivalence contract in
    :mod:`repro.sim.engine_vec`).
    """
    import os

    value = os.environ.get("REPRO_BACKEND")
    return value if value else None


@BACKENDS.register("frontier", needs="problem", family="frontier")
def _backend_frontier(problem, seed: int, params: dict):
    """The paper's frontier-frame algorithm (Theorem 4.26)."""
    if _env_backend() == "frontier_vec":
        from ..experiments.runner import run_frontier_vec_trial

        record = run_frontier_vec_trial(problem, seed=seed, **params)
        return record.result, record.audit
    from ..experiments.runner import run_frontier_trial

    record = run_frontier_trial(problem, seed=seed, **params)
    return record.result, record.audit


@BACKENDS.register("frontier_vec", needs="problem", family="frontier")
def _backend_frontier_vec(problem, seed: int, params: dict):
    """Frontier-frame algorithm on the vectorized array kernel.

    Same RunResult digests as ``frontier`` for any (problem, seed); falls
    back to the reference engine when auditing is requested.
    """
    from ..experiments.runner import run_frontier_vec_trial

    record = run_frontier_vec_trial(problem, seed=seed, **params)
    return record.result, record.audit


def _naive_factory(router_seed: int):
    from ..baselines import NaivePathRouter

    return NaivePathRouter()


def _greedy_factory(router_seed: int):
    from ..baselines import GreedyHotPotatoRouter

    return GreedyHotPotatoRouter(seed=router_seed)


def _randgreedy_factory(router_seed: int):
    from ..baselines import RandomizedGreedyRouter

    return RandomizedGreedyRouter(seed=router_seed)


@BACKENDS.register("naive", needs="problem", family="deflection")
def _backend_naive(problem, seed: int, params: dict):
    """Uncoordinated path-following hot-potato strawman."""
    from ..experiments.runner import run_router_trial

    return (
        run_router_trial(problem, _naive_factory, seed, _budget(problem, params)),
        None,
    )


@BACKENDS.register("naive_vec", needs="problem", family="deflection")
def _backend_naive_vec(problem, seed: int, params: dict):
    """Naive path-following baseline on the vectorized array kernel."""
    from ..experiments.runner import run_naive_vec_trial

    return (
        run_naive_vec_trial(problem, seed, _budget(problem, params)),
        None,
    )


@BACKENDS.register("greedy", needs="problem", family="deflection")
def _backend_greedy(problem, seed: int, params: dict):
    """Distance-greedy hot-potato deflection routing."""
    from ..experiments.runner import run_router_trial

    return (
        run_router_trial(problem, _greedy_factory, seed, _budget(problem, params)),
        None,
    )


@BACKENDS.register("randgreedy", needs="problem", family="deflection")
def _backend_randgreedy(problem, seed: int, params: dict):
    """Randomized greedy hot-potato deflection routing."""
    from ..experiments.runner import run_router_trial

    return (
        run_router_trial(
            problem, _randgreedy_factory, seed, _budget(problem, params)
        ),
        None,
    )


@BACKENDS.register("storeforward", needs="problem", family="store_forward")
def _backend_storeforward(problem, seed: int, params: dict):
    """Store-and-forward with unbounded buffers (the buffered reference)."""
    from ..baselines import QueuePolicy, StoreForwardScheduler

    policy = QueuePolicy(params.get("policy", "fifo"))
    scheduler = StoreForwardScheduler(problem, policy=policy, seed=seed)
    max_steps = params.get("max_steps")
    result = scheduler.run(None if max_steps is None else int(max_steps))
    return result, None


@BACKENDS.register("random_delay", needs="problem", family="store_forward")
def _backend_random_delay(problem, seed: int, params: dict):
    """LMRR random-initial-delay store-and-forward (O(C+L+log N) yardstick)."""
    from ..baselines import run_random_delay

    max_steps = params.get("max_steps")
    result = run_random_delay(
        problem,
        alpha=float(params.get("alpha", 1.0)),
        seed=seed,
        max_steps=None if max_steps is None else int(max_steps),
    )
    return result, None


@BACKENDS.register("bounded_buffer", needs="problem", family="bounded_buffer")
def _backend_bounded_buffer(problem, seed: int, params: dict):
    """Store-and-forward with bounded per-edge buffers and backpressure."""
    from ..baselines import BoundedBufferScheduler

    scheduler = BoundedBufferScheduler(
        problem, buffer_size=int(params.get("buffer_size", 2)), seed=seed
    )
    max_steps = params.get("max_steps")
    result = scheduler.run(None if max_steps is None else int(max_steps))
    return result, None


class DynamicNaiveRouter(NaivePathRouter):
    """:class:`~repro.baselines.NaivePathRouter` under its dynamic-backend name.

    The engine installs the problem's arrival schedule itself, so the
    stock router needs no changes; the subclass exists because results
    and trace headers record the router's class name.
    """


class DynamicGreedyRouter(GreedyHotPotatoRouter):
    """:class:`~repro.baselines.GreedyHotPotatoRouter` under its dynamic-backend name."""


def _latency_stats(result, arrival_times, path_lengths) -> dict:
    """Latency (absorption - arrival) and hop-stretch summary of a dynamic run.

    Undelivered packets are skipped; with nothing delivered every figure is
    NaN.  Quantiles use numpy's default linear interpolation.
    """
    latencies = []
    stretches = []
    for pid, delivered_at in enumerate(result.delivery_times):
        if delivered_at is None:
            continue
        latency = delivered_at - arrival_times[pid]
        latencies.append(latency)
        if path_lengths[pid] > 0:
            stretches.append(latency / path_lengths[pid])
    nan = float("nan")
    mean = p50 = p95 = worst = nan
    if latencies:
        arr = np.asarray(latencies, dtype=float)
        mean = float(arr.mean())
        p50, p95 = (float(q) for q in np.quantile(arr, [0.5, 0.95]))
        worst = float(arr.max())
    return {
        "mean_latency": mean,
        "p50_latency": p50,
        "p95_latency": p95,
        "max_latency": worst,
        "mean_hop_stretch": float(np.mean(stretches)) if stretches else nan,
    }


def _run_dynamic(net, seed: int, params: dict, greedy: bool):
    from ..sim import Engine
    from ..traffic import (
        BernoulliSource,
        collect_arrivals,
        offered_load,
        problem_from_arrivals,
    )

    rate = float(params.get("rate", 0.3))
    horizon = int(params.get("horizon", 200))
    drain = int(params.get("drain", 50000))
    if drain < 0:
        raise WorkloadError(f"drain must be >= 0, got {drain}")
    arrivals = collect_arrivals(
        BernoulliSource(net, rate, seed=seed, horizon=horizon)
    )
    if not arrivals:
        raise WorkloadError(
            f"no arrivals generated on {net.name} at rate {rate} "
            f"over {horizon} steps (rate too low?)"
        )
    problem, times = problem_from_arrivals(net, arrivals, seed=seed + 1)
    if greedy:
        router = DynamicGreedyRouter(seed=seed + 2)
    else:
        router = DynamicNaiveRouter()
    result = Engine(problem, router, seed=seed + 3).run(horizon + drain)
    stats = _latency_stats(result, times, [len(s.path) for s in problem])
    result.extra.update(
        {
            "rate": rate,
            "horizon": float(horizon),
            "offered": float(result.num_packets),
            "delivered": float(result.delivered),
            "drained": 1.0 if result.all_delivered else 0.0,
            **stats,
            "offered_load": float(offered_load(net, arrivals, horizon)),
        }
    )
    return result, None


@BACKENDS.register("dynamic_naive", needs="network", family="dynamic")
def _backend_dynamic_naive(net, seed: int, params: dict):
    """Continuous Bernoulli injection, path-following deflection routing."""
    return _run_dynamic(net, seed, params, greedy=False)


@BACKENDS.register("dynamic_greedy", needs="network", family="dynamic")
def _backend_dynamic_greedy(net, seed: int, params: dict):
    """Continuous Bernoulli injection, distance-greedy deflection routing."""
    return _run_dynamic(net, seed, params, greedy=True)
