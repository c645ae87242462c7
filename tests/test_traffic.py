"""Tests for the streaming traffic core (``repro.traffic``).

Covers four layers: injection sources, the engine-level arrival gating
shared by the reference and vectorized kernels, windowed live metrics, and
the open-loop streaming driver behind ``repro serve``.  The golden-digest class pins the refactored dynamic
pipeline to its pre-refactor behavior, hash for hash.
"""

import hashlib
import json
import pathlib
import tempfile

import pytest

from repro.baselines import GreedyHotPotatoRouter, NaivePathRouter
from repro.errors import ParameterError, ReproError, SimulationError, WorkloadError
from repro.net import butterfly
from repro.paths import random_monotone_path
from repro.rng import make_rng
from repro.scenarios import RunSpec, run_trial
from repro.sim import Engine
from repro.sim.events import EventKind, TraceEvent
from repro.telemetry import WindowedMetrics
from repro.telemetry.live import WINDOW_SCHEMA, _quantile
from repro.traffic import (
    Arrival,
    ArrivalSchedule,
    BatchSource,
    BernoulliSource,
    PoissonSource,
    TraceSource,
    collect_arrivals,
    make_stream_router,
    problem_from_arrivals,
    run_stream,
)
from repro.experiments import (
    run_frontier_trial,
    run_frontier_vec_trial,
    run_naive_vec_trial,
    run_router_trial,
)

@pytest.fixture
def net():
    return butterfly(3)


# ------------------------------------------------------------- ArrivalSchedule


class TestArrivalSchedule:
    def test_due_at_groups_and_orders(self):
        sched = ArrivalSchedule([5, 0, 5, 2])
        assert sched.due_at(5) == (0, 2)
        assert sched.due_at(0) == (1,)
        assert sched.due_at(2) == (3,)
        assert sched.due_at(1) == ()
        assert sched.max_time == 5

    def test_time_of(self):
        sched = ArrivalSchedule([3, 1])
        assert sched.time_of(0) == 3
        assert sched.time_of(1) == 1

    def test_negative_times_rejected(self):
        with pytest.raises(WorkloadError):
            ArrivalSchedule([0, -1])

    def test_validate_for_mismatch(self):
        sched = ArrivalSchedule([0, 1])
        sched.validate_for(2)
        with pytest.raises(WorkloadError):
            sched.validate_for(3)


# ------------------------------------------------------------------- sources


class TestSources:
    def test_bernoulli_validation(self, net):
        with pytest.raises(WorkloadError):
            BernoulliSource(net, 1.5)
        with pytest.raises(WorkloadError):
            BernoulliSource(net, 0.2, horizon=0)

    def test_bernoulli_open_loop_never_stops(self, net):
        src = BernoulliSource(net, 0.9, seed=3, horizon=None)
        assert src.horizon is None
        assert any(src.arrivals_at(t) for t in range(10))
        with pytest.raises(WorkloadError):
            collect_arrivals(src)  # cannot materialize without a horizon

    def test_poisson_fields_and_reproducibility(self, net):
        a = collect_arrivals(PoissonSource(net, 2.0, seed=5, horizon=40))
        b = collect_arrivals(PoissonSource(net, 2.0, seed=5, horizon=40))
        assert a == b
        assert a
        for arrival in a:
            assert 0 <= arrival.time < 40
            assert net.level(arrival.destination) > net.level(arrival.source)

    def test_poisson_validation(self, net):
        with pytest.raises(WorkloadError):
            PoissonSource(net, -0.1)

    def test_trace_source_sorts_and_bounds(self, net):
        lo = net.nodes_at_level(0)[0]
        hi = net.nodes_at_level(3)[0]
        src = TraceSource(
            [Arrival(7, lo, hi), Arrival(2, lo, hi), Arrival(2, lo, hi)]
        )
        assert src.horizon == 8
        assert len(src.arrivals_at(2)) == 2
        assert len(src.arrivals_at(7)) == 1
        assert collect_arrivals(src) == sorted(
            collect_arrivals(src), key=lambda a: a.time
        )
        with pytest.raises(WorkloadError):
            TraceSource([Arrival(-1, lo, hi)])

    def test_batch_source_is_static_case(self, net):
        lo = net.nodes_at_level(0)[0]
        hi = net.nodes_at_level(3)[0]
        src = BatchSource([(lo, hi), (lo, hi)])
        assert src.horizon == 1
        assert len(src.arrivals_at(0)) == 2
        assert src.arrivals_at(1) == []
        assert all(a.time == 0 for a in collect_arrivals(src))

    def test_problem_from_arrivals_attaches_schedule(self, net):
        arrivals = collect_arrivals(BernoulliSource(net, 0.2, seed=2, horizon=30))
        problem, times = problem_from_arrivals(net, arrivals, seed=4)
        assert problem.arrival_schedule is not None
        assert list(problem.arrival_schedule.times) == times
        assert [a.time for a in arrivals] == times


# ------------------------------------------------- engine-level arrival gating


class TestEngineGating:
    def test_plain_routers_respect_schedule(self, net):
        """Arrival release lives in the engine now: ordinary routers with no
        knowledge of schedules must still honor arrival times."""
        arrivals = collect_arrivals(BernoulliSource(net, 0.25, seed=9, horizon=50))
        problem, times = problem_from_arrivals(net, arrivals, seed=10)
        for router in (NaivePathRouter(), GreedyHotPotatoRouter(seed=11)):
            engine = Engine(problem, router, seed=12)
            result = engine.run(50 + 5000)
            assert result.all_delivered
            for pid, packet in enumerate(engine.packets):
                assert packet.injected_at >= times[pid]

    def test_schedule_length_checked_at_construction(self, net):
        arrivals = collect_arrivals(BernoulliSource(net, 0.2, seed=1, horizon=20))
        problem, _ = problem_from_arrivals(net, arrivals, seed=2)
        problem.arrival_schedule = ArrivalSchedule(
            list(problem.arrival_schedule.times) + [0]
        )
        with pytest.raises(WorkloadError):
            Engine(problem, NaivePathRouter(), seed=3)

    def test_admit_and_retire_recycle_slots(self, net):
        from repro.paths import RoutingProblem

        problem = RoutingProblem(net, [], allow_multi_source=True)
        engine = Engine(problem, NaivePathRouter(), seed=0)
        rng = make_rng(1)
        lo = net.nodes_at_level(0)[0]
        hi = net.nodes_at_level(3)[0]
        path = random_monotone_path(net, lo, hi, rng)
        pid = engine.admit(lo, hi, path)
        assert pid == 0
        with pytest.raises(SimulationError):
            engine.retire(pid)  # not absorbed yet
        for _ in range(200):
            engine.step()
            if engine.packets[pid].is_absorbed:
                break
        assert engine.packets[pid].is_absorbed
        engine.retire(pid)
        pid2 = engine.admit(lo, hi, random_monotone_path(net, lo, hi, rng))
        assert pid2 == pid  # slot reused
        assert len(engine.packets) == 1


# --------------------------------------------------- ref/vec kernel identity


def _asdict(result):
    from dataclasses import asdict

    return asdict(result)


class TestVecIdentityWithArrivals:
    def test_naive_ref_vs_vec(self, net):
        arrivals = collect_arrivals(BernoulliSource(net, 0.3, seed=21, horizon=60))
        problem, _ = problem_from_arrivals(net, arrivals, seed=22)
        ref = run_router_trial(problem, lambda s: NaivePathRouter(), 23, 60 + 5000)
        vec = run_naive_vec_trial(problem, 23, 60 + 5000)
        assert _asdict(ref) == _asdict(vec)

    def test_frontier_ref_vs_vec(self, net):
        arrivals = collect_arrivals(BernoulliSource(net, 0.2, seed=31, horizon=40))
        problem, _ = problem_from_arrivals(net, arrivals, seed=32)
        ref = run_frontier_trial(problem, 33).result
        vec = run_frontier_vec_trial(problem, 33).result
        assert _asdict(ref) == _asdict(vec)

    def test_backend_env_override_identical(self, net, monkeypatch):
        """Acceptance: REPRO_BACKEND=frontier_vec runs an injected-arrivals
        scenario identically to the reference backend."""
        spec = RunSpec(
            topology="butterfly",
            topology_params={"dim": 3},
            workload="",
            arrival="bernoulli",
            arrival_params={"rate": 0.2, "horizon": 40},
            backend="frontier",
            seed=5,
        )
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        ref = run_trial(spec).result
        monkeypatch.setenv("REPRO_BACKEND", "frontier_vec")
        vec = run_trial(spec).result
        assert _asdict(ref) == _asdict(vec)


# ----------------------------------------------------------- golden digests


def _digest_dynamic_run(backend, seed):
    """Pre-refactor digest recipe for the dynamic backends (pinned)."""
    spec = RunSpec(
        topology="butterfly",
        topology_params={"dim": 3},
        workload="",
        selector="none",
        backend=backend,
        backend_params={"rate": 0.45, "horizon": 80, "drain": 5000},
        seed=seed,
    )
    with tempfile.TemporaryDirectory() as td:
        trace = pathlib.Path(td) / "t.jsonl"
        rec = run_trial(spec, telemetry=True, trace_path=str(trace))
        r = rec.result
        res_payload = {
            "makespan": r.makespan,
            "delivered": r.delivered,
            "steps_executed": r.steps_executed,
            "steps_skipped": r.steps_skipped,
            "delivery_times": r.delivery_times,
            "deflections": r.deflections_per_packet,
            "unsafe": r.unsafe_deflections,
            "moves": r.total_moves,
            "backward": r.total_backward_moves,
            "extra": {
                k: (None if v != v else v) for k, v in sorted(r.extra.items())
            },
        }
        res_d = hashlib.sha256(
            json.dumps(res_payload, sort_keys=True).encode()
        ).hexdigest()[:16]
        tel_d = hashlib.sha256(
            json.dumps(r.telemetry, sort_keys=True).encode()
        ).hexdigest()[:16]
        trace_d = hashlib.sha256(trace.read_bytes()).hexdigest()[:16]
    return res_d, tel_d, trace_d


class TestDynamicGoldenDigests:
    """The refactored dynamic path must stay byte-identical to the
    pre-refactor routers (digests recorded before injection moved into the
    engines): results, telemetry, and full event traces."""

    GOLDEN = {
        ("dynamic_naive", 0): (
            "b97220aa8197ddf7", "37355310fe02669b", "d802311b6b354e52",
        ),
        ("dynamic_naive", 7): (
            "5f967754777271db", "ee205cb2b37341e9", "f22c7f0421866158",
        ),
        ("dynamic_greedy", 0): (
            "b97220aa8197ddf7", "37355310fe02669b", "e5bfc637b9c2b68c",
        ),
        ("dynamic_greedy", 7): (
            "5f967754777271db", "ee205cb2b37341e9", "f7d2e3dd3c9a9435",
        ),
    }

    @pytest.mark.parametrize("backend,seed", sorted(GOLDEN))
    def test_digests_pinned(self, backend, seed):
        assert _digest_dynamic_run(backend, seed) == self.GOLDEN[(backend, seed)]


# ----------------------------------------------------------------- streaming


class TestRunStream:
    def test_open_loop_memory_bounded(self, net):
        src = BernoulliSource(net, 0.15, seed=2, horizon=None)
        summary = run_stream(
            net,
            src,
            make_stream_router("greedy", seed=3),
            max_steps=400,
            path_seed=4,
            engine_seed=5,
            max_in_flight=net.num_edges,
        )
        assert summary.steps == 400
        assert summary.admitted > 100
        # The whole point: slots track the in-flight peak, not the total.
        assert summary.packet_slots == summary.peak_in_flight
        assert summary.packet_slots < summary.admitted // 4

    def test_finite_source_drains_and_stops(self, net):
        src = BernoulliSource(net, 0.2, seed=6, horizon=25)
        summary = run_stream(
            net,
            src,
            make_stream_router("naive"),
            max_steps=5000,
            path_seed=7,
            engine_seed=8,
        )
        assert summary.steps < 5000  # stopped early once drained
        assert summary.delivered == summary.admitted == summary.arrivals
        assert summary.dropped == 0

    def test_admission_cap_drops(self, net):
        src = BernoulliSource(net, 1.0, seed=9, horizon=None)
        summary = run_stream(
            net,
            src,
            make_stream_router("greedy", seed=10),
            max_steps=60,
            path_seed=11,
            engine_seed=12,
            max_in_flight=4,
        )
        assert summary.dropped > 0
        assert summary.peak_in_flight <= 4 + 1  # cap checked before admit
        assert summary.arrivals == summary.admitted + summary.dropped

    def test_metrics_agree_with_summary(self, net):
        windows = []
        metrics = WindowedMetrics(window=20, sink=windows.append)
        src = BernoulliSource(net, 0.2, seed=13, horizon=100)
        summary = run_stream(
            net,
            src,
            make_stream_router("greedy", seed=14),
            max_steps=3000,
            metrics=metrics,
            path_seed=15,
            engine_seed=16,
        )
        assert windows
        assert sum(w["arrivals"] for w in windows) == summary.admitted
        assert sum(w["delivered"] for w in windows) == summary.delivered
        assert sum(w["steps"] for w in windows) == summary.steps
        for w in windows:
            assert tuple(w.keys()) == WINDOW_SCHEMA

    def test_bad_inputs(self, net):
        with pytest.raises(ParameterError):
            make_stream_router("bogus")
        with pytest.raises(ParameterError):
            run_stream(
                net,
                BernoulliSource(net, 0.1, seed=0, horizon=5),
                make_stream_router("naive"),
                max_steps=0,
            )


# ------------------------------------------------------------- live metrics


class TestWindowedMetrics:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            WindowedMetrics(window=0)

    def test_flush_cadence_and_partial_close(self):
        windows = []
        m = WindowedMetrics(window=3, sink=windows.append)
        for t in range(7):
            m.end_step(t, num_active=t)
        assert len(windows) == 2  # t=2 and t=5 completed windows
        m.close(6)
        assert len(windows) == 3
        assert [w["steps"] for w in windows] == [3, 3, 1]
        assert [w["t_start"] for w in windows] == [0, 3, 6]
        assert [w["t_end"] for w in windows] == [3, 6, 7]

    def test_latency_percentiles_hand_computed(self):
        windows = []
        m = WindowedMetrics(window=10, sink=windows.append)
        # Packets arrive at t=0 and are absorbed so that latencies
        # (time + 1 - arrival) are exactly [1, 2, 3, 4].
        for pid in range(4):
            m.note_arrival(pid, 0)
            m.on_event(TraceEvent(time=pid, kind=EventKind.ABSORB, packet=pid))
        for t in range(10):
            m.end_step(t, num_active=0)
        (w,) = windows
        assert w["delivered"] == 4
        assert w["latency_mean"] == pytest.approx(2.5)
        assert w["latency_p50"] == pytest.approx(2.5)
        assert w["latency_p95"] == pytest.approx(3.85)
        assert w["latency_max"] == 4.0

    def test_empty_window_has_null_latency(self):
        windows = []
        m = WindowedMetrics(window=2, sink=windows.append)
        m.end_step(0, num_active=0)
        m.end_step(1, num_active=0)
        (w,) = windows
        assert w["latency_mean"] is None
        assert w["latency_p50"] is None
        assert w["throughput"] == 0.0

    def test_deflection_and_drop_counters(self):
        windows = []
        m = WindowedMetrics(window=1, sink=windows.append)
        m.on_event(TraceEvent(time=0, kind=EventKind.DEFLECT, packet=0))
        m.on_event(TraceEvent(time=0, kind=EventKind.UNSAFE_DEFLECT, packet=1))
        m.note_drop(0)
        m.end_step(0, num_active=2)
        (w,) = windows
        assert w["deflections"] == 2
        assert w["unsafe_deflections"] == 1
        assert w["dropped"] == 1
        assert w["occupancy_max"] == 2

    def test_quantile_matches_numpy(self):
        np = pytest.importorskip("numpy")
        data = sorted([0.0, 1.0, 1.0, 4.0, 10.0, 2.5])
        for q in (0.0, 0.25, 0.5, 0.95, 1.0):
            assert _quantile(data, q) == pytest.approx(
                float(np.quantile(data, q))
            )


# --------------------------------------------------------- RunSpec arrivals


class TestRunSpecArrival:
    def test_workload_and_arrival_mutually_exclusive(self):
        with pytest.raises(ReproError):
            RunSpec(
                topology="butterfly",
                backend="frontier",
                workload="permutation",
                arrival="bernoulli",
            )

    def test_arrival_params_require_arrival(self):
        with pytest.raises(ReproError):
            RunSpec(
                topology="butterfly",
                backend="frontier",
                arrival_params={"rate": 0.2},
            )

    def test_legacy_specs_hash_unchanged(self):
        """Adding the arrival fields must not disturb existing spec hashes:
        they serialize only when set."""
        spec = RunSpec(
            topology="butterfly",
            topology_params={"dim": 3},
            workload="permutation",
            backend="frontier",
            seed=1,
        )
        d = spec.to_dict()
        assert "arrival" not in d
        assert "arrival_params" not in d
        assert RunSpec.from_dict(d) == spec
        assert RunSpec.from_dict(d).content_hash() == spec.content_hash()

    def test_arrival_spec_round_trips(self):
        spec = RunSpec(
            topology="butterfly",
            topology_params={"dim": 3},
            workload="",
            arrival="bernoulli",
            arrival_params={"rate": 0.2, "horizon": 40},
            backend="frontier",
            seed=5,
        )
        again = RunSpec.from_json(spec.to_json())
        assert again == spec
        assert again.content_hash() == spec.content_hash()
        assert "~bernoulli" in spec.describe()

    def test_arrival_seed_pinning(self):
        spec = RunSpec(
            topology="butterfly",
            topology_params={"dim": 3},
            arrival="bernoulli",
            backend="frontier",
            seed=5,
        )
        pinned = spec.with_pinned_scenario()
        assert pinned.arrival_params["seed"] == spec.arrival_seed()
        assert pinned.arrival_seed() == spec.arrival_seed()

    def test_arrival_scenario_runs_on_batch_backend(self):
        spec = RunSpec(
            topology="butterfly",
            topology_params={"dim": 3},
            arrival="bernoulli",
            arrival_params={"rate": 0.2, "horizon": 40},
            backend="frontier",
            seed=5,
        )
        rec = run_trial(spec)
        assert rec.result.all_delivered
        assert rec.result.delivered > 0

    def test_arrival_requires_random_selector(self):
        spec = RunSpec(
            topology="butterfly",
            topology_params={"dim": 3},
            arrival="bernoulli",
            selector="bottleneck",
            backend="frontier",
            seed=5,
        )
        with pytest.raises(ReproError):
            run_trial(spec)

    def test_empty_arrival_stream_is_workload_error(self):
        spec = RunSpec(
            topology="butterfly",
            topology_params={"dim": 3},
            arrival="bernoulli",
            arrival_params={"rate": 0.0, "horizon": 5},
            backend="frontier",
            seed=5,
        )
        with pytest.raises(WorkloadError):
            run_trial(spec)
