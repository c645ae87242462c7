"""Tests for dynamic (continuous-injection) routing.

Traffic comes from :mod:`repro.traffic` (a Bernoulli source materialized
into a schedule-carrying problem); the ``dynamic_*`` scenario backends run
it on the stock deflection routers and report latency statistics in
``result.extra``.
"""

import math

import pytest

from repro.errors import WorkloadError
from repro.experiments import dynamic_spec
from repro.net import butterfly
from repro.scenarios import run_trial
from repro.scenarios.components import (
    DynamicGreedyRouter,
    DynamicNaiveRouter,
    _latency_stats,
)
from repro.sim import Engine
from repro.traffic import (
    Arrival,
    ArrivalSchedule,
    BernoulliSource,
    collect_arrivals,
    offered_load,
    problem_from_arrivals,
)


@pytest.fixture
def net():
    return butterfly(3)


def bernoulli(net, rate, horizon, seed=None, **kwargs):
    return collect_arrivals(
        BernoulliSource(net, rate, seed=seed, horizon=horizon, **kwargs)
    )


def naive_spec(rate, horizon, drain, seed):
    """A ``dynamic_naive`` run on butterfly(3)."""
    return dynamic_spec(
        3, rate=rate, horizon=horizon, drain=drain, seed=seed, greedy=False
    )


def _fixture_result(delivery_times, delivered):
    """A minimal RunResult for hand-computed metric fixtures."""
    from repro.sim import RunResult

    n = len(delivery_times)
    return RunResult(
        router_name="fixture",
        network_name="fixture",
        num_packets=n,
        congestion=1,
        dilation=1,
        depth=3,
        delivered=delivered,
        makespan=max((t for t in delivery_times if t is not None), default=0),
        steps_executed=0,
        steps_skipped=0,
        delivery_times=list(delivery_times),
        deflections_per_packet=[0] * n,
        unsafe_deflections=0,
        total_moves=0,
        total_backward_moves=0,
    )


class TestArrivals:
    def test_rate_controls_volume(self, net):
        low = bernoulli(net, 0.05, horizon=200, seed=1)
        high = bernoulli(net, 0.5, horizon=200, seed=1)
        assert len(high) > 3 * len(low)

    def test_arrival_fields_valid(self, net):
        for arrival in bernoulli(net, 0.2, horizon=50, seed=2):
            assert 0 <= arrival.time < 50
            assert net.level(arrival.destination) > net.level(arrival.source)

    def test_source_levels_respected(self, net):
        arrivals = bernoulli(net, 0.3, horizon=50, seed=3, source_levels=[0])
        assert arrivals
        assert all(net.level(a.source) == 0 for a in arrivals)

    def test_min_hops(self, net):
        arrivals = bernoulli(net, 0.3, horizon=50, seed=4, min_hops=3)
        assert all(
            net.level(a.destination) - net.level(a.source) >= 3
            for a in arrivals
        )

    def test_rate_validated(self, net):
        with pytest.raises(WorkloadError):
            BernoulliSource(net, 1.5, horizon=10)
        with pytest.raises(WorkloadError):
            BernoulliSource(net, 0.1, horizon=0)

    def test_reproducible(self, net):
        a = bernoulli(net, 0.2, horizon=100, seed=9)
        b = bernoulli(net, 0.2, horizon=100, seed=9)
        assert a == b

    def test_offered_load_monotone(self, net):
        low = bernoulli(net, 0.05, horizon=100, seed=1)
        high = bernoulli(net, 0.5, horizon=100, seed=1)
        assert offered_load(net, high, 100) > offered_load(net, low, 100)


class TestProblemConversion:
    def test_multi_source_allowed(self, net):
        arrivals = [
            Arrival(0, net.nodes_at_level(0)[0], net.nodes_at_level(3)[0]),
            Arrival(5, net.nodes_at_level(0)[0], net.nodes_at_level(3)[1]),
        ]
        problem, times = problem_from_arrivals(net, arrivals, seed=0)
        assert problem.num_packets == 2
        assert times == [0, 5]
        assert list(problem.arrival_schedule.times) == [0, 5]


class TestDynamicRouting:
    @pytest.mark.parametrize("router_cls", [DynamicNaiveRouter, DynamicGreedyRouter])
    def test_packets_respect_arrival_times(self, net, router_cls):
        arrivals = bernoulli(net, 0.2, horizon=60, seed=5)
        problem, times = problem_from_arrivals(net, arrivals, seed=6)
        router = (
            router_cls()
            if router_cls is DynamicNaiveRouter
            else router_cls(seed=7)
        )
        engine = Engine(problem, router, seed=8)
        result = engine.run(60 + 5000)
        assert result.all_delivered
        for pid, packet in enumerate(engine.packets):
            assert packet.injected_at >= times[pid]

    def test_high_load_does_not_crash(self):
        """Regression: pending injections must never starve deflected
        residents of slots (the revocation rule)."""
        result = run_trial(naive_spec(0.9, 100, 30000, seed=11)).result
        assert result.all_delivered
        assert result.unsafe_deflections == 0

    def test_latency_grows_with_load(self):
        extras = {
            rate: run_trial(naive_spec(rate, 150, 30000, seed=21)).result.extra
            for rate in (0.1, 0.8)
        }
        assert all(extra["drained"] == 1.0 for extra in extras.values())
        assert extras[0.8]["mean_latency"] > extras[0.1]["mean_latency"]

    def test_schedule_length_validated(self, net):
        arrivals = bernoulli(net, 0.2, horizon=30, seed=31)
        problem, times = problem_from_arrivals(net, arrivals, seed=32)
        problem.arrival_schedule = ArrivalSchedule(times[:-1])
        with pytest.raises(WorkloadError):
            Engine(problem, DynamicNaiveRouter(), seed=33)

    def test_negative_times_rejected(self):
        with pytest.raises(WorkloadError):
            ArrivalSchedule([-1, 0])

    def test_negative_drain_rejected(self):
        with pytest.raises(WorkloadError, match="drain"):
            run_trial(naive_spec(0.3, 50, -500, seed=1))


class TestDynamicStats:
    def test_stats_fields(self):
        result = run_trial(naive_spec(0.2, 50, 5000, seed=41)).result
        extra = result.extra
        assert extra["drained"] == 1.0
        assert extra["offered"] == result.num_packets
        assert extra["delivered"] == result.delivered
        assert extra["mean_hop_stretch"] >= 1.0
        assert extra["p50_latency"] <= extra["p95_latency"] <= extra["max_latency"]
        assert 0.0 < extra["offered_load"] < 1.0

    def test_undelivered_handled(self):
        # No drain: packets arriving in the last steps cannot finish.
        extra = run_trial(naive_spec(0.2, 50, 0, seed=51)).result.extra
        assert extra["drained"] == 0.0
        assert extra["delivered"] < extra["offered"]

    def test_zero_delivered(self):
        """All-NaN latencies, not a crash, when nothing got through."""
        result = _fixture_result(delivery_times=[None, None], delivered=0)
        stats = _latency_stats(result, [0, 1], [2, 2])
        assert set(stats) == {
            "mean_latency",
            "p50_latency",
            "p95_latency",
            "max_latency",
            "mean_hop_stretch",
        }
        assert all(math.isnan(value) for value in stats.values())

    def test_single_step_run(self):
        """A run cut off after one step is summarized, mostly undelivered."""
        result = run_trial(naive_spec(0.3, 1, 0, seed=61)).result
        extra = result.extra
        assert result.steps_executed == 1
        assert extra["offered"] == result.num_packets > 0
        assert extra["delivered"] == result.delivered
        assert extra["drained"] == 0.0

    def test_percentiles_hand_computed(self):
        """Latency percentiles against a hand-computed fixture.

        Arrivals [0, 10, 0, 5], deliveries [4, 16, 9, 13] give latencies
        [4, 6, 9, 8]; with numpy's linear interpolation the quantiles of
        sorted [4, 6, 8, 9] are p50 = 7.0 and p95 = 8.85.
        """
        result = _fixture_result(delivery_times=[4, 16, 9, 13], delivered=4)
        stats = _latency_stats(result, [0, 10, 0, 5], [2, 3, 3, 4])
        assert stats["mean_latency"] == pytest.approx(6.75)
        assert stats["p50_latency"] == pytest.approx(7.0)
        assert stats["p95_latency"] == pytest.approx(8.85)
        assert stats["max_latency"] == 9.0
        # stretches: 4/2, 6/3, 9/3, 8/4 -> mean of [2, 2, 3, 2] = 2.25
        assert stats["mean_hop_stretch"] == pytest.approx(2.25)

    def test_partial_delivery_skips_lost_packets(self):
        result = _fixture_result(delivery_times=[3, None, 7], delivered=2)
        stats = _latency_stats(result, [0, 0, 2], [3, 3, 3])
        assert stats["mean_latency"] == pytest.approx(4.0)  # [3, 5]
        assert stats["max_latency"] == 5.0


class TestOfferedLoad:
    def test_zero_arrivals(self, net):
        assert offered_load(net, [], 100) == 0.0

    def test_counts_per_step_per_edge(self, net):
        lo = net.nodes_at_level(0)[0]
        hi = net.nodes_at_level(3)[0]
        arrivals = [Arrival(t, lo, hi) for t in range(10)]
        # 10 packets x 3 hops over 10 steps on num_edges forward edges
        assert offered_load(net, arrivals, 10) == pytest.approx(
            3.0 / net.num_edges
        )
        # Halving the horizon doubles the per-step load.
        assert offered_load(net, arrivals, 5) == pytest.approx(
            6.0 / net.num_edges
        )

    def test_horizon_validated(self, net):
        with pytest.raises(WorkloadError):
            offered_load(net, [], 0)
