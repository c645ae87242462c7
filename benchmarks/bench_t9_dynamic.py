"""T9 — dynamic deflection routing (after the paper's reference [9]).

The paper routes static batches; Broder–Upfal's dynamic setting (which it
cites as the hot-potato context) injects packets continuously.  The
engine's timed-eligibility mechanism handles this directly; the bench
sweeps Bernoulli injection rates toward the bandwidth limit on a butterfly
and reports the classic stability picture: latency is flat and near the
path length at low load and diverges as utilization approaches 1, while
deflections stay backward-and-safe throughout (the Lemma 2.1 mechanics are
load-independent).
"""

from repro.analysis import format_table
from repro.experiments import dynamic_spec
from repro.scenarios import build_network, run_trial

from _common import emit, once, reset

HORIZON = 200


def run_dynamic(rate, router_kind, seed):
    """One ``dynamic_*`` backend run on butterfly(4); stats in ``extra``."""
    spec = dynamic_spec(
        4, rate=rate, horizon=HORIZON, seed=seed, greedy=router_kind == "greedy"
    )
    return run_trial(spec).result


def stats_row(extra) -> tuple:
    """Bench table row from the backend's latency statistics."""
    return (
        int(extra["offered"]),
        int(extra["delivered"]),
        "yes" if extra["drained"] else "NO",
        f"{extra['mean_latency']:.1f}",
        f"{extra['p50_latency']:.0f}",
        f"{extra['p95_latency']:.0f}",
        f"{extra['mean_hop_stretch']:.2f}",
    )


def test_t9_stability_sweep(benchmark):
    reset("t9_dynamic")
    net = build_network(dynamic_spec(4))
    for router_kind in ("naive", "greedy"):
        rows = []
        stretches = []
        for rate in (0.1, 0.3, 0.5, 0.7, 0.9):
            result = run_dynamic(rate, router_kind, seed=7)
            assert result.all_delivered, result.summary()
            assert result.unsafe_deflections == 0
            extra = result.extra
            rows.append(
                (f"{rate:.1f}", f"{extra['offered_load']:.2f}") + stats_row(extra)
            )
            stretches.append(extra["mean_hop_stretch"])
        emit(
            "t9_dynamic",
            format_table(
                [
                    "rate",
                    "util",
                    "packets",
                    "delivered",
                    "drained",
                    "mean lat",
                    "p50",
                    "p95",
                    "stretch",
                ],
                rows,
                title=f"T9 ({router_kind}): dynamic deflection routing on "
                f"{net.describe()}, {HORIZON}-step Bernoulli arrivals",
                note="latency diverges as utilization approaches the "
                "bandwidth limit (the [9] stability picture); every "
                "deflection remained backward and safe at every load",
            ),
        )
        # Stability shape: latency stretch grows monotonically-ish in load.
        assert stretches[-1] > 2 * stretches[0]

    once(benchmark, run_dynamic, 0.5, "naive", 7)
