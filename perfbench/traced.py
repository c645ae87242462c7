"""One traced run of a workload, in a fresh interpreter.

Run as ``python -m perfbench.traced --workload W --input FILE --work DIR``
with the checkout's ``src`` and root on ``PYTHONPATH``.  In order, it:

1. imports the program under ``import.repro`` spans (the first ``numpy``
   import becomes a child ``import.numpy`` span wherever it happens);
2. wraps the public functions of each layer and runs the workload's
   command in this process with serial dispatch (``repro.cli.main``);
3. removes every wrapper and runs the same command untraced, for
   ``trace.overhead_ratio``;
4. on sweeps, times one shard through the worker pool against serial
   dispatch (``batch.pool_*``);

then writes the spans to ``DIR/spans.tsv.gz`` and prints one JSON line:
the per-layer metrics, the SHA-256 of both runs' outputs, and whether
every wrapped function was restored.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import pathlib
import statistics
import sys
from time import perf_counter
from typing import Dict, List

from perfbench.checks import makespan_ratio_mean, parse_serve, record_lines, sweep_output
from perfbench.tracer import ROOT, ImportSpans, Target, Tracer, install, layer_totals, uninstall
from perfbench.workloads import WORKLOADS, Inputs, serial_argv


class Observations:
    """Counts the wrappers collect beyond span timing."""

    def __init__(self) -> None:
        self.caches: Dict[int, object] = {}
        self.lockstep_widths: List[int] = []
        self.bytes_encoded = 0

    def cache(self, args, kwargs, result) -> None:
        self.caches[id(args[0])] = args[0]

    def lockstep(self, args, kwargs, result) -> None:
        seeds = args[1] if len(args) > 1 else kwargs["seeds"]
        self.lockstep_widths.append(len(seeds))

    def encoded(self, args, kwargs, result) -> None:
        self.bytes_encoded += len(result)


def targets(kind: str, obs: Observations) -> List[Target]:
    """The layer boundaries traced on a sweep or serve workload."""
    common = [
        Target("scenarios.spec_hash", "repro.scenarios.spec:RunSpec.content_hash"),
        Target("scenarios.with_seed", "repro.scenarios.spec:RunSpec.with_seed"),
        Target("scenarios.build", "repro.scenarios.dispatch:build_problem"),
        Target("net.build", "repro.scenarios.dispatch:build_network"),
        Target("paths.select", "repro.paths.select:select_paths_bottleneck"),
        Target(None, "repro.scenarios.cache:ScenarioCache.problem_for", obs.cache),
    ]
    if kind == "sweep":
        return common + [
            Target("scenarios.with_seed", "repro.sweeps.manifest:SweepManifest.shard_specs"),
            Target(
                "sim.lockstep",
                "repro.experiments.runner:run_frontier_trials_lockstep",
                obs.lockstep,
            ),
            Target("batch.run_chunk", "repro.experiments.batch:TrialExecutor.run_chunk"),
            Target("sweeps.encode", "repro.sweeps.store:encode_record", obs.encoded),
            Target("sweeps.append", "repro.sweeps.store:ShardWriter.append"),
            Target("sweeps.resume", "repro.sweeps.store:SweepStore.resume_shard"),
            Target("sweeps.finalize", "repro.sweeps.store:SweepStore.finalize_shard"),
            Target("sweeps.lease", "repro.sweeps.lease:LeaseManager.claim"),
            Target("sweeps.lease", "repro.sweeps.lease:ShardLease.heartbeat"),
            Target("sweeps.aggregate", "repro.sweeps.aggregate:aggregate_store"),
            Target("sweeps.compact", "repro.sweeps.store:SweepStore.compact"),
        ]
    sources = ("BernoulliSource", "PoissonSource", "TraceSource", "BatchSource")
    return common + [
        Target("sim.engine_step", "repro.sim.engine:Engine.step"),
        Target("sim.admit", "repro.sim.engine:Engine.admit"),
        Target("sim.retire", "repro.sim.engine:Engine.retire"),
        *(
            Target("traffic.arrivals", f"repro.traffic.sources:{cls}.arrivals_at")
            for cls in sources
        ),
        Target("paths.draw", "repro.paths.path:random_monotone_path"),
        Target("telemetry.event", "repro.telemetry.live:WindowedMetrics.on_event"),
        Target("telemetry.window", "repro.telemetry.live:WindowedMetrics.end_step"),
        Target("telemetry.window", "repro.telemetry.live:WindowedMetrics.close"),
    ]


def run_cli(argv: List[str]):
    """``repro.cli.main(argv)`` with stdout captured: (exit code, stdout)."""
    from repro.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def output_bytes(kind: str, store: pathlib.Path, stdout: str) -> bytes:
    """The bytes the traced and untraced runs must agree on."""
    if kind == "sweep":
        return sweep_output(store)[0]
    return stdout.encode("utf-8")


def pool_overhead(manifest_path: pathlib.Path) -> Dict[str, float]:
    """One shard via ``dispatch="pool"`` (2 workers) against serial."""
    from repro.experiments.batch import run_spec_trials_batched
    from repro.sweeps import load_manifest

    specs = load_manifest(manifest_path).shard_specs(0)
    start = perf_counter()
    run_spec_trials_batched(specs, workers=1, dispatch="serial")
    serial = perf_counter() - start
    start = perf_counter()
    records = run_spec_trials_batched(specs, workers=2, dispatch="pool")
    pool = perf_counter() - start
    widths = []
    for record in records:
        tag = record.executor or ""
        widths.append(int(tag[len("lockstep[w="):-1]) if tag.startswith("lockstep[w=") else 1)
    return {
        "batch.pool_overhead_s": pool - serial / 2,
        "batch.pool_width_mean": statistics.fmean(widths),
    }


def layer_metrics(kind, totals, obs, output, traced_wall, untraced_wall) -> Dict[str, float]:
    """Every per-layer metric; layers the workload never calls read 0."""

    def self_s(*names):
        return sum(totals.get(n, (0.0, 0))[0] for n in names)

    def calls(name):
        return totals.get(name, (0.0, 0))[1]

    hits = sum(c.hits for c in obs.caches.values())
    misses = sum(c.misses for c in obs.caches.values())
    m = {
        "import.repro_s": self_s("import.repro"),
        "import.numpy_s": self_s("import.numpy"),
        "scenarios.spec_hash_s": self_s("scenarios.spec_hash"),
        "scenarios.spec_hash_calls": calls("scenarios.spec_hash"),
        "scenarios.with_seed_s": self_s("scenarios.with_seed"),
        "scenarios.build_s": self_s("scenarios.build"),
        "scenarios.build_calls": calls("scenarios.build"),
        "scenarios.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "net.build_s": self_s("net.build"),
        "paths.select_s": self_s("paths.select"),
        "sim.lockstep_s": self_s("sim.lockstep"),
        "sim.lockstep_runs": calls("sim.lockstep"),
        "sim.lockstep_width_mean": (
            statistics.fmean(obs.lockstep_widths) if obs.lockstep_widths else 0.0
        ),
        "sim.engine_step_s": self_s("sim.engine_step"),
        "sim.engine_steps": calls("sim.engine_step"),
        "sim.admit_s": self_s("sim.admit"),
        "sim.retire_s": self_s("sim.retire"),
        "batch.run_chunk_s": self_s("batch.run_chunk"),
        "batch.pool_overhead_s": 0.0,
        "batch.pool_width_mean": 0.0,
        "sweeps.encode_s": self_s("sweeps.encode"),
        "sweeps.append_s": self_s("sweeps.append"),
        "sweeps.bytes_written": obs.bytes_encoded,
        "sweeps.resume_s": self_s("sweeps.resume"),
        "sweeps.finalize_s": self_s("sweeps.finalize"),
        "sweeps.lease_s": self_s("sweeps.lease"),
        "sweeps.aggregate_s": self_s("sweeps.aggregate"),
        "sweeps.compact_s": self_s("sweeps.compact"),
        "traffic.arrivals_s": self_s("traffic.arrivals"),
        "traffic.admit_ratio": 0.0,
        "paths.draw_s": self_s("paths.draw"),
        "paths.draw_calls": calls("paths.draw"),
        "telemetry.window_s": self_s("telemetry.window", "telemetry.event"),
        "telemetry.events": calls("telemetry.event"),
        "sim.makespan_ratio_mean": 0.0,
        "sim.latency_p95_steps": 0.0,
        "sim.delivered_per_step": 0.0,
        "trace.overhead_ratio": traced_wall / untraced_wall,
        "trace.unattributed_s": self_s(ROOT),
    }
    if kind == "sweep":
        lines = record_lines(output)
        results = [json.loads(line)["result"] for line in lines]
        executed = sum(r["steps_executed"] for r in results)
        m["sim.steps_executed"] = executed
        m["sim.ff_skip_ratio"] = 1.0 - executed / sum(r["makespan"] for r in results)
        m["sim.us_per_step"] = 1e6 * m["sim.lockstep_s"] / executed
        m["sim.makespan_ratio_mean"] = makespan_ratio_mean(lines)
    else:
        _, windows, summary = parse_serve(output)
        steps = m["sim.engine_steps"]
        m["sim.steps_executed"] = steps
        m["sim.ff_skip_ratio"] = 1.0 - steps / summary["steps"]
        m["sim.us_per_step"] = 1e6 * m["sim.engine_step_s"] / steps
        m["traffic.admit_ratio"] = summary["admitted"] / summary["arrivals"]
        p95 = [w["latency_p95"] for w in windows if w["latency_p95"] is not None]
        m["sim.latency_p95_steps"] = statistics.median(p95)
        m["sim.delivered_per_step"] = summary["delivered"] / summary["steps"]
    return m


def heavy_layers(name: str, m: Dict[str, float], traced_wall: float) -> dict:
    """Whether the trace confirms the workload's stated heavy layers."""
    build = m["scenarios.build_s"] + m["net.build_s"] + m["paths.select_s"]
    if name == "sweep_fixed":
        plumbing = sum(v for k, v in m.items() if k.startswith("sweeps.") and k.endswith("_s"))
        plumbing += m["scenarios.spec_hash_s"] + m["scenarios.with_seed_s"]
        claim, lhs, rhs = "sweeps.* + spec_hash_s + with_seed_s > sim.lockstep_s", plumbing, m["sim.lockstep_s"]
    elif name == "sweep_varied":
        claim = "sim.lockstep_s + scenario build > half the traced run"
        lhs, rhs = m["sim.lockstep_s"] + build, traced_wall / 2
    else:
        claim = "sim.engine_step_s + paths.draw_s > half the traced run"
        lhs, rhs = m["sim.engine_step_s"] + m["paths.draw_s"], traced_wall / 2
    return {"claim": claim, "lhs_s": lhs, "rhs_s": rhs, "holds": lhs > rhs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--input", required=True, type=pathlib.Path)
    parser.add_argument("--work", required=True, type=pathlib.Path)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    kind = workload.kind
    inputs = Inputs(full=args.input, unit=args.input, size=workload.size)

    tracer = Tracer()
    obs = Observations()
    root = tracer.open(ROOT)
    import_spans = ImportSpans(tracer, ("numpy",))
    import_spans.install()
    span = tracer.open("import.repro")
    modules = {"repro.cli"} | {t.path.partition(":")[0] for t in targets(kind, obs)}
    for module in sorted(modules):
        importlib.import_module(module)
    tracer.close(span)
    patches = install(tracer, targets(kind, obs))
    traced_store = args.work / "store-traced"
    start = perf_counter()
    try:
        code, stdout = run_cli(serial_argv(workload, inputs, traced_store))
    finally:
        traced_wall = perf_counter() - start
        tracer.close(root)
        uninstall(patches)
        import_spans.uninstall()
    restored = patches.restored() and import_spans.restored()
    traced = output_bytes(kind, traced_store, stdout)

    untraced_store = args.work / "store-untraced"
    start = perf_counter()
    code_untraced, stdout_untraced = run_cli(serial_argv(workload, inputs, untraced_store))
    untraced_wall = perf_counter() - start
    untraced = output_bytes(kind, untraced_store, stdout_untraced)

    metrics = layer_metrics(kind, layer_totals(tracer), obs, traced, traced_wall, untraced_wall)
    if kind == "sweep":
        metrics.update(pool_overhead(args.input))
    tracer.write_tsv(args.work / "spans.tsv.gz")
    print(
        json.dumps(
            {
                "metrics": metrics,
                "heavy": heavy_layers(workload.name, metrics, traced_wall),
                "exit_codes": [code, code_untraced],
                "traced_sha256": hashlib.sha256(traced).hexdigest(),
                "untraced_sha256": hashlib.sha256(untraced).hexdigest(),
                "restored": restored,
                "missing_targets": patches.missing,
            },
            sort_keys=True,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
