#!/usr/bin/env python
"""Benchmark-regression harness: engine steps/sec and trial throughput.

Writes two machine-readable reports at the repo root so the performance
trajectory of the simulator is tracked PR over PR:

* ``BENCH_engine.json``  — raw engine stepping throughput (steps/sec) on
  pinned instances, compared against the recorded baseline in
  ``tools/bench_baseline.json``;
* ``BENCH_trials.json``  — end-to-end trial throughput (trials/sec) of the
  seeded experiment runner, serial vs. parallel, including a byte-identity
  check between the two modes, and of independent-instance trials with
  lockstep on vs off (``varied_instances``);
* ``BENCH_presets.json`` — the paper-faithful vs ``"practical"`` preset
  comparison (mean makespan, steps-vs-(C+D) ratio, margin), gated on the
  practical preset delivering everything, passing the invariant audit,
  and keeping its step-count margin above the recorded floor.

Usage::

    PYTHONPATH=src python tools/bench_report.py              # full run
    PYTHONPATH=src python tools/bench_report.py --smoke      # quick CI run
    PYTHONPATH=src python tools/bench_report.py --capture-baseline

``--capture-baseline`` re-times the engine cases and records them as the
new reference in ``tools/bench_baseline.json``; run it once per machine (or
deliberately after an intentional perf change) so later full runs report an
honest speedup ratio.  See docs/performance.md for how to read the output.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
if str(REPO_ROOT / "benchmarks") not in sys.path:
    sys.path.insert(1, str(REPO_ROOT / "benchmarks"))

from _common import write_bench_json  # noqa: E402  (benchmarks/_common.py)

BASELINE_PATH = REPO_ROOT / "tools" / "bench_baseline.json"
ENGINE_REPORT_PATH = REPO_ROOT / "BENCH_engine.json"
TRIALS_REPORT_PATH = REPO_ROOT / "BENCH_trials.json"

SCHEMA_VERSION = 1


# --------------------------------------------------------------- engine cases


def _engine_cases(smoke: bool):
    """Pinned engine-stepping workloads: ``name -> (ref, vec, max_steps)``.

    ``ref`` builds a fresh reference :class:`~repro.sim.Engine`; ``vec``
    builds the same run on the vectorized kernel (same instance, same RNG
    stream seeds, so the two runs must be byte-identical).  Instances are
    fixed-seed so every run times the same work.

    * ``naive_deep_random`` / ``naive_hotrow`` are *dense*: every step moves
      tens of packets, and the router body is two attribute lookups, so
      their steps/sec is the cleanest signal for per-packet hot-loop cost
      (arbitration, deflection matching, move application).
    * ``frontier_sparse`` disables the quiescence fast-forward so thousands
      of near-empty oscillation steps execute; it measures the fixed
      per-step overhead (which the kernel's bulk advance collapses).
    """
    from repro.baselines import NaivePathRouter
    from repro.core import AlgorithmParams, FrontierFrameRouter
    from repro.experiments import (
        butterfly_hotrow_spec,
        butterfly_random_spec,
        deep_random_spec,
    )
    from repro.scenarios import build_problem
    from repro.sim import Engine, VecEngine

    cases = {}

    def naive_case(problem):
        return (
            lambda: Engine(problem, NaivePathRouter(), seed=0),
            lambda: VecEngine.naive(problem, seed=0),
        )

    if smoke:
        deep = build_problem(
            deep_random_spec(24, 8, 24, seed=7, low_congestion=False)
        )
    else:
        deep = build_problem(
            deep_random_spec(64, 16, 60, seed=7, low_congestion=False)
        )
    cases["naive_deep_random"] = (*naive_case(deep), 5000)

    hotrow = build_problem(
        butterfly_hotrow_spec(5 if smoke else 7, 24 if smoke else 96, seed=3)
    )
    cases["naive_hotrow"] = (*naive_case(hotrow), 20000)

    bfly = build_problem(butterfly_random_spec(4, seed=1234))
    params = AlgorithmParams.practical(
        max(1, bfly.congestion), bfly.net.depth, bfly.num_packets,
        m=6, w_factor=6.0,
    )
    cases["frontier_sparse"] = (
        lambda: Engine(
            bfly,
            FrontierFrameRouter(params, seed=1),
            seed=0,
            enable_fast_forward=False,
        ),
        lambda: VecEngine.frontier(
            bfly, params, router_seed=1, seed=0, enable_fast_forward=False
        ),
        params.total_steps,
    )
    return cases


def _profiled(profile_dir, name, fn):
    """Run ``fn`` under cProfile when profiling is on, dumping pstats.

    One ``<name>.pstats`` file per bench case (``--profile DIR``), so perf
    investigations start from measured hot paths instead of guesses:
    ``python -m pstats DIR/<name>.pstats``.
    """
    if profile_dir is None:
        return fn()
    import cProfile

    profile_dir = pathlib.Path(profile_dir)
    profile_dir.mkdir(parents=True, exist_ok=True)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return fn()
    finally:
        profiler.disable()
        path = profile_dir / f"{name}.pstats"
        profiler.dump_stats(path)
        print(f"[profile] wrote {path}")


def _streaming_run(smoke: bool):
    """One open-loop steady-state streaming run (``repro serve``'s core).

    A pinned Bernoulli source injects continuously while the greedy
    hot-potato router routes and the driver recycles packet slots; the
    measured steps/sec is the sustainable service rate of the streaming
    path (admission + engine step + retirement + slot reuse), which none
    of the batch cases exercise.
    """
    from repro.net import butterfly
    from repro.traffic import BernoulliSource, make_stream_router, run_stream

    net = butterfly(4)
    max_steps = 600 if smoke else 4000

    def one_run():
        source = BernoulliSource(net, 0.2, seed=11, horizon=None)
        router = make_stream_router("greedy", seed=12)
        start = time.perf_counter()
        summary = run_stream(
            net,
            source,
            router,
            max_steps=max_steps,
            path_seed=13,
            engine_seed=14,
            max_in_flight=net.num_edges,
        )
        return summary, time.perf_counter() - start

    return one_run


def time_streaming_case(smoke: bool, repeats: int, target_sec: float) -> dict:
    """Best-of-``repeats`` throughput of the streaming steady state."""
    one_run = _streaming_run(smoke)
    summary, elapsed = one_run()  # warm-up + calibration
    inner = max(1, int(target_sec / max(elapsed, 1e-9)))

    best = None
    for _ in range(repeats):
        steps = delivered = 0
        start = time.perf_counter()
        for _ in range(inner):
            summary, _ = one_run()
            steps += summary.steps
            delivered += summary.delivered
        elapsed = time.perf_counter() - start
        sps = steps / elapsed if elapsed > 0 else float("inf")
        if best is None or sps > best["steps_per_sec"]:
            best = {
                "steps_per_sec": round(sps, 1),
                "delivered_per_sec": round(delivered / elapsed, 1),
                "steps_executed": steps,
                "elapsed_sec": round(elapsed, 4),
                "runs_per_sample": inner,
                "admitted": summary.admitted,
                "delivered": summary.delivered,
                "dropped": summary.dropped,
                "peak_in_flight": summary.peak_in_flight,
                "packet_slots": summary.packet_slots,
            }
    best["repeats"] = repeats
    return best


def _streaming_engine_case(smoke: bool):
    """The streaming workload as a schedule-carrying problem, both kernels.

    The open-loop driver (:func:`_streaming_run`) is greedy-router-only
    and therefore exercises just the reference engine.  This replica
    collects the same Bernoulli arrival process into an
    :class:`~repro.traffic.ArrivalSchedule`-carrying problem and routes it
    with the frontier algorithm on *both* engine kernels — the reference
    :class:`~repro.sim.Engine` and the vectorized
    :class:`~repro.sim.VecEngine` — so the streaming bench reports the
    fast path's throughput (and its byte-identity) too, instead of only
    the slow path.
    """
    from repro.core import AlgorithmParams, FrontierFrameRouter
    from repro.net import butterfly
    from repro.sim import Engine, VecEngine
    from repro.traffic import (
        BernoulliSource,
        collect_arrivals,
        problem_from_arrivals,
    )

    net = butterfly(4)
    horizon = 60 if smoke else 250
    source = BernoulliSource(net, 0.2, seed=11, horizon=horizon)
    arrivals = collect_arrivals(source)
    problem, _ = problem_from_arrivals(net, arrivals, seed=13)
    params = AlgorithmParams.practical(
        max(1, problem.congestion), net.depth, problem.num_packets
    )
    max_steps = params.total_steps

    def ref():
        return Engine(
            problem, FrontierFrameRouter(params, seed=12), seed=14
        )

    def vec():
        return VecEngine.frontier(problem, params, router_seed=12, seed=14)

    return ref, vec, max_steps


def _one_run(engine_factory, max_steps: int):
    engine = engine_factory()  # construction stays outside the timer
    start = time.perf_counter()
    result = engine.run(max_steps)
    return result, time.perf_counter() - start


def time_engine_case(
    engine_factory, max_steps: int, repeats: int, target_sec: float
) -> dict:
    """Best-of-``repeats`` throughput over batches of whole engine runs.

    A single run of the pinned instances lasts milliseconds, so each timed
    sample executes the run ``inner`` times (auto-calibrated to roughly
    ``target_sec`` of work) and reports aggregate steps/sec.
    """
    # warm-up + calibration
    result, elapsed = _one_run(engine_factory, max_steps)
    inner = max(1, int(target_sec / max(elapsed, 1e-9)))

    best = None
    for _ in range(repeats):
        steps = moves = 0
        start = time.perf_counter()
        for _ in range(inner):
            result, _ = _one_run(engine_factory, max_steps)
            steps += result.steps_executed
            moves += result.total_moves
        elapsed = time.perf_counter() - start
        sps = steps / elapsed if elapsed > 0 else float("inf")
        if best is None or sps > best["steps_per_sec"]:
            best = {
                "steps_per_sec": round(sps, 1),
                "moves_per_sec": round(moves / elapsed, 1),
                "steps_executed": steps,
                "elapsed_sec": round(elapsed, 4),
                "runs_per_sample": inner,
                "delivered": result.delivered,
                "num_packets": result.num_packets,
            }
    best["repeats"] = repeats
    return best


def _ref_vec_identical(ref_factory, vec_factory, max_steps: int) -> bool:
    """The ref-vs-vec equivalence gate: byte-equal RunResult payloads."""
    from dataclasses import asdict

    ref_result, _ = _one_run(ref_factory, max_steps)
    vec_result, _ = _one_run(vec_factory, max_steps)
    return asdict(ref_result) == asdict(vec_result)


def run_engine_bench(smoke: bool, repeats: int, profile_dir=None):
    target_sec = 0.1 if smoke else 0.5
    cases = {}
    vec_cases = {}
    for name, (ref, vec, max_steps) in _engine_cases(smoke).items():
        print(f"[engine] timing {name} ...", flush=True)
        cases[name] = time_engine_case(ref, max_steps, repeats, target_sec)
        _profiled(profile_dir, name, lambda: _one_run(ref, max_steps))
        print(
            f"[engine]   {cases[name]['steps_per_sec']:>10.1f} steps/sec "
            f"({cases[name]['steps_executed']} steps in "
            f"{cases[name]['elapsed_sec']}s)"
        )
        print(f"[engine] timing {name} (vectorized) ...", flush=True)
        timing = time_engine_case(vec, max_steps, repeats, target_sec)
        _profiled(profile_dir, f"{name}_vec", lambda: _one_run(vec, max_steps))
        timing["vectorized_speedup"] = round(
            timing["steps_per_sec"] / cases[name]["steps_per_sec"], 3
        )
        timing["ref_vec_identical"] = _ref_vec_identical(ref, vec, max_steps)
        vec_cases[name] = timing
        print(
            f"[engine]   {timing['steps_per_sec']:>10.1f} steps/sec "
            f"({timing['vectorized_speedup']:.2f}x, "
            f"identical={timing['ref_vec_identical']})"
        )
    print("[engine] timing streaming_steady_state ...", flush=True)
    streaming = time_streaming_case(smoke, repeats, target_sec)
    _profiled(
        profile_dir,
        "streaming_steady_state",
        lambda: _streaming_run(smoke)(),
    )
    print(
        f"[engine]   {streaming['steps_per_sec']:>10.1f} "
        f"steps/sec (open-loop, "
        f"{streaming['packet_slots']} packet slots)"
    )
    # Satellite leg: the same streaming workload as a schedule-carrying
    # problem, routed on both engine kernels (the open-loop driver above
    # only exercises the reference engine's slow path).
    sref, svec, smax = _streaming_engine_case(smoke)
    print("[engine] timing streaming_steady_state (closed-loop ref) ...", flush=True)
    ref_timing = time_engine_case(sref, smax, repeats, target_sec)
    streaming["closed_loop_ref_steps_per_sec"] = ref_timing["steps_per_sec"]
    print(
        "[engine] timing streaming_steady_state (closed-loop vec) ...",
        flush=True,
    )
    vec_timing = time_engine_case(svec, smax, repeats, target_sec)
    streaming["closed_loop_vec_steps_per_sec"] = vec_timing["steps_per_sec"]
    streaming["closed_loop_vec_speedup"] = round(
        vec_timing["steps_per_sec"] / ref_timing["steps_per_sec"], 3
    )
    streaming["closed_loop_ref_vec_identical"] = _ref_vec_identical(
        sref, svec, smax
    )
    print(
        f"[engine]   closed-loop ref "
        f"{ref_timing['steps_per_sec']:>10.1f} steps/sec, vec "
        f"{vec_timing['steps_per_sec']:>10.1f} steps/sec "
        f"({streaming['closed_loop_vec_speedup']:.2f}x, "
        f"identical={streaming['closed_loop_ref_vec_identical']})"
    )
    cases["streaming_steady_state"] = streaming
    return cases, vec_cases


# ---------------------------------------------------------------- trial cases


def _trial_specs(num_trials: int):
    """A fixed-problem Monte Carlo sweep on the build-heavy catalog instance.

    ``deep_random`` is the scenario whose construction (random leveled
    network + bottleneck path selection) dominates per-trial cost, so it is
    the honest stress case for the warm scenario cache: every spec shares
    one scenario hash and only the routing coins vary.
    """
    from repro.experiments import deep_random_spec, sweep_specs

    return sweep_specs(deep_random_spec(20, 6, 12, seed=2026), num_trials)


def run_trials_bench(smoke: bool, workers: int, profile_dir=None) -> dict:
    """Cold per-trial execution vs. the warm batched layer + identity check.

    Each trial is a full scenario dispatch — registry lookups, instance
    build, and the frontier run.  The serial leg forces a fresh build per
    trial (``warm=False``, the pre-batching execution model); the batched
    leg is the production path (``run_spec_trials`` with the warm scenario
    cache and adaptive pool dispatch), so ``parallel_speedup`` measures
    what the batching layer buys end to end.

    The lockstep legs then measure the stacked batch kernel against the
    warm per-trial executor at steady state: one
    :class:`~repro.experiments.batch.TrialExecutor` per leg, scenario
    pre-built (the regime of every long sweep, where one problem serves
    thousands of trials), same specs, byte-identity checked across all
    legs.  ``lockstep_speedup`` is the kernel's trials/sec multiple over
    the per-trial path — floor-gated via ``trials.lockstep_speedup_floor``
    in tools/bench_baseline.json.
    """
    from repro.experiments import run_spec_trials
    from repro.experiments.batch import TrialExecutor

    num_trials = 8 if smoke else 64
    specs = _trial_specs(num_trials)

    print(f"[trials] {num_trials} fixed-problem specs, cold serial ...", flush=True)
    start = time.perf_counter()
    # lockstep off: this leg reproduces the pre-batching execution model
    # (fresh build + per-trial engine), the denominator of parallel_speedup.
    serial = run_spec_trials(
        specs, workers=1, warm=False, dispatch="serial", lockstep=False
    )
    serial_elapsed = time.perf_counter() - start

    print(f"[trials] same specs, batched workers={workers} ...", flush=True)
    start = time.perf_counter()
    parallel = run_spec_trials(specs, workers=workers)
    parallel_elapsed = time.perf_counter() - start

    # The warm legs finish in tens of milliseconds, so take the best of a
    # few repeats (like the engine cases) to keep the speedup ratio stable.
    repeats = 5

    def _best_of(executor):
        executor.scenarios.problem_for(specs[0])  # steady state: warm build
        best_elapsed, recs = None, None
        for _ in range(repeats):
            start = time.perf_counter()
            out = executor.run_chunk(specs)
            elapsed = time.perf_counter() - start
            if best_elapsed is None or elapsed < best_elapsed:
                best_elapsed, recs = elapsed, out
        return recs, best_elapsed

    print("[trials] same specs, warm per-trial (lockstep off) ...", flush=True)
    warm_serial, warm_elapsed = _best_of(TrialExecutor(lockstep=False))

    print("[trials] same specs, lockstep batch kernel ...", flush=True)
    lockstep_exec = TrialExecutor()
    lockstep, lockstep_elapsed = _best_of(lockstep_exec)
    _profiled(
        profile_dir, "trials_lockstep", lambda: lockstep_exec.run_chunk(specs)
    )

    identical = _records_identical(serial, parallel)
    lockstep_identical = _records_identical(
        warm_serial, lockstep
    ) and _records_identical(serial, lockstep)
    speedup = serial_elapsed / parallel_elapsed if parallel_elapsed > 0 else 0.0
    lockstep_speedup = (
        warm_elapsed / lockstep_elapsed if lockstep_elapsed > 0 else 0.0
    )
    report = {
        "scenario": specs[0].name if specs else None,
        "fixed_problem": True,
        "num_trials": num_trials,
        "workers": workers,
        "serial_mode": "cold-per-trial",
        "batched_mode": "warm-auto",
        "serial_elapsed_sec": round(serial_elapsed, 3),
        "parallel_elapsed_sec": round(parallel_elapsed, 3),
        "serial_trials_per_sec": round(num_trials / serial_elapsed, 3),
        "parallel_trials_per_sec": round(num_trials / parallel_elapsed, 3),
        "parallel_speedup": round(speedup, 3),
        "serial_parallel_identical": identical,
        "warm_serial_trials_per_sec": round(num_trials / warm_elapsed, 3),
        "lockstep_trials_per_sec": round(num_trials / lockstep_elapsed, 3),
        "lockstep_width": max(
            (int(r.executor.split("w=")[1].rstrip("]"))
             for r in lockstep if r.executor.startswith("lockstep")),
            default=0,
        ),
        "lockstep_speedup": round(lockstep_speedup, 3),
        "lockstep_serial_identical": lockstep_identical,
    }
    print(
        f"[trials] cold serial {serial_elapsed:.2f}s, batched "
        f"{parallel_elapsed:.2f}s ({speedup:.2f}x), identical={identical}"
    )
    print(
        f"[trials] warm per-trial {num_trials / warm_elapsed:.1f} trials/sec, "
        f"lockstep {num_trials / lockstep_elapsed:.1f} trials/sec "
        f"({lockstep_speedup:.2f}x, identical={lockstep_identical})"
    )
    return report


def run_varied_bench(smoke: bool) -> dict:
    """Independent-instance trials, lockstep on vs off, with an identity gate.

    Every trial builds its own ``deep_random`` instance (the unpinned,
    instance-distribution sweep that checks Theorem 4.26 per instance), so
    each lockstep group is one trial wide and the executor runs it on the
    per-trial path.  Both legs go through
    :func:`~repro.experiments.batch.run_spec_trials_batched` in process,
    interleaved repeat by repeat so machine drift hits them alike, and
    report trials/sec as the median with its min/max spread.
    ``varied_lockstep_identical`` requires every repeat of both legs to
    produce byte-identical records; it is the only gate (no speed floor).
    """
    import statistics

    from repro.experiments import deep_random_spec
    from repro.experiments.batch import run_spec_trials_batched
    from repro.experiments.batch import derive_sweep_seeds

    num_trials = 8 if smoke else 64
    repeats = 2 if smoke else 5
    base = deep_random_spec(20, 6, 12, seed=2026)
    specs = [base.with_seed(s) for s in derive_sweep_seeds(2026, num_trials)]

    print(
        f"[varied] {num_trials} independent-instance trials, lockstep on "
        f"vs off, {repeats} repeats ...",
        flush=True,
    )
    rates = {True: [], False: []}
    blobs = set()
    for _ in range(repeats):
        for lockstep in (True, False):
            start = time.perf_counter()
            records = run_spec_trials_batched(
                specs, workers=1, lockstep=lockstep
            )
            rates[lockstep].append(num_trials / (time.perf_counter() - start))
            blobs.add(_records_blob(records))

    def _leg(values):
        return {
            "trials_per_sec": round(statistics.median(values), 3),
            "trials_per_sec_min": round(min(values), 3),
            "trials_per_sec_max": round(max(values), 3),
        }

    report = {
        "scenario": base.name,
        "fixed_problem": False,
        "num_trials": num_trials,
        "repeats": repeats,
        "lockstep_on": _leg(rates[True]),
        "lockstep_off": _leg(rates[False]),
        "varied_lockstep_identical": len(blobs) == 1,
    }
    print(
        f"[varied] lockstep on {report['lockstep_on']['trials_per_sec']:.1f} "
        f"trials/sec, off {report['lockstep_off']['trials_per_sec']:.1f} "
        f"trials/sec, identical={report['varied_lockstep_identical']}"
    )
    return report


def run_sweep_bench(smoke: bool, workers: int) -> dict:
    """Sharded sweep-engine throughput + the kill/resume identity gate.

    Runs one manifest twice over the same specs as the trial benchmark:
    an uninterrupted reference sweep (timed — the engine's end-to-end
    trials/sec through manifest, leases, shard segments, and the streaming
    aggregate), and a replica whose first shard is pre-seeded with a
    partial part file ending in a torn line — a simulated mid-shard kill —
    then resumed.  ``shard_resume_identical`` asserts every finalized
    shard segment of the resumed store is byte-equal to the reference:
    the store's core guarantee, gated unconditionally (smoke included).
    """
    import tempfile

    from repro.experiments.batch import TrialExecutor
    from repro.sweeps import manifest_from_specs, open_store, run_sweep

    num_trials = 8 if smoke else 64
    shard_size = 4 if smoke else 16
    specs = _trial_specs(num_trials)
    manifest = manifest_from_specs(specs, shard_size=shard_size)

    print(
        f"[sweeps] {num_trials} trials in {manifest.num_shards} shards, "
        f"workers={workers} ...",
        flush=True,
    )
    with tempfile.TemporaryDirectory() as td:
        root = pathlib.Path(td)
        store = open_store(root / "ref", manifest)
        start = time.perf_counter()
        outcome = run_sweep(manifest, store, workers=workers, compact=False)
        elapsed = time.perf_counter() - start
        ref_bytes = [store.shard_bytes(s) for s in manifest.shard_ids()]
        ref_aggregate = store.load_aggregate()

        print("[sweeps] simulated mid-shard kill, resuming ...", flush=True)
        replica = open_store(root / "resumed", manifest)
        executor = TrialExecutor()
        prefix = manifest.shard_specs(0)[: max(1, shard_size // 2)]
        with replica.writer(0) as writer:
            for spec in prefix:
                record = executor.run(spec)
                writer.append(spec.seed, spec.content_hash(), record.result)
        with open(replica.part_path(0), "ab") as fh:
            fh.write(b'{"kind":"sweep_record","torn')  # killed mid-write
        resumed = run_sweep(
            manifest, replica, workers=workers, resume=True, compact=False
        )
        identical = ref_bytes == [
            replica.shard_bytes(s) for s in manifest.shard_ids()
        ]
        aggregates_match = _aggregates_equivalent(
            ref_aggregate, replica.load_aggregate()
        )

    trials_per_sec = num_trials / elapsed if elapsed > 0 else 0.0
    report = {
        "num_trials": num_trials,
        "workers": workers,
        "shard_size": shard_size,
        "num_shards": manifest.num_shards,
        "manifest_hash": manifest.manifest_hash(),
        "elapsed_sec": round(elapsed, 3),
        "trials_per_sec": round(trials_per_sec, 3),
        "trials_resumed": resumed.trials_resumed,
        "shard_resume_identical": identical and aggregates_match,
        "complete": outcome.complete and resumed.complete,
    }
    print(
        f"[sweeps] {trials_per_sec:.2f} trials/sec, resumed "
        f"{resumed.trials_resumed} from disk, identical={identical}"
    )
    return report


def run_presets_bench(smoke: bool) -> dict:
    """Paper-faithful vs the tuned ``"practical"`` preset, with hard gates.

    Runs every preset in :data:`repro.core.PRESETS` on the pinned
    ``butterfly_random`` catalog instance and reports mean makespan and
    the steps-vs-(C+D) ratio per preset, plus ``margin`` — how many times
    fewer steps the practical preset takes than the paper-faithful one.
    Two gates guard the shipped preset:

    * ``practical_ok`` (unconditional, smoke included): the practical
      preset must deliver every packet *and* pass the full invariant
      audit — a preset that trades correctness for speed is a bug;
    * the ``presets.margin_floor`` entry of tools/bench_baseline.json
      (full runs only): the measured margin must stay above the recorded
      floor, so the advantage the tuning study bought (see
      docs/tuning.md) is tracked PR over PR like any perf number.
    """
    from repro.core import PRESETS
    from repro.experiments import catalog_spec, run_frontier_trial
    from repro.scenarios import build_problem

    base = "butterfly_random"
    trials = 2 if smoke else 10
    pinned = catalog_spec(base).with_pinned_scenario()
    problem = build_problem(pinned)
    c_plus_d = max(1, problem.congestion + problem.dilation)

    report = {
        "scenario": base,
        "congestion": problem.congestion,
        "dilation": problem.dilation,
        "trials": trials,
        "presets": {},
    }
    means = {}
    for name in sorted(PRESETS):
        print(f"[presets] {name}: {trials} trials ...", flush=True)
        audited = run_frontier_trial(problem, 0, audit=True, preset=name)
        records = [audited] + [
            run_frontier_trial(problem, seed, preset=name)
            for seed in range(1, trials)
        ]
        mean = sum(r.result.makespan for r in records) / len(records)
        means[name] = mean
        report["presets"][name] = {
            "makespan_mean": round(mean, 1),
            "steps_ratio": round(mean / c_plus_d, 1),
            "delivered_all": all(r.result.all_delivered for r in records),
            "audit_ok": audited.audit is not None and audited.audit.ok,
        }
        print(
            f"[presets]   makespan {mean:.1f} "
            f"({mean / c_plus_d:.1f}x of C+D)"
        )
    practical = report["presets"]["practical"]
    report["practical_ok"] = (
        practical["delivered_all"] and practical["audit_ok"]
    )
    report["margin"] = round(means["paper-faithful"] / means["practical"], 1)
    print(
        f"[presets] margin: practical is {report['margin']:.1f}x fewer "
        f"steps than paper-faithful (ok={report['practical_ok']})"
    )
    return report


def _aggregates_equivalent(a, b) -> bool:
    """Aggregate equality modulo cache_hits (an execution-path detail)."""
    if a is None or b is None:
        return False
    a, b = dict(a), dict(b)
    a.pop("cache_hits", None)
    b.pop("cache_hits", None)
    return a == b


def _records_identical(a, b) -> bool:
    """Byte-identity of two trial-record lists (via canonical JSON)."""
    return _records_blob(a) == _records_blob(b)


def _records_blob(records) -> bytes:
    from dataclasses import asdict

    payload = [
        {"spec": r.spec.content_hash(), "result": asdict(r.result)}
        for r in records
    ]
    return json.dumps(payload, sort_keys=True).encode()


# ------------------------------------------------------------------ reporting


def environment_info() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
        "numpy": numpy_version,
    }


def write_json(path: pathlib.Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small instances / few repeats (CI smoke job)",
    )
    parser.add_argument(
        "--capture-baseline", action="store_true",
        help="record current engine numbers as tools/bench_baseline.json",
    )
    parser.add_argument(
        "--workers", type=int, default=4,
        help="parallel worker count for the trial benchmark (default 4)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="engine timing repeats (default 3, or 1 with --smoke)",
    )
    parser.add_argument(
        "--engine-only", action="store_true",
        help="skip the trial-throughput benchmark",
    )
    parser.add_argument(
        "--profile", default=None, metavar="DIR",
        help="dump a cProfile pstats file per bench case into DIR",
    )
    args = parser.parse_args(argv)

    repeats = args.repeats or (1 if args.smoke else 3)
    engine_cases, vec_cases = run_engine_bench(
        args.smoke, repeats, profile_dir=args.profile
    )

    if args.capture_baseline:
        prior = (
            json.loads(BASELINE_PATH.read_text())
            if BASELINE_PATH.exists()
            else {}
        )
        payload = {
            "schema": SCHEMA_VERSION,
            "smoke": args.smoke,
            "environment": environment_info(),
            "cases": engine_cases,
        }
        if "trials" in prior:  # keep the trial speedup floor across recaptures
            payload["trials"] = prior["trials"]
        # Keep the vectorized-speedup and streaming floors across recaptures
        # too: they are deliberate hand-set minima (see docs/performance.md),
        # not a record of whatever this machine measured today.
        if "vectorized" in prior:
            payload["vectorized"] = prior["vectorized"]
        if "streaming" in prior:
            payload["streaming"] = prior["streaming"]
        if "sweeps" in prior:
            payload["sweeps"] = prior["sweeps"]
        if "presets" in prior:
            payload["presets"] = prior["presets"]
        write_json(BASELINE_PATH, payload)
        return 0

    baseline = None
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())

    engine_report = {
        "schema": SCHEMA_VERSION,
        "smoke": args.smoke,
        "environment": environment_info(),
        "cases": engine_cases,
        "vectorized": vec_cases,
        "baseline": baseline["cases"] if baseline else None,
    }
    if baseline:
        speedups = {}
        for name, case in engine_cases.items():
            ref = baseline["cases"].get(name)
            if ref and ref["steps_per_sec"] > 0:
                speedups[name] = round(
                    case["steps_per_sec"] / ref["steps_per_sec"], 3
                )
        engine_report["speedup_vs_baseline"] = speedups
        for name, ratio in speedups.items():
            print(f"[engine] {name}: {ratio:.2f}x vs baseline")
    print(f"wrote {write_bench_json('engine', engine_report)}")

    # The equivalence gate is unconditional (smoke included): a vectorized
    # run that diverges from the reference engine is a correctness bug,
    # not a perf regression.
    broken = [
        name for name, case in vec_cases.items()
        if not case["ref_vec_identical"]
    ]
    if broken:
        print(
            "ERROR: vectorized engine diverged from the reference engine "
            f"on: {', '.join(broken)}",
            file=sys.stderr,
        )
        return 1
    floors = (baseline or {}).get("vectorized", {}).get("speedup_floor", {})
    if floors and not args.smoke:
        for name, floor in floors.items():
            case = vec_cases.get(name)
            if case is None:
                continue
            measured = case["vectorized_speedup"]
            print(
                f"[engine] {name}: vectorized floor {floor:.2f}x "
                f"(measured {measured:.2f}x)"
            )
            if measured < floor:
                print(
                    f"ERROR: vectorized_speedup {measured:.2f}x on {name} "
                    f"fell below the recorded floor {floor:.2f}x",
                    file=sys.stderr,
                )
                return 1

    streaming_floor = (baseline or {}).get("streaming", {}).get(
        "vs_baseline_floor"
    )
    if streaming_floor is not None and not args.smoke:
        ratio = engine_report.get("speedup_vs_baseline", {}).get(
            "streaming_steady_state"
        )
        if ratio is not None:
            print(
                f"[engine] streaming_steady_state: floor "
                f"{streaming_floor:.2f}x of baseline (measured {ratio:.2f}x)"
            )
            if ratio < streaming_floor:
                print(
                    f"ERROR: streaming_steady_state throughput {ratio:.2f}x "
                    f"of baseline fell below the floor {streaming_floor:.2f}x",
                    file=sys.stderr,
                )
                return 1

    presets_report = run_presets_bench(args.smoke)
    print(f"wrote {write_bench_json('presets', presets_report)}")
    # The correctness gate is unconditional (smoke included): the shipped
    # practical preset must deliver everything and keep every invariant.
    if not presets_report["practical_ok"]:
        print(
            "ERROR: the 'practical' preset failed delivery or the "
            "invariant audit",
            file=sys.stderr,
        )
        return 1
    margin_floor = (baseline or {}).get("presets", {}).get("margin_floor")
    if margin_floor is not None and not args.smoke:
        margin = presets_report["margin"]
        print(
            f"[presets] margin floor {margin_floor:.1f}x "
            f"(measured {margin:.1f}x)"
        )
        if margin < margin_floor:
            print(
                f"ERROR: practical-preset margin {margin:.1f}x fell below "
                f"the recorded floor {margin_floor:.1f}x",
                file=sys.stderr,
            )
            return 1

    if not args.engine_only:
        trials_report = {
            "schema": SCHEMA_VERSION,
            "smoke": args.smoke,
            "environment": environment_info(),
            **run_trials_bench(args.smoke, args.workers, profile_dir=args.profile),
        }
        trials_report["sweep_throughput"] = run_sweep_bench(
            args.smoke, args.workers
        )
        trials_report["varied_instances"] = run_varied_bench(args.smoke)
        print(f"wrote {write_bench_json('trials', trials_report)}")
        if not trials_report["serial_parallel_identical"]:
            print("ERROR: serial and parallel trial results differ", file=sys.stderr)
            return 1
        # The lockstep identity gate is unconditional (smoke included): a
        # stacked batch whose records diverge from the per-trial path is a
        # correctness bug in the kernel, not a perf regression.
        if not trials_report["lockstep_serial_identical"]:
            print(
                "ERROR: lockstep batch records are not byte-identical to "
                "per-trial execution",
                file=sys.stderr,
            )
            return 1
        # Unconditional too: independent-instance trials must come back
        # byte-identical whether or not the executor may lockstep them.
        if not trials_report["varied_instances"]["varied_lockstep_identical"]:
            print(
                "ERROR: independent-instance trial records differ between "
                "lockstep on and off",
                file=sys.stderr,
            )
            return 1
        lockstep_floor = (baseline or {}).get("trials", {}).get(
            "lockstep_speedup_floor"
        )
        if lockstep_floor is not None and not args.smoke:
            measured = trials_report["lockstep_speedup"]
            print(
                f"[trials] lockstep floor {lockstep_floor:.2f}x "
                f"(measured {measured:.2f}x)"
            )
            if measured < lockstep_floor:
                print(
                    f"ERROR: lockstep_speedup {measured:.2f}x fell below "
                    f"the recorded floor {lockstep_floor:.2f}x",
                    file=sys.stderr,
                )
                return 1
        # The resume-identity gate is unconditional (smoke included): a
        # resumed shard whose bytes differ from an uninterrupted run is a
        # correctness bug in the store, not a perf regression.
        if not trials_report["sweep_throughput"]["shard_resume_identical"]:
            print(
                "ERROR: resumed sweep shards are not byte-identical to the "
                "uninterrupted run",
                file=sys.stderr,
            )
            return 1
        floor = (baseline or {}).get("trials", {}).get("parallel_speedup_floor")
        if floor is not None and not args.smoke:
            speedup = trials_report["parallel_speedup"]
            print(f"[trials] speedup floor {floor:.2f}x (measured {speedup:.2f}x)")
            if speedup < floor:
                print(
                    f"ERROR: trial parallel_speedup {speedup:.2f}x fell below "
                    f"the recorded floor {floor:.2f}x",
                    file=sys.stderr,
                )
                return 1
        sweep_floor = (baseline or {}).get("sweeps", {}).get("vs_parallel_floor")
        if sweep_floor is not None and not args.smoke:
            # The sweep engine adds manifest/lease/segment bookkeeping on
            # top of the warm-pool path; it must still deliver at least
            # this fraction of the raw batched trials/sec.
            batched_rate = trials_report["parallel_trials_per_sec"]
            sweep_rate = trials_report["sweep_throughput"]["trials_per_sec"]
            floor_rate = sweep_floor * batched_rate
            print(
                f"[sweeps] throughput floor {sweep_floor:.2f}x of batched "
                f"({floor_rate:.2f} trials/sec; measured {sweep_rate:.2f})"
            )
            if sweep_rate < floor_rate:
                print(
                    f"ERROR: sweep-engine throughput {sweep_rate:.2f} "
                    f"trials/sec fell below {sweep_floor:.2f}x of the "
                    f"batched rate ({floor_rate:.2f})",
                    file=sys.stderr,
                )
                return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
