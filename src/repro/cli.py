"""Command-line interface: ``python -m repro <command>``.

The interactive workflows all funnel into the scenario layer
(:mod:`repro.scenarios`): ``route``, ``sweep``, and ``dynamic`` translate
their flags into a :class:`~repro.scenarios.RunSpec` and dispatch it, and
the spec-native commands expose the catalog directly:

* ``topo``    — build a named topology, validate it, print its profile;
* ``params``  — show the algorithm parameters (practical and theory-exact)
  for a given (C, L, N);
* ``frames``  — render the Figure-2 film strip for a parameterization;
* ``route``   — build an instance, route it with a chosen backend;
* ``sweep``   — seeded multi-trial frontier sweep (optionally parallel);
* ``dynamic`` — continuous-injection routing (T9-style);
* ``list``    — show the catalog specs and every registered component;
* ``spec``    — print (or write) a catalog spec as JSON;
* ``run``     — run a spec from a JSON file, optionally result-cached,
  with ``--trace``/``--telemetry`` observability;
* ``serve``   — open-loop streaming service: a spec with an ``arrival``
  process in, windowed live metrics (JSONL or SSE) out;
* ``report``  — render a run summary from a spec, cached result, result
  file, or JSONL trace — without re-running anything.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, Optional, Sequence, Tuple

from .analysis import format_kv
from .core import AlgorithmParams, FrameGeometry, compute_theory_values
from .errors import ParameterError, ReproError
from .net import LeveledNetwork, profile, validate_leveled
from .paths import RoutingProblem
from .scenarios import (
    PATH_SELECTORS,
    TOPOLOGIES,
    WORKLOADS,
    RunSpec,
    build_network,
    load_spec,
    run_cached,
    run_trial,
    save_spec,
)
from .scenarios.registry import UnknownNameError

# ------------------------------------------------------- topology spec syntax
#
# ``name:arg1:arg2`` shorthand over the topology registry.  Each parser maps
# the positional ``rest`` onto the registered builder's keyword parameters;
# registry names without a parser here are reachable via ``repro run --spec``.


def _parse_grid(rest: str) -> Tuple[int, int]:
    first, _, second = rest.partition("x")
    return int(first), int(second or first)


def _topo_args_butterfly(rest: str) -> dict:
    return {"dim": int(rest)}


def _topo_args_mesh(rest: str) -> dict:
    rows, cols = _parse_grid(rest)
    return {"rows": rows, "cols": cols}


def _topo_args_line(rest: str) -> dict:
    return {"length": int(rest)}


def _topo_args_height(rest: str) -> dict:
    return {"height": int(rest)}


def _topo_args_diamond(rest: str) -> dict:
    width, depth = _parse_grid(rest)
    return {"width": width, "depth": depth}


def _topo_args_random(rest: str) -> dict:
    width, _, depth = rest.partition("x")
    return {"width": int(width), "depth": int(depth)}


_TOPOLOGY_ARG_PARSERS = {
    "butterfly": _topo_args_butterfly,
    "hypercube": _topo_args_butterfly,
    "omega": _topo_args_butterfly,
    "benes": _topo_args_butterfly,
    "mesh": _topo_args_mesh,
    "line": _topo_args_line,
    "fattree": _topo_args_height,
    "fat_tree": _topo_args_height,
    "btree": _topo_args_height,
    "diamond": _topo_args_diamond,
    "random": _topo_args_random,
    "random_leveled": _topo_args_random,
}

#: Topologies whose builder actually consumes the seed; only these carry an
#: explicit seed in the specs the CLI constructs.
_SEEDED_TOPOLOGIES = frozenset({"random", "random_leveled"})


def parse_topology(spec: str, seed: int = 0) -> Tuple[str, dict]:
    """Parse ``name:arg1:arg2`` shorthand into (registry name, params).

    Examples: ``butterfly:5``, ``mesh:8x8``, ``hypercube:5``, ``line:20``,
    ``omega:4``, ``fattree:4``, ``btree:4``, ``random:6x20`` (width x depth).
    """
    name, _, rest = spec.partition(":")
    name = name.lower()
    parser = _TOPOLOGY_ARG_PARSERS.get(name)
    if parser is None:
        # Unknown names get the registry's suggestion-bearing error; names
        # that are registered but take structured parameters (multidim,
        # layered, ...) are only reachable through spec files.
        TOPOLOGIES.get(name)
        raise SystemExit(
            f"topology {name!r} takes structured parameters; run it via "
            "'repro run --spec' instead"
        )
    try:
        params = parser(rest)
    except ValueError as exc:
        raise SystemExit(f"bad topology spec {spec!r}: {exc}") from exc
    if name in _SEEDED_TOPOLOGIES:
        params["seed"] = seed
    return name, params


def build_topology(spec: str, seed: int = 0) -> LeveledNetwork:
    """Materialize a ``name:args`` topology spec through the registry."""
    name, params = parse_topology(spec, seed=seed)
    builder = TOPOLOGIES.get(name)
    params.setdefault("seed", seed)
    return builder(**params)


# -------------------------------------------------------- workload shorthand
#
# Legacy CLI workload names -> (workload registry name, selector registry
# name).  Seeds follow the historical convention: the workload draws from
# ``seed`` and the selector from ``seed + 1``.

_CLI_WORKLOADS: Dict[str, Tuple[str, str]] = {
    "random": ("random_many_to_one", "random"),
    "bottleneck": ("random_many_to_one", "bottleneck"),
    "hotspot": ("hotspot", "random"),
    "permutation": ("bf_permutation", "bit_fixing"),
    "hotrow": ("bf_hot_row", "bit_fixing"),
}


def _workload_pair(workload: str) -> Tuple[str, str]:
    try:
        return _CLI_WORKLOADS[workload]
    except KeyError:
        raise UnknownNameError("workload", workload, _CLI_WORKLOADS) from None


def _workload_params(
    net: Optional[LeveledNetwork], workload: str, packets: Optional[int]
) -> dict:
    params: dict = {}
    if workload == "hotrow" and packets is None and net is not None:
        # The historical CLI default: half the input rows.
        packets = len(net.nodes_at_level(0)) // 2
    if packets is not None and workload != "permutation":
        params["num_packets"] = packets
    return params


def build_problem(
    net: LeveledNetwork, workload: str, packets: Optional[int], seed: int
) -> RoutingProblem:
    """Build a routing problem from a legacy CLI workload name."""
    workload_name, selector_name = _workload_pair(workload)
    workload_fn = WORKLOADS.get(workload_name)
    selector_fn = PATH_SELECTORS.get(selector_name)
    params = _workload_params(net, workload, packets)
    built = workload_fn(net, seed=seed, **params)
    return selector_fn(net, built.endpoints, seed=seed + 1)


def _cli_spec(
    net_arg: str,
    workload: str,
    packets: Optional[int],
    seed: int,
    backend: str,
    backend_params: Optional[dict] = None,
    net: Optional[LeveledNetwork] = None,
) -> RunSpec:
    """Translate route/sweep flags into a dispatchable spec.

    Component seeds are pinned explicitly (workload ``seed``, selector
    ``seed + 1``) so the spec reproduces the historical CLI byte-for-byte.
    """
    topology, topology_params = parse_topology(net_arg, seed=seed)
    workload_name, selector_name = _workload_pair(workload)
    workload_params = _workload_params(net, workload, packets)
    workload_params["seed"] = seed
    return RunSpec(
        name=f"route({net_arg}, {workload}, {backend})",
        topology=topology,
        topology_params=topology_params,
        workload=workload_name,
        workload_params=workload_params,
        selector=selector_name,
        selector_params={"seed": seed + 1},
        backend=backend,
        backend_params=backend_params or {},
        seed=seed,
    )


# ------------------------------------------------------------------ commands


def cmd_topo(args: argparse.Namespace) -> int:
    net = build_topology(args.spec, seed=args.seed)
    report = validate_leveled(net)
    prof = profile(net)
    print(net.describe())
    print(f"validation : {report.summary()}")
    print(
        f"degrees    : min {prof.min_degree}, max {prof.max_degree}, "
        f"mean {prof.mean_degree:.2f}"
    )
    sizes = prof.level_sizes
    shown = (
        " ".join(map(str, sizes))
        if len(sizes) <= 24
        else " ".join(map(str, sizes[:24])) + " ..."
    )
    print(f"level sizes: {shown}")
    return 0 if report.ok else 1


def cmd_params(args: argparse.Namespace) -> int:
    practical = AlgorithmParams.practical(args.C, args.L, args.N)
    print(format_kv(practical.describe(), title="practical parameters"))
    tv = compute_theory_values(args.C, args.L, args.N)
    print()
    print(
        format_kv(
            {
                "a": tv.a,
                "m": tv.m,
                "q": tv.q,
                "w": tv.w,
                "p0": tv.p0,
                "p1": tv.p1,
                "aC (frontier sets)": tv.a * args.C,
                "amC+L (phases)": tv.total_phases,
                "total steps": tv.total_steps,
                "steps / (C+L)": tv.total_steps / (args.C + args.L),
            },
            title="Section 2.1 theory-exact values (reconstructed)",
        )
    )
    return 0


def cmd_frames(args: argparse.Namespace) -> int:
    from .viz import frame_film_strip

    params = AlgorithmParams.practical(
        args.C, args.L, args.N, m=args.m, w=args.w
    )
    geometry = FrameGeometry(params)
    print(
        f"frames: {params.num_sets} sets, m={params.m}, L={args.L} "
        f"({params.total_phases} phases)"
    )
    print(frame_film_strip(geometry, 0, min(args.phases, params.total_phases)))
    return 0


def cmd_route(args: argparse.Namespace) -> int:
    net = build_topology(args.net, seed=args.seed)
    backend_params = {"audit": True} if args.audit else {}
    spec = _cli_spec(
        args.net,
        args.workload,
        args.packets,
        args.seed,
        backend=args.router,
        backend_params=backend_params,
        net=net,
    )
    problem = build_problem(net, args.workload, args.packets, args.seed)
    print(f"instance: {problem.describe()}")
    record = run_trial(spec, problem=problem)
    print(record.result.summary())
    if record.audit is not None:
        print(f"audit: {record.audit.summary()}")
    return 0 if record.ok else 1


def cmd_dynamic(args: argparse.Namespace) -> int:
    topology, topology_params = parse_topology(args.net, seed=args.seed)
    spec = RunSpec(
        name=f"dynamic({args.net}, {args.router})",
        topology=topology,
        topology_params=topology_params,
        workload="",
        selector="none",
        backend=f"dynamic_{args.router}",
        backend_params={
            "rate": args.rate,
            "horizon": args.horizon,
            "drain": args.drain,
        },
        seed=args.seed,
    )
    net = build_network(spec)
    record = run_trial(spec)
    result = record.result
    extra = result.extra
    offered = int(extra["offered"])
    delivered = int(extra["delivered"])
    drained = extra["drained"] == 1.0
    print(f"network   : {net.describe()}")
    print(
        f"traffic   : rate {args.rate}/source/step over {args.horizon} "
        f"steps -> {offered} packets, utilization {extra['offered_load']:.2f}"
    )
    print(
        f"outcome   : delivered {delivered}/{offered}"
        f" ({'drained' if drained else 'NOT drained'})"
    )
    print(
        f"latency   : mean {extra['mean_latency']:.1f}, p50 "
        f"{extra['p50_latency']:.0f}, p95 {extra['p95_latency']:.0f}, max "
        f"{extra['max_latency']:.0f} (hop stretch {extra['mean_hop_stretch']:.2f})"
    )
    print(f"deflection: {result.total_deflections} total, "
          f"{result.unsafe_deflections} unsafe")
    return 0 if drained else 1


def _benchmarks_dir():
    import pathlib

    # repo layout: src/repro/cli.py -> repo root / benchmarks
    root = pathlib.Path(__file__).resolve().parents[2]
    candidate = root / "benchmarks"
    return candidate if candidate.is_dir() else None


def _parse_shard_ids(text: str) -> list:
    """Parse ``--shard`` syntax: comma-separated ids and ranges (``0,2,5-7``)."""
    shards = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "-" in token:
            lo, hi = token.split("-", 1)
            shards.extend(range(int(lo), int(hi) + 1))
        else:
            shards.append(int(token))
    return shards


def _manifest_base_spec(args: argparse.Namespace, packets, backend_params):
    """The manifest's base spec for the sweep-store path.

    ``--fixed-problem`` keeps :func:`_cli_spec`'s explicitly pinned
    component seeds (manifest trials then reproduce the legacy
    :func:`~repro.experiments.sweep_specs` bytes exactly).  Otherwise the
    explicit component seeds are stripped so each trial's *master* seed
    derives its own topology/workload/selector streams — one independent
    instance per trial, the manifest-native form of the legacy per-seed
    sweep (equivalent design, different seed derivation).
    """
    import dataclasses

    base = _cli_spec(
        args.net,
        args.workload,
        packets,
        args.seed,
        backend="frontier",
        backend_params=backend_params,
    )
    if args.fixed_problem:
        return base
    strip = lambda params: {k: v for k, v in params.items() if k != "seed"}  # noqa: E731
    return dataclasses.replace(
        base,
        topology_params=strip(base.topology_params),
        workload_params=strip(base.workload_params),
        selector_params=strip(base.selector_params),
    )


def _cmd_sweep_store(args: argparse.Namespace, packets, backend_params) -> int:
    """The sharded sweep engine behind ``repro sweep --store/--manifest``."""
    import json
    import pathlib

    from .sweeps import (
        DEFAULT_SHARD_SIZE,
        SweepHeartbeat,
        SweepManifest,
        load_manifest,
        open_store,
        print_sweep_report,
        run_sweep,
        save_manifest,
    )

    manifest_path = pathlib.Path(args.manifest) if args.manifest else None
    if manifest_path is not None and manifest_path.exists():
        manifest = load_manifest(manifest_path)
        if args.shard_size is not None and args.shard_size != manifest.shard_size:
            print(
                f"error: --shard-size {args.shard_size} conflicts with "
                f"manifest shard_size {manifest.shard_size}",
                file=sys.stderr,
            )
            return 2
    else:
        base = _manifest_base_spec(args, packets, backend_params)
        manifest = SweepManifest.from_base(
            base,
            num_trials=args.trials,
            shard_size=(
                DEFAULT_SHARD_SIZE if args.shard_size is None else args.shard_size
            ),
            pin=args.fixed_problem,
        )
        if manifest_path is not None:
            save_manifest(manifest, manifest_path)
            print(f"manifest  : wrote {manifest_path}")
    print(f"manifest  : {manifest.describe()}")
    if args.store is None:
        # Manifest-only invocation: emit/describe and stop.
        return 0

    shards = _parse_shard_ids(args.shard) if args.shard else None
    heartbeat = None
    if args.progress:
        if args.progress == "-":
            sink = lambda record: print(  # noqa: E731
                json.dumps(record, sort_keys=True), file=sys.stderr
            )
        else:
            sink = args.progress
        heartbeat = SweepHeartbeat(sink, total=manifest.num_trials)

    store = open_store(args.store, manifest)
    outcome = run_sweep(
        manifest,
        store,
        workers=args.workers,
        shards=shards,
        resume=args.resume,
        telemetry=args.telemetry,
        cache=args.cache,
        heartbeat=heartbeat,
        compact=not args.no_compact,
    )
    print(f"store     : {store.dir}")
    print_sweep_report(outcome)
    if not outcome.complete:
        # A partial contribution (restricted shards, leases held elsewhere)
        # is success: another invocation finishes the manifest.
        return 0
    aggregate = outcome.aggregate or {}
    return 0 if aggregate.get("delivered_all") == aggregate.get("trials") else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    import time

    from .experiments import derive_sweep_seeds, run_spec_trials

    if args.trials < 1:
        print("error: --trials must be at least 1", file=sys.stderr)
        return 2
    packets = args.packets
    if args.workload == "hotrow" and packets is None:
        # Resolve the net-dependent default once: hot-row only applies to
        # deterministic (butterfly) topologies, where it is seed-invariant.
        probe = build_topology(args.net, seed=args.seed)
        packets = len(probe.nodes_at_level(0)) // 2
    backend_params = {"audit": True} if args.audit else {}
    if args.store or args.manifest:
        return _cmd_sweep_store(args, packets, backend_params)
    if args.fixed_problem:
        # Monte Carlo over the algorithm's coins: one instance, many
        # routings (the shape of the paper's probabilistic guarantees).
        # All trials share a scenario hash, so batched execution builds
        # the problem once per worker.
        from .experiments import sweep_specs

        base = _cli_spec(
            args.net,
            args.workload,
            packets,
            args.seed,
            backend="frontier",
            backend_params=backend_params,
        )
        specs = sweep_specs(base, args.trials)
    else:
        specs = [
            _cli_spec(
                args.net,
                args.workload,
                packets,
                seed,
                backend="frontier",
                backend_params=backend_params,
            )
            for seed in derive_sweep_seeds(args.seed, args.trials)
        ]
    progress = None
    if args.telemetry:

        def progress(done, total, record):
            print(
                f"  trial {done}/{total}: T={record.result.makespan} "
                f"({'ok' if record.result.all_delivered else 'incomplete'})",
                file=sys.stderr,
            )

    start = time.perf_counter()
    records = run_spec_trials(
        specs,
        workers=args.workers,
        telemetry=args.telemetry,
        progress=progress,
    )
    elapsed = time.perf_counter() - start
    delivered = sum(1 for r in records if r.result.all_delivered)
    audits_ok = all(r.audit is None or r.audit.ok for r in records)
    makespans = sorted(r.result.makespan for r in records)
    ratios = [
        r.result.makespan / max(1, r.result.congestion + r.result.dilation)
        for r in records
    ]
    print(
        f"sweep     : {args.trials} frontier trials on {args.net} / "
        f"{args.workload} (workers={args.workers}"
        + (", fixed problem)" if args.fixed_problem else ")")
    )
    print(
        f"delivered : {delivered}/{len(records)} trials"
        + ("" if not args.audit else f", invariants {'OK' if audits_ok else 'VIOLATED'}")
    )
    print(
        f"makespan  : min {makespans[0]}, median "
        f"{makespans[len(makespans) // 2]}, max {makespans[-1]} "
        f"(T/(C+L) mean {sum(ratios) / len(ratios):.1f})"
    )
    print(
        f"throughput: {len(records) / elapsed:.2f} trials/sec "
        f"({elapsed:.2f}s wall)"
    )
    if args.telemetry:
        from .telemetry import aggregate_counters

        combined = aggregate_counters(
            [r.result.telemetry for r in records]
        )
        if combined is not None:
            print(
                f"telemetry : {combined['events_total']} events over "
                f"{combined['runs']} trials; deflections "
                f"{combined['deflections']['safe']} safe / "
                f"{combined['deflections']['unsafe']} unsafe; "
                f"absorptions {combined['absorptions']}; "
                f"max phases {combined['phases_seen']}"
            )
    ok = delivered == len(records) and audits_ok
    return 0 if ok else 1


def _parse_grid_values(text: str, cast) -> list:
    """Parse a tune grid flag: comma-separated values, ``default`` = None.

    ``--w-factors default,4,2`` means "the practical constructor's
    default plus explicit 4 and 2"; ``-`` is accepted as a synonym for
    ``default``.
    """
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token.lower() in ("default", "-", "none"):
            values.append(None)
        else:
            values.append(cast(token))
    return values or [None]


def cmd_tune(args: argparse.Namespace) -> int:
    """The ``repro tune`` auto-tuner (see docs/tuning.md)."""
    import json
    import pathlib

    from .experiments import catalog_spec
    from .tuning import (
        TuningStudy,
        default_grid,
        load_study,
        print_study_report,
        run_study,
        save_study,
    )

    if args.study:
        study = load_study(args.study)
    else:
        if args.catalog:
            base = catalog_spec(args.catalog, seed=args.seed)
            if base.backend not in ("frontier", "frontier_vec"):
                print(
                    f"error: catalog entry {args.catalog!r} uses backend "
                    f"{base.backend!r}; tuning needs a frontier scenario",
                    file=sys.stderr,
                )
                return 2
        else:
            packets = args.packets
            if args.workload == "hotrow" and packets is None:
                probe = build_topology(args.net, seed=args.seed)
                packets = len(probe.nodes_at_level(0)) // 2
            base = _cli_spec(
                args.net,
                args.workload,
                packets,
                args.seed,
                backend="frontier",
            )
        candidates = default_grid(
            c_stars=_parse_grid_values(args.c_stars, float),
            ms=_parse_grid_values(args.ms, int),
            w_factors=_parse_grid_values(args.w_factors, float),
            qs=_parse_grid_values(args.qs, float),
            oversplits=_parse_grid_values(args.oversplits, float),
        )
        audit_catalog = tuple(
            token.strip()
            for token in (args.audit_catalog or "").split(",")
            if token.strip()
        )
        study = TuningStudy(
            base=base,
            candidates=tuple(candidates),
            budget=args.budget,
            rungs=args.rungs,
            eta=args.eta,
            success_threshold=args.success_threshold,
            audit_trials=args.audit_trials,
            audit_catalog=audit_catalog,
            shard_size=args.shard_size,
            name=args.name or (base.name or ""),
        )
    if args.emit_study:
        save_study(study, args.emit_study)
        print(f"study     : wrote {args.emit_study}")
    print(f"study     : {study.describe()}")
    if args.store is None:
        # Study-only invocation (mint/describe the manifest and stop) —
        # the same contract as ``sweep --manifest`` without ``--store``.
        return 0

    progress = None
    if args.progress:
        if args.progress == "-":
            progress = lambda record: print(  # noqa: E731
                json.dumps(record, sort_keys=True), file=sys.stderr
            )
        else:
            progress = args.progress
    report = run_study(
        study,
        args.store,
        resume=args.resume,
        workers=args.workers,
        progress=progress,
    )
    print_study_report(report)
    print(f"store     : {pathlib.Path(args.store)}")
    if args.report:
        pathlib.Path(args.report).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"report    : wrote {args.report}")
    return 0 if report.winner is not None else 1


def cmd_experiment(args: argparse.Namespace) -> int:
    import os
    import pathlib
    import subprocess

    bench_dir = _benchmarks_dir()
    if bench_dir is None:
        print(
            "error: benchmarks/ not found (experiments run from a source "
            "checkout)",
            file=sys.stderr,
        )
        return 2
    available = sorted(
        p.name[len("bench_"):].split("_")[0]
        for p in bench_dir.glob("bench_*.py")
        if p.name != "bench_engine_throughput.py"
    )
    if args.experiment_id is None:
        print("available experiments:", ", ".join(available))
        print("run one with: python -m repro experiment <id>")
        return 0
    exp = args.experiment_id.lower()
    matches = list(bench_dir.glob(f"bench_{exp}_*.py"))
    if not matches:
        print(
            f"error: no benchmark for experiment {exp!r} "
            f"(available: {', '.join(available)})",
            file=sys.stderr,
        )
        return 2
    command = [
        sys.executable,
        "-m",
        "pytest",
        str(matches[0]),
        "--benchmark-only",
        "-q",
        "-s",
    ]
    # The child pytest must import ``repro`` even when the package is not
    # installed: prepend the source tree to its PYTHONPATH.
    env = os.environ.copy()
    src_dir = pathlib.Path(__file__).resolve().parents[1]
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        str(src_dir) if not existing else str(src_dir) + os.pathsep + existing
    )
    if args.workers is not None:
        from .experiments import WORKERS_ENV_VAR

        env[WORKERS_ENV_VAR] = str(args.workers)
    print("running:", " ".join(command))
    return subprocess.call(command, cwd=str(bench_dir), env=env)


def cmd_list(args: argparse.Namespace) -> int:
    from .experiments import CATALOG
    from .scenarios import BACKENDS

    print("catalog specs (repro spec <name> / repro run --spec):")
    for name, spec in CATALOG.items():
        workload = spec.workload or "-"
        print(
            f"  {name:24s} {spec.topology} / {workload} / {spec.selector} "
            f"-> {spec.backend}"
        )
    from .scenarios import ARRIVALS

    for title, registry in (
        ("topologies", TOPOLOGIES),
        ("workloads", WORKLOADS),
        ("arrival processes", ARRIVALS),
        ("path selectors", PATH_SELECTORS),
        ("backends", BACKENDS),
    ):
        print(f"\n{title}:")
        for name, doc in registry.describe().items():
            print(f"  {name:24s} {doc}")
    return 0


def cmd_spec(args: argparse.Namespace) -> int:
    from .experiments import catalog_spec

    spec = catalog_spec(args.name, seed=args.seed)
    if args.out:
        save_spec(spec, args.out)
        print(f"wrote {args.out} ({spec.describe()})")
    else:
        print(spec.to_json(indent=2))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    spec = load_spec(args.spec)
    print(f"spec  : {spec.describe()}")
    telemetry = args.telemetry or args.trace is not None
    profiler = None
    if args.profile is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        if args.cache:
            record = run_cached(
                spec,
                cache=args.cache_dir,
                telemetry=telemetry,
                trace_path=args.trace,
            )
        else:
            record = run_trial(
                spec, telemetry=telemetry, trace_path=args.trace
            )
    finally:
        if profiler is not None:
            profiler.disable()
            profiler.dump_stats(args.profile)
    if profiler is not None:
        print(
            f"profile: wrote {args.profile} "
            f"(view with: python -m pstats {args.profile})"
        )
    if args.cache and record.cached:
        print("cache : hit")
        if args.trace is not None:
            print(
                "trace : not written (cache hit; clear the record to "
                "re-run with tracing)"
            )
    print(record.result.summary())
    if args.trace is not None and not record.cached:
        print(f"trace : wrote {args.trace}")
    if telemetry and record.result.telemetry is not None:
        counters = record.result.telemetry
        print(
            f"events: {counters['events_total']} "
            f"(deflections {counters['deflections']['safe']} safe / "
            f"{counters['deflections']['unsafe']} unsafe; "
            f"view with: python -m repro report {args.spec}"
            + (" --cache-dir ..." if args.cache_dir else "")
            + ")"
        )
    if record.audit is not None:
        print(f"audit: {record.audit.summary()}")
    return 0 if record.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    import json

    from .errors import CapacityError
    from .scenarios import ARRIVALS
    from .telemetry import WindowedMetrics
    from .traffic import make_stream_router, run_stream

    for flag, value, low in (
        ("--steps", args.steps, 1),
        ("--window", args.window, 1),
        ("--max-in-flight", args.max_in_flight, 0),
    ):
        if value is not None and value < low:
            raise ParameterError(f"{flag} must be >= {low}, got {value}")
    if args.spec == "-":
        spec = RunSpec.from_json(sys.stdin.read())
    else:
        spec = load_spec(args.spec)
    if not spec.arrival:
        print(
            "error: serve requires a spec with an 'arrival' process "
            "(e.g. \"arrival\": \"bernoulli\")",
            file=sys.stderr,
        )
        return 2
    net = build_network(spec)
    source_fn = ARRIVALS.get(spec.arrival)
    aparams = dict(spec.arrival_params)
    # serve is the open-loop service: no explicit horizon means unbounded
    aparams.setdefault("horizon", None)
    aparams["seed"] = spec.arrival_seed()
    source = source_fn(net, **aparams)
    router = make_stream_router(args.router, seed=spec.seed + 2)
    max_in_flight = (
        args.max_in_flight if args.max_in_flight is not None else net.num_edges
    )

    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout

    def emit(record: dict) -> None:
        text = json.dumps(record, sort_keys=True)
        if args.sse:
            out.write(f"data: {text}\n\n")
        else:
            out.write(text + "\n")
        out.flush()

    emit(
        {
            "kind": "serve_header",
            "spec_hash": spec.content_hash(),
            "topology": net.name,
            "arrival": spec.arrival,
            "router": args.router,
            "window": args.window,
            "max_steps": args.steps,
            "max_in_flight": max_in_flight,
        }
    )
    metrics = WindowedMetrics(window=args.window, sink=emit)
    error = None
    try:
        summary = run_stream(
            net,
            source,
            router,
            max_steps=args.steps,
            metrics=metrics,
            path_seed=spec.selector_seed(),
            engine_seed=spec.seed + 3,
            max_in_flight=max_in_flight,
        )
    except CapacityError as exc:
        error = str(exc)
        summary = None
    except BrokenPipeError:
        # The consumer went away (e.g. piped into head); a clean shutdown.
        return 0
    footer = {"kind": "serve_summary"}
    if summary is not None:
        footer.update(
            {
                "steps": summary.steps,
                "arrivals": summary.arrivals,
                "admitted": summary.admitted,
                "delivered": summary.delivered,
                "dropped": summary.dropped,
                "peak_in_flight": summary.peak_in_flight,
                "packet_slots": summary.packet_slots,
                "windows": metrics.windows_emitted,
            }
        )
    else:
        footer["error"] = error
    emit(footer)
    if out is not sys.stdout:
        out.close()
    return 0 if error is None else 1


def cmd_report(args: argparse.Namespace) -> int:
    from .telemetry import render_report, resolve_source

    source = resolve_source(args.target, cache_dir=args.cache_dir)
    print(render_report(source))
    return 0


def make_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hot-potato routing on leveled networks (Busch, SPAA'02)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_topo = sub.add_parser("topo", help="build and validate a topology")
    p_topo.add_argument("spec", help="e.g. butterfly:5, mesh:8x8, random:6x20")
    p_topo.add_argument("--seed", type=int, default=0)
    p_topo.set_defaults(func=cmd_topo)

    p_params = sub.add_parser("params", help="show algorithm parameters")
    p_params.add_argument("C", type=int, help="congestion")
    p_params.add_argument("L", type=int, help="network depth")
    p_params.add_argument("N", type=int, help="number of packets")
    p_params.set_defaults(func=cmd_params)

    p_frames = sub.add_parser("frames", help="render the Figure-2 film strip")
    p_frames.add_argument("C", type=int)
    p_frames.add_argument("L", type=int)
    p_frames.add_argument("N", type=int)
    p_frames.add_argument("--m", type=int, default=None)
    p_frames.add_argument("--w", type=int, default=None)
    p_frames.add_argument("--phases", type=int, default=24)
    p_frames.set_defaults(func=cmd_frames)

    p_route = sub.add_parser("route", help="route one instance")
    p_route.add_argument("--net", default="butterfly:5")
    p_route.add_argument(
        "--workload",
        default="random",
        help="random | bottleneck | hotspot | permutation | hotrow",
    )
    p_route.add_argument(
        "--router",
        default="frontier",
        help="a backend name: frontier | naive | greedy | randgreedy | "
        "storeforward | random_delay | bounded_buffer (see 'repro list')",
    )
    p_route.add_argument("--packets", type=int, default=None)
    p_route.add_argument("--seed", type=int, default=0)
    p_route.add_argument(
        "--audit", action="store_true", help="audit invariants I_a..I_f"
    )
    p_route.set_defaults(func=cmd_route)

    p_dyn = sub.add_parser(
        "dynamic", help="continuous-injection routing (T9-style)"
    )
    p_dyn.add_argument("--net", default="butterfly:4")
    p_dyn.add_argument("--rate", type=float, default=0.3)
    p_dyn.add_argument("--horizon", type=int, default=200)
    p_dyn.add_argument("--drain", type=int, default=50000)
    p_dyn.add_argument("--router", default="naive", help="naive | greedy")
    p_dyn.add_argument("--seed", type=int, default=0)
    p_dyn.set_defaults(func=cmd_dynamic)

    p_sweep = sub.add_parser(
        "sweep", help="run a seeded multi-trial frontier sweep"
    )
    p_sweep.add_argument("--net", default="butterfly:4")
    p_sweep.add_argument(
        "--workload",
        default="random",
        help="random | bottleneck | hotspot | permutation | hotrow",
    )
    p_sweep.add_argument("--packets", type=int, default=None)
    p_sweep.add_argument("--trials", type=int, default=8)
    p_sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="trial processes (1 = serial; results are identical either way)",
    )
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument(
        "--fixed-problem",
        action="store_true",
        help="hold the instance fixed and vary only the routing coins "
        "(Monte Carlo over the algorithm's randomness; trials then share "
        "one warm-cached problem build per worker)",
    )
    p_sweep.add_argument(
        "--audit", action="store_true", help="audit invariants I_a..I_f"
    )
    p_sweep.add_argument(
        "--telemetry",
        action="store_true",
        help="collect per-trial counters (aggregated summary + per-trial "
        "progress on stderr)",
    )
    p_sweep.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="sweep-store root: run through the sharded manifest engine "
        "(resumable segments + streaming aggregate under "
        "DIR/<manifest-hash>/; cooperating invocations share it)",
    )
    p_sweep.add_argument(
        "--manifest",
        default=None,
        metavar="PATH",
        help="manifest JSON: load it if it exists, else derive one from "
        "the flags and write it there (without --store: emit and stop)",
    )
    p_sweep.add_argument(
        "--shard",
        default=None,
        metavar="IDS",
        help="restrict this invocation to shard ids, e.g. '0,2,5-7' "
        "(default: walk every shard, lease claims arbitrate overlap)",
    )
    p_sweep.add_argument(
        "--shard-size",
        type=int,
        default=None,
        help="trials per shard when deriving a manifest (default 1024)",
    )
    p_sweep.add_argument(
        "--resume",
        action="store_true",
        help="break stale shard leases and resume in-progress part files "
        "(per-shard output stays byte-identical to an uninterrupted run)",
    )
    p_sweep.add_argument(
        "--progress",
        default=None,
        metavar="PATH",
        help="append sweep_heartbeat JSONL (trials/sec, ETA, cache hits) "
        "to PATH ('-' = stderr)",
    )
    p_sweep.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="ResultCache root: trials whose results are cached re-emit "
        "from disk instead of re-routing",
    )
    p_sweep.add_argument(
        "--no-compact",
        action="store_true",
        help="keep per-shard segments instead of compacting to "
        "sweep.jsonl.gz on completion",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_tune = sub.add_parser(
        "tune",
        help="auto-tune frontier parameters (successive-halving sweep "
        "study; see docs/tuning.md)",
    )
    p_tune.add_argument("--net", default="butterfly:4")
    p_tune.add_argument(
        "--workload",
        default="random",
        help="random | bottleneck | hotspot | permutation | hotrow",
    )
    p_tune.add_argument("--packets", type=int, default=None)
    p_tune.add_argument("--seed", type=int, default=0)
    p_tune.add_argument(
        "--catalog",
        default=None,
        metavar="NAME",
        help="tune a catalog scenario instead of --net/--workload",
    )
    p_tune.add_argument(
        "--study",
        default=None,
        metavar="PATH",
        help="load a saved study JSON (ignores the scenario/grid flags); "
        "reproduces that exact search",
    )
    p_tune.add_argument(
        "--emit-study",
        default=None,
        metavar="PATH",
        help="write the study JSON (the reproducible manifest) here",
    )
    p_tune.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="study root: sweep stores, shared result cache, study.json "
        "and report.json live here (omit to just mint/describe the study)",
    )
    p_tune.add_argument(
        "--budget",
        type=int,
        default=32,
        help="trials per surviving candidate at the final rung",
    )
    p_tune.add_argument(
        "--rungs", type=int, default=3, help="successive-halving rungs"
    )
    p_tune.add_argument(
        "--eta",
        type=int,
        default=2,
        help="halving factor: keep the best 1/eta candidates per rung",
    )
    p_tune.add_argument(
        "--success-threshold",
        type=float,
        default=0.99,
        help="prune candidates whose delivery-success rate falls below "
        "this (default 0.99)",
    )
    p_tune.add_argument(
        "--audit-trials",
        type=int,
        default=2,
        help="audited probe trials per candidate before any sweep spend "
        "(0 disables the invariant gate)",
    )
    p_tune.add_argument(
        "--audit-catalog",
        default=None,
        metavar="NAMES",
        help="comma-separated extra catalog scenarios for the audit gate "
        "(portfolio audit: a candidate must keep the invariants on every "
        "listed instance, not just the base)",
    )
    p_tune.add_argument(
        "--shard-size", type=int, default=256, help="trials per sweep shard"
    )
    p_tune.add_argument(
        "--c-stars",
        default="default,3",
        metavar="LIST",
        help="set_congestion_target grid values ('default' = constructor "
        "default), e.g. 'default,2,3'",
    )
    p_tune.add_argument(
        "--ms", default="default", metavar="LIST", help="m grid values"
    )
    p_tune.add_argument(
        "--w-factors",
        default="default,4,3,2",
        metavar="LIST",
        help="w_factor grid values",
    )
    p_tune.add_argument(
        "--qs", default="default,0.25", metavar="LIST", help="q grid values"
    )
    p_tune.add_argument(
        "--oversplits",
        default="default,1",
        metavar="LIST",
        help="oversplit grid values",
    )
    p_tune.add_argument(
        "--workers", type=int, default=1, help="trial processes per sweep"
    )
    p_tune.add_argument(
        "--resume",
        action="store_true",
        help="resume a killed study: break stale shard leases and replay "
        "valid record prefixes (stores stay byte-identical to an "
        "uninterrupted run)",
    )
    p_tune.add_argument(
        "--progress",
        default=None,
        metavar="PATH",
        help="append tuning_rung/tuning_candidate + sweep_heartbeat JSONL "
        "to PATH ('-' = stderr)",
    )
    p_tune.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="also write the final TuningReport JSON here",
    )
    p_tune.add_argument(
        "--name", default=None, help="label recorded in the study"
    )
    p_tune.set_defaults(func=cmd_tune)

    p_exp = sub.add_parser(
        "experiment", help="regenerate a DESIGN.md experiment table"
    )
    p_exp.add_argument(
        "experiment_id",
        nargs="?",
        default=None,
        help="e.g. t1, t4, a2, e1; omit to list available experiments",
    )
    p_exp.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel trial processes for benches that sweep seeds "
        "(exported as $REPRO_BENCH_WORKERS)",
    )
    p_exp.set_defaults(func=cmd_experiment)

    p_list = sub.add_parser(
        "list", help="list catalog specs and registered components"
    )
    p_list.set_defaults(func=cmd_list)

    p_spec = sub.add_parser(
        "spec", help="print (or write) a catalog spec as JSON"
    )
    p_spec.add_argument("name", help="a catalog entry (see 'repro list')")
    p_spec.add_argument("--seed", type=int, default=None)
    p_spec.add_argument("--out", default=None, help="write to this file")
    p_spec.set_defaults(func=cmd_spec)

    p_run = sub.add_parser("run", help="run a scenario spec from a JSON file")
    p_run.add_argument("--spec", required=True, help="path to a spec JSON file")
    p_run.add_argument(
        "--cache",
        action="store_true",
        help="memoize the result on disk, keyed by the spec's content hash",
    )
    p_run.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default: $REPRO_CACHE_DIR or .repro_cache)",
    )
    p_run.add_argument(
        "--telemetry",
        action="store_true",
        help="collect event counters and stage timings for this run",
    )
    p_run.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="stream every engine event to a JSONL trace file "
        "(.jsonl or .jsonl.gz; implies --telemetry)",
    )
    p_run.add_argument(
        "--profile",
        default=None,
        metavar="PATH",
        help="profile the run under cProfile and dump pstats data to PATH "
        "(view with: python -m pstats PATH)",
    )
    p_run.set_defaults(func=cmd_run)

    p_serve = sub.add_parser(
        "serve",
        help="open-loop streaming service: RunSpec JSON in, live metrics out",
    )
    p_serve.add_argument(
        "--spec",
        required=True,
        help="path to a spec JSON with an 'arrival' process, or '-' for stdin",
    )
    p_serve.add_argument(
        "--steps", type=int, default=1000, help="step budget (default 1000)"
    )
    p_serve.add_argument(
        "--window",
        type=int,
        default=50,
        help="metrics window size in steps (default 50)",
    )
    p_serve.add_argument(
        "--router", default="greedy", help="stream router: naive | greedy"
    )
    p_serve.add_argument(
        "--max-in-flight",
        type=int,
        default=None,
        help="admission cap; excess arrivals are dropped "
        "(default: the network's edge count)",
    )
    p_serve.add_argument(
        "--sse",
        action="store_true",
        help="emit Server-Sent-Events frames (data: {...}) instead of JSONL",
    )
    p_serve.add_argument(
        "--out", default=None, help="write the stream to this file, not stdout"
    )
    p_serve.set_defaults(func=cmd_serve)

    p_report = sub.add_parser(
        "report",
        help="render a run summary from a spec / cache record / result "
        "file / JSONL trace (no re-running)",
    )
    p_report.add_argument(
        "target",
        help="spec JSON, 16-hex spec hash, cached record, run-result JSON, "
        "or a .jsonl/.jsonl.gz trace",
    )
    p_report.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory for spec/hash targets "
        "(default: $REPRO_CACHE_DIR or .repro_cache)",
    )
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = make_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
