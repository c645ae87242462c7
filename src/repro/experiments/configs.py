"""The experiment catalog: canonical instances as named, serializable specs.

Every canonical instance used by the benches and docs is defined here as a
:class:`~repro.scenarios.RunSpec` factory, and the legacy instance builders
(:func:`butterfly_random_instance`, ...) are thin wrappers that materialize
the corresponding spec through the scenario dispatcher — so EXPERIMENTS.md's
"workload and parameters" column, the benches, ``repro list``, and
``repro run --spec`` all share one source of truth.

Spec factories pin explicit component seeds where the historical builders
used them, which keeps every materialized instance byte-identical to the
pre-catalog code (asserted by the golden regression tests).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..paths import RoutingProblem
from ..rng import make_rng, stable_hash_seed
from ..scenarios import RunSpec, build_problem
from ..scenarios.registry import UnknownNameError

# ------------------------------------------------------------ spec factories


def butterfly_random_spec(
    dim: int = 4, seed: int = 0, backend: str = "frontier", **backend_params
) -> RunSpec:
    """Random end-to-end butterfly traffic (unique bit-fixing paths)."""
    return RunSpec(
        name=f"butterfly_random(dim={dim})",
        topology="butterfly",
        topology_params={"dim": dim},
        workload="bf_random_end_to_end",
        workload_params={"seed": seed},
        selector="bit_fixing",
        backend=backend,
        backend_params=backend_params,
        seed=seed,
    )


def butterfly_hotrow_spec(
    dim: int = 4,
    num_packets: int = 8,
    seed: int = 0,
    backend: str = "frontier",
    **backend_params,
) -> RunSpec:
    """Hot-row butterfly traffic: congestion ``C = Θ(num_packets)``."""
    return RunSpec(
        name=f"butterfly_hotrow(dim={dim}, N={num_packets})",
        topology="butterfly",
        topology_params={"dim": dim},
        workload="bf_hot_row",
        workload_params={"num_packets": num_packets, "seed": seed},
        selector="bit_fixing",
        backend=backend,
        backend_params=backend_params,
        seed=seed,
    )


def deep_random_spec(
    depth: int = 20,
    width: int = 6,
    num_packets: int = 12,
    seed: int = 0,
    low_congestion: bool = True,
    backend: str = "frontier",
    **backend_params,
) -> RunSpec:
    """Random many-to-one on a random leveled network (the L-sweep axis).

    Component seeds use the default spec derivation — ``(seed, 11/12/13)``
    for topology/workload/selector — which is exactly the historical
    builder's scheme.
    """
    return RunSpec(
        name=f"deep_random(L={depth}, w={width}, N={num_packets})",
        topology="random_leveled",
        topology_params={"width": width, "depth": depth},
        workload="random_many_to_one",
        workload_params={
            "num_packets": num_packets,
            "source_levels": list(range(0, max(1, depth // 4))),
            "min_dest_level": max(1, (3 * depth) // 4),
        },
        selector="bottleneck" if low_congestion else "random",
        backend=backend,
        backend_params=backend_params,
        seed=seed,
    )


def mesh_monotone_spec(
    n: int = 8,
    num_packets: int = 16,
    seed: int = 0,
    backend: str = "frontier",
    **backend_params,
) -> RunSpec:
    """Section 5's application: monotone traffic + dimension-order paths."""
    return RunSpec(
        name=f"mesh_monotone(n={n}, N={num_packets})",
        topology="mesh",
        topology_params={"rows": n},
        workload="mesh_monotone",
        workload_params={"num_packets": num_packets, "seed": seed},
        selector="dimension_order",
        backend=backend,
        backend_params=backend_params,
        seed=seed,
    )


def mesh_corner_shift_spec(
    n: int = 8,
    block: int | None = None,
    backend: str = "frontier",
    **backend_params,
) -> RunSpec:
    """Deterministic high-congestion monotone mesh instance."""
    params = {} if block is None else {"block": block}
    return RunSpec(
        name=f"mesh_corner_shift(n={n})",
        topology="mesh",
        topology_params={"rows": n},
        workload="mesh_corner_shift",
        workload_params=params,
        selector="dimension_order",
        backend=backend,
        backend_params=backend_params,
        seed=0,
    )


def funnel_spec(
    dim: int = 4,
    num_packets: int = 8,
    seed: int = 0,
    backend: str = "frontier",
    **backend_params,
) -> RunSpec:
    """Adversarial butterfly instance: every path crosses one edge (C = N)."""
    return RunSpec(
        name=f"funnel(dim={dim}, N={num_packets})",
        topology="butterfly",
        topology_params={"dim": dim},
        workload="funnel_through_edge",
        workload_params={
            "num_packets": num_packets,
            "seed": stable_hash_seed(seed, 17),
        },
        selector="none",
        backend=backend,
        backend_params=backend_params,
        seed=seed,
    )


def dynamic_spec(
    dim: int = 4,
    rate: float = 0.3,
    horizon: int = 200,
    drain: int = 50000,
    seed: int = 0,
    greedy: bool = True,
) -> RunSpec:
    """Continuous Bernoulli injection on a butterfly (experiment T9)."""
    router = "greedy" if greedy else "naive"
    return RunSpec(
        name=f"dynamic_{router}(dim={dim}, rate={rate})",
        topology="butterfly",
        topology_params={"dim": dim, "seed": seed},
        workload="",
        selector="none",
        backend=f"dynamic_{router}",
        backend_params={"rate": rate, "horizon": horizon, "drain": drain},
        seed=seed,
    )


#: Frontier catalog families that get a ``<name>_<preset>`` variant per
#: entry in :data:`repro.core.PRESETS`.
PRESET_FAMILIES = (
    "butterfly_random",
    "butterfly_hotrow",
    "deep_random",
    "mesh_monotone",
    "funnel",
)


def _catalog() -> Dict[str, RunSpec]:
    entries = {
        "butterfly_random": butterfly_random_spec(4, seed=0),
        "butterfly_hotrow": butterfly_hotrow_spec(4, 8, seed=0),
        "deep_random": deep_random_spec(20, 6, 12, seed=0),
        "mesh_monotone": mesh_monotone_spec(8, 16, seed=0),
        "mesh_corner_shift": mesh_corner_shift_spec(8),
        "funnel": funnel_spec(4, 8, seed=0),
        "butterfly_naive": butterfly_random_spec(4, seed=0, backend="naive"),
        "butterfly_greedy": butterfly_random_spec(4, seed=0, backend="greedy"),
        "butterfly_randgreedy": butterfly_random_spec(
            4, seed=0, backend="randgreedy"
        ),
        "butterfly_storeforward": butterfly_random_spec(
            4, seed=0, backend="storeforward"
        ),
        "butterfly_random_delay": butterfly_random_spec(
            4, seed=0, backend="random_delay"
        ),
        "butterfly_bounded_buffer": butterfly_random_spec(
            4, seed=0, backend="bounded_buffer", buffer_size=2
        ),
        "dynamic_naive": dynamic_spec(4, seed=0, greedy=False),
        "dynamic_greedy": dynamic_spec(4, seed=0, greedy=True),
    }
    # Explicit parameter-preset variants of the frontier families: the
    # same pinned scenarios run under each named family in
    # repro.core.PRESETS (selected via backend_params={"preset": ...}).
    # "paper-faithful" matches the bare entries' defaults — it exists so
    # both sides of the docs/tuning.md comparison are addressable specs;
    # "practical" is the tuned family (see docs/tuning.md).
    from ..core import PRESETS

    for base_name in PRESET_FAMILIES:
        for preset in PRESETS:
            slug = preset.replace("-", "_")
            entries[f"{base_name}_{slug}"] = entries[base_name].with_params(
                preset=preset
            )
    import dataclasses

    return {
        key: dataclasses.replace(spec, name=key)
        for key, spec in entries.items()
    }


#: Named ready-to-run specs (``repro list`` / ``repro spec <name>``), one
#: per backend family plus the canonical frontier instances.
CATALOG: Dict[str, RunSpec] = _catalog()


def catalog_spec(name: str, seed: int | None = None) -> RunSpec:
    """Look up a catalog spec by name (optionally re-seeded)."""
    try:
        spec = CATALOG[name]
    except KeyError:
        raise UnknownNameError("catalog spec", name, CATALOG) from None
    return spec if seed is None else spec.with_seed(seed)


def sweep_specs(
    base: RunSpec, num_trials: int, base_seed: int | None = None
) -> List[RunSpec]:
    """A fixed-problem Monte Carlo sweep: one spec per trial seed.

    The paper's guarantees (Theorem 4.26) are probabilistic over the
    *algorithm's* coins for a fixed instance, so the canonical sweep holds
    the problem constant and re-rolls only the routing randomness: the
    base spec's component seeds are pinned to their resolved values
    (:meth:`~repro.scenarios.RunSpec.with_pinned_scenario`), then the
    master seed — which only the backend consumes once components are
    pinned — is varied per trial via :func:`derive_sweep_seeds`.

    Every returned spec shares the base's scenario hash, so batched
    execution (:func:`~repro.experiments.run_spec_trials`) builds the
    ``(network, geometry, paths)`` triple once per worker and reuses it
    across the whole sweep.
    """
    from .batch import derive_sweep_seeds

    pinned = base.with_pinned_scenario()
    seeds = derive_sweep_seeds(
        base.seed if base_seed is None else base_seed, num_trials
    )
    return [pinned.with_seed(seed) for seed in seeds]


# ----------------------------------------------------- legacy instance views
#
# The historical builder API, now materialized through the dispatcher.  The
# golden regression tests pin that these produce byte-identical instances
# to the pre-catalog hand-wired builders.


def butterfly_random_instance(dim: int, seed: int) -> RoutingProblem:
    """Random end-to-end traffic on a butterfly (unique bit-fixing paths)."""
    return build_problem(butterfly_random_spec(dim, seed=seed))


def butterfly_hotrow_instance(dim: int, num_packets: int, seed: int) -> RoutingProblem:
    """Hot-row butterfly traffic: congestion ``C = Θ(num_packets)``.

    The C-sweep axis of experiment T1 (depth fixed at ``dim``).
    """
    return build_problem(butterfly_hotrow_spec(dim, num_packets, seed=seed))


def deep_random_instance(
    depth: int,
    width: int,
    num_packets: int,
    seed: int,
    low_congestion: bool = True,
) -> RoutingProblem:
    """Random many-to-one on a width-``width`` random leveled network.

    The L-sweep axis of experiment T1 (congestion held low by bottleneck
    path selection when ``low_congestion``).
    """
    return build_problem(
        deep_random_spec(
            depth, width, num_packets, seed=seed, low_congestion=low_congestion
        )
    )


def mesh_monotone_instance(n: int, num_packets: int, seed: int) -> RoutingProblem:
    """Section 5's application: monotone traffic + dimension-order paths."""
    return build_problem(mesh_monotone_spec(n, num_packets, seed=seed))


def mesh_corner_shift_instance(n: int, block: int | None = None) -> RoutingProblem:
    """Deterministic high-congestion monotone mesh instance."""
    return build_problem(mesh_corner_shift_spec(n, block=block))


def funnel_instance(dim: int, num_packets: int, seed: int) -> RoutingProblem:
    """Adversarial butterfly instance: every path crosses one edge (C = N)."""
    return build_problem(funnel_spec(dim, num_packets, seed=seed))


def small_audit_suite(seed: int) -> List[Tuple[str, RoutingProblem]]:
    """The audited-invariant battery of experiment T3 (varied topologies)."""
    rng = make_rng(seed)
    suite: List[Tuple[str, RoutingProblem]] = []
    suite.append(("butterfly(4) random", butterfly_random_instance(4, int(rng.integers(1 << 30)))))
    suite.append(
        (
            "butterfly(4) hot-row",
            butterfly_hotrow_instance(4, 8, int(rng.integers(1 << 30))),
        )
    )
    suite.append(
        (
            "random L=20 w=6",
            deep_random_instance(20, 6, 12, int(rng.integers(1 << 30))),
        )
    )
    suite.append(
        ("mesh 8x8 monotone", mesh_monotone_instance(8, 16, int(rng.integers(1 << 30))))
    )
    return suite


#: Baseline step budget multiplier: bufferless baselines may thrash, so give
#: them a generous multiple of the trivial bound before declaring livelock.
BASELINE_BUDGET_FACTOR = 400


def baseline_budget(problem: RoutingProblem) -> int:
    """Step budget for baseline routers on one problem."""
    scale = max(problem.congestion + problem.dilation, 1)
    return BASELINE_BUDGET_FACTOR * scale + 2000
