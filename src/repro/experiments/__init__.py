"""Experiment harness shared by benchmarks/ and examples/.

Instances live in :mod:`repro.experiments.configs` as a catalog of named
:class:`~repro.scenarios.RunSpec` factories.  A list of specs runs through
:func:`run_spec_trials` (:mod:`repro.experiments.batch`), which dispatches
each trial through the scenario layer (:mod:`repro.scenarios`); a sweep
manifest runs through :func:`repro.sweeps.run_sweep`.
"""

from .runner import (
    TrialRecord,
    resolve_trial_params,
    run_frontier_trial,
    run_frontier_vec_trial,
    run_naive_vec_trial,
    run_router_trial,
    run_frontier_trials_lockstep,
    run_naive_trials_lockstep,
)
from .batch import (
    WORKERS_ENV_VAR,
    TrialExecutor,
    default_chunksize,
    derive_sweep_seeds,
    resolve_workers,
    run_spec_trials_batched,
    should_use_pool,
    usable_cpus,
)
from .configs import (
    CATALOG,
    PRESET_FAMILIES,
    sweep_specs,
    butterfly_random_instance,
    butterfly_random_spec,
    butterfly_hotrow_instance,
    butterfly_hotrow_spec,
    catalog_spec,
    deep_random_instance,
    deep_random_spec,
    dynamic_spec,
    funnel_instance,
    funnel_spec,
    mesh_monotone_instance,
    mesh_monotone_spec,
    mesh_corner_shift_instance,
    mesh_corner_shift_spec,
    small_audit_suite,
    baseline_budget,
    BASELINE_BUDGET_FACTOR,
)

#: The spec-list entry point: the same function as
#: :func:`~repro.experiments.batch.run_spec_trials_batched`.
run_spec_trials = run_spec_trials_batched

__all__ = [
    "TrialRecord",
    "resolve_trial_params",
    "run_frontier_trial",
    "run_frontier_vec_trial",
    "run_naive_vec_trial",
    "run_router_trial",
    "run_frontier_trials_lockstep",
    "run_naive_trials_lockstep",
    "WORKERS_ENV_VAR",
    "default_chunksize",
    "derive_sweep_seeds",
    "resolve_workers",
    "run_spec_trials",
    "TrialExecutor",
    "run_spec_trials_batched",
    "should_use_pool",
    "usable_cpus",
    "sweep_specs",
    "CATALOG",
    "PRESET_FAMILIES",
    "catalog_spec",
    "butterfly_random_instance",
    "butterfly_random_spec",
    "butterfly_hotrow_instance",
    "butterfly_hotrow_spec",
    "deep_random_instance",
    "deep_random_spec",
    "dynamic_spec",
    "mesh_monotone_instance",
    "mesh_monotone_spec",
    "mesh_corner_shift_instance",
    "mesh_corner_shift_spec",
    "funnel_instance",
    "funnel_spec",
    "small_audit_suite",
    "baseline_budget",
    "BASELINE_BUDGET_FACTOR",
]
