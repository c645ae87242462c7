"""Seeded trial runners behind the scenario backends.

Each runner builds the router for a problem, runs it (optionally under the
invariant auditor), and returns the trial's record; the lockstep runners
do the same for a batch of seeds over one problem.  Multi-trial sweeps
reach them through :func:`repro.experiments.run_spec_trials`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..core import (
    AlgorithmParams,
    AuditReport,
    FrontierFrameRouter,
    InvariantAuditor,
    resample_until_bounded,
)
from ..paths import RoutingProblem
from ..rng import stable_hash_seed
from ..sim import Engine, RunResult, Router
from ..sim.kernels import reference_engine_required


def resolve_trial_params(
    problem: RoutingProblem, **params_kwargs
) -> AlgorithmParams:
    """Build the parameterization a trial's keyword arguments describe.

    A ``preset`` key selects a named family from
    :data:`repro.core.PRESETS` (remaining kwargs override its values);
    otherwise the kwargs go straight to
    :meth:`~repro.core.AlgorithmParams.practical`.  This is the single
    funnel through which scenario ``backend_params`` become
    :class:`~repro.core.AlgorithmParams`, shared by the reference and
    vectorized trial runners.
    """
    preset = params_kwargs.pop("preset", None)
    congestion = max(1, problem.congestion)
    if preset is not None:
        return AlgorithmParams.from_preset(
            preset,
            congestion,
            problem.net.depth,
            problem.num_packets,
            **params_kwargs,
        )
    return AlgorithmParams.practical(
        congestion,
        problem.net.depth,
        problem.num_packets,
        **params_kwargs,
    )


@dataclass
class TrialRecord:
    """One routing trial."""

    seed: int
    result: RunResult
    audit: Optional[AuditReport] = None

    @property
    def ok(self) -> bool:
        """Delivered everything and (if audited) kept every invariant."""
        delivered = self.result.all_delivered
        return delivered and (self.audit is None or self.audit.ok)


def run_frontier_trial(
    problem: RoutingProblem,
    seed: int,
    params: Optional[AlgorithmParams] = None,
    audit: bool = False,
    condition_sets: bool = False,
    fast_forward: bool = True,
    max_steps: Optional[int] = None,
    audit_congestion_bound: Optional[float] = None,
    **params_kwargs,
) -> TrialRecord:
    """Run the frontier-frame algorithm once on ``problem``.

    ``condition_sets`` resamples the frontier-set assignment until Lemma
    2.2's good event holds (per-set congestion within the configured bound);
    otherwise the assignment is drawn uniformly as in the paper.
    """
    if params is None:
        params = resolve_trial_params(problem, **params_kwargs)
    set_of = None
    if condition_sets:
        set_of = resample_until_bounded(
            problem,
            params.num_sets,
            params.set_congestion_bound,
            seed=stable_hash_seed(seed, 1),
        )
    router = FrontierFrameRouter(
        params, set_of=set_of, seed=stable_hash_seed(seed, 2)
    )
    engine = Engine(
        problem,
        router,
        seed=stable_hash_seed(seed, 3),
        enable_fast_forward=fast_forward,
    )
    report = None
    if audit:
        auditor = InvariantAuditor(
            router, congestion_bound=audit_congestion_bound
        )
        auditor.install(engine)
        report = auditor.report
    budget = max_steps if max_steps is not None else params.total_steps
    result = engine.run(budget)
    return TrialRecord(seed=seed, result=result, audit=report)


def run_frontier_vec_trial(
    problem: RoutingProblem,
    seed: int,
    params: Optional[AlgorithmParams] = None,
    audit: bool = False,
    condition_sets: bool = False,
    fast_forward: bool = True,
    max_steps: Optional[int] = None,
    audit_congestion_bound: Optional[float] = None,
    **params_kwargs,
) -> TrialRecord:
    """Run one frontier trial on the vectorized kernel.

    Byte-identical to :func:`run_frontier_trial` with the same arguments
    (same RNG stream derivations, same result digests) — see the
    equivalence contract in :mod:`repro.sim.engine_vec`.  An observed or
    audited run (:func:`~repro.sim.kernels.reference_engine_required`)
    runs :func:`run_frontier_trial` instead: the kernel emits no events
    and takes no post-step hooks.
    """
    from ..sim.engine_vec import VecEngine

    if reference_engine_required(audit):
        return run_frontier_trial(
            problem,
            seed,
            params=params,
            audit=audit,
            condition_sets=condition_sets,
            fast_forward=fast_forward,
            max_steps=max_steps,
            audit_congestion_bound=audit_congestion_bound,
            **params_kwargs,
        )
    if params is None:
        params = resolve_trial_params(problem, **params_kwargs)
    set_of = None
    if condition_sets:
        set_of = resample_until_bounded(
            problem,
            params.num_sets,
            params.set_congestion_bound,
            seed=stable_hash_seed(seed, 1),
        )
    engine = VecEngine.frontier(
        problem,
        params,
        set_of=set_of,
        router_seed=stable_hash_seed(seed, 2),
        seed=stable_hash_seed(seed, 3),
        enable_fast_forward=fast_forward,
    )
    budget = max_steps if max_steps is not None else params.total_steps
    result = engine.run(budget)
    return TrialRecord(seed=seed, result=result)


def run_frontier_trials_lockstep(
    problem: RoutingProblem,
    seeds: Sequence[int],
    params: Optional[AlgorithmParams] = None,
    condition_sets: bool = False,
    fast_forward: bool = True,
    max_steps: Optional[int] = None,
    geometry=None,
    **params_kwargs,
) -> List[TrialRecord]:
    """Run one frontier trial per seed on the lockstep batch kernel.

    Byte-identical, per trial, to :func:`run_frontier_vec_trial` (and the
    reference :func:`run_frontier_trial`) with the same seed: the same RNG
    stream derivations feed one per-trial generator pair each, and the
    stacked kernel preserves every per-trial draw order — see
    :mod:`repro.sim.engine_lockstep`.  Requires a problem without an
    arrival schedule; callers peel such trials off to the
    per-trial paths.
    """
    from ..sim.engine_lockstep import LockstepEngine

    if params is None:
        params = resolve_trial_params(problem, **params_kwargs)
    set_rows = None
    if condition_sets:
        set_rows = [
            resample_until_bounded(
                problem,
                params.num_sets,
                params.set_congestion_bound,
                seed=stable_hash_seed(seed, 1),
            )
            for seed in seeds
        ]
    engine = LockstepEngine.frontier(
        problem,
        params,
        router_seeds=[stable_hash_seed(seed, 2) for seed in seeds],
        engine_seeds=[stable_hash_seed(seed, 3) for seed in seeds],
        set_rows=set_rows,
        enable_fast_forward=fast_forward,
        geometry=geometry,
    )
    budget = max_steps if max_steps is not None else params.total_steps
    results = engine.run(budget)
    return [
        TrialRecord(seed=seed, result=result)
        for seed, result in zip(seeds, results)
    ]


def run_naive_trials_lockstep(
    problem: RoutingProblem,
    seeds: Sequence[int],
    max_steps: int,
    geometry=None,
) -> List[RunResult]:
    """Run the naive baseline once per seed on the lockstep batch kernel.

    Byte-identical, per trial, to :func:`run_naive_vec_trial` with the
    same seed.
    """
    from ..sim.engine_lockstep import LockstepEngine

    engine = LockstepEngine.naive(
        problem,
        engine_seeds=[stable_hash_seed(seed, 5) for seed in seeds],
        geometry=geometry,
    )
    return engine.run(max_steps)


def run_naive_vec_trial(
    problem: RoutingProblem,
    seed: int,
    max_steps: int,
) -> RunResult:
    """Run the naive baseline on the vectorized kernel.

    Byte-identical to ``run_router_trial`` with a ``NaivePathRouter``
    factory and the same seed (the naive router draws no randomness of
    its own, so only the engine stream matters).  An observed run runs
    exactly that reference trial instead.
    """
    from ..sim.engine_vec import VecEngine

    if reference_engine_required():
        from ..baselines import NaivePathRouter

        return run_router_trial(
            problem, lambda _seed: NaivePathRouter(), seed, max_steps
        )
    engine = VecEngine.naive(problem, seed=stable_hash_seed(seed, 5))
    return engine.run(max_steps)


def run_router_trial(
    problem: RoutingProblem,
    router_factory: Callable[[int], Router],
    seed: int,
    max_steps: int,
) -> RunResult:
    """Run an arbitrary engine router once (baseline comparisons)."""
    router = router_factory(stable_hash_seed(seed, 4))
    engine = Engine(problem, router, seed=stable_hash_seed(seed, 5))
    return engine.run(max_steps)

