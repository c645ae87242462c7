"""Differential tests: the vectorized kernel vs. the reference engine.

The contract of :mod:`repro.sim.engine_vec` is byte-identity, not
approximate agreement: for the supported router families (frontier,
naive) the vectorized kernel consumes the same RNG streams in the same
order as the reference :class:`~repro.sim.Engine`, so every result field
— delivery times, deflection counts, move totals — must match exactly.
The kernel is untraced: observed ``*_vec`` runs go to the reference
engine, so their telemetry counters and trace files must equal the
reference runs' byte for byte.  These tests fuzz that contract over
random leveled instances and pinned dense/contended ones, and check that
audited and observed runs fall back to the reference engine.
"""

import pathlib
import tempfile
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import NaivePathRouter
from repro.errors import ReproError
from repro.experiments import (
    butterfly_hotrow_instance,
    butterfly_random_instance,
    run_frontier_trial,
    run_frontier_vec_trial,
    run_naive_vec_trial,
    run_router_trial,
)
from repro.net import layered_complete, random_leveled
from repro.paths import select_paths_random
from repro.sim import VecEngine
from repro.sim.engine_lockstep import LockstepEngine
from repro.telemetry import TelemetrySession
from repro.workloads import random_many_to_one

@st.composite
def vec_instance(draw):
    """Random leveled instance, mirroring test_engine_fuzz.fuzz_instance."""
    depth = draw(st.integers(min_value=2, max_value=5))
    width = draw(st.integers(min_value=2, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    net = random_leveled(
        [width] * (depth + 1),
        edge_probability=0.6,
        seed=seed,
        min_out_degree=1,
        min_in_degree=1,
    )
    num = draw(st.integers(min_value=1, max_value=min(8, width * depth)))
    workload = random_many_to_one(net, num, seed=seed + 1)
    return select_paths_random(net, workload.endpoints, seed=seed + 2)


def assert_results_identical(ref, vec):
    """Field-by-field RunResult comparison with a readable failure."""
    ref_d, vec_d = asdict(ref), asdict(vec)
    diff = {k: (ref_d[k], vec_d[k]) for k in ref_d if ref_d[k] != vec_d[k]}
    assert not diff, f"ref/vec RunResult mismatch: {diff}"


# ------------------------------------------------------------ fuzz: results


@given(
    vec_instance(),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_frontier_vec_matches_reference(problem, seed, fast_forward):
    ref = run_frontier_trial(problem, seed, fast_forward=fast_forward)
    vec = run_frontier_vec_trial(problem, seed, fast_forward=fast_forward)
    assert_results_identical(ref.result, vec.result)


@given(vec_instance(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_naive_vec_matches_reference(problem, seed):
    ref = run_router_trial(problem, lambda _s: NaivePathRouter(), seed, 20000)
    vec = run_naive_vec_trial(problem, seed, 20000)
    assert_results_identical(ref, vec)


@pytest.mark.parametrize("seed", [0, 5, 42])
def test_condition_sets_identical(seed):
    problem = butterfly_random_instance(4, seed=99)
    ref = run_frontier_trial(problem, seed, condition_sets=True)
    vec = run_frontier_vec_trial(problem, seed, condition_sets=True)
    assert_results_identical(ref.result, vec.result)


# -------------------------------------------------------------- fuzz: traces


def _traced(run, trace_path):
    """``run()`` under a trace session: (result, counters, trace bytes)."""
    with TelemetrySession(trace_path=str(trace_path)) as session:
        result = run()
    return result, session.counters.to_dict(), pathlib.Path(trace_path).read_bytes()


@given(vec_instance(), st.booleans())
@settings(max_examples=10, deadline=None)
def test_frontier_trace_streams_identical(problem, fast_forward):
    """A ``frontier_vec`` run under a trace session writes the ``frontier``
    run's trace file and counters, byte for byte."""
    with tempfile.TemporaryDirectory() as tmp:
        ref = _traced(
            lambda: run_frontier_trial(problem, 17, fast_forward=fast_forward),
            f"{tmp}/ref.jsonl",
        )
        vec = _traced(
            lambda: run_frontier_vec_trial(
                problem, 17, fast_forward=fast_forward
            ),
            f"{tmp}/vec.jsonl",
        )
    assert_results_identical(ref[0].result, vec[0].result)
    assert ref[1:] == vec[1:]
    assert ref[2].count(b"\n") > 2  # header, events, footer


def test_naive_trace_streams_identical_under_deflection(tmp_path):
    """Hotrow forces sustained contention, so deflections are traced too."""
    problem = butterfly_hotrow_instance(5, 24, seed=3)
    ref = _traced(
        lambda: run_router_trial(
            problem, lambda _s: NaivePathRouter(), 9, 20000
        ),
        tmp_path / "ref.jsonl",
    )
    vec = _traced(
        lambda: run_naive_vec_trial(problem, 9, 20000), tmp_path / "vec.jsonl"
    )
    assert_results_identical(ref[0], vec[0])
    assert ref[1:] == vec[1:]
    # the fixture must actually exercise the deflection path
    assert any(d for d in vec[0].deflections_per_packet if d)


@pytest.mark.parametrize("kernel", ["vec", "lockstep"])
def test_kernels_refuse_an_active_session(kernel):
    """A kernel built under a session would drop its counters and trace."""
    problem = butterfly_random_instance(3, seed=2)
    build = {
        "vec": lambda: VecEngine.naive(problem, seed=0),
        "lockstep": lambda: LockstepEngine.naive(problem, engine_seeds=[0]),
    }[kernel]
    with TelemetrySession():
        with pytest.raises(ReproError, match="reference engine"):
            build()
    build()  # and builds fine once the session is closed


# ---------------------------------------------------------- fuzz: telemetry


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_telemetry_counters_identical_dense(seed):
    """Dense many-to-one contention: counters must agree event for event."""
    net = layered_complete([4, 5, 4, 5])
    workload = random_many_to_one(net, 12, seed=seed)
    problem = select_paths_random(net, workload.endpoints, seed=seed + 1)

    with TelemetrySession() as ref_tel:
        ref = run_frontier_trial(problem, seed)
    with TelemetrySession() as vec_tel:
        vec = run_frontier_vec_trial(problem, seed)

    assert_results_identical(ref.result, vec.result)
    assert ref_tel.counters.to_dict() == vec_tel.counters.to_dict()


# ------------------------------------------------------ audit fallback


def test_audit_requests_fall_back_to_reference():
    """The invariant auditor needs reference post-step hooks; audit=True
    must transparently run the reference engine and return a report."""
    problem = butterfly_random_instance(3, seed=2)
    record = run_frontier_vec_trial(problem, 3, audit=True)
    assert record.audit is not None
    ref = run_frontier_trial(problem, 3, audit=True)
    assert_results_identical(ref.result, record.result)
