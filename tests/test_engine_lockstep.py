"""Differential tests: the lockstep batch kernel vs. the serial engines.

The contract of :mod:`repro.sim.engine_lockstep` is byte-identity *per
trial*: a batch of T trials advanced in one set of stacked arrays must
produce, for every trial, exactly the ``RunResult`` the per-trial path
produces for that trial's seed — same delivery times, same deflection
counts, same makespans, regardless of how the other trials in the batch
behave (stragglers, early quiescence, mixed finish times).  These tests
fuzz that contract across batch widths and both kernel families, then
pin the executor-level guarantees: grouping of homogeneous chunks,
peel-off of trials needing per-trial machinery (telemetry, traces,
audits, cache hits), and byte-identical sweep shards with lockstep on
or off — including through a mid-shard kill and resume.
"""

from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import NaivePathRouter
from repro.experiments import (
    baseline_budget,
    butterfly_hotrow_instance,
    butterfly_random_instance,
    run_frontier_trial,
    run_frontier_trials_lockstep,
    run_naive_trials_lockstep,
    run_router_trial,
    sweep_specs,
)
from repro.experiments.batch import (
    LOCKSTEP_MAX_TRIALS,
    LOCKSTEP_MIN_TRIALS,
    TrialExecutor,
    run_spec_trials_batched,
)
from repro.net import random_leveled
from repro.paths import select_paths_random
from repro.scenarios import RunSpec
from repro.sweeps import (
    SweepHeartbeat,
    SweepManifest,
    open_store,
    run_sweep,
)
from repro.telemetry import TelemetrySession
from repro.workloads import random_many_to_one

#: The widths the issue pins: singleton, pair, odd straggler-prone width,
#: and the executor's full batch width.
WIDTHS = [1, 2, 17, 64]


def base_spec(seed: int = 11, backend: str = "frontier") -> RunSpec:
    return RunSpec(
        topology="butterfly",
        topology_params={"dim": 3},
        workload="random_many_to_one",
        workload_params={"num_packets": 6},
        backend=backend,
        seed=seed,
    )


def assert_results_identical(ref, got, label=""):
    """Field-by-field RunResult comparison with a readable failure."""
    ref_d, got_d = asdict(ref), asdict(got)
    diff = {k: (ref_d[k], got_d[k]) for k in ref_d if ref_d[k] != got_d[k]}
    assert not diff, f"serial/lockstep RunResult mismatch {label}: {diff}"


@st.composite
def lockstep_instance(draw):
    """Random leveled instance, mirroring test_engine_vec.vec_instance."""
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


# ------------------------------------------------- fuzz: kernel byte-identity


@pytest.mark.parametrize("width", WIDTHS)
def test_frontier_lockstep_matches_serial_across_widths(width):
    problem = butterfly_random_instance(4, seed=7)
    seeds = list(range(width))
    batch = run_frontier_trials_lockstep(problem, seeds)
    assert [rec.seed for rec in batch] == seeds
    for seed, rec in zip(seeds, batch):
        ref = run_frontier_trial(problem, seed)
        assert_results_identical(ref.result, rec.result, f"(seed {seed})")


@pytest.mark.parametrize("width", WIDTHS)
def test_naive_lockstep_matches_serial_across_widths(width):
    problem = butterfly_random_instance(3, seed=5)
    budget = baseline_budget(problem)
    seeds = list(range(width))
    batch = run_naive_trials_lockstep(problem, seeds, budget)
    for seed, result in zip(seeds, batch):
        ref = run_router_trial(
            problem, lambda _s: NaivePathRouter(), seed, budget
        )
        assert_results_identical(ref, result, f"(seed {seed})")


@given(
    lockstep_instance(),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_frontier_lockstep_fuzz(problem, width, seed0, fast_forward):
    seeds = [seed0 + k for k in range(width)]
    batch = run_frontier_trials_lockstep(
        problem, seeds, fast_forward=fast_forward
    )
    for seed, rec in zip(seeds, batch):
        ref = run_frontier_trial(problem, seed, fast_forward=fast_forward)
        assert_results_identical(ref.result, rec.result, f"(seed {seed})")


def test_condition_sets_lockstep_identical():
    problem = butterfly_random_instance(4, seed=99)
    seeds = [0, 5, 42]
    batch = run_frontier_trials_lockstep(problem, seeds, condition_sets=True)
    for seed, rec in zip(seeds, batch):
        ref = run_frontier_trial(problem, seed, condition_sets=True)
        assert_results_identical(ref.result, rec.result, f"(seed {seed})")


def test_straggler_trials_do_not_perturb_the_batch():
    """Hot-row contention makes finish times diverge across seeds, so
    trials quiesce and drop out of the stacked arrays mid-batch; every
    remaining trial must still replay its serial draws exactly."""
    problem = butterfly_hotrow_instance(5, 24, seed=3)
    seeds = list(range(17))
    batch = run_frontier_trials_lockstep(problem, seeds)
    makespans = {rec.result.makespan for rec in batch}
    assert len(makespans) > 1, "fixture no longer produces stragglers"
    for seed, rec in zip(seeds, batch):
        ref = run_frontier_trial(problem, seed)
        assert_results_identical(ref.result, rec.result, f"(seed {seed})")


# ------------------------------------------------ executor: grouping/peel-off


def test_executor_groups_homogeneous_chunks():
    specs = sweep_specs(base_spec(), 10)
    lockstep = TrialExecutor()
    records = lockstep.run_chunk(specs)
    assert [r.spec for r in records] == specs
    assert all(r.executor == "lockstep[w=10]" for r in records)
    serial = TrialExecutor(lockstep=False)
    for ref, got in zip(serial.run_chunk(specs), records):
        assert ref.executor == ""
        assert_results_identical(ref.result, got.result, f"({got.spec.seed})")


def test_executor_caps_group_width():
    specs = sweep_specs(base_spec(), LOCKSTEP_MAX_TRIALS + LOCKSTEP_MIN_TRIALS)
    records = TrialExecutor().run_chunk(specs)
    widths = {r.executor for r in records}
    assert widths == {
        f"lockstep[w={LOCKSTEP_MAX_TRIALS}]",
        f"lockstep[w={LOCKSTEP_MIN_TRIALS}]",
    }
    for ref, got in zip(TrialExecutor(lockstep=False).run_chunk(specs), records):
        assert_results_identical(ref.result, got.result, f"({got.spec.seed})")


@pytest.mark.parametrize("width", [1, LOCKSTEP_MIN_TRIALS - 1])
def test_narrow_groups_run_per_trial(width):
    """Groups narrower than LOCKSTEP_MIN_TRIALS skip the stacked kernel
    (its per-step bookkeeping costs more than it batches) and return the
    per-trial path's records byte for byte."""
    specs = sweep_specs(base_spec(), width)
    records = TrialExecutor().run_chunk(specs)
    assert [r.spec for r in records] == specs
    assert all(r.executor == "" for r in records)
    for ref, got in zip(TrialExecutor(lockstep=False).run_chunk(specs), records):
        assert_results_identical(ref.result, got.result, f"({got.spec.seed})")


def test_executor_mixed_chunk_preserves_order_and_identity():
    """Ineligible specs interleaved with homogeneous runs split the chunk:
    each frontier run locksteps, the naive spec and the different-scenario
    spec fall through to the per-trial path, and record order is spec
    order throughout."""
    w = LOCKSTEP_MIN_TRIALS
    frontier = sweep_specs(base_spec(), 2 * w)
    other = base_spec(seed=77).with_pinned_scenario()
    naive = base_spec(seed=23, backend="naive").with_pinned_scenario()
    specs = frontier[:w] + [naive] + frontier[w:] + [other]
    records = TrialExecutor().run_chunk(specs)
    assert [r.spec for r in records] == specs
    tags = [r.executor for r in records]
    group = [f"lockstep[w={w}]"] * w
    assert tags == group + [""] + group + [""]
    for ref, got in zip(TrialExecutor(lockstep=False).run_chunk(specs), records):
        assert_results_identical(ref.result, got.result, f"({got.spec.seed})")


def test_telemetry_peels_off_to_per_trial_path():
    """Telemetry needs per-trial counter isolation, which the stacked
    kernel cannot provide: the executor must peel those trials off, and
    their counters must match the lockstep=False path exactly."""
    specs = sweep_specs(base_spec(), 3)
    records = TrialExecutor(telemetry=True).run_chunk(specs)
    refs = TrialExecutor(lockstep=False, telemetry=True).run_chunk(specs)
    for ref, got in zip(refs, records):
        assert got.executor == ""
        assert got.result.telemetry is not None
        assert got.result.telemetry == ref.result.telemetry
        assert_results_identical(ref.result, got.result, f"({got.spec.seed})")


def test_ambient_session_peels_off_and_traces_identically():
    """An ambient telemetry/trace session disables lockstep grouping (the
    stacked kernel carries no observers); the session must end up with the
    same counter stream as a per-trial run."""
    specs = sweep_specs(base_spec(), 3)
    with TelemetrySession() as lockstep_session:
        records = TrialExecutor().run_chunk(specs)
    with TelemetrySession() as serial_session:
        refs = TrialExecutor(lockstep=False).run_chunk(specs)
    assert all(r.executor == "" for r in records)
    assert (
        lockstep_session.counters.to_dict()
        == serial_session.counters.to_dict()
    )
    for ref, got in zip(refs, records):
        assert_results_identical(ref.result, got.result, f"({got.spec.seed})")


def test_audit_specs_peel_off():
    specs = [
        s.with_params(audit=True) for s in sweep_specs(base_spec(), 2)
    ]
    records = TrialExecutor().run_chunk(specs)
    assert all(r.executor == "" for r in records)
    for ref, got in zip(TrialExecutor(lockstep=False).run_chunk(specs), records):
        assert_results_identical(ref.result, got.result, f"({got.spec.seed})")


def test_cache_hits_peel_out_of_the_group(tmp_path):
    """Disk hits come back as cached records; only the misses lockstep,
    and the stored bytes match what the per-trial path would store."""
    w = LOCKSTEP_MIN_TRIALS
    specs = sweep_specs(base_spec(), 3 + w)
    primer = TrialExecutor(cache_root=tmp_path, lockstep=False)
    primed = [primer.run(s) for s in specs[:3]]
    records = TrialExecutor(cache_root=tmp_path).run_chunk(specs)
    assert [r.cached for r in records] == [True] * 3 + [False] * w
    assert [r.executor for r in records] == [""] * 3 + [f"lockstep[w={w}]"] * w
    for ref, got in zip(primed, records[:3]):
        assert_results_identical(ref.result, got.result, f"({got.spec.seed})")
    # A second pass hits the results the lockstep group stored back.
    replay = TrialExecutor(cache_root=tmp_path, lockstep=False).run_chunk(specs)
    assert all(r.cached for r in replay)
    for ref, got in zip(replay, records):
        assert_results_identical(ref.result, got.result, f"({got.spec.seed})")


def test_run_spec_trials_batched_lockstep_toggle_identical():
    specs = sweep_specs(base_spec(), 9)
    fast = run_spec_trials_batched(specs, workers=1)
    slow = run_spec_trials_batched(specs, workers=1, lockstep=False)
    for ref, got in zip(slow, fast):
        assert_results_identical(ref.result, got.result, f"({got.spec.seed})")


# --------------------------------------------------- sweeps: shard identity


class TestSweepShardIdentity:
    #: shards of 10 and 9 trials, both wide enough to lockstep; a resume
    #: two trials into shard 0 leaves a group of exactly LOCKSTEP_MIN_TRIALS
    NUM_TRIALS = 2 * LOCKSTEP_MIN_TRIALS + 3

    @pytest.fixture
    def manifest(self):
        return SweepManifest.from_base(
            base_spec(),
            num_trials=self.NUM_TRIALS,
            shard_size=LOCKSTEP_MIN_TRIALS + 2,
        )

    def test_lockstep_shards_byte_identical_to_serial(
        self, manifest, tmp_path
    ):
        serial = open_store(tmp_path / "serial", manifest)
        run_sweep(manifest, serial, compact=False, lockstep=False)
        lockstep = open_store(tmp_path / "lockstep", manifest)
        run_sweep(manifest, lockstep, compact=False)
        for shard in manifest.shard_ids():
            assert lockstep.shard_bytes(shard) == serial.shard_bytes(shard)

    def test_kill_resume_lockstep_matches_serial_shards(
        self, manifest, tmp_path
    ):
        """A killed lockstep sweep resumes mid-shard and must still emit
        the exact bytes of an uninterrupted serial (lockstep=False) run —
        the resume point lands inside what would have been one batch."""
        reference = open_store(tmp_path / "ref", manifest)
        run_sweep(manifest, reference, compact=False, lockstep=False)
        ref_bytes = [
            reference.shard_bytes(s) for s in manifest.shard_ids()
        ]

        victim = open_store(tmp_path / "victim", manifest)
        executor = TrialExecutor()
        with victim.writer(0) as writer:
            for spec in manifest.shard_specs(0)[:2]:
                writer.append(
                    spec.seed, spec.content_hash(),
                    executor.run(spec).result,
                )
        with open(victim.part_path(0), "ab") as fh:
            fh.write(b'{"kind":"sweep_record","index":2')
        outcome = run_sweep(manifest, victim, resume=True, compact=False)
        assert outcome.complete
        assert outcome.trials_resumed == 2
        assert [
            victim.shard_bytes(s) for s in manifest.shard_ids()
        ] == ref_bytes

    def test_heartbeat_reports_lockstep_width(self, manifest, tmp_path):
        beats = []
        heartbeat = SweepHeartbeat(
            beats.append, total=self.NUM_TRIALS, interval_sec=0.0
        )
        store = open_store(tmp_path / "s", manifest)
        run_sweep(manifest, store, heartbeat=heartbeat, compact=False)
        final = beats[-1]
        assert final["final"] is True
        assert final["lockstep_trials"] == self.NUM_TRIALS
        # The last shard holds the remaining 9 trials: one group of 9.
        assert final["executor"] == f"lockstep[w={LOCKSTEP_MIN_TRIALS + 1}]"
        serial = open_store(tmp_path / "serial", manifest)
        run_sweep(manifest, serial, compact=False, lockstep=False)
        for shard in manifest.shard_ids():
            assert store.shard_bytes(shard) == serial.shard_bytes(shard)

    def test_heartbeat_reports_per_trial_when_lockstep_off(
        self, manifest, tmp_path
    ):
        beats = []
        heartbeat = SweepHeartbeat(
            beats.append, total=self.NUM_TRIALS, interval_sec=0.0
        )
        store = open_store(tmp_path / "s", manifest)
        run_sweep(
            manifest, store, heartbeat=heartbeat, compact=False,
            lockstep=False,
        )
        final = beats[-1]
        assert final["lockstep_trials"] == 0
        assert final["executor"] == "per-trial"

    def test_unpinned_manifest_shards_identical_lockstep_on_and_off(
        self, tmp_path
    ):
        """An unpinned manifest routes an independent instance per trial,
        so every lockstep group has width 1 and runs per trial: the shard
        bytes match a lockstep=False sweep and no trial reports lockstep."""
        manifest = SweepManifest.from_base(
            base_spec(), num_trials=self.NUM_TRIALS, shard_size=8, pin=False
        )
        beats = []
        heartbeat = SweepHeartbeat(
            beats.append, total=self.NUM_TRIALS, interval_sec=0.0
        )
        lockstep = open_store(tmp_path / "lockstep", manifest)
        run_sweep(manifest, lockstep, heartbeat=heartbeat, compact=False)
        serial = open_store(tmp_path / "serial", manifest)
        run_sweep(manifest, serial, compact=False, lockstep=False)
        for shard in manifest.shard_ids():
            assert lockstep.shard_bytes(shard) == serial.shard_bytes(shard)
        assert beats[-1]["lockstep_trials"] == 0
        assert beats[-1]["executor"] == "per-trial"
