"""Tests of the benchmark's own code: ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import builtins
import json
import os
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import tracer as tr  # noqa: E402
from perfbench.metrics import END_TO_END, NAME_RE, PER_LAYER, SPEC  # noqa: E402
from perfbench.workloads import WORKLOADS, generate  # noqa: E402


def _tracer_from(spans):
    """A Tracer holding explicit (name, start, end, parent) spans."""
    t = tr.Tracer()
    for name, start, end, parent in spans:
        t.name_ids.append(t.name_id(name))
        t.starts.append(start)
        t.ends.append(end)
        t.parents.append(parent)
    return t


class TestSelfTime:
    def test_nested_spans(self):
        t = _tracer_from([
            ("root", 0.0, 10.0, -1),
            ("a", 1.0, 5.0, 0),
            ("b", 2.0, 3.0, 1),
            ("c", 6.0, 7.5, 0),
        ])
        assert tr.self_times(t.starts, t.ends, t.parents) == pytest.approx(
            [10.0 - 4.0 - 1.5, 4.0 - 1.0, 1.0, 1.5]
        )

    def test_overlapping_children_cover_once(self):
        t = _tracer_from([
            ("root", 0.0, 10.0, -1),
            ("x", 1.0, 4.0, 0),
            ("y", 3.0, 6.0, 0),  # overlaps x by one unit
            ("z", 5.0, 5.5, 0),  # inside y
        ])
        own = tr.self_times(t.starts, t.ends, t.parents)
        assert own[0] == pytest.approx(10.0 - 5.0)

    def test_children_clipped_to_parent_and_unsorted(self):
        t = _tracer_from([
            ("root", 0.0, 4.0, -1),
            ("late", 3.0, 9.0, 0),  # runs past the parent's end
            ("early", -1.0, 1.0, 0),  # starts before the parent
        ])
        assert tr.self_times(t.starts, t.ends, t.parents)[0] == pytest.approx(2.0)

    def test_layer_totals_sum_self_time_per_name(self):
        t = _tracer_from([
            ("root", 0.0, 10.0, -1),
            ("a", 0.0, 2.0, 0),
            ("a", 3.0, 4.0, 0),
            ("b", 3.5, 4.0, 2),
        ])
        totals = tr.layer_totals(t)
        assert totals["a"] == (pytest.approx(2.5), 2)
        assert totals["b"] == (pytest.approx(0.5), 1)
        assert totals["root"] == (pytest.approx(7.0), 1)

    def test_live_tracer_nests(self):
        ticks = iter(range(100))
        t = tr.Tracer(clock=lambda: float(next(ticks)))
        outer = t.open("outer")
        inner = t.open("inner")
        t.close(inner)
        t.close(outer)
        assert t.spans() == [("outer", 0.0, 3.0, -1), ("inner", 1.0, 2.0, 0)]


class TestMetricNames:
    def test_every_metric_name_is_valid(self):
        for name in [*END_TO_END, *PER_LAYER]:
            assert NAME_RE.fullmatch(name), name
        for name in WORKLOADS:
            assert NAME_RE.fullmatch(name), name

    def test_benchmark_json_names_every_workload(self):
        assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)

    def test_predictions_name_known_metrics_and_workloads(self):
        predictions = json.loads(
            (ROOT / "perfbench" / "predictions.json").read_text(encoding="utf-8")
        )
        for row in predictions["predictions"]:
            assert row["layer_metric"] in PER_LAYER, row
            assert row["end_to_end"] in END_TO_END, row
            assert row["workload"] in WORKLOADS, row
            assert row["expect"] in ("moves", "unchanged"), row


class TestInputs:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_inputs_are_byte_stable_for_a_seed(self, name, tmp_path):
        first = generate(WORKLOADS[name], 5, tmp_path / "a")
        again = generate(WORKLOADS[name], 5, tmp_path / "b")
        other = generate(WORKLOADS[name], 6, tmp_path / "c")
        for attr in ("full", "unit"):
            assert getattr(first, attr).read_bytes() == getattr(again, attr).read_bytes()
        assert first.full.read_bytes() != other.full.read_bytes()


class TestWrappersRestored:
    def _run_small(self, kind, tmp_path):
        from perfbench.traced import run_cli
        from repro.experiments import deep_random_spec
        from repro.scenarios import RunSpec, save_spec
        from repro.sweeps import SweepManifest, save_manifest

        if kind == "sweep":
            manifest = tmp_path / "m.json"
            save_manifest(
                SweepManifest.from_base(deep_random_spec(8, 3, 3, seed=1), 3, shard_size=2),
                manifest,
            )
            argv = ["sweep", "--manifest", str(manifest), "--store",
                    str(tmp_path / "store"), "--workers", "1"]
        else:
            spec = tmp_path / "s.json"
            save_spec(RunSpec(topology="butterfly", topology_params={"dim": 3},
                              arrival="bernoulli", arrival_params={"rate": 0.3},
                              backend="greedy", seed=2), spec)
            argv = ["serve", "--spec", str(spec), "--steps", "20", "--window", "5"]
        return run_cli(argv)

    @pytest.mark.parametrize("kind", ["sweep", "serve"])
    def test_every_wrapped_function_is_restored(self, kind, tmp_path):
        from perfbench.traced import Observations, targets

        obs = Observations()
        originals = {t.path: tr.resolve(t.path)[2] for t in targets(kind, obs)}
        import_before = builtins.__import__
        tracer = tr.Tracer()
        imports = tr.ImportSpans(tracer, ("numpy",))
        imports.install()
        patches = tr.install(tracer, targets(kind, obs))
        try:
            assert not patches.missing
            assert all(tr.resolve(p)[2] is not f for p, f in originals.items())
            code, _ = self._run_small(kind, tmp_path)
        finally:
            tr.uninstall(patches)
            imports.uninstall()
        assert code == 0
        assert len(tracer) > 0
        assert patches.restored() and imports.restored()
        assert builtins.__import__ is import_before
        for path, original in originals.items():
            assert tr.resolve(path)[2] is original, path
        for owner, attr, original in patches.replaced:
            assert getattr(owner, "__dict__")[attr] is original

    def test_module_level_function_is_wrapped_where_imported(self):
        import repro.traffic.stream as stream
        from perfbench.traced import Observations, targets

        original = stream.random_monotone_path
        patches = tr.install(tr.Tracer(), targets("serve", Observations()))
        try:
            assert stream.random_monotone_path is not original
        finally:
            tr.uninstall(patches)
        assert stream.random_monotone_path is original

    def test_missing_target_is_reported_not_fatal(self):
        patches = tr.install(tr.Tracer(), [tr.Target("x", "repro.sim.engine:NoSuch.step")])
        assert patches.missing == ["repro.sim.engine:NoSuch.step"]
        assert patches.replaced == []


class TestSteadinessReport:
    def _values(self, set1, set2):
        """One workload whose every metric reads ``set1`` then ``set2``."""
        def runs(values):
            return [{m: value for m in END_TO_END} for value in values]
        return {"w": [runs(set1), runs(set2)]}

    def _report(self, values):
        import io

        from perfbench.steadiness import report

        return report(values, out=io.StringIO())

    def test_steady_sets_resolve(self):
        steady = [100.0, 100.5, 99.5, 100.2, 99.8]
        assert self._report(self._values(steady, steady))

    def test_set_two_better_by_over_bound_is_unresolved(self):
        steady = [100.0, 100.5, 99.5, 100.2, 99.8]
        faster = [v * 1.4 for v in steady]
        assert not self._report(self._values(steady, faster))

    def test_setup_spread_over_bound_is_unresolved(self):
        steady = [100.0, 100.5, 99.5, 100.2, 99.8]
        values = self._values(steady, steady)
        for row, value in zip(values["w"][0], [50.0, 100.0, 150.0, 60.0, 140.0]):
            row["setup_s"] = value
        assert not self._report(values)


class TestTreePeakRss:
    #: a command whose two forked children each hold ~60 MB for 0.6 s,
    #: together or one after the other
    CHILDREN = (
        "import os, sys, time\n"
        "def child():\n"
        "    block = bytearray(60 << 20)\n"
        "    time.sleep(0.6)\n"
        "    os._exit(0)\n"
        "pids = []\n"
        "for _ in range(2):\n"
        "    pid = os.fork()\n"
        "    if pid == 0:\n"
        "        child()\n"
        "    pids.append(pid)\n"
        "    if sys.argv[1] == 'serial':\n"
        "        os.waitpid(pid, 0)\n"
        "for pid in pids:\n"
        "    if sys.argv[1] == 'together':\n"
        "        os.waitpid(pid, 0)\n"
    )

    def _peak_mb(self, mode, tmp_path):
        from perfbench import measure

        sample = measure.spawn(
            [sys.executable, "-c", self.CHILDREN, mode], dict(os.environ),
            tmp_path, tmp_path / "err.log",
        )
        assert sample.returncode == 0
        return sample.peak_rss_mb

    def test_children_alive_together_are_summed(self, tmp_path):
        assert self._peak_mb("together", tmp_path) > 120

    def test_children_one_after_another_are_not(self, tmp_path):
        assert 60 < self._peak_mb("serial", tmp_path) < 110
