"""Run the benchmark: ``python3 perfbench/run.py [--workload NAME] ...``.

Without ``--workload`` every workload runs in turn, each measured for its
share of ``--seconds`` (by default ``run_seconds`` of ``BENCHMARK.json``);
set-up samples and output checks run outside that time.  ``--trace 0`` (the
default) spawns the user-facing command (``python -m repro ...``) and
times it from spawn to exit; it prints each end-to-end metric by name
and unit.  ``--trace 1`` runs the workload in a traced interpreter
(:mod:`perfbench.traced`) and prints the per-layer metrics instead.
Either way the outputs are checked, the last stdout line is one JSON
object (``correct``, ``attempted``, ``failed``, ``metrics``), and the
exit code is 1 when any output check failed.

Inputs are generated from ``--seed`` into ``.perfbench_work/`` under the
checkout root, which is the only place the benchmark writes.

This process imports only the standard library: input generation and
the per-trial re-checks run in helper processes.  A child's peak RSS as
``wait4`` reports it includes the memory of the process that spawned it,
so a small parent keeps that lower bound of ``peak_rss_mb`` the command's
own.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import pathlib
import shutil
import signal
import statistics
import sys
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import checks, measure  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER, RUN_SECONDS  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    SERVE_WINDOW,
    WORKLOADS,
    full_argv,
    input_paths,
    unit_argv,
)

WORK_DIR = ROOT / ".perfbench_work"
#: fewest one-unit commands timed per run for setup_s (median reported)
SETUP_SAMPLES = 7
#: fewest full commands per run, however long they take
MIN_FULL_SAMPLES = 3
#: input variants generated per helper call
GENERATE_BATCH = 12


def variant_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th input a run generates from ``--seed``.

    Each full command of a run gets fresh inputs, so the run's median
    spans several instance sets (sweep_varied trials differ in cost by
    over 10x) and arrival streams, not one draw.
    """
    return seed * 100003 + index


class Outcome:
    """Ops attempted and failed, problems found, metrics measured."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.metrics = {}
        self.report = []

    def fail(self, problem: str, ops: int = 0) -> None:
        self.problems.append(problem)
        self.failed += ops


class Runner:
    """Spawns one workload's commands inside its own work directory."""

    def __init__(self, name: str, seed: int, work: pathlib.Path) -> None:
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.env = measure.checkout_env(ROOT, ROOT)
        self._ids = itertools.count()
        self._generated = 0
        self.inputs = self.variant(0)

    def helper(self, module: str, *args: str) -> measure.Sample:
        """Run ``python -m perfbench.<module> args``; raise if it fails."""
        log = self.work / f"stderr-{next(self._ids)}.log"
        sample = measure.spawn(
            [sys.executable, "-m", f"perfbench.{module}", *args], self.env, ROOT, log
        )
        if sample.returncode != 0:
            raise RuntimeError(
                f"perfbench.{module} failed ({sample.returncode}):\n"
                + log.read_text(encoding="utf-8", errors="replace")[-2000:]
            )
        return sample

    def variant(self, index: int):
        """Input files of the run's ``index``-th variant (generated once)."""
        if index >= self._generated:
            seeds = range(self._generated, self._generated + GENERATE_BATCH)
            self.helper(
                "workloads", "--workload", self.workload.name,
                "--out", str(self.work / "inputs"),
                *itertools.chain.from_iterable(
                    ("--seed", str(variant_seed(self.seed, i))) for i in seeds
                ),
            )
            self._generated += GENERATE_BATCH
        return input_paths(
            self.workload, self.work / "inputs" / str(variant_seed(self.seed, index))
        )

    def store(self) -> pathlib.Path:
        return self.work / f"store-{next(self._ids)}"

    def spawn(self, argv) -> measure.Sample:
        log = self.work / f"stderr-{next(self._ids)}.log"
        sample = measure.spawn(
            [sys.executable, "-m", "repro", *argv], self.env, ROOT, log
        )
        if sample.returncode != 0:
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"command failed ({sample.returncode}): {' '.join(argv)}\n{tail}",
                  file=sys.stderr)
        return sample

    def full(self, out: Outcome, inputs):
        """Spawn one full command and check it.

        Returns (sample, output bytes, store); the caller re-checks and
        removes a sweep's store.
        """
        w = self.workload
        store = self.store()
        sample = self.spawn(full_argv(w, inputs, store))
        if w.kind == "sweep":
            output, aggregate = checks.sweep_output(store)
            failed, problems = checks.check_sweep_store(output, aggregate, w.size)
            out.attempted += w.size
        else:
            output = sample.stdout
            arrivals, failed, problems = checks.check_serve(output, w.size, SERVE_WINDOW)
            out.attempted += arrivals
        out.failed += failed
        out.problems.extend(problems)
        if sample.returncode != 0:
            out.problems.append(f"full command exited {sample.returncode}")
        return sample, output, store

    def recheck(self, out: Outcome, stores):
        """Sweeps: re-run a seeded sample of each store's trials per trial.

        ``stores`` holds (inputs, store) pairs.  Returns each store's mean
        makespan / (C+D), and removes the stores.
        """
        pairs = itertools.chain.from_iterable(
            ("--store", str(inputs.full), str(store)) for inputs, store in stores
        )
        results = json.loads(self.helper(
            "checks", "--seed", str(self.seed), *pairs
        ).stdout.splitlines()[-1])
        for result in results:
            out.attempted += result["checked"]
            out.failed += result["mismatches"]
            out.problems.extend(result["problems"])
        for _, store in stores:
            shutil.rmtree(store, ignore_errors=True)
        return [result["makespan_ratio_mean"] for result in results]

    # ------------------------------------------------------------ untraced

    def untraced(self, seconds: float) -> Outcome:
        out = Outcome()
        w = self.workload
        self.spawn(unit_argv(w, self.inputs, self.store()))  # warm-up, untimed
        setup, probes = [], []

        def probe() -> None:
            probes.append(measure.probe(self.env, ROOT, self.work / "probe.log"))

        def setup_sample() -> None:
            probe()
            sample = self.spawn(unit_argv(w, self.inputs, self.store()))
            setup.append(sample.wall_s)
            out.attempted += 1
            if sample.returncode != 0:
                out.fail(f"set-up command exited {sample.returncode}", 1)

        # Probes, set-up and full commands alternate, so a slow spell of
        # the host lands on every kind of sample rather than on one of them.
        samples, outputs = [], []
        start = perf_counter()
        while len(samples) < MIN_FULL_SAMPLES or perf_counter() - start < seconds:
            inputs = self.variant(len(samples))
            probe()
            sample, output, store = self.full(out, inputs)
            samples.append(sample)
            outputs.append((inputs, output, store))
            setup_sample()
        while len(setup) < SETUP_SAMPLES:
            setup_sample()
        if w.kind == "sweep":
            ratios = self.recheck(out, [(inputs, store) for inputs, _, store in outputs])

        work_per_s = [w.size / s.wall_s for s in samples]
        # > 1 when the host ran slower than the reference during this run
        slowdown = measure.median(probes) / measure.REFERENCE_PROBE_S
        out.metrics = {
            "setup_s": measure.median(setup) / slowdown,
            "work_per_s": measure.median(work_per_s) * slowdown,
            "peak_rss_mb": measure.median([s.peak_rss_mb for s in samples]),
        }
        q1, timed, q3 = measure.quartiles(work_per_s)
        rate_name = "trials_per_s" if w.kind == "sweep" else "sim_steps_per_s"
        out.report += [
            ("host_slowdown", slowdown, "ratio",
             f"median of {len(probes)} probe runs / reference probe time"),
            ("setup_s", out.metrics["setup_s"], "s",
             f"at reference host speed; as timed, median of {len(setup)} "
             f"one-unit commands {measure.median(setup):.4g} s"),
            (rate_name, out.metrics["work_per_s"], f"{w.work_unit}/s",
             f"at reference host speed; as timed, median of {len(samples)} runs "
             f"of {w.size} {w.work_unit} (fresh inputs each) {timed:.4g}, "
             f"q1 {q1:.4g}, q3 {q3:.4g}"),
            ("peak_rss_mb", out.metrics["peak_rss_mb"], "MB", "median over full runs"),
        ]
        if w.kind == "sweep":
            out.report.append(
                ("makespan_ratio_mean", statistics.fmean(ratios), "steps/(C+D)", "sim")
            )
        else:
            intervals = []
            for s in samples:
                times = [
                    t for t, line in zip(s.line_times, s.stdout.splitlines())
                    if b'"metrics_window"' in line
                ]
                intervals += [1000 * (b - a) for a, b in zip(times, times[1:])]
            p95, per_step = [], []
            for _, output, _ in outputs:
                _, windows, summary = checks.parse_serve(output)
                p95 += [x["latency_p95"] for x in windows if x["latency_p95"] is not None]
                per_step.append(summary["delivered"] / summary["steps"])
            out.report += [
                ("window_ms_p50", measure.percentile(intervals, 50), "ms",
                 f"{len(intervals)} window intervals"),
                ("window_ms_p90", measure.percentile(intervals, 90), "ms",
                 f"{len(intervals)} window intervals"),
                ("latency_p95_steps", statistics.median(p95), "steps", "sim"),
                ("delivered_per_step", statistics.fmean(per_step), "packets/step", "sim"),
            ]
        out.report.append(
            ("failed_ratio", out.failed / max(1, out.attempted), "fraction",
             f"{out.failed} of {out.attempted} ops")
        )
        return out

    # -------------------------------------------------------------- traced

    def traced(self, seconds: float) -> Outcome:
        out = Outcome()
        _, reference, store = self.full(out, self.inputs)
        if self.workload.kind == "sweep":
            self.recheck(out, [(self.inputs, store)])
        expected = hashlib.sha256(reference).hexdigest()
        ops = 2 * (self.workload.size if self.workload.kind == "sweep" else 1)
        runs, heavy = [], None
        start = perf_counter()
        while not runs or perf_counter() - start < seconds:
            work = self.work / f"trace-{len(runs)}"
            work.mkdir(parents=True)
            out.attempted += ops
            try:
                result = json.loads(self.helper(
                    "traced", "--workload", self.workload.name,
                    "--input", str(self.inputs.full), "--work", str(work),
                ).stdout.splitlines()[-1])
            except (RuntimeError, IndexError, json.JSONDecodeError) as exc:
                out.fail(f"traced run failed: {exc}", ops)
                break
            problems = []
            if result["exit_codes"] != [0, 0]:
                problems.append(f"in-process commands exited {result['exit_codes']}")
            if not result["restored"]:
                problems.append("a wrapped function was not restored")
            if result["traced_sha256"] != expected:
                problems.append("traced output differs from the untraced command's")
            if result["untraced_sha256"] != expected:
                problems.append("in-process output differs from the spawned command's")
            if result["missing_targets"]:
                print(f"note: trace targets not found: {result['missing_targets']}",
                      file=sys.stderr)
            if problems:
                out.fail("; ".join(problems), ops)
            runs.append(result["metrics"])
            heavy = result["heavy"]
            for name in ("store-traced", "store-untraced"):
                shutil.rmtree(work / name, ignore_errors=True)
        if runs:
            out.metrics = {
                name: statistics.median(run[name] for run in runs) for name in PER_LAYER
            }
        out.report = [
            (name, value, PER_LAYER[name][0], "") for name, value in out.metrics.items()
        ]
        if heavy is not None:
            verdict = "confirmed" if heavy["holds"] else "NOT confirmed"
            out.report.append(
                ("heavy_layers", heavy["lhs_s"], "s",
                 f"{heavy['claim']}: {heavy['lhs_s']:.3f} vs {heavy['rhs_s']:.3f}"
                 f" -> {verdict}")
            )
        return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    work = WORK_DIR / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(name, seed, work)
    return runner.traced(seconds) if trace else runner.untraced(seconds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measured time of one run, shared by its workloads")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so spawn() kills the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    seconds = args.seconds / len(names)
    units = PER_LAYER if args.trace else END_TO_END
    attempted = failed = 0
    problems, metrics = [], {}
    for name in names:
        try:
            out = run_workload(name, args.seed, seconds, bool(args.trace))
        except RuntimeError as exc:
            out = Outcome()
            out.fail(str(exc), 1)
        attempted += out.attempted
        failed += out.failed
        problems += [f"{name}: {p}" for p in out.problems]
        for metric, value, unit, note in out.report:
            print(f"{name:<13} {metric:<26} {value:>14.6g} {unit:<13} {note}")
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, value in out.metrics.items():
            metrics[prefix + metric] = {"value": value, "unit": units[metric][0]}
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
