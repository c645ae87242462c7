"""Steadiness report: is each end-to-end metric steadier than its bound?

``python3 perfbench/steadiness.py [--first-seed N]`` runs every workload
:data:`RUNS` times per set, each run with another seed counting up from
``--first-seed`` and measured for ``run_seconds`` of ``BENCHMARK.json``,
and the whole suite :data:`SETS` times.  For each workload and end-to-end
metric it prints each set's median and quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
quartile distance as a share of the median, against the metric's bound.
A metric is *unresolved* when a set's spread exceeds its bound, or when a
later set's median differs from the first set's, either way, by more than
the bound.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.metrics import END_TO_END, RUN_SECONDS  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: runs per workload in one set
RUNS = 10
#: sets of runs compared with each other
SETS = 2


def run_once(workload: str, seed: int) -> dict:
    """One ``run.py`` invocation; its final JSON line."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    return result


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median


def report(values, out=sys.stdout) -> bool:
    """Print the table; return whether every metric is resolved."""
    resolved = True
    print(f"{'workload':<13} {'metric':<12} {'set':>3} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'spread':>7} {'bound':>6}  verdict", file=out)
    for workload, sets in values.items():
        for metric, (_, _, bound) in END_TO_END.items():
            first_median = None
            for index, runs in enumerate(sets):
                q1, median, q3, share = spread([r[metric] for r in runs])
                notes = []
                if share > bound:
                    notes.append("UNRESOLVED: spread over bound")
                elif share > bound / 3:
                    notes.append("spread over a third of bound")
                if first_median is None:
                    first_median = median
                elif abs(median - first_median) / first_median > bound:
                    notes.append("UNRESOLVED: median off set 1's by over bound")
                if any(n.startswith("UNRESOLVED") for n in notes):
                    resolved = False
                print(f"{workload:<13} {metric:<12} {index + 1:>3} {median:>10.4g} "
                      f"{q1:>10.4g} {q3:>10.4g} {share:>7.3f} {bound:>6.2f}  "
                      f"{'; '.join(notes) or 'ok'}", file=out)
    return resolved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args(argv)
    values = {w: [[] for _ in range(SETS)] for w in WORKLOADS}
    seed = args.first_seed
    for set_index in range(SETS):
        for _ in range(RUNS):
            # Workloads interleave so a slow spell of the host hits all.
            for workload in WORKLOADS:
                result = run_once(workload, seed)
                row = {m: v["value"] for m, v in result["metrics"].items()}
                values[workload][set_index].append(row)
                print(f"set {set_index + 1} seed {seed} {workload}: "
                      + ", ".join(f"{m}={v:.4g}" for m, v in row.items()), flush=True)
            seed += 1
    raw = ROOT / ".perfbench_work" / "steadiness.json"
    raw.parent.mkdir(parents=True, exist_ok=True)
    raw.write_text(json.dumps(values, indent=1) + "\n", encoding="utf-8")
    resolved = report(values)
    print("all metrics resolved" if resolved else "some metrics are UNRESOLVED")
    return 0 if resolved else 1


if __name__ == "__main__":
    sys.exit(main())
