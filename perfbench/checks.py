"""Output checks: the benchmark only counts work whose output is right.

Sweeps: a seeded sample of trials is re-run through the per-trial path
(``TrialExecutor(lockstep=False)``) and each encoded record must equal
the store's record at the same index byte for byte; the aggregate must
show every trial fully delivered.  Serve: the summary must balance
(``arrivals == admitted + dropped``), slot recycling must hold
(``packet_slots == peak_in_flight``), and one window line must appear per
``--window`` steps.
"""

from __future__ import annotations

import gzip
import json
import pathlib
import random
from typing import List, Optional, Tuple

#: trials re-run through the per-trial path per checked sweep store
RECHECK_TRIALS = 8


def sweep_output(store: pathlib.Path) -> Tuple[bytes, Optional[dict]]:
    """(compacted segment bytes, aggregate dict) of a finished store."""
    found = sorted(pathlib.Path(store).glob("*/sweep.jsonl.gz"))
    if len(found) != 1:
        return b"", None
    aggregate_path = found[0].parent / "aggregate.json"
    aggregate = (
        json.loads(aggregate_path.read_text(encoding="utf-8"))
        if aggregate_path.exists()
        else None
    )
    return found[0].read_bytes(), aggregate


def record_lines(compacted: bytes) -> List[bytes]:
    """The store's record lines, newline included, in trial order."""
    return gzip.decompress(compacted).splitlines(keepends=True)


def check_sweep_store(
    compacted: bytes, aggregate: Optional[dict], trials: int
) -> Tuple[int, List[str]]:
    """(failed trials, problems) from a store's aggregate and records."""
    if not compacted or aggregate is None:
        return trials, ["store has no compacted output or aggregate"]
    problems = []
    lines = record_lines(compacted)
    if len(lines) != trials or aggregate.get("trials") != trials:
        problems.append(
            f"expected {trials} records, store has {len(lines)} "
            f"(aggregate trials={aggregate.get('trials')})"
        )
        return trials, problems
    undelivered = trials - int(aggregate.get("delivered_all", 0))
    if undelivered:
        problems.append(f"{undelivered}/{trials} trials not fully delivered")
    return undelivered, problems


def recheck_trials(
    manifest_path: pathlib.Path, lines: List[bytes], seed: int,
    count: int = RECHECK_TRIALS,
) -> Tuple[int, List[str]]:
    """Re-run a seeded sample per trial; (mismatches, problems)."""
    from repro.experiments.batch import TrialExecutor
    from repro.sweeps import load_manifest
    from repro.sweeps.store import encode_record

    manifest = load_manifest(manifest_path)
    picks = sorted(
        random.Random(seed).sample(
            range(manifest.num_trials), min(count, manifest.num_trials)
        )
    )
    executor = TrialExecutor(lockstep=False)
    problems = []
    for index in picks:
        spec = manifest.spec_for(index)
        record = executor.run(spec)
        line = encode_record(index, spec.seed, spec.content_hash(), record.result)
        if index >= len(lines) or lines[index] != line:
            problems.append(f"trial {index}: store record differs from per-trial re-run")
    return len(problems), problems


def parse_serve(stdout: bytes) -> Tuple[Optional[dict], List[dict], Optional[dict]]:
    """(serve_header, metrics_window records, serve_summary) of a session."""
    header = summary = None
    windows = []
    for line in stdout.splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        kind = record.get("kind")
        if kind == "serve_header":
            header = record
        elif kind == "metrics_window":
            windows.append(record)
        elif kind == "serve_summary":
            summary = record
    return header, windows, summary


def check_serve(stdout: bytes, steps: int, window: int) -> Tuple[int, int, List[str]]:
    """(arrivals, failed arrivals, problems) of one serve session."""
    try:
        header, windows, summary = parse_serve(stdout)
    except json.JSONDecodeError as exc:
        return 0, 0, [f"serve output is not JSONL: {exc}"]
    if header is None or summary is None or "error" in summary:
        return 0, 0, [f"serve session incomplete: summary={summary}"]
    arrivals = int(summary["arrivals"])
    problems = []
    if arrivals != summary["admitted"] + summary["dropped"]:
        problems.append("arrivals != admitted + dropped")
    if summary["packet_slots"] != summary["peak_in_flight"]:
        problems.append("packet_slots != peak_in_flight")
    expected_windows = -(-int(summary["steps"]) // window)
    if not (summary["windows"] == len(windows) == expected_windows):
        problems.append(
            f"window count: summary {summary['windows']}, lines "
            f"{len(windows)}, expected {expected_windows}"
        )
    if summary["steps"] != steps:
        problems.append(f"ran {summary['steps']} of {steps} steps")
    failed = arrivals if problems else int(summary["dropped"])
    return arrivals, failed, problems


def makespan_ratio_mean(lines: List[bytes]) -> float:
    """Mean makespan / (C+D) over a store's record lines."""
    results = [json.loads(line)["result"] for line in lines]
    return sum(
        r["makespan"] / max(1, r["congestion"] + r["dilation"]) for r in results
    ) / len(results)


def main(argv=None) -> int:
    """``python -m perfbench.checks --seed N --store MANIFEST STORE ...``:
    re-run a seeded sample of each store's trials per trial; print JSON."""
    import argparse

    parser = argparse.ArgumentParser(description=main.__doc__.splitlines()[0])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--store", required=True, nargs=2, action="append",
                        type=pathlib.Path, metavar=("MANIFEST", "STORE"))
    args = parser.parse_args(argv)
    stores = []
    for manifest, store in args.store:
        lines = record_lines(sweep_output(store)[0])
        mismatches, problems = recheck_trials(manifest, lines, args.seed)
        stores.append({
            "checked": min(RECHECK_TRIALS, len(lines)),
            "mismatches": mismatches,
            "problems": problems,
            "makespan_ratio_mean": makespan_ratio_mean(lines),
        })
    print(json.dumps(stores))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
