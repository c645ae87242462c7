"""Names, units and directions of every metric the benchmark reports.

They are read from ``BENCHMARK.json`` at the repository root, the one
place they are written down.  End-to-end metrics are reported on every
workload and never read 0:

* ``setup_s``: spawn-to-exit of the command on a one-unit input, median
  of samples, at reference host speed (see ``measure.probe``);
* ``work_per_s``: trials (sweeps) or simulated steps (serve) per second of
  wall time, spawn to exit of the full command, median of samples, at
  reference host speed;
* ``peak_rss_mb``: peak resident set of the command's process tree, summed
  over the command and its pool workers (see ``measure.TreePeakRss``).

The 2-vCPU host the benchmark was tuned on drifts in speed by up to 40%
over minutes, so both timed metrics are scaled to the reference host speed
and their bounds sit at 0.25.  Per-layer metrics come from the traced run;
a layer that a workload never calls reads 0 there.
"""

from __future__ import annotations

import json
import pathlib
import re

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

SPEC = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(
        encoding="utf-8"
    )
)

#: name -> (unit, better, bound as a share of the parent's median)
END_TO_END = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]}

#: name -> (unit, better)
PER_LAYER = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}

#: seconds one run measures
RUN_SECONDS = SPEC["run_seconds"]
