"""End-to-end and per-layer benchmark of the ``repro`` command line.

``python3 perfbench/run.py`` drives three workloads through the
user-facing CLI (``python -m repro sweep`` and ``python -m repro serve``)
from process start and prints every end-to-end metric by name and unit;
``--trace 1`` instead runs each workload once more inside one traced
process and reports the per-layer breakdown.  ``predictions.json`` names
which layer should move which end-to-end metric on which workload.
"""
