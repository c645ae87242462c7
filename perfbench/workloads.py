"""The benchmark's workloads and the seeded generator of their input files.

Every input is a pure function of the ``--seed`` argument: the program
under test only ever receives the manifest or spec file written here.
Each workload also has a *unit* input (a one-trial manifest of the same
scenario, or the same spec run for one step) whose spawn-to-exit time is
the ``setup_s`` metric: interpreter start, imports, input parse, scenario
build and store initialisation, with almost no work behind them.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import List

#: deep_random(L=20, w=6, N=12): the trial-bench scenario family.
DEEP_RANDOM = {"depth": 20, "width": 6, "num_packets": 12}

SWEEP_WORKERS = 2
SERVE_WINDOW = 50
SERVE_DIM = 5
SERVE_RATE = 0.3


@dataclass(frozen=True)
class Workload:
    """One named workload and what it runs (``BENCHMARK.json`` says why)."""

    name: str
    kind: str  # "sweep" | "serve"
    #: trials per manifest (sweeps) or simulated steps per session (serve)
    size: int
    pin: bool = True
    shard_size: int = 512

    @property
    def work_unit(self) -> str:
        return "trials" if self.kind == "sweep" else "steps"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep_fixed",
            kind="sweep",
            size=1024,
            pin=True,
            shard_size=256,
        ),
        Workload(
            name="sweep_varied",
            kind="sweep",
            size=64,
            pin=False,
            shard_size=32,
        ),
        Workload(
            name="serve_stream",
            kind="serve",
            size=500,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Generated input files of one workload."""

    full: pathlib.Path
    unit: pathlib.Path
    #: units of work in the full input (trials or simulated steps)
    size: int


#: Scenario seed of the fixed-problem sweep: the catalog's ``deep_random``
#: instance.  Instances of this family differ in trial cost by about 4x,
#: so a per-seed instance would measure the instance, not the code; the
#: benchmark seed picks the routing coins instead.
FIXED_INSTANCE_SEED = 0


def _base_spec(workload: Workload, seed: int):
    if workload.kind == "sweep":
        from repro.experiments import deep_random_spec

        return deep_random_spec(
            DEEP_RANDOM["depth"],
            DEEP_RANDOM["width"],
            DEEP_RANDOM["num_packets"],
            seed=FIXED_INSTANCE_SEED if workload.pin else seed,
        )
    from repro.scenarios import RunSpec

    return RunSpec(
        name="serve_stream",
        topology="butterfly",
        topology_params={"dim": SERVE_DIM},
        arrival="bernoulli",
        arrival_params={"rate": SERVE_RATE},
        backend="greedy",
        seed=seed,
    )


def input_paths(workload: Workload, out_dir: pathlib.Path) -> Inputs:
    """Where :func:`generate` writes the workload's inputs in ``out_dir``."""
    out_dir = pathlib.Path(out_dir)
    if workload.kind == "sweep":
        full, unit = out_dir / "manifest.json", out_dir / "manifest-unit.json"
    else:
        full = unit = out_dir / "spec.json"
    return Inputs(full=full, unit=unit, size=workload.size)


def generate(workload: Workload, seed: int, out_dir: pathlib.Path) -> Inputs:
    """Write the workload's full and unit input files for ``seed``."""
    inputs = input_paths(workload, out_dir)
    inputs.full.parent.mkdir(parents=True, exist_ok=True)
    base = _base_spec(workload, int(seed))
    if workload.kind == "sweep":
        from repro.sweeps import SweepManifest, save_manifest

        for path, trials in ((inputs.full, workload.size), (inputs.unit, 1)):
            manifest = SweepManifest.from_base(
                base,
                num_trials=trials,
                shard_size=workload.shard_size,
                base_seed=int(seed),
                pin=workload.pin,
            )
            save_manifest(manifest, path)
    else:
        from repro.scenarios import save_spec

        save_spec(base, inputs.full)
    return inputs


def full_argv(workload: Workload, inputs: Inputs, store: pathlib.Path) -> List[str]:
    """``repro`` arguments of one full run (``store`` unused by serve)."""
    return _argv(workload, inputs.full, store, workload.size)


def unit_argv(workload: Workload, inputs: Inputs, store: pathlib.Path) -> List[str]:
    """``repro`` arguments of the one-unit set-up run."""
    return _argv(workload, inputs.unit, store, 1)


def _argv(workload: Workload, path, store, size: int) -> List[str]:
    if workload.kind == "sweep":
        return [
            "sweep",
            "--manifest", str(path),
            "--store", str(store),
            "--workers", str(SWEEP_WORKERS),
        ]
    return [
        "serve",
        "--spec", str(path),
        "--window", str(SERVE_WINDOW),
        "--steps", str(size),
        "--router", "greedy",
    ]


def serial_argv(workload: Workload, inputs: Inputs, store: pathlib.Path) -> List[str]:
    """The full run with serial dispatch (the traced in-process form)."""
    argv = full_argv(workload, inputs, store)
    if workload.kind == "sweep":
        argv[argv.index("--workers") + 1] = "1"
    return argv


def main(argv=None) -> int:
    """``python -m perfbench.workloads --workload W --out DIR --seed S...``:
    write the inputs of each seed ``S`` into ``DIR/S/``."""
    import argparse

    parser = argparse.ArgumentParser(description=main.__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--out", required=True, type=pathlib.Path)
    parser.add_argument("--seed", required=True, type=int, action="append")
    args = parser.parse_args(argv)
    for seed in args.seed:
        generate(WORKLOADS[args.workload], seed, args.out / str(seed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
