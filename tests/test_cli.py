"""Tests for the command-line interface."""

import pytest

from repro.cli import build_problem, build_topology, main
from repro.errors import ReproError
from repro.scenarios import UnknownNameError


class TestTopologySpecs:
    @pytest.mark.parametrize(
        "spec,depth",
        [
            ("butterfly:3", 3),
            ("mesh:4x6", 8),
            ("mesh:5", 8),  # square shorthand
            ("hypercube:4", 4),
            ("line:9", 9),
            ("omega:3", 3),
            ("fattree:3", 3),
            ("btree:3", 3),
            ("random:4x10", 10),
        ],
    )
    def test_specs_parse(self, spec, depth):
        net = build_topology(spec)
        assert net.depth == depth

    def test_unknown_topology(self):
        with pytest.raises(UnknownNameError) as excinfo:
            build_topology("torus:4")
        message = str(excinfo.value)
        assert "unknown topology 'torus'" in message
        assert "available:" in message and "butterfly" in message

    def test_typo_suggests_closest_name(self):
        with pytest.raises(UnknownNameError, match=r"did you mean 'butterfly'\?"):
            build_topology("buterfly:4")

    def test_unknown_name_is_repro_error(self):
        # main() maps ReproError to exit code 2 with the message on stderr.
        assert issubclass(UnknownNameError, ReproError)

    def test_bad_arguments(self):
        with pytest.raises(SystemExit):
            build_topology("butterfly:abc")


class TestWorkloads:
    def test_random_workload(self):
        net = build_topology("butterfly:3")
        problem = build_problem(net, "random", 6, seed=0)
        assert problem.num_packets == 6

    def test_permutation(self):
        net = build_topology("butterfly:3")
        problem = build_problem(net, "permutation", None, seed=0)
        assert problem.num_packets == 8

    def test_hotrow(self):
        net = build_topology("butterfly:3")
        problem = build_problem(net, "hotrow", 6, seed=0)
        assert len({d for _, d in ((s.source, s.destination) for s in problem)}) == 1

    def test_unknown_workload(self):
        net = build_topology("butterfly:3")
        with pytest.raises(UnknownNameError, match="unknown workload 'nope'"):
            build_problem(net, "nope", None, seed=0)


class TestCommands:
    def test_topo_command(self, capsys):
        assert main(["topo", "mesh:4x4"]) == 0
        out = capsys.readouterr().out
        assert "validation" in out and "OK" in out

    def test_params_command(self, capsys):
        assert main(["params", "4", "8", "32"]) == 0
        out = capsys.readouterr().out
        assert "practical parameters" in out
        assert "theory-exact" in out

    def test_frames_command(self, capsys):
        assert main(["frames", "4", "10", "16", "--m", "4", "--w", "8"]) == 0
        out = capsys.readouterr().out
        assert "phase |" in out

    def test_route_frontier_audited(self, capsys):
        code = main(
            [
                "route",
                "--net",
                "butterfly:3",
                "--workload",
                "random",
                "--packets",
                "6",
                "--router",
                "frontier",
                "--audit",
                "--seed",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "all invariants held" in out

    @pytest.mark.parametrize(
        "router", ["naive", "greedy", "randgreedy", "storeforward"]
    )
    def test_route_baselines(self, capsys, router):
        code = main(
            [
                "route",
                "--net",
                "butterfly:3",
                "--workload",
                "permutation",
                "--router",
                router,
                "--seed",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "ok" in out

    def test_route_unknown_router(self, capsys):
        assert main(["route", "--router", "quantum"]) == 2
        err = capsys.readouterr().err
        assert "unknown backend 'quantum'" in err
        assert "available:" in err

    def test_topo_typo_message(self, capsys):
        assert main(["topo", "buterfly:4"]) == 2
        err = capsys.readouterr().err
        assert "unknown topology 'buterfly'" in err
        assert "(did you mean 'butterfly'?)" in err

    def test_experiment_listing(self, capsys):
        assert main(["experiment"]) == 0
        out = capsys.readouterr().out
        assert "t1" in out and "a4" in out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "zz"]) == 2

    def test_experiment_runs_one(self, capsys):
        # E1 is the cheapest experiment (topology validation only).
        assert main(["experiment", "e1"]) == 0

    @pytest.mark.parametrize("router", ["naive", "greedy"])
    def test_dynamic_command(self, capsys, router):
        code = main(
            [
                "dynamic",
                "--net",
                "butterfly:3",
                "--rate",
                "0.2",
                "--horizon",
                "60",
                "--router",
                router,
                "--seed",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "drained" in out
        assert "latency" in out

    def test_dynamic_rejects_negative_drain(self, capsys):
        code = main(["dynamic", "--net", "butterfly:3", "--drain", "-500"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error: drain" in captured.err
        assert "nan" not in captured.out + captured.err

    def test_dynamic_rejects_bad_rate(self, capsys):
        # exit 1 means "ran but did not drain"; bad input is exit 2
        code = main(["dynamic", "--net", "butterfly:3", "--rate", "1.7"])
        assert code == 2
        assert "error: rate" in capsys.readouterr().err


class TestServeFlags:
    @pytest.mark.parametrize(
        "flag,value",
        [("--window", "0"), ("--steps", "0"), ("--max-in-flight", "-2")],
    )
    def test_bad_flag_rejected_before_any_output(
        self, tmp_path, capsys, flag, value
    ):
        from repro.scenarios import RunSpec, save_spec

        spec = tmp_path / "spec.json"
        save_spec(
            RunSpec(
                name="serve",
                topology="butterfly",
                topology_params={"dim": 3},
                arrival="bernoulli",
                arrival_params={"rate": 0.3},
                backend="greedy",
            ),
            spec,
        )
        code = main(["serve", "--spec", str(spec), "--steps", "20", flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag} must be >=")


class TestSpecCommands:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "butterfly_random" in out
        assert "topologies:" in out and "backends:" in out

    def test_spec_prints_json(self, capsys):
        assert main(["spec", "butterfly_random"]) == 0
        out = capsys.readouterr().out
        assert '"kind": "run_spec"' in out

    def test_spec_unknown_name(self, capsys):
        assert main(["spec", "no_such_entry"]) == 2
        assert "unknown catalog spec" in capsys.readouterr().err

    def test_spec_roundtrip_through_run(self, tmp_path, capsys):
        target = tmp_path / "spec.json"
        assert main(["spec", "butterfly_greedy", "--out", str(target)]) == 0
        assert main(["run", "--spec", str(target)]) == 0
        out = capsys.readouterr().out
        assert "GreedyHotPotatoRouter" in out and "ok" in out

    def test_run_missing_spec_file(self, tmp_path, capsys):
        assert main(["run", "--spec", str(tmp_path / "absent.json")]) == 2
        assert "spec file not found" in capsys.readouterr().err

    def test_run_with_cache(self, tmp_path, capsys):
        target = tmp_path / "spec.json"
        assert main(["spec", "butterfly_naive", "--out", str(target)]) == 0
        cache = str(tmp_path / "cache")
        args = ["run", "--spec", str(target), "--cache", "--cache-dir", cache]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "cache : hit" not in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "cache : hit" in second
        # The cached result is the same record the live run produced.
        assert first.splitlines()[-1] == second.splitlines()[-1]

    def test_sweep_rejects_zero_shard_size(self, tmp_path, capsys):
        args = ["sweep", "--net", "butterfly:3", "--trials", "3",
                "--store", str(tmp_path / "store"), "--shard-size", "0"]
        assert main(args) == 2
        assert "shard_size must be >= 1" in capsys.readouterr().err

    def test_sweep_matches_serial(self, capsys):
        # The sweep output is deterministic for fixed seeds regardless of
        # worker count.
        args = ["sweep", "--net", "butterfly:3", "--trials", "3", "--seed", "5"]
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        line = next(l for l in serial.splitlines() if l.startswith("makespan"))
        assert line in parallel
