"""Command-line frontend: config handling, outputs, determinism, and
exit codes."""

import dataclasses
import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from aoi_lab import cli, simulate
from aoi_lab.cli import (
    EXIT_ACCEPTANCE,
    EXIT_CALIBRATION,
    EXIT_EVALUATION,
    EXIT_OK,
    EXIT_PARTIAL_SWEEP,
    EXIT_USAGE,
    GridRange,
    RunConfig,
    UsageError,
    load_config,
    main,
)
from aoi_lab.links import calibrate_kappa
from aoi_lab.orthant import QuadratureSpec

BASE_CONFIG = {
    "link": {"kind": "shifted-lognormal", "x_min": 0.5, "mu": 1.0, "s": 0.75},
    "correlation": {"mode": "ou", "c": 10.0},
    "tau": 2.0,
    "t_grid": {"start": 1.0, "stop": 7.0, "step": 2.0},
    "x_grid": {"start": 0.0, "stop": 4.0, "step": 0.2},
    "delta": 0.2,
    "simulation": {"n_paths": 2000, "seed": 7, "n_saved_paths": 3},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return str(path)


class TestGridRange:
    def test_inclusive_endpoint(self):
        assert np.allclose(GridRange(0.0, 1.0, 0.25).values(), [0, 0.25, 0.5, 0.75, 1.0])

    def test_endpoint_within_half_step(self):
        # 0..0.3 step 0.1 must include 0.3 despite float residue.
        values = GridRange(0.0, 0.3, 0.1).values()
        assert values.size == 4
        assert values[-1] == pytest.approx(0.3)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(UsageError):
            GridRange(0.0, 1.0, 0.0)

    def test_rejects_too_many_points_before_building(self):
        # Checked on the count alone: no grid this large is ever allocated.
        assert GridRange(0.0, 999_999.0, 1.0).size == 10**6
        with pytest.raises(UsageError, match=r"grid has 1000001 points, over the limit of 1000000"):
            GridRange(0.0, 1_000_000.0, 1.0)
        with pytest.raises(UsageError, match=r"grid has 2e\+300 points"):
            GridRange(0.0, 1e300, 0.5)
        with pytest.raises(UsageError, match=r"grid has inf points"):
            GridRange(-1e308, 1e308, 1.0)


class TestRunConfig:
    def test_roundtrip_through_dict(self):
        cfg = RunConfig.from_dict(BASE_CONFIG)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_requires_exactly_one_marginal_spec(self):
        bad = json.loads(json.dumps(BASE_CONFIG))
        bad["link"].update({"mu_hat": 0.1, "s_hat": 1.0})
        with pytest.raises(UsageError):
            RunConfig.from_dict(bad)
        del bad["link"]["mu"], bad["link"]["s"]
        RunConfig.from_dict(bad)  # direct parameters alone are fine

    def test_ou_requires_exactly_one_rate_spec(self):
        bad = json.loads(json.dumps(BASE_CONFIG))
        bad["correlation"]["kappa"] = 0.1
        with pytest.raises(UsageError):
            RunConfig.from_dict(bad)

    def test_degenerate_modes_take_no_kappa(self):
        bad = json.loads(json.dumps(BASE_CONFIG))
        bad["correlation"] = {"mode": "iid", "kappa": 0.1}
        with pytest.raises(UsageError):
            RunConfig.from_dict(bad)

    def test_quadrature_rule_key(self):
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc["quadrature"] = {"m": 64, "rule": "gauss-legendre"}
        assert RunConfig.from_dict(doc).quadrature().m == 64
        doc["quadrature"]["rule"] = "trapezoid"
        with pytest.raises(UsageError):
            RunConfig.from_dict(doc)

    def test_fixed_quadrature_keys(self):
        # The rule and the truncation half-width are accepted at their one
        # value, and the dict form echoes L.
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc["quadrature"] = {"m": 64, "L": 8, "rule": "gauss-legendre"}
        cfg = RunConfig.from_dict(doc)
        assert cfg.quadrature() == QuadratureSpec(m=64)
        assert cfg.to_dict()["quadrature"] == {"m": 64, "L": 8.0}
        for key, value in [("rule", "trapezoid"), ("L", 5.0), ("L", "8")]:
            bad = json.loads(json.dumps(doc))
            bad["quadrature"][key] = value
            with pytest.raises(UsageError, match=rf"'quadrature.{key}' must be"):
                RunConfig.from_dict(bad)

    def test_every_field_has_one_config_key(self):
        names = [name for name, _ in cli._CONFIG_KEYS.values()]
        assert sorted(names) == sorted(f.name for f in dataclasses.fields(RunConfig))

    def test_readme_example_config_parses(self):
        readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
        block = readme.split("Example config:", 1)[1].split("```json", 1)[1].split("```", 1)[0]
        doc = json.loads(block)
        cfg = RunConfig.from_dict(doc)
        assert cfg.quad_m == 400 and cfg.n_paths == 100000 and cfg.c == 10.0
        # Every key is in the example or named in the text.
        named = {key for key, _ in cli._leaves(doc)} | set(re.findall(r"`([\w.]+)`", readme))
        assert set(cli._CONFIG_KEYS) <= named

    def test_model_construction_calibrates(self):
        model = RunConfig.from_dict(BASE_CONFIG).model()
        assert model.link.mu_hat == pytest.approx(-1.2824746787307684, rel=1e-10)
        assert model.correlation.kappa == pytest.approx(0.06700892, rel=1e-6)


class TestOverrides:
    def test_set_overrides_nested_keys(self, config_path, tmp_path):
        class Args:
            config = config_path
            set = ["tau=1.5", "correlation.c=5"]
            out = str(tmp_path / "o")
            seed = 99
            threads = None

        cfg = load_config(Args)
        assert cfg.tau == 1.5 and cfg.c == 5 and cfg.seed == 99

    def test_set_parses_inf(self, config_path, tmp_path):
        class Args:
            config = config_path
            set = ["correlation.mode=frozen", "correlation.c=inf"]
            out = None
            seed = None
            threads = None

        cfg = load_config(Args)
        assert cfg.mode == "frozen" and math.isinf(cfg.c)

    def test_env_var_sets_threads(self, config_path, monkeypatch):
        monkeypatch.setenv("AOI_LAB_THREADS", "6")

        class Args:
            config = config_path
            set = None
            out = None
            seed = None
            threads = None

        assert load_config(Args).threads == 6

    def test_flag_beats_env_var(self, config_path, monkeypatch):
        monkeypatch.setenv("AOI_LAB_THREADS", "6")

        class Args:
            config = config_path
            set = None
            out = None
            seed = None
            threads = 2

        assert load_config(Args).threads == 2

    def test_integer_keys_accept_integral_floats(self, config_path):
        class Args:
            config = config_path
            set = ["quadrature.m=64.0", "simulation.n_paths=1e3"]
            out = None
            seed = None
            threads = None

        cfg = load_config(Args)
        assert (cfg.quad_m, cfg.n_paths) == (64, 1000)
        assert type(cfg.quad_m) is int and type(cfg.n_paths) is int


class TestCommands:
    def test_calibrate_writes_report(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "cal")
        assert main(["calibrate", "--config", config_path, "--out", out]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["mu_hat"] == pytest.approx(-1.2824746787307684, rel=1e-10)
        assert report["kappa"] == pytest.approx(0.06700892, rel=1e-6)
        assert abs(report["mean_residual"]) < 1e-12
        assert os.path.exists(os.path.join(out, "calibration.json"))

    def test_exact_writes_all_artifacts(self, config_path, tmp_path):
        out = tmp_path / "exact"
        assert main(["exact", "--config", config_path, "--out", str(out)]) == EXIT_OK
        for name in ("ccdf.csv", "heatmap.csv", "timeavg.csv", "percentiles.csv",
                     "meta.json"):
            assert (out / name).exists(), name
        lines = (out / "ccdf.csv").read_text().strip().split("\n")
        assert lines[0] == "t,x,ccdf"
        # 4 t-values x 21 x-values, row-major.
        assert len(lines) == 1 + 4 * 21
        meta = json.loads((out / "meta.json").read_text())
        assert RunConfig.from_dict(meta["config"]) == RunConfig.from_dict(
            json.load(open(config_path)) | {"out": str(out)}
        )

    @pytest.mark.parametrize("c,nodes", [("10", 100), ("0", None), ("inf", None)])
    def test_meta_records_nodes_per_stage(self, config_path, tmp_path, c, nodes):
        # At README's rho = 0.8746 a full-span stage [-8, 8] spans 28.9
        # kernel widths: 87 nodes, 5 panels.  The closed forms of rho 0 and
        # 1 run no chain.
        for threads in (1, 2, 4):
            out = tmp_path / f"t{threads}"
            assert main(["exact", "--config", config_path, "--out", str(out),
                         "--threads", str(threads),
                         "--set", f"correlation.c={c}"]) == EXIT_OK
            meta = json.loads((out / "meta.json").read_text())
            assert meta["quadrature"] == {"m": 400, "L": 8.0, "nodes_per_stage": nodes}

    def test_simulate_is_deterministic(self, config_path, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        for out in (out1, out2):
            assert main(["simulate", "--config", config_path, "--out", str(out)]) == EXIT_OK
        assert (out1 / "empirical_ccdf.csv").read_bytes() == (
            out2 / "empirical_ccdf.csv"
        ).read_bytes()
        assert (out1 / "paths.csv").read_text().startswith("path,t,age\n")

    def test_simulate_draws_once(self, config_path, tmp_path, monkeypatch):
        # A budget of 1200 floats: chunks of 300 paths of 4 packets, with
        # paths.csv's 700 paths spanning three.
        monkeypatch.setattr(simulate, "_CHUNK_FLOATS", 1200)
        sample_driver, calls = simulate.sample_driver, []

        def counted(*args, **kwargs):
            calls.append(args)
            return sample_driver(*args, **kwargs)

        monkeypatch.setattr(simulate, "sample_driver", counted)
        out = tmp_path / "once"
        assert main(["simulate", "--config", config_path, "--out", str(out),
                     "--set", "simulation.n_saved_paths=700"]) == EXIT_OK
        assert len(calls) == math.ceil(BASE_CONFIG["simulation"]["n_paths"] / 300)
        lines = (out / "paths.csv").read_text().splitlines()
        assert len(lines) == 1 + 700 * 4
        assert lines[-1].startswith("699,7,")

    def test_simulate_saves_no_paths(self, config_path, tmp_path):
        out = tmp_path / "none"
        assert main(["simulate", "--config", config_path, "--out", str(out),
                     "--set", "simulation.n_saved_paths=0"]) == EXIT_OK
        assert (out / "paths.csv").read_text() == "path,t,age\n"
        assert (out / "empirical_ccdf.csv").exists()

    def test_exact_is_thread_invariant(self, config_path, tmp_path):
        outs = []
        for threads in ("1", "3"):
            out = tmp_path / f"t{threads}"
            assert main(
                ["exact", "--config", config_path, "--out", str(out),
                 "--threads", threads]
            ) == EXIT_OK
            outs.append((out / "ccdf.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_exact_over_the_node_budget_names_the_phase(self, config_path, tmp_path, capsys):
        # At rho = 1 - 2e-16 no full-span stage fits the node budget; the
        # first live phase's chain reports the failure.
        code = main(["exact", "--config", config_path, "--out", str(tmp_path / "o"),
                     "--set", "correlation.c=null", "--set", "correlation.kappa=1e-16"])
        assert code == EXIT_EVALUATION
        assert re.search(r"evaluation failed: phase phi=\S+: rho=0\.99", capsys.readouterr().err)

    def test_exact_readme_peak(self, tmp_path):
        # The README config at two threads: the time average's 36 phases
        # run in one batch, whose stage kernels (36 x 100 x 100 floats,
        # 2.9 MB, if built whole) are built in runs of rows within the
        # chain's 512 kB work array.  The peak of a second run in one
        # process (1.8 MB, set by the CSV writers) stays under 2 MB.
        readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
        block = readme.split("Example config:", 1)[1].split("```json", 1)[1].split("```", 1)[0]
        config = tmp_path / "readme.json"
        config.write_text(block)
        argv = ["exact", "--config", str(config), "--out", str(tmp_path / "out"),
                "--threads", "2"]
        assert main(argv) == EXIT_OK
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.0e6

    def test_sweep_is_thread_invariant(self, config_path, tmp_path):
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            assert main(
                ["sweep", "--config", config_path, "--out", str(out),
                 "--param", "c=0.1,10", "--param", "tau=0.5,2.0",
                 "--set", "quadrature.m=64", "--threads", threads]
            ) == EXIT_OK
            outs.append((out / "percentiles.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_compare_passes_on_consistent_model(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "cmp")
        code = main(["compare", "--config", config_path, "--out", out,
                     "--set", "simulation.n_paths=20000"])
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK, report
        assert report["z_fraction_within_3"] >= 0.99
        assert all(step["passed"] for step in report["dominance"])

    @pytest.mark.parametrize("mode,calls", [("ou", 5), ("iid", 2), ("frozen", 2)])
    def test_compare_computes_each_ladder_grid_once(self, config_path, tmp_path,
                                                    monkeypatch, mode, calls):
        # The run's own model is a ladder rung, so its grid serves both the
        # z-test and the dominance check, and one call computes every
        # rung's grid, each once.
        real, seen = cli.exact_ccdf_grid, []

        def counted(models, *args, **kwargs):
            seen.append([m.correlation for m in models])
            return real(models, *args, **kwargs)

        monkeypatch.setattr(cli, "exact_ccdf_grid", counted)
        main(["compare", "--config", config_path, "--out", str(tmp_path / "c"),
              "--set", f"correlation.mode={mode}", "--set", "simulation.n_paths=200"])
        assert len(seen) == 1
        ladder = RunConfig.from_dict(
            {**BASE_CONFIG, "correlation": {"mode": mode, **({"c": 10.0} if mode == "ou" else {})}}
        ).model().correlation.ladder()
        assert len(ladder) == calls
        assert seen[0] == [corr for _, corr in ladder]

    def test_sweep_writes_rows_and_routes_limits(self, config_path, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            ["sweep", "--config", config_path, "--out", str(out),
             "--param", "c=0,10,inf", "--set", "quadrature.m=128"]
        )
        assert code == EXIT_OK
        lines = (out / "percentiles.csv").read_text().strip().split("\n")
        assert lines[0] == "link,c,tau,s,p10,p25,p50,p75,p90"
        assert len(lines) == 4
        assert lines[1].split(",")[1] == "0"
        assert lines[3].split(",")[1] == "inf"

    def test_sweep_partial_failure_exit_code(self, config_path, tmp_path, capsys):
        out = tmp_path / "sweep_fail"
        code = main(
            ["sweep", "--config", config_path, "--out", str(out),
             "--param", "c=-1,10", "--set", "quadrature.m=128"]
        )
        assert code == EXIT_PARTIAL_SWEEP
        meta = json.loads((out / "meta.json").read_text())
        assert len(meta["failures"]) == 1
        assert meta["failures"][0]["type"] == "CalibrationError"
        assert "CalibrationError" in capsys.readouterr().err
        # The good row is still produced.
        assert len((out / "percentiles.csv").read_text().strip().split("\n")) == 2

    def test_sweep_propagates_unexpected_errors(self, config_path, tmp_path,
                                                monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bug inside a row")

        monkeypatch.setattr(cli, "percentiles", broken)
        with pytest.raises(TypeError):
            main(["sweep", "--config", config_path, "--out", str(tmp_path / "s"),
                  "--param", "c=10"])

    def test_sweep_rejects_repeated_param(self, config_path, tmp_path, capsys):
        out = tmp_path / "sweep_twice"
        code = main(["sweep", "--config", config_path, "--out", str(out),
                     "--param", "c=0,1", "--param", "c=10"])
        assert code == EXIT_USAGE
        assert "'c'" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_accepts_kappa_config(self, tmp_path):
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc["correlation"] = {"mode": "ou", "kappa": 0.067}
        path = tmp_path / "kappa.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "sweep_kappa"
        code = main(
            ["sweep", "--config", str(path), "--out", str(out),
             "--param", "tau=0.5,2.0", "--set", "quadrature.m=128"]
        )
        assert code == EXIT_OK
        assert len((out / "percentiles.csv").read_text().strip().split("\n")) == 3

    @pytest.mark.parametrize("command", [["exact"], ["sweep", "--param", "tau=2.0"]],
                             ids=["exact", "sweep"])
    def test_kappa_config_reports_its_time_constant(self, config_path, tmp_path,
                                                     command):
        # The c column holds the time constant the rate implies, so a rate
        # calibrated from c = 10 reads back 10.
        kappa = calibrate_kappa(RunConfig.from_dict(BASE_CONFIG).model().link, 10.0)
        out = tmp_path / command[0]
        assert main(command + ["--config", config_path, "--out", str(out),
                               "--set", "quadrature.m=128",
                               "--set", "correlation.c=null",
                               "--set", f"correlation.kappa={kappa!r}"]) == EXIT_OK
        lines = (out / "percentiles.csv").read_text().strip().split("\n")
        assert lines[0].startswith("link,c,tau,s,")
        assert lines[1].split(",")[1] == "10"

    @pytest.mark.parametrize("c,mode", [("0", "iid"), ("inf", "frozen")])
    def test_exact_routes_degenerate_time_constants(self, config_path, tmp_path,
                                                    c, mode):
        # c = 0 and c = inf are the iid and frozen limits in every command.
        routed, direct = tmp_path / "routed", tmp_path / "direct"
        assert main(["exact", "--config", config_path, "--out", str(routed),
                     "--set", f"correlation.c={c}"]) == EXIT_OK
        assert main(["exact", "--config", config_path, "--out", str(direct),
                     "--set", f"correlation.mode={mode}"]) == EXIT_OK
        for name in ("ccdf.csv", "heatmap.csv", "timeavg.csv", "percentiles.csv"):
            assert (routed / name).read_bytes() == (direct / name).read_bytes(), name

    @pytest.mark.parametrize(
        "rate,limit",
        [(["correlation.c=1e-3"], "0"),
         (["correlation.c=null", "correlation.kappa=1e-20"], "inf")],
        ids=["rho-underflows-to-0", "rho-rounds-to-1"],
    )
    def test_exact_takes_the_limit_its_rho_rounds_to(self, config_path, tmp_path,
                                                       rate, limit):
        # An ou rate whose one-step correlation rounds to 0 or 1 is that
        # limit: only the c column of percentiles.csv differs.
        ou, routed = tmp_path / "ou", tmp_path / "routed"
        short = ["--config", config_path, "--set", "quadrature.m=64"]
        sets = [arg for key in rate for arg in ("--set", key)]
        assert main(["exact", *short, "--out", str(ou), *sets]) == EXIT_OK
        assert main(["exact", *short, "--out", str(routed),
                     "--set", f"correlation.c={limit}"]) == EXIT_OK
        for name in ("ccdf.csv", "heatmap.csv", "timeavg.csv"):
            assert (ou / name).read_bytes() == (routed / name).read_bytes(), name

        def without_c(out):
            rows = (out / "percentiles.csv").read_text().splitlines()
            return [row.split(",")[:1] + row.split(",")[2:] for row in rows]

        assert without_c(ou) == without_c(routed)


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_config_file_is_usage_error(self):
        assert main(["exact", "--config", "/nonexistent/cfg.json"]) == EXIT_USAGE

    def test_conflicting_config_is_usage_error(self, config_path):
        assert main(
            ["exact", "--config", config_path, "--set", "correlation.kappa=0.1"]
        ) == EXIT_USAGE

    @pytest.mark.parametrize(
        "override,key",
        [
            ("corelation.c=1", "corelation.c"),
            ("quadrature.mm=5", "quadrature.mm"),
            ("quadrature=5", "quadrature"),
            ("x_grid.step=0.5", "x_grid"),
            ("quadrature.m=64.7", "quadrature.m"),
            ("threads=true", "threads"),
            ("simulation.n_paths=0", "simulation.n_paths"),
            ("simulation.n_saved_paths=-1", "simulation.n_saved_paths"),
            ("threads=0", "threads"),
            ("--threads=-2", "threads"),
            ("AOI_LAB_THREADS=0", "threads"),
            ("quadrature.m=0", "quadrature.m"),
            ("quadrature.L=2", "quadrature.L"),
            ("quadrature.L=5", "quadrature.L"),
            ("quadrature.L=1e300", "quadrature.L"),
            ("quadrature.L=inf", "quadrature.L"),
            ("t_grid.stop=inf", "t_grid"),
            ("t_grid.start=nan", "t_grid"),
            ("t_grid.step=-1", "t_grid"),
            ('x_grid={"start": 0, "stop": Infinity, "step": 0.5}', "x_grid"),
            ('x_grid={"start": NaN, "stop": 4, "step": 0.5}', "x_grid"),
            ("t_grid.stop=1e300", "t_grid"),
            ('x_grid={"start": 0, "stop": 1e300, "step": 0.5}', "x_grid"),
            ("AOI_LAB_THREADS=abc", "AOI_LAB_THREADS"),
            ("AOI_LAB_THREADS=1.5", "AOI_LAB_THREADS"),
        ],
    )
    def test_bad_config_key_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                           override, key):
        # A --set override, unless it is a flag or the threads variable.
        doc = json.loads(json.dumps(BASE_CONFIG))
        del doc["x_grid"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        name, _, value = override.partition("=")
        extra = ["--set", override]
        if name.startswith("--"):
            extra = [override]
        elif name == "AOI_LAB_THREADS":
            monkeypatch.setenv(name, value)
            extra = []
        # Counts and quadrature are checked before any model is built.
        monkeypatch.setattr(RunConfig, "model", None)
        code = main(["exact", "--config", str(path), "--out", str(tmp_path / "o"),
                     *extra])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("aoi-lab: usage error: ") and repr(key) in err
        assert "Traceback" not in err

    DIRECT = ["link.mu=null", "link.s=null"]

    @pytest.mark.parametrize(
        "overrides,code,key",
        [
            (DIRECT + ["link.mu_hat=0", "link.s_hat=30"], EXIT_USAGE, "link.s_hat"),
            (DIRECT + ["link.mu_hat=400", "link.s_hat=0.5"], EXIT_USAGE, "link.mu_hat"),
            (DIRECT + ["link.kind=censored-normal", "link.mu_hat=0", "link.s_hat=1e200"],
             EXIT_USAGE, "link.s_hat"),
            (DIRECT + ["link.mu_hat=0", "link.s_hat=200", "correlation.c=null",
                       "correlation.kappa=0.05"], EXIT_USAGE, "link.s_hat"),
            (["link.s=1e200"], EXIT_CALIBRATION, "link.s"),
            (["link.mu=10.5", "link.s=1.4e154"], EXIT_CALIBRATION, "link.s"),
        ],
        ids=["s_hat", "mu_hat", "censored-s_hat", "kappa-s_hat", "target-s", "target-variance"],
    )
    @pytest.mark.parametrize("command", ["exact", "simulate", "compare"])
    def test_link_whose_moments_overflow_names_its_key(self, config_path, tmp_path, capsys,
                                                        command, overrides, code, key):
        sets = [arg for item in overrides for arg in ("--set", item)]
        got = main([command, "--config", config_path, "--out", str(tmp_path / "o"), *sets])
        err = capsys.readouterr().err
        assert got == code
        assert key + "=" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("delta", ["inf", "nan"])
    def test_non_finite_delta_names_its_key(self, config_path, tmp_path, capsys, delta):
        got = main(["exact", "--config", config_path, "--out", str(tmp_path / "o"),
                    "--set", f"delta={delta}"])
        err = capsys.readouterr().err
        assert got == EXIT_USAGE
        assert "delta" in err
        assert "Traceback" not in err

    def test_bad_age_names_itself(self, config_path, tmp_path, capsys):
        # Not the whole x grid.
        got = main(["exact", "--config", config_path, "--out", str(tmp_path / "o"),
                    "--set", "x_grid.start=-1"])
        err = capsys.readouterr().err
        assert got == EXIT_USAGE
        assert "-1" in err and len(err.encode()) < 200
        assert "Traceback" not in err

    def test_non_object_config_is_usage_error(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["exact", "--config", str(path)]) == EXIT_USAGE

    def test_infeasible_target_is_calibration_error(self, config_path):
        assert main(
            ["calibrate", "--config", config_path, "--set", "link.s=0"]
        ) == EXIT_CALIBRATION

    def test_calibrate_without_targets_is_calibration_error(self, tmp_path):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["link"] = {"kind": "shifted-lognormal", "x_min": 0.5,
                       "mu_hat": -1.28, "s_hat": 1.09}
        cfg["correlation"] = {"mode": "ou", "kappa": 0.067}
        path = tmp_path / "direct.json"
        path.write_text(json.dumps(cfg))
        assert main(["calibrate", "--config", str(path)]) == EXIT_CALIBRATION
