"""Public names and the hook points that outside tooling wraps.

The benchmark's traced run (bench/child.py) replaces these attributes at
the module where each is looked up, so renaming or moving one silently
drops its layer from the trace.  bench/make_reference.py imports the rest.
"""

import inspect
import json
import os
import subprocess
import sys

import pytest

import aoi_lab
from aoi_lab import cli, core, links, orthant, outputs, simulate


def test_every_exported_name_resolves():
    missing = [name for name in aoi_lab.__all__ if not hasattr(aoi_lab, name)]
    assert missing == []


@pytest.mark.parametrize(
    "owner,attr",
    [
        (cli, "calibrate_marginal"),
        (cli, "calibrate_kappa"),
        (cli, "exact_ccdf_grid"),
        (cli, "heatmap"),
        (cli, "percentiles"),
        (cli, "dominance_check"),
        (cli, "simulate_empirical_ccdf"),
        (cli, "build_parser"),
        (cli, "load_config"),
        (cli, "main"),
        (cli, "RunConfig"),
        (outputs, "ccdf_profile"),
        (outputs.TimeAverageEvaluator, "value"),
        (orthant.OuChain, "extend"),
        (simulate, "sample_driver"),
        (simulate, "aoi_path_matrix"),
        (core, "GenerationSchedule"),
        (links, "CalibrationTarget"),
        (links, "CorrelationMode"),
        (links, "DelayModel"),
        (links, "LinkFunction"),
        (links, "calibrate_kappa"),
        (links, "calibrate_marginal"),
        (orthant, "QuadratureSpec"),
        (outputs, "exact_ccdf_grid"),
    ],
)
def test_hook_point_exists(owner, attr):
    assert callable(getattr(owner, attr))


@pytest.mark.parametrize(
    "attr",
    [
        "write_ccdf_csv",
        "write_heatmap_csv",
        "write_timeavg_csv",
        "write_percentiles_csv",
        "write_meta_json",
    ],
)
def test_writers_take_a_path_argument(attr):
    assert "path" in inspect.signature(getattr(cli, attr)).parameters


def test_profile_takes_four_positional_arguments():
    params = list(inspect.signature(outputs.ccdf_profile).parameters)
    assert params == ["model", "phi", "n_max", "spec"]


def test_chain_exposes_rho():
    assert orthant.OuChain(0.5).rho == 0.5


def test_import_loads_no_interpolation_code(tmp_path):
    # scipy is a test dependency only: exact, calibrate and sweep run with
    # it blocked, and no scipy module is loaded.
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    doc = json.loads(readme.split("Example config:", 1)[1].split("```json", 1)[1].split("```", 1)[0])
    config = tmp_path / "readme.json"
    config.write_text(json.dumps(doc))
    doc["link"]["kind"] = "censored-normal"
    censored = tmp_path / "censored.json"
    censored.write_text(json.dumps(doc))
    short = ["--set", "quadrature.m=64", "--set", "t_grid.stop=2.0"]
    runs = [
        ["exact", "--config", str(config), *short],
        ["calibrate", "--config", str(censored)],
        ["sweep", "--config", str(config), *short, "--param", "tau=0.5,2.0"],
    ]
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from aoi_lab import cli\n"
        "codes = [cli.main(argv + ['--out', sys.argv[1]]) for argv in json.loads(sys.argv[2])]\n"
        "loaded = [m for m, mod in sys.modules.items() if m.startswith('scipy') and mod]\n"
        "print(json.dumps([codes, loaded]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(aoi_lab.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "out"), json.dumps(runs)],
        env=env, capture_output=True, text=True, check=True,
    )
    codes, loaded = json.loads(out.stdout.strip().splitlines()[-1])
    assert codes == [cli.EXIT_OK] * 3
    assert loaded == []
