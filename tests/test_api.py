"""Public names and the hook points that outside tooling wraps.

The benchmark's traced run (bench/child.py) replaces these attributes at
the module where each is looked up, so renaming or moving one silently
drops its layer from the trace.  bench/make_reference.py imports the rest.
"""

import inspect
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


def test_import_loads_no_interpolation_code():
    code = "import sys, aoi_lab; print([m for m in sys.modules if 'scipy.interpolate' in m])"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(aoi_lab.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
