"""Public names and the hook points that outside tooling wraps.

The benchmark's traced run (bench/child.py) replaces these attributes at
the module where each is looked up, so renaming or moving one silently
drops its layer from the trace.  bench/make_reference.py imports the rest.
"""

import ast
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


ROOT = os.path.join(os.path.dirname(__file__), "..")


def _package_imports(source: str) -> set[str]:
    """The names a script imports from the aoi_lab package itself."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "aoi_lab" and node.level == 0
        for alias in node.names
    }


def test_exports_are_what_readme_and_the_demos_import():
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    quick_start = readme.split("## Library quick start", 1)[1].split("```python", 1)[1]
    used = _package_imports(quick_start.split("```", 1)[0])
    demos = os.path.join(ROOT, "demos")
    for name in sorted(os.listdir(demos)):
        if name.endswith(".py"):
            with open(os.path.join(demos, name)) as fh:
                used |= _package_imports(fh.read())
    errors = {"AoiLabError", "CalibrationError", "EvaluationError", "QuadratureError"}
    assert len(used) == 19
    assert sorted(aoi_lab.__all__) == sorted(used | errors | {"__version__"})


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_cli_and_exports_reach_no_private_name():
    # Every name cli imports from the package's modules is public (a dunder
    # such as __version__ is), and test-only helpers are not exported.
    tree = ast.parse(inspect.getsource(cli))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    ]
    assert imported and [name for name in imported if _private(name)] == []
    assert [name for name in aoi_lab.__all__ if _private(name)] == []
    assert "ou_orthant" not in aoi_lab.__all__


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
        (simulate, "arrival_counts"),
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


def test_commands_build_no_quadrature_rule(tmp_path):
    # The one Gauss-Legendre rule is computed at import: exact on the
    # README config at two threads, and acceptance criterion 2's
    # near-frozen chains, whose kernel-sized stage grids vary in size,
    # compute no other.
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    block = readme.split("Example config:", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    config = tmp_path / "readme.json"
    config.write_text(block)
    code = (
        "import json, sys\n"
        "import numpy as np\n"
        "from aoi_lab import cli\n"
        "from oracles import ou_orthant\n"
        "calls = []\n"
        "leggauss = np.polynomial.legendre.leggauss\n"
        "np.polynomial.legendre.leggauss = lambda n: calls.append(n) or leggauss(n)\n"
        "argv = ['exact', '--config', sys.argv[1], '--out', sys.argv[2], '--threads', '2']\n"
        "exit_code = cli.main(argv)\n"
        "exact_calls = len(calls)\n"
        "rng = np.random.Generator(np.random.Philox(2024))\n"
        "for _ in range(25):\n"
        "    n = int(rng.integers(1, 7))\n"
        "    ou_orthant(rng.uniform(-2.0, 2.0, size=n), 1 - 1e-6)\n"
        "print(json.dumps([exit_code, exact_calls, len(calls) - exact_calls]))\n"
    )
    paths = [os.path.dirname(os.path.dirname(aoi_lab.__file__)), os.path.dirname(__file__)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    out = subprocess.run(
        [sys.executable, "-c", code, str(config), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(out.stdout.strip().splitlines()[-1]) == [cli.EXIT_OK, 0, 0]


def test_package_runs_as_a_module(tmp_path):
    # python -m aoi_lab runs the command line.
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    block = readme.split("Example config:", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    config = tmp_path / "readme.json"
    config.write_text(block)
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(aoi_lab.__file__)))
    run = subprocess.run(
        [sys.executable, "-m", "aoi_lab", "exact", "--config", str(config),
         "--out", str(out), "--set", "quadrature.m=64"],
        env=env, capture_output=True, text=True,
    )
    assert run.returncode == cli.EXIT_OK, run.stderr
    assert (out / "ccdf.csv").read_text().startswith("t,x,ccdf\n")


def test_cli_module_runs_without_warning(tmp_path):
    # python -m aoi_lab.cli on README's config as shipped: importing the
    # package leaves .cli unloaded, so runpy has nothing to warn about.
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        readme = fh.read()
    block = readme.split("Example config:", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    config = tmp_path / "readme.json"
    config.write_text(block)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(aoi_lab.__file__)))
    run = subprocess.run(
        [sys.executable, "-m", "aoi_lab.cli", "exact", "--config", str(config),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True,
    )
    assert run.returncode == cli.EXIT_OK
    assert run.stderr == ""
    assert (tmp_path / "out" / "ccdf.csv").exists()


def test_run_config_resolves_lazily():
    code = (
        "import sys\n"
        "import aoi_lab\n"
        "loaded = 'aoi_lab.cli' in sys.modules\n"
        "from aoi_lab import RunConfig\n"
        "print(loaded, RunConfig is sys.modules['aoi_lab.cli'].RunConfig)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(aoi_lab.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "True"]


def test_cli_import_loads_no_pool_or_statistics():
    # The thread pool is imported only when a batch has more than one
    # chunk, and the percentile bracket needs no statistics module.
    code = (
        "import sys\n"
        "import aoi_lab.cli\n"
        "print([m for m in ('statistics', 'concurrent.futures') if m in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(aoi_lab.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
