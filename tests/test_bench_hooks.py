"""The benchmark's traced run of the exact and compare commands, at tiny
size.  Tracing wraps the library where the benchmark looks it up
(``TimeAverageEvaluator.value``, ``ccdf_profile`` called with four
positional arguments, ``OuChain.extend``, the names ``cli`` imports), so a
renamed hook or a changed call fails here as well as in the benchmark."""

import json
import os
import sys

import pytest

from aoi_lab import cli, orthant, outputs

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402


def tiny_exact_calls(tmp_path, monkeypatch):
    """The phases of each ccdf_profiles call and the number of chain
    stages of the tiny exact workload, run in this process."""
    config = tmp_path / "readme.json"
    config.write_text(json.dumps(workloads.README_CONFIG))
    batches, stages = [], []
    profiles, extend = outputs.ccdf_profiles, orthant.OuChain.extend

    def counted_profiles(model, phis, n_max, spec, threads):
        batches.append(list(phis))
        return profiles(model, phis, n_max, spec, threads)

    def counted_extend(chain, a):
        stages.append(chain.rho)
        return extend(chain, a)

    monkeypatch.setattr(outputs, "ccdf_profiles", counted_profiles)
    monkeypatch.setattr(orthant.OuChain, "extend", counted_extend)
    argv = workloads.TINY_WORKLOADS["exact-readme"].argv(str(config), str(tmp_path / "out"), 3, 2)
    assert cli.main(argv) == cli.EXIT_OK
    monkeypatch.undo()
    return batches, len(stages)


@pytest.mark.parametrize("name", ["exact-readme", "compare-readme"])
def test_traced_tiny_workload_is_correct(name, tmp_path, monkeypatch):
    with open(run.REFERENCE) as fh:
        ref = json.load(fh)
    result, lines = run.run(
        workloads.TINY_WORKLOADS[name], seed=3, seconds=0, trace=True, ref=ref
    )
    assert result["correct"], lines
    if name == "exact-readme":
        # One batch for the grid's phase classes (t = 0.5, 3, 5.5 and 8 at
        # tau = 2: 4 classes, in ascending order) and one for the time
        # average's 36 phase nodes; each phase is computed once, and the
        # trace counts one extend call per batched stage.
        metric = {k: v["value"] for k, v in result["metrics"].items()}
        (grid, timeavg), stages = tiny_exact_calls(tmp_path, monkeypatch)
        assert grid == sorted(set(grid)) and len(grid) == 4
        assert len(timeavg) == len(set(timeavg)) == 36
        assert metric["orthant.extend_calls"] == stages
        assert metric["outputs.timeavg_s"] > 0
