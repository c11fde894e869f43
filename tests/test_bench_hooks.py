"""The benchmark's traced run of the exact and compare commands, at tiny
size.  Tracing wraps the library where the benchmark looks it up
(``TimeAverageEvaluator.value``, ``ccdf_profile`` called with four
positional arguments, the names ``cli`` imports), so a renamed hook or a
changed call fails here as well as in the benchmark."""

import json
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["exact-readme", "compare-readme"])
def test_traced_tiny_workload_is_correct(name):
    with open(run.REFERENCE) as fh:
        ref = json.load(fh)
    result, lines = run.run(
        workloads.TINY_WORKLOADS[name], seed=3, seconds=0, trace=True, ref=ref
    )
    assert result["correct"], lines
    if name == "exact-readme":
        # The time average's 36 phase profiles run on the thread pool, and
        # their spans still count under the time-average layer.
        metric = {k: v["value"] for k, v in result["metrics"].items()}
        assert metric["outputs.ccdf_profile_calls"] == metric["outputs.grid_phase_classes"] + 36
        assert metric["outputs.timeavg_s"] > 0
