"""Tests of the benchmark itself: a tiny run of each workload through the
benchmark's own code path, the span arithmetic, the output checks and the
error floors.  No test depends on how long anything takes.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import child
import run
import workloads
from child import END, LAYERS, START, layer_metrics, self_times

with open(run.REFERENCE) as fh:
    REF = json.load(fh)
with open(run.SPEC) as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(workloads.TINY_WORKLOADS))
def test_tiny_workload_runs_clean(name, trace):
    w = workloads.TINY_WORKLOADS[name]
    result, lines = run.run(w, seed=3, seconds=0, trace=trace, ref=REF)
    json.dumps(result, allow_nan=False)
    assert result["correct"], lines
    assert result["failed"] == 0
    assert result["attempted"] == w.attempted() * (2 if trace else 1)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        selfs = sum(m[f"{layer}.self_s"] for layer in LAYERS)
        assert selfs - m["trace.parallel_s"] == pytest.approx(m["trace.wall_s"], rel=1e-9)
        assert m["orthant.extend_calls"] > 0 and m["links.calibrate_calls"] > 0
        assert (m["simulate.driver_s"] > 0) == (name == "compare-readme")
        assert (m["outputs.timeavg_calls"] > 0) == (name == "exact-readme")
    else:
        assert result["metrics"]["wall_s"]["value"] > 0
        assert result["metrics"]["setup_s"]["value"] > 0


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact-readme", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _span(name, start, end, parent, value=None):
    return [name, float(start), float(end), parent, value]


def test_self_times_subtract_children_and_count_parallel_overlap():
    spans = [
        _span("cli.main", 0, 10, -1),
        _span("outputs.percentiles", 1, 4, 0),
        _span("outputs.timeavg", 2, 3, 1),
        _span("outputs.grid", 5, 9, 0),
        _span("outputs.ccdf_profile", 5, 8, 3),  # two pool threads
        _span("outputs.ccdf_profile", 6, 9, 3),
    ]
    selfs, overlap = self_times(spans)
    assert selfs == pytest.approx([3, 2, 1, 0, 3, 3])
    assert overlap == pytest.approx(2)
    assert sum(selfs) - overlap == pytest.approx(spans[0][END] - spans[0][START])


def test_layer_metrics_on_a_synthetic_trace():
    spans = [
        _span("cli.main", 0, 20, -1),
        _span("links.calibrate", 0, 1, 0),
        _span("outputs.percentiles", 1, 11, 0),
        _span("outputs.timeavg", 1, 6, 2),
        _span("outputs.ccdf_profile", 1, 5, 3, value=7),
        _span("orthant.extend", 1, 2, 4, value=0.5),
        _span("orthant.extend", 2, 3, 4, value=0.5),
        _span("outputs.timeavg", 6, 11, 2),
        _span("outputs.ccdf_profile", 6, 10, 7, value=7),  # regrown from scratch
        *[_span("orthant.extend", 6 + i, 7 + i, 8, value=0.95) for i in range(4)],
        _span("outputs.timeavg", 11, 12, 0),
        _span("outputs.write", 12, 13, 0, value=100),
        _span("outputs.write", 13, 14, 0, value=50),
    ]
    m = layer_metrics(spans)
    assert m["trace.wall_s"] == 20
    assert m["orthant.extend_calls"] == 6
    assert m["orthant.extend_s.rho_lo"] == 2 and m["orthant.extend_s.rho_hi"] == 4
    assert m["orthant.extend_ms_per_call.rho_hi"] == pytest.approx(1000)
    assert m["outputs.ccdf_profile_calls"] == 2 and m["outputs.ccdf_profile_s"] == 8
    assert m["outputs.profile_stage_reuse"] == pytest.approx(4 / 6)
    assert (m["outputs.timeavg_calls"], m["outputs.timeavg_s"]) == (1, 1)
    assert (m["outputs.percentile_s"], m["outputs.percentile_evals"]) == (10, 2)
    assert (m["outputs.write_s"], m["outputs.write_bytes"]) == (2, 150)
    assert (m["links.calibrate_calls"], m["links.calibrate_s"]) == (1, 1)
    assert m["cli.self_s"] == 20 - 14
    # percentiles 0, timeavg 1 + 1 + 1, ccdf_profile 2 + 0, write 1 + 1
    assert m["outputs.self_s"] == 7
    assert m["orthant.self_s"] == 6 and m["links.self_s"] == 1
    assert m["trace.parallel_s"] == 0


def test_end_to_end_times_leave_out_stolen_time():
    rec = {
        "plain": [
            {"wall_s": 2.0, "stolen_s": 0.0, "maxrss_mb": 90.0},
            {"wall_s": 3.5, "stolen_s": 1.4, "maxrss_mb": 91.0},  # a spell of steal
            {"wall_s": 2.2, "stolen_s": 0.1, "maxrss_mb": 92.0},
        ],
        "setups": [
            {"setup_s": 0.8, "setup_stolen_s": 0.0},
            {"setup_s": 1.5, "setup_stolen_s": 0.6},
            {"setup_s": 0.7, "setup_stolen_s": 0.0},
        ],
        "outcomes": [],
    }
    m = run.end_to_end(rec, REF)
    assert m["wall_s"] == pytest.approx(2.1)
    assert m["setup_s"] == pytest.approx(0.8)
    assert m["peak_rss_mb"] == 91.0


def test_stolen_time_is_a_clock_that_does_not_run_back():
    first = child.stolen_s()
    assert 0 <= first <= child.stolen_s()


def test_error_floor_is_reference_estimate_or_print_resolution():
    assert workloads.print_resolution([0.3, 1.0]) == pytest.approx(5e-13)
    assert workloads.print_resolution([0.3, 0.9]) == pytest.approx(5e-13)
    assert workloads.print_resolution([2.9, 0.6]) == pytest.approx(5e-12)
    assert workloads.error_floor(1e-16, [0.5]) == pytest.approx(5e-13)
    assert workloads.error_floor(1e-7, [0.5]) == 1e-7


def test_floored_error_reads_equal_below_the_floor():
    ref = np.array([0.5, 0.25])
    f = workloads.floored_max_abs_err
    assert f(ref + 1e-14, ref, 5e-13) == 5e-13
    assert f(ref + [0, 3e-3], ref, 5e-13) == pytest.approx(3e-3)
    assert f([], [], 1e-9) == 1e-9


def _write_sweep(out, rows, failures=()):
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "percentiles.csv"), "w") as fh:
        fh.write("link,c,tau,s,p10,p25,p50,p75,p90\n")
        for c, tau, values in rows:
            fh.write(f"shifted-lognormal,{c},{tau},0.75," + ",".join(map(str, values)) + "\n")
    with open(os.path.join(out, "meta.json"), "w") as fh:
        json.dump({"failures": list(failures), "n_rows": len(rows)}, fh)


def test_sweep_check_counts_failed_and_non_monotone_rows(tmp_path):
    w = workloads.TINY_WORKLOADS["sweep-c-tau"]
    base = [1.0, 1.2, 1.4, 1.6, 1.8]
    rows = [
        (c, tau, [v + 0.01 * i for v in base])
        for tau in ("0.5", "2")
        for i, c in enumerate(("0", "10", "inf"))
    ]
    _write_sweep(tmp_path / "ok", rows)
    assert workloads.check(w, 0, str(tmp_path / "ok"), REF).failed == 0

    bad = list(rows)
    bad[2] = ("inf", "0.5", [v - 0.5 for v in base])  # frozen below c=10
    _write_sweep(tmp_path / "bad", bad[:-1], failures=[{"setting": {"c": "inf", "tau": 2.0}}])
    o = workloads.check(w, 5, str(tmp_path / "bad"), REF)
    assert o.attempted == 6 and o.failed == 2


def test_exact_check_rejects_a_ccdf_that_rises_in_x(tmp_path):
    w = workloads.TINY_WORKLOADS["exact-readme"]
    out = tmp_path / "out"
    out.mkdir()
    (out / "ccdf.csv").write_text("t,x,ccdf\n0.5,0,1\n0.5,0.5,0.4\n0.5,1,0.6\n")
    (out / "heatmap.csv").write_text("t,x,pmf\n0.5,0,0.6\n")
    (out / "timeavg.csv").write_text("x,ccdf_avg\n0,1\n")
    (out / "percentiles.csv").write_text(
        "link,c,tau,s,p10,p25,p50,p75,p90\nshifted-lognormal,10,2,0.75,1,1.3,1.9,2.4,2.9\n"
    )
    (out / "meta.json").write_text("{}")
    o = workloads.check(w, 0, str(out), REF)
    assert o.failed == 1 and "increases" in o.problems[0]
    assert workloads.check(w, 3, str(out), REF).failed == 1
