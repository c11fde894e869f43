"""One benchmark child process: set up, run one ``aoi-lab`` command, report.

    python3 bench/child.py JOB.json

JOB.json holds ``src`` (the directory that holds the ``aoi_lab`` package),
``argv`` (the CLI arguments), ``setup_only``, ``trace`` and ``result`` (the
path to write the report to).  The child times its set-up (importing
``aoi_lab``, ``load_config`` and ``RunConfig.model()``) and then
``aoi_lab.cli.main(argv)``, and reads how much CPU time the hypervisor
stole from its CPUs during each.  With ``trace`` set it first wraps the
public functions of each layer where they are looked up, keeps one span per
call in memory and writes the spans into the report at the end.

This module also holds the span arithmetic (self times, layer metrics) that
the parent process applies to the spans, so it imports ``aoi_lab`` only
inside ``run_child``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import sys
import threading
import time
import tracemalloc
from collections import Counter

# Chains with one-step correlation at or above this run near-frozen.
RHO_SPLIT = 0.9

# Spans: [name, start, end, parent index or -1, value].  The value is the
# chain's rho for orthant.extend, the bytes written for outputs.write, the
# tracemalloc peak for simulate.empirical and a cache key for
# outputs.ccdf_profile.
NAME, START, END, PARENT, VALUE = range(5)


class Tracer:
    """Spans of wrapped calls, kept in memory.

    A call on a worker thread with no open span of its own is a child of
    the innermost span open on the main thread, which is waiting for it.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str, value=None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else -1)
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, value])
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn, value=None):
        """fn with a span around each call; value(args, kwargs) tags it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name, value(args, kwargs) if value else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions at the name they are looked up by."""
    from aoi_lab import cli, orthant, outputs, simulate

    def patch(owner, attr: str, name: str, value=None) -> None:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), value))

    def write_path(fn):
        sig = inspect.signature(fn)
        return lambda args, kwargs: sig.bind(*args, **kwargs).arguments["path"]

    def profile_key(args, kwargs):
        model, phi, _n, spec = args
        return hash((model, float(phi), spec))

    patch(cli, "calibrate_marginal", "links.calibrate")
    patch(cli, "calibrate_kappa", "links.calibrate")
    patch(cli, "exact_ccdf_grid", "outputs.grid")
    patch(cli, "heatmap", "outputs.heatmap")
    patch(cli, "percentiles", "outputs.percentiles")
    patch(cli, "dominance_check", "outputs.dominance")
    for attr in (
        "write_ccdf_csv",
        "write_heatmap_csv",
        "write_timeavg_csv",
        "write_percentiles_csv",
        "write_meta_json",
    ):
        patch(cli, attr, "outputs.write", write_path(getattr(cli, attr)))
    patch(outputs, "ccdf_profile", "outputs.ccdf_profile", profile_key)
    patch(outputs.TimeAverageEvaluator, "value", "outputs.timeavg")
    patch(orthant.OuChain, "extend", "orthant.extend", lambda args, kwargs: args[0].rho)
    patch(simulate, "sample_driver", "simulate.driver")
    patch(simulate, "aoi_path_matrix", "core.path_matrix")

    empirical = cli.simulate_empirical_ccdf

    @functools.wraps(empirical)
    def traced_empirical(*args, **kwargs):
        idx = tracer.open("simulate.empirical")
        tracemalloc.start()
        try:
            return empirical(*args, **kwargs)
        finally:
            tracer.spans[idx][VALUE] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            tracer.close(idx)

    cli.simulate_empirical_ccdf = traced_empirical


# -- span arithmetic ----------------------------------------------------------


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


def self_times(spans: list[list]) -> tuple[list[float], float]:
    """Each span's duration minus the part of it its children cover, and
    the time that children running in parallel overlap each other.

    The self times of all spans add up to the root's duration plus that
    overlap."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    selfs, overlap = [], 0.0
    for i, s in enumerate(spans):
        kids = children.get(i, [])
        covered = _union_length(kids)
        selfs.append(s[END] - s[START] - covered)
        overlap += sum(e - b for b, e in kids) - covered
    return selfs, overlap


def _ancestors(spans: list[list], i: int):
    p = spans[i][PARENT]
    while p >= 0:
        yield p
        p = spans[p][PARENT]


LAYERS = ("cli", "links", "orthant", "outputs", "simulate", "core")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced command; spans[0] is cli.main."""
    selfs, overlap = self_times(spans)
    m: dict[str, float] = {"trace.wall_s": spans[0][END] - spans[0][START]}
    dur = [s[END] - s[START] for s in spans]

    def total(name, pred=lambda i: True):
        idx = [i for i, s in enumerate(spans) if s[NAME] == name and pred(i)]
        return len(idx), sum(dur[i] for i in idx)

    def under(name):
        return lambda i: any(spans[a][NAME] == name for a in _ancestors(spans, i))

    for band, pred in (
        ("rho_lo", lambda i: spans[i][VALUE] < RHO_SPLIT),
        ("rho_hi", lambda i: spans[i][VALUE] >= RHO_SPLIT),
    ):
        n, s = total("orthant.extend", pred)
        m[f"orthant.extend_s.{band}"] = s
        m[f"orthant.extend_ms_per_call.{band}"] = 1e3 * s / n if n else 0.0
    m["orthant.extend_calls"] = total("orthant.extend")[0]

    m["outputs.ccdf_profile_calls"], m["outputs.ccdf_profile_s"] = total("outputs.ccdf_profile")
    # Stages per profile call, and the most any call needed per phase.
    stages = Counter(
        s[PARENT]
        for s in spans
        if s[NAME] == "orthant.extend" and spans[s[PARENT]][NAME] == "outputs.ccdf_profile"
    )
    needed: dict[object, int] = {}
    for p, n in stages.items():
        needed[spans[p][VALUE]] = max(needed.get(spans[p][VALUE], 0), n)
    computed = sum(stages.values())
    m["outputs.profile_stage_reuse"] = sum(needed.values()) / computed if computed else 1.0

    in_pct = under("outputs.percentiles")
    m["outputs.timeavg_calls"], m["outputs.timeavg_s"] = total(
        "outputs.timeavg", lambda i: not in_pct(i)
    )
    n_pct, m["outputs.percentile_s"] = total("outputs.percentiles")
    n_evals = total("outputs.timeavg", in_pct)[0]
    m["outputs.percentile_evals"] = n_evals / n_pct if n_pct else 0.0

    m["outputs.grid_s"] = total("outputs.grid")[1]
    m["outputs.grid_phase_classes"] = total(
        "outputs.ccdf_profile", lambda i: spans[spans[i][PARENT]][NAME] == "outputs.grid"
    )[0]
    m["outputs.heatmap_s"] = total("outputs.heatmap")[1]
    m["outputs.dominance_s"] = total("outputs.dominance")[1]
    m["outputs.write_s"] = total("outputs.write")[1]
    m["outputs.write_bytes"] = sum(s[VALUE] for s in spans if s[NAME] == "outputs.write")

    m["simulate.driver_s"] = total("simulate.driver")[1]
    emp = [i for i, s in enumerate(spans) if s[NAME] == "simulate.empirical"]
    m["simulate.empirical_s"] = sum(selfs[i] for i in emp)
    m["simulate.peak_alloc_mb"] = max((spans[i][VALUE] for i in emp), default=0) / 2**20
    m["core.path_matrix_s"] = total("core.path_matrix")[1]

    m["links.calibrate_calls"], m["links.calibrate_s"] = total("links.calibrate")

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            t for s, t in zip(spans, selfs) if s[NAME].split(".", 1)[0] == layer
        )
    m["trace.parallel_s"] = overlap
    return m


# -- the child itself -----------------------------------------------------------


def stolen_s() -> float:
    """CPU time the hypervisor has taken from the CPUs this process may run
    on, summed over them (the steal column of /proc/stat); 0 where the
    kernel does not report it."""
    cpus = {f"cpu{i}" for i in os.sched_getaffinity(0)}
    ticks = 0
    try:
        with open("/proc/stat") as fh:
            for line in fh:
                fields = line.split()
                if fields and fields[0] in cpus and len(fields) > 8:
                    ticks += int(fields[8])
    except OSError:
        return 0.0
    return ticks / os.sysconf("SC_CLK_TCK")


def run_child(job: dict) -> dict:
    stolen0 = stolen_s()
    t0 = time.perf_counter()
    sys.path.insert(0, job["src"])
    import aoi_lab.cli as cli

    here = os.path.realpath(cli.__file__)
    if not here.startswith(os.path.realpath(job["src"]) + os.sep):
        raise SystemExit(f"aoi_lab imported from {here}, not from {job['src']}")
    args = cli.build_parser().parse_args(job["argv"])
    cli.load_config(args).model()
    report = {"setup_s": time.perf_counter() - t0}
    stolen1 = stolen_s()
    report["setup_stolen_s"] = stolen1 - stolen0
    if job["setup_only"]:
        return report

    tracer = None
    if job["trace"]:
        tracer = Tracer()
        install(tracer)
        root = tracer.open("cli.main")
    t1 = time.perf_counter()
    rc = cli.main(job["argv"])
    report["wall_s"] = time.perf_counter() - t1
    report["stolen_s"] = stolen_s() - stolen1
    report["rc"] = rc
    if tracer is not None:
        tracer.close(root)
        for s in tracer.spans:
            if s[NAME] == "outputs.write":
                s[VALUE] = os.path.getsize(s[VALUE]) if os.path.exists(s[VALUE]) else 0
        report["spans"] = tracer.spans
    report["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return report


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    report = run_child(job)
    with open(job["result"], "w") as fh:
        json.dump(report, fh)
