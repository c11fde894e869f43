"""Benchmark of the ``aoi-lab`` command line.

    python3 bench/run.py --workload exact-readme --seed 1 --seconds 30 --trace 0

Runs one workload (see ``workloads.py``) from the repository root for
about ``--seconds`` seconds.  Each command runs in a fresh child process
(``child.py``), after one untimed warm-up child that compiles the bytecode
and fills the file cache.  Every run's outputs are checked, and compared
with the pinned references in ``reference.json``.

With ``--trace 0`` it reports the end-to-end metrics: the median command
wall time ``wall_s``, the median set-up time ``setup_s`` over at least
five children, the median peak RSS and the accuracy of the outputs.  Both
times leave out the CPU time the hypervisor stole meanwhile (see
``README.md``).  With ``--trace 1`` it alternates untraced and traced
commands and reports the per-layer metrics of the traced ones, and the
tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the run environment and a readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from child import layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    README_CONFIG,
    WORKLOADS,
    Outcome,
    check,
    error_floor,
)

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
REFERENCE = os.path.join(HERE, "reference.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

MIN_SETUPS = 5
CHILD_TIMEOUT_S = 150

ACCURACY = ("ccdf_max_abs_err", "timeavg_max_abs_err", "pct_max_abs_err", "z_frac_within_3")


class ChildFailed(RuntimeError):
    pass


def vacuous_accuracy(ref: dict) -> dict[str, float]:
    """Accuracy figures of a workload whose command writes no such output:
    the error floors (no detectable error) and 1 for the z fraction."""
    return {
        "ccdf_max_abs_err": error_floor(
            ref["ccdf"]["err_estimate"], [v for row in ref["ccdf"]["p"] for v in row]
        ),
        "timeavg_max_abs_err": error_floor(
            ref["timeavg"]["err_estimate"], ref["timeavg"]["values"]
        ),
        "pct_max_abs_err": error_floor(
            ref["percentiles"]["err_estimate"], ref["percentiles"]["values"]
        ),
        "z_frac_within_3": 1.0,
    }


def environment(threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    with open("/proc/loadavg") as fh:
        load = [float(v) for v in fh.read().split()[:3]]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {
            k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ
        },
        "git_commit": commit,
        "loadavg_at_start": load,
    }


class Runner:
    """Starts the children of one benchmark run inside a scratch directory."""

    def __init__(self, work: str, workload, seed: int, threads: int):
        self.work, self.workload, self.seed, self.threads = work, workload, seed, threads
        self.config = os.path.join(work, "config.json")
        with open(self.config, "w") as fh:
            json.dump(README_CONFIG, fh)
        self.count = 0

    def child(self, setup_only: bool, trace: bool = False) -> tuple[dict, str]:
        self.count += 1
        tag = f"c{self.count}"
        out = os.path.join(self.work, tag)
        job = {
            "src": SRC,
            "argv": self.workload.argv(self.config, out, self.seed, self.threads),
            "setup_only": setup_only,
            "trace": trace,
            "result": os.path.join(self.work, tag + ".json"),
        }
        with open(os.path.join(self.work, tag + ".job.json"), "w") as fh:
            json.dump(job, fh)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), fh.name],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0 or not os.path.exists(job["result"]):
            raise ChildFailed(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        with open(job["result"]) as fh:
            return json.load(fh), out


def measure(runner: Runner, seconds: float, trace: bool, ref: dict) -> dict:
    """Run commands until about `seconds` have passed (at least one, or one
    untraced/traced pair); returns the per-command records."""
    w = runner.workload
    runner.child(setup_only=True)  # warm-up, not counted
    plain, traced, setups, outcomes = [], [], [], []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for is_traced in ((False, True) if trace else (False,)):
            try:
                report, out = runner.child(setup_only=False, trace=is_traced)
            except (ChildFailed, subprocess.TimeoutExpired) as exc:
                o = Outcome(attempted=w.attempted())
                o.fail(o.attempted, str(exc))
                outcomes.append(o)
                continue
            setups.append(report)
            outcomes.append(check(w, report["rc"], out, ref))
            (traced if is_traced else plain).append(report)
        last = time.perf_counter() - t0
        if time.perf_counter() - started + last > seconds:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(runner.child(setup_only=True)[0])
    return {"plain": plain, "traced": traced, "setups": setups, "outcomes": outcomes}


def end_to_end(rec: dict, ref: dict) -> dict[str, float]:
    """Medians over the run.  The times leave out the time stolen from the
    child's CPUs: on a shared host it comes and goes in spells of minutes,
    and no change to the program moves it."""
    plain = rec["plain"]
    m = {
        "wall_s": statistics.median(r["wall_s"] - r["stolen_s"] for r in plain),
        "setup_s": statistics.median(r["setup_s"] - r["setup_stolen_s"] for r in rec["setups"]),
        "peak_rss_mb": statistics.median(r["maxrss_mb"] for r in plain),
    }
    vacuous = vacuous_accuracy(ref)
    for name in ACCURACY:
        values = [o.accuracy[name] for o in rec["outcomes"] if name in o.accuracy]
        m[name] = statistics.median(values) if values else vacuous[name]
    return m


def per_layer(rec: dict) -> dict[str, float]:
    layers = [layer_metrics(r["spans"]) for r in rec["traced"]]
    m = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
    m["trace.overhead_s"] = m["trace.wall_s"] - statistics.median(r["wall_s"] for r in rec["plain"])
    return m


def summary(name: str, rec: dict, metrics: dict, attempted: int, failed: int) -> list[str]:
    lines = [
        f"workload {name}: {len(rec['plain'])} untraced and {len(rec['traced'])} traced "
        f"commands, {len(rec['setups'])} set-ups (medians below)"
    ]
    for k, v in metrics.items():
        lines.append(f"  {k:36s} {v['value']:.6g} {v['unit']}")
    for k, rows in (("wall_s", rec["plain"]), ("setup_s", rec["setups"])):
        stolen = "stolen_s" if k == "wall_s" else "setup_stolen_s"
        lines.append(
            f"  {k + ' with stolen time':36s} {statistics.median(r[k] for r in rows):.6g} s"
            f" (median stolen {statistics.median(r[stolen] for r in rows):.6g} s)"
        )
    frac = f"{failed / attempted:.6g} ({failed} of {attempted} operations)"
    lines.append(f"  {'failed_frac':36s} {frac}")
    for o in rec["outcomes"]:
        lines += [f"  failure: {p}" for p in o.problems]
    return lines


def run(workload, seed: int, seconds: float, trace: bool, ref: dict) -> tuple[dict, list[str]]:
    """One benchmark run: the result object and the summary lines."""
    threads = min(2, len(os.sched_getaffinity(0)))
    lines = [json.dumps({"environment": environment(threads)})]
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=WORK) as work:
        rec = measure(Runner(work, workload, seed, threads), seconds, trace, ref)
    if not rec["plain"] or (trace and not rec["traced"]):
        problems = [p for o in rec["outcomes"] for p in o.problems]
        raise ChildFailed("no command completed: " + "; ".join(problems))
    with open(SPEC) as fh:
        wanted = json.load(fh)["per_layer" if trace else "end_to_end"]
    values = per_layer(rec) if trace else end_to_end(rec, ref)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted = sum(o.attempted for o in rec["outcomes"])
    failed = sum(o.failed for o in rec["outcomes"])
    lines += summary(workload.name, rec, metrics, attempted, failed)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "aoi_lab", "cli.py")):
        print(f"bench: no aoi_lab package under {SRC}", file=sys.stderr)
        return 2
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    try:
        workload = WORKLOADS[args.workload]
        result, lines = run(workload, args.seed, args.seconds, bool(args.trace), ref)
    except ChildFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
