"""Command-line frontend: calibrate / exact / simulate / compare / sweep.

Configuration is a JSON document; repeated --set key=value flags override
individual keys (dotted paths).  All commands are deterministic given the
config and seed.  Exit codes: 0 success, 1 usage, 2 calibration failure,
3 evaluation failure, 4 acceptance failure, 5 partial sweep failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from . import __version__
from .core import GenerationSchedule
from .errors import AoiLabError, CalibrationError, EvaluationError
from .links import (
    CalibrationTarget,
    CorrelationMode,
    DelayModel,
    LinkFunction,
    calibrate_kappa,
    calibrate_marginal,
    lag_covariance,
    marginal_moments,
)
from .orthant import L, QuadratureSpec, nodes_per_stage
from .outputs import (
    DEFAULT_LEVELS,
    TimeAverageEvaluator,
    dominance_check,
    exact_ccdf_grid,
    heatmap,
    percentiles,
    write_ccdf_csv,
    write_heatmap_csv,
    write_meta_json,
    write_paths_csv,
    write_percentiles_csv,
    write_timeavg_csv,
)
from .simulate import simulate_empirical_ccdf

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CALIBRATION = 2
EXIT_EVALUATION = 3
EXIT_ACCEPTANCE = 4
EXIT_PARTIAL_SWEEP = 5


class UsageError(Exception):
    pass


# Points of one grid at most; a grid is checked before it is built.
_MAX_GRID_POINTS = 10**6


@dataclass(frozen=True)
class GridRange:
    start: float
    stop: float
    step: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.start, self.stop, self.step))):
            raise UsageError(f"grid start, stop and step must be finite, got {self}")
        if not self.step > 0:
            raise UsageError(f"grid step must be positive, got {self.step}")
        if self.stop < self.start:
            raise UsageError("grid stop must be >= start")
        if self.size > _MAX_GRID_POINTS:
            raise UsageError(
                f"grid has {self.size:.15g} points, over the limit of {_MAX_GRID_POINTS}"
            )
        if self.start < 0:
            raise UsageError(f"grid start must be >= 0, got {self.start}")

    @property
    def size(self) -> float:
        """Number of points, inclusive of stop within half a step; inf when
        the count overflows a float."""
        n = (self.stop - self.start) / self.step + 0.5
        return math.floor(n) + 1 if n < math.inf else math.inf

    def values(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.size)


@dataclass(frozen=True)
class RunConfig:
    """Flat, JSON-serializable description of one experiment."""

    link_kind: str = "shifted-lognormal"
    x_min: float = 0.5
    mu: float | None = None
    s: float | None = None
    mu_hat: float | None = None
    s_hat: float | None = None
    mode: str = "ou"
    c: float | None = None
    kappa: float | None = None
    tau: float = 2.0
    t_grid: GridRange = field(default_factory=lambda: GridRange(0.5, 10.0, 0.5))
    x_grid: GridRange = field(default_factory=lambda: GridRange(0.0, 10.0, 0.02))
    delta: float = 0.02
    quad_m: int = 400
    n_paths: int = 500
    n_saved_paths: int = 500
    seed: int = 1
    threads: int = 1
    out: str = "aoi-out"

    def __post_init__(self):
        has_targets = self.mu is not None and self.s is not None
        has_direct = self.mu_hat is not None and self.s_hat is not None
        if has_targets == has_direct:
            raise UsageError(
                "exactly one of link.{mu,s} (targets) or link.{mu_hat,s_hat} "
                "(direct parameters) must be provided"
            )
        if self.mode == "ou":
            if (self.c is None) == (self.kappa is None):
                raise UsageError(
                    "ou mode requires exactly one of correlation.c or "
                    "correlation.kappa"
                )
        elif self.mode in ("iid", "frozen"):
            if self.kappa is not None:
                raise UsageError(f"{self.mode} mode takes no kappa")
        else:
            raise UsageError(f"unknown correlation mode {self.mode!r}")
        for key, least in _COUNT_FLOORS.items():
            value = getattr(self, _CONFIG_KEYS[key][0])
            if value < least:
                raise UsageError(f"config key {key!r} must be >= {least}, got {value}")
        try:
            self.quadrature()
        except ValueError as exc:
            raise UsageError(f"config key 'quadrature.m': {exc}") from exc

    # -- nested-dict round trip ------------------------------------------

    def to_dict(self) -> dict:
        doc: dict = {}
        for key, (name, _) in _CONFIG_KEYS.items():
            value = getattr(self, name)
            _set_nested(doc, key, asdict(value) if isinstance(value, GridRange) else value)
        _set_nested(doc, "quadrature.L", L)
        return doc

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """Build from a nested document; every leaf must be a key of
        _CONFIG_KEYS, and absent keys take the field defaults."""
        kwargs = {}
        for key, value in _leaves(d):
            if key in _FIXED_KEYS:
                if value != _FIXED_KEYS[key]:
                    raise UsageError(
                        f"config key {key!r} must be {_FIXED_KEYS[key]!r}, got {value!r}"
                    )
                continue
            if key not in _CONFIG_KEYS:
                what = "must be an object" if key in _SECTIONS else "is unknown"
                raise UsageError(f"config key {key!r} {what}")
            name, convert = _CONFIG_KEYS[key]
            try:
                kwargs[name] = convert(value)
            except (TypeError, ValueError, UsageError) as exc:
                raise UsageError(f"config key {key!r}: {exc}") from exc
        return cls(**kwargs)

    # -- model construction ----------------------------------------------

    def quadrature(self) -> QuadratureSpec:
        return QuadratureSpec(m=self.quad_m)

    def model(self) -> DelayModel:
        """Calibrate what the config gives as targets and assemble the delay
        model.  In ou mode, c = 0 selects the independent limit and
        c = inf the frozen limit.  Targets whose link overflows a float fail
        calibration."""
        if self.mu_hat is None:
            try:
                target = CalibrationTarget(mu=self.mu, s=self.s, x_min=self.x_min)
            except ValueError as exc:
                raise CalibrationError(f"infeasible target: {exc}") from exc
            try:
                mu_hat, s_hat = calibrate_marginal(target, self.link_kind)
                link = LinkFunction(self.link_kind, self.x_min, mu_hat, s_hat)
            except OverflowError as exc:
                msg = f"target link.mu={self.mu} and link.s={self.s} overflow a float"
                raise CalibrationError(msg) from exc
        else:
            link = LinkFunction(self.link_kind, self.x_min, self.mu_hat, self.s_hat)
        mode = self.mode
        if mode == "ou" and self.c in (0, math.inf):
            mode = "iid" if self.c == 0 else "frozen"
        if mode != "ou":
            corr = CorrelationMode(kind=mode)
        else:
            kappa = self.kappa if self.kappa is not None else calibrate_kappa(link, self.c)
            corr = CorrelationMode(kind="ou", kappa=kappa, c=self.c)
        return DelayModel(link=link, correlation=corr, schedule=GenerationSchedule(self.tau))


def _optional_float(v) -> float | None:
    return None if v is None else float(v)


def _integer(v) -> int:
    """An int, or a float with an integral value; nothing else."""
    if not (type(v) is int or type(v) is float and v.is_integer()):
        raise ValueError(f"expected an integer, got {v!r}")
    return int(v)


def _grid(g) -> GridRange:
    if not isinstance(g, dict) or set(g) != {"start", "stop", "step"}:
        raise ValueError(f"a grid needs exactly start, stop and step, got {g!r}")
    return GridRange(float(g["start"]), float(g["stop"]), float(g["step"]))


# Dotted config key -> (RunConfig field, conversion); grids are one key each.
_CONFIG_KEYS = {
    "link.kind": ("link_kind", str),
    "link.x_min": ("x_min", float),
    "link.mu": ("mu", _optional_float),
    "link.s": ("s", _optional_float),
    "link.mu_hat": ("mu_hat", _optional_float),
    "link.s_hat": ("s_hat", _optional_float),
    "correlation.mode": ("mode", str),
    "correlation.c": ("c", _optional_float),
    "correlation.kappa": ("kappa", _optional_float),
    "tau": ("tau", float),
    "t_grid": ("t_grid", _grid),
    "x_grid": ("x_grid", _grid),
    "delta": ("delta", float),
    "quadrature.m": ("quad_m", _integer),
    "simulation.n_paths": ("n_paths", _integer),
    "simulation.n_saved_paths": ("n_saved_paths", _integer),
    "simulation.seed": ("seed", _integer),
    "threads": ("threads", _integer),
    "out": ("out", str),
}
# Keys accepted only at their one value, for configs that name it: the
# truncation half-width and the Gauss-Legendre rule are fixed.
_FIXED_KEYS = {"quadrature.L": L, "quadrature.rule": "gauss-legendre"}
_SECTIONS = {key.split(".")[0] for key in _CONFIG_KEYS if "." in key}
# Counts checked where a config is built, before any model is.
_COUNT_FLOORS = {"simulation.n_paths": 1, "simulation.n_saved_paths": 0, "threads": 1}


def _leaves(d: dict, prefix: str = ""):
    """(dotted key, value) for every leaf of a config document: a grid's
    object is one leaf, any other object is descended into."""
    for name, value in d.items():
        key = prefix + name
        if isinstance(value, dict) and key not in _CONFIG_KEYS:
            yield from _leaves(value, key + ".")
        else:
            yield key, value


def _set_nested(d: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = d
    for p in parts[:-1]:
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise UsageError(f"cannot descend into non-object key {p!r}")
    node[parts[-1]] = value


def _parse_override(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise UsageError(f"--set expects key=value, got {text!r}")
    key, raw = text.split("=", 1)
    if raw == "inf":
        return key, math.inf
    try:
        return key, json.loads(raw)
    except json.JSONDecodeError:
        return key, raw


def load_config(args: argparse.Namespace) -> RunConfig:
    doc: dict = {}
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise UsageError("a config must be a JSON object")
    for item in args.set or []:
        key, value = _parse_override(item)
        _set_nested(doc, key, value)
    if args.out:
        doc["out"] = args.out
    if args.seed is not None:
        _set_nested(doc, "simulation.seed", args.seed)
    if args.threads is not None:
        doc["threads"] = args.threads
    elif "threads" not in doc and os.environ.get("AOI_LAB_THREADS"):
        raw = os.environ["AOI_LAB_THREADS"]
        try:
            doc["threads"] = _integer(json.loads(raw))
        except ValueError:
            raise UsageError(
                f"environment variable 'AOI_LAB_THREADS': expected an integer, got {raw!r}"
            ) from None
    return RunConfig.from_dict(doc)


def _meta(
    cfg: RunConfig,
    command: str,
    started: float,
    extra: dict | None = None,
    model: DelayModel | None = None,
) -> dict:
    """The run's meta.json record.  Given the model whose chains the command
    ran, quadrature.nodes_per_stage is the node count of a full-span stage
    at its rho (null where a closed form runs no chain)."""
    quadrature = {"m": cfg.quad_m, "L": L}
    if model is not None:
        quadrature["nodes_per_stage"] = nodes_per_stage(
            model.step_correlation(), cfg.quadrature()
        )
    meta = {
        "command": command,
        "config": cfg.to_dict(),
        "engine_version": __version__,
        "seed": cfg.seed,
        "quadrature": quadrature,
        "wall_time_s": time.time() - started,
    }
    if extra:
        meta.update(extra)
    return meta


def _percentile_row(cfg: RunConfig, model: DelayModel, values) -> tuple:
    """The percentiles.csv row (link, c, tau, s, values) of a config and the
    model it builds; s is the target sd, or the link's sd when the config
    gives direct parameters.  Finite values must not decrease in level."""
    finite = [v for v in values if math.isfinite(v)]
    if any(b < a for a, b in zip(finite, finite[1:])):
        raise ValueError("percentile values must be non-decreasing in level")
    c = model.correlation.time_constant(model.link)
    s = cfg.s if cfg.s is not None else marginal_moments(model.link)[1]
    return cfg.link_kind, c, cfg.tau, s, tuple(values)


# -- commands --------------------------------------------------------------


def cmd_calibrate(cfg: RunConfig) -> int:
    started = time.time()
    if cfg.mu is None:
        raise CalibrationError("calibrate requires target-based link config (mu, s)")
    model = cfg.model()
    link = model.link
    mean, sd = marginal_moments(link)
    result = {
        "mu_hat": link.mu_hat,
        "s_hat": link.s_hat,
        "achieved_mean": mean,
        "achieved_sd": sd,
        "mean_residual": mean - cfg.mu,
        "sd_residual": sd - cfg.s,
    }
    if model.correlation.c is not None:
        kappa = model.correlation.kappa
        ratio = lag_covariance(link, math.exp(-kappa * cfg.c)) / lag_covariance(link, 1.0)
        result["kappa"] = kappa
        result["cov_ratio"] = ratio
        result["cov_ratio_residual"] = ratio - math.exp(-1.0)
    print(json.dumps(result, indent=2))
    os.makedirs(cfg.out, exist_ok=True)
    write_meta_json(result, os.path.join(cfg.out, "calibration.json"))
    write_meta_json(_meta(cfg, "calibrate", started), os.path.join(cfg.out, "meta.json"))
    return EXIT_OK


def cmd_exact(cfg: RunConfig) -> int:
    started = time.time()
    model = cfg.model()
    spec = cfg.quadrature()
    t_values = cfg.t_grid.values()
    x_values = cfg.x_grid.values()
    grid = exact_ccdf_grid(model, t_values, x_values, spec, threads=cfg.threads)
    hm = heatmap(grid, cfg.delta)
    ev = TimeAverageEvaluator(model, spec, threads=cfg.threads)
    avg = ev.value(x_values)
    pct = percentiles(model, DEFAULT_LEVELS, spec, evaluator=ev)
    out = cfg.out
    write_ccdf_csv(grid, os.path.join(out, "ccdf.csv"))
    write_heatmap_csv(hm, os.path.join(out, "heatmap.csv"))
    write_timeavg_csv(x_values, avg, os.path.join(out, "timeavg.csv"))
    write_percentiles_csv([_percentile_row(cfg, model, pct)], os.path.join(out, "percentiles.csv"))
    write_meta_json(_meta(cfg, "exact", started, model=model), os.path.join(out, "meta.json"))
    return EXIT_OK


def cmd_simulate(cfg: RunConfig) -> int:
    started = time.time()
    model = cfg.model()
    t_values = cfg.t_grid.values()
    n_save = min(cfg.n_saved_paths, cfg.n_paths)
    emp = simulate_empirical_ccdf(
        model, t_values, cfg.x_grid.values(), cfg.n_paths, cfg.seed, n_saved=n_save
    )
    out = cfg.out
    write_ccdf_csv(emp.grid, os.path.join(out, "empirical_ccdf.csv"), stderr=emp.stderr)
    write_paths_csv(emp.ages, t_values, os.path.join(out, "paths.csv"))
    write_meta_json(_meta(cfg, "simulate", started), os.path.join(out, "meta.json"))
    return EXIT_OK


def cmd_compare(cfg: RunConfig) -> int:
    started = time.time()
    model = cfg.model()
    spec = cfg.quadrature()
    t_values = cfg.t_grid.values()
    x_values = cfg.x_grid.values()
    emp = simulate_empirical_ccdf(model, t_values, x_values, cfg.n_paths, cfg.seed)
    # The run's own model is a rung of the dominance ladder (kappa in ou
    # mode, else iid or frozen), and every rung's grid comes from one sweep.
    ladder = model.correlation.ladder()
    rungs = exact_ccdf_grid(
        [replace(model, correlation=corr) for _, corr in ladder],
        t_values, x_values, spec, threads=cfg.threads,
    )
    grids = [(label, g) for (label, _), g in zip(ladder, rungs)]
    grid = next(g for (_, corr), g in zip(ladder, rungs) if corr == model.correlation)
    diff = np.abs(grid.p - emp.grid.p)
    se = np.sqrt(grid.p * (1.0 - grid.p) / cfg.n_paths)
    z = np.where(diff <= 1e-9, 0.0, diff / np.maximum(se, 1e-300))
    frac_ok = float(np.mean(z <= 3.0))

    dominance = []
    all_dominant = True
    for (lo_label, lo), (hi_label, hi) in zip(grids, grids[1:]):
        violation = dominance_check(lo, hi)
        ok = violation <= 1e-6
        all_dominant &= ok
        dominance.append(
            {"low": lo_label, "high": hi_label, "passed": ok, "max_violation": violation}
        )
    passed = frac_ok >= 0.99 and all_dominant
    report = {
        "z_fraction_within_3": frac_ok,
        "max_z": float(z.max()),
        "dominance": dominance,
        "passed": passed,
    }
    print(json.dumps(report, indent=2))
    os.makedirs(cfg.out, exist_ok=True)
    write_meta_json(report, os.path.join(cfg.out, "compare_report.json"))
    write_meta_json(
        _meta(cfg, "compare", started, model=model), os.path.join(cfg.out, "meta.json")
    )
    return EXIT_OK if passed else EXIT_ACCEPTANCE


# Sweep parameter name -> RunConfig field.
_SWEEPABLE = {"c": "c", "tau": "tau", "s": "s", "link": "link_kind"}


def cmd_sweep(cfg: RunConfig, params: dict[str, list]) -> int:
    started = time.time()
    for name in params:
        if name not in _SWEEPABLE:
            raise UsageError(f"cannot sweep {name!r}; choose from {tuple(_SWEEPABLE)}")
    if cfg.mu is None:
        raise CalibrationError("sweep requires target-based link config (mu, s)")
    rows, failures = [], []
    spec = cfg.quadrature()
    for combo in itertools.product(*params.values()):
        setting = dict(zip(params, combo))
        changes = {_SWEEPABLE[n]: v for n, v in setting.items()}
        if "c" in changes:
            # A swept time constant replaces the config's correlation spec.
            changes.update(mode="ou", kappa=None)
        try:
            row = replace(cfg, **changes)
            model = row.model()
            pct = percentiles(model, DEFAULT_LEVELS, spec, threads=cfg.threads)
            rows.append(_percentile_row(row, model, pct))
        except (AoiLabError, ValueError, UsageError) as exc:  # keep sweeping
            kind = type(exc).__name__
            failures.append({"setting": setting, "type": kind, "error": str(exc)})
            print(f"sweep row failed: {setting}: {kind}: {exc}", file=sys.stderr)
    os.makedirs(cfg.out, exist_ok=True)
    write_percentiles_csv(rows, os.path.join(cfg.out, "percentiles.csv"))
    write_meta_json(
        _meta(cfg, "sweep", started, {"failures": failures, "n_rows": len(rows)}),
        os.path.join(cfg.out, "meta.json"),
    )
    return EXIT_PARTIAL_SWEEP if failures else EXIT_OK


# -- argument parsing -------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="aoi-lab",
        description="Transient age-of-information distributions for "
        "Gaussian-process delay models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("calibrate", "solve for link parameters and OU rate from targets"),
        ("exact", "exact CCDF grid, heatmap, time average, percentiles"),
        ("simulate", "Monte-Carlo sample paths and empirical CCDF"),
        ("compare", "exact-vs-simulation z-scores and dominance ladder"),
        ("sweep", "percentile rows over a parameter cross-product"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="simulation seed")
        p.add_argument("--threads", type=int, help="worker threads")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a config key (dotted path), repeatable",
        )
        if name == "sweep":
            p.add_argument(
                "--param",
                action="append",
                metavar="NAME=V1,V2,...",
                required=True,
                help="parameter values to sweep (c, tau, s, link); repeatable",
            )
    return parser


def _parse_sweep_values(text: str) -> tuple[str, list]:
    if "=" not in text:
        raise UsageError(f"--param expects NAME=V1,V2,..., got {text!r}")
    name, raw = text.split("=", 1)
    values = []
    for item in raw.split(","):
        item = item.strip()
        if name == "link":
            values.append(item)
        elif item == "inf":
            values.append(math.inf)
        else:
            values.append(float(item))
    return name, values


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        cfg = load_config(args)
        if args.command == "calibrate":
            return cmd_calibrate(cfg)
        if args.command == "exact":
            return cmd_exact(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "compare":
            return cmd_compare(cfg)
        if args.command == "sweep":
            params: dict[str, list] = {}
            for name, values in map(_parse_sweep_values, args.param):
                if name in params:
                    raise UsageError(f"--param {name!r} is given more than once")
                params[name] = values
            return cmd_sweep(cfg, params)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"aoi-lab: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OverflowError, OSError, json.JSONDecodeError) as exc:
        print(f"aoi-lab: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CalibrationError as exc:
        print(f"aoi-lab: calibration failed: {exc}", file=sys.stderr)
        return EXIT_CALIBRATION
    except EvaluationError as exc:
        print(f"aoi-lab: evaluation failed: {exc}", file=sys.stderr)
        return EXIT_EVALUATION


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
