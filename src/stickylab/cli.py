"""Experiment orchestration: named presets, config ingestion, CSV emission.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    NumericalFailureError,
    StickyLabError,
    TimeChangeRangeError,
)
from .market import CostModel, exp_price, liquidation_value, momentum_strategy, terminal_stats
from .pathgen import (
    BrownianMotion,
    Ensemble,
    FractionalBrownianMotion,
    SeedSpec,
    make_uniform_grid,
    sample_ensemble,
)
from .stickiness import StickinessQuery, estimate_stickiness, survival_ladder
from .stopping import parse_event, parse_rule
from .transforms import (
    AbsCubeRootOfMartingale,
    CosDriftExample,
    IdentityCap,
    NonStickyMartingale,
    PassageTimes,
    dds_brownianize,
    example_process,
    time_change,
)

__all__ = [
    "ExperimentConfig",
    "ResultTable",
    "PRESETS",
    "run_experiment",
    "emit_csv",
    "emit_plot_data",
    "main",
]

DEFAULT_SEED = 20240613

STICKINESS_COLUMNS = (
    "process", "H", "tau_rule", "event", "epsilon", "T", "n", "successes",
    "p_hat", "ci_low", "ci_high", "seed", "steps", "verdict",
)
LADDER_COLUMNS = ("process", "H", "tau_rule", "delta", "horizon", "fraction", "n", "seed", "steps")
MARKET_COLUMNS = (
    "strategy", "k", "n", "frac_nonneg", "frac_pos", "mean_VT", "std_VT", "min_VT", "flag", "seed",
)
DDS_COLUMNS = (
    "process", "sigma", "n", "qv_steps", "mean_du", "increment_var_ratio", "unit_qv_mean",
    "seed", "steps",
)

# salt for the independent shuffle stream of the momentum control
_SHUFFLE_SALT = 0x9E3779B97F4A7C15

# finite samples cannot certify positive probability; this convention travels
# with every stickiness verdict emitted
VERDICT_CONVENTION = (
    "POSITIVE iff successes >= 1 and Wilson lower bound > 0; "
    "ZERO iff successes = 0 (ci_high then carries the one-sided upper bound)"
)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    process: str = "bm"
    hurst: float = 0.75
    sigma: float = 1.0
    horizon: float = 1.0
    steps: int = 1024
    n_paths: int = 10_000
    master_seed: int = DEFAULT_SEED
    epsilon: float = 0.5
    query_horizon: float | None = None  # defaults to the grid horizon
    tau: str = "det:0"
    event: str = "all"
    rate: float = 0.0
    strategy: str = "momentum:0.1:1"
    delta: float = 0.5
    ladder: tuple[float, ...] = ()
    raw_price: bool = False
    output: str | None = None


@dataclass(frozen=True)
class ResultTable:
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    provenance: dict = field(default_factory=dict)


def _config_hash(config: ExperimentConfig) -> str:
    # the destination is not part of the experiment's identity
    payload = dataclasses.asdict(config)
    payload.pop("output", None)
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()[:16]


def _provenance(config: ExperimentConfig, **extra) -> dict:
    prov = {
        "config_hash": _config_hash(config),
        "seed": config.master_seed,
        "version": __version__,
    }
    prov.update(extra)
    return prov


# ------------------------------ process registry ------------------------------ #


def _process_spec(config: ExperimentConfig):
    name = config.process
    if name == "bm":
        return BrownianMotion(config.sigma)
    if name == "fbm":
        return FractionalBrownianMotion(config.hurst)
    if name == "nonsticky-martingale":
        return example_process(NonStickyMartingale())
    if name == "abs-cuberoot":
        return example_process(AbsCubeRootOfMartingale(BrownianMotion(config.sigma)))
    if name == "cos-drift":
        return example_process(CosDriftExample())
    raise ConfigError(f"unknown process name {name!r}")


def _ensemble(config: ExperimentConfig) -> Ensemble:
    grid = make_uniform_grid(config.horizon, config.steps)
    return sample_ensemble(_process_spec(config), grid, config.master_seed, config.n_paths)


def _hurst_cell(config: ExperimentConfig) -> object:
    return config.hurst if config.process == "fbm" else ""


# ------------------------------ experiment runners ------------------------------ #


def _stickiness_row(config: ExperimentConfig, ensemble: Ensemble, process: str) -> tuple:
    horizon = config.query_horizon if config.query_horizon is not None else ensemble.grid.horizon
    query = StickinessQuery(
        tau=parse_rule(config.tau),
        horizon=horizon,
        epsilon=config.epsilon,
        event=parse_event(config.event),
    )
    est = estimate_stickiness(ensemble, query)
    # ZERO verdicts report the one-sided upper bound, per the convention
    upper = est.zero_upper if est.successes == 0 else est.ci_high
    return (
        process, _hurst_cell(config), config.tau, config.event, config.epsilon,
        horizon, est.n, est.successes, est.p_hat, est.ci_low, upper,
        config.master_seed, config.steps, est.verdict,
    )


def _run_stickiness(config: ExperimentConfig) -> ResultTable:
    ensemble = _ensemble(config)
    row = _stickiness_row(config, ensemble, config.process)
    return ResultTable(
        STICKINESS_COLUMNS, (row,), _provenance(config, verdict_convention=VERDICT_CONVENTION)
    )


def _run_ladder(config: ExperimentConfig) -> ResultTable:
    ensemble = _ensemble(config)
    horizons = config.ladder or (config.horizon / 4.0, config.horizon / 2.0, config.horizon)
    fractions = survival_ladder(ensemble, parse_rule(config.tau), config.delta, horizons)
    rows = tuple(
        (config.process, _hurst_cell(config), config.tau, config.delta, h, f,
         ensemble.n_paths, config.master_seed, config.steps)
        for h, f in zip(horizons, fractions)
    )
    return ResultTable(LADDER_COLUMNS, rows, _provenance(config))


def _parse_strategy(text: str):
    parts = text.split(":")
    if parts[0] != "momentum" or len(parts) != 3:
        raise ConfigError(f"unknown strategy {text!r}; expected momentum:<threshold>:<unit>")
    try:
        return float(parts[1]), float(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad strategy parameters in {text!r}") from exc


def _run_portfolio(config: ExperimentConfig) -> ResultTable:
    threshold, unit = _parse_strategy(config.strategy)
    ensemble = _ensemble(config)
    cost = CostModel(rate=config.rate)
    terminal = np.empty(ensemble.n_paths)
    for i in range(ensemble.n_paths):
        signal = ensemble.path(i)
        price = signal if config.raw_price else exp_price(signal)
        strat = momentum_strategy(price, threshold, unit)
        terminal[i] = liquidation_value(strat, price, cost).terminal
    stats = terminal_stats(terminal)
    row = (
        config.strategy, config.rate, stats.n, stats.frac_nonnegative,
        stats.frac_strictly_positive, stats.mean_terminal, stats.std_terminal,
        stats.min_terminal, stats.flag, config.master_seed,
    )
    return ResultTable(MARKET_COLUMNS, (row,), _provenance(config))


def _run_generate(config: ExperimentConfig) -> ResultTable:
    ensemble = _ensemble(config)
    columns = ("t",) + tuple(f"x_{i}" for i in range(ensemble.n_paths))
    rows = tuple(
        (t,) + tuple(ensemble.values[:, k])
        for k, t in enumerate(ensemble.grid.times)
    )
    return ResultTable(columns, rows, _provenance(config))


# ------------------------------ presets ------------------------------ #


def _preset_passage_counterexample(config: ExperimentConfig) -> ResultTable:
    # Ramp built from observed passage times; paths that never attain some
    # level within the horizon cannot be constructed and are excluded, with
    # the exclusion count recorded in provenance.
    grid = make_uniform_grid(config.horizon, config.steps)
    nu = PassageTimes(np.linspace(0.0, 0.5, 11))
    base = sample_ensemble(BrownianMotion(1.0), grid, config.master_seed, config.n_paths)
    rows = []
    excluded = 0
    for i in range(base.n_paths):
        try:
            rows.append(time_change(base.path(i), nu).values)
        except TimeChangeRangeError:
            excluded += 1
    if not rows:
        raise NumericalFailureError("no path attained the full level schedule")
    ramp = Ensemble(nu.grid, np.stack(rows), config.master_seed, "passage-ramp")
    row = _stickiness_row(
        dataclasses.replace(config, query_horizon=0.5), ramp, "passage-ramp"
    )
    return ResultTable(
        STICKINESS_COLUMNS,
        (row,),
        _provenance(
            config,
            requested_paths=config.n_paths,
            excluded_paths=excluded,
            verdict_convention=VERDICT_CONVENTION,
        ),
    )


def _preset_timechange_cap(config: ExperimentConfig) -> ResultTable:
    grid = make_uniform_grid(config.horizon, config.steps)
    base = sample_ensemble(
        FractionalBrownianMotion(config.hurst), grid, config.master_seed, config.n_paths
    )
    cap = IdentityCap(0.5)
    values = np.stack([time_change(base.path(i), cap).values for i in range(base.n_paths)])
    capped = Ensemble(grid, values, config.master_seed, "fbm-capped")
    row = _stickiness_row(config, capped, "fbm-capped")
    return ResultTable(
        STICKINESS_COLUMNS, (row,), _provenance(config, verdict_convention=VERDICT_CONVENTION)
    )


def _preset_dds_check(config: ExperimentConfig) -> ResultTable:
    qv_steps = 256
    ensemble = _ensemble(config)
    ratios = np.empty(ensemble.n_paths)
    unit_qv = np.empty(ensemble.n_paths)
    dus = np.empty(ensemble.n_paths)
    for i in range(ensemble.n_paths):
        out = dds_brownianize(ensemble.path(i), qv_steps)
        du = out.grid.times[1] - out.grid.times[0]
        increments = np.diff(out.values)
        ratios[i] = increments.var() / du
        k = out.grid.last_index_at_or_before(1.0)
        unit_qv[i] = float(np.sum(np.diff(out.values[: k + 1]) ** 2))
        dus[i] = du
    row = (
        config.process, config.sigma, ensemble.n_paths, qv_steps, float(dus.mean()),
        float(ratios.mean()), float(unit_qv.mean()), config.master_seed, config.steps,
    )
    return ResultTable(DDS_COLUMNS, (row,), _provenance(config))


def _pooled_shuffle(ensemble: Ensemble, master_seed: int) -> Ensemble:
    # Redeal the increments pooled across all paths: iid-like control that
    # keeps the increment marginals but destroys serial correlation. A
    # within-path permutation would preserve each path's terminal
    # displacement, which trend-following captures regardless of correlation.
    rng = SeedSpec((master_seed ^ _SHUFFLE_SALT) % 2**64, 0).generator()
    increments = np.diff(ensemble.values, axis=1)
    flat = increments.ravel()
    redealt = flat[rng.permutation(flat.size)].reshape(increments.shape)
    values = np.concatenate(
        (np.zeros((ensemble.n_paths, 1)), np.cumsum(redealt, axis=1)), axis=1
    )
    return Ensemble(ensemble.grid, values, ensemble.master_seed, "shuffled-control")


def _preset_costs_momentum(config: ExperimentConfig) -> ResultTable:
    # Two experiments off one ensemble: the cost-erosion pair trades the
    # strictly positive exponential price; the correlation-edge pair trades
    # the raw signal (k = 0, so no cost terms) against the pooled-shuffle
    # control whose mean is expected to sit at zero.
    threshold, unit = _parse_strategy(config.strategy)
    ensemble = _ensemble(config)
    control = _pooled_shuffle(ensemble, config.master_seed)
    v_free = np.empty(ensemble.n_paths)
    v_cost = np.empty(ensemble.n_paths)
    v_raw = np.empty(ensemble.n_paths)
    v_control = np.empty(ensemble.n_paths)
    for i in range(ensemble.n_paths):
        signal = ensemble.path(i)
        price = exp_price(signal)
        strat = momentum_strategy(price, threshold, unit)
        v_free[i] = liquidation_value(strat, price, CostModel(0.0)).terminal
        v_cost[i] = liquidation_value(strat, price, CostModel(config.rate)).terminal
        raw_strat = momentum_strategy(signal, threshold, unit)
        v_raw[i] = liquidation_value(raw_strat, signal, CostModel(0.0)).terminal
        control_path = control.path(i)
        control_strat = momentum_strategy(control_path, threshold, unit)
        v_control[i] = liquidation_value(control_strat, control_path, CostModel(0.0)).terminal
    rows = []
    for name, rate, terminal in (
        ("momentum", 0.0, v_free),
        ("momentum", config.rate, v_cost),
        ("momentum-raw", 0.0, v_raw),
        ("momentum-raw-shuffled", 0.0, v_control),
    ):
        stats = terminal_stats(terminal)
        rows.append(
            (name, rate, stats.n, stats.frac_nonnegative, stats.frac_strictly_positive,
             stats.mean_terminal, stats.std_terminal, stats.min_terminal, stats.flag,
             config.master_seed)
        )
    return ResultTable(MARKET_COLUMNS, tuple(rows), _provenance(config))


PRESETS: dict[str, ExperimentConfig] = {
    "paper-nonsticky": ExperimentConfig(
        experiment="paper-nonsticky", process="nonsticky-martingale",
        epsilon=1.0, tau="det:0", horizon=1.0, steps=1024,
    ),
    "fbm-sticky": ExperimentConfig(
        experiment="fbm-sticky", process="fbm", hurst=0.75, epsilon=0.5, tau="det:0",
    ),
    "timechange-cap": ExperimentConfig(
        experiment="timechange-cap", process="fbm", hurst=0.75, epsilon=0.5,
    ),
    "passage-counterexample": ExperimentConfig(
        experiment="passage-counterexample", process="bm", horizon=32.0, steps=8192,
        epsilon=0.25, tau="det:0", query_horizon=0.5,
    ),
    "dds-check": ExperimentConfig(
        experiment="dds-check", process="bm", sigma=2.0, steps=4096, n_paths=1000,
    ),
    "cos-drift": ExperimentConfig(
        experiment="cos-drift", process="cos-drift", epsilon=0.5,
    ),
    "abs-cuberoot": ExperimentConfig(
        experiment="abs-cuberoot", process="abs-cuberoot", epsilon=0.9,
    ),
    "costs-fbm-momentum": ExperimentConfig(
        experiment="costs-fbm-momentum", process="fbm", hurst=0.75, rate=0.01,
        strategy="momentum:0.1:1",
    ),
}

_PRESET_RUNNERS = {
    "paper-nonsticky": _run_stickiness,
    "fbm-sticky": _run_stickiness,
    "timechange-cap": _preset_timechange_cap,
    "passage-counterexample": _preset_passage_counterexample,
    "dds-check": _preset_dds_check,
    "cos-drift": _run_stickiness,
    "abs-cuberoot": _run_stickiness,
    "costs-fbm-momentum": _preset_costs_momentum,
}

_EXPERIMENT_RUNNERS = {
    "stickiness": _run_stickiness,
    "ladder": _run_ladder,
    "portfolio": _run_portfolio,
    "generate": _run_generate,
}


def run_experiment(config: ExperimentConfig) -> ResultTable:
    """Run a subcommand experiment or a named preset; deterministic per config."""
    runner = _EXPERIMENT_RUNNERS.get(config.experiment) or _PRESET_RUNNERS.get(config.experiment)
    if runner is None:
        raise ConfigError(f"unknown experiment {config.experiment!r}")
    return runner(config)


# ------------------------------ emission ------------------------------ #


def _format_cell(value) -> str:
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _atomic_write(dest: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(dest))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, dest)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def render_csv(table: ResultTable) -> str:
    lines = [f"# {key}={table.provenance[key]}" for key in sorted(table.provenance)]
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(_format_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def emit_csv(table: ResultTable, dest: str) -> None:
    """Write provenance comments, header, and rows; atomically."""
    _atomic_write(dest, render_csv(table))


def emit_plot_data(table: ResultTable, x_column: str, y_column: str, dest: str) -> None:
    """Two-column CSV sorted by the x column."""
    for name in (x_column, y_column):
        if name not in table.columns:
            raise ConfigError(f"column {name!r} not in table columns {table.columns}")
    xi = table.columns.index(x_column)
    yi = table.columns.index(y_column)
    rows = sorted(table.rows, key=lambda row: row[xi])
    lines = [f"{x_column},{y_column}"]
    lines.extend(f"{_format_cell(row[xi])},{_format_cell(row[yi])}" for row in rows)
    _atomic_write(dest, "\n".join(lines) + "\n")


# ------------------------------ config ingestion ------------------------------ #


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(raw, dict) or not raw:
        raise ConfigError(f"config file {path} must be a nonempty JSON object")
    for section, kinds, what in (
        ("process", (str, dict), "a string or a JSON object"),
        ("grid", dict, "a JSON object"),
        ("experiment", (str, dict), "a string or a JSON object"),
    ):
        if section in raw and not isinstance(raw[section], kinds):
            raise ConfigError(f"config file {path}: {section!r} must be {what}")
    try:
        return _config_fields(raw)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"config file {path}: bad value: {exc}") from exc


def _config_fields(raw: dict) -> dict:
    merged: dict = {}
    process = raw.get("process")
    if isinstance(process, str):
        merged["process"] = process
    elif isinstance(process, dict):
        merged["process"] = process.get("name", "bm")
        if "hurst" in process:
            merged["hurst"] = float(process["hurst"])
        if "sigma" in process:
            merged["sigma"] = float(process["sigma"])
    grid = raw.get("grid", {})
    if "horizon" in grid:
        merged["horizon"] = float(grid["horizon"])
    if "steps" in grid:
        merged["steps"] = int(grid["steps"])
    experiment = raw.get("experiment")
    if isinstance(experiment, str):
        merged["experiment"] = experiment
    elif isinstance(experiment, dict):
        merged["experiment"] = experiment.get("kind", "stickiness")
        for key in ("epsilon", "rate", "delta"):
            if key in experiment:
                merged[key] = float(experiment[key])
        for key in ("tau", "event", "strategy"):
            if key in experiment:
                merged[key] = str(experiment[key])
        if "T" in experiment:
            merged["query_horizon"] = float(experiment["T"])
        if "ladder" in experiment:
            merged["ladder"] = tuple(float(h) for h in experiment["ladder"])
    if "seed" in raw:
        merged["master_seed"] = int(raw["seed"])
    if "paths" in raw:
        merged["n_paths"] = int(raw["paths"])
    if "output" in raw:
        merged["output"] = str(raw["output"])
    return merged


_FLAG_FIELDS = {
    "process": "process",
    "hurst": "hurst",
    "sigma": "sigma",
    "epsilon": "epsilon",
    "horizon": "horizon",
    "steps": "steps",
    "paths": "n_paths",
    "seed": "master_seed",
    "tau": "tau",
    "event": "event",
    "k": "rate",
    "strategy": "strategy",
    "delta": "delta",
    "out": "output",
    "big_t": "query_horizon",
}


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """The experiment's base (a preset, or the subcommand's defaults) with the
    config file's values and then the flags actually passed on top."""
    preset = PRESETS[args.preset] if args.command == "experiment" else None
    values: dict = {}
    if getattr(args, "config", None):
        values.update(_load_config_file(args.config))
        values.pop("experiment", None)
    if preset is not None:
        # no preset reads these, so accepting them would silently ignore them
        if getattr(args, "raw_price", False):
            raise ConfigError(f"preset {preset.experiment!r} does not read --raw-price")
        if getattr(args, "ladder", None):
            raise ConfigError(f"preset {preset.experiment!r} does not read --ladder")
        if "ladder" in values:
            raise ConfigError(
                f"preset {preset.experiment!r} does not read the config field 'ladder'"
            )
    for flag, fieldname in _FLAG_FIELDS.items():
        value = getattr(args, flag, None)
        if value is not None:
            values[fieldname] = value
    if getattr(args, "ladder", None):
        try:
            values["ladder"] = tuple(float(h) for h in args.ladder.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad ladder {args.ladder!r}") from exc
    if getattr(args, "raw_price", False):
        values["raw_price"] = True
    return dataclasses.replace(preset or ExperimentConfig(experiment=args.command), **values)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--process", choices=["bm", "fbm", "nonsticky-martingale",
                                              "abs-cuberoot", "cos-drift"])
    parser.add_argument("--hurst", type=float)
    parser.add_argument("--sigma", type=float)
    parser.add_argument("--epsilon", type=float)
    parser.add_argument("--horizon", type=float)
    parser.add_argument("--big-t", dest="big_t", type=float,
                        help="stickiness window end T (defaults to the grid horizon)")
    parser.add_argument("--steps", type=int)
    parser.add_argument("--paths", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--tau")
    parser.add_argument("--event")
    parser.add_argument("--k", type=float)
    parser.add_argument("--strategy")
    parser.add_argument("--delta", type=float)
    parser.add_argument("--ladder", help="comma-separated survival horizons")
    parser.add_argument("--raw-price", action="store_true",
                        help="trade the raw signal instead of its exponential")
    parser.add_argument("--out")
    parser.add_argument("--config", help="JSON config file; flags override its values")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stickylab",
        description="Monte Carlo experiments on sticky processes and cost-aware portfolios",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("generate", "stickiness", "ladder", "portfolio"):
        _add_common_flags(sub.add_parser(name))
    exp = sub.add_parser("experiment")
    exp.add_argument("preset", choices=sorted(PRESETS))
    _add_common_flags(exp)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        table = run_experiment(config)
    except (ConfigError, StickyLabError) as exc:
        if isinstance(exc, NumericalFailureError):
            print(f"stickylab: numerical failure: {exc}", file=sys.stderr)
            return 3
        print(f"stickylab: configuration error: {exc}", file=sys.stderr)
        return 2
    dest = config.output or f"{config.experiment}.csv"
    try:
        emit_csv(table, dest)
    except OSError as exc:
        print(f"stickylab: cannot write {dest}: {exc}", file=sys.stderr)
        return 4
    print(f"wrote {dest} ({len(table.rows)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
