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
from collections import namedtuple
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import ConfigError, NumericalFailureError, StickyLabError
from .market import CostModel, exp_price, liquidation_value, momentum_strategy, terminal_stats
from .pathgen import (
    BrownianMotion,
    Ensemble,
    FractionalBrownianMotion,
    ProcessSpec,
    SeedSpec,
    TimeGrid,
    _brownian_rows,
    _count,
    _empty,
    _row_blocks,
    make_uniform_grid,
    sample_ensemble,
)
from .stickiness import (StickinessEstimate, StickinessQuery, _check_ladder, _check_window_end,
                         estimate_stickiness, survival_ladder)
from .stopping import parse_event, parse_rule
from .transforms import (
    AbsCubeRootOfMartingale,
    CosDriftExample,
    IdentityCap,
    NonStickyMartingale,
    PassageTimes,
    dds_brownianize,
    time_change,
)

__all__ = [
    "ExperimentConfig",
    "ResultTable",
    "PRESETS",
    "run_experiment",
    "emit_csv",
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

# rows per block of the market layer and the streamed presets: a 64 x 1025
# float64 block (0.5 MB) and its temporaries fit in L2
_BLOCK_ROWS = 64

# the most bytes of path values one streamed run may draw, what a 47-bit address
# space holds: the run never holds them, but a larger one would take days, and
# it exited 2 for want of memory when the runs still held their ensembles
_MAX_ENSEMBLE_BYTES = 2**47

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

    def __post_init__(self):
        # each value goes through the validator of what it feeds, here, so a
        # bad one is refused before any ensemble is sampled
        _count(self.n_paths, "n_paths")
        if any(c in text for text in (self.tau, self.event, self.strategy) for c in '\n\r,"'):
            raise ConfigError("tau, event and strategy must hold no line break, comma or quote")
        _stickiness_query(self, self.horizon)
        _check_window_end(self.query_horizon, self.horizon)
        _check_ladder(self.ladder or (self.horizon,), self.delta)  # delta, even with no ladder
        _check_window_end(max(self.ladder, default=None), self.horizon)
        _parse_strategy(self.strategy)
        CostModel(self.rate)
        if self.output == "":
            raise ConfigError("the output path must not be empty")


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


# process name -> the spec it samples
_PROCESSES = {
    "bm": lambda c: BrownianMotion(c.sigma),
    "fbm": lambda c: FractionalBrownianMotion(c.hurst),
    "nonsticky-martingale": lambda c: NonStickyMartingale(),
    "abs-cuberoot": lambda c: AbsCubeRootOfMartingale(BrownianMotion(c.sigma)),
    "cos-drift": lambda c: CosDriftExample(),
}
# process name -> the settings its spec reads
_PROCESS_READS = {"bm": ("sigma",), "fbm": ("hurst",), "abs-cuberoot": ("sigma",)}


def _grid_and_spec(config: ExperimentConfig) -> tuple[TimeGrid, ProcessSpec]:
    grid = make_uniform_grid(config.horizon, config.steps)
    if config.process not in _PROCESSES:
        raise ConfigError(f"unknown process name {config.process!r}")
    if config.n_paths * grid.n_points * 8 > _MAX_ENSEMBLE_BYTES:
        raise ConfigError(f"{config.n_paths} paths x {grid.n_points} points exceed the "
                          f"{_MAX_ENSEMBLE_BYTES} bytes one run may draw")
    return grid, _PROCESSES[config.process](config)


def _ensemble_blocks(config: ExperimentConfig,
                     head: TimeGrid | None = None) -> Iterator[tuple[slice, Ensemble]]:
    """The config's ensemble as ``(rows, block)`` pairs in path order: blocks of
    ``_BLOCK_ROWS`` rows, each drawn only once the previous one has been
    consumed, so the whole ensemble is never held. Each block is
    bit-identical to those rows of the whole ensemble; drawn on ``head``, a
    start of the config's grid, when given."""
    grid, spec = _grid_and_spec(config)
    grid = grid if head is None else head
    for rows in _row_blocks(config.n_paths, rows=_BLOCK_ROWS):
        yield rows, sample_ensemble(spec, grid, config.master_seed, rows.stop - rows.start,
                                    first=rows.start)


def _process_cell(config: ExperimentConfig, name: str) -> object:
    return getattr(config, name) if name in _PROCESS_READS.get(config.process, ()) else ""


# ------------------------------ experiment runners ------------------------------ #


def _stickiness_query(config: ExperimentConfig, span: float) -> StickinessQuery:
    """The config's query; T is the config's, else the grid ``span``."""
    horizon = config.query_horizon if config.query_horizon is not None else span
    return StickinessQuery(tau=parse_rule(config.tau), horizon=horizon, epsilon=config.epsilon,
                           event=parse_event(config.event))


def _stickiness_row(config: ExperimentConfig, est: StickinessEstimate, process: str,
                    **extra) -> ResultTable:
    """One ``STICKINESS_COLUMNS`` row, with the verdict convention and ``extra``
    in the provenance."""
    # ZERO verdicts report the one-sided upper bound, per the convention
    upper = est.zero_upper if est.successes == 0 else est.ci_high
    row = (
        process, _process_cell(config, "hurst"), config.tau, config.event, config.epsilon,
        est.query.horizon, est.n, est.successes, est.p_hat, est.ci_low, upper,
        config.master_seed, config.steps, est.verdict,
    )
    prov = _provenance(config, verdict_convention=VERDICT_CONVENTION, **extra)
    return ResultTable(STICKINESS_COLUMNS, (row,), prov)


def _run_stickiness(config: ExperimentConfig) -> ResultTable:
    est = estimate_stickiness((block for _, block in _ensemble_blocks(config)),
                              _stickiness_query(config, config.horizon))
    return _stickiness_row(config, est, config.process)


def _run_ladder(config: ExperimentConfig) -> ResultTable:
    horizons = config.ladder or (config.horizon / 4.0, config.horizon / 2.0, config.horizon)
    fractions = survival_ladder((block for _, block in _ensemble_blocks(config)),
                                parse_rule(config.tau), config.delta, horizons)
    rows = tuple(
        (config.process, _process_cell(config, "hurst"), config.tau, config.delta, h, f,
         config.n_paths, config.master_seed, config.steps)
        for h, f in zip(horizons, fractions)
    )
    return ResultTable(LADDER_COLUMNS, rows, _provenance(config))


def _parse_strategy(text: str):
    parts = text.split(":")
    if parts[0] != "momentum" or len(parts) != 3:
        raise ConfigError(f"unknown strategy {text!r}; expected momentum:<threshold>:<unit>")
    try:
        threshold, unit = float(parts[1]), float(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad strategy parameters in {text!r}") from exc
    if not all(np.isfinite(v) and v > 0.0 for v in (threshold, unit)):
        raise ConfigError(f"strategy threshold and unit must be positive and finite in {text!r}")
    return threshold, unit


def _momentum_terminals(block: Ensemble, threshold: float, unit: float,
                        rates: tuple[float, ...], exp: bool) -> np.ndarray:
    """Terminal liquidation values, ``(len(rates), n_paths)``, of momentum trading
    each path of a block of at most ``_BLOCK_ROWS`` rows (its exponential when
    ``exp``) at each cost rate."""
    terminal = np.empty((len(rates), block.n_paths))
    price = exp_price(block) if exp else block
    strategy = momentum_strategy(price, threshold, unit)
    for k, rate in enumerate(rates):
        terminal[k] = liquidation_value(strategy, price, CostModel(rate)).terminal
    return terminal


def _market_row(strategy: str, rate: float, terminal: np.ndarray, seed: int) -> tuple:
    """One ``MARKET_COLUMNS`` row from the terminal liquidation values."""
    stats = terminal_stats(terminal)
    return (
        strategy, rate, stats.n, stats.frac_nonnegative, stats.frac_strictly_positive,
        stats.mean_terminal, stats.std_terminal, stats.min_terminal, stats.flag, seed,
    )


def _run_portfolio(config: ExperimentConfig) -> ResultTable:
    threshold, unit = _parse_strategy(config.strategy)
    terminal = _empty(config.n_paths)
    for rows, block in _ensemble_blocks(config):
        (terminal[rows],) = _momentum_terminals(block, threshold, unit, (config.rate,),
                                                exp=not config.raw_price)
    row = _market_row(config.strategy, config.rate, terminal, config.master_seed)
    return ResultTable(MARKET_COLUMNS, (row,), _provenance(config))


def _run_generate(config: ExperimentConfig) -> ResultTable:
    grid, spec = _grid_and_spec(config)
    ensemble = sample_ensemble(spec, grid, config.master_seed, config.n_paths)
    columns = ("t",) + tuple(f"x_{i}" for i in range(ensemble.n_paths))
    rows = tuple(zip(ensemble.grid.times, *ensemble.values))
    return ResultTable(columns, rows, _provenance(config))


# ------------------------------ presets ------------------------------ #


def _kept_ramps(config: ExperimentConfig, nu: PassageTimes) -> Iterator[Ensemble]:
    """The ramps built from each block's observed passage times; a path that never
    attains some level within the horizon cannot be built and is excluded (the
    preset records how many). ``NumericalFailureError`` when no path is kept."""
    grid, spec = _grid_and_spec(config)
    # A Brownian path is drawn until it passes the top level: 256 steps (62% of the
    # preset's paths pass), then, for the rows short of it, twice the steps a round
    # (the first redraws the 256). These are the whole path's first points.
    steps = [min(256, grid.n_steps) if isinstance(spec, BrownianMotion) else grid.n_steps]
    while steps[-1] < grid.n_steps:
        steps.append(min(2 * steps[-1], grid.n_steps))
    head, *rounds = (TimeGrid(grid.times[: k + 1]) for k in steps)
    any_kept = False
    for rows, block in _ensemble_blocks(config, head):
        ramp, kept = time_change(block, nu)
        short = np.flatnonzero(~kept)  # the block's rows short of the top level
        values, states = np.zeros((len(short), 1)), np.empty(len(short), dtype=object)
        for part_grid in rounds:
            if not len(short):
                break
            part = _empty(len(short), part_grid.n_points)
            part[:, : values.shape[1]] = values
            _brownian_rows(part_grid, config.master_seed, spec.volatility, rows.start + short,
                           part, values.shape[1], states)
            ramp[short], passed = time_change(Ensemble(part_grid, part, config.master_seed), nu)
            kept[short] = passed
            short, values, states = short[~passed], part[~passed], states[~passed]
        if kept.any():
            any_kept = True
            yield Ensemble(nu.grid, ramp[kept], config.master_seed)
    if not any_kept:
        raise NumericalFailureError("no path attained the full level schedule")


def _preset_passage_counterexample(config: ExperimentConfig) -> ResultTable:
    nu = PassageTimes(np.linspace(0.0, 0.5, 11))
    _check_window_end(config.query_horizon, nu.grid.horizon)
    est = estimate_stickiness(_kept_ramps(config, nu), _stickiness_query(config, nu.grid.horizon))
    return _stickiness_row(config, est, "passage-ramp", requested_paths=config.n_paths,
                           excluded_paths=config.n_paths - est.n)


def _preset_timechange_cap(config: ExperimentConfig) -> ResultTable:
    cap = IdentityCap(0.5)
    est = estimate_stickiness((time_change(block, cap) for _, block in _ensemble_blocks(config)),
                              _stickiness_query(config, config.horizon))
    return _stickiness_row(config, est, f"{config.process}-capped")


def _preset_dds_check(config: ExperimentConfig) -> ResultTable:
    qv_steps = 256
    ratios, unit_qv, dus = (_empty(config.n_paths) for _ in range(3))
    for rows, block in _ensemble_blocks(config):
        for i in range(rows.start, rows.stop):
            out = dds_brownianize(block.path(i - rows.start), qv_steps)
            du = out.grid.times[1] - out.grid.times[0]
            increments = np.diff(out.values)
            ratios[i] = increments.var() / du
            k = out.grid.last_index_at_or_before(1.0)
            unit_qv[i] = float(np.sum(np.diff(out.values[: k + 1]) ** 2))
            dus[i] = du
    row = (
        config.process, _process_cell(config, "sigma"), config.n_paths, qv_steps,
        float(dus.mean()), float(ratios.mean()), float(unit_qv.mean()), config.master_seed,
        config.steps,
    )
    return ResultTable(DDS_COLUMNS, (row,), _provenance(config))


def _control_blocks(grid: TimeGrid, increments: np.ndarray,
                    master_seed: int) -> Iterator[tuple[slice, Ensemble]]:
    """Shuffle ``increments``, ``(n_paths, n_steps)``, in place, pooled across all
    paths, and yield the control paths they sum to as ``(rows, block)`` pairs
    of ``_BLOCK_ROWS`` rows, each a new array.

    Redealing the pooled increments gives an iid-like control that keeps the
    increment marginals but destroys serial correlation. A within-path
    permutation would preserve each path's terminal displacement, which
    trend-following captures regardless of correlation."""
    rng = SeedSpec((master_seed ^ _SHUFFLE_SALT) % 2**64, 0).generator()
    rng.shuffle(increments.ravel())  # in place: rng.permutation of the flat array, no copy
    for rows in _row_blocks(len(increments), rows=_BLOCK_ROWS):
        block = np.zeros((rows.stop - rows.start, grid.n_points))
        np.cumsum(increments[rows], axis=1, out=block[:, 1:])
        yield rows, Ensemble(grid, block, master_seed, "shuffled-control")


def _pooled_shuffle(ensemble: Ensemble, master_seed: int) -> Ensemble:
    """The whole control of ``_control_blocks`` for one held ensemble."""
    values = np.empty(ensemble.values.shape)
    for rows, block in _control_blocks(ensemble.grid, np.diff(ensemble.values, axis=1),
                                       master_seed):
        values[rows] = block.values
    return Ensemble(ensemble.grid, values, ensemble.master_seed, "shuffled-control")


def _preset_costs_momentum(config: ExperimentConfig) -> ResultTable:
    # Two experiments off one ensemble: the cost-erosion pair trades the
    # strictly positive exponential price; the correlation-edge pair trades
    # the raw signal (k = 0, so no cost terms) against the pooled-shuffle
    # control whose mean is expected to sit at zero. The ensemble is streamed
    # in row blocks; only its increments, which the shuffle pools, are held.
    threshold, unit = _parse_strategy(config.strategy)
    increments = _empty(config.n_paths, config.steps)
    v_free, v_cost, v_raw, v_control = terminals = np.empty((4, config.n_paths))
    for rows, block in _ensemble_blocks(config):
        terminals[:2, rows] = _momentum_terminals(block, threshold, unit, (0.0, config.rate),
                                                  exp=True)
        terminals[2:3, rows] = _momentum_terminals(block, threshold, unit, (0.0,), exp=False)
        np.subtract(block.values[:, 1:], block.values[:, :-1], out=increments[rows])
    grid, _ = _grid_and_spec(config)
    for rows, block in _control_blocks(grid, increments, config.master_seed):
        terminals[3:, rows] = _momentum_terminals(block, threshold, unit, (0.0,), exp=False)
    rows = tuple(
        _market_row(name, rate, terminal, config.master_seed)
        for name, rate, terminal in (
            ("momentum", 0.0, v_free),
            ("momentum", config.rate, v_cost),
            ("momentum-raw", 0.0, v_raw),
            ("momentum-raw-shuffled", 0.0, v_control),
        )
    )
    return ResultTable(MARKET_COLUMNS, rows, _provenance(config))


# experiment name (a subcommand or a preset) -> its runner, the settings it reads
# besides the process, grid, seed, paths and output (_QUERY: a stickiness query)
# and, for a preset, the settings it pins (None: a subcommand, on the defaults)
_Experiment = namedtuple("_Experiment", "runner reads pins", defaults=(None,))
_QUERY = ("epsilon", "query_horizon", "tau", "event")
_RUNNERS = {
    "generate": _Experiment(_run_generate, ()),
    "stickiness": _Experiment(_run_stickiness, _QUERY),
    "ladder": _Experiment(_run_ladder, ("tau", "delta", "ladder")),
    "portfolio": _Experiment(_run_portfolio, ("rate", "strategy", "raw_price")),
    "paper-nonsticky": _Experiment(_run_stickiness, _QUERY, dict(
        process="nonsticky-martingale", epsilon=1.0, tau="det:0", horizon=1.0, steps=1024)),
    "fbm-sticky": _Experiment(_run_stickiness, _QUERY,
                              dict(process="fbm", hurst=0.75, epsilon=0.5, tau="det:0")),
    "timechange-cap": _Experiment(_preset_timechange_cap, _QUERY,
                                  dict(process="fbm", hurst=0.75, epsilon=0.5)),
    "passage-counterexample": _Experiment(_preset_passage_counterexample, _QUERY, dict(
        process="bm", horizon=32.0, steps=8192, epsilon=0.25, tau="det:0", query_horizon=0.5)),
    "dds-check": _Experiment(_preset_dds_check, (),
                             dict(process="bm", sigma=2.0, steps=4096, n_paths=1000)),
    "cos-drift": _Experiment(_run_stickiness, _QUERY, dict(process="cos-drift", epsilon=0.5)),
    "abs-cuberoot": _Experiment(_run_stickiness, _QUERY,
                                dict(process="abs-cuberoot", epsilon=0.9)),
    "costs-fbm-momentum": _Experiment(_preset_costs_momentum, ("rate", "strategy"), dict(
        process="fbm", hurst=0.75, rate=0.01, strategy="momentum:0.1:1")),
}
PRESETS: dict[str, ExperimentConfig] = {
    name: ExperimentConfig(name, **e.pins) for name, e in _RUNNERS.items() if e.pins is not None
}


def run_experiment(config: ExperimentConfig) -> ResultTable:
    """Run a subcommand experiment or a named preset; deterministic per config."""
    if config.experiment not in _RUNNERS:
        raise ConfigError(f"unknown experiment {config.experiment!r}")
    return _RUNNERS[config.experiment].runner(config)


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
    umask = os.umask(0o077)  # read by setting it; restored at once
    os.umask(umask)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            os.chmod(tmp, 0o666 & ~umask)  # what open(dest, "w") gives a new file; mkstemp: 0600
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


# ------------------------------ config ingestion ------------------------------ #


# Each setting once: its flag (None: config files only), ExperimentConfig field,
# config-file section (None: top level) and key (None: flag only), JSON type
# (tuple: a list of numbers; bool: a bare flag) and help. A section given as a
# string sets its first key when that takes a string: "process": "fbm".
_Setting = namedtuple("_Setting", "flag field section key kind help", defaults=(None,))
_SETTINGS = (
    _Setting("--process", "process", "process", "name", str),
    _Setting("--hurst", "hurst", "process", "hurst", float),
    _Setting("--sigma", "sigma", "process", "sigma", float),
    _Setting("--horizon", "horizon", "grid", "horizon", float),
    _Setting("--steps", "steps", "grid", "steps", int),
    _Setting(None, "experiment", "experiment", "kind", str),
    _Setting("--epsilon", "epsilon", "experiment", "epsilon", float),
    _Setting("--big-t", "query_horizon", "experiment", "T", float,
             "stickiness window end T (defaults to the grid horizon)"),
    _Setting("--tau", "tau", "experiment", "tau", str),
    _Setting("--event", "event", "experiment", "event", str),
    _Setting("--k", "rate", "experiment", "rate", float),
    _Setting("--strategy", "strategy", "experiment", "strategy", str),
    _Setting("--delta", "delta", "experiment", "delta", float),
    _Setting("--ladder", "ladder", "experiment", "ladder", tuple,
             "comma-separated survival horizons"),
    _Setting("--seed", "master_seed", None, "seed", int),
    _Setting("--paths", "n_paths", None, "paths", int),
    _Setting("--out", "output", None, "output", str),
    _Setting("--raw-price", "raw_price", None, None, bool,
             "trade the raw signal instead of its exponential"),
)

_JSON_TYPES = {int: "an integer", float: "a number", str: "a string", tuple: "a list of numbers"}


def _has_type(value, kind: type) -> bool:
    """Whether a JSON value has a setting's type; booleans are not numbers."""
    if kind is tuple:
        return type(value) is list and all(_has_type(h, float) for h in value)
    return type(value) in ((int, float) if kind is float else (kind,))


def _load_config_file(path: str) -> dict:
    """The fields a JSON config file sets, each key looked up in ``_SETTINGS``."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(raw, dict) or not raw:
        raise ConfigError(f"config file {path} must be a nonempty JSON object")
    settings = {(s.section, s.key): s for s in _SETTINGS if s.key is not None}
    values = {}
    for section, value in raw.items():
        first = next((s for s in _SETTINGS if s.section == section), None)
        if first is None:  # a top-level key
            section, value = None, {section: value}
        elif isinstance(value, str) and first.kind is str:
            value = {first.key: value}
        elif not isinstance(value, dict):
            raise ConfigError(f"config file {path}: {section!r} must be a JSON object")
        for key, v in value.items():
            s, name = settings.get((section, key)), ".".join(filter(None, (section, key)))
            if s is None:
                raise ConfigError(f"config file {path}: unknown key {name!r}")
            if not _has_type(v, s.kind):
                raise ConfigError(f"config file {path}: {name!r} must be {_JSON_TYPES[s.kind]}")
            try:
                values[s.field] = tuple(map(float, v)) if s.kind is tuple else s.kind(v)
            except OverflowError as exc:  # an integer beyond the float range
                raise ConfigError(f"config file {path}: {name!r}: {exc}") from exc
    return values


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """A preset or the subcommand's defaults, then the config file, then the flags passed."""
    is_preset = args.command == "experiment"
    base = PRESETS[args.preset] if is_preset else ExperimentConfig(experiment=args.command)
    values = _load_config_file(args.config) if args.config else {}
    kind = values.pop("experiment", base.experiment)
    if kind != base.experiment:
        raise ConfigError(f"config file {args.config} is for {kind!r}, not {base.experiment!r}")
    flags = {s.field: getattr(args, s.field) for s in _SETTINGS
             if s.flag is not None and getattr(args, s.field) is not None}
    process = flags.get("process", values.get("process", base.process))
    reads = {"process", "horizon", "steps", "master_seed", "n_paths", "output",
             *_RUNNERS[base.experiment].reads, *_PROCESS_READS.get(process, ())}
    # a setting the run does not read is refused, not ignored
    unread = [s.flag if s.field in flags else f"the config field {s.key!r}" for s in _SETTINGS
              if s.field not in reads and (s.field in flags or s.field in values)]
    if unread:
        raise ConfigError(f"{base.experiment!r} on process {process!r} does not read "
                          f"{' or '.join(unread)}")
    return dataclasses.replace(base, **{**values, **flags})


def _horizons(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(h) for h in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad ladder {text!r}") from None


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stickylab",
        description="Monte Carlo experiments on sticky processes and cost-aware portfolios",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [name for name, e in _RUNNERS.items() if e.pins is None] + ["experiment"]:
        command = sub.add_parser(name)
        if name == "experiment":
            command.add_argument("preset", choices=sorted(PRESETS))
        for s in _SETTINGS:
            if s.kind is bool:
                command.add_argument(s.flag, dest=s.field, action="store_true", default=None,
                                     help=s.help)
            elif s.flag is not None:
                command.add_argument(s.flag, dest=s.field, help=s.help,
                                     type={tuple: _horizons}.get(s.kind, s.kind),
                                     choices=_PROCESSES if s.field == "process" else None)
        command.add_argument("--config", help="JSON config file; flags override its values")
    return parser


def main(argv=None) -> int:
    args, config = _parser().parse_args(argv), None
    try:
        config = _resolve_config(args)
        table = run_experiment(config)
        dest = config.output or f"{config.experiment}.csv"
        emit_csv(table, dest)
    except NumericalFailureError as exc:
        print(f"stickylab: numerical failure: {exc}", file=sys.stderr)
        return 3
    except StickyLabError as exc:
        print(f"stickylab: configuration error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # from reading the config, the run, the CSV text or its write
        size = f" for {config.n_paths} paths of {config.steps} steps" if config else ""
        print(f"stickylab: out of memory{size}", file=sys.stderr)
        return 2
    except OSError as exc:  # only the write does I/O: a config file's errors are ConfigErrors
        print(f"stickylab: cannot write {dest}: {exc}", file=sys.stderr)
        return 4
    print(f"wrote {dest} ({len(table.rows)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
