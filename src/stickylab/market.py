"""Proportional-transaction-cost portfolio accounting and arbitrage statistics.

Holdings are piecewise constant with finitely many jumps at grid times.
Evaluation at a grid point is post-trade: the ledger value at ``t`` reflects
trades executed at or before ``t``, marked against the price at ``t`` and
charged the liquidation penalty on the current position. Trading ``|d|``
units at price ``X`` costs ``rate * X * |d|`` on buys and sells alike, and
liquidating at ``t`` costs ``rate * X_t * |holding_t|``.
Prices, strategies and ledgers take one ``Path`` or a row block of an
``Ensemble`` (one row per path) through one code path along the last axis.
Every call returns new arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, InvalidArgumentError
from .pathgen import Array, Ensemble, Path, TimeGrid, _finite_array, _real

__all__ = [
    "Strategy",
    "CostModel",
    "LedgerPath",
    "ArbitrageStats",
    "liquidation_value",
    "admissibility_check",
    "terminal_stats",
    "momentum_strategy",
    "exp_price",
]


@dataclass(frozen=True, eq=False)
class Strategy:
    """Piecewise-constant holdings: jump to ``holdings[..., j]`` at ``breakpoints[j]``.

    A block holds one row per path; before the first breakpoint the holding
    is 0. Jump decisions must depend only on strictly earlier path values;
    constructors here guarantee that, imported strategies are trusted.
    """

    breakpoints: Array
    holdings: Array

    def __post_init__(self):
        breakpoints = _finite_array(self.breakpoints, "strategy data")
        holdings = _finite_array(self.holdings, "strategy data")
        object.__setattr__(self, "breakpoints", breakpoints)
        object.__setattr__(self, "holdings", holdings)
        if breakpoints.ndim != 1 or holdings.ndim > 2 or holdings.shape[-1:] != breakpoints.shape:
            raise InvalidArgumentError("holdings must have one column per breakpoint")
        if breakpoints.size and np.any(np.diff(breakpoints) <= 0.0):
            raise InvalidArgumentError("breakpoints must be strictly increasing")

    @property
    def n_jumps(self) -> int:
        """Nonzero trades, summed over the rows of a block."""
        return int(np.count_nonzero(self.jump_sizes()))

    def jump_sizes(self) -> Array:
        """Signed trade sizes, including the initial jump away from 0."""
        return np.diff(self.holdings, axis=-1, prepend=0.0)


@dataclass(frozen=True)
class CostModel:
    """Proportional cost rate and the admissibility floor M."""

    rate: float
    admissibility_floor: float = 1e6

    def __post_init__(self):
        _real(self.rate, "cost rate", "[0, 1)")
        _real(self.admissibility_floor, "admissibility floor")


@dataclass(frozen=True, eq=False)
class LedgerPath:
    """Liquidation-value decomposition along the grid."""

    grid: TimeGrid
    gains: Array
    cost_flow: Array
    liquidation_penalty: Array
    values: Array  # V = gains - cost_flow - liquidation_penalty

    def __post_init__(self):
        for name in ("gains", "cost_flow", "liquidation_penalty", "values"):
            arr = _finite_array(getattr(self, name), name)
            object.__setattr__(self, name, arr)
            if arr.ndim not in (1, 2) or arr.shape[-1] != self.grid.n_points:
                raise InvalidArgumentError(f"{name} must match the grid length")

    @property
    def terminal(self) -> float | Array:
        return float(self.values[-1]) if self.values.ndim == 1 else self.values[:, -1]


@dataclass(frozen=True)
class ArbitrageStats:
    n: int
    frac_nonnegative: float
    frac_strictly_positive: float
    mean_terminal: float
    std_terminal: float
    min_terminal: float
    flag: bool  # finite-sample surrogate, not a proof of arbitrage


def exp_price(path: Path | Ensemble) -> Path | Ensemble:
    """Exponential of the signal: the default, strictly positive asset price.
    The result's finiteness check refuses an overflowing price."""
    with np.errstate(over="ignore"):
        values = np.exp(path.values)
    if isinstance(path, Ensemble):
        return Ensemble(path.grid, values, path.master_seed)
    return Path(path.grid, values)


def liquidation_value(strategy: Strategy, price: Path | Ensemble, cost: CostModel) -> LedgerPath:
    """Ledger of gains, trading costs, and liquidation penalty along the grid.

    gains[m]   = sum_{i<m} holding_i * (X_{i+1} - X_i)    (left-point Ito sum)
    cost[m]    = rate * sum_{jumps at s <= t_m} X_s * |trade|
    penalty[m] = rate * X_m * |holding_m|

    A strategy with one row per path trades a row block of as many rows;
    one given by breakpoints alone trades every row.
    """
    times, x, holding = price.grid.times, price.values, strategy.holdings
    idx = np.searchsorted(times, strategy.breakpoints, side="left")
    if np.any(idx >= times.size) or np.any(times[idx] != strategy.breakpoints):
        raise AlignmentError("strategy breakpoints must sit exactly on grid times")
    if holding.ndim == 2 and (x.ndim == 1 or len(holding) != len(x)):
        raise AlignmentError("a strategy with one row per path needs a price block of as many rows")
    if idx.size < times.size:  # post-trade holding per grid point; column 0 holds the start's 0
        holding = np.concatenate((np.zeros(holding.shape[:-1] + (1,)), holding), axis=-1)
        holding = holding[..., np.searchsorted(strategy.breakpoints, times, side="right")]
    gains, cost_flow, penalty, values = np.empty((4, *x.shape))
    # each step writes into one of the four outputs, in an order that reads
    # every scratch value before it is overwritten; a huge holding can
    # overflow, which the ledger's finiteness check refuses, so numpy's
    # warnings are silenced
    with np.errstate(over="ignore", invalid="ignore"):
        gains[..., 0] = 0.0
        np.subtract(x[..., 1:], x[..., :-1], out=gains[..., 1:])
        np.multiply(holding[..., :-1], gains[..., 1:], out=gains[..., 1:])
        np.cumsum(gains[..., 1:], axis=-1, out=gains[..., 1:])
        rate_x = np.multiply(cost.rate, x, out=penalty)
        trade = cost_flow  # the trade sizes, with the first jump away from 0
        np.subtract(holding[..., :1], 0.0, out=trade[..., :1])
        np.subtract(holding[..., 1:], holding[..., :-1], out=trade[..., 1:])
        np.multiply(rate_x, np.abs(trade, out=trade), out=trade)
        trade += 0.0  # the -0.0 of a negative price times a zero trade becomes +0.0
        np.cumsum(trade, axis=-1, out=cost_flow)
        np.multiply(rate_x, np.abs(holding, out=values), out=penalty)
        np.subtract(gains, cost_flow, out=values)
        values -= penalty
    return LedgerPath(price.grid, gains, cost_flow, penalty, values)


def admissibility_check(ledger: LedgerPath, cost: CostModel) -> tuple[bool, float | None]:
    """True iff no row of the ledger dips below -M; else the first time one does."""
    below = (ledger.values < -cost.admissibility_floor).reshape(-1, ledger.grid.n_points).any(0)
    if not below.any():
        return True, None
    return False, float(ledger.grid.times[int(np.argmax(below))])


def _mean_std(terminal: Array) -> tuple[float, float]:
    std = float(terminal.std(ddof=1)) if terminal.size > 1 else 0.0
    return float(terminal.mean()), std


def terminal_stats(terminal: Array, tol: float = 1e-9) -> ArbitrageStats:
    """Arbitrage statistics from an array of terminal liquidation values.

    The flag is set iff every terminal value clears -tol and at least one
    clears +tol; it is a finite-sample surrogate for the arbitrage property.
    Values near the float range, whose sum or squares overflow, get their
    mean and standard deviation from the values divided by their largest
    magnitude; a statistic that still exceeds the float range is refused.
    """
    _real(tol, "tol", "[0, inf)")
    terminal = _finite_array(terminal, "terminal values")
    if terminal.size == 0:
        raise InvalidArgumentError("need at least one terminal value")
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = _mean_std(terminal)
    if not (np.isfinite(mean) and np.isfinite(std)):
        scale = float(np.abs(terminal).max())
        mean, std = (scale * m for m in _mean_std(terminal / scale))
        if not (np.isfinite(mean) and np.isfinite(std)):
            raise InvalidArgumentError(
                "the mean or standard deviation of the terminal values exceeds the float range"
            )
    frac_nonneg = float((terminal >= -tol).mean())
    frac_pos = float((terminal > tol).mean())
    return ArbitrageStats(
        n=int(terminal.size),
        frac_nonnegative=frac_nonneg,
        frac_strictly_positive=frac_pos,
        mean_terminal=mean,
        std_terminal=std,
        min_terminal=float(terminal.min()),
        flag=bool(frac_nonneg == 1.0 and frac_pos > 0.0),
    )


def momentum_strategy(price: Path | Ensemble, threshold: float, unit: float) -> Strategy:
    """Hold +unit / -unit when the last observed move from the start exceeds
    the threshold band; decisions at ``t`` use values strictly before ``t``.
    A row block gets one column per grid time, one path its breakpoints only."""
    _real(threshold, "threshold")
    _real(unit, "unit")
    x = price.values
    desired = np.empty(x.shape)
    desired[..., 0] = 0.0
    drift = np.subtract(x[..., :-1], x[..., :1], out=desired[..., 1:])  # known at the next time
    up, down = drift > threshold, drift < -threshold
    np.subtract(up, down, out=desired[..., 1:], dtype=np.float64)
    desired[..., 1:] *= unit
    if isinstance(price, Ensemble):
        return Strategy(price.grid.times, desired)
    changes = np.flatnonzero(np.diff(desired, prepend=0.0))
    return Strategy(price.grid.times[changes], desired[changes])
