"""Proportional-transaction-cost portfolio accounting and arbitrage statistics.

Holdings are piecewise constant with finitely many jumps at grid times.
Evaluation at a grid point is post-trade: the ledger value at ``t`` reflects
trades executed at or before ``t``, marked against the price at ``t`` and
charged the liquidation penalty on the current position. Trading ``|d|``
units at price ``X`` costs ``rate * X * |d|`` on buys and sells alike, and
liquidating at ``t`` costs ``rate * X_t * |holding_t|``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, InvalidArgumentError
from .pathgen import Array, Path, TimeGrid

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
    """Piecewise-constant holdings: jump to ``holdings[j]`` at ``breakpoints[j]``.

    The initial holding before the first breakpoint is 0. Jump decisions must
    depend only on strictly earlier path values; constructors here guarantee
    that, imported strategies are trusted.
    """

    breakpoints: Array
    holdings: Array

    def __post_init__(self):
        breakpoints = np.asarray(self.breakpoints, dtype=np.float64)
        holdings = np.asarray(self.holdings, dtype=np.float64)
        object.__setattr__(self, "breakpoints", breakpoints)
        object.__setattr__(self, "holdings", holdings)
        if breakpoints.shape != holdings.shape or breakpoints.ndim != 1:
            raise InvalidArgumentError("breakpoints and holdings must be matching 1-d arrays")
        if breakpoints.size and np.any(np.diff(breakpoints) <= 0.0):
            raise InvalidArgumentError("breakpoints must be strictly increasing")
        if not (np.all(np.isfinite(breakpoints)) and np.all(np.isfinite(holdings))):
            raise InvalidArgumentError("strategy data must be finite")

    @property
    def n_jumps(self) -> int:
        return int(self.breakpoints.size)

    def jump_sizes(self) -> Array:
        """Signed trade sizes, including the initial jump away from 0."""
        return np.diff(np.concatenate(([0.0], self.holdings)))


@dataclass(frozen=True)
class CostModel:
    """Proportional cost rate and the admissibility floor M."""

    rate: float
    admissibility_floor: float = 1e6

    def __post_init__(self):
        if not (0.0 <= self.rate < 1.0):
            raise InvalidArgumentError("cost rate must lie in [0, 1)")
        if not (self.admissibility_floor > 0.0):
            raise InvalidArgumentError("admissibility floor must be positive")


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
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, arr)
            if arr.shape != (self.grid.n_points,):
                raise InvalidArgumentError(f"{name} must match the grid length")
            if not np.all(np.isfinite(arr)):
                raise InvalidArgumentError(f"{name} must be finite")

    @property
    def terminal(self) -> float:
        return float(self.values[-1])


@dataclass(frozen=True)
class ArbitrageStats:
    n: int
    frac_nonnegative: float
    frac_strictly_positive: float
    mean_terminal: float
    std_terminal: float
    min_terminal: float
    tolerance: float
    flag: bool  # finite-sample surrogate, not a proof of arbitrage


def exp_price(path: Path) -> Path:
    """Exponential of the signal path: the default, strictly positive asset price."""
    return Path(path.grid, np.exp(path.values), label=f"exp({path.label})" if path.label else "exp")


def _holdings_on_grid(strategy: Strategy, grid: TimeGrid) -> tuple[Array, Array]:
    """Post-trade holding per grid point and the grid index of each breakpoint."""
    if strategy.n_jumps == 0:
        return np.zeros(grid.n_points), np.array([], dtype=np.intp)
    idx = np.searchsorted(grid.times, strategy.breakpoints, side="left")
    if np.any(idx >= grid.n_points) or np.any(grid.times[idx] != strategy.breakpoints):
        raise AlignmentError("strategy breakpoints must sit exactly on grid times")
    pos = np.searchsorted(strategy.breakpoints, grid.times, side="right") - 1
    holding = np.where(pos >= 0, strategy.holdings[np.maximum(pos, 0)], 0.0)
    return holding, idx


def liquidation_value(strategy: Strategy, price: Path, cost: CostModel) -> LedgerPath:
    """Ledger of gains, trading costs, and liquidation penalty along the grid.

    gains[m]   = sum_{i<m} holding_i * (X_{i+1} - X_i)    (left-point Ito sum)
    cost[m]    = rate * sum_{jumps at s <= t_m} X_s * |trade|
    penalty[m] = rate * X_m * |holding_m|
    """
    grid = price.grid
    holding, jump_idx = _holdings_on_grid(strategy, grid)
    gains = np.concatenate(([0.0], np.cumsum(holding[:-1] * np.diff(price.values))))
    per_point_cost = np.zeros(grid.n_points)
    np.add.at(
        per_point_cost, jump_idx, cost.rate * price.values[jump_idx] * np.abs(strategy.jump_sizes())
    )
    cost_flow = np.cumsum(per_point_cost)
    penalty = cost.rate * price.values * np.abs(holding)
    return LedgerPath(grid, gains, cost_flow, penalty, gains - cost_flow - penalty)


def admissibility_check(ledger: LedgerPath, cost: CostModel) -> tuple[bool, float | None]:
    """True iff the ledger never dips below -M; else the first violation time."""
    below = ledger.values < -cost.admissibility_floor
    if not below.any():
        return True, None
    return False, float(ledger.grid.times[int(np.argmax(below))])


def terminal_stats(terminal: Array, tol: float = 1e-9) -> ArbitrageStats:
    """Arbitrage statistics from an array of terminal liquidation values.

    The flag is set iff every terminal value clears -tol and at least one
    clears +tol; it is a finite-sample surrogate for the arbitrage property.
    """
    terminal = np.asarray(terminal, dtype=np.float64)
    if terminal.size == 0:
        raise InvalidArgumentError("need at least one terminal value")
    frac_nonneg = float((terminal >= -tol).mean())
    frac_pos = float((terminal > tol).mean())
    return ArbitrageStats(
        n=int(terminal.size),
        frac_nonnegative=frac_nonneg,
        frac_strictly_positive=frac_pos,
        mean_terminal=float(terminal.mean()),
        std_terminal=float(terminal.std(ddof=1)) if terminal.size > 1 else 0.0,
        min_terminal=float(terminal.min()),
        tolerance=tol,
        flag=bool(frac_nonneg == 1.0 and frac_pos > 0.0),
    )


def momentum_strategy(price: Path, threshold: float, unit: float) -> Strategy:
    """Hold +unit / -unit when the last observed move from the start exceeds
    the threshold band; decisions at ``t`` use values strictly before ``t``."""
    if not (threshold > 0.0 and unit > 0.0):
        raise InvalidArgumentError("threshold and unit must be positive")
    x = price.values
    drift = x[:-1] - x[0]  # signal available at the next grid time
    desired = np.zeros(x.size)
    desired[1:] = unit * (drift > threshold).astype(np.float64)
    desired[1:] -= unit * (drift < -threshold).astype(np.float64)
    changes = np.flatnonzero(np.diff(np.concatenate(([0.0], desired))))
    return Strategy(price.grid.times[changes], desired[changes])
