"""Independent oracles used by the tests.

Deliberately coded without reference to the package internals: series
formulas, brute-force sums, and a trade-by-trade cash ledger.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np


def corridor_stay_probability(half_width: float, horizon: float = 1.0, terms: int = 400) -> float:
    """P(sup_{[0,T]} |B_t| < a) for standard Brownian motion.

    Classical eigenfunction series:
    (4/pi) * sum over odd k of ((-1)^((k-1)/2) / k) * exp(-k^2 pi^2 T / (8 a^2)).
    """
    a = half_width
    total = 0.0
    for k in range(1, 2 * terms, 2):
        sign = -1.0 if ((k - 1) // 2) % 2 else 1.0
        total += (4.0 / math.pi) * (sign / k) * math.exp(-(k * k) * math.pi**2 * horizon / (8.0 * a * a))
    return total


def wilson_interval(successes: int, n: int, level: float = 0.95) -> tuple[float, float]:
    """Two-sided Wilson score interval in its textbook closed form.

    ``(s + z^2/2) / (n + z^2)  -/+  z sqrt(n) / (n + z^2) * sqrt(p (1 - p) + z^2 / (4n))``
    with ``p = s / n`` and ``z`` the ``(1 + level) / 2`` normal quantile.
    """
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    p = successes / n
    center = (successes + z * z / 2.0) / (n + z * z)
    half = z * math.sqrt(n) / (n + z * z) * math.sqrt(p * (1.0 - p) + z * z / (4.0 * n))
    return center - half, center + half


def fbm_covariance(s: float, t: float, hurst: float) -> float:
    """Closed-form fractional Brownian covariance."""
    h2 = 2.0 * hurst
    return 0.5 * (s**h2 + t**h2 - abs(t - s) ** h2)


def cash_ledger_terminal(
    times: np.ndarray,
    prices: np.ndarray,
    breakpoints: np.ndarray,
    holdings: np.ndarray,
    rate: float,
) -> float:
    """Trade-by-trade cash-and-inventory bookkeeping, liquidated at the end.

    Buying/selling d units at price p moves cash by -p*d and costs rate*p*|d|;
    final liquidation sells the inventory at the last price with the same
    proportional charge.
    """
    cash = 0.0
    inventory = 0.0
    for when, target in zip(breakpoints, holdings):
        k = int(np.flatnonzero(times == when)[0])
        price = prices[k]
        trade = target - inventory
        cash -= price * trade + rate * price * abs(trade)
        inventory = target
    last = prices[-1]
    cash += last * inventory - rate * last * abs(inventory)
    return cash


def grid_corridor_stay_probability(half_width: float, steps: int, horizon: float = 1.0) -> float:
    """P(|B_{t_k}| < a at every t_k = k * T / steps) for standard Brownian motion.

    Monitoring only at grid times lets a path leave and re-enter between
    them, so this lies above the continuum series and falls toward it as
    ``steps`` grows.
    """
    return _killed_walk_stay_probability(half_width, steps, horizon, cells=1000)


def _killed_walk_stay_probability(a: float, steps: int, horizon: float, cells: int) -> float:
    # propagate the density of the killed walk through the Gaussian transition
    # kernel, integrated by the midpoint rule on ``cells`` equal cells of (-a, a)
    width = 2.0 * a / cells
    y = -a + width * (np.arange(cells) + 0.5)
    sd = math.sqrt(horizon / steps)

    def kernel(d):
        return np.exp(-0.5 * (d / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))

    step = kernel(y[:, None] - y[None, :]) * width
    density = kernel(y)  # density of B_{t_1} on (-a, a)
    for _ in range(steps - 1):
        density = step @ density
    return float(density.sum() * width)
