"""Monte Carlo estimation of the stickiness probability and consistency
checks across its equivalent characterizations.

A path counts as a success when, from the stop time, it stays strictly
inside the epsilon-tube of its stopped value over the whole window (grid
points only, so the discrete estimate upper-bounds staying probabilities).
"Positive probability" is undecidable from finite samples; the convention
used everywhere: verdict POSITIVE iff at least one success and the Wilson
lower bound is positive, verdict ZERO iff no successes, in which case the
one-sided upper bound is reported alongside.

Staying probabilities far below ``1/n`` (small-ball cells, where
``-log p`` grows like ``eps^(-1/H)``) get no success from plain Monte Carlo.
For those, ``estimate_stickiness_sis`` samples Gaussian paths sequentially
from the Cholesky factor and, once tau has fired, draws each step from the
normal truncated to the tube (the GHK simulator). Its mean weight ``p_hat``
is unbiased and nonnegative, so Markov's inequality makes ``alpha * p_hat``
with ``alpha = 1 - confidence`` a one-sided lower bound on ``p`` at that
confidence, with no variance estimate: positive whenever one sample's tau
fires before the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal

import numpy as np
from scipy.special import log_ndtr, logsumexp, ndtri, ndtri_exp
from scipy.stats import norm

from .errors import InvalidArgumentError, NumericalFailureError
from .pathgen import (
    Array,
    BrownianMotion,
    Ensemble,
    FractionalBrownianMotion,
    Path,
    ProcessSpec,
    SeedSpec,
    TimeGrid,
    _fbm_dense_factor,
)
from .stopping import (
    Deterministic,
    EventDescriptor,
    HittingFrom,
    StoppingRule,
    StopResult,
    WholeSpace,
    _first_exit,
    evaluate_event,
    evaluate_rule,
)

__all__ = [
    "StickinessQuery",
    "StickinessEstimate",
    "CrossCheckReport",
    "SISEstimate",
    "wilson_ci",
    "zero_success_upper_bound",
    "estimate_stickiness",
    "estimate_stickiness_sis",
    "survival_ladder",
    "cross_check_characterizations",
]

Characterization = Literal["def-a", "prop-b", "prop-c"]


@dataclass(frozen=True)
class StickinessQuery:
    """The (tau, T, epsilon, A) tuple plus the characterization to count by."""

    tau: StoppingRule
    horizon: float
    epsilon: float
    event: EventDescriptor = WholeSpace()
    characterization: Characterization = "def-a"
    # prop-c hitting threshold; defaults to epsilon so the three forms count
    # events on the same scale (the restart survives iff sup <= delta)
    delta: float | None = None
    ladder: tuple[float, ...] | None = None  # prop-c horizons; defaults to (horizon,)
    confidence: float = 0.95

    def __post_init__(self):
        if not (np.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise InvalidArgumentError("epsilon must be positive")
        if not (np.isfinite(self.horizon) and self.horizon > 0.0):
            raise InvalidArgumentError("horizon must be positive")
        if not (0.0 < self.confidence < 1.0):
            raise InvalidArgumentError("confidence must lie in (0, 1)")
        if self.characterization not in ("def-a", "prop-b", "prop-c"):
            raise InvalidArgumentError(f"unknown characterization {self.characterization!r}")
        if self.characterization == "prop-c":
            if self.delta is not None and not (np.isfinite(self.delta) and self.delta > 0.0):
                raise InvalidArgumentError("prop-c delta must be finite and positive")
            if self.ladder is not None:
                steps = np.asarray(self.ladder, dtype=np.float64)
                if not np.isfinite(steps).all():
                    raise InvalidArgumentError("ladder horizons must be finite")
                if steps.size == 0 or np.any(np.diff(steps) <= 0.0):
                    raise InvalidArgumentError("ladder must be strictly increasing")


@dataclass(frozen=True)
class StickinessEstimate:
    p_hat: float
    successes: int
    n: int
    ci_low: float
    ci_high: float
    confidence: float
    verdict: str  # POSITIVE | ZERO | INCONCLUSIVE
    zero_upper: float | None  # one-sided upper bound, reported when successes = 0
    query: StickinessQuery


@dataclass(frozen=True)
class SISEstimate:
    """Sequential importance sampling estimate of a def-a staying probability.

    Probabilities are base-10 logarithms because they can lie far below the
    smallest positive double; ``-inf`` stands for zero. ``log10_lower`` is
    the Markov lower bound ``log10((1 - confidence) * p_hat)`` and ``ess`` the
    effective sample size ``(sum w)^2 / sum w^2`` of the ``n`` weights.
    """

    log10_p_hat: float
    log10_lower: float
    ess: float
    n: int
    confidence: float
    query: StickinessQuery


@dataclass(frozen=True)
class CrossCheckReport:
    def_a: StickinessEstimate
    prop_b: StickinessEstimate
    prop_c: StickinessEstimate
    agree: bool

    @property
    def verdicts(self) -> dict[str, str]:
        return {
            "def-a": self.def_a.verdict,
            "prop-b": self.prop_b.verdict,
            "prop-c": self.prop_c.verdict,
        }


# ------------------------------ intervals ------------------------------ #


def wilson_ci(successes: int, n: int, level: float = 0.95) -> tuple[float, float]:
    """Two-sided Wilson score interval for a binomial proportion."""
    if n < 1 or successes < 0 or successes > n:
        raise InvalidArgumentError(f"invalid counts: {successes} successes of {n}")
    if not (0.0 < level < 1.0):
        raise InvalidArgumentError("confidence level must lie in (0, 1)")
    z = float(norm.ppf(0.5 + level / 2.0))
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = z * np.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == n else min(1.0, center + half)
    return (low, high)


def zero_success_upper_bound(n: int, level: float = 0.95) -> float:
    """One-sided Wilson upper bound on p when no successes were observed."""
    if n < 1:
        raise InvalidArgumentError("n must be at least 1")
    z = float(norm.ppf(level))
    return z * z / (n + z * z)


def _verdict(successes: int, ci_low: float) -> str:
    if successes == 0:
        return "ZERO"
    return "POSITIVE" if ci_low > 0.0 else "INCONCLUSIVE"


# ------------------------------ per-path counting ------------------------------ #


def _window_sup(x: Array, start: int, end: int) -> float:
    # max |x_t - x_start| over grid indices start..end inclusive, without
    # temporaries: a - c rounds monotonically in a and c - a = -(a - c), so
    # the sup sits at the segment's max or min, bit for bit
    seg = x[start : end + 1]
    x_s = x[start]
    return float(max(seg.max() - x_s, x_s - seg.min()))


def _success(query: StickinessQuery, path, end_index: int) -> bool:
    stop = evaluate_rule(query.tau, path)
    if query.characterization == "def-a":
        if not (stop.stopped and stop.time < query.horizon):
            return False
    elif not (stop.stopped and stop.index <= end_index):
        # tau wedge T: a bounded surrogate used by the (b) and (c) forms
        stop = StopResult.at(path.grid.times[end_index], end_index)
    if not evaluate_event(query.event, path, stop):
        return False
    if query.characterization == "prop-c":
        # the restart time from the capped stop survives the top of the ladder;
        # the scan runs over the whole path, so a top before the stop survives
        delta = query.delta if query.delta is not None else query.epsilon
        top = query.ladder[-1] if query.ladder else query.horizon
        k = _first_exit(path.values, stop.index, delta)
        return k is None or k > path.grid.last_index_at_or_before(top)
    # def-a and prop-b fail at sup >= epsilon, not at the exit's > delta
    return _window_sup(path.values, stop.index, end_index) < query.epsilon


def estimate_stickiness(ensemble: Ensemble, query: StickinessQuery) -> StickinessEstimate:
    """Count per-path successes for the query and wrap them in a Wilson CI.

    Deterministic given the ensemble: indicators are reduced in path order.
    """
    horizon = ensemble.grid.horizon
    if query.horizon > horizon * (1.0 + 1e-12):
        raise InvalidArgumentError(
            f"query horizon {query.horizon} exceeds grid horizon {horizon}"
        )
    if query.characterization == "prop-c" and query.ladder:
        if query.ladder[-1] > horizon * (1.0 + 1e-12):
            raise InvalidArgumentError("ladder horizons exceed the grid span")
    end_index = ensemble.grid.last_index_at_or_before(query.horizon)
    successes = 0
    for i in range(ensemble.n_paths):
        if _success(query, ensemble.path(i), end_index):
            successes += 1
    n = ensemble.n_paths
    low, high = wilson_ci(successes, n, query.confidence)
    return StickinessEstimate(
        p_hat=successes / n,
        successes=successes,
        n=n,
        ci_low=low,
        ci_high=high,
        confidence=query.confidence,
        verdict=_verdict(successes, low),
        zero_upper=zero_success_upper_bound(n, query.confidence) if successes == 0 else None,
        query=query,
    )


def survival_ladder(
    ensemble: Ensemble,
    tau0: StoppingRule,
    delta: float,
    horizons,
) -> Array:
    """Fraction of paths whose restart time ``inf{t >= tau0 : |X_t - X_tau0| > delta}``
    exceeds each horizon; nonincreasing in the horizon by construction.

    Paths whose restart never triggers within the grid survive every horizon.
    """
    horizons = np.asarray(horizons, dtype=np.float64)
    if horizons.size == 0:
        raise InvalidArgumentError("horizon ladder must be nonempty")
    if not np.isfinite(horizons).all():
        raise InvalidArgumentError("ladder horizons must be finite")
    if np.any(np.diff(horizons) <= 0.0):
        raise InvalidArgumentError("horizon ladder must be strictly increasing")
    if horizons[-1] > ensemble.grid.horizon * (1.0 + 1e-12):
        raise InvalidArgumentError("ladder horizons exceed the grid span")
    if not (np.isfinite(delta) and delta > 0.0):
        raise InvalidArgumentError("delta must be finite and positive")

    restart = HittingFrom(tau0, delta)
    survivors = np.zeros(horizons.size, dtype=np.int64)
    for i in range(ensemble.n_paths):
        stop = evaluate_rule(restart, ensemble.path(i))
        survivors += stop.time > horizons if stop.stopped else 1
    return survivors / ensemble.n_paths


def cross_check_characterizations(
    ensemble: Ensemble, query: StickinessQuery
) -> CrossCheckReport:
    """Run all three characterizations on the same ensemble and compare
    positivity verdicts; disagreement is reported, never reconciled."""
    est_a = estimate_stickiness(ensemble, replace(query, characterization="def-a"))
    est_b = estimate_stickiness(ensemble, replace(query, characterization="prop-b"))
    est_c = estimate_stickiness(ensemble, replace(query, characterization="prop-c"))
    verdicts = {est_a.verdict, est_b.verdict, est_c.verdict}
    return CrossCheckReport(est_a, est_b, est_c, agree=len(verdicts) == 1)


# ------------------------------ sequential importance sampling ------------------------------ #


def _sis_factor(spec: ProcessSpec, grid: TimeGrid) -> Array:
    # Cholesky factor of the path at grid times 1..n; H = 0.5 is Brownian motion
    if not grid.is_uniform:
        raise InvalidArgumentError("importance sampling needs a uniform grid")
    dt = grid.uniform_spacing()
    if isinstance(spec, BrownianMotion):
        return spec.volatility * _fbm_dense_factor(grid.n_steps, dt, 0.5)
    if isinstance(spec, FractionalBrownianMotion):
        return _fbm_dense_factor(grid.n_steps, dt, float(spec.hurst))
    raise InvalidArgumentError(f"importance sampling supports bm and fbm, not {spec!r}")


def _truncated_normal(lo: Array, hi: Array, u: Array) -> tuple[Array, Array]:
    """Inverse-CDF draws from N(0, 1) truncated to ``(lo, hi)`` and the log of
    the truncation mass, both in the left tail after mirroring intervals whose
    midpoint is positive, so neither underflows."""
    flip = lo + hi > 0.0
    lo, hi = np.where(flip, -hi, lo), np.where(flip, -lo, hi)
    log_hi = log_ndtr(hi)
    ratio = np.exp(log_ndtr(lo) - log_hi)  # Phi(lo) / Phi(hi), in [0, 1)
    log_mass = log_hi + np.log1p(-ratio)
    # u lies in (0, 1), so the log stays finite when ratio underflows to 0
    z = ndtri_exp(log_hi + np.log(ratio + u * (1.0 - ratio)))
    return np.where(flip, -z, z), log_mass


def estimate_stickiness_sis(
    spec: ProcessSpec,
    grid: TimeGrid,
    query: StickinessQuery,
    master_seed: int,
    n_samples: int,
) -> SISEstimate:
    """Estimate the def-a staying probability by sequential importance sampling.

    Sample ``i`` draws one uniform per step from ``SeedSpec(master_seed, i)``
    and turns it into a normal by the inverse CDF. Until tau fires its steps
    are free Gaussian draws through the Cholesky factor; from then to
    the horizon index each step is drawn truncated so the path stays strictly
    inside the epsilon-tube of ``X_tau``, and the sample's weight is the
    product of the truncation masses (zero if tau does not fire before the
    horizon). Supports bm and fbm on uniform grids, the WholeSpace event, and
    tau = ``det:t`` or ``hit:delta@det:t``. Every sample is rebuilt as a
    ``Path`` and recounted with ``evaluate_rule`` and the window check; a
    disagreement with the sampler raises ``NumericalFailureError``.
    """
    if query.characterization != "def-a":
        raise InvalidArgumentError("importance sampling supports the def-a characterization only")
    if not isinstance(query.event, WholeSpace):
        raise InvalidArgumentError("importance sampling supports the WholeSpace event only")
    tau = query.tau
    base = tau.start if isinstance(tau, HittingFrom) else tau
    if not isinstance(base, Deterministic):
        raise InvalidArgumentError("importance sampling supports det:t and hit:delta@det:t only")
    if int(n_samples) < 1:
        raise InvalidArgumentError("n_samples must be at least 1")
    if query.horizon > grid.horizon * (1.0 + 1e-12) or base.time > grid.horizon:
        raise InvalidArgumentError("query times exceed the grid horizon")
    factor = _sis_factor(spec, grid)

    m = int(n_samples)
    n = grid.n_steps
    start = grid.first_index_at_or_after(base.time)
    end_index = grid.last_index_at_or_before(query.horizon)
    uniforms = np.empty((n, m))
    for i in range(m):
        # midpoints of 2^52 equal cells: open (0, 1), so ndtri stays finite
        draws = SeedSpec(master_seed, i).generator().integers(0, 2**52, n)
        uniforms[:, i] = (draws + 0.5) / 2.0**52

    x = np.zeros((n + 1, m))  # row k holds every sample's value at grid index k
    z = np.empty((n, m))
    log_w = np.zeros(m)
    never = n + 1
    stop = np.full(m, start if isinstance(tau, Deterministic) else never)
    for k in range(1, n + 1):
        mean = factor[k - 1, : k - 1] @ z[: k - 1]
        scale = factor[k - 1, k - 1]
        z[k - 1] = ndtri(uniforms[k - 1])
        tube = np.flatnonzero((stop < k) & (k <= end_index))
        if tube.size:
            centre = x[stop[tube], tube]
            lo = (centre - query.epsilon - mean[tube]) / scale
            hi = (centre + query.epsilon - mean[tube]) / scale
            z[k - 1, tube], log_mass = _truncated_normal(lo, hi, uniforms[k - 1, tube])
            log_w[tube] += log_mass
        x[k] = mean + scale * z[k - 1]
        if isinstance(tau, HittingFrom) and k > start:
            fired = (stop == never) & (np.abs(x[k] - x[start]) > tau.delta)
            stop[fired] = k
    weighted = stop < grid.first_index_at_or_after(query.horizon)  # def-a: tau < T
    log_w[~weighted] = -np.inf

    for i in range(m):
        path = Path(grid, x[:, i])
        index = int(stop[i]) if stop[i] < never else None
        if (
            evaluate_rule(tau, path).index != index
            or _success(query, path, end_index) != weighted[i]
        ):
            raise NumericalFailureError(
                f"importance sample {i} disagrees with the stopping rule or the tube check"
            )

    if not weighted.any():
        return SISEstimate(-np.inf, -np.inf, 0.0, m, query.confidence, query)
    log_sum = float(logsumexp(log_w))
    log10_p_hat = (log_sum - np.log(m)) / np.log(10.0)
    return SISEstimate(
        log10_p_hat=log10_p_hat,
        log10_lower=log10_p_hat + float(np.log10(1.0 - query.confidence)),
        ess=float(np.exp(2.0 * log_sum - logsumexp(2.0 * log_w))),
        n=m,
        confidence=query.confidence,
        query=query,
    )
