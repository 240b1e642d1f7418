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

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from typing import Literal

import numpy as np
# scipy.special is imported only in the two importance-sampling functions that call it:
# the import takes about 0.3 s and 26 MB (2-core host, scipy 1.17), which counting skips

from .errors import GridMismatchError, InvalidArgumentError, NumericalFailureError
from .pathgen import (
    Array,
    BrownianMotion,
    Ensemble,
    FractionalBrownianMotion,
    Path,
    ProcessSpec,
    TimeGrid,
    _count,
    _fbm_dense_factor,
    _real,
    _row_blocks,
    _streams,
)
from .stopping import (
    Deterministic,
    EventDescriptor,
    HittingFrom,
    StoppingRule,
    StopResult,
    WholeSpace,
    _event_mask,
    _exit_indices,
    _stop_indices,
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


def _check_ladder(horizons, delta) -> tuple:
    """``horizons`` as a tuple; raises unless ``delta`` and every horizon are finite
    positive numbers and the horizons are nonempty and strictly increasing."""
    _real(delta, "delta")
    horizons = tuple(horizons)
    if not horizons:
        raise InvalidArgumentError("horizon ladder must be nonempty")
    for h in horizons:
        _real(h, "a ladder horizon")
    if any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise InvalidArgumentError("horizon ladder must be strictly increasing")
    return horizons


def _check_window_end(horizon: float | None, span: float) -> None:
    """Raises unless the window end (``None``: the span itself) lies within the span."""
    if horizon is not None and horizon > span * (1.0 + 1e-12):
        raise InvalidArgumentError(f"query horizon {horizon} exceeds grid horizon {span}")


@dataclass(frozen=True)
class StickinessQuery:
    """The (tau, T, epsilon, A) tuple plus the characterization to count by; prop-c
    counts the restart from tau ^ T that survives T (see ``survival_ladder``)."""

    tau: StoppingRule
    horizon: float
    epsilon: float
    event: EventDescriptor = WholeSpace()
    characterization: Characterization = "def-a"
    confidence: float = 0.95

    def __post_init__(self):
        _real(self.epsilon, "epsilon")
        _real(self.horizon, "horizon")
        _real(self.confidence, "confidence", "(0, 1)")
        if self.characterization not in ("def-a", "prop-b", "prop-c"):
            raise InvalidArgumentError(f"unknown characterization {self.characterization!r}")


@dataclass(frozen=True)
class StickinessEstimate:
    p_hat: float
    successes: int
    n: int
    ci_low: float
    ci_high: float
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

# Cephes ndtri (S. L. Moshier's rational approximations, the code scipy ships under its
# BSD licence). With w = y - 0.5 the middle is sqrt(2 pi) (w + w^3 P0/Q0(w^2)), Cephes'
# sqrt(2 pi) being 2.50662827463100050242; a tail y takes x = sqrt(-2 log y) and
# x - log(x)/x - P/Q(1/x)/x, P1/Q1 for x < 8, else P2/Q2. Each Q's leading 1 is left out.
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2), the middle branch's edge


def _polevl(x: float, coef: tuple[float, ...], monic: bool = False) -> float:
    """Cephes' ``polevl`` (``p1evl`` when ``monic``: behind a leading 1), by Horner's rule."""
    ans = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y0: float) -> float:
    """The standard normal quantile, bit for bit ``scipy.special.ndtri`` (Cephes)."""
    if not 0.0 < y0 < 1.0:
        return -math.inf if y0 == 0.0 else math.inf if y0 == 1.0 else math.nan
    upper = y0 > 1.0 - _EXP_M2
    y = 1.0 - y0 if upper else y0
    if y > _EXP_M2:
        w = y - 0.5
        w2 = w * w
        return (w + w * (w2 * _polevl(w2, _P0) / _polevl(w2, _Q0, True))) * 2.5066282746310007
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    p, q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    x = x - math.log(x) / x - z * _polevl(z, p) / _polevl(z, q, True)
    return x if upper else -x


def wilson_ci(successes: int, n: int, level: float = 0.95) -> tuple[float, float]:
    """Two-sided Wilson score interval for a binomial proportion."""
    successes, n = _count(successes, "successes", 0), _count(n, "n")
    if successes > n:
        raise InvalidArgumentError(f"invalid counts: {successes} successes of {n}")
    _real(level, "confidence level", "(0, 1)")
    z = _ndtri(0.5 + level / 2.0)
    if z == math.inf:  # 0.5 + level / 2 rounds to 1 at level 1 - 2**-53
        raise InvalidArgumentError(f"confidence level must be a real number in (0, 1) whose "
                                   f"two-sided z is finite, got {level!r}")
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = z * np.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == n else min(1.0, center + half)
    return (low, high)


def zero_success_upper_bound(n: int, level: float = 0.95) -> float:
    """One-sided Wilson upper bound on p when no successes were observed."""
    n = _count(n, "n")
    _real(level, "confidence level", "(0, 1)")
    z = _ndtri(level)
    return z * z / (n + z * z)


def _verdict(successes: int, ci_low: float) -> str:
    if successes == 0:
        return "ZERO"
    return "POSITIVE" if ci_low > 0.0 else "INCONCLUSIVE"


# ------------------------------ counting ------------------------------ #

#: bytes of temporaries per path point of a counting chunk: the deviations from
#: each row's tube centre and the exit mask
_TUBE_POINT_BYTES = 9


def _success(query: StickinessQuery, path: Path, end_index: int) -> bool:
    """One path's success, through ``evaluate_rule`` and ``evaluate_event``: it stays in
    the epsilon-tube through ``end_index``, which def-a and prop-b leave at a deviation
    >= epsilon and prop-c at > epsilon."""
    stop = evaluate_rule(query.tau, path)
    if query.characterization == "def-a":
        if not (stop.stopped and stop.time < query.horizon):
            return False
    elif not (stop.stopped and stop.index <= end_index):
        # tau wedge T: a bounded surrogate used by the (b) and (c) forms
        stop = StopResult.at(path.grid.times[end_index], end_index)
    if not evaluate_event(query.event, path, stop):
        return False
    strict = query.characterization == "prop-c"
    return bool(_exit_indices(path.values[None, :], np.array([stop.index]), query.epsilon,
                              strict)[0] > end_index)


def _success_mask(query: StickinessQuery, x: Array, grid: TimeGrid, end_index: int,
                  stop: Array, exits: Array) -> Array:
    """``_success`` of every row of the block ``x``, with no loop over rows: tau stops
    at ``stop`` (``_stop_indices``) and the tube from there is left at ``exits``
    (``_exit_indices`` at epsilon, strict for prop-c). Starting every tube at tau, not
    at prop-b's and prop-c's tau ^ T, counts the same: def-a counts only rows whose tau
    is at most ``end_index``, and a tube started past ``end_index`` is not left by then."""
    if query.characterization == "def-a":
        k, won = stop, np.append(grid.times, np.inf)[stop] < query.horizon  # stopped before T
    else:
        k, won = np.minimum(stop, end_index), np.ones(len(stop), dtype=bool)
    return won & _event_mask(query.event, x, grid, k) & (exits > end_index)


def _estimate(query: StickinessQuery, successes: int, n: int) -> StickinessEstimate:
    """``successes`` of ``n`` paths with their Wilson interval and verdict."""
    low, high = wilson_ci(successes, n, query.confidence)
    return StickinessEstimate(
        p_hat=successes / n,
        successes=successes,
        n=n,
        ci_low=low,
        ci_high=high,
        verdict=_verdict(successes, low),
        zero_upper=zero_success_upper_bound(n, query.confidence) if successes == 0 else None,
        query=query,
    )


def _chunks(ensemble: Ensemble | Iterable[Ensemble],
            horizon: float) -> Iterator[tuple[Array, TimeGrid, Path, int]]:
    """The counting chunks of ``ensemble``, an ``Ensemble`` or an iterable of
    ``Ensemble`` blocks on one grid read once, as ``(rows, grid, first path, its
    index among the rows seen)``. The last window end ``horizon`` is checked
    against the first block's grid before any chunk is yielded."""
    grid, n = None, 0
    for block in [ensemble] if isinstance(ensemble, Ensemble) else ensemble:
        if not isinstance(block, Ensemble):
            raise InvalidArgumentError(f"expected an Ensemble block, got {type(block).__name__}")
        if grid is None:
            grid = block.grid
            _check_window_end(horizon, grid.horizon)
        elif block.grid != grid:
            raise GridMismatchError("every block to count must share the first block's grid")
        for rows in _row_blocks(block.n_paths, _TUBE_POINT_BYTES * grid.n_points):
            yield block.values[rows], grid, block.path(rows.start), n + rows.start
        n += block.n_paths
        del block  # so a stream draws its next block with this one freed
    if grid is None:
        raise InvalidArgumentError("no ensemble block to count")


def _estimates(ensemble: Ensemble | Iterable[Ensemble],
               queries: list[StickinessQuery]) -> list[StickinessEstimate]:
    """Each query's estimate over the rows of ``ensemble`` (see ``_chunks``). The
    queries share tau, so tau's stop indices are found once per chunk, and so is
    the tube exit from them for each (epsilon, strictness), whatever each query's
    T. Each chunk's first path is recounted through ``_success`` for every query;
    a disagreement raises ``NumericalFailureError``."""
    successes, n = np.zeros(len(queries), dtype=np.int64), 0
    for x, grid, path, i in _chunks(ensemble, max(query.horizon for query in queries)):
        stop, exits = _stop_indices(queries[0].tau, x, grid), {}
        for j, query in enumerate(queries):
            end_index = grid.last_index_at_or_before(query.horizon)
            scan = (query.epsilon, query.characterization == "prop-c")
            if scan not in exits:
                exits[scan] = _exit_indices(x, stop, *scan)
            won = _success_mask(query, x, grid, end_index, stop, exits[scan])
            if _success(query, path, end_index) != won[0]:
                raise NumericalFailureError(f"path {i}: the block count disagrees with one path's")
            successes[j] += np.count_nonzero(won)
        n = i + len(x)  # the rows seen
        del x, path  # views of the block, freed before the next is drawn (see _chunks)
    return [_estimate(query, int(s), n) for query, s in zip(queries, successes)]


def estimate_stickiness(ensemble: Ensemble | Iterable[Ensemble],
                        query: StickinessQuery) -> StickinessEstimate:
    """Count the paths that succeed for the query and wrap them in a Wilson CI.

    ``ensemble`` is an ``Ensemble`` or an iterable of ``Ensemble`` blocks on one
    grid, such as a stream drawn block by block; ``n`` is the rows seen.
    Deterministic given the rows: they are counted in fixed chunks.
    """
    return _estimates(ensemble, [query])[0]


def survival_ladder(
    ensemble: Ensemble | Iterable[Ensemble],
    tau0: StoppingRule,
    delta: float,
    horizons,
) -> Array:
    """Fraction of paths whose restart time ``inf{t >= tau0 : |X_t - X_tau0| > delta}``
    exceeds each horizon ``h``: prop-c's ``p_hat`` for ``(tau0, h, delta)``, all
    counted in one pass with one tube scan per chunk (see ``_estimates``), so
    nonincreasing in ``h``. Paths whose restart never triggers within the grid
    survive every horizon. ``ensemble`` is read as by ``estimate_stickiness``.
    """
    queries = [StickinessQuery(tau0, h, delta, characterization="prop-c")
               for h in _check_ladder(horizons, delta)]
    return np.array([est.p_hat for est in _estimates(ensemble, queries)])


def cross_check_characterizations(
    ensemble: Ensemble | Iterable[Ensemble], query: StickinessQuery
) -> CrossCheckReport:
    """Run all three characterizations on the same paths (``ensemble`` as in
    ``estimate_stickiness``) and compare positivity verdicts; disagreement is
    reported, never reconciled."""
    est_a, est_b, est_c = _estimates(
        ensemble, [replace(query, characterization=c) for c in ("def-a", "prop-b", "prop-c")])
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
    from scipy.special import log_ndtr, ndtri_exp
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
    tau = ``det:t`` or ``hit:delta@det:t``. Every sample is recounted by the
    block kernel of ``estimate_stickiness``; a disagreement with the sampler
    raises ``NumericalFailureError``.
    """
    if query.characterization != "def-a":
        raise InvalidArgumentError("importance sampling supports the def-a characterization only")
    if not isinstance(query.event, WholeSpace):
        raise InvalidArgumentError("importance sampling supports the WholeSpace event only")
    tau = query.tau
    base = tau.start if isinstance(tau, HittingFrom) else tau
    if not isinstance(base, Deterministic):
        raise InvalidArgumentError("importance sampling supports det:t and hit:delta@det:t only")
    m = _count(n_samples, "n_samples")
    _check_window_end(query.horizon, grid.horizon)
    if base.time > grid.horizon:  # _stop_indices would refuse it only after sampling
        raise InvalidArgumentError(f"tau's time {base.time} exceeds grid horizon {grid.horizon}")
    factor = _sis_factor(spec, grid)
    from scipy.special import logsumexp, ndtri

    n = grid.n_steps
    start = grid.first_index_at_or_after(base.time)
    end_index = grid.last_index_at_or_before(query.horizon)
    uniforms = np.empty((n, m))
    for i, rng in enumerate(_streams(master_seed, range(m))):
        # midpoints of 2^52 equal cells: open (0, 1), so ndtri stays finite
        uniforms[:, i] = (rng.integers(0, 2**52, n) + 0.5) / 2.0**52

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

    samples = Ensemble(grid, x.T, master_seed).values  # one row per sample
    found = _stop_indices(tau, samples, grid)
    exits = _exit_indices(samples, found, query.epsilon, False)
    wrong = (found != stop) | (_success_mask(query, samples, grid, end_index, found, exits)
                               != weighted)
    if wrong.any():
        raise NumericalFailureError(f"importance sample {int(np.argmax(wrong))} disagrees "
                                    "with the stopping rule or the tube check")

    if not weighted.any():
        return SISEstimate(-np.inf, -np.inf, 0.0, m, query)
    log_sum = float(logsumexp(log_w))
    log10_p_hat = (log_sum - np.log(m)) / np.log(10.0)
    return SISEstimate(
        log10_p_hat=log10_p_hat,
        log10_lower=log10_p_hat + float(np.log10(1.0 - query.confidence)),
        ess=float(np.exp(2.0 * log_sum - logsumexp(2.0 * log_w))),
        n=m,
        query=query,
    )
