"""Declarative stopping rules, pathwise evaluation, and conditioning events.

Rules are evaluated on grid points: a rule stops at the first grid index
satisfying its condition, else reports that the horizon was reached first.
Inequalities are deliberate: hitting uses strict ``> delta`` while absolute
exceedance uses ``>= level``.

Rules and events are evaluated on row blocks (``_stop_indices``,
``_exit_indices``, ``_event_mask``); ``evaluate_rule`` and ``evaluate_event``
are the same kernel on one row. Passages are found by comparing the path
with the level (see ``PassageToLevel``), for every level over a block.

Events approximate measurability at the stop time: every predicate depends
only on the path up to and including the stop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InvalidRuleError
from .pathgen import Array, Ensemble, Path, TimeGrid, _finite_array, _real

__all__ = [
    "Deterministic",
    "HittingFrom",
    "PassageToLevel",
    "FirstAbsExceed",
    "StoppingRule",
    "StopResult",
    "WholeSpace",
    "ValueAtStopInRange",
    "StoppedBeforeHorizon",
    "Conjunction",
    "EventDescriptor",
    "evaluate_rule",
    "passage_time",
    "evaluate_event",
    "parse_rule",
    "parse_event",
]


# ------------------------------ rules ------------------------------ #


@dataclass(frozen=True)
class Deterministic:
    """Stop at the smallest grid time >= ``time``."""

    time: float

    def __post_init__(self):
        _real(self.time, "deterministic time", "[0, inf)", InvalidRuleError)


@dataclass(frozen=True)
class HittingFrom:
    """First ``t >= start`` with ``|X_t - X_start| > delta`` (strict)."""

    start: "StoppingRule"
    delta: float

    def __post_init__(self):
        _real(self.delta, "hitting delta", error=InvalidRuleError)


@dataclass(frozen=True)
class PassageToLevel:
    """First grid point on or past ``level`` from the side ``X_0`` starts on:
    index 0 if ``X_0 == level``, else the first ``k`` with ``X_k >= level``
    (``X_0 < level``) or ``X_k <= level`` (``X_0 > level``)."""

    level: float

    def __post_init__(self):
        if np.ndim(self.level) != 0:
            raise InvalidRuleError("a passage level is one number; passage_time takes an array "
                                   "of levels with an Ensemble block")
        _real(self.level, "passage level", "(-inf, inf)", InvalidRuleError)


@dataclass(frozen=True)
class FirstAbsExceed:
    """First ``t`` with ``|X_t| >= level`` (non-strict)."""

    level: float

    def __post_init__(self):
        _real(self.level, "exceedance level", error=InvalidRuleError)


StoppingRule = Union[Deterministic, HittingFrom, PassageToLevel, FirstAbsExceed]


@dataclass(frozen=True)
class StopResult:
    """Outcome of evaluating a rule on one path."""

    stopped: bool
    time: float | None = None
    index: int | None = None

    @classmethod
    def at(cls, time: float, index: int) -> "StopResult":
        return cls(True, float(time), int(index))

    @classmethod
    def not_stopped(cls) -> "StopResult":
        return cls(False)


def _first_true(hit: Array) -> Array:
    """Index of the first true column of each row of ``hit``, ``hit.shape[1]`` where none is."""
    k = hit.argmax(axis=1)
    k[~hit[np.arange(len(hit)), k]] = hit.shape[1]
    return k


def _abs_exceed_indices(x: Array, level: float) -> Array:
    """``FirstAbsExceed(level)`` index of each row of ``x``; ``x.shape[1]`` where none."""
    return _first_true(np.abs(x) >= level)


def _passage_indices(x: Array, levels: Array) -> Array:
    """``PassageToLevel`` index of each row of ``x`` to each level, ``(rows, levels)``;
    ``x.shape[1]`` where a row never reaches a level.

    Before that index no gap to the level is zero and none changes sign, so
    it is the first crossing, found without multiplying gaps (a product of
    tiny gaps underflows to -0.0). Each level is one comparison pass over the
    rows that start on one side of it.
    """
    start = x[:, 0]
    out = np.zeros((x.shape[0], levels.size), dtype=np.intp)
    reached = np.empty(x.shape, dtype=bool)  # reused: one block-sized temporary per call
    for j, level in enumerate(levels):
        for rows, reaches in ((start < level, np.greater_equal), (start > level, np.less_equal)):
            m = int(np.count_nonzero(rows))
            if m == 0:
                continue
            out[rows, j] = _first_true(reaches(x if m == x.shape[0] else x[rows], level,
                                               out=reached[:m]))
    return out


def _exit_indices(x: Array, start: Array, delta: float, strict: bool) -> Array:
    """First ``k >= start[r]`` with ``|x[r, k] - x[r, start[r]]| > delta`` (strict) or
    ``>= delta`` (not strict) in each row ``r`` of ``x``; ``x.shape[1]`` where no
    such ``k`` exists, as for a start of ``x.shape[1]``.

    The one tube-exit scan behind the hitting rule, the survival ladder and
    every characterization's tube check. ``delta`` is positive, so the zeroed
    columns before each start never exit. A window ``[s, e]`` has
    ``max |x_k - x_s| >= delta`` exactly when the non-strict exit is at most
    ``e``: ``fl(a - c)`` rounds monotonically in ``a`` and ``fl(c - a) = -fl(a - c)``.
    """
    rows, n = x.shape
    # columns before lo are skipped; those in [lo, hi) are masked row by row
    lo, hi = int(start.min()), int(min(start.max(), n))
    if lo >= n:
        return np.full(rows, n, dtype=np.intp)
    # contiguous, so the row reductions below copy nothing
    dev, hit = np.empty((rows, n - lo)), np.empty((rows, n - lo), dtype=bool)
    np.subtract(x[:, lo:], x[np.arange(rows), np.minimum(start, n - 1)][:, None], out=dev)
    np.abs(dev, out=dev)
    if hi > lo:
        before = hit[:, : hi - lo]
        np.less(np.arange(lo, hi), start[:, None], out=before)
        np.copyto(dev[:, : hi - lo], 0.0, where=before)
    (np.greater if strict else np.greater_equal)(dev, delta, out=hit)
    return lo + _first_true(hit)


def _stop_indices(rule: StoppingRule, x: Array, grid: TimeGrid) -> Array:
    """Stop index of ``rule`` on each row of the block ``x`` on ``grid``;
    ``grid.n_points`` where the rule never stops."""
    if isinstance(rule, Deterministic):
        if rule.time > grid.horizon:
            raise InvalidRuleError(
                f"deterministic time {rule.time} exceeds grid horizon {grid.horizon}"
            )
        return np.full(len(x), grid.first_index_at_or_after(rule.time), dtype=np.intp)
    if isinstance(rule, HittingFrom):
        return _exit_indices(x, _stop_indices(rule.start, x, grid), rule.delta, True)
    if isinstance(rule, PassageToLevel):
        return _passage_indices(x, np.array([rule.level]))[:, 0]
    if not isinstance(rule, FirstAbsExceed):
        raise InvalidRuleError(f"unknown stopping rule: {rule!r}")
    return _abs_exceed_indices(x, rule.level)


def evaluate_rule(rule: StoppingRule, path: Path) -> StopResult:
    """First grid index satisfying the rule, else not-stopped-by-horizon: the
    block kernel on one row."""
    grid = path.grid
    k = int(_stop_indices(rule, path.values[None, :], grid)[0])
    return StopResult.not_stopped() if k == grid.n_points else StopResult.at(grid.times[k], k)


def passage_time(path: Path | Ensemble, level: float | Array) -> StopResult | Array:
    """Passage of a path to ``level``, or of a row block to every level.

    A ``Path`` and one level give the ``StopResult`` of ``PassageToLevel``.
    An ``Ensemble`` block and an array of levels give the ``(rows, levels)``
    passage indices, with ``grid.n_points`` where a row never reaches a
    level; the block call bypasses ``evaluate_rule``, whose result is one
    path's. Both run one comparison pass per level (see ``PassageToLevel``).
    """
    if isinstance(path, Path):
        return evaluate_rule(PassageToLevel(level), path)
    levels = _finite_array(level, "passage levels", InvalidRuleError)
    if levels.ndim != 1:
        raise InvalidRuleError("passage levels must be a 1-D array")
    return _passage_indices(path.values, levels)


# ------------------------------ events ------------------------------ #


@dataclass(frozen=True)
class WholeSpace:
    pass


@dataclass(frozen=True)
class ValueAtStopInRange:
    low: float
    high: float

    def __post_init__(self):
        _real(self.low, "range low", "[-inf, inf]", InvalidRuleError)
        _real(self.high, "range high", "[-inf, inf]", InvalidRuleError)
        if not (self.low <= self.high):
            raise InvalidRuleError("range event needs low <= high")


@dataclass(frozen=True)
class StoppedBeforeHorizon:
    horizon: float

    def __post_init__(self):
        _real(self.horizon, "event horizon", error=InvalidRuleError)


@dataclass(frozen=True)
class Conjunction:
    events: tuple["EventDescriptor", ...]


EventDescriptor = Union[WholeSpace, ValueAtStopInRange, StoppedBeforeHorizon, Conjunction]


def _event_mask(event: EventDescriptor, x: Array, grid: TimeGrid, k: Array) -> Array:
    """The event on each row of the block ``x`` stopped at index ``k[r]``
    (``grid.n_points``: not stopped); predicates on the stop are false there."""
    stopped = k < grid.n_points
    at = np.minimum(k, grid.n_points - 1)
    if isinstance(event, WholeSpace):
        return np.ones(len(k), dtype=bool)
    if isinstance(event, ValueAtStopInRange):
        value = x[np.arange(len(k)), at]
        return stopped & (event.low <= value) & (value <= event.high)
    if isinstance(event, StoppedBeforeHorizon):
        return stopped & (grid.times[at] < event.horizon)
    if isinstance(event, Conjunction):
        mask = np.ones(len(k), dtype=bool)
        for e in event.events:
            mask &= _event_mask(e, x, grid, k)
        return mask
    raise InvalidRuleError(f"unknown event descriptor: {event!r}")


def evaluate_event(event: EventDescriptor, path: Path, stop: StopResult) -> bool:
    """Predicate value; predicates referencing the stop value are false when
    the rule never stopped. The block kernel on one row."""
    k = np.array([stop.index if stop.stopped else path.grid.n_points])
    return bool(_event_mask(event, path.values[None, :], path.grid, k)[0])


# ------------------------------ text syntax ------------------------------ #
# rules:  det:<t> | hit:<delta>[@<start-rule>] | pass:<level> | absexceed:<level>
# events: all | stoprange:<lo>:<hi> | before:<T> | conjunction via '&'


def _number(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise InvalidRuleError(f"cannot parse {what} from {text!r}") from exc


def parse_rule(text: str) -> StoppingRule:
    text = text.strip()
    head, sep, rest = text.partition(":")
    if not sep:
        raise InvalidRuleError(f"malformed rule {text!r}")
    if head == "det":
        return Deterministic(_number(rest, "deterministic time"))
    if head == "hit":
        value, at, start_text = rest.partition("@")
        start = parse_rule(start_text) if at else Deterministic(0.0)
        return HittingFrom(start, _number(value, "hitting delta"))
    if head == "pass":
        return PassageToLevel(_number(rest, "passage level"))
    if head == "absexceed":
        return FirstAbsExceed(_number(rest, "exceedance level"))
    raise InvalidRuleError(f"unknown rule kind {head!r} in {text!r}")


def parse_event(text: str) -> EventDescriptor:
    text = text.strip()
    if "&" in text:
        return Conjunction(tuple(parse_event(part) for part in text.split("&")))
    if text == "all":
        return WholeSpace()
    head, sep, rest = text.partition(":")
    if head == "stoprange" and sep:
        lo_text, sep2, hi_text = rest.partition(":")
        if not sep2:
            raise InvalidRuleError(f"stoprange needs two bounds: {text!r}")
        return ValueAtStopInRange(_number(lo_text, "range low"), _number(hi_text, "range high"))
    if head == "before" and sep:
        return StoppedBeforeHorizon(_number(rest, "event horizon"))
    raise InvalidRuleError(f"unknown event {text!r}")

