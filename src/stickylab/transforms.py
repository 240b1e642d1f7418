"""Process constructions: continuous maps, time changes, Brownianization on
the variation clock, and the explicit example processes.

Quadratic variation is the realized (discrete) variation on the grid. The
variation clock ``first grid time with qv > level`` is read at grid points,
without interpolation (``dds_brownianize`` explains why). The capped time
change reads the path between grid points by linear interpolation, which is
exact for the continuous processes in scope up to one grid modulus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import (
    ContractViolationError,
    DegenerateInputError,
    InvalidArgumentError,
    TimeChangeRangeError,
)
from .pathgen import (
    Array,
    BrownianMotion,
    DerivedProcess,
    Path,
    ProcessSpec,
    SeedSpec,
    TimeGrid,
    build_path,
    integrate_ito,
    sample_brownian,
)
from .stopping import FirstAbsExceed, _first_exit, evaluate_rule, passage_time

__all__ = [
    "Identity",
    "Abs",
    "SignedPower",
    "CosPiOverX",
    "Affine",
    "ScalarMap",
    "IdentityCap",
    "PassageTimes",
    "TimeChange",
    "NonStickyMartingale",
    "AbsCubeRootOfMartingale",
    "CosDriftExample",
    "ExampleSpec",
    "apply_map",
    "quadratic_variation",
    "time_change",
    "dds_brownianize",
    "drift_by_qv",
    "build_example",
    "example_process",
]


# ------------------------------ scalar maps ------------------------------ #
# Each map is continuous on the whole real line.


@dataclass(frozen=True)
class Identity:
    def __call__(self, x: Array) -> Array:
        return np.asarray(x, dtype=np.float64)


@dataclass(frozen=True)
class Abs:
    def __call__(self, x: Array) -> Array:
        return np.abs(x)


@dataclass(frozen=True)
class SignedPower:
    """``sign(x) * |x|**p`` with ``p > 0``."""

    p: float

    def __post_init__(self):
        if not (np.isfinite(self.p) and self.p > 0.0):
            raise InvalidArgumentError("signed power exponent must be positive")

    def __call__(self, x: Array) -> Array:
        x = np.asarray(x, dtype=np.float64)
        return np.sign(x) * np.abs(x) ** self.p


@dataclass(frozen=True)
class CosPiOverX:
    """``x * cos(pi / x)`` extended continuously by 0 at the origin."""

    def __call__(self, x: Array) -> Array:
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x)
        nonzero = x != 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            out[nonzero] = x[nonzero] * np.cos(np.pi / x[nonzero])
        return out


@dataclass(frozen=True)
class Affine:
    a: float
    b: float

    def __call__(self, x: Array) -> Array:
        return self.a * np.asarray(x, dtype=np.float64) + self.b


ScalarMap = Union[Identity, Abs, SignedPower, CosPiOverX, Affine]


def apply_map(path: Path, f: ScalarMap) -> Path:
    """Pointwise image of the path; grid unchanged."""
    return Path(path.grid, f(path.values), label=path.label)


# ------------------------------ time changes ------------------------------ #


@dataclass(frozen=True)
class IdentityCap:
    """``nu_t = min(t, cap)``: identity until ``cap``, frozen after."""

    cap: float

    def __post_init__(self):
        if not (np.isfinite(self.cap) and self.cap > 0.0):
            raise InvalidArgumentError("cap must be positive")

    def __call__(self, t: Array) -> Array:
        return np.minimum(np.asarray(t, dtype=np.float64), self.cap)


@dataclass(frozen=True, eq=False)
class PassageTimes:
    """Level schedule mapped to passage times; deliberately unbounded.

    Exists to realize the time-changed ramp counterexample: the changed path
    lives on the level schedule's own axis, not on the input grid.
    """

    levels: Array
    grid: TimeGrid = field(init=False, repr=False)

    def __post_init__(self):
        # the schedule is the output grid; TimeGrid checks it starts at 0,
        # strictly increases and is finite, once for every path changed
        grid = TimeGrid(self.levels)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "levels", grid.times)


TimeChange = Union[IdentityCap, PassageTimes]


def time_change(path: Path, nu: TimeChange) -> Path:
    """Evaluate ``X(nu(t))``.

    The capped clock keeps the input grid and interpolates linearly between
    grid points. The passage-time variant returns the path read at detected
    level crossings, on the level schedule's own axis; a level the path does
    not reach within its grid raises ``TimeChangeRangeError``.
    """
    if isinstance(nu, PassageTimes):
        levels = nu.levels
        values = np.empty(levels.size)
        for i, level in enumerate(levels):
            stop = passage_time(path, float(level))
            if not stop.stopped:
                raise TimeChangeRangeError(
                    f"level {level} not attained within the grid horizon"
                )
            values[i] = path.values[stop.index]
        label = f"{path.label}@passage" if path.label else "passage-ramp"
        return Path(nu.grid, values, label=label)
    # min(t, cap) stays within [0, horizon], so no range check is needed
    values = np.interp(nu(path.grid.times), path.grid.times, path.values)
    return Path(path.grid, values, label=path.label)


# ------------------------------ Brownianization ------------------------------ #


def quadratic_variation(path: Path) -> Array:
    """Realized quadratic variation: 0, then the cumulative sum of squared
    increments along the grid."""
    return np.concatenate(([0.0], np.cumsum(np.diff(path.values) ** 2)))


def dds_brownianize(path: Path, qv_grid_steps: int) -> Path:
    """Resample the path on its quadratic-variation clock.

    Output grid is uniform over ``[0, terminal_qv)`` with ``qv_grid_steps``
    points; for a continuous local martingale input the output approximates a
    standard Brownian motion.

    The clock is read at grid points (first grid time whose variation exceeds
    the level, no interpolation): fractional-cell interpolation would deliver
    ``lambda^2 * dqv`` of squared increment against a ``lambda * dqv`` credit
    and systematically shrink increment variances.
    """
    if int(qv_grid_steps) < 2:
        raise InvalidArgumentError("qv_grid_steps must be at least 2")
    qv = quadratic_variation(path)
    total = float(qv[-1])
    if total <= 0.0:
        raise DegenerateInputError("terminal quadratic variation is zero")
    u = np.linspace(0.0, total, int(qv_grid_steps) + 1)[:-1]
    idx = np.searchsorted(qv, u, side="right")  # first index with qv > u
    return Path(TimeGrid(u), path.values[idx], label="dds")


def drift_by_qv(path: Path, f: ScalarMap) -> Path:
    """``X_t - f(qv_t)`` with realized quadratic variation; requires f(0) = 0."""
    f0 = float(np.asarray(f(np.array([0.0])))[0])
    if f0 != 0.0:
        raise ContractViolationError(f"drift map must vanish at 0, got f(0) = {f0}")
    values = path.values - np.asarray(f(quadratic_variation(path)))
    return Path(path.grid, values, label=f"{path.label}-qvdrift" if path.label else "qvdrift")


# ------------------------------ example processes ------------------------------ #


@dataclass(frozen=True)
class NonStickyMartingale:
    """Martingale driven by the exploding integrand 1/(1-s) until its running
    absolute value first exceeds ``barrier``, then by a unit integrand."""

    barrier: float = 2.0

    def __post_init__(self):
        if not (np.isfinite(self.barrier) and self.barrier > 0.0):
            raise InvalidArgumentError("barrier must be positive")


@dataclass(frozen=True)
class AbsCubeRootOfMartingale:
    """Cube root of the absolute value of a base local-martingale path."""

    base: ProcessSpec = BrownianMotion(1.0)


@dataclass(frozen=True)
class CosDriftExample:
    """Stopped-integrand stochastic integral minus ``x*cos(pi/x)`` of its
    pathwise variance clock."""

    hit_level: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.hit_level) and self.hit_level > 0.0):
            raise InvalidArgumentError("hit level must be positive")


ExampleSpec = Union[NonStickyMartingale, AbsCubeRootOfMartingale, CosDriftExample]


def _build_nonsticky(spec: NonStickyMartingale, grid: TimeGrid, seed: SeedSpec) -> Path:
    # Time-change representation: before the exit, X_t = W(1/(1-t) - 1) for a
    # Brownian W; direct integration of 1/(1-s) has unbounded local variance
    # near s = 1 and cannot certify the exit event.
    if grid.horizon < 1.0:
        raise InvalidArgumentError("non-sticky example needs a grid horizon >= 1")
    times = grid.times
    n_steps = grid.n_steps
    pre = times < 1.0
    n_pre = int(pre.sum())  # >= 1, contains t = 0

    rng = seed.generator()
    z_clock = rng.standard_normal(n_steps)
    z_unit = rng.standard_normal(n_steps)

    u = 1.0 / (1.0 - times[:n_pre]) - 1.0
    w = np.concatenate(([0.0], np.cumsum(np.sqrt(np.diff(u)) * z_clock[: n_pre - 1])))

    x = np.empty(times.size)
    x[:n_pre] = w
    j = _first_exit(w, 0, spec.barrier)  # w[0] = 0, so this is the first |w| > barrier
    if j is None:
        j = n_pre - 1  # exit before t=1 is a.s.; clamp guards the measure-zero miss
    dt = np.diff(times)
    x[j + 1 :] = x[j] + np.cumsum(np.sqrt(dt[j:]) * z_unit[j:])
    return Path(grid, x, label="nonsticky-martingale")


def _build_cos_drift(spec: CosDriftExample, grid: TimeGrid, seed: SeedSpec) -> Path:
    b = sample_brownian(grid, seed, 1.0)
    stop = evaluate_rule(FirstAbsExceed(spec.hit_level), b)
    stopped = b.values.copy()
    if stop.stopped:
        stopped[stop.index :] = b.values[stop.index]
    gains = integrate_ito(Path(grid, stopped), b)
    # trapezoidal ds-integral of the stopped squared integrand
    sq = stopped**2
    dt = grid.spacings
    clock = np.concatenate(([0.0], np.cumsum(0.5 * (sq[1:] + sq[:-1]) * dt)))
    values = gains.values - CosPiOverX()(clock)
    return Path(grid, values, label="cos-drift")


def build_example(spec: ExampleSpec, grid: TimeGrid, seed: SeedSpec) -> Path:
    """Construct one path of an explicit example process."""
    if isinstance(spec, NonStickyMartingale):
        return _build_nonsticky(spec, grid, seed)
    if isinstance(spec, AbsCubeRootOfMartingale):
        base = build_path(spec.base, grid, seed)
        out = apply_map(apply_map(base, Abs()), SignedPower(1.0 / 3.0))
        return Path(grid, out.values, label="abs-cuberoot")
    if isinstance(spec, CosDriftExample):
        return _build_cos_drift(spec, grid, seed)
    raise InvalidArgumentError(f"unknown example spec: {spec!r}")


def example_process(spec: ExampleSpec) -> DerivedProcess:
    """Wrap an example spec as a process usable by ensemble sampling."""
    label = {
        NonStickyMartingale: "nonsticky-martingale",
        AbsCubeRootOfMartingale: "abs-cuberoot",
        CosDriftExample: "cos-drift",
    }[type(spec)]
    return DerivedProcess(label=label, build=lambda grid, seed: build_example(spec, grid, seed))
