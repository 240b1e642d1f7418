"""Process constructions: continuous maps, time changes, quadratic variation,
Brownianization on the variation clock, and the explicit example processes.

Quadratic variation is the realized (discrete) variation on the grid; the
inverse clock ``first s with qv(s) > level`` treats the realized variation as
piecewise linear between grid points. Off-grid path evaluation uses linear
interpolation throughout, which is exact for the continuous processes in
scope up to one grid modulus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import (
    ContractViolationError,
    DegenerateInputError,
    DomainViolationError,
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
    "Power",
    "Exp",
    "SignedPower",
    "CosPiOverX",
    "Affine",
    "Composition",
    "ScalarMap",
    "IdentityCap",
    "DeterministicTable",
    "QVInverse",
    "PassageTimes",
    "TimeChange",
    "QVPath",
    "NonStickyMartingale",
    "AbsCubeRootOfMartingale",
    "CosDriftExample",
    "ExampleSpec",
    "apply_map",
    "quadratic_variation",
    "time_change",
    "qv_inverse",
    "dds_brownianize",
    "drift_by_qv",
    "build_example",
    "example_process",
]

_INF = float("inf")


# ------------------------------ scalar maps ------------------------------ #
# Each map is continuous on its open-interval domain; Lipschitz bounds are
# carried only where they are exact.


@dataclass(frozen=True)
class Identity:
    domain: tuple[float, float] = (-_INF, _INF)
    lipschitz: float | None = 1.0

    def __call__(self, x: Array) -> Array:
        return np.asarray(x, dtype=np.float64)


@dataclass(frozen=True)
class Abs:
    domain: tuple[float, float] = (-_INF, _INF)
    lipschitz: float | None = 1.0

    def __call__(self, x: Array) -> Array:
        return np.abs(x)


@dataclass(frozen=True)
class Power:
    """``x**p``; fractional or negative exponents restrict to positive x."""

    p: float

    def __call__(self, x: Array) -> Array:
        return np.asarray(x, dtype=np.float64) ** self.p

    @property
    def domain(self) -> tuple[float, float]:
        if self.p >= 0.0 and float(self.p).is_integer():
            return (-_INF, _INF)
        return (0.0, _INF)

    lipschitz = None


@dataclass(frozen=True)
class Exp:
    domain: tuple[float, float] = (-_INF, _INF)
    lipschitz = None

    def __call__(self, x: Array) -> Array:
        return np.exp(x)


@dataclass(frozen=True)
class SignedPower:
    """``sign(x) * |x|**p`` with ``p > 0``, continuous on the whole line."""

    p: float

    def __post_init__(self):
        if not (np.isfinite(self.p) and self.p > 0.0):
            raise InvalidArgumentError("signed power exponent must be positive")

    def __call__(self, x: Array) -> Array:
        x = np.asarray(x, dtype=np.float64)
        return np.sign(x) * np.abs(x) ** self.p

    domain = (-_INF, _INF)
    lipschitz = None


@dataclass(frozen=True)
class CosPiOverX:
    """``x * cos(pi / x)`` extended continuously by 0 at the origin."""

    domain: tuple[float, float] = (-_INF, _INF)
    lipschitz = None

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

    domain = (-_INF, _INF)

    @property
    def lipschitz(self) -> float:
        return abs(self.a)


@dataclass(frozen=True)
class Composition:
    """Maps applied in sequence order: first element first."""

    maps: tuple["ScalarMap", ...]

    def __call__(self, x: Array) -> Array:
        for f in self.maps:
            x = f(x)
        return x

    @property
    def domain(self) -> tuple[float, float]:
        return self.maps[0].domain if self.maps else (-_INF, _INF)

    lipschitz = None


ScalarMap = Union[Identity, Abs, Power, Exp, SignedPower, CosPiOverX, Affine, Composition]


def _check_domain(values: Array, f: ScalarMap) -> None:
    lo, hi = f.domain
    inside = (values > lo) & (values < hi)
    if not inside.all():
        first = int(np.argmax(~inside))
        raise DomainViolationError(
            f"value {values[first]} at index {first} lies outside domain ({lo}, {hi})",
            index=first,
        )


def apply_map(path: Path, f: ScalarMap) -> Path:
    """Pointwise image of the path; grid unchanged.

    Compositions are applied map by map so that intermediate domains chain.
    """
    if isinstance(f, Composition):
        for g in f.maps:
            path = apply_map(path, g)
        return path
    _check_domain(path.values, f)
    return Path(path.grid, f(path.values), label=path.label, flags=path.flags)


# ------------------------------ quadratic variation ------------------------------ #


@dataclass(frozen=True, eq=False)
class QVPath:
    """Realized quadratic variation: nondecreasing, starts at 0."""

    grid: TimeGrid
    values: Array

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.n_points,):
            raise InvalidArgumentError("qv values must match the grid length")
        if not np.all(np.isfinite(values)):
            raise InvalidArgumentError("qv values must be finite")
        if values[0] != 0.0 or np.any(np.diff(values) < 0.0):
            raise InvalidArgumentError("qv must start at 0 and be nondecreasing")

    @property
    def terminal(self) -> float:
        return float(self.values[-1])


def quadratic_variation(path: Path) -> QVPath:
    """Cumulative sum of squared increments along the grid."""
    squared = np.diff(path.values) ** 2
    return QVPath(path.grid, np.concatenate(([0.0], np.cumsum(squared))))


def qv_inverse(qv: QVPath, level: float) -> float | None:
    """Smallest time ``s`` with (piecewise-linear) ``qv(s) > level``.

    Returns None when the terminal variation never exceeds ``level``.
    """
    if not (np.isfinite(level) and level >= 0.0):
        raise InvalidArgumentError("level must be finite and nonnegative")
    values = qv.values
    if values[-1] <= level:
        return None
    k = int(np.searchsorted(values, level, side="right"))  # first index strictly above
    t0, t1 = qv.grid.times[k - 1], qv.grid.times[k]
    v0, v1 = values[k - 1], values[k]
    return float(t0 + (level - v0) / (v1 - v0) * (t1 - t0))


# ------------------------------ time changes ------------------------------ #


@dataclass(frozen=True)
class IdentityCap:
    """``nu_t = min(t, cap)``: identity until ``cap``, frozen after."""

    cap: float

    def __post_init__(self):
        if not (np.isfinite(self.cap) and self.cap > 0.0):
            raise InvalidArgumentError("cap must be positive")

    is_bounded = True

    def __call__(self, t: Array) -> Array:
        return np.minimum(np.asarray(t, dtype=np.float64), self.cap)

    def bound_at(self, t: float) -> float:
        return min(float(t), self.cap)


@dataclass(frozen=True, eq=False)
class DeterministicTable:
    """Monotone sample points ``(times, values)``; evaluated by interpolation."""

    times: Array
    values: Array

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.shape != values.shape or times.ndim != 1 or times.size < 2:
            raise InvalidArgumentError("table needs matching 1-d times and values")
        if times[0] != 0.0 or np.any(np.diff(times) <= 0.0):
            raise InvalidArgumentError("table times must strictly increase from 0")
        if values[0] != 0.0 or np.any(np.diff(values) < 0.0):
            raise InvalidArgumentError("table values must be nondecreasing with nu(0) = 0")

    is_bounded = True

    def __call__(self, t: Array) -> Array:
        return np.interp(t, self.times, self.values)

    def bound_at(self, t: float) -> float:
        return float(np.interp(t, self.times, self.values))


@dataclass(frozen=True, eq=False)
class QVInverse:
    """The variation clock ``nu_t = inf{s : qv(s) > t}`` of a realized QV path."""

    source: QVPath

    is_bounded = True

    def __call__(self, t: Array) -> Array:
        flat = np.atleast_1d(np.asarray(t, dtype=np.float64))
        res = np.empty(flat.shape)
        for i, level in enumerate(flat):
            s = qv_inverse(self.source, float(level))
            if s is None:
                raise TimeChangeRangeError(
                    f"variation level {level} is never attained (terminal qv "
                    f"{self.source.terminal})"
                )
            res[i] = s
        return res.reshape(np.shape(t))

    def bound_at(self, t: float) -> float:
        return self.source.grid.horizon


@dataclass(frozen=True, eq=False)
class PassageTimes:
    """Level schedule mapped to passage times; deliberately unbounded.

    Exists to realize the time-changed ramp counterexample; results built
    from it are flagged ``unbounded-time-change``.
    """

    levels: Array
    grid: TimeGrid = field(init=False, repr=False)

    def __post_init__(self):
        # the schedule is the output grid; TimeGrid checks it starts at 0,
        # strictly increases and is finite, once for every path changed
        grid = TimeGrid(self.levels)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "levels", grid.times)

    is_bounded = False


TimeChange = Union[IdentityCap, DeterministicTable, QVInverse, PassageTimes]


def time_change(path: Path, nu: TimeChange) -> Path:
    """Evaluate ``X(nu(t))`` with linear interpolation at off-grid times.

    Bounded variants keep the input grid. The passage-time variant returns
    the path read at detected level crossings on the level schedule's own
    axis, flagged as an unbounded time change.
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
        return Path(
            nu.grid,
            values,
            label=f"{path.label}@passage" if path.label else "passage-ramp",
            flags=path.flags + ("unbounded-time-change",),
        )
    taus = nu(path.grid.times)
    horizon = path.grid.horizon
    if np.any(taus < 0.0) or np.any(taus > horizon * (1.0 + 1e-12)):
        raise TimeChangeRangeError("time change leaves the path's grid span")
    values = np.interp(taus, path.grid.times, path.values)
    return Path(path.grid, values, label=path.label, flags=path.flags)


# ------------------------------ Brownianization ------------------------------ #


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
    total = qv.terminal
    if total <= 0.0:
        raise DegenerateInputError("terminal quadratic variation is zero")
    u = np.linspace(0.0, total, int(qv_grid_steps) + 1)[:-1]
    idx = np.searchsorted(qv.values, u, side="right")  # first index with qv > u
    return Path(TimeGrid(u), path.values[idx], label="dds")


def drift_by_qv(path: Path, f: ScalarMap) -> Path:
    """``X_t - f(qv_t)`` with realized quadratic variation; requires f(0) = 0."""
    f0 = float(np.asarray(f(np.array([0.0])))[0])
    if f0 != 0.0:
        raise ContractViolationError(f"drift map must vanish at 0, got f(0) = {f0}")
    qv = quadratic_variation(path)
    lo, hi = f.domain
    # points of zero variation are covered by the f(0) = 0 contract above
    bad = ((qv.values <= lo) | (qv.values >= hi)) & (qv.values != 0.0)
    if bad.any():
        first = int(np.argmax(bad))
        raise DomainViolationError(
            f"variation value {qv.values[first]} at index {first} lies outside "
            f"domain ({lo}, {hi})",
            index=first,
        )
    values = path.values - np.asarray(f(qv.values))
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
