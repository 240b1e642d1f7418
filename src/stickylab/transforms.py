"""Process constructions: continuous maps, time changes, Brownianization on
the variation clock, and the explicit example processes.

Quadratic variation is the realized (discrete) variation on the grid. The
variation clock ``first grid time with qv > level`` is read at grid points,
without interpolation (``dds_brownianize`` explains why). The capped time
change reads the path between grid points by linear interpolation, which is
exact for the continuous processes in scope up to one grid modulus.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
    Ensemble,
    Path,
    ProcessSpec,
    SeedSpec,
    TimeGrid,
    _count,
    _normals,
    _output,
    _real,
    _result,
    _row_blocks,
    build_path,
    integrate_ito,
    sample_brownian,
)
from .stopping import _abs_exceed_indices, _first_true, passage_time

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
        _real(self.p, "signed power exponent")

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

    def __post_init__(self):
        _real(self.a, "affine a", "(-inf, inf)")
        _real(self.b, "affine b", "(-inf, inf)")

    def __call__(self, x: Array) -> Array:
        return self.a * np.asarray(x, dtype=np.float64) + self.b


ScalarMap = Union[Identity, Abs, SignedPower, CosPiOverX, Affine]


def apply_map(path: Path | Ensemble, f: ScalarMap) -> Path | Ensemble:
    """Pointwise image of the path, or of a row block; grid unchanged."""
    return replace(path, values=f(path.values))


# ------------------------------ time changes ------------------------------ #


@dataclass(frozen=True)
class IdentityCap:
    """``nu_t = min(t, cap)``: identity until ``cap``, frozen after."""

    cap: float

    def __post_init__(self):
        _real(self.cap, "cap")


@dataclass(frozen=True, eq=False)
class PassageTimes:
    """Level schedule mapped to passage times; deliberately unbounded.

    Exists to realize the time-changed ramp counterexample: the changed path
    lives on the level schedule's own axis, not on the input grid. Each
    passage is ``stopping.PassageToLevel``'s, found by comparisons.
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


def time_change(path: Path | Ensemble, nu: TimeChange) -> Path | Ensemble | tuple[Array, Array]:
    """Evaluate ``X(nu(t))`` on one path or on each row of an ``Ensemble`` block.

    The capped clock keeps the input grid: each row is read at the cap by
    ``np.interp``'s linear interpolation between the grid points around it,
    and holds that value from there on. It gives a ``Path`` for a path and an
    ``Ensemble`` for a block. The passage-time variant reads the path at its
    passage to each level, on the level schedule's own axis. For one path, a
    level the path does not reach within its grid raises
    ``TimeChangeRangeError``. For a block it returns the ``(rows, levels)``
    ramp values and the mask of the rows that reach every level; the other
    rows' values are NaN.
    """
    block = path if isinstance(path, Ensemble) else Ensemble(path.grid, path.values[None], 0)
    if isinstance(nu, PassageTimes):
        index = passage_time(block, nu.levels)
        missed = index == block.grid.n_points
        kept = ~missed.any(axis=1)
        values = np.take_along_axis(block.values, np.where(missed, 0, index), axis=1)
        values[~kept] = np.nan
        if isinstance(path, Ensemble):
            return values, kept
        if not kept[0]:
            level = nu.levels[int(np.argmax(missed[0]))]
            raise TimeChangeRangeError(f"level {level} not attained within the grid horizon")
        return Path(nu.grid, values[0])
    if not isinstance(nu, IdentityCap):
        raise InvalidArgumentError(f"unknown time change: {nu!r}")
    # min(t, cap) stays within [0, horizon], so no range check is needed
    t, x, cap = block.grid.times, block.values.copy(), nu.cap
    j = block.grid.last_index_at_or_before(cap)
    if t[j] != cap and j < block.grid.n_steps:  # the cap lies inside step j: read it there
        x[:, j + 1] = (x[:, j + 1] - x[:, j]) / (t[j + 1] - t[j]) * (cap - t[j]) + x[:, j]
        j += 1
    x[:, j + 1 :] = x[:, j : j + 1]
    if isinstance(path, Ensemble):
        return replace(path, values=x)
    return Path(path.grid, x[0])


# ------------------------------ Brownianization ------------------------------ #


def quadratic_variation(path: Path) -> Array:
    """Realized quadratic variation: 0, then the cumulative sum of squared
    increments along the grid. A variation beyond the float range raises
    ``InvalidArgumentError``."""
    with np.errstate(over="ignore"):  # an overflowing variation is refused below
        qv = np.concatenate(([0.0], np.cumsum(np.diff(path.values) ** 2)))
    if not np.isfinite(qv[-1]):
        raise InvalidArgumentError("terminal quadratic variation overflows the float range")
    return qv


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
    qv_grid_steps = _count(qv_grid_steps, "qv_grid_steps", 2)
    qv = quadratic_variation(path)
    total = float(qv[-1])
    if total <= 0.0:
        raise DegenerateInputError("terminal quadratic variation is zero")
    u = np.linspace(0.0, total, qv_grid_steps + 1)[:-1]
    idx = np.searchsorted(qv, u, side="right")  # first index with qv > u
    return Path(TimeGrid(u), path.values[idx])


def drift_by_qv(path: Path, f: ScalarMap) -> Path:
    """``X_t - f(qv_t)`` with realized quadratic variation; requires f(0) = 0."""
    f0 = float(np.asarray(f(np.array([0.0])))[0])
    if f0 != 0.0:
        raise ContractViolationError(f"drift map must vanish at 0, got f(0) = {f0}")
    values = path.values - np.asarray(f(quadratic_variation(path)))
    return Path(path.grid, values)


# ------------------------------ example processes ------------------------------ #


@dataclass(frozen=True)
class NonStickyMartingale:
    """Martingale driven by the exploding integrand 1/(1-s) until its running
    absolute value first exceeds ``barrier``, then by a unit integrand."""

    barrier: float = 2.0

    def __post_init__(self):
        _real(self.barrier, "barrier")


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
        _real(self.hit_level, "hit level")


ExampleSpec = Union[NonStickyMartingale, AbsCubeRootOfMartingale, CosDriftExample]

#: bytes of temporaries per grid point and row of an example block (cos-drift's ~10 arrays)
_EXAMPLE_ROW_BYTES = 96


def _nonsticky_block(spec: NonStickyMartingale, grid: TimeGrid, seed: SeedSpec, x: Array) -> None:
    # Time-change representation: before the exit, X_t = W(1/(1-t) - 1) for a
    # Brownian W; direct integration of 1/(1-s) has unbounded local variance
    # near s = 1 and cannot certify the exit event.
    n = grid.n_steps
    n_pre = int(np.count_nonzero(grid.times < 1.0))  # >= 1, contains t = 0
    z = np.empty((len(x), 2 * n))  # per row: n normals for the clock, then n for the walk
    _normals(seed.master_seed, range(seed.path_index, seed.path_index + len(x)), z)
    clock = z[:, : n_pre - 1]
    clock *= np.sqrt(np.diff(1.0 / (1.0 - grid.times[:n_pre]) - 1.0))
    np.cumsum(clock, axis=1, out=x[:, 1:n_pre])
    # first |W| > barrier; exit before t=1 is a.s., the clamp guards the measure-zero miss
    j = np.minimum(_first_true(np.abs(x[:, :n_pre]) > spec.barrier), n_pre - 1)
    # unit-integrand walk from the exit: a row sum of increments zeroed before it
    walk = np.multiply(z[:, n:], np.sqrt(grid.spacings), out=z[:, n:])
    before = np.arange(n) < j[:, None]
    np.copyto(walk, 0.0, where=before)
    np.cumsum(walk, axis=1, out=walk)
    walk += x[np.arange(len(x)), j][:, None]
    np.copyto(x[:, 1:], walk, where=~before)


def _cos_drift_block(spec: CosDriftExample, grid: TimeGrid, seed: SeedSpec, x: Array) -> None:
    b = sample_brownian(grid, seed, 1.0, n_paths=len(x))
    k = _abs_exceed_indices(b.values, spec.hit_level)  # grid.n_points where never stopped
    at_stop = b.values[np.arange(len(x)), np.minimum(k, grid.n_steps)][:, None]
    stopped = np.where(np.arange(grid.n_points) >= k[:, None], at_stop, b.values)
    gains = integrate_ito(Ensemble(grid, stopped, seed.master_seed), b)
    # trapezoidal ds-integral of the stopped squared integrand
    sq = stopped**2
    clock = np.zeros(x.shape)
    np.cumsum(0.5 * (sq[:, 1:] + sq[:, :-1]) * grid.spacings, axis=1, out=clock[:, 1:])
    np.subtract(gains.values, CosPiOverX()(clock), out=x)


def build_example(spec: ExampleSpec, grid: TimeGrid, seed: SeedSpec, *,
                  n_paths: int | None = None) -> Path | Ensemble:
    """One path of an explicit example process, or with ``n_paths=k`` the k-row
    ``Ensemble`` of paths ``seed.path_index, ...``, as the generators return
    them. Rows are built a row block at a time (``_row_blocks``); each equals
    the path built on its own."""
    if not isinstance(spec, ExampleSpec):
        raise InvalidArgumentError(f"unknown process spec: {spec!r}")
    if isinstance(spec, NonStickyMartingale) and grid.horizon < 1.0:
        raise InvalidArgumentError("non-sticky example needs a grid horizon >= 1")
    if isinstance(spec, AbsCubeRootOfMartingale):  # its base paths' rows are mapped in place
        values = build_path(spec.base, grid, seed, n_paths=1 if n_paths is None else n_paths).values
    else:
        values = _output(grid, n_paths)
    with np.errstate(over="ignore", invalid="ignore"):  # the finiteness check refuses overflow
        for rows in _row_blocks(len(values), _EXAMPLE_ROW_BYTES * grid.n_points):
            block = values[rows]
            block_seed = SeedSpec(seed.master_seed, seed.path_index + rows.start)
            if isinstance(spec, NonStickyMartingale):
                _nonsticky_block(spec, grid, block_seed, block)
            elif isinstance(spec, CosDriftExample):
                _cos_drift_block(spec, grid, block_seed, block)
            else:
                base = Ensemble(grid, block, seed.master_seed)
                block[:] = apply_map(apply_map(base, Abs()), SignedPower(1.0 / 3.0)).values
    return _result(grid, seed, values, n_paths)
