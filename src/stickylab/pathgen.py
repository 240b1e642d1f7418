"""Time grids, reproducible randomness, and base path generation.

Conventions
-----------
- Grids start at time 0 and carry strictly increasing, finite times.
- Every path is a pure function of ``(master_seed, path_index)``: each path
  draws from its own counter-based Philox stream, so ensembles do not depend
  on generation order or block size. Generation is serial, over row blocks
  with about ``_BLOCK_BYTES`` of temporaries (at least one row): the block's
  normals from one re-keyed Philox, then one 2-D transform of the block.
- Brownian increments over ``[t_i, t_{i+1}]`` are ``N(0, sigma^2 * dt_i)``, and
  independent: a path's first ``K + 1`` points are, bit for bit, the path drawn
  on ``TimeGrid(grid.times[:K + 1])``. A stream drawn in segments gives the
  normals of one draw, so ``_brownian_rows`` continues such a head where each
  row's stream stopped (``_normals`` records and resumes the states).
- Fractional Brownian motion is sampled by circulant embedding (Davies-Harte)
  on uniform grids: one ``irfft`` of length ``2n`` turns each row's ``2n``
  normals, as an ``n + 1`` term half spectrum, into its increments (within
  1.5e-14 of a full complex FFT, not bit for bit). For H near 1 roundoff
  pushes the embedding's eigenvalues below ``-EMBEDDING_TOLERANCE``, and a
  dense Cholesky factor is the fallback: at H = 0.999999 for n >= 16384
  (smallest eigenvalue -6e-6), at H = 1 - 1e-8 for n >= 2048 and at
  H = 1 - 1e-12 for n >= 256.
- Discrete Ito integration uses left endpoints only.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Union

import numpy as np

from .errors import (
    GridMismatchError,
    InvalidArgumentError,
    NumericalFailureError,
    UnsupportedGridError,
)

Array = np.ndarray

#: eigenvalues of the circulant embedding may dip below zero by at most this
#: much before the dense fallback kicks in
EMBEDDING_TOLERANCE = 1e-10

__all__ = [
    "TimeGrid",
    "SeedSpec",
    "Path",
    "Ensemble",
    "BrownianMotion",
    "FractionalBrownianMotion",
    "ProcessSpec",
    "make_uniform_grid",
    "sample_brownian",
    "sample_fbm",
    "sample_ensemble",
    "integrate_ito",
]


# ------------------------------ time grids ------------------------------ #


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """A finite, strictly increasing sequence of times starting at 0.

    ``times`` is a read-only copy of the array passed in (the caller's array
    stays writeable). The spacings and uniformity are computed once here,
    since every path sampled on the grid reads them.
    """

    times: Array

    def __post_init__(self):
        times = _finite_array(self.times, "grid times").copy()
        times.setflags(write=False)
        object.__setattr__(self, "times", times)
        if times.ndim != 1 or times.size < 2:
            raise InvalidArgumentError("a grid needs at least two time points")
        if times[0] != 0.0:
            raise InvalidArgumentError("grid must start at time 0")
        dt = np.diff(times)
        if not np.all(dt > 0.0):
            raise InvalidArgumentError("grid times must be strictly increasing")
        dt.setflags(write=False)
        object.__setattr__(self, "_spacings", dt)
        # np.allclose(dt, dt[0], rtol=1e-9, atol=0) without temporaries: a - d0
        # rounds monotonically in a, so max|dt - d0| is reached at an extreme
        d0 = dt[0]
        uniform = bool(max(dt.max() - d0, d0 - dt.min()) <= 1e-9 * d0)
        object.__setattr__(self, "_is_uniform", uniform)

    def __eq__(self, other) -> bool:
        return isinstance(other, TimeGrid) and np.array_equal(self.times, other.times)

    def __hash__(self) -> int:
        return hash((self.times + 0.0).tobytes())  # -0.0 + 0.0 is 0.0: equal grids, one hash

    @property
    def n_points(self) -> int:
        return int(self.times.size)

    @property
    def n_steps(self) -> int:
        return int(self.times.size - 1)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def spacings(self) -> Array:
        """Read-only ``np.diff(times)``."""
        return self._spacings

    @property
    def is_uniform(self) -> bool:
        return self._is_uniform

    def uniform_spacing(self) -> float:
        """Common spacing, or raise if the grid is not uniform."""
        if not self._is_uniform:
            raise UnsupportedGridError("grid is not uniformly spaced")
        return float(self._spacings[0])

    def first_index_at_or_after(self, t: float) -> int:
        """Smallest index ``k`` with ``times[k] >= t``."""
        return int(np.searchsorted(self.times, t, side="left"))

    def last_index_at_or_before(self, t: float) -> int:
        """Largest index ``k`` with ``times[k] <= t``."""
        return int(np.searchsorted(self.times, t, side="right") - 1)


def make_uniform_grid(horizon: float, steps: int) -> TimeGrid:
    """Uniform grid ``{0, h, 2h, ..., horizon}`` with ``h = horizon / steps``."""
    _real(horizon, "horizon")
    steps = _count(steps, "steps")
    try:  # refused before any sampling, as _empty refuses an ensemble
        times = np.linspace(0.0, float(horizon), steps + 1)
    except (MemoryError, ValueError) as exc:
        raise InvalidArgumentError(f"cannot allocate a grid of {steps} steps: {exc}") from exc
    return TimeGrid(times)


# ------------------------------ randomness ------------------------------ #


@dataclass(frozen=True)
class SeedSpec:
    """Identifies one path's random stream as ``(master_seed, path_index)``.

    The stream is counter-based (Philox keyed by both integers), so any path
    can be regenerated in isolation and in any order. Both fields are read
    with ``operator.index``, so ``1.5`` or ``'3'`` is refused, not truncated.
    """

    master_seed: int
    path_index: int = 0

    def __post_init__(self):
        for name in ("master_seed", "path_index"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not hasattr(value, "__index__")
                    or not 0 <= operator.index(value) < 2**64):
                raise InvalidArgumentError(
                    f"{name} must be an integer in [0, 2**64), got {_shown(value)}")
            object.__setattr__(self, name, operator.index(value))

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed, self.path_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def _streams(master_seed: int, indices) -> Iterator[np.random.Generator]:
    """``SeedSpec(master_seed, i).generator()`` for each ``i`` of the increasing ``indices``,
    one Philox re-keyed per path (2.5 us against 14.3 us for a new generator)."""
    SeedSpec(master_seed, indices[-1])  # the last key must fit in 64 bits too
    rng = SeedSpec(master_seed, indices[0]).generator()
    fresh = rng.bit_generator.state
    for index in indices:
        fresh["state"]["key"][1] = index
        rng.bit_generator.state = fresh
        yield rng


def _normals(master_seed: int, indices, out: Array, states: Array | None = None) -> None:
    """Fill row ``r`` of ``out`` with the next standard normals of path
    ``indices[r]``: from the start of its stream, or where the object array
    ``states`` left it (``states[r]`` not None), which then records where it stops."""
    for r, rng in enumerate(_streams(master_seed, indices)):
        if states is not None and states[r] is not None:
            rng.bit_generator.state = states[r]
        rng.standard_normal(out=out[r])
        if states is not None:
            states[r] = rng.bit_generator.state


# ------------------------------ paths ------------------------------ #


@dataclass(frozen=True, eq=False)
class Path:
    """One process realization on a grid, immutable after construction."""

    grid: TimeGrid
    values: Array
    label: str = ""

    def __post_init__(self):
        values = _finite_array(self.values, "path values")
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.n_points,):
            raise InvalidArgumentError(
                f"values length {values.size} does not match grid length {self.grid.n_points}"
            )

    @property
    def terminal(self) -> float:
        return float(self.values[-1])


@dataclass(frozen=True, eq=False)
class Ensemble:
    """A seeded collection of paths sharing one grid.

    ``values`` has shape ``(n_paths, n_points)``. Row ``r`` of a block drawn by
    ``sample_ensemble(..., first=a)`` is path ``a + r``, reproducible from
    ``SeedSpec(master_seed, a + r)``; a whole ensemble has ``a = 0``.
    """

    grid: TimeGrid
    values: Array
    master_seed: int
    process_label: str = ""

    def __post_init__(self):
        values = _finite_array(self.values, "ensemble values")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "master_seed", SeedSpec(self.master_seed).master_seed)
        if values.ndim != 2 or values.shape[1] != self.grid.n_points:
            raise InvalidArgumentError("ensemble values must be (n_paths, n_grid_points)")
        if values.shape[0] < 1:
            raise InvalidArgumentError("ensemble needs at least one path")

    @property
    def n_paths(self) -> int:
        return int(self.values.shape[0])

    def path(self, i: int) -> Path:
        return Path(self.grid, self.values[i], label=self.process_label)


# ------------------------------ process specs ------------------------------ #


@dataclass(frozen=True)
class BrownianMotion:
    volatility: float = 1.0

    def __post_init__(self):
        _real(self.volatility, "volatility")


@dataclass(frozen=True)
class FractionalBrownianMotion:
    hurst: float

    def __post_init__(self):
        _real(self.hurst, "hurst", "(0, 1)")


ProcessSpec = Union[BrownianMotion, FractionalBrownianMotion]


# ------------------------------ generators ------------------------------ #

#: a row block holds about this many bytes of temporaries, and at least one row
_BLOCK_BYTES = 4 * 2**20
#: bytes budgeted per step and row of a Davies-Harte block, whose normals, half
#: spectrum and ``irfft`` output take 16 each; 48 (85 rows at 1,024 steps) drew slower
_FGN_ROW_BYTES = 128


def _row_blocks(n_rows: int, row_bytes: int = 0, *, rows: int = 0) -> Iterator[slice]:
    """Consecutive slices of ``range(n_rows)`` of ``rows`` rows when given, else of about
    ``_BLOCK_BYTES`` of temporaries at ``row_bytes`` a row, and at least one row."""
    step = rows or max(1, _BLOCK_BYTES // row_bytes)
    for a in range(0, n_rows, step):
        yield slice(a, min(a + step, n_rows))


def _count(value, name: str, least: int = 1) -> int:
    """The count ``value`` read with ``operator.index``, so ``2.5``, ``'3'`` or ``True``
    is refused, not truncated; ``InvalidArgumentError`` when it is below ``least``."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}")
    n = operator.index(value)
    if n < least:
        bound = f"at least {least}" if least else "nonnegative"
        raise InvalidArgumentError(f"{name} must be {bound}")
    return n


def _real(value, name: str, interval: str = "(0, inf)", error: type = InvalidArgumentError) -> None:
    """Raises ``error`` naming ``name`` unless ``value`` is a real number in ``interval``,
    written ``'(0, inf)'``, ``'[0, 1)'``, ...; a boolean, a string, an array, NaN or an
    integer beyond the float range is none. The caller keeps ``value`` as given."""
    low, high = map(float, interval[1:-1].split(","))
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:  # NaN, like a non-number, fails every comparison below
        x = float(value) if real else math.nan
    except OverflowError:  # an integer beyond the float range
        x = math.nan
    if not ((low <= x if interval[0] == "[" else low < x)
            and (x <= high if interval[-1] == "]" else x < high)):
        raise error(f"{name} must be a real number in {interval}, got {_shown(value)}")


def _finite_array(value, name: str, error: type = InvalidArgumentError) -> Array:
    """``value`` as a float64 array, not copied if it is one; raises ``error`` naming ``name``
    unless it is an array of integers or floats, not a ragged list, with finite entries."""
    try:
        array = np.asarray(value)
    except (ValueError, TypeError) as exc:  # a ragged list, say
        raise error(f"{name} must be an array of real numbers: {exc}") from exc
    if array.dtype.kind not in "iuf":  # strings, booleans, complex numbers, objects
        raise error(f"{name} must be an array of real numbers, got dtype {array.dtype}")
    array = array.astype(np.float64, copy=False)
    if array.size and not (np.isfinite(array.min()) and np.isfinite(array.max())):
        raise error(f"{name} must be finite")  # the extrema show a NaN or an infinity
    return array


def _shown(value) -> str:
    """``repr(value)``, or the bit length of an integer past 4,000 digits, which ``repr``
    refuses past ``sys.get_int_max_str_digits()`` (4,300 by default)."""
    big = isinstance(value, int) and value.bit_length() > 13_287  # 10**4000 has 13,288 bits
    return f"an integer of {value.bit_length()} bits" if big else repr(value)


def _empty(n_paths: int, *shape: int) -> Array:
    """An empty ``(n_paths, *shape)`` array; ``InvalidArgumentError`` when
    ``n_paths`` is not an integer of at least 1 or the array cannot be
    allocated, before any sampling."""
    n_paths = _count(n_paths, "n_paths")
    try:
        return np.empty((n_paths, *shape))
    except (MemoryError, ValueError) as exc:
        raise InvalidArgumentError(
            f"cannot allocate {n_paths} paths x {math.prod(shape)} points: {exc}"
        ) from exc


def _output(grid: TimeGrid, n_paths: int | None) -> Array:
    """The new rows a generator fills, with ``values[:, 0] = 0``: one row for a
    single path."""
    values = _empty(1 if n_paths is None else n_paths, grid.n_points)
    values[:, 0] = 0.0
    return values


def _result(grid: TimeGrid, seed: SeedSpec, values: Array, n_paths: int | None,
            path_label: str, ensemble_label: str) -> Union[Path, Ensemble]:
    if n_paths is None:
        return Path(grid, values[0], label=path_label)
    return Ensemble(grid, values, seed.master_seed, process_label=ensemble_label)


def sample_brownian(grid: TimeGrid, seed: SeedSpec, volatility: float = 1.0, *,
                    n_paths: int | None = None) -> Union[Path, Ensemble]:
    """Brownian path with ``values[0] = 0`` and independent Gaussian increments.

    The increment over ``[t_i, t_{i+1}]`` has variance ``volatility^2 * dt_i``.
    Identical ``(grid, seed, volatility)`` yield a bit-identical path.
    ``n_paths=k`` returns the k-row ``Ensemble`` of paths ``seed.path_index, ...``.
    """
    _real(volatility, "volatility")
    values = _output(grid, n_paths)
    first = seed.path_index
    for rows in _row_blocks(len(values), 8 * grid.n_steps):  # the increments are the buffer
        _brownian_rows(grid, seed.master_seed, volatility,
                       range(first + rows.start, first + rows.stop), values[rows])
    return _result(grid, seed, values, n_paths, "bm", "bm")


def _brownian_rows(grid: TimeGrid, master_seed: int, volatility: float, indices, values: Array,
                   start: int = 1, states: Array | None = None) -> None:
    """Fill ``values[:, start:]`` with paths ``indices`` past their first ``start``
    points: the streams' next normals, scaled and summed onto ``values[:, start - 1]``,
    which goes into the first increment so the sums are the whole path's ``cumsum``."""
    increments = values[:, start:]
    _normals(master_seed, indices, increments, states)
    with np.errstate(over="ignore", invalid="ignore"):  # the finiteness check refuses overflow
        increments *= volatility * np.sqrt(grid.spacings[start - 1 :])
        if start > 1:
            increments[:, 0] += values[:, start - 1]
        np.cumsum(increments, axis=1, out=increments)


@lru_cache(maxsize=16)
def _fgn_sqrt_spectrum(n_steps: int, dt: float, hurst: float) -> Array | None:
    """Half-spectrum Davies-Harte weights of fGn at spacing ``dt``, or None when
    the circulant embedding is not nonnegative-definite within tolerance.

    With ``m = 2 * n_steps`` unit-spacing eigenvalues ``lam``, entry ``k`` of the
    read-only result is ``dt^H * sqrt(lam[k] / m)`` for ``k`` in ``{0, n_steps}``
    and ``dt^H * (1 - 1j) * sqrt(lam[k] / (2m))`` in between, its imaginary part
    negated since ``irfft`` sums with the positive exponent.
    """
    h2 = 2.0 * hurst
    k = np.arange(n_steps + 1, dtype=np.float64)
    gamma = 0.5 * ((k + 1.0) ** h2 + np.abs(k - 1.0) ** h2 - 2.0 * k**h2)
    first_row = np.concatenate((gamma[:n_steps], [gamma[n_steps]], gamma[n_steps - 1 : 0 : -1]))
    eig = np.fft.fft(first_row).real
    if eig.min() < -EMBEDDING_TOLERANCE:
        return None
    m = eig.size
    sqrt_eig = np.sqrt(np.clip(eig[: n_steps + 1], 0.0, None)) * dt**hurst
    weights = np.sqrt(1.0 / (2.0 * m)) * sqrt_eig * (1 - 1j)
    weights[[0, n_steps]] = np.sqrt(1.0 / m) * sqrt_eig[[0, n_steps]]
    weights.setflags(write=False)
    return weights


@lru_cache(maxsize=8)
def _fbm_dense_factor(n_steps: int, dt: float, hurst: float) -> Array:
    """Cholesky factor of the fBm covariance at the strictly positive grid
    times; jitter is escalated before declaring numerical failure.

    An ``n_steps x n_steps`` matrix that cannot be allocated raises
    ``InvalidArgumentError``.
    """
    t = dt * np.arange(1, n_steps + 1, dtype=np.float64)
    h2 = 2.0 * hurst
    s, u = t[:, None], t[None, :]
    try:
        cov = 0.5 * (s**h2 + u**h2 - np.abs(s - u) ** h2)
        jitter = 0.0
        for _ in range(6):
            try:
                # cov + 0.0 == cov entrywise, so the first try skips two n x n temporaries
                return np.linalg.cholesky(cov + jitter * np.eye(n_steps) if jitter else cov)
            except np.linalg.LinAlgError:  # a ValueError, so caught before the one below
                jitter = 1e-12 if jitter == 0.0 else jitter * 10.0
    except (MemoryError, ValueError) as exc:
        raise InvalidArgumentError(
            f"cannot allocate the {n_steps} x {n_steps} fBm covariance: {exc}"
        ) from exc
    raise NumericalFailureError(
        "fBm dense covariance factorization failed; this indicates an internal bug"
    )


def sample_fbm(grid: TimeGrid, seed: SeedSpec, hurst: float, *,
               n_paths: int | None = None) -> Union[Path, Ensemble]:
    """Fractional Brownian path with covariance ``(s^2H + t^2H - |t-s|^2H)/2``.

    Requires a uniform grid (the circulant embedding assumes equal spacing).
    Falls back to dense covariance factorization if the embedding fails.
    ``n_paths`` works as for ``sample_brownian``.
    """
    _real(hurst, "hurst", "(0, 1)")
    dt = grid.uniform_spacing()
    n = grid.n_steps
    weights = _fgn_sqrt_spectrum(n, dt, float(hurst))
    values = _output(grid, n_paths)
    first = seed.path_index
    for rows in _row_blocks(len(values), _FGN_ROW_BYTES * n):
        block = values[rows]
        z = np.empty((len(block), n if weights is None else 2 * n))
        _normals(seed.master_seed, range(first + rows.start, first + rows.stop), z)
        if weights is None:  # factor @ each row, as for one path; z @ factor.T rounds differently
            block[:, 1:] = np.matmul(_fbm_dense_factor(n, dt, float(hurst)), z[:, :, None])[:, :, 0]
            continue
        # Davies-Harte: a half spectrum from 2n normals per row, one real-output FFT
        w = np.empty((len(block), n + 1), dtype=np.complex128)
        w.real[:, 0], w.real[:, n] = weights.real[0] * z[:, 0], weights.real[n] * z[:, 1]
        np.multiply(z[:, 2 : n + 1], weights.real[1:n], out=w.real[:, 1:n])
        np.multiply(z[:, n + 1 :], weights.imag[1:n], out=w.imag[:, 1:n])
        w.imag[:, [0, n]] = 0.0
        np.cumsum(np.fft.irfft(w, 2 * n, norm="forward")[:, :n], axis=1, out=block[:, 1:])
    return _result(grid, seed, values, n_paths, f"fbm-H{hurst:g}", "fbm")


def build_path(spec: ProcessSpec, grid: TimeGrid, seed: SeedSpec, *,
               n_paths: int | None = None) -> Union[Path, Ensemble]:
    """Generate one path of ``spec`` from its per-path seed, or with
    ``n_paths=k`` a k-row ``Ensemble`` of paths ``seed.path_index, ...``.
    Any other spec is one of ``transforms``' examples."""
    if isinstance(spec, BrownianMotion):
        return sample_brownian(grid, seed, spec.volatility, n_paths=n_paths)
    if isinstance(spec, FractionalBrownianMotion):
        return sample_fbm(grid, seed, spec.hurst, n_paths=n_paths)
    from .transforms import build_example  # transforms builds on this module
    return build_example(spec, grid, seed, n_paths=n_paths)


def sample_ensemble(spec: ProcessSpec, grid: TimeGrid, master_seed: int, n_paths: int,
                    workers: int | None = None, *, first: int = 0) -> Ensemble:
    """Sample paths ``first ... first + n_paths - 1``: row ``r`` is path
    ``first + r`` and uses ``SeedSpec(master_seed, first + r)``.

    So a block of rows is bit-identical to the same rows of the whole
    ensemble, and an ensemble can be drawn block by block. ``workers`` is
    still checked (at least 1) but has no effect; it stays for existing callers.
    """
    first = _count(first, "first", 0)
    if workers is not None:
        _count(workers, "workers")
    return build_path(spec, grid, SeedSpec(master_seed, first),
                      n_paths=_count(n_paths, "n_paths"))


# ------------------------------ discrete Ito ------------------------------ #


def integrate_ito(integrand: Path | Ensemble, integrator: Path | Ensemble) -> Path | Ensemble:
    """Left-point discrete Ito integral of ``integrand`` against ``integrator``,
    for one path or row by row for a row block, along the last axis.

    ``result[k] = sum_{i<k} integrand[i] * (integrator[i+1] - integrator[i])``
    with ``result[0] = 0``.
    """
    if integrand.grid != integrator.grid or integrand.values.shape != integrator.values.shape:
        raise GridMismatchError("integrand and integrator must share a grid and a shape")
    values = np.zeros(integrator.values.shape)
    np.cumsum(integrand.values[..., :-1] * np.diff(integrator.values), axis=-1,
              out=values[..., 1:])
    if isinstance(integrator, Ensemble):
        return Ensemble(integrator.grid, values, integrator.master_seed, "ito")
    return Path(integrand.grid, values, label="ito")
