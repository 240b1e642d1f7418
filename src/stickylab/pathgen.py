"""Time grids, reproducible randomness, and base path generation.

Conventions
-----------
- Grids start at time 0 and carry strictly increasing, finite times.
- Every path is a pure function of ``(master_seed, path_index)``: each path
  draws from its own counter-based Philox stream, so ensembles do not depend
  on generation order or block size. Generation is serial, over row blocks
  with about ``_BLOCK_BYTES`` of temporaries (at least one row): the block's
  normals from one re-keyed Philox, then one 2-D transform of the block.
  With ``out=`` the paths are written into the caller's buffer, so a caller
  that draws an ensemble block by block can reuse one.
- Brownian increments over ``[t_i, t_{i+1}]`` are ``N(0, sigma^2 * dt_i)``.
- Fractional Brownian motion is sampled by circulant embedding (Davies-Harte)
  on uniform grids, with a dense Cholesky factorization as fallback when the
  embedding produces negative eigenvalues beyond tolerance. The embedding is
  nonnegative-definite in exact arithmetic, but for H near 1 roundoff pushes
  its smallest eigenvalue below the tolerance, so the fallback does fire: at
  H = 0.999999 for n >= 16384 steps (smallest eigenvalue -6e-6), at
  H = 1 - 1e-8 for n >= 2048 and at H = 1 - 1e-12 for n >= 256.
- Discrete Ito integration uses left endpoints only.
"""

from __future__ import annotations

import math
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
    stays writeable). The spacings, their square roots and uniformity are
    computed once here, since every path sampled on the grid reads them.
    """

    times: Array

    def __post_init__(self):
        times = np.array(self.times, dtype=np.float64)
        times.setflags(write=False)
        object.__setattr__(self, "times", times)
        if times.ndim != 1 or times.size < 2:
            raise InvalidArgumentError("a grid needs at least two time points")
        if not np.all(np.isfinite(times)):
            raise InvalidArgumentError("grid times must be finite")
        if times[0] != 0.0:
            raise InvalidArgumentError("grid must start at time 0")
        dt = np.diff(times)
        if not np.all(dt > 0.0):
            raise InvalidArgumentError("grid times must be strictly increasing")
        sqrt_dt = np.sqrt(dt)
        dt.setflags(write=False)
        sqrt_dt.setflags(write=False)
        object.__setattr__(self, "_spacings", dt)
        object.__setattr__(self, "_sqrt_spacings", sqrt_dt)
        # np.allclose(dt, dt[0], rtol=1e-9, atol=0) without temporaries: a - d0
        # rounds monotonically in a, so max|dt - d0| is reached at an extreme
        d0 = dt[0]
        uniform = bool(max(dt.max() - d0, d0 - dt.min()) <= 1e-9 * d0)
        object.__setattr__(self, "_is_uniform", uniform)

    def __eq__(self, other) -> bool:
        return isinstance(other, TimeGrid) and np.array_equal(self.times, other.times)

    def __hash__(self) -> int:
        return hash(self.times.tobytes())

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
    if not np.isfinite(horizon) or horizon <= 0.0:
        raise InvalidArgumentError(f"horizon must be positive, got {horizon}")
    if int(steps) != steps or steps < 1:
        raise InvalidArgumentError(f"steps must be a positive integer, got {steps}")
    try:  # refused before any sampling, as _empty refuses an ensemble
        times = np.linspace(0.0, float(horizon), int(steps) + 1)
    except (MemoryError, ValueError) as exc:
        raise InvalidArgumentError(f"cannot allocate a grid of {int(steps)} steps: {exc}") from exc
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
            if not hasattr(value, "__index__") or not 0 <= operator.index(value) < 2**64:
                raise InvalidArgumentError(f"{name} must be an integer in [0, 2**64), got {value!r}")
            object.__setattr__(self, name, operator.index(value))

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed, self.path_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def _streams(master_seed: int, first: int, rows: int) -> Iterator[np.random.Generator]:
    """``SeedSpec(master_seed, i).generator()`` for ``i = first ... first + rows - 1``,
    one Philox re-keyed per path (2.5 us against 14.3 us for a new generator)."""
    SeedSpec(master_seed, first + rows - 1)  # the last key must fit in 64 bits too
    rng = SeedSpec(master_seed, first).generator()
    fresh = rng.bit_generator.state
    for index in range(first, first + rows):
        fresh["state"]["key"][1] = index
        rng.bit_generator.state = fresh
        yield rng


def _normals(master_seed: int, first: int, out: Array) -> None:
    """Fill row ``r`` of ``out`` with the standard normals of path ``first + r``."""
    for row, rng in zip(out, _streams(master_seed, first, len(out))):
        rng.standard_normal(out=row)


# ------------------------------ paths ------------------------------ #


@dataclass(frozen=True, eq=False)
class Path:
    """One process realization on a grid, immutable after construction."""

    grid: TimeGrid
    values: Array
    label: str = ""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.n_points,):
            raise InvalidArgumentError(
                f"values length {values.size} does not match grid length {self.grid.n_points}"
            )
        if not np.isfinite(values).all():  # per path: the method skips np.all's dispatch
            raise InvalidArgumentError("path values must be finite")

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
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[1] != self.grid.n_points:
            raise InvalidArgumentError("ensemble values must be (n_paths, n_grid_points)")
        if values.shape[0] < 1:
            raise InvalidArgumentError("ensemble needs at least one path")
        # a NaN or an infinity shows in the extrema, with no array-sized temporary
        if not (np.isfinite(values.min()) and np.isfinite(values.max())):
            raise InvalidArgumentError("ensemble values must be finite")

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
        if not (np.isfinite(self.volatility) and self.volatility > 0.0):
            raise InvalidArgumentError("volatility must be positive")


@dataclass(frozen=True)
class FractionalBrownianMotion:
    hurst: float

    def __post_init__(self):
        if not (0.0 < self.hurst < 1.0):
            raise InvalidArgumentError("hurst must lie strictly inside (0, 1)")


ProcessSpec = Union[BrownianMotion, FractionalBrownianMotion]


# ------------------------------ generators ------------------------------ #

#: a row block holds about this many bytes of temporaries, and at least one row
_BLOCK_BYTES = 4 * 2**20
#: bytes of temporaries budgeted per step and row of a Davies-Harte block; its
#: normals and spectra take 48, as the FFT runs in place
_FGN_ROW_BYTES = 128


def _path_count(n_paths: int) -> int:
    """``n_paths`` read with ``operator.index``, so ``2.5`` is refused, not truncated."""
    if not hasattr(n_paths, "__index__"):
        raise InvalidArgumentError(f"n_paths must be an integer, got {n_paths!r}")
    n = operator.index(n_paths)
    if n < 1:
        raise InvalidArgumentError("n_paths must be at least 1")
    return n


def _empty(n_paths: int, *shape: int) -> Array:
    """An empty ``(n_paths, *shape)`` array; ``InvalidArgumentError`` when
    ``n_paths`` is not an integer of at least 1 or the array cannot be
    allocated, before any sampling."""
    n_paths = _path_count(n_paths)
    try:
        return np.empty((n_paths, *shape))
    except (MemoryError, ValueError) as exc:
        raise InvalidArgumentError(
            f"cannot allocate {n_paths} paths x {math.prod(shape)} points: {exc}"
        ) from exc


def _output(grid: TimeGrid, n_paths: int | None, out: Array | None) -> Array:
    """The rows a generator fills, with ``values[:, 0] = 0``: ``out`` when given,
    else a new array, of one row for a single path."""
    if out is None:
        values = _empty(1 if n_paths is None else n_paths, grid.n_points)
    elif n_paths is None or not (isinstance(out, np.ndarray) and out.dtype == np.float64
                                 and out.shape == (_path_count(n_paths), grid.n_points)
                                 and out.flags.c_contiguous):
        raise InvalidArgumentError(
            "out must be a C-contiguous float64 (n_paths, n_grid_points) array"
        )
    else:
        values = out
    values[:, 0] = 0.0
    return values


def _result(grid: TimeGrid, seed: SeedSpec, values: Array, n_paths: int | None,
            path_label: str, ensemble_label: str) -> Union[Path, Ensemble]:
    if n_paths is None:
        return Path(grid, values[0], label=path_label)
    return Ensemble(grid, values, seed.master_seed, process_label=ensemble_label)


def sample_brownian(grid: TimeGrid, seed: SeedSpec, volatility: float = 1.0, *,
                    n_paths: int | None = None, out: Array | None = None) -> Union[Path, Ensemble]:
    """Brownian path with ``values[0] = 0`` and independent Gaussian increments.

    The increment over ``[t_i, t_{i+1}]`` has variance ``volatility^2 * dt_i``.
    Identical ``(grid, seed, volatility)`` yield a bit-identical path.
    ``n_paths=k`` returns the k-row ``Ensemble`` of paths ``seed.path_index, ...``,
    written into ``out`` (a float64 ``(k, n_points)`` array) when it is given.
    """
    if not (np.isfinite(volatility) and volatility > 0.0):
        raise InvalidArgumentError("volatility must be positive")
    values = _output(grid, n_paths, out)
    step = max(1, _BLOCK_BYTES // (8 * grid.n_steps))  # the increments are the buffer
    with np.errstate(over="ignore", invalid="ignore"):  # the finiteness check refuses overflow
        for a in range(0, len(values), step):
            increments = values[a : a + step, 1:]
            _normals(seed.master_seed, seed.path_index + a, increments)
            increments *= volatility * grid._sqrt_spacings
            np.cumsum(increments, axis=1, out=increments)
    return _result(grid, seed, values, n_paths, "bm", "bm")


@lru_cache(maxsize=16)
def _fgn_sqrt_spectrum(n_steps: int, hurst: float) -> Array | None:
    """Davies-Harte weights for unit-spacing fractional Gaussian noise, or None
    when the circulant embedding is not nonnegative-definite within tolerance.

    With ``m = 2 * n_steps`` eigenvalues ``lam``, entry ``k`` of the read-only
    result is ``sqrt(1/m) * sqrt(lam[k])`` for ``k`` in ``{0, n_steps}`` and
    ``sqrt(1/(2m)) * sqrt(lam[k])`` in between.
    """
    h2 = 2.0 * hurst
    k = np.arange(n_steps + 1, dtype=np.float64)
    gamma = 0.5 * ((k + 1.0) ** h2 + np.abs(k - 1.0) ** h2 - 2.0 * k**h2)
    first_row = np.concatenate((gamma[:n_steps], [gamma[n_steps]], gamma[n_steps - 1 : 0 : -1]))
    eig = np.fft.fft(first_row).real
    if eig.min() < -EMBEDDING_TOLERANCE:
        return None
    m = eig.size
    sqrt_eig = np.sqrt(np.clip(eig[: n_steps + 1], 0.0, None))
    weights = np.sqrt(1.0 / (2.0 * m)) * sqrt_eig
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
               n_paths: int | None = None, out: Array | None = None) -> Union[Path, Ensemble]:
    """Fractional Brownian path with covariance ``(s^2H + t^2H - |t-s|^2H)/2``.

    Requires a uniform grid (the circulant embedding assumes equal spacing).
    Falls back to dense covariance factorization if the embedding fails.
    ``n_paths`` and ``out`` work as for ``sample_brownian``.
    """
    if not (0.0 < hurst < 1.0):
        raise InvalidArgumentError("hurst must lie strictly inside (0, 1)")
    dt = grid.uniform_spacing()
    n = grid.n_steps
    weights = _fgn_sqrt_spectrum(n, float(hurst))
    values = _output(grid, n_paths, out)
    step = max(1, _BLOCK_BYTES // (_FGN_ROW_BYTES * n))
    # the normals and spectra of one block, reused by every block
    z = np.empty((min(step, len(values)), n if weights is None else 2 * n))
    w = None if weights is None else np.empty(z.shape, dtype=np.complex128)
    for a in range(0, len(values), step):
        block = values[a : a + step]
        zb = z[: len(block)]
        _normals(seed.master_seed, seed.path_index + a, zb)
        if weights is None:
            for r, row in enumerate(block):  # a block matmul may round differently
                row[1:] = _fbm_dense_factor(n, dt, float(hurst)) @ zb[r]
            continue
        # Davies-Harte: a Hermitian spectrum from 2n normals per row, one FFT
        wb = w[: len(block)]
        wb[:, 0] = weights[0] * zb[:, 0]
        wb[:, n] = weights[n] * zb[:, 1]
        inner = wb[:, 1:n]  # weights * (z_a + 1j * z_b), without temporaries
        np.multiply(1j, zb[:, n + 1 :], out=inner)
        np.add(zb[:, 2 : n + 1], inner, out=inner)
        np.multiply(weights[1:n], inner, out=inner)
        np.conj(wb[:, n - 1 : 0 : -1], out=wb[:, n + 1 :])
        np.multiply(np.fft.fft(wb, axis=-1).real[:, :n], dt**hurst, out=block[:, 1:])
        np.cumsum(block[:, 1:], axis=1, out=block[:, 1:])
    return _result(grid, seed, values, n_paths, f"fbm-H{hurst:g}", "fbm")


def build_path(spec: ProcessSpec, grid: TimeGrid, seed: SeedSpec, *,
               n_paths: int | None = None, out: Array | None = None) -> Union[Path, Ensemble]:
    """Generate one path of ``spec`` from its per-path seed, or with
    ``n_paths=k`` a k-row ``Ensemble`` of paths ``seed.path_index, ...``
    (in ``out`` when given). Any other spec is one of ``transforms``' examples."""
    if isinstance(spec, BrownianMotion):
        return sample_brownian(grid, seed, spec.volatility, n_paths=n_paths, out=out)
    if isinstance(spec, FractionalBrownianMotion):
        return sample_fbm(grid, seed, spec.hurst, n_paths=n_paths, out=out)
    from .transforms import build_example  # transforms builds on this module
    return build_example(spec, grid, seed, n_paths=n_paths, out=out)


def sample_ensemble(spec: ProcessSpec, grid: TimeGrid, master_seed: int, n_paths: int,
                    workers: int | None = None, *, first: int = 0,
                    out: Array | None = None) -> Ensemble:
    """Sample paths ``first ... first + n_paths - 1``: row ``r`` is path
    ``first + r`` and uses ``SeedSpec(master_seed, first + r)``.

    So a block of rows is bit-identical to the same rows of the whole
    ensemble, and an ensemble can be drawn block by block, each block into
    the same ``out`` buffer. ``build_path`` fills one preallocated array a row
    block at a time. ``workers`` is still checked (at least 1) but has no
    effect; it stays for existing callers.
    """
    if int(first) < 0:
        raise InvalidArgumentError("first must be nonnegative")
    if workers is not None and int(workers) < 1:
        raise InvalidArgumentError("workers must be at least 1")
    return build_path(spec, grid, SeedSpec(master_seed, first), n_paths=_path_count(n_paths),
                      out=out)


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
