"""Time grids, reproducible randomness, and base path generation.

Conventions
-----------
- Grids start at time 0 and carry strictly increasing, finite times.
- Every path is a pure function of ``(master_seed, path_index)``: each path
  draws from its own counter-based Philox stream, so ensembles do not depend
  on generation order. Ensembles are generated serially.
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

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Union

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
    "DerivedProcess",
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
    return TimeGrid(np.linspace(0.0, float(horizon), int(steps) + 1))


# ------------------------------ randomness ------------------------------ #


@dataclass(frozen=True)
class SeedSpec:
    """Identifies one path's random stream as ``(master_seed, path_index)``.

    The stream is counter-based (Philox keyed by both integers), so any path
    can be regenerated in isolation and in any order.
    """

    master_seed: int
    path_index: int = 0

    def __post_init__(self):
        if not (0 <= int(self.master_seed) < 2**64):
            raise InvalidArgumentError("master_seed must fit in 64 unsigned bits")
        if int(self.path_index) < 0:
            raise InvalidArgumentError("path_index must be nonnegative")

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed, self.path_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


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
        if not np.all(np.isfinite(values)):
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


@dataclass(frozen=True)
class DerivedProcess:
    """A process built by another module; ``build(grid, seed) -> Path``."""

    label: str
    build: Callable[[TimeGrid, SeedSpec], Path] = field(compare=False)


ProcessSpec = Union[BrownianMotion, FractionalBrownianMotion, DerivedProcess]


def process_label(spec: ProcessSpec) -> str:
    if isinstance(spec, BrownianMotion):
        return "bm"
    if isinstance(spec, FractionalBrownianMotion):
        return "fbm"
    return spec.label


# ------------------------------ generators ------------------------------ #


def sample_brownian(grid: TimeGrid, seed: SeedSpec, volatility: float = 1.0) -> Path:
    """Brownian path with ``values[0] = 0`` and independent Gaussian increments.

    The increment over ``[t_i, t_{i+1}]`` has variance ``volatility^2 * dt_i``.
    Identical ``(grid, seed, volatility)`` yield a bit-identical path.
    """
    if not (np.isfinite(volatility) and volatility > 0.0):
        raise InvalidArgumentError("volatility must be positive")
    rng = seed.generator()
    z = rng.standard_normal(grid.n_steps)
    values = np.empty(grid.n_points)
    values[0] = 0.0
    np.cumsum((volatility * grid._sqrt_spacings) * z, out=values[1:])
    return Path(grid, values, label="bm")


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


def _fgn_unit_sample(rng: np.random.Generator, weights: Array, n_steps: int) -> Array:
    # Davies-Harte synthesis: hermitian spectrum from 2n normals, one FFT.
    half = n_steps
    z = rng.standard_normal(2 * half)
    w = np.empty(2 * half, dtype=np.complex128)
    w[0] = weights[0] * z[0]
    w[half] = weights[half] * z[1]
    interior = weights[1:half] * (z[2 : half + 1] + 1j * z[half + 1 :])
    w[1:half] = interior
    np.conj(interior[::-1], out=w[half + 1 :])
    return np.fft.fft(w).real[:n_steps]


def sample_fbm(grid: TimeGrid, seed: SeedSpec, hurst: float) -> Path:
    """Fractional Brownian path with covariance ``(s^2H + t^2H - |t-s|^2H)/2``.

    Requires a uniform grid (the circulant embedding assumes equal spacing).
    Falls back to dense covariance factorization if the embedding fails.
    """
    if not (0.0 < hurst < 1.0):
        raise InvalidArgumentError("hurst must lie strictly inside (0, 1)")
    dt = grid.uniform_spacing()
    n = grid.n_steps
    rng = seed.generator()
    weights = _fgn_sqrt_spectrum(n, float(hurst))
    values = np.empty(n + 1)
    values[0] = 0.0
    if weights is not None:
        np.cumsum(_fgn_unit_sample(rng, weights, n) * dt**hurst, out=values[1:])
    else:
        factor = _fbm_dense_factor(n, dt, float(hurst))
        values[1:] = factor @ rng.standard_normal(n)
    return Path(grid, values, label=f"fbm-H{hurst:g}")


def build_path(spec: ProcessSpec, grid: TimeGrid, seed: SeedSpec) -> Path:
    """Generate one path of ``spec`` from its per-path seed."""
    if isinstance(spec, BrownianMotion):
        return sample_brownian(grid, seed, spec.volatility)
    if isinstance(spec, FractionalBrownianMotion):
        return sample_fbm(grid, seed, spec.hurst)
    if isinstance(spec, DerivedProcess):
        return spec.build(grid, seed)
    raise InvalidArgumentError(f"unknown process spec: {spec!r}")


def sample_ensemble(
    spec: ProcessSpec,
    grid: TimeGrid,
    master_seed: int,
    n_paths: int,
    workers: int | None = None,
    *,
    first: int = 0,
) -> Ensemble:
    """Sample paths ``first ... first + n_paths - 1``: row ``r`` is path
    ``first + r`` and uses ``SeedSpec(master_seed, first + r)``.

    So a block of rows is bit-identical to the same rows of the whole
    ensemble, and an ensemble can be drawn block by block. Paths are generated
    serially into one preallocated array. ``workers`` is still checked (at
    least 1) but has no effect; it stays for existing callers.
    """
    if int(n_paths) < 1:
        raise InvalidArgumentError("n_paths must be at least 1")
    if int(first) < 0:
        raise InvalidArgumentError("first must be nonnegative")
    if workers is not None and int(workers) < 1:
        raise InvalidArgumentError("workers must be at least 1")
    n_paths, first = int(n_paths), int(first)
    try:
        values = np.empty((n_paths, grid.n_points))
    except (MemoryError, ValueError) as exc:
        raise InvalidArgumentError(
            f"cannot allocate an ensemble of {n_paths} paths x {grid.n_points} points: {exc}"
        ) from exc
    for r in range(n_paths):
        values[r] = build_path(spec, grid, SeedSpec(master_seed, first + r)).values
    return Ensemble(grid, values, master_seed, process_label=process_label(spec))


# ------------------------------ discrete Ito ------------------------------ #


def integrate_ito(integrand: Path, integrator: Path) -> Path:
    """Left-point discrete Ito integral of ``integrand`` against ``integrator``.

    ``result[k] = sum_{i<k} integrand[i] * (integrator[i+1] - integrator[i])``
    with ``result[0] = 0``.
    """
    if integrand.grid != integrator.grid:
        raise GridMismatchError("integrand and integrator must share a grid")
    increments = np.diff(integrator.values)
    values = np.concatenate(([0.0], np.cumsum(integrand.values[:-1] * increments)))
    return Path(integrand.grid, values, label="ito")
