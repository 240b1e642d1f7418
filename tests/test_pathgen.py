import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from stickylab.errors import (
    GridMismatchError,
    InvalidArgumentError,
    UnsupportedGridError,
)
from stickylab.pathgen import (
    BrownianMotion,
    DerivedProcess,
    FractionalBrownianMotion,
    Path,
    SeedSpec,
    TimeGrid,
    integrate_ito,
    make_uniform_grid,
    read_ensemble_csv,
    read_path_csv,
    sample_brownian,
    sample_ensemble,
    sample_fbm,
    write_ensemble_csv,
    write_path_csv,
)

from oracles import fbm_covariance


# ---------------------------------------------------------------- grids


def test_uniform_grid_values():
    grid = make_uniform_grid(1.0, 4)
    assert np.array_equal(grid.times, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_minimal_grid():
    grid = make_uniform_grid(2.0, 1)
    assert np.array_equal(grid.times, [0.0, 2.0])


@pytest.mark.parametrize("horizon,steps", [(0.0, 4), (-1.0, 4), (1.0, 0)])
def test_bad_grid_arguments(horizon, steps):
    with pytest.raises(InvalidArgumentError):
        make_uniform_grid(horizon, steps)


def test_grid_invariants_enforced():
    with pytest.raises(InvalidArgumentError):
        TimeGrid(np.array([0.5, 1.0]))  # must start at 0
    with pytest.raises(InvalidArgumentError):
        TimeGrid(np.array([0.0, 1.0, 1.0]))  # strictly increasing
    with pytest.raises(InvalidArgumentError):
        TimeGrid(np.array([0.0]))  # too short


def test_nonuniform_grid_detected():
    grid = TimeGrid(np.array([0.0, 0.1, 0.5, 1.0]))
    assert not grid.is_uniform
    with pytest.raises(UnsupportedGridError):
        grid.uniform_spacing()


def test_grid_copies_times_and_is_read_only():
    times = np.array([0.0, 0.5, 1.0])
    grid = TimeGrid(times)
    assert times.flags.writeable  # the caller's array is left alone
    times[1] = 0.25
    assert grid.times[1] == 0.5
    assert not grid.times.flags.writeable
    assert not grid.spacings.flags.writeable
    assert np.array_equal(grid.spacings, [0.5, 0.5])
    assert grid.is_uniform and grid.uniform_spacing() == 0.5


def test_grid_uniformity_tolerance_matches_allclose():
    for jitter in (0.0, 1e-12, 5e-10, 2e-9, 1e-6):
        times = np.cumsum([0.0, 0.1, 0.1 * (1.0 + jitter), 0.1, 0.1 * (1.0 - jitter)])
        dt = np.diff(times)
        want = bool(np.allclose(dt, dt[0], rtol=1e-9, atol=0.0))
        assert TimeGrid(times).is_uniform == want


# ---------------------------------------------------------------- brownian


def test_brownian_starts_at_zero():
    path = sample_brownian(make_uniform_grid(1.0, 16), SeedSpec(3, 0))
    assert path.values[0] == 0.0


def test_brownian_determinism():
    grid = make_uniform_grid(1.0, 64)
    a = sample_brownian(grid, SeedSpec(99, 7), 1.3)
    b = sample_brownian(grid, SeedSpec(99, 7), 1.3)
    assert np.array_equal(a.values, b.values)
    c = sample_brownian(grid, SeedSpec(99, 8), 1.3)
    assert not np.array_equal(a.values, c.values)


def test_brownian_terminal_second_moment():
    # sample-moment oracle: Var(B_1) = 1
    grid = make_uniform_grid(1.0, 8)
    ens = sample_ensemble(BrownianMotion(1.0), grid, 2021, 100_000)
    assert ens.values[:, -1].__pow__(2).mean() == pytest.approx(1.0, abs=0.02)


def test_brownian_increment_moments():
    # each increment: mean within 4*sigma*sqrt(dt/n) of 0, variance within 5% of sigma^2 dt
    sigma = 1.7
    grid = make_uniform_grid(1.0, 8)
    n = 100_000
    ens = sample_ensemble(BrownianMotion(sigma), grid, 5150, n)
    increments = np.diff(ens.values, axis=1)
    dt = grid.uniform_spacing()
    assert np.all(np.abs(increments.mean(axis=0)) < 4 * sigma * np.sqrt(dt / n))
    assert np.allclose(increments.var(axis=0, ddof=1), sigma**2 * dt, rtol=0.05)


# ---------------------------------------------------------------- fbm


def test_fbm_starts_at_zero():
    for hurst in (0.2, 0.5, 0.8):
        path = sample_fbm(make_uniform_grid(1.0, 16), SeedSpec(1, 0), hurst)
        assert path.values[0] == 0.0


def test_fbm_requires_uniform_grid():
    grid = TimeGrid(np.array([0.0, 0.1, 0.5, 1.0]))
    with pytest.raises(UnsupportedGridError):
        sample_fbm(grid, SeedSpec(1, 0), 0.5)


def test_fbm_rejects_bad_hurst():
    grid = make_uniform_grid(1.0, 8)
    for hurst in (0.0, 1.0, -0.3, 1.5):
        with pytest.raises(InvalidArgumentError):
            sample_fbm(grid, SeedSpec(1, 0), hurst)


@pytest.mark.parametrize("hurst", [0.25, 0.5, 0.75])
def test_fbm_covariance_matches_closed_form(hurst):
    # sample-covariance oracle at 5 fixed grid-point pairs, 3 MC standard errors
    grid = make_uniform_grid(1.0, 8)
    n = 100_000
    ens = sample_ensemble(FractionalBrownianMotion(hurst), grid, 808, n)
    pairs = [(2, 2), (4, 8), (2, 6), (8, 8), (3, 5)]
    for i, j in pairs:
        s, t = grid.times[i], grid.times[j]
        products = ens.values[:, i] * ens.values[:, j]
        se = products.std(ddof=1) / np.sqrt(n)
        assert abs(products.mean() - fbm_covariance(s, t, hurst)) < 3 * se


def test_fbm_half_matches_brownian_distribution():
    # two-sample KS on terminal values below the 1% critical value at n = 1e4
    grid = make_uniform_grid(1.0, 16)
    n = 10_000
    fbm = sample_ensemble(FractionalBrownianMotion(0.5), grid, 11, n)
    bm = sample_ensemble(BrownianMotion(1.0), grid, 12, n)
    stat = ks_2samp(fbm.values[:, -1], bm.values[:, -1]).statistic
    assert stat < 1.628 * np.sqrt(2.0 / n)


def test_fbm_dense_fallback_produces_the_same_law(monkeypatch):
    # force the dense factorization route and check it is deterministic and
    # distributionally sound
    import stickylab.pathgen as pg

    monkeypatch.setattr(pg, "_fgn_sqrt_spectrum", lambda n, h: None)
    grid = make_uniform_grid(1.0, 8)
    a = pg.sample_fbm(grid, SeedSpec(21, 4), 0.75)
    b = pg.sample_fbm(grid, SeedSpec(21, 4), 0.75)
    assert np.array_equal(a.values, b.values)
    assert a.values[0] == 0.0
    terminals = np.array(
        [pg.sample_fbm(grid, SeedSpec(77, i), 0.75).terminal for i in range(4000)]
    )
    assert terminals.var(ddof=1) == pytest.approx(1.0, abs=0.1)


def test_fbm_cov_example_h075():
    # Cov(X_0.5, X_1.0) at H = 0.75 equals 0.5 exactly in closed form
    assert fbm_covariance(0.5, 1.0, 0.75) == pytest.approx(0.5)
    grid = make_uniform_grid(1.0, 8)
    ens = sample_ensemble(FractionalBrownianMotion(0.75), grid, 4242, 50_000)
    products = ens.values[:, 4] * ens.values[:, 8]
    se = products.std(ddof=1) / np.sqrt(ens.n_paths)
    assert abs(products.mean() - 0.5) < 3 * se


# ---------------------------------------------------------------- ensembles


def test_singleton_ensemble_matches_single_path():
    grid = make_uniform_grid(1.0, 32)
    ens = sample_ensemble(BrownianMotion(1.0), grid, 77, 1)
    single = sample_brownian(grid, SeedSpec(77, 0))
    assert np.array_equal(ens.values[0], single.values)


def test_ensemble_worker_count_invariance():
    grid = make_uniform_grid(1.0, 64)
    spec = FractionalBrownianMotion(0.7)
    base = sample_ensemble(spec, grid, 5, 40, workers=1)
    for workers in (2, 4, 8):
        again = sample_ensemble(spec, grid, 5, 40, workers=workers)
        assert np.array_equal(base.values, again.values)


def test_ensemble_allocation_failure_is_an_argument_error():
    # 1e13 x 1025 doubles exceed any address space, so the request fails
    # before any memory is touched
    grid = make_uniform_grid(1.0, 1024)
    with pytest.raises(InvalidArgumentError, match="10000000000000 paths x 1025 points"):
        sample_ensemble(BrownianMotion(1.0), grid, 0, 10**13)
    with pytest.raises(InvalidArgumentError):
        sample_ensemble(BrownianMotion(1.0), grid, 0, 4, workers=0)


def test_ensemble_variance_sigma2():
    # empirical Var at t=1 for sigma=2 within 4.0 +/- 0.08
    grid = make_uniform_grid(1.0, 8)
    ens = sample_ensemble(BrownianMotion(2.0), grid, 31337, 100_000)
    assert ens.values[:, -1].var(ddof=1) == pytest.approx(4.0, abs=0.08)


def test_ensemble_rejects_zero_paths():
    with pytest.raises(InvalidArgumentError):
        sample_ensemble(BrownianMotion(1.0), make_uniform_grid(1.0, 4), 1, 0)


def test_ensemble_paths_accessor():
    ens = sample_ensemble(BrownianMotion(1.0), make_uniform_grid(1.0, 4), 3, 3)
    paths = ens.paths
    assert len(paths) == 3
    for i, p in enumerate(paths):
        assert np.array_equal(p.values, ens.values[i])
        assert p.grid == ens.grid


def test_derived_process_dispatch():
    grid = make_uniform_grid(1.0, 4)
    spec = DerivedProcess("flat", lambda g, s: Path(g, np.zeros(g.n_points), label="flat"))
    ens = sample_ensemble(spec, grid, 0, 3)
    assert ens.process_label == "flat"
    assert np.array_equal(ens.values, np.zeros((3, 5)))


# ------------------------------------------- frozen per-path reference code
# The generators before their grid invariants and Davies-Harte weights were
# cached; the cached versions must reproduce these bit for bit.


def _reference_brownian(grid, seed, volatility):
    z = seed.generator().standard_normal(grid.n_steps)
    increments = volatility * np.sqrt(np.diff(grid.times)) * z
    return np.concatenate(([0.0], np.cumsum(increments)))


def _reference_fbm(grid, seed, hurst):
    dt = float(grid.times[1] - grid.times[0])
    n = grid.n_steps
    rng = seed.generator()
    h2 = 2.0 * hurst
    k = np.arange(n + 1, dtype=np.float64)
    gamma = 0.5 * ((k + 1.0) ** h2 + np.abs(k - 1.0) ** h2 - 2.0 * k**h2)
    first_row = np.concatenate((gamma[:n], [gamma[n]], gamma[n - 1 : 0 : -1]))
    sqrt_eig = np.sqrt(np.clip(np.fft.fft(first_row).real, 0.0, None))
    m = sqrt_eig.size
    half = m // 2
    z = rng.standard_normal(m)
    w = np.zeros(m, dtype=np.complex128)
    w[0] = np.sqrt(1.0 / m) * sqrt_eig[0] * z[0]
    w[half] = np.sqrt(1.0 / m) * sqrt_eig[half] * z[1]
    if half > 1:
        u = z[2 : half + 1]
        v = z[half + 1 :]
        interior = np.sqrt(1.0 / (2.0 * m)) * sqrt_eig[1:half] * (u + 1j * v)
        w[1:half] = interior
        w[half + 1 :] = np.conj(interior[::-1])
    fgn = np.fft.fft(w).real[:n] * dt**hurst
    return np.concatenate(([0.0], np.cumsum(fgn)))


@pytest.mark.parametrize("steps", [1, 2, 3, 1024])
@pytest.mark.parametrize("hurst", [0.1, 0.25, 0.5, 0.75, 0.9])
def test_fbm_bit_identical_to_reference(hurst, steps):
    grid = make_uniform_grid(1.0, steps)
    for master_seed in (0, 7, 2**63 + 5):
        ens = sample_ensemble(FractionalBrownianMotion(hurst), grid, master_seed, 4)
        for i in range(ens.n_paths):
            want = _reference_fbm(grid, SeedSpec(master_seed, i), hurst)
            assert np.array_equal(sample_fbm(grid, SeedSpec(master_seed, i), hurst).values, want)
            assert np.array_equal(ens.values[i], want)


@pytest.mark.parametrize(
    "times",
    [
        np.linspace(0.0, 32.0, 8193),
        np.linspace(0.0, 1.0, 2),
        np.cumsum([0.0, 0.01, 0.3, 0.02, 0.5, 1e-6, 0.17]),  # non-uniform
    ],
)
def test_brownian_bit_identical_to_reference(times):
    grid = TimeGrid(times)
    for master_seed, volatility in ((3, 1.0), (11, 1.7), (2**40, 0.3)):
        ens = sample_ensemble(BrownianMotion(volatility), grid, master_seed, 3)
        for i in range(ens.n_paths):
            want = _reference_brownian(grid, SeedSpec(master_seed, i), volatility)
            got = sample_brownian(grid, SeedSpec(master_seed, i), volatility)
            assert np.array_equal(got.values, want)
            assert np.array_equal(ens.values[i], want)


# ---------------------------------------------------------------- ito integration


def test_ito_unit_integrand_reproduces_increments():
    grid = make_uniform_grid(1.0, 32)
    b = sample_brownian(grid, SeedSpec(8, 0))
    ones = Path(grid, np.ones(grid.n_points))
    out = integrate_ito(ones, b)
    assert np.allclose(out.values, b.values - b.values[0])


def test_ito_zero_integrand():
    grid = make_uniform_grid(1.0, 8)
    b = sample_brownian(grid, SeedSpec(8, 1))
    zeros = Path(grid, np.zeros(grid.n_points))
    assert np.array_equal(integrate_ito(zeros, b).values, np.zeros(grid.n_points))


def test_ito_hand_arithmetic():
    grid = TimeGrid(np.array([0.0, 1.0, 2.0]))
    integrand = Path(grid, np.array([1.0, 2.0, 0.0]))
    integrator = Path(grid, np.array([0.0, 0.5, 0.25]))
    out = integrate_ito(integrand, integrator)
    assert np.array_equal(out.values, np.array([0.0, 0.5, 0.0]))


def test_ito_grid_mismatch():
    a = Path(make_uniform_grid(1.0, 4), np.zeros(5))
    b = Path(make_uniform_grid(2.0, 4), np.zeros(5))
    with pytest.raises(GridMismatchError):
        integrate_ito(a, b)


dyadic = st.integers(-8, 8).map(lambda k: k / 4.0)


@given(
    a=dyadic,
    b=dyadic,
    h1=st.lists(dyadic, min_size=4, max_size=4),
    h2=st.lists(dyadic, min_size=4, max_size=4),
    db=st.lists(dyadic, min_size=3, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_ito_linearity_exact_for_dyadic_inputs(a, b, h1, h2, db):
    # dyadic values keep every product and sum exact, so linearity holds
    # bit-for-bit under the shared summation order
    grid = make_uniform_grid(3.0, 3)
    integrator = Path(grid, np.concatenate(([0.0], np.cumsum(db))))
    p1 = Path(grid, np.array(h1))
    p2 = Path(grid, np.array(h2))
    combo = Path(grid, a * p1.values + b * p2.values)
    lhs = integrate_ito(combo, integrator).values
    rhs = a * integrate_ito(p1, integrator).values + b * integrate_ito(p2, integrator).values
    assert np.array_equal(lhs, rhs)


# ---------------------------------------------------------------- csv round trips


def test_path_csv_round_trip(tmp_path):
    path = sample_brownian(make_uniform_grid(1.0, 16), SeedSpec(3, 2))
    dest = tmp_path / "path.csv"
    write_path_csv(path, dest)
    back = read_path_csv(dest)
    assert np.array_equal(back.grid.times, path.grid.times)
    assert np.array_equal(back.values, path.values)


def test_ensemble_csv_round_trip(tmp_path):
    ens = sample_ensemble(BrownianMotion(1.0), make_uniform_grid(1.0, 8), 9, 5)
    dest = tmp_path / "ens.csv"
    write_ensemble_csv(ens, dest)
    back = read_ensemble_csv(dest, master_seed=9)
    assert np.array_equal(back.values, ens.values)
    assert back.grid == ens.grid


def test_path_values_validated():
    grid = make_uniform_grid(1.0, 2)
    with pytest.raises(InvalidArgumentError):
        Path(grid, np.array([0.0, np.inf, 1.0]))
    with pytest.raises(InvalidArgumentError):
        Path(grid, np.array([0.0, 1.0]))  # wrong length
