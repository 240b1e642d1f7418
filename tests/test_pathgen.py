import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import ks_2samp

from stickylab.errors import (
    GridMismatchError,
    InvalidArgumentError,
    InvalidRuleError,
    StickyLabError,
    UnsupportedGridError,
)
from stickylab.market import CostModel, LedgerPath, Strategy, momentum_strategy, terminal_stats
from stickylab.pathgen import (
    BrownianMotion,
    Ensemble,
    FractionalBrownianMotion,
    Path,
    SeedSpec,
    TimeGrid,
    build_path,
    integrate_ito,
    make_uniform_grid,
    sample_brownian,
    sample_ensemble,
    sample_fbm,
)
from stickylab.stickiness import (StickinessQuery, survival_ladder, wilson_ci,
                                  zero_success_upper_bound)
from stickylab.stopping import (Deterministic, FirstAbsExceed, HittingFrom, PassageToLevel,
                                StoppedBeforeHorizon, ValueAtStopInRange, passage_time)
from stickylab.transforms import CosDriftExample, IdentityCap, NonStickyMartingale, SignedPower

from oracles import fbm_covariance


# ---------------------------------------------------------------- grids


def test_uniform_grid_values():
    grid = make_uniform_grid(1.0, 4)
    assert np.array_equal(grid.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert make_uniform_grid(1.0, np.int64(4)) == grid


def test_minimal_grid():
    grid = make_uniform_grid(2.0, 1)
    assert np.array_equal(grid.times, [0.0, 2.0])


# 1e11 steps of times take 745 GiB; 1e20 exceed numpy's largest array; a float
# count of steps is refused, as a float count of paths is
@pytest.mark.parametrize("horizon,steps", [(0.0, 4), (-1.0, 4), (1.0, 0), (1.0, 10**11),
                                           (1.0, 10**20), (1.0, 2.0), (1.0, np.float64(3.0))])
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


def test_equal_grids_hash_equally():
    # -0.0 == 0.0, but their bytes differ
    a, b = TimeGrid([-0.0, 0.5, 1.0]), TimeGrid([0.0, 0.5, 1.0])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert np.signbit(a.times[0])  # the stored times are left as given


#: a string, None, a boolean and NaN: no number argument takes any of them
NOT_REAL = {"str": "1", "none": None, "bool": True, "nan": float("nan")}
#: strings, numeric strings, None, complex numbers, a ragged list and booleans, five
#: entries where the length shows: no array argument takes any of them
NOT_REAL_ARRAYS = {
    "str": np.array(["a", "b", "c", "d", "e"]),
    "numeric-str": np.array(["0", "1", "2", "3", "4"]),
    "none": np.array([0.0, None, 2.0, 3.0, 4.0]),
    "complex": np.array([0.0, 1.0j, 2.0, 3.0, 4.0]),
    "ragged": [[0.0, 1.0], [2.0]],
    "bool": np.array([False, True, True, True, True]),
}


@pytest.mark.parametrize(
    "build, match",
    [
        pytest.param(lambda: BrownianMotion(0.0),
                     r"volatility must be a real number in \(0, inf\), got 0.0",
                     id="bm-volatility"),
        pytest.param(lambda: BrownianMotion(10**400),  # leaked a TypeError from np.isfinite
                     r"volatility must be a real number in \(0, inf\), got 1000",
                     id="bm-volatility-beyond-float"),
        pytest.param(lambda: FractionalBrownianMotion(1.0),
                     r"hurst must be a real number in \(0, 1\), got 1.0", id="fbm-hurst"),
        pytest.param(lambda: sample_brownian(make_uniform_grid(1.0, 4), SeedSpec(1, 0), 0.0),
                     r"volatility must be a real number in \(0, inf\), got 0.0",
                     id="sample-volatility"),
        pytest.param(lambda: Ensemble(make_uniform_grid(1.0, 4), np.zeros(5), 1),
                     r"must be \(n_paths", id="ensemble-1d"),
        pytest.param(lambda: Ensemble(make_uniform_grid(1.0, 4), np.zeros((0, 5)), 1),
                     "at least one path", id="ensemble-no-rows"),
        *(pytest.param(lambda v=v: make_uniform_grid(v, 4),
                       rf"horizon must be a real number in \(0, inf\), got {v!r}",
                       id=f"grid-horizon-{k}") for k, v in NOT_REAL.items()),
        *(pytest.param(lambda v=v: BrownianMotion(v),
                       rf"volatility must be a real number in \(0, inf\), got {v!r}",
                       id=f"bm-volatility-{k}") for k, v in NOT_REAL.items()),
        *(pytest.param(lambda v=v: sample_brownian(make_uniform_grid(1.0, 4), SeedSpec(1), v),
                       rf"volatility must be a real number in \(0, inf\), got {v!r}",
                       id=f"sample-volatility-{k}") for k, v in NOT_REAL.items()),
        *(pytest.param(lambda v=v: FractionalBrownianMotion(v),
                       rf"hurst must be a real number in \(0, 1\), got {v!r}",
                       id=f"fbm-hurst-{k}") for k, v in NOT_REAL.items()),
        *(pytest.param(lambda v=v: sample_fbm(make_uniform_grid(1.0, 4), SeedSpec(1), v),
                       rf"hurst must be a real number in \(0, 1\), got {v!r}",
                       id=f"sample-hurst-{k}") for k, v in NOT_REAL.items()),
        # numpy's ValueError leaked, or a numeric string or a boolean was read as a number
        *(pytest.param(lambda v=v: TimeGrid(v), "grid times must be an array of real numbers",
                       id=f"grid-times-{k}") for k, v in NOT_REAL_ARRAYS.items()),
        *(pytest.param(lambda v=v: Path(make_uniform_grid(1.0, 4), v),
                       "path values must be an array of real numbers",
                       id=f"path-values-{k}") for k, v in NOT_REAL_ARRAYS.items()),
        *(pytest.param(lambda v=v: Ensemble(make_uniform_grid(1.0, 4), [v, v], 1),
                       "ensemble values must be an array of real numbers",
                       id=f"ensemble-values-{k}") for k, v in NOT_REAL_ARRAYS.items()),
        # the seed was stored unread
        *(pytest.param(lambda v=v: Ensemble(make_uniform_grid(1.0, 4), np.zeros((1, 5)), v),
                       rf"master_seed must be an integer in \[0, 2\*\*64\), got {v!r}",
                       id=f"ensemble-seed-{v}") for v in ("x", -1, 1.5)),
        # the message's own repr raised a ValueError past 4,300 digits
        pytest.param(lambda: BrownianMotion(10**5000),
                     r"volatility must be a real number in \(0, inf\), got an integer of 16610",
                     id="bm-volatility-too-long-to-print"),
        pytest.param(lambda: BrownianMotion(Fraction(10**5000, 3)),
                     r"volatility must be a real number in \(0, inf\), got a Fraction too long",
                     id="bm-volatility-fraction-too-long-to-print"),
        pytest.param(lambda: SeedSpec(10**5000),
                     r"master_seed must be an integer in \[0, 2\*\*64\), got an integer of 16610",
                     id="seed-too-long-to-print"),
        pytest.param(lambda: sample_ensemble(BrownianMotion(), make_uniform_grid(1.0, 4),
                                             10**5000, 1),
                     "master_seed must be an integer", id="ensemble-seed-too-long-to-print"),
    ],
)
def test_bad_process_and_ensemble_arguments_are_refused(build, match):
    with pytest.raises(InvalidArgumentError, match=match):
        build()


def _wilson_at(level):
    return wilson_ci(1, 10, level)


def _number_sites():
    """Every number argument as ``(name, its call on x, its error class, the check it
    made before the shared reader, frozen, on floats and ints)``."""
    grid, seed = make_uniform_grid(1.0, 4), SeedSpec(1)
    flat = Path(grid, np.ones(5))
    ensemble = Ensemble(grid, np.zeros((2, 5)), 1)
    positive = lambda x: np.isfinite(x) and x > 0.0  # noqa: E731
    nonnegative = lambda x: np.isfinite(x) and x >= 0.0  # noqa: E731
    inside = lambda x: 0.0 < x < 1.0  # noqa: E731
    return [
        ("horizon", lambda x: make_uniform_grid(x, 4), InvalidArgumentError, positive),
        ("volatility", BrownianMotion, InvalidArgumentError, positive),
        ("volatility", lambda x: sample_brownian(grid, seed, x), InvalidArgumentError, positive),
        ("hurst", FractionalBrownianMotion, InvalidArgumentError, inside),
        ("hurst", lambda x: sample_fbm(grid, seed, x), InvalidArgumentError, inside),
        ("deterministic time", Deterministic, InvalidRuleError, nonnegative),
        ("hitting delta", lambda x: HittingFrom(Deterministic(0.0), x), InvalidRuleError, positive),
        ("passage level", PassageToLevel, InvalidRuleError, np.isfinite),
        ("exceedance level", FirstAbsExceed, InvalidRuleError, positive),
        ("event horizon", StoppedBeforeHorizon, InvalidRuleError, positive),
        ("range low", lambda x: ValueAtStopInRange(x, x), InvalidRuleError, lambda x: x <= x),
        ("signed power exponent", SignedPower, InvalidArgumentError, positive),
        ("cap", IdentityCap, InvalidArgumentError, positive),
        ("barrier", NonStickyMartingale, InvalidArgumentError, positive),
        ("hit level", CosDriftExample, InvalidArgumentError, positive),
        ("cost rate", CostModel, InvalidArgumentError, lambda x: 0.0 <= x < 1.0),
        ("admissibility floor", lambda x: CostModel(0.1, x), InvalidArgumentError,
         lambda x: x > 0.0),
        ("tol", lambda x: terminal_stats(np.ones(3), x), InvalidArgumentError, nonnegative),
        ("threshold", lambda x: momentum_strategy(flat, x, 1.0), InvalidArgumentError,
         lambda x: x > 0.0),
        ("unit", lambda x: momentum_strategy(flat, 0.1, x), InvalidArgumentError,
         lambda x: x > 0.0),
        ("confidence", lambda x: StickinessQuery(Deterministic(0.0), 1.0, 0.5, confidence=x),
         InvalidArgumentError, inside),
        ("epsilon", lambda x: StickinessQuery(Deterministic(0.0), 1.0, x), InvalidArgumentError,
         lambda x: 0.0 < x < math.inf),
        ("horizon", lambda x: StickinessQuery(Deterministic(0.0), x, 0.5), InvalidArgumentError,
         lambda x: 0.0 < x < math.inf),
        ("confidence level", _wilson_at, InvalidArgumentError, inside),
        ("confidence level", lambda x: zero_success_upper_bound(10, x), InvalidArgumentError,
         inside),
        ("delta", lambda x: survival_ladder(ensemble, Deterministic(0.0), x, [1.0]),
         InvalidArgumentError, lambda x: 0.0 < x < math.inf),
        ("a ladder horizon", lambda x: survival_ladder(ensemble, Deterministic(0.0), 0.5, [x]),
         InvalidArgumentError, lambda x: 0.0 < x < math.inf),
    ]


SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                  2.225073858507201e-308, 1e308, -1e308, 1.0, 1.0 - 2.0**-53]


@given(st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(), st.integers(-3, 3)))
@settings(max_examples=150, deadline=None)
def test_every_number_argument_accepts_the_reals_it_accepted(x):
    # the shared reader moved no real number in or out of any site's range, but
    # an infinite floor, threshold or unit, which the CLI already refused, and
    # wilson_ci's level 1 - 2**-53, whose two-sided z is infinite
    for name, call, error, before in _number_sites():
        try:  # a call past the check may still refuse x
            call(x)
            refused = False
        except StickyLabError as exc:
            refused = isinstance(exc, error) and str(exc).startswith(f"{name} must be a real")
        moved = (name in ("admissibility floor", "threshold", "unit") and x == math.inf
                 or call is _wilson_at and x == 1.0 - 2.0**-53)
        assert refused == (not before(x) or moved), (name, x)


#: the integer and float dtypes an array argument takes
REAL_DTYPES = [np.int8, np.int64, np.uint8, np.uint64, np.float16, np.float32, np.float64]


@st.composite
def _real_arrays(draw, *shape):
    """An integer or float array of ``shape``, NaN and infinities included, or its list."""
    x = draw(hnp.arrays(st.sampled_from(REAL_DTYPES), shape))
    return x.tolist() if draw(st.booleans()) else x


@st.composite
def _increasing(draw):
    """Grid times or breakpoints from 0, of an integer or float dtype, or their list."""
    steps = draw(st.lists(st.integers(1, 20), min_size=1, max_size=5))
    x = np.array([0, *itertools.accumulate(steps)], dtype=draw(st.sampled_from(REAL_DTYPES)))
    return x.tolist() if draw(st.booleans()) else x


def _array_sites(data):
    """Every array argument as ``(an input of its shape, its call, the arrays or result the
    call keeps, whether it kept a float64 array uncopied before the shared reader)``."""
    grid = make_uniform_grid(1.0, 4)
    block = Ensemble(grid, np.zeros((2, 5)), 1)
    row, rows = data.draw(_real_arrays(5)), data.draw(_real_arrays(3, 5))
    times = data.draw(_increasing())
    return [
        (times, TimeGrid, lambda g: [g.times], False),
        (row, lambda x: Path(grid, x), lambda p: [p.values], True),
        (rows, lambda x: Ensemble(grid, x, 1), lambda e: [e.values], True),
        (times, lambda x: Strategy(x, np.ones(len(x))), lambda s: [s.breakpoints], True),
        (rows, lambda x: Strategy(grid.times, x), lambda s: [s.holdings], True),
        (rows, lambda x: LedgerPath(grid, x, x, x, x),
         lambda v: [v.gains, v.cost_flow, v.liquidation_penalty, v.values], True),
        (row, terminal_stats, lambda stats: [stats], None),
        (row, lambda x: passage_time(block, x), lambda k: [k], None),
    ]


def _outcome(call, x, kept):
    """What ``call(x)`` keeps or returns as a list, or the class and message it raises."""
    try:
        return kept(call(x))
    except StickyLabError as exc:
        return type(exc), str(exc)


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return a == b


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_every_array_argument_takes_the_arrays_it_took(data):
    # the shared reader takes and refuses the integer and float arrays and lists that
    # np.asarray(x, dtype=np.float64) and an isfinite check took and refused, keeps
    # their bits, and copies no float64 array that a site kept uncopied
    for x, call, kept, shares in _array_sites(data):
        frozen = np.asarray(x, dtype=np.float64)
        if not np.all(np.isfinite(frozen)):
            with pytest.raises(StickyLabError, match="must be finite"):
                call(x)
            continue
        got, want = _outcome(call, x, kept), _outcome(call, frozen, kept)
        assert type(got) is type(want) and len(got) == len(want), (got, want)
        assert all(_same(a, b) for a, b in zip(got, want)), (got, want)
        if isinstance(got, list) and shares is not None and isinstance(x, np.ndarray):
            assert all(np.shares_memory(a, x) == (shares and x.dtype == np.float64) for a in got)


def test_array_arguments_are_read_without_an_array_sized_temporary():
    # an Ensemble of 2,000 x 1,024 points and a ledger of four 64 x 1,025 blocks, whose
    # isfinite masks took 4 x 66 kB
    import tracemalloc

    values, blocks = np.zeros((2000, 1024)), np.zeros((4, 64, 1025))
    grid, ledger_grid = make_uniform_grid(1.0, 1023), make_uniform_grid(1.0, 1024)
    for build, nbytes in ((lambda: Ensemble(grid, values, 1), values.nbytes),
                          (lambda: LedgerPath(ledger_grid, *blocks), blocks.nbytes)):
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * nbytes


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

    monkeypatch.setattr(pg, "_fgn_sqrt_spectrum", lambda n, dt, h: None)
    grid = make_uniform_grid(1.0, 8)
    a = pg.sample_fbm(grid, SeedSpec(21, 4), 0.75)
    b = pg.sample_fbm(grid, SeedSpec(21, 4), 0.75)
    assert np.array_equal(a.values, b.values)
    assert a.values[0] == 0.0
    terminals = np.array(
        [pg.sample_fbm(grid, SeedSpec(77, i), 0.75).terminal for i in range(4000)]
    )
    assert terminals.var(ddof=1) == pytest.approx(1.0, abs=0.1)


def _reference_dense_factor(n_steps, dt, hurst):
    # the dense factor as built on meshgrid copies, before it broadcast
    t = dt * np.arange(1, n_steps + 1, dtype=np.float64)
    h2 = 2.0 * hurst
    s, u = np.meshgrid(t, t, indexing="ij")
    cov = 0.5 * (s**h2 + u**h2 - np.abs(s - u) ** h2)
    jitter = 0.0
    for _ in range(6):
        try:
            return np.linalg.cholesky(cov + jitter * np.eye(n_steps))
        except np.linalg.LinAlgError:
            jitter = 1e-12 if jitter == 0.0 else jitter * 10.0
    raise AssertionError("reference factorization failed")


@pytest.mark.parametrize("hurst", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("steps", [1, 8, 64])
def test_fbm_dense_factor_bit_identical_to_reference(hurst, steps):
    import stickylab.pathgen as pg

    dt = 1.0 / steps
    got = pg._fbm_dense_factor.__wrapped__(steps, dt, hurst)
    assert np.array_equal(got, _reference_dense_factor(steps, dt, hurst))


def test_fbm_dense_factor_allocation_failure_is_an_argument_error(monkeypatch):
    # a 2**22 x 2**22 covariance takes 2**47 bytes, more than any 47-bit
    # address space holds, so the request fails before any memory is touched
    import stickylab.pathgen as pg

    monkeypatch.setattr(pg, "_fgn_sqrt_spectrum", lambda n, dt, h: None)
    grid = make_uniform_grid(1.0, 2**22)
    with pytest.raises(InvalidArgumentError, match="4194304 x 4194304 fBm covariance"):
        pg.sample_fbm(grid, SeedSpec(0), 0.75)


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


@pytest.mark.parametrize("spec", [BrownianMotion(1.5), FractionalBrownianMotion(0.3)],
                         ids=["bm", "fbm"])
def test_ensemble_block_rows_match_the_whole_ensemble(spec):
    grid = make_uniform_grid(1.0, 64)
    whole = sample_ensemble(spec, grid, 12, 70)
    for first, n in ((0, 70), (0, 1), (3, 5), (63, 2), (64, 6), (69, 1)):
        block = sample_ensemble(spec, grid, 12, n, first=first)
        assert np.array_equal(block.values, whole.values[first:first + n])
    # a block reaches past the whole ensemble's rows without any special case
    tail = sample_ensemble(spec, grid, 12, 3, first=70)
    assert np.array_equal(tail.values, sample_ensemble(spec, grid, 12, 73).values[70:])


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"first": -1}, "first must be nonnegative"),
        ({"first": "x"}, "first must be an integer, got 'x'"),
        ({"first": None}, "first must be an integer, got None"),
        ({"workers": "x"}, "workers must be an integer, got 'x'"),
        ({"workers": 1.5}, "workers must be an integer, got 1.5"),  # not truncated to 1
        ({"workers": 0}, "workers must be at least 1"),
        ({"first": True}, "first must be an integer, got True"),  # not path 1
    ],
    ids=["first-negative", "first-str", "first-none", "workers-str", "workers-float",
         "workers-zero", "first-bool"],
)
def test_ensemble_block_refuses_a_bad_first_path_or_worker_count(kwargs, match):
    with pytest.raises(InvalidArgumentError, match=match):
        sample_ensemble(BrownianMotion(1.0), make_uniform_grid(1.0, 4), 1, 2, **kwargs)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ensemble_refuses_one_non_finite_interior_cell(bad):
    values = np.zeros((3, 9))
    values[1, 4] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError, match="must be finite"):
            Ensemble(make_uniform_grid(1.0, 8), values, 0)


def test_ensemble_paths_accessor():
    ens = sample_ensemble(BrownianMotion(1.0), make_uniform_grid(1.0, 4), 3, 3)
    for i in range(ens.n_paths):
        p = ens.path(i)
        assert np.array_equal(p.values, ens.values[i])
        assert p.grid == ens.grid


def test_example_spec_dispatch():
    # sampling an example spec hands it to transforms.build_example
    from stickylab.transforms import CosDriftExample, build_example

    grid = make_uniform_grid(1.0, 4)
    ens = sample_ensemble(CosDriftExample(), grid, 0, 3, first=5)
    assert isinstance(ens, Ensemble) and ens.n_paths == 3
    for r in range(3):
        path = build_example(CosDriftExample(), grid, SeedSpec(0, 5 + r))
        assert isinstance(path, Path) and np.array_equal(ens.values[r], path.values)
    with pytest.raises(InvalidArgumentError, match="unknown process spec"):
        sample_ensemble("bm", grid, 0, 3)


# ------------------------------------------- frozen per-path reference code
# Per-path generators with no cached grid invariants or Davies-Harte weights;
# the cached, blocked versions must reproduce these bit for bit. The full-FFT
# fBm reference is the synthesis the half spectrum replaced, kept to rounding.


def _reference_brownian(grid, seed, volatility):
    z = seed.generator().standard_normal(grid.n_steps)
    increments = volatility * np.sqrt(np.diff(grid.times)) * z
    return np.concatenate(([0.0], np.cumsum(increments)))


def _reference_sqrt_eig(n, hurst):
    h2 = 2.0 * hurst
    k = np.arange(n + 1, dtype=np.float64)
    gamma = 0.5 * ((k + 1.0) ** h2 + np.abs(k - 1.0) ** h2 - 2.0 * k**h2)
    first_row = np.concatenate((gamma[:n], [gamma[n]], gamma[n - 1 : 0 : -1]))
    return np.sqrt(np.clip(np.fft.fft(first_row).real, 0.0, None))


def _reference_fbm(grid, seed, hurst):
    # one full Hermitian spectrum of 2n terms and one complex FFT per path
    dt = float(grid.times[1] - grid.times[0])
    n = grid.n_steps
    rng = seed.generator()
    sqrt_eig = _reference_sqrt_eig(n, hurst)
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


def _reference_fbm_half_spectrum(grid, seed, hurst):
    # the same 2n normals as an n + 1 term half spectrum, conjugated, and one
    # real-output FFT per path: real parts z[0], z[2:n+1], z[1]; imaginary
    # parts -z[n+1:] inside and 0 at both ends
    dt = float(grid.times[1] - grid.times[0])
    n = grid.n_steps
    z = seed.generator().standard_normal(2 * n)
    sqrt_eig = _reference_sqrt_eig(n, hurst)[: n + 1] * dt**hurst
    scale = np.sqrt(1.0 / (2.0 * n)) * sqrt_eig
    scale[1:n] = np.sqrt(1.0 / (4.0 * n)) * sqrt_eig[1:n]
    w = np.zeros(n + 1, dtype=np.complex128)
    w.real = scale * np.concatenate(([z[0]], z[2 : n + 1], [z[1]]))
    w.imag[1:n] = -scale[1:n] * z[n + 1 :]
    fgn = np.fft.irfft(w, 2 * n, norm="forward")[:n]
    return np.concatenate(([0.0], np.cumsum(fgn)))


FBM_HURSTS = [0.1, 0.25, 0.5, 0.75, 0.9]
FBM_STEPS = [1, 2, 3, 777, 1024]  # empty and 1-wide interiors, and an odd n


@pytest.mark.parametrize("steps", FBM_STEPS)
@pytest.mark.parametrize("hurst", FBM_HURSTS)
def test_fbm_bit_identical_to_reference(hurst, steps):
    grid = make_uniform_grid(1.0, steps)
    for master_seed in (0, 7, 2**63 + 5):
        ens = sample_ensemble(FractionalBrownianMotion(hurst), grid, master_seed, 4)
        for i in range(ens.n_paths):
            want = _reference_fbm_half_spectrum(grid, SeedSpec(master_seed, i), hurst)
            assert np.array_equal(sample_fbm(grid, SeedSpec(master_seed, i), hurst).values, want)
            assert np.array_equal(ens.values[i], want)


@pytest.mark.parametrize("steps", FBM_STEPS)
@pytest.mark.parametrize("hurst", FBM_HURSTS)
def test_fbm_within_rounding_of_the_full_fft_reference(hurst, steps):
    # the half spectrum and irfft sum the same series as the full complex FFT
    # in another order, so paths agree to rounding, not bit for bit
    grid = make_uniform_grid(1.0, steps)
    for master_seed in (0, 7, 2**63 + 5):
        ens = sample_ensemble(FractionalBrownianMotion(hurst), grid, master_seed, 4)
        for i in range(ens.n_paths):
            want = _reference_fbm(grid, SeedSpec(master_seed, i), hurst)
            assert np.abs(ens.values[i] - want).max() <= 1e-13


@pytest.mark.parametrize("steps", [1, 2, 3, 777])
@pytest.mark.parametrize("hurst", [0.25, 0.75])
def test_fgn_autocovariance_matches_closed_form(hurst, steps):
    # each path's mean of x_i * x_{i+k} over its increment pairs, averaged over
    # 10^4 paths, lies within 3 standard errors of the fGn autocovariance at
    # lags 0, 1, 2 and n - 1: a wrong DC, Nyquist or interior weight shows here.
    # Negated interior imaginary parts only reverse the series in time, which
    # keeps its law; the full-FFT tolerance test above catches that.
    grid = make_uniform_grid(1.0, steps)
    h = grid.times[1]
    lags = sorted({0, 1, 2, steps - 1} & set(range(steps)))
    blocks = []
    for first in range(0, 10_000, 2_500):
        ens = sample_ensemble(FractionalBrownianMotion(hurst), grid, 31, 2_500, first=first)
        x = np.diff(ens.values, axis=1)
        blocks.append([(x[:, : steps - k] * x[:, k:]).mean(axis=1) for k in lags])
    for k, per_path in zip(lags, np.concatenate(blocks, axis=1)):
        gamma = fbm_covariance(h, (k + 1) * h, hurst) - fbm_covariance(h, k * h, hurst)
        se = per_path.std(ddof=1) / np.sqrt(per_path.size)
        assert abs(per_path.mean() - gamma) < 3 * se, (k, per_path.mean(), gamma, se)


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


# ------------------------------------------------ row blocks, bit for bit
# The fBm generator before row blocks: one generator, one half-spectrum
# irfft and one cumsum per path, or the dense factor times one draw of
# normals. Every row of every block must reproduce it (and _reference_brownian).


def _per_path_fbm(grid, seed, hurst):
    import stickylab.pathgen as pg

    dt = grid.uniform_spacing()
    n = grid.n_steps
    if pg._fgn_sqrt_spectrum(n, dt, float(hurst)) is not None:
        return _reference_fbm_half_spectrum(grid, seed, hurst)
    values = np.empty(n + 1)
    values[0] = 0.0
    values[1:] = pg._fbm_dense_factor(n, dt, float(hurst)) @ seed.generator().standard_normal(n)
    return values


def _assert_rows_match_per_path(spec, grid, master_seed, n_paths, first):
    ens = sample_ensemble(spec, grid, master_seed, n_paths, first=first)
    for r, row in enumerate(ens.values):
        seed = SeedSpec(master_seed, first + r)
        if isinstance(spec, BrownianMotion):
            want = _reference_brownian(grid, seed, spec.volatility)
        else:
            want = _per_path_fbm(grid, seed, spec.hurst)
        assert np.array_equal(row, want), (n_paths, first, r)


NONUNIFORM = TimeGrid(np.cumsum([0.0, *np.linspace(0.001, 0.02, 99)]))


@pytest.mark.parametrize(
    "spec,grid",
    [
        (BrownianMotion(0.7), NONUNIFORM),
        (FractionalBrownianMotion(0.3), make_uniform_grid(1.0, 256)),
        (FractionalBrownianMotion(0.75), make_uniform_grid(2.0, 777)),
    ],
    ids=["bm-nonuniform", "fbm-0.3", "fbm-0.75"],
)
@pytest.mark.parametrize("n_paths,first", [(1, 0), (7, 3), (64, 0), (65, 130), (1000, 2**40)])
def test_ensemble_rows_equal_the_per_path_generators(spec, grid, n_paths, first):
    _assert_rows_match_per_path(spec, grid, 2**63 + 9, n_paths, first)


@pytest.mark.parametrize("n_paths,first", [(1, 5), (65, 0), (1000, 17)])
def test_forced_dense_fallback_rows_equal_the_per_path_generator(monkeypatch, n_paths, first):
    import stickylab.pathgen as pg

    monkeypatch.setattr(pg, "_fgn_sqrt_spectrum", lambda n, dt, h: None)
    _assert_rows_match_per_path(FractionalBrownianMotion(0.75), make_uniform_grid(1.0, 32),
                                4, n_paths, first)


def test_natural_dense_fallback_rows_equal_the_per_path_generator():
    import stickylab.pathgen as pg

    grid = make_uniform_grid(1.0, 512)
    assert pg._fgn_sqrt_spectrum(512, 1 / 512, 0.9999999999) is None
    _assert_rows_match_per_path(FractionalBrownianMotion(0.9999999999), grid, 8, 65, 3)


@pytest.mark.parametrize("spec", [BrownianMotion(1.2), FractionalBrownianMotion(0.4)],
                         ids=["bm", "fbm"])
def test_rows_do_not_depend_on_the_block_size(monkeypatch, spec):
    import stickylab.pathgen as pg

    grid = make_uniform_grid(1.0, 100)
    want = sample_ensemble(spec, grid, 3, 150, first=9).values
    for block_bytes in (1, 5000, 10**5, 10**9):  # 1-row blocks up to one block
        monkeypatch.setattr(pg, "_BLOCK_BYTES", block_bytes)
        assert np.array_equal(sample_ensemble(spec, grid, 3, 150, first=9).values, want)


@pytest.mark.parametrize("row_bytes", [8 * 100, 4 * 2**20 + 1])
def test_row_blocks_cover_the_rows_in_order_in_budget_sized_blocks(row_bytes):
    import stickylab.pathgen as pg

    step = max(1, pg._BLOCK_BYTES // row_bytes)
    for n in sorted({1, max(1, step - 1), step, step + 1}):
        blocks = list(pg._row_blocks(n, row_bytes))
        assert [i for rows in blocks for i in range(rows.start, rows.stop)] == list(range(n))
        assert all(rows.step is None for rows in blocks)
        assert all(rows.stop - rows.start == step for rows in blocks[:-1])
        assert 1 <= blocks[-1].stop - blocks[-1].start <= step


def test_rekeyed_normals_equal_fresh_generators_at_the_top_of_the_key_range():
    import stickylab.pathgen as pg

    master, first = 2**64 - 1, 2**64 - 4
    out = np.empty((4, 33))
    pg._normals(master, range(first, first + 4), out)
    for r in range(4):
        want = SeedSpec(master, first + r).generator().standard_normal(33)
        assert np.array_equal(out[r], want)
    # a stream left mid-buffer (integers draws) is reset, counter and all
    for i, rng in enumerate(pg._streams(master, range(first, first + 4))):
        got = rng.integers(0, 2**52, 5)
        assert np.array_equal(got, SeedSpec(master, first + i).generator().integers(0, 2**52, 5))


@settings(max_examples=60, deadline=None)
@given(
    indices=st.lists(st.one_of(st.integers(0, 300), st.integers(2**64 - 300, 2**64 - 1)),
                     min_size=1, max_size=6, unique=True).map(sorted),
    n=st.integers(0, 300),
    data=st.data(),
)
def test_normals_drawn_in_resumed_segments_equal_one_draw(indices, n, data):
    import stickylab.pathgen as pg

    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=5)))  # repeats: empty segments
    out = np.empty((len(indices), n))
    states = np.empty(len(indices), dtype=object)
    for a, b in zip([0, *cuts], [*cuts, n]):
        segment = np.empty((len(indices), b - a))
        pg._normals(7, indices, segment, states)
        out[:, a:b] = segment
    for row, i in zip(out, indices):
        assert np.array_equal(row, SeedSpec(7, i).generator().standard_normal(n))


@pytest.mark.parametrize("grid", [NONUNIFORM, make_uniform_grid(4.0, 300)],
                         ids=["nonuniform", "uniform"])
def test_extended_brownian_rows_equal_the_whole_grid_paths(grid):
    import stickylab.pathgen as pg

    whole = sample_ensemble(BrownianMotion(0.7), grid, 5, 40).values
    indices = np.array([0, 3, 4, 17, 39])
    states = np.empty(len(indices), dtype=object)
    values = np.zeros((len(indices), 1))  # each stream from its start
    for k in (1, 2, 7, 8, grid.n_steps):
        head = TimeGrid(grid.times[: k + 1])
        assert np.array_equal(sample_ensemble(BrownianMotion(0.7), head, 5, 40).values,
                              whole[:, : k + 1])
        part = np.empty((len(indices), k + 1))
        part[:, : values.shape[1]] = values
        pg._brownian_rows(head, 5, 0.7, indices, part, values.shape[1], states)
        assert np.array_equal(part, whole[indices, : k + 1])
        values = part


def test_last_block_index_past_the_key_range_is_refused():
    grid = make_uniform_grid(1.0, 4)
    top = sample_ensemble(BrownianMotion(1.0), grid, 1, 3, first=2**64 - 3)
    assert np.array_equal(top.values[-1], _reference_brownian(grid, SeedSpec(1, 2**64 - 1), 1.0))
    with pytest.raises(InvalidArgumentError, match="got 18446744073709551616"):
        sample_ensemble(FractionalBrownianMotion(0.6), grid, 1, 3, first=2**64 - 2)


def test_n_paths_keyword_returns_the_rows_of_the_one_path_calls():
    grid = make_uniform_grid(1.0, 16)
    seed = SeedSpec(21, 40)
    cases = [
        (sample_fbm, (0.6,), lambda s: sample_fbm(grid, s, 0.6)),
        (sample_brownian, (1.4,), lambda s: sample_brownian(grid, s, 1.4)),
    ]
    for generate, args, one in cases:
        ens = generate(grid, seed, *args, n_paths=5)
        assert isinstance(ens, Ensemble)
        assert ens.master_seed == 21 and ens.n_paths == 5
        for r in range(5):
            assert np.array_equal(ens.values[r], one(SeedSpec(21, 40 + r)).values)
        with pytest.raises(InvalidArgumentError, match="n_paths must be at least 1"):
            generate(grid, seed, *args, n_paths=0)
    from stickylab.transforms import NonStickyMartingale

    ens = build_path(NonStickyMartingale(), grid, seed, n_paths=3)
    assert isinstance(ens, Ensemble) and (ens.master_seed, ens.n_paths) == (21, 3)
    for r in range(3):
        one = build_path(NonStickyMartingale(), grid, SeedSpec(21, 40 + r))
        assert isinstance(one, Path) and np.array_equal(ens.values[r], one.values)


def test_fractional_path_counts_are_refused():
    # int(2.5) would silently draw 2 paths
    grid = make_uniform_grid(1.0, 4)
    with pytest.raises(InvalidArgumentError, match="n_paths must be an integer, got 2.5"):
        sample_ensemble(BrownianMotion(1.0), grid, 1, 2.5)
    with pytest.raises(InvalidArgumentError, match="n_paths must be an integer, got 2.5"):
        sample_fbm(grid, SeedSpec(1), 0.7, n_paths=2.5)
    # True would draw one path on a one-step grid
    with pytest.raises(InvalidArgumentError, match="n_paths must be an integer, got True"):
        sample_ensemble(BrownianMotion(1.0), grid, 1, True)
    with pytest.raises(InvalidArgumentError, match="steps must be an integer, got True"):
        make_uniform_grid(1.0, True)
    assert sample_ensemble(BrownianMotion(1.0), grid, 1, np.int64(3)).n_paths == 3


def test_fbm_block_temporaries_stay_bounded():
    # 64 x 65,536 steps: one row's Davies-Harte temporaries exceed the block
    # budget, so every block is one row, and the peak is the output, the cached
    # weights (16 bytes a step) and one row's normals, half spectrum and irfft
    # output (16 bytes a step each), with 64 KiB for small objects
    import tracemalloc

    import stickylab.pathgen as pg

    grid = make_uniform_grid(1.0, 2**16)
    pg._fgn_sqrt_spectrum.cache_clear()
    tracemalloc.start()
    try:
        ens = sample_ensemble(FractionalBrownianMotion(0.7), grid, 1, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pg._FGN_ROW_BYTES * grid.n_steps > pg._BLOCK_BYTES
    assert peak <= ens.values.nbytes + 4 * 16 * (grid.n_steps + 1) + 2**16


# ---------------------------------------------------------------- seeds


@pytest.mark.parametrize(
    "args,match",
    [
        ((1.5,), "master_seed must be an integer"),
        (("3",), "master_seed must be an integer"),
        ((0, 2.0), "path_index must be an integer"),
        ((0, 2**64), "path_index must be an integer in"),
        ((0, -1), "path_index must be an integer in"),
        ((2**64,), "master_seed must be an integer in"),
        ((-1,), "master_seed must be an integer in"),
        ((True,), "master_seed must be an integer"),  # not seed 1
        ((0, False), "path_index must be an integer"),
    ],
)
def test_seed_spec_refuses_keys_that_would_collide_or_overflow(args, match):
    with pytest.raises(InvalidArgumentError, match=match):
        SeedSpec(*args)


def test_ensemble_refuses_a_fractional_first_path():
    # int(1.5) would silently reuse path 1's stream
    with pytest.raises(InvalidArgumentError, match="first must be an integer, got 1.5"):
        sample_ensemble(BrownianMotion(1.0), make_uniform_grid(1.0, 4), 1, 2, first=1.5)


def test_seed_spec_reads_integer_likes_exactly():
    spec = SeedSpec(np.uint64(2**64 - 1), np.int64(2**40))
    assert (spec.master_seed, spec.path_index) == (2**64 - 1, 2**40)
    assert type(spec.master_seed) is int and type(spec.path_index) is int
    assert np.isfinite(SeedSpec(0, 2**64 - 1).generator().standard_normal())  # no overflow


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


def test_ito_of_a_row_block_integrates_each_row():
    grid = make_uniform_grid(1.0, 64)
    integrand = sample_fbm(grid, SeedSpec(3, 10), 0.7, n_paths=5)
    integrator = sample_brownian(grid, SeedSpec(4, 10), n_paths=5)
    out = integrate_ito(integrand, integrator)
    assert isinstance(out, Ensemble) and out.master_seed == 4
    for r in range(5):
        one = integrate_ito(Path(grid, integrand.values[r]), Path(grid, integrator.values[r]))
        assert np.array_equal(out.values[r], one.values)
    with pytest.raises(GridMismatchError):  # a row block against one path, or fewer rows
        integrate_ito(integrand, Path(grid, integrator.values[0]))
    with pytest.raises(GridMismatchError):
        integrate_ito(integrand, Ensemble(grid, integrator.values[:4], 4))


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


def test_path_values_validated():
    grid = make_uniform_grid(1.0, 2)
    with pytest.raises(InvalidArgumentError):
        Path(grid, np.array([0.0, np.inf, 1.0]))
    with pytest.raises(InvalidArgumentError):
        Path(grid, np.array([0.0, 1.0]))  # wrong length
