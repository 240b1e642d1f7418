import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stickylab.errors import (
    ContractViolationError,
    DegenerateInputError,
    InvalidArgumentError,
    TimeChangeRangeError,
)
from stickylab.pathgen import (
    BrownianMotion,
    Ensemble,
    Path,
    SeedSpec,
    TimeGrid,
    make_uniform_grid,
    sample_brownian,
    sample_ensemble,
)
from stickylab.transforms import (
    Abs,
    AbsCubeRootOfMartingale,
    Affine,
    CosDriftExample,
    CosPiOverX,
    Identity,
    IdentityCap,
    NonStickyMartingale,
    PassageTimes,
    SignedPower,
    apply_map,
    build_example,
    dds_brownianize,
    drift_by_qv,
    quadratic_variation,
    time_change,
)


def bm_path(steps=256, seed=0, horizon=1.0, sigma=1.0):
    return sample_brownian(make_uniform_grid(horizon, steps), SeedSpec(123, seed), sigma)


# ---------------------------------------------------------------- scalar maps


def test_identity_map_is_noop():
    p = bm_path()
    assert np.array_equal(apply_map(p, Identity()).values, p.values)


def test_abs_map():
    grid = TimeGrid(np.array([0.0, 1.0, 2.0, 3.0]))
    p = Path(grid, np.array([0.0, -1.0, 2.0, -3.0]))
    assert np.array_equal(apply_map(p, Abs()).values, [0.0, 1.0, 2.0, 3.0])


def test_map_of_a_row_block_maps_each_row():
    block = sample_ensemble(BrownianMotion(1.0), make_uniform_grid(1.0, 32), 8, 4)
    assert block.process_label == ""  # the library sets no tag; a caller's tag is kept
    tagged = apply_map(Ensemble(block.grid, block.values, 8, "caller"), SignedPower(0.5))
    assert (tagged.master_seed, tagged.process_label) == (8, "caller")
    image = apply_map(block, SignedPower(0.5))
    assert isinstance(image, Ensemble) and np.array_equal(image.values, tagged.values)
    for r in range(4):
        assert np.array_equal(image.values[r], apply_map(block.path(r), SignedPower(0.5)).values)


def test_signed_power_third_realizes_cuberoot_of_abs():
    p = bm_path(seed=5)
    image = apply_map(apply_map(p, Abs()), SignedPower(1.0 / 3.0))
    assert np.allclose(image.values, np.abs(p.values) ** (1.0 / 3.0))
    assert np.all(image.values >= 0.0)


def test_cos_pi_over_x_continuous_at_zero():
    f = CosPiOverX()
    x = np.array([0.0, 1e-9, -1e-9, 0.5, 1.0, 2.0])
    out = f(x)
    assert out[0] == 0.0
    assert abs(out[1]) <= 1e-9 and abs(out[2]) <= 1e-9
    assert out[3] == pytest.approx(0.5 * np.cos(2 * np.pi))
    assert out[4] == pytest.approx(-1.0)


@given(st.lists(st.floats(-5, 5), min_size=3, max_size=12), st.floats(0.05, 2.0))
@settings(max_examples=50, deadline=None)
def test_lipschitz_tube_inclusion_for_abs_and_affine(values, eps):
    # a map with Lipschitz constant L transfers tubes: sup|X_t - X_0| < eps/L
    # forces sup|f(X_t) - f(X_0)| < eps
    values = np.array(values, dtype=float)
    grid = TimeGrid(np.arange(values.size, dtype=float))
    path = Path(grid, values)
    for f, lips in ((Abs(), 1.0), (Affine(-3.0, 2.0), 3.0), (Affine(0.5, 0.0), 0.5)):
        if np.max(np.abs(values - values[0])) < eps / lips:
            image = apply_map(path, f)
            assert np.max(np.abs(image.values - image.values[0])) < eps


# ---------------------------------------------------------------- quadratic variation


def test_qv_constant_path_is_zero():
    grid = make_uniform_grid(1.0, 8)
    qv = quadratic_variation(Path(grid, np.full(9, 3.0)))
    assert np.array_equal(qv, np.zeros(9))


def test_qv_linear_path_terminal():
    # x_t = t on n uniform steps over [0,T]: terminal qv = T^2/n
    for n, horizon in ((10, 1.0), (16, 2.0)):
        grid = make_uniform_grid(horizon, n)
        qv = quadratic_variation(Path(grid, grid.times.copy()))
        assert qv[-1] == pytest.approx(horizon**2 / n)


def test_qv_brownian_terminal_near_one():
    grid = make_uniform_grid(1.0, 2**14)
    terminals = [
        quadratic_variation(sample_brownian(grid, SeedSpec(7, i)))[-1]
        for i in range(1000)
    ]
    assert np.mean(terminals) == pytest.approx(1.0, abs=0.05)


def test_qv_nondecreasing_and_zero_start():
    for seed in range(5):
        qv = quadratic_variation(bm_path(seed=seed))
        assert qv[0] == 0.0
        assert np.all(np.diff(qv) >= 0.0)


def test_qv_refinement_consistency():
    # |terminal qv - 1| shrinks in distributional mean as the grid refines
    errors = []
    for k in (8, 10, 12, 14):
        grid = make_uniform_grid(1.0, 2**k)
        devs = [
            abs(quadratic_variation(sample_brownian(grid, SeedSpec(900 + k, i)))[-1] - 1.0)
            for i in range(300)
        ]
        errors.append(np.mean(devs))
    assert errors == sorted(errors, reverse=True)


# ---------------------------------------------------------------- time changes


def test_identity_cap_beyond_horizon_is_noop():
    p = bm_path(seed=3)
    out = time_change(p, IdentityCap(2.0))
    assert np.array_equal(out.values, p.values)


def test_identity_cap_freezes_midpoint():
    p = bm_path(steps=64, seed=4)
    out = time_change(p, IdentityCap(0.5))
    mid = p.grid.first_index_at_or_after(0.5)
    assert np.array_equal(out.values[: mid + 1], p.values[: mid + 1])
    assert np.all(out.values[mid:] == p.values[mid])


@pytest.mark.parametrize("levels", [[0.0], [0.1, 0.2], [0.0, 0.2, 0.2], [0.0, float("nan")]])
def test_passage_levels_validated_as_a_grid(levels):
    with pytest.raises(InvalidArgumentError):
        PassageTimes(np.array(levels))


def test_passage_time_change_reproduces_levels():
    # the time-changed ramp equals the level schedule within the crossing
    # overshoot at the detection grid point
    grid = make_uniform_grid(16.0, 2**13)
    levels = np.linspace(0.0, 0.5, 6)
    built = 0
    for i in range(40):
        p = sample_brownian(grid, SeedSpec(2718, i))
        try:
            ramp = time_change(p, PassageTimes(levels))
        except TimeChangeRangeError:
            continue
        built += 1
        tolerance = np.max(np.abs(np.diff(p.values)))
        assert np.all(np.abs(ramp.values - levels) <= tolerance)
        assert np.array_equal(ramp.grid.times, levels)
    assert built > 0


def test_time_change_range_error():
    # a level beyond the path's range has no passage time on the grid
    grid = TimeGrid(np.array([0.0, 1.0, 2.0]))
    p = Path(grid, np.array([0.0, 0.5, 0.25]))
    with pytest.raises(TimeChangeRangeError, match="^level 0.75 not attained within the grid"):
        time_change(p, PassageTimes(np.array([0.0, 0.5, 0.75, 1.0])))


_LATTICE = st.integers(-16, 16).map(lambda k: k / 8.0)  # so that x[k] == level occurs


@given(
    st.integers(1, 5).flatmap(lambda rows: st.integers(2, 30).flatmap(
        lambda n: st.lists(st.lists(_LATTICE, min_size=n, max_size=n),
                           min_size=rows, max_size=rows))),
    st.sets(st.integers(1, 16).map(lambda k: k / 8.0), min_size=1, max_size=5),
)
@settings(max_examples=200, deadline=None)
def test_block_passage_time_change_matches_each_row(rows, levels):
    x = np.array(rows)
    block = Ensemble(TimeGrid(np.arange(x.shape[1], dtype=float)), x, 0)
    nu = PassageTimes(np.array([0.0, *sorted(levels)]))
    values, kept = time_change(block, nu)
    assert values.shape == (x.shape[0], nu.levels.size) and kept.shape == (x.shape[0],)
    for r in range(x.shape[0]):
        try:
            one = time_change(block.path(r), nu)
        except TimeChangeRangeError:
            assert not kept[r] and np.all(np.isnan(values[r]))
            continue
        assert kept[r] and np.array_equal(values[r], one.values)


def _frozen_capped_path(path, nu):
    # the capped time change as it was: one path through np.interp
    t = path.grid.times
    return Path(path.grid, np.interp(np.minimum(t, nu.cap), t, path.values))


_UNEVEN = TimeGrid(np.array([0.0, 0.05, 0.2, 0.21, 0.4, 0.55, 0.9, 1.3, 1.31, 2.0]))


@pytest.mark.parametrize("rows", [1, 65])
@pytest.mark.parametrize("grid, cap", [
    (make_uniform_grid(1.0, 1024), 0.5),  # the timechange-cap preset: a grid point
    (make_uniform_grid(1.0, 777), 0.5),  # between two grid points
    (make_uniform_grid(3.0, 777), 0.5),
    (make_uniform_grid(1.0, 64), 1.0),  # at the horizon
    (make_uniform_grid(1.0, 64), 2.5),  # beyond it
    (_UNEVEN, 0.3), (_UNEVEN, 0.55), (_UNEVEN, 1.305),
], ids=["preset", "777-steps", "horizon-3", "cap-at-horizon", "cap-beyond", "uneven-inside",
        "uneven-on-point", "uneven-short-step"])
def test_capped_time_change_of_a_block_matches_np_interp(grid, cap, rows):
    rng = np.random.default_rng(rows * grid.n_points)
    x = np.cumsum(rng.standard_normal((rows, grid.n_points)), axis=1)
    x[:, 1::5] = -0.0  # so that sign bits are compared
    block = Ensemble(grid, x.copy(), 7, "caller")
    nu = IdentityCap(cap)
    capped = time_change(block, nu)  # keeps the seed and the caller's tag
    assert isinstance(capped, Ensemble)
    assert (capped.master_seed, capped.process_label) == (7, "caller")
    assert np.array_equal(block.values.view(np.uint64), x.view(np.uint64))  # left as it was
    for r in range(rows):
        expected = _frozen_capped_path(block.path(r), nu).values.view(np.uint64)
        one = time_change(block.path(r), nu)
        assert isinstance(one, Path)
        assert np.array_equal(capped.values[r].view(np.uint64), expected)
        assert np.array_equal(one.values.view(np.uint64), expected)


# ---------------------------------------------------------------- dds


def test_dds_output_is_brownian_scale_free():
    grid = make_uniform_grid(1.0, 4096)
    for sigma in (1.0, 2.0):
        ratios = []
        for i in range(300):
            p = sample_brownian(grid, SeedSpec(606, i), sigma)
            out = dds_brownianize(p, 128)
            du = out.grid.times[1] - out.grid.times[0]
            ratios.append(np.diff(out.values).var() / du)
        assert np.mean(ratios) == pytest.approx(1.0, abs=0.05)


def test_dds_constant_input_rejected():
    grid = make_uniform_grid(1.0, 8)
    with pytest.raises(DegenerateInputError):
        dds_brownianize(Path(grid, np.full(9, 2.0)), 16)


#: a string, None, a boolean and NaN: no number argument takes any of them
NOT_REAL = {"str": "1", "none": None, "bool": True, "nan": float("nan")}
#: strings, numeric strings, None, complex numbers, a ragged list and booleans: no
#: array argument takes any of them
NOT_REAL_ARRAYS = {
    "str": np.array(["a", "b", "c"]),
    "numeric-str": np.array(["0", "1", "2"]),
    "none": np.array([0.0, None, 2.0]),
    "complex": np.array([0.0, 1.0j, 2.0]),
    "ragged": [[0.0, 1.0], [2.0]],
    "bool": np.array([False, True, True]),
}


@pytest.mark.parametrize(
    "build, match",
    [
        pytest.param(lambda: SignedPower(0.0),
                     r"signed power exponent must be a real number in \(0, inf\), got 0.0",
                     id="signed-power"),
        pytest.param(lambda: IdentityCap(0.0), r"cap must be a real number in \(0, inf\), got 0.0",
                     id="identity-cap"),
        pytest.param(lambda: NonStickyMartingale(barrier=0.0),
                     r"barrier must be a real number in \(0, inf\), got 0.0",
                     id="nonsticky-barrier"),
        pytest.param(lambda: CosDriftExample(hit_level=0.0),
                     r"hit level must be a real number in \(0, inf\), got 0.0",
                     id="cos-drift-level"),
        # a bare number leaked AttributeError: 'float' object has no attribute 'cap'
        pytest.param(lambda: time_change(Path(make_uniform_grid(1.0, 2), np.zeros(3)), 0.5),
                     "unknown time change: 0.5", id="time-change-number"),
        *(pytest.param(lambda v=v: SignedPower(v),
                       rf"signed power exponent must be a real number in \(0, inf\), got {v!r}",
                       id=f"signed-power-{k}") for k, v in NOT_REAL.items()),
        *(pytest.param(lambda v=v: IdentityCap(v),
                       rf"cap must be a real number in \(0, inf\), got {v!r}",
                       id=f"identity-cap-{k}") for k, v in NOT_REAL.items()),
        *(pytest.param(lambda v=v: NonStickyMartingale(barrier=v),
                       rf"barrier must be a real number in \(0, inf\), got {v!r}",
                       id=f"nonsticky-barrier-{k}") for k, v in NOT_REAL.items()),
        *(pytest.param(lambda v=v: CosDriftExample(hit_level=v),
                       rf"hit level must be a real number in \(0, inf\), got {v!r}",
                       id=f"cos-drift-level-{k}") for k, v in NOT_REAL.items()),
        # Affine was built, and apply_map leaked numpy's UFuncTypeError
        *(pytest.param(lambda v=v: Affine(v, 1.0),
                       rf"affine a must be a real number in \(-inf, inf\), got {v!r}",
                       id=f"affine-a-{k}") for k, v in {**NOT_REAL, "inf": np.inf}.items()),
        *(pytest.param(lambda v=v: Affine(1.0, v),
                       rf"affine b must be a real number in \(-inf, inf\), got {v!r}",
                       id=f"affine-b-{k}") for k, v in {**NOT_REAL, "inf": np.inf}.items()),
        # the schedule is a grid, so its times are read as a grid's
        *(pytest.param(lambda v=v: PassageTimes(v), "grid times must be an array of real numbers",
                       id=f"passage-levels-{k}") for k, v in NOT_REAL_ARRAYS.items()),
    ],
)
def test_bad_transform_parameters_are_refused(build, match):
    with pytest.raises(InvalidArgumentError, match=match):
        build()


def test_dds_clock_reads_first_grid_point_strictly_above_the_level():
    # qv = 0, 0.25, 0.25, 0.5 on the input grid; each output level reads the
    # first grid point whose variation exceeds it, so level 0 reads index 1
    # and the level 0.25, met exactly by the flat stretch, reads past its
    # right edge at index 3 (a >= rule would read index 0 and index 1)
    grid = TimeGrid(np.array([0.0, 1.0, 2.0, 3.0]))
    p = Path(grid, np.array([0.0, 0.5, 0.5, 0.0]))
    out = dds_brownianize(p, 4)
    assert np.array_equal(out.grid.times, [0.0, 0.125, 0.25, 0.375])
    assert np.array_equal(out.values, [0.5, 0.5, 0.0, 0.0])


@pytest.mark.parametrize("steps", [2.5, "4", 1])
def test_dds_refuses_grid_steps_that_are_not_integers_of_at_least_2(steps):
    # int() would give 2 points for 2.5 and 4 for "4"
    p = bm_path(steps=64, seed=3)
    with pytest.raises(InvalidArgumentError, match="qv_grid_steps must be"):
        dds_brownianize(p, steps)
    assert np.array_equal(dds_brownianize(p, np.int64(4)).values, dds_brownianize(p, 4).values)


def test_dds_grid_spans_terminal_variation():
    p = bm_path(steps=1024, seed=77)
    total = quadratic_variation(p)[-1]
    out = dds_brownianize(p, 64)
    assert out.grid.times[0] == 0.0
    assert out.grid.times[-1] < total


# ---------------------------------------------------------------- drift by qv


def test_drift_zero_map_is_noop():
    p = bm_path(seed=21)
    out = drift_by_qv(p, Affine(0.0, 0.0))
    assert np.array_equal(out.values, p.values)


def test_drift_identity_mean_shift():
    # terminal law ~ Normal(-1, 1): sample mean -1.0 +/- 0.04 at n = 1e4
    grid = make_uniform_grid(1.0, 1024)
    ens = sample_ensemble(BrownianMotion(1.0), grid, 17, 10_000)
    terminals = np.array(
        [drift_by_qv(ens.path(i), Identity()).terminal for i in range(ens.n_paths)]
    )
    assert terminals.mean() == pytest.approx(-1.0, abs=0.04)


def test_drift_requires_null_at_zero():
    p = bm_path(seed=1)
    with pytest.raises(ContractViolationError):
        drift_by_qv(p, Affine(1.0, 0.5))


def test_drift_refuses_an_overflowing_variation_without_a_warning():
    p = Path(make_uniform_grid(1.0, 8), 1e200 * np.arange(9.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning would raise here
        for call in (lambda: quadratic_variation(p), lambda: drift_by_qv(p, Identity())):
            with pytest.raises(InvalidArgumentError, match="overflows the float range"):
                call()


def test_drift_cos_map_accepted():
    p = bm_path(seed=2)
    out = drift_by_qv(p, CosPiOverX())
    qv = quadratic_variation(p)
    assert np.allclose(out.values, p.values - CosPiOverX()(qv))


# ---------------------------------------------------------------- examples


def test_nonsticky_exits_barrier_on_every_path():
    grid = make_uniform_grid(1.0, 1024)
    spec = NonStickyMartingale(barrier=2.0)
    for i in range(200):
        path = build_example(spec, grid, SeedSpec(313, i))
        assert np.max(np.abs(path.values)) > 2.0  # strict grid crossing
        assert path.values[0] == 0.0


def test_nonsticky_needs_unit_horizon():
    with pytest.raises(InvalidArgumentError):
        build_example(NonStickyMartingale(), make_uniform_grid(0.5, 64), SeedSpec(1, 0))


def test_cos_drift_starts_at_zero():
    path = build_example(CosDriftExample(), make_uniform_grid(1.0, 256), SeedSpec(5, 3))
    assert path.values[0] == 0.0


def test_abs_cuberoot_nonnegative():
    path = build_example(
        AbsCubeRootOfMartingale(BrownianMotion(1.0)),
        make_uniform_grid(1.0, 256),
        SeedSpec(6, 1),
    )
    assert np.all(path.values >= 0.0)


def test_examples_deterministic():
    grid = make_uniform_grid(1.0, 128)
    for spec in (NonStickyMartingale(), CosDriftExample(), AbsCubeRootOfMartingale()):
        a = build_example(spec, grid, SeedSpec(40, 4))
        b = build_example(spec, grid, SeedSpec(40, 4))
        assert np.array_equal(a.values, b.values)


# ------------------------------------------- frozen per-path example builds
# The three examples as they were built one path at a time, before they were
# built in row blocks; every block row must equal them bit for bit.


def _reference_nonsticky(spec, grid, seed):
    times = grid.times
    n_steps = grid.n_steps
    n_pre = int((times < 1.0).sum())
    rng = seed.generator()
    z_clock = rng.standard_normal(n_steps)
    z_unit = rng.standard_normal(n_steps)
    u = 1.0 / (1.0 - times[:n_pre]) - 1.0
    w = np.concatenate(([0.0], np.cumsum(np.sqrt(np.diff(u)) * z_clock[: n_pre - 1])))
    x = np.empty(times.size)
    x[:n_pre] = w
    exceeded = np.abs(w - w[0]) > spec.barrier
    j = int(np.argmax(exceeded)) if exceeded.any() else n_pre - 1
    dt = np.diff(times)
    x[j + 1 :] = x[j] + np.cumsum(np.sqrt(dt[j:]) * z_unit[j:])
    return x


def _reference_brownian(grid, seed, volatility):
    z = seed.generator().standard_normal(grid.n_steps)
    return np.concatenate(([0.0], np.cumsum(volatility * np.sqrt(np.diff(grid.times)) * z)))


def _reference_cos_drift(spec, grid, seed):
    b = _reference_brownian(grid, seed, 1.0)
    hit = np.abs(b) >= spec.hit_level
    stopped = b.copy()
    if hit.any():
        k = int(np.argmax(hit))
        stopped[k:] = b[k]
    gains = np.concatenate(([0.0], np.cumsum(stopped[:-1] * np.diff(b))))
    sq = stopped**2
    clock = np.concatenate(([0.0], np.cumsum(0.5 * (sq[1:] + sq[:-1]) * np.diff(grid.times))))
    drift = np.zeros_like(clock)
    nonzero = clock != 0.0
    drift[nonzero] = clock[nonzero] * np.cos(np.pi / clock[nonzero])
    return gains - drift


def _reference_abs_cuberoot(spec, grid, seed):
    x = np.abs(_reference_brownian(grid, seed, spec.base.volatility))
    return np.sign(x) * np.abs(x) ** (1.0 / 3.0)


_EXAMPLES = [
    (NonStickyMartingale(), _reference_nonsticky),
    (NonStickyMartingale(barrier=1e6), _reference_nonsticky),  # never exits: the clamp fires
    (CosDriftExample(), _reference_cos_drift),
    (CosDriftExample(hit_level=0.2), _reference_cos_drift),
    (AbsCubeRootOfMartingale(BrownianMotion(1.3)), _reference_abs_cuberoot),
]
_EXAMPLE_IDS = ["nonsticky", "nonsticky-clamped", "cos-drift", "cos-drift-low", "abs-cuberoot"]


def _assert_rows_match_reference(spec, reference, grid, n_paths, first):
    ens = sample_ensemble(spec, grid, 17, n_paths, first=first)
    assert isinstance(ens, Ensemble) and ens.n_paths == n_paths
    for r in range(n_paths):
        want = reference(spec, grid, SeedSpec(17, first + r))
        assert np.array_equal(ens.values[r], want)
        assert np.array_equal(np.signbit(ens.values[r]), np.signbit(want))


@pytest.mark.parametrize("steps", [1, 2, 512, 1024])
@pytest.mark.parametrize("spec,reference", _EXAMPLES, ids=_EXAMPLE_IDS)
def test_example_blocks_equal_the_per_path_builds(spec, reference, steps):
    grid = make_uniform_grid(1.0, steps)
    for n_paths, first in ((1, 0), (7, 3), (64, 64), (65, 1000), (1000, 2**40)):
        _assert_rows_match_reference(spec, reference, grid, n_paths, first)


@pytest.mark.parametrize(
    "grid",
    [
        TimeGrid(np.concatenate(([0.0], np.sort(np.random.default_rng(0).uniform(0, 1.7, 300)),
                                 [1.7]))),
        TimeGrid([0.0, 1.0, 2.0]),  # the only time below 1 is 0
        make_uniform_grid(3.0, 96),
    ],
    ids=["nonuniform", "one-pre-exit-point", "horizon-3"],
)
@pytest.mark.parametrize("spec,reference", _EXAMPLES, ids=_EXAMPLE_IDS)
def test_example_blocks_equal_the_per_path_builds_on_other_grids(spec, reference, grid):
    _assert_rows_match_reference(spec, reference, grid, 65, 5)


@pytest.mark.parametrize("spec,reference", _EXAMPLES, ids=_EXAMPLE_IDS)
def test_example_rows_do_not_depend_on_the_block_size(monkeypatch, spec, reference):
    import stickylab.pathgen as pg
    import stickylab.transforms as tr

    grid = make_uniform_grid(1.0, 16)
    whole = sample_ensemble(spec, grid, 17, 9).values
    monkeypatch.setattr(pg, "_BLOCK_BYTES", 1)  # one row per block
    calls = []  # each build_example call's row blocks, so a stale budget cannot pass

    def row_blocks(*args):
        calls.append(list(pg._row_blocks(*args)))
        return calls[-1]

    monkeypatch.setattr(tr, "_row_blocks", row_blocks)
    assert np.array_equal(sample_ensemble(spec, grid, 17, 9).values, whole)
    assert calls == [[slice(r, r + 1) for r in range(9)]]
    _assert_rows_match_reference(spec, reference, grid, 9, 0)


def test_high_barrier_clamps_the_exit_before_time_one():
    grid = make_uniform_grid(1.0, 512)
    ens = sample_ensemble(NonStickyMartingale(barrier=1e6), grid, 3, 20)
    assert np.abs(ens.values).max() < 1e6  # no row exits, so every walk starts at t < 1


def test_example_ensemble_temporaries_stay_bounded():
    # 10,000 x 1,024 steps: each block's temporaries stay near _BLOCK_BYTES, so
    # the peak is the output plus about one block
    import tracemalloc

    import stickylab.pathgen as pg

    grid = make_uniform_grid(1.0, 1024)
    for spec in (NonStickyMartingale(), CosDriftExample(), AbsCubeRootOfMartingale()):
        tracemalloc.start()
        try:
            ens = sample_ensemble(spec, grid, 1, 10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ens.values.nbytes + pg._BLOCK_BYTES, spec
        del ens


def test_example_rows_equal_each_path_built_on_its_own():
    grid = make_uniform_grid(1.0, 64)
    for spec, _ in _EXAMPLES:
        ens = build_example(spec, grid, SeedSpec(2, 7), n_paths=5)
        for r in range(5):
            one = build_example(spec, grid, SeedSpec(2, 7 + r))
            assert isinstance(one, Path)
            assert np.array_equal(ens.values[r], one.values)
    with pytest.raises(InvalidArgumentError, match="unknown process spec"):
        build_example(Identity(), grid, SeedSpec(2))
