import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stickylab.errors import (
    ContractViolationError,
    DegenerateInputError,
    DomainViolationError,
    InvalidArgumentError,
    TimeChangeRangeError,
)
from stickylab.pathgen import (
    BrownianMotion,
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
    Composition,
    CosDriftExample,
    CosPiOverX,
    Exp,
    Identity,
    IdentityCap,
    NonStickyMartingale,
    PassageTimes,
    Power,
    QVInverse,
    QVPath,
    SignedPower,
    apply_map,
    build_example,
    dds_brownianize,
    drift_by_qv,
    qv_inverse,
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


def test_signed_power_third_realizes_cuberoot_of_abs():
    p = bm_path(seed=5)
    image = apply_map(apply_map(p, Abs()), SignedPower(1.0 / 3.0))
    assert np.allclose(image.values, np.abs(p.values) ** (1.0 / 3.0))
    assert np.all(image.values >= 0.0)


def test_domain_violation_reports_first_index():
    grid = TimeGrid(np.array([0.0, 1.0, 2.0]))
    p = Path(grid, np.array([1.0, -2.0, -3.0]))
    with pytest.raises(DomainViolationError) as err:
        apply_map(p, Power(0.5))
    assert err.value.index == 1


def test_cos_pi_over_x_continuous_at_zero():
    f = CosPiOverX()
    x = np.array([0.0, 1e-9, -1e-9, 0.5, 1.0, 2.0])
    out = f(x)
    assert out[0] == 0.0
    assert abs(out[1]) <= 1e-9 and abs(out[2]) <= 1e-9
    assert out[3] == pytest.approx(0.5 * np.cos(2 * np.pi))
    assert out[4] == pytest.approx(-1.0)


def test_composition_equals_sequential_application_exactly():
    p = bm_path(seed=9)
    f, g = Affine(2.0, -1.0), Abs()
    sequential = apply_map(apply_map(p, f), g)
    composed = apply_map(p, Composition((f, g)))
    assert np.array_equal(sequential.values, composed.values)


def test_exp_map():
    p = bm_path(steps=16, seed=2)
    assert np.array_equal(apply_map(p, Exp()).values, np.exp(p.values))


@given(st.lists(st.floats(-5, 5), min_size=3, max_size=12), st.floats(0.05, 2.0))
@settings(max_examples=50, deadline=None)
def test_lipschitz_tube_inclusion_for_abs_and_affine(values, eps):
    # uniformly continuous maps transfer tubes: sup|X_t - X_0| < eps/L
    # forces sup|f(X_t) - f(X_0)| < eps
    values = np.array(values, dtype=float)
    grid = TimeGrid(np.arange(values.size, dtype=float))
    path = Path(grid, values)
    for f in (Abs(), Affine(-3.0, 2.0), Affine(0.5, 0.0)):
        lips = f.lipschitz
        if np.max(np.abs(values - values[0])) < eps / max(lips, 1e-12):
            image = apply_map(path, f)
            assert np.max(np.abs(image.values - image.values[0])) < eps


# ---------------------------------------------------------------- quadratic variation


def test_qv_constant_path_is_zero():
    grid = make_uniform_grid(1.0, 8)
    qv = quadratic_variation(Path(grid, np.full(9, 3.0)))
    assert np.array_equal(qv.values, np.zeros(9))


def test_qv_linear_path_terminal():
    # x_t = t on n uniform steps over [0,T]: terminal qv = T^2/n
    for n, horizon in ((10, 1.0), (16, 2.0)):
        grid = make_uniform_grid(horizon, n)
        qv = quadratic_variation(Path(grid, grid.times.copy()))
        assert qv.terminal == pytest.approx(horizon**2 / n)


def test_qv_brownian_terminal_near_one():
    grid = make_uniform_grid(1.0, 2**14)
    terminals = [
        quadratic_variation(sample_brownian(grid, SeedSpec(7, i))).terminal
        for i in range(1000)
    ]
    assert np.mean(terminals) == pytest.approx(1.0, abs=0.05)


def test_qv_nondecreasing_and_zero_start():
    for seed in range(5):
        qv = quadratic_variation(bm_path(seed=seed))
        assert qv.values[0] == 0.0
        assert np.all(np.diff(qv.values) >= 0.0)


def test_qv_refinement_consistency():
    # |terminal qv - 1| shrinks in distributional mean as the grid refines
    errors = []
    for k in (8, 10, 12, 14):
        grid = make_uniform_grid(1.0, 2**k)
        devs = [
            abs(quadratic_variation(sample_brownian(grid, SeedSpec(900 + k, i))).terminal - 1.0)
            for i in range(300)
        ]
        errors.append(np.mean(devs))
    assert errors == sorted(errors, reverse=True)


# ---------------------------------------------------------------- qv inverse


def test_qv_inverse_piecewise_hand_case():
    # flat segment sits exactly at the level: the infimum where interpolated
    # variation first exceeds is the segment's right edge
    qv = QVPath(TimeGrid(np.array([0.0, 1.0, 2.0, 3.0])), np.array([0.0, 0.5, 0.5, 1.0]))
    assert qv_inverse(qv, 0.5) == pytest.approx(2.0)
    assert qv_inverse(qv, 0.75) == pytest.approx(2.5)
    assert qv_inverse(qv, 0.25) == pytest.approx(0.5)


def test_qv_inverse_not_attained():
    qv = QVPath(TimeGrid(np.array([0.0, 1.0])), np.array([0.0, 1.0]))
    assert qv_inverse(qv, 1.0) is None
    assert qv_inverse(qv, 2.0) is None


def test_qv_inverse_negative_level_rejected():
    qv = QVPath(TimeGrid(np.array([0.0, 1.0])), np.array([0.0, 1.0]))
    with pytest.raises(InvalidArgumentError):
        qv_inverse(qv, -0.1)


def mean_clock_error(steps: int, level: float = 0.5, n: int = 1000) -> float:
    grid = make_uniform_grid(1.0, steps)
    errors = []
    for i in range(n):
        qv = quadratic_variation(sample_brownian(grid, SeedSpec(55, i)))
        s = qv_inverse(qv, level)
        if s is not None:
            errors.append(abs(s - level))
    return float(np.mean(errors))


def test_qv_inverse_tracks_brownian_clock():
    # [B,B]_s ~ s, so the inverse at a level lands near it. The error follows
    # the sqrt(2 * level * dt) noise of realized variation, so a grid-step
    # tolerance is only meaningful on coarse grids; fine grids get the
    # absolute scale.
    assert mean_clock_error(8) < 2 * (1.0 / 8)
    assert mean_clock_error(512) < 0.05
    assert mean_clock_error(512) < mean_clock_error(64)


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
        assert "unbounded-time-change" in ramp.flags
        assert np.array_equal(ramp.grid.times, levels)
    assert built > 0


def test_deterministic_table_time_change():
    from stickylab.transforms import DeterministicTable

    grid = make_uniform_grid(1.0, 4)
    p = Path(grid, np.array([0.0, 1.0, 2.0, 3.0, 4.0]))
    # slow clock: nu(1) = 0.5, interpolated between table points
    nu = DeterministicTable(np.array([0.0, 1.0]), np.array([0.0, 0.5]))
    out = time_change(p, nu)
    assert np.allclose(out.values, p.value_at(0.5 * grid.times))
    assert nu.is_bounded and nu.bound_at(1.0) == 0.5


def test_deterministic_table_validation():
    from stickylab.transforms import DeterministicTable

    with pytest.raises(InvalidArgumentError):
        DeterministicTable(np.array([0.0, 1.0]), np.array([0.5, 1.0]))  # nu(0) != 0
    with pytest.raises(InvalidArgumentError):
        DeterministicTable(np.array([0.0, 1.0]), np.array([0.0, -1.0]))  # decreasing
    with pytest.raises(InvalidArgumentError):
        DeterministicTable(np.array([0.5, 1.0]), np.array([0.0, 1.0]))  # times start late


def test_time_change_range_error():
    p = bm_path(steps=16)
    table_beyond = QVInverse(
        QVPath(TimeGrid(np.array([0.0, 1.0])), np.array([0.0, 0.5]))
    )
    with pytest.raises(TimeChangeRangeError):
        table_beyond(np.array([0.9]))  # level beyond terminal variation


def test_qvinverse_time_change_recovers_clock():
    p = bm_path(steps=2048, seed=12)
    qv = quadratic_variation(p)
    nu = QVInverse(qv)
    # reading the path at inverse-variation times of its own clock returns to
    # grid points: spot check a few interior levels
    for level in (0.1 * qv.terminal, 0.5 * qv.terminal):
        s = nu(np.array([level]))[0]
        assert 0.0 <= s <= p.grid.horizon


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


def test_dds_grid_spans_terminal_variation():
    p = bm_path(steps=1024, seed=77)
    total = quadratic_variation(p).terminal
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


def test_drift_cos_map_accepted():
    p = bm_path(seed=2)
    out = drift_by_qv(p, CosPiOverX())
    qv = quadratic_variation(p)
    assert np.allclose(out.values, p.values - CosPiOverX()(qv.values))


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
