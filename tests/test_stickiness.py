import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stickylab.errors import InvalidArgumentError
from stickylab.pathgen import (
    BrownianMotion,
    Ensemble,
    FractionalBrownianMotion,
    TimeGrid,
    make_uniform_grid,
    sample_ensemble,
)
from stickylab.stickiness import (
    StickinessQuery,
    _success,
    _window_sup,
    cross_check_characterizations,
    estimate_stickiness,
    estimate_stickiness_sis,
    survival_ladder,
    wilson_ci,
    zero_success_upper_bound,
)
from stickylab.stopping import (
    Conjunction,
    Deterministic,
    HittingFrom,
    StoppedBeforeHorizon,
    StopResult,
    ValueAtStopInRange,
    WholeSpace,
    evaluate_event,
    evaluate_rule,
    parse_rule,
)
from stickylab.transforms import Affine, NonStickyMartingale, apply_map

from oracles import (
    _killed_walk_stay_probability,
    corridor_stay_probability,
    grid_corridor_stay_probability,
    wilson_interval,
)


def constant_ensemble(n=50, steps=16):
    grid = make_uniform_grid(1.0, steps)
    return Ensemble(grid, np.zeros((n, grid.n_points)), 0, "flat")


def bm_ensemble(n=2000, steps=256, seed=5):
    return sample_ensemble(BrownianMotion(1.0), make_uniform_grid(1.0, steps), seed, n)


def q(epsilon, tau=Deterministic(0.0), horizon=1.0, **kw):
    return StickinessQuery(tau=tau, horizon=horizon, epsilon=epsilon, **kw)


# ---------------------------------------------------------------- wilson


def test_wilson_zero_successes_lower_is_zero():
    lo, hi = wilson_ci(0, 50, 0.95)
    assert lo == 0.0 and hi > 0.0


def test_wilson_full_successes_upper_is_one():
    lo, hi = wilson_ci(50, 50, 0.95)
    assert hi == 1.0 and lo < 1.0


def test_wilson_against_independent_implementation():
    # frozen from statsmodels.stats.proportion.proportion_confint(method="wilson")
    cases = {
        (5, 10): (0.23659309051256394, 0.7634069094874361),
        (1, 10000): (1.7652673601122363e-05, 0.0005662688974013383),
        (3, 7): (0.15821985525146964, 0.7495416354723428),
    }
    for (s, n), (lo, hi) in cases.items():
        got_lo, got_hi = wilson_ci(s, n, 0.95)
        assert got_lo == pytest.approx(lo, rel=1e-12)
        assert got_hi == pytest.approx(hi, rel=1e-12)
    statsmodels = pytest.importorskip("statsmodels.stats.proportion")
    lo, hi = statsmodels.proportion_confint(17, 123, alpha=0.1, method="wilson")
    got = wilson_ci(17, 123, 0.9)
    assert got == pytest.approx((lo, hi), rel=1e-12)


@pytest.mark.parametrize("level", [0.5, 0.9, 0.95, 0.99])
@pytest.mark.parametrize("n", [1, 2, 7, 50, 10_000])
def test_wilson_against_closed_form_oracle(n, level):
    for successes in sorted({0, 1, n // 3, n // 2, n - 1, n}):
        lo, hi = wilson_ci(successes, n, level)
        want_lo, want_hi = wilson_interval(successes, n, level)
        assert lo == pytest.approx(want_lo, rel=1e-12, abs=1e-15)
        assert hi == pytest.approx(want_hi, rel=1e-12, abs=1e-15)


def test_wilson_one_success_lower_positive():
    lo, _ = wilson_ci(1, 10_000, 0.95)
    assert lo > 0.0


def test_wilson_invalid_counts():
    with pytest.raises(InvalidArgumentError):
        wilson_ci(5, 4)
    with pytest.raises(InvalidArgumentError):
        wilson_ci(-1, 4)
    with pytest.raises(InvalidArgumentError):
        wilson_ci(0, 0)


def test_zero_success_upper_bound_scale():
    # one-sided Wilson bound at zero successes ~ z^2/(n + z^2) ~ 2.7e-4 at n=1e4
    assert zero_success_upper_bound(10_000, 0.95) == pytest.approx(2.705e-4, rel=1e-3)


# ---------------------------------------------------------------- estimator basics


@given(
    st.lists(
        st.one_of(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            st.integers(-64, 64).map(lambda k: k / 8.0),  # ties and exact zeros
        ),
        min_size=1,
        max_size=40,
    ),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_window_sup_equals_max_abs_deviation(values, data):
    x = np.array(values)
    start = data.draw(st.integers(0, x.size - 1))
    end = data.draw(st.integers(start, x.size - 1))
    want = np.max(np.abs(x[start : end + 1] - x[start]))
    assert _window_sup(x, start, end) == want


def test_constant_ensemble_is_fully_sticky():
    est = estimate_stickiness(constant_ensemble(), q(0.01))
    assert est.p_hat == 1.0 and est.verdict == "POSITIVE"


def test_horizon_beyond_grid_rejected():
    with pytest.raises(InvalidArgumentError):
        estimate_stickiness(constant_ensemble(), q(0.5, horizon=2.0))


def test_monotone_in_epsilon_exact():
    ens = bm_ensemble()
    p_small = estimate_stickiness(ens, q(0.3)).successes
    p_big = estimate_stickiness(ens, q(0.6)).successes
    assert p_small <= p_big


def test_monotone_in_horizon_exact():
    ens = bm_ensemble()
    late = estimate_stickiness(ens, q(0.5, horizon=1.0)).successes
    early = estimate_stickiness(ens, q(0.5, horizon=0.5)).successes
    assert late <= early


def test_conjunction_bound_exact():
    ens = bm_ensemble(n=500)
    a1 = ValueAtStopInRange(-0.1, 0.1)
    a2 = WholeSpace()
    joint = estimate_stickiness(ens, q(0.5, event=Conjunction((a1, a2)))).successes
    s1 = estimate_stickiness(ens, q(0.5, event=a1)).successes
    s2 = estimate_stickiness(ens, q(0.5, event=a2)).successes
    assert joint <= min(s1, s2)


def test_affine_transfer_exact_pathwise():
    # success indicator of (f(X), |a|*eps) equals that of (X, eps) per path
    ens = bm_ensemble(n=800, steps=128, seed=21)
    a = -2.0  # power of two keeps the scaling lossless
    mapped = Ensemble(
        ens.grid,
        np.stack([apply_map(ens.path(i), Affine(a, 0.0)).values for i in range(ens.n_paths)]),
        ens.master_seed,
        "affine",
    )
    eps = 0.5
    base = [
        estimate_stickiness(
            Ensemble(ens.grid, ens.values[i : i + 1], 0, ""), q(eps)
        ).successes
        for i in range(ens.n_paths)
    ]
    image = [
        estimate_stickiness(
            Ensemble(mapped.grid, mapped.values[i : i + 1], 0, ""), q(abs(a) * eps)
        ).successes
        for i in range(ens.n_paths)
    ]
    assert base == image


def test_brownian_corridor_vs_series_oracle():
    # eps=0.5 corridor: estimate must land within 3 MC standard errors of the
    # oracle once the documented upward grid bias is small (loose desk-scale n)
    ens = sample_ensemble(BrownianMotion(1.0), make_uniform_grid(1.0, 2048), 2718, 4000)
    est = estimate_stickiness(ens, q(0.5))
    oracle = corridor_stay_probability(0.5)
    se = np.sqrt(max(est.p_hat, 1e-9) * (1 - est.p_hat) / est.n)
    assert est.p_hat >= oracle - 3 * se  # discrete monitoring biases upward
    assert est.p_hat - oracle < 5 * se


def test_grid_corridor_oracle_above_series_and_converging():
    # grid monitoring misses excursions between grid times, so the grid
    # probability exceeds the continuum one and falls toward it with refinement
    for a in (0.5, 0.25):
        series = corridor_stay_probability(a)
        coarse, mid, fine = (grid_corridor_stay_probability(a, s) for s in (64, 256, 1024))
        assert coarse > mid > fine > series


def test_grid_corridor_oracle_converged_in_space():
    # the oracle's midpoint rule on 1000 cells is fine enough for the 1e-3
    # agreement the acceptance grid needs: halving and doubling it moves little
    for a in (0.5, 0.25):
        coarse, fine = (_killed_walk_stay_probability(a, 1024, 1.0, c) for c in (800, 1600))
        assert abs(coarse - fine) < 1e-3 * fine


def test_deterministic_estimate_reproducible():
    ens = bm_ensemble(n=300)
    e1 = estimate_stickiness(ens, q(0.5))
    e2 = estimate_stickiness(ens, q(0.5))
    assert (e1.successes, e1.ci_low, e1.ci_high) == (e2.successes, e2.ci_low, e2.ci_high)


# ---------------------------------------------------------------- survival ladder


def test_ladder_constant_ensemble_all_one():
    fractions = survival_ladder(constant_ensemble(), Deterministic(0.0), 0.5, [0.25, 0.5, 1.0])
    assert np.array_equal(fractions, np.ones(3))


def test_ladder_nonincreasing():
    ens = bm_ensemble(n=1000)
    fractions = survival_ladder(ens, Deterministic(0.0), 1.0, [0.25, 0.5, 1.0])
    assert np.all(np.diff(fractions) <= 0.0)
    assert np.all(fractions > 0.0)


def test_ladder_nonsticky_exits_by_one():
    grid = make_uniform_grid(1.0, 512)
    ens = sample_ensemble(NonStickyMartingale(), grid, 44, 500)
    fractions = survival_ladder(ens, Deterministic(0.0), 1.5, [1.0])
    assert fractions[0] == 0.0


def test_ladder_fractions_match_corridor_oracle():
    # survival at horizon h with tau0 = 0 is the corridor-stay event; compare
    # to the series oracle (discrete monitoring biases the fraction upward,
    # well inside the tolerance at this resolution)
    grid = make_uniform_grid(4.0, 8192)
    n = 2000
    ens = sample_ensemble(BrownianMotion(1.0), grid, 606, n)
    fractions = survival_ladder(ens, Deterministic(0.0), 1.0, [1.0, 2.0, 4.0])
    for h, frac in zip((1.0, 2.0, 4.0), fractions):
        oracle = corridor_stay_probability(1.0, horizon=h)
        se = np.sqrt(max(oracle * (1 - oracle), 1e-9) / n)
        assert abs(frac - oracle) < 4 * se


def test_ladder_validation():
    ens = constant_ensemble()
    with pytest.raises(InvalidArgumentError):
        survival_ladder(ens, Deterministic(0.0), 0.5, [])
    with pytest.raises(InvalidArgumentError):
        survival_ladder(ens, Deterministic(0.0), 0.5, [0.5, 0.5])
    with pytest.raises(InvalidArgumentError):
        survival_ladder(ens, Deterministic(0.0), -1.0, [0.5])
    for delta in (float("nan"), float("inf")):
        with pytest.raises(InvalidArgumentError):
            survival_ladder(ens, Deterministic(0.0), delta, [0.5])
    for horizons in ([0.25, float("nan")], [float("-inf"), 0.5], [float("nan")]):
        with pytest.raises(InvalidArgumentError):
            survival_ladder(ens, Deterministic(0.0), 0.5, horizons)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"delta": float("nan")},
        {"delta": float("inf")},
        {"delta": 0.0},
        {"ladder": (0.25, float("nan"))},
        {"ladder": (float("-inf"), 0.5)},
        {"ladder": ()},
    ],
)
def test_prop_c_query_rejects_bad_delta_and_ladder(kwargs):
    with pytest.raises(InvalidArgumentError):
        q(0.5, characterization="prop-c", **kwargs)


@pytest.mark.parametrize(
    "ladder",
    [(), (0.5, 0.5), (0.75, 0.25), (0.25, float("nan")), (float("-inf"), 0.5), (0.5, 1.5)],
)
def test_ladder_and_prop_c_reject_the_same_ladders(ladder):
    # (0.5, 1.5) is well formed but ends past the grid span of 1
    ens = constant_ensemble()
    with pytest.raises(InvalidArgumentError):
        survival_ladder(ens, Deterministic(0.0), 0.5, ladder)
    with pytest.raises(InvalidArgumentError):
        estimate_stickiness(ens, q(0.5, characterization="prop-c", ladder=ladder))


# ---------------------------------------------------------------- cross checks


def test_cross_check_brownian_positive():
    report = cross_check_characterizations(bm_ensemble(n=3000), q(0.5))
    assert report.verdicts == {"def-a": "POSITIVE", "prop-b": "POSITIVE", "prop-c": "POSITIVE"}
    assert report.agree


def test_cross_check_constant_positive():
    report = cross_check_characterizations(constant_ensemble(), q(0.25))
    assert report.agree and report.def_a.verdict == "POSITIVE"


def test_cross_check_nonsticky_zero():
    grid = make_uniform_grid(1.0, 512)
    ens = sample_ensemble(NonStickyMartingale(), grid, 45, 1000)
    report = cross_check_characterizations(ens, q(1.0))
    assert report.verdicts == {"def-a": "ZERO", "prop-b": "ZERO", "prop-c": "ZERO"}
    assert report.agree
    assert report.def_a.zero_upper is not None and report.def_a.zero_upper < 0.005


# ---------------------------------------------------------------- importance sampling
# The sampler's cost grows with steps^2, so these use a 256-step grid.

SIS_GRID = make_uniform_grid(1.0, 256)


def sis(epsilon, tau="det:0", spec=BrownianMotion(1.0), seed=3, n=2000, **kw):
    query = q(epsilon, tau=parse_rule(tau), **kw)
    return estimate_stickiness_sis(spec, SIS_GRID, query, seed, n)


def sis_p_and_se(est):
    # relative variance of the mean weight is 1/ESS - 1/n
    p = 10.0**est.log10_p_hat
    return p, p * np.sqrt(max(1.0 / est.ess - 1.0 / est.n, 0.0))


@pytest.mark.parametrize(
    "tau, steps, horizon", [("det:0", 256, 1.0), ("det:0.5", 128, 0.5)]
)
def test_sis_brownian_matches_grid_oracle(tau, steps, horizon):
    # by the Markov property, staying from det:0.5 to 1 is a corridor over 0.5
    est = sis(0.5, tau=tau)
    oracle = grid_corridor_stay_probability(0.5, steps, horizon)
    p, se = sis_p_and_se(est)
    assert est.ess > 30
    assert abs(p - oracle) <= 4.0 * se


def test_sis_small_ball_lower_bound_below_oracle():
    # p is about 4e-7 here, far below what plain Monte Carlo at n = 2000 sees
    est = sis(0.25)
    oracle = grid_corridor_stay_probability(0.25, 256)
    assert -np.inf < est.log10_lower <= np.log10(oracle)
    assert est.log10_lower == pytest.approx(est.log10_p_hat + np.log10(0.05))


def test_sis_fbm_agrees_with_plain_monte_carlo():
    spec = FractionalBrownianMotion(0.75)
    query = q(0.5, tau=parse_rule("hit:0.1"))
    mc = estimate_stickiness(sample_ensemble(spec, SIS_GRID, 11, 4000), query)
    p, se = sis_p_and_se(estimate_stickiness_sis(spec, SIS_GRID, query, 11, 2000))
    assert p - 1.96 * se <= mc.ci_high and mc.ci_low <= p + 1.96 * se


def test_sis_reproducible_and_scaled_by_volatility():
    first = sis(0.5, tau="hit:0.1", n=300)
    assert sis(0.5, tau="hit:0.1", n=300) == first
    assert sis(0.5, tau="hit:0.1", n=300, seed=4) != first
    # doubling sigma and epsilon scales every value by an exact power of two
    doubled = sis(1.0, tau="hit:0.2", n=300, spec=BrownianMotion(2.0))
    assert (doubled.log10_p_hat, doubled.ess) == (first.log10_p_hat, first.ess)


def test_sis_uniforms_are_pinned_bit_for_bit():
    # the per-sample uniforms come from re-keyed Philox streams; this value was
    # computed when every sample built its own SeedSpec(master_seed, i) generator
    grid = make_uniform_grid(1.0, 64)
    query = q(0.5, tau=parse_rule("hit:0.1"))
    est = estimate_stickiness_sis(FractionalBrownianMotion(0.75), grid, query, 5, 200)
    assert est.log10_p_hat == float.fromhex("-0x1.60ef63cfd70fbp-1")
    assert est.log10_lower == float.fromhex("-0x1.fd87ff2a696fcp+0")
    assert est.ess == float.fromhex("0x1.9ee473947f2f2p+5")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tau": "pass:0.1"},
        {"tau": "absexceed:0.1"},
        {"tau": "hit:0.1@hit:0.1"},
        {"event": ValueAtStopInRange(-0.1, 0.1)},
        {"characterization": "prop-b"},
        {"spec": NonStickyMartingale()},
        {"n": 0},
    ],
)
def test_sis_rejects_unsupported_queries(kwargs):
    with pytest.raises(InvalidArgumentError):
        sis(0.5, **kwargs)


def test_sis_rejects_nonuniform_grid():
    grid = TimeGrid(np.array([0.0, 0.25, 1.0]))
    with pytest.raises(InvalidArgumentError):
        estimate_stickiness_sis(BrownianMotion(1.0), grid, q(0.5), 0, 10)


# ------------------------------------------- frozen tube-exit reference code
# The hitting rule, the three characterizations and the ladder as they were
# before sharing one first-exit scan; the shared scan must reproduce them
# path for path.


def _reference_rule(rule, path):
    if not isinstance(rule, HittingFrom):
        return evaluate_rule(rule, path)
    base = _reference_rule(rule.start, path)
    if not base.stopped:
        return StopResult.not_stopped()
    x = path.values
    exceeded = np.abs(x[base.index :] - x[base.index]) > rule.delta
    if not exceeded.any():
        return StopResult.not_stopped()
    k = base.index + int(np.argmax(exceeded))
    return StopResult.at(path.grid.times[k], k)


def _reference_capped_stop(query, path, end_index):
    stop = _reference_rule(query.tau, path)
    if stop.stopped and stop.index <= end_index:
        return stop
    return StopResult.at(path.grid.times[end_index], end_index)


def _reference_window_sup(x, start, end):
    return float(np.max(np.abs(x[start : end + 1] - x[start])))


def _reference_success(query, path, end_index):
    if query.characterization == "def-a":
        stop = _reference_rule(query.tau, path)
        if not (stop.stopped and stop.time < query.horizon):
            return False
        if not evaluate_event(query.event, path, stop):
            return False
        return _reference_window_sup(path.values, stop.index, end_index) < query.epsilon
    if query.characterization == "prop-b":
        stop = _reference_capped_stop(query, path, end_index)
        if not evaluate_event(query.event, path, stop):
            return False
        return _reference_window_sup(path.values, stop.index, end_index) < query.epsilon
    delta = query.delta if query.delta is not None else query.epsilon
    top = query.ladder[-1] if query.ladder else query.horizon
    top_index = path.grid.last_index_at_or_before(top)
    stop = _reference_capped_stop(query, path, end_index)
    if not evaluate_event(query.event, path, stop):
        return False
    seg = np.abs(path.values[stop.index : top_index + 1] - path.values[stop.index])
    return not (seg > delta).any()


def _reference_ladder(ensemble, tau0, delta, horizons):
    horizons = np.asarray(horizons, dtype=np.float64)
    survivors = np.zeros(horizons.size, dtype=np.int64)
    for i in range(ensemble.n_paths):
        path = ensemble.path(i)
        stop = _reference_rule(tau0, path)
        if not stop.stopped:
            survivors += 1
            continue
        seg = np.abs(path.values[stop.index :] - path.values[stop.index])
        exceeded = seg > delta
        if not exceeded.any():
            survivors += 1
            continue
        t1 = path.grid.times[stop.index + int(np.argmax(exceeded))]
        survivors += t1 > horizons
    return survivors / ensemble.n_paths


def _reference_ensemble(kind):
    grid = make_uniform_grid(1.0, 32)
    if kind == "lattice":
        # values on the 1/8 lattice, so |x - x_s| equals delta and epsilon exactly
        steps = np.random.default_rng(8).integers(-2, 3, size=(60, 32)) / 8.0
        values = np.concatenate((np.zeros((60, 1)), np.cumsum(steps, axis=1)), axis=1)
        return Ensemble(grid, values, 0, "lattice")
    if kind == "bm":
        return sample_ensemble(BrownianMotion(1.0), grid, 17, 60)
    return sample_ensemble(FractionalBrownianMotion(float(kind)), grid, 17, 60)


REFERENCE_RULES = ("det:0", "det:0.3", "det:1", "hit:0.25", "hit:0.25@det:0.5",
                   "absexceed:0.5", "pass:0.25")
REFERENCE_EVENTS = (
    WholeSpace(),
    Conjunction((ValueAtStopInRange(-0.25, 0.25), StoppedBeforeHorizon(0.75))),
)
# prop-c (delta, ladder); a ladder topping out at 0.25 lies before the capped
# stop of det:0.3 and of hit:0.25@det:0.5
PROP_C_VARIANTS = ((None, None), (0.25, None), (0.375, (0.1, 0.25)), (0.25, (0.5, 0.75)))


@pytest.mark.parametrize("kind", ["lattice", "bm", "0.3", "0.75"])
def test_characterizations_match_reference(kind):
    ens = _reference_ensemble(kind)
    if kind == "lattice":
        assert np.any(np.abs(ens.values - ens.values[:, :1]) == 0.25)
    paths = [ens.path(i) for i in range(ens.n_paths)]
    for rule in REFERENCE_RULES:
        for epsilon in (0.125, 0.25, 0.5):
            for event in REFERENCE_EVENTS:
                for horizon in (0.75, 1.0):
                    end_index = ens.grid.last_index_at_or_before(horizon)
                    queries = [q(epsilon, parse_rule(rule), horizon, event=event,
                                 characterization=c) for c in ("def-a", "prop-b")]
                    queries += [q(epsilon, parse_rule(rule), horizon, event=event,
                                  characterization="prop-c", delta=d, ladder=lad)
                                for d, lad in PROP_C_VARIANTS]
                    for query in queries:
                        got = [_success(query, p, end_index) for p in paths]
                        want = [_reference_success(query, p, end_index) for p in paths]
                        assert got == want, query


@pytest.mark.parametrize("kind", ["lattice", "bm", "0.3", "0.75"])
def test_survival_ladder_matches_reference(kind):
    ens = _reference_ensemble(kind)
    horizons = (0.1, 0.25, 0.5, 0.75, 1.0)
    for rule in REFERENCE_RULES:
        for delta in (0.125, 0.25, 0.5):
            got = survival_ladder(ens, parse_rule(rule), delta, horizons)
            want = _reference_ladder(ens, parse_rule(rule), delta, horizons)
            assert np.array_equal(got, want), (rule, delta)
