import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import stickylab.stickiness as stickiness
from stickylab.errors import GridMismatchError, InvalidArgumentError, NumericalFailureError
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
    _exit_indices,
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


def _norm_ppf_wilson_ci(successes, n, level):
    # frozen copies of wilson_ci and zero_success_upper_bound that take z from
    # scipy.stats.norm.ppf where they call scipy.special.ndtri
    z = float(norm.ppf(0.5 + level / 2.0))
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = z * np.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == n else min(1.0, center + half)
    return (low, high)


def _norm_ppf_zero_success_upper_bound(n, level):
    z = float(norm.ppf(level))
    return z * z / (n + z * z)


@pytest.mark.parametrize("level", [1e-6, 0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 1.0 - 1e-6])
@pytest.mark.parametrize("n", [1, 2, 7, 50, 10_000])
def test_wilson_against_closed_form_oracle(n, level):
    for successes in sorted({0, 1, n // 3, n // 2, n - 1, n}):
        lo, hi = wilson_ci(successes, n, level)
        want_lo, want_hi = wilson_interval(successes, n, level)
        assert lo == pytest.approx(want_lo, rel=1e-12, abs=1e-15)
        assert hi == pytest.approx(want_hi, rel=1e-12, abs=1e-15)
        # bit for bit, so every interval, verdict and CSV hash holds
        assert (lo, hi) == _norm_ppf_wilson_ci(successes, n, level)
    assert zero_success_upper_bound(n, level) == _norm_ppf_zero_success_upper_bound(n, level)


def test_ndtri_port_matches_scipy_bit_for_bit():
    # wilson_ci and zero_success_upper_bound take z from the pure-Python port of
    # Cephes ndtri, so counting never imports scipy; it must give scipy's bits
    from scipy.special import ndtri

    edge = 0.13533528323661269189  # exp(-2): the middle branch's edge, from either side
    near = []  # five floats each side of either edge
    for b in (edge, 1.0 - edge):
        for toward in (0.0, 1.0):
            v = b
            for _ in range(5):
                v = np.nextafter(v, toward)
                near.append(v)
    y = np.concatenate([
        np.random.default_rng(2027).random(1_000_000),
        np.exp(-np.linspace(0.0, 745.0, 100_001)),  # 1 down to the smallest subnormal
        10.0 ** -np.arange(1.0, 301.0),
        [5e-324, 2.2250738585072014e-308, 1e-310, 1.0 - 2.0**-53, 1.0 - 1e-16, 0.5,
         edge, 1.0 - edge, np.exp(-32.0), 1.0 - np.exp(-32.0)],
        near,
    ])
    got = np.array([stickiness._ndtri(float(v)) for v in y])
    want = ndtri(y)
    assert np.isfinite(want[(y > 0.0) & (y < 1.0)]).all()
    assert y[got.view(np.int64) != want.view(np.int64)].tolist() == []  # the inputs that differ
    assert [stickiness._ndtri(v) for v in (0.0, 1.0)] == [-np.inf, np.inf]
    assert all(np.isnan(stickiness._ndtri(v)) for v in (-0.5, 1.5, np.nan))


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


@pytest.mark.parametrize("successes, n", [(2.5, 10), (2, 10.5), ("2", 10), (2, "10")])
def test_wilson_refuses_counts_that_are_not_integers(successes, n):
    # int() would truncate 2.5 and 10.5 and parse "2"
    with pytest.raises(InvalidArgumentError, match="must be an integer"):
        wilson_ci(successes, n)
    assert wilson_ci(np.int64(2), np.int64(10)) == wilson_ci(2, 10)


@pytest.mark.parametrize("level", [1.5, 1.0, 0.0, float("nan"), "0.9", None, True])
def test_intervals_refuse_a_level_outside_the_open_unit_interval(level):
    match = rf"confidence level must be a real number in \(0, 1\), got {level!r}"
    with pytest.raises(InvalidArgumentError, match=match):
        wilson_ci(2, 10, level)
    with pytest.raises(InvalidArgumentError, match=match):
        zero_success_upper_bound(10, level)


def test_wilson_refuses_a_level_whose_two_sided_z_is_infinite():
    # 0.5 + level / 2 rounds to 1; the one-sided bound's z stays finite
    level = 1.0 - 2.0**-53
    with pytest.raises(InvalidArgumentError, match=r"whose two-sided z is finite, got 0\.9999"):
        wilson_ci(1, 10, level)
    assert 0.0 < zero_success_upper_bound(10, level) < 1.0


@pytest.mark.parametrize("n", [10.5, "10", None])
def test_zero_success_upper_bound_refuses_counts_that_are_not_integers(n):
    with pytest.raises(InvalidArgumentError, match="n must be an integer"):
        zero_success_upper_bound(n)
    assert zero_success_upper_bound(np.int64(10)) == zero_success_upper_bound(10)


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
def test_nonstrict_exit_agrees_with_the_window_sup(values, data):
    # the window [start, end] has max |x - x_start| >= delta exactly when the
    # non-strict exit lies in it: at delta = the sup and just above it
    x = np.array(values)
    start = data.draw(st.integers(0, x.size - 1))
    end = data.draw(st.integers(start, x.size - 1))
    sup = np.max(np.abs(x[start : end + 1] - x[start]))
    for delta in (sup, np.nextafter(sup, np.inf)):
        if delta > 0.0:
            exit_index = _exit_indices(x[None, :], np.array([start]), delta, strict=False)[0]
            assert (exit_index <= end) == (sup >= delta)


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


REAL = r"must be a real number in \(0, inf\), got"
CONFIDENCE = r"confidence must be a real number in \(0, 1\), got"


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"confidence": 1.0}, f"{CONFIDENCE} 1.0"),
        ({"characterization": "prop-d"}, "unknown characterization 'prop-d'"),
        ({"horizon": True, "epsilon": True}, f"epsilon {REAL} True"),
        ({"horizon": np.True_}, f"horizon {REAL} np.True_"),
        ({"epsilon": np.array([0.5])}, f"epsilon {REAL}"),
        ({"epsilon": "0.5"}, f"epsilon {REAL} '0.5'"),
        ({"horizon": 0}, f"horizon {REAL} 0"),
        ({"epsilon": float("nan")}, f"epsilon {REAL} nan"),
        # a string or None leaked a TypeError from the comparison
        ({"confidence": "0.5"}, f"{CONFIDENCE} '0.5'"),
        ({"confidence": None}, f"{CONFIDENCE} None"),
        ({"confidence": True}, f"{CONFIDENCE} True"),
        ({"confidence": float("nan")}, f"{CONFIDENCE} nan"),
        ({"horizon": "1"}, f"horizon {REAL} '1'"),
        ({"horizon": None}, f"horizon {REAL} None"),
        ({"epsilon": None}, f"epsilon {REAL} None"),
    ],
    ids=["confidence-one", "unknown-characterization", "booleans", "numpy-boolean", "array",
         "string", "zero-horizon", "nan-epsilon", "confidence-str", "confidence-none",
         "confidence-bool", "confidence-nan", "horizon-str", "horizon-none", "epsilon-none"],
)
def test_query_refuses_a_bad_confidence_or_characterization(kwargs, match):
    with pytest.raises(InvalidArgumentError, match=match):
        q(**{"epsilon": 0.5, **kwargs})


@pytest.mark.parametrize(
    "ladder",
    [(), (0.5, 0.5), (0.75, 0.25), (0.25, float("nan")), (float("-inf"), 0.5), (0.5, 1.5),
     (True,), (0.5, "1"), ([0.5, 1.0],), (-1.0, 0.0, 0.5), (0.0, 1.0)],
)
def test_ladder_rejects_bad_ladders(ladder):
    # (0.5, 1.5) is well formed but ends past the grid span of 1
    with pytest.raises(InvalidArgumentError):
        survival_ladder(constant_ensemble(), Deterministic(0.0), 0.5, ladder)


@pytest.mark.parametrize("delta", [True, -1.0, 0.0, float("nan"), "0.5", np.array([0.5])])
def test_ladder_refuses_a_bad_delta_by_name(delta):
    with pytest.raises(InvalidArgumentError, match=rf"delta {REAL} {re.escape(repr(delta))}"):
        survival_ladder(constant_ensemble(), Deterministic(0.0), delta, [1.0])


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


def test_sis_when_tau_never_fires_reports_zero():
    # no path of unit horizon moves 100 away from its start, so every weight is 0
    grid = make_uniform_grid(1.0, 64)
    query = q(0.5, tau=parse_rule("hit:100@det:0"))
    est = estimate_stickiness_sis(FractionalBrownianMotion(0.75), grid, query, 5, 50)
    assert est.log10_p_hat == est.log10_lower == -np.inf
    assert est.ess == 0.0


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


@pytest.mark.parametrize("n_samples", [2.5, "3", 0])
def test_sis_refuses_sample_counts_that_are_not_positive_integers(n_samples):
    # int() would draw 2 samples for 2.5 and 3 for "3"
    with pytest.raises(InvalidArgumentError, match="n_samples must be"):
        sis(0.5, n=n_samples)
    assert sis(0.5, n=np.int64(3)) == sis(0.5, n=3)


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
    stop = _reference_capped_stop(query, path, end_index)
    if not evaluate_event(query.event, path, stop):
        return False
    return not _reference_window_sup(path.values, stop.index, end_index) > query.epsilon


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


def _reference_queries(grid):
    """``(end index, queries)`` for every rule, epsilon, event and horizon, one
    query per characterization."""
    for rule in REFERENCE_RULES:
        for epsilon in (0.125, 0.25, 0.5):
            for event in REFERENCE_EVENTS:
                for horizon in (0.75, 1.0):
                    yield grid.last_index_at_or_before(horizon), [
                        q(epsilon, parse_rule(rule), horizon, event=event, characterization=c)
                        for c in ("def-a", "prop-b", "prop-c")
                    ]



@pytest.mark.parametrize("kind", ["lattice", "bm", "0.3", "0.75"])
def test_characterizations_match_reference(kind):
    ens = _reference_ensemble(kind)
    if kind == "lattice":
        assert np.any(np.abs(ens.values - ens.values[:, :1]) == 0.25)
    paths = [ens.path(i) for i in range(ens.n_paths)]
    for end_index, queries in _reference_queries(ens.grid):
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


@pytest.mark.parametrize("spec", [BrownianMotion(1.0), FractionalBrownianMotion(0.3),
                                  FractionalBrownianMotion(0.75)], ids=["bm", "0.3", "0.75"])
def test_prop_c_counts_the_ladder_at_its_horizon(spec):
    # prop-c's restart from tau ^ T survives T exactly when survival_ladder's
    # restart from tau does: a tau after T survives both
    ens = sample_ensemble(spec, make_uniform_grid(1.0, 256), 11, 400)
    horizons = (0.1, 0.5, 0.75, 1.0)
    for rule in REFERENCE_RULES:
        for epsilon in (0.125, 0.25, 0.5):
            ladder = survival_ladder(ens, parse_rule(rule), epsilon, horizons)
            for horizon, fraction in zip(horizons, ladder):
                query = q(epsilon, parse_rule(rule), horizon, characterization="prop-c")
                assert estimate_stickiness(ens, query).p_hat == fraction, query


@functools.lru_cache(maxsize=None)
def _reference_counts(kind):
    ens = _reference_ensemble(kind)
    paths = [ens.path(i) for i in range(ens.n_paths)]
    return {
        query: sum(_reference_success(query, p, end_index) for p in paths)
        for end_index, queries in _reference_queries(ens.grid)
        for query in queries
    }


def _split(ens, cuts):
    """``ens`` as blocks cut at the row indices ``cuts``."""
    bounds = [0, *cuts, ens.n_paths]
    return [Ensemble(ens.grid, ens.values[a:b], ens.master_seed)
            for a, b in zip(bounds, bounds[1:])]


# block boundaries of the 60 reference rows: blocks of 1, 7 and 64 rows, and uneven
SPLITS = {"1": range(1, 60), "7": range(7, 60, 7), "64": (), "uneven": (1, 9, 40, 41)}


@pytest.mark.parametrize(
    "rows, split",
    [pytest.param(1, None, id="1"), pytest.param(7, None, id="7"),
     pytest.param(None, None, id="None")]
    + [pytest.param(None, split, id=f"blocks-{split}") for split in SPLITS],
)
@pytest.mark.parametrize("kind", ["lattice", "bm", "0.3", "0.75"])
def test_block_counts_match_reference(monkeypatch, kind, rows, split):
    # every query and ladder counted over chunks of 1 and 7 rows and the
    # default (one chunk of the 60 rows) equals the frozen per-path code; so
    # does every count of the rows passed as blocks, each block one chunk, and
    # the cross-check of the blocks equals the held ensemble's
    import stickylab.pathgen as pg

    ens = _reference_ensemble(kind)
    if rows is not None:
        chunk_bytes = rows * stickiness._TUBE_POINT_BYTES * ens.grid.n_points
        monkeypatch.setattr(pg, "_BLOCK_BYTES", chunk_bytes)
    blocks = ens if split is None else _split(ens, SPLITS[split])
    # each chunk recounts its first path through evaluate_rule once per query (a
    # ladder: per horizon), so the recounts show the chunking took the patched budget
    recounts = []
    monkeypatch.setattr(stickiness, "evaluate_rule",
                        lambda rule, path: recounts.append(path) or evaluate_rule(rule, path))
    chunks = -(-ens.n_paths // (rows or ens.n_paths)) if split is None else len(blocks)
    for query, want in _reference_counts(kind).items():
        recounts.clear()
        est = estimate_stickiness(blocks, query)
        assert (est.successes, est.n) == (want, ens.n_paths), query
        assert len(recounts) == chunks, query
        if split is not None and query.characterization == "def-a":  # it counts all three
            report = cross_check_characterizations(iter(blocks), query)
            assert report == cross_check_characterizations(ens, query), query
    horizons = (0.1, 0.25, 0.5, 0.75, 1.0)
    for rule in REFERENCE_RULES:
        for delta in (0.125, 0.25, 0.5):
            recounts.clear()
            got = survival_ladder(blocks, parse_rule(rule), delta, horizons)
            assert len(recounts) == chunks * len(horizons), (rule, delta)
            want = _reference_ladder(ens, parse_rule(rule), delta, horizons)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (rule, delta)


def test_block_and_one_path_disagreement_raises(monkeypatch):
    # each chunk's first path is recounted through evaluate_rule; a one-path
    # route that disagrees with the block is a numerical failure, not a count
    ens = constant_ensemble()
    monkeypatch.setattr(stickiness, "evaluate_rule", lambda rule, path: StopResult.not_stopped())
    with pytest.raises(NumericalFailureError, match="path 0"):
        estimate_stickiness(ens, q(0.5))  # every block row succeeds
    with pytest.raises(NumericalFailureError, match="path 0"):
        estimate_stickiness(iter([ens, ens]), q(0.5))
    monkeypatch.setattr(stickiness, "evaluate_rule", evaluate_rule)
    monkeypatch.setattr(stickiness, "evaluate_event", lambda event, path, stop: False)
    with pytest.raises(NumericalFailureError, match="path 0"):
        survival_ladder(ens, Deterministic(0.0), 0.5, [1.0])  # every block row survives
    with pytest.raises(NumericalFailureError, match="path 0"):
        survival_ladder(iter([ens, ens]), Deterministic(0.0), 0.5, [0.5, 1.0])


@pytest.mark.parametrize("count, scans", [
    (lambda ens: estimate_stickiness(ens, q(0.5)), 1),
    (lambda ens: cross_check_characterizations(ens, q(0.5)), 2),  # def-a and prop-b share one
    (lambda ens: survival_ladder(ens, Deterministic(0.0), 0.5, [0.1, 0.25, 0.5, 0.75, 1.0]), 1),
], ids=["estimate", "cross-check", "ladder"])
def test_one_tube_scan_per_epsilon_and_strictness_per_chunk(monkeypatch, count, scans):
    # the queries of one count share tau's stop and scan the tube from it once for
    # each (epsilon, strictness), whatever their T; the one-row recounts are apart
    blocks, calls = _split(_reference_ensemble("bm"), [20, 45]), []

    def exit_indices(x, start, delta, strict):
        calls.append(len(x))
        return _exit_indices(x, start, delta, strict)

    monkeypatch.setattr(stickiness, "_exit_indices", exit_indices)
    count(blocks)
    assert [rows for rows in calls if rows > 1] == [20] * scans + [25] * scans + [15] * scans


def test_streamed_disagreement_names_the_row_among_the_rows_seen(monkeypatch):
    # only the second block's first path disagrees: it is row 50 of the stream
    ens, calls = constant_ensemble(), []

    def one_path_rule(rule, path):
        calls.append(path)
        return StopResult.not_stopped() if len(calls) == 2 else evaluate_rule(rule, path)

    monkeypatch.setattr(stickiness, "evaluate_rule", one_path_rule)
    with pytest.raises(NumericalFailureError, match="path 50:"):
        estimate_stickiness([ens, ens], q(0.5))


def test_blocks_from_a_one_shot_generator_are_read_once():
    ens = _reference_ensemble("bm")
    blocks = (block for block in _split(ens, [20, 45]))
    assert estimate_stickiness(blocks, q(0.5)) == estimate_stickiness(ens, q(0.5))
    with pytest.raises(InvalidArgumentError, match="no ensemble block"):
        estimate_stickiness(blocks, q(0.5))  # spent


COUNTS = {
    "estimate": lambda blocks: estimate_stickiness(blocks, q(0.5)),
    "cross-check": lambda blocks: cross_check_characterizations(blocks, q(0.5)),
    "ladder": lambda blocks: survival_ladder(blocks, Deterministic(0.0), 0.5, [0.5, 1.0]),
}


@pytest.mark.parametrize("count", sorted(COUNTS))
def test_block_streams_refuse_other_grids_other_items_and_no_blocks(count):
    ens = constant_ensemble()
    other = constant_ensemble(steps=8)
    with pytest.raises(GridMismatchError):
        COUNTS[count]([ens, other])
    for item in (ens.values, ens.path(0), None):
        with pytest.raises(InvalidArgumentError, match="expected an Ensemble block, got "):
            COUNTS[count]([ens, item])
    for blocks in ([], iter(())):
        with pytest.raises(InvalidArgumentError, match="no ensemble block"):
            COUNTS[count](blocks)


@pytest.mark.parametrize(
    "count",
    [
        lambda blocks: estimate_stickiness(blocks, q(0.5, horizon=2.0)),
        lambda blocks: cross_check_characterizations(blocks, q(0.5, horizon=2.0)),
        lambda blocks: estimate_stickiness(blocks, q(0.5, horizon=2.0, characterization="prop-c")),
        lambda blocks: survival_ladder(blocks, Deterministic(0.0), 0.5, [0.5, 2.0]),
    ],
    ids=["window", "cross-check", "prop-c", "survival-ladder"],
)
def test_window_past_the_grid_is_refused_before_a_second_block_is_drawn(count):
    def spy():
        yield constant_ensemble()  # horizon 1
        raise AssertionError("a second block was drawn before the first block's grid was checked")

    with pytest.raises(InvalidArgumentError, match="exceed"):
        count(spy())


def test_count_temporaries_stay_bounded():
    # each chunk's tube temporaries take about _BLOCK_BYTES and are freed before the next
    import tracemalloc

    import stickylab.pathgen as pg

    ens = sample_ensemble(FractionalBrownianMotion(0.75), make_uniform_grid(1.0, 1024), 3, 2000)
    hit = parse_rule("hit:0.1@hit:0.1")
    counts = (
        lambda: estimate_stickiness(ens, q(0.5, tau=hit)),
        lambda: estimate_stickiness(ens, q(0.5, tau=hit, characterization="prop-c")),
        lambda: cross_check_characterizations(ens, q(0.5, tau=hit)),  # two scans' exits held
        lambda: survival_ladder(ens, hit, 0.5, [0.5, 1.0]),
    )
    for count in counts:
        tracemalloc.start()
        try:
            count()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # slack: numpy's 64 KB iteration buffers and the one-row recount, well
        # under one more chunk-sized bool mask (465 KB)
        assert peak <= pg._BLOCK_BYTES + 2**18


def test_a_stream_is_counted_one_block_at_a_time():
    # the previous block (and each count's last chunk of it) is freed before the
    # stream draws the next, so four blocks peak near one, not two
    import tracemalloc

    grid, spec, rows = make_uniform_grid(1.0, 1024), FractionalBrownianMotion(0.75), 4000
    block_bytes = rows * grid.n_points * 8  # 31.3 MiB
    hit = parse_rule("hit:0.1")
    counts = (
        lambda ens: estimate_stickiness(ens, q(0.5, tau=hit)),
        lambda ens: cross_check_characterizations(ens, q(0.5, tau=hit)),
        lambda ens: survival_ladder(ens, Deterministic(0.0), 0.5, [0.25, 0.5, 1.0]),
    )
    held = sample_ensemble(spec, grid, 11, 4 * rows)
    want = [count(held) for count in counts]
    del held
    for count, held_result in zip(counts, want):
        tracemalloc.start()
        try:
            got = count(sample_ensemble(spec, grid, 11, rows, first=a)
                        for a in range(0, 4 * rows, rows))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if isinstance(got, np.ndarray):
            assert got.view(np.int64).tolist() == held_result.view(np.int64).tolist()
        else:
            assert got == held_result
        assert peak <= block_bytes + 8 * 2**20


def test_sis_recount_disagreement_raises(monkeypatch):
    # the samples are recounted by the block kernel, apart from the sampler's own stops
    monkeypatch.setattr(stickiness, "_stop_indices",
                        lambda rule, x, grid: np.full(len(x), grid.n_points))
    with pytest.raises(NumericalFailureError, match="importance sample 0"):
        sis(0.5, n=20)
