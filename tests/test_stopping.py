import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stickylab.errors import InvalidRuleError
from stickylab.pathgen import (Ensemble, Path, SeedSpec, TimeGrid, make_uniform_grid,
                               sample_brownian)
from stickylab.stopping import (
    Conjunction,
    Deterministic,
    FirstAbsExceed,
    HittingFrom,
    PassageToLevel,
    StoppedBeforeHorizon,
    ValueAtStopInRange,
    WholeSpace,
    _exit_indices,
    evaluate_event,
    evaluate_rule,
    parse_event,
    parse_rule,
    passage_time,
)


def path_named(values, times=None):
    values = np.asarray(values, dtype=float)
    grid = TimeGrid(np.arange(values.size, dtype=float) if times is None else np.asarray(times))
    return Path(grid, values)


# ---------------------------------------------------------------- rules


def test_deterministic_snaps_to_grid():
    grid = make_uniform_grid(1.0, 4)
    p = Path(grid, np.zeros(5))
    stop = evaluate_rule(Deterministic(0.5), p)
    assert (stop.time, stop.index) == (0.5, 2)
    stop = evaluate_rule(Deterministic(0.3), p)
    assert (stop.time, stop.index) == (0.5, 2)


def test_deterministic_beyond_horizon_rejected():
    p = path_named([0.0, 1.0])
    with pytest.raises(InvalidRuleError):
        evaluate_rule(Deterministic(5.0), p)


def test_hitting_from_strict_inequality():
    p = path_named([0.0, 0.5, 1.2, 0.3])
    stop = evaluate_rule(HittingFrom(Deterministic(0.0), 1.0), p)
    assert stop.stopped and stop.index == 2
    # exactly delta does not trigger (strict >)
    q = path_named([0.0, 1.0, 1.0, 1.0])
    assert not evaluate_rule(HittingFrom(Deterministic(0.0), 1.0), q).stopped


def test_hitting_from_not_stopped():
    p = path_named([0.0, 0.5, -0.5, 0.25])
    assert not evaluate_rule(HittingFrom(Deterministic(0.0), 10.0), p).stopped


def test_first_abs_exceed_non_strict():
    p = path_named([0.0, -1.0, 2.0])
    stop = evaluate_rule(FirstAbsExceed(1.0), p)
    assert stop.stopped and stop.index == 1  # |-1| >= 1


def test_passage_examples():
    p = path_named([0.5, 1.0, 2.0])
    assert passage_time(p, 0.5).index == 0  # level = X_0
    assert passage_time(p, 1.5).index == 2  # first grid point past the crossing
    assert not passage_time(p, 5.0).stopped  # above the maximum


def test_passage_detects_sign_change_without_equality():
    p = path_named([0.0, 1.0, -1.0])
    stop = passage_time(p, 0.5)
    assert stop.stopped and stop.index == 1
    stop_down = passage_time(p, -0.5)
    assert stop_down.stopped and stop_down.index == 2


@pytest.mark.parametrize("values", [[1e-200, -1e-200], [-1e-200, 1e-200]])
def test_passage_finds_a_crossing_whose_gap_product_underflows(values):
    # 1e-200 * -1e-200 underflows to -0.0, which a product test reads as no sign change
    stop = passage_time(Path(TimeGrid(np.array([0.0, 1.0])), np.array(values)), 0.0)
    assert stop.stopped and stop.index == 1


def _crossing_loop(x, level):
    """First k with x[k] == level or a strict sign change of x - level between
    k - 1 and k, by comparisons only; len(x) when there is none."""
    for k in range(len(x)):
        if x[k] == level:
            return k
        if k and ((x[k - 1] < level < x[k]) or (x[k - 1] > level > x[k])):
            return k
    return len(x)


_LATTICE = st.integers(-24, 24).map(lambda k: k / 8.0)  # so that x[k] == level occurs


@given(
    st.integers(1, 5).flatmap(lambda rows: st.integers(2, 30).flatmap(
        lambda n: st.lists(st.lists(_LATTICE, min_size=n, max_size=n),
                           min_size=rows, max_size=rows))),
    st.lists(_LATTICE, max_size=6),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_passage_indices_match_the_crossing_loop(rows, levels, data):
    x = np.array(rows)
    start = x[data.draw(st.integers(0, x.shape[0] - 1)), 0]
    # levels equal to, above and below a row's start, and beyond every value
    levels = np.array(levels + [start, start + 0.125, start - 0.125, 4.0, -4.0])
    block = Ensemble(TimeGrid(np.arange(x.shape[1], dtype=float)), x, 0)
    want = np.array([[_crossing_loop(row, level) for level in levels] for row in x])
    got = passage_time(block, levels)
    assert np.array_equal(got, want)
    for r in range(x.shape[0]):
        for level, k in zip(levels, want[r]):
            stop = passage_time(block.path(r), float(level))
            assert stop.stopped == (k < x.shape[1]) and stop.index == (k if stop.stopped else None)


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
    "levels, match",
    [
        pytest.param(np.array([0.0, np.nan]), "passage levels must be finite", id="nan"),
        pytest.param(np.array([[0.0, 1.0]]), "passage levels must be a 1-D array", id="2-d"),
        # numpy's ValueError leaked, or a numeric string or a boolean was read as a number
        *(pytest.param(v, "passage levels must be an array of real numbers", id=k)
          for k, v in NOT_REAL_ARRAYS.items()),
    ],
)
def test_passage_time_refuses_block_levels_that_are_not_finite(levels, match):
    block = Ensemble(TimeGrid(np.array([0.0, 1.0])), np.zeros((2, 2)), 0)
    with pytest.raises(InvalidRuleError, match=match):
        passage_time(block, levels)


def test_passage_time_refuses_a_level_array_for_one_path():
    # numpy raised its bare "truth value of an array is ambiguous" ValueError here
    p = path_named([0.0, 0.15, 0.3])
    with pytest.raises(InvalidRuleError, match="array of levels with an Ensemble block"):
        passage_time(p, np.array([0.1, 0.2]))
    block = Ensemble(p.grid, p.values[None, :], 0)
    assert np.array_equal(passage_time(block, np.array([0.1, 0.2])), [[1, 2]])


def test_rule_validation():
    with pytest.raises(InvalidRuleError):
        HittingFrom(Deterministic(0.0), -1.0)
    with pytest.raises(InvalidRuleError):
        FirstAbsExceed(0.0)
    with pytest.raises(InvalidRuleError):
        Deterministic(-1.0)


@given(st.lists(st.floats(-3, 3), min_size=4, max_size=20), st.floats(0.1, 2.0), st.floats(0.1, 2.0))
@settings(max_examples=80, deadline=None)
def test_hitting_monotone_in_delta(values, d1, d2):
    p = path_named(values)
    lo, hi = sorted((d1, d2))
    s_lo = evaluate_rule(HittingFrom(Deterministic(0.0), lo), p)
    s_hi = evaluate_rule(HittingFrom(Deterministic(0.0), hi), p)
    if s_hi.stopped:
        assert s_lo.stopped and s_lo.time <= s_hi.time


@given(
    st.lists(st.integers(-24, 24).map(lambda k: k / 8.0), min_size=1, max_size=30),
    st.integers(1, 16).map(lambda k: k / 8.0),  # lattice deltas, so |x - x_s| == delta occurs
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_first_exit_matches_loop(values, delta, data):
    # each row of a block from its own start, strict and not, against a loop
    x = np.array([values, values[::-1]])
    start = np.array([data.draw(st.integers(0, x.shape[1])) for _ in range(2)])
    for strict in (True, False):
        want = [next((k for k in range(s, x.shape[1])
                      if (abs(row[k] - row[s]) > delta if strict else
                          abs(row[k] - row[s]) >= delta)), x.shape[1])
                for row, s in zip(x, start)]
        assert list(_exit_indices(x, start, delta, strict)) == want


@given(st.lists(st.floats(-3, 3), min_size=4, max_size=20), st.floats(0.1, 1.5))
@settings(max_examples=80, deadline=None)
def test_hitting_never_precedes_start(values, delta):
    p = path_named(values)
    start = Deterministic(1.0)
    base = evaluate_rule(start, p)
    follow = evaluate_rule(HittingFrom(start, delta), p)
    if follow.stopped:
        assert follow.time >= base.time


def test_passage_ramp_pathwise_identity():
    # reading the path at its own passage times reproduces the levels within
    # the crossing overshoot
    grid = make_uniform_grid(8.0, 2**12)
    p = sample_brownian(grid, SeedSpec(99, 17))
    tolerance = np.max(np.abs(np.diff(p.values)))
    for level in np.arange(0.1, 1.0, 0.1):
        stop = passage_time(p, level)
        if stop.stopped:
            assert abs(p.values[stop.index] - level) <= tolerance


def test_deterministic_rule_ignores_values():
    grid = make_uniform_grid(1.0, 4)
    a = Path(grid, np.zeros(5))
    b = Path(grid, np.random.default_rng(0).normal(size=5))
    assert evaluate_rule(Deterministic(0.75), a) == evaluate_rule(Deterministic(0.75), b)


# ---------------------------------------------------------------- events


def test_whole_space_event():
    p = path_named([0.0, 1.0])
    stop = evaluate_rule(Deterministic(0.0), p)
    assert evaluate_event(WholeSpace(), p, stop)


def test_value_at_stop_in_range():
    p = path_named([0.0, 5.0])
    stop = evaluate_rule(Deterministic(0.0), p)
    assert evaluate_event(ValueAtStopInRange(-0.1, 0.1), p, stop)
    assert not evaluate_event(ValueAtStopInRange(1.0, 2.0), p, stop)


def test_events_false_when_not_stopped():
    p = path_named([0.0, 0.1, 0.0])
    not_stopped = evaluate_rule(HittingFrom(Deterministic(0.0), 5.0), p)
    assert not evaluate_event(ValueAtStopInRange(-10, 10), p, not_stopped)
    assert not evaluate_event(StoppedBeforeHorizon(1.0), p, not_stopped)
    assert evaluate_event(WholeSpace(), p, not_stopped)


def test_stopped_before_horizon():
    p = path_named([0.0, 1.0, 2.0])
    stop = evaluate_rule(Deterministic(1.0), p)
    assert evaluate_event(StoppedBeforeHorizon(2.0), p, stop)
    assert not evaluate_event(StoppedBeforeHorizon(1.0), p, stop)  # strict <


def test_conjunction():
    p = path_named([0.0, 1.0, 2.0])
    stop = evaluate_rule(Deterministic(0.0), p)
    both = Conjunction((WholeSpace(), ValueAtStopInRange(-1, 1)))
    assert evaluate_event(both, p, stop)
    mixed = Conjunction((WholeSpace(), ValueAtStopInRange(5, 6)))
    assert not evaluate_event(mixed, p, stop)


# ---------------------------------------------------------------- text syntax


@pytest.mark.parametrize(
    "text,expected",
    [
        ("det:0.5", Deterministic(0.5)),
        ("hit:0.1", HittingFrom(Deterministic(0.0), 0.1)),
        ("hit:0.2@det:0.25", HittingFrom(Deterministic(0.25), 0.2)),
        ("hit:0.3@hit:0.1", HittingFrom(HittingFrom(Deterministic(0.0), 0.1), 0.3)),
        ("pass:1.5", PassageToLevel(1.5)),
        ("absexceed:1", FirstAbsExceed(1.0)),
    ],
)
def test_parse_rule(text, expected):
    assert parse_rule(text) == expected


@pytest.mark.parametrize("bad", ["", "det", "unknown:1", "hit:x", "det:abc"])
def test_parse_rule_rejects_garbage(bad):
    with pytest.raises(InvalidRuleError):
        parse_rule(bad)


def test_parse_event_forms():
    assert parse_event("all") == WholeSpace()
    assert parse_event("stoprange:-0.1:0.1") == ValueAtStopInRange(-0.1, 0.1)
    assert parse_event("before:1") == StoppedBeforeHorizon(1.0)
    conj = parse_event("all&before:1")
    assert isinstance(conj, Conjunction) and len(conj.events) == 2
    with pytest.raises(InvalidRuleError):
        parse_event("nonsense")


#: a string, None, a boolean and NaN: no number argument takes any of them
NOT_REAL = {"str": "1", "none": None, "bool": True, "nan": float("nan")}


@pytest.mark.parametrize(
    "build, match",
    [
        pytest.param(lambda: parse_event("stoprange:1"), "stoprange needs two bounds",
                     id="stoprange-one-bound"),
        pytest.param(lambda: StoppedBeforeHorizon(0.0),
                     r"event horizon must be a real number in \(0, inf\), got 0.0",
                     id="before-zero"),
        # a string bound leaked numpy's UFuncTypeError from evaluate_event
        pytest.param(lambda: ValueAtStopInRange("a", "b"),
                     r"range low must be a real number in \[-inf, inf\], got 'a'",
                     id="stoprange-strings"),
        pytest.param(lambda: ValueAtStopInRange(1.0, 0.0), "range event needs low <= high",
                     id="stoprange-reversed"),
        *(pytest.param(lambda v=v: StoppedBeforeHorizon(v),
                       rf"event horizon must be a real number in \(0, inf\), got {v!r}",
                       id=f"before-{k}") for k, v in NOT_REAL.items()),
        *(pytest.param(lambda v=v: ValueAtStopInRange(v, 1.0),
                       rf"range low must be a real number in \[-inf, inf\], got {v!r}",
                       id=f"stoprange-low-{k}") for k, v in NOT_REAL.items()),
        *(pytest.param(lambda v=v: ValueAtStopInRange(0.0, v),
                       rf"range high must be a real number in \[-inf, inf\], got {v!r}",
                       id=f"stoprange-high-{k}") for k, v in NOT_REAL.items()),
        *(pytest.param(lambda v=v: Deterministic(v),
                       rf"deterministic time must be a real number in \[0, inf\), got {v!r}",
                       id=f"det-{k}") for k, v in NOT_REAL.items()),
        *(pytest.param(lambda v=v: HittingFrom(Deterministic(0.0), v),
                       rf"hitting delta must be a real number in \(0, inf\), got {v!r}",
                       id=f"hit-{k}") for k, v in NOT_REAL.items()),
        *(pytest.param(lambda v=v: PassageToLevel(v),
                       rf"passage level must be a real number in \(-inf, inf\), got {v!r}",
                       id=f"pass-{k}") for k, v in NOT_REAL.items()),
        *(pytest.param(lambda v=v: FirstAbsExceed(v),
                       rf"exceedance level must be a real number in \(0, inf\), got {v!r}",
                       id=f"absexceed-{k}") for k, v in NOT_REAL.items()),
    ],
)
def test_bad_events_are_refused(build, match):
    with pytest.raises(InvalidRuleError, match=match):
        build()

