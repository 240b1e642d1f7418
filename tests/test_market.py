import dataclasses
import warnings

import numpy as np
import pytest

from stickylab import cli
from stickylab.errors import AlignmentError, InvalidArgumentError
from stickylab.market import (
    CostModel,
    LedgerPath,
    Strategy,
    admissibility_check,
    exp_price,
    liquidation_value,
    momentum_strategy,
    terminal_stats,
)
from stickylab.pathgen import (
    BrownianMotion,
    Ensemble,
    FractionalBrownianMotion,
    Path,
    SeedSpec,
    _row_blocks,
    make_uniform_grid,
    sample_brownian,
    sample_ensemble,
)

from oracles import cash_ledger_terminal


def flat_strategy():
    return Strategy(np.array([]), np.array([]))


def random_instance(rng, steps=64, max_jumps=10):
    grid = make_uniform_grid(1.0, steps)
    n_jumps = int(rng.integers(1, max_jumps + 1))
    # interior grid times only, so terminal liquidation is unambiguous
    idx = np.sort(rng.choice(np.arange(1, steps), size=n_jumps, replace=False))
    holdings = np.round(rng.normal(size=n_jumps) * 2, 3)
    strategy = Strategy(grid.times[idx], holdings)
    price_path = Path(grid, np.exp(rng.normal(scale=0.3, size=steps + 1).cumsum() * 0.2))
    return grid, strategy, price_path


# ---------------------------------------------------------------- ledger


def test_zero_strategy_zero_ledger():
    grid = make_uniform_grid(1.0, 16)
    price = Path(grid, np.linspace(1.0, 2.0, 17))
    ledger = liquidation_value(flat_strategy(), price, CostModel(0.05))
    assert np.array_equal(ledger.values, np.zeros(17))


def test_buy_and_hold_formula():
    # theta jumps 0 -> 1 at t=0: V_t = (X_t - X_0) - k X_0 - k X_t
    grid = make_uniform_grid(1.0, 8)
    x = np.linspace(2.0, 3.0, 9)
    price = Path(grid, x)
    k = 0.01
    ledger = liquidation_value(Strategy(np.array([0.0]), np.array([1.0])), price, CostModel(k))
    expected = (x - x[0]) - k * x[0] - k * x
    assert np.allclose(ledger.values, expected, rtol=0, atol=1e-15)


def test_ledger_oracle_equivalence_randomized():
    rng = np.random.default_rng(99)
    for _ in range(300):
        grid, strategy, price = random_instance(rng)
        k = float(rng.choice([0.0, 0.001, 0.01, 0.05]))
        ledger = liquidation_value(strategy, price, CostModel(k))
        oracle = cash_ledger_terminal(
            grid.times, price.values, strategy.breakpoints, strategy.holdings, k
        )
        assert ledger.terminal == pytest.approx(oracle, rel=1e-12, abs=1e-12)


def test_ledger_decomposition_exact():
    rng = np.random.default_rng(3)
    for _ in range(50):
        _, strategy, price = random_instance(rng)
        ledger = liquidation_value(strategy, price, CostModel(0.02))
        recombined = ledger.gains - ledger.cost_flow - ledger.liquidation_penalty
        assert np.allclose(recombined, ledger.values, rtol=1e-12, atol=1e-12)


def test_k_zero_reduces_to_pure_gains():
    rng = np.random.default_rng(4)
    _, strategy, price = random_instance(rng)
    ledger = liquidation_value(strategy, price, CostModel(0.0))
    assert np.array_equal(ledger.values, ledger.gains)
    assert np.array_equal(ledger.cost_flow, np.zeros_like(ledger.cost_flow))


def test_k_monotonicity_per_path():
    rng = np.random.default_rng(5)
    rates = [0.0, 0.001, 0.01, 0.05]
    for _ in range(100):
        _, strategy, price = random_instance(rng)
        terminals = [liquidation_value(strategy, price, CostModel(k)).terminal for k in rates]
        assert all(a >= b for a, b in zip(terminals, terminals[1:]))
        if np.abs(strategy.jump_sizes()).sum() > 0:
            assert terminals[0] > terminals[-1]


def test_v0_zero_without_initial_trade():
    grid = make_uniform_grid(1.0, 4)
    price = Path(grid, np.full(5, 2.0))
    ledger = liquidation_value(
        Strategy(np.array([0.25]), np.array([1.0])), price, CostModel(0.1)
    )
    assert ledger.values[0] == 0.0


def test_breakpoint_off_grid_rejected():
    grid = make_uniform_grid(1.0, 4)
    price = Path(grid, np.ones(5))
    with pytest.raises(AlignmentError):
        liquidation_value(Strategy(np.array([0.3]), np.array([1.0])), price, CostModel(0.0))


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: Strategy(np.array([0.5, 0.25]), np.array([1.0, 2.0])),
         "breakpoints must be strictly increasing"),
        (lambda: Strategy(np.array([0.25, 0.5]), np.array([1.0, np.nan])),
         "strategy data must be finite"),
        (lambda: terminal_stats(np.array([])), "at least one terminal value"),
    ],
    ids=["unsorted-breakpoints", "nan-holding", "no-terminals"],
)
def test_bad_strategies_and_empty_terminals_are_refused(build, match):
    with pytest.raises(InvalidArgumentError, match=match):
        build()


# ---------------------------------------------------------------- admissibility


def test_admissibility_flat_ok():
    grid = make_uniform_grid(1.0, 4)
    ledger = liquidation_value(flat_strategy(), Path(grid, np.ones(5)), CostModel(0.0))
    ok, when = admissibility_check(ledger, CostModel(0.0, admissibility_floor=1.0))
    assert ok and when is None


def test_admissibility_violation_and_first_time():
    grid = make_uniform_grid(1.0, 4)
    values = np.array([0.0, -0.5, -2.0, -2.5, 0.0])
    zeros = np.zeros(5)
    ledger = LedgerPath(grid, values, zeros, zeros, values)
    ok, when = admissibility_check(ledger, CostModel(0.0, admissibility_floor=1.0))
    assert not ok and when == 0.5


def test_admissibility_of_a_block_reports_the_first_row_to_dip():
    grid = make_uniform_grid(1.0, 4)
    values = np.array([[0.0, 0.0, 0.0, -2.0, 0.0], [0.0, -0.5, -2.0, 0.0, 0.0]])
    zeros = np.zeros((2, 5))
    ledger = LedgerPath(grid, values, zeros, zeros, values)
    assert admissibility_check(ledger, CostModel(0.0, admissibility_floor=1.0)) == (False, 0.5)
    assert admissibility_check(ledger, CostModel(0.0, admissibility_floor=3.0)) == (True, None)


def test_buy_and_hold_admissible_with_generous_floor():
    grid = make_uniform_grid(1.0, 64)
    rng = np.random.default_rng(11)
    for i in range(50):
        price = exp_price(sample_brownian(grid, SeedSpec(70, i)))
        k = 0.01
        ledger = liquidation_value(
            Strategy(np.array([grid.times[1]]), np.array([1.0])), price, CostModel(k)
        )
        floor = (1 + k) * price.values[1] + 1e-9
        ok, _ = admissibility_check(ledger, CostModel(k, admissibility_floor=floor))
        assert ok


# ---------------------------------------------------------------- arbitrage stats


def test_stats_all_zero_ledgers():
    grid = make_uniform_grid(1.0, 4)
    price = Path(grid, np.ones(5))
    ledgers = [liquidation_value(flat_strategy(), price, CostModel(0.0)) for _ in range(5)]
    stats = terminal_stats(np.array([ledger.terminal for ledger in ledgers]))
    assert stats.frac_nonnegative == 1.0
    assert stats.frac_strictly_positive == 0.0
    assert not stats.flag


def test_stats_flag_on_positive_terminals():
    stats = terminal_stats(np.array([1.0, 2.0, 3.0]))
    assert stats.flag and stats.frac_nonnegative == 1.0 and stats.frac_strictly_positive == 1.0


def test_stats_flag_off_with_negative():
    stats = terminal_stats(np.array([1.0, -0.5, 3.0]))
    assert not stats.flag


def test_stats_tolerance_absorbs_noise():
    stats = terminal_stats(np.array([0.0, -1e-12, 2.0]), tol=1e-9)
    assert stats.frac_nonnegative == 1.0 and stats.flag


# ---------------------------------------------------------------- momentum



def test_terminal_stats_rescue_an_overflowing_sum_and_refuse_an_overflowing_std():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = terminal_stats(np.array([1e308, 1.5e308, 1.7e308]))
        assert stats.mean_terminal == pytest.approx(1.4e308, rel=1e-12)
        assert stats.std_terminal == pytest.approx(np.std([1.0, 1.5, 1.7], ddof=1) * 1e308)
        with pytest.raises(InvalidArgumentError, match="exceeds the float range"):
            terminal_stats(np.array([1.7e308, -1.7e308]))
        with pytest.raises(InvalidArgumentError, match="must be finite"):
            terminal_stats(np.array([1.0, np.inf]))

def test_momentum_constant_price_never_trades():
    grid = make_uniform_grid(1.0, 16)
    strategy = momentum_strategy(Path(grid, np.full(17, 5.0)), 0.1, 1.0)
    assert strategy.n_jumps == 0


def test_momentum_single_jump_on_monotone_path():
    grid = make_uniform_grid(1.0, 10)
    price = Path(grid, np.linspace(0.0, 1.0, 11))  # crosses 0.1 after t=0.1
    strategy = momentum_strategy(price, 0.1, 1.0)
    assert strategy.n_jumps == 1
    # decision uses the previous grid value, so the jump lands one step after
    # the first strictly-above observation
    assert strategy.breakpoints[0] == pytest.approx(0.3)
    assert strategy.holdings[0] == 1.0


def test_momentum_no_anticipation():
    grid = make_uniform_grid(1.0, 64)
    base = sample_brownian(grid, SeedSpec(1, 2))
    tampered = base.values.copy()
    cut = 40
    tampered[cut:] = 17.0  # rewrite the future
    s1 = momentum_strategy(base, 0.2, 1.0)
    s2 = momentum_strategy(Path(grid, tampered), 0.2, 1.0)
    t_cut = grid.times[cut]
    early1 = [(b, h) for b, h in zip(s1.breakpoints, s1.holdings) if b <= t_cut]
    early2 = [(b, h) for b, h in zip(s2.breakpoints, s2.holdings) if b <= t_cut]
    assert early1 == early2


def test_momentum_validates_parameters():
    grid = make_uniform_grid(1.0, 4)
    price = Path(grid, np.ones(5))
    with pytest.raises(InvalidArgumentError):
        momentum_strategy(price, 0.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        momentum_strategy(price, 0.1, -1.0)


def test_cost_model_validation():
    with pytest.raises(InvalidArgumentError):
        CostModel(1.0)
    with pytest.raises(InvalidArgumentError):
        CostModel(-0.1)
    with pytest.raises(InvalidArgumentError):
        CostModel(0.1, admissibility_floor=0.0)


def test_paired_cost_erosion_small_sample():
    # identical paths, costs on: mean terminal strictly smaller, no per-path violations
    grid = make_uniform_grid(1.0, 256)
    ens = sample_ensemble(BrownianMotion(1.0), grid, 202, 200)
    v0, v1 = [], []
    for i in range(ens.n_paths):
        price = exp_price(ens.path(i))
        strat = momentum_strategy(price, 0.1, 1.0)
        v0.append(liquidation_value(strat, price, CostModel(0.0)).terminal)
        v1.append(liquidation_value(strat, price, CostModel(0.01)).terminal)
    v0, v1 = np.array(v0), np.array(v1)
    assert np.all(v0 >= v1)
    assert v0.mean() > v1.mean()


# ---------------------------------------------------------------- row blocks


def _momentum_per_path(times, x, threshold, unit):
    """Frozen copy of the one-path momentum rule: (breakpoints, holdings)."""
    drift = x[:-1] - x[0]
    desired = np.zeros(x.size)
    desired[1:] = unit * (drift > threshold).astype(np.float64)
    desired[1:] -= unit * (drift < -threshold).astype(np.float64)
    changes = np.flatnonzero(np.diff(np.concatenate(([0.0], desired))))
    return times[changes], desired[changes]


def _ledger_per_path(times, x, breakpoints, holdings, rate):
    """Frozen copy of the one-path ledger: holdings looked up per grid point,
    trade costs scattered onto their grid points with ``np.add.at``. Returns
    gains, cost flow, penalty and values."""
    if breakpoints.size == 0:
        holding, idx = np.zeros(times.size), np.array([], dtype=np.intp)
    else:
        idx = np.searchsorted(times, breakpoints, side="left")
        pos = np.searchsorted(breakpoints, times, side="right") - 1
        holding = np.where(pos >= 0, holdings[np.maximum(pos, 0)], 0.0)
    gains = np.concatenate(([0.0], np.cumsum(holding[:-1] * np.diff(x))))
    per_point_cost = np.zeros(times.size)
    jumps = np.diff(np.concatenate(([0.0], holdings)))
    np.add.at(per_point_cost, idx, rate * x[idx] * np.abs(jumps))
    cost_flow = np.cumsum(per_point_cost)
    penalty = rate * x * np.abs(holding)
    return np.array([gains, cost_flow, penalty, gains - cost_flow - penalty])


def _loop_ledgers(times, values, rate, threshold=0.1, unit=1.0):
    """Per-path ledgers as ``(4, n_paths, n_points)``, plus the jump count."""
    ledgers, jumps = [], 0
    for x in values:
        breakpoints, holdings = _momentum_per_path(times, x, threshold, unit)
        ledgers.append(_ledger_per_path(times, x, breakpoints, holdings, rate))
        jumps += breakpoints.size
    return np.stack(ledgers, axis=1), jumps


def _loop_terminals(times, values, rate):
    return _loop_ledgers(times, values, rate)[0][3, :, -1]


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


_PROCESSES = {
    "bm": BrownianMotion(1.0),
    "fbm-0.3": FractionalBrownianMotion(0.3),
    "fbm-0.75": FractionalBrownianMotion(0.75),
}


def _block_with_idle_rows(process, n_paths, steps=128, seed=41):
    ens = sample_ensemble(_PROCESSES[process], make_uniform_grid(1.0, steps), seed, n_paths)
    values = ens.values.copy()
    values[::5] = 0.0  # a flat row never trades
    return Ensemble(ens.grid, values, seed)


@pytest.mark.parametrize("process", sorted(_PROCESSES))
@pytest.mark.parametrize("n_paths", [1, 63, 64, 65, 200])
@pytest.mark.parametrize("rate", [0.0, 0.01])
@pytest.mark.parametrize("price_kind", ["exp", "raw-negative"])
def test_block_ledgers_equal_the_per_path_loop(process, n_paths, rate, price_kind):
    signal = _block_with_idle_rows(process, n_paths)
    if price_kind == "exp":
        block = exp_price(signal)
    else:  # below 0 throughout: rate * price * 0 is -0.0 at every untraded point
        block = Ensemble(signal.grid, signal.values - 2.0, signal.master_seed)
    times = block.grid.times
    expected, jumps = _loop_ledgers(times, block.values, rate)
    strategy = momentum_strategy(block, 0.1, 1.0)
    assert strategy.holdings.shape == block.values.shape
    assert strategy.n_jumps == jumps
    ledger = liquidation_value(strategy, block, CostModel(rate))
    for name, want in zip(("gains", "cost_flow", "liquidation_penalty", "values"), expected):
        assert _same_bits(getattr(ledger, name), want), name
    assert _same_bits(ledger.terminal, expected[3, :, -1])
    # the one-path form keeps the compressed breakpoints and the same bits
    last = block.path(n_paths - 1)
    one = momentum_strategy(last, 0.1, 1.0)
    frozen = _momentum_per_path(times, last.values, 0.1, 1.0)
    assert np.array_equal(one.breakpoints, frozen[0])
    assert np.array_equal(one.holdings, frozen[1])
    one_terminal = liquidation_value(one, last, CostModel(rate)).terminal
    assert isinstance(one_terminal, float)
    assert _same_bits(np.array([one_terminal]), expected[3, -1:, -1])


@pytest.mark.parametrize("n_paths", [1, 63, 64, 65, 200])
def test_cli_market_blocks_equal_the_per_path_loop(n_paths):
    # each rate's terminals are copied out of the ledger's buffer before the next rate's
    signal = _block_with_idle_rows("fbm-0.75", n_paths)
    times = signal.grid.times
    work = cli._market_work(signal.n_paths, signal.grid.n_points)
    for rows in _row_blocks(signal.n_paths, rows=cli._BLOCK_ROWS):
        block = Ensemble(signal.grid, signal.values[rows], signal.master_seed)
        terminals = cli._momentum_terminals(block, 0.1, 1.0, (0.0, 0.01), exp=True, work=work)
        for k, rate in enumerate((0.0, 0.01)):
            assert _same_bits(terminals[k], _loop_terminals(times, np.exp(block.values), rate))
        (raw,) = cli._momentum_terminals(block, 0.1, 1.0, (0.0,), exp=False, work=work)
        assert _same_bits(raw, _loop_terminals(times, block.values, 0.0))


def test_cli_market_terminals_do_not_depend_on_the_block_size(monkeypatch):
    configs = (
        cli.ExperimentConfig("portfolio", process="fbm", hurst=0.3, steps=64, n_paths=200,
                             rate=0.01),
        dataclasses.replace(cli.PRESETS["costs-fbm-momentum"], steps=64, n_paths=200),
    )
    by_size = []
    for rows in (1, 7, 64, 200):
        monkeypatch.setattr(cli, "_BLOCK_ROWS", rows)
        by_size.append([cli.render_csv(cli.run_experiment(c)) for c in configs])
    assert all(csvs == by_size[0] for csvs in by_size[1:])


@pytest.mark.parametrize("price_kind", ["exp", "raw-negative"])
def test_market_results_in_reused_buffers_equal_fresh_ones(price_kind):
    signal = _block_with_idle_rows("fbm-0.75", 65)
    work = np.full((6, 65, signal.grid.n_points), np.nan)
    if price_kind == "exp":
        fresh_price, price = exp_price(signal), exp_price(signal, out=work[0])
    else:  # negative prices put -0.0 into the untraded cost terms
        fresh_price = price = Ensemble(signal.grid, signal.values - 2.0, signal.master_seed)
    fresh_strategy = momentum_strategy(fresh_price, 0.1, 1.0)
    strategy = momentum_strategy(price, 0.1, 1.0, out=work[1])
    assert _same_bits(price.values, fresh_price.values)
    assert _same_bits(strategy.holdings, fresh_strategy.holdings)
    for rate in (0.01, 0.0):  # the second ledger overwrites the first one's buffers
        fresh = liquidation_value(fresh_strategy, fresh_price, CostModel(rate))
        ledger = liquidation_value(strategy, price, CostModel(rate), out=work[2:])
        for k, name in enumerate(("gains", "cost_flow", "liquidation_penalty", "values")):
            assert _same_bits(getattr(ledger, name), getattr(fresh, name)), name
            assert np.shares_memory(getattr(ledger, name), work[2 + k])
    # one path, its strategy compressed to breakpoints, into a one-path buffer
    last = price.path(64)
    one = momentum_strategy(last, 0.1, 1.0)
    into = liquidation_value(one, last, CostModel(0.01), out=work[2:, 0])
    assert _same_bits(into.values, liquidation_value(one, last, CostModel(0.01)).values)


def test_market_results_without_buffers_do_not_alias():
    signal = _block_with_idle_rows("bm", 8)
    prices = [exp_price(signal) for _ in range(2)]
    strategies = [momentum_strategy(prices[0], 0.1, 1.0) for _ in range(2)]
    ledgers = [liquidation_value(strategies[0], prices[0], CostModel(0.01)) for _ in range(2)]
    assert not np.shares_memory(prices[0].values, prices[1].values)
    assert not np.shares_memory(strategies[0].holdings, strategies[1].holdings)
    arrays = [getattr(ledger, name) for ledger in ledgers
              for name in ("gains", "cost_flow", "liquidation_penalty", "values")]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1:])
    with pytest.raises(InvalidArgumentError, match="out must be a float64 array"):
        liquidation_value(strategies[0], prices[0], CostModel(0.01), out=np.empty((3, 8, 129)))
    with pytest.raises(InvalidArgumentError, match="out must be a float64 array"):
        exp_price(signal, out=np.empty((8, 129), dtype=np.float32))


def test_block_strategy_holds_one_column_per_grid_time():
    grid = make_uniform_grid(1.0, 4)
    holdings = np.array([[0.0, 1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 0.0]])
    strategy = Strategy(grid.times, holdings)
    assert strategy.n_jumps == 2
    assert strategy.jump_sizes().shape == holdings.shape
    with pytest.raises(InvalidArgumentError):
        Strategy(grid.times, holdings[:, :-1])
    with pytest.raises(InvalidArgumentError):
        Strategy(grid.times, np.zeros((2, 2, 5)))


def test_overflowing_block_is_refused():
    grid = make_uniform_grid(1.0, 4)
    with np.errstate(over="ignore"):
        with pytest.raises(InvalidArgumentError, match="must be finite"):
            exp_price(Ensemble(grid, np.full((3, 5), 1000.0), 0))
    # finite prices whose moves overflow the gains
    swing = np.tile([0.0, 1e308, -1e308, 1e308, -1e308], (3, 1))
    block = Ensemble(grid, swing, 0)
    strategy = momentum_strategy(block, 0.1, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InvalidArgumentError, match="must be finite"):
            liquidation_value(strategy, block, CostModel(0.0))
    with pytest.raises(InvalidArgumentError, match="must be finite"):
        LedgerPath(grid, *[np.full((3, 5), np.inf)] * 4)
