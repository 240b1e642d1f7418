import numpy as np
import pytest

from stickylab.errors import AlignmentError, InvalidArgumentError
from stickylab.market import (
    CostModel,
    Strategy,
    admissibility_check,
    exp_price,
    liquidation_value,
    momentum_strategy,
    terminal_stats,
)
from stickylab.pathgen import (
    BrownianMotion,
    Path,
    SeedSpec,
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


# ---------------------------------------------------------------- admissibility


def test_admissibility_flat_ok():
    grid = make_uniform_grid(1.0, 4)
    ledger = liquidation_value(flat_strategy(), Path(grid, np.ones(5)), CostModel(0.0))
    ok, when = admissibility_check(ledger, CostModel(0.0, admissibility_floor=1.0))
    assert ok and when is None


def test_admissibility_violation_and_first_time():
    from stickylab.market import LedgerPath

    grid = make_uniform_grid(1.0, 4)
    values = np.array([0.0, -0.5, -2.0, -2.5, 0.0])
    zeros = np.zeros(5)
    ledger = LedgerPath(grid, values, zeros, zeros, values)
    ok, when = admissibility_check(ledger, CostModel(0.0, admissibility_floor=1.0))
    assert not ok and when == 0.5


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
