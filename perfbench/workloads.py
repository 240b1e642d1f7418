"""The four benchmark workloads.

Each workload turns a seed into experiments and returns, for every
experiment, the CSV text it rendered (or the error it raised), plus the
path-steps it sampled (the sum of n_paths * steps over its ensembles). The
layers are reached through module attributes (``pathgen.sample_ensemble``,
not a name imported here), so the spans the tracer installs see every call.

Sizes are the pinned preset and acceptance-criterion sizes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import sys
import traceback
from dataclasses import dataclass

from stickylab import cli, pathgen, stickiness, stopping

N_PATHS = 10_000
FBM_STEPS = 1024
CLI_SEEDS = 4
CLI_SMALL = ("--paths", "256", "--steps", "256")
CLI_DUMP = ("--process", "fbm", "--paths", "1000", "--steps", "1024")

ESTIMATE_COLUMNS = ("process", "H", "tau_rule", "characterization", "epsilon", "T",
                    "n", "successes", "p_hat", "ci_low", "ci_high", "verdict")
LADDER_COLUMNS = ("process", "H", "tau_rule", "delta", "horizon", "fraction", "n")


@dataclass
class Outcome:
    name: str
    csv: str | None  # None when the experiment raised or exited nonzero
    error: str | None = None


def _run(name: str, experiment) -> Outcome:
    # one failed experiment is counted and reported; the rest still run
    try:
        return Outcome(name, experiment())
    except Exception as exc:  # noqa: BLE001 - the benchmark must keep going
        traceback.print_exc(file=sys.stderr)
        return Outcome(name, None, f"{type(exc).__name__}: {exc}")


def _render(columns, rows, **provenance) -> str:
    return cli.render_csv(cli.ResultTable(tuple(columns), tuple(rows), provenance))


def _estimate_row(hurst, tau, est) -> tuple:
    q = est.query
    upper = est.zero_upper if est.successes == 0 else est.ci_high
    return ("fbm", hurst, tau, q.characterization, q.epsilon, q.horizon, est.n,
            est.successes, est.p_hat, est.ci_low, upper, est.verdict)


def fbm_grid(seed: int, out_dir: str):
    """Acceptance criterion 1: 12 stickiness cells over three fBm ensembles,
    plus a cross-check and a survival ladder on the H = 0.75 ensemble."""
    grid = pathgen.make_uniform_grid(1.0, FBM_STEPS)
    outcomes = []
    for hurst in (0.25, 0.5, 0.75):
        ens = pathgen.sample_ensemble(
            pathgen.FractionalBrownianMotion(hurst), grid, seed, N_PATHS
        )
        for tau in ("det:0", "hit:0.1"):
            for eps in (0.25, 0.5):
                query = stickiness.StickinessQuery(
                    tau=stopping.parse_rule(tau), horizon=1.0, epsilon=eps
                )
                outcomes.append(_run(f"H{hurst}/{tau}/eps{eps}", lambda: _render(
                    ESTIMATE_COLUMNS,
                    [_estimate_row(hurst, tau, stickiness.estimate_stickiness(ens, query))],
                    seed=seed,
                )))
        if hurst == 0.75:
            query = stickiness.StickinessQuery(
                tau=stopping.parse_rule("hit:0.1"), horizon=1.0, epsilon=0.5
            )

            def cross_check():
                report = stickiness.cross_check_characterizations(ens, query)
                rows = [_estimate_row(hurst, "hit:0.1", est)
                        for est in (report.def_a, report.prop_b, report.prop_c)]
                return _render(ESTIMATE_COLUMNS, rows, agree=report.agree, seed=seed)

            def ladder():
                horizons = (0.25, 0.5, 1.0)
                fractions = stickiness.survival_ladder(
                    ens, stopping.parse_rule("det:0"), 0.5, horizons
                )
                rows = [("fbm", hurst, "det:0", 0.5, h, f, ens.n_paths)
                        for h, f in zip(horizons, fractions)]
                return _render(LADDER_COLUMNS, rows, seed=seed)

            outcomes.append(_run("H0.75/cross-check", cross_check))
            outcomes.append(_run("H0.75/ladder", ladder))
    return outcomes, 3 * N_PATHS * FBM_STEPS


def _preset(name: str, seed: int):
    config = dataclasses.replace(cli.PRESETS[name], master_seed=seed)
    outcome = _run(name, lambda: cli.render_csv(cli.run_experiment(config)))
    return [outcome], config.n_paths * config.steps


def costs_momentum(seed: int, out_dir: str):
    """The costs-fbm-momentum preset: one fBm ensemble, 40,000 ledgers."""
    return _preset("costs-fbm-momentum", seed)


def passage_ramp(seed: int, out_dir: str):
    """The passage-counterexample preset: 1e4 x 8192 Brownian paths."""
    return _preset("passage-counterexample", seed)


def _cli_calls(seed: int):
    for k in range(CLI_SEEDS):
        derived = str(seed + k)
        for preset in sorted(cli.PRESETS):
            yield f"{preset}/s{k}", ("experiment", preset, *CLI_SMALL, "--seed", derived)
        for command in ("stickiness", "ladder", "portfolio"):
            yield f"{command}/s{k}", (command, *CLI_SMALL, "--seed", derived)
    yield "generate", ("generate", *CLI_DUMP, "--seed", str(seed))


def cli_sweep(seed: int, out_dir: str):
    """``cli.main`` in-process: 44 small calls, then one 21 MB ensemble dump."""
    outcomes = []
    path_steps = 0
    for name, argv in _cli_calls(seed):
        dest = os.path.join(out_dir, name.replace("/", "-") + ".csv")

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*argv, "--out", dest])
            if code != 0:
                raise RuntimeError(f"stickylab {' '.join(argv)} exited with {code}")
            with open(dest, newline="") as fh:
                return fh.read()

        outcomes.append(_run(name, call))
        paths, steps = (argv[argv.index(flag) + 1] for flag in ("--paths", "--steps"))
        path_steps += int(paths) * int(steps)
    return outcomes, path_steps


WORKLOADS = {
    "fbm-grid": fbm_grid,
    "costs-momentum": costs_momentum,
    "passage-ramp": passage_ramp,
    "cli-sweep": cli_sweep,
}


def warm_up(workload: str, seed: int, out_dir: str) -> None:
    """A tiny pass over the workload's grid and process: fills the spectrum
    caches and lazy imports that the timed section would otherwise pay."""
    if workload == "fbm-grid":
        grid = pathgen.make_uniform_grid(1.0, FBM_STEPS)
        for hurst in (0.25, 0.5, 0.75):
            ens = pathgen.sample_ensemble(pathgen.FractionalBrownianMotion(hurst), grid, seed, 2)
            query = stickiness.StickinessQuery(
                tau=stopping.parse_rule("hit:0.1"), horizon=1.0, epsilon=0.5
            )
            stickiness.cross_check_characterizations(ens, query)
            stickiness.survival_ladder(ens, stopping.parse_rule("det:0"), 0.5, (0.5, 1.0))
    elif workload == "cli-sweep":
        for name, argv in _cli_calls(seed):
            if name.endswith("/s0") or name == "generate":
                argv = list(argv)
                argv[argv.index("--paths") + 1] = "8"
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main([*argv, "--out", os.path.join(out_dir, "warm-up.csv")])
    else:
        name = {"costs-momentum": "costs-fbm-momentum",
                "passage-ramp": "passage-counterexample"}[workload]
        config = dataclasses.replace(cli.PRESETS[name], master_seed=seed, n_paths=16)
        cli.render_csv(cli.run_experiment(config))
