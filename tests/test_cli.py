import argparse
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stickylab.cli as cli
from stickylab.cli import (
    PRESETS,
    ExperimentConfig,
    ResultTable,
    emit_csv,
    main,
    render_csv,
    run_experiment,
)
from stickylab.errors import (ConfigError, NumericalFailureError, StickyLabError,
                              TimeChangeRangeError)
from stickylab.market import CostModel, exp_price, liquidation_value, momentum_strategy
from stickylab.pathgen import (BrownianMotion, Ensemble, SeedSpec, make_uniform_grid,
                                sample_ensemble)
from stickylab.stickiness import estimate_stickiness, survival_ladder
from stickylab.transforms import PassageTimes, dds_brownianize, time_change


def small(preset: str, **overrides) -> ExperimentConfig:
    import dataclasses

    base = PRESETS[preset]
    sizes = {"n_paths": 50, "steps": 128}
    sizes.update(overrides)
    return dataclasses.replace(base, **sizes)


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "stickylab.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


# ---------------------------------------------------------------- tables and emission


def test_emit_csv_round_trips_one_row(tmp_path):
    table = ResultTable(("a", "b"), ((1, 0.5),), {"seed": 1})
    dest = tmp_path / "t.csv"
    emit_csv(table, str(dest))
    text = dest.read_text()
    assert text.startswith("# seed=1\n")
    assert "a,b" in text
    assert text.strip().endswith("1,0.5")


def test_emit_csv_header_only_for_empty_table(tmp_path):
    table = ResultTable(("x", "y"), (), {})
    dest = tmp_path / "empty.csv"
    emit_csv(table, str(dest))
    assert dest.read_text() == "x,y\n"


def test_floats_serialized_with_17_significant_digits(tmp_path):
    value = 0.1 + 0.2  # 0.30000000000000004
    table = ResultTable(("v",), ((value,),), {})
    dest = tmp_path / "f.csv"
    emit_csv(table, str(dest))
    line = dest.read_text().splitlines()[1]
    assert float(line) == value


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_written_csv_gets_the_mode_open_gives_under_the_umask(tmp_path, monkeypatch, umask):
    monkeypatch.chdir(tmp_path)
    argv = ["stickiness", "--paths", "8", "--steps", "16", "--out", "x.csv"]
    previous = os.umask(umask)
    try:
        with open("plain.csv", "w"):
            pass
        assert main(argv) == 0  # a new file
        (tmp_path / "x.csv").chmod(0o644)
        assert main(argv) == 0  # over an existing one
    finally:
        os.umask(previous)
    mode = (tmp_path / "plain.csv").stat().st_mode & 0o777
    assert mode == 0o666 & ~umask
    assert (tmp_path / "x.csv").stat().st_mode & 0o777 == mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain.csv", "x.csv"]


def test_provenance_comment_block_before_header(tmp_path):
    config = small("fbm-sticky")
    table = run_experiment(config)
    dest = tmp_path / "p.csv"
    emit_csv(table, str(dest))
    lines = dest.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    assert any("config_hash=" in ln for ln in comments)
    assert any("seed=" in ln for ln in comments)
    assert lines[len(comments)].startswith("process,")


# ---------------------------------------------------------------- run_experiment


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(experiment="nope"))


def test_unknown_process_rejected():
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(experiment="stickiness", process="weird"))


def test_stickiness_experiment_row_schema():
    table = run_experiment(small("fbm-sticky"))
    assert table.columns[:3] == ("process", "H", "tau_rule")
    row = dict(zip(table.columns, table.rows[0]))
    assert row["process"] == "fbm"
    assert row["n"] == 50
    assert row["seed"] == PRESETS["fbm-sticky"].master_seed


def test_ladder_experiment_rows():
    config = ExperimentConfig(
        experiment="ladder", process="bm", n_paths=40, steps=64,
        delta=0.8, ladder=(0.25, 0.5, 1.0),
    )
    table = run_experiment(config)
    fractions = [row[5] for row in table.rows]
    assert len(fractions) == 3
    assert fractions == sorted(fractions, reverse=True)


def test_portfolio_experiment_row():
    config = ExperimentConfig(
        experiment="portfolio", process="fbm", hurst=0.75, n_paths=30, steps=64, rate=0.01,
    )
    table = run_experiment(config)
    row = dict(zip(table.columns, table.rows[0]))
    assert row["k"] == 0.01 and row["n"] == 30


def test_generate_experiment_shape():
    config = ExperimentConfig(experiment="generate", process="bm", n_paths=3, steps=8)
    table = run_experiment(config)
    assert table.columns == ("t", "x_0", "x_1", "x_2")
    assert len(table.rows) == 9


def test_rerun_same_config_byte_identical():
    config = small("paper-nonsticky")
    assert render_csv(run_experiment(config)) == render_csv(run_experiment(config))


# ---------------------------------------------------------------- presets exist


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_every_preset_runs_small(preset):
    overrides = {}
    if preset == "passage-counterexample":
        overrides = {"n_paths": 40, "steps": 2048}  # needs a long horizon
    if preset == "dds-check":
        overrides = {"n_paths": 10, "steps": 2048}
    table = run_experiment(small(preset, **overrides))
    assert len(table.rows) >= 1


# SHA-256 of each preset's CSV at acceptance criterion 10's sizes and the
# default seed; recorded before path generation was reworked, so any change in
# output bytes shows here. They rest on numpy's Philox and pocketfft and were
# recorded on numpy 2.4.6. costs-fbm-momentum prints 17-digit means of fBm
# paths, so it was re-pinned when fBm moved from a full complex FFT to a
# half-spectrum irfft (paths within 1.5e-14); the other seven held.
PINNED_PRESET_SHA256 = {
    "abs-cuberoot": "8c554810700c9c8d89e3b5cbe9a4681d38a91324dda2c700fa2e9c59069c468b",
    "cos-drift": "15db5912144aaf33e086ffa97022606e1a9373e886ac7113ce53d260038192bf",
    "costs-fbm-momentum": "3e5656454d40283972452a149bed32fa9132c38e6296d33fa8e39e5d749a3516",
    "dds-check": "c06543dc8da4584602c1ef74be5680a2a670117348e1be8bbc0b358c6e10ab1f",
    "fbm-sticky": "308f5c0d9377db902c9653696172b3885773503f026315f409491ad1658a16d9",
    "paper-nonsticky": "0905feba66cec8eee3622a1340436cfbf904e68912740bbc216475bda4c3d508",
    "passage-counterexample": "6194a6036b6e9b2d51b43f17303e703b20e203a6a12c6ae9718631bc0e2f5f3f",
    "timechange-cap": "af13b5d1b317e38be0298b198856519ca41b3ee8e3dc4cccc9e9133a401f1c87",
}


def test_preset_csv_bytes_pinned():
    assert sorted(PINNED_PRESET_SHA256) == sorted(PRESETS)
    sizes = {
        "passage-counterexample": {"n_paths": 40, "steps": 2048},
        "dds-check": {"n_paths": 10, "steps": 2048},
    }
    got = {}
    for preset in sorted(PRESETS):
        config = small(preset, **sizes.get(preset, {"n_paths": 48, "steps": 128}))
        text = render_csv(run_experiment(config))
        got[preset] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert got == PINNED_PRESET_SHA256


# SHA-256 of subcommand CSVs at small sizes; recorded before the hitting rule,
# the characterizations and the ladder were moved onto one first-exit scan, on
# numpy 2.4.6. generate prints fBm path values and portfolio 17-digit means, so
# both were re-pinned with the half-spectrum irfft; the other three held.
PINNED_SUBCOMMANDS = {
    "generate": (
        ExperimentConfig(experiment="generate", process="fbm", hurst=0.3, n_paths=4,
                         steps=16, master_seed=9),
        "85177f316542fde128cc1854cfbc8f9828e2d5f4049fe1067654ce9b201c4b50",
    ),
    "stickiness-hit": (
        ExperimentConfig(experiment="stickiness", process="fbm", n_paths=48, steps=128,
                         tau="hit:0.1", epsilon=0.5),
        "6839af347231df8f39092c9b002828f995b58db445051679bfc38172ea35742a",
    ),
    "ladder": (
        ExperimentConfig(experiment="ladder", process="bm", n_paths=48, steps=128, delta=0.5),
        "84eae62f4a1d69638d847bc5e2ba14fd7d9215dd77acff54d5643b32ef3ff525",
    ),
    "ladder-hit": (
        ExperimentConfig(experiment="ladder", process="fbm", hurst=0.75, n_paths=48, steps=128,
                         tau="hit:0.2", delta=0.4, ladder=(0.1, 0.3, 0.7, 1.0)),
        "9fbdf40ef32e400c268f2ab2f47dc99509961943d2fd3ebaabfbe63d2fe4df62",
    ),
    "portfolio": (
        ExperimentConfig(experiment="portfolio", process="fbm", n_paths=48, steps=128,
                         rate=0.01),
        "975148da071f556b50aecc5f5f98c7ff7dfb59815a951976fe1d13ca56365247",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_SUBCOMMANDS))
def test_subcommand_csv_bytes_pinned(name):
    config, sha = PINNED_SUBCOMMANDS[name]
    text = render_csv(run_experiment(config))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == sha


# ---------------------------------------------------------------- CLI process


def test_cli_stickiness_writes_csv(tmp_path):
    dest = tmp_path / "row.csv"
    result = run_cli(
        ["stickiness", "--process", "bm", "--paths", "30", "--steps", "64",
         "--epsilon", "0.7", "--seed", "3", "--out", str(dest)]
    )
    assert result.returncode == 0, result.stderr
    assert dest.exists()
    body = dest.read_text().splitlines()
    assert body[-1].startswith("bm,")


def test_cli_exit_code_2_on_empty_config(tmp_path):
    config = tmp_path / "empty.json"
    config.write_text("{}")
    result = run_cli(["stickiness", "--config", str(config)])
    assert result.returncode == 2


def test_cli_exit_code_2_on_malformed_config(tmp_path):
    config = tmp_path / "broken.json"
    config.write_text("not json at all")
    result = run_cli(["stickiness", "--config", str(config)])
    assert result.returncode == 2


@pytest.mark.parametrize(
    "config",
    [
        {"experiment": "stickiness", "grid": {"steps": "abc"}},
        {"experiment": "stickiness", "grid": 5},
        {"paths": "many"},
        {"process": {"name": "fbm", "hurst": "x"}},
    ],
)
def test_cli_exit_code_2_on_config_type_errors(tmp_path, config):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(config))
    result = run_cli(["stickiness", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")])
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert "configuration error" in result.stderr


@pytest.mark.parametrize(
    "flags,named",
    [
        (["--raw-price"], "--raw-price"),
        (["--ladder", "1,2"], "--ladder"),
        (["--raw-price", "--ladder", "1,2"], "--raw-price"),
        (["--config", "ladder.json"], "'ladder'"),
    ],
)
def test_cli_preset_rejects_flags_it_does_not_read(tmp_path, monkeypatch, capsys, flags, named):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ladder.json").write_text(json.dumps({"experiment": {"ladder": [0.5, 1.0]}}))
    code = main(["experiment", "costs-fbm-momentum", "--paths", "4", "--steps", "8",
                 "--out", "x.csv", *flags])
    assert code == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def _csv_row(path) -> dict:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return dict(zip(lines[0].split(","), lines[-1].split(",")))


def test_timechange_cap_preset_samples_the_process_flag(tmp_path, monkeypatch):
    from stickylab.pathgen import Ensemble
    from stickylab.stickiness import StickinessQuery, estimate_stickiness
    from stickylab.stopping import Deterministic
    from stickylab.transforms import IdentityCap, time_change

    monkeypatch.chdir(tmp_path)
    assert main(["experiment", "timechange-cap", "--process", "bm", "--paths", "40",
                 "--steps", "64", "--seed", "5", "--out", "x.csv"]) == 0
    row = _csv_row(tmp_path / "x.csv")
    bm = sample_ensemble(BrownianMotion(1.0), make_uniform_grid(1.0, 64), 5, 40)
    capped = np.stack([time_change(bm.path(i), IdentityCap(0.5)).values for i in range(40)])
    expected = estimate_stickiness(
        Ensemble(bm.grid, capped, 5), StickinessQuery(Deterministic(0.0), 1.0, 0.5)
    )
    assert (row["process"], row["H"]) == ("bm-capped", "")
    assert int(row["successes"]) == expected.successes


def test_passage_preset_reads_the_window_end(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    small_run = ["experiment", "passage-counterexample", "--paths", "40", "--steps", "2048"]
    assert main([*small_run, "--big-t", "0.3", "--out", "x.csv"]) == 0
    assert float(_csv_row(tmp_path / "x.csv")["T"]) == 0.3
    # the ramp ends at level 0.5, so a later window end is refused
    assert main([*small_run, "--big-t", "0.75", "--out", "y.csv"]) == 2
    assert "query horizon 0.75 exceeds grid horizon 0.5" in capsys.readouterr().err
    assert not (tmp_path / "y.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "passage-counterexample", "--epsilon", "-1"],
        ["stickiness", "--tau", "hit:abc", "--paths", "10000", "--steps", "8192"],
        ["stickiness", "--event", "nope"],
        ["stickiness", "--big-t", "0"],
        ["ladder", "--delta", "-1"],
        ["ladder", "--ladder", "0.5,0.25"],
        ["ladder", "--ladder", "0.5,2"],
        ["portfolio", "--strategy", "buyhold"],
        ["portfolio", "--k", "1.5"],
        ["stickiness", "--big-t", "2", "--steps", "8192"],
        ["experiment", "passage-counterexample", "--big-t", "0.75"],
        ["portfolio", "--strategy", "momentum:0.1:inf"],
        ["portfolio", "--strategy", "momentum:nan:1"],
        ["portfolio", "--strategy", "momentum:0:1"],
    ],
)
def test_cli_bad_values_exit_2_before_any_ensemble_is_sampled(tmp_path, monkeypatch, capsys,
                                                              argv):
    import stickylab.cli as cli

    def sample_ensemble(*args, **kwargs):
        raise AssertionError("an ensemble was sampled before the config was checked")

    monkeypatch.setattr(cli, "sample_ensemble", sample_ensemble)
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "x.csv"]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("stage", ["run_experiment", "render_csv", "_atomic_write"])
def test_cli_out_of_memory_exits_2_with_the_run_size(tmp_path, monkeypatch, capsys, stage):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, stage, out_of_memory)
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--paths", "300", "--steps", "20", "--out", "x.csv"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "stickylab: out of memory for 300 paths of 20 steps\n"
    assert os.listdir(tmp_path) == []


def test_cli_portfolio_exits_2_when_the_price_overflows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning would raise here
        code = main(["portfolio", "--sigma", "1000", "--paths", "8", "--steps", "32",
                     "--out", "x.csv"])
    err = capsys.readouterr().err
    assert code == 2
    assert "configuration error" in err and "must be finite" in err
    assert "Traceback" not in err
    assert "RuntimeWarning" not in err
    assert not (tmp_path / "x.csv").exists()


def test_cli_portfolio_exits_2_without_a_warning_when_the_unit_overflows(tmp_path, monkeypatch,
                                                                        capsys):
    # a finite unit of 1e308 passes the config check; its ledger overflows and
    # the ledger's finiteness check refuses it, with numpy's warnings silenced
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["portfolio", "--strategy", "momentum:0.1:1e308", "--paths", "8",
                     "--steps", "16", "--out", "x.csv"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "stickylab: configuration error: cost_flow must be finite\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("flags,message", [
    (["stickiness", "--process", "cos-drift", "--horizon", "1e200"],
     "ensemble values must be finite"),
    (["experiment", "dds-check", "--sigma", "1e200"],
     "terminal quadratic variation overflows the float range"),
    (["stickiness", "--process", "bm", "--horizon", "1e300", "--sigma", "1e300"],
     "ensemble values must be finite"),
], ids=["cos-drift-clock", "dds-variation", "bm-increments"])
def test_cli_overflowing_inputs_exit_2_without_a_warning(tmp_path, monkeypatch, capsys, flags,
                                                         message):
    # the overflow is computed with numpy's warnings silenced, and refused by
    # the finiteness check that follows
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*flags, "--paths", "3", "--steps", "8", "--out", "x.csv"])
    assert code == 2
    assert capsys.readouterr().err == f"stickylab: configuration error: {message}\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv", [
    ["portfolio", "--strategy", "momentum:0.1:1e300", "--raw-price"],
    ["experiment", "costs-fbm-momentum", "--strategy", "momentum:0.1:1e308"],
])
def test_cli_market_statistics_of_huge_ledgers_stay_finite(tmp_path, monkeypatch, capsys, argv):
    # the ledgers are finite, but their sum and squares overflow; the mean and
    # standard deviation come from the scaled values instead of reading inf
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*argv, "--paths", "8", "--steps", "16", "--out", "x.csv"])
    assert code == 0 and capsys.readouterr().err == ""
    rows = (tmp_path / "x.csv").read_text().splitlines()[4:]
    columns = cli.MARKET_COLUMNS
    for row in rows:
        cells = dict(zip(columns, row.split(",")))
        stats = [float(cells[c]) for c in ("mean_VT", "std_VT", "min_VT")]
        assert all(np.isfinite(stats)) and stats[1] > 0.0


def test_pooled_shuffle_matches_the_index_permutation():
    # frozen copy of the shuffle that gathered through a permutation index
    from stickylab.cli import _SHUFFLE_SALT, _pooled_shuffle
    from stickylab.pathgen import FractionalBrownianMotion, SeedSpec

    ensemble = sample_ensemble(FractionalBrownianMotion(0.75), make_uniform_grid(1.0, 64), 9, 37)
    rng = SeedSpec((9 ^ _SHUFFLE_SALT) % 2**64, 0).generator()
    increments = np.diff(ensemble.values, axis=1)
    flat = increments.ravel()
    redealt = flat[rng.permutation(flat.size)].reshape(increments.shape)
    expected = np.concatenate((np.zeros((37, 1)), np.cumsum(redealt, axis=1)), axis=1)
    shuffled = _pooled_shuffle(ensemble, 9)
    assert np.array_equal(shuffled.values, expected)
    assert np.array_equal(np.signbit(shuffled.values), np.signbit(expected))


def test_cli_exit_code_2_on_bad_rule(tmp_path):
    result = run_cli(
        ["stickiness", "--process", "bm", "--paths", "5", "--steps", "16",
         "--tau", "bogus:1", "--out", str(tmp_path / "x.csv")]
    )
    assert result.returncode == 2


@pytest.mark.parametrize(
    "flags",
    [
        ["ladder", "--paths", "8", "--steps", "16", "--delta", "nan"],
        ["ladder", "--paths", "8", "--steps", "16", "--delta", "inf"],
        ["ladder", "--paths", "8", "--steps", "16", "--ladder", "0.25,nan"],
        # neither ensemble fits any address space, so nothing is touched
        ["stickiness", "--steps", "1024", "--paths", "10000000000000"],
        ["stickiness", "--steps", "8", "--paths", "100000000000000000000000"],
        # the streamed presets allocate their per-path output before the first block
        ["experiment", "passage-counterexample", "--paths", "10000000000000"],
        ["experiment", "timechange-cap", "--paths", "10000000000000"],
        ["experiment", "costs-fbm-momentum", "--paths", "10000000000000"],
        ["portfolio", "--paths", "10000000000000"],
        # a grid so long that no address space holds one block's market buffers
        ["portfolio", "--steps", "100000000000"],
        ["experiment", "costs-fbm-momentum", "--paths", "64", "--steps", "100000000000"],
        # a grid whose times alone take 745 GiB
        ["stickiness", "--paths", "1", "--steps", "100000000000"],
        ["generate", "--paths", "1", "--steps", "100000000000"],
        ["ladder", "--paths", "1", "--steps", "100000000000"],
        ["experiment", "dds-check", "--paths", "1", "--steps", "100000000000"],
    ],
)
def test_cli_exit_code_2_on_non_finite_ladder_or_huge_ensemble(tmp_path, monkeypatch, capsys, flags):
    monkeypatch.chdir(tmp_path)
    code = main([*flags, "--out", "x.csv"])
    err = capsys.readouterr().err
    assert code == 2
    assert "configuration error" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


def test_cli_exit_code_3_on_numerical_failure(monkeypatch, tmp_path):
    import stickylab.cli as cli
    from stickylab.errors import NumericalFailureError

    def boom(config):
        raise NumericalFailureError("synthetic failure")

    monkeypatch.setattr(cli, "run_experiment", boom)
    code = main(["stickiness", "--process", "bm", "--paths", "5", "--steps", "16",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 3


def test_cli_exit_code_4_on_unwritable_destination(tmp_path):
    result = run_cli(
        ["stickiness", "--process", "bm", "--paths", "5", "--steps", "16",
         "--out", str(tmp_path / "missing_dir" / "x.csv")]
    )
    assert result.returncode == 4


def test_cli_a_failed_write_leaves_neither_the_destination_nor_its_temporary(
    tmp_path, monkeypatch, capsys
):
    # the temporary file exists when the rename fails, so the cleanup must remove it
    def refuse(src, dst):
        raise OSError("synthetic rename failure")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(os, "replace", refuse)
    assert main(["stickiness", "--process", "bm", "--paths", "5", "--steps", "16",
                 "--out", "x.csv"]) == 4
    assert "cannot write x.csv" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_config_file_with_flag_override(tmp_path):
    config = {
        "experiment": {"kind": "stickiness", "epsilon": 0.5, "tau": "det:0"},
        "process": {"name": "bm", "sigma": 1.0},
        "grid": {"horizon": 1.0, "steps": 64},
        "seed": 12,
        "paths": 25,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    dest = tmp_path / "out.csv"
    result = run_cli(["stickiness", "--config", str(cfg_path), "--paths", "10", "--out", str(dest)])
    assert result.returncode == 0, result.stderr
    row = dest.read_text().splitlines()[-1].split(",")
    assert row[6] == "10"  # flag overrides the file's path count


def _main_with_config(tmp_path, argv, config):
    (tmp_path / "c.json").write_text(json.dumps(config))
    return main([*argv, "--config", "c.json", "--paths", "4", "--steps", "8", "--out", "x.csv"])


def test_cli_config_process_object_without_a_name_keeps_the_preset_process(tmp_path,
                                                                           monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = {"process": {"hurst": 0.6}}
    assert _main_with_config(tmp_path, ["experiment", "fbm-sticky"], config) == 0
    row = _csv_row(tmp_path / "x.csv")
    assert (row["process"], float(row["H"])) == ("fbm", 0.6)


@pytest.mark.parametrize(
    "argv,config,named",
    [
        (["stickiness"], {"sead": 5, "grid": {"steps": 10}}, "unknown key 'sead'"),
        (["stickiness"], {"grid": {"step": 10}}, "unknown key 'grid.step'"),
        (["experiment", "fbm-sticky"], {"experiment": "ladder"}, "'ladder', not 'fbm-sticky'"),
        (["stickiness"], {"experiment": {"kind": "ladder"}}, "'ladder', not 'stickiness'"),
    ],
)
def test_cli_config_refuses_unknown_keys_and_another_experiments_kind(
    tmp_path, monkeypatch, capsys, argv, config, named
):
    monkeypatch.chdir(tmp_path)
    assert _main_with_config(tmp_path, argv, config) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and named in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "config,named",
    [
        ({"grid": {"steps": 32.9}}, "'grid.steps' must be an integer"),
        ({"paths": True}, "'paths' must be an integer"),
        ({"seed": 2.7}, "'seed' must be an integer"),
        ({"process": {"name": "fbm", "hurst": "0.75"}}, "'process.hurst' must be a number"),
        ({"grid": {"horizon": True}}, "'grid.horizon' must be a number"),
        ({"output": 5}, "'output' must be a string"),
        ({"experiment": {"ladder": [0.5, True]}}, "'experiment.ladder' must be a list of numbers"),
    ],
)
def test_cli_config_values_must_have_the_settings_json_type(tmp_path, monkeypatch, capsys,
                                                            config, named):
    monkeypatch.chdir(tmp_path)
    assert _main_with_config(tmp_path, ["ladder"], config) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and named in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv,config", [(["--out", ""], None), ([], {"output": ""})],
                         ids=["flag", "config-key"])
def test_cli_refuses_an_empty_output_path(tmp_path, monkeypatch, capsys, argv, config):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "c.json").write_text(json.dumps(config))
        argv = [*argv, "--config", "c.json"]
    assert main(["generate", "--paths", "2", "--steps", "4", *argv]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "output path" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if config is None else ["c.json"])


def test_cli_malformed_ladder_flag_exits_2_without_a_traceback(tmp_path):
    result = run_cli(["ladder", "--ladder", "0.5,x", "--out", str(tmp_path / "x.csv")])
    assert result.returncode == 2
    assert "--ladder" in result.stderr and "Traceback" not in result.stderr
    assert not (tmp_path / "x.csv").exists()


# every subparser's options and help texts before the flags moved into one table
FROZEN_OPTIONS = [
    "--big-t", "--config", "--delta", "--epsilon", "--event", "--horizon", "--hurst", "--k",
    "--ladder", "--out", "--paths", "--process", "--raw-price", "--seed", "--sigma", "--steps",
    "--strategy", "--tau",
]
FROZEN_HELP = {
    "--big-t": "stickiness window end T (defaults to the grid horizon)",
    "--ladder": "comma-separated survival horizons",
    "--raw-price": "trade the raw signal instead of its exponential",
    "--config": "JSON config file; flags override its values",
}


def test_every_subcommand_takes_the_same_flags():
    from stickylab.cli import _parser

    (sub,) = [a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(sub.choices) == ["experiment", "generate", "ladder", "portfolio", "stickiness"]
    for command in sub.choices.values():
        flags = [a for a in command._actions if a.option_strings not in ([], ["-h", "--help"])]
        assert sorted(o for a in flags for o in a.option_strings) == FROZEN_OPTIONS
        assert {a.option_strings[0]: a.help for a in flags if a.help} == FROZEN_HELP


def test_readme_config_example_and_key_table_match_the_settings(tmp_path, monkeypatch):
    from stickylab.cli import _JSON_TYPES, _SETTINGS, _parser, _resolve_config

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (example,) = re.findall(r"```json\n(.*?)```", readme, re.S)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(example)
    assert _resolve_config(_parser().parse_args(["stickiness", "--config", "c.json"])) == (
        ExperimentConfig(experiment="stickiness", epsilon=0.5, tau="det:0", query_horizon=1.0,
                         process="fbm", hurst=0.75, horizon=1.0, steps=1024, master_seed=7,
                         n_paths=10000, output="out.csv")
    )
    assert main(["stickiness", "--config", "c.json", "--paths", "8", "--steps", "16",
                 "--out", "x.csv"]) == 0
    row = _csv_row(tmp_path / "x.csv")
    assert (row["process"], row["H"], row["seed"], row["n"]) == ("fbm", "0.75", "7", "8")
    table = re.findall(r"^\| `([\w.]+)` \| (?:`(--[\w-]+)`|—) \| ([\w ]+) \|$", readme, re.M)
    expected = [(".".join(filter(None, (s.section, s.key))), s.flag or "",
                 _JSON_TYPES[s.kind].partition(" ")[2]) for s in _SETTINGS if s.key is not None]
    assert sorted(table) == sorted(expected)


def test_readme_example_commands_run(tmp_path, monkeypatch):
    # every command of the README's examples block, shrunk: argparse keeps the last value
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"Examples:\n\n```sh\n(.*?)```", readme, re.S)
    commands = [line for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("stickylab ")]
    assert len(commands) == 4
    for i, command in enumerate(commands):
        run_dir = tmp_path / str(i)
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        argv = command.split()[1:] + ["--paths", "8", "--steps", "16", "--out", "x.csv"]
        assert main(argv) == 0, command
        assert [p.name for p in run_dir.iterdir()] == ["x.csv"], command


# ---------------------------------------------------------------- settings each run reads
# Frozen here, not imported from cli. Every run reads its process, grid, seed,
# paths and output; each experiment (default process, settings it reads besides
# those) and each process (settings its spec reads) adds its own. Any other
# setting, by flag or by config-file key, exits 2.

ALWAYS_READ = {"process", "horizon", "steps", "master_seed", "n_paths", "output"}
QUERY_READS = {"epsilon", "query_horizon", "tau", "event"}
EXPERIMENT_READS = {
    "generate": ("bm", set()),
    "stickiness": ("bm", QUERY_READS),
    "ladder": ("bm", {"tau", "delta", "ladder"}),
    "portfolio": ("bm", {"rate", "strategy", "raw_price"}),
    "paper-nonsticky": ("nonsticky-martingale", QUERY_READS),
    "fbm-sticky": ("fbm", QUERY_READS),
    "timechange-cap": ("fbm", QUERY_READS),
    "passage-counterexample": ("bm", QUERY_READS),
    "dds-check": ("bm", {"sigma"}),  # its row prints sigma whatever the process
    "cos-drift": ("cos-drift", QUERY_READS),
    "abs-cuberoot": ("abs-cuberoot", QUERY_READS),
    "costs-fbm-momentum": ("fbm", {"rate", "strategy"}),
}
PROCESS_READS = {"bm": {"sigma"}, "fbm": {"hurst"}, "nonsticky-martingale": set(),
                 "abs-cuberoot": {"sigma"}, "cos-drift": set()}

# flag -> its config field, its argument (None: a bare flag) and the value it sets
FLAG_SETTINGS = {
    "--process": ("process", "bm", "bm"),
    "--hurst": ("hurst", "0.6", 0.6),
    "--sigma": ("sigma", "1.5", 1.5),
    "--horizon": ("horizon", "2", 2.0),
    "--steps": ("steps", "8", 8),
    "--epsilon": ("epsilon", "0.4", 0.4),
    "--big-t": ("query_horizon", "0.5", 0.5),
    "--tau": ("tau", "det:0.25", "det:0.25"),
    "--event": ("event", "before:0.5", "before:0.5"),
    "--k": ("rate", "0.02", 0.02),
    "--strategy": ("strategy", "momentum:0.2:1", "momentum:0.2:1"),
    "--delta": ("delta", "0.3", 0.3),
    "--ladder": ("ladder", "0.5,1", (0.5, 1.0)),
    "--seed": ("master_seed", "3", 3),
    "--paths": ("n_paths", "4", 4),
    "--out": ("output", "o.csv", "o.csv"),
    "--raw-price": ("raw_price", None, True),
}
# config-file key -> its field and the JSON value it sets
CONFIG_SETTINGS = {
    "process.name": ("process", "bm"),
    "process.hurst": ("hurst", 0.6),
    "process.sigma": ("sigma", 1.5),
    "grid.horizon": ("horizon", 2.0),
    "grid.steps": ("steps", 8),
    "experiment.epsilon": ("epsilon", 0.4),
    "experiment.T": ("query_horizon", 0.5),
    "experiment.tau": ("tau", "det:0.25"),
    "experiment.event": ("event", "before:0.5"),
    "experiment.rate": ("rate", 0.02),
    "experiment.strategy": ("strategy", "momentum:0.2:1"),
    "experiment.delta": ("delta", 0.3),
    "experiment.ladder": ("ladder", [0.5, 1.0]),
    "seed": ("master_seed", 3),
    "paths": ("n_paths", 4),
    "output": ("output", "o.csv"),
}


def _reads(experiment: str, process: str | None = None) -> set:
    default, reads = EXPERIMENT_READS[experiment]
    return ALWAYS_READ | reads | PROCESS_READS[process or default]


def _command(experiment: str) -> list:
    return ["experiment", experiment] if experiment in PRESETS else [experiment]


def _base(experiment: str) -> ExperimentConfig:
    return PRESETS.get(experiment, ExperimentConfig(experiment=experiment))


def _config_file(key: str, value) -> dict:
    section, _, name = key.rpartition(".")
    return {section: {name: value}} if section else {name: value}


def _assert_refused(tmp_path, monkeypatch, capsys, argv, named):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "x.csv"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "does not read" in err and named in err
    assert not (tmp_path / "x.csv").exists()


def _resolved(tmp_path, monkeypatch, argv) -> ExperimentConfig:
    monkeypatch.chdir(tmp_path)
    return cli._resolve_config(cli._parser().parse_args(argv))


def test_the_frozen_reads_cover_every_experiment_flag_and_config_key():
    assert sorted(EXPERIMENT_READS) == sorted(cli._RUNNERS)
    assert sorted(PROCESS_READS) == sorted(cli._PROCESSES)
    assert sorted(FLAG_SETTINGS) == [f for f in FROZEN_OPTIONS if f != "--config"]
    settings = {".".join(filter(None, (s.section, s.key))): s.field for s in cli._SETTINGS
                if s.key is not None and s.field != "experiment"}
    assert {key: field for key, (field, _) in CONFIG_SETTINGS.items()} == settings


@pytest.mark.parametrize("flag", sorted(FLAG_SETTINGS))
@pytest.mark.parametrize("experiment", sorted(EXPERIMENT_READS))
def test_each_experiment_accepts_only_the_flags_it_reads(tmp_path, monkeypatch, capsys,
                                                         experiment, flag):
    field, arg, value = FLAG_SETTINGS[flag]
    argv = [*_command(experiment), flag, *([] if arg is None else [arg])]
    if field in _reads(experiment):
        config = _resolved(tmp_path, monkeypatch, argv)
        assert config == dataclasses.replace(_base(experiment), **{field: value})
    else:
        _assert_refused(tmp_path, monkeypatch, capsys, argv, flag)


@pytest.mark.parametrize("key", sorted(CONFIG_SETTINGS))
@pytest.mark.parametrize("experiment", sorted(EXPERIMENT_READS))
def test_each_experiment_accepts_only_the_config_keys_it_reads(tmp_path, monkeypatch, capsys,
                                                               experiment, key):
    field, value = CONFIG_SETTINGS[key]
    (tmp_path / "c.json").write_text(json.dumps(_config_file(key, value)))
    argv = [*_command(experiment), "--config", "c.json"]
    if field in _reads(experiment):
        config = _resolved(tmp_path, monkeypatch, argv)
        want = tuple(value) if field == "ladder" else value
        assert config == dataclasses.replace(_base(experiment), **{field: want})
    else:
        named = f"the config field '{key.rpartition('.')[2]}'"
        _assert_refused(tmp_path, monkeypatch, capsys, argv, named)


@pytest.mark.parametrize("experiment", sorted(EXPERIMENT_READS))
def test_each_experiment_refuses_a_path_count_below_one(tmp_path, monkeypatch, capsys, experiment):
    # refused where the config is built, by flag or config key, before any run starts
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps({"paths": 0}))
    for setting in (["--paths", "0"], ["--paths", "-1"], ["--config", "c.json"]):
        assert main([*_command(experiment), *setting, "--out", "x.csv"]) == 2
        assert "n_paths must be at least 1" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("flag", ["--hurst", "--sigma"])
@pytest.mark.parametrize("process", sorted(PROCESS_READS))
@pytest.mark.parametrize("experiment", sorted(EXPERIMENT_READS))
def test_hurst_and_sigma_are_read_only_where_the_process_or_run_reads_them(
    tmp_path, monkeypatch, capsys, experiment, process, flag
):
    field, arg, value = FLAG_SETTINGS[flag]
    by_flag = [*_command(experiment), "--process", process, flag, arg]
    (tmp_path / "c.json").write_text(json.dumps({"process": {"name": process, field: value}}))
    by_key = [*_command(experiment), "--config", "c.json"]
    for argv, named in ((by_flag, flag), (by_key, f"the config field '{field}'")):
        if field in _reads(experiment, process):
            config = _resolved(tmp_path, monkeypatch, argv)
            assert (config.process, getattr(config, field)) == (process, value)
        else:
            _assert_refused(tmp_path, monkeypatch, capsys, argv, named)


def _readme_table(readme: str, header: str) -> dict:
    """A two-column README table under ``header``: row names -> backquoted flags."""
    body = readme.split(f"| {header} | reads |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in body.splitlines():
        names, reads = line.strip("|").split(" | ")
        for name in re.findall(r"`(?:experiment )?([\w-]+)`", names) or [names.strip()]:
            rows[name] = re.findall(r"`(--[\w-]+)`", reads)
    return rows


def test_readme_reads_tables_match_the_parser_and_the_frozen_reads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (sub,) = [a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)]
    fields = {a.option_strings[0]: a.dest for a in sub.choices["stickiness"]._actions
              if a.option_strings and a.dest not in ("help", "config")}
    runs = _readme_table(readme, "run")
    always = runs.pop("every run")
    assert {fields[f] for f in always} == ALWAYS_READ
    assert {name: {fields[f] for f in flags} for name, flags in runs.items()} == {
        name: reads for name, (_, reads) in EXPERIMENT_READS.items()}
    processes = _readme_table(readme, "process")
    assert {name: {fields[f] for f in flags} for name, flags in processes.items()} == (
        PROCESS_READS)
    named = {f for flags in (always, *runs.values(), *processes.values()) for f in flags}
    assert named == set(fields)  # every flag the parser takes is read by some run


def test_cli_preset_bytes_equal_across_interpreter_runs(tmp_path):
    texts = []
    for run in range(3):
        dest = tmp_path / f"run{run}.csv"
        result = run_cli(
            ["experiment", "fbm-sticky", "--paths", "64", "--steps", "64", "--out", str(dest)]
        )
        assert result.returncode == 0, result.stderr
        texts.append(dest.read_bytes())
    assert texts[0] == texts[1] == texts[2]


def test_cli_portfolio_raw_price(tmp_path):
    dest = tmp_path / "raw.csv"
    result = run_cli(
        ["portfolio", "--process", "fbm", "--hurst", "0.75", "--paths", "20",
         "--steps", "64", "--k", "0", "--raw-price", "--out", str(dest)]
    )
    assert result.returncode == 0, result.stderr
    assert dest.exists()


def test_stickiness_csv_carries_verdict_convention(tmp_path):
    dest = tmp_path / "v.csv"
    result = run_cli(
        ["stickiness", "--process", "bm", "--paths", "10", "--steps", "16",
         "--out", str(dest)]
    )
    assert result.returncode == 0, result.stderr
    assert "# verdict_convention=" in dest.read_text()


def test_cli_generate_round_trip(tmp_path):
    # 17 significant digits bring every double back bit for bit
    dest = tmp_path / "paths.csv"
    result = run_cli(
        ["generate", "--process", "bm", "--paths", "4", "--steps", "16",
         "--seed", "9", "--out", str(dest)]
    )
    assert result.returncode == 0, result.stderr
    lines = [ln for ln in dest.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == "t,x_0,x_1,x_2,x_3"
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    ens = sample_ensemble(BrownianMotion(1.0), make_uniform_grid(1.0, 16), 9, 4)
    assert np.array_equal(data[:, 0], ens.grid.times)
    assert np.array_equal(data[:, 1:], ens.values.T)


# ---------------------------------------------------------------- fBm dense fallback


def test_cli_fbm_near_one_runs_on_the_dense_fallback(tmp_path, monkeypatch, capsys):
    # the circulant embedding turns indefinite by roundoff here, so only the
    # dense Cholesky fallback can sample this fBm
    from stickylab.pathgen import _fgn_sqrt_spectrum

    assert _fgn_sqrt_spectrum(512, 1 / 512, 0.9999999999) is None
    monkeypatch.chdir(tmp_path)
    code = main(["stickiness", "--process", "fbm", "--hurst", "0.9999999999",
                 "--steps", "512", "--paths", "4", "--out", "x.csv"])
    assert code == 0, capsys.readouterr().err
    assert (tmp_path / "x.csv").read_text().splitlines()[-1].startswith("fbm,")


def test_cli_exit_code_2_when_the_dense_fbm_factor_cannot_be_allocated(
    tmp_path, monkeypatch, capsys
):
    # 2**22 steps need a 2**47-byte covariance, beyond any 47-bit address
    # space, so nothing is touched
    import stickylab.pathgen as pg

    monkeypatch.setattr(pg, "_fgn_sqrt_spectrum", lambda n, dt, h: None)
    monkeypatch.chdir(tmp_path)
    code = main(["stickiness", "--process", "fbm", "--steps", str(2**22), "--paths", "1",
                 "--out", "x.csv"])
    err = capsys.readouterr().err
    assert code == 2
    assert "configuration error" in err and "4194304 x 4194304" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


# ---------------------------------------------------------------- streamed presets
# The three per-path presets as they were before they were streamed over row
# blocks: each sampled its whole ensemble first, then reduced it path by path.


def _frozen_whole_ensemble(config):
    grid = make_uniform_grid(config.horizon, config.steps)
    return sample_ensemble(cli._PROCESSES[config.process](config), grid, config.master_seed,
                           config.n_paths)


def _frozen_stickiness_table(config, ensemble, process, **extra):
    query = cli._stickiness_query(config, ensemble.grid.horizon)
    return cli._stickiness_row(config, estimate_stickiness(ensemble, query), process, **extra)


def _frozen_passage_counterexample(config):
    nu = PassageTimes(np.linspace(0.0, 0.5, 11))
    base = _frozen_whole_ensemble(config)
    rows = []
    excluded = 0
    for i in range(base.n_paths):
        try:
            rows.append(time_change(base.path(i), nu).values)
        except TimeChangeRangeError:
            excluded += 1
    if not rows:
        raise NumericalFailureError("no path attained the full level schedule")
    ramp = Ensemble(nu.grid, np.stack(rows), config.master_seed, "passage-ramp")
    return _frozen_stickiness_table(
        config, ramp, "passage-ramp", requested_paths=config.n_paths, excluded_paths=excluded
    )


def _frozen_timechange_cap(config):
    base = _frozen_whole_ensemble(config)
    t = np.minimum(base.grid.times, 0.5)  # each path read at min(t, 0.5) by np.interp
    values = np.stack([np.interp(t, base.grid.times, row) for row in base.values])
    label = f"{config.process}-capped"
    capped = Ensemble(base.grid, values, config.master_seed, label)
    return _frozen_stickiness_table(config, capped, label)


def _frozen_dds_check(config):
    qv_steps = 256
    ensemble = _frozen_whole_ensemble(config)
    ratios = np.empty(ensemble.n_paths)
    unit_qv = np.empty(ensemble.n_paths)
    dus = np.empty(ensemble.n_paths)
    for i in range(ensemble.n_paths):
        out = dds_brownianize(ensemble.path(i), qv_steps)
        du = out.grid.times[1] - out.grid.times[0]
        increments = np.diff(out.values)
        ratios[i] = increments.var() / du
        k = out.grid.last_index_at_or_before(1.0)
        unit_qv[i] = float(np.sum(np.diff(out.values[: k + 1]) ** 2))
        dus[i] = du
    row = (
        config.process, config.sigma, ensemble.n_paths, qv_steps, float(dus.mean()),
        float(ratios.mean()), float(unit_qv.mean()), config.master_seed, config.steps,
    )
    return ResultTable(cli.DDS_COLUMNS, (row,), cli._provenance(config))


# The market runs as they were before they were streamed: the whole ensemble
# (and for the costs preset its whole shuffled control) first, then 64-row
# blocks of it, each price, strategy and ledger in new arrays.


def _frozen_momentum_terminals(ensemble, threshold, unit, rates, exp):
    terminal = np.empty((len(rates), ensemble.n_paths))
    for start in range(0, ensemble.n_paths, 64):
        rows = slice(start, start + 64)
        block = Ensemble(ensemble.grid, ensemble.values[rows], ensemble.master_seed)
        price = exp_price(block) if exp else block
        strategy = momentum_strategy(price, threshold, unit)
        for k, rate in enumerate(rates):
            terminal[k, rows] = liquidation_value(strategy, price, CostModel(rate)).terminal
    return terminal


def _frozen_portfolio(config):
    threshold, unit = cli._parse_strategy(config.strategy)
    (terminal,) = _frozen_momentum_terminals(_frozen_whole_ensemble(config), threshold, unit,
                                             (config.rate,), exp=not config.raw_price)
    row = cli._market_row(config.strategy, config.rate, terminal, config.master_seed)
    return ResultTable(cli.MARKET_COLUMNS, (row,), cli._provenance(config))


def _frozen_costs_momentum(config):
    threshold, unit = cli._parse_strategy(config.strategy)
    ensemble = _frozen_whole_ensemble(config)
    v_free, v_cost = _frozen_momentum_terminals(ensemble, threshold, unit, (0.0, config.rate),
                                                exp=True)
    (v_raw,) = _frozen_momentum_terminals(ensemble, threshold, unit, (0.0,), exp=False)
    rng = SeedSpec((config.master_seed ^ cli._SHUFFLE_SALT) % 2**64, 0).generator()
    increments = np.diff(ensemble.values, axis=1)
    rng.shuffle(increments.ravel())
    values = np.zeros(ensemble.values.shape)
    np.cumsum(increments, axis=1, out=values[:, 1:])
    control = Ensemble(ensemble.grid, values, config.master_seed, "shuffled-control")
    (v_control,) = _frozen_momentum_terminals(control, threshold, unit, (0.0,), exp=False)
    rows = tuple(
        cli._market_row(name, rate, terminal, config.master_seed)
        for name, rate, terminal in (
            ("momentum", 0.0, v_free),
            ("momentum", config.rate, v_cost),
            ("momentum-raw", 0.0, v_raw),
            ("momentum-raw-shuffled", 0.0, v_control),
        )
    )
    return ResultTable(cli.MARKET_COLUMNS, rows, cli._provenance(config))


# preset -> (its frozen whole-ensemble runner, steps per path)
_FROZEN_PRESETS = {
    "passage-counterexample": (_frozen_passage_counterexample, 2048),
    "timechange-cap": (_frozen_timechange_cap, 128),
    "dds-check": (_frozen_dds_check, 512),
    "costs-fbm-momentum": (_frozen_costs_momentum, 128),
}


def _csv_or_error(run, config):
    try:
        return render_csv(run(config))
    except StickyLabError as exc:
        return type(exc).__name__, str(exc)


def _assert_streamed_matches(monkeypatch, frozen, config):
    expected = _csv_or_error(frozen, config)
    drawn = []

    def spy(spec, grid, master_seed, n, *args, **kwargs):
        drawn.append(n)
        return sample_ensemble(spec, grid, master_seed, n, *args, **kwargs)

    monkeypatch.setattr(cli, "sample_ensemble", spy)
    assert _csv_or_error(run_experiment, config) == expected
    # drawn in blocks of at most 64 rows that together cover every path once
    assert max(drawn) <= 64 and sum(drawn) == config.n_paths


@pytest.mark.parametrize("n_paths", [1, 63, 64, 65, 200])
@pytest.mark.parametrize("preset", sorted(_FROZEN_PRESETS))
def test_streamed_presets_match_the_whole_ensemble_code(monkeypatch, preset, n_paths):
    frozen, steps = _FROZEN_PRESETS[preset]
    config = small(preset, n_paths=n_paths, steps=steps, master_seed=11)
    _assert_streamed_matches(monkeypatch, frozen, config)


# 64 steps lie within one head; at 2048 the Brownian rows short of level 0.5
# continue over several rounds. Horizon 0.5 excludes about half the paths, and
# its one bm path at seed 11 passes no full schedule (NumericalFailureError).
@pytest.mark.parametrize("n_paths", [1, 130])
@pytest.mark.parametrize("horizon", [32.0, 0.5])
@pytest.mark.parametrize("steps", [64, 2048])
@pytest.mark.parametrize("process", ["bm", "fbm", "abs-cuberoot"])
def test_streamed_passage_preset_matches_the_whole_ensemble_code(monkeypatch, process, steps,
                                                                 horizon, n_paths):
    config = small("passage-counterexample", n_paths=n_paths, steps=steps, process=process,
                   horizon=horizon, master_seed=11)
    _assert_streamed_matches(monkeypatch, _frozen_passage_counterexample, config)


def test_passage_preset_draws_each_path_only_until_it_passes_the_top_level(monkeypatch):
    import stickylab.pathgen as pg

    config = small("passage-counterexample", n_paths=2000, steps=8192)
    drawn = []

    def spy(master_seed, indices, out, states=None):
        drawn.append(out.size)
        return normals(master_seed, indices, out, states)

    normals = pg._normals
    monkeypatch.setattr(pg, "_normals", spy)
    table = run_experiment(config)
    assert table.provenance["excluded_paths"] > 0  # some rows ran the whole grid
    assert sum(drawn) <= 0.25 * config.n_paths * config.steps


@pytest.mark.parametrize("raw_price", [False, True])
@pytest.mark.parametrize("n_paths", [1, 63, 64, 65, 200])
def test_streamed_portfolio_matches_the_whole_ensemble_code(monkeypatch, n_paths, raw_price):
    config = ExperimentConfig(experiment="portfolio", process="fbm", n_paths=n_paths, steps=128,
                              rate=0.01, raw_price=raw_price, master_seed=11)
    _assert_streamed_matches(monkeypatch, _frozen_portfolio, config)


def _frozen_stickiness(config):
    return _frozen_stickiness_table(config, _frozen_whole_ensemble(config), config.process)


def _frozen_ladder(config):
    ensemble = _frozen_whole_ensemble(config)
    horizons = config.ladder or (config.horizon / 4.0, config.horizon / 2.0, config.horizon)
    fractions = survival_ladder(ensemble, cli.parse_rule(config.tau), config.delta, horizons)
    rows = tuple(
        (config.process, cli._hurst_cell(config), config.tau, config.delta, h, f,
         ensemble.n_paths, config.master_seed, config.steps)
        for h, f in zip(horizons, fractions)
    )
    return ResultTable(cli.LADDER_COLUMNS, rows, cli._provenance(config))


@pytest.mark.parametrize("n_paths", [1, 63, 64, 65, 200])
@pytest.mark.parametrize("experiment, frozen, fields", [
    ("stickiness", _frozen_stickiness, {"tau": "hit:0.1", "epsilon": 0.5}),
    ("ladder", _frozen_ladder, {"tau": "hit:0.2", "delta": 0.4, "ladder": (0.1, 0.3, 1.0)}),
], ids=["stickiness", "ladder"])
def test_streamed_subcommands_match_the_whole_ensemble_code(monkeypatch, experiment, frozen,
                                                            fields, n_paths):
    config = ExperimentConfig(experiment=experiment, process="fbm", n_paths=n_paths, steps=128,
                              master_seed=11, **fields)
    _assert_streamed_matches(monkeypatch, frozen, config)


@pytest.mark.parametrize("command", ["stickiness", "ladder", "experiment timechange-cap"],
                         ids=["stickiness", "ladder", "timechange-cap"])
def test_stickiness_and_ladder_never_hold_their_ensemble(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    ensemble_bytes = 20_000 * 1025 * 8  # 164 MB
    tracemalloc.start()
    try:
        code = main([*command.split(), "--paths", "20000", "--steps", "1024", "--out", "x.csv"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < ensemble_bytes / 10


def test_costs_preset_holds_only_its_increments():
    config = small("costs-fbm-momentum", n_paths=2000, steps=1024)
    increments_bytes = 2000 * 1024 * 8  # what the pooled shuffle needs; 16.4 MB
    tracemalloc.start()
    try:
        table = run_experiment(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [row[2] for row in table.rows] == [2000] * 4
    # held whole, the ensemble, its increments and the control took about 3x
    assert peak < 1.5 * increments_bytes


def test_passage_preset_never_holds_its_base_ensemble():
    config = small("passage-counterexample", n_paths=2000, steps=2048)
    base_bytes = 2000 * 2049 * 8  # the 32.8 MB ensemble it used to sample first
    tracemalloc.start()
    try:
        table = run_experiment(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.provenance["requested_paths"] == 2000
    assert peak < base_bytes / 4


# ---------------------------------------------------------------- config fuzzing

_ODD_FLOATS = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0, -1.0, 1e-300, 1e300]),
    st.floats(min_value=-2.0, max_value=2.0),
)
_RULES = st.sampled_from([
    "det:0", "det:0.5", "det:2", "det:nan", "hit:0.1", "hit:nan", "hit:inf", "hit:-1",
    "hit:0.2@det:nan", "hit:0.1@pass:0.3", "pass:0.2", "pass:inf", "pass:nan",
    "absexceed:0.5", "absexceed:nan", "bogus:1", "det",
])
_EVENTS = st.sampled_from([
    "all", "before:0.5", "before:nan", "before:-inf", "stoprange:-1:1", "stoprange:nan:1",
    "stoprange:1:-1", "stoprange:-inf:inf", "all&before:inf", "stoprange:0", "nope",
])
_STRATEGIES = st.sampled_from([
    "momentum:0.1:1", "momentum:nan:1", "momentum:0.1:inf", "momentum:inf:1",
    "momentum:-1:1", "momentum:x:1", "buyhold", "momentum:0.1",
])
_PROCESSES = st.sampled_from(["bm", "fbm", "nonsticky-martingale", "abs-cuberoot", "cos-drift"])
_JSON_VALUES = st.one_of(_ODD_FLOATS, st.integers(-3, 40), st.text(max_size=3), st.booleans(),
                         st.none(), st.lists(st.floats(allow_nan=True), max_size=3))


def _optional(keys):
    return st.fixed_dictionaries({}, optional=keys)


_CONFIGS = _optional({
    "process": st.one_of(_PROCESSES, _optional(
        {"name": st.one_of(_PROCESSES, _JSON_VALUES), "hurst": _JSON_VALUES,
         "sigma": _JSON_VALUES})),
    "grid": _optional({"horizon": st.one_of(_ODD_FLOATS, _JSON_VALUES),
                       "steps": st.one_of(st.integers(-1, 32), _JSON_VALUES)}),
    "experiment": st.one_of(st.just("stickiness"), _optional({
        "kind": st.sampled_from(["stickiness", "ladder"]),
        "epsilon": _JSON_VALUES, "rate": _JSON_VALUES, "delta": _JSON_VALUES,
        "tau": st.one_of(_RULES, _JSON_VALUES), "event": _EVENTS, "strategy": _STRATEGIES,
        "T": _JSON_VALUES, "ladder": st.one_of(st.lists(_ODD_FLOATS, max_size=4),
                                               _JSON_VALUES)})),
    "seed": st.one_of(st.integers(-1, 2**64), _JSON_VALUES),
    "paths": _JSON_VALUES,
})

_FLAGS = _optional({
    "--hurst": _ODD_FLOATS, "--sigma": _ODD_FLOATS, "--epsilon": _ODD_FLOATS,
    "--horizon": _ODD_FLOATS, "--big-t": _ODD_FLOATS, "--k": _ODD_FLOATS,
    "--delta": _ODD_FLOATS, "--seed": st.integers(-1, 2**64), "--tau": _RULES,
    "--event": _EVENTS, "--strategy": _STRATEGIES, "--process": _PROCESSES,
    "--ladder": st.lists(_ODD_FLOATS, min_size=1, max_size=4).map(
        lambda hs: ",".join(repr(h) for h in hs)),
    "--raw-price": st.just(None),
})


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(["generate", "stickiness", "ladder", "portfolio", "experiment"]),
    preset=st.sampled_from(sorted(PRESETS)),
    config=st.one_of(st.none(), _CONFIGS),
    flags=_FLAGS,
    paths=st.integers(-1, 8),
    steps=st.integers(-1, 32),
)
def test_cli_fuzzed_configs_and_flags_exit_cleanly(tmp_path, command, preset, config, flags,
                                                   paths, steps):
    # every input, however odd, ends in an exit code; small sizes keep it quick
    argv = [command, preset] if command == "experiment" else [command]
    argv += [f"--paths={paths}", f"--steps={steps}", f"--out={tmp_path / 'out.csv'}"]
    for flag, value in flags.items():
        argv.append(flag if value is None else f"{flag}={value}")
    if config is not None:
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        argv.append(f"--config={cfg_path}")
    assert main(argv) in (0, 2, 3, 4)


# ---------------------------------------------------------------- frozen config resolver
# The flag parser, config-file reader and resolver as they were before the
# settings moved into one table, trimmed to the input the old reader read
# correctly (documented keys, values of the right JSON type, a named process,
# a kind naming the experiment run): every such input that sets only settings
# its run reads must resolve to the same configuration, or fail with the same
# error type; one that sets a setting its run does not read (ALWAYS_READ,
# EXPERIMENT_READS and PROCESS_READS above) must fail with ConfigError.


def _frozen_parser():
    parser = argparse.ArgumentParser(prog="stickylab")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = [sub.add_parser(name) for name in ("generate", "stickiness", "ladder", "portfolio")]
    commands.append(sub.add_parser("experiment"))
    commands[-1].add_argument("preset", choices=sorted(PRESETS))
    for command in commands:
        command.add_argument("--process", choices=["bm", "fbm", "nonsticky-martingale",
                                                   "abs-cuberoot", "cos-drift"])
        for flag in ("--hurst", "--sigma", "--epsilon", "--horizon", "--k", "--delta"):
            command.add_argument(flag, type=float)
        command.add_argument("--big-t", dest="big_t", type=float)
        command.add_argument("--steps", type=int)
        command.add_argument("--paths", type=int)
        command.add_argument("--seed", type=int)
        for flag in ("--tau", "--event", "--strategy", "--ladder", "--out", "--config"):
            command.add_argument(flag)
        command.add_argument("--raw-price", action="store_true")
    return parser


def _frozen_config_fields(raw: dict) -> dict:
    merged: dict = {}
    process = raw.get("process")
    if isinstance(process, str):
        merged["process"] = process
    elif isinstance(process, dict):
        merged["process"] = process.get("name", "bm")
        if "hurst" in process:
            merged["hurst"] = float(process["hurst"])
        if "sigma" in process:
            merged["sigma"] = float(process["sigma"])
    grid = raw.get("grid", {})
    if "horizon" in grid:
        merged["horizon"] = float(grid["horizon"])
    if "steps" in grid:
        merged["steps"] = int(grid["steps"])
    experiment = raw.get("experiment")
    if isinstance(experiment, str):
        merged["experiment"] = experiment
    elif isinstance(experiment, dict):
        merged["experiment"] = experiment.get("kind", "stickiness")
        for key in ("epsilon", "rate", "delta"):
            if key in experiment:
                merged[key] = float(experiment[key])
        for key in ("tau", "event", "strategy"):
            if key in experiment:
                merged[key] = str(experiment[key])
        if "T" in experiment:
            merged["query_horizon"] = float(experiment["T"])
        if "ladder" in experiment:
            merged["ladder"] = tuple(float(h) for h in experiment["ladder"])
    if "seed" in raw:
        merged["master_seed"] = int(raw["seed"])
    if "paths" in raw:
        merged["n_paths"] = int(raw["paths"])
    if "output" in raw:
        merged["output"] = str(raw["output"])
    return merged


_FROZEN_FLAG_FIELDS = {
    "process": "process", "hurst": "hurst", "sigma": "sigma", "epsilon": "epsilon",
    "horizon": "horizon", "steps": "steps", "paths": "n_paths", "seed": "master_seed",
    "tau": "tau", "event": "event", "k": "rate", "strategy": "strategy", "delta": "delta",
    "out": "output", "big_t": "query_horizon",
}


def _frozen_resolve_config(args) -> ExperimentConfig:
    import dataclasses

    preset = PRESETS[args.preset] if args.command == "experiment" else None
    values: dict = {}
    if args.config:
        with open(args.config) as fh:
            raw = json.load(fh)
        if not raw:
            raise ConfigError("empty config")
        values.update(_frozen_config_fields(raw))
        values.pop("experiment", None)
    if preset is not None and (args.raw_price or args.ladder or "ladder" in values):
        raise ConfigError("preset does not read it")
    for flag, fieldname in _FROZEN_FLAG_FIELDS.items():
        value = getattr(args, flag)
        if value is not None:
            values[fieldname] = value
    if args.ladder:
        values["ladder"] = tuple(float(h) for h in args.ladder.split(","))
    if args.raw_price:
        values["raw_price"] = True
    return dataclasses.replace(preset or ExperimentConfig(experiment=args.command), **values)


_FINE = st.floats(0.05, 1.0)
_NUMBERS = st.one_of(_FINE, st.integers(1, 2), _ODD_FLOATS)
_FINE_RULES = st.one_of(st.sampled_from(["det:0", "det:0.5", "hit:0.1"]), _RULES)
_FINE_FLAGS = _optional({
    **{flag: _FINE for flag in ("--hurst", "--sigma", "--epsilon", "--big-t", "--k", "--delta")},
    "--horizon": st.floats(1.0, 2.0), "--seed": st.integers(0, 2**64 - 1), "--tau": _FINE_RULES,
    "--event": st.sampled_from(["all", "before:0.5"]), "--process": _PROCESSES,
    "--ladder": st.just("0.25,0.5,1"), "--raw-price": st.just(None),
    "--paths": st.integers(1, 10**6), "--steps": st.integers(1, 4096), "--out": st.just("o.csv"),
})


def _documented_configs(kind: str):
    named_process = st.one_of(_PROCESSES, st.fixed_dictionaries(
        {"name": _PROCESSES}, optional={"hurst": _NUMBERS, "sigma": _NUMBERS}))
    experiment = _optional({
        "kind": st.just(kind), "epsilon": _NUMBERS, "rate": _NUMBERS, "delta": _NUMBERS,
        "tau": _FINE_RULES, "event": _EVENTS, "strategy": _STRATEGIES, "T": _NUMBERS,
        "ladder": st.one_of(st.just([0.25, 0.5, 1]), st.lists(_NUMBERS, max_size=4)),
    })
    return _optional({
        "process": named_process,
        "grid": _optional({"horizon": _NUMBERS, "steps": st.integers(-1, 4096)}),
        "experiment": st.one_of(st.just(kind), experiment),
        "seed": st.integers(-1, 2**64),
        "paths": st.integers(-1, 10**6),
        "output": st.sampled_from(["out.csv", "x/y.csv", ""]),
    })


def _outcome(parser, resolve, argv):
    try:
        return repr(resolve(parser().parse_args(argv)))
    except StickyLabError as exc:
        return type(exc).__name__


def _set_settings(flags: dict, config: dict | None) -> tuple[set, str | None]:
    """The fields that ``flags`` and ``config`` set, and the process they name."""
    named = _frozen_config_fields(config) if config else {}
    fields = {FLAG_SETTINGS[flag][0] for flag in flags} | set(named) - {"experiment"}
    return fields, flags.get("--process", named.get("process"))


def _drop_unread(flags: dict, config: dict | None, reads: set) -> tuple[dict, dict | None]:
    """``flags`` and ``config`` without the settings outside ``reads``; a section's
    ``kind`` is no setting, and the top-level keys are always read."""
    flags = {f: v for f, v in flags.items() if FLAG_SETTINGS[f][0] in reads}
    if config is not None:
        config = {section: {k: v for k, v in value.items()
                            if k == "kind" or CONFIG_SETTINGS[f"{section}.{k}"][0] in reads}
                  if isinstance(value, dict) else value for section, value in config.items()}
    return flags, config


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), experiment=st.sampled_from(
    ["generate", "stickiness", "ladder", "portfolio", *sorted(PRESETS)]),
    flags=st.one_of(_FINE_FLAGS, _FLAGS), only_read=st.booleans())
def test_resolve_config_matches_the_frozen_resolver_on_documented_configs(
    tmp_path, data, experiment, flags, only_read
):
    from stickylab.cli import _parser, _resolve_config

    config = data.draw(st.one_of(st.none(), _documented_configs(experiment)))
    if only_read:  # half the examples keep to settings the run reads
        _, process = _set_settings(flags, config)
        flags, config = _drop_unread(flags, config, _reads(experiment, process))
    argv = ["experiment", experiment] if experiment in PRESETS else [experiment]
    for flag, value in flags.items():
        argv.append(flag if value is None else f"{flag}={value}")
    if config is not None:
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        argv.append(f"--config={cfg_path}")
    fields, process = _set_settings(flags, config)
    if fields <= _reads(experiment, process):
        expected = _outcome(_frozen_parser, _frozen_resolve_config, argv)
    else:
        expected = "ConfigError"
    assert _outcome(_parser, _resolve_config, argv) == expected
