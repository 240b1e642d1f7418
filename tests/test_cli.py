import hashlib
import json
import os
import subprocess
import sys

import pytest

from stickylab.cli import (
    PRESETS,
    ExperimentConfig,
    ResultTable,
    emit_csv,
    emit_plot_data,
    main,
    render_csv,
    run_experiment,
)
from stickylab.errors import ConfigError


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


def test_plot_data_sorted_two_columns(tmp_path):
    table = ResultTable(("h", "f"), ((2.0, 0.125), (1.0, 0.5), (4.0, 0.0)), {})
    dest = tmp_path / "plot.csv"
    emit_plot_data(table, "h", "f", str(dest))
    assert dest.read_text() == "h,f\n1,0.5\n2,0.125\n4,0\n"


def test_plot_data_single_row(tmp_path):
    table = ResultTable(("h", "f"), ((2.0, 0.25),), {})
    dest = tmp_path / "one.csv"
    emit_plot_data(table, "h", "f", str(dest))
    assert dest.read_text() == "h,f\n2,0.25\n"


def test_plot_data_missing_column():
    table = ResultTable(("h", "f"), (), {})
    with pytest.raises(ConfigError):
        emit_plot_data(table, "h", "nope", "/tmp/never.csv")


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
# output bytes shows here
PINNED_PRESET_SHA256 = {
    "abs-cuberoot": "8c554810700c9c8d89e3b5cbe9a4681d38a91324dda2c700fa2e9c59069c468b",
    "cos-drift": "15db5912144aaf33e086ffa97022606e1a9373e886ac7113ce53d260038192bf",
    "costs-fbm-momentum": "2a2aaef36cbe62e168f2713919eb6884bbc911dc08bdbc4f3aed4cc5f0522b22",
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
# the characterizations and the ladder were moved onto one first-exit scan
PINNED_SUBCOMMANDS = {
    "generate": (
        ExperimentConfig(experiment="generate", process="fbm", hurst=0.3, n_paths=4,
                         steps=16, master_seed=9),
        "8478ee2ffe123fc66ca5735fa076fc7f28c9bd899e71046b4e40d75f3aa6fcd3",
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
        "73e598d9dcf016397d22933807f492ec978bf9fdcee409c915182ea665c5c029",
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
    ],
)
def test_cli_exit_code_2_on_non_finite_ladder_or_huge_ensemble(tmp_path, monkeypatch, capsys, flags):
    monkeypatch.chdir(tmp_path)
    code = main([*flags, "--out", "x.csv"])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
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


def test_cli_preset_deterministic_across_worker_counts(tmp_path):
    texts = {}
    for workers in ("1", "4", "8"):
        dest = tmp_path / f"w{workers}.csv"
        result = run_cli(
            ["experiment", "fbm-sticky", "--paths", "64", "--steps", "64", "--out", str(dest)],
            env_extra={"STICKYLAB_THREADS": workers},
        )
        assert result.returncode == 0, result.stderr
        texts[workers] = dest.read_bytes()
    assert texts["1"] == texts["4"] == texts["8"]


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
    from stickylab.pathgen import read_ensemble_csv

    dest = tmp_path / "paths.csv"
    result = run_cli(
        ["generate", "--process", "bm", "--paths", "4", "--steps", "16",
         "--seed", "9", "--out", str(dest)]
    )
    assert result.returncode == 0, result.stderr
    ens = read_ensemble_csv(dest, master_seed=9)
    assert ens.values.shape == (4, 17)
