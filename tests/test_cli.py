"""Tests for the ``simulate`` command-line driver and its exit codes."""
from __future__ import annotations

import json
import math
import subprocess
import sys

import pytest

from kickedqubit import read_dataset
from kickedqubit.cli import (CATALOG_IDS, EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, EXIT_WRITE,
                             build_parser, main)
from kickedqubit.integrator import IntegrationDivergedError, _system


def _tiny_config(**overrides) -> dict:
    cfg = {
        "experiment": "custom",
        "pulses": [
            {"shape": "gaussian", "axis": "x", "alpha": 0.3, "t_k": 1.0,
             "tau": 0.05},
            {"shape": "gaussian", "axis": "x", "alpha": 0.4, "t_k": 2.0,
             "tau": 0.05},
        ],
        "sample_every": 10,
    }
    cfg.update(overrides)
    return cfg


def _write(tmp_path, payload) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_parser_shape():
    parser = build_parser()
    args = parser.parse_args(["figure1"])
    assert args.experiment == "figure1"
    assert args.out == "out"
    assert args.config is None and args.dt is None and args.convention is None
    with pytest.raises(SystemExit):  # --convention is a closed choice list
        parser.parse_args(["figure5", "--convention", "kilohertz"])


def test_catalog_run_writes_datasets(tmp_path, capsys):
    assert main(["figure7", "--out", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "min diff" in out
    assert f"wrote {tmp_path / 'figure7.csv'}" in out
    ds = read_dataset(tmp_path / "figure7.csv")
    assert ds.data.shape == (200 * 200, 5)
    sidecar = json.loads((tmp_path / "figure7.json").read_text())
    assert sidecar["rows"] == 200 * 200


def test_custom_config_run(tmp_path, capsys):
    config = _write(tmp_path, _tiny_config(orderings=["forward", "reversed"]))
    assert main(["custom", "--config", config, "--out",
                 str(tmp_path / "run")]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("wrote") == 2  # one file per requested ordering
    ds = read_dataset(tmp_path / "run" / "custom_forward.csv")
    assert ds.config["pulses"][0]["alpha"] == 0.3
    assert ds.columns == ("t", "p1", "p2", "norm")


def test_a_config_file_without_experiment_runs_the_command_line_id(tmp_path, capsys):
    payload = _tiny_config(orderings=["forward"])
    del payload["experiment"]
    config = _write(tmp_path, payload)
    assert main(["custom", "--config", config, "--out", str(tmp_path / "run")]) == EXIT_OK
    assert capsys.readouterr().out.count("wrote") == 1
    ds = read_dataset(tmp_path / "run" / "custom_forward.csv")
    assert ds.config["experiment"] == "custom"


def test_dt_override_is_recorded(tmp_path, capsys):
    config = _write(tmp_path, _tiny_config(orderings=["forward"]))
    assert main(["custom", "--config", config, "--out", str(tmp_path / "run"),
                 "--dt", "0.002"]) == EXIT_OK
    capsys.readouterr()
    ds = read_dataset(tmp_path / "run" / "custom_forward.csv")
    assert ds.config["dt"] == 0.002


def test_convention_override_flows_through(tmp_path, capsys):
    assert main(["figure5", "--out", str(tmp_path),
                 "--convention", "two_pi"]) == EXIT_OK
    capsys.readouterr()
    ds = read_dataset(tmp_path / "figure5_forward.csv")
    assert ds.config["hydrogen"]["convention"] == "two_pi"
    assert ds.meta["unit_convention"] == "two_pi"
    # the catalog spacing follows the convention's revival period
    gap = ds.config["pulses"][1]["t_k"] - ds.config["pulses"][0]["t_k"]
    assert gap == pytest.approx(2 * math.pi / (2 * math.pi * 1.0956e-2))


def test_unknown_experiment(tmp_path, capsys):
    # rejected by the catalog, and by the config parser when a file is given
    config = _write(tmp_path, _tiny_config(experiment="figure99"))
    for extra in ([], ["--config", config]):
        assert main(["figure99", "--out", str(tmp_path), *extra]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: experiment: unknown id 'figure99'")


def test_custom_needs_a_config_file(tmp_path, capsys):
    assert main(["custom", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "explicit --config" in capsys.readouterr().err


def test_unreadable_and_malformed_config_files(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["custom", "--config", missing]) == EXIT_CONFIG
    assert "cannot read" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["custom", "--config", str(bad)]) == EXIT_CONFIG
    assert "not valid JSON" in capsys.readouterr().err

    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    assert main(["custom", "--config", str(array)]) == EXIT_CONFIG
    assert "JSON object" in capsys.readouterr().err


def test_field_errors_carry_their_path(tmp_path, capsys):
    payload = _tiny_config()
    payload["pulses"][0]["shape"] = "sawtooth"
    config = _write(tmp_path, payload)
    assert main(["custom", "--config", config]) == EXIT_CONFIG
    assert "pulses[0].shape" in capsys.readouterr().err


def test_experiment_mismatch_between_cli_and_file(tmp_path, capsys):
    config = _write(tmp_path, _tiny_config())
    assert main(["figure1", "--config", config]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'custom'" in err and "'figure1'" in err


_HYDROGEN_BLOCK = {"delta_e_mhz": 1057.0, "e_fs_mhz": 10956.0, "gamma_mhz": 626.0}
_IDEAL_KICK = {"shape": "ideal", "axis": "x", "alpha": 0.3, "t_k": 20.0, "tau": 0.0}


@pytest.mark.parametrize("payload, field", [
    # an ideal kick has no width for RK4 or for the convergence scan
    ({"experiment": "custom", "pulses": [_IDEAL_KICK]}, "pulses[0].shape"),
    ({"experiment": "figure5", "system": "hydrogen", "hydrogen": _HYDROGEN_BLOCK,
      "pulses": [_IDEAL_KICK]}, "pulses[0].shape"),
    ({"experiment": "convergence", "pulses": [_IDEAL_KICK], "taus": [0.1, 0.01]},
     "pulses[0].shape"),
    # every pulse ends before the run starts at t = 0 and t_end is not set
    ({"experiment": "custom", "pulses": [
        {"shape": "gaussian", "axis": "x", "alpha": 0.3, "t_k": -5.0, "tau": 0.1}]},
     "t_end"),
    ({"experiment": "custom", "system": "hydrogen", "hydrogen": _HYDROGEN_BLOCK,
      "pulses": [{"shape": "gaussian", "axis": "x", "alpha": 0.3, "t_k": -50.0,
                  "tau": 1.0}]}, "t_end"),
], ids=["custom-ideal", "figure5-ideal", "convergence-ideal", "qubit-before-zero",
        "hydrogen-before-zero"])
def test_configs_that_cannot_run_are_config_errors(tmp_path, capsys, payload, field):
    config = _write(tmp_path, payload)
    assert main([payload["experiment"], "--config", config,
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")
    assert not list(tmp_path.glob("*.csv"))


def test_dt_on_figure7_is_a_config_error(tmp_path, capsys):
    # figure7 tabulates a closed form: an integrator step would be echoed
    # without ever running
    assert main(["figure7", "--out", str(tmp_path), "--dt", "0.5"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: dt: figure7 ")
    assert not list(tmp_path.glob("*.csv"))


def test_cli_overrides_are_validated(tmp_path, capsys):
    assert main(["figure1", "--out", str(tmp_path), "--dt", "0"]) == EXIT_CONFIG
    assert "must be > 0" in capsys.readouterr().err
    assert main(["figure1", "--out", str(tmp_path),
                 "--convention", "two_pi"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "applies to hydrogen experiments" in err
    assert "figure1 runs on model-qubit" in err


def test_divergence_exits_with_its_own_code(tmp_path, capsys):
    # RK4 is unstable inside the wide, strong pulse: h |alpha / tau| = 8e4;
    # a slow free precession keeps its width angle small
    payload = _tiny_config(
        pulses=[{"shape": "rectangular", "axis": "x", "alpha": 1.5e6,
                 "t_k": 1000.0, "tau": 150.0}], delta_e=1e-3,
        orderings=["forward"], dt=8.0, t_end=8000.0, sample_every=100)
    config = _write(tmp_path, payload)
    with pytest.warns(UserWarning, match="too coarse"):
        code = main(["custom", "--config", config, "--out", str(tmp_path)])
    assert code == EXIT_DIVERGED
    assert "numeric divergence" in capsys.readouterr().err


def test_an_overflowing_norm_exits_with_the_divergence_code(tmp_path, capsys):
    # at gamma = 2e8 MHz the hydrogen states stay finite but |psi|^2
    # overflows: a divergence, not a table with non-finite values
    payload = {"experiment": "custom", "system": "hydrogen",
               "hydrogen": {"delta_e_mhz": 1057.0, "e_fs_mhz": 10956.0, "gamma_mhz": 2e8},
               "pulses": [{"shape": "gaussian", "axis": "x", "alpha": 0.5,
                           "t_k": 20.0, "tau": 1.0}]}
    config = _write(tmp_path, payload)
    with pytest.warns(UserWarning, match="decay tail"):
        code = main(["custom", "--config", config, "--out", str(tmp_path / "run")])
    assert code == EXIT_DIVERGED
    err = capsys.readouterr().err
    assert "numeric divergence: norm went non-finite near t = " in err
    assert not (tmp_path / "run").exists()


def test_an_unwritable_out_exits_with_the_write_code(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("a regular file\n")
    out = afile / "sub"
    assert main(["figure1", "--out", str(out)]) == EXIT_WRITE
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert str(out) in err and "Not a directory" in err
    assert afile.read_text() == "a regular file\n"


def test_an_os_error_before_the_write_is_not_a_write_failure(tmp_path, monkeypatch):
    def fail(config):
        raise FileNotFoundError("a file the run reads")
    monkeypatch.setattr("kickedqubit.cli.run_experiment", fail)
    with pytest.raises(FileNotFoundError):
        main(["figure1", "--out", str(tmp_path)])
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("convention", [None, "two_pi"])
def test_all_writes_the_files_of_the_single_id_runs(tmp_path, capsys, convention):
    # each single run starts from an empty cache of system constants, as a
    # process of its own does; the catalog run shares them across its ids
    hydrogen = ["--convention", convention] if convention else []
    _system.cache_clear()
    assert main(["all", "--out", str(tmp_path / "all"), *hydrogen]) == EXIT_OK
    for experiment in CATALOG_IDS:
        _system.cache_clear()
        extra = hydrogen if experiment in ("figure5", "figure6") else []
        assert main([experiment, "--out", str(tmp_path / "one"), *extra]) == EXIT_OK
    capsys.readouterr()
    names = sorted(p.name for p in (tmp_path / "all").iterdir())
    assert sum(name.endswith(".csv") for name in names) == 14
    assert sum(name.endswith(".json") for name in names) == 14
    assert names == sorted(p.name for p in (tmp_path / "one").iterdir())
    for name in names:
        assert (tmp_path / "all" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


@pytest.mark.parametrize("option", [["--config", "run.json"], ["--dt", "0.01"]])
def test_all_rejects_config_and_dt(tmp_path, capsys, option):
    assert main(["all", "--out", str(tmp_path / "out"), *option]) == EXIT_CONFIG
    assert f"config error: {option[0]}: simulate all runs the catalog defaults" in (
        capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_all_stops_at_the_first_failing_id(tmp_path, capsys, monkeypatch):
    from kickedqubit import cli
    run = cli.run_experiment

    def diverge_on_figure3(config):
        if config.experiment == "figure3":
            raise IntegrationDivergedError("norm went non-finite near t = 1")
        return run(config)
    monkeypatch.setattr(cli, "run_experiment", diverge_on_figure3)
    assert main(["all", "--out", str(tmp_path)]) == EXIT_DIVERGED
    assert "numeric divergence" in capsys.readouterr().err
    assert sorted(p.stem for p in tmp_path.glob("*.csv")) == [
        f"{e}_{o}" for e in ("figure1", "figure2") for o in ("forward", "reversed")]

    afile = tmp_path / "afile"
    afile.write_text("a regular file\n")
    assert main(["all", "--out", str(afile / "sub")]) == EXIT_WRITE
    assert capsys.readouterr().err.count("cannot write") == 1


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "kickedqubit.cli", "figure7",
         "--out", str(tmp_path)],
        capture_output=True, text=True, check=False)
    assert result.returncode == EXIT_OK
    assert "wrote" in result.stdout
    assert (tmp_path / "figure7.csv").exists()
