"""Tests for the experiment catalog: configs, datasets, runners."""
from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import json
import math
import os
import stat
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, event, given, settings
from hypothesis import strategies as st

from kickedqubit import (
    EXPERIMENT_IDS,
    ConfigError,
    ExperimentConfig,
    IntegrationDivergedError,
    KickSequence,
    PulseSpec,
    ResultDataset,
    config_sequence,
    default_config,
    default_end_time,
    default_run_end,
    read_dataset,
    run_convergence,
    run_experiment,
    run_ordering_surface,
    two_kick_closed,
)
from kickedqubit import experiments
from kickedqubit.hydrogen import (DEFAULT_MHZ, default_params, revival_time,
                                  run_pulse_sequence)
from kickedqubit.experiments import MODEL_T1, MODEL_T2, MODEL_T_DELTA


def _raw(**overrides) -> dict:
    base = {
        "experiment": "custom",
        "pulses": [
            {"shape": "gaussian", "axis": "x", "alpha": 0.3, "t_k": 1.0,
             "tau": 0.01},
            {"shape": "gaussian", "axis": "y", "alpha": 0.4, "t_k": 2.0,
             "tau": 0.01},
        ],
    }
    base.update(overrides)
    return base


def _path_of(excinfo) -> str:
    return excinfo.value.path


# ------------------------------------------------------------------- configs

def test_default_configs_cover_the_catalog():
    for experiment in EXPERIMENT_IDS:
        if experiment == "custom":
            with pytest.raises(ConfigError, match="explicit"):
                default_config(experiment)
            continue
        cfg = default_config(experiment)
        assert cfg.experiment == experiment
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
        assert ExperimentConfig(**cfg.to_dict()) == cfg


def test_config_survives_a_json_round_trip():
    cfg = default_config("figure5", convention="two_pi")
    text = json.dumps(cfg.to_dict())
    assert ExperimentConfig.from_dict(json.loads(text)) == cfg
    assert cfg.hydrogen["convention"] == "two_pi"


def test_figure_catalog_parameters():
    f1 = default_config("figure1")
    assert [p["alpha"] for p in f1.pulses] == pytest.approx(
        [0.1 * math.pi, 0.15 * math.pi])
    assert [p["t_k"] for p in f1.pulses] == pytest.approx(
        [1.0, 1.0 + math.pi / 2.0])
    assert all(p["tau"] == pytest.approx(0.001 * MODEL_T_DELTA)
               for p in f1.pulses)
    assert default_config("figure2").pulses[0]["tau"] == pytest.approx(
        0.005 * MODEL_T_DELTA)
    f3 = default_config("figure3")
    assert [p["axis"] for p in f3.pulses] == ["x", "y"]
    assert len(default_config("figure4").pulses) == 3
    f5 = default_config("figure5")
    assert f5.system == "hydrogen"
    assert f5.pulses[1]["t_k"] - f5.pulses[0]["t_k"] == pytest.approx(
        573.4926348283667)
    assert default_config("figure6").pulses[1]["axis"] == "y"
    f7 = default_config("figure7")
    assert f7.grid == {"n_epsilon": 200, "n_phi": 200,
                       "phi_max": 2.0 * math.pi}
    assert f7.orderings == ("forward",)
    conv = default_config("convergence")
    assert len(conv.taus) == 7
    assert conv.taus[0] / conv.taus[1] == pytest.approx(10 ** 0.5)


def test_unknown_and_missing_fields_are_rejected():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(_raw(flavor="spicy"))
    assert _path_of(err) == "flavor"
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict({"pulses": []})
    assert _path_of(err) == "experiment"
    with pytest.raises(ConfigError, match="unknown id"):
        ExperimentConfig.from_dict(_raw(experiment="figure99"))
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(_raw(system="three-level-maser"))
    assert _path_of(err) == "system"
    assert str(err.value).startswith("system: ")


def test_pulse_validation_reports_the_offending_entry():
    bad = _raw()
    bad["pulses"][1]["shape"] = "triangular"
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(bad)
    assert _path_of(err) == "pulses[1].shape"

    bad = _raw()
    del bad["pulses"][0]["alpha"]
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(bad)
    assert _path_of(err) == "pulses[0].alpha"

    bad = _raw()
    bad["pulses"][0]["shape"] = "ideal"
    with pytest.raises(ConfigError, match="ideal kick must have tau"):
        ExperimentConfig.from_dict(bad)

    bad = _raw()
    bad["pulses"][0]["tau"] = 0.0
    with pytest.raises(ConfigError, match="needs tau > 0"):
        ExperimentConfig.from_dict(bad)

    bad = _raw()
    bad["pulses"][1]["t_k"] = 0.5
    with pytest.raises(ConfigError, match="increasing"):
        ExperimentConfig.from_dict(bad)

    with pytest.raises(ConfigError, match="at least one pulse"):
        ExperimentConfig.from_dict({"experiment": "figure1", "pulses": []})


def test_hydrogen_block_validation():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(_raw(system="hydrogen"))
    assert _path_of(err) == "hydrogen"
    block = {"delta_e_mhz": 1057.0, "e_fs_mhz": 10956.0, "gamma_mhz": 626.0}
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(
            _raw(system="hydrogen", hydrogen={**block, "mass_kg": 1.0}))
    assert _path_of(err) == "hydrogen.mass_kg"
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(
            _raw(system="hydrogen",
                 hydrogen={k: v for k, v in block.items() if k != "e_fs_mhz"}))
    assert _path_of(err) == "hydrogen.e_fs_mhz"
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(
            _raw(system="hydrogen",
                 hydrogen={**block, "convention": "natural"}))
    assert _path_of(err) == "hydrogen.convention"
    # a quoted value that underflows to 0 rad/ps is caught on construction
    with pytest.raises(ConfigError, match="must be positive") as err:
        ExperimentConfig.from_dict(
            _raw(system="hydrogen", hydrogen={**block, "delta_e_mhz": 1e-320}))
    assert _path_of(err) == "hydrogen"
    # a hydrogen block on the model qubit is an error, and vice versa
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(_raw(hydrogen=block))
    assert _path_of(err) == "hydrogen"
    with pytest.raises(ConfigError, match="runs on the model qubit"):
        ExperimentConfig.from_dict(
            {**default_config("figure1").to_dict(), "system": "hydrogen",
             "hydrogen": block})
    with pytest.raises(ConfigError, match="runs on hydrogen"):
        ExperimentConfig.from_dict(
            {**default_config("figure5").to_dict(), "system": "model-qubit",
             "hydrogen": None})


def test_everything_else_is_validated_too():
    for field, value, match in [
        ("orderings", [], "non-empty"),
        ("orderings", ["sideways"], "sideways"),
        ("dt", -0.1, "dt"),
        ("t_end", 0.0, "t_end"),
        ("sample_every", 2.5, "integer"),
        ("sample_every", 0, ">= 1"),
        ("basis", "bare", "basis"),
        ("grid", {"n_epsilon": 10, "n_phi": 10}, "figure7"),
        ("taus", [0.1, 0.01], "convergence"),
    ]:
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig.from_dict(_raw(**{field: value}))
    f7 = default_config("figure7").to_dict()
    with pytest.raises(ConfigError, match=">= 2"):
        ExperimentConfig.from_dict(
            {**f7, "grid": {"n_epsilon": 1, "n_phi": 10}})
    with pytest.raises(ConfigError, match="expected a grid object") as err:
        ExperimentConfig.from_dict({**f7, "grid": [10, 10]})
    assert _path_of(err) == "grid"
    conv = default_config("convergence").to_dict()
    with pytest.raises(ConfigError, match="decreasing"):
        ExperimentConfig.from_dict({**conv, "taus": [0.01, 0.02]})


def _pulse(**overrides) -> dict:
    return {**_raw()["pulses"][0], **overrides}


_CONVERGENCE = {"experiment": "convergence", "pulses": [_pulse(shape="rectangular")]}


@pytest.mark.parametrize("build, path, fragment", [
    (lambda: ExperimentConfig.from_dict(_raw(pulses="x")), "pulses", "list"),
    (lambda: ExperimentConfig.from_dict(_raw(pulses=[3])), "pulses[0]", "object"),
    (lambda: ExperimentConfig.from_dict(_raw(pulses=[_pulse(color="red")])),
     "pulses[0].color", "unknown"),
    (lambda: ExperimentConfig.from_dict(_raw(pulses=[_pulse(axis="z")])),
     "pulses[0].axis", "'z'"),
    (lambda: ExperimentConfig.from_dict(
        {"experiment": "figure7", "grid": {"n_epsilon": 10, "size": 3}}),
     "grid.size", "unknown"),
    (lambda: ExperimentConfig.from_dict(
        {"experiment": "figure7", "grid": {"n_epsilon": 10.0}}),
     "grid.n_epsilon", "integer"),
    (lambda: ExperimentConfig.from_dict(_CONVERGENCE), "taus", "list"),
    (lambda: ExperimentConfig.from_dict({**_CONVERGENCE, "taus": []}),
     "taus", "non-empty"),
    (lambda: ExperimentConfig.from_dict(_raw(out=3)), "out", "string"),
    (lambda: ExperimentConfig.from_dict(["custom"]), "", "JSON object"),
    (lambda: ExperimentConfig.from_dict(_raw(delta_e="1")), "delta_e", "number"),
    (lambda: ExperimentConfig.from_dict(_raw(dt=math.inf)), "dt", "finite"),
    (lambda: ExperimentConfig.from_dict(_raw(pulses=[_pulse(tau=-0.1)])),
     "pulses[0].tau", ">= 0"),
    (lambda: default_config("figure5", convention="natural"),
     "hydrogen.convention", "'natural'"),
])
def test_config_errors_name_their_field(build, path, fragment):
    with pytest.raises(ConfigError) as err:
        build()
    assert _path_of(err) == path
    assert fragment in str(err.value)


def test_fields_the_system_never_reads_are_rejected():
    # hydrogen takes its splitting from hydrogen.delta_e_mhz, and only
    # hydrogen has a coupled basis: a config must not echo a value that
    # never runs
    f5 = default_config("figure5").to_dict()
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict({**f5, "delta_e": 5.0})
    assert _path_of(err) == "delta_e"
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(_raw(basis="coupled"))
    assert _path_of(err) == "basis"
    # the defaults still read back, and hydrogen keeps both bases
    assert ExperimentConfig.from_dict({**f5, "delta_e": 1.0, "basis": "coupled"})
    assert ExperimentConfig.from_dict(_raw(basis="j"))


def test_fields_figure7_and_convergence_never_read_are_rejected():
    # figure7 reads only its grid and convergence picks its own window and
    # sample: a config must not echo a value that never runs
    f7 = default_config("figure7").to_dict()
    hydrogen = {"system": "hydrogen",
                "hydrogen": dict(zip(("delta_e_mhz", "e_fs_mhz", "gamma_mhz"), DEFAULT_MHZ))}
    for change, path in [
        (hydrogen, "system"),
        ({"pulses": [_pulse()]}, "pulses"),
        ({"pulses": [_pulse(shape="ideal", tau=0.0)]}, "pulses"),
        ({"delta_e": 2.0}, "delta_e"),
        ({"dt": 0.5}, "dt"),
        ({"t_end": 3.0}, "t_end"),
        ({"sample_every": 7}, "sample_every"),
        ({"orderings": ["reversed"]}, "orderings[0]"),
        ({"orderings": ["forward", "reversed"]}, "orderings[1]"),
    ]:
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({**f7, **change})
        assert _path_of(err) == path, change
    conv = default_config("convergence").to_dict()
    for change, path in [
        ({"t_end": 99.0}, "t_end"),
        ({"sample_every": 9}, "sample_every"),
        ({"orderings": ["forward", "reversed"]}, "orderings[1]"),
    ]:
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({**conv, **change})
        assert _path_of(err) == path, change
    # the defaults still read back, and both ids default to the forward run
    assert ExperimentConfig.from_dict(
        {**f7, "pulses": [], "delta_e": 1.0, "sample_every": 1, "dt": None})
    assert ExperimentConfig.from_dict({**conv, "dt": 0.001, "sample_every": 1})
    for experiment in ("figure7", "convergence"):
        raw = {k: v for k, v in default_config(experiment).to_dict().items()
               if k != "orderings"}
        assert ExperimentConfig.from_dict(raw).orderings == ("forward",)


def test_an_unhashable_convention_is_a_config_error():
    f5 = default_config("figure5").to_dict()
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(
            {**f5, "hydrogen": {**f5["hydrogen"], "convention": ["plain"]}})
    assert _path_of(err) == "hydrogen.convention"
    with pytest.raises(ConfigError) as err:
        default_config("figure5", convention=["plain"])
    assert _path_of(err) == "hydrogen.convention"


def test_an_ordering_listed_twice_is_rejected():
    for orderings in (["forward", "forward"], ("reversed", "reversed")):
        with pytest.raises(ConfigError, match="listed twice") as err:
            ExperimentConfig.from_dict(_raw(orderings=orderings))
        assert _path_of(err) == "orderings[1]"
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(_raw(orderings=["forward", "reversed", "forward"]))
    assert _path_of(err) == "orderings[2]"


def test_run_experiment_validates_a_directly_built_config(capsys):
    # figure7's grid defaults are filled in, a missing field is a ConfigError
    datasets, _ = run_experiment(ExperimentConfig(experiment="figure7"))
    assert datasets[0].data.shape == (200 * 200, 5)
    with pytest.raises(ConfigError) as err:
        run_experiment(ExperimentConfig(experiment="convergence"))
    assert _path_of(err) == "pulses"
    capsys.readouterr()


def test_direct_construction_fills_the_same_defaults_as_from_dict(capsys):
    raw = _raw()
    direct = ExperimentConfig(experiment="custom", pulses=tuple(raw["pulses"]))
    assert direct == ExperimentConfig.from_dict(raw)
    assert direct.orderings == ("forward",)
    datasets, _ = run_experiment(direct)
    assert [d.name for d in datasets] == ["custom_forward"]
    capsys.readouterr()


def test_replace_validates_like_from_dict():
    cfg = default_config("figure1")
    with pytest.raises(ConfigError) as err:
        dataclasses.replace(cfg, dt=-1.0)
    assert _path_of(err) == "dt"
    with pytest.raises(ConfigError) as parsed:
        ExperimentConfig.from_dict({**cfg.to_dict(), "dt": -1.0})
    assert str(err.value) == str(parsed.value)


def _hash_or_error(config) -> str:
    try:
        return str(hash(config))
    except TypeError as exc:  # a config is unhashable
        return f"TypeError: {exc}"


@pytest.mark.parametrize("source", [*(e for e in EXPERIMENT_IDS if e != "custom"), "hydrogen"])
def test_the_runs_a_config_derives_stay_out_of_its_echo(source):
    # each ordering's sequence and run end are derived once, on construction,
    # beside the fields: the echo, ==, hash and repr see the fields alone
    if source == "hydrogen":
        config = ExperimentConfig.from_dict(_raw(
            system="hydrogen", basis="coupled",
            hydrogen=dict(zip(("delta_e_mhz", "e_fs_mhz", "gamma_mhz"), DEFAULT_MHZ)),
            orderings=["forward", "reversed"]))
    else:
        config = default_config(source)
    echo = config.to_dict()
    assert list(echo) == ["experiment", "system", "delta_e", "hydrogen", "pulses", "orderings",
                          "dt", "t_end", "sample_every", "basis", "grid", "taus", "out"]
    assert [f.name for f in dataclasses.fields(ExperimentConfig)] == list(echo)
    back = ExperimentConfig.from_dict(json.loads(json.dumps(echo)))
    assert back == config
    assert repr(back) == repr(config) and "_runs" not in repr(config)
    assert _hash_or_error(back) == _hash_or_error(config)


def test_a_config_is_unhashable_by_its_own_name():
    with pytest.raises(TypeError, match=r"^unhashable type: 'ExperimentConfig'$"):
        hash(default_config("figure1"))


def test_each_dataset_echoes_a_config_of_its_own(capsys):
    datasets, _ = run_experiment(default_config("figure3"))
    capsys.readouterr()
    first, second = (d.config for d in datasets)
    assert first == second and first is not second
    first["pulses"][0]["alpha"] = 99.0
    first["orderings"].append("sideways")
    first["dt"] = 1.0
    assert second == default_config("figure3").to_dict()


# ----------------------------------------------------------------- sequences

def test_config_sequence_reverses_payloads_over_fixed_slots():
    cfg = default_config("figure3")
    fwd = config_sequence(cfg, "forward")
    rev = config_sequence(cfg, "reversed")
    times = [p["t_k"] for p in cfg.pulses]
    assert [p.t_k for p in fwd.pulses] == times
    assert [p.t_k for p in rev.pulses] == times          # slots never move
    assert [p.axis for p in fwd.pulses] == ["x", "y"]
    assert [p.axis for p in rev.pulses] == ["y", "x"]     # payloads swap
    assert [p.alpha for p in rev.pulses] == pytest.approx(
        [0.15 * math.pi, 0.1 * math.pi])
    with pytest.raises(ConfigError, match="unknown ordering"):
        config_sequence(cfg, "shuffled")


def test_default_end_time():
    two = KickSequence(pulses=(
        PulseSpec(shape="gaussian", axis="x", alpha=0.3, t_k=1.0, tau=0.02),
        PulseSpec(shape="gaussian", axis="x", alpha=0.3, t_k=3.5, tau=0.05),
    ), delta_e=2.0)
    assert default_end_time(two) == pytest.approx(3.5 + 8 * 0.05 + 2.5)
    one = KickSequence(pulses=(
        PulseSpec(shape="gaussian", axis="x", alpha=0.3, t_k=1.0, tau=0.02),),
        delta_e=2.0)
    assert default_end_time(one) == pytest.approx(1.0 + 8 * 0.02 + math.pi / 2)


def test_default_end_time_of_a_single_pulse_without_splitting_asks_for_t_end():
    # half a free period is pi / |delta_e|, which delta_e = 0 does not have
    one = KickSequence(pulses=(
        PulseSpec(shape="gaussian", axis="x", alpha=0.3, t_k=1.0, tau=0.01),),
        delta_e=0.0)
    with pytest.raises(ValueError, match="delta_e.*t_end"):
        default_end_time(one)


def test_default_runs_end_8_tau_past_the_last_gaussian(capsys):
    # RK4 stops at a gaussian's 6 tau support, but a run without t_end still
    # ends 8 tau past the last center (plus a free interval on the qubit),
    # so every dataset keeps its rows
    for experiment in ("figure1", "figure5"):
        cfg = default_config(experiment)
        last = cfg.pulses[-1]
        datasets, _ = run_experiment(cfg)
        for ds in datasets:
            end = last["t_k"] + 8.0 * last["tau"]
            if experiment == "figure1":
                end += last["t_k"] - cfg.pulses[-2]["t_k"]
            assert ds.data[-1, 0] == pytest.approx(end, rel=1e-14), ds.name
    capsys.readouterr()
    # and so does the library's hydrogen run without t_end
    params = default_params()
    traj = run_pulse_sequence(params, config_sequence(cfg, delta_e=params.delta_e),
                              sample_every=10**6)
    assert traj.times[-1] == pytest.approx(end, rel=1e-14)
    # on hydrogen a rectangle ends the run at its support end
    seq = KickSequence(pulses=(
        PulseSpec(shape="gaussian", axis="x", alpha=0.3, t_k=20.0, tau=1.0),
        PulseSpec(shape="rectangular", axis="x", alpha=0.3, t_k=25.0, tau=2.0)),
        delta_e=1.0)
    assert default_run_end(seq) == 28.0
    assert default_run_end(dataclasses.replace(seq, pulses=seq.pulses[1:])) == 26.0


def test_a_run_of_too_many_samples_is_rejected_before_it_runs():
    # one pulse at delta_e = 1e-6 ends its default run half a free period,
    # pi * 1e6, after the pulse: 6.3e8 samples at dt = tau/20, which asked
    # numpy for 4.68 GiB.  The config is rejected; this test never runs it.
    raw = {"experiment": "custom", "delta_e": 1e-6,
           "pulses": [{"shape": "gaussian", "axis": "x", "alpha": 0.5, "t_k": 1.0,
                       "tau": 0.1}]}
    with pytest.raises(ConfigError, match="6.28e[+]08 samples") as err:
        ExperimentConfig.from_dict(raw)
    assert err.value.path == "sample_every"
    assert "t_end" in str(err.value) and "dt" in str(err.value)
    # the same run at fewer samples, or explicit ends and steps, is accepted
    ExperimentConfig.from_dict({**raw, "sample_every": 1000})
    ExperimentConfig.from_dict({**raw, "t_end": 3.0})
    with pytest.raises(ConfigError, match="samples") as err:
        ExperimentConfig.from_dict({**raw, "t_end": 3.0, "dt": 1e-6})
    assert err.value.path == "sample_every"
    assert experiments.MAX_SAMPLES == 1_000_000


def test_a_run_of_too_many_rk4_links_is_rejected_before_it_runs():
    # a few samples, but the gaussian's 12-unit support at dt = 1e-8 is
    # 1.2e9 RK4 links, which the chain would lay out as whole arrays.  The
    # config is rejected; this test never runs it.
    raw = {"experiment": "custom", "dt": 1e-8, "sample_every": 10000,
           "pulses": [{"shape": "gaussian", "axis": "x", "alpha": 0.5, "t_k": 10.0,
                       "tau": 1.0}]}
    with pytest.raises(ConfigError, match="1.2e[+]09 RK4 steps") as err:
        ExperimentConfig.from_dict(raw)
    assert err.value.path == "dt"
    # free flight takes no links: the same dt on a narrow pulse is accepted,
    # though the run is as long
    ExperimentConfig.from_dict({**raw, "pulses": [{**raw["pulses"][0], "tau": 1e-4}]})
    # the links are counted per ordering, over the merged supports clipped
    # to the run.  Forward, the run ends 0.8 + 1 after the rectangle, at
    # 12.8, and cuts the gaussian's support [4, 16] to 8.8 units: 8.8e5
    # links.  Reversed, the gaussian sits in the later slot, its support
    # [5, 17] holds the rectangle's and the run ends at 20: 1.2e6 links.
    two = [{"shape": "gaussian", "axis": "x", "alpha": 0.5, "t_k": 10.0, "tau": 1.0},
           {"shape": "rectangular", "axis": "y", "alpha": 0.5, "t_k": 11.0, "tau": 0.1}]
    cut = {"experiment": "custom", "pulses": two, "dt": 1e-5, "sample_every": 100}
    ExperimentConfig.from_dict(cut)
    with pytest.raises(ConfigError, match="the reversed run would take 1.2e[+]06") as err:
        ExperimentConfig.from_dict({**cut, "orderings": ["forward", "reversed"]})
    assert err.value.path == "dt"
    # a run that ends at 12 cuts the reversed support to 7 units
    ExperimentConfig.from_dict({**cut, "orderings": ["forward", "reversed"], "t_end": 12.0})
    assert experiments.MAX_LINKS == 1_000_000


# ------------------------------------------------------------------ datasets

def test_dataset_rejects_bad_tables():
    good = np.array([[0.0, 1.0], [1.0, 0.5]])
    ResultDataset(name="d", columns=("t", "p"), data=good, config={})
    with pytest.raises(ValueError, match="columns"):
        ResultDataset(name="d", columns=("t",), data=good, config={})
    with pytest.raises(ValueError, match="non-finite"):
        ResultDataset(name="d", columns=("t", "p"),
                      data=np.array([[0.0, np.nan]]), config={})
    with pytest.raises(ValueError, match="not increasing"):
        ResultDataset(name="d", columns=("t", "p"),
                      data=np.array([[1.0, 0.0], [1.0, 0.1]]), config={})


def test_a_dataset_needs_a_column():
    # a table without columns has no column row to write, so it could not
    # read back
    for rows in (0, 3):
        with pytest.raises(ValueError, match="no columns"):
            ResultDataset(name="d", columns=(), data=np.empty((rows, 0)), config={})


@pytest.mark.parametrize("name", ["", "../escape", "a/b", "a\\b", "a\nb", "a\rb"])
def test_a_dataset_name_must_be_a_plain_file_name(name):
    # each would write outside the output directory, fail to open, write a
    # hidden file or break its header line
    with pytest.raises(ValueError, match="not a plain file name"):
        ResultDataset(name=name, columns=("t",), data=np.zeros((1, 1)), config={})


@pytest.mark.parametrize("columns", [("",), ("#t", "p"), ("a,b",), ("a\nb",), ("a\rb",)])
def test_dataset_columns_must_round_trip_through_the_column_row(columns):
    # an empty or '#' row reads as a comment, a comma splits a name, and a
    # line break ends the row early
    data = np.zeros((2, len(columns)))
    with pytest.raises(ValueError, match="'d' columns .* do not round-trip"):
        ResultDataset(name="d", columns=columns, data=data, config={})


def test_names_and_columns_that_round_trip_are_accepted(tmp_path):
    ds = ResultDataset(name="a b.v2", columns=("p #1", "", "q"),
                       data=np.ones((2, 3)), config={})
    back = read_dataset(ds.write(tmp_path))
    assert (back.name, back.columns) == (ds.name, ds.columns)
    assert np.array_equal(back.data, ds.data)


def test_write_read_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    data = np.column_stack([np.sort(rng.uniform(0, 9, 25)),
                            rng.standard_normal(25)])
    ds = ResultDataset(name="trip", columns=("t", "value"), data=data,
                       config={"experiment": "custom", "dt": 0.125},
                       meta={"final": float(data[-1, 1])})
    path = ds.write(tmp_path)
    back = read_dataset(path)
    assert back.name == "trip"
    assert back.columns == ("t", "value")
    assert np.array_equal(back.data, ds.data)      # %.17g is lossless
    assert back.config == ds.config
    assert back.meta == ds.meta
    sidecar = json.loads((tmp_path / "trip.json").read_text())
    assert sidecar["rows"] == 25
    assert sidecar["csv"] == "trip.csv"
    assert sidecar["columns"] == ["t", "value"]


def test_empty_table_round_trip(tmp_path):
    ds = ResultDataset(name="empty", columns=("t", "value"),
                       data=np.empty((0, 2)), config={"experiment": "custom"})
    back = read_dataset(ds.write(tmp_path))
    assert back.columns == ("t", "value")
    assert back.data.shape == (0, 2)
    assert json.loads((tmp_path / "empty.json").read_text())["rows"] == 0


def test_written_files_follow_the_umask(tmp_path):
    ds = ResultDataset(name="modes", columns=("t", "value"),
                       data=np.array([[0.0, 1.0]]), config={})
    old = os.umask(0o022)
    try:
        csv_path = ds.write(tmp_path)
    finally:
        os.umask(old)
    for path in (csv_path, tmp_path / "modes.json"):
        assert stat.S_IMODE(path.stat().st_mode) == 0o644


def test_writing_leaves_the_process_umask_alone(tmp_path, monkeypatch):
    def no_umask(mask):
        raise AssertionError("os.umask must not be called while writing")

    monkeypatch.setattr(os, "umask", no_umask)
    ds = ResultDataset(name="quiet", columns=("t", "value"),
                       data=np.array([[0.0, 1.0], [1.0, 2.0]]), config={})
    back = read_dataset(ds.write(tmp_path))
    assert np.array_equal(back.data, ds.data)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["quiet.csv", "quiet.json"]


def test_a_write_that_fails_midway_leaves_the_old_file(tmp_path, monkeypatch):
    ds = ResultDataset(name="keep", columns=("t", "value"),
                       data=np.array([[0.0, 1.0], [1.0, 2.0]]), config={})
    before = ds.write(tmp_path).read_bytes()

    def failing_blocks(data):
        yield "1,2\n"
        raise OSError("disk full")

    monkeypatch.setattr(experiments, "_csv_blocks", failing_blocks)
    with pytest.raises(OSError, match="disk full"):
        ds.write(tmp_path)
    assert (tmp_path / "keep.csv").read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.csv", "keep.json"]


def _write_csv(tmp_path, body: str):
    path = tmp_path / "hand.csv"
    path.write_text("# kickedqubit 0.1.0\n# dataset: hand\n# config: {}\n"
                    "# meta: {}\na,b\n" + body)
    return path


@pytest.mark.parametrize("body", ["1,2\n3,4,5\n", "1,2\n3\n", "1,2,3\n4,5,6\n"])
def test_a_row_with_the_wrong_column_count_names_the_file(tmp_path, body):
    path = _write_csv(tmp_path, body)
    with pytest.raises(ValueError, match="hand.csv"):
        read_dataset(path)


@pytest.mark.parametrize("key", ["config", "meta"])
def test_a_malformed_header_line_names_the_file(tmp_path, key):
    path = tmp_path / "hand.csv"
    lines = {"config": "{}", "meta": "{}", key: "{not json"}
    path.write_text(f"# dataset: hand\n# config: {lines['config']}\n"
                    f"# meta: {lines['meta']}\na,b\n1,2\n")
    with pytest.raises(ValueError, match=f"hand.csv: malformed '# {key}:' line"):
        read_dataset(path)


@pytest.mark.parametrize("text", [
    "", "# kickedqubit 0.1.0\n# dataset: hand\n# config: {}\n# meta: {}\n",
    "# dataset: hand\n\n# a note\n\n"])
def test_a_file_without_a_column_row_names_the_file(tmp_path, text):
    path = tmp_path / "hand.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="hand.csv: no column row"):
        read_dataset(path)


def test_a_single_row_table_keeps_its_shape(tmp_path):
    for ncol in (1, 3):
        ds = ResultDataset(name=f"one{ncol}", columns=tuple("abc"[:ncol]),
                           data=np.arange(1.0, ncol + 1.0)[None, :], config={})
        back = read_dataset(ds.write(tmp_path))
        assert back.data.shape == (1, ncol)
        assert np.array_equal(back.data, ds.data)


def test_a_zero_row_table_reads_back_without_a_warning(tmp_path):
    ds = ResultDataset(name="none", columns=("a", "b", "c"),
                       data=np.empty((0, 3)), config={})
    path = ds.write(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = read_dataset(path)
    assert back.data.shape == (0, 3)


@pytest.mark.parametrize("rows", [3, 0])
def test_a_crlf_copy_reads_back_equal_to_the_original(tmp_path, rows):
    # a file edited on Windows: every line ends in CRLF
    data = np.arange(2.0 * rows).reshape(rows, 2) / 3.0
    ds = ResultDataset(name=f"t{rows}", columns=("a", "b"), data=data,
                       config={"experiment": "custom", "dt": 0.125},
                       meta={"final": 0.5})
    path = ds.write(tmp_path)
    crlf = tmp_path / "crlf" / path.name
    crlf.parent.mkdir()
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = read_dataset(crlf)
    original = read_dataset(path)
    assert back.name == original.name == f"t{rows}"
    assert back.columns == original.columns == ("a", "b")
    assert back.config == original.config
    assert back.meta == original.meta
    assert back.data.shape == original.data.shape == (rows, 2)
    assert back.data.tobytes() == original.data.tobytes()


def test_blank_and_comment_lines_in_the_body_are_skipped(tmp_path):
    path = _write_csv(tmp_path, "\n# a note\n1,2\n\n# another\n3,4\n\n")
    assert read_dataset(path).data.tolist() == [[1.0, 2.0], [3.0, 4.0]]


_EDGE_VALUES = (-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308,
                2.2250738585072014e-308, 0.1, -1.0 / 3.0)
#: shrinking a 2,000-row table takes minutes; an unshrunk failure still
#: prints its example, seed included
_NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


@settings(max_examples=40, deadline=None, phases=_NO_SHRINK)
@given(rows=st.one_of(st.sampled_from([0, 1, 1023, 1024, 1025]),
                      st.integers(0, 2100)),
       ncol=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1),
       drawn=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=12))
def test_write_read_is_bit_exact_across_block_edges(tmp_path_factory, rows, ncol,
                                                     seed, drawn):
    # random bit patterns cover every exponent; the edge values and the
    # hypothesis-drawn floats are scattered over the table
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, size=(rows, ncol), dtype=np.uint64)
    data = bits.view(np.float64).copy()
    flat = data.reshape(-1)
    bad = ~np.isfinite(flat)
    flat[bad] = rng.choice(_EDGE_VALUES, size=int(bad.sum()))
    extra = list(_EDGE_VALUES) + drawn
    if flat.size:
        flat[rng.integers(0, flat.size, size=len(extra))] = extra
    columns = tuple(f"c{j}" for j in range(ncol))
    ds = ResultDataset(name="bits", columns=columns, data=data, config={})
    path = ds.write(tmp_path_factory.mktemp("bits"))

    text = path.read_text()
    body = text.split(",".join(columns) + "\n", 1)[1]
    reference = "\n".join(",".join("%.17g" % v for v in row) for row in data) + "\n"
    assert body == reference
    back = read_dataset(path)
    assert back.data.shape == (rows, ncol)
    assert back.data.tobytes() == data.tobytes()


@settings(max_examples=40, deadline=None, phases=_NO_SHRINK)
@given(rows=st.one_of(st.sampled_from([0, 1, 1023, 1024, 1025]),
                      st.integers(0, 2100)),
       ncol=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1),
       drawn=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6))
def test_columns_of_few_values_write_bit_exact(tmp_path_factory, rows, ncol, seed,
                                               drawn):
    # grid axes repeat a few values over many rows: every column draws from
    # a small pool that holds -0.0 and 0.0, the extremes and the drawn
    # floats; the first column holds exactly rows // 4 distinct values and
    # the second one more
    rng = np.random.default_rng(seed)
    pool = np.array(_EDGE_VALUES + tuple(drawn))
    data = pool[rng.integers(0, len(pool), size=(rows, ncol))]
    for j, count in enumerate((rows // 4, rows // 4 + 1)[:ncol]):
        levels = np.concatenate([[-0.0, 0.0, 5e-324, -1e308, 1e308],
                                 np.geomspace(1e-300, 1e300, max(count - 5, 0))])[:count]
        if 0 < count <= rows:
            data[:, j] = rng.permutation(levels[np.arange(rows) % count])
    columns = tuple(f"c{j}" for j in range(ncol))
    ds = ResultDataset(name="levels", columns=columns, data=data, config={})
    path = ds.write(tmp_path_factory.mktemp("levels"))

    body = path.read_text().split(",".join(columns) + "\n", 1)[1]
    reference = "\n".join(",".join("%.17g" % v for v in row) for row in data.tolist()) + "\n"
    assert body == reference
    back = read_dataset(path)
    assert back.data.shape == (rows, ncol)
    assert back.data.tobytes() == data.tobytes()


def test_reruns_are_byte_identical(tmp_path, capsys):
    cfg = default_config("figure1")
    _, first = run_experiment(cfg, out_dir=tmp_path / "a")
    _, second = run_experiment(cfg, out_dir=tmp_path / "b")
    capsys.readouterr()
    assert [p.name for p in first] == [p.name for p in second]
    for pa, pb in zip(first, second):
        assert pa.read_bytes() == pb.read_bytes()
        ja, jb = pa.with_suffix(".json"), pb.with_suffix(".json")
        assert ja.read_bytes() == jb.read_bytes()


@st.composite
def custom_configs(draw) -> dict:
    """A raw custom config over the schema: one to four pulses of both
    shapes, on both systems and in both bases, with ``delta_e``, ``t_end``,
    ``dt``, ``sample_every`` and the orderings drawn too.  Some draws break
    a rule (a zero width, a hydrogen ``delta_e``, a qubit coupled basis, a
    run that ends before it starts, a step far too fine for the run), so
    that rejected configs are drawn as well.  Sizes stay small: at most a
    few ten thousand samples and a few thousand RK4 steps per ordering."""
    system = draw(st.sampled_from(("model-qubit", "hydrogen")))
    # dimensionless times on the model qubit, ps on hydrogen
    scale = 1.0 if system == "model-qubit" else 10.0
    t_k = draw(st.floats(-3.0, 3.0)) * scale
    pulses = []
    for _ in range(draw(st.integers(1, 4))):
        zero = draw(st.integers(0, 31)) == 0
        pulses.append({"shape": draw(st.sampled_from(("gaussian", "rectangular"))),
                       "axis": draw(st.sampled_from(("x", "y"))),
                       "alpha": draw(st.floats(-1.5, 1.5)), "t_k": t_k,
                       "tau": 0.0 if zero else draw(st.floats(0.05, 0.3)) * scale})
        t_k += draw(st.floats(0.05, 2.0)) * scale
    raw = {"experiment": "custom", "system": system, "pulses": pulses,
           # only hydrogen has a coupled basis, so it is drawn rarely on the qubit
           "basis": ("coupled" if draw(st.integers(0, 1 if system == "hydrogen" else 7)) == 0
                     else "j"),
           "sample_every": draw(st.sampled_from((1, 2, 5, 10, 10_000)))}
    if system == "hydrogen":
        raw["hydrogen"] = {**dict(zip(("delta_e_mhz", "e_fs_mhz", "gamma_mhz"),
                                      DEFAULT_MHZ)),
                           "convention": draw(st.sampled_from(("plain", "two_pi")))}
    if system == "model-qubit" or draw(st.integers(0, 7)) == 0:
        raw["delta_e"] = draw(st.sampled_from((1.0, 0.05, 5.0)))
    t_end = draw(st.one_of(st.none(), st.floats(0.5, 8.0)))
    if t_end is not None:
        raw["t_end"] = t_end * scale
    dt = draw(st.one_of(st.none(), st.floats(0.002, 0.05), st.just(1e-9)))
    if dt is not None:
        raw["dt"] = dt * scale
    orderings = draw(st.sampled_from((None, ["forward"], ["reversed"],
                                      ["forward", "reversed"])))
    if orderings is not None:
        raw["orderings"] = orderings
    return raw


def _assert_names_a_field(raw: dict, path: str) -> None:
    """``path`` names a field of ``raw``: a config field (which ``raw`` may
    leave at its default), or an entry of a pulse or hydrogen object in it."""
    head, *keys = path.split(".")
    name, _, index = head.partition("[")
    assert name in {f.name for f in dataclasses.fields(ExperimentConfig)}, path
    value = raw.get(name)
    if index:
        value = value[int(index.rstrip("]"))]
    for key in keys:
        assert key in value, path


@settings(max_examples=100, deadline=None, print_blob=True)
@given(custom_configs())
def test_every_custom_config_runs_and_reads_back_or_names_its_field(raw):
    # CI turns UserWarning into an error; coarse steps, overlaps and the
    # hydrogen checks warn here by design
    with warnings.catch_warnings(), tempfile.TemporaryDirectory() as tmp:
        warnings.simplefilter("ignore", UserWarning)
        try:
            config = ExperimentConfig.from_dict(raw)
        except ConfigError as err:
            event(f"rejected at {err.path.partition('[')[0]}")
            _assert_names_a_field(raw, err.path)
            return
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                datasets, paths = run_experiment(config, out_dir=Path(tmp) / "a")
        except IntegrationDivergedError:
            event("diverged")
            return
        event("ran")
        assert [d.name for d in datasets] == [f"custom_{o}" for o in config.orderings]
        for ds, path in zip(datasets, paths):
            back = read_dataset(path)
            assert (back.name, back.columns) == (ds.name, ds.columns)
            assert back.data.shape == ds.data.shape
            assert back.data.tobytes() == ds.data.tobytes()
            assert (back.config, back.meta) == (ds.config, ds.meta)
        # the config a dataset echoes reproduces every file byte for byte
        echoed = ExperimentConfig.from_dict(read_dataset(paths[0]).config)
        with contextlib.redirect_stdout(io.StringIO()):
            _, again = run_experiment(echoed, out_dir=Path(tmp) / "b")
        assert [p.name for p in again] == [p.name for p in paths]
        for pa, pb in zip(paths, again):
            for suffix in (".csv", ".json"):
                assert pa.with_suffix(suffix).read_bytes() == pb.with_suffix(suffix).read_bytes()


# ------------------------------------------------------------------- runners

def _assert_integration_meta(ds):
    # the run starts at t = 0, so its last sample is n_steps * dt; RK4 only
    # steps the pulse supports, a small share of the span
    n_steps = round(ds.data[-1, 0] / ds.meta["dt"])
    assert ds.data[-1, 0] == n_steps * ds.meta["dt"]
    assert 0 < ds.meta["rk4_steps"] < 0.5 * n_steps
    # the largest |norm - initial norm| over the sampled rows
    norms = ds.data[:, -1]
    assert ds.meta["norm_drift"] == np.max(np.abs(norms - norms[0]))


def test_figure1_is_order_independent(capsys):
    datasets, paths = run_experiment(default_config("figure1"))
    assert paths == []
    out = capsys.readouterr().out
    assert "final P2" in out and "figure1_forward" in out
    by_name = {d.name: d for d in datasets}
    fwd = by_name["figure1_forward"].meta["final_p2"]
    rev = by_name["figure1_reversed"].meta["final_p2"]
    assert abs(fwd - rev) < 1e-9
    # narrow pulses land close to the ideal-kick prediction
    cfg = default_config("figure1")
    u = two_kick_closed(cfg.pulses[0]["alpha"], cfg.pulses[1]["alpha"],
                        MODEL_T1, MODEL_T2, 1.0)
    ideal = abs(u[1, 0]) ** 2
    assert by_name["figure1_forward"].meta["ideal_final_p2"] == pytest.approx(
        ideal, abs=1e-15)
    assert fwd == pytest.approx(ideal, abs=3e-4)
    _assert_integration_meta(by_name["figure1_forward"])


def test_figure3_splits_by_the_ordering_formula(capsys):
    datasets, _ = run_experiment(default_config("figure3"))
    capsys.readouterr()
    by_name = {d.name: d for d in datasets}
    diff = (by_name["figure3_reversed"].meta["final_p2"]
            - by_name["figure3_forward"].meta["final_p2"])
    formula = (math.sin(0.2 * math.pi) * math.sin(0.3 * math.pi)
               * math.sin(MODEL_T2 - MODEL_T1))
    assert diff == pytest.approx(formula, abs=1e-4)


def test_ordering_surface_spot_values():
    ds = run_ordering_surface(3, 5, phi_max=math.pi)
    assert ds.columns == ("epsilon", "phi", "p2", "p2_no_ordering", "diff")
    table = ds.data.reshape(3, 5, 5)
    assert np.array_equal(table[0, :, 2:], np.zeros((5, 3)))  # eps = 0 row
    mid = table[1, 2]  # eps = 0.5, phi = pi/2
    assert mid[:2] == pytest.approx([0.5, math.pi / 2])
    assert mid[2] == pytest.approx(0.25)
    assert mid[3] == pytest.approx(0.5)
    assert mid[4] == pytest.approx(-0.25)
    assert np.max(np.abs(table[2, :, 4])) < 1e-15             # eps = 1 row
    assert ds.meta["min_diff"] == pytest.approx(ds.data[:, 4].min())
    assert ds.config["grid"] == {"n_epsilon": 3, "n_phi": 5,
                                 "phi_max": math.pi}
    with pytest.raises(ConfigError, match=">= 2"):
        run_ordering_surface(1, 5)


@pytest.mark.parametrize("grid", [(3, 5, 2.0 * math.pi), (200, 200, math.pi)])
def test_ordering_surface_rejects_a_config_with_another_grid(grid):
    # the dataset echoes the config, so its grid must be the table's
    with pytest.raises(ConfigError, match="differs") as err:
        run_ordering_surface(*grid, config=default_config("figure7"))
    assert err.value.path == "grid"
    ds = run_ordering_surface(200, 200, 2.0 * math.pi, config=default_config("figure7"))
    assert ds.data.shape[0] == 200 * 200


@pytest.mark.parametrize("t_k", [1.0, 1.3, 1.49])
def test_convergence_scan_at_tau_over_20_does_not_warn(t_k):
    # the scan asks for dt = tau/20 exactly, and the window ends t_k +- 1.5
    # tau round by about an ulp of t_k: that is no coarse step
    config = ExperimentConfig(
        experiment="convergence",
        pulses=({"shape": "rectangular", "axis": "x", "alpha": 0.5, "t_k": t_k,
                 "tau": 1e-5},), taus=(1e-5,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ds = run_convergence(config)
    assert ds.data.shape == (1, 3)


def test_convergence_scan_finds_the_first_order_law(capsys):
    ds = run_convergence(default_config("convergence"))
    capsys.readouterr()
    assert ds.columns == ("tau", "beta", "distance")
    assert ds.data.shape == (7, 3)
    assert np.all(ds.data[:, 2] > 0)
    assert np.all(np.diff(ds.data[:, 2]) < 0)  # narrower pulse, smaller error
    assert ds.meta["slope"] == pytest.approx(1.0, abs=0.01)
    assert ds.meta["coefficient_per_beta"] == pytest.approx(
        ds.meta["predicted_coefficient"], rel=1e-3)
    alpha = 0.25 * math.pi
    assert ds.meta["predicted_coefficient"] == pytest.approx(
        abs(math.sin(alpha) / alpha - math.cos(alpha)))


@pytest.mark.parametrize("alpha", [1e-8, 1e-5])
def test_predicted_coefficient_keeps_its_digits_for_a_small_area(alpha):
    # sin(alpha)/alpha - cos(alpha) cancels every digit at alpha = 1e-8;
    # the series of kick_width_error does not
    config = ExperimentConfig(
        experiment="convergence",
        pulses=({"shape": "rectangular", "axis": "x", "alpha": alpha, "t_k": 1.0,
                 "tau": 0.02},), taus=(0.02, 0.01))
    ds = run_convergence(config)
    assert ds.meta["predicted_coefficient"] == pytest.approx(
        alpha ** 2 / 3 - alpha ** 4 / 30, rel=1e-12, abs=0.0)


def test_run_experiment_prints_the_convergence_slope(capsys):
    # a width of 0 is the ideal kick itself: its row is 0, 0, 0, and the fit
    # leaves it out
    config = ExperimentConfig(
        experiment="convergence",
        pulses=({"shape": "rectangular", "axis": "x", "alpha": 0.5, "t_k": 1.0,
                 "tau": 0.02},), taus=(0.02, 0.01, 0.0))
    datasets, paths = run_experiment(config)
    assert paths == []
    (ds,) = datasets
    assert ds.data[-1].tolist() == [0.0, 0.0, 0.0]
    assert ds.meta["slope"] == pytest.approx(1.0, abs=0.01)
    assert capsys.readouterr().out == (
        f"convergence: error slope vs tau = {ds.meta['slope']:.3f}\n")
    # one nonzero distance leaves no slope to fit
    datasets, _ = run_experiment(dataclasses.replace(config, taus=(0.01, 0.0)))
    assert "slope" not in datasets[0].meta
    assert capsys.readouterr().out == "convergence: error slope vs tau = n/a\n"


def test_hydrogen_experiment_dataset(capsys):
    datasets, _ = run_experiment(default_config("figure5"))
    out = capsys.readouterr().out
    assert "final P_target" in out
    by_name = {d.name: d for d in datasets}
    fwd = by_name["figure5_forward"]
    assert fwd.columns == ("t", "p1", "p2", "p3", "norm")
    assert fwd.meta["unit_convention"] == "plain"
    # decay makes the norm fall; both orderings lose population
    assert fwd.meta["final_norm"] < 1.0
    assert 0 < fwd.meta["final_p_target"] < 1
    # with decay on, the two orderings genuinely differ
    rev = by_name["figure5_reversed"]
    assert abs(fwd.meta["final_p_target"] - rev.meta["final_p_target"]) > 0.01
    _assert_integration_meta(fwd)


def test_run_experiment_warns_on_overlapping_pulses(capsys):
    raw = _raw()
    raw["pulses"][1]["t_k"] = 1.02  # gap 0.02 < 4 * (tau_i + tau_j) = 0.08
    raw["dt"] = 0.0005
    cfg = ExperimentConfig.from_dict(raw)
    with pytest.warns(UserWarning, match="overlap"):
        run_experiment(cfg)
    capsys.readouterr()


def test_hydrogen_run_warns_on_overlapping_pulses(capsys):
    # 150 ps pulses one revival period (~573 ps) apart: 4 * (tau_i + tau_j)
    # = 1200 ps exceeds the gap.  No decay, so no decay-tail warning.
    t_r = revival_time(default_params())
    raw = {
        "experiment": "custom", "system": "hydrogen",
        "hydrogen": {"delta_e_mhz": DEFAULT_MHZ[0], "e_fs_mhz": DEFAULT_MHZ[1],
                     "gamma_mhz": 0.0},
        "pulses": [
            {"shape": "gaussian", "axis": "x", "alpha": 0.3, "t_k": 20.0, "tau": 150.0},
            {"shape": "gaussian", "axis": "x", "alpha": 0.2, "t_k": 20.0 + t_r,
             "tau": 150.0},
        ],
        "sample_every": 50,
    }
    with pytest.warns(UserWarning, match="overlap"):
        run_experiment(ExperimentConfig.from_dict(raw))
    capsys.readouterr()


def test_a_hydrogen_config_warns_as_its_orderings_run_one_by_one(capsys):
    # pulses 0.4 revival periods apart, a run into the decay tail and a step
    # above tau/20: the config checks each ordering in turn before the one
    # pass, and warns as validate_sequence and run_pulse_sequence do for
    # each ordering in turn
    t_r = revival_time(default_params())
    config = ExperimentConfig.from_dict({
        "experiment": "custom", "system": "hydrogen", "orderings": ["forward", "reversed"],
        "hydrogen": dict(zip(("delta_e_mhz", "e_fs_mhz", "gamma_mhz"), DEFAULT_MHZ)),
        "pulses": [
            {"shape": "gaussian", "axis": "x", "alpha": 0.3, "t_k": 20.0, "tau": 1.0},
            {"shape": "rectangular", "axis": "y", "alpha": 0.2, "t_k": 20.0 + 0.4 * t_r,
             "tau": 2.0}],
        "dt": 0.06, "t_end": 1000.0, "sample_every": 100})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_experiment(config)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as expected:
        warnings.simplefilter("always")
        for ordering in config.orderings:
            seq, t_end = config._runs[ordering]
            experiments.validate_sequence(seq)
            run_pulse_sequence(config._params, seq, dt=config.dt, sample_every=100,
                               t_end=t_end)
    messages = [str(w.message) for w in caught]
    assert messages == [str(w.message) for w in expected]
    assert sum("revival periods" in m for m in messages) == 2
    assert sum("decay tail" in m for m in messages) == 2
    assert sum("tau/20" in m for m in messages) == 2


@pytest.mark.parametrize("module, name", [
    ("experiments", "integrate"), ("experiments", "run_pulse_sequence"),
    ("experiments", "validate_sequence"), ("experiments", "multi_kick"),
    ("experiments", "ResultDataset.write"), ("hydrogen", "integrate"),
    ("propagators", "validate_sequence")])
def test_the_names_the_traced_benchmark_wraps_stay_in_place(module, name):
    # perfbench/worker.py install_spans replaces these by attribute; a
    # missing one makes perfbench/run.py --trace 1 fail
    owner = importlib.import_module(f"kickedqubit.{module}")
    for part in name.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
