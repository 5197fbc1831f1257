import json

import pytest

from satmetric import xyz
from satmetric.cli import main
from satmetric.errors import ConfigError, SatmetricError
from satmetric.ingest import ResponseKind, generate_synthetic, serialize_response_set
from satmetric.instrument import serialize_instrument
from satmetric.pipeline import Config, Inputs, run, surveys
from satmetric.report import write_report


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    d = tmp_path_factory.mktemp("pipeline")
    instrument = xyz.xyz_instrument()
    (d / "xyz.json").write_text(json.dumps(serialize_instrument(instrument)))
    (d / "weights.json").write_text(json.dumps({"means": xyz.importance_means()}))
    for seed, (kind, means, name) in enumerate(
            ((ResponseKind.EXPECTATION, xyz.expectation_means(), "e.csv"),
             (ResponseKind.PERCEPTION, xyz.perception_means(), "p.csv"))):
        rs = generate_synthetic(means, 81, instrument.scale, seed=seed, kind=kind)
        (d / name).write_bytes(serialize_response_set(rs, instrument))
    return d


@pytest.mark.parametrize("paths", [
    {"weights": "w.json"},
    {"perceive": "p.csv", "importance": "i.csv", "weights": "w.json"},
    {"perceive": "p.csv"},
], ids=["no_perception", "both_weights", "neither_weights"])
def test_incomplete_inputs_raise_a_satmetric_error(paths):
    """The check comes before any file is read, so the paths need not exist."""
    with pytest.raises(SatmetricError, match="the gap analysis needs"):
        run(Inputs(instrument="xyz.json", expect="e.csv", **paths), Config())


@pytest.mark.parametrize("setting, allowed", [
    ("variance_mode", "population, sample"),
    ("missing_policy", "drop_row, fail"),
])
def test_bad_setting_raises_a_config_error_naming_the_choices(study, setting, allowed):
    inputs = Inputs(instrument=str(study / "xyz.json"), expect=str(study / "e.csv"),
                    perceive=str(study / "p.csv"), weights=str(study / "weights.json"))
    with pytest.raises(ConfigError, match=f"^{setting} 'bogus' is not one of: {allowed}$"):
        run(inputs, Config(**{setting: "bogus"}))
    if setting == "missing_policy":
        with pytest.raises(ConfigError, match=allowed):
            next(surveys(xyz.xyz_instrument(), "bogus", inputs.expect))


@pytest.mark.parametrize("setting, value, noun", [
    ("alpha_threshold", "x", "a number"),
    ("alpha_threshold", True, "a number"),
    ("pareto_threshold", "x", "a number"),
    ("kano_multipliers", 5, "a string or None"),
    ("strict_gate", "no", "a bool"),
    ("normalize_weights", 1, "a bool"),
    ("unweighted_contributions", None, "a bool"),
])
def test_wrongly_typed_setting_raises_a_config_error_naming_it(setting, value, noun):
    """The check comes before any file is read, so the paths need not exist."""
    inputs = Inputs(instrument="xyz.json", expect="e.csv", perceive="p.csv", weights="w.json")
    with pytest.raises(ConfigError, match=f"^{setting} must be {noun}, got {value!r}$"):
        run(inputs, Config(**{setting: value}))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("setting", ["alpha_threshold", "pareto_threshold"])
def test_non_finite_threshold_raises_a_config_error_naming_it(setting, value):
    """Refused before any file is read (the paths do not exist), so a NaN gate
    never reaches the report, whose JSON cannot hold it."""
    inputs = Inputs(instrument="xyz.json", expect="e.csv", perceive="p.csv", weights="w.json")
    with pytest.raises(ConfigError, match=f"^{setting} must be finite, got {value!r}$"):
        run(inputs, Config(**{setting: value}))


def test_run_and_write_report_match_the_cli(study, capsys):
    inputs = Inputs(instrument=str(study / "xyz.json"), expect=str(study / "e.csv"),
                    perceive=str(study / "p.csv"), weights=str(study / "weights.json"))
    config = Config(kano_multipliers="must_be=3", unweighted_contributions=True)
    write_report(run(inputs, config, timestamp=False), study / "lib" / "r")
    assert main(["gap", "--instrument", inputs.instrument, "--expect", inputs.expect,
                 "--perceive", inputs.perceive, "--weights", inputs.weights,
                 "--kano-multipliers", "must_be=3", "--unweighted-contributions",
                 "--suppress-timestamp", "--out", str(study / "cli" / "r")]) == 0
    lib = {p.relative_to(study / "lib"): p.read_bytes()
           for p in (study / "lib").rglob("*") if p.is_file()}
    cli = {p.relative_to(study / "cli"): p.read_bytes()
           for p in (study / "cli").rglob("*") if p.is_file()}
    assert len(lib) == 12 and lib == cli

    # synthetic columns are independent, so both surveys fail the 0.6 gate
    assert run(inputs, Config(strict_gate=True)) is None
    assert capsys.readouterr().err.count("refusing to emit scores") == 2
