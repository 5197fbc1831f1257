import json
import re
from fractions import Fraction

import numpy as np
import pytest
from conftest import dirty_xyz_csv

from satmetric import ingest, pipeline, xyz
from satmetric.cli import main
from satmetric.errors import ConfigError, DataError, DefinitionError, SatmetricError
from satmetric.ingest import ResponseKind, RowError, generate_synthetic, serialize_response_set
from satmetric.instrument import serialize_instrument
from satmetric.pipeline import Config, Inputs, run, surveys
from satmetric.report import FORMATS, emit, write_report
from satmetric.servqual import weights_from_means


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
    """The check comes before any file is read, so the paths need not exist.
    A setting is read by schema.read, so the error carries its wording for
    the type that ``noun`` names."""
    inputs = Inputs(instrument="xyz.json", expect="e.csv", perceive="p.csv", weights="w.json")
    wanted = {"a number": "a finite number", "a bool": "true or false",
              "a string or None": "a string"}[noun]
    with pytest.raises(ConfigError, match=f"^{setting} must be {wanted}, got {value!r}$"):
        run(inputs, Config(**{setting: value}))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("setting", ["alpha_threshold", "pareto_threshold"])
def test_non_finite_threshold_raises_a_config_error_naming_it(setting, value):
    """Refused before any file is read (the paths do not exist), so a NaN gate
    never reaches the report, whose JSON cannot hold it."""
    inputs = Inputs(instrument="xyz.json", expect="e.csv", perceive="p.csv", weights="w.json")
    with pytest.raises(ConfigError, match=f"^{setting} must be a finite number, got {value!r}$"):
        run(inputs, Config(**{setting: value}))


@pytest.mark.parametrize("value", [np.float32(0.5), np.float64(0.5), Fraction(1, 2)],
                         ids=["float32", "float64", "Fraction"])
def test_threshold_of_another_number_type_reports_as_its_float(study, value):
    """A setting is read as a plain float, so the report, which holds it in
    its config block, is the one that the float gives."""
    inputs = Inputs(instrument=str(study / "xyz.json"), expect=str(study / "e.csv"),
                    perceive=str(study / "p.csv"), weights=str(study / "weights.json"))
    plain, other = (run(inputs, Config(alpha_threshold=v), timestamp=False) for v in (0.5, value))
    assert {name: emit(other, name) for name in FORMATS} == \
        {name: emit(plain, name) for name in FORMATS}


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


def _with_weights(study, tmp_path, doc) -> Inputs:
    (tmp_path / "w.json").write_text(json.dumps(doc))
    return Inputs(instrument=str(study / "xyz.json"), expect=str(study / "e.csv"),
                  perceive=str(study / "p.csv"), weights=str(tmp_path / "w.json"))


@pytest.mark.parametrize("extra, key", [
    ({"n_respondent": 82}, "n_respondent"),
    ({"n_respondents": 82, "note": "x"}, "note"),
], ids=["misspelt_count", "note"])
def test_weights_file_with_an_unknown_key_is_refused(study, tmp_path, extra, key):
    """A misspelt ``n_respondents`` would leave the report's importance count null."""
    inputs = _with_weights(study, tmp_path, {"means": xyz.importance_means(), **extra})
    with pytest.raises(DefinitionError,
                       match=f"^weights: unknown fields {re.escape(str([key]))}$"):
        run(inputs, timestamp=False)


@pytest.mark.parametrize("doc, n", [
    (xyz.importance_means(), None),
    ({"means": xyz.importance_means()}, None),
    ({"means": xyz.importance_means(), "n_respondents": 82}, 82),
], ids=["bare_means", "means", "means_and_count"])
def test_weights_file_shapes_give_the_weights_of_their_means(study, tmp_path, doc, n):
    report = run(_with_weights(study, tmp_path, doc), timestamp=False)
    assert report.importance_weights == weights_from_means(xyz.importance_means(), n)
    assert report.metadata.respondents.importance == n


@pytest.mark.parametrize("policy", ["drop_row", "fail"])
def test_surveys_stderr_is_the_same_on_both_routes(study, tmp_path, monkeypatch, capsys, policy):
    """surveys writes the same stderr, and under fail raises the same error,
    whether the line route or parse_response_rows reads a dirty file."""
    (tmp_path / "e.csv").write_bytes(dirty_xyz_csv())
    paths = str(tmp_path / "e.csv"), str(study / "p.csv")

    def outcome():
        try:
            error = len(list(surveys(xyz.xyz_instrument(), policy, *paths)))
        except DataError as exc:
            error = str(exc)
        return capsys.readouterr().err, error

    line = outcome()
    if policy == "fail":
        assert line == ("", "row 4, column *: expected 18 fields, got 3 [row_length]")
    else:
        assert line[0].count("\n") == 6 and line[1] == 2
    for module in (ingest, pipeline):  # the line route declines every file
        monkeypatch.setattr(module, "cut_lines", lambda *args: None)
    assert outcome() == line


@pytest.mark.parametrize("command", ["gap", "validate", "descriptives", "reliability"])
def test_survey_commands_build_no_row_error(study, tmp_path, monkeypatch, capsys, command):
    """A RowError is built only when row_errors is read, which no command
    does: each writes its row diagnostics from the plain tuples."""
    (tmp_path / "e.csv").write_bytes(dirty_xyz_csv())
    built = []
    real = RowError.__init__

    def spy(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(RowError, "__init__", spy)
    argv = [command, "--instrument", str(study / "xyz.json"),
            "--expect", str(tmp_path / "e.csv"), "--perceive", str(study / "p.csv")]
    if command == "gap":
        argv += ["--weights", str(study / "weights.json"), "--out", str(tmp_path / "out")]
    assert main(argv) == (1 if command == "validate" else 0)
    assert capsys.readouterr().err.count("[duplicate_id]") == 1
    assert built == []
    report = ingest.parse_response_file(dirty_xyz_csv(), xyz.xyz_instrument(),
                                        ResponseKind.EXPECTATION)[1]
    assert len(report.row_errors) == len(built) == 6  # the spy sees a read
