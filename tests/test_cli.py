import codecs
import contextlib
import hashlib
import ctypes
import io
import json
import os
import re
import subprocess
import sys
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest
from conftest import examples
from hypothesis import given, settings
from hypothesis import strategies as st

from satmetric import cli, pipeline
from satmetric.cli import main
from satmetric.instrument import serialize_instrument
from satmetric.qfd import serialize_hoq
from satmetric.rootcause import serialize_fishbone
from satmetric import xyz

GOOD_LIKERT = "respondent_id,q1,q2,q3\nr1,4,4,4\nr2,3,5,2\nr3,2,1,5\nr4,5,3,3\n"


@pytest.fixture()
def workdir(tmp_path):
    instrument = {
        "scale": {"min": 1, "max": 5},
        "items": [
            {"id": 1, "prompt": "a", "dimension": "reliability", "kano": "must_be"},
            {"id": 2, "prompt": "b", "dimension": "responsiveness", "kano": "performance"},
            {"id": 3, "prompt": "c", "dimension": "assurance", "kano": "must_be"},
        ],
    }
    (tmp_path / "tiny.json").write_text(json.dumps(instrument))
    (tmp_path / "good.csv").write_text(GOOD_LIKERT)
    return tmp_path


@pytest.fixture()
def xyz_dir(tmp_path):
    instrument = xyz.xyz_instrument()
    (tmp_path / "xyz.json").write_text(json.dumps(serialize_instrument(instrument)))
    (tmp_path / "weights.json").write_text(json.dumps(
        {"means": xyz.importance_means(), "n_respondents": xyz.N_IMPORTANCE}))
    (tmp_path / "e_targets.json").write_text(json.dumps(xyz.expectation_means()))
    (tmp_path / "p_targets.json").write_text(json.dumps(xyz.perception_means()))
    assert main(["synth", "--instrument", str(tmp_path / "xyz.json"),
                 "--targets", str(tmp_path / "e_targets.json"), "--n", "81",
                 "--seed", "1", "--kind", "expectation",
                 "--out", str(tmp_path / "e.csv")]) == 0
    assert main(["synth", "--instrument", str(tmp_path / "xyz.json"),
                 "--targets", str(tmp_path / "p_targets.json"), "--n", "81",
                 "--seed", "2", "--kind", "perception",
                 "--out", str(tmp_path / "p.csv")]) == 0
    return tmp_path


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert main(["gap", "--instrument", "x.json"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_is_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_bad_data_is_1(self, workdir, capsys):
        bad = workdir / "bad.csv"
        bad.write_text("respondent_id,q1,q2,q3\nr1,9,9,9\n")
        rc = main(["descriptives", "--instrument", str(workdir / "tiny.json"),
                   "--expect", str(bad)])
        assert rc == 1
        assert "no valid rows" in capsys.readouterr().err

    def test_missing_file_is_1(self, workdir, capsys):
        rc = main(["descriptives", "--instrument", str(workdir / "tiny.json"),
                   "--expect", str(workdir / "absent.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestValidate:
    def test_clean_files_exit_0(self, workdir, capsys):
        rc = main(["validate", "--instrument", str(workdir / "tiny.json"),
                   "--expect", str(workdir / "good.csv")])
        assert rc == 0
        assert "4 accepted, 0 rejected" in capsys.readouterr().out

    def test_instrument_alone_exits_0(self, workdir, capsys):
        assert main(["validate", "--instrument", str(workdir / "tiny.json")]) == 0
        assert capsys.readouterr().out == "instrument OK; no response files given\n"

    def test_rejections_exit_1_with_row_diagnostics(self, workdir, capsys):
        mixed = workdir / "mixed.csv"
        mixed.write_text("respondent_id,q1,q2,q3\nr1,4,4,4\nr2,6,4,4\n")
        rc = main(["validate", "--instrument", str(workdir / "tiny.json"),
                   "--expect", str(mixed)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "row 2, column q1" in captured.err
        assert "out_of_range" in captured.err

    def test_each_summary_is_printed_before_the_next_file_is_read(self, workdir, capsys):
        (workdir / "bad_header.csv").write_text("respondent_id,q1,q2,qX\nr1,4,4,4\n")
        rc = main(["validate", "--instrument", str(workdir / "tiny.json"),
                   "--expect", str(workdir / "good.csv"),
                   "--perceive", str(workdir / "bad_header.csv")])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == f"{workdir / 'good.csv'}: 4 accepted, 0 rejected (expectation)\n"
        assert captured.err.startswith("error:")

    def test_row_diagnostics_of_a_file_are_one_write(self, workdir):
        class Writes(io.StringIO):
            def __init__(self):
                super().__init__()
                self.chunks = []

            def write(self, text):
                self.chunks.append(text)
                return super().write(text)

        mixed = workdir / "ids.csv"
        mixed.write_text("respondent_id,q1,q2,q3\n,4,4,4\nr1,6,4,4\nr2,4,4,4\nr2,1,1,1\n")
        err = Writes()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["validate", "--instrument", str(workdir / "tiny.json"),
                       "--expect", str(mixed), "--perceive", str(mixed)])
        assert rc == 1
        lines = [f"{mixed}: row 1, column respondent_id: respondent id is empty [empty_id]\n",
                 f"{mixed}: row 2, column q1: value 6 outside scale [1, 5] [out_of_range]\n",
                 f"{mixed}: row 4, column respondent_id: respondent id 'r2' repeats row 3 "
                 "[duplicate_id]\n"]
        assert err.chunks == ["".join(lines)] * 2

    @pytest.mark.parametrize("policy", ["drop_row", "fail"])
    def test_cell_over_the_int_digit_limit_is_a_row_diagnostic(self, workdir, capsys, policy):
        """Not a ValueError traceback: a row diagnostic, or under policy
        fail the DataError of that row."""
        huge = workdir / "huge.csv"
        huge.write_text(f"respondent_id,q1,q2,q3\nr1,4,4,4\nr2,4,{'8' * 5000},4\n")
        rc = main(["validate", "--instrument", str(workdir / "tiny.json"),
                   "--expect", str(huge), "--missing-policy", policy])
        err = capsys.readouterr().err
        assert rc == 1
        assert "row 2, column q2: value of 5000 digits exceeds the" in err
        assert "[out_of_range]" in err and "Traceback" not in err

    def test_importance_sum_violation_diagnosed(self, workdir, capsys):
        imp = workdir / "imp.csv"
        imp.write_text(
            "respondent_id,tangibles,reliability,responsiveness,assurance,empathy\n"
            "r1,40,30,20,5,4\nr2,20,20,20,20,20\n")
        rc = main(["validate", "--instrument", str(workdir / "tiny.json"),
                   "--importance", str(imp)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "sum_not_100" in captured.err
        assert "1 accepted, 1 rejected" in captured.out

    def test_multiple_of_five_violation_diagnosed(self, workdir, capsys):
        imp = workdir / "imp5.csv"
        imp.write_text(
            "respondent_id,tangibles,reliability,responsiveness,assurance,empathy\n"
            "r1,33,33,34,0,0\nr2,20,20,20,20,20\n")
        rc = main(["validate", "--instrument", str(workdir / "tiny.json"),
                   "--importance", str(imp)])
        assert rc == 1
        assert "not_multiple_of_five" in capsys.readouterr().err


class TestDescriptivesAndReliability:
    def test_descriptives_csv_on_stdout(self, workdir, capsys):
        rc = main(["descriptives", "--instrument", str(workdir / "tiny.json"),
                   "--expect", str(workdir / "good.csv")])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "survey,item_id,mean,variance,n"
        assert lines[1].split(",")[:2] == ["expectation", "1"]
        assert float(lines[1].split(",")[2]) == 3.5

    def test_reliability_gate_advisory_then_strict(self, workdir, capsys):
        args = ["reliability", "--instrument", str(workdir / "tiny.json"),
                "--expect", str(workdir / "good.csv"), "--alpha-threshold", "0.99"]
        assert main(args) == 0  # advisory: reported, still exit 0
        err = capsys.readouterr().err
        assert "does not exceed 0.99" in err
        assert main(args + ["--strict-gate"]) == 1

    def test_reliability_requires_a_survey(self, workdir, capsys):
        rc = main(["reliability", "--instrument", str(workdir / "tiny.json")])
        assert rc == 1
        assert capsys.readouterr().err == "error: provide --expect and/or --perceive\n"

    def test_descriptives_requires_a_survey(self, workdir, capsys):
        rc = main(["descriptives", "--instrument", str(workdir / "tiny.json")])
        assert rc == 1
        assert capsys.readouterr() == ("", "error: provide --expect and/or --perceive\n")

    def test_reliability_csv_matches_gap_bundle_table(self, xyz_dir):
        inputs = ["--instrument", str(xyz_dir / "xyz.json"),
                  "--expect", str(xyz_dir / "e.csv"), "--perceive", str(xyz_dir / "p.csv")]
        assert main(["reliability", *inputs, "--out", str(xyz_dir / "rel.csv")]) == 0
        assert main(["gap", *inputs, "--weights", str(xyz_dir / "weights.json"),
                     "--formats", "csv", "--out", str(xyz_dir / "bundle" / "xyz")]) == 0
        assert (xyz_dir / "rel.csv").read_bytes() == \
            (xyz_dir / "bundle" / "xyz.tables" / "reliability.csv").read_bytes()


class TestGapPipeline:
    def test_happy_path_writes_report_files(self, xyz_dir):
        rc = main(["gap", "--instrument", str(xyz_dir / "xyz.json"),
                   "--expect", str(xyz_dir / "e.csv"),
                   "--perceive", str(xyz_dir / "p.csv"),
                   "--weights", str(xyz_dir / "weights.json"),
                   "--out", str(xyz_dir / "out" / "xyz")])
        assert rc == 0
        report = json.loads((xyz_dir / "out" / "xyz.report.json").read_text())
        assert report["gap_analysis"]["overall"]["weighted_sum"] == pytest.approx(
            -25.25148048, abs=1e-6)
        assert (xyz_dir / "out" / "xyz.tables" / "gaps.csv").exists()
        assert (xyz_dir / "out" / "xyz.charts" / "dimension_weights.svg").exists()

    def test_importance_csv_route(self, workdir):
        (workdir / "e.csv").write_text(GOOD_LIKERT)
        (workdir / "p.csv").write_text(GOOD_LIKERT)
        (workdir / "i.csv").write_text(
            "respondent_id,tangibles,reliability,responsiveness,assurance,empathy\n"
            "r1,10,40,25,15,10\nr2,20,30,20,15,15\n")
        rc = main(["gap", "--instrument", str(workdir / "tiny.json"),
                   "--expect", str(workdir / "e.csv"),
                   "--perceive", str(workdir / "p.csv"),
                   "--importance", str(workdir / "i.csv"),
                   "--out", str(workdir / "r")])
        # tiny instrument misses two dimensions: gap analysis must refuse
        assert rc == 1

    def test_importance_csv_happy_path(self, xyz_dir):
        rows = ["r1,10,40,25,15,10", "r2,20,30,20,15,15", "r3,5,45,25,15,10"]
        (xyz_dir / "i.csv").write_text(
            "respondent_id,tangibles,reliability,responsiveness,assurance,empathy\n"
            + "\n".join(rows) + "\n")
        rc = main(["gap", "--instrument", str(xyz_dir / "xyz.json"),
                   "--expect", str(xyz_dir / "e.csv"),
                   "--perceive", str(xyz_dir / "p.csv"),
                   "--importance", str(xyz_dir / "i.csv"),
                   "--out", str(xyz_dir / "icsv" / "xyz")])
        assert rc == 0
        report = json.loads((xyz_dir / "icsv" / "xyz.report.json").read_text())
        weights = report["importance_weights"]
        assert weights["n_respondents"] == 3
        assert weights["sum_of_means"] == pytest.approx(100.0, abs=1e-9)
        assert weights["means"]["reliability"] == pytest.approx(115 / 3, rel=1e-12)
        # exact row sums: no drift warning on this route
        assert "IMPORTANCE_SUM_DRIFT" not in [w["code"] for w in report["warnings"]]

    def test_dropped_rows_surface_as_report_warning(self, xyz_dir, capsys):
        bad_row = "x99," + ",".join(["6"] + ["4"] * 16)
        e_text = (xyz_dir / "e.csv").read_text()
        (xyz_dir / "e_dirty.csv").write_text(e_text + bad_row + "\n")
        rc = main(["gap", "--instrument", str(xyz_dir / "xyz.json"),
                   "--expect", str(xyz_dir / "e_dirty.csv"),
                   "--perceive", str(xyz_dir / "p.csv"),
                   "--weights", str(xyz_dir / "weights.json"),
                   "--out", str(xyz_dir / "dirty" / "xyz")])
        assert rc == 0  # drop_row policy tolerates the bad row
        assert "out_of_range" in capsys.readouterr().err
        report = json.loads((xyz_dir / "dirty" / "xyz.report.json").read_text())
        rejected = [w for w in report["warnings"] if w["code"] == "ROWS_REJECTED"]
        assert len(rejected) == 1 and "1 of 82" in rejected[0]["message"]
        assert report["metadata"]["respondents"]["expectation"] == 81

    def test_strict_gate_refuses_scores(self, xyz_dir, capsys):
        rc = main(["gap", "--instrument", str(xyz_dir / "xyz.json"),
                   "--expect", str(xyz_dir / "e.csv"),
                   "--perceive", str(xyz_dir / "p.csv"),
                   "--weights", str(xyz_dir / "weights.json"),
                   "--strict-gate",
                   "--out", str(xyz_dir / "gated" / "xyz")])
        # synthetic columns are independent, so alpha fails the 0.6 gate
        assert rc == 1
        assert "refusing to emit" in capsys.readouterr().err
        assert not (xyz_dir / "gated" / "xyz.report.json").exists()

    def test_exclusive_weights_inputs(self, xyz_dir, capsys):
        rc = main(["gap", "--instrument", str(xyz_dir / "xyz.json"),
                   "--expect", str(xyz_dir / "e.csv"),
                   "--perceive", str(xyz_dir / "p.csv"),
                   "--importance", "i.csv", "--weights", "w.json",
                   "--out", "x"])
        assert rc == 2

    def test_kano_multiplier_override(self, xyz_dir):
        rc = main(["gap", "--instrument", str(xyz_dir / "xyz.json"),
                   "--expect", str(xyz_dir / "e.csv"),
                   "--perceive", str(xyz_dir / "p.csv"),
                   "--weights", str(xyz_dir / "weights.json"),
                   "--kano-multipliers", "must_be=2,performance=1,delighter=0,indifferent=0",
                   "--out", str(xyz_dir / "km" / "xyz")])
        assert rc == 0
        report = json.loads((xyz_dir / "km" / "xyz.report.json").read_text())
        assert report["metadata"]["config"]["kano_multipliers"]["must_be"] == 2.0

    def test_repeated_kano_category_is_1(self, xyz_dir, capsys):
        rc = main(["gap", "--instrument", str(xyz_dir / "xyz.json"),
                   "--expect", str(xyz_dir / "e.csv"),
                   "--perceive", str(xyz_dir / "p.csv"),
                   "--weights", str(xyz_dir / "weights.json"),
                   "--kano-multipliers", "must_be=2, must_be =0",
                   "--out", str(xyz_dir / "twice" / "xyz")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: multiplier for 'must_be' is given more than once\n"
        assert not (xyz_dir / "twice").exists()

    @pytest.mark.parametrize("case", ["kano_multiplier", "hoq_importance"])
    def test_overflowing_finite_input_is_1(self, xyz_dir, capsys, case):
        # each input is finite, but the priority score or the HoQ weight sum is not
        extra = ["--kano-multipliers", "must_be=1e308"]
        if case == "hoq_importance":
            hoq = serialize_hoq(xyz.load_xyz_hoq())
            hoq["customer_reqs"][0]["importance"] = 1e308
            (xyz_dir / "hoq.json").write_text(json.dumps(hoq))
            extra = ["--hoq", str(xyz_dir / "hoq.json")]
        rc = main(["gap", "--instrument", str(xyz_dir / "xyz.json"),
                   "--expect", str(xyz_dir / "e.csv"),
                   "--perceive", str(xyz_dir / "p.csv"),
                   "--weights", str(xyz_dir / "weights.json"),
                   *extra, "--out", str(xyz_dir / "overflow" / "xyz")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "overflow" in err
        assert "Traceback" not in err
        assert not (xyz_dir / "overflow").exists()

    @pytest.mark.parametrize("bad", [["--kano-multipliers", "must_be"]], ids=["kano_spec"])
    def test_row_diagnostics_precede_a_later_input_error(self, xyz_dir, capsys, bad):
        """The CSVs are read (and their rejections written) before the Kano
        spec is parsed."""
        bad_row = "x99," + ",".join(["6"] + ["4"] * 16)
        (xyz_dir / "e_dirty.csv").write_text((xyz_dir / "e.csv").read_text() + bad_row + "\n")
        rc = main(["gap", "--instrument", str(xyz_dir / "xyz.json"),
                   "--expect", str(xyz_dir / "e_dirty.csv"),
                   "--perceive", str(xyz_dir / "p.csv"),
                   "--weights", str(xyz_dir / "weights.json"),
                   *bad, "--out", str(xyz_dir / "late" / "xyz")])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 2
        assert err[0].startswith(f"{xyz_dir / 'e_dirty.csv'}: row 82, column q1:")
        assert err[1].startswith("error: bad multiplier entry 'must_be'")

    @pytest.mark.parametrize("bad", ["weights", "hoq", "hoq_path", "fishbone"])
    def test_definition_files_are_checked_before_the_csvs(self, xyz_dir, capsys, bad):
        """A weights, HoQ or fishbone file that fails its check ends the call
        before any CSV is read: one error line, no row diagnostic of the
        dirty CSV, no output file."""
        bad_row = "x99," + ",".join(["6"] + ["4"] * 16)
        (xyz_dir / "e_dirty.csv").write_text((xyz_dir / "e.csv").read_text() + bad_row + "\n")
        weights = {"means": xyz.importance_means(), "n_respondents": xyz.N_IMPORTANCE}
        hoq = serialize_hoq(xyz.load_xyz_hoq())
        fishbone = serialize_fishbone(xyz.load_xyz_fishbone())
        if bad == "weights":
            weights["means"]["tangibles"] = -10
        elif bad == "hoq":
            hoq["customer_reqs"][0]["importance"] = "high"
        elif bad == "fishbone":
            fishbone["effect"] = ""
        for name, doc in (("weights", weights), ("hoq", hoq), ("fishbone", fishbone)):
            (xyz_dir / f"{name}.json").write_text(json.dumps(doc))
        hoq_path = xyz_dir / ("absent_hoq.json" if bad == "hoq_path" else "hoq.json")
        rc = main(["gap", "--instrument", str(xyz_dir / "xyz.json"),
                   "--expect", str(xyz_dir / "e_dirty.csv"),
                   "--perceive", str(xyz_dir / "p.csv"),
                   "--weights", str(xyz_dir / "weights.json"), "--hoq", str(hoq_path),
                   "--fishbone", str(xyz_dir / "fishbone.json"),
                   "--out", str(xyz_dir / "early" / "xyz")])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error: "), err
        if bad == "weights":
            assert err == ["error: importance for tangibles must be >= 0, got -10.0"]
        assert not (xyz_dir / "early").exists()

    def test_absent_hoq_fails_before_the_strict_gate(self, xyz_dir, capsys):
        rc = main(["gap", "--instrument", str(xyz_dir / "xyz.json"),
                   "--expect", str(xyz_dir / "e.csv"),
                   "--perceive", str(xyz_dir / "p.csv"),
                   "--weights", str(xyz_dir / "weights.json"),
                   "--hoq", str(xyz_dir / "absent_hoq.json"), "--strict-gate",
                   "--out", str(xyz_dir / "gated" / "xyz")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: cannot read {xyz_dir / 'absent_hoq.json'}")
        assert "refusing" not in err


class TestQfdCommand:
    def test_weights_to_stdout(self, tmp_path, capsys):
        hoq_doc = {
            "customer_reqs": [{"id": "c1", "importance": 40}, {"id": "c2", "importance": 60}],
            "tech_reqs": [{"id": "t1"}, {"id": "t2"}],
            "relationships": [[9, 3], [1, 9]],
        }
        path = tmp_path / "hoq.json"
        path.write_text(json.dumps(hoq_doc))
        assert main(["qfd", "--hoq", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "tech_id,name,absolute,relative_pct,rank"
        assert lines[1].startswith("t2,")  # rank 1 first
        assert "660" in lines[1]

    def test_show_conflicts(self, tmp_path, capsys):
        hoq_doc = {
            "customer_reqs": [{"id": "c1", "importance": 1}],
            "tech_reqs": [{"id": "t1"}, {"id": "t2"}, {"id": "t3"}],
            "relationships": [[1, 3, 9]],
            "roof": [{"i": 0, "j": 2, "sign": "negative"}],
        }
        path = tmp_path / "hoq.json"
        path.write_text(json.dumps(hoq_doc))
        assert main(["qfd", "--hoq", str(path), "--show-conflicts"]) == 0
        assert "t1,t3" in capsys.readouterr().out

    def test_degenerate_house_warns_after_its_weights(self, tmp_path, capsys):
        hoq_doc = {
            "customer_reqs": [{"id": "c1", "importance": 40}],
            "tech_reqs": [{"id": "t1"}, {"id": "t2"}],
            "relationships": [[0, 0]],
        }
        path = tmp_path / "hoq.json"
        path.write_text(json.dumps(hoq_doc))
        assert main(["qfd", "--hoq", str(path)]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[1:] == ["t1,t1,0.0,0.0,1", "t2,t2,0.0,0.0,2"]
        assert err == "warning: all technical weights are zero (degenerate house)\n"


class TestSynthCommand:
    def test_deterministic_per_seed(self, workdir):
        args = ["synth", "--instrument", str(workdir / "tiny.json"),
                "--means", "4.25,3.5,2.75", "--n", "4", "--seed", "9"]
        out1, out2 = workdir / "s1.csv", workdir / "s2.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_infeasible_target_is_1(self, workdir, capsys):
        rc = main(["synth", "--instrument", str(workdir / "tiny.json"),
                   "--means", "4.5,3,3", "--n", "81", "--seed", "0"])
        assert rc == 1
        assert "not an integer" in capsys.readouterr().err

    def test_non_number_target_is_refused_by_its_place(self, workdir, capsys):
        (workdir / "targets.json").write_text(json.dumps([4, "4", 3]))
        rc = main(["synth", "--instrument", str(workdir / "tiny.json"),
                   "--targets", str(workdir / "targets.json"), "--n", "4"])
        assert rc == 1
        assert "error: targets[1] must be a finite number, got '4'" in capsys.readouterr().err

    def test_target_count_must_match_instrument(self, workdir, capsys):
        rc = main(["synth", "--instrument", str(workdir / "tiny.json"),
                   "--means", "4,4", "--n", "10"])
        assert rc == 1

    def test_non_number_mean_is_1(self, workdir, capsys):
        rc = main(["synth", "--instrument", str(workdir / "tiny.json"),
                   "--means", "1,x", "--n", "4"])
        assert rc == 1
        assert capsys.readouterr().err == "error: bad --means list '1,x'\n"


def _bundle_variants(xyz_dir) -> dict[str, list[str]]:
    """The `gap` input arguments of three bundles: the case study, the case
    study with HoQ and fishbone, and an importance-CSV run."""
    (xyz_dir / "hoq.json").write_text(json.dumps(serialize_hoq(xyz.load_xyz_hoq())))
    (xyz_dir / "fishbone.json").write_text(
        json.dumps(serialize_fishbone(xyz.load_xyz_fishbone())))
    # importance CSV route with one rejected row per file and a zero-variance
    # item, so null/undefined cells and ROWS_REJECTED warnings round-trip
    rng = np.random.default_rng(5)
    header = "respondent_id," + ",".join(f"q{i}" for i in range(1, 18))
    for name in ("ze.csv", "zp.csv"):
        values = rng.integers(1, 6, size=(30, 17))
        values[:, 3] = 4
        rows = [f"r{i}," + ",".join(map(str, row)) for i, row in enumerate(values)]
        (xyz_dir / name).write_text(
            "\n".join([header, *rows, "bad," + ",".join(["9"] * 17)]) + "\n")
    (xyz_dir / "zi.csv").write_text(
        "respondent_id,tangibles,reliability,responsiveness,assurance,empathy\n"
        "r1,10,40,25,15,10\nr2,20,30,20,15,15\nr3,10,10,10,10,10\n")
    xyz_inputs = ["--expect", str(xyz_dir / "e.csv"), "--perceive", str(xyz_dir / "p.csv"),
                  "--weights", str(xyz_dir / "weights.json")]
    return {
        "plain": xyz_inputs,
        "hoq_fishbone": [*xyz_inputs, "--hoq", str(xyz_dir / "hoq.json"),
                         "--fishbone", str(xyz_dir / "fishbone.json")],
        "importance": ["--expect", str(xyz_dir / "ze.csv"),
                       "--perceive", str(xyz_dir / "zp.csv"),
                       "--importance", str(xyz_dir / "zi.csv")],
    }


#: SHA-256 per file of two `gap` bundles from _bundle_variants.  The tool
#: version is part of the report JSON and Markdown, so a version change
#: changes those two digests.
PINNED_BUNDLES: dict[str, dict[str, str]] = {
    "hoq_fishbone": {
        "xyz.charts/dimension_gaps.svg":
            "f446be7ff6ae8f260229cd25507ad09ba01ee3e91c91531285a1c2b10e0cd6a0",
        "xyz.charts/dimension_weights.svg":
            "27725a8923f605d109dd65781c845753200a427bb6692e87441b0fa3488b2bc2",
        "xyz.charts/expectation_items.svg":
            "3a444ebed19f0a8d70ea91de185923bec324ae1070caf0833fa0ab822d78eeac",
        "xyz.charts/pareto.svg":
            "17ed04606a955d55a319e5123695d41791bf3cd9452f5ed7340e5133e7e8bc98",
        "xyz.charts/perception_items.svg":
            "117969fe49e83d89673eb264bfccc46d6f7d44f5808dc0b44cf95eb1c329c49b",
        "xyz.report.json":
            "511db22e8059413412ba22f8aad29edcf81faf99b4453e318f6426db6973268f",
        "xyz.report.md":
            "5faf8cd1315e5092534aafb9e730fa8076dea26a434827488927a239f6f7734b",
        "xyz.tables/descriptives.csv":
            "c377dfb8758255128c444086b0d45c2d88e42cf05aa2795a9277abf26683d58d",
        "xyz.tables/gaps.csv":
            "258a1519911bf9ef8529f606f9cfa67fae65d481f3e95ba08bfa79829f621ade",
        "xyz.tables/hoq.csv":
            "1a5f641842a5560aa62e8f4545c91fd0feca8b5a585552069a3cdebb67b0091e",
        "xyz.tables/kano.csv":
            "10a0e465fe886ba7a4612e8df8ba1ab77584b7753e23c123a4c5eaf52432606e",
        "xyz.tables/pareto.csv":
            "077ef58cc2b0a0a66f06362c836e5f4899bedde0942bcccebddbdfaef28f4efd",
        "xyz.tables/reliability.csv":
            "b1199fd615e613bb28d181b634908f2bc60ff4f4c54cad5484bc2d868652e712",
    },
    "importance": {
        "xyz.charts/dimension_gaps.svg":
            "de377cf6bb4de436cb948b78903980074e2b232189dd4d455fc8262ef3e24814",
        "xyz.charts/dimension_weights.svg":
            "decd989639a6073497981cd2aab17f750df75aabd21ddde590ac17f5e77c2c3a",
        "xyz.charts/expectation_items.svg":
            "29a8477078415af03778f6201148b0e436bc39867608ca00d6472a40c1d1aa8b",
        "xyz.charts/pareto.svg":
            "32c1b6c452eba61e838289e39154467f4bc781567ab3924c60c36218966a7f95",
        "xyz.charts/perception_items.svg":
            "0d4928024b2f88f11b77e51452abb2347b7ba9c45469e7b27416826ba7d372f9",
        "xyz.report.json":
            "bd0aeccebb0193d8d1b236ca560d9b3085a1c595ff58ef083e0f37544687b491",
        "xyz.report.md":
            "18241b80f41e9d815fb0d828799db141ba82b2febd842307107c86cc47add23c",
        "xyz.tables/descriptives.csv":
            "9b95452ba06a674a9265812a93d28ffc6935e2c17d376cf140128a493807210f",
        "xyz.tables/gaps.csv":
            "4de88c65c83074bba7de6997c3cd3ee93b89d1b2d31ce77d650ace17f202956f",
        "xyz.tables/kano.csv":
            "06143e2aebb9c95beb81adfba79298ebc5f26eb3b4e7c75fb0006bcb566d34e8",
        "xyz.tables/pareto.csv":
            "0c00fe19008d341177e70161b7db49d738322fcb929368b48ffe5ff08ccb44f4",
        "xyz.tables/reliability.csv":
            "69cb7b2c0828a32e751605d6d71629a932f67c611c635f562d92f3cae00149ff",
    },
}


class TestReportCommand:
    def test_reemit_from_saved_json(self, xyz_dir):
        assert main(["gap", "--instrument", str(xyz_dir / "xyz.json"),
                     "--expect", str(xyz_dir / "e.csv"),
                     "--perceive", str(xyz_dir / "p.csv"),
                     "--weights", str(xyz_dir / "weights.json"),
                     "--suppress-timestamp", "--formats", "json",
                     "--out", str(xyz_dir / "first" / "xyz")]) == 0
        saved = xyz_dir / "first" / "xyz.report.json"
        assert main(["report", "--input", str(saved), "--formats", "markdown,csv",
                     "--out", str(xyz_dir / "second" / "xyz")]) == 0
        assert (xyz_dir / "second" / "xyz.report.md").exists()
        assert (xyz_dir / "second" / "xyz.tables" / "gaps.csv").exists()
        assert not (xyz_dir / "second" / "xyz.report.json").exists()

    def test_reemitted_bundle_matches_original_bytes(self, xyz_dir):
        # computed values must survive the JSON round trip bit-exactly, so a
        # re-emitted bundle is byte-identical to the directly written one
        variants = _bundle_variants(xyz_dir)
        for variant, inputs in variants.items():
            orig_root, re_root = xyz_dir / variant / "orig", xyz_dir / variant / "re"
            assert main(["gap", "--instrument", str(xyz_dir / "xyz.json"), *inputs,
                         "--suppress-timestamp", "--out", str(orig_root / "xyz")]) == 0
            assert main(["report", "--input", str(orig_root / "xyz.report.json"),
                         "--out", str(re_root / "xyz")]) == 0
            originals = {p.relative_to(orig_root): p.read_bytes()
                         for p in orig_root.rglob("*") if p.is_file()}
            reemitted = {p.relative_to(re_root): p.read_bytes()
                         for p in re_root.rglob("*") if p.is_file()}
            assert set(originals) == set(reemitted)
            for name in originals:
                assert originals[name] == reemitted[name], \
                    f"{variant}: {name} differs after re-emit"
            joined = b"".join(originals.values())
            assert b"np.float64" not in joined  # numpy scalars must not leak into output
            assert b"NaN" not in originals[Path("xyz.report.json")]
        importance_report = (xyz_dir / "importance" / "orig" / "xyz.report.json").read_bytes()
        assert b'"item_adj_total_corr": null' in importance_report
        assert b"ROWS_REJECTED" in importance_report
        assert b"undefined" in (xyz_dir / "importance" / "orig" / "xyz.report.md").read_bytes()
        assert (xyz_dir / "hoq_fishbone" / "orig" / "xyz.tables" / "hoq.csv").exists()

    def test_bundle_bytes_are_pinned(self, xyz_dir):
        # The SHA-256 of every file of two bundles: any change to a table's
        # columns, number text or empty-cell text, to the Markdown prose or to
        # a warning shows here.  "importance" holds undefined cells and
        # ROWS_REJECTED; "hoq_fishbone" every optional section.
        variants = _bundle_variants(xyz_dir)
        for variant, pinned in PINNED_BUNDLES.items():
            root = xyz_dir / variant
            assert main(["gap", "--instrument", str(xyz_dir / "xyz.json"), *variants[variant],
                         "--suppress-timestamp", "--out", str(root / "xyz")]) == 0
            digests = {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in root.rglob("*") if p.is_file()}
            assert digests == pinned, variant

    @pytest.mark.parametrize("payload", [
        b'{"metadata": {}}',
        b"[1, 2]",
        b'{"metadata": {}, "gap_analysis": {"items": [{"item_id": 1, "bogus": 0}]}}',
        b"\xff{}",
    ], ids=["missing_sections", "not_an_object", "unknown_row_key", "not_utf8"])
    def test_wrong_shape_json_is_1(self, tmp_path, capsys, payload):
        path = tmp_path / "bad.report.json"
        path.write_bytes(payload)
        assert main(["report", "--input", str(path), "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_bad_format_token_is_2(self, capsys):
        assert main(["report", "--input", "x.json", "--formats", "pdf", "--out", "y"]) == 2


def _formats_argv(xyz_dir, command: str, out: Path) -> list[str]:
    """A `gap` or `report` call on the case study writing under ``out``."""
    gap = ["gap", "--instrument", str(xyz_dir / "xyz.json"), "--expect", str(xyz_dir / "e.csv"),
           "--perceive", str(xyz_dir / "p.csv"), "--weights", str(xyz_dir / "weights.json"),
           "--suppress-timestamp"]
    if command == "gap":
        return [*gap, "--out", str(out / "xyz")]
    saved = xyz_dir / "saved" / "xyz"
    assert main([*gap, "--formats", "json", "--out", str(saved)]) == 0
    return ["report", "--input", f"{saved}.report.json", "--out", str(out / "xyz")]


@pytest.mark.parametrize("command", ["gap", "report"])
@pytest.mark.parametrize("formats", [",", "", " , ,"], ids=["comma", "empty", "blank_items"])
def test_formats_naming_none_is_a_usage_error(xyz_dir, capsys, command, formats):
    argv = _formats_argv(xyz_dir, command, xyz_dir / "out")
    capsys.readouterr()
    assert main([*argv, "--formats", formats]) == 2
    assert "--formats: no format named" in capsys.readouterr().err
    assert not (xyz_dir / "out").exists()


@pytest.mark.parametrize("command", ["gap", "report"])
def test_repeated_format_is_written_and_printed_once(xyz_dir, capsys, command):
    argv = _formats_argv(xyz_dir, command, xyz_dir / "out")
    capsys.readouterr()
    assert main([*argv, "--formats", "json, markdown,json,markdown ,"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        str(xyz_dir / "out" / "xyz.report.json"), str(xyz_dir / "out" / "xyz.report.md")]
    assert sorted(p.name for p in (xyz_dir / "out").iterdir()) == ["xyz.report.json",
                                                                   "xyz.report.md"]


def _out_argv(xyz_dir, command: str, out: Path) -> list[str]:
    """A call of ``command`` on the case study that writes ``--out out``."""
    survey = ["--instrument", str(xyz_dir / "xyz.json"), "--expect", str(xyz_dir / "e.csv")]
    if command in ("gap", "report"):
        return _formats_argv(xyz_dir, command, out.parent)[:-1] + [str(out)]
    if command == "qfd":
        hoq = xyz_dir / "hoq.json"
        hoq.write_text(json.dumps(serialize_hoq(xyz.load_xyz_hoq())))
        return ["qfd", "--hoq", str(hoq), "--out", str(out)]
    if command == "synth":
        return ["synth", "--instrument", str(xyz_dir / "xyz.json"), "--targets",
                str(xyz_dir / "e_targets.json"), "--n", "81", "--out", str(out)]
    return [command, *survey, "--out", str(out)]


#: Every subcommand that takes --out, and where that --out cannot be written:
#: under a regular file, or (for the single-file commands; gap and report make
#: their directory) in a directory that does not exist.
WRITE_FAILURES = [(command, "under_a_file") for command in
                  ("descriptives", "reliability", "gap", "qfd", "synth", "report")] + \
                 [(command, "missing_dir") for command in
                  ("descriptives", "reliability", "qfd", "synth")]


@pytest.mark.parametrize("command, place", WRITE_FAILURES)
def test_unwritable_out_is_1_naming_the_path(xyz_dir, capsys, command, place):
    blocker = xyz_dir / "blocker"
    if place == "under_a_file":
        blocker.write_text("a regular file")
    argv = _out_argv(xyz_dir, command, blocker / "r")
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = err.splitlines()[-1]  # reliability warns of the failed gate first
    assert last.startswith(f"error: cannot write {blocker}")
    assert last.endswith("No such file or directory" if place == "missing_dir" else
                         "File exists" if command in ("gap", "report") else "Not a directory")


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, OSError, ValueError):
        return False


#: After one ``main`` call, two rounds of six 3 MiB arrays filled and freed;
#: prints the minor page faults of the second round.
RETENTION = """
import json, resource, sys
import numpy as np
from satmetric.cli import main
assert main(json.loads(sys.argv[1])) == 0

def round_faults():
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(3 << 17) for _ in range(6)]
    del arrays
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

round_faults()
print(round_faults())
"""


@pytest.mark.skipif(not _glibc(), reason="the CLI keeps freed heap on glibc only")
def test_cli_process_reuses_freed_heap(xyz_dir):
    # glibc's default trims the heap's free top, so each round faults its
    # 18 MiB in again: about 4,600 faults.
    argv = ["validate", "--instrument", str(xyz_dir / "xyz.json"),
            "--expect", str(xyz_dir / "e.csv")]
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", RETENTION, json.dumps(argv)], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert int(out.splitlines()[-1]) < 500


class _Libc:
    """Stands in for ``ctypes.CDLL(None)``: records mallopt calls."""
    calls: list = []
    result = 1

    def __init__(self, name):
        assert name is None

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return self.result


def _confstr_raises(name):
    raise ValueError("unrecognized configuration name")


@pytest.mark.parametrize("confstr, result, calls", [
    (_confstr_raises, 1, []),
    (lambda name: None, 1, []),
    (lambda name: "musl 1.2.4", 1, []),
    (lambda name: "glibc 2.36", 0, [(-3, 32 << 20)]),
    (lambda name: "glibc 2.36", 1, [(-3, 32 << 20), (-2, 64 << 20)]),
], ids=["raises", "undefined", "other_libc", "threshold_refused", "glibc"])
def test_heap_setting_is_glibc_only_and_once(workdir, capsys, monkeypatch, confstr, result,
                                             calls):
    monkeypatch.setattr(os, "confstr", confstr)
    monkeypatch.setattr(ctypes, "CDLL", _Libc)
    monkeypatch.setattr(_Libc, "calls", [])
    monkeypatch.setattr(_Libc, "result", result)
    cli._keep_freed_heap.cache_clear()
    try:
        argv = ["validate", "--instrument", str(workdir / "tiny.json"),
                "--expect", str(workdir / "good.csv")]
        assert main(argv) == 0
        assert main(argv) == 0
        assert "4 accepted" in capsys.readouterr().out
        assert _Libc.calls == calls
    finally:
        cli._keep_freed_heap.cache_clear()


def test_library_leaves_the_allocator_alone(xyz_dir, monkeypatch):
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    monkeypatch.setattr(ctypes, "CDLL", _Libc)
    monkeypatch.setattr(_Libc, "calls", [])
    cli._keep_freed_heap.cache_clear()
    try:
        inputs = pipeline.Inputs(instrument=str(xyz_dir / "xyz.json"),
                                 expect=str(xyz_dir / "e.csv"), perceive=str(xyz_dir / "p.csv"),
                                 weights=str(xyz_dir / "weights.json"))
        assert pipeline.run(inputs) is not None
        assert _Libc.calls == []
    finally:
        cli._keep_freed_heap.cache_clear()


@pytest.fixture(scope="module")
def gap_fuzz_dir(tmp_path_factory):
    """Small valid gap inputs on the XYZ instrument: 12-row expectation and
    perception CSVs, a 6-row importance CSV and a weights file."""
    d = tmp_path_factory.mktemp("gap_fuzz")
    (d / "xyz.json").write_text(json.dumps(serialize_instrument(xyz.xyz_instrument())))
    (d / "weights.json").write_text(json.dumps({"means": xyz.importance_means()}))
    rng = np.random.default_rng(7)
    header = "respondent_id," + ",".join(f"q{i}" for i in range(1, 18))
    for name in ("e", "p"):
        rows = [f"r{r}," + ",".join(map(str, rng.integers(1, 6, 17))) for r in range(12)]
        (d / f"{name}.csv").write_text("\n".join([header, *rows]) + "\n")
    rows = [f"r{r},{10 + 5 * (r % 3)},40,20,15,{15 - 5 * (r % 3)}" for r in range(6)]
    (d / "i.csv").write_text("respondent_id,tangibles,reliability,responsiveness,"
                             "assurance,empathy\n" + "\n".join(rows) + "\n")
    return d


#: Byte strings spliced into the CSVs: separators, line ends, quoting,
#: padding, signs, digits, non-integers, invalid UTF-8, byte-order marks, NUL.
CSV_TOKENS = (b"", b",", b"\n", b"\r", b"\r\n", b'"', b" ", b"\t", b"+", b"-", b"0", b"7",
              b"100", b"9" * 25, b"1.5", b"1e3", b"\xff", b"\xc3", codecs.BOM_UTF8, b"\x00",
              b"q1", b"respondent_id")


@st.composite
def mutated_csv(draw, base: bytes) -> bytes:
    """``base`` with up to three splices, each anywhere in the file or (as
    often) past the header, so that data rows get most of them."""
    data = base
    body = base.index(b"\n") + 1
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(draw(st.sampled_from([0, body])), len(data)))
        cut = draw(st.integers(0, 12))
        data = data[:at] + draw(st.sampled_from(CSV_TOKENS)) + data[at + cut:]
    return data


@settings(max_examples=examples(40), deadline=None)
@given(data=st.data())
def test_gap_fuzz_over_csv_bytes_exits_cleanly(gap_fuzz_dir, data):
    """Mutated expectation, perception and importance CSVs through
    ``satmetric gap``: exit code 0, 1 or 2, no traceback, and only
    SatmetricError (turned into exit 1 by main) escapes the library."""
    d = gap_fuzz_dir
    paths = {}
    for name in ("e", "p", "i"):
        paths[name] = d / f"fuzz_{name}.csv"
        paths[name].write_bytes(data.draw(mutated_csv((d / f"{name}.csv").read_bytes()),
                                          label=name))
    argv = ["gap", "--instrument", str(d / "xyz.json"), "--expect", str(paths["e"]),
            "--perceive", str(paths["p"]), "--suppress-timestamp",
            "--missing-policy", data.draw(st.sampled_from(["drop_row", "fail"])),
            "--out", str(d / "out" / "report")]
    if data.draw(st.booleans(), label="importance csv"):
        argv += ["--importance", str(paths["i"])]
    else:
        argv += ["--weights", str(d / "weights.json")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if rc == 1:
        assert err.getvalue().splitlines()[-1].startswith("error:")


#: Characters that open Markdown blocks or break lines, and XML markup.
HAZARDS = st.sampled_from(list("#->|*+<&\"'\\\r\n \t\x0b\x00"))
#: Text that opens with an ordered-list number, such as "1. x", "12)" or
#: "0.1.0" (a version, which opens nothing).
ORDERED_OPENERS = st.tuples(
    st.sampled_from(["", " "]), st.from_regex(r"[0-9]{1,10}[.)]", fullmatch=True),
    st.sampled_from(["", " ", "\t", " x", "1.0"])).map("".join)
#: Any text UTF-8 can encode: the JSON loaders reject a lone surrogate
#: (tests/test_schema.py), so none reaches a report.
OUTSIDE_TEXT = st.one_of(
    st.text(st.one_of(HAZARDS, st.characters(codec="utf-8")), min_size=1,
            max_size=12).filter(str.strip),
    ORDERED_OPENERS)


def _markdown_shape(text: str):
    """Line count, block markers at each line's start (heading levels,
    bullets, ordered-list numbers, quotes), and each table's rows with their
    unescaped pipes."""
    lines = text.split("\n")
    markers = [re.match(r"(?:\s*(?:#+|[-+*>]|[0-9]{1,9}[.)])(?=\s|$))*", line).group().split()
               for line in lines]
    tables = [len(re.findall(r"(?<!\\)\|", line)) if line.startswith("|") else None
              for line in lines]
    return len(lines), markers, tables


def _survey_bundle(d: Path, stem: str, label: str, effect: str, names: list[str],
                   causes: list[str], dimensions: list[str], warning: str) -> Path:
    """``gap`` with ``label`` as item 1's prompt and the fishbone texts, then
    ``report`` on its saved JSON with ``dimensions`` and ``warning`` put in."""
    doc = serialize_instrument(xyz.xyz_instrument())
    doc["items"][0]["prompt"] = label
    (d / f"{stem}.json").write_text(json.dumps(doc))
    (d / f"{stem}.fishbone.json").write_text(json.dumps({"effect": effect, "branches": [
        {"name": names[0], "items": [3, 4, 5],
         "causes": [{"text": causes[0], "causes": [{"text": causes[1]}]}]},
        {"name": names[1], "items": [1, 7]}]}))
    assert main(["gap", "--instrument", str(d / f"{stem}.json"),
                 "--expect", str(d / "e.csv"), "--perceive", str(d / "p.csv"),
                 "--weights", str(d / "weights.json"),
                 "--fishbone", str(d / f"{stem}.fishbone.json"), "--suppress-timestamp",
                 "--out", str(d / stem / "gap")]) == 0
    saved = json.loads((d / stem / "gap.report.json").read_text())
    for dim, name in zip(saved["gap_analysis"]["dimensions"], dimensions):
        dim["dimension"] = name
    saved["importance_weights"]["means"] = dict(zip(
        dimensions, saved["importance_weights"]["means"].values()))
    for w in saved["warnings"]:
        w["message"] = warning
    (d / stem / "edited.json").write_text(json.dumps(saved))
    assert main(["report", "--input", str(d / stem / "edited.json"),
                 "--out", str(d / stem / "report")]) == 0
    return d / stem


@pytest.fixture(scope="module")
def plain_shapes(gap_fuzz_dir):
    """The Markdown shapes of ``gap`` and ``report`` with plain names."""
    plain = _survey_bundle(gap_fuzz_dir, "plain", "x", "x", ["x", "y"], ["x", "x"],
                           ["a", "b", "c", "d", "e"], "x")
    return {part: _markdown_shape((plain / f"{part}.report.md").read_text())
            for part in ("gap", "report")}


@settings(max_examples=examples(25), deadline=None)
@given(label=OUTSIDE_TEXT, effect=OUTSIDE_TEXT,
       names=st.lists(OUTSIDE_TEXT, min_size=2, max_size=2, unique_by=str.strip),
       causes=st.lists(OUTSIDE_TEXT, min_size=2, max_size=2),
       dimensions=st.lists(OUTSIDE_TEXT, min_size=5, max_size=5, unique=True),
       warning=OUTSIDE_TEXT)
def test_outside_strings_keep_markdown_structure_and_svg_well_formed(
        gap_fuzz_dir, plain_shapes, label, effect, names, causes, dimensions, warning):
    """Item labels, fishbone texts, dimension names and warning messages of
    any text, through ``gap`` and ``report``: the Markdown has the lines,
    headings, list nesting and table shape of plain names, and every chart
    parses as XML."""
    drawn = _survey_bundle(gap_fuzz_dir, "drawn", label, effect, names, causes, dimensions,
                           warning)
    for part in ("gap", "report"):
        assert _markdown_shape((drawn / f"{part}.report.md").read_text()) == \
            plain_shapes[part], part
        charts = sorted((drawn / f"{part}.charts").iterdir())
        assert len(charts) == 5
        for chart in charts:
            xml.dom.minidom.parse(str(chart))


def _ascii_cli(argv: list[str]) -> subprocess.CompletedProcess:
    """``satmetric argv`` in a fresh process whose stdout encodes ASCII only."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONIOENCODING": "ascii", "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "satmetric.cli", *argv], env=env,
                          capture_output=True, timeout=120)


def test_qfd_stdout_is_the_out_file_whatever_the_stdout_encoding(tmp_path):
    """A technical requirement named outside ASCII, with stdout in ASCII:
    ``qfd`` exits 0 with no traceback and writes the bytes of its --out file."""
    hoq = serialize_hoq(xyz.load_xyz_hoq())
    hoq["tech_reqs"][0]["name"] = "Qualité du dépannage"
    (tmp_path / "hoq.json").write_text(json.dumps(hoq), encoding="utf-8")
    argv = ["qfd", "--hoq", str(tmp_path / "hoq.json")]
    shown = _ascii_cli(argv)
    assert shown.returncode == 0 and b"Traceback" not in shown.stderr, shown.stderr
    written = _ascii_cli([*argv, "--out", str(tmp_path / "qfd.csv")])
    assert written.returncode == 0 and written.stdout == b""
    assert shown.stdout == (tmp_path / "qfd.csv").read_bytes()
    assert "Qualité du dépannage".encode() in shown.stdout


def test_paths_outside_ascii_reach_an_ascii_stdout(xyz_dir):
    """``gap --out`` and ``validate --expect`` under a directory named
    outside ASCII, with stdout in ASCII: each exits 0 with no traceback and
    prints its paths as UTF-8."""
    place = xyz_dir / "résultats"
    place.mkdir()
    (place / "e.csv").write_bytes((xyz_dir / "e.csv").read_bytes())
    gap = _ascii_cli(["gap", "--instrument", str(xyz_dir / "xyz.json"),
                      "--expect", str(place / "e.csv"), "--perceive", str(xyz_dir / "p.csv"),
                      "--weights", str(xyz_dir / "weights.json"), "--out", str(place / "r"),
                      "--formats", "json"])
    assert gap.returncode == 0 and b"Traceback" not in gap.stderr, gap.stderr
    assert gap.stdout.decode("utf-8") == f"{place / 'r.report.json'}\n"
    validate = _ascii_cli(["validate", "--instrument", str(xyz_dir / "xyz.json"),
                           "--expect", str(place / "e.csv")])
    assert validate.returncode == 0 and b"Traceback" not in validate.stderr, validate.stderr
    assert validate.stdout.decode("utf-8") == \
        f"{place / 'e.csv'}: 81 accepted, 0 rejected (expectation)\n"
