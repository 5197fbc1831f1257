import json
from pathlib import Path

import numpy as np
import pytest

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

    def test_rejections_exit_1_with_row_diagnostics(self, workdir, capsys):
        mixed = workdir / "mixed.csv"
        mixed.write_text("respondent_id,q1,q2,q3\nr1,4,4,4\nr2,6,4,4\n")
        rc = main(["validate", "--instrument", str(workdir / "tiny.json"),
                   "--expect", str(mixed)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "row 2, column q1" in captured.err
        assert "out_of_range" in captured.err

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

    def test_target_count_must_match_instrument(self, workdir, capsys):
        rc = main(["synth", "--instrument", str(workdir / "tiny.json"),
                   "--means", "4,4", "--n", "10"])
        assert rc == 1


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
        variants = {
            "plain": xyz_inputs,
            "hoq_fishbone": [*xyz_inputs, "--hoq", str(xyz_dir / "hoq.json"),
                             "--fishbone", str(xyz_dir / "fishbone.json")],
            "importance": ["--expect", str(xyz_dir / "ze.csv"),
                           "--perceive", str(xyz_dir / "zp.csv"),
                           "--importance", str(xyz_dir / "zi.csv")],
        }
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
