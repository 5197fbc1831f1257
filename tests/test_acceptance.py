"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here.
"""

import json
import time

import numpy as np

from conftest import (
    REFERENCE_DIMENSION_SCORES,
    REFERENCE_GAPS,
    REFERENCE_WEIGHTED_SUM,
)
from satmetric.cli import main
from satmetric.ingest import ResponseKind, parse_response_file, validate_importance_row
from satmetric.instrument import DIMENSION_ORDER, KanoCategory, build_instrument, \
    serialize_instrument
from satmetric.kano import DEFAULT_MULTIPLIERS, prioritize
from satmetric.psychometrics import VarianceMode, cronbach_alpha, item_descriptives, \
    omitted_item_stats
from satmetric.qfd import build_hoq
from satmetric.rootcause import dissatisfaction_contributions, pareto
from satmetric.servqual import ItemGap, compute_gap_report, dimension_scores, item_gaps, \
    weights_from_means
from satmetric import xyz

from test_psychometrics import alpha_covariance_oracle, make_response_set, tiny_instrument


def finish(num: int, name: str, failures: list[str], started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    if elapsed > budget:
        failures.append(f"runtime {elapsed:.2f}s exceeds {budget}s")
    verdict = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {verdict}  [{elapsed:.2f}s]")
    assert not failures, "; ".join(failures)


def check(failures: list[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def test_criterion_1_gap_table_reproduction(xyz_instrument, xyz_weights,
                                            xyz_expect_desc, xyz_perceive_desc):
    started = time.perf_counter()
    failures: list[str] = []
    gaps = item_gaps(xyz_expect_desc, xyz_perceive_desc)
    for gap, expected in zip(gaps, REFERENCE_GAPS):
        check(failures, abs(gap.gap - expected) <= 1e-9,
              f"item {gap.item_id} gap {gap.gap!r} != {expected} within 1e-9")
    scores = dimension_scores(gaps, xyz_weights, xyz_instrument)
    for score in scores:
        unweighted, weighted, _ = REFERENCE_DIMENSION_SCORES[score.dimension]
        check(failures, abs(score.unweighted - unweighted) <= 1e-9,
              f"{score.dimension} unweighted {score.unweighted!r} != {unweighted}")
        check(failures, abs(score.weighted - weighted) <= 1e-9,
              f"{score.dimension} weighted {score.weighted!r} != {weighted}")
    finish(1, "gap-table reproduction", failures, started, budget=1.0)


def test_criterion_2_overall_score(xyz_instrument, xyz_weights,
                                   xyz_expect_desc, xyz_perceive_desc):
    started = time.perf_counter()
    failures: list[str] = []
    report = compute_gap_report(xyz_expect_desc, xyz_perceive_desc,
                                xyz_weights, xyz_instrument)
    check(failures, abs(report.overall_weighted_sum - REFERENCE_WEIGHTED_SUM) <= 1e-6,
          f"weighted_sum {report.overall_weighted_sum!r} != {REFERENCE_WEIGHTED_SUM} "
          "within 1e-6")
    check(failures, round(report.overall_weighted_sum) == -25,
          "weighted_sum does not round to the published -25")
    finish(2, "overall score -25.25148048", failures, started, budget=1.0)


def test_criterion_3_raw_data_round_trip(tmp_path, capsys, xyz_instrument):
    started = time.perf_counter()
    failures: list[str] = []

    instrument_path = tmp_path / "xyz.json"
    instrument_path.write_text(json.dumps(serialize_instrument(xyz_instrument)))
    (tmp_path / "weights.json").write_text(json.dumps(
        {"means": xyz.importance_means(), "n_respondents": xyz.N_IMPORTANCE}))
    (tmp_path / "e_targets.json").write_text(json.dumps(xyz.expectation_means()))
    (tmp_path / "p_targets.json").write_text(json.dumps(xyz.perception_means()))

    for kind, targets, seed, out in (("expectation", "e_targets.json", 41, "e.csv"),
                                     ("perception", "p_targets.json", 42, "p.csv")):
        rc = main(["synth", "--instrument", str(instrument_path),
                   "--targets", str(tmp_path / targets), "--n", "81",
                   "--seed", str(seed), "--kind", kind, "--out", str(tmp_path / out)])
        check(failures, rc == 0, f"synth {kind} exited {rc}")

    rc = main(["gap", "--instrument", str(instrument_path),
               "--expect", str(tmp_path / "e.csv"),
               "--perceive", str(tmp_path / "p.csv"),
               "--weights", str(tmp_path / "weights.json"),
               "--suppress-timestamp",
               "--out", str(tmp_path / "run" / "xyz")])
    check(failures, rc == 0, f"gap pipeline exited {rc}")

    if rc == 0:
        doc = json.loads((tmp_path / "run" / "xyz.report.json").read_text())
        items = doc["gap_analysis"]["items"]
        for entry, expected in zip(items, REFERENCE_GAPS):
            check(failures, abs(entry["gap"] - expected) <= 1e-9,
                  f"item {entry['item_id']} pipeline gap {entry['gap']!r} != {expected}")
        for entry in doc["gap_analysis"]["dimensions"]:
            unweighted, weighted, _ = REFERENCE_DIMENSION_SCORES[entry["dimension"]]
            check(failures, abs(entry["unweighted"] - unweighted) <= 1e-9,
                  f"{entry['dimension']} pipeline unweighted off")
            check(failures, abs(entry["weighted"] - weighted) <= 1e-9,
                  f"{entry['dimension']} pipeline weighted off")
        overall = doc["gap_analysis"]["overall"]["weighted_sum"]
        check(failures, abs(overall - REFERENCE_WEIGHTED_SUM) <= 1e-6,
              f"pipeline weighted_sum {overall!r} off")
    capsys.readouterr()  # swallow the CLI's written-files listing
    finish(3, "raw-data round trip through the CLI", failures, started, budget=5.0)


def test_criterion_4_alpha_properties():
    started = time.perf_counter()
    failures: list[str] = []

    # (a) k identical columns
    column = np.array([2, 4, 1, 5, 3, 4, 2], dtype=float)
    for k in (2, 4, 6):
        alpha = cronbach_alpha(np.column_stack([column] * k))
        check(failures, abs(alpha - 1.0) <= 1e-12, f"{k} identical columns: alpha {alpha!r}")

    # (b)+(c) seeded suite of 1000 random matrices, 5-10 x 3-6
    rng = np.random.default_rng(20130)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(5, 11))
        k = int(rng.integers(3, 7))
        matrix = rng.integers(1, 6, size=(n, k)).astype(float)
        if matrix.sum(axis=1).var(ddof=1) == 0:
            continue
        checked += 1
        alpha = cronbach_alpha(matrix)
        oracle = alpha_covariance_oracle(matrix)
        if abs(alpha - oracle) > 1e-12:
            failures.append(f"covariance oracle mismatch: {alpha!r} vs {oracle!r}")
            break
        stats = omitted_item_stats(matrix)
        for i, s in enumerate(stats):
            reduced = np.delete(matrix, i, axis=1)
            try:
                direct = cronbach_alpha(reduced)
            except Exception:
                direct = None
            if (s.alpha_if_deleted is None) != (direct is None):
                failures.append(f"alpha_if_deleted definedness mismatch at column {i}")
                break
            if direct is not None and abs(s.alpha_if_deleted - direct) > 1e-12:
                failures.append(f"alpha_if_deleted mismatch at column {i}")
                break
    check(failures, checked >= 990, f"only {checked} usable matrices in the suite")

    # (d) translation / positive-scaling invariance
    rng = np.random.default_rng(7)
    for _ in range(50):
        matrix = rng.integers(1, 6, size=(8, 4)).astype(float)
        if matrix.sum(axis=1).var(ddof=1) == 0:
            continue
        base = cronbach_alpha(matrix)
        shifted = matrix.copy()
        shifted[:, 0] += 13.0
        check(failures, abs(cronbach_alpha(shifted) - base) <= 1e-12,
              "translation invariance violated")
        check(failures, abs(cronbach_alpha(matrix * 2.75) - base) <= 1e-12,
              "scaling invariance violated")
    finish(4, "Cronbach alpha properties", failures, started, budget=10.0)


def test_criterion_5_population_variance_convention():
    started = time.perf_counter()
    failures: list[str] = []
    column = np.array([3] * 6 + [4] * 45 + [5] * 30)
    check(failures, column.sum() == 348, "column sum is not 348")
    check(failures, int((column ** 2).sum()) == 1524, "column sum of squares is not 1524")
    rs = make_response_set(column.reshape(-1, 1))
    (d,) = item_descriptives(rs, tiny_instrument(1), VarianceMode.POPULATION)
    check(failures, abs(d.variance - 0.356652949) <= 1e-9,
          f"population variance {d.variance!r} != 0.356652949 within 1e-9")
    finish(5, "descriptive-variance convention", failures, started, budget=1.0)


def test_criterion_6_qfd():
    started = time.perf_counter()
    failures: list[str] = []

    hoq = build_hoq({
        "customer_reqs": [{"id": "c1", "importance": 40}, {"id": "c2", "importance": 60}],
        "tech_reqs": [{"id": "t1"}, {"id": "t2"}],
        "relationships": [[9, 3], [1, 9]],
    })
    (w1, w2) = hoq.importances
    check(failures, abs(w1.absolute - 420.0) <= 1e-9, f"absolute 1 {w1.absolute!r}")
    check(failures, abs(w2.absolute - 660.0) <= 1e-9, f"absolute 2 {w2.absolute!r}")
    check(failures, abs(w1.relative_pct - 420 / 1080 * 100) <= 1e-9, "relative 1 off")
    check(failures, abs(w2.relative_pct - 660 / 1080 * 100) <= 1e-9, "relative 2 off")
    check(failures, (w1.rank, w2.rank) == (2, 1), "ranks not (2, 1)")

    rng = np.random.default_rng(90125)
    for _ in range(200):
        n_cr = int(rng.integers(1, 6))
        n_tr = int(rng.integers(1, 8))
        importances = rng.uniform(0, 50, n_cr)
        cells = rng.choice([0, 1, 3, 9], size=(n_cr, n_tr))

        def make(imp, matrix):
            return build_hoq({
                "customer_reqs": [{"id": f"c{i}", "importance": float(v)}
                                  for i, v in enumerate(imp)],
                "tech_reqs": [{"id": f"t{j}"} for j in range(matrix.shape[1])],
                "relationships": matrix.tolist(),
            })

        base = make(importances, cells)
        doubled = make(importances * 2.0, cells)
        for b, d in zip(base.importances, doubled.importances):
            if abs(d.absolute - 2 * b.absolute) > 1e-12 * max(1.0, abs(b.absolute)):
                failures.append("linearity violated")
            if d.rank != b.rank:
                failures.append("doubling changed a rank")
        padded = make(importances, np.hstack([cells, np.zeros((n_cr, 1), int)]))
        if [p.absolute for p in padded.importances[:-1]] != \
                [b.absolute for b in base.importances]:
            failures.append("zero column changed other weights")
        if padded.importances[-1].absolute != 0.0 or padded.importances[-1].rank != n_tr + 1:
            failures.append("zero column not weighted 0 / ranked last")
        if not base.degenerate:
            total = sum(w.relative_pct for w in base.importances)
            if abs(total - 100.0) > 1e-9:
                failures.append(f"relative weights sum {total!r}")
        if failures:
            break

    shipped = xyz.load_xyz_hoq()
    ranked = sorted(shipped.importances, key=lambda t: t.rank)
    check(failures, ranked[0].tech_id == "quality-of-repair-work",
          "repair work quality is not ranked first in the shipped example")
    check(failures, ranked[-1].tech_id == "equipment-appearance",
          "equipment appearance is not ranked last in the shipped example")
    finish(6, "house-of-quality weights", failures, started, budget=10.0)


def test_criterion_7_pareto(xyz_instrument, xyz_weights,
                            xyz_expect_desc, xyz_perceive_desc):
    started = time.perf_counter()
    failures: list[str] = []
    gaps = item_gaps(xyz_expect_desc, xyz_perceive_desc)
    contributions = dissatisfaction_contributions(gaps, xyz_weights, xyz_instrument)
    table = pareto(contributions)
    leading = [row.item_id for row in table.rows[:6]]
    check(failures, leading == [4, 3, 7, 5, 8, 14],
          f"ranking begins {leading}, expected [4, 3, 7, 5, 8, 14]")
    pcts = [row.cumulative_pct for row in table.rows]
    check(failures, all(b >= a for a, b in zip(pcts, pcts[1:])),
          "cumulative % not nondecreasing")
    check(failures, abs(pcts[-1] - 100.0) <= 1e-9, f"final cumulative {pcts[-1]!r}")
    previous = 0
    for threshold in (5, 20, 40, 60, 80, 99, 100):
        swept = pareto(contributions, threshold_pct=threshold)
        cutoff = swept.vital_few_cutoff
        check(failures, swept.rows[cutoff - 1].cumulative_pct >= threshold,
              f"cutoff row below threshold {threshold}")
        if cutoff > 1:
            check(failures, swept.rows[cutoff - 2].cumulative_pct < threshold,
                  f"cutoff not the first crossing at {threshold}")
        check(failures, cutoff >= previous, "cutoff moved earlier as threshold rose")
        previous = cutoff
    finish(7, "Pareto ranking and vital few", failures, started, budget=1.0)


def test_criterion_8_kano(xyz_instrument, xyz_weights,
                          xyz_expect_desc, xyz_perceive_desc):
    started = time.perf_counter()
    failures: list[str] = []

    gaps = item_gaps(xyz_expect_desc, xyz_perceive_desc)
    by_id = {p.item_id: p for p in prioritize(gaps, xyz_weights, xyz_instrument)}
    for item in xyz_instrument.items:
        if item.kano is KanoCategory.DELIGHTER:
            check(failures, by_id[item.id].priority_score == 0.0,
                  f"delighter item {item.id} not zeroed by the default multipliers")
    delighter_with_gap = [item.id for item in xyz_instrument.items
                          if item.kano is KanoCategory.DELIGHTER
                          and by_id[item.id].raw_contribution > 0]
    check(failures, delighter_with_gap == [12],
          f"expected item 12 as the dissatisfied delighter, got {delighter_with_gap}")

    rng = np.random.default_rng(314)
    categories = [c.value for c in KanoCategory]
    for _ in range(100):
        kanos = [categories[int(rng.integers(0, 4))] for _ in range(5)]
        instrument = build_instrument({
            "scale": {"min": 1, "max": 5},
            "items": [{"id": i, "prompt": f"i{i}", "dimension": dim, "kano": kano}
                      for i, (dim, kano) in enumerate(zip(DIMENSION_ORDER, kanos), start=1)],
        })
        random_gaps = [
            ItemGap(item_id=i, expectation_mean=4.0, perception_mean=4.0 + g, gap=float(g))
            for i, g in enumerate(rng.uniform(-2, 1, 5), start=1)
        ]
        weights = weights_from_means({d: 20.0 for d in DIMENSION_ORDER})
        factor = float(rng.uniform(0.1, 10.0))
        base = prioritize(random_gaps, weights, instrument, DEFAULT_MULTIPLIERS)
        scaled = prioritize(random_gaps, weights, instrument,
                            {c: v * factor for c, v in DEFAULT_MULTIPLIERS.items()})
        if [p.item_id for p in base] != [p.item_id for p in scaled] or \
                [p.rank for p in base] != [p.rank for p in scaled]:
            failures.append("multiplier scaling changed the ranking permutation")
            break
        for b, s in zip(base, scaled):
            if abs(s.priority_score - b.priority_score * factor) > \
                    1e-9 * max(1.0, abs(b.priority_score) * factor):
                failures.append("multiplier scaling is not homogeneous")
                break
    finish(8, "Kano multipliers", failures, started, budget=5.0)


def test_criterion_9_determinism(tmp_path, capsys, xyz_instrument):
    from satmetric.qfd import serialize_hoq
    from satmetric.rootcause import serialize_fishbone

    started = time.perf_counter()
    failures: list[str] = []

    instrument_path = tmp_path / "xyz.json"
    instrument_path.write_text(json.dumps(serialize_instrument(xyz_instrument)))
    (tmp_path / "weights.json").write_text(json.dumps({"means": xyz.importance_means()}))
    (tmp_path / "e_targets.json").write_text(json.dumps(xyz.expectation_means()))
    (tmp_path / "p_targets.json").write_text(json.dumps(xyz.perception_means()))
    (tmp_path / "hoq.json").write_text(json.dumps(serialize_hoq(xyz.load_xyz_hoq())))
    (tmp_path / "fishbone.json").write_text(json.dumps(
        serialize_fishbone(xyz.load_xyz_fishbone())))

    for kind, targets, seed, out in (("expectation", "e_targets.json", 5, "e.csv"),
                                     ("perception", "p_targets.json", 6, "p.csv")):
        main(["synth", "--instrument", str(instrument_path),
              "--targets", str(tmp_path / targets), "--n", "81", "--seed", str(seed),
              "--kind", kind, "--out", str(tmp_path / out)])

    def run(out_dir):
        rc = main(["gap", "--instrument", str(instrument_path),
                   "--expect", str(tmp_path / "e.csv"),
                   "--perceive", str(tmp_path / "p.csv"),
                   "--weights", str(tmp_path / "weights.json"),
                   "--hoq", str(tmp_path / "hoq.json"),
                   "--fishbone", str(tmp_path / "fishbone.json"),
                   "--suppress-timestamp",
                   "--out", str(out_dir / "xyz")])
        check(failures, rc == 0, f"pipeline exited {rc}")
        files = sorted(p for p in out_dir.rglob("*") if p.is_file())
        return {str(p.relative_to(out_dir)): p.read_bytes() for p in files}

    first = run(tmp_path / "run1")
    second = run(tmp_path / "run2")
    check(failures, set(first) == set(second), "run manifests differ")
    check(failures, len(first) >= 10, f"suspiciously small bundle: {sorted(first)}")
    for name in sorted(set(first) & set(second)):
        if first[name] != second[name]:
            failures.append(f"{name} differs between consecutive runs")
    capsys.readouterr()  # swallow the CLI's written-files listing
    finish(9, "byte-identical pipeline output", failures, started, budget=10.0)


def test_criterion_10_validation(tmp_path, capsys, xyz_instrument):
    started = time.perf_counter()
    failures: list[str] = []

    instrument_path = tmp_path / "xyz.json"
    instrument_path.write_text(json.dumps(serialize_instrument(xyz_instrument)))

    check(failures, validate_importance_row((40, 30, 20, 5, 4)) == "sum_not_100",
          "sum violation not coded")
    check(failures, validate_importance_row((33, 33, 34, 0, 0)) == "not_multiple_of_five",
          "multiple-of-five violation not coded")
    check(failures, validate_importance_row((20, 20, 20, 20, 20)) is None,
          "valid allocation rejected")

    importance_path = tmp_path / "imp.csv"
    importance_path.write_text(
        "respondent_id,tangibles,reliability,responsiveness,assurance,empathy\n"
        "r1,40,30,20,5,4\n"
        "r2,33,33,34,0,0\n"
        "r3,20,20,20,20,20\n")
    rc = main(["validate", "--instrument", str(instrument_path),
               "--importance", str(importance_path)])
    captured = capsys.readouterr()
    check(failures, rc == 1, f"validate exited {rc}, expected 1")
    check(failures, "row 1" in captured.err and "sum_not_100" in captured.err,
          "row-level sum diagnostic missing")
    check(failures, "row 2" in captured.err and "not_multiple_of_five" in captured.err,
          "row-level multiple-of-five diagnostic missing")

    likert_path = tmp_path / "e.csv"
    header = "respondent_id," + ",".join(f"q{i}" for i in range(1, 18))
    good_row = "r%d," + ",".join("4" for _ in range(17))
    likert_path.write_text(header + "\n" + (good_row % 1) + "\n"
                           + "r2," + ",".join(["6"] + ["4"] * 16) + "\n")
    rs, vr = parse_response_file(likert_path.read_bytes(), xyz_instrument,
                                 ResponseKind.EXPECTATION)
    check(failures, vr.rejected_rows == 1 and vr.row_errors[0].code == "out_of_range",
          "out-of-range Likert cell not rejected under drop_row")
    check(failures, rs.n_respondents == 1, "accepted rows wrong")

    rc = main(["validate", "--instrument", str(instrument_path),
               "--expect", str(likert_path), "--missing-policy", "fail"])
    capsys.readouterr()
    check(failures, rc == 1, "fail policy should exit 1 on the first bad row")

    rc = main(["gap", "--instrument", str(instrument_path)])
    capsys.readouterr()
    check(failures, rc == 2, f"usage error exited {rc}, expected 2")

    clean_path = tmp_path / "clean.csv"
    clean_path.write_text(header + "\n" + "\n".join(
        f"r{i}," + ",".join("4" for _ in range(17)) for i in range(1, 4)) + "\n")
    rc = main(["validate", "--instrument", str(instrument_path),
               "--expect", str(clean_path)])
    capsys.readouterr()
    check(failures, rc == 0, f"clean file exited {rc}, expected 0")
    finish(10, "validation diagnostics and exit codes", failures, started, budget=5.0)
