import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    REFERENCE_DIMENSION_SCORES,
    REFERENCE_GAPS,
    REFERENCE_UNWEIGHTED_MEAN,
    REFERENCE_WEIGHTED_SUM,
    examples,
)
from satmetric.errors import ComputationError, DataError, DefinitionError
from satmetric.ingest import ResponseKind, ResponseSet
from satmetric.instrument import DIMENSION_ORDER, build_instrument
from satmetric.psychometrics import ItemDescriptives
from satmetric.servqual import (
    ImportanceWeights,
    Satisfaction,
    classify_satisfaction,
    compute_gap_report,
    dimension_scores,
    importance_weights,
    item_gaps,
    normalize_weights,
    weights_from_means,
)
from satmetric import xyz


def descriptives_from(means):
    return [ItemDescriptives(item_id=i, mean=m, variance=0.0, n=81)
            for i, m in enumerate(means, start=1)]


class TestItemGaps:
    def test_reference_gaps(self, xyz_expect_desc, xyz_perceive_desc):
        gaps = item_gaps(xyz_expect_desc, xyz_perceive_desc)
        for gap, expected in zip(gaps, REFERENCE_GAPS):
            assert gap.gap == pytest.approx(expected, abs=1e-9)
        assert gaps[0].gap == pytest.approx(0.049382716, abs=1e-9)
        assert gaps[11].gap == pytest.approx(-0.518518519, abs=1e-9)

    def test_equal_surveys_give_zero_gaps(self, xyz_expect_desc):
        gaps = item_gaps(xyz_expect_desc, xyz_expect_desc)
        assert all(g.gap == 0.0 for g in gaps)

    def test_item_set_mismatch_rejected(self, xyz_expect_desc, xyz_perceive_desc):
        with pytest.raises(DataError, match="different item sets"):
            item_gaps(xyz_expect_desc, xyz_perceive_desc[:-1])
        with pytest.raises(DataError, match="different item sets"):
            item_gaps(xyz_expect_desc, list(reversed(xyz_perceive_desc)))


class TestImportanceWeights:
    def test_reference_means(self, xyz_weights):
        for dim, (_, _, importance) in REFERENCE_DIMENSION_SCORES.items():
            assert xyz_weights[dim] == pytest.approx(importance, abs=1e-8)
        assert xyz_weights.sum_of_means == pytest.approx(100.06097561, abs=1e-8)
        assert xyz_weights.n_respondents == 82

    def test_single_uniform_respondent(self):
        rs = ResponseSet(kind=ResponseKind.IMPORTANCE, instrument_ref="t",
                         values=np.array([[20, 20, 20, 20, 20]]),
                         respondent_ids=("r1",))
        weights = importance_weights(rs)
        assert all(weights[d] == 20.0 for d in DIMENSION_ORDER)
        assert weights.sum_of_means == 100.0
        assert weights.n_respondents == 1

    def test_likert_set_rejected(self, xyz_expect_desc):
        rs = ResponseSet(kind=ResponseKind.EXPECTATION, instrument_ref="t",
                         values=np.array([[1, 2, 3, 4, 5]]), respondent_ids=("r1",))
        with pytest.raises(DataError, match="importance"):
            importance_weights(rs)

    def test_sum_outside_tolerance_rejected(self):
        means = {"reliability": 40, "responsiveness": 25, "assurance": 20,
                 "empathy": 10, "tangibles": 4}  # sums to 99
        with pytest.raises(DefinitionError, match="outside 100"):
            weights_from_means(means)

    def test_missing_dimension_rejected(self):
        with pytest.raises(DefinitionError, match="missing dimensions"):
            weights_from_means({"reliability": 100.0})

    def test_normalize_rescales_to_100(self, xyz_weights):
        normalized = normalize_weights(xyz_weights)
        assert normalized.sum_of_means == pytest.approx(100.0, abs=1e-9)
        ratio = normalized["reliability"] / xyz_weights["reliability"]
        for dim in DIMENSION_ORDER:
            assert normalized[dim] / xyz_weights[dim] == pytest.approx(ratio, rel=1e-12)


class TestDimensionScores:
    def test_reference_dimension_scores(self, xyz_instrument, xyz_weights,
                                        xyz_expect_desc, xyz_perceive_desc):
        gaps = item_gaps(xyz_expect_desc, xyz_perceive_desc)
        scores = dimension_scores(gaps, xyz_weights, xyz_instrument)
        assert [s.dimension for s in scores] == list(DIMENSION_ORDER)
        for score in scores:
            unweighted, weighted, _ = REFERENCE_DIMENSION_SCORES[score.dimension]
            assert score.unweighted == pytest.approx(unweighted, abs=1e-9)
            assert score.weighted == pytest.approx(weighted, abs=1e-9)
        reliability = scores[0]
        assert reliability.item_ids == (1, 2)
        assert reliability.unweighted == pytest.approx(0.037037037, abs=1e-9)
        assert reliability.weighted == pytest.approx(1.470189702, abs=1e-9)

    def test_single_item_dimension_with_zero_weight(self):
        instrument = build_instrument({
            "scale": {"min": 1, "max": 5},
            "items": [{"id": i, "prompt": f"i{i}", "dimension": dim, "kano": "must_be"}
                      for i, dim in enumerate(DIMENSION_ORDER, start=1)],
        })
        expect = descriptives_from([4, 4, 4, 4, 4])
        perceive = descriptives_from([3, 4, 4, 4, 4])
        weights = weights_from_means(
            {"reliability": 0, "responsiveness": 30, "assurance": 30,
             "empathy": 20, "tangibles": 20})
        scores = dimension_scores(item_gaps(expect, perceive), weights, instrument)
        assert scores[0].unweighted == -1.0
        assert scores[0].weighted == 0.0

    def test_empty_dimension_rejected(self, xyz_weights):
        instrument = build_instrument({
            "scale": {"min": 1, "max": 5},
            "items": [{"id": 1, "prompt": "a", "dimension": "empathy", "kano": "must_be"}],
        })
        expect = descriptives_from([4])
        perceive = descriptives_from([3])
        with pytest.raises(ComputationError, match="has no items"):
            dimension_scores(item_gaps(expect, perceive), xyz_weights, instrument)


class TestOverallScores:
    def test_reference_totals(self, xyz_instrument, xyz_weights,
                              xyz_expect_desc, xyz_perceive_desc):
        report = compute_gap_report(xyz_expect_desc, xyz_perceive_desc,
                                    xyz_weights, xyz_instrument)
        assert report.overall_weighted_sum == pytest.approx(REFERENCE_WEIGHTED_SUM, abs=1e-6)
        assert report.overall_weighted_mean == pytest.approx(REFERENCE_WEIGHTED_SUM / 100,
                                                             abs=1e-8)
        assert report.unweighted_mean_of_dimensions == pytest.approx(REFERENCE_UNWEIGHTED_MEAN,
                                                                     abs=1e-9)

    def test_all_zero_gaps(self, xyz_instrument, xyz_weights, xyz_expect_desc):
        report = compute_gap_report(xyz_expect_desc, xyz_expect_desc, xyz_weights, xyz_instrument)
        assert (report.overall_weighted_sum, report.overall_weighted_mean,
                report.unweighted_mean_of_dimensions) == (0.0, 0.0, 0.0)


class TestClassification:
    @pytest.mark.parametrize("gap, expected", [
        (0.049382716, Satisfaction.SATISFIED),
        (-1.111111111, Satisfaction.DISSATISFIED),
        (0.0, Satisfaction.NEUTRAL),
    ])
    def test_sign_classification(self, gap, expected):
        assert classify_satisfaction(gap) is expected

    def test_classification_depends_only_on_sign(self):
        for gap in (0.001, 2.5, 4.0):
            assert classify_satisfaction(gap) is Satisfaction.SATISFIED
            assert classify_satisfaction(-gap) is Satisfaction.DISSATISFIED


class TestProperties:
    def test_antisymmetry_swapping_surveys_negates_everything(
            self, xyz_instrument, xyz_weights, xyz_expect_desc, xyz_perceive_desc):
        forward = compute_gap_report(xyz_expect_desc, xyz_perceive_desc,
                                     xyz_weights, xyz_instrument)
        backward = compute_gap_report(xyz_perceive_desc, xyz_expect_desc,
                                      xyz_weights, xyz_instrument)
        for f, b in zip(forward.item_gaps, backward.item_gaps):
            assert b.gap == pytest.approx(-f.gap, abs=1e-12)
        for f, b in zip(forward.dimension_scores, backward.dimension_scores):
            assert b.unweighted == pytest.approx(-f.unweighted, abs=1e-12)
            assert b.weighted == pytest.approx(-f.weighted, abs=1e-12)
        assert backward.overall_weighted_sum == pytest.approx(
            -forward.overall_weighted_sum, abs=1e-9)
        assert backward.unweighted_mean_of_dimensions == pytest.approx(
            -forward.unweighted_mean_of_dimensions, abs=1e-12)

    def test_equal_weights_make_weighted_consistent_with_unweighted(
            self, xyz_instrument, xyz_expect_desc, xyz_perceive_desc):
        weights = weights_from_means({d: 20.0 for d in DIMENSION_ORDER})
        report = compute_gap_report(xyz_expect_desc, xyz_perceive_desc, weights, xyz_instrument)
        y_sum = sum(s.unweighted for s in report.dimension_scores)
        assert report.overall_weighted_sum == pytest.approx(20.0 * y_sum, rel=1e-12)
        assert report.overall_weighted_mean == pytest.approx(
            report.unweighted_mean_of_dimensions, rel=1e-12)

    def test_gap_bounds_on_five_point_scale(self, xyz_expect_desc, xyz_perceive_desc,
                                            xyz_weights, xyz_instrument):
        report = compute_gap_report(xyz_expect_desc, xyz_perceive_desc,
                                    xyz_weights, xyz_instrument)
        assert all(abs(g.gap) <= 4.0 for g in report.item_gaps)
        assert abs(report.overall_weighted_sum) <= 4.0 * xyz_weights.sum_of_means

    @settings(max_examples=examples(40), deadline=None)
    @given(st.integers(0, 100_000))
    def test_random_consistency(self, seed):
        rng = np.random.default_rng(seed)
        instrument = build_instrument({
            "scale": {"min": 1, "max": 5},
            "items": [{"id": i, "prompt": f"i{i}", "dimension": dim, "kano": "must_be"}
                      for i, dim in enumerate(DIMENSION_ORDER, start=1)],
        })
        e = descriptives_from(rng.uniform(1, 5, 5).tolist())
        p = descriptives_from(rng.uniform(1, 5, 5).tolist())
        raw = rng.uniform(0, 1, 5)
        alloc = raw / raw.sum() * 100.0
        weights = weights_from_means(dict(zip(DIMENSION_ORDER, alloc)))
        report = compute_gap_report(e, p, weights, instrument)
        for score in report.dimension_scores:
            assert score.weighted == pytest.approx(
                score.unweighted * weights[score.dimension], rel=1e-12)
        assert report.overall_weighted_sum == pytest.approx(
            sum(s.weighted for s in report.dimension_scores), rel=1e-12)


FIVE_ITEMS = build_instrument({
    "scale": {"min": 1, "max": 5},
    "items": [{"id": i, "prompt": f"i{i}", "dimension": dim, "kano": "must_be"}
              for i, dim in enumerate(DIMENSION_ORDER, start=1)],
})


@pytest.mark.parametrize("call, error, message", [
    (lambda: weights_from_means({"reliability": 40, "responsiveness": 20, "assurance": 20,
                                 "empathy": 10, "tangibles": 10, "speed": 0}),
     DefinitionError, "importance means name unknown dimensions: ['speed']"),
    (lambda: normalize_weights(ImportanceWeights(
        means=dict.fromkeys(DIMENSION_ORDER, 0.0), n_respondents=None, sum_of_means=0.0)),
     ComputationError, "cannot normalize all-zero importance weights"),
    (lambda: dimension_scores(item_gaps(descriptives_from([4] * 4), descriptives_from([3] * 4)),
                              weights_from_means(dict.fromkeys(DIMENSION_ORDER, 20)),
                              FIVE_ITEMS),
     DataError, "no gap computed for item 5"),
], ids=["unknown_dimension", "all_zero_weights", "item_without_gap"])
def test_inconsistent_weights_and_gaps_are_refused(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
