import pytest
from conftest import examples
from hypothesis import given, settings
from hypothesis import strategies as st

from satmetric.errors import DefinitionError
from satmetric.instrument import DIMENSION_ORDER, KanoCategory, build_instrument, master_catalog
from satmetric.kano import (
    DEFAULT_MULTIPLIERS,
    parse_multiplier_spec,
    prioritize,
    resolve_multipliers,
)
from satmetric.servqual import ItemGap, item_gaps, weights_from_means
from satmetric import xyz


def gap(item_id, value):
    return ItemGap(item_id=item_id, expectation_mean=4.0,
                   perception_mean=4.0 + value, gap=value)


def five_dim_instrument(kanos):
    return build_instrument({
        "scale": {"min": 1, "max": 5},
        "items": [{"id": i, "prompt": f"i{i}", "dimension": dim, "kano": kano}
                  for i, (dim, kano) in enumerate(zip(DIMENSION_ORDER, kanos), start=1)],
    })


UNIFORM_WEIGHTS = weights_from_means({d: 20.0 for d in DIMENSION_ORDER})


class TestClassify:
    def test_static_catalog_categories(self):
        by_prompt = {item.prompt: item for item in master_catalog()}
        assert by_prompt["Error free service"].kano is KanoCategory.MUST_BE
        assert by_prompt["The level of employees courtesy"].kano is KanoCategory.PERFORMANCE
        assert by_prompt["Entertainment in the waiting area"].kano is KanoCategory.DELIGHTER


class TestMultipliers:
    def test_defaults(self):
        assert DEFAULT_MULTIPLIERS[KanoCategory.MUST_BE] == 2.0
        assert DEFAULT_MULTIPLIERS[KanoCategory.PERFORMANCE] == 1.0
        assert DEFAULT_MULTIPLIERS[KanoCategory.DELIGHTER] == 0.0
        assert DEFAULT_MULTIPLIERS[KanoCategory.INDIFFERENT] == 0.0

    def test_parse_spec(self):
        table = parse_multiplier_spec("must_be=3,performance=1.5,delighter=0.25")
        assert table[KanoCategory.MUST_BE] == 3.0
        assert table[KanoCategory.PERFORMANCE] == 1.5
        assert table[KanoCategory.DELIGHTER] == 0.25
        assert table[KanoCategory.INDIFFERENT] == 0.0  # default kept

    def test_bad_spec_rejected(self):
        with pytest.raises(DefinitionError, match="unknown Kano category"):
            parse_multiplier_spec("vital=2")
        with pytest.raises(DefinitionError, match="bad multiplier value"):
            parse_multiplier_spec("must_be=two")
        with pytest.raises(DefinitionError, match=">= 0"):
            resolve_multipliers({"must_be": -1})

    @pytest.mark.parametrize("spec, name", [("must_be=2,must_be=0", "must_be"),
                                            ("must_be=2, must_be =2", "must_be"),
                                            ("delighter=1,performance=1,delighter=1",
                                             "delighter")])
    def test_repeated_category_rejected(self, spec, name):
        """A category named twice is refused, not overwritten by the later
        entry; names are compared once stripped."""
        with pytest.raises(DefinitionError, match=f"multiplier for '{name}' is given more than"):
            parse_multiplier_spec(spec)


class TestPrioritize:
    def test_performance_item_score_is_weighted_gap(self, xyz_weights):
        # assurance item with gap -1.111..., category performance, multiplier 1
        instrument = five_dim_instrument(
            ["must_be", "must_be", "performance", "must_be", "must_be"])
        gaps = [gap(1, 0.1), gap(2, 0.1), gap(3, -90 / 81), gap(4, 0.1), gap(5, 0.1)]
        priorities = prioritize(gaps, xyz_weights, instrument,
                                multipliers={KanoCategory.PERFORMANCE: 1.0})
        top = priorities[0]
        assert top.item_id == 3
        assert top.raw_contribution == pytest.approx(18.69918699, abs=1e-8)
        assert top.priority_score == pytest.approx(18.69918699, abs=1e-8)
        assert top.rank == 1

    def test_delighter_dissatisfaction_zeroed_by_default(self):
        instrument = five_dim_instrument(
            ["delighter", "performance", "performance", "performance", "performance"])
        gaps = [gap(1, -0.5), gap(2, -0.1), gap(3, 0.2), gap(4, 0.0), gap(5, 0.3)]
        priorities = prioritize(gaps, UNIFORM_WEIGHTS, instrument)
        by_id = {p.item_id: p for p in priorities}
        assert by_id[1].priority_score == 0.0
        assert by_id[1].raw_contribution == pytest.approx(0.5 * 20.0)
        assert by_id[2].priority_score > 0.0
        assert by_id[2].rank == 1

    def test_all_positive_gaps_rank_by_item_id(self):
        instrument = five_dim_instrument(["must_be"] * 5)
        gaps = [gap(i, 0.5) for i in range(1, 6)]
        priorities = prioritize(gaps, UNIFORM_WEIGHTS, instrument)
        assert [p.item_id for p in priorities] == [1, 2, 3, 4, 5]
        assert [p.rank for p in priorities] == [1, 2, 3, 4, 5]
        assert all(p.priority_score == 0.0 for p in priorities)

    def test_ranks_are_a_permutation(self, xyz_instrument, xyz_weights,
                                     xyz_expect_desc, xyz_perceive_desc):
        gaps = item_gaps(xyz_expect_desc, xyz_perceive_desc)
        priorities = prioritize(gaps, xyz_weights, xyz_instrument)
        assert sorted(p.rank for p in priorities) == list(range(1, 18))
        scores = [p.priority_score for p in priorities]
        assert scores == sorted(scores, reverse=True)

    def test_xyz_delighter_item_zeroed(self, xyz_instrument, xyz_weights,
                                       xyz_expect_desc, xyz_perceive_desc):
        # item 12 (personal attention) is the one delighter with a negative gap
        gaps = item_gaps(xyz_expect_desc, xyz_perceive_desc)
        priorities = {p.item_id: p for p in prioritize(gaps, xyz_weights, xyz_instrument)}
        assert xyz_instrument.item(12).kano is KanoCategory.DELIGHTER
        assert priorities[12].raw_contribution > 0
        assert priorities[12].priority_score == 0.0


class TestProperties:
    def test_more_negative_gap_never_lowers_score(self):
        instrument = five_dim_instrument(["performance"] * 5)
        base = [gap(i, -0.2) for i in range(1, 6)]
        worse = [gap(1, -0.9)] + base[1:]
        score_base = {p.item_id: p.priority_score
                      for p in prioritize(base, UNIFORM_WEIGHTS, instrument)}
        score_worse = {p.item_id: p.priority_score
                       for p in prioritize(worse, UNIFORM_WEIGHTS, instrument)}
        assert score_worse[1] >= score_base[1]

    @settings(max_examples=examples(50), deadline=None)
    @given(st.floats(min_value=0.01, max_value=100.0,
                     allow_nan=False, allow_infinity=False),
           st.integers(0, 10_000))
    def test_multiplier_scaling_preserves_ranking(self, factor, seed):
        import random

        rng = random.Random(seed)
        kanos = [rng.choice(["must_be", "performance", "delighter", "indifferent"])
                 for _ in range(5)]
        instrument = five_dim_instrument(kanos)
        gaps = [gap(i, rng.uniform(-2, 1)) for i in range(1, 6)]
        base_table = dict(DEFAULT_MULTIPLIERS)
        scaled_table = {c: v * factor for c, v in base_table.items()}
        base = prioritize(gaps, UNIFORM_WEIGHTS, instrument, base_table)
        scaled = prioritize(gaps, UNIFORM_WEIGHTS, instrument, scaled_table)
        assert [p.item_id for p in base] == [p.item_id for p in scaled]
        assert [p.rank for p in base] == [p.rank for p in scaled]
        for b, s in zip(base, scaled):
            assert s.priority_score == pytest.approx(b.priority_score * factor, rel=1e-9)

    def test_nonnegative_gap_items_never_outrank_positive_scores(
            self, xyz_instrument, xyz_weights, xyz_expect_desc, xyz_perceive_desc):
        gaps = item_gaps(xyz_expect_desc, xyz_perceive_desc)
        gap_by_id = {g.item_id: g.gap for g in gaps}
        priorities = prioritize(gaps, xyz_weights, xyz_instrument)
        worst_positive_rank = max(
            (p.rank for p in priorities if p.priority_score > 0), default=0)
        for p in priorities:
            if gap_by_id[p.item_id] >= 0:
                assert p.rank > worst_positive_rank
