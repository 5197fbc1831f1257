import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satmetric.errors import DefinitionError
from satmetric.qfd import build_hoq, roof_conflicts, serialize_hoq
from satmetric import xyz


def simple_hoq(importances, relationships, roof=None, **extra):
    n_tr = len(relationships[0]) if relationships else 0
    doc = {
        "customer_reqs": [
            {"id": f"c{i}", "name": f"customer req {i}", "importance": imp}
            for i, imp in enumerate(importances, start=1)
        ],
        "tech_reqs": [{"id": f"t{j}", "name": f"tech req {j}"} for j in range(1, n_tr + 1)],
        "relationships": relationships,
        "roof": roof or [],
    }
    doc.update(extra)
    return build_hoq(doc)


class TestTechnicalImportance:
    def test_two_by_two_oracle(self):
        # hand arithmetic: (40*9 + 60*1, 40*3 + 60*9) = (420, 660)
        hoq = simple_hoq([40, 60], [[9, 3], [1, 9]])
        weights = hoq.importances
        assert weights[0].absolute == pytest.approx(420.0, abs=1e-9)
        assert weights[1].absolute == pytest.approx(660.0, abs=1e-9)
        assert weights[0].relative_pct == pytest.approx(38.88888888888889, abs=1e-9)
        assert weights[1].relative_pct == pytest.approx(61.111111111111114, abs=1e-9)
        assert (weights[0].rank, weights[1].rank) == (2, 1)

    def test_single_cell(self):
        hoq = simple_hoq([1], [[9]])
        (weight,) = hoq.importances
        assert weight.absolute == 9.0
        assert weight.relative_pct == 100.0
        assert weight.rank == 1

    def test_all_zero_matrix_is_degenerate(self):
        hoq = simple_hoq([10, 20], [[0, 0], [0, 0]])
        assert hoq.degenerate is True
        for weight in hoq.importances:
            assert weight.absolute == 0.0 and weight.relative_pct == 0.0

    def test_relative_weights_sum_to_100(self):
        hoq = simple_hoq([5, 7, 11], [[9, 3, 0], [1, 9, 3], [0, 1, 9]])
        assert sum(w.relative_pct for w in hoq.importances) == pytest.approx(
            100.0, abs=1e-9)

    def test_equal_absolutes_tie_break_on_lower_index(self):
        hoq = simple_hoq([10], [[3, 3]])
        weights = hoq.importances
        assert (weights[0].rank, weights[1].rank) == (1, 2)


class TestValidation:
    def test_illegal_strength_rejected(self):
        with pytest.raises(DefinitionError, match="not a legal"):
            simple_hoq([40, 60], [[9, 5], [1, 9]])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DefinitionError, match="rows"):
            simple_hoq([40, 60, 10], [[9, 3], [1, 9]])
        with pytest.raises(DefinitionError, match="cells"):
            build_hoq({
                "customer_reqs": [{"id": "c1", "importance": 1}],
                "tech_reqs": [{"id": "t1"}, {"id": "t2"}],
                "relationships": [[9]],
            })

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DefinitionError, match="duplicate customer requirement"):
            build_hoq({
                "customer_reqs": [{"id": "c", "importance": 1}, {"id": "c", "importance": 2}],
                "tech_reqs": [{"id": "t1"}],
                "relationships": [[1], [3]],
            })
        with pytest.raises(DefinitionError, match="duplicate technical requirement"):
            build_hoq({
                "customer_reqs": [{"id": "c", "importance": 1}],
                "tech_reqs": [{"id": "t", "name": "a"}, {"id": "t", "name": "b"}],
                "relationships": [[1, 3]],
            })

    def test_unknown_fields_rejected(self):
        with pytest.raises(DefinitionError, match="unknown house-of-quality fields"):
            simple_hoq([1], [[1]], extra_field=True)

    def test_negative_importance_rejected(self):
        with pytest.raises(DefinitionError, match=">= 0"):
            simple_hoq([-1], [[1]])


class TestRoof:
    def test_single_negative_pair(self):
        hoq = simple_hoq([1], [[1, 3, 9, 0, 1, 3]],
                         roof=[{"i": 2, "j": 5, "sign": "negative"}])
        assert roof_conflicts(hoq) == [("t3", "t6")]

    def test_all_none_roof_is_empty(self):
        hoq = simple_hoq([1], [[1, 3]])
        assert roof_conflicts(hoq) == []

    def test_pairs_normalized_and_sorted(self):
        hoq = simple_hoq([1], [[1, 3, 9, 0]], roof=[
            {"i": 3, "j": 1, "sign": "negative"},
            {"i": 0, "j": 2, "sign": "negative"},
            {"i": 1, "j": 2, "sign": "positive"},
        ])
        assert roof_conflicts(hoq) == [("t1", "t3"), ("t2", "t4")]

    def test_bad_roof_entries_rejected(self):
        with pytest.raises(DefinitionError, match="sign"):
            simple_hoq([1], [[1, 3]], roof=[{"i": 0, "j": 1, "sign": "maybe"}])
        with pytest.raises(DefinitionError, match="must differ"):
            simple_hoq([1], [[1, 3]], roof=[{"i": 1, "j": 1, "sign": "negative"}])
        with pytest.raises(DefinitionError, match="out of range"):
            simple_hoq([1], [[1, 3]], roof=[{"i": 0, "j": 5, "sign": "negative"}])
        with pytest.raises(DefinitionError, match="duplicate pair"):
            simple_hoq([1], [[1, 3]], roof=[
                {"i": 0, "j": 1, "sign": "negative"},
                {"i": 1, "j": 0, "sign": "positive"},
            ])


class TestShippedExample:
    def test_xyz_example_rank_order_claims(self):
        hoq = xyz.load_xyz_hoq()
        assert len(hoq.customer_reqs) == 5
        assert len(hoq.tech_reqs) == 20
        ranked = sorted(hoq.importances, key=lambda t: t.rank)
        assert ranked[0].tech_id == "quality-of-repair-work"
        assert ranked[-1].tech_id == "equipment-appearance"

    def test_xyz_example_names_the_speed_inspection_tradeoff(self):
        hoq = xyz.load_xyz_hoq()
        conflicts = roof_conflicts(hoq)
        assert ("thoroughness-of-inspection", "speed-of-service") in conflicts

    def test_annotations_are_echoed(self):
        hoq = xyz.load_xyz_hoq()
        assert hoq.benchmarks is not None
        assert hoq.ctq_tree is not None
        doc = serialize_hoq(hoq)
        assert doc["benchmarks"] == hoq.benchmarks
        assert build_hoq(doc).importances == hoq.importances


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_linearity_and_zero_column(self, seed):
        rng = np.random.default_rng(seed)
        n_cr = int(rng.integers(1, 5))
        n_tr = int(rng.integers(1, 7))
        importances = rng.uniform(0, 50, n_cr).tolist()
        cells = rng.choice([0, 1, 3, 9], size=(n_cr, n_tr))
        base = simple_hoq(importances, cells.tolist())

        doubled = simple_hoq([2 * v for v in importances], cells.tolist())
        for b, d in zip(base.importances, doubled.importances):
            assert d.absolute == pytest.approx(2 * b.absolute, rel=1e-12, abs=1e-12)
            assert d.rank == b.rank
            if not base.degenerate:
                assert d.relative_pct == pytest.approx(b.relative_pct, rel=1e-9, abs=1e-9)

        padded = simple_hoq(importances, np.hstack([cells, np.zeros((n_cr, 1), int)]).tolist())
        for b, p in zip(base.importances, padded.importances):
            assert p.absolute == b.absolute
        assert padded.importances[-1].absolute == 0.0
        assert padded.importances[-1].rank == n_tr + 1

        if not base.degenerate:
            assert sum(w.relative_pct for w in base.importances) == pytest.approx(
                100.0, abs=1e-9)
