import copy
import dataclasses
import json
import re

import numpy as np
import pytest
from conftest import empty_containers, examples
from hypothesis import given, settings
from hypothesis import strategies as st

from satmetric.errors import DefinitionError
from satmetric.qfd import HouseOfQualityDoc, build_hoq, roof_conflicts, serialize_hoq
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
        with pytest.raises(DefinitionError,
                           match=r"^hoq\.customer_reqs\[1\]\.id 'c' is a duplicate$"):
            build_hoq({
                "customer_reqs": [{"id": "c", "importance": 1}, {"id": "c", "importance": 2}],
                "tech_reqs": [{"id": "t1"}],
                "relationships": [[1], [3]],
            })
        with pytest.raises(DefinitionError,
                           match=r"^hoq\.tech_reqs\[1\]\.id 't' is a duplicate$"):
            build_hoq({
                "customer_reqs": [{"id": "c", "importance": 1}],
                "tech_reqs": [{"id": "t", "name": "a"}, {"id": "t", "name": "b"}],
                "relationships": [[1, 3]],
            })

    def test_unknown_fields_rejected(self):
        with pytest.raises(DefinitionError, match=r"^hoq: unknown fields \['extra_field'\]$"):
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

    def test_editing_the_serialized_house_leaves_the_house(self):
        """serialize_hoq hands out new containers: emptying every dict and
        list of its document leaves the house, and its next document, as
        they were."""
        hoq = xyz.load_xyz_hoq()
        doc = serialize_hoq(hoq)
        before = copy.deepcopy(doc)
        assert doc["benchmarks"] is not hoq.benchmarks and doc["ctq_tree"] is not hoq.ctq_tree
        empty_containers(doc)
        assert serialize_hoq(hoq) == before
        assert before["benchmarks"] == hoq.benchmarks and before["ctq_tree"] == hoq.ctq_tree

    @pytest.mark.parametrize("extra", [{}, {"benchmarks": {}, "ctq_tree": []},
                                       {"ctq_tree": {"root": None}}],
                             ids=["absent", "empty", "ctq_tree_only"])
    def test_serialized_keys_follow_the_document(self, extra):
        """serialize_hoq writes HouseOfQualityDoc's fields in their declared
        order; an annotation is left out when absent and kept when present,
        even empty."""
        hoq = simple_hoq([1, 2], [[9, 0], [1, 3]], roof=[{"i": 1, "j": 0, "sign": "negative"}],
                         **extra)
        doc = serialize_hoq(hoq)
        declared = [field.name for field in dataclasses.fields(HouseOfQualityDoc)]
        assert list(doc) == [name for name in declared if name not in {
            "benchmarks", "ctq_tree"} - set(extra)]
        assert {name: doc[name] for name in extra} == extra
        assert doc["customer_reqs"][0] == {"id": "c1", "name": "customer req 1", "importance": 1.0}
        assert doc["tech_reqs"][1] == {"id": "t2", "name": "tech req 2"}
        assert doc["relationships"] == [[9, 0], [1, 3]]
        assert [type(v) for row in doc["relationships"] for v in row] == [int] * 4
        assert doc["roof"] == [{"i": 0, "j": 1, "sign": "negative"}]
        assert serialize_hoq(build_hoq(json.loads(json.dumps(doc)))) == doc

    def test_annotations_are_read_as_plain_json_data(self):
        """numpy numbers become int and float, a tuple a list, so the
        house serializes; a value JSON cannot hold is refused by its path."""
        hoq = simple_hoq([1], [[9]], benchmarks={"us": [np.int64(1), np.float32(0.5), (2, 3)]},
                         ctq_tree={"root": None})
        assert hoq.benchmarks == {"us": [1, 0.5, [2, 3]]}
        assert [type(v) for v in hoq.benchmarks["us"]] == [int, float, list]
        assert json.loads(json.dumps(serialize_hoq(hoq)))["benchmarks"] == hoq.benchmarks
        cycle = {"a": [1]}
        cycle["a"].append(cycle)
        shared = [1, 2]
        assert simple_hoq([1], [[9]], ctq_tree=[shared, shared]).ctq_tree == [[1, 2], [1, 2]]
        for field, value, message in [
            ("benchmarks", {"us": [np.int64(1), {2}]}, "hoq.benchmarks['us'][1] must be JSON data"),
            ("benchmarks", {"us": [float("nan")]}, "hoq.benchmarks['us'][0] must be a finite"),
            ("ctq_tree", [{1: "a"}], "hoq.ctq_tree[0] key 1 must be a string"),
            ("ctq_tree", {"a"}, "hoq.ctq_tree must be JSON data"),
            ("ctq_tree", [np.bool_(True)], "hoq.ctq_tree[0] must be JSON data"),
            ("ctq_tree", cycle, "hoq.ctq_tree['a'][1] holds itself"),
        ]:
            with pytest.raises(DefinitionError, match=re.escape(message)):
                simple_hoq([1], [[9]], **{field: value})


class TestProperties:
    @settings(max_examples=examples(50), deadline=None)
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


@pytest.mark.parametrize("key, doc", [
    ("customer_reqs", {"customer_reqs": [], "tech_reqs": [{"id": "t1"}], "relationships": []}),
    ("tech_reqs", {"customer_reqs": [{"id": "c1", "importance": 1}], "tech_reqs": [],
                   "relationships": [[]]}),
])
def test_empty_requirement_list_is_refused(key, doc):
    with pytest.raises(DefinitionError, match=rf"^hoq\.{key} must hold at least one requirement$"):
        build_hoq(doc)
