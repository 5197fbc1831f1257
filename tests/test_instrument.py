import json
import re

import pytest

from satmetric.errors import DefinitionError
from satmetric.instrument import (
    DIMENSION_ORDER,
    KanoCategory,
    build_instrument,
    master_catalog,
    select_items,
    serialize_instrument,
)
from satmetric import xyz


def catalog_by_prompt():
    return {item.prompt: item for item in master_catalog()}


def test_catalog_has_28_items_with_expected_dimension_counts():
    catalog = master_catalog()
    assert len(catalog) == 28
    counts = {}
    for item in catalog:
        counts[item.dimension] = counts.get(item.dimension, 0) + 1
    assert counts == {
        "tangibles": 7,
        "reliability": 6,
        "responsiveness": 4,
        "assurance": 6,
        "empathy": 5,
    }
    assert len({item.id for item in catalog}) == 28
    assert len({item.source_key for item in catalog}) == 28


def test_catalog_known_entries():
    by_prompt = catalog_by_prompt()
    error_free = by_prompt["Error free service"]
    assert error_free.dimension == "reliability"
    assert error_free.kano is KanoCategory.MUST_BE

    speed = by_prompt["Speed level of response"]
    assert speed.dimension == "responsiveness"
    assert speed.kano is KanoCategory.PERFORMANCE

    appearances = by_prompt["Employees appearances"]
    assert appearances.kano is KanoCategory.DELIGHTER

    courtesy = by_prompt["The level of employees courtesy"]
    assert courtesy.kano is KanoCategory.PERFORMANCE

    entertainment = by_prompt["Entertainment in the waiting area"]
    assert entertainment.kano is KanoCategory.DELIGHTER


def test_xyz_config_builds_17_item_instrument(xyz_instrument):
    counts = xyz_instrument.dimension_item_counts()
    assert counts == {
        "reliability": 2,
        "responsiveness": 3,
        "assurance": 4,
        "empathy": 5,
        "tangibles": 3,
    }
    assert xyz_instrument.item_ids == tuple(range(1, 18))
    # grouping in survey order: 1-2 reliability, 3-5 responsiveness,
    # 6-9 assurance, 10-14 empathy, 15-17 tangibles
    dims = [item.dimension for item in xyz_instrument.items]
    assert dims == (["reliability"] * 2 + ["responsiveness"] * 3 + ["assurance"] * 4
                    + ["empathy"] * 5 + ["tangibles"] * 3)


def test_single_item_instrument_is_valid():
    instrument = build_instrument({
        "scale": {"min": 1, "max": 5},
        "items": [{"id": 1, "prompt": "only one", "dimension": "empathy", "kano": "must_be"}],
    })
    assert instrument.n_items == 1


def test_duplicate_id_rejected_with_position():
    items = [
        {"id": 1, "prompt": "a", "dimension": "empathy", "kano": "must_be"},
        {"id": 3, "prompt": "b", "dimension": "empathy", "kano": "must_be"},
        {"id": 3, "prompt": "c", "dimension": "empathy", "kano": "must_be"},
    ]
    with pytest.raises(DefinitionError, match=r"position 3.*duplicate id 3"):
        build_instrument({"scale": {"min": 1, "max": 5}, "items": items})


@pytest.mark.parametrize("mutation, match", [
    ({"dimension": "speed"}, "unknown dimension"),
    # The explicit id keeps this case's test name stable.
    pytest.param({"kano": "mandatory"}, r"instrument\.items\[0\]\.kano 'mandatory' is not one of: "
                 "must_be, performance", id="mutation1-unknown Kano token"),
    ({"id": 0}, "positive integer"),
])
def test_bad_item_fields_rejected(mutation, match):
    item = {"id": 1, "prompt": "a", "dimension": "empathy", "kano": "must_be"}
    item.update(mutation)
    with pytest.raises(DefinitionError, match=match):
        build_instrument({"scale": {"min": 1, "max": 5}, "items": [item]})


def test_empty_item_list_rejected():
    with pytest.raises(DefinitionError, match="empty"):
        build_instrument({"scale": {"min": 1, "max": 5}, "items": []})


def test_unknown_fields_rejected():
    with pytest.raises(DefinitionError, match=r"instrument: unknown fields \['extra'\]"):
        build_instrument({"scale": {}, "items": [], "extra": 1})
    with pytest.raises(DefinitionError, match=r"instrument\.scale: unknown fields \['step'\]"):
        build_instrument({
            "scale": {"min": 1, "max": 5, "step": 2},
            "items": [{"id": 1, "prompt": "a", "dimension": "empathy", "kano": "must_be"}],
        })
    with pytest.raises(DefinitionError, match="unknown fields"):
        build_instrument({
            "scale": {"min": 1, "max": 5},
            "items": [{"id": 1, "prompt": "a", "dimension": "empathy",
                       "kano": "must_be", "note": "x"}],
        })


ITEM = {"id": 1, "prompt": "a", "dimension": "empathy", "kano": "must_be"}


@pytest.mark.parametrize("item, scale, message", [
    ({"prompt": {"x": 1}}, {}, "instrument.items[0].prompt must be a string, got {'x': 1}"),
    ({"source_key": 5}, {}, "instrument.items[0].source_key must be a string, got 5"),
    ({}, {"anchor_low": [1]}, "instrument.scale.anchor_low must be a string, got [1]"),
], ids=["prompt", "source_key", "anchor_low"])
def test_text_fields_must_be_strings(item, scale, message):
    """A non-string text field is refused, not turned into text by str()."""
    with pytest.raises(DefinitionError, match=f"^{re.escape(message)}$"):
        build_instrument({"scale": {"min": 1, "max": 5, **scale}, "items": [{**ITEM, **item}]})


def test_missing_item_field_is_named_with_its_path():
    item = {k: v for k, v in ITEM.items() if k != "prompt"}
    with pytest.raises(DefinitionError, match=r"^instrument\.items\[0\]: missing field 'prompt'$"):
        build_instrument({"items": [item]})


def test_serialize_round_trips_identically(xyz_instrument):
    doc = serialize_instrument(xyz_instrument)
    rebuilt = build_instrument(json.loads(json.dumps(doc)))
    assert rebuilt == xyz_instrument
    assert rebuilt.fingerprint() == xyz_instrument.fingerprint()


def test_select_all_28_keys_in_catalog_order():
    catalog = master_catalog()
    instrument = select_items(catalog, [item.source_key for item in catalog])
    assert instrument.n_items == 28
    assert [i.prompt for i in instrument.items] == [i.prompt for i in catalog]
    assert instrument.item_ids == tuple(range(1, 29))


def test_select_items_preserves_selection_order_and_renumbers():
    catalog = master_catalog()
    keys = ["personal-attention", "error-free-service", "response-speed"]
    instrument = select_items(catalog, keys)
    assert [i.source_key for i in instrument.items] == keys
    assert instrument.item_ids == (1, 2, 3)
    # deterministic: same call, same result
    assert select_items(catalog, keys) == instrument


def test_select_unknown_key_rejected():
    with pytest.raises(DefinitionError, match="unknown catalog key 'no-such-key'"):
        select_items(master_catalog(), ["no-such-key"])


def test_shipped_definition_file_matches_catalog_selection(xyz_instrument):
    assert xyz.load_xyz_instrument_from_file() == xyz_instrument


def test_dimension_order_is_the_servqual_set(xyz_instrument):
    assert xyz_instrument.dimension_order == DIMENSION_ORDER
    assert len(DIMENSION_ORDER) == 5
