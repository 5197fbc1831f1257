"""Survey instrument schema: dimensions, items, scales, Kano categories.

An instrument is the fixed frame every computation is keyed to.  Item order
is the canonical computation and serialization order.  A definition document
is read by schema.read through these dataclasses' annotations; their
constructors make the checks that the types do not.  Instruments are
immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import DefinitionError
from .schema import read, read_json, write

#: The five service-quality dimensions, in canonical reporting order.
DIMENSION_ORDER: tuple[str, ...] = (
    "reliability",
    "responsiveness",
    "assurance",
    "empathy",
    "tangibles",
)


class KanoCategory(str, Enum):
    MUST_BE = "must_be"
    PERFORMANCE = "performance"
    DELIGHTER = "delighter"
    INDIFFERENT = "indifferent"


@dataclass(frozen=True)
class LikertScale:
    """Integer rating scale; every response value must lie in [min, max].
    Both bounds fit an int64, so every accepted value does too."""

    min: int = 1
    max: int = 5
    anchor_low: str = "strongly disagree"
    anchor_high: str = "strongly agree"

    def __post_init__(self) -> None:
        if self.min >= self.max:
            raise DefinitionError(f"scale min must be < max, got [{self.min}, {self.max}]")
        if self.min < -(2**63) or self.max > 2**63 - 1:
            raise DefinitionError(f"scale [{self.min}, {self.max}] does not fit an int64: "
                                  f"its bounds must lie in [{-(2**63)}, {2**63 - 1}]")


@dataclass(frozen=True)
class Item:
    """One survey question, bound to a dimension and a Kano category."""

    id: int
    prompt: str
    dimension: str
    kano: KanoCategory
    source_key: str | None = None

    def __post_init__(self) -> None:
        if self.id < 1:
            raise DefinitionError(f"item id must be a positive integer, got {self.id}")
        if self.dimension not in DIMENSION_ORDER:
            raise DefinitionError(
                f"item {self.id}: unknown dimension {self.dimension!r} "
                f"(expected one of {', '.join(DIMENSION_ORDER)})"
            )


@dataclass(frozen=True)
class SurveyInstrument:
    """Ordered item list plus its rating scale.

    An instrument may leave any of the five dimensions empty, but gap
    analysis later requires at least one item per dimension.
    """

    items: tuple[Item, ...]
    scale: LikertScale = field(default_factory=LikertScale)

    def __post_init__(self) -> None:
        if not self.items:
            raise DefinitionError("instrument items must not be empty")
        seen: set[int] = set()
        for pos, item in enumerate(self.items, start=1):
            if item.id in seen:
                raise DefinitionError(f"item at position {pos}: duplicate id {item.id}")
            seen.add(item.id)

    @property
    def dimension_order(self) -> tuple[str, ...]:
        """The five service-quality dimensions in report order: DIMENSION_ORDER."""
        return DIMENSION_ORDER

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def item_ids(self) -> tuple[int, ...]:
        return tuple(item.id for item in self.items)

    def item(self, item_id: int) -> Item:
        for it in self.items:
            if it.id == item_id:
                return it
        raise KeyError(item_id)

    def items_for_dimension(self, dimension: str) -> tuple[Item, ...]:
        return tuple(it for it in self.items if it.dimension == dimension)

    def dimension_item_counts(self) -> dict[str, int]:
        return {d: len(self.items_for_dimension(d)) for d in DIMENSION_ORDER}

    def fingerprint(self) -> str:
        """Stable hex digest of the canonical serialized form."""
        return self._fingerprint

    @cached_property
    def _fingerprint(self) -> str:  # an instrument is immutable: hash it once
        canonical = json.dumps(serialize_instrument(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def _catalog_item(id: int, key: str, prompt: str, dimension: str, kano: KanoCategory) -> Item:
    return Item(id=id, prompt=prompt, dimension=dimension, kano=kano, source_key=key)


def master_catalog() -> tuple[Item, ...]:
    """Built-in 28-item catalog of computer-service satisfaction drivers.

    Items are grouped by dimension (7 tangibles, 6 reliability,
    4 responsiveness, 6 assurance, 5 empathy) and carry stable source keys
    so case-study instruments can be selected with :func:`select_items`.
    """
    M, P, D = KanoCategory.MUST_BE, KanoCategory.PERFORMANCE, KanoCategory.DELIGHTER
    return (
        # tangibles
        _catalog_item(1, "employees-appearances", "Employees appearances", "tangibles", D),
        _catalog_item(2, "equipment-visual-aspect", "Visual aspect of equipment", "tangibles", D),
        _catalog_item(3, "repair-order-ease", "Ease of filling out the repair order", "tangibles", M),
        _catalog_item(4, "repair-order-fill-time", "Time needed to fill out the repair order", "tangibles", M),
        _catalog_item(5, "waiting-area-cleanliness", "Cleanliness level of the waiting area", "tangibles", M),
        _catalog_item(6, "waiting-area-entertainment", "Entertainment in the waiting area", "tangibles", D),
        _catalog_item(7, "waiting-room-comfort", "Comfort level of waiting room", "tangibles", P),
        # reliability
        _catalog_item(8, "complete-customer-care", "Complete care from the organization", "reliability", M),
        _catalog_item(9, "error-free-service", "Error free service", "reliability", M),
        _catalog_item(10, "service-right-first-time", "Delivering the service right at the first time", "reliability", M),
        _catalog_item(11, "sincere-problem-interest", "Sincere interest in solving customer problems", "reliability", M),
        _catalog_item(12, "service-at-promised-time", "Delivering the service at the promised time", "reliability", M),
        _catalog_item(13, "customer-privacy", "Respect for customer privacy", "reliability", M),
        # responsiveness
        _catalog_item(14, "response-speed", "Speed level of response", "responsiveness", P),
        _catalog_item(15, "response-accuracy", "Accuracy level of response", "responsiveness", M),
        _catalog_item(16, "employee-availability", "Employees availability to assist the customer", "responsiveness", M),
        _catalog_item(17, "employee-attitude", "Employees attitude toward the customers", "responsiveness", P),
        # assurance
        _catalog_item(18, "employee-courtesy", "The level of employees courtesy", "assurance", P),
        _catalog_item(19, "technician-courtesy", "The level of technicians courtesy", "assurance", P),
        _catalog_item(20, "reasonable-repair-cost", "Reasonable repair cost", "assurance", P),
        _catalog_item(21, "employee-knowledge", "The level of employees knowledge", "assurance", P),
        _catalog_item(22, "customer-information-safety", "Safety level of customer information", "assurance", M),
        _catalog_item(23, "payment-information-safety", "Safety level of payment information", "assurance", M),
        # empathy
        _catalog_item(24, "operating-hours-convenience", "The level of convenience of operating hours", "empathy", P),
        _catalog_item(25, "service-location-convenience", "The level of convenience of service location", "empathy", M),
        _catalog_item(26, "personal-attention", "The level of personal attention", "empathy", D),
        _catalog_item(27, "communication-language-simplicity", "The simplicity of the language used in communication", "empathy", M),
        _catalog_item(28, "understanding-customer-needs", "The level of understanding customer needs", "empathy", P),
    )


def build_instrument(config: Mapping) -> SurveyInstrument:
    """Read an instrument-definition document, the shape :func:`serialize_instrument`
    writes, through the annotations of SurveyInstrument, LikertScale and Item."""
    return read(SurveyInstrument, config, "instrument")


def select_items(catalog: Sequence[Item], keys: Iterable[str]) -> SurveyInstrument:
    """Build an instrument from catalog entries, renumbered 1..k in
    selection order.  Every key must exist in the catalog."""
    by_key = {item.source_key: item for item in catalog if item.source_key}
    items: list[Item] = []
    for pos, key in enumerate(keys, start=1):
        source = by_key.get(key)
        if source is None:
            raise DefinitionError(f"unknown catalog key {key!r} (selection position {pos})")
        items.append(replace(source, id=pos))
    if not items:
        raise DefinitionError("selection must contain at least one key")
    return SurveyInstrument(items=tuple(items))


def serialize_instrument(instrument: SurveyInstrument) -> dict:
    """Serialize to the definition-document shape accepted by
    :func:`build_instrument` (round-trips to an identical instrument): each
    record's fields in declaration order, an absent source key left out."""
    return {"scale": write(instrument.scale),
            "items": [{name: value for name, value in write(item).items() if value is not None}
                      for item in instrument.items]}


def load_instrument(path) -> SurveyInstrument:
    """Read and validate an instrument-definition JSON file."""
    return build_instrument(read_json(path))
