"""Kano-aware improvement priorities.

Only dissatisfaction is prioritized: an item contributes |gap| times its
dimension's importance when its gap is negative, scaled by a per-category
multiplier.  The default multipliers encode the usual severity ordering
(an absent must-be hurts most, an absent delighter not at all) and are
fully configurable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import ComputationError, DefinitionError
from .instrument import KanoCategory, SurveyInstrument
from .schema import number
from .servqual import ImportanceWeights, ItemGap, dissatisfaction

DEFAULT_MULTIPLIERS: dict[KanoCategory, float] = {
    KanoCategory.MUST_BE: 2.0,
    KanoCategory.PERFORMANCE: 1.0,
    KanoCategory.DELIGHTER: 0.0,
    KanoCategory.INDIFFERENT: 0.0,
}


@dataclass(frozen=True)
class KanoPriority:
    rank: int
    item_id: int
    category: KanoCategory
    raw_contribution: float
    multiplier: float
    priority_score: float


def resolve_multipliers(
    overrides: Mapping[KanoCategory | str, float] | None = None,
) -> dict[KanoCategory, float]:
    """Defaults merged with per-category overrides; all must be >= 0."""
    multipliers = dict(DEFAULT_MULTIPLIERS)
    if overrides:
        for key, value in overrides.items():
            try:
                category = KanoCategory(key)
            except ValueError:
                raise DefinitionError(f"unknown Kano category {key!r}") from None
            multipliers[category] = number(value, f"multiplier for {category.value}", minimum=0)
    return multipliers


def parse_multiplier_spec(spec: str) -> dict[KanoCategory, float]:
    """Parse ``must_be=2,performance=1,...`` into a multiplier mapping; a
    category may be named once."""
    overrides: dict[str, float] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise DefinitionError(f"bad multiplier entry {part!r}, expected category=value")
        key, _, raw = part.partition("=")
        key = key.strip()
        if key in overrides:
            raise DefinitionError(f"multiplier for {key!r} is given more than once")
        try:
            overrides[key] = float(raw)
        except ValueError:
            raise DefinitionError(f"bad multiplier value {raw!r} for {key!r}") from None
    return resolve_multipliers(overrides)


def prioritize(
    gaps: Sequence[ItemGap],
    weights: ImportanceWeights,
    instrument: SurveyInstrument,
    multipliers: Mapping[KanoCategory, float] | None = None,
) -> list[KanoPriority]:
    """Rank every item by category-scaled dissatisfaction.

    raw_contribution = servqual.dissatisfaction for negative gaps and 0
    otherwise; priority_score = raw_contribution x multiplier(category).
    The result is sorted by descending score with lower item id breaking
    ties, and ranks form the permutation 1..m.
    """
    table = resolve_multipliers(multipliers) if multipliers is not None else DEFAULT_MULTIPLIERS
    entries: list[tuple[float, int, KanoCategory, float, float]] = []
    for item, raw in dissatisfaction(gaps, weights, instrument):
        raw = 0.0 if raw is None else raw
        multiplier = table[item.kano]
        score = raw * multiplier
        if not math.isfinite(score):
            raise ComputationError(f"item {item.id}: priority score {raw!r} x {multiplier!r} "
                                   "overflows")
        entries.append((score, item.id, item.kano, raw, multiplier))
    entries.sort(key=lambda e: (-e[0], e[1]))
    return [
        KanoPriority(
            item_id=item_id,
            category=category,
            raw_contribution=raw,
            multiplier=multiplier,
            priority_score=score,
            rank=rank,
        )
        for rank, (score, item_id, category, raw, multiplier) in enumerate(entries, start=1)
    ]
