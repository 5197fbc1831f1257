"""Gap analysis: per-item gaps, dimension scores, and overall scores.

The gap for an item is perception mean minus expectation mean; a positive
gap means the delivered service exceeds what customers expected.  Dimension
scores average the member-item gaps, and weighted scores multiply that
average by the dimension's mean importance allocation (points out of 100).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from .errors import ComputationError, DataError, DefinitionError
from .ingest import IMPORTANCE_COLUMNS, ResponseKind, ResponseSet
from .instrument import DIMENSION_ORDER, SurveyInstrument
from .psychometrics import ItemDescriptives, ReliabilityReport
from .schema import integer, number

#: Allowed drift of the importance means' sum away from 100 points.
WEIGHT_SUM_TOLERANCE = 0.25


class Satisfaction(str, Enum):
    SATISFIED = "satisfied"
    NEUTRAL = "neutral"
    DISSATISFIED = "dissatisfied"


@dataclass(frozen=True)
class ItemGap:
    item_id: int
    expectation_mean: float
    perception_mean: float
    gap: float


@dataclass(frozen=True)
class ImportanceWeights:
    """Mean importance allocation per dimension (points out of 100)."""

    means: Mapping[str, float]
    n_respondents: int | None
    sum_of_means: float

    def __getitem__(self, dimension: str) -> float:
        return self.means[dimension]


@dataclass(frozen=True)
class DimensionScore:
    dimension: str
    item_ids: tuple[int, ...]
    unweighted: float
    weighted: float
    importance: float


@dataclass(frozen=True)
class GapReport:
    item_gaps: tuple[ItemGap, ...]
    dimension_scores: tuple[DimensionScore, ...]
    overall_weighted_sum: float
    overall_weighted_mean: float
    unweighted_mean_of_dimensions: float
    reliability_expectation: ReliabilityReport | None = None
    reliability_perception: ReliabilityReport | None = None


def classify_satisfaction(gap: float) -> Satisfaction:
    """Positive gap: satisfied; zero: neutral; negative: dissatisfied."""
    if gap > 0:
        return Satisfaction.SATISFIED
    if gap < 0:
        return Satisfaction.DISSATISFIED
    return Satisfaction.NEUTRAL


def item_gaps(
    expect: Sequence[ItemDescriptives],
    perceive: Sequence[ItemDescriptives],
) -> list[ItemGap]:
    """Pair expectation and perception descriptives item by item and take
    perception minus expectation.  Both lists must cover the same items in
    the same order."""
    if [d.item_id for d in expect] != [d.item_id for d in perceive]:
        raise DataError("expectation and perception descriptives cover different item sets")
    return [
        ItemGap(
            item_id=e.item_id,
            expectation_mean=e.mean,
            perception_mean=p.mean,
            gap=p.mean - e.mean,
        )
        for e, p in zip(expect, perceive)
    ]


def importance_weights(importance: ResponseSet) -> ImportanceWeights:
    """Column means of an importance response set, keyed by dimension."""
    if importance.kind is not ResponseKind.IMPORTANCE:
        raise DataError(f"expected an importance response set, got {importance.kind.value}")
    sums = importance.values.sum(axis=0)
    n = importance.n_respondents
    means = {dim: float(total) / n for dim, total in zip(IMPORTANCE_COLUMNS, sums)}
    return weights_from_means(means, n_respondents=n)


def weights_from_means(
    means: Mapping[str, float],
    n_respondents: int | None = None,
) -> ImportanceWeights:
    """Build ImportanceWeights from already-averaged dimension allocations.

    The five dimensions must all be present and nonnegative, and their sum
    must lie within ``WEIGHT_SUM_TOLERANCE`` of 100 points.
    """
    if not isinstance(means, Mapping):
        raise DefinitionError("importance means must be a dimension -> points object")
    if n_respondents is not None:
        integer(n_respondents, "importance n_respondents", minimum=1)
    missing = set(DIMENSION_ORDER) - set(means)
    if missing:
        raise DefinitionError(f"importance means missing dimensions: {sorted(missing)}")
    unknown = set(means) - set(DIMENSION_ORDER)
    if unknown:
        raise DefinitionError(f"importance means name unknown dimensions: {sorted(unknown)}")
    clean = {dim: number(means[dim], f"importance for {dim}", minimum=0)
             for dim in DIMENSION_ORDER}
    total = sum(clean.values())
    if abs(total - 100.0) > WEIGHT_SUM_TOLERANCE:
        raise DefinitionError(
            f"importance means sum to {total!r}, outside 100 +/- {WEIGHT_SUM_TOLERANCE}"
        )
    return ImportanceWeights(means=clean, n_respondents=n_respondents, sum_of_means=total)


def normalize_weights(weights: ImportanceWeights) -> ImportanceWeights:
    """Rescale the dimension means so they sum to exactly 100 points."""
    if weights.sum_of_means == 0:
        raise ComputationError("cannot normalize all-zero importance weights")
    factor = 100.0 / weights.sum_of_means
    means = {dim: value * factor for dim, value in weights.means.items()}
    return ImportanceWeights(
        means=means,
        n_respondents=weights.n_respondents,
        sum_of_means=sum(means.values()),
    )


def dimension_scores(
    gaps: Sequence[ItemGap],
    weights: ImportanceWeights,
    instrument: SurveyInstrument,
) -> list[DimensionScore]:
    """Average gap per dimension and its importance-weighted counterpart,
    in DIMENSION_ORDER.  Every dimension must have at
    least one item."""
    gap_by_id = {g.item_id: g.gap for g in gaps}
    scores: list[DimensionScore] = []
    for dimension in DIMENSION_ORDER:
        members = instrument.items_for_dimension(dimension)
        if not members:
            raise ComputationError(f"dimension {dimension!r} has no items; gap analysis "
                                   "requires every dimension to be covered")
        try:
            member_gaps = [gap_by_id[item.id] for item in members]
        except KeyError as exc:
            raise DataError(f"no gap computed for item {exc.args[0]}") from None
        unweighted = sum(member_gaps) / len(member_gaps)
        importance = weights[dimension]
        scores.append(
            DimensionScore(
                dimension=dimension,
                unweighted=unweighted,
                weighted=unweighted * importance,
                importance=importance,
                item_ids=tuple(item.id for item in members),
            )
        )
    return scores


def compute_gap_report(
    expect: Sequence[ItemDescriptives],
    perceive: Sequence[ItemDescriptives],
    weights: ImportanceWeights,
    instrument: SurveyInstrument,
    reliability_expectation: ReliabilityReport | None = None,
    reliability_perception: ReliabilityReport | None = None,
) -> GapReport:
    """Full gap analysis from paired descriptives and importance weights.

    The overall scores are the sum of the weighted dimension scores, that
    sum over 100, and the plain average of the unweighted dimension scores.
    """
    gaps = item_gaps(expect, perceive)
    dims = dimension_scores(gaps, weights, instrument)
    # a plain left-to-right loop: sum() compensates rounding on Python >= 3.12,
    # which would change the last bits of the reported scores
    weighted_sum = 0.0
    unweighted_total = 0.0
    for score in dims:
        weighted_sum += score.weighted
        unweighted_total += score.unweighted
    return GapReport(
        item_gaps=tuple(gaps),
        dimension_scores=tuple(dims),
        overall_weighted_sum=weighted_sum,
        overall_weighted_mean=weighted_sum / 100.0,
        unweighted_mean_of_dimensions=unweighted_total / len(dims),
        reliability_expectation=reliability_expectation,
        reliability_perception=reliability_perception,
    )
