"""House of quality: requirement matrices and technical importance weights.

Customer requirements carry importances; the relationship matrix links them
to technical requirements on the conventional 0/1/3/9 strength scale; the
roof records positive/negative correlations between technical requirements.
The absolute weight of a technical requirement is the importance-weighted
column sum of its relationship strengths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ComputationError, DefinitionError
from .schema import read, read_json, write

STRENGTH_VALUES = (0, 1, 3, 9)
ROOF_SIGNS = ("positive", "negative")


@dataclass(frozen=True)
class TechnicalRequirement:
    """A requirement; its name defaults to its id."""
    id: str
    name: str | None = None

    def __post_init__(self) -> None:
        if self.name is None:
            object.__setattr__(self, "name", self.id)


@dataclass(frozen=True, kw_only=True)
class CustomerRequirement(TechnicalRequirement):
    """A requirement and its importance to the customer, stored as a float."""
    importance: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.importance < 0:
            raise DefinitionError(f"customer requirement {self.id!r}: importance must be >= 0")
        object.__setattr__(self, "importance", float(self.importance))


@dataclass(frozen=True)
class RoofEntry:
    """Correlation between technical requirements i and j (0-based column
    indices, stored with i < j)."""

    i: int
    j: int
    sign: str


@dataclass(frozen=True)
class HouseOfQualityDoc:
    customer_reqs: tuple[CustomerRequirement, ...]
    tech_reqs: tuple[TechnicalRequirement, ...]
    relationships: tuple[tuple[int, ...], ...]
    roof: tuple[RoofEntry, ...] = ()
    benchmarks: object = None
    ctq_tree: object = None


@dataclass(frozen=True)
class TechnicalImportance:
    """Absolute weight, relative weight (% of the absolute total) and rank
    (1 = most important) of one technical requirement."""

    tech_id: str
    absolute: float
    relative_pct: float
    rank: int


@dataclass(frozen=True)
class HouseOfQuality:
    customer_reqs: tuple[CustomerRequirement, ...]
    tech_reqs: tuple[TechnicalRequirement, ...]
    relationships: np.ndarray
    roof: tuple[RoofEntry, ...]
    importances: tuple[TechnicalImportance, ...]
    degenerate: bool
    benchmarks: object | None = None
    ctq_tree: object | None = None


def _compute_importances(
    customer_reqs: tuple[CustomerRequirement, ...],
    tech_reqs: tuple[TechnicalRequirement, ...],
    relationships: np.ndarray,
) -> tuple[tuple[TechnicalImportance, ...], bool]:
    importance = np.array([cr.importance for cr in customer_reqs], dtype=float)
    # per-column reduction, so each weight is independent of its neighbors
    with np.errstate(over="ignore"):
        absolute = (importance[:, None] * relationships).sum(axis=0)
        total = float(absolute.sum())
    if not np.isfinite(total):
        raise ComputationError("technical-importance weights overflow: the importance-"
                               "weighted relationship sums exceed the float range")
    degenerate = total == 0.0
    if degenerate:
        relative = np.zeros_like(absolute)
    else:
        relative = absolute / total * 100.0
    order = sorted(range(len(tech_reqs)), key=lambda j: (-absolute[j], j))
    ranks = [0] * len(tech_reqs)
    for rank, j in enumerate(order, start=1):
        ranks[j] = rank
    computed = tuple(TechnicalImportance(tech_id=tech_reqs[j].id, absolute=float(absolute[j]),
                                         relative_pct=float(relative[j]), rank=ranks[j])
                     for j in range(len(tech_reqs)))
    return computed, degenerate


def build_hoq(definition: Mapping) -> HouseOfQuality:
    """Validate a house-of-quality definition document and compute weights.

    ``benchmarks`` and ``ctq_tree`` are opaque annotations: accepted,
    echoed in reports, never computed on.
    """
    doc = read(HouseOfQualityDoc, definition, "hoq")
    for key, reqs in (("customer_reqs", doc.customer_reqs), ("tech_reqs", doc.tech_reqs)):
        if not reqs:
            raise DefinitionError(f"hoq.{key} must hold at least one requirement")
        seen: set[str] = set()
        for at, req in enumerate(reqs):
            if not req.id or req.id in seen:
                raise DefinitionError(f"hoq.{key}[{at}].id {req.id!r} is "
                                      + ("a duplicate" if req.id else "empty"))
            seen.add(req.id)
    customer_reqs, tech_reqs = doc.customer_reqs, doc.tech_reqs

    rows = doc.relationships
    if len(rows) != len(customer_reqs):
        raise DefinitionError(f"hoq.relationships has {len(rows)} rows but there are "
                              f"{len(customer_reqs)} customer requirements")
    for i, row in enumerate(rows):
        if len(row) != len(tech_reqs):
            raise DefinitionError(f"hoq.relationships[{i}] has {len(row)} cells but there are "
                                  f"{len(tech_reqs)} technical requirements")
        for j, cell in enumerate(row):
            if cell not in STRENGTH_VALUES:
                raise DefinitionError(f"hoq.relationships[{i}][{j}] {cell!r} is not a legal "
                                      f"strength (expected one of {STRENGTH_VALUES})")
    matrix = np.array(rows, dtype=np.int64)
    matrix.setflags(write=False)

    roof: list[RoofEntry] = []
    pairs: set[tuple[int, int]] = set()
    for at, entry in enumerate(doc.roof):
        context = f"hoq.roof[{at}]"
        if entry.sign not in ROOF_SIGNS:
            raise DefinitionError(f"{context}.sign must be one of {ROOF_SIGNS}, "
                                  f"got {entry.sign!r}")
        i, j = min(entry.i, entry.j), max(entry.i, entry.j)
        if i == j:
            raise DefinitionError(f"{context}: i and j must differ")
        if not (0 <= i and j < len(tech_reqs)):
            raise DefinitionError(f"{context}: indices out of range")
        if (i, j) in pairs:
            raise DefinitionError(f"{context}: duplicate pair ({i}, {j})")
        pairs.add((i, j))
        roof.append(RoofEntry(i=i, j=j, sign=entry.sign))
    roof.sort(key=lambda e: (e.i, e.j))

    computed, degenerate = _compute_importances(customer_reqs, tech_reqs, matrix)
    return HouseOfQuality(customer_reqs=customer_reqs, tech_reqs=tech_reqs, relationships=matrix,
                          roof=tuple(roof), importances=computed, degenerate=degenerate,
                          benchmarks=doc.benchmarks, ctq_tree=doc.ctq_tree)


def roof_conflicts(hoq: HouseOfQuality) -> list[tuple[str, str]]:
    """Technical-requirement id pairs whose roof correlation is negative,
    in (i < j) index order."""
    return [
        (hoq.tech_reqs[entry.i].id, hoq.tech_reqs[entry.j].id)
        for entry in hoq.roof
        if entry.sign == "negative"
    ]


def load_hoq(path) -> HouseOfQuality:
    """Read and validate a house-of-quality JSON file."""
    return build_hoq(read_json(path))


def serialize_hoq(hoq: HouseOfQuality) -> dict:
    """Serialize back to the definition-document shape (round-trips): the
    fields of :class:`HouseOfQualityDoc` in its order, an absent annotation
    left out."""
    doc = HouseOfQualityDoc(hoq.customer_reqs, hoq.tech_reqs, hoq.relationships.tolist(),
                            hoq.roof, hoq.benchmarks, hoq.ctq_tree)
    return {key: value for key, value in write(doc).items() if value is not None}
