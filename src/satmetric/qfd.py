"""House of quality: requirement matrices and technical importance weights.

Customer requirements carry importances; the relationship matrix links them
to technical requirements on the conventional 0/1/3/9 strength scale; the
roof records positive/negative correlations between technical requirements.
The absolute weight of a technical requirement is the importance-weighted
column sum of its relationship strengths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DefinitionError

STRENGTH_VALUES = (0, 1, 3, 9)
ROOF_SIGNS = ("positive", "negative")

_TOP_KEYS = {"customer_reqs", "tech_reqs", "relationships", "roof", "benchmarks", "ctq_tree"}


@dataclass(frozen=True)
class CustomerRequirement:
    id: str
    name: str
    importance: float

    def __post_init__(self) -> None:
        if self.importance < 0:
            raise DefinitionError(f"customer requirement {self.id!r}: importance must be >= 0")


@dataclass(frozen=True)
class TechnicalRequirement:
    id: str
    name: str


@dataclass(frozen=True)
class RoofEntry:
    """Correlation between technical requirements i and j (0-based column
    indices, stored with i < j)."""

    i: int
    j: int
    sign: str


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
    absolute = (importance[:, None] * relationships).sum(axis=0)
    total = float(absolute.sum())
    degenerate = total == 0.0
    if degenerate:
        relative = np.zeros_like(absolute)
    else:
        relative = absolute / total * 100.0
    order = sorted(range(len(tech_reqs)), key=lambda j: (-absolute[j], j))
    ranks = [0] * len(tech_reqs)
    for rank, j in enumerate(order, start=1):
        ranks[j] = rank
    computed = tuple(
        TechnicalImportance(
            tech_id=tech_reqs[j].id,
            absolute=float(absolute[j]),
            relative_pct=float(relative[j]),
            rank=ranks[j],
        )
        for j in range(len(tech_reqs))
    )
    return computed, degenerate


def build_hoq(definition: Mapping) -> HouseOfQuality:
    """Validate a house-of-quality definition document and compute weights.

    ``benchmarks`` and ``ctq_tree`` are opaque annotations: accepted,
    echoed in reports, never computed on.
    """
    if not isinstance(definition, Mapping):
        raise DefinitionError("house-of-quality definition must be a JSON object")
    unknown = set(definition) - _TOP_KEYS
    if unknown:
        raise DefinitionError(f"unknown house-of-quality fields: {sorted(unknown)}")
    for required in ("customer_reqs", "tech_reqs", "relationships"):
        if required not in definition:
            raise DefinitionError(f"missing house-of-quality field {required!r}")

    customer_reqs: list[CustomerRequirement] = []
    seen: set[str] = set()
    for pos, doc in enumerate(definition["customer_reqs"], start=1):
        cr_id = str(doc.get("id", ""))
        if not cr_id:
            raise DefinitionError(f"customer requirement at position {pos}: missing id")
        if cr_id in seen:
            raise DefinitionError(f"duplicate customer requirement id {cr_id!r}")
        seen.add(cr_id)
        if "importance" not in doc:
            raise DefinitionError(f"customer requirement {cr_id!r}: missing importance")
        customer_reqs.append(
            CustomerRequirement(id=cr_id, name=str(doc.get("name", cr_id)),
                                importance=float(doc["importance"]))
        )
    if not customer_reqs:
        raise DefinitionError("at least one customer requirement is required")

    tech_reqs: list[TechnicalRequirement] = []
    seen = set()
    for pos, doc in enumerate(definition["tech_reqs"], start=1):
        tr_id = str(doc.get("id", ""))
        if not tr_id:
            raise DefinitionError(f"technical requirement at position {pos}: missing id")
        if tr_id in seen:
            raise DefinitionError(f"duplicate technical requirement id {tr_id!r}")
        seen.add(tr_id)
        tech_reqs.append(TechnicalRequirement(id=tr_id, name=str(doc.get("name", tr_id))))
    if not tech_reqs:
        raise DefinitionError("at least one technical requirement is required")

    rows = definition["relationships"]
    if len(rows) != len(customer_reqs):
        raise DefinitionError(
            f"relationship matrix has {len(rows)} rows but there are "
            f"{len(customer_reqs)} customer requirements"
        )
    matrix = np.zeros((len(customer_reqs), len(tech_reqs)), dtype=np.int64)
    for i, row in enumerate(rows):
        if len(row) != len(tech_reqs):
            raise DefinitionError(
                f"relationship row {i} has {len(row)} cells but there are "
                f"{len(tech_reqs)} technical requirements"
            )
        for j, cell in enumerate(row):
            if not isinstance(cell, int) or isinstance(cell, bool) or cell not in STRENGTH_VALUES:
                raise DefinitionError(
                    f"relationship cell ({i}, {j}) = {cell!r} is not a legal "
                    f"strength (expected one of {STRENGTH_VALUES})"
                )
            matrix[i, j] = cell
    matrix.setflags(write=False)

    roof: list[RoofEntry] = []
    seen_pairs: set[tuple[int, int]] = set()
    for pos, doc in enumerate(definition.get("roof", []), start=1):
        try:
            i, j, sign = int(doc["i"]), int(doc["j"]), str(doc["sign"])
        except (KeyError, TypeError, ValueError):
            raise DefinitionError(f"roof entry {pos}: expected {{i, j, sign}}") from None
        if sign not in ROOF_SIGNS:
            raise DefinitionError(f"roof entry {pos}: sign must be one of {ROOF_SIGNS}")
        if i == j:
            raise DefinitionError(f"roof entry {pos}: i and j must differ")
        i, j = min(i, j), max(i, j)
        if not (0 <= i < len(tech_reqs) and 0 <= j < len(tech_reqs)):
            raise DefinitionError(f"roof entry {pos}: indices out of range")
        if (i, j) in seen_pairs:
            raise DefinitionError(f"roof entry {pos}: duplicate pair ({i}, {j})")
        seen_pairs.add((i, j))
        roof.append(RoofEntry(i=i, j=j, sign=sign))
    roof.sort(key=lambda e: (e.i, e.j))

    computed, degenerate = _compute_importances(tuple(customer_reqs), tuple(tech_reqs), matrix)
    return HouseOfQuality(
        customer_reqs=tuple(customer_reqs),
        tech_reqs=tuple(tech_reqs),
        relationships=matrix,
        roof=tuple(roof),
        importances=computed,
        degenerate=degenerate,
        benchmarks=definition.get("benchmarks"),
        ctq_tree=definition.get("ctq_tree"),
    )


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
    try:
        with open(path, "rb") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DefinitionError(f"cannot read {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise DefinitionError(f"{path}: not valid JSON ({exc})") from None
    return build_hoq(doc)


def serialize_hoq(hoq: HouseOfQuality) -> dict:
    """Serialize back to the definition-document shape (round-trips)."""
    doc: dict = {
        "customer_reqs": [
            {"id": cr.id, "name": cr.name, "importance": cr.importance}
            for cr in hoq.customer_reqs
        ],
        "tech_reqs": [{"id": tr.id, "name": tr.name} for tr in hoq.tech_reqs],
        "relationships": [[int(v) for v in row] for row in hoq.relationships],
        "roof": [{"i": e.i, "j": e.j, "sign": e.sign} for e in hoq.roof],
    }
    if hoq.benchmarks is not None:
        doc["benchmarks"] = hoq.benchmarks
    if hoq.ctq_tree is not None:
        doc["ctq_tree"] = hoq.ctq_tree
    return doc
