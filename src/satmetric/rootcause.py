"""Root-cause outputs: Pareto tables and fishbone (cause-and-effect) trees.

Pareto rows rank importance-weighted dissatisfaction contributions with a
running cumulative percentage; the vital-few cutoff is the first row whose
cumulative share reaches the threshold.  Fishbone trees are validated data
entry only; cause discovery stays with the analyst.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import DefinitionError
from .instrument import SurveyInstrument
from .servqual import ImportanceWeights, ItemGap

DEFAULT_PARETO_THRESHOLD = 80.0
MAX_FISHBONE_DEPTH = 3


@dataclass(frozen=True)
class Contribution:
    item_id: int
    label: str
    magnitude: float


@dataclass(frozen=True)
class ParetoRow:
    rank: int
    item_id: int
    label: str
    magnitude: float
    cumulative: float
    cumulative_pct: float


@dataclass(frozen=True)
class ParetoTable:
    """Contributions sorted descending with cumulative shares.

    ``vital_few_cutoff`` is the 1-based rank of the first row whose
    cumulative percentage reaches the threshold, or None for an empty
    table (the explicit empty marker - not an error)."""

    threshold_pct: float
    vital_few_cutoff: int | None
    rows: tuple[ParetoRow, ...]

    @property
    def is_empty(self) -> bool:
        return not self.rows

    @property
    def total_magnitude(self) -> float:
        return sum(row.magnitude for row in self.rows)


def dissatisfaction_contributions(
    gaps: Sequence[ItemGap],
    weights: ImportanceWeights,
    instrument: SurveyInstrument,
    weighted: bool = True,
) -> list[Contribution]:
    """One contribution per negative-gap item, in instrument order.

    magnitude = |gap| x dimension importance (or plain |gap| when
    ``weighted`` is False); items with nonnegative gaps are excluded.
    """
    gap_by_id = {g.item_id: g.gap for g in gaps}
    out: list[Contribution] = []
    for item in instrument.items:
        gap = gap_by_id.get(item.id)
        if gap is None or gap >= 0:
            continue
        magnitude = -gap * (weights[item.dimension] if weighted else 1.0)
        out.append(Contribution(item_id=item.id, label=item.prompt, magnitude=magnitude))
    return out


def pareto(
    contribs: Sequence[Contribution],
    threshold_pct: float = DEFAULT_PARETO_THRESHOLD,
) -> ParetoTable:
    """Sort contributions descending (item id breaks ties) and accumulate.

    The final cumulative percentage is exactly 100 for a nonempty table;
    an empty contribution list yields the empty-table marker.
    """
    if not 0 < threshold_pct <= 100:
        raise DefinitionError(f"threshold must lie in (0, 100], got {threshold_pct}")
    ordered = sorted(contribs, key=lambda c: (-c.magnitude, c.item_id))
    if not ordered:
        return ParetoTable(rows=(), threshold_pct=threshold_pct, vital_few_cutoff=None)
    total = sum(c.magnitude for c in ordered)
    rows: list[ParetoRow] = []
    running = 0.0
    cutoff: int | None = None
    for rank, contrib in enumerate(ordered, start=1):
        running += contrib.magnitude
        pct = 100.0 if rank == len(ordered) else (
            running / total * 100.0 if total > 0 else 100.0
        )
        if cutoff is None and pct >= threshold_pct:
            cutoff = rank
        rows.append(
            ParetoRow(
                rank=rank,
                item_id=contrib.item_id,
                label=contrib.label,
                magnitude=contrib.magnitude,
                cumulative=running,
                cumulative_pct=pct,
            )
        )
    return ParetoTable(rows=tuple(rows), threshold_pct=threshold_pct, vital_few_cutoff=cutoff)


@dataclass(frozen=True)
class FishboneCause:
    text: str
    children: tuple["FishboneCause", ...] = ()


@dataclass(frozen=True)
class FishboneBranch:
    name: str
    causes: tuple[FishboneCause, ...] = ()
    item_ids: tuple[int, ...] = ()


@dataclass(frozen=True)
class FishboneTree:
    effect: str
    branches: tuple[FishboneBranch, ...] = ()


def _parse_causes(docs, depth: int, context: str) -> tuple[FishboneCause, ...]:
    if docs and depth > MAX_FISHBONE_DEPTH:
        raise DefinitionError(f"{context}: cause tree deeper than {MAX_FISHBONE_DEPTH} levels")
    causes: list[FishboneCause] = []
    for pos, doc in enumerate(docs, start=1):
        if isinstance(doc, str):
            causes.append(FishboneCause(text=doc))
            continue
        if not isinstance(doc, Mapping) or "text" not in doc:
            raise DefinitionError(f"{context}: cause {pos} must be a string or {{text, causes?}}")
        unknown = set(doc) - {"text", "causes"}
        if unknown:
            raise DefinitionError(f"{context}: cause {pos} has unknown fields {sorted(unknown)}")
        children = _parse_causes(doc.get("causes", []), depth + 1, f"{context} cause {pos}")
        causes.append(FishboneCause(text=str(doc["text"]), children=children))
    return tuple(causes)


def build_fishbone(definition: Mapping) -> FishboneTree:
    """Validate a fishbone definition: non-empty effect, uniquely named
    branches, each with an optional cause tree (at most 3 levels) and an
    optional item-id annotation used for per-branch magnitude summaries."""
    if not isinstance(definition, Mapping):
        raise DefinitionError("fishbone definition must be a JSON object")
    unknown = set(definition) - {"effect", "branches"}
    if unknown:
        raise DefinitionError(f"unknown fishbone fields: {sorted(unknown)}")
    effect = str(definition.get("effect", "")).strip()
    if not effect:
        raise DefinitionError("fishbone effect must be a non-empty string")
    branches: list[FishboneBranch] = []
    seen: set[str] = set()
    for pos, doc in enumerate(definition.get("branches", []), start=1):
        if not isinstance(doc, Mapping) or "name" not in doc:
            raise DefinitionError(f"branch {pos}: expected {{name, causes?, items?}}")
        unknown = set(doc) - {"name", "causes", "items"}
        if unknown:
            raise DefinitionError(f"branch {pos}: unknown fields {sorted(unknown)}")
        name = str(doc["name"]).strip()
        if not name:
            raise DefinitionError(f"branch {pos}: name must be non-empty")
        if name in seen:
            raise DefinitionError(f"duplicate branch name {name!r}")
        seen.add(name)
        causes = _parse_causes(doc.get("causes", []), 2, f"branch {name!r}")
        item_ids = tuple(int(i) for i in doc.get("items", []))
        branches.append(FishboneBranch(name=name, causes=causes, item_ids=item_ids))
    return FishboneTree(effect=effect, branches=tuple(branches))


def branch_magnitudes(
    tree: FishboneTree,
    contributions: Sequence[Contribution],
) -> dict[str, float]:
    """Tool extension: sum contribution magnitudes per annotated branch.

    Branches without an item annotation are omitted."""
    by_item = {c.item_id: c.magnitude for c in contributions}
    out: dict[str, float] = {}
    for branch in tree.branches:
        if branch.item_ids:
            out[branch.name] = sum(by_item.get(i, 0.0) for i in branch.item_ids)
    return out


def load_fishbone(path) -> FishboneTree:
    """Read and validate a fishbone JSON file."""
    try:
        with open(path, "rb") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DefinitionError(f"cannot read {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise DefinitionError(f"{path}: not valid JSON ({exc})") from None
    return build_fishbone(doc)


def serialize_fishbone(tree: FishboneTree) -> dict:
    """Serialize back to the definition-document shape (round-trips)."""

    def cause_doc(cause: FishboneCause):
        if not cause.children:
            return {"text": cause.text}
        return {"text": cause.text, "causes": [cause_doc(c) for c in cause.children]}

    return {
        "effect": tree.effect,
        "branches": [
            {
                "name": b.name,
                **({"causes": [cause_doc(c) for c in b.causes]} if b.causes else {}),
                **({"items": list(b.item_ids)} if b.item_ids else {}),
            }
            for b in tree.branches
        ],
    }
