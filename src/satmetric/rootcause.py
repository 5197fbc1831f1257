"""Root-cause outputs: Pareto tables and fishbone (cause-and-effect) trees.

Pareto rows rank importance-weighted dissatisfaction contributions with a
running cumulative percentage; the vital-few cutoff is the first row whose
cumulative share reaches the threshold.  Fishbone trees are validated data
entry only; cause discovery stays with the analyst.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import DefinitionError
from .instrument import SurveyInstrument
from .schema import read, read_json
from .servqual import ImportanceWeights, ItemGap, dissatisfaction

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

    magnitude = servqual.dissatisfaction: |gap| x dimension importance (or
    plain |gap| when ``weighted`` is False); items with nonnegative gaps are
    excluded.
    """
    return [Contribution(item_id=item.id, label=item.prompt, magnitude=magnitude)
            for item, magnitude in dissatisfaction(gaps, weights, instrument, weighted)
            if magnitude is not None]


def check_threshold(threshold_pct: float) -> None:
    """Raise DefinitionError unless a Pareto threshold lies in (0, 100]."""
    if not 0 < threshold_pct <= 100:
        raise DefinitionError(f"threshold must lie in (0, 100], got {threshold_pct}")


def pareto(
    contribs: Sequence[Contribution],
    threshold_pct: float = DEFAULT_PARETO_THRESHOLD,
) -> ParetoTable:
    """Sort contributions descending (item id breaks ties) and accumulate.

    The final cumulative percentage is exactly 100 for a nonempty table;
    an empty contribution list yields the empty-table marker.
    """
    check_threshold(threshold_pct)
    ordered = sorted(contribs, key=lambda c: (-c.magnitude, c.item_id))
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


@dataclass(frozen=True)
class CauseDoc:
    """A cause as its JSON writes it; a cause may also be a bare string.  The
    causes below a branch are read a level at a time (``_causes``), so that no
    read goes below MAX_FISHBONE_DEPTH however deep a tree nests."""
    text: str
    causes: tuple[object, ...] = ()


@dataclass(frozen=True)
class BranchDoc:
    name: str
    causes: tuple[object, ...] = ()
    items: tuple[int, ...] = ()


@dataclass(frozen=True)
class FishboneDoc:
    effect: str
    branches: tuple[BranchDoc, ...] = ()


_CAUSES = tuple[CauseDoc | str, ...]


def _causes(docs: tuple[object, ...], context: str, depth: int = 2) -> tuple[FishboneCause, ...]:
    if docs and depth > MAX_FISHBONE_DEPTH:
        raise DefinitionError(f"{context}: cause tree deeper than {MAX_FISHBONE_DEPTH} levels")
    return tuple(FishboneCause(text=doc) if isinstance(doc, str) else FishboneCause(
        text=doc.text, children=_causes(doc.causes, f"{context}[{at}].causes", depth + 1))
        for at, doc in enumerate(read(_CAUSES, docs, context)))


def build_fishbone(definition: Mapping) -> FishboneTree:
    """Validate a fishbone definition: non-empty effect, uniquely named
    branches, each with an optional cause tree (at most 3 levels) and an
    optional item-id annotation used for per-branch magnitude summaries."""
    doc = read(FishboneDoc, definition, "fishbone")
    effect = doc.effect.strip()
    if not effect:
        raise DefinitionError("fishbone.effect must be non-empty")
    branches: list[FishboneBranch] = []
    seen: set[str] = set()
    for at, branch in enumerate(doc.branches):
        name = branch.name.strip()
        if not name:
            raise DefinitionError(f"fishbone.branches[{at}].name must be non-empty")
        if name in seen:
            raise DefinitionError(f"fishbone.branches[{at}]: duplicate branch name {name!r}")
        seen.add(name)
        causes = _causes(branch.causes, f"fishbone.branches[{at}].causes")
        branches.append(FishboneBranch(name=name, causes=causes, item_ids=branch.items))
    return FishboneTree(effect=effect, branches=tuple(branches))


def branch_magnitudes(
    tree: FishboneTree,
    contributions: Sequence[Contribution | ParetoRow],
) -> dict[str, float]:
    """Tool extension: sum contribution (or Pareto row) magnitudes per
    annotated branch.

    Branches without an item annotation are omitted."""
    by_item = {c.item_id: c.magnitude for c in contributions}
    out: dict[str, float] = {}
    for branch in tree.branches:
        if branch.item_ids:
            out[branch.name] = sum(by_item.get(i, 0.0) for i in branch.item_ids)
    return out


def load_fishbone(path) -> FishboneTree:
    """Read and validate a fishbone JSON file."""
    return build_fishbone(read_json(path))


def serialize_fishbone(tree: FishboneTree) -> dict:
    """Serialize back to the definition-document shape (round-trips); an empty
    ``causes`` or ``items`` list is left out."""

    def cause_docs(causes: tuple[FishboneCause, ...]) -> dict:
        return {"causes": [{"text": c.text, **cause_docs(c.children)} for c in causes]} \
            if causes else {}

    return {"effect": tree.effect,
            "branches": [{"name": b.name, **cause_docs(b.causes),
                          **({"items": list(b.item_ids)} if b.item_ids else {})}
                         for b in tree.branches]}
