"""Descriptive statistics and internal-consistency analysis.

Implements per-item descriptives, Cronbach's alpha, omitted-item
diagnostics, and the alpha reliability gate.  Alpha internals use the
sample (N-1) variance convention; item descriptives default to the
population (/N) convention with sample selectable.  Undefined statistics
are reported as None, never as silent NaN.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ComputationError
from .ingest import ResponseSet
from .instrument import SurveyInstrument

#: Alpha must strictly exceed this for a survey to count as reliable.
DEFAULT_ALPHA_THRESHOLD = 0.6


class VarianceMode(str, Enum):
    POPULATION = "population"
    SAMPLE = "sample"

    @property
    def ddof(self) -> int:
        return 0 if self is VarianceMode.POPULATION else 1


@dataclass(frozen=True)
class ItemDescriptives:
    """Per-item mean and variance; variance is None when undefined (for
    example the sample convention with a single respondent)."""

    item_id: int
    mean: float
    variance: float | None
    n: int


@dataclass(frozen=True)
class OmittedItemStats:
    """Diagnostics for one item against the total of the remaining items.

    ``item_adj_total_corr`` is the Pearson correlation of the item with the
    adjusted total; ``squared_multiple_corr`` is the R-squared of the item
    regressed on all other items.  Either is None when undefined (zero
    variance / degenerate system).
    """

    item_id: int
    adj_total_mean: float
    adj_total_stdev: float
    item_adj_total_corr: float | None
    squared_multiple_corr: float | None
    alpha_if_deleted: float | None


@dataclass(frozen=True)
class ReliabilityReport:
    alpha: float
    n_items: int
    n_respondents: int
    threshold: float
    passes_gate: bool
    omitted: tuple[OmittedItemStats, ...]


def _as_matrix(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ComputationError("expected a 2-D N x k matrix")
    return m


def item_descriptives(
    rs: ResponseSet,
    instrument: SurveyInstrument,
    variance_mode: VarianceMode = VarianceMode.POPULATION,
) -> list[ItemDescriptives]:
    """Per-item mean (column sum / N) and variance, in instrument order."""
    if not rs.kind.is_likert:
        raise ComputationError("item descriptives are defined for Likert response sets")
    if rs.n_columns != instrument.n_items:
        raise ComputationError(
            f"response set has {rs.n_columns} columns but instrument has "
            f"{instrument.n_items} items"
        )
    values = rs.values
    n = rs.n_respondents
    sums = values.sum(axis=0)
    means = sums / n
    if n > variance_mode.ddof:
        variances = [float(v) for v in values.var(axis=0, ddof=variance_mode.ddof)]
    else:
        variances = [None] * instrument.n_items
    out = []
    for item, mean, var in zip(instrument.items, means, variances):
        out.append(ItemDescriptives(item_id=item.id, mean=float(mean),
                                    variance=var, n=n))
    return out


def cronbach_alpha(matrix) -> float:
    """Cronbach's alpha: (k/(k-1)) * (1 - sum of item variances / variance
    of the total score), sample-variance convention throughout.

    Raises ComputationError when k < 2, N < 2, or the total-score variance
    is zero (alpha undefined).
    """
    m = _as_matrix(matrix)
    n, k = m.shape
    if k < 2:
        raise ComputationError(f"alpha requires at least 2 items, got {k}")
    if n < 2:
        raise ComputationError(f"alpha requires at least 2 respondents, got {n}")
    item_var_sum = float(m.var(axis=0, ddof=1).sum())
    total_var = float(m.sum(axis=1).var(ddof=1))
    if total_var == 0.0:
        raise ComputationError("total-score variance is zero; alpha is undefined")
    return (k / (k - 1)) * (1.0 - item_var_sum / total_var)


def _pearson(x: np.ndarray, y: np.ndarray) -> float | None:
    sx = x.std(ddof=1)
    sy = y.std(ddof=1)
    if sx == 0.0 or sy == 0.0:
        return None
    cov = ((x - x.mean()) * (y - y.mean())).sum() / (len(x) - 1)
    return min(1.0, max(-1.0, float(cov / (sx * sy))))


def _squared_multiple_corr(y: np.ndarray, others: np.ndarray) -> float | None:
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        return None
    design = np.column_stack([np.ones(len(y)), others])
    try:
        beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    except np.linalg.LinAlgError:
        return None
    residuals = y - design @ beta
    r2 = 1.0 - float((residuals ** 2).sum()) / ss_tot
    return min(1.0, max(0.0, r2))


def omitted_item_stats(matrix, item_ids: Sequence[int] | None = None) -> list[OmittedItemStats]:
    """Per-item omitted diagnostics over an N x k matrix (k >= 3).

    For each item: mean and sample stdev of the adjusted total (row sums
    excluding the item), item/adjusted-total correlation, squared multiple
    correlation from regressing the item on the others, and alpha computed
    with the item's column removed.
    """
    m = _as_matrix(matrix)
    n, k = m.shape
    if k < 3:
        raise ComputationError(f"omitted-item statistics require at least 3 items, got {k}")
    if item_ids is None:
        ids = list(range(1, k + 1))
    else:
        ids = list(item_ids)
        if len(ids) != k:
            raise ComputationError("item_ids length must match the column count")
    out: list[OmittedItemStats] = []
    for i in range(k):
        item = m[:, i]
        others = np.delete(m, i, axis=1)
        adj_total = others.sum(axis=1)
        try:
            alpha_del = cronbach_alpha(others)
        except ComputationError:
            alpha_del = None
        out.append(
            OmittedItemStats(
                item_id=ids[i],
                adj_total_mean=float(adj_total.mean()),
                adj_total_stdev=float(adj_total.std(ddof=1)),
                item_adj_total_corr=_pearson(item, adj_total),
                squared_multiple_corr=_squared_multiple_corr(item, others),
                alpha_if_deleted=alpha_del,
            )
        )
    return out


def reliability_gate(alpha: float, threshold: float = DEFAULT_ALPHA_THRESHOLD) -> bool:
    """Pass iff alpha strictly exceeds the threshold."""
    return alpha > threshold


def reliability_report(
    rs: ResponseSet,
    instrument: SurveyInstrument,
    threshold: float = DEFAULT_ALPHA_THRESHOLD,
) -> ReliabilityReport:
    """Alpha, per-item omitted diagnostics, and the gate verdict for one
    survey (requires >= 3 items so alpha-if-deleted stays defined)."""
    alpha = cronbach_alpha(rs.values)
    omitted = omitted_item_stats(rs.values, item_ids=instrument.item_ids)
    return ReliabilityReport(
        alpha=alpha,
        n_items=rs.n_columns,
        n_respondents=rs.n_respondents,
        omitted=tuple(omitted),
        threshold=threshold,
        passes_gate=reliability_gate(alpha, threshold),
    )
