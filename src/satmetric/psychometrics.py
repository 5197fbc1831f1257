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
    """``matrix`` as a C-contiguous float array: numpy sums a row-major and a
    column-major copy in different orders, so the layout would otherwise
    change the last bits of every statistic."""
    m = np.asarray(matrix, dtype=float, order="C")
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


def _alpha(k: int, item_var_sum: float, total_var: float) -> float | None:
    """Alpha of k items from the sum of their sample variances and the sample
    variance of their total; None when that total variance is zero."""
    if total_var == 0.0:
        return None
    return (k / (k - 1)) * (1.0 - item_var_sum / total_var)


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
    alpha = _alpha(k, float(m.var(axis=0, ddof=1).sum()), float(m.sum(axis=1).var(ddof=1)))
    if alpha is None:
        raise ComputationError("total-score variance is zero; alpha is undefined")
    return alpha


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


#: Smallest ratio of the least to the largest eigenvalue of the item
#: correlation matrix R for which SMC is read off R's inverse; at or below it
#: R counts as rank-deficient and each item is regressed on the others.  On
#: near-collinear matrices the two routes differed by about 2e-17 / ratio, so
#: at 1e-6 they agree to ~2e-11, well inside the 1e-9 the tests hold them to.
_SMC_MIN_RCOND = 1e-6


def _squared_multiple_corrs(m: np.ndarray, item_ss: np.ndarray) -> list[float | None] | None:
    """SMC of every item from one correlation matrix R over the non-constant
    items (those whose centered sum of squares ``item_ss`` is not zero):
    ``1 - 1/(R^-1)_ii``, clipped to [0, 1]; constant items get None.
    Returns None (no answer) when fewer than two items vary or R is not
    finite or is rank-deficient."""
    varying = np.flatnonzero(item_ss != 0.0).tolist()
    if len(varying) < 2:
        return None
    with np.errstate(all="ignore"):  # overflow shows up as a non-finite R
        x = m[:, varying]  # a copy: fancy indexing
        x -= x.mean(axis=0)
        cross = x.T @ x
        scale = np.sqrt(np.diag(cross))
        corr = cross / np.outer(scale, scale)
    if not np.isfinite(corr).all():
        return None
    try:
        eigvals, eigvecs = np.linalg.eigh(corr)
    except np.linalg.LinAlgError:
        return None
    if not eigvals[0] > _SMC_MIN_RCOND * eigvals[-1]:
        return None
    inverse_diag = (eigvecs ** 2) @ (1.0 / eigvals)
    smc: list[float | None] = [None] * m.shape[1]
    for i, r2 in zip(varying, np.clip(1.0 - 1.0 / inverse_diag, 0.0, 1.0)):
        smc[i] = float(r2)
    return smc


def omitted_item_stats(matrix, item_ids: Sequence[int] | None = None) -> list[OmittedItemStats]:
    """Per-item omitted diagnostics over an N x k matrix (k >= 3, N >= 2).

    With row totals T and the item's column x_i, the adjusted total is
    A_i = T - x_i.  Each item reports mean(A_i), its sample stdev, the
    Pearson correlation of x_i with A_i, alpha-if-deleted
    ((k-1)/(k-2)) * (1 - (sum of the other items' sample variances) /
    var(A_i)), and the squared multiple correlation of x_i on the other
    items, SMC_i = 1 - 1/(R^-1)_ii, R the correlation matrix of the
    non-constant items (Guttman); a constant item's SMC is None.

    One pass over k x N arrays gives every item's adjusted total, its mean
    and variance, the item's sum of squares and the item-rest covariance,
    and R is computed once: the cost is O(N*k^2 + k^3) where a per-item
    regression would cost O(N*k^3), and only the assembly of the results
    loops over items.  When fewer than two items vary, or R is not finite
    or is rank-deficient (least/largest eigenvalue <= 1e-6: N <= k,
    duplicated items, an item that is a linear combination of others), SMC
    is instead the R-squared of a least-squares regression of each item on
    all the other items.
    """
    m = _as_matrix(matrix)
    n, k = m.shape
    if k < 3:
        raise ComputationError(f"omitted-item statistics require at least 3 items, got {k}")
    if n < 2:
        raise ComputationError(f"omitted-item statistics require at least 2 respondents, got {n}")
    if item_ids is None:
        ids = list(range(1, k + 1))
    else:
        ids = list(item_ids)
        if len(ids) != k:
            raise ComputationError("item_ids length must match the column count")
    # Row i of ``items`` is item i and row i of ``adj`` its adjusted total,
    # each then centered.  numpy sums a C-contiguous row in the order it
    # sums the 1-D column, so every statistic keeps the bits of the
    # per-item formula; a k x N array in F order would not.
    total = m.sum(axis=1)
    item_vars = m.var(axis=0, ddof=1)
    items = m.T.copy()
    items -= items.mean(axis=1, keepdims=True)
    item_ss = (items * items).sum(axis=1)
    adj = np.subtract(total, m.T, order="C")
    adj_means = adj.mean(axis=1)
    adj -= adj_means[:, None]
    adj_vars = (adj * adj).sum(axis=1) / (n - 1)
    adj_sds = np.sqrt(adj_vars)
    item_sds = np.sqrt(item_ss / (n - 1))
    adj *= items
    covs = adj.sum(axis=1) / (n - 1)
    del items, adj
    smc = _squared_multiple_corrs(m, item_ss)
    out: list[OmittedItemStats] = []
    for i in range(k):
        defined = item_sds[i] != 0.0 and adj_sds[i] != 0.0
        out.append(
            OmittedItemStats(
                item_id=ids[i],
                adj_total_mean=float(adj_means[i]),
                adj_total_stdev=float(adj_sds[i]),
                item_adj_total_corr=min(1.0, max(-1.0, float(
                    covs[i] / (item_sds[i] * adj_sds[i])))) if defined else None,
                squared_multiple_corr=smc[i] if smc is not None
                else _squared_multiple_corr(m[:, i], np.delete(m, i, axis=1)),
                alpha_if_deleted=_alpha(k - 1, float(np.delete(item_vars, i).sum()),
                                        float(adj_vars[i])),
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
