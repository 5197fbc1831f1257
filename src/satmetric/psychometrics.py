"""Descriptive statistics and internal-consistency analysis.

Implements per-item descriptives, Cronbach's alpha, omitted-item
diagnostics, and the alpha reliability gate.  Alpha internals use the
sample (N-1) variance convention; item descriptives default to the
population (/N) convention with sample selectable.  Undefined statistics
are reported as None, never as silent NaN.

Each statistic is a ratio of moments of the N x k matrix X: with S its
column sums, M = N*X'X - S S' is N^2 times the covariance matrix, an item's
variance is M_ii / (N*(N-ddof)) and alpha k*(sum M - tr M) / ((k-1)*sum M).
Integer input inside a guard (N*max|x|**2 <= 2**53, N*k*max|x| <= 2**31)
takes the exact route: int64 sums and X'X from float32 or float64 BLAS
products that stay exact (ingest._exact_moments), and one rounding of a
ratio of Python integers per statistic, so variances and means are
correctly rounded and the rest is within 4 ulp.
Other input has the centered Gram matrix as M, and a NaN, an infinity or an
overflow there raises ComputationError.  A ResponseSet on the exact route has
all of M computed once and kept on it, and each of its statistics reads that
M: descriptives S and M's diagonal, alpha its trace and its sum, which is the
row totals' moment, and the omitted-item fields the rest.

A set's M comes from the S and X'X that its parse summed, block by block in
the ingest lanes, when the parse kept them: the line route keeps them unless
a row was dropped at the join for a repeated id, and only where the guard
holds with the scale's bound in place of max|x|.  Any other set, a declined
file's or one built by the constructor, has them computed here from its
values by the same function (ingest._exact_moments), to the same integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ComputationError
from .ingest import ResponseSet, _exact_moments, _exact_route
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
    """``matrix`` as C-contiguous int64 inside the exact route's guard, else finite float64."""
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise ComputationError("expected a 2-D N x k matrix")
    if m.dtype.kind in "biu" and m.size:
        if _exact_route(*m.shape, max(-int(m.min()), int(m.max()))):
            return np.ascontiguousarray(m, dtype=np.int64)
    m = np.ascontiguousarray(m, dtype=float)
    _finite(m)
    return m


def _finite(*values) -> None:
    if not all(np.isfinite(v).all() for v in values):
        raise ComputationError("the matrix holds a NaN or an infinity, or its moments overflow")


def _unpack(matrix) -> tuple[np.ndarray, tuple | None]:
    """The matrix of a statistic's argument and, for a ResponseSet on the
    exact route, its _moments(m, cross=True), made on first use and kept on
    the set, whose values are read-only: from the S and X'X that its parse
    summed (_gram), if it kept them, else from its values."""
    if not isinstance(matrix, ResponseSet):
        return _as_matrix(matrix), None
    shared = vars(matrix).get("_moments")
    if shared is None:
        if "_gram" in vars(matrix):  # kept only on the exact route
            m = matrix.values
            shared = m, _central(len(m), *vars(matrix)["_gram"])
        else:
            m = _as_matrix(matrix.values)
            if m.dtype.kind != "i":
                return m, None
            shared = m, _moments(m, cross=True)
        object.__setattr__(matrix, "_moments", shared)
    return shared


def _central(n: int, sums: np.ndarray, gram: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """S, M = N*X'X - S S' and M's scale N, of N rows whose sums are S and
    whose cross products are X'X."""
    return sums, n * gram - np.outer(sums, sums), n


def _moments(m: np.ndarray, cross: bool = False) -> tuple[np.ndarray, np.ndarray, int]:
    """Column sums S, M's diagonal (all of M if ``cross``) and M's scale N, or 1 if float."""
    n = len(m)
    if m.dtype.kind == "i":
        if cross:
            return _central(n, *_exact_moments(m, max(-int(m.min()), int(m.max()))))
        sums = np.einsum("ij->j", m)  # exact in any order, and twice as fast as sum
        return sums, n * np.einsum("ij,ij->j", m, m) - sums * sums, n
    sums = m.sum(axis=0)
    centered = m - sums / n
    moments = centered.T @ centered if cross else (centered * centered).sum(axis=0)
    _finite(sums, moments)
    return sums, moments, 1


@np.errstate(all="ignore")  # _finite reports overflow
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
    n, ddof = rs.n_respondents, variance_mode.ddof
    m, shared = _unpack(rs)
    sums, squares, scale = _moments(m) if shared is None else \
        (shared[0], shared[1].diagonal(), shared[2])
    return [ItemDescriptives(item_id=item.id, mean=s / n,
                             variance=d / (scale * (n - ddof)) if n > ddof else None, n=n)
            for item, s, d in zip(instrument.items, sums.tolist(), squares.tolist())]


@np.errstate(all="ignore")  # _finite reports overflow
def cronbach_alpha(matrix) -> float:
    """Cronbach's alpha: (k/(k-1)) * (1 - sum of item variances / variance
    of the total score), sample-variance convention throughout.  ``matrix``
    is an N x k matrix or, as in omitted_item_stats, a ResponseSet.

    Raises ComputationError when k < 2, N < 2, the total-score variance
    is zero (alpha undefined), or the matrix or its moments are not finite.
    """
    m, shared = _unpack(matrix)
    n, k = m.shape
    if k < 2:
        raise ComputationError(f"alpha requires at least 2 items, got {k}")
    if n < 2:
        raise ComputationError(f"alpha requires at least 2 respondents, got {n}")
    if shared is None:
        trace = sum(_moments(m)[1].tolist())
        (total,) = _moments(m.sum(axis=1)[:, None])[1].tolist()  # the row totals' moment
    else:  # the same integers
        trace, total = sum(shared[1].diagonal().tolist()), sum(shared[1].sum(axis=1).tolist())
    if total == 0:
        raise ComputationError("total-score variance is zero; alpha is undefined")
    alpha = k * (total - trace) / ((k - 1) * total)
    _finite(alpha)
    return alpha


#: Smallest ratio of the least to the largest eigenvalue of the item
#: correlation matrix R for which SMC is read off R's inverse; at or below it
#: R counts as rank-deficient and each item is regressed on the others.  On
#: near-collinear matrices the two routes differed by about 2e-17 / ratio, so
#: at 1e-6 they agree to ~2e-11, well inside the 1e-9 the tests hold them to.
_SMC_MIN_RCOND = 1e-6


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


def _squared_multiple_corrs(cross: np.ndarray, varying: list[int]) -> dict[int, float] | None:
    """SMC of each ``varying`` (non-constant) item by index, ``1 - 1/(R^-1)_ii``
    clipped to [0, 1] for R = M / sqrt(diag M diag M'); None when fewer than
    two items vary or R is not finite or is rank-deficient."""
    sub = cross[np.ix_(varying, varying)]
    scale = np.sqrt(sub.diagonal().astype(float))
    corr = sub / np.outer(scale, scale)  # an underflowing scale makes R non-finite
    if len(varying) < 2 or not np.isfinite(corr).all():
        return None
    try:
        eigvals, eigvecs = np.linalg.eigh(corr)
    except np.linalg.LinAlgError:
        return None
    if not eigvals[0] > _SMC_MIN_RCOND * eigvals[-1]:
        return None
    inverse_diag = (eigvecs ** 2) @ (1.0 / eigvals)
    return dict(zip(varying, np.clip(1.0 - 1.0 / inverse_diag, 0.0, 1.0).tolist()))


def _rest_less_first_row(m: np.ndarray, i: int) -> np.ndarray:
    """A_i = T - x_i of the float matrix ``m``, less its first row's value,
    to about one rounding per row.  Where A_i nearly cancels, its plain row
    sums carry an error of about eps times the sum of the rows' magnitudes,
    which its moment cannot absorb; here each row sum is kept as an
    unevaluated pair s + c by error-free TwoSum steps (Ogita, Rump and
    Oishi's Sum2), so that subtracting the first row's pair cancels A_i's
    common part exactly and rounds only the difference.  A shift leaves
    every moment of A_i as it is."""
    s, c = np.zeros(len(m)), np.zeros(len(m))
    for j in range(m.shape[1]):
        if j != i:
            x = m[:, j]
            t = s + x
            z = t - s
            c += (s - (t - z)) + (x - z)
            s = t
    return (s - s[0]) + (c - c[0])


@np.errstate(all="ignore")  # _finite reports overflow
def omitted_item_stats(matrix, item_ids: Sequence[int] | None = None) -> list[OmittedItemStats]:
    """Per-item omitted diagnostics over an N x k matrix (k >= 3, N >= 2).

    With row totals T and the item's column x_i, the adjusted total is
    A_i = T - x_i.  Each item reports mean(A_i), its sample stdev, the
    Pearson correlation of x_i with A_i, alpha-if-deleted
    ((k-1)/(k-2)) * (1 - (sum of the other items' sample variances) /
    var(A_i)), and the squared multiple correlation of x_i on the other
    items, SMC_i = 1 - 1/(R^-1)_ii, R the correlation matrix of the
    non-constant items (Guttman); a constant item's SMC is None.

    With r_i the sum of M's row i, A_i's moment is sum M - 2*r_i + M_ii,
    its moment with x_i r_i - M_ii and mean(A_i) (sum S - S_i) / N; on the
    float route an item whose A_i moment cancels to under 1/64 of N*(sum of
    stdevs)**2 takes A_i from its columns, summed with compensation.  SMC
    takes one eigendecomposition of R, M scaled to unit diagonal, or when
    fewer than two items vary or R is not finite or is rank-deficient
    (least/largest eigenvalue <= 1e-6: N <= k, duplicated items, an item
    that is a linear combination of others), a least-squares regression of
    each item on the others.
    """
    m, shared = _unpack(matrix)
    n, k = m.shape
    if k < 3:
        raise ComputationError(f"omitted-item statistics require at least 3 items, got {k}")
    if n < 2:
        raise ComputationError(f"omitted-item statistics require at least 2 respondents, got {n}")
    ids = list(range(1, k + 1) if item_ids is None else item_ids)
    if len(ids) != k:
        raise ComputationError("item_ids length must match the column count")
    sums, cross, scale = shared or _moments(m, cross=True)
    diag, rows, sums = cross.diagonal().tolist(), cross.sum(axis=1).tolist(), sums.tolist()
    total, trace, sum_s = sum(rows), sum(diag), sum(sums)
    # per item: M of the adjusted total, M of the item-rest pair, trace of the others
    parts = [(total - 2 * r + d, r - d, trace - d) for r, d in zip(rows, diag)]
    bound = 0 if m.dtype.kind == "i" else math.fsum(map(math.sqrt, diag)) ** 2 / 64
    for i in [i for i, part in enumerate(parts) if part[0] < bound]:
        pair = np.column_stack([m[:, i], _rest_less_first_row(m, i)])
        (_, cov), (_, adj) = _moments(pair, cross=True)[1].tolist()
        parts[i] = (adj, cov, math.fsum(diag[:i] + diag[i + 1:]))
    smc = _squared_multiple_corrs(cross, [i for i, d in enumerate(diag) if d != 0])
    out = [OmittedItemStats(
        item_id=ids[i],
        adj_total_mean=(sum_s - sums[i]) / n,
        adj_total_stdev=math.sqrt(adj / (scale * (n - 1))),
        item_adj_total_corr=None if adj == 0 or diag[i] == 0
        else min(1.0, max(-1.0, cov / math.sqrt(diag[i]) / math.sqrt(adj))),
        squared_multiple_corr=smc.get(i) if smc is not None
        else _squared_multiple_corr(m[:, i], m[:, np.arange(k) != i]),
        alpha_if_deleted=None if adj == 0 else (k - 1) * (adj - others) / ((k - 2) * adj),
    ) for i, (adj, cov, others) in enumerate(parts)]
    _finite([[s.adj_total_mean, s.adj_total_stdev, s.alpha_if_deleted or 0.0] for s in out])
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
    alpha = cronbach_alpha(rs)
    omitted = omitted_item_stats(rs, item_ids=instrument.item_ids)
    return ReliabilityReport(
        alpha=alpha,
        n_items=rs.n_columns,
        n_respondents=rs.n_respondents,
        omitted=tuple(omitted),
        threshold=threshold,
        passes_gate=reliability_gate(alpha, threshold),
    )
