"""Shared fixtures: the bundled XYZ case study and its published
reference values (9-digit decimals as printed in the source tables).

Hypothesis runs the profile named by ``$HYPOTHESIS_PROFILE``: ``default``
(tier-1) or ``deep``, which runs every property test on ten times as many
examples."""

from __future__ import annotations

import csv
import decimal
import json
import math
import os
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from satmetric import ingest, xyz
from satmetric.errors import ComputationError, DataError
from satmetric.instrument import SurveyInstrument
from satmetric.psychometrics import OmittedItemStats, _squared_multiple_corr, cronbach_alpha

DEEP_FACTOR = 10
settings.register_profile("deep", max_examples=100 * DEEP_FACTOR)
PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "default")
settings.load_profile(PROFILE)


def examples(n: int) -> int:
    """``max_examples`` for a test that runs ``n`` examples in tier-1.  An
    explicit ``max_examples`` overrides the profile, so it is scaled here."""
    return n * DEEP_FACTOR if PROFILE == "deep" else n


# Published per-item means (17 items, N = 81).
REFERENCE_EXPECTATION_MEANS = [
    4.395061728, 4.296296296, 4.074074074, 4.345679012, 4.234567901,
    4.185185185, 4.197530864, 4.086419753, 3.765432099, 3.839506173,
    3.432098765, 3.481481481, 3.530864198, 3.728395062, 3.432098765,
    4.172839506, 3.580246914,
]
REFERENCE_PERCEPTION_MEANS = [
    4.444444444, 4.320987654, 3.209876543, 3.222222222, 3.567901235,
    4.382716049, 3.086419753, 3.24691358, 3.469135802, 4.222222222,
    4.24691358, 2.962962963, 3.827160494, 2.790123457, 4.037037037,
    3.777777778, 3.864197531,
]
REFERENCE_GAPS = [
    0.049382716, 0.024691358, -0.864197531, -1.12345679, -0.666666667,
    0.197530864, -1.111111111, -0.839506173, -0.296296296, 0.382716049,
    0.814814815, -0.518518519, 0.296296296, -0.938271605, 0.604938272,
    -0.395061728, 0.283950617,
]
# dimension -> (unweighted Y_d, weighted W_d, mean importance I_d)
REFERENCE_DIMENSION_SCORES = {
    "reliability": (0.037037037, 1.470189702, 39.69512195),
    "responsiveness": (-0.884773663, -19.63765934, 22.19512195),
    "assurance": (-0.512345679, -8.622402891, 16.82926829),
    "empathy": (0.007407407, 0.093044264, 12.56097561),
    "tangibles": (0.164609053, 1.445347787, 8.780487805),
}
REFERENCE_WEIGHTED_SUM = -25.25148048
REFERENCE_UNWEIGHTED_MEAN = -0.237613169


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)


#: Valid importance rows: five multiples of five summing to 100, cut from
#: 0..20 at four drawn points.
ALLOCATIONS = st.lists(st.integers(0, 20), min_size=4, max_size=4).map(
    lambda cuts: [5 * (b - a) for a, b in zip([0, *sorted(cuts)], [*sorted(cuts), 20])])


def strict_result(data, instrument, kind, policy=ingest.MissingPolicy.DROP_ROW):
    """parse_response_file's result if the line route's one-byte or strict
    case gave it, in every block, else None.  Every other way through the
    parser calls _bulk_values, _check_record or csv.reader; a DataError
    that the strict case raises is raised again."""
    calls: list[str] = []

    def spy(owner, name):
        real = getattr(owner, name)

        def record(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return mock.patch.object(owner, name, record)

    with spy(ingest, "_bulk_values"), spy(ingest, "_check_record"), spy(csv, "reader"):
        try:
            result = ingest.parse_response_file(data, instrument, kind, policy)
        except DataError:
            if calls:
                return None
            raise
    return None if calls else result


def dirty_xyz_csv(n: int = 40) -> bytes:
    """An expectation file of the xyz instrument (17 items, scale 1-5) with
    ``n`` >= 20 data rows, one rejected for each code such a file can have
    and a few accepted ones whose cells are padded, signed, quoted or
    outside ASCII; the line route reads it."""
    rows = [[f"r{r:04d}", *(str(1 + (r + c) % 5) for c in range(17))] for r in range(n)]
    rows[3] = rows[3][:3]  # row_length
    rows[5][0] = '" "'  # empty_id
    rows[7][2] = ""  # missing
    rows[9][4] = "x"  # not_an_integer
    rows[11][6] = "9"  # out_of_range
    rows[13][0] = "r0001"  # duplicate_id
    rows[15][1], rows[17][2], rows[19][0] = " +3 ", '"4"', "\u00e9-19"
    header = ["respondent_id", *(f"q{i}" for i in range(1, 18))]
    return "".join(",".join(row) + "\n" for row in [header, *rows]).encode()


def replace_at(doc, path, value):
    """A copy of JSON document ``doc`` with the position ``path`` (a tuple of
    keys and indices) set to ``value``."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def empty_containers(doc) -> None:
    """Empty every dict and list of JSON document ``doc``, innermost first,
    so that a container it shares with another object shows there."""
    children = doc.values() if isinstance(doc, dict) else doc
    for child in children:
        if isinstance(child, (dict, list)):
            empty_containers(child)
    doc.clear()


def alpha_covariance_oracle(matrix: np.ndarray) -> float:
    """Independent route: alpha from the sample covariance matrix."""
    k = matrix.shape[1]
    cov = np.cov(matrix, rowvar=False)
    return (k / (k - 1)) * (1.0 - np.trace(cov) / cov.sum())


def _pearson(x: np.ndarray, y: np.ndarray) -> float | None:
    sx = x.std(ddof=1)
    sy = y.std(ddof=1)
    if sx == 0.0 or sy == 0.0:
        return None
    cov = ((x - x.mean()) * (y - y.mean())).sum() / (len(x) - 1)
    return min(1.0, max(-1.0, float(cov / (sx * sy))))


def omitted_item_stats_oracle(matrix: np.ndarray) -> list[OmittedItemStats]:
    """Reference route for omitted_item_stats: per item, copy the matrix
    without its column, then take the adjusted total as that copy's row
    sums, alpha-if-deleted from cronbach_alpha and SMC from a least-squares
    fit of the item on the copy."""
    m = np.asarray(matrix, dtype=float)
    out = []
    for i in range(m.shape[1]):
        item = m[:, i]
        others = np.delete(m, i, axis=1)
        adj_total = others.sum(axis=1)
        try:
            alpha_del = cronbach_alpha(others)
        except ComputationError:
            alpha_del = None
        out.append(OmittedItemStats(
            item_id=i + 1,
            adj_total_mean=float(adj_total.mean()),
            adj_total_stdev=float(adj_total.std(ddof=1)),
            item_adj_total_corr=_pearson(item, adj_total),
            squared_multiple_corr=_squared_multiple_corr(item, others),
            alpha_if_deleted=alpha_del,
        ))
    return out


def _float_sqrt(q: Fraction) -> float:
    """sqrt(q) to 50 significant digits, then rounded to float."""
    with decimal.localcontext(decimal.Context(prec=50)):
        return float((decimal.Decimal(q.numerator) / q.denominator).sqrt())


def exact_statistics(matrix: np.ndarray) -> dict:
    """Every statistic of an integer N x k matrix (k >= 3) as its exact
    value rounded once to float, from Python-integer sums and ``Fraction``
    arithmetic: ``means``, ``variances`` (by ddof 0 and 1), ``alpha`` (None
    when the total score is constant) and, per item, the omitted fields of
    ``OmittedItemStats`` but SMC (None where undefined)."""
    columns = np.asarray(matrix).T.tolist()
    n, k = len(columns[0]), len(columns)
    totals = [sum(row) for row in zip(*columns)]
    sum_t = sum(totals)

    def variance(s: int, q: int, ddof: int) -> Fraction:
        return Fraction(n * q - s * s, n * (n - ddof))

    def alpha(items: int, trace: Fraction, total: Fraction) -> float | None:
        return None if total == 0 else float(Fraction(items, items - 1) * (1 - trace / total))

    sums = [sum(c) for c in columns]
    squares = [sum(x * x for x in c) for c in columns]
    item_vars = [variance(s, q, 1) for s, q in zip(sums, squares)]
    omitted = []
    for s, c, var in zip(sums, columns, item_vars):
        adj = [t - x for t, x in zip(totals, c)]
        adj_var = variance(sum_t - s, sum(a * a for a in adj), 1)
        cov = Fraction(n * sum(x * a for x, a in zip(c, adj)) - s * (sum_t - s), n * (n - 1))
        corr = None
        if var != 0 and adj_var != 0:
            corr = math.copysign(_float_sqrt(cov * cov / (var * adj_var)), cov)
        omitted.append({
            "adj_total_mean": float(Fraction(sum_t - s, n)),
            "adj_total_stdev": _float_sqrt(adj_var),
            "item_adj_total_corr": corr,
            "alpha_if_deleted": alpha(k - 1, sum(item_vars) - var, adj_var),
        })
    return {
        "means": [float(Fraction(s, n)) for s in sums],
        "variances": {ddof: [float(variance(s, q, ddof)) for s, q in zip(sums, squares)]
                      for ddof in (0, 1)},
        "alpha": alpha(k, sum(item_vars), variance(sum_t, sum(t * t for t in totals), 1)),
        "omitted": omitted,
    }


def ulps(got: float, exact: float) -> float:
    """|got - exact| in units in the last place of ``exact``."""
    return 0.0 if got == exact else abs(got - exact) / math.ulp(exact)


@pytest.fixture(scope="session")
def xyz_instrument() -> SurveyInstrument:
    return xyz.xyz_instrument()


@pytest.fixture(scope="session")
def xyz_weights():
    return xyz.xyz_weights()


@pytest.fixture(scope="session")
def xyz_expect_desc():
    return xyz.expectation_descriptives()


@pytest.fixture(scope="session")
def xyz_perceive_desc():
    return xyz.perception_descriptives()
