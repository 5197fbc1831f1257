import math
import re
from fractions import Fraction

import numpy as np
import pytest
from conftest import alpha_covariance_oracle, exact_statistics, examples, \
    omitted_item_stats_oracle, ulps
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from satmetric import ingest, psychometrics

from satmetric.errors import ComputationError
from satmetric.ingest import ResponseKind, ResponseSet, generate_synthetic
from satmetric.instrument import LikertScale, build_instrument
from satmetric.psychometrics import (
    DEFAULT_ALPHA_THRESHOLD,
    ReliabilityReport,
    VarianceMode,
    cronbach_alpha,
    item_descriptives,
    omitted_item_stats,
    reliability_gate,
    reliability_report,
)

# 4 respondents x 3 items; hand-checked oracle values:
#   sample item variances 5/3, 5/3, 11/12 (sum 17/4); total-score variance 131/12
#   alpha = (3/2) * (1 - (17/4)/(131/12)) = 120/131
ORACLE_MATRIX = np.array([(1, 2, 3), (2, 4, 5), (3, 3, 4), (4, 5, 5)], dtype=float)
ORACLE_ALPHA = 120 / 131
ORACLE_ALPHA_WITHOUT_LAST = 8 / 9  # columns 1-2: 2 * (1 - (10/3)/6)


def make_response_set(matrix, kind=ResponseKind.EXPECTATION):
    matrix = np.asarray(matrix)
    return ResponseSet(kind=kind, instrument_ref="test", values=matrix,
                       respondent_ids=tuple(f"r{i}" for i in range(matrix.shape[0])))


def tiny_instrument(k):
    return build_instrument({
        "scale": {"min": 1, "max": 5},
        "items": [{"id": i, "prompt": f"item {i}", "dimension": "empathy", "kano": "must_be"}
                  for i in range(1, k + 1)],
    })


class TestItemDescriptives:
    def test_mean_is_column_sum_over_n(self):
        # six 3s, forty-five 4s, thirty 5s: sum 348, sum of squares 1524
        column = np.array([3] * 6 + [4] * 45 + [5] * 30)
        rs = make_response_set(column.reshape(-1, 1))
        (d,) = item_descriptives(rs, tiny_instrument(1))
        assert d.n == 81
        assert d.mean == 348 / 81
        assert d.mean == pytest.approx(4.296296296, abs=1e-9)

    def test_population_variance_matches_published_value(self):
        column = np.array([3] * 6 + [4] * 45 + [5] * 30)
        assert int((column ** 2).sum()) == 1524
        rs = make_response_set(column.reshape(-1, 1))
        (d,) = item_descriptives(rs, tiny_instrument(1), VarianceMode.POPULATION)
        assert d.variance == pytest.approx(0.356652949, abs=1e-9)
        (d_sample,) = item_descriptives(rs, tiny_instrument(1), VarianceMode.SAMPLE)
        assert d_sample.variance == pytest.approx(d.variance * 81 / 80, rel=1e-12)

    def test_population_variance_second_published_column(self):
        # one 3, forty-seven 4s, thirty-three 5s: sum 356, sum of squares 1586
        column = np.array([3] * 1 + [4] * 47 + [5] * 33)
        assert column.sum() == 356 and int((column ** 2).sum()) == 1586
        rs = make_response_set(column.reshape(-1, 1))
        (d,) = item_descriptives(rs, tiny_instrument(1), VarianceMode.POPULATION)
        assert d.mean == pytest.approx(4.395061728, abs=1e-9)
        assert d.variance == pytest.approx(0.263679317, abs=1e-9)

    def test_constant_column_has_zero_variance_in_both_modes(self):
        rs = make_response_set(np.full((7, 1), 3))
        for mode in VarianceMode:
            (d,) = item_descriptives(rs, tiny_instrument(1), mode)
            assert d.mean == 3.0 and d.variance == 0.0

    def test_means_are_respondent_permutation_invariant(self):
        rng = np.random.default_rng(5)
        matrix = rng.integers(1, 6, size=(9, 3))
        shuffled = matrix[rng.permutation(9)]
        instrument = tiny_instrument(3)
        a = item_descriptives(make_response_set(matrix), instrument)
        b = item_descriptives(make_response_set(shuffled), instrument)
        assert [d.mean for d in a] == [d.mean for d in b]

    def test_importance_kind_rejected(self):
        rs = make_response_set(np.full((3, 5), 20), kind=ResponseKind.IMPORTANCE)
        with pytest.raises(ComputationError, match="Likert"):
            item_descriptives(rs, tiny_instrument(5))


class TestCronbachAlpha:
    def test_oracle_matrix(self):
        assert cronbach_alpha(ORACLE_MATRIX) == pytest.approx(ORACLE_ALPHA, abs=1e-12)

    def test_identical_columns_give_alpha_one(self):
        column = np.array([1, 3, 2, 5, 4], dtype=float)
        matrix = np.column_stack([column] * 4)
        assert cronbach_alpha(matrix) == pytest.approx(1.0, abs=1e-12)

    def test_too_few_items_rejected(self):
        with pytest.raises(ComputationError, match="at least 2 items"):
            cronbach_alpha(ORACLE_MATRIX[:, :1])

    def test_zero_total_variance_is_an_error_not_nan(self):
        matrix = np.array([[1, 2], [1, 2], [1, 2]], dtype=float)
        with pytest.raises(ComputationError, match="variance is zero"):
            cronbach_alpha(matrix)

    def test_translation_invariance(self):
        shifted = ORACLE_MATRIX.copy()
        shifted[:, 1] += 7.0
        assert cronbach_alpha(shifted) == pytest.approx(ORACLE_ALPHA, abs=1e-12)

    def test_positive_scaling_invariance(self):
        assert cronbach_alpha(ORACLE_MATRIX * 3.5) == pytest.approx(ORACLE_ALPHA, abs=1e-12)

    @settings(max_examples=examples(80), deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_covariance_oracle_on_random_matrices(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(5, 11)
        k = rng.integers(3, 7)
        matrix = rng.integers(1, 6, size=(n, k)).astype(float)
        total_var = matrix.sum(axis=1).var(ddof=1)
        if total_var == 0:
            return
        assert cronbach_alpha(matrix) == pytest.approx(
            alpha_covariance_oracle(matrix), abs=1e-12)


@pytest.mark.parametrize("function", [cronbach_alpha, omitted_item_stats])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_is_rejected(function, value, capfd):
    matrix = ORACLE_MATRIX.copy()
    matrix[1, 2] = value
    with pytest.raises(ComputationError, match="NaN or an infinity"):
        function(matrix)
    assert capfd.readouterr().err == ""  # no LAPACK complaint either


@pytest.mark.parametrize("function", [cronbach_alpha, omitted_item_stats])
def test_overflowing_moments_are_rejected(function, capfd):
    with pytest.raises(ComputationError, match="moments overflow"):
        function(ORACLE_MATRIX * 1e200)
    assert capfd.readouterr().err == ""


class TestOmittedItemStats:
    def test_alpha_if_deleted_matches_column_deleted_alpha(self):
        stats = omitted_item_stats(ORACLE_MATRIX)
        assert stats[2].alpha_if_deleted == pytest.approx(ORACLE_ALPHA_WITHOUT_LAST, abs=1e-12)
        for i, s in enumerate(stats):
            expected = cronbach_alpha(np.delete(ORACLE_MATRIX, i, axis=1))
            assert s.alpha_if_deleted == pytest.approx(expected, abs=1e-12)

    def test_adjusted_total_statistics(self):
        stats = omitted_item_stats(ORACLE_MATRIX)
        adj = ORACLE_MATRIX[:, 1:].sum(axis=1)  # totals without item 1
        assert stats[0].adj_total_mean == pytest.approx(adj.mean(), abs=1e-12)
        assert stats[0].adj_total_stdev == pytest.approx(adj.std(ddof=1), abs=1e-12)
        r = np.corrcoef(ORACLE_MATRIX[:, 0], adj)[0, 1]
        assert stats[0].item_adj_total_corr == pytest.approx(r, abs=1e-12)

    def test_squared_multiple_corr_is_regression_r2(self):
        stats = omitted_item_stats(ORACLE_MATRIX)
        y = ORACLE_MATRIX[:, 0]
        X = np.column_stack([np.ones(4), ORACLE_MATRIX[:, 1:]])
        beta, *_ = np.linalg.lstsq(X, y, rcond=None)
        ss_res = ((y - X @ beta) ** 2).sum()
        ss_tot = ((y - y.mean()) ** 2).sum()
        assert stats[0].squared_multiple_corr == pytest.approx(1 - ss_res / ss_tot, abs=1e-9)
        assert 0.0 <= stats[0].squared_multiple_corr <= 1.0

    def test_constant_column_gets_undefined_markers(self):
        matrix = np.column_stack([ORACLE_MATRIX[:, :2], np.full(4, 3.0)])
        stats = omitted_item_stats(matrix)
        assert stats[2].item_adj_total_corr is None
        assert stats[2].squared_multiple_corr is None
        # the other items stay defined
        assert stats[0].item_adj_total_corr is not None

    def test_fewer_than_three_items_rejected(self):
        with pytest.raises(ComputationError, match="at least 3 items"):
            omitted_item_stats(ORACLE_MATRIX[:, :2])

    def test_fewer_than_two_respondents_rejected(self):
        with pytest.raises(ComputationError, match="at least 2 respondents"):
            omitted_item_stats(ORACLE_MATRIX[:1])

    def test_item_ids_are_carried_through(self):
        stats = omitted_item_stats(ORACLE_MATRIX, item_ids=[10, 20, 30])
        assert [s.item_id for s in stats] == [10, 20, 30]


class TestReliabilityGate:
    @pytest.mark.parametrize("alpha, expected", [
        (0.7242, True),
        (0.6, False),   # strict inequality at the boundary
        (0.59, False),
        (0.6000001, True),
    ])
    def test_gate(self, alpha, expected):
        assert reliability_gate(alpha) is expected

    def test_report_assembles_alpha_omitted_and_gate(self):
        instrument = tiny_instrument(3)
        rs = make_response_set(ORACLE_MATRIX.astype(int))
        report = reliability_report(rs, instrument, threshold=0.6)
        assert report.alpha == pytest.approx(ORACLE_ALPHA, abs=1e-12)
        assert report.passes_gate is True
        assert report.n_items == 3 and report.n_respondents == 4
        assert len(report.omitted) == 3
        assert [o.item_id for o in report.omitted] == [1, 2, 3]


@settings(max_examples=examples(40), deadline=None)
@given(st.integers(0, 10_000))
def test_alpha_invariances_on_random_matrices(seed):
    rng = np.random.default_rng(seed)
    matrix = rng.integers(1, 6, size=(8, 4)).astype(float)
    if matrix.sum(axis=1).var(ddof=1) == 0:
        return
    base = cronbach_alpha(matrix)
    shifted = matrix.copy()
    shifted[:, 2] += 11.0
    assert cronbach_alpha(shifted) == pytest.approx(base, abs=1e-12)
    assert cronbach_alpha(matrix * 0.25) == pytest.approx(base, abs=1e-12)


def test_descriptives_recover_synthetic_targets():
    targets = [356 / 81, 348 / 81, 330 / 81]
    rs = generate_synthetic(targets, 81, LikertScale(), seed=4)
    descriptives = item_descriptives(rs, tiny_instrument(3))
    assert [d.mean for d in descriptives] == targets


SHAPES = st.tuples(st.integers(2, 12), st.integers(3, 8))
LIKERT_MATRICES = arrays(np.int64, SHAPES, elements=st.integers(1, 5))
# half-precision values, from 2**-24 to 65504 and of both signs: every row sum
# is exact in float64, so an adjusted total is the same number however it is
# summed, and an exactly constant one is constant on both routes
HALF_FLOAT_MATRICES = arrays(np.float16, SHAPES, elements=st.floats(
    width=16, allow_nan=False, allow_infinity=False)).map(lambda a: a.astype(float))


def _normal_matrix(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(2, 40)), int(rng.integers(3, 12))
    return rng.normal(size=(n, k)) * rng.uniform(0.1, 10, k) + rng.uniform(-10, 10, k)


def _duplicate(m):
    return np.column_stack([m, m[:, 0]])


def _constant(m):
    return np.column_stack([m, np.full(len(m), 3)])


def _one_varying(m):
    return np.column_stack([m[:, :1], np.full((len(m), 2), 4)])


def _sum_of_others(m):
    return np.column_stack([m, m[:, 0] + m[:, 1]])


OMITTED_CASES = {
    "likert": (LIKERT_MATRICES, True),
    "float": (st.integers(0, 2**32 - 1).map(_normal_matrix), False),
    "half_float": (HALF_FLOAT_MATRICES, False),
    "n_le_k": (LIKERT_MATRICES.map(lambda m: m[:m.shape[1]]), True),
    "duplicate_column": (LIKERT_MATRICES.map(_duplicate), True),
    "constant_column": (LIKERT_MATRICES.map(_constant), True),
    "one_varying_item": (LIKERT_MATRICES.map(_one_varying), True),
    "item_is_sum_of_others": (LIKERT_MATRICES.map(_sum_of_others), True),
}

#: The exact route's bounds in ulps of the exact value; means and variances
#: are correctly rounded (0 ulps from the rounded exact value).
ULP_BOUNDS = {"adj_total_mean": 0, "adj_total_stdev": 4, "item_adj_total_corr": 4,
              "alpha_if_deleted": 2}


def assert_within_ulp_bounds(matrix: np.ndarray) -> None:
    """Every statistic of an integer matrix against its exact value."""
    exact = exact_statistics(matrix)
    rs, instrument = make_response_set(matrix), tiny_instrument(matrix.shape[1])
    for mode in VarianceMode:
        descriptives = item_descriptives(rs, instrument, mode)
        assert [d.mean for d in descriptives] == exact["means"]
        assert [d.variance for d in descriptives] == exact["variances"][mode.ddof]
    if exact["alpha"] is None:
        with pytest.raises(ComputationError, match="variance is zero"):
            cronbach_alpha(matrix)
    else:
        assert ulps(cronbach_alpha(matrix), exact["alpha"]) <= 2
    for got, want in zip(omitted_item_stats(matrix), exact["omitted"], strict=True):
        for name, bound in ULP_BOUNDS.items():
            a, b = getattr(got, name), want[name]
            assert (a is None) == (b is None), name
            if a is not None:
                assert ulps(a, b) <= bound, (name, a, b)


def _factor_matrix(n: int, k: int, seed: int) -> np.ndarray:
    """1-5 responses that share one latent factor, as a survey's items do."""
    rng = np.random.default_rng(seed)
    latent = rng.normal(size=(n, 1))
    return np.clip(np.rint(3 + latent + rng.normal(size=(n, k))), 1, 5).astype(np.int64)


@pytest.mark.parametrize("n, k", [(50_000, 17), (1_000, 150)])
def test_exact_route_on_survey_sized_matrices(n, k):
    assert_within_ulp_bounds(_factor_matrix(n, k, seed=n + k))


@settings(max_examples=examples(100), deadline=None)
@given(arrays(np.int64, SHAPES, elements=st.integers(-9, 9)))
def test_exact_route_on_small_integer_matrices(matrix):
    assert_within_ulp_bounds(matrix)


@pytest.mark.parametrize("n, k, peak", [
    (8, 4, 2**25),     # N * peak**2 == 2**53
    (2**13, 4, 2**16),  # N * k * peak == 2**31
])
def test_exact_route_guard_boundary(n, k, peak):
    """At each limit of the guard the int64 route is taken, one past it the
    float route; both agree with the exact values to 1e-12 relative."""
    rng = np.random.default_rng(n)
    base = np.clip(np.rint(peak / 3 * (rng.normal(size=(n, 1)) + rng.normal(size=(n, k)))),
                   -peak, peak).astype(np.int64)
    for top, dtype in ((peak, np.int64), (peak + 1, np.float64)):
        matrix = base.copy()
        matrix[0, 0] = top
        assert psychometrics._as_matrix(matrix).dtype == dtype
        exact = exact_statistics(matrix)
        rs = make_response_set(matrix)
        for mode in VarianceMode:
            descriptives = item_descriptives(rs, tiny_instrument(k), mode)
            assert [d.mean for d in descriptives] == pytest.approx(exact["means"], rel=1e-12)
            assert [d.variance for d in descriptives] == pytest.approx(
                exact["variances"][mode.ddof], rel=1e-12)
        assert cronbach_alpha(matrix) == pytest.approx(exact["alpha"], rel=1e-12)
        for got, want in zip(omitted_item_stats(matrix), exact["omitted"], strict=True):
            for name, b in want.items():
                assert getattr(got, name) == pytest.approx(b, rel=1e-12), name


@pytest.mark.parametrize("rows, bound, kind", [
    (2**24 - 1, 1, np.float32), (1_864_135, 3, np.float32), (1, 4095, np.float32),
    (2**24, 1, np.float64), (2**22, 2, np.float64), (1, 4096, np.float64),
])
def test_gram_float_boundary(rows, bound, kind):
    """A chunk of rows * bound**2 = 2**24 - 1 is read in float32, whose
    partial sums stay exact below 2**24; one of 2**24 is read in float64."""
    assert ingest._gram_float(rows, bound) is kind


@pytest.mark.parametrize("bound, kind", [
    (31, np.float32), (32, np.float64), (33, np.float64), (5000, np.float64),
])
def test_exact_moments_on_either_side_of_the_float32_boundary(bound, kind):
    """One chunk of 2**14 rows, one column: 2**14 * 31**2 < 2**24 is read in
    float32, 32 and up in float64.  Its sums and X'X equal Python's integer
    arithmetic either way."""
    column = np.full((2**14, 1), bound, dtype=np.int64)
    column[::3] = -bound + 1
    assert ingest._gram_float(len(column), bound) is kind
    sums, gram = ingest._exact_moments(column, bound)
    values = column[:, 0].tolist()
    assert sums.tolist() == [sum(values)]
    assert gram.tolist() == [[sum(v * v for v in values)]]


@pytest.mark.parametrize("case", OMITTED_CASES)
@settings(max_examples=examples(100), deadline=None)
@given(data=st.data())
def test_omitted_item_stats_matches_per_item_oracle(case, data):
    """The closed form against the per-item loop it replaces, on the matrix
    and, for an integer one, on its float copy: the same None pattern; SMC
    to the regression tolerance; the other fields to 1e-12 relative.  An
    integer matrix's fields also keep the exact route's ulp bounds."""
    strategy, exact = OMITTED_CASES[case]
    matrix = data.draw(strategy, label="matrix")
    oracle = omitted_item_stats_oracle(matrix)
    for values in (matrix, matrix.astype(float)) if exact else (matrix,):
        for got, want in zip(omitted_item_stats(values), oracle, strict=True):
            for name in ("adj_total_mean", "adj_total_stdev", "item_adj_total_corr",
                         "squared_multiple_corr", "alpha_if_deleted"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a is None) == (b is None), name
                if a is None:
                    continue
                if name == "squared_multiple_corr":
                    assert a == pytest.approx(b, abs=1e-9), name
                else:
                    assert a == pytest.approx(b, rel=1e-12, abs=1e-12), name
    if exact:
        assert_within_ulp_bounds(matrix)


@example(seed=2_226_790_759)  # N = 2, k = 11: A_i cancels by about 10**7 on items 8 and 10
@settings(max_examples=examples(50), deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_float_omitted_item_stats_match_exact_arithmetic(seed):
    """The float route against exact Fraction arithmetic on the float case's
    matrices, to 1e-12 relative, where the adjusted total nearly cancels too."""
    matrix = _normal_matrix(seed)
    exact = exact_statistics(np.array([[Fraction(x) for x in row] for row in matrix.tolist()],
                                      dtype=object))
    for got, want in zip(omitted_item_stats(matrix), exact["omitted"], strict=True):
        for name, b in want.items():
            a = getattr(got, name)
            assert (a is None) == (b is None), name
            if a is not None:
                assert a == pytest.approx(b, rel=1e-12, abs=1e-12), name


def test_full_rank_matrix_needs_no_per_item_alpha_or_regression(monkeypatch):
    calls = {"cronbach_alpha": 0, "lstsq": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(psychometrics, "cronbach_alpha",
                        counted("cronbach_alpha", psychometrics.cronbach_alpha))
    monkeypatch.setattr(np.linalg, "lstsq", counted("lstsq", np.linalg.lstsq))
    full_rank = np.random.default_rng(7).integers(1, 6, size=(200, 40)).astype(float)
    omitted_item_stats(full_rank)
    assert calls == {"cronbach_alpha": 0, "lstsq": 0}
    # a duplicated item makes the correlation matrix singular: per-item regressions
    omitted_item_stats(np.column_stack([full_rank, full_rank[:, 0]]))
    assert calls == {"cronbach_alpha": 0, "lstsq": 41}


def _layouts(matrix: np.ndarray) -> dict[str, np.ndarray]:
    """The same matrix in row-major order, in column-major order and as a
    strided view into a larger array."""
    strided = np.zeros((2 * matrix.shape[0], 3 * matrix.shape[1]), dtype=matrix.dtype)
    strided[::2, ::3] = matrix
    return {"C": np.ascontiguousarray(matrix), "F": np.asfortranarray(matrix),
            "strided": strided[::2, ::3]}


def _result_or_error(function, *args):
    try:
        return function(*args)
    except ComputationError as exc:
        return str(exc)


@settings(max_examples=examples(50), deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_statistics_do_not_depend_on_memory_layout(seed):
    """numpy sums a column-major or strided array in another order than a
    row-major one; every statistic must come out bit for bit the same."""
    rng = np.random.default_rng(seed)
    matrix = rng.integers(1, 6, size=(int(rng.integers(8, 80)), int(rng.integers(3, 9))))
    instrument = tiny_instrument(matrix.shape[1])
    floats = _layouts(matrix.astype(float))
    results = {}
    for layout, values in _layouts(matrix).items():
        rs = make_response_set(values)
        results[layout] = (
            [_result_or_error(function, m) for function in (cronbach_alpha, omitted_item_stats)
             for m in (values, floats[layout])],
            [item_descriptives(rs, instrument, mode) for mode in VarianceMode],
            _result_or_error(reliability_report, rs, instrument),
        )
    assert results["F"] == results["C"]
    assert results["strided"] == results["C"]


@st.composite
def exact_route_matrices(draw):
    """Integer N x k matrices inside both exact-route guards, up to their
    bounds, from N = 1 and k = 1 (where the statistics raise) upwards, some
    of their columns constant."""
    n, k = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    bound = min(math.isqrt(2**53 // n), 2**31 // (n * k))  # N*peak**2, N*k*peak
    peak = draw(st.sampled_from([1, 5, bound]))
    matrix = draw(arrays(np.int64, (n, k), elements=st.integers(-peak, peak)))
    for column in draw(st.sets(st.integers(0, k - 1), max_size=k)):
        matrix[:, column] = draw(st.integers(-peak, peak))
    return matrix


def _single_statistic_report(matrix, instrument):
    """reliability_report's result from cronbach_alpha and omitted_item_stats,
    each run on the matrix alone, in its order."""
    alpha = cronbach_alpha(matrix)
    omitted = omitted_item_stats(matrix, item_ids=instrument.item_ids)
    return ReliabilityReport(alpha=alpha, n_items=matrix.shape[1], n_respondents=len(matrix),
                             threshold=DEFAULT_ALPHA_THRESHOLD,
                             passes_gate=reliability_gate(alpha), omitted=tuple(omitted))


@settings(max_examples=examples(200), deadline=None)
@given(exact_route_matrices())
def test_one_moment_pass_gives_every_statistic_bit_for_bit(matrix):
    """The descriptives and the reliability report of a survey, read from
    its one shared M, against the single-statistic functions on the bare
    matrix: the same bits and the same error, in the same order (k = 2
    passes alpha and fails in the omitted stats).  Means and variances are
    also the correctly rounded exact values."""
    assert psychometrics._as_matrix(matrix).dtype == np.int64
    n, k = matrix.shape
    rs, instrument = make_response_set(matrix), tiny_instrument(k)
    descriptives = {mode: item_descriptives(rs, instrument, mode) for mode in VarianceMode}
    report = _result_or_error(reliability_report, rs, instrument)
    assert "_moments" in vars(rs)  # made by the first statistic, read by the others
    assert report == _result_or_error(_single_statistic_report, matrix, instrument)
    sums, squares = matrix.sum(axis=0).tolist(), (matrix * matrix).sum(axis=0).tolist()
    for mode, got in descriptives.items():
        assert [d.mean for d in got] == [float(Fraction(s, n)) for s in sums]
        assert [d.variance for d in got] == [
            float(Fraction(n * q - s * s, n * (n - mode.ddof))) if n > mode.ddof else None
            for s, q in zip(sums, squares)]


def test_a_survey_takes_one_moment_pass(monkeypatch):
    """item_descriptives in both modes and reliability_report on one
    integer survey make one _moments call, with the cross products, and
    alpha reads its total from it, as the pipeline calls them."""
    calls = []
    real = psychometrics._moments

    def spy(m, cross=False):
        calls.append((m.shape, cross))
        return real(m, cross)

    monkeypatch.setattr(psychometrics, "_moments", spy)
    matrix = _factor_matrix(500, 6, seed=3)
    rs, instrument = make_response_set(matrix), tiny_instrument(6)
    for mode in VarianceMode:
        item_descriptives(rs, instrument, mode)
    reliability_report(rs, instrument)
    assert calls == [((500, 6), True)]


@pytest.mark.parametrize("rows, message", [
    ([[1], [2]], "alpha requires at least 2 items, got 1"),
    ([[1, 2, 3]], "alpha requires at least 2 respondents, got 1"),
    ([[1, 2], [2, 1]], "total-score variance is zero; alpha is undefined"),
    ([[1, 2], [2, 4]], "omitted-item statistics require at least 3 items, got 2"),
])
def test_shared_moments_keep_the_error_order(rows, message):
    matrix = np.array(rows)
    rs = make_response_set(matrix)
    with pytest.raises(ComputationError, match=f"^{message}$"):
        reliability_report(rs, tiny_instrument(matrix.shape[1]))


@pytest.mark.parametrize("call, message", [
    (lambda: cronbach_alpha(np.arange(4)), "expected a 2-D N x k matrix"),
    (lambda: item_descriptives(make_response_set(ORACLE_MATRIX), tiny_instrument(4)),
     "response set has 3 columns but instrument has 4 items"),
    (lambda: omitted_item_stats(ORACLE_MATRIX, item_ids=[1, 2]),
     "item_ids length must match the column count"),
], ids=["one_dimension", "column_count", "item_id_count"])
def test_mismatched_shapes_are_refused(call, message):
    with pytest.raises(ComputationError, match=f"^{re.escape(message)}$"):
        call()
