import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from setsum.metrics import (MetricsReport, evaluate_pairs, icc, mae, mse, student_t_sf,
                            williams_test)

from oracles import correlation_triple, icc_two_way_table, t_sf_reference, williams_t_direct


class TestErrors:
    def test_identical_series_zero(self):
        assert mse([1, 2, 3], [1, 2, 3]) == 0.0
        assert mae([1, 2, 3], [1, 2, 3]) == 0.0

    def test_worked_example(self):
        assert mse([0, 0], [1, 3]) == 5.0
        assert mae([0, 0], [1, 3]) == 2.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        t, p = rng.normal(size=40), rng.normal(size=40)
        sq = sum((p[i] - t[i]) ** 2 for i in range(40)) / 40
        ab = sum(abs(p[i] - t[i]) for i in range(40)) / 40
        assert mse(t, p) == pytest.approx(sq, abs=1e-12)
        assert mae(t, p) == pytest.approx(ab, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="lengths differ"):
            mse([1, 2], [1, 2, 3])
        with pytest.raises(ValueError, match="at least 2"):
            mse([1], [1])
        with pytest.raises(ValueError, match="finite"):
            mse([1, np.nan], [1, 2])

    def test_non_negative_and_zero_iff_identical(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            t, p = rng.normal(size=10), rng.normal(size=10)
            assert mse(t, p) >= 0.0
            assert mae(t, p) >= 0.0
            if not np.array_equal(t, p):
                assert mse(t, p) > 0.0


class TestIcc:
    def test_perfect_agreement_is_exactly_one(self):
        assert icc([1, 2, 3, 4, 5], [1, 2, 3, 4, 5]) == 1.0

    def test_constant_shift_strictly_below_one(self):
        value = icc([1, 2, 3, 4, 5], [3, 4, 5, 6, 7])
        assert value is not None and value < 1.0

    def test_matches_anova_oracle(self):
        truth = [1.0, 2.0, 3.0, 4.0, 5.0]
        pred = [1.0, 3.0, 2.0, 4.0, 6.0]
        assert icc(truth, pred) == pytest.approx(icc_two_way_table(truth, pred), abs=1e-10)

    def test_matches_anova_oracle_random(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            t = rng.normal(size=12)
            p = t + rng.normal(scale=0.5, size=12)
            assert icc(t, p) == pytest.approx(icc_two_way_table(t, p), abs=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        t, p = rng.normal(size=15), rng.normal(size=15)
        assert icc(t, p) == pytest.approx(icc(p, t), abs=1e-12)

    @given(scale=st.floats(0.1, 50.0), shift=st.floats(-100.0, 100.0))
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_shared_affine_transform(self, scale, shift):
        rng = np.random.default_rng(4)
        t = rng.normal(size=10)
        p = t + rng.normal(scale=0.3, size=10)
        base = icc(t, p)
        moved = icc(scale * t + shift, scale * p + shift)
        assert abs(base - moved) < 1e-10

    def test_degenerate_returns_marker(self):
        assert icc([2.0, 2.0, 2.0], [2.0, 2.0, 2.0]) is None

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            icc([1, 2], [1, 2])


class TestWilliams:
    def test_equal_correlations_null(self):
        assert williams_test(0.5, 0.5, 0.3, 20) == (0.0, 1.0)

    def test_sign_follows_difference(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            r12, r13, r23 = correlation_triple(rng)
            result = williams_test(r12, r13, r23, 30)
            if result is None or r12 == r13:
                continue
            t, p = result
            assert np.sign(t) == np.sign(r12 - r13)
            assert 0.0 <= p <= 1.0

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 20:
            r12, r13, r23 = correlation_triple(rng)
            n = int(rng.integers(5, 200))
            result = williams_test(r12, r13, r23, n)
            if result is None:
                continue
            t, _ = result
            assert t == pytest.approx(williams_t_direct(r12, r13, r23, n), abs=1e-10)
            checked += 1

    def test_reference_case(self):
        t, p = williams_test(0.8, 0.6, 0.5, 50)
        assert t == pytest.approx(williams_t_direct(0.8, 0.6, 0.5, 50), abs=1e-10)
        assert 0.0 < p < 1.0

    def test_p_value_exact_at_large_t(self):
        # t = 18.3 on 97 df: 1 - CDF rounds to 0, the true p is 2.6e-33
        t, p = williams_test(0.99, 0.2, 0.2, 100)
        assert p > 0.0
        assert p == pytest.approx(2.0 * t_sf_reference(t, 97), rel=1e-9)

    def test_degenerate_correlations_marker(self):
        assert williams_test(1.0, 0.2, 0.2, 20) is None
        # K = -2.888: no correlation matrix has this triple, equal r12 and r13 or not
        assert williams_test(0.9, 0.9, -0.9, 30) is None
        assert williams_test(0.9, 0.89, -0.9, 30) is None

    def test_validation(self):
        with pytest.raises(ValueError, match="r12"):
            williams_test(1.5, 0.2, 0.2, 20)
        with pytest.raises(ValueError, match="n >= 4"):
            williams_test(0.5, 0.2, 0.2, 3)


class TestStudentT:
    def test_matches_high_precision_reference(self):
        points = [(-6.0, 3), (-2.5, 3), (-1.0, 3), (-0.2, 3), (0.0, 3),
                  (0.3, 5), (1.0, 5), (2.0, 5), (4.0, 5), (8.0, 5),
                  (-3.0, 12), (-0.7, 12), (0.7, 12), (3.0, 12),
                  (-1.5, 47), (-0.1, 47), (0.1, 47), (1.5, 47),
                  (2.2, 199), (-2.2, 199)]
        assert len(points) == 20
        for x, df in points:
            assert student_t_sf(x, df) == pytest.approx(t_sf_reference(x, df), abs=1e-8)

    def test_bit_equal_to_scipy_stats(self):
        xs = [*np.linspace(0.0, 50.0, 201), 1e3]
        for df in [*range(1, 61), 200]:
            reference = stats.t.sf(xs, df)
            assert [student_t_sf(x, df) for x in xs] == list(reference), f"df={df}"


class TestReport:
    def test_evaluate_pairs(self):
        report = evaluate_pairs([1, 2, 3, 4], [1, 2, 3, 4])
        assert report == MetricsReport(mse=0.0, mae=0.0, icc=1.0, n=4)
        assert "icc=1.0" in str(report)

    def test_icc_marker_printed_as_na(self):
        report = evaluate_pairs([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        assert report.icc is None
        assert "icc=NA" in str(report)
