import numpy as np
import pytest

from scipy.stats import rankdata

from chigad.metrics import (auprc, auroc, compute_metrics, f1_macro, midranks,
                            pr_points, recall, roc_points)
from oracles import auprc_sweep, auroc_all_pairs


class TestMidranks:
    @pytest.mark.parametrize("seed", range(5))
    def test_equals_scipy_rankdata_with_many_ties(self, seed):
        rng = np.random.default_rng(seed)
        for n in (0, 1, 2, 7, 100, 1000):
            for levels in (1, 3, 50):
                x = rng.integers(0, levels, n) / 7.0
                assert np.array_equal(midranks(x), rankdata(x))
        x = rng.random(500)
        assert np.array_equal(midranks(x), rankdata(x))

    def test_nan_propagates(self):
        assert np.isnan(midranks(np.array([0.3, np.nan, 0.1]))).all()


class TestAuroc:
    def test_perfect_ranking(self):
        y = np.array([0, 0, 1, 1])
        s = np.array([0.1, 0.2, 0.8, 0.9])
        assert auroc(s, y) == 1.0

    def test_inverted_ranking(self):
        y = np.array([0, 0, 1, 1])
        s = np.array([0.9, 0.8, 0.2, 0.1])
        assert auroc(s, y) == 0.0

    def test_ties_give_half_credit(self):
        y = np.array([0, 1])
        s = np.array([0.5, 0.5])
        assert auroc(s, y) == 0.5

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, 10000)
        s = rng.random(10000)
        assert abs(auroc(s, y) - 0.5) < 0.02

    def test_matches_all_pairs_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(5, 120))
            y = rng.integers(0, 2, n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            s = np.round(rng.random(n), 2)  # rounding forces ties
            assert auroc(s, y) == pytest.approx(auroc_all_pairs(s, y), abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="single class"):
            auroc(np.arange(4.0), np.zeros(4, dtype=int))


class TestAuprc:
    def test_perfect_ranking(self):
        y = np.array([0, 0, 1, 1])
        s = np.array([0.1, 0.2, 0.8, 0.9])
        assert auprc(s, y) == 1.0

    def test_anomaly_ranked_last(self):
        # the retrieved prefix is benign until the very end
        y = np.array([1, 0])
        s = np.array([0.1, 0.9])
        assert auprc(s, y) == pytest.approx(0.5)

    def test_matches_sweep_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            n = int(rng.integers(5, 150))
            y = rng.integers(0, 2, n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            s = np.round(rng.random(n), 2)
            assert auprc(s, y) == pytest.approx(auprc_sweep(s, y), abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="single class"):
            auprc(np.arange(4.0), np.ones(4, dtype=int))


class TestThresholded:
    def test_hand_confusion(self):
        y = np.array([1, 1, 0, 0])
        p = np.array([0.9, 0.8, 0.3, 0.2])
        assert recall(p, y) == 1.0
        assert f1_macro(p, y) == 1.0

    def test_all_predicted_benign(self):
        y = np.array([1, 0])
        p = np.array([0.2, 0.1])
        assert recall(p, y) == 0.0
        # anomaly F1 is 0 by the zero-division convention, benign F1 = 2/3
        assert f1_macro(p, y) == pytest.approx((0.0 + 2 / 3) / 2)

    def test_mixed(self):
        y = np.array([1, 1, 0, 0, 0])
        p = np.array([0.9, 0.2, 0.7, 0.1, 0.1])
        # tp=1 fn=1 fp=1 tn=2
        assert recall(p, y) == pytest.approx(0.5)
        f1_anom = 2 * 1 / (2 * 1 + 1 + 1)
        f1_ben = 2 * 2 / (2 * 2 + 1 + 1)
        assert f1_macro(p, y) == pytest.approx((f1_anom + f1_ben) / 2)

    def test_threshold_inclusive(self):
        # a score exactly at the threshold counts as predicted anomaly
        y = np.array([1, 0])
        assert recall(np.array([0.5, 0.4]), y) == 1.0
        assert recall(np.array([0.49, 0.4]), y) == 0.0

    def test_compute_metrics_bundle(self):
        y = np.array([1, 1, 0, 0])
        s = np.array([0.9, 0.8, 0.3, 0.2])
        d = compute_metrics(s, y).as_dict()
        assert d == {"auroc": 1.0, "auprc": 1.0, "f1_macro": 1.0, "recall": 1.0}


class TestCurves:
    def test_roc_endpoints_monotone(self):
        y = np.array([1, 0, 1, 0, 0])
        s = np.array([0.9, 0.6, 0.5, 0.3, 0.1])
        pts = roc_points(s, y)
        assert np.allclose(pts[0], [0.0, 0.0])
        assert np.allclose(pts[-1], [1.0, 1.0])
        assert np.all(np.diff(pts[:, 0]) >= 0)
        assert np.all(np.diff(pts[:, 1]) >= 0)

    def test_roc_area_consistent(self):
        rng = np.random.default_rng(41)
        y = rng.integers(0, 2, 300)
        s = rng.random(300)
        pts = roc_points(s, y)
        area = np.trapezoid(pts[:, 1], pts[:, 0])
        assert area == pytest.approx(auroc(s, y), abs=1e-12)

    def test_pr_curve_shape(self):
        y = np.array([1, 0, 1, 0])
        s = np.array([0.9, 0.8, 0.7, 0.1])
        pts = pr_points(s, y)
        assert np.all(np.diff(pts[:, 0]) >= 0)   # recall sweeps up
        assert pts[-1, 0] == 1.0
        assert np.all((pts >= 0.0) & (pts <= 1.0))
