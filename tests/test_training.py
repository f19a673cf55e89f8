import numpy as np
import pytest
import scipy.sparse as sp

from chigad import autodiff as ad
from chigad.config import RunConfig
from chigad.hin import laplacian
from chigad.model import build_model
from chigad.training import (Adam, CcLossConfig, ContributionVector,
                             cc_weights, evaluate, node_contributions, train,
                             write_history_csv)
from conftest import make_hin
from oracles import adam_reference


def edge_laplacian():
    return laplacian(sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))


class TestContributions:
    def test_single_dim_split(self):
        # x = [1, -1] on one edge: each node carries exactly half the Rayleigh
        c = node_contributions(np.array([1.0, -1.0]), edge_laplacian())
        assert np.allclose(c.values, [0.5, 0.5])
        assert c.used_dims == [0]
        assert c.c_min == c.c_max == 0.5

    def test_sum_equals_used_dims(self):
        # per usable dimension the contributions sum to one by construction
        rng = np.random.default_rng(7)
        a = np.triu(rng.integers(0, 2, (8, 8)), 1).astype(float)
        for k in range(7):
            a[k, k + 1] = 1.0
        L = laplacian(sp.csr_matrix(a + a.T))
        Xp = rng.standard_normal((8, 5))
        c = node_contributions(Xp, L)
        assert c.values.sum() == pytest.approx(len(c.used_dims), rel=1e-10)

    def test_constant_column_skipped(self):
        Xp = np.array([[1.0, 3.0], [-1.0, 3.0]])
        c = node_contributions(Xp, edge_laplacian())
        assert c.used_dims == [0]
        assert np.allclose(c.values, [0.5, 0.5])

    def test_all_degenerate(self):
        with pytest.raises(ValueError, match="degenerate Rayleigh"):
            node_contributions(np.ones((2, 2)), edge_laplacian())

    def test_restrict_extrema(self):
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = a[2, 3] = a[3, 2] = 1.0
        L = laplacian(sp.csr_matrix(a))
        Xp = np.array([[2.0], [-1.0], [0.5], [-0.25]])
        full = node_contributions(Xp, L)
        sub = node_contributions(Xp, L, restrict=np.array([0, 1]))
        assert np.allclose(full.values, sub.values)
        assert sub.c_min == min(sub.values[0], sub.values[1])
        assert sub.c_max == max(sub.values[0], sub.values[1])
        assert (full.c_min, full.c_max) != (sub.c_min, sub.c_max)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            node_contributions(np.ones((3, 1)), edge_laplacian())

    def test_split_product_matches_plain_product(self, monkeypatch):
        # 4000 x 96 is above the split: L @ Xp runs in two row ranges, and
        # the contributions are those of the plain product bit for bit
        n, width = 4000, 96
        a = sp.random(n, n, density=0.001, random_state=21, format="csr")
        L = laplacian(a + a.T)
        Xp = np.random.default_rng(22).standard_normal((n, width))
        monkeypatch.setattr(ad, "WORKERS", 2)
        assert n * width >= ad.SPLIT_MIN
        assert np.array_equal(ad.csr_product(L, Xp), L @ Xp)
        got = node_contributions(Xp, L)
        monkeypatch.setattr(ad, "SPLIT_MIN", 10**18)
        want = node_contributions(Xp, L)
        assert np.array_equal(got.values, want.values)
        assert (got.used_dims, got.c_min, got.c_max) == (want.used_dims, want.c_min, want.c_max)


class TestCcWeights:
    def cc(self, h=2.2, l=1.9):
        return CcLossConfig(h, l)

    def test_benign_weight_is_one(self):
        contrib = ContributionVector(np.array([0.1, 0.9]), [0], 0.1, 0.9)
        w = cc_weights(contrib, np.array([0, 0]), self.cc())
        assert w.tolist() == [1.0, 1.0]

    def test_endpoints(self):
        contrib = ContributionVector(np.array([0.1, 0.9, 0.5]), [0], 0.1, 0.9)
        w = cc_weights(contrib, np.array([1, 1, 0]), self.cc())
        assert w[0] == pytest.approx(2.2)   # hardest anomaly gets H
        assert w[1] == pytest.approx(1.9)   # easiest gets L
        assert w[2] == 1.0

    def test_monotone_decreasing_in_contribution(self):
        vals = np.linspace(-1.0, 2.0, 9)
        contrib = ContributionVector(vals, [0], float(vals.min()), float(vals.max()))
        w = cc_weights(contrib, np.ones(9, dtype=int), self.cc())
        assert np.all(np.diff(w) < 0)
        assert np.all((w >= 1.9 - 1e-12) & (w <= 2.2 + 1e-12))

    def test_degenerate_spread(self):
        contrib = ContributionVector(np.array([0.5, 0.5]), [0], 0.5, 0.5)
        w = cc_weights(contrib, np.array([1, 1]), self.cc())
        assert np.allclose(w, (2.2 + 1.9) / 2.0)

    def test_h_equals_l_is_flat(self):
        contrib = ContributionVector(np.array([0.0, 1.0]), [0], 0.0, 1.0)
        w = cc_weights(contrib, np.array([1, 1]), self.cc(1.3, 1.3))
        assert np.allclose(w, 1.3)

    def test_invalid_config(self):
        with pytest.raises(ValueError, match="H >= L >= 1"):
            CcLossConfig(1.5, 1.8)
        with pytest.raises(ValueError, match="H >= L >= 1"):
            CcLossConfig(0.9, 0.5)

    def test_unit_weights_match_plain_ce(self):
        # H = L = 1 must reproduce the unweighted cross entropy exactly
        rng = np.random.default_rng(3)
        logits_val = rng.standard_normal((6, 2))
        labels = rng.integers(0, 2, 6)
        mask = np.ones(6, bool)
        contrib = ContributionVector(rng.random(6), [0], 0.0, 1.0)
        w = cc_weights(contrib, labels, CcLossConfig(1.0, 1.0))
        t1, t2 = ad.Tape(), ad.Tape()
        weighted = ad.weighted_softmax_ce(t1.leaf(logits_val), labels, w, mask)
        plain = ad.weighted_softmax_ce(t2.leaf(logits_val), labels, np.ones(6), mask)
        assert float(weighted.value) == pytest.approx(float(plain.value), abs=1e-12)


class TestAdam:
    def test_zero_lr_is_noop(self):
        params = {"w": np.array([1.0, 2.0])}
        opt = Adam(params, lr=0.0)
        opt.step({"w": np.array([5.0, -3.0])})
        assert params["w"].tolist() == [1.0, 2.0]

    def test_first_step_magnitude(self):
        # bias correction makes the first update lr * g / (|g| + eps)
        params = {"w": np.array([0.0])}
        opt = Adam(params, lr=0.1)
        opt.step({"w": np.array([4.0])})
        assert params["w"][0] == pytest.approx(-0.1, rel=1e-6)

    def test_descends_quadratic(self):
        params = {"w": np.array([3.0])}
        opt = Adam(params, lr=0.05)
        for _ in range(500):
            opt.step({"w": 2.0 * params["w"]})
        assert abs(params["w"][0]) < 0.05

    def test_missing_grad_skipped(self):
        params = {"a": np.array([1.0]), "b": np.array([2.0])}
        opt = Adam(params, lr=0.1)
        opt.step({"a": np.array([1.0])})
        assert params["b"][0] == 2.0
        assert params["a"][0] != 1.0

    def test_weight_decay_shrinks_at_zero_gradient(self):
        # the penalty enters the gradient, so even g = 0 moves weights toward 0
        params = {"w": np.array([4.0])}
        opt = Adam(params, lr=0.05, weight_decay=0.1)
        for _ in range(400):
            opt.step({"w": np.array([0.0])})
        assert abs(params["w"][0]) < 0.1

    def test_zero_weight_decay_matches_default(self):
        pa = {"w": np.array([1.5])}
        pb = {"w": np.array([1.5])}
        oa, ob = Adam(pa, lr=0.05), Adam(pb, lr=0.05, weight_decay=0.0)
        for _ in range(10):
            oa.step({"w": np.array([0.7])})
            ob.step({"w": np.array([0.7])})
        assert pa["w"][0] == pb["w"][0]

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_in_place_matches_out_of_place_oracle(self, weight_decay):
        # bit for bit over 50 steps, for a 0-d w^S, a matrix and a vector,
        # with some gradients missing; every parameter array keeps its id
        rng = np.random.default_rng(3)
        start = {"wS": np.asarray(1.0), "W": rng.standard_normal((4, 3)),
                 "b": rng.standard_normal(3)}
        steps = []
        for k in range(50):
            grads = {"wS": np.asarray(rng.standard_normal()),
                     "W": rng.standard_normal((4, 3)) * 10.0 ** rng.integers(-6, 3),
                     "b": rng.standard_normal(3)}
            if k % 7 == 3:
                del grads["W"]
            if k % 5 == 1:
                del grads["wS"]
            steps.append(grads)
        want = adam_reference(start, steps, lr=0.01, weight_decay=weight_decay)
        params = {k: v.copy() for k, v in start.items()}
        ids = {k: id(v) for k, v in params.items()}
        opt = Adam(params, lr=0.01, weight_decay=weight_decay)
        for grads, ref in zip(steps, want):
            opt.step(grads)
            assert {k: id(v) for k, v in params.items()} == ids
            for name, arr in params.items():
                assert isinstance(arr, np.ndarray) and arr.shape == start[name].shape
                assert np.array_equal(arr, ref[name]), name


class TestTrainLoop:
    def setup_run(self, seed=0, epochs=25, lr=0.02):
        rng = np.random.default_rng(11)
        g = make_hin(rng, sizes=(12, 6, 5), dims=(4, 3, 2),
                     extra_relation=True, anomalies=(0, 5, 9))
        cfg = RunConfig(candidates=(1, 2), bands=3, aligned_dim=5,
                        mlp_layers=2, epochs=epochs, learning_rate=lr, seed=seed)
        model = build_model(g, cfg)
        return g, cfg, model

    def test_loss_decreases(self):
        g, cfg, model = self.setup_run()
        record = train(model, cfg)
        losses = [e.loss for e in record.epochs]
        assert len(losses) == cfg.epochs
        assert losses[-1] < losses[0]

    def test_loss_halves_across_seeds(self):
        for seed in range(5):
            g, cfg, model = self.setup_run(seed=seed, epochs=60, lr=0.03)
            record = train(model, cfg)
            losses = [e.loss for e in record.epochs]
            assert min(losses) <= 0.5 * losses[0], f"seed {seed}"

    def test_best_params_match_best_epoch(self):
        g, cfg, model = self.setup_run(epochs=15)
        record = train(model, cfg)
        assert 0 <= record.best_epoch < cfg.epochs
        assert record.best_val_f1 == max(e.val_f1 for e in record.epochs)
        # the restored parameters must reproduce the recorded best val F1
        from chigad.metrics import f1_macro
        from chigad.model import forward_pass
        fp = forward_pass(model)
        val = g.split_masks["val"]
        got = f1_macro(fp.prob[val, 1], g.labels[val])
        assert got == pytest.approx(record.best_val_f1, abs=1e-12)

    def test_divergence_aborts(self):
        g, cfg, model = self.setup_run(epochs=5)
        model.params["mlp.0.W"] = model.params["mlp.0.W"] * np.nan
        with pytest.raises(RuntimeError, match="training diverged"):
            train(model, cfg)

    def test_dead_representation_names_epoch(self):
        # zero alignment weights leave every ReLU output at 0, so X' has no
        # usable dimension; train names the epoch and the dead fraction
        g, cfg, model = self.setup_run(epochs=3)
        for name in model.params:
            if name.startswith("W_align"):
                model.params[name][:] = 0.0
        with pytest.raises(RuntimeError, match=r"at epoch 0: .*degenerate Rayleigh.*"
                           r"100\.0% of the relu outputs"):
            train(model, cfg)

    def test_non_finite_representation_is_divergence(self):
        # a non-finite X' also has no usable dimension, but zeros are not why
        g, cfg, model = self.setup_run(epochs=3)
        model.params["W_align[a]"] = model.params["W_align[a]"] * np.inf
        with np.errstate(invalid="ignore"), \
                pytest.raises(RuntimeError, match="diverged: the representation "
                              "became non-finite at epoch 0"):
            train(model, cfg)

    def test_empty_split_rejected(self):
        g, cfg, model = self.setup_run()
        g.split_masks["train"][:] = False
        with pytest.raises(ValueError, match="nonempty"):
            train(model, cfg)

    def test_evaluate_on_splits(self):
        g, cfg, model = self.setup_run(epochs=5)
        train(model, cfg)
        rec = evaluate(model, split="test")
        d = rec.as_dict()
        assert set(d) == {"auroc", "auprc", "f1_macro", "recall"}
        assert all(0.0 <= v <= 1.0 for v in d.values())
        with pytest.raises(KeyError):
            evaluate(model, split="bogus")

    def test_train_deterministic(self):
        g1, cfg1, m1 = self.setup_run(epochs=8)
        g2, cfg2, m2 = self.setup_run(epochs=8)
        r1 = train(m1, cfg1)
        r2 = train(m2, cfg2)
        assert [e.loss for e in r1.epochs] == [e.loss for e in r2.epochs]
        for name in m1.params:
            assert np.array_equal(m1.params[name], m2.params[name])

    def test_history_csv(self, tmp_path):
        g, cfg, model = self.setup_run(epochs=4)
        record = train(model, cfg)
        path = tmp_path / "history.csv"
        write_history_csv(record, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,loss,val_f1_macro,contrib_sum,contrib_dims"
        assert len(lines) == 1 + cfg.epochs
        loss0 = float(lines[1].split(",")[1])
        assert loss0 == record.epochs[0].loss
