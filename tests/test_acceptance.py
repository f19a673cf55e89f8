"""End-to-end acceptance checklist.

Nine numbered criteria, each a single test with a wall-clock budget.  Every
test prints one `[acceptance] criterion N (...): PASS/FAIL` line straight to
the real stdout so the verdicts stay visible even under capture.  The
criteria pin down, in order: the filter moment table, the admissibility
constants, the high-frequency combination search, gradient correctness,
agreement with the brute-force oracles, the loss-weighting identities,
detection quality on the planted-anomaly benchmark against a degree-1
low-pass ablation, exact spatial locality of fitted filters, and byte-level
determinism of the command-line pipeline.
"""

import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import chigad.autodiff as ad
from chigad.chifilter import (PolyFilter, admissibility_closed_form, admissibility_integral,
                              chi_mode, chi_moments, fit_polynomial)
from chigad.cli import main
from chigad.config import RunConfig, load_config, sub_seed
from chigad.hin import (enumerate_meta_paths, hetero_graph_from_dict, laplacian,
                        materialize_meta_path_graph)
from chigad.metrics import compute_metrics
from chigad.model import (BankEntry, MetaGraphConvLayer, MultiGraphFilterBank, build_model,
                          forward_pass, multi_graph_forward)
from chigad.synthetic import generate_synthetic_hin
from chigad.training import CcLossConfig, cc_weights, node_contributions, train, evaluate

from conftest import inner, lowpass_ablation, make_hin
from oracles import (auroc_all_pairs, dense_poly_apply, dfs_meta_paths,
                     fd_gradient, grad_mismatch, walk_pairs)


@contextmanager
def criterion(num: int, name: str, budget_s: float, capsys=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        took = time.perf_counter() - start
        _report(num, name, "FAIL", took, budget_s, capsys)
        raise
    took = time.perf_counter() - start
    verdict = "PASS" if took <= budget_s else "FAIL"
    _report(num, name, verdict, took, budget_s, capsys)
    assert took <= budget_s, f"criterion {num} overran its budget: {took:.1f}s > {budget_s}s"


def _report(num, name, verdict, took, budget, capsys):
    # suspend capture so the verdict lands on the real terminal
    with capsys.disabled() if capsys is not None else nullcontext():
        print(f"[acceptance] criterion {num} ({name}): {verdict} in {took:.1f}s "
              f"(budget {budget:.0f}s)", file=sys.__stdout__, flush=True)


# expectation and mode of the truncated spectral density, per filter index
MOMENT_TABLE = {
    1: (0.6970, 0.0000),
    2: (0.9603, 0.6667),
    4: (1.2180, 1.1992),
    8: (1.4313, 1.5556),
    16: (1.5940, 1.7638),
    32: (1.7126, 1.8779),
    64: (1.7973, 1.9339),
    128: (1.8571, 1.9600),
}


def test_c1_filter_moment_table(capsys):
    with criterion(1, "filter moment table", 5.0, capsys):
        for i, (expectation, mode) in MOMENT_TABLE.items():
            got_e, _ = chi_moments(i)
            got_m = chi_mode(i)
            assert abs(got_e - expectation) <= 0.02, f"expectation i={i}: {got_e}"
            if i == 128:
                # the published value saturates early, compare relatively
                assert abs(got_m - mode) / mode <= 0.01, f"mode i=128: {got_m}"
            else:
                assert abs(got_m - mode) <= 0.01, f"mode i={i}: {got_m}"


def test_c2_admissibility_constants(capsys):
    with criterion(2, "admissibility constants", 5.0, capsys):
        for i in range(2, 11):
            closed = admissibility_closed_form(i)
            quad = admissibility_integral(i)
            assert closed > 0
            assert abs(quad - closed) / closed <= 1e-6, f"i={i}: {quad} vs {closed}"
        with pytest.raises(ValueError, match="not admissible"):
            admissibility_integral(1)
        with pytest.raises(ValueError, match="not admissible"):
            admissibility_closed_form(1)


def test_c3_combination_search(capsys):
    with criterion(3, "high-frequency combination search", 30.0, capsys):
        from chigad.spectral import s_high, theorem1_search
        rng = np.random.default_rng(33)
        for trial in range(20):
            n = int(rng.integers(6, 16))
            k = int(rng.integers(2, 6))
            adj = np.zeros((n, n))
            for u in range(n):            # ring keeps every degree positive
                adj[u, (u + 1) % n] = adj[(u + 1) % n, u] = 1
            for _ in range(n):
                u, v = rng.integers(0, n, size=2)
                if u != v:
                    adj[u, v] = adj[v, u] = 1
            L = laplacian(sp.csr_matrix(adj))
            signals = rng.standard_normal((n, k))
            _, best = theorem1_search(signals, L)
            individual = max(s_high(signals[:, j], L) for j in range(k))
            assert best >= individual - 1e-3, f"trial {trial}: {best} < {individual}"


OP_TOL = 1e-4
MODEL_TOL = 1e-3


def _fd_check(build, params, tol):
    """FD-check gradients of scalar build(tape, leaves) w.r.t. every param;
    returns the names of the ops the tape recorded, leaves aside."""
    def run():
        t = ad.Tape()
        nodes = [t.leaf(p) for p in params]
        return t, nodes, build(t, nodes)

    t, nodes, loss = run()
    ops = {n.op for n in t.nodes if n.backward_fn is not None}
    t.backward(loss)
    for j, p in enumerate(params):
        numeric = fd_gradient(lambda: float(run()[2].value), p)
        assert nodes[j].grad is not None, f"param {j} got no gradient"
        assert grad_mismatch(nodes[j].grad, numeric) < tol, f"param {j}"
    return ops


def _away_from_kinks(x, margin=1e-3):
    x = x.copy()
    x[np.abs(x) < margin] += 2 * margin
    return x


def test_c4_gradients(capsys):
    with criterion(4, "gradient checks", 120.0, capsys):
        count = 0
        checked = set()     # ops the per-op cases run through
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            A, B = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
            checked |= _fd_check(lambda t, n: inner(ad.matmul(n[0], n[1])), [A, B], OP_TOL)
            count += 1

            X, b = rng.standard_normal((4, 3)), rng.standard_normal(3)
            checked |= _fd_check(lambda t, n: inner(ad.add_bias(n[0], n[1])), [X, b], OP_TOL)
            count += 1

            Z = _away_from_kinks(rng.standard_normal((5, 3)))
            for kind in ad.ACTIVATIONS:
                checked |= _fd_check(
                    lambda t, n, k=kind: inner(ad.activation(n[0], k)), [Z.copy()],
                    OP_TOL)
            count += 1

            n_nodes = 6
            dense = rng.standard_normal((n_nodes, n_nodes))
            S = sp.csr_matrix((dense + dense.T) / 4)
            coeffs = rng.standard_normal(4)
            F, w = rng.standard_normal((n_nodes, 2)), np.asarray(rng.normal(1.0, 0.2))
            checked |= _fd_check(lambda t, n: inner(
                ad.sparse_poly_apply(coeffs, S, n[0], meta_weight=n[1])), [F, w], OP_TOL)
            count += 1

            # the bank node, one per type, on each entry's weight
            bank = MultiGraphFilterBank("t", [
                BankEntry(PolyFilter(rng.standard_normal(k), 0.0), f"w{j}",
                          list(ad.monomial_powers(S, F, k)))
                for j, k in enumerate((4, 3))])
            G = rng.standard_normal(F.shape)
            ws = [np.asarray(v) for v in rng.normal(1.0, 0.2, size=2)]
            checked |= _fd_check(lambda t, n: inner(
                multi_graph_forward(bank, {"w0": n[0], "w1": n[1]}), G), ws, OP_TOL)
            count += 1

            # the conv node on both paths, rows 1:4 of 6, so a transposed
            # gradient cannot pass; width 2 takes the recurrence, 3 the block
            upper = np.triu(rng.random((n_nodes, n_nodes)) < 0.5, 1)
            adj = sp.csr_matrix((upper | upper.T).astype(float))
            filters = [PolyFilter(rng.standard_normal(5), 0.0)]
            for width in (2, 3):
                conv = MetaGraphConvLayer(adj, filters, (1, 4), width)
                assert (conv.block is None) == (width == 2)
                H, G = rng.standard_normal((n_nodes, width)), rng.standard_normal((3, width))
                checked |= _fd_check(lambda t, n: inner(conv.apply(n[0]), G), [H], OP_TOL)
            count += 1

            P, Q, G = (rng.standard_normal((3, 2)), rng.standard_normal((2, 2)),
                       rng.standard_normal((5, 2)))
            checked |= _fd_check(lambda t, n: inner(ad.vstack([n[0], n[1]]), G), [P, Q],
                                 OP_TOL)
            count += 1

            logits = rng.standard_normal((6, 2))
            labels = rng.integers(0, 2, size=6)
            weights = np.abs(rng.normal(1.0, 0.3, size=6)) + 0.1
            mask = np.zeros(6, dtype=bool)
            mask[rng.choice(6, size=4, replace=False)] = True
            checked |= _fd_check(
                lambda t, n: ad.weighted_softmax_ce(n[0], labels, weights, mask), [logits],
                OP_TOL)
            count += 1

        # whole-model check: loss through the full forward against FD on
        # every parameter, with weights pushed off their init values
        for seed in range(10):
            rng = np.random.default_rng(7000 + seed)
            graph = make_hin(rng)
            cfg = RunConfig(candidates=(1, 2), bands=3, aligned_dim=5,
                            mlp_layers=2, activation="tanh", epochs=1,
                            learning_rate=0.01, seed=seed)
            model = build_model(graph, cfg)
            for name, arr in model.params.items():
                model.params[name] = np.asarray(
                    arr + rng.normal(0.0, 0.4, size=arr.shape))
            mask = graph.split_masks["train"]
            ones = np.ones(graph.node_counts[graph.target_type])

            def loss_of():
                fp = forward_pass(model)
                return fp, ad.weighted_softmax_ce(fp.logits, graph.labels, ones, mask)

            fp, loss = loss_of()
            fp.tape.backward(loss)
            for name in model.params:
                numeric = fd_gradient(lambda: float(loss_of()[1].value),
                                      model.params[name])
                analytic = fp.param_nodes[name].grad
                if analytic is None:
                    analytic = np.zeros_like(numeric)
                assert grad_mismatch(analytic, numeric) < MODEL_TOL, \
                    f"seed {seed} param {name}"
            count += 1
        assert count == 50

        # every op a recording forward pass puts on its tape has a case above,
        # on each conv path (target rows 6 > aligned_dim 5: the recurrence)
        for dim in (5, 6):
            cfg = RunConfig(candidates=(1, 2), bands=3, aligned_dim=dim, mlp_layers=2,
                            activation="tanh")
            model = build_model(make_hin(np.random.default_rng(7000)), cfg)
            assert (model.conv.block is None) == (dim == 5)
            tape = forward_pass(model).tape
            recorded = {n.op for n in tape.nodes if n.backward_fn is not None}
            assert recorded, "the forward pass recorded no op"
            assert "meta_graph_conv" in recorded and recorded <= checked, f"no c4 case for {sorted(recorded - checked)}"


def test_c5_oracle_equivalence(capsys):
    with criterion(5, "oracle equivalence", 60.0, capsys):
        rng = np.random.default_rng(55)

        # schema enumeration against the explicit DFS
        for trial in range(20):
            n_types = int(rng.integers(2, 6))
            names = [f"t{k}" for k in range(n_types)]
            rels = [(f"r{r}", names[rng.integers(n_types)], names[rng.integers(n_types)])
                    for r in range(int(rng.integers(1, 7)))]
            doc = {"node_types": [{"name": nm, "count": 2, "feature_dim": 1,
                                   "features": [[0.0], [1.0]]} for nm in names],
                   "relations": [{"name": nm, "src": s, "dst": d, "edges": [[0, 0]]}
                                 for nm, s, d in rels],
                   "target_type": names[0], "labels": [0, 1],
                   "splits": {"train": [0], "val": [1], "test": []}}
            g = hetero_graph_from_dict(doc)
            lo = int(rng.integers(1, 3))
            hi = lo + int(rng.integers(0, 3))
            got = [p.relation_sequence for p in enumerate_meta_paths(g, names[0], lo, hi)]
            assert got == dfs_meta_paths(rels, names[0], lo, hi), f"trial {trial}"

        # materialization against endpoint reachability by frontier expansion
        for trial in range(10):
            g = make_hin(rng, sizes=(int(rng.integers(8, 31)),
                                     int(rng.integers(4, 16)),
                                     int(rng.integers(4, 16))),
                         extra_relation=True)
            by_name = {r.name: r for r in g.relations}
            for path in enumerate_meta_paths(g, "a", 2, 3):
                mg = materialize_meta_path_graph(g, path)
                blocks = [by_name[nm].adjacency.toarray()
                          for nm in path.relation_sequence]
                pairs = walk_pairs(blocks, g.node_counts, path.node_type_sequence)
                expected = np.zeros((g.node_counts["a"],) * 2)
                for u, v in pairs:
                    if u != v:
                        expected[u, v] = 1.0
                expected = np.maximum(expected, expected.T)
                assert np.array_equal(mg.adjacency.toarray(), expected), f"trial {trial}"

        # ranking area against the all-pairs count, ties included
        for trial in range(10):
            n = int(rng.integers(20, 201))
            labels = rng.integers(0, 2, size=n)
            labels[0], labels[1] = 0, 1
            scores = np.round(rng.random(n), 2)  # duplicates force tie handling
            got = compute_metrics(scores, labels).auroc
            assert abs(got - auroc_all_pairs(scores, labels)) <= 1e-10

        # sparse polynomial application against dense matrix powers
        for trial in range(10):
            dim = int(rng.integers(4, 21))
            dense = rng.standard_normal((dim, dim))
            dense[rng.random((dim, dim)) < 0.5] = 0.0
            S = sp.csr_matrix(dense)
            coeffs = rng.standard_normal(int(rng.integers(1, 6)))
            X = rng.standard_normal((dim, 3))
            t = ad.Tape()
            got = ad.sparse_poly_apply(coeffs, S, t.leaf(X)).value
            want = dense_poly_apply(coeffs, dense, X)
            assert np.max(np.abs(got - want)) <= 1e-10, f"trial {trial}"


def test_c6_loss_identities(capsys):
    with criterion(6, "loss identities", 10.0, capsys):
        rng = np.random.default_rng(66)

        # H = L = 1 collapses the weighting to plain cross-entropy
        n = 12
        rep = rng.standard_normal((n, 4))
        adj = sp.csr_matrix((np.ones(n - 1), (np.arange(n - 1), np.arange(1, n))),
                            shape=(n, n))
        adj = ((adj + adj.T) > 0).astype(np.float64)
        L = laplacian(adj)
        contrib = node_contributions(rep, L)
        labels = rng.integers(0, 2, size=n)
        flat = cc_weights(contrib, labels, CcLossConfig(h=1.0, l=1.0))
        assert np.array_equal(flat, np.ones(n))

        logits = rng.standard_normal((n, 2))
        mask = np.ones(n, dtype=bool)
        t = ad.Tape()
        weighted = float(ad.weighted_softmax_ce(
            t.leaf(logits), labels, flat, mask).value)
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        plain = -float(np.mean(logp[np.arange(n), labels]))
        assert abs(weighted - plain) <= 1e-12

        # anomaly weights reach both endpoints at the contribution extremes
        lo, hi = int(np.argmin(contrib.values)), int(np.argmax(contrib.values))
        assert lo != hi
        endpoint_labels = np.zeros(n, dtype=np.int64)
        endpoint_labels[lo] = endpoint_labels[hi] = 1
        cc = CcLossConfig(h=3.0, l=1.5)
        w = cc_weights(contrib, endpoint_labels, cc)
        assert w[lo] == pytest.approx(3.0, abs=1e-12)
        assert w[hi] == pytest.approx(1.5, abs=1e-12)
        assert np.all(w[endpoint_labels == 0] == 1.0)

        # the per-node contribution decomposition sums to the number of
        # Rayleigh-active dimensions on every training epoch
        graph = make_hin(np.random.default_rng(4))
        cfg = RunConfig(candidates=(1, 2), bands=3, aligned_dim=5,
                        mlp_layers=2, epochs=6, learning_rate=0.01, seed=0)
        model = build_model(graph, cfg)
        record = train(model, cfg)
        assert record.epochs
        for stats in record.epochs:
            assert abs(stats.contrib_sum - stats.contrib_dims) <= 1e-9


# the c7 setup, also the benchmark's c7 workload and the train_eval demo's
C7_CFG = Path(__file__).resolve().parent.parent / "demos" / "c7.cfg"
BENCH_SPEC = load_config(str(C7_CFG)).synth


def bench_config(seed: int) -> RunConfig:
    cfg = load_config(str(C7_CFG))
    cfg.seed = seed
    return cfg


def test_c7_synthetic_detection(capsys):
    with criterion(7, "synthetic detection vs low-pass ablation", 600.0, capsys):
        results = {"chi": [], "lowpass1": []}
        for seed in range(10):
            graph = generate_synthetic_hin(BENCH_SPEC, sub_seed(seed, "synth"))
            cfg = bench_config(seed)
            for mode in ("chi", "lowpass1"):
                model = build_model(graph, cfg)
                if mode == "lowpass1":
                    lowpass_ablation(model)
                train(model, cfg)
                results[mode].append(evaluate(model, "test"))

        def means(mode):
            rows = results[mode]
            return (float(np.mean([r.auroc for r in rows])),
                    float(np.mean([r.auprc for r in rows])),
                    float(np.mean([r.f1_macro for r in rows])))

        chi = means("chi")
        low = means("lowpass1")
        assert chi[0] >= 0.85, f"mean auroc {chi[0]:.3f} below target"
        for got, baseline, name in zip(chi, low, ("auroc", "auprc", "f1_macro")):
            assert got > baseline, f"{name}: {got:.3f} not above ablation {baseline:.3f}"


def test_c8_spatial_locality(capsys):
    with criterion(8, "spatial locality", 5.0, capsys):
        n, src = 41, 20
        rows = np.arange(n - 1)
        adj = sp.csr_matrix((np.ones(n - 1), (rows, rows + 1)), shape=(n, n))
        adj = ((adj + adj.T) > 0).astype(np.float64)
        S = laplacian(adj)
        M = 2.0 * (S - sp.eye(n, format="csr"))      # the conv's operator
        hops = np.abs(np.arange(n) - src)
        delta = np.zeros((n, 1))
        delta[src, 0] = 1.0
        for i, d in ((1, 3), (2, 3), (4, 2)):
            filt = fit_polynomial(i, d)
            assert filt.degree == i - 1 + d
            # the monomial form, and the series the conv applies
            monomial = ad.sparse_poly_apply(filt.coeffs, S, ad.Tape(record=False).leaf(delta))
            for out in (monomial.value[:, 0], ad.clenshaw(filt.cheb, M, delta)[:, 0]):
                assert np.all(out[hops > filt.degree] == 0.0), f"i={i} d={d}"
                assert out[src] != 0.0


def test_c9_determinism(tmp_path, capsys):
    with criterion(9, "pipeline determinism", 600.0, capsys):
        artifacts = ("synthetic_graph.json", "model.ckpt", "history.csv",
                     "metrics.json", "roc.csv", "pr.csv",
                     "eval_metrics.json", "eval_roc.csv")
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            cfg_path = tmp_path / f"{run}.cfg"
            cfg_path.write_text("\n".join([
                f"graph = {out / 'synthetic_graph.json'}",
                "synth_sizes = 40, 20, 20",
                "synth_feature_dims = 5, 4, 3",
                "synth_anomaly_rate = 0.1",
                "candidates = 1, 2",
                "bands = 3",
                "aligned_dim = 6",
                "mlp_layers = 2",
                "epochs = 3",
                "learning_rate = 0.01",
                "seed = 11",
            ]) + "\n")
            assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
            assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
            assert main(["eval", "--config", str(cfg_path), "--out", str(out)]) == 0
            outs.append(out)
        for name in artifacts:
            a, b = (out / name for out in outs)
            assert a.read_bytes() == b.read_bytes(), f"{name} differs between runs"
