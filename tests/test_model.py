import collections
import gc
import json
import re
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from chigad import autodiff as ad
from chigad import model as model_module
from chigad.chifilter import PolyFilter, fit_polynomial
from chigad.config import RunConfig, sub_seed
from chigad.hin import (GraphFormatError, hetero_graph_from_dict, hetero_graph_to_dict,
                        laplacian, materialize_meta_path_graph)
from chigad.model import (CHECKPOINT_V1_MAGIC, CHECKPOINT_V2_MAGIC,
                          MetaGraphConvLayer, build_model, checkpoint_plan,
                          cut_series, forward_pass,
                          graph_signature, load_checkpoint, multi_graph_forward,
                          plan_document, plan_type, save_checkpoint, softmax_rows,
                          summed_coeffs)
from chigad.spectral import DEGENERATE_DIVISION, DIVISIONS, fuse_filters
from chigad.synthetic import SyntheticSpec, generate_synthetic_hin
from chigad.training import train
from conftest import lowpass_ablation, make_hin, make_one_type_hin
from oracles import dense_poly_apply
from test_acceptance import BENCH_SPEC, bench_config


def refeatured(graph, seed):
    """The same schema and edges with fresh normal features on every type."""
    doc = hetero_graph_to_dict(graph)
    rng = np.random.default_rng(seed)
    for spec in doc["node_types"]:
        spec["features"] = rng.normal(size=np.shape(spec["features"])).tolist()
    return hetero_graph_from_dict(doc)


def rewrite_header(path, edit):
    """Apply edit to a checkpoint's JSON header, keeping the parameter bytes."""
    raw = path.read_bytes()
    nl = raw.index(b"\n")
    header = json.loads(raw[:nl])
    edit(header)
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + raw[nl:])


def featureless(graph, node_type, how):
    """The graph with one node type's features all zero ("zeros") or with no
    feature column at all ("no_columns")."""
    doc = hetero_graph_to_dict(graph)
    spec = next(s for s in doc["node_types"] if s["name"] == node_type)
    if how == "no_columns":
        spec["feature_dim"] = 0
    spec["features"] = np.zeros((spec["count"], spec["feature_dim"])).tolist()
    return hetero_graph_from_dict(doc)


def small_model(rng_seed=42, **cfg_kw):
    rng = np.random.default_rng(rng_seed)
    g = make_hin(rng, extra_relation=True)
    kw = dict(candidates=(1, 2, 3), bands=3, aligned_dim=5, mlp_layers=2, seed=0)
    kw.update(cfg_kw)
    cfg = RunConfig(**kw)
    return g, cfg, build_model(g, cfg)


def one_type_model(rng_seed=3, **cfg_kw):
    """The homogeneous variant: build_model on a one-type graph, path length 1."""
    g = make_one_type_hin(np.random.default_rng(rng_seed))
    kw = dict(candidates=(1, 2), bands=3, aligned_dim=4, mlp_layers=2,
              path_min=1, path_max=1, seed=1)
    kw.update(cfg_kw)
    cfg = RunConfig(**kw)
    return g, cfg, build_model(g, cfg)


class TestPlanning:
    def test_plan_covers_all_types(self):
        g, cfg, model = small_model()
        for o in g.node_types:
            tp = model.plans[o]
            if tp.representatives:
                assert len(tp.labels) == len(tp.paths)
                for div in (DEGENERATE_DIVISION,) if tp.degenerate else DIVISIONS:
                    assert div in tp.band_max
                    assert tp.assigned[div] in cfg.candidates

    def test_assigned_filters_match_band(self):
        from chigad.spectral import assign_filter
        g, cfg, model = small_model()
        tp = model.plans["a"]
        for div, bm in tp.band_max.items():
            assert tp.assigned[div] == assign_filter(bm, list(cfg.candidates))

    def test_bands_clamped_to_small_graphs(self):
        # representative graphs here have fewer nodes than the default K
        g, _, _ = small_model()
        cfg = RunConfig(candidates=(1, 2), bands=10, aligned_dim=4,
                        mlp_layers=1, seed=0)
        tp, graphs = plan_type(g, "b", cfg)
        assert tp.representatives and len(graphs) == len(tp.paths)
        for division, rep in tp.representatives.items():
            assert tp.profiles[division].num_bands == graphs[rep].num_nodes < 10

    @pytest.mark.parametrize("node_type", ["t0", "t1"])
    @pytest.mark.parametrize("how", ["zeros", "no_columns"])
    def test_featureless_type_named(self, node_type, how):
        # t0 is the target type; s_high ranks on the features, so a type
        # without a nonzero one cannot be planned, and one without a feature
        # column cannot be loaded
        graph = generate_synthetic_hin(
            SyntheticSpec(sizes=(40, 10, 10), feature_dims=(3, 3, 3)), 0)
        if how == "no_columns":
            with pytest.raises(GraphFormatError, match=re.escape(
                    f"node type {node_type}: 'feature_dim' must be a positive integer")):
                featureless(graph, node_type, how)
            return
        g = featureless(graph, node_type, how)
        cfg = RunConfig(candidates=(1, 3), bands=3, aligned_dim=8, mlp_layers=2)
        with pytest.raises(ValueError, match=re.escape(
                f"node type '{node_type}': every feature is zero, so its meta-path "
                "graphs cannot be ranked by s_high")):
            build_model(g, cfg)

    def test_model_lets_meta_path_graphs_go(self, monkeypatch):
        # a built model holds the bank entries' cached powers, not the
        # meta-path graphs they were built from
        refs = []
        materialize = model_module.materialize_meta_path_graph

        def tracked(graph, path):
            g = materialize(graph, path)
            refs.append(weakref.ref(g.adjacency))
            return g

        monkeypatch.setattr(model_module, "materialize_meta_path_graph", tracked)
        g = make_hin(np.random.default_rng(42), extra_relation=True)
        gc.disable()
        try:
            model = build_model(g, RunConfig(candidates=(1, 2, 3), bands=3, aligned_dim=5,
                                             mlp_layers=2))
            assert refs and all(r() is None for r in refs)
            assert any(bank.entries for bank in model.banks.values())
        finally:
            gc.enable()


class TestBuild:
    def test_param_shapes(self):
        g, cfg, model = small_model()
        assert model.params["W_align[a]"].shape == (4, 5)
        assert model.params["W_align[b]"].shape == (3, 5)
        assert model.params["W_align[c]"].shape == (2, 5)
        assert model.params["mlp.0.W"].shape == (5, 5)
        assert model.params["mlp.0.b"].shape == (5,)
        assert model.params["mlp.1.W"].shape == (5, 2)
        assert model.params["mlp.1.b"].shape == (2,)

    def test_meta_path_weights_start_at_one(self):
        _, _, model = small_model()
        ws = [n for n in model.params if n.startswith("wS[")]
        assert ws
        for n in ws:
            assert model.params[n].shape == ()
            assert float(model.params[n]) == 1.0

    def test_init_respects_fan_in_bound(self):
        _, _, model = small_model()
        for name, arr in model.params.items():
            if name.startswith("W_align") or name.startswith("mlp"):
                fan_in = arr.shape[0] if arr.ndim == 2 else None
        W = model.params["W_align[a]"]
        assert np.max(np.abs(W)) <= 1.0 / np.sqrt(4)
        assert np.max(np.abs(model.params["mlp.0.W"])) <= 1.0 / np.sqrt(5)

    def test_seed_determinism(self):
        _, _, m1 = small_model(seed=3)
        _, _, m2 = small_model(seed=3)
        _, _, m3 = small_model(seed=4)
        for name in m1.params:
            assert np.array_equal(m1.params[name], m2.params[name])
        assert any(not np.array_equal(m1.params[n], m3.params[n])
                   for n in m1.params if n.startswith("W_align"))

    def test_conv_filters_sorted_unique(self):
        g, _, _ = small_model()
        cfg = RunConfig(candidates=(3, 1, 3, 2), bands=3, aligned_dim=5,
                        mlp_layers=1, seed=0, degree_budget=2)
        model = build_model(g, cfg)
        degrees = [f.degree for f in model.conv.filters]
        # sorted unique candidates 1,2,3 with degree rule i-1+d
        assert degrees == [1 - 1 + 2, 2 - 1 + 2, 3 - 1 + 2]
        # applied as one series: their Chebyshev fits summed, zero-padded, cut
        want = np.zeros(3 - 1 + 2 + 1)
        for i in (1, 2, 3):
            fit = fit_polynomial(i, 2)
            want[:len(fit.cheb)] += fit.cheb
        assert np.array_equal(model.conv.cheb, cut_series(want))

    def test_one_fused_filter_per_division(self):
        # the fusion's inputs are the division's, so its entries share one fit
        g, cfg, model = small_model()
        shared = 0
        for o, bank in model.banks.items():
            tp = model.plans[o]
            labels = [lab for lab in tp.labels if lab is not None]
            for division in set(labels):
                polys = [e.poly for e, lab in zip(bank.entries, labels) if lab == division]
                assert all(p is polys[0] for p in polys)
                shared += len(polys) > 1
                want = fuse_filters(tp.assigned, division, cfg.w_d, cfg.degree_budget)
                assert np.array_equal(polys[0].cheb, want.poly.cheb)
        assert shared


class TestForward:
    def test_prob_rows_normalized(self):
        g, _, model = small_model()
        fp = forward_pass(model, record=False)
        prob, rep = fp.prob, fp.rep.value
        assert prob.shape == (6, 2)
        assert np.allclose(prob.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(prob >= 0)
        assert rep.shape == (6, 5)

    def test_forward_deterministic(self):
        g, _, model = small_model()
        f1 = forward_pass(model, record=False)
        f2 = forward_pass(model, record=False)
        assert np.array_equal(f1.prob, f2.prob)
        assert np.array_equal(f1.rep.value, f2.rep.value)

    def test_bank_matches_dense_oracle(self):
        g, _, model = small_model()
        bank, tp = model.banks["a"], model.plans["a"]
        assert bank.entries
        # the model keeps no Laplacian: rebuild each entry's from its
        # meta-path graph
        valid = [idx for idx, label in enumerate(tp.labels) if label is not None]
        assert [e.weight_name for e in bank.entries] == [f"wS[a][{idx}]" for idx in valid]
        ops = [laplacian(materialize_meta_path_graph(g, tp.paths[idx]).adjacency)
               for idx in valid]
        tape = ad.Tape()
        X = g.features["a"]
        wnodes = {e.weight_name: tape.leaf(1.7) for e in bank.entries}
        out = multi_graph_forward(bank, wnodes)
        want = np.zeros_like(X)
        for e, S in zip(bank.entries, ops):
            scaled = e.poly.coeffs * 1.7 ** np.arange(len(e.poly.coeffs))
            want += dense_poly_apply(scaled, S.toarray(), X)
        assert np.allclose(out.value, want, atol=1e-10)
        # the cached powers reproduce the sparse products bit for bit
        x = tape.leaf(X)
        direct = None
        for e, S in zip(bank.entries, ops):
            term = ad.sparse_poly_apply(e.poly.coeffs, S, x, wnodes[e.weight_name])
            direct = term if direct is None else ad.add(direct, term)
        assert np.array_equal(out.value, direct.value)

    def test_zero_features_collapse_rows(self):
        # with all-zero inputs only the MLP biases drive the logits, so every
        # target row gets the same probability vector.  Zero features cannot
        # be ranked, so the model is built from the stored plan
        g, cfg, model = small_model()
        doc = hetero_graph_to_dict(g)
        for nt in doc["node_types"]:
            nt["features"] = np.zeros((nt["count"], nt["feature_dim"])).tolist()
        gz = hetero_graph_from_dict(doc)
        zeroed = build_model(gz, cfg, plan=plan_document(model.plans))
        zeroed.params = {k: v.copy() for k, v in model.params.items()}
        prob = forward_pass(zeroed, record=False).prob
        assert np.allclose(prob, prob[0], atol=1e-12)

    def test_scores_only_its_build_graph(self):
        # the graph is the model's own; a second positional argument is refused
        g, _, model = small_model()
        assert model.graph is g
        with pytest.raises(TypeError):
            forward_pass(model, g)
        with pytest.raises(TypeError):
            forward_pass(model, g, record=False)

    def test_type_without_closed_path_keeps_raw_features(self):
        doc = {
            "node_types": [
                {"name": "A", "count": 4, "feature_dim": 2,
                 "features": np.eye(4, 2).tolist()},
                {"name": "P", "count": 3, "feature_dim": 2,
                 "features": np.ones((3, 2)).tolist()},
                {"name": "Z", "count": 2, "feature_dim": 2,
                 "features": np.ones((2, 2)).tolist()},
            ],
            "relations": [
                {"name": "ap", "src": "A", "dst": "P",
                 "edges": [[0, 0], [1, 0], [2, 1], [3, 2]]},
                {"name": "pa", "src": "P", "dst": "A",
                 "edges": [[0, 0], [0, 1], [1, 2], [2, 3]]},
                {"name": "za", "src": "Z", "dst": "A", "edges": [[0, 0], [1, 1]]},
            ],
            "target_type": "A",
            "labels": [0, 1, 0, 1],
            "splits": {"train": [0, 1], "val": [2], "test": [3]},
        }
        g = hetero_graph_from_dict(doc)
        cfg = RunConfig(candidates=(1, 2), bands=2, aligned_dim=3,
                        mlp_layers=1, seed=0)
        model = build_model(g, cfg)
        assert model.banks["Z"].entries == []
        assert model.banks["A"].entries
        prob = forward_pass(model, record=False).prob
        assert np.allclose(prob.sum(axis=1), 1.0, atol=1e-12)

    def test_empty_bank_direct_call_rejected(self):
        from chigad.model import MultiGraphFilterBank
        with pytest.raises(ValueError, match="empty"):
            multi_graph_forward(MultiGraphFilterBank("a", []), {})

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(77)
        g = make_hin(rng, sizes=(12, 6, 5), dims=(4, 3, 2), extra_relation=True)
        cfg = RunConfig(candidates=(1, 2, 3), bands=3, aligned_dim=6,
                        mlp_layers=2, seed=0)
        perm = rng.permutation(12)
        inv = np.argsort(perm)
        doc = hetero_graph_to_dict(g)
        for nt in doc["node_types"]:
            if nt["name"] == "a":
                nt["features"] = np.array(nt["features"])[perm].tolist()
        doc["labels"] = np.array(doc["labels"])[perm].tolist()
        for split in doc["splits"]:
            doc["splits"][split] = sorted(int(inv[j]) for j in doc["splits"][split])
        for rel in doc["relations"]:
            rel["edges"] = [
                [int(inv[u]) if rel["src"] == "a" else u,
                 int(inv[v]) if rel["dst"] == "a" else v]
                for u, v in rel["edges"]]
        g2 = hetero_graph_from_dict(doc)

        p1 = forward_pass(build_model(g, cfg), record=False).prob
        p2 = forward_pass(build_model(g2, cfg), record=False).prob
        assert np.allclose(p1[perm], p2, atol=1e-9)


class TestTapeLifetime:
    def test_finished_forward_pass_freed_without_cyclic_gc(self):
        g, cfg, model = small_model()
        gc.disable()
        try:
            fp = forward_pass(model)
            loss = ad.weighted_softmax_ce(fp.logits, g.labels, np.ones(len(g.labels)),
                                          g.split_masks["train"])
            fp.tape.backward(loss)
            with pytest.raises(RuntimeError, match="fresh tape"):
                fp.tape.backward(loss)
            assert fp.param_nodes["mlp.1.W"].grad is not None
            ref = weakref.ref(fp.tape)
            del fp
            assert ref() is None
        finally:
            gc.enable()

    def test_forward_only_pass_freed_without_cyclic_gc(self):
        g, cfg, model = small_model()
        gc.disable()
        try:
            fp = forward_pass(model)
            logits = fp.logits
            ref = weakref.ref(fp.tape)
            del fp
            assert ref() is None
            assert logits.tape is None and logits.backward_fn is None
            with pytest.raises(ValueError, match="finished tape"):
                ad.add(logits, logits)
        finally:
            gc.enable()


class TestSoftmax:
    def test_rows_sum_one(self):
        z = np.array([[1000.0, 1000.0], [-500.0, 500.0]])
        p = softmax_rows(z)
        assert np.allclose(p.sum(axis=1), 1.0)
        assert p[0, 0] == pytest.approx(0.5)
        assert p[1, 1] == pytest.approx(1.0)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        g, cfg, model = small_model()
        rng = np.random.default_rng(0)
        for name in model.params:
            model.params[name] = rng.standard_normal(model.params[name].shape)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(model, path, extra={"best_epoch": 7})
        fresh = build_model(g, cfg)
        assert any(not np.array_equal(fresh.params[n], model.params[n])
                   for n in model.params)
        extra = load_checkpoint(fresh, path)
        assert extra == {"best_epoch": 7}
        for name in model.params:
            assert np.array_equal(fresh.params[name], model.params[name])

    def test_schema_mismatch(self, tmp_path):
        g, cfg, model = small_model()
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(model, path)
        other = build_model(g, RunConfig(candidates=(1, 2, 3), bands=3,
                                         aligned_dim=7, mlp_layers=2, seed=0))
        with pytest.raises(ValueError, match="schema hash"):
            load_checkpoint(other, path)

    def test_truncated_blob(self, tmp_path):
        g, cfg, model = small_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, str(path))
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(build_model(g, cfg), str(path))

    def test_not_a_checkpoint(self, tmp_path):
        g, cfg, model = small_model()
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b'{"magic": "something-else"}\n')
        with pytest.raises(ValueError, match="not a model checkpoint"):
            load_checkpoint(model, str(path))

    @pytest.mark.parametrize("content", [
        b"hello\n", np.random.default_rng(0).bytes(200)], ids=["text", "binary"])
    def test_header_not_utf8_json(self, tmp_path, content):
        _, _, model = small_model()
        path = tmp_path / "junk.ckpt"
        path.write_bytes(content)
        with pytest.raises(ValueError, match="^not a model checkpoint file$"):
            checkpoint_plan(str(path))
        with pytest.raises(ValueError, match="^not a model checkpoint file$"):
            load_checkpoint(model, str(path))

    def test_plan_round_trip(self, tmp_path):
        g, cfg, model = small_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, str(path))
        stored = checkpoint_plan(str(path))
        assert stored == plan_document(model.plans)
        assert set(stored) == {"a", "b", "c"}
        rebuilt = build_model(g, cfg, plan=stored)
        for o, tp in model.plans.items():
            got = rebuilt.plans[o]
            assert got.paths == tp.paths
            assert (got.labels, got.representatives, got.scores, got.degenerate) == (
                tp.labels, tp.representatives, tp.scores, tp.degenerate)
            assert got.band_max == tp.band_max and got.assigned == tp.assigned
            assert tp.profiles and not got.profiles
        load_checkpoint(rebuilt, str(path))
        again = tmp_path / "again.ckpt"
        save_checkpoint(rebuilt, str(again))
        assert again.read_bytes() == path.read_bytes()
        assert np.array_equal(forward_pass(rebuilt).prob, forward_pass(model).prob)

    def test_v1_checkpoint_rejected(self, tmp_path):
        g, cfg, model = small_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, str(path))
        rewrite_header(path, lambda h: h.update(magic=CHECKPOINT_V1_MAGIC))
        for read in (lambda: checkpoint_plan(str(path)),
                     lambda: load_checkpoint(model, str(path))):
            with pytest.raises(ValueError, match="re-run train") as err:
                read()
            assert "\n" not in str(err.value)

    def test_v2_checkpoint_rejected(self, tmp_path):
        # v2 weights were trained against the monomial conv
        g, cfg, model = small_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, str(path))
        rewrite_header(path, lambda h: h.update(magic=CHECKPOINT_V2_MAGIC))
        for read in (lambda: checkpoint_plan(str(path)),
                     lambda: load_checkpoint(model, str(path))):
            with pytest.raises(ValueError, match=f"{CHECKPOINT_V2_MAGIC} .*re-run train"):
                read()

    def test_trailing_bytes_rejected(self, tmp_path):
        g, cfg, model = small_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, str(path))
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(ValueError, match="8 trailing bytes"):
            load_checkpoint(model, str(path))

    def test_tampered_meta_path_list(self, tmp_path):
        g, cfg, model = small_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, str(path))
        rewrite_header(path, lambda h: h["plan"]["b"]["paths"].reverse())
        with pytest.raises(ValueError, match="node type 'b', field 'paths'"):
            build_model(g, cfg, plan=checkpoint_plan(str(path)))
        with pytest.raises(ValueError, match="filter plan mismatch: node type 'b', "
                                             "field 'paths'"):
            load_checkpoint(model, str(path))

    def test_label_on_empty_path(self, tmp_path):
        g, cfg, _ = small_model()
        doc = hetero_graph_to_dict(g)
        doc["relations"].append({"name": "aa", "src": "a", "dst": "a", "edges": []})
        g = hetero_graph_from_dict(doc)
        model = build_model(g, cfg)
        labels = model.plans["a"].labels
        empty = labels.index(None)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, str(path))
        stored = checkpoint_plan(str(path))
        assert stored["a"]["labels"] == labels
        assert build_model(g, cfg, plan=stored).plans["a"].labels == labels

        def set_label(h):
            h["plan"]["a"]["labels"][empty] = "low"

        rewrite_header(path, set_label)
        with pytest.raises(ValueError, match="node type 'a', field 'labels'"):
            build_model(g, cfg, plan=checkpoint_plan(str(path)))

    def test_stored_plan_for_other_types_rejected(self):
        g, cfg, model = small_model()
        stored = plan_document(model.plans)
        with pytest.raises(ValueError, match="node type 'c', field 'paths'"):
            build_model(g, cfg, plan={o: d for o, d in stored.items() if o != "c"})
        with pytest.raises(ValueError, match="unknown node type 'z'"):
            build_model(g, cfg, plan={**stored, "z": stored["c"]})

    def test_replanned_model_refuses_weights(self, tmp_path):
        # same schema (hash included), other features: re-planning picks
        # other filters, so the trained weights must not bind to it
        g, cfg, model = small_model()
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(model, path)
        g2 = refeatured(g, 5)
        replanned = build_model(g2, cfg)
        assert replanned.schema_hash == model.schema_hash
        assert replanned.plans["a"].assigned != model.plans["a"].assigned
        with pytest.raises(ValueError, match="filter plan mismatch: node type 'a', "
                                             "field 'assigned'"):
            load_checkpoint(replanned, path)
        stored = build_model(g2, cfg, plan=checkpoint_plan(path))
        load_checkpoint(stored, path)
        assert stored.plans["a"].assigned == model.plans["a"].assigned

    @pytest.mark.parametrize("edit, where", [
        (lambda h: h.pop("schema_hash"), "checkpoint header: missing field 'schema_hash'"),
        (lambda h: h.pop("params"), "checkpoint header: missing field 'params'"),
        (lambda h: h.pop("plan"), "checkpoint header: missing field 'plan'"),
        (lambda h: h.update(plan=[]), "checkpoint header, field 'plan': expected an object"),
        (lambda h: h["plan"].update(b=3), "checkpoint header, field 'plan': expected"),
    ], ids=["no-schema-hash", "no-params", "no-plan", "plan-list", "type-entry-int"])
    def test_malformed_header(self, tmp_path, edit, where):
        g, cfg, model = small_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, str(path))
        rewrite_header(path, edit)
        for read in (lambda: checkpoint_plan(str(path)),
                     lambda: load_checkpoint(model, str(path))):
            with pytest.raises(ValueError, match=re.escape(where)):
                read()

    @pytest.mark.parametrize("node_type, key, value", [
        ("b", "assigned", {"all": "x"}),
        ("b", "assigned", {"all": 4}),
        ("b", "representatives", {"all": 2}),
        ("a", "representatives", {"low": 1, "mid": 1, "high": 2}),
        ("b", "band_max", {"all": "x"}),
        ("b", "scores", 5),
        ("b", "labels", 3),
        ("b", "degenerate", "yes"),
        ("b", "assigned", ["all"]),
        ("b", "scores", [1.0]),
        ("b", "scores", [1.0, 2.0, 3.0]),
        ("b", "scores", [1.0, None]),
        ("b", "scores", [1.0, "x"]),
        ("b", "scores", [True, 1.0]),
    ], ids=["assigned-str", "assigned-not-candidate", "rep-past-list",
            "rep-other-division", "band-max-str", "scores-int", "labels-int",
            "degenerate-str", "assigned-list", "scores-short", "scores-long",
            "scores-null", "scores-str", "scores-bool"])
    def test_malformed_plan_field(self, tmp_path, node_type, key, value):
        g, cfg, model = small_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, str(path))
        rewrite_header(path, lambda h: h["plan"][node_type].update({key: value}))
        with pytest.raises(ValueError, match=re.escape(
                f"stored filter plan, node type '{node_type}', field '{key}'")):
            build_model(g, cfg, plan=checkpoint_plan(str(path)))

    @pytest.mark.parametrize("node_type, key", [
        ("b", "scores"), ("c", "band_max")], ids=["score-nan", "band-max-nan"])
    def test_non_finite_stored_number(self, node_type, key):
        # NaN passes a kind check, then sorts and assigns arbitrarily
        g, cfg, model = small_model()
        stored = plan_document(model.plans)
        field = stored[node_type][key]
        if key == "scores":
            field[0] = float("nan")
        else:
            field.update({d: float("nan") for d in field})
        with pytest.raises(ValueError, match=re.escape(
                f"stored filter plan, node type '{node_type}', field '{key}'")):
            build_model(g, cfg, plan=stored)

    def test_assigned_must_be_the_nearest_candidate(self):
        # 2 is a candidate, but b's band_max (about 0) lies nearest mode 0 of i = 1
        g, cfg, model = small_model()
        stored = plan_document(model.plans)
        assert stored["b"]["assigned"] == {"all": 1}
        stored["b"]["assigned"] = {"all": 2}
        with pytest.raises(ValueError, match=re.escape(
                "node type 'b', field 'assigned'") + r".*candidates \(1, 2, 3\)"):
            build_model(g, cfg, plan=stored)

    def test_labels_must_be_the_cut_of_the_scores(self):
        # low and high swapped in both labels and representatives: consistent
        # with each other, but a's tied scores rank by index, low first
        g, cfg, model = small_model()
        stored = plan_document(model.plans)
        doc = stored["a"]
        swap = {"low": "high", "high": "low", "mid": "mid"}
        doc["labels"] = [swap[lab] for lab in doc["labels"]]
        doc["representatives"] = {swap[d]: r for d, r in doc["representatives"].items()}
        assert all(doc["labels"][r] == d for d, r in doc["representatives"].items())
        with pytest.raises(ValueError, match=re.escape("node type 'a', field 'labels'")):
            build_model(g, cfg, plan=stored)

    @pytest.mark.parametrize("key, value", [
        ("degenerate", 1), ("assigned", {"all": True}), ("representatives", {"all": 1.0})],
        ids=["degenerate-int", "assigned-bool", "rep-float"])
    def test_stored_field_of_another_kind(self, key, value):
        # equal to the replay in Python (True == 1 == 1.0), but not the planner's kind
        g, cfg, model = small_model()
        stored = plan_document(model.plans)
        assert stored["b"]["degenerate"] is True
        assert stored["b"]["assigned"] == stored["b"]["representatives"] == {"all": 1}
        stored["b"][key] = value
        with pytest.raises(ValueError, match=re.escape(f"node type 'b', field '{key}'")):
            build_model(g, cfg, plan=stored)

    def test_layout_mismatch(self, tmp_path):
        g, cfg, model = small_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, str(path))
        raw = path.read_bytes()
        nl = raw.index(b"\n")
        header = json.loads(raw[:nl])
        header["params"][0], header["params"][1] = header["params"][1], header["params"][0]
        path.write_bytes(json.dumps(header, sort_keys=True).encode() + raw[nl:])
        with pytest.raises(ValueError, match="layout"):
            load_checkpoint(build_model(g, cfg), str(path))


class TestSignature:
    def test_tracks_structure(self):
        g, _, _ = small_model()
        sig1 = graph_signature(g)
        doc = hetero_graph_to_dict(g)
        doc["relations"][0]["edges"] = doc["relations"][0]["edges"][:-1]
        doc["relations"][1]["edges"] = doc["relations"][1]["edges"][:-1]
        sig2 = graph_signature(hetero_graph_from_dict(doc))
        assert sig1 != sig2
        assert sig1["target_type"] == "a"


class TestChiGnn:
    """The homogeneous variant is build_model on a graph with one node type."""

    def test_build_and_forward(self):
        g, cfg, model = one_type_model()
        tp = model.plans["n"]
        assert [str(p) for p in tp.paths] == ["n-e-n"]
        assert tp.degenerate and tp.labels == ["all"]
        assert [e.weight_name for e in model.banks["n"].entries] == ["wS[n][0]"]
        assert model.conv.operator.shape[0] == g.node_counts["n"]
        assert [f.degree for f in model.conv.filters] == [1 - 1 + 3, 2 - 1 + 3]
        fp = forward_pass(model, record=False)
        prob, rep = fp.prob, fp.rep.value
        assert prob.shape == (12, 2) and rep.shape == (12, 4)
        assert np.allclose(prob.sum(axis=1), 1.0, atol=1e-12)

    def test_identity_filter_reduces_to_mlp(self):
        g, cfg, model = one_type_model()
        rng = np.random.default_rng(4)
        for name in model.params:
            model.params[name] = rng.standard_normal(model.params[name].shape)
        bank = model.banks["n"]
        for e in bank.entries:
            e.poly = PolyFilter(np.array([1.0]), 0.0)
        model.conv = MetaGraphConvLayer(model.conv.operator,
                                        [PolyFilter(np.array([1.0]), 0.0)],
                                        model.conv.rows, model.conv.width)
        prob = forward_pass(model, record=False).prob
        p = model.params
        h = np.maximum(g.features["n"] @ p["W_align[n]"], 0.0)
        h = np.maximum(h @ p["mlp.0.W"] + p["mlp.0.b"], 0.0)
        logits = h @ p["mlp.1.W"] + p["mlp.1.b"]
        assert np.allclose(prob, softmax_rows(logits), rtol=0.0, atol=1e-12)

    def test_empty_filter_set(self):
        with pytest.raises(ValueError, match="empty filter set"):
            summed_coeffs([])


@pytest.fixture(scope="module")
def c7_graph():
    """The acceptance-c7 benchmark graph and config, seed 0, one epoch."""
    cfg = bench_config(0)
    cfg.epochs = 1
    return generate_synthetic_hin(BENCH_SPEC, sub_seed(0, "synth")), cfg


class CountingSparsetools:
    """Stand-in for the scipy kernel module that clenshaw and csr_product
    call: counts its products by the CSR matrix's column count and runs them."""

    def __init__(self, counter: collections.Counter):
        self.counter = counter

    def csr_matvecs(self, n_row, n_col, *args):
        self.counter[n_col] += 1
        _sparsetools.csr_matvecs(n_row, n_col, *args)


class TestBenchGraph:
    def test_summed_conv_matches_per_filter_oracles(self, c7_graph):
        graph, cfg = c7_graph
        model = build_model(graph, cfg)
        S = model.conv.operator
        H = np.random.default_rng(3).standard_normal((S.shape[0], cfg.aligned_dim))
        got = ad.cheb_apply(model.conv.cheb, model.conv.matrix, ad.Tape().leaf(H)).value
        dense = S.toarray()
        want = sum(dense_poly_apply(f.coeffs, dense, H) for f in model.conv.filters)
        assert len(model.conv.filters) == len(set(cfg.candidates))
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_epoch_matvec_counts(self, c7_graph, monkeypatch):
        # one training epoch: the banks weigh cached powers (they hold no
        # operator to multiply by), the convolution is one cut Chebyshev
        # series, applied forward and to the gradient, one product with
        # 2(S - I) per degree; the contributions' one product with L, a
        # matrix of another size, is counted apart
        graph, cfg = c7_graph
        model = build_model(graph, cfg)
        assert not any(sp.issparse(v) for bank in model.banks.values()
                       for e in bank.entries for v in vars(e).values())
        products = collections.Counter()
        monkeypatch.setattr(ad, "_sparsetools", CountingSparsetools(products))
        train(model, cfg)
        cut_degree = len(model.conv.cheb) - 1
        assert products.pop(model.conv.matrix.shape[1]) == 2 * cut_degree == 28
        assert list(products.values()) == [1]
        # the c7 series' tail is already below the cut: nothing drops
        assert len(summed_coeffs(model.conv.filters)) == len(model.conv.cheb)


def test_defaults_conv_cut_matches_uncut():
    # the defaults' 17 candidates sum to a degree-130 series; cut at build it
    # keeps 40 coefficients and stays within 1e-9 of the uncut series
    cfg = RunConfig()
    graph = generate_synthetic_hin(SyntheticSpec(), sub_seed(0, "synth"))
    conv = build_model(graph, cfg).conv
    full = summed_coeffs(conv.filters)
    assert (len(full), len(conv.cheb)) == (131, 40)
    H = np.random.default_rng(5).standard_normal((conv.operator.shape[0], 16))
    got = ad.clenshaw(conv.cheb, conv.matrix, H)
    want = ad.clenshaw(full, conv.matrix, H)
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))
    # S's unit diagonal is not stored in 2(S - I)
    unit_diagonal = np.count_nonzero(conv.operator.diagonal() == 1.0)
    assert conv.matrix.nnz == conv.operator.nnz - unit_diagonal


@pytest.fixture(scope="module", params=[0, 1])
def defaults_graph(request):
    """The `defaults` workload's graph: SyntheticSpec() from synth seeds 0 and 1."""
    return generate_synthetic_hin(SyntheticSpec(), sub_seed(request.param, "synth"))


class TestDenseTargetBlock:
    """The conv applies p(S)[lo:hi] as one dense block when it fits, and its
    cut series by Clenshaw's recurrence otherwise."""

    def test_block_matches_recurrence(self, defaults_graph):
        model = build_model(defaults_graph, RunConfig())
        conv = model.conv
        assert conv.block is not None
        fp = forward_pass(model)
        G = np.random.default_rng(11).standard_normal(fp.rep.shape)
        fp.tape.backward(ad.node_sum(ad.elementwise_mul(fp.rep, fp.tape.leaf(G))))

        tape = ad.Tape()
        x = tape.leaf(fp.conv_input.value)
        rep = ad.row_slice(ad.cheb_apply(conv.cheb, conv.matrix, x), *conv.rows)
        tape.backward(ad.node_sum(ad.elementwise_mul(rep, tape.leaf(G))))
        for got, want in ((fp.rep.value, rep.value), (fp.conv_input.grad, x.grad)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_filter_swap_sets_only_poly(self, c7_graph):
        # a swapped-in shorter filter reads the first powers of an entry's
        # cache: swapping in the low-pass alone matches a manual cut of the
        # basis to two, and a filter longer than the cache is refused
        graph, cfg = c7_graph
        swapped = lowpass_ablation(build_model(graph, cfg))
        cut = lowpass_ablation(build_model(graph, cfg))
        for bank in cut.banks.values():
            for e in bank.entries:
                del e.basis[2:]
        got = forward_pass(swapped, record=False).prob
        want = forward_pass(cut, record=False).prob
        assert got.tobytes() == want.tobytes()
        longer = fit_polynomial(max(cfg.candidates) + 2, cfg.degree_budget)
        entry = next(e for b in swapped.banks.values() for e in b.entries)
        assert len(longer.cheb) > len(entry.basis)
        entry.poly = longer
        with pytest.raises(ValueError, match=f"{len(longer.cheb)} coefficients for a "
                                             f"basis of {len(entry.basis)} powers"):
            forward_pass(swapped, record=False)

    def test_recurrence_on_c7_and_lowpass_ablation(self, c7_graph):
        graph, cfg = c7_graph
        conv = build_model(graph, cfg).conv
        assert conv.rows[1] - conv.rows[0] > conv.width and conv.block is None
        defaults = generate_synthetic_hin(SyntheticSpec(), sub_seed(0, "synth"))
        model = lowpass_ablation(build_model(defaults, RunConfig()))
        assert len(model.conv.cheb) == 2 and model.conv.block is None


class TestForwardOnlyPass:
    """record=False: the same outputs from a tape that keeps nothing."""

    def test_matches_recording_pass_on_c7(self, c7_graph):
        self.check(*c7_graph)

    def test_matches_recording_pass_on_defaults(self, defaults_graph):
        self.check(defaults_graph, RunConfig())

    @staticmethod
    def check(graph, cfg):
        model = build_model(graph, cfg)
        recorded = forward_pass(model)
        bare = forward_pass(model, record=False)
        assert bare.prob.tobytes() == recorded.prob.tobytes()
        assert bare.rep.value.tobytes() == recorded.rep.value.tobytes()
        assert len(recorded.tape.nodes) > 0 and len(bare.tape.nodes) == 0
        kept = [bare.rep, bare.logits, bare.conv_input, *bare.param_nodes.values()]
        assert all(n.backward_fn is None for n in kept)
        with pytest.raises(RuntimeError, match="records nothing"):
            bare.tape.backward(ad.node_sum(bare.logits))
        assert all(n.grad is None for n in kept)

    def test_conv_filters_never_convert_to_monomials(self, defaults_graph):
        # only the banks read the monomial form; the conv applies its series
        model = build_model(defaults_graph, RunConfig())
        assert all("coeffs" not in vars(f) for f in model.conv.filters)
        forward_pass(model, record=False)
        assert all("coeffs" not in vars(f) for f in model.conv.filters)


class TestIdentityEquality:
    def test_array_holders_compare_by_identity(self):
        # the dataclasses' generated == would compare arrays and raise
        _, _, a = small_model()
        _, _, b = small_model()
        pairs = [(fit_polynomial(3, 3), fit_polynomial(3, 3)),
                 (fuse_filters({"all": 3}, "all"), fuse_filters({"all": 3}, "all")),
                 (a.banks["a"].entries[0], b.banks["a"].entries[0]),
                 (a.banks["a"], b.banks["a"]), (a.conv, b.conv), (a, b)]
        for x, y in pairs:
            assert x == x and x != y, type(x).__name__
