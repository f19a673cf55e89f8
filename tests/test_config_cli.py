import csv
import json
import os
import subprocess
import sys

import numpy as np
import numpy.polynomial.chebyshev as ncheb
import pytest

import chigad
from chigad import spectral
from chigad.chifilter import admissibility_integral, chi_response
from chigad.cli import main
from chigad.config import (ARCH_KEYS, DEFAULT_CANDIDATES, RunConfig, SyntheticSpec,
                           config_to_dict, load_config, parse_config, sub_seed)
from chigad.hin import load_hetero_graph, save_hetero_graph
from chigad.model import (CHECKPOINT_V1_MAGIC, CHECKPOINT_V2_MAGIC, build_model,
                          checkpoint_plan, forward_pass, load_checkpoint)
from chigad.training import split_metrics
from conftest import make_one_type_hin
from oracles import monomial_coeffs
from test_acceptance import bench_config
from test_model import featureless, refeatured, rewrite_header


class TestConfigDefaults:
    def test_reference_column(self):
        cfg = RunConfig()
        assert cfg.learning_rate == 0.0001
        assert cfg.weight_decay == 0.0
        assert cfg.epochs == 200
        assert cfg.mlp_layers == 4
        assert cfg.activation == "relu"
        assert cfg.loss_h == 2.2
        assert cfg.loss_l == 1.9
        assert cfg.aligned_dim == 512
        assert cfg.candidates == DEFAULT_CANDIDATES
        assert cfg.bands == 10
        assert cfg.w_d == 0.1
        assert cfg.degree_budget == 3
        assert (cfg.path_min, cfg.path_max) == (2, 3)
        cfg.validate()

    def test_candidate_set_contents(self):
        odds = tuple(range(1, 20, 2))
        powers = (2, 4, 8, 16, 32, 64, 128)
        assert DEFAULT_CANDIDATES == odds + powers


class TestParsing:
    def test_full_file(self):
        text = """
        # training run
        graph = data/g.json
        candidates = 1, 2, 4   # trailing comment
        bands = 5
        learning_rate = 0.01
        loss_h = 2.5
        activation = tanh
        epochs = 10
        seed = 42
        synth_sizes = 50, 25, 25
        synth_anomaly_rate = 0.1
        synth_communities = 2
        checkpoint = runs/m.ckpt
        """
        cfg = parse_config(text)
        assert cfg.graph == "data/g.json"
        assert cfg.candidates == (1, 2, 4)
        assert cfg.bands == 5
        assert cfg.learning_rate == 0.01
        assert cfg.loss_h == 2.5
        assert cfg.activation == "tanh"
        assert cfg.seed == 42
        assert cfg.synth.sizes == (50, 25, 25)
        assert cfg.synth.anomaly_rate == 0.1
        assert cfg.synth.communities == 2
        assert cfg.checkpoint == "runs/m.ckpt"

    def test_empty_text_gives_defaults(self):
        assert parse_config("") == RunConfig()

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="config line 2: unknown key 'lr'"):
            parse_config("bands = 3\nlr = 0.1\n")
        # every shift operator is the normalized Laplacian: no operator key
        with pytest.raises(ValueError, match="config line 1: unknown key 'operator'"):
            parse_config("operator = adjacency")
        # the low-pass ablation is a filter swap on a built model, and the
        # profiling cap is the constant spectral.DEFAULT_EIG_CAP: no keys
        with pytest.raises(ValueError, match="config line 1: unknown key 'filter_mode'"):
            parse_config("filter_mode = lowpass1")
        with pytest.raises(ValueError, match="config line 1: unknown key 'eig_cap'"):
            parse_config("eig_cap = 100")
        # the synthetic spec is set only through its synth_* keys
        with pytest.raises(ValueError, match="config line 1: unknown key 'synth'"):
            parse_config("synth = 1")

    def test_repeated_key(self):
        with pytest.raises(ValueError, match=(
                "config line 3: key 'candidates' already set on line 1")):
            parse_config("candidates = 1, 3\nepochs = 5\ncandidates = 7\n")
        with pytest.raises(ValueError, match=(
                "config line 2: key 'synth_shift' already set on line 1")):
            parse_config("synth_shift = 1.0\nsynth_shift = 1.0\n")

    def test_bad_value(self):
        with pytest.raises(ValueError, match="line 1: bad value for 'bands'"):
            parse_config("bands = three")
        # an empty item is refused, not dropped: 40,,10,10 must not read as 3 types
        with pytest.raises(ValueError, match="line 2: bad value for 'synth_sizes'"):
            parse_config("epochs = 5\nsynth_sizes = 40,,10,10")
        with pytest.raises(ValueError, match="line 1: bad value for 'candidates'"):
            parse_config("candidates = 1, 3,")

    def test_missing_equals(self):
        with pytest.raises(ValueError, match="expected key = value"):
            parse_config("bands 3")

    def test_validation_runs(self):
        with pytest.raises(ValueError, match="H >= L >= 1"):
            parse_config("loss_h = 1.0\nloss_l = 1.5")
        with pytest.raises(ValueError, match="activation"):
            parse_config("activation = gelu")
        with pytest.raises(ValueError, match="candidates"):
            parse_config("candidates = ,")
        with pytest.raises(ValueError, match="path_min"):
            parse_config("path_min = 4\npath_max = 2")
        with pytest.raises(ValueError, match="weight_decay"):
            parse_config("weight_decay = -0.1")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", [
        "w_d", "learning_rate", "weight_decay", "loss_h", "loss_l",
        "synth_anomaly_rate", "synth_shift", "synth_rewire", "synth_train_frac",
        "synth_val_frac"])
    def test_float_keys_must_be_finite(self, key, value):
        # NaN fails every range comparison, so only a finiteness check stops it
        with pytest.raises(ValueError, match=f"^{key} must be finite"):
            parse_config(f"{key} = {value}")

    def test_weight_decay_parses(self):
        assert parse_config("weight_decay = 0.01").weight_decay == 0.01

    def test_load_config(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("bands = 4\nseed = 9\n")
        cfg = load_config(str(p))
        assert (cfg.bands, cfg.seed) == (4, 9)

    def test_every_key_round_trips(self):
        # each of the 25 keys set away from its default, written as lines
        cfg = RunConfig(
            graph="g.json", candidates=(2, 5), bands=4, w_d=0.25, degree_budget=2,
            aligned_dim=7, path_min=1, path_max=4, learning_rate=0.003,
            weight_decay=0.5, epochs=11, loss_h=3.5, loss_l=1.25, activation="tanh",
            mlp_layers=3, seed=17, checkpoint="m.ckpt",
            synth=SyntheticSpec(sizes=(40, 20), feature_dims=(3, 5), communities=4,
                                anomaly_rate=0.1, shift=0.75, rewire=0.5,
                                train_frac=0.3, val_frac=0.25))

        def flat(c):
            d = config_to_dict(c)
            synth = d.pop("synth")
            return {**d, **{f"synth_{k}": v for k, v in synth.items()}}

        keys, defaults = flat(cfg), flat(RunConfig())
        assert len(keys) == 25
        assert all(keys[k] != defaults[k] for k in keys)
        text = "\n".join(f"{k} = {', '.join(map(str, v)) if isinstance(v, list) else v}"
                         for k, v in keys.items())
        assert parse_config(text) == cfg

    def test_config_to_dict(self):
        d = config_to_dict(RunConfig(candidates=(1, 2), seed=3))
        assert d["candidates"] == [1, 2]
        assert d["seed"] == 3
        assert d["synth"]["sizes"] == [300, 150, 150]

    def test_arch_fingerprint_unchanged(self):
        # the schema hash of every checkpoint depends on this dict
        want = {"candidates": [1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 2, 4, 8, 16, 32, 64, 128],
                "bands": 10, "w_d": 0.1, "degree_budget": 3, "aligned_dim": 512,
                "path_min": 2, "path_max": 3, "activation": "relu", "mlp_layers": 4}
        assert RunConfig().arch_fingerprint() == want
        assert tuple(want) == ARCH_KEYS


class TestSubSeed:
    def test_deterministic(self):
        assert sub_seed(7, "init") == sub_seed(7, "init")

    def test_name_and_seed_sensitive(self):
        assert sub_seed(7, "init") != sub_seed(7, "synth")
        assert sub_seed(7, "init") != sub_seed(8, "init")

    def test_nonnegative_int(self):
        v = sub_seed(0, "anything")
        assert isinstance(v, int) and v >= 0


def write_cfg(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return str(path)


SMALL_SYNTH = [
    "synth_sizes = 40, 20, 20",
    "synth_feature_dims = 5, 4, 3",
    "synth_anomaly_rate = 0.1",
]

SMALL_TRAIN = SMALL_SYNTH + [
    "candidates = 1, 2",
    "bands = 3",
    "aligned_dim = 6",
    "mlp_layers = 2",
    "epochs = 3",
    "learning_rate = 0.01",
]


class TestCliFilters:
    def test_writes_table(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", ["candidates = 1, 2, 4"])
        out = tmp_path / "out"
        assert main(["filters", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "filters.csv").read_text().strip().splitlines()
        assert len(lines) == 4
        row1 = lines[1].split(",")
        assert row1[0] == "1" and row1[5] == "divergent"
        row2 = lines[2].split(",")
        assert float(row2[2]) == pytest.approx(2 / 3, abs=1e-4)
        report = json.loads((out / "filters.json").read_text())
        assert [e["i"] for e in report] == [1, 2, 4]
        assert report[0]["admissibility"] is None
        assert "wrote" in capsys.readouterr().out

    def test_cheb_series_reproduces_response(self, tmp_path):
        # the exported Chebyshev series, evaluated in T_k(w - 1) on [0, 2],
        # is the one fit_error_linf measures; the monomial column is not
        cfg = write_cfg(tmp_path / "c.cfg", ["candidates = 64, 128"])
        out = tmp_path / "out"
        assert main(["filters", "--config", cfg, "--out", str(out)]) == 0
        rows = list(csv.reader((out / "filters.csv").read_text().splitlines()))
        assert rows[0][-2:] == ["coeffs", "cheb"]
        report = json.loads((out / "filters.json").read_text())
        w = np.linspace(0.0, 2.0, 1024)
        for row, entry in zip(rows[1:], report):
            i, err = int(row[0]), float(row[6])
            cheb = [float(c) for c in row[-1].split(";")]
            assert cheb == entry["cheb"]
            assert entry["cheb_basis"] == "T_k(w - 1) on [0, 2]"
            assert entry["fit_error_series"] == "cheb"
            gap = np.max(np.abs(ncheb.chebval(w - 1.0, cheb) - chi_response(i, w)))
            assert gap <= err + 1e-12, i

    def test_monomial_column_is_the_series_conversion(self, tmp_path):
        # coeffs is converted from the exported series on first read, bit for
        # bit the conversion numpy gives
        cfg = write_cfg(tmp_path / "c.cfg", ["candidates = 1, 2, 8, 32, 128"])
        out = tmp_path / "out"
        assert main(["filters", "--config", cfg, "--out", str(out)]) == 0
        rows = list(csv.reader((out / "filters.csv").read_text().splitlines()))
        report = json.loads((out / "filters.json").read_text())
        for row, entry in zip(rows[1:], report):
            want = monomial_coeffs(np.array(entry["cheb"]))
            assert np.array(entry["coeffs"]).tobytes() == want.tobytes()
            assert row[-2] == ";".join(repr(float(c)) for c in want)

    def test_one_quadrature_per_admissible_candidate(self, tmp_path, monkeypatch):
        calls = []

        def counted(i):
            calls.append(i)
            return admissibility_integral(i)

        monkeypatch.setattr("chigad.cli.admissibility_integral", counted)
        cfg = write_cfg(tmp_path / "c.cfg", ["candidates = 1, 2, 4, 8"])
        assert main(["filters", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert calls == [2, 4, 8]

    def test_byte_identical_rerun(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", ["candidates = 1, 2, 8"])
        a, b = tmp_path / "a", tmp_path / "b"
        main(["filters", "--config", cfg, "--out", str(a)])
        main(["filters", "--config", cfg, "--out", str(b)])
        assert (a / "filters.csv").read_bytes() == (b / "filters.csv").read_bytes()
        assert (a / "filters.json").read_bytes() == (b / "filters.json").read_bytes()


class TestCliSynth:
    def test_deterministic_and_seed_sensitive(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", SMALL_SYNTH)
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert main(["synth", "--config", cfg, "--out", str(a)]) == 0
        assert main(["synth", "--config", cfg, "--out", str(b)]) == 0
        assert main(["synth", "--config", cfg, "--seed", "5", "--out", str(c)]) == 0
        ga = (a / "synthetic_graph.json").read_bytes()
        assert ga == (b / "synthetic_graph.json").read_bytes()
        assert ga != (c / "synthetic_graph.json").read_bytes()


class TestCliGraphCommands:
    def synth_graph(self, tmp_path):
        cfg = write_cfg(tmp_path / "synth.cfg", SMALL_SYNTH)
        out = tmp_path / "data"
        main(["synth", "--config", cfg, "--out", str(out)])
        return str(out / "synthetic_graph.json")

    def test_metapaths(self, tmp_path):
        gpath = self.synth_graph(tmp_path)
        cfg = write_cfg(tmp_path / "m.cfg", [f"graph = {gpath}", "candidates = 1, 2",
                                             "bands = 3"])
        out = tmp_path / "out"
        assert main(["metapaths", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "metapaths.csv").read_text().strip().splitlines()
        assert lines[0] == "node_type,path,status,s_high,division,role"
        assert len(lines) > 1
        report = json.loads((out / "metapaths.json").read_text())
        t0 = next(e for e in report if e["node_type"] == "t0")
        assert any(p["representative"] for p in t0["paths"])
        for div in t0["divisions"]:
            assert div["assigned_filter"] in (1, 2)

    def test_analyze(self, tmp_path):
        gpath = self.synth_graph(tmp_path)
        cfg = write_cfg(tmp_path / "a.cfg", [f"graph = {gpath}", "candidates = 1, 2",
                                             "bands = 3"])
        out = tmp_path / "out"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "analyze.json").read_text())
        assert report
        for entry in report:
            assert entry["total_energy"] > 0
            assert len(entry["bands"]) <= 3
        lines = (out / "bands.csv").read_text().strip().splitlines()
        assert lines[0] == "node_type,division,band,lambda_lo,lambda_hi,energy"

    def test_analyze_profiles_each_representative_once(self, tmp_path, monkeypatch):
        gpath = self.synth_graph(tmp_path)
        cfg = write_cfg(tmp_path / "a.cfg", [f"graph = {gpath}", "candidates = 1, 2",
                                             "bands = 3"])
        # a profile makes one eigh per connected component, so count profiles
        real, calls = spectral.spectral_profile, []

        def counted(*args, **kwargs):
            calls.append(args[0].num_nodes)
            return real(*args, **kwargs)

        monkeypatch.setattr("chigad.spectral.spectral_profile", counted)
        out = tmp_path / "out"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "analyze.json").read_text())
        assert len(calls) == len(report) > 0

    def trained(self, tmp_path):
        gpath = self.synth_graph(tmp_path)
        cfg = write_cfg(tmp_path / "t.cfg", [f"graph = {gpath}"] + SMALL_TRAIN)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        return gpath, cfg, out

    def test_eval_makes_no_plan(self, tmp_path, monkeypatch):
        _, cfg, out = self.trained(tmp_path)

        def forbidden(*args, **kwargs):
            raise AssertionError("eval ranked, profiled or decomposed")

        for target in ("chigad.model.select_representatives",
                       "chigad.model.profile_capped", "numpy.linalg.eigh"):
            monkeypatch.setattr(target, forbidden)
        assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "eval_metrics.json").read_bytes() == (out / "metrics.json").read_bytes()

    def test_eval_scores_same_schema_graph_with_trained_filters(self, tmp_path):
        gpath, cfg, run = self.trained(tmp_path)
        train_cfg, ckpt = load_config(cfg), str(run / "model.ckpt")
        trained_plans = build_model(load_hetero_graph(gpath), train_cfg).plans
        other = refeatured(load_hetero_graph(gpath), 1)
        opath = str(tmp_path / "other.json")
        save_hetero_graph(other, opath)
        # re-planning on the new features picks other filters: the weights refuse it
        replanned = build_model(other, train_cfg)
        assert ({o: tp.assigned for o, tp in replanned.plans.items()}
                != {o: tp.assigned for o, tp in trained_plans.items()})
        with pytest.raises(ValueError, match="filter plan mismatch"):
            load_checkpoint(replanned, ckpt)

        ecfg = write_cfg(tmp_path / "e.cfg",
                         [f"graph = {opath}", f"checkpoint = {ckpt}"] + SMALL_TRAIN)
        scored = tmp_path / "scored"
        assert main(["eval", "--config", ecfg, "--out", str(scored)]) == 0
        model = build_model(other, train_cfg, plan=checkpoint_plan(ckpt))
        load_checkpoint(model, ckpt)
        for o, tp in trained_plans.items():
            assert model.plans[o].assigned == tp.assigned
        want = split_metrics(forward_pass(model).prob, other, "test").as_dict()
        assert json.loads((scored / "eval_metrics.json").read_text()) == want

    def test_train_then_eval_reproduces(self, tmp_path):
        gpath = self.synth_graph(tmp_path)
        cfg = write_cfg(tmp_path / "t.cfg", [f"graph = {gpath}"] + SMALL_TRAIN)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        for name in ("model.ckpt", "history.csv", "metrics.json", "roc.csv", "pr.csv"):
            assert (out / name).exists(), name
        hist = (out / "history.csv").read_text().strip().splitlines()
        assert len(hist) == 1 + 3

        assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "eval_metrics.json").read_bytes() == (out / "metrics.json").read_bytes()
        assert (out / "eval_roc.csv").read_bytes() == (out / "roc.csv").read_bytes()

    def test_one_node_type_train_then_eval(self, tmp_path):
        # the homogeneous variant (ChiGNN) through the same commands
        graph = make_one_type_hin(np.random.default_rng(6), n=30,
                                  anomalies=(0, 5, 12, 17, 24, 28))
        gpath = str(tmp_path / "homo.json")
        save_hetero_graph(graph, gpath)
        cfg = write_cfg(tmp_path / "h.cfg", [f"graph = {gpath}", "path_min = 1",
                                             "path_max = 1"] + SMALL_TRAIN)
        out = tmp_path / "run"
        assert main(["metapaths", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "metapaths.json").read_text())
        assert [e["node_type"] for e in report] == ["n"]
        assert [(p["path"], p["division"]) for p in report[0]["paths"]] == [("n-e-n", "all")]
        assert [d["division"] for d in report[0]["divisions"]] == ["all"]
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "eval_metrics.json").read_bytes() == (out / "metrics.json").read_bytes()

    def test_csv_directory_matches_json(self, tmp_path):
        # the same graph as a CSV directory (features by repr, so they read
        # back exactly) trains and scores byte-identically
        gpath = self.synth_graph(tmp_path)
        graph = load_hetero_graph(gpath)
        gdir = tmp_path / "csv"
        gdir.mkdir()
        (gdir / "meta.json").write_text(json.dumps({
            "node_types": graph.node_types, "target_type": graph.target_type,
            "relations": [{"name": r.name, "src": r.src, "dst": r.dst}
                          for r in graph.relations]}))
        for t in graph.node_types:
            feats = graph.features[t]
            header = [f"f{j}" for j in range(feats.shape[1])]
            rows = [[repr(float(x)) for x in row] for row in feats]
            if t == graph.target_type:
                header.append("label")
                for row, lab in zip(rows, graph.labels):
                    row.append("" if lab < 0 else str(lab))
            with open(gdir / f"nodes_{t}.csv", "w", newline="") as fh:
                csv.writer(fh).writerows([header] + rows)
        for r in graph.relations:
            with open(gdir / f"edges_{r.name}.csv", "w", newline="") as fh:
                csv.writer(fh).writerows([["u", "v"]] + np.column_stack(
                    r.adjacency.nonzero()).tolist())
        with open(gdir / "splits.csv", "w", newline="") as fh:
            csv.writer(fh).writerows([["id", "split"]] + [
                [int(k), split] for split, mask in graph.split_masks.items()
                for k in np.nonzero(mask)[0]])

        runs = {}
        for name, source in (("json", gpath), ("csv", gdir)):
            cfg = write_cfg(tmp_path / f"{name}.cfg", [f"graph = {source}"] + SMALL_TRAIN)
            runs[name] = tmp_path / f"run-{name}"
            assert main(["train", "--config", cfg, "--out", str(runs[name])]) == 0
            assert main(["eval", "--config", cfg, "--out", str(runs[name])]) == 0
        for artifact in ("history.csv", "metrics.json", "eval_metrics.json"):
            assert ((runs["csv"] / artifact).read_bytes()
                    == (runs["json"] / artifact).read_bytes()), artifact

    def test_eval_explicit_checkpoint_key(self, tmp_path):
        gpath = self.synth_graph(tmp_path)
        run = tmp_path / "run"
        cfg = write_cfg(tmp_path / "t.cfg", [f"graph = {gpath}"] + SMALL_TRAIN)
        main(["train", "--config", cfg, "--out", str(run)])
        cfg2 = write_cfg(tmp_path / "e.cfg",
                         [f"graph = {gpath}", f"checkpoint = {run / 'model.ckpt'}"]
                         + SMALL_TRAIN)
        other = tmp_path / "elsewhere"
        assert main(["eval", "--config", cfg2, "--out", str(other)]) == 0
        assert (other / "eval_metrics.json").read_bytes() == \
            (run / "metrics.json").read_bytes()

    @pytest.mark.parametrize("keep, why", [(None, "is empty"),
                                           (0, "holds a single class")])
    def test_unscorable_test_split_skips_metrics(self, tmp_path, capsys, keep, why):
        gpath = self.synth_graph(tmp_path)
        with open(gpath) as fh:
            doc = json.load(fh)
        test = doc["splits"]["test"]
        doc["splits"]["test"] = ([] if keep is None
                                 else [i for i in test if doc["labels"][i] == keep])
        assert test and len(doc["splits"]["test"]) != len(test)
        with open(gpath, "w") as fh:
            json.dump(doc, fh)
        cfg = write_cfg(tmp_path / "t.cfg", [f"graph = {gpath}"] + SMALL_TRAIN)
        out = tmp_path / "run"
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["history.csv", "model.ckpt"]
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == ("skipped eval_metrics.json, eval_roc.csv and eval_pr.csv: "
                             f"the test split {why}")
        assert lines[-2] == f"skipped metrics.json, roc.csv and pr.csv: the test split {why}"


class TestCliErrors:
    def check_error(self, capsys, argv, needle):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert needle in err
        assert err.strip().count("\n") == 0
        return err

    def test_missing_graph_key(self, tmp_path, capsys):
        self.check_error(capsys, ["metapaths", "--out", str(tmp_path / "o")],
                         "'graph' is required")

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", ["wat = 1"])
        self.check_error(capsys, ["filters", "--config", cfg,
                                  "--out", str(tmp_path / "o")], "unknown key")

    def test_unreadable_graph(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", ["graph = /nonexistent/g.json"])
        self.check_error(capsys, ["analyze", "--config", cfg,
                                  "--out", str(tmp_path / "o")], "error:")

    def test_train_featureless_type(self, tmp_path, capsys):
        gpath = TestCliGraphCommands().synth_graph(tmp_path)
        save_hetero_graph(featureless(load_hetero_graph(gpath), "t1", "zeros"), gpath)
        cfg = write_cfg(tmp_path / "c.cfg", [f"graph = {gpath}"] + SMALL_TRAIN)
        err = self.check_error(capsys, ["train", "--config", cfg,
                                        "--out", str(tmp_path / "o")], "")
        assert err == ("error: node type 't1': every feature is zero, so its meta-path "
                       "graphs cannot be ranked by s_high\n")

    def test_eval_v1_checkpoint(self, tmp_path, capsys):
        _, cfg, run = TestCliGraphCommands().trained(tmp_path)
        rewrite_header(run / "model.ckpt", lambda h: h.update(magic=CHECKPOINT_V1_MAGIC))
        self.check_error(capsys, ["eval", "--config", cfg, "--out", str(run)],
                         "re-run train")

    def test_eval_v2_checkpoint(self, tmp_path, capsys):
        _, cfg, run = TestCliGraphCommands().trained(tmp_path)
        rewrite_header(run / "model.ckpt", lambda h: h.update(magic=CHECKPOINT_V2_MAGIC))
        err = self.check_error(capsys, ["eval", "--config", cfg, "--out", str(run)],
                               "re-run train")
        assert f"checkpoint format {CHECKPOINT_V2_MAGIC} " in err

    def test_eval_without_checkpoint(self, tmp_path, capsys):
        gpath = TestCliGraphCommands().synth_graph(tmp_path)
        cfg = write_cfg(tmp_path / "c.cfg", [f"graph = {gpath}"] + SMALL_TRAIN)
        self.check_error(capsys, ["eval", "--config", cfg,
                                  "--out", str(tmp_path / "fresh")], "error:")


def run_python(code: str, *args: str, timeout: float | None = None):
    src = os.path.dirname(os.path.dirname(chigad.__file__))
    return subprocess.run([sys.executable, "-c", code, *args],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, check=True, timeout=timeout)


class TestCliImport:
    def test_no_quadrature_or_stats_on_import(self):
        # every command pays the import; quadrature, scipy.stats and
        # scipy.special stay off it, and neither planning nor a forward and
        # backward pass loads scipy.sparse.csgraph or scipy.linalg
        code = (
            "import sys, chigad.cli\n"
            "heavy = ('scipy.integrate', 'scipy.stats', 'scipy.special', "
            "'scipy.sparse.csgraph', 'scipy.linalg')\n"
            "print(sorted(m for m in heavy if m in sys.modules))\n"
            "from chigad import RunConfig, SyntheticSpec, generate_synthetic_hin\n"
            "from chigad.model import plan_type\n"
            "g = generate_synthetic_hin(SyntheticSpec(sizes=(40, 10, 10), "
            "feature_dims=(3, 3, 3)), 0)\n"
            "tp, _ = plan_type(g, g.target_type, RunConfig(candidates=(1, 3), bands=3))\n"
            "assert tp.profiles\n"
            "print(sorted(m for m in heavy if m in sys.modules))\n"
            "from chigad.model import build_model, forward_pass\n"
            "from chigad.autodiff import weighted_softmax_ce\n"
            "model = build_model(g, RunConfig(candidates=(1, 3), bands=3, aligned_dim=4))\n"
            "fp = forward_pass(model)\n"
            "ones = [1.0] * len(g.labels)\n"
            "fp.tape.backward(weighted_softmax_ce(fp.logits, g.labels, ones, "
            "g.split_masks['train']))\n"
            "assert fp.param_nodes['mlp.0.W'].grad is not None\n"
            "print(sorted(m for m in heavy if m in sys.modules))\n")
        assert run_python(code).stdout.split() == ["[]", "[]", "[]"]


class TestWorkerPool:
    """No command starts a thread: the sparse hot path runs in the calling
    thread at every size."""

    def test_import_and_c7_train_start_no_thread(self):
        cfg = bench_config(0)
        cfg.epochs = 3
        code = (
            "import threading, chigad.cli\n"
            "counts = [threading.active_count()]\n"
            "from chigad.config import RunConfig, SyntheticSpec, sub_seed\n"
            "from chigad import build_model, generate_synthetic_hin, train\n"
            f"cfg = {cfg!r}\n"
            "g = generate_synthetic_hin(cfg.synth, sub_seed(0, 'synth'))\n"
            "train(build_model(g, cfg), cfg)\n"
            "counts.append(threading.active_count())\n"
            "print(counts)\n")
        assert run_python(code, timeout=120).stdout.strip() == "[1, 1]"

    def test_cli_train_above_split_exits(self, tmp_path):
        # c7's hyper-parameters on 8000/2000/2000 nodes: a 12000 x 32 conv
        # input, above the size where the recurrence was once split over a
        # pool; the command exits with the calling thread the only one
        synth = write_cfg(tmp_path / "s.cfg", ["synth_sizes = 8000, 2000, 2000",
                                              "synth_feature_dims = 4, 8, 6"])
        main(["synth", "--config", synth, "--out", str(tmp_path / "data")])
        train_cfg = write_cfg(tmp_path / "t.cfg", [
            f"graph = {tmp_path / 'data' / 'synthetic_graph.json'}",
            "candidates = 1, 3, 5, 7", "bands = 10", "aligned_dim = 32", "path_max = 2",
            "degree_budget = 8", "learning_rate = 0.01", "epochs = 2"])
        code = ("import sys, threading\n"
                "from chigad.cli import main\n"
                "code = main(sys.argv[1:])\n"
                "print(threading.active_count())\n"
                "sys.exit(code)\n")
        done = run_python(code, "train", "--config", train_cfg, "--out",
                          str(tmp_path / "run"), timeout=120)
        assert done.stdout.split()[-1] == "1"
