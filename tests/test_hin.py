import copy
import json
import re

import numpy as np
import pytest
import scipy.sparse as sp

from chigad.hin import (GraphFormatError, MetaPath, degenerate_method1,
                        degenerate_method2, enumerate_meta_paths,
                        hetero_graph_from_dict, laplacian, load_hetero_graph,
                        load_hetero_graph_csv, materialize_meta_path_graph,
                        save_hetero_graph)
from chigad.config import SyntheticSpec
from chigad.synthetic import generate_synthetic_hin
from conftest import make_hin, make_one_type_hin
from oracles import dfs_meta_paths, method2_by_relations, walk_pairs


def method2(graph, target):
    """Method 2 of one target type, read off the graph's Method 1."""
    lo = graph.type_offsets()[target]
    return degenerate_method2(degenerate_method1(graph), (lo, lo + graph.node_counts[target]))


def paper_schema_doc():
    """Author/paper style: a compose p, p composed_by a."""
    return {
        "node_types": [
            {"name": "A", "count": 3, "feature_dim": 2,
             "features": [[1, 0], [0, 1], [1, 1]]},
            {"name": "P", "count": 2, "feature_dim": 1, "features": [[2], [3]]},
        ],
        "relations": [
            {"name": "compose", "src": "A", "dst": "P",
             "edges": [[0, 0], [1, 0], [2, 1]]},
            {"name": "composed_by", "src": "P", "dst": "A",
             "edges": [[0, 0], [0, 1], [1, 2]]},
        ],
        "target_type": "A",
        "labels": [0, 1, 0],
        "splits": {"train": [0], "val": [1], "test": [2]},
    }


class TestLoading:
    def test_round_trip(self, tmp_path):
        g = hetero_graph_from_dict(paper_schema_doc())
        path = tmp_path / "g.json"
        save_hetero_graph(g, str(path))
        g2 = load_hetero_graph(str(path))
        assert g2.node_types == g.node_types
        assert np.array_equal(g2.labels, g.labels)
        for r1, r2 in zip(g.relations, g2.relations):
            assert (r1.adjacency != r2.adjacency).nnz == 0
        for t in g.node_types:
            assert np.allclose(g.features[t], g2.features[t])

    def test_save_is_deterministic(self, tmp_path):
        g = make_hin(np.random.default_rng(0))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_hetero_graph(g, str(p1))
        save_hetero_graph(g, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_key(self):
        doc = paper_schema_doc()
        del doc["labels"]
        with pytest.raises(GraphFormatError, match="labels"):
            hetero_graph_from_dict(doc)

    def test_dangling_endpoint(self):
        doc = paper_schema_doc()
        doc["relations"][0]["edges"].append([0, 9])
        with pytest.raises(GraphFormatError, match=re.escape(
                "relation compose: dangling endpoint: edges[3] = [0, 9], "
                "but A has 3 nodes and P has 2")):
            hetero_graph_from_dict(doc)

    def test_mask_overlap(self):
        doc = paper_schema_doc()
        doc["splits"]["val"] = [0, 1]
        with pytest.raises(GraphFormatError, match="overlap"):
            hetero_graph_from_dict(doc)

    def test_masked_node_without_label(self):
        doc = paper_schema_doc()
        doc["labels"][1] = None
        with pytest.raises(GraphFormatError, match="missing target-type labels"):
            hetero_graph_from_dict(doc)

    def test_duplicate_names(self):
        doc = paper_schema_doc()
        doc["node_types"].append(copy.deepcopy(doc["node_types"][0]))
        with pytest.raises(GraphFormatError, match="duplicate node type"):
            hetero_graph_from_dict(doc)
        doc = paper_schema_doc()
        doc["relations"].append(copy.deepcopy(doc["relations"][0]))
        with pytest.raises(GraphFormatError, match="duplicate relation"):
            hetero_graph_from_dict(doc)

    def test_bad_split_id(self):
        doc = paper_schema_doc()
        doc["splits"]["test"] = [7]
        with pytest.raises(GraphFormatError, match="out of range"):
            hetero_graph_from_dict(doc)

    def test_feature_shape_mismatch(self):
        doc = paper_schema_doc()
        doc["node_types"][0]["features"] = [[1, 0], [0, 1]]
        with pytest.raises(GraphFormatError, match="features shape"):
            hetero_graph_from_dict(doc)

    def test_unreadable_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(GraphFormatError):
            load_hetero_graph(str(path))

    def test_unknown_target(self):
        doc = paper_schema_doc()
        doc["target_type"] = "Z"
        with pytest.raises(GraphFormatError, match="target type"):
            hetero_graph_from_dict(doc)


class TestStrictIngestion:
    """Each malformed value fails at load, naming its field, instead of being
    truncated, ignored, or failing later inside training."""

    @pytest.mark.parametrize("edge", [[1.7, 0], [1.0, 0], ["1", 0], [None, 0], [True, 0.5],
                                      [True, 0]])
    def test_non_integer_edge_id(self, edge):
        doc = paper_schema_doc()
        doc["relations"][0]["edges"].append(edge)
        with pytest.raises(GraphFormatError, match="relation compose: edges"):
            hetero_graph_from_dict(doc)

    @pytest.mark.parametrize("ids", [[2.5], [1.0], ["2"], [0, None], [True, 2]])
    def test_non_integer_split_id(self, ids):
        doc = paper_schema_doc()
        doc["splits"]["test"] = ids
        with pytest.raises(GraphFormatError, match="split 'test'"):
            hetero_graph_from_dict(doc)

    @pytest.mark.parametrize("label", [2, -5, -1, 0.5, 1.0, "1", True])
    def test_label_not_binary(self, label):
        doc = paper_schema_doc()
        doc["labels"][2] = label
        with pytest.raises(GraphFormatError, match=r"labels\[2\]"):
            hetero_graph_from_dict(doc)

    @pytest.mark.parametrize("key", ["trian", "Test", "validation"])
    def test_unknown_split_key(self, key):
        doc = paper_schema_doc()
        doc["splits"][key] = doc["splits"].pop("train")
        with pytest.raises(GraphFormatError, match=f"splits: unknown split key '{key}'"):
            hetero_graph_from_dict(doc)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_feature(self, value):
        doc = paper_schema_doc()
        doc["node_types"][1]["features"][1][0] = value
        with pytest.raises(GraphFormatError, match="node type P: features contain NaN or inf"):
            hetero_graph_from_dict(doc)

    @pytest.mark.parametrize("row", [["x", 0], [1, None], [1], [1, [0]], [True, 0]])
    def test_feature_row_not_numbers(self, row):
        doc = paper_schema_doc()
        doc["node_types"][0]["features"][1] = row
        with pytest.raises(GraphFormatError, match="node type A: features"):
            hetero_graph_from_dict(doc)

    @pytest.mark.parametrize("key", ["count", "feature_dim"])
    @pytest.mark.parametrize("value", ["six", 6.7, 3.0, -1, True, None])
    def test_size_not_a_count(self, key, value):
        doc = paper_schema_doc()
        doc["node_types"][0][key] = value
        with pytest.raises(GraphFormatError, match=f"node type A: '{key}'"):
            hetero_graph_from_dict(doc)

    @pytest.mark.parametrize("index", [0, 1])
    def test_zero_count(self, index):
        # a node type needs at least one node, target type or not
        doc = paper_schema_doc()
        doc["node_types"][index].update(count=0, features=[])
        doc["relations"] = []
        if index == 0:
            doc.update(labels=[], splits={})
        name = doc["node_types"][index]["name"]
        with pytest.raises(GraphFormatError,
                           match=f"node type {name}: 'count' must be a positive integer"):
            hetero_graph_from_dict(doc)

    @pytest.mark.parametrize("index", [0, 1])
    def test_zero_feature_dim(self, index):
        # a node type needs at least one feature column, target type or not
        doc = paper_schema_doc()
        spec = doc["node_types"][index]
        spec.update(feature_dim=0, features=[[]] * spec["count"])
        with pytest.raises(GraphFormatError, match=f"node type {spec['name']}: "
                           "'feature_dim' must be a positive integer, got 0"):
            hetero_graph_from_dict(doc)

    @pytest.mark.parametrize("edges", [0, {}, "", False])
    def test_edges_not_a_list(self, edges):
        doc = paper_schema_doc()
        doc["relations"][0]["edges"] = edges
        with pytest.raises(GraphFormatError, match="relation compose: edges: expected a list"):
            hetero_graph_from_dict(doc)

    def test_split_not_a_list(self):
        # a scalar id used to load as a one-node split
        doc = paper_schema_doc()
        doc["splits"]["train"] = 0
        with pytest.raises(GraphFormatError, match="split 'train': expected a list"):
            hetero_graph_from_dict(doc)

    @pytest.mark.parametrize("splits", [["train", "val"], [[0, 1]], "train"])
    def test_splits_not_an_object(self, splits):
        doc = paper_schema_doc()
        doc["splits"] = splits
        with pytest.raises(GraphFormatError, match="splits: expected an object"):
            hetero_graph_from_dict(doc)

    @pytest.mark.parametrize("section, index, key, where", [
        ("node_types", 1, "name", "node_types[1]"),
        ("node_types", 1, "features", "node type P"),
        ("relations", 1, "name", "relations[1]"),
        ("relations", 0, "dst", "relations[0]"),
        ("relations", 1, "edges", "relation composed_by"),
    ], ids=["type-name", "type-features", "relation-name", "relation-dst",
            "relation-edges"])
    def test_missing_spec_field(self, section, index, key, where):
        doc = paper_schema_doc()
        del doc[section][index][key]
        with pytest.raises(GraphFormatError,
                           match=re.escape(f"{where}: missing field '{key}'")):
            hetero_graph_from_dict(doc)

    @pytest.mark.parametrize("name", [["A"], 3, None])
    def test_name_not_a_string(self, name):
        doc = paper_schema_doc()
        doc["relations"][0]["src"] = name
        with pytest.raises(GraphFormatError, match=r"relations\[0\]: 'src' must be a string"):
            hetero_graph_from_dict(doc)

    @pytest.mark.parametrize("labels", [5, None, "0"])
    def test_labels_not_a_list(self, labels):
        doc = paper_schema_doc()
        doc["labels"] = labels
        with pytest.raises(GraphFormatError, match="labels: expected a list"):
            hetero_graph_from_dict(doc)

    @pytest.mark.parametrize("section", ["node_types", "relations"])
    @pytest.mark.parametrize("value", [5, "A", {"name": "A"}])
    def test_section_not_a_list(self, section, value):
        doc = paper_schema_doc()
        doc[section] = value
        with pytest.raises(GraphFormatError, match=f"{section}: expected a list"):
            hetero_graph_from_dict(doc)

    @pytest.mark.parametrize("text", ["5", "null", '"graph"', "[]"])
    def test_top_level_not_an_object(self, tmp_path, text):
        path = tmp_path / "graph.json"
        path.write_text(text)
        with pytest.raises(GraphFormatError, match="graph: expected an object"):
            load_hetero_graph(str(path))

    @pytest.mark.parametrize("target", [["x"], 3, None])
    def test_target_type_not_a_string(self, target):
        doc = paper_schema_doc()
        doc["target_type"] = target
        with pytest.raises(GraphFormatError, match="'target_type' must be a string"):
            hetero_graph_from_dict(doc)

    def test_valid_values_still_load(self):
        doc = paper_schema_doc()
        doc["labels"][1] = None
        doc["splits"] = {"train": [0], "test": [2]}
        g = hetero_graph_from_dict(doc)
        assert g.labels.tolist() == [0, -1, 0]
        assert not g.split_masks["val"].any()


class TestCsvLoading:
    def test_matches_json_variant(self, tmp_path):
        doc = paper_schema_doc()
        g_json = hetero_graph_from_dict(doc)
        meta = {"node_types": ["A", "P"],
                "relations": [{"name": r["name"], "src": r["src"], "dst": r["dst"]}
                              for r in doc["relations"]],
                "target_type": "A"}
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        (tmp_path / "nodes_A.csv").write_text(
            "f0,f1,label\n1,0,0\n0,1,1\n1,1,0\n")
        (tmp_path / "nodes_P.csv").write_text("f0\n2\n3\n")
        for r in doc["relations"]:
            lines = ["u,v"] + [f"{u},{v}" for u, v in r["edges"]]
            (tmp_path / f"edges_{r['name']}.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / "splits.csv").write_text("id,split\n0,train\n1,val\n2,test\n")
        g_csv = load_hetero_graph_csv(str(tmp_path))
        assert g_csv.node_types == g_json.node_types
        assert np.array_equal(g_csv.labels, g_json.labels)
        for r1, r2 in zip(g_csv.relations, g_json.relations):
            assert (r1.adjacency != r2.adjacency).nnz == 0
        for t in g_json.node_types:
            assert np.allclose(g_csv.features[t], g_json.features[t])

    @staticmethod
    def write_one_type(directory, **replace):
        files = {
            "meta.json": json.dumps({"node_types": ["A"], "relations": [
                {"name": "aa", "src": "A", "dst": "A"}], "target_type": "A"}),
            "nodes_A.csv": "f0,label\n1,0\n2,\n3,1\n",
            "edges_aa.csv": "u,v\n0,1\n",
            "splits.csv": "id,split\n0,train\n2,val\n",
        }
        for name, text in {**files, **replace}.items():
            (directory / name).write_text(text)
        return str(directory)

    def test_unlabeled_cell(self, tmp_path):
        g = load_hetero_graph_csv(self.write_one_type(tmp_path))
        assert g.labels.tolist() == [0, -1, 1]

    @pytest.mark.parametrize("name, text, where", [
        ("nodes_A.csv", "f0,label\n1,0\nx,\n3,1\n", "nodes_A.csv: row 3: feature"),
        ("nodes_A.csv", "f0,label\n1,0\n2,yes\n3,1\n", "nodes_A.csv: row 3: label"),
        ("edges_aa.csv", "u,v\n0,1\none,2\n", "edges_aa.csv: row 3: edge"),
        ("splits.csv", "id,split\nz,train\n", "splits.csv: row 2: id"),
        ("meta.json", json.dumps({"node_types": ["A"], "relations": [
            {"name": "aa", "src": "A"}], "target_type": "A"}),
         "meta.json: relations[0]: missing field 'dst'"),
        ("splits.csv", "id,split\n0\n", "splits.csv: row 2: split: missing cell"),
        ("splits.csv", "id,split\n0,train\n\n2,val\n", "splits.csv: row 3: id: missing cell"),
        ("nodes_A.csv", "f0,label\n1,0\n\n3,1\n", "nodes_A.csv: row 3: feature: missing cell"),
        ("nodes_A.csv", "f0,label\n1,0\n2\n3,1\n", "nodes_A.csv: row 3: label: missing cell"),
        ("edges_aa.csv", "u,v\n0\n", "edges_aa.csv: row 2: edge: missing cell"),
        ("splits.csv", "id,split\n0,tran\n", "splits.csv: row 2: split: unknown split name"),
        ("meta.json", json.dumps({"node_types": "A", "relations": [],
                                  "target_type": "A"}),
         "meta.json: node_types: expected a list"),
        ("edges_aa.csv", "", "edges_aa.csv: empty file"),
        ("nodes_A.csv", "f0,label\n", "nodes_A.csv: no node rows"),
        ("nodes_A.csv", "f0\n1\n2\n3\n",
         "nodes_A.csv: target-type node file must carry a label column"),
        ("nodes_A.csv", "label,f0\n0,1\n,2\n1,3\n", "nodes_A.csv: 'label' at column 1 of 2"),
        # the first label column would load as a feature column
        ("nodes_A.csv", "f0,label,label\n1,0,0\n2,1,1\n3,1,1\n",
         "nodes_A.csv: 'label' at column 2 of 3"),
        # a cell beyond the file's fields would be dropped
        ("nodes_A.csv", "f0,label\n1.0,0,4.0\n2,\n3,1\n", "nodes_A.csv: row 2: 3 cells"),
        ("edges_aa.csv", "u,v\n0,1\n1,1,9\n", "edges_aa.csv: row 3: 3 cells"),
        ("splits.csv", "id,split\n0,train\n1,val,extra\n", "splits.csv: row 3: 3 cells"),
    ], ids=["feature", "label", "edge", "split-id", "relation-dst", "split-cell",
            "splits-blank-line", "nodes-blank-line", "label-cell", "edge-cell",
            "split-name", "meta-node-types", "empty-file", "no-node-rows",
            "no-label-column", "label-first", "label-twice", "node-extra-cell",
            "edge-extra-cell", "split-extra-cell"])
    def test_malformed_cell_names_file_and_field(self, tmp_path, name, text, where):
        directory = self.write_one_type(tmp_path, **{name: text})
        with pytest.raises(GraphFormatError, match=re.escape(where)):
            load_hetero_graph_csv(directory)

    @pytest.mark.parametrize("name, text, where", [
        ("edges_aa.csv", "v,u\n1,0\n", "edges_aa.csv: header 'v,u', expected 'u,v'"),
        ("edges_aa.csv", "dst,src\n1,0\n", "edges_aa.csv: header 'dst,src', expected 'u,v'"),
        ("splits.csv", "split,id\ntrain,0\n",
         "splits.csv: header 'split,id', expected 'id,split'"),
    ], ids=["edges-swapped", "edges-renamed", "splits-swapped"])
    def test_header_names_file_found_and_expected(self, tmp_path, name, text, where):
        # the columns are read by position: another header would load the
        # columns swapped or fail far from its cause
        directory = self.write_one_type(tmp_path, **{name: text})
        with pytest.raises(GraphFormatError, match=re.escape(where)):
            load_hetero_graph_csv(directory)

    def test_label_column_on_non_target_type(self, tmp_path):
        # it would load as a feature column of width 1 and lose the values
        directory = self.write_one_type(tmp_path, **{
            "meta.json": json.dumps({"node_types": ["A", "b"], "relations": [
                {"name": "aa", "src": "A", "dst": "A"}], "target_type": "A"}),
            "nodes_b.csv": "x,label\n5.0,7.5\n6.0,8.5\n"})
        with pytest.raises(GraphFormatError,
                           match=r"nodes_b\.csv: label column .*only on the target type"):
            load_hetero_graph_csv(directory)

    @pytest.mark.parametrize("target", [True, False])
    def test_zero_feature_columns(self, tmp_path, target):
        # a node type needs at least one feature column, target type or not
        name = "nodes_A.csv" if target else "nodes_B.csv"
        replace = {"nodes_A.csv": "label\n0\n\n1\n"} if target else {
            "meta.json": json.dumps({"node_types": ["A", "B"], "relations": [
                {"name": "aa", "src": "A", "dst": "A"}], "target_type": "A"}),
            "nodes_B.csv": "\n\n\n"}
        directory = self.write_one_type(tmp_path, **replace)
        with pytest.raises(GraphFormatError, match=re.escape(f"{name}: no feature column")):
            load_hetero_graph_csv(directory)


class TestEnumeration:
    def test_two_relation_schema(self):
        g = hetero_graph_from_dict(paper_schema_doc())
        paths = enumerate_meta_paths(g, "A", 2, 2)
        assert len(paths) == 1
        assert paths[0].relation_sequence == ("compose", "composed_by")
        assert paths[0].node_type_sequence == ("A", "P", "A")

    def test_with_citation_relation(self):
        doc = paper_schema_doc()
        doc["relations"].append(
            {"name": "cite", "src": "P", "dst": "P", "edges": [[0, 1]]})
        g = hetero_graph_from_dict(doc)
        paths = enumerate_meta_paths(g, "A", 2, 3)
        seqs = [p.relation_sequence for p in paths]
        assert seqs == [("compose", "cite", "composed_by"),
                        ("compose", "composed_by")]

    def test_matches_dfs_oracle(self):
        rng = np.random.default_rng(17)
        for trial in range(25):
            n_types = int(rng.integers(2, 6))
            names = [f"t{k}" for k in range(n_types)]
            rels = []
            for r in range(int(rng.integers(1, 7))):
                rels.append((f"r{r}", names[rng.integers(n_types)],
                             names[rng.integers(n_types)]))
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
            want = dfs_meta_paths(rels, names[0], lo, hi)
            assert got == want, f"trial {trial}"

    def test_bad_arguments(self, tiny_hin):
        with pytest.raises(ValueError):
            enumerate_meta_paths(tiny_hin, "zz", 1, 2)
        with pytest.raises(ValueError):
            enumerate_meta_paths(tiny_hin, "a", 3, 2)


class TestMaterialization:
    def test_clear_diagonal_and_symmetry(self):
        g = hetero_graph_from_dict(paper_schema_doc())
        path = enumerate_meta_paths(g, "A", 2, 2)[0]
        mg = materialize_meta_path_graph(g, path)
        adj = mg.adjacency.toarray()
        assert np.all(np.diag(adj) == 0)
        assert np.array_equal(adj, adj.T)
        assert set(np.unique(adj)) <= {0.0, 1.0}
        # authors 0 and 1 share paper 0; author 2 is alone on paper 1
        assert adj[0, 1] == 1 and adj[1, 0] == 1
        assert adj[0, 2] == 0 and adj[2, 2] == 0

    def test_matches_walk_oracle(self):
        rng = np.random.default_rng(23)
        for trial in range(15):
            g = make_hin(rng, sizes=(int(rng.integers(4, 10)),
                                     int(rng.integers(3, 8)),
                                     int(rng.integers(3, 8))),
                         extra_relation=True)
            for path in enumerate_meta_paths(g, "a", 2, 3):
                mg = materialize_meta_path_graph(g, path)
                blocks = []
                by_name = {r.name: r for r in g.relations}
                for rel_name in path.relation_sequence:
                    blocks.append(by_name[rel_name].adjacency.toarray())
                pairs = walk_pairs(blocks, g.node_counts, path.node_type_sequence)
                expected = np.zeros((g.node_counts["a"],) * 2)
                for u, v in pairs:
                    if u != v:
                        expected[u, v] = 1.0
                expected = np.maximum(expected, expected.T)
                assert np.array_equal(mg.adjacency.toarray(), expected), \
                    f"trial {trial} path {path}"

    def test_unknown_relation(self, tiny_hin):
        bogus = MetaPath(("a", "b", "a"), ("nope", "ba"))
        with pytest.raises(ValueError, match="unknown relation"):
            materialize_meta_path_graph(tiny_hin, bogus)

    def test_schema_mismatch(self, tiny_hin):
        bogus = MetaPath(("a", "c", "a"), ("ab", "ca"))
        with pytest.raises(ValueError, match="does not fit"):
            materialize_meta_path_graph(tiny_hin, bogus)


class TestDegeneration:
    def test_method1_union(self):
        g = hetero_graph_from_dict(paper_schema_doc())
        adj = degenerate_method1(g).toarray()
        assert adj.shape == (5, 5)
        assert np.array_equal(adj, adj.T)
        # offsets: A -> 0..2, P -> 3..4; compose(0,0) lands at (0, 3)
        assert adj[0, 3] == 1 and adj[3, 0] == 1
        assert adj[2, 4] == 1

    def test_method2_common_neighbor(self):
        g = hetero_graph_from_dict(paper_schema_doc())
        adj = method2(g, "A").toarray()
        assert adj.shape == (3, 3)
        # authors 0,1 share paper 0; author 2 touches only paper 1
        assert adj[0, 1] == 1 and adj[1, 0] == 1
        assert adj[0, 2] == 0 and adj[1, 2] == 0
        assert np.all(np.diag(adj) == 0)

    def test_method2_direct_relation(self):
        doc = paper_schema_doc()
        doc["relations"].append(
            {"name": "coauthor", "src": "A", "dst": "A", "edges": [[1, 2]]})
        g = hetero_graph_from_dict(doc)
        adj = method2(g, "A").toarray()
        assert adj[1, 2] == 1 and adj[2, 1] == 1

    def test_method2_unknown_type(self, tiny_hin):
        # target rows that name no nodes of the adjacency, as an absent type would
        adj = degenerate_method1(tiny_hin)
        n = adj.shape[0]
        for rows in ((n, n + 2), (0, n + 1), (2, 2), (-1, 1)):
            with pytest.raises(ValueError, match="do not lie within"):
                degenerate_method2(adj, rows)


def edge_case_doc():
    """Target A with a self-loop and one-way A -> A edges, two relations
    between A and P, an A -> Q relation with no reverse, and a P -> Q
    relation between two context types."""
    return {
        "node_types": [
            {"name": "A", "count": 5, "feature_dim": 1, "features": [[0]] * 5},
            {"name": "P", "count": 3, "feature_dim": 1, "features": [[0]] * 3},
            {"name": "Q", "count": 2, "feature_dim": 1, "features": [[0]] * 2},
        ],
        "relations": [
            {"name": "aa", "src": "A", "dst": "A", "edges": [[0, 0], [1, 2], [3, 2]]},
            {"name": "ap", "src": "A", "dst": "P", "edges": [[0, 0], [1, 0], [3, 1]]},
            {"name": "pa", "src": "P", "dst": "A", "edges": [[1, 2], [2, 4]]},
            {"name": "aq", "src": "A", "dst": "Q", "edges": [[2, 0], [4, 0]]},
            {"name": "pq", "src": "P", "dst": "Q", "edges": [[0, 0], [1, 1]]},
        ],
        "target_type": "A",
        "labels": [0, 1, 0, 0, 1],
        "splits": {"train": [0, 1], "val": [2], "test": [3, 4]},
    }


class TestMethod2Reference:
    """Method 2 read off Method 1 equals the relation-walking reference bit
    for bit: the same indptr, indices and data."""

    @staticmethod
    def assert_same(graph, target):
        got, want = method2(graph, target), method2_by_relations(graph, target)
        assert got.shape == want.shape
        for key in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, key), getattr(want, key)), key

    @pytest.mark.parametrize("seed", range(5))
    def test_synthetic_every_target(self, seed):
        g = generate_synthetic_hin(SyntheticSpec(), seed)
        for target in g.node_types:
            self.assert_same(g, target)

    @pytest.mark.parametrize("extra_relation", [False, True])
    def test_make_hin(self, extra_relation):
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = make_hin(rng, sizes=tuple(int(k) for k in rng.integers(4, 10, size=3)),
                         extra_relation=extra_relation)
            for target in g.node_types:
                self.assert_same(g, target)

    def test_one_type(self):
        rng = np.random.default_rng(12)
        for n in (4, 9, 16):
            self.assert_same(make_one_type_hin(rng, n=n), "n")

    def test_edge_cases(self):
        g = hetero_graph_from_dict(edge_case_doc())
        for target in g.node_types:
            self.assert_same(g, target)
        adj = method2(g, "A").toarray()
        # the one-way 1 -> 2 and 3 -> 2 edges, P0 shared by 0 and 1 (ap), P1
        # by 3 (ap) and 2 (pa), Q0 by 2 and 4 (aq, no reverse); no self-loop,
        # and no 1 - 3 edge: the walk 1 - 2 - 3 runs through the target type
        want = {(1, 2), (0, 1), (2, 3), (2, 4)}
        assert {(int(u), int(v)) for u, v in zip(*np.nonzero(np.triu(adj)))} == want
        assert np.array_equal(adj, adj.T)


class TestLaplacian:
    def test_normalized_spectrum_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(4, 20))
            a = np.triu(rng.integers(0, 2, size=(n, n)), 1)
            L = laplacian(sp.csr_matrix(a + a.T)).toarray()
            eigs = np.linalg.eigvalsh(L)
            assert eigs.min() >= -1e-10
            assert eigs.max() <= 2 + 1e-10

    def test_zero_degree_identity_row(self):
        adj = sp.csr_matrix(np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], float))
        L = laplacian(adj).toarray()
        assert np.array_equal(L[0], [1, 0, 0])

    def test_rejects_asymmetric(self):
        adj = sp.csr_matrix(np.array([[0, 1], [0, 0]], float))
        with pytest.raises(ValueError, match="symmetric"):
            laplacian(adj)

    def test_rejects_negative(self):
        adj = sp.csr_matrix(np.array([[0, -1], [-1, 0]], float))
        with pytest.raises(ValueError, match="nonnegative"):
            laplacian(adj)
