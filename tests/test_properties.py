"""Property tests for the two input formats: graph documents and checkpoint
headers.  Every run draws the same examples (derandomized, no example
database), so the suite stays deterministic."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chigad.hin import (GraphFormatError, hetero_graph_from_dict,
                        hetero_graph_to_dict)
from chigad.model import build_model, checkpoint_plan, load_checkpoint, save_checkpoint
from test_model import small_model

PROPERTY = settings(derandomize=True, database=None, deadline=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


@st.composite
def graph_docs(draw):
    """A valid graph document: 1-3 node types, random relations between
    them, labels and disjoint splits on the target type."""
    names = [f"t{k}" for k in range(draw(st.integers(1, 3)))]
    finite = st.floats(allow_nan=False, allow_infinity=False)
    node_types = []
    for name in names:
        n, d = draw(st.integers(1, 5)), draw(st.integers(1, 3))
        rows = st.lists(finite, min_size=d, max_size=d)
        node_types.append({"name": name, "count": n, "feature_dim": d,
                           "features": draw(st.lists(rows, min_size=n, max_size=n))})
    count = {t["name"]: t["count"] for t in node_types}
    relations = []
    for k in range(draw(st.integers(0, 3))):
        src, dst = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        edge = st.tuples(st.integers(0, count[src] - 1), st.integers(0, count[dst] - 1))
        relations.append({"name": f"r{k}", "src": src, "dst": dst,
                          "edges": [list(e) for e in draw(st.lists(edge, max_size=8))]})
    target = draw(st.sampled_from(names))
    labels = draw(st.lists(st.sampled_from([0, 1, None]),
                           min_size=count[target], max_size=count[target]))
    splits = {"train": [], "val": [], "test": []}
    for node, label in enumerate(labels):
        split = draw(st.sampled_from([None, "train", "val", "test"]))
        if label is not None and split is not None:
            splits[split].append(node)
    return {"node_types": node_types, "relations": relations,
            "target_type": target, "labels": labels, "splits": splits}


def field_paths(node, prefix=()):
    """The path of every value in a JSON document, the root included."""
    yield prefix
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from field_paths(value, prefix + (key,))


def mutate(data, doc):
    """doc with one field, drawn from data, deleted or replaced by any JSON value."""
    doc = json.loads(json.dumps(doc))
    path = data.draw(st.sampled_from(list(field_paths(doc))))
    value = data.draw(json_values)
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


class TestGraphDocument:
    @PROPERTY
    @given(graph_docs())
    def test_round_trip(self, doc):
        g = hetero_graph_from_dict(doc)
        saved = hetero_graph_to_dict(g)
        again = hetero_graph_from_dict(json.loads(json.dumps(saved)))
        assert hetero_graph_to_dict(again) == saved
        assert saved["node_types"] == doc["node_types"]
        assert saved["labels"] == doc["labels"]
        assert saved["splits"] == doc["splits"]
        for got, want in zip(saved["relations"], doc["relations"]):
            assert sorted(map(tuple, got["edges"])) == sorted(set(map(tuple, want["edges"])))
        for t in g.node_types:
            assert np.array_equal(again.features[t], g.features[t])

    @settings(PROPERTY, max_examples=300)
    @given(graph_docs(), st.data())
    def test_one_mutated_field_loads_or_is_named(self, doc, data):
        try:
            hetero_graph_from_dict(mutate(data, doc))
        except GraphFormatError:
            pass


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    """A small model's graph, config and checkpoint: (header, parameter bytes)."""
    g, cfg, model = small_model()
    path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    save_checkpoint(model, str(path))
    header, blob = path.read_bytes().split(b"\n", 1)
    return g, cfg, path, json.loads(header), blob


class TestCheckpointHeader:
    @settings(PROPERTY, max_examples=150)
    @given(st.data())
    def test_one_mutated_field_loads_or_is_refused(self, saved_model, data):
        g, cfg, path, header, blob = saved_model
        path.write_bytes(json.dumps(mutate(data, header)).encode() + b"\n" + blob)
        try:
            rebuilt = build_model(g, cfg, plan=checkpoint_plan(str(path)))
            load_checkpoint(rebuilt, str(path))
        except ValueError:
            pass
