import importlib.util
from pathlib import Path

import numpy as np
import pytest

from chigad.config import RunConfig
from chigad.hin import hetero_graph_from_dict


def _load_demo(name: str):
    path = Path(__file__).resolve().parent.parent / "demos" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"demos_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the ablation baseline's filter swap, written once in the demo that shows it
lowpass_ablation = _load_demo("train_eval").lowpass_ablation


def make_hin(rng, sizes=(6, 3, 3), dims=(4, 3, 2), extra_relation=False,
             anomalies=(0, 3)):
    """Small random heterogeneous graph with labels and splits on type a."""
    names = ["a", "b", "c"][: len(sizes)]
    doc = {"node_types": [], "relations": [], "target_type": "a"}
    for name, n, d in zip(names, sizes, dims):
        doc["node_types"].append({
            "name": name, "count": n, "feature_dim": d,
            "features": rng.normal(size=(n, d)).tolist()})

    def bipartite(src, dst, n_src, n_dst, per_node=2):
        edges = set()
        for u in range(n_src):
            for v in rng.choice(n_dst, size=min(per_node, n_dst), replace=False):
                edges.add((u, int(v)))
        return sorted(edges)

    ab = bipartite("a", "b", sizes[0], sizes[1])
    ac = bipartite("a", "c", sizes[0], sizes[2])
    doc["relations"] = [
        {"name": "ab", "src": "a", "dst": "b", "edges": [list(e) for e in ab]},
        {"name": "ba", "src": "b", "dst": "a", "edges": [[v, u] for u, v in ab]},
        {"name": "ac", "src": "a", "dst": "c", "edges": [list(e) for e in ac]},
        {"name": "ca", "src": "c", "dst": "a", "edges": [[v, u] for u, v in ac]},
    ]
    if extra_relation:
        bc = bipartite("b", "c", sizes[1], sizes[2], per_node=1)
        doc["relations"].append(
            {"name": "bc", "src": "b", "dst": "c", "edges": [list(e) for e in bc]})

    n0 = sizes[0]
    labels = [0] * n0
    for k in anomalies:
        labels[k] = 1
    doc["labels"] = labels
    ids = list(range(n0))
    third = max(1, n0 // 3)
    doc["splits"] = {"train": ids[:third], "val": ids[third:2 * third],
                     "test": ids[2 * third:]}
    return hetero_graph_from_dict(doc)


@pytest.fixture
def tiny_hin():
    return make_hin(np.random.default_rng(42))


@pytest.fixture
def small_cfg():
    return RunConfig(candidates=(1, 2, 3), bands=3, aligned_dim=5,
                     epochs=5, learning_rate=0.01, mlp_layers=2, seed=0)


def make_one_type_hin(rng, n=12, dim=3, anomalies=(0, 5, 9)):
    """The homogeneous case: one node type n and one relation e: n -> n (a
    ring plus random chords, both directions stored), labels and three equal
    splits on n."""
    edges = {(u, (u + 1) % n) for u in range(n)}
    for _ in range(n):
        u, v = rng.choice(n, size=2, replace=False)
        edges.add((int(u), int(v)))
    edges |= {(v, u) for u, v in edges}
    labels = [1 if k in anomalies else 0 for k in range(n)]
    ids, third = list(range(n)), n // 3
    return hetero_graph_from_dict({
        "node_types": [{"name": "n", "count": n, "feature_dim": dim,
                        "features": rng.normal(size=(n, dim)).tolist()}],
        "relations": [{"name": "e", "src": "n", "dst": "n",
                       "edges": [list(e) for e in sorted(edges)]}],
        "target_type": "n",
        "labels": labels,
        "splits": {"train": ids[:third], "val": ids[third:2 * third],
                   "test": ids[2 * third:]},
    })
