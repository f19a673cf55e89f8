"""Heterogeneous graph data model: typed nodes, typed relations, meta-paths.

A heterogeneous graph carries several node types (each with its own dense
feature matrix, dimensions may differ across types) and a list of directed,
typed relations stored as sparse 0/1 blocks.  Anomaly labels and train/val/test
masks live on one designated target type.

Meta-paths are closed walks on the schema (same start and end type); each one
materializes to a homogeneous graph over the anchor type by chaining the
relation blocks.  Two degeneration methods flatten the whole graph to a single
homogeneous adjacency: Method 1 over all nodes, an edge wherever a relation
links two nodes in either direction, and Method 2 over the target nodes T,
read off Method 1's A as A[T, T] + A[T, N] A[T, N]^T (N every other node),
binarized, without self-loops.

Every graph operator downstream is the normalized Laplacian of such an
adjacency: `laplacian(adj)` returns it as a plain canonical CSR matrix, whose
spectrum lies in [0, 2], the interval the Chi-Square filters are fitted on.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from itertools import chain

import numpy as np
import scipy.sparse as sp


class GraphFormatError(ValueError):
    """Raised when an input graph file violates the documented format."""


LABEL_BENIGN = 0
LABEL_ANOMALY = 1
LABEL_UNKNOWN = -1

SPLITS = ("train", "val", "test")


@dataclass
class Relation:
    name: str
    src: str
    dst: str
    adjacency: sp.csr_matrix  # |V_src| x |V_dst|, 0/1


@dataclass
class HeteroGraph:
    node_types: list[str]
    node_counts: dict[str, int]
    features: dict[str, np.ndarray]  # per type, |V_o| x d_o
    relations: list[Relation]
    target_type: str
    labels: np.ndarray  # per target node: 0 benign, 1 anomaly, -1 unlabeled
    split_masks: dict[str, np.ndarray]  # train/val/test boolean masks

    def feature_dim(self, node_type: str) -> int:
        return self.features[node_type].shape[1]

    def num_nodes(self) -> int:
        return sum(self.node_counts.values())

    def type_offsets(self) -> dict[str, int]:
        """Global row offset of each type in node_types order (Method-1 order)."""
        offsets, acc = {}, 0
        for t in self.node_types:
            offsets[t] = acc
            acc += self.node_counts[t]
        return offsets

    def validate(self) -> None:
        for rel in self.relations:
            nr, nc = rel.adjacency.shape
            if nr != self.node_counts[rel.src] or nc != self.node_counts[rel.dst]:
                raise GraphFormatError(
                    f"relation {rel.name}: adjacency shape {rel.adjacency.shape} does not "
                    f"match ({self.node_counts[rel.src]}, {self.node_counts[rel.dst]})")
        n_t = self.node_counts[self.target_type]
        if self.labels.shape != (n_t,):
            raise GraphFormatError("labels length does not match target node count")
        seen = np.zeros(n_t, dtype=bool)
        for name, mask in self.split_masks.items():
            if mask.shape != (n_t,):
                raise GraphFormatError(f"split mask {name} has wrong length")
            if np.any(seen & mask):
                raise GraphFormatError("mask overlap: train/val/test masks must be disjoint")
            seen |= mask
            if np.any(self.labels[mask] == LABEL_UNKNOWN):
                raise GraphFormatError(f"missing target-type labels inside split '{name}'")


@dataclass(frozen=True)
class MetaPath:
    node_type_sequence: tuple[str, ...]  # o_1 .. o_{l+1}, with o_1 == o_{l+1}
    relation_sequence: tuple[str, ...]   # r_1 .. r_l

    def __str__(self) -> str:
        parts = [self.node_type_sequence[0]]
        for r, o in zip(self.relation_sequence, self.node_type_sequence[1:]):
            parts.append(f"-{r}-{o}")
        return "".join(parts)


@dataclass
class MetaPathGraph:
    adjacency: sp.csr_matrix  # |V_o| x |V_o|, symmetric 0/1, zero diagonal

    @property
    def num_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def is_empty(self) -> bool:
        return self.adjacency.nnz == 0


def _canonical(m: sp.spmatrix) -> sp.csr_matrix:
    """CSR with summed duplicates and sorted indices, for reproducible layouts."""
    m = sp.csr_matrix(m)
    m.sum_duplicates()
    m.sort_indices()
    return m


def _binarize(m: sp.spmatrix) -> sp.csr_matrix:
    m = _canonical(m)
    m.data = np.ones_like(m.data, dtype=np.float64)
    m.eliminate_zeros()
    return m


def _symmetrize_union(m: sp.csr_matrix) -> sp.csr_matrix:
    return _binarize(m + m.T)


def _clear_diagonal(m: sp.csr_matrix) -> sp.csr_matrix:
    # keeps no explicit zero on the diagonal, which _binarize would turn into 1
    return _canonical(sp.triu(m, 1) + sp.tril(m, -1))


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def load_hetero_graph(path: str) -> HeteroGraph:
    """Load a heterogeneous graph from the documented JSON format.

    Node ordering is file order; all indices are 0-based per-type local ids.
    Raises GraphFormatError on malformed input, dangling edge endpoints,
    overlapping split masks, or masked nodes without labels, and names the
    field for a top level that is not an object, a missing spec field,
    node_types, relations, labels, a relation's edges or a split that are not
    a list, a name or target_type that is not a string, a count or a
    feature_dim that is not a positive integer (a node type needs at least
    one node and one feature column), a feature that is not a finite number
    or a ragged feature row, a non-integer edge or split id (a JSON true or
    false is neither a number nor an id), a label other than 0, 1 or null,
    splits that are not an object, or a split key other than train/val/test.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise GraphFormatError(f"cannot read graph file {path}: {exc}") from exc
    return hetero_graph_from_dict(doc)


def _typed_array(values, what: str, kinds: str, expected: str) -> np.ndarray:
    """values as an array of one of the numpy dtype kinds, else an error."""
    try:
        arr = np.asarray(values)
    except ValueError as exc:   # ragged nesting
        raise GraphFormatError(f"{what}: ragged nesting, expected {expected}") from exc
    if arr.size and arr.dtype.kind not in kinds:
        raise GraphFormatError(f"{what}: expected {expected}")
    # numpy reads true or false among numbers as 1 or 0; a set of types checks at C speed
    if arr.ndim in (1, 2) and bool in set(map(
            type, chain.from_iterable(values) if arr.ndim == 2 else values)):
        raise GraphFormatError(f"{what}: true or false among the values, expected {expected}")
    return arr


def _id_array(values, what: str) -> np.ndarray:
    """Node ids as an int64 array; any value that is not an integer is an error."""
    return _typed_array(values, what, "iu", "integer node ids").astype(np.int64)


def _field(spec, key: str, what: str):
    if not isinstance(spec, dict) or key not in spec:
        raise GraphFormatError(f"{what}: missing field '{key}'")
    return spec[key]


def _list(value, what: str, expected: str) -> list:
    if not isinstance(value, list):
        raise GraphFormatError(
            f"{what}: expected a list of {expected}, got {type(value).__name__}")
    return value


def _name(spec, key: str, what: str) -> str:
    value = _field(spec, key, what)
    if not isinstance(value, str):
        raise GraphFormatError(f"{what}: '{key}' must be a string, got {value!r}")
    return value


def _size(spec, key: str, what: str) -> int:
    value = _field(spec, key, what)
    if type(value) is not int or value < 1:
        raise GraphFormatError(f"{what}: '{key}' must be a positive integer, got {value!r}")
    return value


def hetero_graph_from_dict(doc: dict) -> HeteroGraph:
    if not isinstance(doc, dict):
        raise GraphFormatError(
            f"graph: expected an object at the top level, got {type(doc).__name__}")
    for key in ("node_types", "relations", "target_type", "labels", "splits"):
        if key not in doc:
            raise GraphFormatError(f"missing top-level key '{key}'")

    node_types, node_counts, features = [], {}, {}
    for k, spec in enumerate(_list(doc["node_types"], "node_types", "node type objects")):
        name = _name(spec, "name", f"node_types[{k}]")
        if name in node_counts:
            raise GraphFormatError(f"duplicate node type '{name}'")
        what = f"node type {name}"
        count, dim = _size(spec, "count", what), _size(spec, "feature_dim", what)
        feats = _typed_array(_field(spec, "features", what), f"{what}: features",
                             "iuf", "rows of numbers").astype(np.float64)
        if feats.shape != (count, dim):
            raise GraphFormatError(
                f"node type {name}: features shape {feats.shape} != ({count}, {dim})")
        if not np.isfinite(feats).all():
            raise GraphFormatError(f"node type {name}: features contain NaN or inf")
        node_types.append(name)
        node_counts[name] = count
        features[name] = feats

    relations = []
    rel_names = set()
    for k, spec in enumerate(_list(doc["relations"], "relations", "relation objects")):
        name, src, dst = (_name(spec, key, f"relations[{k}]")
                          for key in ("name", "src", "dst"))
        if name in rel_names:
            raise GraphFormatError(f"duplicate relation '{name}'")
        rel_names.add(name)
        if src not in node_counts or dst not in node_counts:
            raise GraphFormatError(f"relation {name}: unknown endpoint type")
        edges = _list(_field(spec, "edges", f"relation {name}"),
                      f"relation {name}: edges", "[u, v] pairs")
        n_src, n_dst = node_counts[src], node_counts[dst]
        if edges:
            arr = _id_array(edges, f"relation {name}: edges")
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise GraphFormatError(f"relation {name}: edges must be [u, v] pairs")
            u, v = arr[:, 0], arr[:, 1]
            dangling = (u < 0) | (u >= n_src) | (v < 0) | (v >= n_dst)
            if dangling.any():
                k = int(np.argmax(dangling))
                raise GraphFormatError(
                    f"relation {name}: dangling endpoint: edges[{k}] = [{u[k]}, {v[k]}], "
                    f"but {src} has {n_src} nodes and {dst} has {n_dst}")
            adj = sp.csr_matrix((np.ones(len(arr)), (u, v)), shape=(n_src, n_dst))
        else:
            adj = sp.csr_matrix((n_src, n_dst))
        relations.append(Relation(name, src, dst, _binarize(adj)))

    target = _name(doc, "target_type", "graph")
    if target not in node_counts:
        raise GraphFormatError(f"target type '{target}' not among node types")
    for k, v in enumerate(_list(doc["labels"], "labels", "0, 1 or null")):
        if not (v is None or (type(v) is int and v in (LABEL_BENIGN, LABEL_ANOMALY))):
            raise GraphFormatError(f"labels[{k}]: {v!r} is not 0, 1 or null")
    labels = np.asarray(
        [LABEL_UNKNOWN if v is None else v for v in doc["labels"]], dtype=np.int64)

    if not isinstance(doc["splits"], dict):
        raise GraphFormatError("splits: expected an object mapping train, val and "
                               "test to lists of node ids")
    unknown = sorted(set(doc["splits"]) - set(SPLITS))
    if unknown:
        raise GraphFormatError(
            f"splits: unknown split key '{unknown[0]}' (expected one of {list(SPLITS)})")
    n_t = node_counts[target]
    masks = {}
    for split in SPLITS:
        what = f"split '{split}'"
        ids = _id_array(_list(doc["splits"].get(split, []), what, "node ids"), what)
        mask = np.zeros(n_t, dtype=bool)
        if ids.size:
            if ids.min() < 0 or ids.max() >= n_t:
                raise GraphFormatError(f"split '{split}': node id out of range")
            mask[ids] = True
        masks[split] = mask

    graph = HeteroGraph(node_types, node_counts, features, relations, target, labels, masks)
    graph.validate()
    return graph


def hetero_graph_to_dict(graph: HeteroGraph) -> dict:
    return {
        "node_types": [
            {
                "name": t,
                "count": graph.node_counts[t],
                "feature_dim": graph.feature_dim(t),
                "features": graph.features[t].tolist(),
            }
            for t in graph.node_types
        ],
        "relations": [
            {
                "name": r.name,
                "src": r.src,
                "dst": r.dst,
                "edges": np.column_stack(r.adjacency.nonzero()).tolist(),
            }
            for r in graph.relations
        ],
        "target_type": graph.target_type,
        "labels": [None if v == LABEL_UNKNOWN else int(v) for v in graph.labels],
        "splits": {
            name: np.nonzero(mask)[0].tolist() for name, mask in graph.split_masks.items()
        },
    }


def save_hetero_graph(graph: HeteroGraph, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(hetero_graph_to_dict(graph), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_hetero_graph_csv(directory: str) -> HeteroGraph:
    """CSV ingestion variant mapping onto the same model as the JSON format.

    Layout: meta.json (node_types order, relations with src/dst, target_type),
    nodes_<type>.csv (feature columns; label column on the target type, empty
    cell = unlabeled), edges_<relation>.csv (header u,v), splits.csv (header
    id,split); an edge or split file with another header is refused.
    A cell that does not parse as a number (feature) or an integer (label,
    edge endpoint, split id), a row that is short of a cell or blank, an
    unknown split name, and a meta.json entry missing a field raise a
    GraphFormatError naming the file and the field; a row with more cells than
    the file's fields names the file and the row; a node file with no node
    rows or no feature column, a target-type node file without exactly one
    label column, the last, and a label column on any other type name the
    file.
    """
    meta_path = os.path.join(directory, "meta.json")
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise GraphFormatError(f"cannot read {meta_path}: {exc}") from exc

    target = _field(meta, "target_type", meta_path)
    doc: dict = {"node_types": [], "relations": [], "target_type": target}
    labels = []
    for name in _list(_field(meta, "node_types", meta_path), f"{meta_path}: node_types",
                      "node type names"):
        path = os.path.join(directory, f"nodes_{name}.csv")
        header, body = _read_csv(path)
        if not body:
            raise GraphFormatError(f"{path}: no node rows (a node type needs at least one)")
        at = [k for k, col in enumerate(header, 1) if col == "label"]
        has_label = name == target
        if has_label and not at:
            raise GraphFormatError(f"{path}: target-type node file must carry a label column")
        if has_label and at != [len(header)]:
            raise GraphFormatError(f"{path}: 'label' at column {at[0]} of {len(header)}; "
                                   "the one label column must be the last")
        if not has_label and at:
            raise GraphFormatError(f"{path}: label column on node type '{name}'; a label "
                                   f"column belongs only on the target type '{target}'")
        feat_cols = len(header) - has_label
        if not feat_cols:
            raise GraphFormatError(f"{path}: no feature column (a node type needs at least one)")
        _check_rows(body, ["feature"] * feat_cols + ["label"] * has_label, path)
        feats = [_cells(row[:feat_cols], float, path, k, "feature")
                 for k, row in enumerate(body, 2)]
        if name == target:
            labels = [None if row[feat_cols] == ""
                      else _cells(row[feat_cols:feat_cols + 1], int, path, k, "label")[0]
                      for k, row in enumerate(body, 2)]
        doc["node_types"].append(
            {"name": name, "count": len(body), "feature_dim": feat_cols, "features": feats})
    doc["labels"] = labels

    for k, rel in enumerate(_list(_field(meta, "relations", meta_path),
                                  f"{meta_path}: relations", "relation objects")):
        name, src, dst = (_field(rel, key, f"{meta_path}: relations[{k}]")
                          for key in ("name", "src", "dst"))
        path = os.path.join(directory, f"edges_{name}.csv")
        body = _read_csv(path, ["u", "v"])[1]
        _check_rows(body, ["edge", "edge"], path)
        edges = [_cells(r[:2], int, path, i, "edge") for i, r in enumerate(body, 2)]
        doc["relations"].append({"name": name, "src": src, "dst": dst, "edges": edges})

    splits: dict[str, list[int]] = {name: [] for name in SPLITS}
    path = os.path.join(directory, "splits.csv")
    body = _read_csv(path, ["id", "split"])[1]
    _check_rows(body, ["id", "split"], path)
    for k, row in enumerate(body, 2):
        nid, split = _cells(row[:1], int, path, k, "id")[0], row[1]
        if split not in splits:
            raise GraphFormatError(f"{path}: row {k}: split: unknown split name '{split}'")
        splits[split].append(nid)
    doc["splits"] = splits
    return hetero_graph_from_dict(doc)


def _cells(cells: list[str], convert, path: str, row: int, field: str) -> list:
    """CSV cells through int or float; a cell that does not convert is a
    GraphFormatError naming the file, row (header = 1) and field."""
    try:
        return [convert(c) for c in cells]
    except ValueError as exc:
        raise GraphFormatError(f"{path}: row {row}: {field}: {exc}") from exc


def _check_rows(body: list[list[str]], fields: list[str], path: str) -> None:
    """A row with fewer cells than fields, a blank line among them, is a
    GraphFormatError naming the file, row (header = 1) and first missing field;
    a row with more cells names the file, the row and both counts."""
    for k, row in enumerate(body, 2):
        if len(row) < len(fields):
            raise GraphFormatError(f"{path}: row {k}: {fields[len(row)]}: missing cell")
        if len(row) > len(fields):
            raise GraphFormatError(f"{path}: row {k}: {len(row)} cells, more than "
                                   f"the {len(fields)} fields of the file")


def _read_csv(path: str, header: list[str] | None = None
              ) -> tuple[list[str], list[list[str]]]:
    """The header row and the body rows of a CSV file, whose header must be
    `header` when one is given."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise GraphFormatError(f"{path}: empty file, expected a header row")
    if header is not None and rows[0] != header:
        raise GraphFormatError(f"{path}: header '{','.join(rows[0])}', "
                               f"expected '{','.join(header)}'")
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# meta-paths
# ---------------------------------------------------------------------------

def enumerate_meta_paths(graph: HeteroGraph, anchor: str,
                         min_len: int, max_len: int) -> list[MetaPath]:
    """All closed schema walks anchor -> ... -> anchor with min_len <= l <= max_len.

    Relations are traversed in their stored direction only.  Output is sorted
    lexicographically by relation-name sequence (deterministic).
    """
    if anchor not in graph.node_counts:
        raise ValueError(f"anchor type '{anchor}' not in graph")
    if not (1 <= min_len <= max_len):
        raise ValueError("need 1 <= min_len <= max_len")

    by_src: dict[str, list[Relation]] = {}
    for rel in graph.relations:
        by_src.setdefault(rel.src, []).append(rel)

    found: list[MetaPath] = []

    def walk(current: str, rels: list[Relation]) -> None:
        depth = len(rels)
        if depth >= min_len and current == anchor:
            found.append(MetaPath(
                tuple([anchor] + [r.dst for r in rels]),
                tuple(r.name for r in rels)))
        if depth == max_len:
            return
        for rel in by_src.get(current, []):
            walk(rel.dst, rels + [rel])

    walk(anchor, [])
    found.sort(key=lambda p: p.relation_sequence)
    return found


def materialize_meta_path_graph(graph: HeteroGraph, path: MetaPath) -> MetaPathGraph:
    """Chain the relation blocks along the path, binarize, clear the diagonal,
    and symmetrize by union with the transpose."""
    by_name = {r.name: r for r in graph.relations}
    product: sp.csr_matrix | None = None
    expected = path.node_type_sequence[0]
    for rel_name, dst in zip(path.relation_sequence, path.node_type_sequence[1:]):
        rel = by_name.get(rel_name)
        if rel is None:
            raise ValueError(f"unknown relation '{rel_name}' in meta-path")
        if rel.src != expected or rel.dst != dst:
            raise ValueError(f"meta-path step {rel_name} does not fit the schema")
        block = rel.adjacency
        if product is None:
            product = block
        else:
            if product.shape[1] != block.shape[0]:
                raise ValueError(
                    f"dimension mismatch along meta-path at relation {rel_name}")
            product = product @ block
        expected = dst
    assert product is not None
    adj = _symmetrize_union(_clear_diagonal(_binarize(product)))
    return MetaPathGraph(adj)


# ---------------------------------------------------------------------------
# homogenization
# ---------------------------------------------------------------------------

def degenerate_method1(graph: HeteroGraph) -> sp.csr_matrix:
    """Adjacency over all nodes of all types, in the global node order; an
    edge survives iff it exists in >= 1 relation."""
    offsets = graph.type_offsets()
    n = graph.num_nodes()
    rows, cols = [], []
    for rel in graph.relations:
        u, v = rel.adjacency.nonzero()
        rows.append(u + offsets[rel.src])
        cols.append(v + offsets[rel.dst])
    if rows:
        u = np.concatenate(rows)
        v = np.concatenate(cols)
        adj = sp.csr_matrix((np.ones(len(u)), (u, v)), shape=(n, n))
    else:
        adj = sp.csr_matrix((n, n))
    return _symmetrize_union(adj)


def degenerate_method2(graph: HeteroGraph, target: str) -> sp.csr_matrix:
    """Adjacency over the target nodes T, from Method 1's adjacency A and N
    every other node: A[T, T] + A[T, N] A[T, N]^T, binarized, diagonal cleared.
    Two target nodes connect when a relation links them or when they share a
    neighbor of another type, in either direction."""
    if target not in graph.node_counts:
        raise ValueError(f"target type '{target}' absent")
    lo = graph.type_offsets()[target]
    hi = lo + graph.node_counts[target]
    rows = degenerate_method1(graph)[lo:hi]
    context = rows[:, np.r_[:lo, hi:rows.shape[1]]]
    return _symmetrize_union(_clear_diagonal(_binarize(rows[:, lo:hi] + context @ context.T)))


# ---------------------------------------------------------------------------
# shift operator
# ---------------------------------------------------------------------------

def laplacian(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """Normalized Laplacian I - D^{-1/2} A D^{-1/2} of a symmetric nonnegative
    adjacency, as a canonical CSR matrix; zero-degree rows stay identity rows.
    """
    adjacency = _canonical(adjacency)
    if (adjacency != adjacency.T).nnz != 0:
        raise ValueError("adjacency must be symmetric")
    if adjacency.nnz and adjacency.data.min() < 0:
        raise ValueError("adjacency must be nonnegative")

    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        inv_sqrt = 1.0 / np.sqrt(degrees)
    inv_sqrt[~np.isfinite(inv_sqrt)] = 0.0
    d = sp.diags(inv_sqrt)
    return _canonical(sp.eye(adjacency.shape[0]) - d @ adjacency @ d)
