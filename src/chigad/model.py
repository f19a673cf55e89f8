"""The heterogeneous anomaly-detection network, one build path for every graph.

Three stages, built per graph:

1. Multi-graph filter bank, one per node type: every valid meta-path graph of
   the type carries a fused Chi-Square filter applied through a learnable
   scalar importance w^S, and the filtered signals are summed into a semantic
   representation (width-preserving).  The filter acts on the constant
   features X, so each meta-path graph's powers S^k X are cached at build, S
   is dropped, and a forward pass only weighs them by c_k (w^S)^k, as one
   tape node for the whole bank (`multi_graph_forward`).
2. Alignment: one linear map per type onto a shared width d_a.
3. Interactive meta-graph convolution: the aligned blocks are stacked in the
   global node order, activated, and passed through the sum of a fixed set
   of Chi-Square filter polynomials of the homogenized graph's shift
   operator S, the normalized Laplacian of Method 1's adjacency.  They share
   the operator and the input, so the sum is applied as one Chebyshev series
   in S - I, summed once at build and cut there where its coefficient tail
   falls below CHEB_CUT_RTOL of its mass.  Only the target rows lo:hi of the
   output feed an MLP head with two output columns; the layer computes them
   as one tape node (`MetaGraphConvLayer.apply`) by one of two paths, which
   it picks at build from input sizes alone:
   - the dense target block p(S)[lo:hi] (n_t x n), built once by the same
     cut series and applied as one GEMM each way, when n_t <= d_a (the block
     is no larger than the conv input) and n_t * n <= DENSE_BLOCK_RATIO *
     deg * (nnz(M) + 2n) (per column it costs at most that multiple of the
     recurrence's multiply-adds).  The defaults take it;
   - otherwise Clenshaw's recurrence on M = 2(S - I), one sparse product per
     degree, whose cost follows the cut degree (39 on the defaults, against
     130 uncut); the node keeps only rows lo:hi of its output.  The c7 config
     (n_t 400 > d_a 32), larger graphs and the degree-1 low-pass ablation
     take it.

Every shift operator S is a normalized Laplacian, held as the plain CSR
matrix `laplacian(adj)` returns: its spectrum lies in [0, 2], the interval
the filters are fitted on.  An ablation is built by swapping filters on a
built model (each bank entry's `poly`, which reads the first of the entry's
cached powers, so it may be no longer than the built filter, and the `conv`
layer, rebuilt on the same adjacency), not by a config key.

The homogeneous variant (ChiGNN) is the same network on a graph with one node
type n and one relation e: n -> n.  With path_min = path_max = 1 its one
meta-path n-e-n forms a single division `all`, and the convolution runs on
the same graph.

Stage 1's filters come from a per-type spectral plan (s_high ranking, one
profiled representative per division, the nearest Chi-Square mode), held in
one record, `TypePlan`, whose fields are those of the plan document a
checkpoint stores.  Fresh planning, a stored plan and a type with no valid
meta-path (null labels, no division) all give a `TypePlan`; a stored one is
replayed from its scores and band_max, not ranked and profiled again, and
must equal the replay (`plan_type`).  A model scores only the graph it was
built on, held by reference; no meta-path graph or its Laplacian outlives it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .chifilter import PolyFilter, fit_polynomial
from .config import RunConfig, sub_seed
from .hin import (HeteroGraph, MetaPath, MetaPathGraph, degenerate_method1,
                  enumerate_meta_paths, laplacian, materialize_meta_path_graph)
from .spectral import (DEGENERATE_DIVISION, SpectralProfile, assign_filter, cut_divisions,
                       fuse_filters, profile_capped, select_representatives)


# relative L1 tail of the summed conv series dropped at build; |T_k| <= 1 on
# the spectrum, so it bounds the sup-norm error of the cut series
CHEB_CUT_RTOL = 1e-10

# how many times the recurrence's multiply-adds per column, deg * (nnz(M) +
# 2n), the dense target block's n_t * n may be (stage 3).  On the defaults
# (2 vCPU, one BLAS thread) the block's GEMM ran at 17.7 G multiply-adds/s and
# the recurrence at 1.2 G/s, so 2 keeps a wide margin; it also keeps a
# degree-1 filter on the recurrence
DENSE_BLOCK_RATIO = 2.0


def summed_coeffs(filters: list[PolyFilter]) -> np.ndarray:
    """Chebyshev coefficients of sum_f f(S), each series zero-padded to the
    longest."""
    if not filters:
        raise ValueError("empty filter set")
    out = np.zeros(max(len(f.cheb) for f in filters))
    for f in filters:
        out[:len(f.cheb)] += f.cheb
    return out


def cut_series(cheb: np.ndarray) -> np.ndarray:
    """The shortest head a[:m] of a Chebyshev series whose dropped tail has
    sum_{j>=m} |a_j| <= CHEB_CUT_RTOL * sum_j |a_j|; at least one coefficient."""
    mag = np.abs(cheb)
    tail = np.append(np.cumsum(mag[::-1])[::-1], 0.0)
    m = int(np.argmax(tail <= CHEB_CUT_RTOL * mag.sum()))
    return cheb[:max(m, 1)].copy()


def softmax_rows(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# per-type spectral planning
# ---------------------------------------------------------------------------

@dataclass
class TypePlan:
    """One node type's filter plan: the fields of its plan document
    (`plan_document`), plus the representatives' profiles when it was planned
    afresh.  A type with no valid meta-path has null labels and scores and no
    division."""
    paths: list[MetaPath]
    labels: list[str | None]          # division per meta-path graph; None = empty
    scores: list[float | None]        # graph_s_high per graph; None = empty
    representatives: dict[str, int]   # division -> index into paths
    band_max: dict[str, float]
    assigned: dict[str, int]          # division -> filter index
    # division -> profile of its representative; empty for a stored plan
    profiles: dict[str, SpectralProfile] = field(default_factory=dict, repr=False)

    @property
    def degenerate(self) -> bool:
        return DEGENERATE_DIVISION in self.representatives


# the plan document's fields and their JSON kinds
PLAN_FIELDS = {"paths": list, "labels": list, "scores": list, "representatives": dict,
               "degenerate": bool, "band_max": dict, "assigned": dict}


def plan_type(graph: HeteroGraph, node_type: str, cfg: RunConfig,
              stored: dict | None = None) -> tuple[TypePlan, list[MetaPathGraph]]:
    """Enumerate and materialize the meta-path graphs of one node type, cut
    their s_high scores into divisions (`cut_divisions`) and give each the
    filter nearest its representative's band_max (`assign_filter`).  Fresh
    planning measures scores and band_max by ranking and profiling; given
    plan documents (see `plan_document`), the type's stored ones stand in and
    every stored field must equal this replay.  Returns the plan and graphs."""
    paths = enumerate_meta_paths(graph, node_type, cfg.path_min, cfg.path_max)
    graphs = [materialize_meta_path_graph(graph, p) for p in paths]
    doc = None if stored is None else stored.get(node_type)

    def mismatch(key: str, why: str) -> ValueError:
        return ValueError(f"stored filter plan, node type '{node_type}', "
                          f"field '{key}': {why}")

    def finite(v) -> bool:
        return type(v) in (int, float) and math.isfinite(v)

    if all(g.is_empty for g in graphs):
        if doc is not None:
            raise mismatch("paths", "the graph has no valid meta-path for this type")
        return TypePlan(paths, [None] * len(paths), [None] * len(paths), {}, {}, {}), graphs
    profiles: dict[str, SpectralProfile] = {}
    if stored is None:
        X = graph.features[node_type]
        if not X.any():
            raise ValueError(f"node type '{node_type}': every feature is zero, so its "
                             "meta-path graphs cannot be ranked by s_high")
        labels, reps, scores = select_representatives(graphs, X)
        profiles = {d: profile_capped(graphs[r], X, cfg.bands,
                                      seed=sub_seed(cfg.seed, f"profile:{node_type}:{d}"))
                    for d, r in reps.items()}
        band_max = {d: p.band_max for d, p in profiles.items()}
    else:
        if doc is None or doc.get("paths") != [str(p) for p in paths]:
            raise mismatch("paths", "no plan stored for a type with valid meta-paths"
                           if doc is None else "differs from the graph's meta-paths")
        scores = doc.get("scores")
        if not isinstance(scores, list) or len(scores) != len(graphs) or any(
                s is not None if g.is_empty else not finite(s) for s, g in zip(scores, graphs)):
            raise mismatch("scores", "must be a finite number exactly on the nonempty graphs")
        labels, reps = cut_divisions(scores)
        band_max = doc.get("band_max")
        if (not isinstance(band_max, dict) or set(band_max) != set(reps)
                or not all(map(finite, band_max.values()))):
            raise mismatch("band_max", f"must map the divisions {list(reps)} to finite numbers")
        band_max = {d: band_max[d] for d in reps}
    assigned = {d: assign_filter(b, list(cfg.candidates)) for d, b in band_max.items()}
    tp = TypePlan(paths, labels, list(scores), reps, band_max, assigned, profiles)
    if stored is not None:
        # compared as JSON text, where true is not 1 and 1.0 is not an index
        for key, want in plan_document({node_type: tp})[node_type].items():
            if json.dumps(doc.get(key), sort_keys=True) != json.dumps(want, sort_keys=True):
                by = f" and the candidates {cfg.candidates}" if key == "assigned" else ""
                raise mismatch(key, f"{doc.get(key)!r}, but the stored scores and "
                                    f"band_max{by} give {want!r}")
    return tp, graphs


def plan_document(plans: dict[str, TypePlan]) -> dict:
    """JSON form of the plans of the node types that have valid meta-paths."""
    return {o: {key: kind(getattr(tp, key)) for key, kind in PLAN_FIELDS.items()}
            | {"paths": [str(p) for p in tp.paths]}
            for o, tp in plans.items() if tp.representatives}


# ---------------------------------------------------------------------------
# model structure
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class BankEntry:
    poly: PolyFilter            # the fused filter's fit
    weight_name: str
    basis: list[np.ndarray] = field(repr=False)  # S^k X, k < len(built filter)


@dataclass(eq=False)
class MultiGraphFilterBank:
    node_type: str
    entries: list[BankEntry]


@dataclass(eq=False)
class MetaGraphConvLayer:
    """Rows `rows` of p(S) x for the sum p of the conv filters, S the
    normalized Laplacian of `adjacency`.  `block` is p(S)[lo:hi] when the
    size rule of stage 3 (module docstring) picks the dense path, and None
    when the cut series runs by Clenshaw's recurrence."""
    adjacency: sp.csr_matrix    # Method 1: every node, in the global node order
    filters: list[PolyFilter]
    rows: tuple[int, int]       # the target rows lo:hi in the global node order
    width: int                  # columns of the conv input, d_a
    cheb: np.ndarray = field(init=False)        # cut_series(summed_coeffs(filters))
    matrix: sp.csr_matrix = field(init=False, repr=False)   # 2(S - I)
    block: np.ndarray | None = field(init=False, repr=False)  # p(S)[lo:hi] or None

    def __post_init__(self):
        self.cheb = cut_series(summed_coeffs(self.filters))
        S = laplacian(self.adjacency)
        # the sparse difference stores no zeros, so S's unit diagonal drops out
        n = S.shape[0]
        self.matrix = 2.0 * (S - sp.eye(n, format="csr"))
        lo, hi = self.rows
        recurrence = (len(self.cheb) - 1) * (self.matrix.nnz + 2 * n)
        self.block = None
        if hi - lo <= self.width and (hi - lo) * n <= DENSE_BLOCK_RATIO * recurrence:
            # p(S) is symmetric: its columns lo:hi, p(S) applied to the unit
            # vectors e_lo .. e_(hi-1), are its rows lo:hi
            self.block = ad.clenshaw(self.cheb, self.matrix, np.eye(n, hi - lo, -lo)).T

    def apply(self, x: ad.Node) -> ad.Node:
        """Rows lo:hi of p(S) x, one tape node.  p(S) is symmetric, so the
        gradient to x is the block's transpose, or the same series, applied to
        the incoming gradient scattered into the target rows."""
        lo, hi = self.rows
        if self.block is not None:
            return ad.Node(x.tape, self.block @ x.value, "meta_graph_conv",
                           lambda g: x.accumulate(self.block.T @ g))

        def backward(g):
            full = np.zeros(x.value.shape)
            full[lo:hi] = g
            x.accumulate(ad.clenshaw(self.cheb, self.matrix, full))

        return ad.Node(x.tape, ad.clenshaw(self.cheb, self.matrix, x.value)[lo:hi].copy(),
                       "meta_graph_conv", backward)


@dataclass(eq=False)
class ChiGadModel:
    graph: HeteroGraph = field(repr=False)  # the build graph, by reference
    banks: dict[str, MultiGraphFilterBank]
    conv: MetaGraphConvLayer
    params: dict[str, np.ndarray]      # declaration order = checkpoint order
    schema_hash: str
    activation: str
    mlp_layers: int
    plans: dict[str, TypePlan] = field(default_factory=dict)


def graph_signature(graph: HeteroGraph) -> dict:
    return {
        "node_types": [
            [t, graph.node_counts[t], graph.feature_dim(t)] for t in graph.node_types],
        "relations": [
            [r.name, r.src, r.dst, int(r.adjacency.nnz)] for r in graph.relations],
        "target_type": graph.target_type,
    }


def _uniform_init(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def build_model(graph: HeteroGraph, cfg: RunConfig,
                plan: dict | None = None) -> ChiGadModel:
    """Assemble banks, alignment, convolution, and head for one graph.

    Without `plan` every node type is planned from the graph (ranking and
    spectral profiles); with a plan document, such as a checkpoint's, each
    type's plan is replayed from its stored scores and band_max (`plan_type`).
    """
    cfg.validate()
    graph.validate()
    if plan is not None:
        unknown = sorted(set(plan) - set(graph.node_types))
        if unknown:
            raise ValueError(f"stored filter plan names unknown node type '{unknown[0]}'")

    params: dict[str, np.ndarray] = {}
    banks: dict[str, MultiGraphFilterBank] = {}
    plans: dict[str, TypePlan] = {}
    for o in graph.node_types:
        tp, graphs = plan_type(graph, o, cfg, plan)
        plans[o] = tp
        entries: list[BankEntry] = []
        # the fused filter depends on the division, not on the graph
        fused = {v: fuse_filters(tp.assigned, v, cfg.w_d, cfg.degree_budget).poly
                 for v in tp.assigned}
        for idx, division in enumerate(tp.labels):
            if division is None:
                continue
            name = f"wS[{o}][{idx}]"
            params[name] = np.asarray(1.0)
            poly = fused[division]
            entries.append(BankEntry(poly, name, list(ad.monomial_powers(
                laplacian(graphs[idx].adjacency), graph.features[o], len(poly.cheb)))))
        del graphs      # let them go before the next type is planned
        banks[o] = MultiGraphFilterBank(o, entries)

    rng = np.random.default_rng(sub_seed(cfg.seed, "init"))
    for o in graph.node_types:
        d_o = graph.feature_dim(o)
        params[f"W_align[{o}]"] = _uniform_init(rng, d_o, (d_o, cfg.aligned_dim))

    conv_filters = [fit_polynomial(i, cfg.degree_budget)
                    for i in sorted(set(cfg.candidates))]
    lo = graph.type_offsets()[graph.target_type]
    conv = MetaGraphConvLayer(degenerate_method1(graph), conv_filters,
                              (lo, lo + graph.node_counts[graph.target_type]),
                              cfg.aligned_dim)

    widths = [cfg.aligned_dim] * cfg.mlp_layers + [2]
    for k in range(cfg.mlp_layers):
        fan_in, fan_out = widths[k], widths[k + 1]
        last = k == cfg.mlp_layers - 1
        # zero output layer: the head starts at uniform probabilities, so the
        # first updates follow the class-contrast direction instead of
        # whichever rows happen to have the largest filtered magnitudes
        params[f"mlp.{k}.W"] = (np.zeros((fan_in, fan_out)) if last else
                                _uniform_init(rng, fan_in, (fan_in, fan_out)))
        params[f"mlp.{k}.b"] = (np.zeros(fan_out) if last else
                                _uniform_init(rng, fan_in, (fan_out,)))

    schema_doc = json.dumps({"schema": graph_signature(graph) | {"arch": cfg.arch_fingerprint()},
                             "params": [[n, list(p.shape)] for n, p in params.items()]},
                            sort_keys=True)
    return ChiGadModel(graph=graph, banks=banks, conv=conv, params=params,
                       schema_hash=hashlib.sha256(schema_doc.encode()).hexdigest(),
                       activation=cfg.activation, mlp_layers=cfg.mlp_layers, plans=plans)


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

@dataclass
class ForwardPass:
    """One forward pass and the tape it owns.  A recording pass (the default)
    is finished by its backward, which the caller may run on the tape after
    dropping the pass.  A forward-only pass, record=False, keeps no tape:
    neither nodes nor closures, so only the fields below outlive it, and a
    backward on its tape raises."""
    tape: ad.Tape
    prob: np.ndarray             # target nodes x 2
    logits: ad.Node
    rep: ad.Node                 # pre-head representation X' of the target block
    param_nodes: dict[str, ad.Node]
    conv_input: ad.Node          # activated, stacked rows the convolution reads


def multi_graph_forward(bank: MultiGraphFilterBank,
                        weight_nodes: dict[str, ad.Node]) -> ad.Node:
    """Semantic representation of the bank's type, one tape node:
    sum_e sum_k c_k (w_e)^k B^e_k over its meta-path graphs e, the fused
    filter applied to the features through the learnable importance w_e = w^S.
    The cached powers B^e_k = S_e^k X are constants, so only the w_e receive
    a gradient.  An entry's filter may be no longer than its cache.
    """
    if not bank.entries:
        raise ValueError(f"filter bank of type {bank.node_type} is empty")
    terms = []      # (weight node, its value, coefficients, cached powers)
    value = None
    for e in bank.entries:
        w, cvals = weight_nodes[e.weight_name], e.poly.coeffs
        if len(e.basis) < len(cvals):
            raise ValueError(f"{len(cvals)} coefficients for a basis of "
                             f"{len(e.basis)} powers")
        wv = float(w.value)
        terms.append((w, wv, cvals, e.basis))
        term = ad.weighted_sum(cvals, wv ** np.arange(len(cvals)), e.basis)
        value = term if value is None else value + term

    def backward(g):
        for w, wv, cvals, basis in terms:
            w.accumulate(np.asarray(ad._dw(cvals, wv, basis, g)))

    return ad.Node(ad._tape_of(*(t[0] for t in terms)), value, "filter_bank", backward)


def forward_pass(model: ChiGadModel, *, record: bool = True) -> ForwardPass:
    """The model's forward pass on the graph it was built on; record=False
    for a pass that will run no backward (see ForwardPass)."""
    graph = model.graph
    tape = ad.Tape(record)
    pnodes = {name: tape.leaf(arr, name) for name, arr in model.params.items()}

    def aligned(o: str) -> ad.Node:
        bank = model.banks[o]
        # a type with no valid meta-path keeps its raw features
        xs = (multi_graph_forward(bank, pnodes) if bank.entries
              else tape.leaf(graph.features[o], f"X[{o}]"))
        return ad.matmul(xs, pnodes[f"W_align[{o}]"])

    # node_types order = global node order; without a record the blocks and
    # the stack are freed once the activation has read them
    activated = ad.activation(ad.vstack([aligned(o) for o in graph.node_types]),
                              model.activation)
    rep = model.conv.apply(activated)
    h = rep
    for k in range(model.mlp_layers):
        z = ad.add_bias(ad.matmul(h, pnodes[f"mlp.{k}.W"]), pnodes[f"mlp.{k}.b"])
        h = z if k == model.mlp_layers - 1 else ad.activation(z, model.activation)

    return ForwardPass(tape, softmax_rows(h.value), h, rep, pnodes, activated)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = "chigad-checkpoint-v3"
CHECKPOINT_V1_MAGIC = "chigad-checkpoint-v1"
CHECKPOINT_V2_MAGIC = "chigad-checkpoint-v2"
# formats no longer read, and why
RETIRED_FORMATS = {
    CHECKPOINT_V1_MAGIC: "stores no filter plan",
    CHECKPOINT_V2_MAGIC: "holds weights trained for the monomial meta-graph convolution",
}


def save_checkpoint(model: ChiGadModel, path: str, extra: dict | None = None) -> None:
    """JSON header line + parameters as little-endian float64, declaration order.

    The header (written with sorted keys, so the file is byte-reproducible)
    carries the magic, the schema hash, the parameter layout, the caller's
    extra dict, and the filter plan of every node type with valid meta-paths
    (`plan_document`): meta-path strings, division labels, s_high scores,
    representatives, band_max and assigned filter indices.  JSON floats
    round-trip exactly, so `build_model(graph, cfg, plan)` rebuilds the same
    filters without ranking or profiling.
    """
    header = {
        "magic": CHECKPOINT_MAGIC,
        "schema_hash": model.schema_hash,
        "params": [[name, list(arr.shape)] for name, arr in model.params.items()],
        "plan": plan_document(model.plans),
        "extra": extra or {},
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        for arr in model.params.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_header(fh) -> dict:
    try:
        header = json.loads(fh.readline().decode())
    except ValueError:      # not UTF-8, or not JSON
        raise ValueError("not a model checkpoint file") from None
    magic = header.get("magic") if isinstance(header, dict) else None
    if isinstance(magic, str) and magic in RETIRED_FORMATS:
        raise ValueError(f"checkpoint format {magic} {RETIRED_FORMATS[magic]} and is "
                         f"no longer read; re-run train to write a {CHECKPOINT_MAGIC} file")
    if magic != CHECKPOINT_MAGIC:
        raise ValueError("not a model checkpoint file")
    missing = [k for k in ("schema_hash", "params", "plan") if k not in header]
    if missing:
        raise ValueError(f"checkpoint header: missing field '{missing[0]}'")
    plan = header["plan"]
    if not (isinstance(plan, dict) and all(isinstance(doc, dict) for doc in plan.values())):
        raise ValueError("checkpoint header, field 'plan': expected an object "
                         "mapping node types to plan objects")
    return header


def checkpoint_plan(path: str) -> dict:
    """The plan document stored in a checkpoint, for `build_model(..., plan=)`."""
    with open(path, "rb") as fh:
        return _read_header(fh)["plan"]


def load_checkpoint(model: ChiGadModel, path: str) -> dict:
    """Load parameters into a model built for the same graph, config and plan.

    Returns the header's extra dict.  It is an error when the header lacks
    schema_hash, params or plan, or its plan is not an object of plan objects
    (each named), when the schema hash differs (a different graph or
    architecture), when the stored filter plan differs from `model.plans` in
    its meta-paths, division labels or assigned filters (weights trained for
    other filters), when the parameter layout differs, and when the parameter
    bytes are short or followed by more.
    """
    with open(path, "rb") as fh:
        header = _read_header(fh)
        blob = fh.read()
    if header["schema_hash"] != model.schema_hash:
        raise ValueError(
            "checkpoint schema hash mismatch: built for a different graph or config")
    stored, current = header["plan"], plan_document(model.plans)
    for o in sorted(set(stored) | set(current)):
        for key in ("paths", "labels", "assigned"):
            if stored.get(o, {}).get(key) != current.get(o, {}).get(key):
                raise ValueError(f"checkpoint filter plan mismatch: node type '{o}', "
                                 f"field '{key}' differs from the model's plan")
    expected = [[name, list(arr.shape)] for name, arr in model.params.items()]
    if header["params"] != expected:
        raise ValueError("checkpoint parameter layout mismatch")
    offset = 0
    for name, arr in model.params.items():
        n = arr.size * 8
        flat = np.frombuffer(blob[offset:offset + n], dtype="<f8")
        if flat.size != arr.size:
            raise ValueError("checkpoint truncated")
        model.params[name] = flat.reshape(arr.shape).copy()
        offset += n
    if offset != len(blob):
        raise ValueError(f"checkpoint has {len(blob) - offset} trailing bytes "
                         f"after the last parameter")
    return header.get("extra", {})
