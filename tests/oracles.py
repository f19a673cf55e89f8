"""Independent reference implementations the tests compare against.

Everything here is deliberately brute force and shares no code with the
package: schema walks by explicit DFS, reachability by frontier expansion,
connected components by breadth-first search, spectral profiles by one dense
eigendecomposition of the whole Laplacian, ranking metrics by all-pairs
comparison and threshold sweeps, polynomial operator application by dense
matrix powers, gradients by central finite differences.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import scipy.sparse as sp


def dfs_meta_paths(relations, anchor, min_len, max_len):
    """All closed directed schema walks as relation-name tuples, sorted."""
    out = []

    def walk(current, names):
        if min_len <= len(names) and current == anchor:
            out.append(tuple(names))
        if len(names) == max_len:
            return
        for name, src, dst in relations:
            if src == current:
                walk(dst, names + [name])

    walk(anchor, [])
    return sorted(out)


def walk_pairs(blocks, counts, type_seq):
    """Endpoint pairs (u, v) connected by a walk along dense relation blocks."""
    n0 = counts[type_seq[0]]
    pairs = set()
    for u in range(n0):
        frontier = {u}
        for block in blocks:
            nxt = set()
            for a in frontier:
                nxt.update(np.nonzero(block[a])[0].tolist())
            frontier = nxt
            if not frontier:
                break
        for v in frontier:
            pairs.add((u, int(v)))
    return pairs


def method2_by_relations(graph, target):
    """Method-2 adjacency over the target nodes, walked relation by relation.

    Target-target relations add their edges both ways; every other relation
    touching the target adds a target x context incidence block, in either
    direction, to its context type.  Each context type's binarized block B adds
    B B^T (target nodes sharing a neighbor).  The sum is binarized, its
    diagonal cleared, and it is symmetrized by union with its transpose, each
    step ending in canonical CSR (summed duplicates, sorted indices).
    """
    def canonical(m):
        m = sp.csr_matrix(m)
        m.sum_duplicates()
        m.sort_indices()
        return m

    def binary(m):
        m = canonical(m)
        m.data = np.ones_like(m.data, dtype=np.float64)
        m.eliminate_zeros()
        return m

    n = graph.node_counts[target]
    acc = sp.csr_matrix((n, n))
    touch = {}
    for rel in graph.relations:
        if rel.src == target and rel.dst == target:
            acc = acc + rel.adjacency + rel.adjacency.T
            continue
        if rel.src == target:
            mid, block = rel.dst, rel.adjacency
        elif rel.dst == target:
            mid, block = rel.src, sp.csr_matrix(rel.adjacency.T)
        else:
            continue
        touch[mid] = block if mid not in touch else touch[mid] + block
    for block in touch.values():
        b = binary(block)
        acc = acc + b @ b.T
    acc = binary(acc)
    acc = canonical(sp.triu(acc, 1) + sp.tril(acc, -1))
    return binary(acc + acc.T)


def bfs_components(adjacency):
    """Component id of each node by breadth-first search from each unseen node."""
    neighbors = sp.lil_matrix(adjacency).rows
    comp = [-1] * len(neighbors)
    for root in range(len(neighbors)):
        if comp[root] >= 0:
            continue
        comp[root] = root
        queue = deque([root])
        while queue:
            for v in neighbors[queue.popleft()]:
                if comp[v] < 0:
                    comp[v] = root
                    queue.append(v)
    return comp


def same_partition(labels_a, labels_b):
    """Whether two labelings group the nodes identically."""
    pairs = set(zip(labels_a, labels_b))
    return len(pairs) == len(set(labels_a)) == len(set(labels_b))


def dense_profile(adjacency, signal, K):
    """Eigenvalues, energies, band energies and band_max from one dense eigh.

    L = I - D^{-1/2} A D^{-1/2} with identity rows at zero degree; bands are K
    equal-count slices of the sorted spectrum, the remainder in the last.
    """
    a = np.asarray(adjacency.todense(), dtype=np.float64)
    deg = a.sum(axis=1)
    inv = np.array([1.0 / np.sqrt(d) if d > 0 else 0.0 for d in deg])
    L = np.eye(len(a)) - inv[:, None] * a * inv[None, :]
    eigenvalues, U = np.linalg.eigh(L)
    energies = (U.T @ np.asarray(signal, dtype=np.float64)) ** 2
    n, base = len(a), len(a) // K
    edges = [k * base for k in range(K)] + [n]
    bands = np.array([energies[edges[k]:edges[k + 1]].sum() for k in range(K)])
    top = int(np.argmax(bands))
    band_max = float(np.median(eigenvalues[edges[top]:edges[top + 1]]))
    return eigenvalues, energies, edges, bands, band_max


def auroc_all_pairs(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def auprc_sweep(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    thresholds = sorted(set(scores.tolist()), reverse=True)
    ap, prev_recall = 0.0, 0.0
    for t in thresholds:
        pred = scores >= t
        tp = int(np.sum(pred & (labels == 1)))
        fp = int(np.sum(pred & (labels == 0)))
        precision = tp / (tp + fp)
        rec = tp / n_pos
        ap += (rec - prev_recall) * precision
        prev_recall = rec
    return ap


def dense_poly_apply(coeffs, S_dense, X):
    S_dense = np.asarray(S_dense, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    acc = np.zeros_like(X)
    power = np.eye(S_dense.shape[0])
    for c in coeffs:
        acc = acc + c * (power @ X)
        power = S_dense @ power
    return acc


def monomial_coeffs(cheb, freq_max=2.0):
    """Ascending monomial coefficients in w of sum_k a_k T_k(w - 1) on
    [0, freq_max], by numpy's Chebyshev-to-power-series conversion, padded
    with zeros to len(cheb)."""
    from numpy.polynomial import chebyshev as ncheb
    from numpy.polynomial import polynomial as npoly
    mono = ncheb.Chebyshev(cheb, domain=[0.0, freq_max]).convert(
        kind=npoly.Polynomial, domain=[0.0, freq_max], window=[0.0, freq_max])
    out = np.zeros(len(cheb))
    out[: len(mono.coef)] = mono.coef
    return out


def activation_grad_with_mask(v, g, kind, slope):
    """Gradient of an activation at inputs v for incoming g, from the float64
    mask of the input's sign: relu (v > 0), leaky where(v > 0, 1, slope),
    tanh 1 - tanh(v)^2."""
    if kind == "relu":
        local = (v > 0.0).astype(np.float64)
    elif kind == "leaky_relu":
        local = np.where(v > 0.0, 1.0, slope)
    else:
        y = np.tanh(v)
        local = 1.0 - y * y
    return g * local


def chi2_density(u, n):
    """Chi-square pdf with n degrees of freedom, log-space evaluation."""
    from scipy.special import gammaln
    u = np.asarray(u, dtype=np.float64)
    half = n / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = (half - 1) * np.log(u) - u / 2.0 - half * np.log(2.0) - gammaln(half)
    # the pdf at u = 0 is finite only for n >= 2 (0 above, 1/2 exactly at n = 2)
    if n == 2:
        at_zero = 0.5
    elif n > 2:
        at_zero = 0.0
    else:
        at_zero = np.nan
    return np.where(u > 0, np.exp(logs), at_zero)


def fd_gradient(f, arr, step=1e-5):
    """Central finite differences of scalar f() w.r.t. arr, mutated in place."""
    arr = np.atleast_1d(arr)
    grad = np.zeros_like(arr, dtype=np.float64)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        keep = arr[idx]
        arr[idx] = keep + step
        up = f()
        arr[idx] = keep - step
        down = f()
        arr[idx] = keep
        grad[idx] = (up - down) / (2 * step)
        it.iternext()
    return grad


def grad_mismatch(analytic, numeric):
    """Max absolute gap, relative once gradients exceed unit scale."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(1.0, float(np.max(np.abs(numeric))))
    return float(np.max(np.abs(analytic - numeric))) / scale


def adam_reference(params, grad_steps, lr, beta1=0.9, beta2=0.999, eps=1e-8,
                   weight_decay=0.0):
    """Out-of-place Adam with decoupled weight decay (AdamW) by its textbook
    expressions: every step builds fresh moment and parameter arrays.  grad_steps is a list of per-step gradient
    dicts (a missing name skips that parameter); returns the parameters
    after each step."""
    p = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
    m = {k: np.zeros_like(v) for k, v in p.items()}
    v = {k: np.zeros_like(a) for k, a in p.items()}
    history = []
    for t, grads in enumerate(grad_steps, start=1):
        for name in p:
            g = grads.get(name)
            if g is None:
                continue
            if weight_decay:
                p[name] = p[name] * (1 - lr * weight_decay)
            m[name] = beta1 * m[name] + (1 - beta1) * g
            v[name] = beta2 * v[name] + (1 - beta2) * g * g
            m_hat = m[name] / (1 - beta1 ** t)
            v_hat = v[name] / (1 - beta2 ** t)
            p[name] = p[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
        history.append({k: np.array(a) for k, a in p.items()})
    return history
