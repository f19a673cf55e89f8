"""Spectral profiling of meta-path graphs and frequency-matched filter choice.

The amount of high-frequency content in a signal x on a graph with Laplacian L
is the Rayleigh quotient x'Lx / x'x.  Ranking meta-path graphs by this score
splits them into low / mid / high divisions (one division `all` when fewer
than three graphs are valid); one representative per division is profiled in
full (eigendecomposition, Fourier energies, banded histogram) to find the
frequency band where the energy concentrates.  Each division then receives
the Chi-Square filter whose mode lies closest to that band, and each
meta-path graph gets a fused response blending its own division's filter with
down-weighted copies of the others.  These are the pieces of a node type's
plan; the plan record itself is `model.TypePlan`.

The normalized Laplacian is block-diagonal over the graph's connected
components, so the profile decomposes one component at a time: the dense
work is the sum of the components' cubed sizes, not the cube of the graph's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .chifilter import (FREQ_MAX, PolyFilter, chi_mode, chi_response,
                        fit_grid_polynomial)
from .hin import MetaPathGraph, laplacian

DIVISIONS = ("low", "mid", "high")
DEGENERATE_DIVISION = "all"

DEFAULT_EIG_CAP = 3000
FUSION_GRID = 1024


def s_high(x: np.ndarray, L) -> float:
    """High-frequency area of a signal: x'Lx / x'x."""
    x = np.asarray(x, dtype=np.float64).ravel()
    denom = float(x @ x)
    if denom == 0.0:
        raise ValueError("s_high of the zero vector is undefined")
    return float(x @ (L @ x)) / denom


def graph_s_high(graph: MetaPathGraph, X: np.ndarray) -> float:
    """Mean s_high over nonzero feature columns, normalized Laplacian."""
    if graph.is_empty:
        raise ValueError("graph has no edges")
    X = np.asarray(X, dtype=np.float64)
    L = laplacian(graph.adjacency)
    cols = [j for j in range(X.shape[1]) if np.any(X[:, j])]
    if not cols:
        raise ValueError("all feature columns are zero")
    return float(np.mean([s_high(X[:, j], L) for j in cols]))


@dataclass
class SpectralProfile:
    eigenvalues: np.ndarray       # ascending
    fourier_coeffs: np.ndarray    # projections of the column-summed signal
    energies: np.ndarray          # squared coefficients
    band_edges: np.ndarray        # K+1 index boundaries into the sorted spectrum
    band_energies: np.ndarray     # K cumulative energies
    band_max: float               # median eigenvalue of the argmax band

    @property
    def num_bands(self) -> int:
        return len(self.band_energies)


def connected_components(adjacency: sp.spmatrix) -> np.ndarray:
    """Component label of each node of a symmetric adjacency.

    Labels run 0, 1, ... in order of each component's smallest node.  Each
    round, across every edge (u, v), the label that u points to takes the
    smaller of itself and v's label; then every node jumps to its label's
    label until that is stable.  The fixed point labels each component with
    its smallest node (ten rounds label a shuffled 20,000-node path).
    """
    a = sp.csr_matrix(adjacency)
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    label = np.arange(a.shape[0])
    while True:
        new = label.copy()
        np.minimum.at(new, label[rows], label[a.indices])
        while not np.array_equal(new[new], new):
            new = new[new]
        if np.array_equal(new, label):
            return np.unique(label, return_inverse=True)[1]
        label = new


def spectral_profile(graph: MetaPathGraph, X: np.ndarray, K: int,
                     eig_cap: int = DEFAULT_EIG_CAP) -> SpectralProfile:
    """Full eigendecomposition profile of the column-summed feature signal.

    L is permuted once into connected-component order, and each diagonal
    block is decomposed with its own dense `eigh`; the blocks' eigenvalues
    and the projections of the signal on their eigenvectors are then sorted
    together (stable, so ties keep component order).  The eigenvalues are
    those of one dense `eigh` of L.  A repeated eigenvalue, such as 0 once
    per component, has no unique eigenbasis, so when a band edge cuts one,
    the split of its energy between the two bands depends on the basis, as
    it did with one dense `eigh`.

    Bands are K contiguous equal-count slices of the sorted spectrum; the
    remainder of n mod K goes to the last band.  band_max is the median
    eigenvalue of the band with the largest cumulative energy.
    """
    n = graph.num_nodes
    if K < 1 or n < K:
        raise ValueError(f"need 1 <= K <= |V|, got K={K}, |V|={n}")
    if n > eig_cap:
        raise ValueError(
            f"graph has {n} nodes, above the dense eigendecomposition cap "
            f"{eig_cap}; profile an induced subsample instead")
    L = laplacian(graph.adjacency)
    labels = connected_components(graph.adjacency)
    order = np.argsort(labels, kind="stable")
    L = L[order][:, order]
    signal = np.asarray(X, dtype=np.float64).sum(axis=1)[order]
    bounds = np.concatenate(([0], np.cumsum(np.bincount(labels))))
    values, projections = [], []
    for s, e in zip(bounds[:-1], bounds[1:]):
        # rows s..e of the permuted L hold only the block's own columns
        lo, hi = L.indptr[s], L.indptr[e]
        block = np.zeros((e - s, e - s))
        rows = np.repeat(np.arange(e - s), np.diff(L.indptr[s:e + 1]))
        block[rows, L.indices[lo:hi] - s] = L.data[lo:hi]
        lam, U = np.linalg.eigh(block)
        values.append(lam)
        projections.append(U.T @ signal[s:e])
    eigenvalues = np.concatenate(values)
    rank = np.argsort(eigenvalues, kind="stable")
    eigenvalues, coeffs = eigenvalues[rank], np.concatenate(projections)[rank]
    energies = coeffs ** 2

    base = n // K
    edges = np.array([k * base for k in range(K)] + [n], dtype=np.int64)
    band_energies = np.array(
        [energies[edges[k]:edges[k + 1]].sum() for k in range(K)])
    top = int(np.argmax(band_energies))
    band_max = float(np.median(eigenvalues[edges[top]:edges[top + 1]]))
    return SpectralProfile(eigenvalues, coeffs, energies, edges, band_energies, band_max)


def subsample_graph(graph: MetaPathGraph, X: np.ndarray, cap: int,
                    seed: int) -> tuple[MetaPathGraph, np.ndarray]:
    """Seeded induced subgraph on cap uniformly chosen nodes (sorted ids)."""
    n = graph.num_nodes
    if n <= cap:
        return graph, X
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(n, size=cap, replace=False))
    sub = sp.csr_matrix(graph.adjacency[idx][:, idx])
    return MetaPathGraph(sub), X[idx]


def profile_capped(graph: MetaPathGraph, X: np.ndarray, K: int,
                   eig_cap: int = DEFAULT_EIG_CAP, seed: int = 0) -> SpectralProfile:
    """Profile of the graph, or of its seeded induced subsample on eig_cap
    nodes when it is larger, in K bands or one per profiled node if fewer."""
    g, feats = subsample_graph(graph, X, eig_cap, seed)
    return spectral_profile(g, feats, min(K, g.num_nodes), eig_cap)


# ---------------------------------------------------------------------------
# divisions and representatives
# ---------------------------------------------------------------------------

def select_representatives(graphs: list[MetaPathGraph], X: np.ndarray
                           ) -> tuple[list[str | None], dict[str, int], list[float | None]]:
    """Score each nonempty graph by graph_s_high and cut the scores into
    divisions.  Returns (labels, representatives, scores): `cut_divisions`'
    pair and each graph's score, None on an empty graph."""
    scores: list[float | None] = [
        None if g.is_empty else graph_s_high(g, X) for g in graphs]
    return (*cut_divisions(scores), scores)


def cut_divisions(scores: list[float | None]) -> tuple[list[str | None], dict[str, int]]:
    """Rank the graphs that have a score ascending and cut them into
    divisions: low/mid/high, or the single division `all` when fewer than 3
    have one; fresh and stored plans both cut here.  Returns (labels,
    representatives): per graph its division, None where its score is None,
    and per division the index of its representative.  Division sizes are
    as equal as possible with remainders pushed to the later divisions; the
    representative is the element at the lower-median rank of its division."""
    order = sorted((k for k, s in enumerate(scores) if s is not None),
                   key=lambda k: (scores[k], k))
    if not order:
        raise ValueError("no nonempty meta-path graphs to rank")
    divisions = (DEGENERATE_DIVISION,) if len(order) < 3 else DIVISIONS
    base, rem = divmod(len(order), len(divisions))
    labels: list[str | None] = [None] * len(scores)
    reps: dict[str, int] = {}
    pos = 0
    for d, div in enumerate(divisions):
        size = base + (d >= len(divisions) - rem)
        chunk = order[pos:pos + size]
        for k in chunk:
            labels[k] = div
        reps[div] = chunk[(size - 1) // 2]
        pos += size
    return labels, reps


def assign_filter(band_max: float, candidates: list[int]) -> int:
    """Candidate index whose mode is nearest band_max; ties toward smaller i."""
    if not candidates:
        raise ValueError("candidate set is empty")
    return min(sorted(candidates), key=lambda i: (abs(chi_mode(i) - band_max), i))


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class FusedFilter:
    grid: np.ndarray              # uniform abscissa over [0, 2]
    response: np.ndarray          # fused, renormalized to unit integral
    poly: PolyFilter


def fuse_filters(assignments: dict[str, int], own_division: str,
                 w_d: float = 0.1, d: int = 3,
                 grid_size: int = FUSION_GRID) -> FusedFilter:
    """Blend the per-division filters into one response for the meta-path
    graphs of one division.

    Each division's response is weighted (1 for the graph's own division, w_d
    for the others), the weighted samples are convolved numerically, the
    support is rescaled from [0, 2*len] back to [0, 2], and the result is
    renormalized to unit integral before the polynomial fit of degree
    (max contributing i) - 1 + d.
    """
    if own_division not in assignments:
        raise ValueError(f"own division '{own_division}' has no assigned filter")
    if not (0.0 < w_d <= 1.0):
        raise ValueError("w_d must lie in (0, 1]")
    order = [v for v in (*DIVISIONS, DEGENERATE_DIVISION) if v in assignments]
    grid = np.linspace(0.0, FREQ_MAX, grid_size)
    h = grid[1] - grid[0]
    weights = {v: (1.0 if v == own_division else w_d) for v in order}

    fused: np.ndarray | None = None
    for div in order:
        sampled = weights[div] * chi_response(assignments[div], grid)
        fused = sampled if fused is None else np.convolve(fused, sampled) * h
    assert fused is not None
    # support of an m-fold convolution is [0, 2m]; compress it back onto [0, 2]
    support = np.linspace(0.0, FREQ_MAX * len(order), len(fused)) / len(order)
    mass = np.trapezoid(fused, support)
    if mass <= 0.0:
        raise ValueError("fused response has no mass")
    fused = fused / mass

    response = np.interp(grid, support, fused)
    response /= np.trapezoid(response, grid)
    max_i = max(assignments[v] for v in order)
    poly = fit_grid_polynomial(grid, response, max_i - 1 + d)
    return FusedFilter(grid, response, poly)


# ---------------------------------------------------------------------------
# achievability of the weighted-combination high-frequency bound
# ---------------------------------------------------------------------------

def theorem1_search(signals: np.ndarray, L) -> tuple[np.ndarray, float]:
    """Weights a maximizing s_high(signals @ a) = a'X'LXa / a'X'Xa, exactly.

    The maximum is the top eigenpair of that pencil, solved on an orthonormal
    basis of the signals' column span (singular values below rank tolerance
    dropped, so collinear signals work).  Serves as the constructive check
    that a weighted combination of signals can retain at least the largest
    individual high-frequency area.
    """
    X = np.asarray(signals, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] < 2:
        raise ValueError("need at least two signal columns")
    U, sv, Vt = np.linalg.svd(X, full_matrices=False)
    keep = sv > sv[0] * max(X.shape) * np.finfo(np.float64).eps
    if not keep.any():
        raise ValueError("every signal is zero")
    Q = U[:, keep]
    M = Q.T @ (L @ Q)
    y = np.linalg.eigh((M + M.T) / 2.0)[1][:, -1]
    w = Vt[keep].T @ (y / sv[keep])
    return w, s_high(X @ w, L)
