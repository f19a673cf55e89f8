import numpy as np
import pytest
import scipy.sparse as sp

from chigad.chifilter import chi_mode, chi_response
from chigad.hin import MetaPathGraph, laplacian
from chigad.spectral import (DEGENERATE_DIVISION, DIVISIONS, assign_filter,
                             connected_components, fuse_filters, graph_s_high,
                             profile_capped, s_high, select_representatives,
                             spectral_profile, subsample_graph, theorem1_search)
from oracles import bfs_components, chi2_density, dense_profile, same_partition


def edge_graph():
    return MetaPathGraph(sp.csr_matrix(np.array([[0, 1], [1, 0]], float)))


def path_graph(n):
    a = np.zeros((n, n))
    for k in range(n - 1):
        a[k, k + 1] = a[k + 1, k] = 1.0
    return MetaPathGraph(sp.csr_matrix(a))


def random_graph(rng, n, p=0.4):
    """Connected-ish random undirected graph, no self loops."""
    a = (rng.random((n, n)) < p).astype(float)
    a = np.triu(a, 1)
    for k in range(n - 1):
        a[k, k + 1] = 1.0
    a = a + a.T
    return MetaPathGraph(sp.csr_matrix(a))


def sparse_graph(rng, n, p):
    """Random undirected graph without the connecting spine: many components."""
    a = sp.triu(sp.random(n, n, density=p, random_state=rng), 1)
    a.data[:] = 1.0
    return sp.csr_matrix(a + a.T)


def shuffled_path(rng, n):
    perm = rng.permutation(n)
    u, v = perm[:-1], perm[1:]
    return sp.csr_matrix((np.ones(2 * (n - 1)), (np.r_[u, v], np.r_[v, u])), shape=(n, n))


def disconnected_graph(rng):
    """Random blocks of 2 to 12 nodes, some with a dangling tail, plus five
    isolated nodes, under a shuffled node order."""
    blocks = [random_graph(rng, int(m), p=0.3).adjacency
              for m in rng.integers(2, 13, size=6)]
    a = sp.block_diag(blocks + [sp.csr_matrix((5, 5))], format="csr")
    perm = rng.permutation(a.shape[0])
    return MetaPathGraph(sp.csr_matrix(a[perm][:, perm]))


class TestComponents:
    def check(self, adjacency):
        labels = connected_components(adjacency)
        oracle = bfs_components(adjacency)
        assert same_partition(labels.tolist(), oracle)
        # numbered 0, 1, ... in order of each component's smallest node
        firsts = [int(np.flatnonzero(labels == c)[0]) for c in range(labels.max() + 1)]
        assert firsts == sorted(firsts)
        return labels

    def test_empty_graphs(self):
        assert connected_components(sp.csr_matrix((0, 0))).tolist() == []
        assert self.check(sp.csr_matrix((6, 6))).tolist() == list(range(6))

    def test_isolated_nodes(self):
        a = sp.lil_matrix((7, 7))
        for u, v in ((1, 4), (4, 6), (2, 5)):
            a[u, v] = a[v, u] = 1.0
        assert self.check(sp.csr_matrix(a)).tolist() == [0, 1, 2, 3, 1, 2, 1]

    def test_random_sparse(self):
        rng = np.random.default_rng(4)
        for n, p in ((1, 0.5), (20, 0.05), (60, 0.02), (200, 0.005), (300, 0.01)):
            self.check(sparse_graph(rng, n, p))

    def test_shuffled_path(self):
        labels = self.check(shuffled_path(np.random.default_rng(8), 3000))
        assert not labels.any()


def assert_matches_dense(graph, X, K):
    """The profile against the dense-eigh oracle: eigenvalues, energy per
    distinct eigenvalue, band energies where no band edge cuts a repeated
    eigenvalue, and band_max."""
    prof = spectral_profile(graph, X, K)
    eigs, energies, edges, bands, band_max = dense_profile(
        graph.adjacency, X.sum(axis=1), K)
    assert np.max(np.abs(prof.eigenvalues - eigs)) <= 1e-12
    total = energies.sum()
    # clusters of numerically equal eigenvalues; their energy is basis-free
    cluster = np.concatenate(([0], np.cumsum(np.diff(eigs) > 1e-8)))
    assert np.max(np.abs(np.bincount(cluster, prof.energies)
                         - np.bincount(cluster, energies))) <= 1e-10 * total
    clean = [e in (0, len(eigs)) or cluster[e] != cluster[e - 1] for e in edges]
    checked = [k for k in range(K) if clean[k] and clean[k + 1]]
    assert checked
    assert np.max(np.abs(prof.band_energies[checked] - bands[checked])) <= 1e-10
    assert abs(prof.band_max - band_max) <= 1e-12
    return prof


class TestProfileExact:
    def test_connected_matches_dense(self):
        rng = np.random.default_rng(12)
        g = random_graph(rng, 40, p=0.1)
        assert connected_components(g.adjacency).max() == 0
        assert_matches_dense(g, rng.standard_normal((40, 3)), K=5)

    def test_one_component_is_one_dense_eigh(self):
        rng = np.random.default_rng(13)
        g = random_graph(rng, 30, p=0.2)
        X = rng.standard_normal((30, 2))
        prof = spectral_profile(g, X, K=4)
        eigs, U = np.linalg.eigh(
            laplacian(g.adjacency).toarray())
        assert np.array_equal(prof.eigenvalues, eigs)
        assert np.array_equal(prof.fourier_coeffs, U.T @ X.sum(axis=1))

    def test_disconnected_with_isolated_nodes_matches_dense(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            g = disconnected_graph(rng)
            assert connected_components(g.adjacency).max() >= 6
            assert_matches_dense(g, rng.standard_normal((g.num_nodes, 3)), K=3)


class TestSHigh:
    def test_edge_extremes(self):
        L = laplacian(edge_graph().adjacency)
        assert s_high(np.array([1.0, -1.0]), L) == pytest.approx(2.0)
        assert s_high(np.array([1.0, 1.0]), L) == pytest.approx(0.0)

    def test_path_unnormalized(self):
        a = path_graph(3).adjacency.toarray()
        L = np.diag(a.sum(axis=1)) - a    # D - A
        assert s_high(np.array([1.0, 0.0, -1.0]), L) == pytest.approx(1.0)

    def test_rayleigh_bounds(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 12)
        L = laplacian(g.adjacency)
        eigs = np.linalg.eigvalsh(L.toarray())
        for _ in range(20):
            v = rng.standard_normal(12)
            val = s_high(v, L)
            assert eigs[0] - 1e-10 <= val <= eigs[-1] + 1e-10

    def test_scale_invariant(self):
        L = laplacian(path_graph(4).adjacency)
        x = np.array([0.3, -1.2, 0.7, 2.0])
        assert s_high(x, L) == pytest.approx(s_high(7.5 * x, L), rel=1e-12)

    def test_zero_vector(self):
        L = laplacian(edge_graph().adjacency)
        with pytest.raises(ValueError, match="zero vector"):
            s_high(np.zeros(2), L)


class TestGraphSHigh:
    def test_single_column(self):
        X = np.array([[1.0], [-1.0]])
        assert graph_s_high(edge_graph(), X) == pytest.approx(2.0)

    def test_mean_over_columns(self):
        X = np.array([[1.0, 1.0], [-1.0, 1.0]])
        assert graph_s_high(edge_graph(), X) == pytest.approx(1.0)

    def test_zero_columns_skipped(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert graph_s_high(edge_graph(), X) == pytest.approx(2.0)

    def test_empty_graph(self):
        g = MetaPathGraph(sp.csr_matrix((2, 2)))
        with pytest.raises(ValueError, match="no edges"):
            graph_s_high(g, np.ones((2, 1)))

    def test_all_zero_features(self):
        with pytest.raises(ValueError, match="zero"):
            graph_s_high(edge_graph(), np.zeros((2, 3)))


class TestProfile:
    def test_parseval(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(6, 25))
            g = random_graph(rng, n)
            X = rng.standard_normal((n, 3))
            prof = spectral_profile(g, X, K=3)
            signal = X.sum(axis=1)
            assert prof.energies.sum() == pytest.approx(signal @ signal, rel=1e-10)
            assert prof.band_energies.sum() == pytest.approx(signal @ signal, rel=1e-10)

    def test_band_edges_remainder_to_last(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng, 10)
        prof = spectral_profile(g, rng.standard_normal((10, 2)), K=3)
        assert prof.band_edges.tolist() == [0, 3, 6, 10]

    def test_eigenvalues_sorted_in_range(self):
        rng = np.random.default_rng(7)
        g = random_graph(rng, 15)
        prof = spectral_profile(g, rng.standard_normal((15, 2)), K=5)
        assert np.all(np.diff(prof.eigenvalues) >= -1e-12)
        assert prof.eigenvalues[0] >= -1e-10
        assert prof.eigenvalues[-1] <= 2 + 1e-10

    def test_band_max_on_pure_eigenvector(self):
        rng = np.random.default_rng(9)
        g = random_graph(rng, 8)
        L = laplacian(g.adjacency).toarray()
        eigs, U = np.linalg.eigh(L)
        # all energy lands in one coefficient; with K = n each band holds one
        # eigenvalue, so band_max is exactly the eigenvalue of that component
        for j in (0, 3, 7):
            prof = spectral_profile(g, U[:, j].reshape(-1, 1), K=8)
            assert prof.band_max == pytest.approx(eigs[j], abs=1e-9)

    def test_validation(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, 5)
        X = rng.standard_normal((5, 2))
        with pytest.raises(ValueError, match="K"):
            spectral_profile(g, X, K=6)
        with pytest.raises(ValueError, match="K"):
            spectral_profile(g, X, K=0)
        with pytest.raises(ValueError, match="subsample"):
            spectral_profile(g, X, K=2, eig_cap=4)


class TestSubsample:
    def test_noop_below_cap(self):
        rng = np.random.default_rng(1)
        g = random_graph(rng, 10)
        X = rng.standard_normal((10, 2))
        g2, X2 = subsample_graph(g, X, cap=10, seed=0)
        assert g2 is g and X2 is X

    def test_seeded_and_induced(self):
        rng = np.random.default_rng(1)
        g = random_graph(rng, 20)
        X = rng.standard_normal((20, 3))
        g1, X1 = subsample_graph(g, X, cap=8, seed=4)
        g2, X2 = subsample_graph(g, X, cap=8, seed=4)
        assert (g1.adjacency != g2.adjacency).nnz == 0
        assert np.array_equal(X1, X2)
        assert g1.num_nodes == 8 and X1.shape == (8, 3)
        g3, _ = subsample_graph(g, X, cap=8, seed=5)
        assert (g1.adjacency != g3.adjacency).nnz != 0

    def test_profile_capped_matches_when_small(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 12)
        X = rng.standard_normal((12, 2))
        a = spectral_profile(g, X, K=4)
        b = profile_capped(g, X, K=4, eig_cap=3000, seed=9)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert a.band_max == b.band_max

    def test_profile_capped_large_graph(self):
        rng = np.random.default_rng(6)
        g = random_graph(rng, 40, p=0.2)
        X = rng.standard_normal((40, 2))
        prof = profile_capped(g, X, K=3, eig_cap=16, seed=2)
        assert len(prof.eigenvalues) == 16


class TestDivisions:
    def _graphs_and_features(self, rng, count, n=9):
        graphs = [random_graph(rng, n, p=float(rng.uniform(0.2, 0.9)))
                  for _ in range(count)]
        X = rng.standard_normal((n, 3))
        return graphs, X

    def test_six_graphs_partition(self):
        rng = np.random.default_rng(21)
        graphs, X = self._graphs_and_features(rng, 6)
        labels, reps, scores = select_representatives(graphs, X)
        assert DEGENERATE_DIVISION not in reps
        order = sorted(range(6), key=lambda k: (scores[k], k))
        assert [labels[k] for k in order] == [
            "low", "low", "mid", "mid", "high", "high"]
        assert reps == {"low": order[0], "mid": order[2], "high": order[4]}

    def test_remainders_go_late(self):
        rng = np.random.default_rng(22)
        for count, sizes in ((7, (2, 2, 3)), (5, (1, 2, 2)), (8, (2, 3, 3))):
            graphs, X = self._graphs_and_features(rng, count)
            labels, reps, scores = select_representatives(graphs, X)
            order = sorted(range(count), key=lambda k: (scores[k], k))
            got = [labels[k] for k in order]
            expected = []
            for div, size in zip(DIVISIONS, sizes):
                expected += [div] * size
            assert got == expected, f"count={count}"
            pos = 0
            for div, size in zip(DIVISIONS, sizes):
                chunk = order[pos:pos + size]
                assert reps[div] == chunk[(size - 1) // 2]
                pos += size

    def test_three_graphs_one_each(self):
        rng = np.random.default_rng(23)
        graphs, X = self._graphs_and_features(rng, 3)
        labels, reps, scores = select_representatives(graphs, X)
        order = sorted(range(3), key=lambda k: (scores[k], k))
        assert [labels[k] for k in order] == ["low", "mid", "high"]
        assert [reps[d] for d in DIVISIONS] == order

    def test_two_graphs_degenerate(self):
        rng = np.random.default_rng(24)
        graphs, X = self._graphs_and_features(rng, 2)
        labels, reps, scores = select_representatives(graphs, X)
        assert DEGENERATE_DIVISION in reps
        assert labels.count(DEGENERATE_DIVISION) == 2
        order = sorted(range(2), key=lambda k: (scores[k], k))
        assert reps == {DEGENERATE_DIVISION: order[0]}
        assert tuple(reps) == (DEGENERATE_DIVISION,)

    def test_empty_graphs_unlabeled(self):
        rng = np.random.default_rng(25)
        graphs, X = self._graphs_and_features(rng, 3)
        graphs.insert(1, MetaPathGraph(sp.csr_matrix((9, 9))))
        labels, reps, scores = select_representatives(graphs, X)
        assert labels[1] is None
        assert scores[1] is None
        assert DEGENERATE_DIVISION not in reps

    def test_all_empty(self):
        empty = MetaPathGraph(sp.csr_matrix((4, 4)))
        with pytest.raises(ValueError, match="no nonempty"):
            select_representatives([empty, empty], np.ones((4, 1)))

    def test_scores_match_graph_s_high(self):
        rng = np.random.default_rng(26)
        graphs, X = self._graphs_and_features(rng, 4)
        scores = select_representatives(graphs, X)[2]
        for g, s in zip(graphs, scores):
            assert s == pytest.approx(graph_s_high(g, X), rel=1e-12)


class TestAssignFilter:
    FULL = [1, 2, 4, 8, 16, 32, 64, 128]

    def test_flat_signal_gets_one(self):
        assert assign_filter(0.0, self.FULL) == 1

    def test_low_band(self):
        assert assign_filter(0.65, self.FULL) == 2

    def test_high_band(self):
        # 1.9 sits between mode(32)=1.8788 and mode(64)=1.9339; 32 is nearer
        assert assign_filter(1.9, self.FULL) == 32

    def test_order_independent(self):
        shuffled = [64, 1, 32, 8, 128, 2, 16, 4]
        for bm in (0.0, 0.65, 1.3, 1.9, 2.0):
            assert assign_filter(bm, shuffled) == assign_filter(bm, self.FULL)

    def test_single_candidate(self):
        assert assign_filter(1.9, [3]) == 3

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            assign_filter(1.0, [])


class TestFusion:
    def test_single_division_is_plain_filter(self):
        f = fuse_filters({"all": 4}, "all")
        expected = chi_response(4, f.grid)
        expected = expected / np.trapezoid(expected, f.grid)
        assert np.allclose(f.response, expected, atol=1e-12)

    def test_unit_mass_and_nonnegative(self):
        f = fuse_filters({"low": 2, "mid": 4, "high": 16}, "high")
        assert np.trapezoid(f.response, f.grid) == pytest.approx(1.0, rel=1e-12)
        assert np.all(f.response >= 0.0)

    def test_weights_cancel(self):
        asg = {"low": 2, "mid": 4, "high": 8}
        a = fuse_filters(asg, "mid", w_d=0.1)
        b = fuse_filters(asg, "mid", w_d=0.9)
        c = fuse_filters(asg, "high", w_d=0.1)
        assert np.allclose(a.response, b.response, atol=1e-12)
        assert np.allclose(a.response, c.response, atol=1e-12)

    def test_mode_preserved_midrange(self):
        # self-fusion keeps the peak near the filter mode only in midrange;
        # below it the convolution widens the peak right, above it the [0, 2]
        # truncation drags it left
        for i in (4, 8):
            f = fuse_filters({"low": i, "mid": i, "high": i}, "low")
            peak = f.grid[np.argmax(f.response)]
            assert abs(peak - chi_mode(i)) <= 0.1, f"i={i}"

    def test_mode_drift_frozen_outside_midrange(self):
        for i, drift in ((1, 0.6667), (2, 0.2698), (16, 0.1420)):
            f = fuse_filters({"low": i, "mid": i, "high": i}, "low")
            peak = f.grid[np.argmax(f.response)]
            assert abs(peak - chi_mode(i)) == pytest.approx(drift, abs=0.005)

    def test_poly_degree_rule(self):
        f = fuse_filters({"low": 2, "mid": 8, "high": 4}, "low", d=3)
        assert f.poly.degree == 8 - 1 + 3
        f2 = fuse_filters({"all": 4}, "all", d=2)
        assert f2.poly.degree == 4 - 1 + 2

    def test_poly_tracks_response(self):
        f = fuse_filters({"low": 2, "mid": 4, "high": 8}, "mid")
        assert f.poly.fit_error_linf <= 0.05

    def test_chi_square_additivity_oracle(self):
        # numerical convolution of two chi-square densities must reproduce
        # the closed-form density with summed degrees of freedom; this checks
        # the convolution machinery the fusion rides on against an
        # independent analytic route
        for k1, k2 in ((2, 4), (4, 4), (6, 8)):
            grid = np.linspace(0.0, 60.0, 6000)
            h = grid[1] - grid[0]
            conv = np.convolve(chi2_density(grid, k1), chi2_density(grid, k2)) * h
            support = np.linspace(0.0, 120.0, len(conv))
            got = np.interp(grid, support, conv)
            want = chi2_density(grid, k1 + k2)
            assert np.max(np.abs(got - want)) <= 1e-3, f"k1={k1} k2={k2}"

    def test_validation(self):
        with pytest.raises(ValueError, match="own division"):
            fuse_filters({"low": 2}, "mid")
        with pytest.raises(ValueError, match="w_d"):
            fuse_filters({"low": 2}, "low", w_d=0.0)
        with pytest.raises(ValueError, match="w_d"):
            fuse_filters({"low": 2}, "low", w_d=1.5)


class TestTheorem1:
    def test_beats_best_individual(self):
        rng = np.random.default_rng(31)
        for trial in range(10):
            n = int(rng.integers(5, 14))
            g = random_graph(rng, n)
            L = laplacian(g.adjacency)
            k = int(rng.integers(2, 5))
            X = rng.standard_normal((n, k))
            w, achieved = theorem1_search(X, L)
            best_single = max(s_high(X[:, j], L) for j in range(k))
            assert achieved >= best_single - 1e-12, f"trial {trial}"
            assert achieved == pytest.approx(s_high(X @ w, L), rel=1e-12)

    def test_two_eigenvectors_reach_larger(self):
        rng = np.random.default_rng(32)
        g = random_graph(rng, 8)
        L = laplacian(g.adjacency)
        eigs, U = np.linalg.eigh(L.toarray())
        X = U[:, [2, 6]]
        _, achieved = theorem1_search(X, L)
        # combinations of two eigenvectors span Rayleigh values [eig2, eig6]
        assert achieved == pytest.approx(eigs[6], abs=1e-6)

    def test_collinear_signals(self):
        # a repeated and a zero column leave the span, and so the optimum, as is
        rng = np.random.default_rng(34)
        g = random_graph(rng, 9)
        L = laplacian(g.adjacency)
        X = rng.standard_normal((9, 2))
        padded = np.column_stack([X[:, 0], 2.0 * X[:, 0], np.zeros(9), X[:, 1]])
        w, achieved = theorem1_search(padded, L)
        assert np.all(np.isfinite(w))
        assert achieved == pytest.approx(theorem1_search(X, L)[1], rel=1e-12)
        with pytest.raises(ValueError, match="every signal is zero"):
            theorem1_search(np.zeros((9, 2)), L)

    def test_needs_two_columns(self):
        L = laplacian(edge_graph().adjacency)
        with pytest.raises(ValueError, match="two signal columns"):
            theorem1_search(np.ones((2, 1)), L)
