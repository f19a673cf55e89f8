import gc
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from chigad.autodiff import (ACTIVATIONS, LEAKY_SLOPE, Tape, activation, add_bias,
                             clenshaw, matmul, monomial_powers, sparse_poly_apply,
                             vstack, weighted_softmax_ce)
from chigad.chifilter import PolyFilter
from chigad.model import (BankEntry, MetaGraphConvLayer, MultiGraphFilterBank,
                          multi_graph_forward)
from conftest import inner
from oracles import (activation_grad_with_mask, dense_poly_apply, fd_gradient,
                     grad_mismatch)

FD_TOL = 1e-6


def ring_operator(n):
    a = np.zeros((n, n))
    for k in range(n):
        a[k, (k + 1) % n] = a[(k + 1) % n, k] = 1.0
    return sp.csr_matrix(a)


def bank_of(S, X, chebs, lengths=None):
    """A filter bank with one entry per series, on the powers S^k X; entry j
    caches lengths[j] of them (default: as many as its coefficients)."""
    entries = []
    for j, cheb in enumerate(chebs):
        count = len(cheb) if lengths is None else lengths[j]
        entries.append(BankEntry(PolyFilter(cheb, 0.0), f"w{j}",
                                 list(monomial_powers(S, X, count))))
    return MultiGraphFilterBank("t", entries)


def conv_of(n, rows, width, cheb=(0.7, -0.4, 0.3, 0.2)):
    """A conv layer on the ring of n nodes; width picks its path."""
    return MetaGraphConvLayer(ring_operator(n), [PolyFilter(np.array(cheb), 0.0)],
                              rows, width)


def directed_operator(n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.5)
    assert not np.allclose(a, a.T)
    return sp.csr_matrix(a)


class TestValues:
    def test_identity_matmul(self):
        t = Tape()
        b = t.leaf(np.arange(6.0).reshape(3, 2))
        out = matmul(t.leaf(np.eye(3)), b)
        assert np.array_equal(out.value, b.value)

    def test_activation_values(self):
        t = Tape()
        v = np.array([[-2.0, 0.0, 3.0]])
        assert np.array_equal(activation(t.leaf(v), "relu").value, [[0.0, 0.0, 3.0]])
        got = activation(t.leaf(v), "leaky_relu").value
        assert np.allclose(got, [[-2.0 * LEAKY_SLOPE, 0.0, 3.0]])
        assert np.allclose(activation(t.leaf(v), "tanh").value, np.tanh(v))

    def test_relu_subgradient_zero_at_kink(self):
        t = Tape()
        x = t.leaf(np.array([[0.0, 1.0, -1.0]]))
        loss = inner(activation(x, "relu"))
        t.backward(loss)
        assert x.grad.tolist() == [[0.0, 1.0, 0.0]]

    def test_edge_poly_shift(self):
        # y = S x on a single undirected edge swaps the two entries
        t = Tape()
        S = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        x = t.leaf(np.array([[2.0], [-2.0]]))
        out = sparse_poly_apply([0.0, 1.0], S, x)
        assert np.array_equal(out.value, [[-2.0], [2.0]])

    def test_poly_matches_dense_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n, d, deg = int(rng.integers(3, 12)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
            a = np.triu(rng.integers(0, 2, (n, n)), 1) * rng.random((n, n))
            S = sp.csr_matrix(a + a.T)
            coeffs = rng.standard_normal(deg + 1)
            w = float(rng.uniform(0.2, 2.0))
            X = rng.standard_normal((n, d))
            t = Tape()
            out = sparse_poly_apply(coeffs, S, t.leaf(X), t.leaf(w))
            want = dense_poly_apply(coeffs * w ** np.arange(deg + 1), S.toarray(), X)
            assert np.allclose(out.value, want, atol=1e-12)

    def test_basis_combine_matches_sparse_poly(self):
        # the bank node: same powers, same summation order, entries added in
        # bank order, so it equals a sum of sparse_poly_apply bit for bit
        rng = np.random.default_rng(11)
        S = directed_operator(7)
        X = rng.standard_normal((7, 3))
        chebs = [rng.standard_normal(5), rng.standard_normal(3)]
        t = Tape()
        ws = {"w0": t.leaf(1.3), "w1": t.leaf(0.6)}
        bank = bank_of(S, X, chebs)
        got = multi_graph_forward(bank, ws)
        spa = [sparse_poly_apply(e.poly.coeffs, S, t.leaf(X), ws[e.weight_name])
               for e in bank.entries]
        assert np.array_equal(got.value, spa[0].value + spa[1].value)
        assert [n.op for n in t.nodes].count("filter_bank") == 1
        # a longer basis is read up to the coefficients' length; a shorter one
        # is refused
        longer = multi_graph_forward(bank_of(S, X, chebs, [7, 3]), ws)
        assert np.array_equal(longer.value, got.value)
        with pytest.raises(ValueError, match="5 coefficients for a basis of 4 powers"):
            multi_graph_forward(bank_of(S, X, chebs, [4, 3]), ws)

    def test_ce_perfect_prediction(self):
        t = Tape()
        logits = t.leaf(np.array([[30.0, -30.0], [-30.0, 30.0]]))
        loss = weighted_softmax_ce(logits, np.array([0, 1]), np.ones(2),
                                   np.ones(2, bool))
        assert float(loss.value) == pytest.approx(0.0, abs=1e-12)

    def test_ce_uniform_logits(self):
        t = Tape()
        logits = t.leaf(np.array([[0.0, 0.0]]))
        loss = weighted_softmax_ce(logits, np.array([1]), np.ones(1), np.ones(1, bool))
        assert float(loss.value) == pytest.approx(np.log(2.0), rel=1e-12)

    def test_ce_weight_scales_loss(self):
        logits_val = np.array([[0.4, -1.1], [2.0, 0.5]])
        labels = np.array([0, 1])
        mask = np.ones(2, bool)
        t1, t2 = Tape(), Tape()
        l1 = weighted_softmax_ce(t1.leaf(logits_val), labels, np.ones(2), mask)
        l2 = weighted_softmax_ce(t2.leaf(logits_val), labels, 2.0 * np.ones(2), mask)
        assert float(l2.value) == pytest.approx(2.0 * float(l1.value), rel=1e-12)

    def test_ce_mask_restricts(self):
        logits_val = np.array([[0.4, -1.1], [99.0, -99.0]])
        t1, t2 = Tape(), Tape()
        only_first = weighted_softmax_ce(t1.leaf(logits_val), np.array([0, 1]),
                                         np.ones(2), np.array([True, False]))
        alone = weighted_softmax_ce(t2.leaf(logits_val[:1]), np.array([0]),
                                    np.ones(1), np.array([True]))
        assert float(only_first.value) == pytest.approx(float(alone.value), rel=1e-12)

    def test_vstack_row_slice(self):
        t = Tape()
        a = t.leaf(np.ones((2, 3)))
        b = t.leaf(2 * np.ones((1, 3)))
        stacked = vstack([a, b])
        assert stacked.value.shape == (3, 3)
        assert np.array_equal(stacked.value[2:3], b.value)
        # the conv node keeps its target rows of p(S) x, here of x itself
        identity = conv_of(3, (2, 3), 0, cheb=(1.0,))
        assert np.array_equal(identity.apply(stacked).value, b.value)


class TestGradients:
    def check(self, build, params, tol=FD_TOL):
        """FD-check gradients of scalar build(tape, leaf_nodes) w.r.t. params."""
        def run():
            t = Tape()
            nodes = [t.leaf(p) for p in params]
            loss = build(t, nodes)
            return t, nodes, loss

        t, nodes, loss = run()
        t.backward(loss)
        for j, p in enumerate(params):
            numeric = fd_gradient(lambda: float(run()[2].value), p)
            analytic = nodes[j].grad
            assert analytic is not None, f"param {j} got no gradient"
            assert grad_mismatch(analytic, numeric) < tol, f"param {j}"

    def test_matmul_chain(self):
        rng = np.random.default_rng(0)
        A, B = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
        self.check(lambda t, n: inner(matmul(n[0], n[1])), [A, B])

    def test_add_and_bias(self):
        # the bias add, used twice, so both parents sum a fan-out
        rng = np.random.default_rng(1)
        X, b, G = rng.standard_normal((3, 2)), rng.standard_normal(2), rng.standard_normal((6, 2))

        def build(t, n):
            y = add_bias(n[0], n[1])
            return inner(vstack([y, y]), G)

        self.check(build, [X, b])

    @pytest.mark.parametrize("kind", ACTIVATIONS)
    def test_activations(self, kind):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((4, 3)) + 0.05  # stay off the relu kink
        G = rng.standard_normal((8, 3))
        self.check(lambda t, n: inner(vstack([activation(n[0], kind),
                                              activation(n[0], kind)]), G), [X])

    @pytest.mark.parametrize("kind", ACTIVATIONS)
    def test_activation_grad_read_off_output(self, kind):
        # bit for bit the gradient of the float64 input mask, at the kink
        # (0.0 and -0.0), at subnormals and at NaN; the closure keeps y only
        tiny = np.finfo(float).smallest_subnormal
        v = np.array([[0.0, -0.0, tiny, -tiny, 1e-300, -1e-300, 3.0, -3.0],
                      [1e3, -1e3, 25.0, -25.0, np.nan, 0.5, -0.5, 2e-9]])
        G = np.random.default_rng(5).standard_normal(v.shape)
        G[0, :2] = [-1.5, 2.5]
        t = Tape()
        x = t.leaf(v)
        y = activation(x, kind)
        kept = [c.cell_contents for c in y.backward_fn.__closure__]
        assert [a for a in kept if isinstance(a, np.ndarray)] == [y.value]
        t.backward(inner(y, G))
        want = activation_grad_with_mask(v, G, kind, LEAKY_SLOPE)
        assert x.grad.tobytes() == want.tobytes()

    def test_sparse_poly_inputs_and_weight(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((5, 2))
        w = np.asarray(0.7)
        coeffs = np.array([0.5, -1.0, 0.25])
        G = rng.standard_normal((10, 2))
        # the x gradient applies S^T, which a directed operator tells apart
        for S in (ring_operator(5), directed_operator(5)):
            def build(t, n):
                y = sparse_poly_apply(coeffs, S, n[0], n[1])
                return inner(vstack([y, y]), G)

            self.check(build, [X, w])

    def test_basis_combine_weight(self):
        # the bank node's gradient, to each entry's weight
        rng = np.random.default_rng(12)
        S = directed_operator(6, seed=1)
        X = rng.standard_normal((6, 2))
        bank = bank_of(S, X, [np.array([0.5, -1.0, 0.25, 0.8]), np.array([0.3, 0.9])])
        G = rng.standard_normal((6, 2))

        def build(t, n):
            return inner(multi_graph_forward(bank, {"w0": n[0], "w1": n[1]}), G)

        self.check(build, [np.asarray(0.7), np.asarray(1.2)])

    def test_weighted_ce(self):
        rng = np.random.default_rng(6)
        Z = rng.standard_normal((6, 2))
        labels = rng.integers(0, 2, 6)
        weights = rng.uniform(0.5, 2.5, 6)
        mask = np.array([True, False, True, True, False, True])
        self.check(lambda t, n: weighted_softmax_ce(n[0], labels, weights, mask), [Z])

    def test_vstack_row_slice_sum(self):
        # vstack, then the conv node's rows 1:4 on each of its paths
        rng = np.random.default_rng(7)
        A, B = rng.standard_normal((2, 3)), rng.standard_normal((3, 3))
        G = rng.standard_normal((3, 3))
        for width in (2, 3):
            conv = conv_of(5, (1, 4), width)
            assert (conv.block is None) == (width == 2)

            def build(t, n):
                return inner(conv.apply(vstack([n[0], n[1]])), G)

            self.check(build, [A, B])

    def test_fanout_accumulates(self):
        # x keeps its first gradient by reference, a view of the stack's, and
        # sums the second out of place, not into that view
        t = Tape()
        x = t.leaf(np.array([[3.0]]))
        stacked = vstack([x, x])
        t.backward(inner(stacked, [[2.0], [5.0]]))
        assert x.grad.tolist() == [[7.0]]
        assert stacked.grad.tolist() == [[2.0], [5.0]]

        t2 = Tape()
        y = t2.leaf(np.array([[3.0]]))
        t2.backward(inner(matmul(y, y)))
        assert y.grad.tolist() == [[6.0]]

    def test_end_to_end_mlp(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((5, 3))
        W1, b1 = rng.standard_normal((3, 4)), rng.standard_normal(4)
        W2 = rng.standard_normal((4, 2))
        labels = rng.integers(0, 2, 5)
        wts = rng.uniform(0.5, 2.0, 5)
        mask = np.ones(5, bool)
        S = ring_operator(5)

        def build(t, n):
            h = activation(add_bias(matmul(n[0], n[1]), n[2]), "tanh")
            h = sparse_poly_apply(np.array([1.0, 0.4]), S, h, n[4])
            return weighted_softmax_ce(matmul(h, n[3]), labels, wts, mask)

        self.check(build, [X, W1, b1, W2, np.asarray(0.8)], tol=1e-5)


class TestTapeDiscipline:
    def test_double_backward_rejected(self):
        t = Tape()
        x = t.leaf(np.ones((2, 2)))
        loss = inner(x)
        t.backward(loss)
        with pytest.raises(RuntimeError, match="fresh tape"):
            t.backward(loss)

    def test_backward_releases_closures(self):
        t = Tape()
        x = t.leaf(np.ones((3, 2)))
        y = sparse_poly_apply([1.0, 0.5], ring_operator(3), x, t.leaf(0.9))
        unused = activation(x, "tanh")  # not on the loss path
        loss = inner(vstack([y, y]))
        assert unused.backward_fn is not None
        t.backward(loss)
        assert x.grad is not None
        assert len(t.nodes) == 6
        assert all(node.backward_fn is None for node in t.nodes)
        with pytest.raises(RuntimeError, match="fresh tape"):
            t.backward(loss)

    def test_finished_tape_freed_without_cyclic_gc(self):
        gc.disable()
        try:
            t = Tape()
            x = t.leaf(np.ones((3, 2)))
            loss = inner(vstack([x, x]))
            t.backward(loss)
            assert len(t.nodes) == 3          # the record itself stays intact
            assert all(node.tape is None for node in t.nodes)
            ref = weakref.ref(t)
            del t
            assert ref() is None
            assert np.array_equal(x.grad, 2 * np.ones((3, 2)))
            with pytest.raises(ValueError, match="finished tape"):
                vstack([x, x])
        finally:
            gc.enable()

    def test_unfinished_tape_freed_by_cyclic_gc(self):
        # a recording tape dropped without a backward is a cycle (tape ->
        # nodes -> tape), so the cyclic collector frees it
        gc.disable()
        try:
            t = Tape()
            y = vstack([t.leaf(np.ones((3, 2))), t.leaf(np.ones((3, 2)))])
            ref = weakref.ref(t)
            del t, y
            assert ref() is not None
            gc.collect()
            assert ref() is None
        finally:
            gc.enable()

    def test_unrecorded_tape_keeps_nothing_and_refuses_backward(self):
        def build(t):
            x = t.leaf(np.ones((3, 2)))
            w = t.leaf(0.9)
            y = activation(sparse_poly_apply([1.0, 0.5], ring_operator(3), x, w), "relu")
            return x, y, inner(vstack([y, y]))

        t = Tape(record=False)
        x, y, loss = build(t)
        assert len(t.nodes) == 0 and y.backward_fn is None and loss.backward_fn is None
        assert loss.value == build(Tape())[2].value
        with pytest.raises(RuntimeError, match="records nothing"):
            t.backward(loss)
        assert x.grad is None
        with pytest.raises(AttributeError):
            t.nodes.append(x)

    def test_non_scalar_root(self):
        t = Tape()
        x = t.leaf(np.ones((2, 2)))
        with pytest.raises(ValueError, match="scalar"):
            t.backward(vstack([x, x]))

    def test_cross_tape_rejected(self):
        t1, t2 = Tape(), Tape()
        a, b = t1.leaf(np.ones((2, 2))), t2.leaf(np.ones((2, 2)))
        with pytest.raises(ValueError, match="different tapes"):
            vstack([a, b])
        with pytest.raises(ValueError, match="different tape"):
            t1.backward(inner(b))

    def test_shape_errors(self):
        t = Tape()
        with pytest.raises(ValueError, match="matmul"):
            matmul(t.leaf(np.ones((2, 3))), t.leaf(np.ones((2, 3))))
        with pytest.raises(ValueError, match="bias"):
            add_bias(t.leaf(np.ones((2, 3))), t.leaf(np.ones(2)))
        with pytest.raises(ValueError, match="unknown activation"):
            activation(t.leaf(np.ones(2)), "gelu")
        with pytest.raises(ValueError, match="n x 2"):
            weighted_softmax_ce(t.leaf(np.ones((2, 3))), np.zeros(2), np.ones(2),
                                np.ones(2, bool))
        with pytest.raises(ValueError, match="empty mask"):
            weighted_softmax_ce(t.leaf(np.ones((2, 2))), np.zeros(2), np.ones(2),
                                np.zeros(2, bool))
        with pytest.raises(ValueError, match="stack"):
            vstack([])
        with pytest.raises(ValueError, match="does not fit"):
            sparse_poly_apply([1.0], ring_operator(3), t.leaf(np.ones((4, 1))))

    def test_replay_determinism(self):
        def run():
            rng = np.random.default_rng(12)
            t = Tape()
            x = t.leaf(rng.standard_normal((4, 3)))
            w = t.leaf(rng.standard_normal((3, 2)))
            loss = weighted_softmax_ce(matmul(x, w), np.array([0, 1, 1, 0]),
                                       np.ones(4), np.ones(4, bool))
            t.backward(loss)
            return float(loss.value), w.grad.copy()

        v1, g1 = run()
        v2, g2 = run()
        assert v1 == v2
        assert np.array_equal(g1, g2)


def symmetric_operator(n, seed=0, density=0.05):
    rng = np.random.default_rng(seed)
    a = sp.random(n, n, density=density, random_state=seed, format="csr")
    a.data = rng.standard_normal(a.nnz)
    return sp.csr_matrix(a + a.T)


class TestInPlaceKernels:
    """clenshaw adds each sparse product into its own buffer through scipy's
    private csr_matvecs; these tests fail loudly if that kernel moves or
    changes meaning, or if the in-place code writes where it must not."""

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("width", [1, 512])
    def test_csr_matvecs_accumulates_product(self, index_dtype, width):
        n = 60
        M = symmetric_operator(n, seed=1)
        indptr, indices = M.indptr.astype(index_dtype), M.indices.astype(index_dtype)
        rng = np.random.default_rng(2)
        b = rng.standard_normal((n, width))
        y = rng.standard_normal((n, width))
        before, b_before = y.copy(), b.copy()
        _sparsetools.csr_matvecs(n, n, width, indptr, indices, M.data, b.ravel(), y.ravel())
        want = before + M @ b
        assert np.max(np.abs(y - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.array_equal(b, b_before)

    @pytest.mark.parametrize("layout, terms", [
        pytest.param("fortran", 7, id="fortran"),
        pytest.param("column_slice", 7, id="column_slice"),
        pytest.param("column", 7, id="column"),
        # 8 and 9 terms end in different buffers
        pytest.param("column_slice", 1, id="terms_1"),
        pytest.param("column_slice", 8, id="terms_8"),
        pytest.param("column_slice", 9, id="terms_9"),
    ])
    def test_clenshaw_any_layout(self, layout, terms):
        n = 40
        M = symmetric_operator(n, seed=3)
        cheb = np.random.default_rng(4).standard_normal(terms)
        wide = np.random.default_rng(5).standard_normal((n, 9))
        x = {"fortran": np.asfortranarray(wide), "column_slice": wide[:, 2:7],
             "column": wide[:, 2]}[layout]
        assert not x.flags.c_contiguous
        got = clenshaw(cheb, M, x)
        assert got.shape == x.shape and got.flags.c_contiguous
        assert np.array_equal(got, clenshaw(cheb, M, np.ascontiguousarray(x)))
        # the same series by the textbook three-term recurrence
        t = [x, 0.5 * (M @ x)]
        while len(t) < terms:
            t.append(M @ t[-1] - t[-2])
        want = sum(ak * tk for ak, tk in zip(cheb, t))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_clenshaw_allocates_three_buffers(self):
        # x is read where it lies, strided, and never written; nothing of
        # x's size is allocated but the three buffers
        M = symmetric_operator(1000, seed=16)
        x = np.random.default_rng(17).standard_normal((1000, 64))[:, ::2]
        before = x.copy()
        cheb = np.random.default_rng(18).standard_normal(9)
        tracemalloc.start()
        try:
            clenshaw(cheb, M, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(x, before)
        assert peak <= 3 * x.nbytes + 64 * 1024

    def test_clenshaw_refuses_misfit_rows(self):
        M = symmetric_operator(20, seed=15)
        with pytest.raises(ValueError, match="does not fit signal rows 21"):
            clenshaw(np.ones(3), M, np.ones((21, 4)))

    @pytest.mark.parametrize("form", ["float32_csr", "csc", "dense"])
    def test_clenshaw_refuses_other_operators(self, form):
        # the only kernel is scipy's float64 CSR product
        M = symmetric_operator(20, seed=9)
        M = {"float32_csr": M.astype(np.float32), "csc": M.tocsc(),
             "dense": M.toarray()}[form]
        x = np.random.default_rng(10).standard_normal((20, 3))
        with pytest.raises(ValueError, match="float64 CSR matrix"):
            clenshaw(np.ones(4), M, x)
        # the conv layer builds its own operator, a float64 CSR matrix,
        # from an adjacency in any of these forms
        conv = MetaGraphConvLayer(abs(M), [PolyFilter(np.ones(4), 0.0)], (0, 5), 3)
        assert conv.matrix.format == "csr" and conv.matrix.dtype == np.float64

    def test_cheb_apply_writes_neither_input_nor_gradient(self):
        # the conv node, on each path
        n, lo, hi = 30, 4, 9
        cheb = np.random.default_rng(7).standard_normal(6)
        rng = np.random.default_rng(8)
        x, g = rng.standard_normal((n, 5)), rng.standard_normal((hi - lo, 5))
        x_before, g_before = x.copy(), g.copy()
        x.flags.writeable = False
        g.flags.writeable = False
        for width in (4, 5):
            conv = conv_of(n, (lo, hi), width, cheb)
            assert (conv.block is None) == (width == 4)
            t = Tape()
            leaf = t.leaf(x)
            y = conv.apply(leaf)
            y.backward_fn(g)
            assert np.array_equal(x, x_before) and np.array_equal(g, g_before)
            full = np.zeros((n, 5))
            full[lo:hi] = g_before
            want_y = clenshaw(conv.cheb, conv.matrix, x_before)[lo:hi]
            want_grad = clenshaw(conv.cheb, conv.matrix, full)
            if conv.block is None:
                assert np.array_equal(y.value, want_y)
                assert np.array_equal(leaf.grad, want_grad)
            else:
                assert np.max(np.abs(y.value - want_y)) <= 1e-12 * np.max(np.abs(want_y))
                assert np.max(np.abs(leaf.grad - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))
            assert not np.shares_memory(y.value, x) and not np.shares_memory(leaf.grad, g)
