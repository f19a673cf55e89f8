import gc
import time
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from chigad import autodiff as ad
from chigad.autodiff import (ACTIVATIONS, LEAKY_SLOPE, Tape, activation, add,
                             add_bias, basis_combine, cheb_apply, clenshaw,
                             csr_product, elementwise_mul, matmul, monomial_powers,
                             node_sum, row_slice, scale, sparse_poly_apply, vstack,
                             weighted_softmax_ce)
from chigad.config import sub_seed
from chigad.model import build_model, forward_pass
from chigad.synthetic import generate_synthetic_hin
from oracles import (activation_grad_with_mask, dense_poly_apply, fd_gradient,
                     grad_mismatch)
from test_acceptance import BENCH_SPEC, bench_config

FD_TOL = 1e-6


def ring_operator(n):
    a = np.zeros((n, n))
    for k in range(n):
        a[k, (k + 1) % n] = a[(k + 1) % n, k] = 1.0
    return sp.csr_matrix(a)


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

    def test_scale_by_zero(self):
        t = Tape()
        out = scale(t.leaf(np.ones((2, 2))), t.leaf(0.0))
        assert np.all(out.value == 0.0)

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
        loss = node_sum(activation(x, "relu"))
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
        # same powers, same summation order: equal bit for bit
        rng = np.random.default_rng(11)
        S = directed_operator(7)
        X = rng.standard_normal((7, 3))
        coeffs = rng.standard_normal(5)
        t = Tape()
        w = t.leaf(1.3)
        got = basis_combine(coeffs, list(monomial_powers(S, X, 5)), w)
        want = sparse_poly_apply(coeffs, S, t.leaf(X), w)
        assert np.array_equal(got.value, want.value)
        # a longer basis is read up to the coefficients' length; a shorter one
        # is refused
        longer = basis_combine(coeffs, list(monomial_powers(S, X, 7)), w)
        assert np.array_equal(longer.value, want.value)
        with pytest.raises(ValueError, match="5 coefficients for a basis of 4 powers"):
            basis_combine(coeffs, list(monomial_powers(S, X, 4)), w)

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
        assert np.array_equal(row_slice(stacked, 2, 3).value, b.value)


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
        self.check(lambda t, n: node_sum(matmul(n[0], n[1])), [A, B])

    def test_add_and_bias(self):
        rng = np.random.default_rng(1)
        X, Y, b = rng.standard_normal((3, 2)), rng.standard_normal((3, 2)), rng.standard_normal(2)
        self.check(lambda t, n: node_sum(add(n[0], n[1])), [X, Y])
        self.check(lambda t, n: node_sum(elementwise_mul(add_bias(n[0], n[2]), n[1])),
                   [X, Y, b])

    def test_scale(self):
        rng = np.random.default_rng(2)
        X, s = rng.standard_normal((2, 3)), np.asarray(1.3)
        self.check(lambda t, n: node_sum(elementwise_mul(scale(n[0], n[1]),
                                                         scale(n[0], n[1]))),
                   [X, s])

    @pytest.mark.parametrize("kind", ACTIVATIONS)
    def test_activations(self, kind):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((4, 3)) + 0.05  # stay off the relu kink
        self.check(lambda t, n: node_sum(elementwise_mul(activation(n[0], kind),
                                                         activation(n[0], kind))),
                   [X])

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
        t.backward(node_sum(elementwise_mul(y, t.leaf(G))))
        want = activation_grad_with_mask(v, G, kind, LEAKY_SLOPE)
        assert x.grad.tobytes() == want.tobytes()

    def test_sparse_poly_inputs_and_weight(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((5, 2))
        w = np.asarray(0.7)
        coeffs = np.array([0.5, -1.0, 0.25])
        # the x gradient applies S^T, which a directed operator tells apart
        for S in (ring_operator(5), directed_operator(5)):
            def build(t, n):
                y = sparse_poly_apply(coeffs, S, n[0], n[1])
                return node_sum(elementwise_mul(y, y))

            self.check(build, [X, w])

    def test_basis_combine_weight(self):
        rng = np.random.default_rng(12)
        S = directed_operator(6, seed=1)
        X = rng.standard_normal((6, 2))
        coeffs = np.array([0.5, -1.0, 0.25, 0.8])
        basis = list(monomial_powers(S, X, len(coeffs)))

        def build(t, n):
            y = basis_combine(coeffs, basis, n[0])
            return node_sum(elementwise_mul(y, y))

        self.check(build, [np.asarray(0.7)])

    def test_weighted_ce(self):
        rng = np.random.default_rng(6)
        Z = rng.standard_normal((6, 2))
        labels = rng.integers(0, 2, 6)
        weights = rng.uniform(0.5, 2.5, 6)
        mask = np.array([True, False, True, True, False, True])
        self.check(lambda t, n: weighted_softmax_ce(n[0], labels, weights, mask), [Z])

    def test_vstack_row_slice_sum(self):
        rng = np.random.default_rng(7)
        A, B = rng.standard_normal((2, 3)), rng.standard_normal((3, 3))

        def build(t, n):
            stacked = vstack([n[0], n[1]])
            return node_sum(elementwise_mul(row_slice(stacked, 1, 4),
                                            row_slice(stacked, 1, 4)))

        self.check(build, [A, B])

    def test_fanout_accumulates(self):
        t = Tape()
        x = t.leaf(np.array([[3.0]]))
        loss = node_sum(add(x, x))
        t.backward(loss)
        assert x.grad.tolist() == [[2.0]]

        t2 = Tape()
        y = t2.leaf(np.array([[3.0]]))
        t2.backward(node_sum(elementwise_mul(y, y)))
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
        loss = node_sum(x)
        t.backward(loss)
        with pytest.raises(RuntimeError, match="fresh tape"):
            t.backward(loss)

    def test_backward_releases_closures(self):
        t = Tape()
        x = t.leaf(np.ones((3, 2)))
        y = sparse_poly_apply([1.0, 0.5], ring_operator(3), x, t.leaf(0.9))
        unused = activation(x, "tanh")  # not on the loss path
        loss = node_sum(elementwise_mul(y, y))
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
            loss = node_sum(elementwise_mul(x, x))
            t.backward(loss)
            assert len(t.nodes) == 3          # the record itself stays intact
            assert all(node.tape is None for node in t.nodes)
            ref = weakref.ref(t)
            del t
            assert ref() is None
            assert np.array_equal(x.grad, 2 * np.ones((3, 2)))
            with pytest.raises(ValueError, match="finished tape"):
                add(x, x)
        finally:
            gc.enable()

    def test_release_frees_forward_only_tape(self):
        gc.disable()
        try:
            t = Tape()
            x = t.leaf(np.ones((3, 2)))
            y = elementwise_mul(x, x)
            t.release()
            assert len(t.nodes) == 2
            assert all(n.tape is None and n.backward_fn is None for n in t.nodes)
            ref = weakref.ref(t)
            del t
            assert ref() is None
            assert np.array_equal(y.value, np.ones((3, 2)))
        finally:
            gc.enable()

    def test_unrecorded_tape_keeps_nothing_and_refuses_backward(self):
        def build(t):
            x = t.leaf(np.ones((3, 2)))
            w = t.leaf(0.9)
            y = activation(sparse_poly_apply([1.0, 0.5], ring_operator(3), x, w), "relu")
            return x, y, node_sum(elementwise_mul(y, y))

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
            t.backward(add(x, x))

    def test_cross_tape_rejected(self):
        t1, t2 = Tape(), Tape()
        a, b = t1.leaf(np.ones((2, 2))), t2.leaf(np.ones((2, 2)))
        with pytest.raises(ValueError, match="different tapes"):
            add(a, b)
        with pytest.raises(ValueError, match="different tape"):
            t1.backward(node_sum(b))

    def test_shape_errors(self):
        t = Tape()
        with pytest.raises(ValueError, match="matmul"):
            matmul(t.leaf(np.ones((2, 3))), t.leaf(np.ones((2, 3))))
        with pytest.raises(ValueError, match="add shape"):
            add(t.leaf(np.ones((2, 3))), t.leaf(np.ones((3, 2))))
        with pytest.raises(ValueError, match="bias"):
            add_bias(t.leaf(np.ones((2, 3))), t.leaf(np.ones(2)))
        with pytest.raises(ValueError, match="scalar"):
            scale(t.leaf(np.ones(2)), t.leaf(np.ones(2)))
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

    @pytest.mark.parametrize("layout", ["fortran", "column_slice"])
    def test_clenshaw_any_layout(self, layout):
        n = 40
        M = symmetric_operator(n, seed=3)
        cheb = np.random.default_rng(4).standard_normal(7)
        wide = np.random.default_rng(5).standard_normal((n, 9))
        x = np.asfortranarray(wide) if layout == "fortran" else wide[:, 2:7]
        assert not x.flags.c_contiguous
        got = clenshaw(cheb, M, x)
        assert np.array_equal(got, clenshaw(cheb, M, np.ascontiguousarray(x)))
        # the same series by the textbook three-term recurrence
        t_prev, t_cur = x, 0.5 * (M @ x)
        want = cheb[0] * t_prev + cheb[1] * t_cur
        for ak in cheb[2:]:
            t_prev, t_cur = t_cur, M @ t_cur - t_prev
            want = want + ak * t_cur
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("form", ["float32_csr", "csc", "dense"])
    def test_clenshaw_refuses_other_operators(self, form):
        # the only kernel is scipy's float64 CSR product
        M = symmetric_operator(20, seed=9)
        M = {"float32_csr": M.astype(np.float32), "csc": M.tocsc(),
             "dense": M.toarray()}[form]
        x = np.random.default_rng(10).standard_normal((20, 3))
        with pytest.raises(ValueError, match="float64 CSR matrix"):
            clenshaw(np.ones(4), M, x)
        with pytest.raises(ValueError, match="float64 CSR matrix"):
            cheb_apply(np.ones(4), M, Tape().leaf(x))

    def test_cheb_apply_writes_neither_input_nor_gradient(self):
        n = 30
        M = symmetric_operator(n, seed=6)
        cheb = np.random.default_rng(7).standard_normal(6)
        rng = np.random.default_rng(8)
        x, g = rng.standard_normal((n, 4)), rng.standard_normal((n, 4))
        x_before, g_before = x.copy(), g.copy()
        x.flags.writeable = False
        g.flags.writeable = False
        t = Tape()
        leaf = t.leaf(x)
        y = cheb_apply(cheb, M, leaf)
        y.backward_fn(g)
        assert np.array_equal(x, x_before) and np.array_equal(g, g_before)
        assert np.array_equal(y.value, clenshaw(cheb, M, x_before))
        assert np.array_equal(leaf.grad, clenshaw(cheb, M, g_before))
        assert not np.shares_memory(y.value, x) and not np.shares_memory(leaf.grad, g)

    def test_add_parents_get_separate_gradients(self):
        t = Tape()
        a, b = t.leaf(np.ones((3, 2))), t.leaf(np.ones((3, 2)))
        t.backward(node_sum(add(a, b)))
        assert a.grad is not b.grad
        assert not np.shares_memory(a.grad, b.grad)
        a.grad += 1.0
        assert b.grad.tolist() == [[1.0, 1.0]] * 3


class TestSplit:
    """From SPLIT_MIN entries on, clenshaw and csr_product cut the rows into
    WORKERS contiguous ranges of about equal work, which run at once, once
    per degree in clenshaw; every row is computed as in one call, so the
    result is the same bit for bit."""

    @staticmethod
    def operator(rows, seed):
        # a 2-row operator is filled, so that it is not zero
        return symmetric_operator(rows, seed, density=1.0 if rows == 2 else 0.05)

    @staticmethod
    def signal(rows, width):
        # a strided view, as a caller may pass: one column, or a column slice
        wide = np.random.default_rng(13).standard_normal((rows, 40))
        return wide[:, 5] if width is None else wide[:, 3:3 + width]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("width", [None, 1, 7, 33])
    @pytest.mark.parametrize("terms", [1, 8, 9])
    def test_clenshaw_split_is_one_call(self, monkeypatch, workers, width, terms, rows=50):
        # 8 and 9 terms end in different buffers
        M = self.operator(rows, seed=11)
        cheb = np.random.default_rng(12).standard_normal(terms)
        x = self.signal(rows, width)
        monkeypatch.setattr(ad, "SPLIT_MIN", 10**18)
        want = clenshaw(cheb, M, x)
        monkeypatch.setattr(ad, "SPLIT_MIN", 0)
        monkeypatch.setattr(ad, "WORKERS", workers)
        assert len(ad._parts(M, x.size)) == min(workers, rows)
        got = clenshaw(cheb, M, x)
        assert got.shape == x.shape and got.flags.c_contiguous
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("width", [None, 1, 7, 33])
    def test_csr_product_split_is_matmul(self, monkeypatch, workers, width, rows=50):
        # one range is scipy's kernel on a zeroed result, as M @ x runs it
        M = self.operator(rows, seed=14)
        x = self.signal(rows, width)
        monkeypatch.setattr(ad, "SPLIT_MIN", 0)
        monkeypatch.setattr(ad, "WORKERS", workers)
        got = csr_product(M, x)
        assert got.shape == x.shape
        assert np.array_equal(got, M @ x)

    @pytest.mark.parametrize("width", [None, 1, 7, 33])
    @pytest.mark.parametrize("terms", [1, 8, 9])
    def test_fewer_rows_than_workers(self, monkeypatch, width, terms):
        # 2 rows at 3 workers: two ranges of one row each
        self.test_clenshaw_split_is_one_call(monkeypatch, 3, width, terms, rows=2)
        self.test_csr_product_split_is_matmul(monkeypatch, 3, width, rows=2)

    def test_split_allocates_three_buffers(self, monkeypatch):
        # x is read where it lies, strided, and never written; the split
        # allocates nothing of x's size but the three buffers of one call
        M = symmetric_operator(1000, seed=16)
        x = np.random.default_rng(17).standard_normal((1000, 64))[:, ::2]
        before = x.copy()
        cheb = np.random.default_rng(18).standard_normal(9)
        monkeypatch.setattr(ad, "SPLIT_MIN", 0)
        monkeypatch.setattr(ad, "WORKERS", 2)
        clenshaw(cheb, M, x)        # makes the pool outside the trace
        tracemalloc.start()
        try:
            clenshaw(cheb, M, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(x, before)
        assert peak <= 3 * x.nbytes + 64 * 1024

    def test_run_parts_waits_for_every_range(self, monkeypatch):
        # one pool range of three fails at once while another still runs:
        # the error leaves only after that range is done, and an error in
        # the calling thread's range wins over a pool range's
        monkeypatch.setattr(ad, "WORKERS", 3)
        done = []

        def fn(lo, hi):
            if lo == 1:
                raise RuntimeError("pool range")
            if lo == 2:
                time.sleep(0.2)
                done.append(lo)
            elif fn.first_fails:
                raise ValueError("first range")

        for fn.first_fails, error in ((False, RuntimeError), (True, ValueError)):
            done.clear()
            with pytest.raises(error):
                ad._run_parts(fn, [(0, 1), (1, 2), (2, 3)])
            assert done == [2]

    def test_cut_balances_work(self, monkeypatch):
        # a row costs one unit plus one per stored entry: with one entry in
        # each of the first 50 rows and ten in each of the last 50, the two
        # ranges meet at row 71 (cost 331 of 650), not at row 50
        counts = np.repeat([1, 10], 50)
        indptr = np.r_[0, np.cumsum(counts)]
        indices = np.concatenate([np.arange(c) for c in counts])
        M = sp.csr_matrix((np.ones(indptr[-1]), indices, indptr), shape=(100, 100))
        monkeypatch.setattr(ad, "WORKERS", 2)
        monkeypatch.setattr(ad, "SPLIT_MIN", 100)
        assert ad._parts(M, 100) == [(0, 71), (71, 100)]
        assert ad._parts(M, 99) == [(0, 100)]

    def test_split_refuses_misfit_rows(self, monkeypatch):
        monkeypatch.setattr(ad, "SPLIT_MIN", 0)
        M = symmetric_operator(20, seed=15)
        x = np.ones((21, 4))
        for run in (lambda: clenshaw(np.ones(3), M, x), lambda: csr_product(M, x)):
            with pytest.raises(ValueError, match="does not fit signal rows 21"):
                run()

    def test_c7_stays_on_one_call(self):
        # c7's conv input (600 x 32) and its contributions' representation
        # (400 x 32) sit below the split, where two threads lose
        cfg = bench_config(0)
        graph = generate_synthetic_hin(BENCH_SPEC, sub_seed(0, "synth"))
        fp = forward_pass(build_model(graph, cfg), record=False)
        assert fp.conv_input.value.shape == (600, 32)
        assert fp.rep.value.shape == (400, 32)
        assert 600 * 32 < ad.SPLIT_MIN <= 12_000 * 32
