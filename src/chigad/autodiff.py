"""Minimal reverse-mode automatic differentiation over dense arrays.

Just enough machinery to train the model: a Tape records Nodes in creation
order (which is automatically a topological order), and backward() walks the
list in exact reverse, accumulating gradients additively across fan-out.
Learnable tensors are dense; sparse graph operators enter only as fixed
constants inside sparse_poly_apply and cheb_apply, or already applied: as the
precomputed powers that basis_combine weighs, or as a fixed dense block of a
polynomial of one, which dense_apply multiplies.  The model's meta-graph
convolution takes dense_apply when its target block p(S)[lo:hi] is no larger
than the conv input and cheap next to the recurrence, and cheb_apply followed
by row_slice otherwise (see model.MetaGraphConvLayer).  One tape serves one
forward/backward pass; a finished tape refuses a second backward and has
released every backward closure, so the arrays they captured are freed with
the last reference.  Its nodes also drop their reference back to it, which
breaks the tape <-> node cycle: a finished tape, with every value and grad it
holds, is freed by reference counting once the caller lets go, not at the
next cyclic garbage collection.  A tape that will run no backward is finished
by release().  A forward-only pass builds its tape with record=False instead:
it keeps neither a node list nor backward closures, so an intermediate value
lives only as long as the caller or the next op holds it, and a backward on
it raises.  activation keeps only its output y and reads the local derivative
off it (y > 0, or 1 - y^2 for tanh), so no mask is stored either.

Gradients accumulate in place: a node's first gradient is stored as a copy
of the incoming one, and later ones are added into it.  cheb_apply's
recurrence allocates nothing per degree: it makes three buffers of the
input's size, and each sparse product is added straight into one of them
with scipy's CSR kernel, so its operator is a float64 CSR matrix.  Both
clenshaw and csr_product, the training loop's product with the Laplacian,
run over the row ranges of _parts: one range below SPLIT_MIN entries, else
one contiguous range of about equal work per CPU this process may run on
(WORKERS), run at once, the first in the calling thread and the others on a
pool made at the first split; the kernel and numpy's elementwise passes
release the GIL.  A row of M y reads only its own row of M, and the
recurrence's elementwise passes never mix rows, so a row is computed by the
same operations in the same order whatever its range: a split result is the
one-range result bit for bit, and whether to split depends on shapes alone.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from functools import partial

import numpy as np
from scipy.sparse import _sparsetools


class Tape:
    """Append-only record of one forward computation.  A tape made with
    record=False records nothing: it keeps no node list and its nodes keep no
    backward closure, so each intermediate value is freed as soon as nothing
    but the next op reads it, and a backward on it is an error."""

    def __init__(self, record: bool = True):
        self.record = record
        self.nodes: list[Node] | tuple = [] if record else ()
        self.finalized = False

    def leaf(self, value, name: str = "leaf") -> "Node":
        return Node(self, np.asarray(value, dtype=np.float64), name)

    def backward(self, loss: "Node") -> None:
        """Populate grads of every node reachable from loss.

        loss must be scalar; calling twice on one tape is an error (gradients
        would double-accumulate), build a fresh tape instead.
        """
        if not self.record:
            raise RuntimeError("this tape records nothing (record=False), so it has "
                               "no gradients; build a recording tape")
        if self.finalized:
            raise RuntimeError("this tape is finished; build a fresh tape")
        if loss.tape is not self:
            raise ValueError("loss node belongs to a different tape")
        if loss.value.ndim != 0:
            raise ValueError(f"backward root must be scalar, got shape {loss.value.shape}")
        self.finalized = True
        loss.grad = np.ones_like(loss.value)
        for node in reversed(self.nodes):
            backward_fn, node.backward_fn = node.backward_fn, None
            node.tape = None
            if node.grad is not None and backward_fn is not None:
                backward_fn(node.grad)

    def release(self) -> None:
        """Finish the tape without a backward pass: drop every closure and
        every node's reference to the tape, which breaks the cycle."""
        self.finalized = True
        for node in self.nodes:
            node.tape = None
            node.backward_fn = None


class Node:
    __slots__ = ("tape", "value", "grad", "op", "backward_fn")

    def __init__(self, tape, value, op, backward_fn=None):
        if tape is None:
            raise ValueError("operand belongs to a finished tape; build a fresh tape")
        self.tape = tape
        self.value = value
        self.grad = None
        self.op = op
        self.backward_fn = None
        if tape.record:
            self.backward_fn = backward_fn
            tape.nodes.append(self)

    def accumulate(self, g) -> None:
        # the first gradient is copied, never kept: add hands one g to both
        # parents, and either may later add into its grad in place
        if self.grad is None:
            self.grad = np.array(np.broadcast_to(g, self.value.shape), dtype=np.float64)
        else:
            self.grad += g

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node({self.op}, shape={self.value.shape})"


def _tape_of(*nodes) -> Tape:
    tapes = {n.tape for n in nodes}
    if len(tapes) != 1:
        raise ValueError("operands belong to different tapes")
    return tapes.pop()


def matmul(a: Node, b: Node) -> Node:
    tape = _tape_of(a, b)
    if a.value.shape[-1] != b.value.shape[0]:
        raise ValueError(f"matmul shape mismatch {a.value.shape} x {b.value.shape}")

    def backward(g):
        a.accumulate(g @ b.value.T)
        b.accumulate(a.value.T @ g)

    return Node(tape, a.value @ b.value, "matmul", backward)


def add(a: Node, b: Node) -> Node:
    tape = _tape_of(a, b)
    if a.value.shape != b.value.shape:
        raise ValueError(f"add shape mismatch {a.value.shape} vs {b.value.shape}")

    def backward(g):
        a.accumulate(g)
        b.accumulate(g)

    return Node(tape, a.value + b.value, "add", backward)


def add_bias(x: Node, bias: Node) -> Node:
    """Add a length-d bias row to every row of an n x d matrix."""
    tape = _tape_of(x, bias)
    if bias.value.ndim != 1 or x.value.shape[1] != bias.value.shape[0]:
        raise ValueError(f"bias shape {bias.value.shape} does not fit {x.value.shape}")

    def backward(g):
        x.accumulate(g)
        bias.accumulate(g.sum(axis=0))

    return Node(tape, x.value + bias.value[None, :], "add_bias", backward)


def scale(a: Node, s: Node) -> Node:
    """Multiply a matrix by a scalar node."""
    tape = _tape_of(a, s)
    if s.value.ndim != 0:
        raise ValueError("scale factor must be a scalar node")

    def backward(g):
        a.accumulate(g * s.value)
        s.accumulate(np.asarray((g * a.value).sum()))

    return Node(tape, a.value * s.value, "scale", backward)


def elementwise_mul(a: Node, b: Node) -> Node:
    tape = _tape_of(a, b)
    if a.value.shape != b.value.shape:
        raise ValueError(f"elementwise_mul shape mismatch {a.value.shape} vs {b.value.shape}")

    def backward(g):
        a.accumulate(g * b.value)
        b.accumulate(g * a.value)

    return Node(tape, a.value * b.value, "elementwise_mul", backward)


ACTIVATIONS = ("relu", "tanh", "leaky_relu")
LEAKY_SLOPE = 0.01


def activation(x: Node, kind: str) -> Node:
    """y = kind(x).  Only y is kept: the backward reads the local derivative
    off it, y > 0 exactly where x > 0, so no mask is stored."""
    if kind not in ACTIVATIONS:
        raise ValueError(f"unknown activation '{kind}'")
    v = x.value
    if kind == "relu":
        y = np.maximum(v, 0.0)

        def backward(g):
            x.accumulate(g * (y > 0.0))  # subgradient 0 at the kink
    elif kind == "leaky_relu":
        y = v * np.where(v > 0.0, 1.0, LEAKY_SLOPE)

        def backward(g):
            x.accumulate(g * np.where(y > 0.0, 1.0, LEAKY_SLOPE))
    else:
        y = np.tanh(v)

        def backward(g):
            x.accumulate(g * (1.0 - y * y))
    return Node(_tape_of(x), y, kind, backward)


def monomial_powers(mat, x: np.ndarray, count: int):
    """Yield mat^k x for k = 0 .. count-1 by iterated sparse products."""
    power = x
    yield power
    for _ in range(count - 1):
        power = mat @ power
        yield power


def weighted_sum(cvals, wpow, powers) -> np.ndarray:
    """sum_k c_k w^k P_k, in one summation order for every polynomial: a
    cached basis reproduces sparse_poly_apply bit for bit."""
    return np.asarray(sum(c * wk * p for c, wk, p in zip(cvals, wpow, powers)))


def sparse_poly_apply(coeffs, S, x: Node, meta_weight: Node | None = None) -> Node:
    """y = sum_k c_k (w S)^k x for fixed coefficients and a fixed sparse operator S.

    meta_weight is the learnable scalar w (None means fixed 1).  Gradients
    flow to x and to w; never to S or the coefficients.  S may be
    non-symmetric: the x gradient applies its transpose.
    """
    if S.shape[0] != S.shape[1] or x.value.shape[0] != S.shape[0]:
        raise ValueError(
            f"operator {S.shape} does not fit signal rows {x.value.shape[0]}")
    cvals = np.asarray(coeffs, dtype=np.float64)
    tape = _tape_of(x) if meta_weight is None else _tape_of(x, meta_weight)
    w = 1.0 if meta_weight is None else float(meta_weight.value)

    # powers[k] = S^k x is kept only when the w gradient needs it
    powers = monomial_powers(S, x.value, len(cvals))
    if meta_weight is not None:
        powers = list(powers)
    wpow = w ** np.arange(len(cvals))
    value = weighted_sum(cvals, wpow, powers)

    def backward(g):
        # dx: sum_k c_k w^k (S^T)^k g, built by iterated transpose passes
        x.accumulate(weighted_sum(cvals, wpow, monomial_powers(S.T, g, len(cvals))))
        if meta_weight is not None:
            meta_weight.accumulate(np.asarray(_dw(cvals, w, powers, g)))

    return Node(tape, value, "sparse_poly_apply", backward)


def _dw(cvals, w: float, powers, g) -> float:
    """d/dw of sum_k c_k w^k <g, powers[k]>."""
    dw = 0.0
    for k in range(1, len(cvals)):
        dw += cvals[k] * k * w ** (k - 1) * float((g * powers[k]).sum())
    return dw


# entries (rows * width) of the input from which clenshaw and csr_product
# cut their rows over WORKERS threads.  A split recurrence waits for every
# range once per degree.  On a shared 2-vCPU host, the benchmark's epoch_ms
# with every input split against none (alternating pairs) read the split
# slower on c7's setup at every size up to 288,000 conv input entries: +37%
# at c7's own 600 x 32 = 19,200, +3-8% from 48,000 on.  From 300,000 on it
# read -5% and +0.5% in two rounds on the defaults' 600 x 512 = 307,200, +1%
# on c7's setup at 336,000, and from -14% (10 of 10 pairs lower) to +6% in
# five rounds on plan-large's 12,000 x 32 = 384,000, -3% in the median
# round: a gain there rests on the load of the host.  Shapes alone decide,
# so a run computes the same bits on any host
SPLIT_MIN = 300_000
# threads a split runs on: the calling thread and WORKERS - 1 pool workers,
# made at the first split.  With one CPU nothing splits and no pool is made
WORKERS = len(os.sched_getaffinity(0))
_pool: ThreadPoolExecutor | None = None


def _check_csr(M, x: np.ndarray) -> None:
    if getattr(M, "format", None) != "csr" or M.dtype != np.float64:
        raise ValueError(f"operator must be a float64 CSR matrix, got {type(M).__name__}"
                         f" of {getattr(M, 'dtype', None)}")
    if x.shape[0] != M.shape[1]:
        raise ValueError(f"operator {M.shape} does not fit signal rows {x.shape[0]}")


def _parts(M, entries: int) -> list[tuple[int, int]]:
    """M's rows cut into one contiguous (lo, hi) range per worker once an
    input of `entries` entries reaches SPLIT_MIN, else the one range of them
    all.  A row costs one unit plus one per stored entry (its elementwise
    passes and its kernel products), and the cuts split that cost evenly."""
    rows = M.shape[0]
    count = min(WORKERS, rows) if entries >= SPLIT_MIN else 1
    if count == 1:
        return [(0, rows)]
    cost = M.indptr + np.arange(rows + 1)
    cuts = np.searchsorted(cost, cost[-1] * np.arange(count + 1) // count).tolist()
    cuts[0], cuts[-1] = 0, rows
    return list(zip(cuts[:-1], cuts[1:]))


def _run_parts(fn, ranges: list[tuple[int, int]]) -> None:
    """fn(lo, hi) for every range at once: the first in the calling thread,
    the others on the pool, made at the first call with more than one.  It
    returns, or raises, only once every range is done: the first range's
    error if it has one, else the first failed pool range's.  One range runs
    inline, with no pool and no future."""
    if len(ranges) == 1:
        return fn(*ranges[0])
    global _pool
    if _pool is None:
        _pool = ThreadPoolExecutor(WORKERS - 1, thread_name_prefix="chigad")
    futures = [_pool.submit(fn, *r) for r in ranges[1:]]
    try:
        fn(*ranges[0])
    finally:
        wait(futures)
    for f in futures:
        f.result()


def _add_product(M, src: np.ndarray, dst: np.ndarray, lo: int, hi: int) -> None:
    """dst[lo:hi] += (M src)[lo:hi] in place, for C-contiguous src and dst:
    scipy's CSR kernel on rows lo:hi of M, read where they lie."""
    width = src.shape[1] if src.ndim == 2 else 1
    _sparsetools.csr_matvecs(hi - lo, M.shape[1], width, M.indptr[lo:hi + 1], M.indices,
                             M.data, src.ravel(), dst[lo:hi].ravel())


def csr_product(M, x: np.ndarray) -> np.ndarray:
    """M @ x for a float64 CSR matrix M, bit for bit.  scipy's kernel adds
    each row's products into a zeroed result in the order M @ x does; from
    SPLIT_MIN entries on, the rows are cut into one contiguous range of about
    equal work per worker, filled at once.  A row of M x reads only its own
    row of M, so the ranges share x uncopied and write disjoint rows of one
    result."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    _check_csr(M, x)
    out = np.zeros((M.shape[0],) + x.shape[1:])
    _run_parts(partial(_add_product, M, x, out), _parts(M, x.size))
    return out


def _step(ak: float, M, x: np.ndarray, src: np.ndarray, dst: np.ndarray,
          scratch: np.ndarray, lo: int, hi: int) -> None:
    """dst = ak x - dst + M src on rows lo:hi, in place: two elementwise
    passes and the CSR kernel, which adds into dst."""
    rows, tmp = dst[lo:hi], scratch[lo:hi]
    np.multiply(x[lo:hi], ak, out=tmp)
    np.subtract(tmp, rows, out=rows)
    _add_product(M, src, dst, lo, hi)


def clenshaw(cheb, M, x: np.ndarray) -> np.ndarray:
    """sum_k a_k T_k(M/2) x by Clenshaw's recurrence, with one product with M
    per degree; M must be a float64 CSR matrix.

        b_k = a_k x + M b_(k+1) - b_(k+2),    y = a_0 x + M (b_1 / 2) - b_2

    Nothing is allocated but three buffers of x's size, and one of them is
    returned.  Per degree the recurrence makes two elementwise passes into
    them and adds M b_(k+1) straight into the buffer that holds
    a_k x - b_(k+2) with scipy's CSR kernel.  x is read where it lies, never
    copied or written.  Each degree's step runs over the row ranges of
    _parts, as csr_product's do: from SPLIT_MIN entries on, one range per
    worker, all at once, and the next degree starts when every range is
    done, since its product reads all of b_(k+1).  A row is computed by the
    same operations in the same order whatever its range, so the split
    result equals the one-range result bit for bit.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_csr(M, x)
    a = np.asarray(cheb, dtype=np.float64)
    b1, b2, scratch = np.empty(x.shape), np.zeros(x.shape), np.empty(x.shape)
    np.multiply(x, a[-1], out=b1)
    ranges = _parts(M, x.size)
    for k in range(len(a) - 2, -1, -1):
        if k == 0:
            b1 *= 0.5
        _run_parts(partial(_step, a[k], M, x, b1, b2, scratch), ranges)
        b1, b2 = b2, b1
    return b1


def cheb_apply(cheb, M, x: Node) -> Node:
    """y = sum_k a_k T_k(M/2) x for fixed Chebyshev coefficients and a fixed
    symmetric float64 CSR matrix M.  With M = 2(S - I) this is p(S) x for the polynomial
    p(w) = sum_k a_k T_k(w - 1) on [0, 2].  M is symmetric, so the gradient to
    x is the same series applied to the incoming gradient; nothing reaches M
    or the coefficients."""
    if M.shape[0] != M.shape[1] or x.value.shape[0] != M.shape[0]:
        raise ValueError(
            f"operator {M.shape} does not fit signal rows {x.value.shape[0]}")
    return Node(_tape_of(x), clenshaw(cheb, M, x.value), "cheb_apply",
                lambda g: x.accumulate(clenshaw(cheb, M, g)))


def dense_apply(P: np.ndarray, x: Node) -> Node:
    """y = P x for a fixed dense matrix P, one GEMM each way: the gradient
    reaches x only, as P^T g, and nothing reaches P."""
    if P.ndim != 2 or P.shape[1] != x.value.shape[0]:
        raise ValueError(f"matrix {P.shape} does not fit signal rows {x.value.shape[0]}")
    return Node(_tape_of(x), P @ x.value, "dense_apply",
                lambda g: x.accumulate(P.T @ g))


def basis_combine(coeffs, basis: list[np.ndarray], meta_weight: Node) -> Node:
    """y = sum_k c_k w^k B_k over constant precomputed powers B_k = S^k X.

    Equals sparse_poly_apply(coeffs, S, X, w) bit for bit when basis holds
    its powers, without a sparse product; the only gradient is dy/dw =
    sum_k c_k k w^(k-1) B_k, since the basis is a constant.  A basis longer
    than the coefficients is read up to their length.
    """
    cvals = np.asarray(coeffs, dtype=np.float64)
    if len(basis) < len(cvals):
        raise ValueError(f"{len(cvals)} coefficients for a basis of {len(basis)} powers")
    w = float(meta_weight.value)
    wpow = w ** np.arange(len(cvals))
    return Node(meta_weight.tape, weighted_sum(cvals, wpow, basis), "basis_combine",
                lambda g: meta_weight.accumulate(np.asarray(_dw(cvals, w, basis, g))))


def weighted_softmax_ce(logits: Node, labels: np.ndarray, weights: np.ndarray,
                        mask: np.ndarray) -> Node:
    """Weighted two-class cross-entropy over masked rows.

    loss = -(1/N) sum_masked w_i log softmax(logits_i)[y_i], stabilized by
    max-subtraction.  N is the masked count; gradients reach logits only.
    """
    if logits.value.ndim != 2 or logits.value.shape[1] != 2:
        raise ValueError("logits must be n x 2")
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("empty mask")
    labels = np.asarray(labels, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)

    z = logits.value[mask]
    y = labels[mask]
    wts = weights[mask]
    n = z.shape[0]
    zmax = z.max(axis=1, keepdims=True)
    shifted = z - zmax
    logsum = np.log(np.exp(shifted).sum(axis=1))
    logp = shifted - logsum[:, None]
    loss = -(wts * logp[np.arange(n), y]).sum() / n

    def backward(g):
        p = np.exp(logp)
        p[np.arange(n), y] -= 1.0
        full = np.zeros_like(logits.value)
        full[mask] = (float(g) / n) * wts[:, None] * p
        logits.accumulate(full)

    return Node(_tape_of(logits), np.asarray(loss), "weighted_softmax_ce", backward)


def vstack(blocks: list[Node]) -> Node:
    if not blocks:
        raise ValueError("nothing to stack")
    tape = _tape_of(*blocks)
    widths = {b.value.shape[1] for b in blocks}
    if len(widths) != 1:
        raise ValueError(f"blocks have mixed widths {sorted(widths)}")
    offsets = np.cumsum([0] + [b.value.shape[0] for b in blocks])

    def backward(g):
        for b, lo, hi in zip(blocks, offsets[:-1], offsets[1:]):
            b.accumulate(g[lo:hi])

    return Node(tape, np.vstack([b.value for b in blocks]), "vstack", backward)


def row_slice(x: Node, start: int, stop: int) -> Node:
    if not (0 <= start < stop <= x.value.shape[0]):
        raise ValueError(f"row slice [{start}:{stop}] out of range for {x.value.shape}")

    def backward(g):
        # added into the parent's rows: no full-size copy of g is built
        if x.grad is None:
            x.grad = np.zeros_like(x.value)
        x.grad[start:stop] += g

    return Node(x.tape, x.value[start:stop].copy(), "row_slice", backward)


def node_sum(x: Node) -> Node:
    return Node(x.tape, np.asarray(x.value.sum()), "sum",
                lambda g: x.accumulate(np.full_like(x.value, float(g))))
