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
recurrence allocates nothing per degree: the calling thread makes three
buffers of the input's size, and each sparse product is added straight into
one of them with scipy's CSR kernel, so its operator is a float64 CSR matrix.
An input of at least SPLIT_MIN entries is cut into WORKERS contiguous column
parts (one per CPU this process may run on), each buffer into one block per
part, and the parts' recurrences run at once, the first in the calling
thread and the others on a pool made at the first split; the kernel and
numpy's elementwise passes release the GIL.  The columns of the recurrence
never mix and each is computed by the same operations in the same order, so
a split result is the one-part result bit for bit, and whether to split
depends on shapes alone.  csr_product, the training loop's product with the
Laplacian, splits the rows of its result the same way.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
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
# split their work over WORKERS threads.  On 2 vCPU the recurrence's split
# lost on c7's conv input (600 x 32 = 19,200: 0.8 -> 1.2 ms per call), tied at
# 48,000 and won from 96,000 on (plan-large's 384,000: 58 -> 30 ms); one
# product's split tied at 12,800 and won from 32,000 (0.66 -> 0.43 ms).
# Shapes alone decide, so a run computes the same bits on any host
SPLIT_MIN = 100_000
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


def _parts(length: int, entries: int) -> list[slice]:
    """range(length) cut into one contiguous slice per worker once an input
    of `entries` entries reaches SPLIT_MIN, else the one slice of it all."""
    count = min(WORKERS, length) if entries >= SPLIT_MIN else 1
    cuts = [length * i // count for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]


def _run_parts(fn, jobs: list[tuple]) -> list:
    """[fn(*job) for job in jobs], the first job in the calling thread and
    the others on the pool at the same time."""
    global _pool
    if _pool is None:
        _pool = ThreadPoolExecutor(WORKERS - 1, thread_name_prefix="chigad")
    futures = [_pool.submit(fn, *job) for job in jobs[1:]]
    return [fn(*jobs[0])] + [f.result() for f in futures]


def _add_product(M, src: np.ndarray, dst: np.ndarray, lo: int = 0,
                 hi: int | None = None) -> np.ndarray:
    """dst[lo:hi] += (M src)[lo:hi] in place, for C-contiguous src and dst:
    scipy's CSR kernel on rows lo:hi of M, read where they lie."""
    hi = M.shape[0] if hi is None else hi
    width = src.shape[1] if src.ndim == 2 else 1
    _sparsetools.csr_matvecs(hi - lo, M.shape[1], width, M.indptr[lo:hi + 1], M.indices,
                             M.data, src.ravel(), dst[lo:hi].ravel())
    return dst


def csr_product(M, x: np.ndarray) -> np.ndarray:
    """M @ x for a float64 CSR matrix M, bit for bit.  From SPLIT_MIN entries
    on, the result's rows are cut into one contiguous range per worker, and
    scipy's kernel fills the ranges at once, as M @ x fills all rows: a row
    of M x reads only its own row of M, so the ranges share x uncopied and
    write disjoint rows of one zeroed result."""
    x = np.asarray(x, dtype=np.float64)
    _check_csr(M, x)
    rows = M.shape[0]
    parts = _parts(rows, x.size)
    if len(parts) == 1:
        return M @ x
    x = np.ascontiguousarray(x)
    out = np.zeros((rows,) + x.shape[1:])
    _run_parts(partial(_add_product, M, x, out), [(p.start, p.stop) for p in parts])
    return out


def _carve(buffer: np.ndarray, rows: int, parts: list[slice]) -> list[np.ndarray]:
    """A C-contiguous buffer of rows * width entries cut into one C-contiguous
    rows x w block per column part, in order."""
    flat, blocks, start = buffer.reshape(-1), [], 0
    for cols in parts:
        stop = start + rows * (cols.stop - cols.start)
        blocks.append(flat[start:stop].reshape(rows, -1))
        start = stop
    return blocks


def _recurrence(a: np.ndarray, M, x: np.ndarray, b1: np.ndarray, b2: np.ndarray,
                scratch: np.ndarray) -> np.ndarray:
    """clenshaw on x, of any layout, in three C-contiguous buffers shaped like
    it (b2 zeroed); returns the buffer that holds the result.  It allocates
    nothing: x is only read, by elementwise passes, and every write goes to a
    buffer through out= or the CSR kernel."""
    np.multiply(x, a[-1], out=b1)
    if len(a) == 1:
        return b1
    for ak in a[-2:0:-1]:
        np.multiply(x, ak, out=scratch)
        np.subtract(scratch, b2, out=b2)
        _add_product(M, b1, b2)
        b1, b2 = b2, b1
    np.multiply(x, a[0], out=scratch)
    np.subtract(scratch, b2, out=b2)
    b1 *= 0.5
    return _add_product(M, b1, b2)


def clenshaw(cheb, M, x: np.ndarray) -> np.ndarray:
    """sum_k a_k T_k(M/2) x by Clenshaw's recurrence, with one product with M
    per degree; M must be a float64 CSR matrix.

        b_k = a_k x + M b_(k+1) - b_(k+2),    y = a_0 x + M (b_1 / 2) - b_2

    Nothing is allocated but three buffers of x's size, made by the calling
    thread; one of them is returned.  Per degree the recurrence makes two
    elementwise passes into them and adds M b_(k+1) straight into the buffer
    that holds a_k x - b_(k+2) with scipy's CSR kernel.  x is read through
    views, never copied or written.  From SPLIT_MIN entries on, the columns
    are cut into contiguous parts, each buffer into one C-contiguous block
    per part, and the parts run at once on the workers; the result blocks
    are then copied, column for column, into a buffer that holds no result.
    Column j of every block is computed by the same operations in the same
    order whatever the part's width, so the split result equals the one-part
    result bit for bit.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_csr(M, x)
    a = np.asarray(cheb, dtype=np.float64)
    rows = M.shape[0]
    parts = _parts(x.shape[1] if x.ndim == 2 else 1, x.size)
    if len(parts) == 1:
        return _recurrence(a, M, x, np.empty(x.shape), np.zeros(x.shape), np.empty(x.shape))
    # the same three buffers in the same order with the first two roles
    # swapped: the result blocks end in the buffer one call would free, and
    # are joined into the one it would return.  The heap is then left as one
    # call leaves it; returning another buffer raised plan-large's peak RSS
    # by 2-4 MB
    first, second, scratch = np.zeros(x.shape), np.empty(x.shape), np.empty(x.shape)
    blocks = _run_parts(partial(_recurrence, a, M), [
        (x[:, cols], *part) for cols, *part in
        zip(parts, *(_carve(b, rows, parts) for b in (second, first, scratch)))])
    out = second if np.may_share_memory(first, blocks[0]) else first
    for cols, block in zip(parts, blocks):
        out[:, cols] = block
    return out


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
