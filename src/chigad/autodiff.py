"""Minimal reverse-mode automatic differentiation over dense arrays.

A Tape records Nodes in creation order (a topological order), and backward()
walks the list in exact reverse, accumulating gradients across fan-out.  The
model's two spectral stages are one node each, recorded by the layers that
own them (model.multi_graph_forward, model.MetaGraphConvLayer.apply) from the
kernels kept here: weighted_sum and _dw over cached powers, and clenshaw.
sparse_poly_apply, the reference they are checked against, is the one op
that takes a sparse operator.  A finished tape refuses a second backward and
has dropped every backward closure and every node's reference back to it, so
it is freed by reference counting once the caller lets go; a recording tape
that runs no backward is left to the cyclic garbage collector.  A tape made
with record=False keeps neither nodes nor closures, and a backward on it
raises.  activation keeps only its output and reads the local derivative off
it, so no mask is stored.

No op writes into a gradient array, so a node keeps the first gradient it is
handed by reference and sums later ones out of place.  clenshaw allocates
nothing per degree: three buffers of the input's size, and scipy's CSR kernel
adds each sparse product straight into one of them, so its operator is a
float64 CSR matrix.  It runs over all rows in the calling thread.
"""

from __future__ import annotations

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
        # kept by reference: no op writes into a gradient array
        self.grad = g if self.grad is None else self.grad + g


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


def add_bias(x: Node, bias: Node) -> Node:
    """Add a length-d bias row to every row of an n x d matrix."""
    tape = _tape_of(x, bias)
    if bias.value.ndim != 1 or x.value.shape[1] != bias.value.shape[0]:
        raise ValueError(f"bias shape {bias.value.shape} does not fit {x.value.shape}")

    def backward(g):
        x.accumulate(g)
        bias.accumulate(g.sum(axis=0))

    return Node(tape, x.value + bias.value[None, :], "add_bias", backward)


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


def clenshaw(cheb, M, x: np.ndarray) -> np.ndarray:
    """sum_k a_k T_k(M/2) x by Clenshaw's recurrence, with one product with M
    per degree; M must be a float64 CSR matrix.

        b_k = a_k x + M b_(k+1) - b_(k+2),    y = a_0 x + M (b_1 / 2) - b_2

    Nothing is allocated but three buffers of x's size, and one of them is
    returned.  Per degree the recurrence makes two elementwise passes into
    them and adds M b_(k+1) straight into the buffer that holds
    a_k x - b_(k+2) with scipy's CSR kernel.  x is read where it lies, never
    copied or written.
    """
    x = np.asarray(x, dtype=np.float64)
    if getattr(M, "format", None) != "csr" or M.dtype != np.float64:
        raise ValueError(f"operator must be a float64 CSR matrix, got {type(M).__name__}"
                         f" of {getattr(M, 'dtype', None)}")
    if x.shape[0] != M.shape[1]:
        raise ValueError(f"operator {M.shape} does not fit signal rows {x.shape[0]}")
    a = np.asarray(cheb, dtype=np.float64)
    b1, b2, scratch = np.empty(x.shape), np.zeros(x.shape), np.empty(x.shape)
    np.multiply(x, a[-1], out=b1)
    width = x.shape[1] if x.ndim == 2 else 1
    for k in range(len(a) - 2, -1, -1):
        if k == 0:
            b1 *= 0.5
        # b2 = a_k x - b2 + M b1, in place
        np.multiply(x, a[k], out=scratch)
        np.subtract(scratch, b2, out=b2)
        _sparsetools.csr_matvecs(M.shape[0], M.shape[1], width, M.indptr, M.indices,
                                 M.data, b1.ravel(), b2.ravel())
        b1, b2 = b2, b1
    return b1


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
