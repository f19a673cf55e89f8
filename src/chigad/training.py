"""Contribution-informed training: loss weighting, optimizer, epoch loop.

A node's contribution c_i sums, over feature dimensions of the pre-head
representation X', its share of each dimension's Rayleigh quotient on the
target-type graph (Method-2 homogenization).  Anomalies with LOW contribution
are the ones the high-frequency machinery finds hardest, so the loss weight
interpolates from H (hardest, c = c_min) down to L (easiest, c = c_max), with
benign nodes fixed at weight 1 and H >= L >= 1 keeping anomalies upweighted.
Contributions are recomputed from the live X' every epoch and enter the loss
as constants.  A model trains and is evaluated on the graph it was built on
(`ChiGadModel.graph`), whose labels and splits the loss and the metrics read.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .config import RunConfig
from .hin import LABEL_ANOMALY, HeteroGraph, degenerate_method2, laplacian
from .metrics import MetricsRecord, compute_metrics, f1_macro
from .model import ChiGadModel, forward_pass

DENOM_FLOOR = 1e-12


@dataclass
class CcLossConfig:
    h: float
    l: float

    def __post_init__(self):
        if not (self.h >= self.l >= 1.0):
            raise ValueError("loss weights must satisfy H >= L >= 1")


class DegenerateRepresentation(ValueError):
    """Every feature dimension of X' has a degenerate Rayleigh denominator."""


@dataclass
class ContributionVector:
    values: np.ndarray          # c_i per target node
    used_dims: list[int]        # feature dimensions with usable denominators
    c_min: float                # extrema over the restriction set
    c_max: float


def node_contributions(Xp: np.ndarray, L, restrict: np.ndarray | None = None) -> ContributionVector:
    """c_i = sum_j x'_{j,i} (L x'_j)_i / (x'_j^T L x'_j) over usable dimensions j,
    for a sparse Laplacian L.

    A dimension whose Rayleigh denominator falls below 1e-12 is skipped rather
    than regularized (a constant column would otherwise fabricate
    contributions).  All dimensions degenerate is an error.  c_min/c_max are
    taken over `restrict` (defaults to all nodes).
    """
    Xp = np.asarray(Xp, dtype=np.float64)
    if Xp.ndim == 1:
        Xp = Xp[:, None]
    if Xp.shape[0] != L.shape[0]:
        raise ValueError("representation rows do not match the operator dimension")
    LX = L @ Xp
    denoms = (Xp * LX).sum(axis=0)
    used = [j for j in range(Xp.shape[1]) if denoms[j] >= DENOM_FLOOR]
    if not used:
        raise DegenerateRepresentation("contributions undefined: every dimension "
                                       "has a degenerate Rayleigh denominator")
    values = np.zeros(Xp.shape[0])
    for j in used:
        values += Xp[:, j] * LX[:, j] / denoms[j]
    sel = values if restrict is None else values[np.asarray(restrict)]
    return ContributionVector(values, used, float(sel.min()), float(sel.max()))


def cc_weights(contrib: ContributionVector, labels: np.ndarray,
               cc: CcLossConfig) -> np.ndarray:
    """Per-node loss weights: benign 1, anomaly (c_max-c)/(c_max-c_min)(H-L)+L."""
    labels = np.asarray(labels)
    weights = np.ones(len(labels))
    anom = labels == LABEL_ANOMALY
    spread = contrib.c_max - contrib.c_min
    if spread <= 0.0:
        weights[anom] = (cc.h + cc.l) / 2.0
    else:
        scaled = (contrib.c_max - contrib.values[anom]) / spread
        weights[anom] = scaled * (cc.h - cc.l) + cc.l
    return weights


# Adam's moment decay rates and denominator floor (Kingma & Ba 2015)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Full-batch Adam on a named parameter dict, updated in place.

    Weight decay is decoupled (Loshchilov & Hutter 2019, AdamW): a step first
    multiplies p by exactly 1 - lr * weight_decay, then takes the Adam step on
    the loss gradient alone, so the decay is never divided by the
    second-moment estimate.  torch.optim.Adam(weight_decay=...) couples it
    instead, as an L2 term added to the gradient.

    Each parameter array, and its moments, keep their identity across steps:
    the update runs in two scratch buffers that all parameters share, in the
    operation order of m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g and
    p = p - (lr m_hat) / (sqrt(v_hat) + eps), so its bits are those of the
    textbook expressions.  The 0-d w^S parameters go through out= arrays too,
    since arithmetic on a 0-d array returns a scalar.  A tape's parameter
    leaves alias these arrays, so a pass runs its backward before the step."""

    def __init__(self, params: dict[str, np.ndarray], lr: float,
                 weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        size = max((v.size for v in params.values()), default=0)
        self.scratch = (np.empty(size), np.empty(size))
        self.t = 0

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        c1, c2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        decay = 1 - self.lr * self.weight_decay
        for name, p in self.params.items():
            g = grads.get(name)
            if g is None:
                continue
            m, v = self.m[name], self.v[name]
            s1, s2 = (buf[:p.size].reshape(p.shape) for buf in self.scratch)
            p *= decay      # exact at weight_decay 0
            m *= b1
            m += np.multiply(g, 1 - b1, out=s2)
            v *= b2
            np.multiply(g, 1 - b2, out=s2)
            v += np.multiply(s2, g, out=s2)
            np.divide(v, c2, out=s2)
            np.sqrt(s2, out=s2)
            np.add(s2, ADAM_EPS, out=s2)
            np.divide(m, c1, out=s1)
            np.multiply(s1, self.lr, out=s1)
            p -= np.divide(s1, s2, out=s1)


@dataclass
class EpochStats:
    epoch: int
    loss: float
    val_f1: float
    contrib_sum: float
    contrib_dims: int


@dataclass
class TrainRecord:
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = -1
    best_val_f1: float = -1.0


def train(model: ChiGadModel, cfg: RunConfig) -> TrainRecord:
    """Full-batch loop on the model's build graph with per-epoch contribution
    weights and best-validation checkpointing (F1-macro on the validation split
    selects the kept weights)."""
    graph = model.graph
    train_mask = graph.split_masks["train"]
    val_mask = graph.split_masks["val"]
    if not train_mask.any() or not val_mask.any():
        raise ValueError("train and val splits must be nonempty")
    labels = graph.labels
    L_t = laplacian(degenerate_method2(model.conv.adjacency, model.conv.rows))
    cc = CcLossConfig(cfg.loss_h, cfg.loss_l)
    opt = Adam(model.params, cfg.learning_rate, weight_decay=cfg.weight_decay)

    record = TrainRecord()
    best_params = {k: v.copy() for k, v in model.params.items()}
    for epoch in range(cfg.epochs):
        fp = forward_pass(model)
        try:
            contrib = node_contributions(fp.rep.value, L_t, restrict=train_mask)
        except DegenerateRepresentation as err:
            if not np.isfinite(fp.rep.value).all():
                raise RuntimeError(f"training diverged: the representation became "
                                   f"non-finite at epoch {epoch}") from err
            dead = float(np.mean(fp.conv_input.value == 0.0))
            raise RuntimeError(
                f"no usable representation at epoch {epoch}: {err}; {dead:.1%} of the "
                f"{model.activation} outputs entering the meta-graph convolution "
                f"are zero") from err
        weights = cc_weights(contrib, labels, cc)
        loss = ad.weighted_softmax_ce(fp.logits, labels, weights, train_mask)
        if not np.isfinite(loss.value):
            raise RuntimeError(
                f"training diverged: loss became non-finite at epoch {epoch}; "
                f"lower the learning rate or shrink the candidate filter set")
        # validation sees the parameters this forward actually used, so the
        # snapshot happens before the optimizer step
        val_f1 = f1_macro(fp.prob[val_mask, 1], labels[val_mask])
        record.epochs.append(EpochStats(
            epoch, float(loss.value), val_f1, float(contrib.values.sum()),
            len(contrib.used_dims)))
        if val_f1 > record.best_val_f1:
            record.best_val_f1 = val_f1
            record.best_epoch = epoch
            best_params = {k: v.copy() for k, v in model.params.items()}

        fp.tape.backward(loss)
        grads = {name: node.grad for name, node in fp.param_nodes.items()
                 if node.grad is not None}
        opt.step(grads)

    for k in model.params:
        model.params[k] = best_params[k]
    return record


def split_metrics(prob: np.ndarray, graph: HeteroGraph, split: str = "test",
                  threshold: float = 0.5) -> MetricsRecord:
    """Metrics of target-node probabilities (n x 2) over one split."""
    mask = graph.split_masks[split]
    if not mask.any():
        raise ValueError(f"split '{split}' is empty")
    return compute_metrics(prob[mask, 1], graph.labels[mask], threshold)


def evaluate(model: ChiGadModel, split: str = "test",
             threshold: float = 0.5) -> MetricsRecord:
    """Metrics of the model's scores over one split of its build graph."""
    return split_metrics(forward_pass(model, record=False).prob, model.graph, split,
                         threshold)


def write_history_csv(record: TrainRecord, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "val_f1_macro", "contrib_sum", "contrib_dims"])
        for e in record.epochs:
            writer.writerow([e.epoch, repr(e.loss), repr(e.val_f1),
                             repr(e.contrib_sum), e.contrib_dims])
