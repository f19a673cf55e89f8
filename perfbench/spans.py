"""Metric values computed from the records that child.py writes.

A span is [name, parent index, start, end, counts].  A layer's time is the
summed duration of its outermost spans (a span nested in one of the same name
is not counted twice); `model.build_s` alone is self time, the build span's
duration minus that of the spans directly inside it.  A train epoch runs from
one forward pass that train() makes to the next; the last ends with train().
"""

from __future__ import annotations

import bisect
import statistics


def duration(span) -> float:
    return span[3] - span[2]


def outermost(spans, name) -> list[int]:
    out = []
    for i, s in enumerate(spans):
        if s[0] != name:
            continue
        p = s[1]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            out.append(i)
    return out


def total(spans, name) -> float:
    return sum(duration(spans[i]) for i in outermost(spans, name))


def self_time(spans, name) -> float:
    roots = outermost(spans, name)
    inner = {r: 0.0 for r in roots}
    for s in spans:
        if s[1] in inner:
            inner[s[1]] += duration(s)
    return sum(duration(spans[r]) - inner[r] for r in roots)


def within(spans, root, name) -> list[float]:
    """Per outermost `root` span, the time its outermost `name` spans take."""
    sums = {r: 0.0 for r in outermost(spans, root)}
    for i in outermost(spans, name):
        p = spans[i][1]
        while p >= 0 and p not in sums:
            p = spans[p][1]
        if p >= 0:
            sums[p] += duration(spans[i])
    return list(sums.values())


def epochs(spans) -> list[tuple[float, float]]:
    out = []
    for t in outermost(spans, "training.train"):
        starts = [s[2] for s in spans if s[0] == "model.forward" and s[1] == t]
        out += list(zip(starts, starts[1:] + [spans[t][3]]))
    return out


def per_epoch(spans, value) -> list[float]:
    """Sum of value(index, span) over the spans that start in each epoch."""
    windows = epochs(spans)
    starts = [w[0] for w in windows]
    sums = [0.0] * len(windows)
    for i, s in enumerate(spans):
        k = bisect.bisect_right(starts, s[2]) - 1
        if k >= 0 and s[2] < windows[k][1]:
            sums[k] += value(i, s)
    return sums


def train_timing(doc) -> tuple[float, list[float]]:
    """(setup seconds from runner start to the first epoch, epoch seconds)."""
    windows = epochs(doc["spans"])
    return windows[0][0] - doc["runner_start"], [e - s for s, e in windows]


# span names each per-layer metric needs; a metric whose spans were not
# hooked (target missing) or whose counts failed is reported absent.  Bank and
# conv polynomials are told apart by the model.bank span, so both need it.
_EPOCH = ("training.train", "model.forward")
REQUIRES = {
    "cli.emit_s": ("cli.emit",),
    "hin.load_s": ("hin.load",),
    "hin.materialize_s": ("hin.materialize",),
    "hin.metapath_nnz": ("hin.materialize",),
    "hin.laplacian_s": ("hin.laplacian",),
    "hin.laplacian_calls": ("hin.laplacian",),
    "hin.homogenize_s": ("hin.homogenize",),
    "spectral.rank_s": ("spectral.rank",),
    "spectral.profile_s": ("spectral.profile",),
    "spectral.eigh_calls": ("spectral.eigh",),
    "spectral.eigh_n3": ("spectral.eigh",),
    "spectral.fuse_s": ("spectral.fuse",),
    "chifilter.fit_s": ("chifilter.fit",),
    "model.build_s": ("model.build",),
    "model.forward_ms": ("model.forward",),
    "model.forward_calls": ("model.forward",),
    "model.bank_fwd_ms": ("model.forward", "model.bank", "spa"),
    "model.conv_fwd_ms": ("model.forward", "model.bank", "spa"),
    "model.ckpt_save_s": ("model.ckpt_save",),
    "model.ckpt_load_s": ("model.ckpt_load",),
    "autodiff.backward_ms": ("autodiff.backward",),
    "autodiff.bank_bwd_ms": ("autodiff.backward", "model.bank", "spa"),
    "autodiff.conv_bwd_ms": ("autodiff.backward", "model.bank", "spa"),
    "autodiff.matvecs_per_epoch": _EPOCH + ("spa",),
    "autodiff.spmm_flops_per_epoch": _EPOCH + ("spa",),
    "autodiff.tape_nodes_per_epoch": _EPOCH + ("autodiff.backward",),
    "autodiff.live_tapes_max": ("autodiff.tapes",),
    "training.contrib_ms": _EPOCH + ("training.contrib",),
    "training.loss_ms": _EPOCH + ("training.loss",),
    "training.adam_ms": _EPOCH + ("training.adam",),
    "training.val_ms": _EPOCH + ("training.val",),
    "metrics.score_s": ("metrics.score",),
}


def layer_metrics(train: dict, evaluation: dict) -> tuple[dict, dict]:
    """Per-layer values over one traced train and the eval that follows it.

    Times in s are summed over both commands, times in ms are medians per
    call or per train epoch, counts without `_per_epoch` are summed over both
    commands.  Returns (values, absent metric -> reason).
    """
    both = [train["spans"], evaluation["spans"]]
    tr = train["spans"]

    def tot(name):
        return sum(total(s, name) for s in both)

    def calls(name):
        return sum(len(outermost(s, name)) for s in both)

    def count(key):
        return sum(sp[4].get(key, 0) for s in both for sp in s)

    def epoch_ms(name):
        ids = set(outermost(tr, name))
        return 1e3 * statistics.median(
            per_epoch(tr, lambda i, s: duration(s) if i in ids else 0.0))

    def epoch_count(key):
        return statistics.median(per_epoch(tr, lambda i, s: s[4].get(key, 0)))

    def per_call_ms(root, name=None, docs=both):
        vals = [v for s in docs for v in (
            within(s, root, name) if name else
            [duration(s[i]) for i in outermost(s, root)])]
        return 1e3 * statistics.median(vals)

    compute = {
        "cli.import_s": lambda: statistics.median(
            [train["import_s"], evaluation["import_s"]]),
        "cli.emit_s": lambda: tot("cli.emit"),
        "hin.load_s": lambda: tot("hin.load"),
        "hin.materialize_s": lambda: tot("hin.materialize"),
        "hin.metapath_nnz": lambda: count("nnz"),
        "hin.laplacian_s": lambda: tot("hin.laplacian"),
        "hin.laplacian_calls": lambda: calls("hin.laplacian"),
        "hin.homogenize_s": lambda: tot("hin.homogenize"),
        "spectral.rank_s": lambda: tot("spectral.rank"),
        "spectral.profile_s": lambda: tot("spectral.profile"),
        "spectral.eigh_calls": lambda: calls("spectral.eigh"),
        "spectral.eigh_n3": lambda: count("n3"),
        "spectral.fuse_s": lambda: tot("spectral.fuse"),
        "chifilter.fit_s": lambda: tot("chifilter.fit"),
        "model.build_s": lambda: sum(self_time(s, "model.build") for s in both),
        "model.forward_ms": lambda: per_call_ms("model.forward"),
        "model.forward_calls": lambda: calls("model.forward"),
        "model.bank_fwd_ms": lambda: per_call_ms("model.forward", "model.bank"),
        "model.conv_fwd_ms": lambda: per_call_ms("model.forward", "spa.conv"),
        "model.ckpt_save_s": lambda: tot("model.ckpt_save"),
        "model.ckpt_load_s": lambda: tot("model.ckpt_load"),
        "autodiff.backward_ms": lambda: per_call_ms("autodiff.backward", docs=[tr]),
        "autodiff.bank_bwd_ms": lambda: per_call_ms(
            "autodiff.backward", "spa_bwd.bank", [tr]),
        "autodiff.conv_bwd_ms": lambda: per_call_ms(
            "autodiff.backward", "spa_bwd.conv", [tr]),
        "autodiff.matvecs_per_epoch": lambda: epoch_count("matvecs"),
        "autodiff.spmm_flops_per_epoch": lambda: epoch_count("flops"),
        "autodiff.tape_nodes_per_epoch": lambda: epoch_count("tape_nodes"),
        "autodiff.live_tapes_max": lambda: max(
            train["live_tapes_max"], evaluation["live_tapes_max"]),
        "training.contrib_ms": lambda: epoch_ms("training.contrib"),
        "training.loss_ms": lambda: epoch_ms("training.loss"),
        "training.adam_ms": lambda: epoch_ms("training.adam"),
        "training.val_ms": lambda: epoch_ms("training.val"),
        "metrics.score_s": lambda: tot("metrics.score"),
    }
    unhooked = {}
    for doc in (train, evaluation):
        for span, targets in doc["missing"].items():
            unhooked[span] = "hook target missing: " + ", ".join(targets)
        for span, errors in doc["count_errors"].items():
            unhooked[span] = "count failed: " + errors[0]
    values, absent = {}, {}
    for name, fn in compute.items():
        reasons = [unhooked[s] for s in REQUIRES.get(name, ()) if s in unhooked]
        if reasons:
            absent[name] = reasons[0]
            continue
        try:
            values[name] = fn()
        except statistics.StatisticsError:
            absent[name] = "no samples"
    return values, absent
