"""Span recorder and hook table for one chigad command process.

Hooks replace a function at the place where the program looks its name up:
a `from x import f` binds a copy into the importing module, so the hook for
`train` as called by the CLI goes on `chigad.cli.train`, not on
`chigad.training.train`.  A target that no longer exists is recorded as
missing and skipped; the analysis then reports the metrics that need it as
absent instead of recording zero.

Spans are kept in memory as [name, parent index, start, end, counts] and
written out once, when the command ends.
"""

from __future__ import annotations

import functools
import importlib
import time
import weakref

# (span name, module, attribute); the attribute may be "Class.method".
# Untraced runs install only these two: the timestamps that the end-to-end
# metrics need, hung on names that chigad/__init__.py exports.
E2E_HOOKS = [
    ("training.train", "chigad.cli", "train"),
    ("model.forward", "chigad.training", "forward_pass"),
]

LAYER_HOOKS = [
    ("cli.emit", "chigad.cli", "_emit_metrics"),
    ("model.forward", "chigad.cli", "forward_pass"),
    ("hin.load", "chigad.cli", "load_hetero_graph"),
    ("hin.materialize", "chigad.model", "enumerate_meta_paths"),
    ("hin.materialize", "chigad.model", "materialize_meta_path_graph"),
    ("hin.laplacian", "chigad.model", "laplacian"),
    ("hin.laplacian", "chigad.spectral", "laplacian"),
    ("hin.laplacian", "chigad.training", "laplacian"),
    ("hin.homogenize", "chigad.model", "degenerate_method1"),
    ("hin.homogenize", "chigad.training", "degenerate_method2"),
    ("spectral.rank", "chigad.model", "select_representatives"),
    ("spectral.profile", "chigad.model", "profile_capped"),
    ("spectral.eigh", "numpy.linalg", "eigh"),
    ("spectral.fuse", "chigad.model", "fuse_filters"),
    ("chifilter.fit", "chigad.model", "fit_polynomial"),
    ("chifilter.fit", "chigad.spectral", "fit_grid_polynomial"),
    ("model.build", "chigad.cli", "build_model"),
    ("model.bank", "chigad.model", "multi_graph_forward"),
    ("model.ckpt_save", "chigad.cli", "save_checkpoint"),
    ("model.ckpt_load", "chigad.cli", "load_checkpoint"),
    ("autodiff.backward", "chigad.autodiff", "Tape.backward"),
    ("training.contrib", "chigad.training", "node_contributions"),
    ("training.loss", "chigad.training", "cc_weights"),
    ("training.loss", "chigad.autodiff", "weighted_softmax_ce"),
    ("training.adam", "chigad.training", "Adam.step"),
    ("training.val", "chigad.training", "f1_macro"),
    ("metrics.score", "chigad.training", "compute_metrics"),
    ("metrics.score", "chigad.cli", "roc_points"),
    ("metrics.score", "chigad.cli", "pr_points"),
]

# Polynomial applications get a span per call and per backward closure, named
# by whether the call sits inside a bank (multi_graph_forward) span.
POLY_HOOK = ("spa", "chigad.autodiff", "sparse_poly_apply")
# Live tapes are counted through a WeakSet fed by a subclass of Tape.
TAPE_HOOK = ("autodiff.tapes", "chigad.autodiff", "Tape")


def _materialize_counts(args, result):
    return {"nnz": int(result.adjacency.nnz)}


def _eigh_counts(args, result):
    n = int(args[0].shape[0])
    return {"n3": n ** 3}


def _backward_counts(args, result):
    return {"tape_nodes": len(args[0].nodes)}


COUNTS = {
    "materialize_meta_path_graph": _materialize_counts,
    "eigh": _eigh_counts,
    "Tape.backward": _backward_counts,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.fired: dict[str, int] = {}
        self.missing: dict[str, list[str]] = {}   # span name -> absent targets
        self.count_errors: dict[str, list[str]] = {}  # span name -> errors
        self.live_tapes_max = 0
        self._stack: list[int] = []
        self._tapes = weakref.WeakSet()

    def open(self, name: str, counts: dict | None = None) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, parent, time.perf_counter(), None, counts or {}]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self._stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def _count(self, span: str, target: str, fn, args, result) -> dict:
        try:
            return fn(args, result)
        except Exception as exc:  # a changed signature must not break the run
            self.count_errors.setdefault(span, []).append(f"{target}: {exc!r}")
            return {}

    def _resolve(self, span: str, module: str, attr: str):
        """(owner, attribute, current value, target), or None after recording a miss."""
        target = f"{module}.{attr}"
        try:
            owner = importlib.import_module(module)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            return owner, name, getattr(owner, name), target
        except (ImportError, AttributeError):
            self.missing.setdefault(span, []).append(target)
            return None

    def hook(self, span: str, module: str, attr: str) -> None:
        found = self._resolve(span, module, attr)
        if found is None:
            return
        owner, name, fn, target = found
        counts = COUNTS.get(attr)
        tracer = self
        self.fired[target] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.fired[target] += 1
            rec = tracer.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if counts is not None:
                rec[4] = tracer._count(span, target, counts, args, result)
            return result

        setattr(owner, name, wrapper)

    def hook_poly_apply(self) -> None:
        found = self._resolve(*POLY_HOOK)
        if found is None:
            return
        owner, name, fn, target = found
        tracer = self
        self.fired[target] = 0

        @functools.wraps(fn)
        def wrapper(coeffs, S, x, *args, **kwargs):
            tracer.fired[target] += 1
            part = "bank" if tracer.inside("model.bank") else "conv"
            counts = tracer._count(POLY_HOOK[0], target, _poly_counts, (coeffs, S, x), None)
            rec = tracer.open(f"spa.{part}", counts)
            try:
                out = fn(coeffs, S, x, *args, **kwargs)
            finally:
                tracer.close(rec)
            backward = out.backward_fn

            def traced_backward(g):
                brec = tracer.open(f"spa_bwd.{part}", dict(counts))
                try:
                    backward(g)
                finally:
                    tracer.close(brec)

            out.backward_fn = traced_backward
            return out

        setattr(owner, name, wrapper)

    def hook_tape(self) -> None:
        found = self._resolve(*TAPE_HOOK)
        if found is None:
            return
        owner, name, base, target = found
        tracer = self
        self.fired[target] = 0

        class CountedTape(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracer.fired[target] += 1
                tracer._tapes.add(self)
                tracer.live_tapes_max = max(tracer.live_tapes_max, len(tracer._tapes))

        setattr(owner, name, CountedTape)

    def install(self, layers: bool) -> None:
        for span, module, attr in E2E_HOOKS + (LAYER_HOOKS if layers else []):
            self.hook(span, module, attr)
        if layers:
            # after Tape.backward is wrapped, so the subclass inherits the hook
            self.hook_poly_apply()
            self.hook_tape()

    def record(self) -> dict:
        return {
            "spans": self.spans,
            "fired": self.fired,
            "missing": self.missing,
            "count_errors": self.count_errors,
            "live_tapes_max": self.live_tapes_max,
        }


def _poly_counts(args, result):
    """Mat-vecs len(coeffs)-1 and spmm flops 2*nnz*columns per mat-vec."""
    coeffs, S, x = args
    matvecs = len(coeffs) - 1
    value = x.value
    columns = value.shape[1] if value.ndim > 1 else 1
    nnz = int(getattr(S, "matrix", S).nnz)
    return {"matvecs": matvecs, "flops": 2 * nnz * columns * matvecs}
