"""The benchmark tracer's hook table still fits the package.

perfbench/tracer.py hooks functions by (module, attribute) name and records a
target that no longer exists as missing, so a rename would quietly blank the
per-layer metrics that need it.  These checks load the tracer by file path,
without installing any hook, and resolve its targets against the package.
"""

import importlib.util
from pathlib import Path

import pytest

from chigad.hin import enumerate_meta_paths, materialize_meta_path_graph

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_resolves(tracer_module):
    tm = tracer_module
    tracer = tm.Tracer()
    targets = tm.E2E_HOOKS + tm.LAYER_HOOKS + [tm.POLY_HOOK, tm.TAPE_HOOK]
    for span, module, attr in targets:
        tracer._resolve(span, module, attr)
    assert tracer.missing == {}


def test_materialize_counts_accept_a_real_result(tracer_module, tiny_hin):
    path = enumerate_meta_paths(tiny_hin, "a", 2, 2)[0]
    result = materialize_meta_path_graph(tiny_hin, path)
    counts = tracer_module.COUNTS["materialize_meta_path_graph"]
    assert counts((tiny_hin, path), result) == {"nnz": int(result.adjacency.nnz)}
