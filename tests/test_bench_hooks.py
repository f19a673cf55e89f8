"""The benchmark's hook table and workloads still fit the package.

perfbench/tracer.py hooks functions by (module, attribute) name and records a
target that no longer exists as missing, so a rename would quietly blank the
per-layer metrics that need it; a call that moves elsewhere leaves its hook
in place but never fired.  These checks load the tracer and perfbench/run.py
by file path, resolve the hook targets against the package, and run one
traced synth, train and eval through perfbench/child.py on a tiny graph.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chigad.config import config_to_dict, load_config, parse_config
from chigad.hin import enumerate_meta_paths, materialize_meta_path_graph
from test_acceptance import C7_CFG

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # run.py's dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer_module():
    return _load("tracer")


@pytest.fixture(scope="module")
def run_module():
    # run.py imports its sibling spans.py by plain name
    sys.path.insert(0, str(PERFBENCH))
    try:
        return _load("run")
    finally:
        sys.path.remove(str(PERFBENCH))


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


def test_every_hook_fires_on_a_traced_run(tracer_module, run_module, tmp_path):
    # the self-test's tiny config; the polynomial hook's target is no longer
    # on the model's path, so it is the one target left out
    (tmp_path / "run.cfg").write_text("graph = graph/synthetic_graph.json\n"
                                      + run_module.C7_CONFIG
                                      + "synth_sizes = 60, 20, 20\nepochs = 3\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1",
           "PYTHONDONTWRITEBYTECODE": "1"}
    fired: dict[str, int] = {}
    for cmd, out, extra in (("synth", "graph", ["--seed", "1"]), ("train", "out", []),
                            ("eval", "out", [])):
        record = tmp_path / f"{cmd}.record.json"
        done = subprocess.run([sys.executable, str(PERFBENCH / "child.py"), str(record), "1",
                               cmd, "--config", "run.cfg", "--out", out, *extra],
                              cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        doc = json.loads(record.read_text())
        assert doc["missing"] == {} and doc["count_errors"] == {}
        for target, n in doc["fired"].items():
            fired[target] = fired.get(target, 0) + n
    tm = tracer_module
    never = [f"{module}.{attr}" for _, module, attr in tm.E2E_HOOKS + tm.LAYER_HOOKS
             + [tm.TAPE_HOOK] if fired.get(f"{module}.{attr}", 0) < 1]
    assert never == []


def test_c7_config_file_is_the_benchmark_workload(run_module):
    assert config_to_dict(load_config(str(C7_CFG))) == config_to_dict(
        parse_config(run_module.WORKLOADS["c7"]))
