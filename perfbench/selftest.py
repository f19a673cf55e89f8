"""Self-test of the benchmark's hooks on a tiny config.

    python3 perfbench/selftest.py

Runs the traced mode of run.py on a 100-node graph and fails unless every
command passes its checks, every hook target exists and fires at least once,
and every per-layer metric that BENCHMARK.json lists is computed.
"""

from __future__ import annotations

import json
import sys

import run
from tracer import E2E_HOOKS, LAYER_HOOKS, POLY_HOOK, TAPE_HOOK

TINY = run.C7_CONFIG + "synth_sizes = 60, 20, 20\nepochs = 3\n"


def main() -> int:
    run.WORKLOADS["selftest"] = TINY
    result = run.measure("selftest", seed=1, seconds=0, trace=True)
    problems = [f"{c.kind} {c.out}: {p}" for c in result["commands"] for p in c.problems]

    fired: dict[str, int] = {}
    for cmd in (result["trains"][0], result["evals"][0]):
        if cmd.doc is None:
            continue
        for span, targets in cmd.doc["missing"].items():
            problems.append(f"{span}: hook target missing: {targets}")
        for span, errors in cmd.doc["count_errors"].items():
            problems.append(f"{span}: count failed: {errors}")
        for target, n in cmd.doc["fired"].items():
            fired[target] = fired.get(target, 0) + n
    for _, module, attr in E2E_HOOKS + LAYER_HOOKS + [POLY_HOOK, TAPE_HOOK]:
        if fired.get(f"{module}.{attr}", 0) < 1:
            problems.append(f"hook {module}.{attr} never fired")

    values, absent = run.per_layer(result)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name not in values:
            problems.append(f"metric {name} absent: {absent.get(name, 'not computed')}")
        elif name != "trace.overhead_s" and not values[name][0] > 0:
            problems.append(f"metric {name} is {values[name][0]}, expected > 0")

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
