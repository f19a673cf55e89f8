"""chigad benchmark: one workload as a batch job through the real CLI.

    python3 perfbench/run.py --workload c7 --seed 1 --seconds 30 --trace 0

The seed drives `chigad synth`, which writes the input graph before any timing
starts; the measured commands receive only that graph and a fixed config.
Each command runs in a fresh child process (child.py) with BLAS pinned to one
thread.  A run repeats `train` then `eval` while the next repeat still fits
in --seconds, and runs at least two `train`s, so that metrics.json can be
compared across repeats.  With --trace 1 the run starts with one untraced
`train` and then repeats traced `train` + `eval`, and reports the per-layer
metrics instead of the end-to-end ones.

Every metric is printed by name and unit; the last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"} carrying the
metrics that BENCHMARK.json lists for the mode, with the units given there.
What each metric means is in perfbench/METRICS.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from spans import layer_metrics, train_timing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORK = ROOT / ".perfbench_work"
DEADLINE_S = 170.0          # a run must end within 180 s
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
# printed, but not in the JSON result (see METRICS.md)
REPORT_ONLY_UNITS = {"epoch_ms_p95": "ms", "test_auroc": "ratio", "test_auprc": "ratio"}

# the acceptance-c7 hyper-parameters (bench_config in tests/test_acceptance.py)
C7_CONFIG = """\
synth_feature_dims = 4, 8, 6
synth_communities = 3
synth_shift = 0.0
synth_rewire = 1.0
synth_train_frac = 0.4
synth_val_frac = 0.2
candidates = 1, 3, 5, 7
bands = 10
aligned_dim = 32
mlp_layers = 2
path_min = 2
path_max = 2
degree_budget = 8
activation = relu
learning_rate = 0.01
weight_decay = 0.01
loss_l = 5.0
loss_h = 7.0
seed = 0
"""

# Why each workload exists is recorded in BENCHMARK.json and METRICS.md.
WORKLOADS = {
    "c7": C7_CONFIG + "synth_sizes = 400, 100, 100\nepochs = 300\n",
    "plan-large": C7_CONFIG + "synth_sizes = 8000, 2000, 2000\nepochs = 3\n",
    # RunConfig() on SyntheticSpec(); 200 epochs are OOM-killed on 7 GB
    "defaults": "epochs = 2\n",
}


@dataclass
class Command:
    """One finished chigad command: its timing, peak RSS, record and problems."""
    kind: str
    out: str
    wall_s: float
    rss_mb: float
    exit_code: int
    doc: dict | None
    problems: list[str]

    @property
    def ok(self) -> bool:
        return not self.problems


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_ENV)


def run_command(workdir: Path, kind: str, out: str, trace: bool,
                deadline: float, extra: tuple[str, ...] = ()) -> Command:
    record = workdir / f"{out}-{kind}.record.json"
    log_path = workdir / f"{out}-{kind}.log"
    argv = [sys.executable, str(HERE / "child.py"), str(record),
            "1" if trace else "0", kind, "--config", "run.cfg", "--out", out, *extra]
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=child_env(),
                                stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline - start, 1.0), proc.kill)
        timer.start()
        try:
            # the command's own rusage: RUSAGE_CHILDREN would be a running
            # maximum over every child so far
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    problems, doc = [], None
    if proc.returncode != 0:
        tail = log_path.read_text().strip().splitlines()[-1:] or [""]
        problems.append(f"exit {proc.returncode}: {tail[0]}")
    try:
        doc = json.loads(record.read_text())
    except (OSError, ValueError) as exc:
        problems.append(f"no run record: {exc}")
    if doc is not None and not Path(doc["chigad_file"]).resolve().is_relative_to(ROOT / "src"):
        problems.append(f"imported chigad from {doc['chigad_file']}, not this checkout")
    return Command(kind, out, wall, usage.ru_maxrss / 1024.0, proc.returncode, doc, problems)


def check_train(workdir: Path, cmd: Command, reference: bytes | None) -> bytes | None:
    """Losses finite and metrics.json equal to the first train's."""
    out = workdir / cmd.out
    try:
        with open(out / "history.csv", newline="") as fh:
            losses = [float(row["loss"]) for row in csv.DictReader(fh)]
        metrics = (out / "metrics.json").read_bytes()
    except (OSError, KeyError, ValueError) as exc:
        cmd.problems.append(f"missing or unreadable output: {exc!r}")
        return reference
    if not losses or not all(math.isfinite(x) for x in losses):
        cmd.problems.append("history.csv has no losses or a non-finite loss")
    if reference is not None and metrics != reference:
        cmd.problems.append("metrics.json differs from the first train of this run")
    return metrics if reference is None else reference


def check_eval(workdir: Path, cmd: Command) -> None:
    out = workdir / cmd.out
    try:
        same = (out / "eval_metrics.json").read_bytes() == (out / "metrics.json").read_bytes()
    except OSError as exc:
        cmd.problems.append(f"missing output: {exc}")
        return
    if not same:
        cmd.problems.append("eval_metrics.json differs from metrics.json")


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    deadline = started + DEADLINE_S
    workdir = WORK / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    (workdir / "run.cfg").write_text(
        "graph = graph/synthetic_graph.json\n" + WORKLOADS[workload])

    synth = run_command(workdir, "synth", "graph", False, deadline,
                        ("--seed", str(seed)))
    if not synth.ok:
        raise RuntimeError(f"synth failed: {synth.problems}")

    t0 = time.perf_counter()
    baseline = run_command(workdir, "train", "base", False, deadline) if trace else None
    trains, evals = [], []
    while True:
        rep_start = time.perf_counter()
        trains.append(run_command(workdir, "train", f"rep{len(trains)}", trace, deadline))
        evals.append(run_command(workdir, "eval", f"rep{len(evals)}", trace, deadline))
        now = time.perf_counter()
        if now - t0 + (now - rep_start) > seconds or now + (now - rep_start) > deadline:
            break
    if not trace and len(trains) < 2:
        trains.append(run_command(workdir, "train", f"rep{len(trains)}", False, deadline))

    reference = None
    for cmd in ([baseline] if baseline else []) + trains:
        if cmd.exit_code == 0:
            reference = check_train(workdir, cmd, reference)
    for cmd in evals:
        if cmd.exit_code == 0:
            check_eval(workdir, cmd)
    commands = [synth] + ([baseline] if baseline else []) + trains + evals
    return {"synth": synth, "baseline": baseline,
            "trains": trains, "evals": evals, "commands": commands,
            "reference": reference}


def end_to_end(run: dict) -> dict:
    """name -> (value, sample count) over the commands that passed."""
    trains = [c for c in run["trains"] if c.ok]
    evals = [c for c in run["evals"] if c.ok]
    values = {}
    if trains:
        timing = [train_timing(c.doc) for c in trains]
        epoch_ms = [1e3 * e for _, epochs in timing for e in epochs]
        values["setup_s"] = (statistics.median(s for s, _ in timing), len(timing))
        values["epoch_ms"] = (statistics.median(epoch_ms), len(epoch_ms))
        if len(epoch_ms) >= 200:   # at least ten samples beyond the 95th
            values["epoch_ms_p95"] = (statistics.quantiles(epoch_ms, n=20)[18],
                                      len(epoch_ms))
        values["train_cmd_s"] = (statistics.median(c.wall_s for c in trains), len(trains))
        values["train_peak_rss_mb"] = (statistics.median(c.rss_mb for c in trains),
                                       len(trains))
    if evals:
        values["eval_cmd_s"] = (statistics.median(c.wall_s for c in evals), len(evals))
        values["eval_peak_rss_mb"] = (statistics.median(c.rss_mb for c in evals), len(evals))
    if run["reference"] is not None:
        scores = json.loads(run["reference"])
        values["test_auroc"] = (scores["auroc"], 1)
        values["test_auprc"] = (scores["auprc"], 1)
    return values


def per_layer(run: dict) -> tuple[dict, dict]:
    """name -> (median over traced repeats, repeats), and absent -> reason."""
    pairs = [(t, e) for t, e in zip(run["trains"], run["evals"]) if t.ok and e.ok]
    samples: dict[str, list[float]] = {}
    absent: dict[str, str] = {}
    for t, e in pairs:
        values, missing = layer_metrics(t.doc, e.doc)
        absent.update(missing)
        for name, v in values.items():
            samples.setdefault(name, []).append(v)
    baseline = run["baseline"]
    if pairs and baseline is not None and baseline.ok:
        samples["trace.overhead_s"] = [
            statistics.median(t.wall_s for t, _ in pairs) - baseline.wall_s]
    return {k: (statistics.median(v), len(v)) for k, v in samples.items()}, absent


def environment(run: dict) -> dict:
    env = dict(run["synth"].doc["env"]) if run["synth"].doc else {}
    env["nproc"] = os.cpu_count()
    env["python"] = sys.version.split()[0]
    try:
        env["git_sha"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        env["git_sha"] = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    env["src_sha256"] = digest.hexdigest()
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "chigad" / "cli.py").is_file():
        print(f"error: no chigad source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    values, absent = per_layer(run) if args.trace else (end_to_end(run), {})
    commands = run["commands"]
    failed = [c for c in commands if not c.ok]

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(environment(run), sort_keys=True))
    for c in failed:
        print(f"# FAILED {c.kind} {c.out}: {'; '.join(c.problems)}")
    metrics = {}
    units = {m["name"]: m["unit"] for m in wanted}
    for name, (value, n) in values.items():
        unit = units.get(name) or REPORT_ONLY_UNITS.get(name, "")
        print(f"{name:<32} {value:>16.6f} {unit:<6} n={n}")
        if name in units:
            metrics[name] = {"value": value, "unit": unit}
    for name in units:
        if name not in values:
            reason = absent.get(name, "not measured")
            print(f"warning: metric {name} absent: {reason}", file=sys.stderr)
            print(f"{name:<32} {'absent':>16} ({reason})")
    print(f"{'ops_failed':<32} {len(failed) / len(commands):>16.6f} share  "
          f"({len(failed)} of {len(commands)} commands)")
    print(json.dumps({"correct": not failed, "attempted": len(commands),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
