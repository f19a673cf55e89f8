"""Command-line surface: analysis reports, synthetic data, training, eval.

Every command reads one flat config file (see config.py), honors --seed as an
override, writes artifacts into --out, and exits nonzero with a one-line
diagnostic on any error.  Given identical config and seed, every artifact is
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .chifilter import (admissibility_integral, chi_mode, chi_moments,
                        fit_polynomial, normalization_constant)
from .config import RunConfig, load_config, sub_seed
from .hin import HeteroGraph, load_hetero_graph, load_hetero_graph_csv, save_hetero_graph
from .metrics import pr_points, roc_points
from .model import (build_model, checkpoint_plan, forward_pass, load_checkpoint,
                    plan_type, save_checkpoint)
from .synthetic import generate_synthetic_hin
from .training import split_metrics, train, write_history_csv


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"wrote {path}")


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {path}")


def _fmt(x) -> str:
    return repr(float(x))


CHEB_BASIS = "T_k(w - 1) on [0, 2]"


def cmd_filters(cfg: RunConfig, out: str) -> int:
    """One row per candidate.  `cheb` holds the fitted series in the basis
    CHEB_BASIS, and `fit_error_linf` is that series' error; `coeffs` is its
    monomial conversion, which loses all accuracy at high degree (at i = 64
    it misses the response by about 1e18)."""
    report = []
    for i in sorted(set(cfg.candidates)):
        expectation, variance = chi_moments(i)
        pf = fit_polynomial(i, cfg.degree_budget)
        report.append({
            "i": i, "normalization": normalization_constant(i), "mode": chi_mode(i),
            "expectation": expectation, "variance": variance,
            "admissibility": None if i == 1 else admissibility_integral(i),
            "degree": pf.degree, "fit_error_linf": pf.fit_error_linf,
            "coeffs": [float(c) for c in pf.coeffs],
            "cheb": [float(c) for c in pf.cheb], "cheb_basis": CHEB_BASIS,
            "fit_error_series": "cheb",
        })
    _write_csv(os.path.join(out, "filters.csv"),
               ["i", "S_i", "mode", "expectation", "variance",
                "admissibility", "fit_error_linf", "coeffs", "cheb"],
               [[r["i"], *(_fmt(r[k]) for k in ("normalization", "mode", "expectation",
                                                "variance")),
                 "divergent" if r["admissibility"] is None else _fmt(r["admissibility"]),
                 _fmt(r["fit_error_linf"]), ";".join(map(_fmt, r["coeffs"])),
                 ";".join(map(_fmt, r["cheb"]))] for r in report])
    _write_json(os.path.join(out, "filters.json"), report)
    return 0


def _load_graph(cfg: RunConfig) -> HeteroGraph:
    """The config's graph: a JSON file, or a CSV directory (see
    load_hetero_graph_csv)."""
    if not cfg.graph:
        raise ValueError("config key 'graph' is required for this command")
    if os.path.isdir(cfg.graph):
        return load_hetero_graph_csv(cfg.graph)
    return load_hetero_graph(cfg.graph)


def _all_plans(cfg: RunConfig):
    graph = _load_graph(cfg)
    return {o: plan_type(graph, o, cfg)[0] for o in graph.node_types}


def cmd_metapaths(cfg: RunConfig, out: str) -> int:
    plans = _all_plans(cfg)
    if not any(tp.representatives for tp in plans.values()):
        raise ValueError("no valid meta-paths in the configured length range")
    report = []
    for o, tp in plans.items():
        reps = set(tp.representatives.values())
        # the label and the score are None exactly on the empty graphs
        report.append({
            "node_type": o,
            "paths": [{"path": str(p), "empty": label is None, "s_high": score,
                       "division": label, "representative": i in reps}
                      for i, (p, label, score) in enumerate(zip(tp.paths, tp.labels,
                                                                tp.scores))],
            "divisions": [{"division": d,
                           "representative": str(tp.paths[ri]),
                           "band_max": tp.band_max[d],
                           "assigned_filter": tp.assigned[d]}
                          for d, ri in tp.representatives.items()]})
    _write_csv(os.path.join(out, "metapaths.csv"),
               ["node_type", "path", "status", "s_high", "division", "role"],
               [[r["node_type"], p["path"], "excluded: empty" if p["empty"] else "valid",
                 "" if p["empty"] else _fmt(p["s_high"]), p["division"],
                 "representative" if p["representative"] else ""]
                for r in report for p in r["paths"]])
    _write_json(os.path.join(out, "metapaths.json"), report)
    return 0


def cmd_analyze(cfg: RunConfig, out: str) -> int:
    report = []
    for o, tp in _all_plans(cfg).items():
        for division, rep_idx in tp.representatives.items():
            profile = tp.profiles[division]
            edges, eigenvalues = profile.band_edges, profile.eigenvalues
            report.append({
                "node_type": o, "division": division,
                "representative": str(tp.paths[rep_idx]),
                "band_max": profile.band_max,
                "assigned_filter": tp.assigned[division],
                "total_energy": float(profile.energies.sum()),
                "bands": [{"band": k,
                           "lambda_lo": float(eigenvalues[edges[k]]),
                           "lambda_hi": float(eigenvalues[edges[k + 1] - 1]),
                           "energy": float(profile.band_energies[k])}
                          for k in range(profile.num_bands)],
            })
    _write_csv(os.path.join(out, "bands.csv"),
               ["node_type", "division", "band", "lambda_lo", "lambda_hi", "energy"],
               [[r["node_type"], r["division"], b["band"], _fmt(b["lambda_lo"]),
                 _fmt(b["lambda_hi"]), _fmt(b["energy"])]
                for r in report for b in r["bands"]])
    _write_json(os.path.join(out, "analyze.json"), report)
    return 0


def cmd_synth(cfg: RunConfig, out: str) -> int:
    graph = generate_synthetic_hin(cfg.synth, sub_seed(cfg.seed, "synth"))
    path = os.path.join(out, "synthetic_graph.json")
    save_hetero_graph(graph, path)
    print(f"wrote {path}")
    return 0


def cmd_train(cfg: RunConfig, out: str) -> int:
    graph = _load_graph(cfg)
    model = build_model(graph, cfg)
    record = train(model, cfg)
    save_checkpoint(model, os.path.join(out, "model.ckpt"),
                    extra={"best_epoch": record.best_epoch,
                           "best_val_f1": record.best_val_f1})
    print(f"wrote {os.path.join(out, 'model.ckpt')}")
    write_history_csv(record, os.path.join(out, "history.csv"))
    print(f"wrote {os.path.join(out, 'history.csv')}")
    _emit_metrics(model, out, prefix="")
    return 0


def cmd_eval(cfg: RunConfig, out: str) -> int:
    graph = _load_graph(cfg)
    ckpt = cfg.checkpoint or os.path.join(out, "model.ckpt")
    # the trained filter plan, not a fresh one: no ranking, no eigendecomposition
    model = build_model(graph, cfg, plan=checkpoint_plan(ckpt))
    load_checkpoint(model, ckpt)
    _emit_metrics(model, out, prefix="eval_")
    return 0


def _emit_metrics(model, out: str, prefix: str) -> None:
    """Test-split metrics and curves, written only when the split holds both
    classes; otherwise one line says why, and the command still succeeds."""
    graph = model.graph
    mask = graph.split_masks["test"]
    labels = graph.labels[mask]
    if len(set(labels.tolist())) < 2:
        why = "is empty" if not mask.any() else "holds a single class"
        print(f"skipped {prefix}metrics.json, {prefix}roc.csv and {prefix}pr.csv: "
              f"the test split {why}")
        return
    fp = forward_pass(model, record=False)
    rec = split_metrics(fp.prob, graph, "test")
    _write_json(os.path.join(out, f"{prefix}metrics.json"), rec.as_dict())
    scores = fp.prob[mask, 1]
    _write_csv(os.path.join(out, f"{prefix}roc.csv"), ["fpr", "tpr"],
               [[_fmt(a), _fmt(b)] for a, b in roc_points(scores, labels)])
    _write_csv(os.path.join(out, f"{prefix}pr.csv"), ["recall", "precision"],
               [[_fmt(a), _fmt(b)] for a, b in pr_points(scores, labels)])


COMMANDS = {
    "filters": (cmd_filters, "dump the candidate filter table (CSV + JSON); the fit "
                             f"error is that of the cheb series in {CHEB_BASIS}"),
    "metapaths": (cmd_metapaths, "list meta-paths, divisions, and representatives"),
    "analyze": (cmd_analyze, "dump spectral profiles of the division representatives"),
    "synth": (cmd_synth, "generate a synthetic labeled graph"),
    "train": (cmd_train, "train a model and write checkpoint, history, metrics"),
    "eval": (cmd_eval, "score the graph with a checkpoint's weights and filter plan"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chigad",
        description="Chi-Square graph wavelet anomaly detection on heterogeneous graphs")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="path to a key = value config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg.seed = args.seed
        cfg.validate()
        os.makedirs(args.out, exist_ok=True)
        return COMMANDS[args.command][0](cfg, args.out)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
