"""Train the detector on a planted-anomaly graph, against its own ablation.

One seed of the relational benchmark: anomalies differ only in which venue
their edges reach, two hops from any informative feature.  The full model
and a degree-1 low-pass ablation train on identical data from the same
config; the ablation is the built model with every filter swapped for
1 - w/2.  Its one-hop convolution cannot relay descriptor evidence to the
target rows, so the gap in the final table is the value of the
higher-degree band-matched filters.

The graph and the hyper-parameters are the c7 setup, demos/c7.cfg.

Run: python3 demos/train_eval.py [--seed N] [--epochs E]
"""

import argparse
from pathlib import Path

import numpy as np

from chigad.chifilter import PolyFilter
from chigad.config import load_config, sub_seed
from chigad.model import MetaGraphConvLayer, build_model
from chigad.synthetic import generate_synthetic_hin
from chigad.training import evaluate, train

C7_CFG = Path(__file__).resolve().parent / "c7.cfg"


def lowpass_ablation(model):
    """Swap every filter of a built model for the degree-1 low-pass 1 - w/2
    (response 1 at w = 0, 0 at w = 2), the ablation baseline.  Each bank
    entry then reads the first two of its cached powers."""
    lowpass = PolyFilter(np.array([0.5, -0.5]), 0.0)   # 1/2 - T_1(w - 1)/2
    for bank in model.banks.values():
        for e in bank.entries:
            e.poly = lowpass
    model.conv = MetaGraphConvLayer(model.conv.adjacency, [lowpass], model.conv.rows,
                                    model.conv.width)
    return model


def run_mode(graph, mode, cfg):
    model = build_model(graph, cfg)
    if mode == "lowpass1":
        lowpass_ablation(model)
    record = train(model, cfg)
    for stats in record.epochs[:: max(1, cfg.epochs // 5)]:
        print(f"    epoch {stats.epoch:>4}  loss {stats.loss:8.4f}  "
              f"val f1 {stats.val_f1:.3f}")
    return evaluate(model, "test")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=300)
    args = ap.parse_args()

    cfg = load_config(str(C7_CFG))
    cfg.seed, cfg.epochs = args.seed, args.epochs
    graph = generate_synthetic_hin(cfg.synth, sub_seed(cfg.seed, "synth"))
    n_anom = int(sum(graph.labels))
    print(f"graph: {graph.node_counts} nodes, {n_anom} anomalous targets")

    results = {}
    for mode in ("chi", "lowpass1"):
        print(f"\ntraining {mode}")
        results[mode] = run_mode(graph, mode, cfg)

    print(f"\n{'mode':<10} {'auroc':>7} {'auprc':>7} {'f1':>7} {'recall':>7}")
    for mode, m in results.items():
        print(f"{mode:<10} {m.auroc:>7.3f} {m.auprc:>7.3f} "
              f"{m.f1_macro:>7.3f} {m.recall:>7.3f}")


if __name__ == "__main__":
    main()
