"""Show how planted anomalies surface as high-frequency energy.

One synthetic heterogeneous graph, anomalies rewired halfway into the shadow
venue so their neighborhoods mix both classes.  On the target type's
meta-path graph the script profiles three signals of increasing roughness:
a constant, the anomaly indicator, and the top eigenvector of the graph's
normalized Laplacian.  For each it prints the per-band energy shares, the
high-frequency area x'Lx/x'x, the energy-weighted band center, and the
filter index that center selects.  The constant pins the bottom band and
picks the low-pass member; the anomaly indicator carries real mass in the
upper bands because anomalous nodes sit across edges from benign ones; the
eigenvector drives the assignment up the family.

Run: python3 demos/meta_path_spectra.py [--seed N]
"""

import argparse

import numpy as np

from chigad.config import SyntheticSpec
from chigad.hin import enumerate_meta_paths, laplacian, materialize_meta_path_graph
from chigad.spectral import assign_filter, s_high, spectral_profile
from chigad.synthetic import generate_synthetic_hin

SPEC = SyntheticSpec(sizes=(120, 40, 40), feature_dims=(4, 6, 5),
                     communities=3, anomaly_rate=0.08, shift=0.0, rewire=0.5)
CANDIDATES = (1, 3, 5, 7)
BANDS = 5


def probe(name, x, mg, L):
    prof = spectral_profile(mg, x.reshape(-1, 1), BANDS)
    shares = prof.band_energies / prof.band_energies.sum()
    picked = assign_filter(prof.band_max, list(CANDIDATES))
    print(f"  {name:<18} shares " + " ".join(f"{float(s):.3f}" for s in shares)
          + f"   s_high {s_high(x, L):7.4f}   center {prof.band_max:.4f}"
            f"   -> filter i={picked}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    g = generate_synthetic_hin(SPEC, args.seed)
    n = g.node_counts[g.target_type]
    labels = np.asarray(g.labels, dtype=np.float64)
    print(f"graph: {g.node_counts} nodes, {int(labels.sum())} anomalous targets, "
          f"rewire {SPEC.rewire}")

    path = enumerate_meta_paths(g, g.target_type, 2, 2)[0]
    mg = materialize_meta_path_graph(g, path)
    print(f"meta-path graph {path}: {mg.adjacency.nnz} edges\n")

    L = laplacian(mg.adjacency)
    top = np.linalg.eigh(L.toarray())[1][:, -1]

    probe("constant", np.ones(n), mg, L)
    probe("anomaly indicator", labels, mg, L)
    probe("top eigenvector", top, mg, L)

    print("\nBand energy maps straight to filter choice: the smoother the "
          "signal, the lower the selected index.  The anomaly indicator is "
          "the interesting row, its off-bottom mass is exactly the "
          "high-frequency footprint the planted rewiring leaves behind.")


if __name__ == "__main__":
    main()
