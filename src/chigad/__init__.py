"""Chi-Square graph wavelets and heterogeneous graph anomaly detection."""

from .chifilter import (admissibility_closed_form, admissibility_integral,
                        apply_filter, chi_mode, chi_moments, chi_response,
                        fit_grid_polynomial, fit_polynomial,
                        normalization_constant, PolyFilter)
from .config import RunConfig, SyntheticSpec, load_config, parse_config, sub_seed
from .hin import (HeteroGraph, MetaPath, MetaPathGraph, Relation,
                  degenerate_method1, degenerate_method2, enumerate_meta_paths,
                  hetero_graph_from_dict, laplacian, load_hetero_graph,
                  load_hetero_graph_csv, materialize_meta_path_graph,
                  save_hetero_graph)
from .metrics import (MetricsRecord, auprc, auroc, compute_metrics, f1_macro,
                      pr_points, recall, roc_points)
from .model import (ChiGadModel, TypePlan, build_model, forward_pass, load_checkpoint,
                    save_checkpoint)
from .spectral import (FusedFilter, SpectralProfile, assign_filter, fuse_filters,
                       graph_s_high, s_high, select_representatives, spectral_profile,
                       theorem1_search)
from .synthetic import generate_synthetic_hin
from .training import (Adam, CcLossConfig, ContributionVector, TrainRecord,
                       cc_weights, evaluate, node_contributions, train)

__version__ = "0.1.0"
