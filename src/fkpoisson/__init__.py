"""Random-cluster simulation and Poisson-approximation diagnostics for the
point process of large-finite-cluster mass centers."""

__version__ = "0.1.0"

from .lattice import (Box, l1, pair_order, pair_sort_key, set_distance,
                      star_neighbors)
from .fk import (FREE, WIRED, BondConfig, BoundaryCondition, FKParams,
                 ResourceCapError, cluster_count, config_from_bytes,
                 config_to_bytes, finite_energy_floor, label_sites,
                 log_weight, sample, sample_states, site_components, sweep,
                 swendsen_wang_step, weight)
from .census import (Census, Cluster, ClusterSet, DecayEstimate,
                     census_from_states, census_sampled, decay_rate,
                     label_clusters, mass_center, state_chunks,
                     theta_estimate)
from .oracle import (ExactDistribution, PatternLaw, conjecture7_check,
                     enumerate_measure, exact_point_process_law,
                     exact_px_field,
                     exact_pxy_matrix, exact_ratio_mixing, exact_tv,
                     product_law, sample_exact)
from .chenstein import (B3Estimate, ChenSteinReport, PairStats,
                        PoissonComparison, compute_b1_b2, compute_b3,
                        estimate_pxy, exact_bound_instance, neighborhood,
                        poisson_count_test, tv_bound)
from .surgery import (SurgeryResult, antecedent_bound, axis_path,
                      count_antecedents, first_pair, transform,
                      weight_ratio_check)
from .coupling import (ClaimsCheck, Coloring, CouplingOutcome, analyze_pair,
                       black_cluster, check_claims, color_sites,
                       influence_decay, interior_boundary, k_event,
                       mixing_scan)
from .wulff import (ShapeDiagnostic, ShapeMask, empirical_shape, fatten,
                    renormalize, square_shape, symdiff_volume,
                    symmetric_difference_stat)
