"""Exact and approximate counting of independent sets in k-partite
k-uniform hypergraphs via polymer models and truncated cluster expansion,
with an exact integer counter to check the expansion against."""

from .clusters import (Cluster, CountEstimate, cluster_weight,
                       enumerate_clusters, estimate_count, truncated_log_xi,
                       ursell)
from .errors import (BudgetExceeded, GenerationError, HypercountError,
                     InputError)
from .exact import (class_mask, count_independent_sets,
                    count_subsets_avoiding, count_with_defect_class,
                    edge_masks)
from .formats import (digest, load, loads, parse_json, parse_text,
                      serialize_text)
from .formulas import (ClosedFormEstimate, closed_form_t1, closed_form_t2,
                       gamma_k, ordered_pair_sum_enumerated, pair_polymer_sum,
                       singleton_sum)
from .hypergraph import (Hypergraph, LinkGraph, Vertex, find_loose_cycle,
                         find_loose_cycle_through, girth_at_most)
from .lab import (PropertyReport, check_common_neighbor, check_def,
                  check_exp1, check_exp2, check_girth, check_linear,
                  check_reg, gen_linear_regular)
from .logdomain import format_log, log_of, log_sum_exp
from .polymers import (KpTerms, Polymer, compatibility_sum, compatible,
                       enumerate_polymers, kp_terms, partition_function,
                       polymer_weight)

__version__ = "0.1.0"
