"""Matching and independence complexes of grid-like graphs: graph families,
matching-tree Morse matchings, critical-cell censuses, and exact integral
homology for desk-scale verification."""

from .census import (CensusTable, DimensionBounds, census_extend, census_seed,
                     census_table, dimension_bounds, euler_closed_form,
                     euler_from_table, euler_recursion, low_homology_prediction,
                     observation_scan, riordan_T, riordan_identity_check)
from .comb import (PIVOT_RULE, CriticalCensus, StrategyScript, census_from_tree,
                   comb_tree, path_tree, star_tree, theta_tree)
from .complexes import (CapacityError, SimplicialComplex, count_independent_sets,
                        independence_complex, join, matching_complex)
from .graphs import (END_A, END_B, Graph, build_graph, delta2_isomorphism,
                     grid_edge, line_graph, neighbors, plain, spine, tendril)
from .homology import (HomologyReport, IntegerMatrix, SNFResult,
                       boundary_matrices, full_homology, morse_homology,
                       morse_inequality_check, reduced_homology,
                       smith_normal_form)
from .morse import (FacePairing, Free, Match, MatchingTree, MatchingTreeError,
                    SigmaNode, Split, collect_pairing, critical_cells,
                    run_strategy, verify_acyclic)

__version__ = "0.1.0"
