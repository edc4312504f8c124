"""Exact computation and verification toolkit for 2-spin systems.

Partition functions with pinned vertices, self-avoiding-walk trees,
Christoffel-Darboux tree identities (including the q-spin determinant
form), Lee-Yang zero experiments, Taylor-coefficient locality, and
empirical spatial-mixing decay profiles -- all on exact Gaussian-rational
arithmetic, with floating point confined to root finding and decay fits.
"""

from .errors import (CapExceededError, DrawLimitError, GraphFormatError,
                     NotATreeError, PinningError, RootConvergenceError,
                     SeriesDivisionError, ZeroPartitionError)
from .graphs import (Graph, MINUS, PLUS, Pinning, SawTree, build_saw_tree,
                     build_saw_tree_truncated, disagreement_distance,
                     is_feasible, is_proper, parse_graph, parse_pinning)
from .identities import (CdReport, cd_equivalent_forms, cd_sides, gutman_sides,
                         qspin_det_sides)
from .mixing import (DecayInstance, DecayProfile, LdcReport, MarginalSeries,
                     decay_profile, ldc_report, ldc_report_beta, marginal,
                     marginal_series_beta, marginal_series_lambda,
                     path_decay_instances, saw_tree_marginal,
                     verify_saw_marginal, weitz_approx_marginal)
from .numerics import (ExactComplex, Polynomial, PowerSeries, match_roots,
                       parse_scalar, poly_roots, series_div)
from .partition import (Params, QSpinParams, TreeMessages, eliminate_pins,
                        hardcore_params, spin_reversal, two_spin_embedding,
                        z_brute, z_poly_lambda, z_qspin_tree, z_tree)
from .zerofree import (RootReport, lambda_root_scan, pinned_annulus_check,
                       region_min_modulus, single_pin_check)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
