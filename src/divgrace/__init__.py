"""Divisible graceful alpha-labelings of cylinder grids C_{4k} x P_m.

The package builds (2m-1)-, 2(2m-1)- and 4(2m-1)-divisible graceful
alpha-labelings of C_{4k} x P_m, the prism's 3-, 6- and 12-divisible
ones included, from one closed-form layer rule (construct), which
equals the paper's prism labelings extended layer by layer (extend).
A family is data: its multiplier and a rule that gives, for each k,
the lows and the subtrahends its layer pattern leaves out.
It derives cyclic decompositions of complete multipartite graphs from
any verified labeling, and carries an exhaustive search oracle that
double-checks everything by brute force on small instances.
"""

from .checking import (CheckReport, DParams, InvalidParametersError, Labeling,
                       check_alpha, check_d_graceful, d_params)
from .constructions import (F1, F2, F4, FAMILIES, ConstructionError, Family,
                            SeedMismatchError, construct, extend, layer_pattern,
                            prism_labeling, seed_matches)
from .decomp import (Decomposition, DecompositionTarget, MultipartiteSpec,
                     base_blocks, check_difference_classes, develop,
                     proposition_table, verify_decomposition)
from .grids import GridGraph, SimpleGraph, build_grid, two_coloring
from .oracle import (SearchConfig, SearchResult, cross_validate,
                     engine_accepts, search)

__version__ = "0.1.0"

__all__ = [
    "CheckReport", "ConstructionError", "DParams",
    "Decomposition", "DecompositionTarget", "F1", "F2", "F4", "FAMILIES",
    "Family", "GridGraph", "InvalidParametersError", "Labeling",
    "MultipartiteSpec", "SearchConfig",
    "SearchResult", "SeedMismatchError", "SimpleGraph", "base_blocks",
    "build_grid", "check_alpha", "check_d_graceful",
    "check_difference_classes", "construct", "cross_validate", "d_params",
    "develop", "engine_accepts", "extend", "layer_pattern", "prism_labeling",
    "proposition_table", "search", "seed_matches", "two_coloring",
    "verify_decomposition", "__version__",
]
