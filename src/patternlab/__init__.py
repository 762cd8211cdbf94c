"""patternlab: Lagrangians of r-uniform patterns, pattern gluing, and blowups.

Patterns are templates for hypergraph families; their Lagrangians (maxima of
the edge-density polynomial over the probability simplex) and the gluing
calculus on them are the working objects here, together with desk-scale
verification suites for every identity the machinery relies on.
"""

__version__ = "0.1.0"

from .errors import CapExceeded, FormatError, PatternLabError
from .patterns import (
    Hypergraph,
    Multiset,
    Pattern,
    complete_graph,
    complete_pattern,
    induced_subpattern,
    iter_multisets,
    load_any,
    load_hypergraph,
    load_pattern,
    offdiagonal_pattern,
    pattern_from_json,
    pattern_of_hypergraph,
    pattern_to_json,
    hypergraph_from_json,
    hypergraph_to_json,
    random_pattern,
    relabel_pattern,
    remove_index,
    save_hypergraph,
    save_pattern,
    validate_hypergraph_document,
    validate_pattern_document,
)
from .lagrangian import (
    MinimalityReport,
    OptimizerConfig,
    OptimizerReport,
    SimplexPoint,
    eval_lagrange,
    eval_lagrange_unnormalized,
    grad_lagrange,
    grid_oracle,
    is_minimal,
    lagrangian_of_hypergraph,
    maximize,
    minimality_suite,
    project_to_simplex,
)
from .algebra import (
    CatalogEntry,
    UnionLabeling,
    UnionLambdaCheck,
    decomposition_suite,
    eval_decomposition,
    grosu_map,
    map_f,
    multiset_power_gap,
    nonjump_catalog,
    union_lambda_suite,
    union_on_set,
    verify_union_lambda,
)
from .blowups import (
    ConstructionCheck,
    Partition,
    SequenceCheckReport,
    blowup,
    blowup_density,
    blowup_edge_count,
    construction_lagrangian_check,
    construction_suite,
    density,
    sequence_check,
)
