import inspect
import types

import patternlab as pl


def test_top_level_names_are_the_module_lists():
    # every public name of the package comes from one module's __all__, and
    # every name in those lists is exported: nothing is exported by accident
    exported = {name for name, value in vars(pl).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    modules = (pl.patterns, pl.lagrangian, pl.algebra, pl.blowups)
    listed = set().union(*(module.__all__ for module in modules))
    assert exported == listed | {"CapExceeded", "FormatError", "PatternLabError"}
    assert isinstance(pl.__version__, str)


# The parameter names of every exported function and class, keyword options
# included: a new option has to be added here on purpose, as a new export
# has to be added to a module's __all__.
SIGNATURES = {
    # patterns
    "Multiset": ("indices",),
    "Pattern": ("m", "r", "edges"),
    "Hypergraph": ("n", "r", "edges"),
    "induced_subpattern": ("P", "S"),
    "remove_index": ("P", "i"),
    "relabel_pattern": ("P", "permutation"),
    "pattern_of_hypergraph": ("G",),
    "validate_pattern_document": ("doc",),
    "validate_hypergraph_document": ("doc",),
    "pattern_to_json": ("P",),
    "pattern_from_json": ("text",),
    "hypergraph_to_json": ("G",),
    "hypergraph_from_json": ("text",),
    "load_pattern": ("path",),
    "load_hypergraph": ("path",),
    "load_any": ("path",),
    "save_pattern": ("P", "path"),
    "save_hypergraph": ("G", "path"),
    "iter_multisets": ("indices", "size"),
    "complete_graph": ("m",),
    "complete_pattern": ("m", "r"),
    "offdiagonal_pattern": ("m", "r"),
    "random_pattern": ("rng", "m", "r", "allow_empty", "exclude"),
    # lagrangian
    "SimplexPoint": ("weights",),
    "OptimizerConfig": ("restarts", "max_iterations", "tolerance", "seed"),
    "OptimizerReport": ("value", "argmax", "support", "restarts_used", "converged",
                        "kkt_residual"),
    "MinimalityReport": ("minimal", "value", "margins", "converged", "argmax"),
    "eval_lagrange": ("P", "x"),
    "eval_lagrange_unnormalized": ("P", "y"),
    "grad_lagrange": ("P", "x"),
    "maximize": ("P", "cfg"),
    "grid_oracle": ("P", "d"),
    "is_minimal": ("P", "cfg"),
    "lagrangian_of_hypergraph": ("G", "cfg"),
    "project_to_simplex": ("y",),
    "minimality_suite": ("cfg", "seed"),
    # algebra
    "UnionLabeling": ("m1", "m2", "glue", "origin"),
    "UnionLambdaCheck": ("union_value", "reduced_value", "lambda2", "gap", "new_m", "converged"),
    "CatalogEntry": ("statement", "value", "status", "source", "note"),
    "union_on_set": ("P1", "P2", "glue"),
    "eval_decomposition": ("P1", "P2", "glue", "x"),
    "map_f": ("P1", "glue", "lambda2", "cfg"),
    "grosu_map": ("a", "m", "r"),
    "verify_union_lambda": ("P1", "P2", "glue", "cfg"),
    "nonjump_catalog": ("r", "frankl_rodl_l"),
    "multiset_power_gap": ("y", "s"),
    "decomposition_suite": ("trials", "seed"),
    "union_lambda_suite": ("cfg", "seed"),
    # blowups
    "Partition": ("parts",),
    "blowup": ("P", "sizes"),
    "blowup_edge_count": ("P", "sizes"),
    "density": ("G",),
    "blowup_density": ("P", "sizes"),
    "ConstructionCheck": ("pattern_value", "construction_value", "ok", "converged"),
    "construction_lagrangian_check": ("P", "sizes", "cfg"),
    "construction_suite": ("seed", "cfg"),
    "SequenceCheckReport": ("lambda0", "k", "per_t", "trend_slope", "cond2_all", "cond3_all",
                            "verdicts"),
    "sequence_check": ("patterns", "k", "lambda0", "eps", "cfg"),
}


def test_exported_signatures_are_pinned():
    modules = (pl.patterns, pl.lagrangian, pl.algebra, pl.blowups)
    got = {name: tuple(inspect.signature(getattr(module, name)).parameters)
           for module in modules for name in module.__all__}
    assert got == SIGNATURES
