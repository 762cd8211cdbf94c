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
