"""Exact computational engine for (pre)sheaves and (pre)cosheaves on finite
Grothendieck sites, with pro-valued (tower) cosheafification.

Names load on first use: reading `finsite.check_cosheaf` (or importing it
from the package) imports `finsite.cosheaf` then, and binds the name here
(PEP 562), so a process compiles only the modules whose names it reads.
Modules themselves import their finsite names at their top; this file is
the only place where a module loads on first use.
"""

import sys

_EXPORTS = {
    "category": ("Cover", "CoverChain", "Coverage", "FiniteCategory", "Morphism",
                 "PointFilter", "Sieve", "SiteSpec", "comma_of_sieve", "find_refinement",
                 "poset_category", "sieve_from_cover", "validate_site"),
    "cosheaf": ("Precosheaf", "PrecosheafMorphism", "check_cosheaf", "cosheaf_defect",
                "cosheafify", "constant_precosheaf", "costalk", "is_locally_zero",
                "is_smooth", "plus_cosheaf", "precosheaf_from_tables",
                "strong_local_iso_check", "tensor_with_sieve",
                "universal_factorization_check"),
    "errors": ("EngineError", "HeterogeneousDiagram", "InsufficientDepth",
               "InvalidCategory", "InvalidDocument", "SiteError"),
    "report": ("CheckReport",),
    "sheaf": ("Presheaf", "check_sheaf", "hom_into_presheaf", "hom_with_sieve",
              "plus_sheaf", "sheafify", "stalk"),
    "spaces": ("FiniteSpace", "builtin_demos", "converging_sequence_site", "h0_precosheaf",
               "open_site", "pi0_precosheaf", "pseudocircle", "site_points"),
    "towers": ("LevelMorphism", "Tower", "equal_at_depth", "is_epi_at_depth",
               "is_iso_at_depth", "is_rudimentary_at_depth", "pro_hom_at_depth",
               "tower_colimit"),
    "values": ("FINAB", "FINSET", "FinAbMap", "FinAbObj", "FinSetMap", "FinSetObj",
               "FiniteDiagram", "classify_map", "finite_colimit", "finite_limit",
               "functor_pairings", "set_pairings", "smith_normal_form"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# the engine modules are exported too; the drivers (io, cli, randsuite) load
# by name but stay out of `import *`
_ENGINE = (*_EXPORTS, "intmat")
_MODULES = (*_ENGINE, "io", "cli", "randsuite")

__all__ = sorted([*_HOME, *_ENGINE])


def __getattr__(name: str):
    module = _HOME.get(name, name)
    if module not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")   # unlike importlib's, logged by -X importtime
    value = sys.modules[f"{__name__}.{module}"]
    if module != name:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
