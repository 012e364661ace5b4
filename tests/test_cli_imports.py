"""Each CLI command loads only the finsite modules it runs, and the package
re-exports the same names and objects as when it imported every module.

The command checks run in fresh interpreters, because this test process has
already loaded every module.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import finsite
from finsite import io, open_site, pseudocircle, site_points
from finsite.sheaf import Presheaf
from finsite.values import FINSET, finset, finset_map

DATA = Path(__file__).resolve().parent / "data"
SRC = Path(finsite.__file__).resolve().parents[1]

# The package surface as the eager `__init__` exported it: each name with
# the module that defines it, plus the engine modules themselves.
EXPORTS = {
    "category": ("Cover", "CoverChain", "Coverage", "FiniteCategory", "Morphism",
                 "PointFilter", "Sieve", "SiteSpec", "comma_of_sieve", "find_refinement",
                 "poset_category", "sieve_from_cover", "validate_site"),
    "cosheaf": ("Precosheaf", "PrecosheafMorphism", "check_cosheaf", "constant_precosheaf",
                "cosheaf_defect", "cosheafify", "costalk", "is_locally_zero", "is_smooth",
                "plus_cosheaf", "precosheaf_from_tables", "strong_local_iso_check",
                "tensor_with_sieve", "universal_factorization_check"),
    "errors": ("EngineError", "HeterogeneousDiagram", "InsufficientDepth", "InvalidCategory",
               "InvalidDocument", "SiteError"),
    "report": ("CheckReport",),
    "sheaf": ("Presheaf", "check_sheaf", "hom_into_presheaf", "hom_with_sieve", "plus_sheaf",
              "sheafify", "stalk"),
    "spaces": ("FiniteSpace", "builtin_demos", "converging_sequence_site", "h0_precosheaf",
               "open_site", "pi0_precosheaf", "pseudocircle", "site_points"),
    "towers": ("LevelMorphism", "Tower", "equal_at_depth", "is_epi_at_depth", "is_iso_at_depth",
               "is_rudimentary_at_depth", "pro_hom_at_depth", "tower_colimit"),
    "values": ("FINAB", "FINSET", "FinAbMap", "FinAbObj", "FinSetMap", "FinSetObj",
               "FiniteDiagram", "classify_map", "finite_colimit", "finite_limit",
               "functor_pairings", "set_pairings", "smith_normal_form"),
}
MODULES = ("category", "cosheaf", "errors", "intmat", "report", "sheaf", "spaces", "towers",
           "values")

# Runs the CLI (or, with no arguments, only imports the package) and writes
# the finsite modules then loaded as the last line of stderr.
_PROBE = """
import sys
import finsite
code = None
if sys.argv[1:]:
    import finsite.cli
    code = finsite.cli.main(sys.argv[1:])
print(" ".join(sorted(m for m in sys.modules if m.startswith("finsite."))), file=sys.stderr)
sys.exit(code)
"""


def _loaded(argv: list[str], code: int = 0) -> set[str]:
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run([sys.executable, "-c", _PROBE, *argv], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == code, run.stderr
    return {m.removeprefix("finsite.") for m in run.stderr.splitlines()[-1].split()}


def test_importing_the_package_loads_no_module():
    assert _loaded([]) == set()


def test_validate_loads_no_cosheaf_sheaf_or_driver_module():
    loaded = _loaded(["validate", str(DATA / "pseudocircle_site.json")])
    assert {"category", "values", "io", "cli"} <= loaded
    assert not loaded & {"cosheaf", "towers", "sheaf", "spaces", "randsuite"}


def test_check_cosheaf_loads_no_sheaf_or_driver_module():
    loaded = _loaded(["check-cosheaf", str(DATA / "pi0_by_site_reference.json")])
    assert {"cosheaf", "towers"} <= loaded
    assert not loaded & {"sheaf", "spaces", "randsuite"}


def test_check_sheaf_loads_no_cosheaf_or_driver_module(tmp_path):
    site = open_site(pseudocircle())
    one = finset("*")
    ident = finset_map(one, one, {"*": "*"})
    io.save(Presheaf(site, FINSET, {u: one for u in site.category.objects},
                     {m.id: ident for m in site.category.morphisms}, site_points(site)),
            tmp_path / "terminal.json")
    loaded = _loaded(["check-sheaf", str(tmp_path / "terminal.json")])
    assert "sheaf" in loaded
    assert not loaded & {"cosheaf", "towers", "spaces", "randsuite"}


def test_demo_loads_spaces_but_not_randsuite():
    loaded = _loaded(["demo", "pi0-pseudocircle"])
    assert "spaces" in loaded and "randsuite" not in loaded


def test_all_is_the_eager_surface():
    names = [name for names in EXPORTS.values() for name in names]
    assert len(names) + len(MODULES) == 79
    assert finsite.__all__ == sorted([*names, *MODULES])


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_its_defining_module_object(module):
    home = importlib.import_module(f"finsite.{module}")
    for name in EXPORTS[module]:
        value = getattr(finsite, name)
        assert value is getattr(home, name)
        if callable(value):   # defined there, not re-exported from elsewhere
            assert value.__module__ == home.__name__


def test_module_names_are_the_modules():
    for name in MODULES:
        assert getattr(finsite, name) is importlib.import_module(f"finsite.{name}")


def test_star_import_binds_every_name():
    namespace = {}
    exec("from finsite import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(finsite.__all__)


def test_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        finsite.no_such_name
