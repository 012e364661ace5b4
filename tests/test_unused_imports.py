"""Every name a finsite module imports is used in that module, every
private module-level function or class is used somewhere in the package,
and no function imports from the package: finsite has no import cycle to
guard, so every module imports its finsite names at its top.

`__init__.py` imports only to re-export, so it is skipped, and so is the
`from __future__ import annotations` switch.  A name counts as used when it
is read anywhere in the module, quoted annotations included.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "finsite"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    annotations = [n.annotation for n in ast.walk(tree)
                   if isinstance(n, (ast.arg, ast.AnnAssign)) and n.annotation]
    annotations += [n.returns for n in ast.walk(tree)
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.returns]
    for annotation in annotations:
        for n in ast.walk(annotation):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                quoted = ast.parse(n.value, mode="eval")  # such as "PrecosheafMorphism"
                used.update(q.id for q in ast.walk(quoted) if isinstance(q, ast.Name))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_every_module_is_checked():
    assert "cosheaf.py" in MODULES and "values.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert _unused_imports((SRC / module).read_text()) == []


def test_check_reports_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import itertools\n"
              "from .category import Morphism, Sieve\n"
              "def f(s: 'Sieve'):\n"
              "    return itertools.chain(s)\n")
    assert _unused_imports(source) == ["Morphism (line 3)"]


def _function_level_relative_imports(source: str) -> list[str]:
    """Relative imports made inside a function body, by line."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.update(f"{n.module or '.'} (line {n.lineno})" for n in ast.walk(node)
                         if isinstance(n, ast.ImportFrom) and n.level)
    return sorted(found)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_from_the_package_at_its_top(module):
    assert _function_level_relative_imports((SRC / module).read_text()) == []


def test_check_reports_a_function_level_relative_import():
    source = ("from . import values\n"
              "import json\n"
              "def f():\n"
              "    import traceback\n"
              "    def g():\n"
              "        from .cosheaf import coproduct\n"
              "        return coproduct\n"
              "    return g, values, json, traceback\n"
              "class C:\n"
              "    def m(self):\n"
              "        from . import io\n"
              "        return io\n")
    assert _function_level_relative_imports(source) == [". (line 11)", "cosheaf (line 6)"]


def _orphaned_private_definitions(sources: dict[str, str]) -> list[str]:
    """Private module-level functions and classes that no module reads,
    imports or reaches as an attribute, outside their own definition."""
    defined, used = {}, set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            owner = getattr(node, "name", None)
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and owner.startswith("_") and not owner.startswith("__")):
                defined[owner] = f"{module}:{node.lineno}"
            for n in ast.walk(node):
                if isinstance(n, ast.Name):
                    names = {n.id}
                elif isinstance(n, ast.Attribute):
                    names = {n.attr}
                elif isinstance(n, ast.ImportFrom):
                    names = {alias.name for alias in n.names}
                else:
                    continue
                used.update(names - {owner})
    return sorted(f"{name} ({where})" for name, where in defined.items() if name not in used)


def test_every_private_definition_is_used():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert _orphaned_private_definitions(sources) == []


def test_check_reports_an_orphaned_private_definition():
    sources = {"a.py": ("def _used():\n    return 1\n"
                        "def _recursive(n):\n    return _recursive(n - 1)\n"
                        "class _Orphan:\n    pass\n"),
               "b.py": "from .a import _used\n"}
    assert _orphaned_private_definitions(sources) == ["_Orphan (a.py:5)", "_recursive (a.py:3)"]
