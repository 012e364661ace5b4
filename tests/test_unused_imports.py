"""Every name a finsite module imports is used in that module.

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
