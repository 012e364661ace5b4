"""A seeded, bounded sweep of mutated documents through the CLI.

Each case takes a valid `check-cosheaf`, `check-sheaf` or `validate`
document, changes one node (replaces it by a value of another JSON type,
deletes it, duplicates it or swaps in another string of the document) and
runs the command in-process.  The exit-code contract must hold for every
case: 0 with a passing report, 1 with a FAIL report that carries a witness,
or 2 with an INPUT-ERROR report; never 3 (an engine fault) or a traceback.
"""

import copy
import json
import random

from finsite import io
from finsite.cli import main
from finsite.spaces import (FiniteSpace, h0_precosheaf, open_site, pi0_precosheaf,
                            pseudocircle, site_points)
from finsite.sheaf import Presheaf
from finsite.values import FINSET, finset, finset_map, free_ab

SEED = 20240607
CASES_PER_DOCUMENT = 90
REPLACEMENTS = (7, -1, 0, 2.5, True, None, "", "x", [], {}, [1], ["x"], [[]], {"x": 1})


def _documents(tmp_path):
    """(command, base document) pairs, one per document kind and value category."""
    space = pseudocircle()
    site = open_site(space)
    fence = FiniteSpace(("a", "b", "c", "d"),
                        frozenset({("a", "b"), ("c", "b"), ("c", "d")}))
    fence_site = open_site(fence, "generated")
    g = finset("0", "1")
    ident = {x: x for x in g.elements}
    presheaf = Presheaf(fence_site, FINSET, {u: g for u in fence_site.category.objects},
                        {m.id: finset_map(g, g, ident) for m in fence_site.category.morphisms},
                        site_points(fence_site))
    objects = (("validate", site),
               ("check-cosheaf", pi0_precosheaf(site, space)),
               ("check-cosheaf", h0_precosheaf(site, space, free_ab(1))),
               ("check-sheaf", presheaf))
    out = []
    for i, (command, obj) in enumerate(objects):
        path = tmp_path / f"base-{i}.json"
        io.save(obj, path)
        out.append((command, json.loads(path.read_text(encoding="utf-8"))))
    return out


def _nodes(node, path=()):
    """Every (container path, key) below the root, depth first."""
    keys = sorted(node) if isinstance(node, dict) else \
        range(len(node)) if isinstance(node, list) else ()
    for key in keys:
        yield path, key
        yield from _nodes(node[key], (*path, key))


def _strings(node):
    if isinstance(node, str):
        yield node
    elif isinstance(node, dict):
        for k, v in node.items():
            yield k
            yield from _strings(v)
    elif isinstance(node, list):
        for v in node:
            yield from _strings(v)


def _mutated(doc, rng):
    """A copy of `doc` with one node changed, and a label saying how."""
    doc = copy.deepcopy(doc)
    path, key = rng.choice(list(_nodes(doc)))
    parent = doc
    for step in path:
        parent = parent[step]
    where = "/" + "/".join(map(str, (*path, key)))
    kind = rng.choice(("replace", "replace", "delete", "duplicate", "string"))
    if kind == "delete":
        del parent[key]
    elif kind == "duplicate" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    elif kind == "string":
        parent[key] = rng.choice(sorted(set(_strings(doc))))
    else:
        kind = "replace"
        parent[key] = copy.deepcopy(rng.choice(REPLACEMENTS))
    return doc, f"{kind} {where}"


def _outcome(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mutated_documents_keep_the_exit_code_contract(tmp_path, capsys):
    rng = random.Random(SEED)
    seen = {0: 0, 1: 0, 2: 0}
    for n, (command, base) in enumerate(_documents(tmp_path)):
        path = tmp_path / f"base-{n}.json"
        code, out, err = _outcome(capsys, [command, str(path)])
        assert code in (0, 1) and not err, (command, code, out)   # the base is valid
        for i in range(CASES_PER_DOCUMENT):
            doc, label = _mutated(base, rng)
            path = tmp_path / f"case-{n}-{i}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            code, out, err = _outcome(capsys, [command, str(path)])
            case = f"{command} {label}"
            assert "Traceback" not in err, case
            assert code in (0, 1, 2), (case, code, out)
            report = json.loads(out)
            if code == 0:
                assert report["verdict"].startswith("PASS"), case
            elif code == 1:
                assert report["verdict"] == "FAIL" and report["witnesses"], case
            else:
                assert report["verdict"] == "INPUT-ERROR" and report["witnesses"], case
            seen[code] += 1
    # the sweep reaches more than one branch of the contract
    assert seen[2] > 0 and seen[0] + seen[1] > 0, seen
