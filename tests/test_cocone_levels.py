"""A tower colimit is its tower and its level colimits: the cocone at level j
is levels[j].cocone, and no cocone leg is built.  A corrupted tower-colimit
bond is still caught, by the squares of the level morphisms built on it.
Composition-table entries with an identity factor, which `compose` answers
by rule, are checked against that rule."""

import json
from pathlib import Path

import pytest

from finsite import towers, values
from finsite.category import (Cover, Coverage, FiniteCategory, Morphism, SiteSpec,
                              sieve_levels, validate_site)
from finsite.cli import main
from finsite.cosheaf import constant_precosheaf, cosheafify, tensor_with_sieve
from finsite.errors import EngineError, InvalidCategory
from finsite.spaces import converging_sequence_site, site_points
from finsite.towers import LevelMorphism, tower_colimit
from finsite.values import FINAB, FINSET, FinAbMap, FinSetMap, finset, free_ab
from test_towers import _wedge_diagram

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("category", [FINSET, FINAB])
def test_tower_colimit_of_three_nodes_builds_no_level_morphism(monkeypatch, category):
    shape, nodes, edges = _wedge_diagram(category, [1, 2, 2, 3, 3], [1, 1, 2, 2, 3])
    built = []
    check = LevelMorphism.__post_init__
    monkeypatch.setattr(LevelMorphism, "__post_init__",
                        lambda self: (built.append(self), check(self))[1])
    res = tower_colimit(shape, nodes, edges, 4)
    assert built == []
    assert len(res.levels) == 5
    assert all(set(r.cocone) == {"s", "t", "w"} for r in res.levels)
    assert res.tower.levels == tuple(r.obj for r in res.levels)


def _corrupted(f):
    """f followed by a cyclic shift of its target's elements (finite sets),
    or twice f (abelian groups)."""
    if isinstance(f, FinSetMap):
        els = f.dst.elements
        after = {x: els[(i + 1) % len(els)] for i, x in enumerate(els)}
        return FinSetMap(f.src, f.dst, tuple((x, after[y]) for x, y in f.table))
    return FinAbMap(f.src, f.dst, tuple(tuple(2 * v for v in row) for row in f.matrix))


def _corrupt_tower_colimit_bonds(monkeypatch):
    # towers.out_map builds the bonds of tower colimits, and nothing else
    monkeypatch.setattr(towers, "out_map", lambda *args: _corrupted(values.out_map(*args)))


@pytest.mark.parametrize("value", [finset("a", "b"), free_ab(1)], ids=["finset", "finab"])
def test_a_corrupted_bond_fails_the_comparison_squares(monkeypatch, value):
    spec = converging_sequence_site(6)
    a = constant_precosheaf(spec, value, 4, site_points(spec))
    sieves = {(s.target, tuple(sorted(s.members))): s
              for u in spec.category.objects for s in sieve_levels(spec, u, 4) if s.members}
    assert len(sieves) == 26
    _corrupt_tower_colimit_bonds(monkeypatch)
    for key in sorted(sieves):
        with pytest.raises(EngineError, match="level morphism squares fail"):
            tensor_with_sieve(a, sieves[key])


def test_a_corrupted_bond_under_the_point_fails_the_plus_action_squares(monkeypatch):
    # the comparison map into a point cannot see classes permuted; the plus
    # construction's action squares, built on the same bonds, do
    spec = converging_sequence_site(6)
    a = constant_precosheaf(spec, finset("*"), 4, site_points(spec))
    _corrupt_tower_colimit_bonds(monkeypatch)
    with pytest.raises(EngineError, match="level morphism squares fail"):
        cosheafify(a, 4)


def _two_arrows(composition):
    """Objects x, y and two morphisms f, g: x -> y, with the given table."""
    morphisms = (Morphism("id:x", "x", "x"), Morphism("id:y", "y", "y"),
                 Morphism("f", "x", "y"), Morphism("g", "x", "y"))
    return FiniteCategory(("x", "y"), morphisms, {"x": "id:x", "y": "id:y"}, composition)


@pytest.mark.parametrize("composition,lines", [
    ({("id:y", "f"): "g"}, ["left identity fails on f"]),
    ({("g", "id:x"): "f"}, ["right identity fails on g"]),
    # in (f, g) order: (id:x, g) comes before (f, id:y)
    ({("id:y", "f"): "g", ("g", "id:x"): "f"},
     ["right identity fails on g", "left identity fails on f"]),
    ({("id:y", "f"): "f", ("g", "id:x"): "g", ("id:x", "id:x"): "id:x"}, []),
], ids=["left", "right", "both", "agreeing"])
def test_identity_entries_are_checked_against_the_rule(composition, lines):
    cat = _two_arrows(composition)
    assert cat.check_axioms() == lines
    spec = SiteSpec(cat, Coverage({u: (Cover(u, (cat.id_of(u),)),) for u in cat.objects}))
    if lines:
        with pytest.raises(InvalidCategory, match="invalid category: " + "; ".join(lines)):
            validate_site(spec)
    else:
        assert validate_site(spec).passed


def test_validate_refuses_the_identity_entry_site_document(capsys):
    assert main(["validate", str(DATA / "identity_entry_site.json")]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "INPUT-ERROR"
    assert report["witnesses"] == ["invalid category: left identity fails on f"]
