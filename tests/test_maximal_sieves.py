"""Maximal sieves: the comparison over a sieve that holds id_u is an
identity, so the cosheaf and sheaf checks skip such covers on a thin site and
decide every other cover as before.  Over a declared composition table they
keep building it, and its closure check keeps refusing a table that is not a
category."""

import json
import random
import re

import pytest

from finsite import io
from finsite.category import (Cover, Coverage, FiniteCategory, Morphism, SiteSpec,
                              distinct_covers, sieve_from_cover)
from finsite.cli import main
from finsite.cosheaf import (check_cosheaf, constant_precosheaf, plus_cosheaf,
                             tensor_with_sieve)
from finsite.errors import SiteError
from finsite.randsuite import (random_finab_precosheaf, random_finset_precosheaf,
                               random_presheaf, random_site)
from finsite.sheaf import Presheaf, check_sheaf, hom_with_sieve
from finsite.spaces import (FiniteSpace, converging_sequence_site, open_site,
                            pi0_precosheaf, pseudocircle, site_points)
from finsite.towers import is_iso_at_depth
from finsite.values import classify_map, finset, finset_map


def _fence(n):
    pts = tuple("abcdefghijkl"[:n])
    leq = {(pts[i], pts[i + 1]) if i % 2 == 0 else (pts[i + 1], pts[i]) for i in range(n - 1)}
    return FiniteSpace(pts, frozenset(leq))


# (space or None, site, depth): the pseudocircle, the 5-point fence under both
# cover policies and the converging model at depth 3
NAMED = {
    "pseudocircle": lambda: (pseudocircle(), open_site(pseudocircle()), 0),
    "fence5-generated": lambda: (_fence(5), open_site(_fence(5), "generated"), 0),
    "fence5-all-irredundant": lambda: (_fence(5), open_site(_fence(5), "all-irredundant"), 0),
    "converging4": lambda: (None, converging_sequence_site(4), 3),
}


def _maximal_sieve(spec, u):
    return sieve_from_cover(spec, Cover(u, (spec.category.id_of(u),)))


def _constant_presheaf(spec, g):
    action = {m.id: finset_map(g, g, {x: x for x in g.elements}) for m in spec.category.morphisms}
    return Presheaf(spec, "finset", {u: g for u in spec.category.objects}, action,
                    site_points(spec))


def _assert_maximal_sieves_are_identities(spec, depth, rng):
    assert spec.category.thin
    a = random_finset_precosheaf(spec, rng, depth)
    b = random_finab_precosheaf(spec, rng, depth)
    precosheaves = (a, b, plus_cosheaf(a).precosheaf, plus_cosheaf(b).precosheaf)
    presheaves = (random_presheaf(spec, rng), _constant_presheaf(spec, finset("0", "1")))
    for u in sorted(spec.category.objects):
        sieve = _maximal_sieve(spec, u)
        assert spec.category.id_of(u) in sieve.members
        for c in precosheaves:
            compare = tensor_with_sieve(c, sieve).compare
            assert is_iso_at_depth(compare, c.depth).iso, (u, c.category)
        for p in presheaves:
            assert classify_map(hom_with_sieve(p, sieve).restriction).iso, u


@pytest.mark.parametrize("name", sorted(NAMED))
def test_maximal_sieve_comparison_is_iso_on_named_sites(name):
    _, spec, depth = NAMED[name]()
    _assert_maximal_sieves_are_identities(spec, depth, random.Random(name))


def test_maximal_sieve_comparison_is_iso_on_random_sites():
    for seed in range(40):
        rng = random.Random(seed)
        _assert_maximal_sieves_are_identities(random_site(rng), 0, rng)


def _is_maximal(spec, key):
    target, members = key
    return spec.category.id_of(target) in members


def _non_maximal_keys(spec, depth):
    keys = {(s.target, s.members) for u in spec.category.objects
            for s in (sieve_from_cover(spec, c) for c in distinct_covers(spec, u, depth))}
    return {k for k in keys if not _is_maximal(spec, k)}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_checks_build_nothing_over_a_maximal_sieve_on_a_thin_site(name):
    space, spec, depth = NAMED[name]()
    a = (pi0_precosheaf(spec, space) if space is not None
         else constant_precosheaf(spec, finset("*"), depth, site_points(spec)))
    expected = _non_maximal_keys(spec, depth)
    assert expected   # a non-maximal cover is still tensored
    assert any(_is_maximal(spec, (u, sieve_from_cover(spec, c).members))
               for u in spec.category.objects for c in distinct_covers(spec, u, depth))
    check_cosheaf(a)
    assert not [k for k in a._tensor_cache if _is_maximal(spec, k)]
    assert set(a._tensor_cache) == expected
    check_sheaf(_constant_presheaf(spec, finset("0", "1")), depth)
    assert not [k for k in spec._opposite_commas if _is_maximal(spec, k)]
    assert set(spec._opposite_commas) == {k for k in expected if k[1]}


def _non_associative_site():
    """Objects a, b; f, k: a -> b; g, h: b -> b, with g∘g = g∘h = h∘g = h∘h = h,
    g∘f = f, h∘f = k and g∘k = h∘k = k, so g∘(g∘f) = f but (g∘g)∘f = k; the
    trivial cover on each object."""
    morphs = (Morphism("id:a", "a", "a"), Morphism("id:b", "b", "b"),
              Morphism("f", "a", "b"), Morphism("k", "a", "b"),
              Morphism("g", "b", "b"), Morphism("h", "b", "b"))
    comp = {("g", "g"): "h", ("g", "h"): "h", ("h", "g"): "h", ("h", "h"): "h",
            ("g", "f"): "f", ("h", "f"): "k", ("g", "k"): "k", ("h", "k"): "k"}
    cat = FiniteCategory(("a", "b"), morphs, {"a": "id:a", "b": "id:b"}, comp)
    covers = {u: (Cover(u, (cat.id_of(u),)),) for u in cat.objects}
    return SiteSpec(cat, Coverage(covers), name="non-associative")


def test_declared_table_keeps_the_comma_closure_refusal(tmp_path, capsys):
    spec = _non_associative_site()
    assert not spec.category.thin
    assert spec.category.check_axioms() == ["associativity fails on (g,g,f)"]
    missing = "comma category not closed: missing 'f|k>g'"
    a = constant_precosheaf(spec, finset("0", "1"))
    with pytest.raises(SiteError, match=re.escape(missing)):
        check_cosheaf(a)
    with pytest.raises(SiteError, match=re.escape(missing)):
        check_sheaf(_constant_presheaf(spec, finset("0", "1")))
    path = tmp_path / "constant.json"
    io.save(a, path)
    assert main(["check-cosheaf", str(path)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "INPUT-ERROR"
    assert report["witnesses"] == [missing]
