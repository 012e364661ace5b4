"""The commuting-square checks behind tower morphisms, precosheaf
functoriality and naturality, on finite sets and abelian groups, and the
pointwise predicate `values.commutes` against the composite-building oracle."""

import random

import pytest

from finsite import intmat, values
from finsite.category import Coverage, SiteSpec, poset_category
from finsite.cosheaf import PrecosheafMorphism, precosheaf_from_tables
from finsite.errors import EngineError
from finsite.randsuite import random_finab_precosheaf, random_finset_precosheaf, random_site
from finsite.towers import LevelMorphism, Tower
from finsite.values import (FINAB, FINSET, FinAbMap, FinAbObj, FinSetMap, compose, cyclic,
                            finab_map, finset, finset_map, free_ab, identity_map, maps_equal)

TWO = finset("0", "1")
SWAP = finset_map(TWO, TWO, {"0": "1", "1": "0"})
Z = free_ab(1)
ZERO = FinAbObj(0)


def _scalar(src, dst, k):
    return finab_map(src, dst, ((k,),))


# ---------------------------------------------------------------------------
# level morphism squares


@pytest.mark.parametrize("category", [FINSET, FINAB])
def test_non_commuting_level_morphism_names_the_level(category):
    obj, ident, bad = ((TWO, identity_map(TWO), SWAP) if category == FINSET
                       else (Z, identity_map(Z), _scalar(Z, Z, 2)))
    t = Tower.constant(obj, 2)
    with pytest.raises(EngineError, match="level morphism squares fail at level 1"):
        LevelMorphism(t, t, (ident, ident, bad))


@pytest.mark.parametrize("category", [FINSET, FINAB])
def test_level_morphism_needs_one_component_per_target_level_and_a_deep_enough_source(category):
    ident = identity_map(TWO if category == FINSET else Z)
    shallow, deep = Tower.constant(ident.src, 1), Tower.constant(ident.src, 2)
    assert LevelMorphism(deep, shallow, (ident, ident)).components == (ident, ident)
    for comps in ((ident,), (ident,) * 3):
        with pytest.raises(EngineError, match="one component per target level"):
            LevelMorphism(deep, shallow, comps)
    with pytest.raises(EngineError, match="source is shallower than the target"):
        LevelMorphism(shallow, deep, (ident,) * 3)


def test_square_commuting_modulo_target_relations_is_accepted():
    # 1 and 3 differ by 2, which is zero in the Z/2 target
    src, dst = Tower.constant(Z, 1), Tower.constant(cyclic(2), 1)
    f = LevelMorphism(src, dst, (_scalar(Z, cyclic(2), 1), _scalar(Z, cyclic(2), 3)))
    assert f.components[1].matrix == ((3,),)
    with pytest.raises(EngineError, match="level morphism squares fail at level 0"):
        LevelMorphism(Tower.constant(Z, 1), Tower.constant(cyclic(3), 1),
                      (_scalar(Z, cyclic(3), 1), _scalar(Z, cyclic(3), 3)))


def test_square_through_a_rank_zero_level_is_accepted():
    # Z <- 0 <- Z: the composite Z -> 0 -> Z is zero, as is 0 ∘ bond on the right
    src = Tower((Z, ZERO, Z), (FinAbMap(ZERO, Z, ((),)), FinAbMap(Z, ZERO, ())))
    dst = Tower.constant(Z, 2)
    comps = (identity_map(Z), FinAbMap(ZERO, Z, ((),)), _scalar(Z, Z, 0))
    assert LevelMorphism(src, dst, comps).components == comps
    with pytest.raises(EngineError, match="level morphism squares fail at level 1"):
        LevelMorphism(src, dst, comps[:2] + (_scalar(Z, Z, 5),))


def test_square_through_an_empty_level_is_accepted():
    empty = finset()
    src = Tower((finset("a"), empty, empty),
                (FinSetMap(empty, finset("a"), ()), identity_map(empty)))
    dst = Tower.constant(finset("a"), 2)
    into = FinSetMap(empty, finset("a"), ())
    comps = (identity_map(finset("a")), into, into)
    assert LevelMorphism(src, dst, comps).components == comps


# ---------------------------------------------------------------------------
# precosheaf functoriality and naturality


def _chain_site():
    """The poset a < b < c with no declared covers."""
    return SiteSpec(poset_category(["a", "b", "c"], [("a", "b"), ("b", "c")]),
                    Coverage({}), name="chain", poset=True)


def _actions(obj, a_b, a_c):
    ident = identity_map(obj)
    return {"a<a": ident, "b<b": ident, "c<c": ident, "a<b": a_b, "b<c": ident, "a<c": a_c}


@pytest.mark.parametrize("category", [FINSET, FINAB])
def test_bad_precosheaf_action_fails_functoriality(category):
    site = _chain_site()
    obj, ident, bad = ((TWO, identity_map(TWO), SWAP) if category == FINSET
                       else (Z, identity_map(Z), _scalar(Z, Z, 2)))
    tables = {u: obj for u in "abc"}
    good = precosheaf_from_tables(site, category, tables, _actions(obj, bad, bad), 2)
    assert good.action["a<c"].components[2] == bad
    with pytest.raises(EngineError, match=r"functoriality fails on \(b<c,a<b\)"):
        precosheaf_from_tables(site, category, tables, _actions(obj, bad, ident), 2)


@pytest.mark.parametrize("category", [FINSET, FINAB])
def test_bad_identity_action_is_rejected(category):
    site = _chain_site()
    obj, bad = (TWO, SWAP) if category == FINSET else (cyclic(3), _scalar(cyclic(3), cyclic(3), 2))
    with pytest.raises(EngineError, match="identity action at 'a' is not the identity"):
        precosheaf_from_tables(site, category, {u: obj for u in "abc"},
                               {**_actions(obj, identity_map(obj), identity_map(obj)),
                                "a<a": bad}, 1)


def test_functoriality_modulo_target_relations_is_accepted():
    # (b<c) ∘ (a<b) = 3 and a<c = 1 agree in Z/2
    site = _chain_site()
    tables = {"a": Z, "b": Z, "c": cyclic(2)}
    action = {"a<a": identity_map(Z), "b<b": identity_map(Z), "c<c": identity_map(cyclic(2)),
              "a<b": _scalar(Z, Z, 3), "b<c": _scalar(Z, cyclic(2), 1),
              "a<c": _scalar(Z, cyclic(2), 1)}
    a = precosheaf_from_tables(site, FINAB, tables, action, 1)
    assert a.action["a<c"].components[0].matrix == ((1,),)


@pytest.mark.parametrize("category", [FINSET, FINAB])
def test_bad_precosheaf_morphism_fails_naturality(category):
    site = _chain_site()
    obj, bad = (TWO, SWAP) if category == FINSET else (Z, _scalar(Z, Z, 2))
    ident = identity_map(obj)
    a = precosheaf_from_tables(site, category, {u: obj for u in "abc"},
                               _actions(obj, ident, ident), 2)
    t = a.values["a"]

    def morphism(at_a):
        comps = {u: LevelMorphism(t, t, (ident,) * 3) for u in "bc"}
        comps["a"] = LevelMorphism(t, t, (at_a,) * 3)
        return PrecosheafMorphism(a, a, comps)

    assert morphism(ident).components["a"].components[0] == ident
    with pytest.raises(EngineError, match="naturality fails on 'a<"):
        morphism(bad)


# ---------------------------------------------------------------------------
# values.commutes against the composite-building oracle


def _site_diagram(seed, category):
    """The edge maps at level 0 of the seeded random precosheaf of
    tests/test_universal_maps.py, with the generator for further draws."""
    rng = random.Random(seed)
    spec = random_site(rng)
    make = random_finset_precosheaf if category == FINSET else random_finab_precosheaf
    a = make(spec, rng)
    cat = spec.category
    return cat, {m.id: a.action[m.id].components[0] for m in cat.morphisms}, rng


def _random_map(src, dst, rng):
    if isinstance(src, FinAbObj):
        return FinAbMap(src, dst, tuple(tuple(rng.randint(-2, 2) for _ in range(src.rank))
                                        for _ in range(dst.rank)))
    if src.elements and not dst.elements:
        return None
    return FinSetMap(src, dst, tuple((x, rng.choice(dst.elements)) for x in src.elements))


def _plus_relations(g, rng):
    """g plus a map into the target's relation lattice: equal to g as a morphism."""
    if not isinstance(g, FinAbMap) or not g.dst.relations:
        return g
    rel = g.dst.relations
    mix = tuple(tuple(rng.randint(-2, 2) for _ in range(g.src.rank)) for _ in range(len(rel[0])))
    return FinAbMap(g.src, g.dst, intmat.sub(g.matrix, intmat.mul(rel, mix)))


def _second_pairs(g, f, composable, rng):
    """Pairs to compare with g ∘ f: other composable diagram pairs (some with
    other endpoints), random maps through the same middle object, and g
    shifted by target relations."""
    yield from composable
    for _ in range(3):
        h, k = _random_map(g.src, g.dst, rng), _random_map(f.src, f.dst, rng)
        if h is not None and k is not None:
            yield h, f
            yield g, k
            yield h, k
    yield _plus_relations(g, rng), f


@pytest.mark.parametrize("category", [FINSET, FINAB])
def test_commutes_agrees_with_composite_oracle(category):
    seen = set()
    for seed in range(12):
        cat, edges, rng = _site_diagram(seed, category)
        composable = [(edges[g.id], edges[f.id]) for g in cat.morphisms
                      for f in cat.morphisms if f.dst == g.src]
        for g, f in composable:
            others = rng.sample(composable, min(6, len(composable)))
            for g2, f2 in _second_pairs(g, f, others, rng):
                oracle = maps_equal(compose(g, f), compose(g2, f2))
                assert values.commutes(g, f, g2, f2) == oracle
                seen.add(oracle)
    assert seen == {True, False}
