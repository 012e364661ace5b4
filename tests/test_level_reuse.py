"""Work done once per repeated tower level.

Constant precosheaves give towers whose levels repeat the level below, as the
very same objects.  `tower_colimit` keys its level colimits on plain tuples
(`values.map_key`) and shares a level, or a bond, whose maps are the objects
of the one below; `_map_out` shares a component the same way; and a level
morphism decides a square that repeats the one before it once.  All of
these, and the plus action components, follow the one rule of
`towers._levelwise`, which is also tested on its own.  Each test pins the
shared result to what the unshared construction gives, or pins how much
work is left.
"""

import random

import pytest

from finsite import cosheaf, towers, values
from finsite.category import (Cover, Coverage, CoverChain, SiteSpec, generated_sieves,
                              poset_category)
from finsite.cosheaf import Precosheaf, constant_precosheaf, cosheafify, tensor_with_sieve
from finsite.errors import EngineError
from finsite.randsuite import (random_finab_precosheaf, random_finset_precosheaf,
                               random_site)
from finsite.spaces import converging_sequence_site, site_points
from finsite.towers import LevelMorphism, Tower, tower_colimit
from finsite.values import (FINSET, FinAbMap, FinAbObj, FinSetMap, FinSetObj, finset,
                            finset_map, free_ab, map_key)


def _random_maps():
    rng = random.Random(3)
    maps = []
    for _ in range(6):
        spec = random_site(rng)
        for a in (random_finset_precosheaf(spec, rng), random_finab_precosheaf(spec, rng)):
            maps.extend(a.action[m].components[0] for m in sorted(a.action))
    return maps


def _rebuilt(f):
    """An equal map made of no object of f."""
    if isinstance(f, FinSetMap):
        return FinSetMap(FinSetObj(tuple(f.src.elements)), FinSetObj(tuple(f.dst.elements)),
                         tuple(f.table))
    return FinAbMap(FinAbObj(f.src.rank, f.src.relations), FinAbObj(f.dst.rank, f.dst.relations),
                    tuple(f.matrix))


def _near_misses(f):
    """Maps that share f's table or matrix but differ from f."""
    if isinstance(f, FinSetMap):
        wider = FinSetObj(f.dst.elements + ("extra",))
        return [FinSetMap(f.src, wider, f.table)]
    out = []
    if f.dst.rank:
        other = ((7,),) + tuple((0,) for _ in range(f.dst.rank - 1))
        out.append(FinAbMap(f.src, FinAbObj(f.dst.rank, other), f.matrix))
    return out


def test_map_key_is_equal_exactly_when_the_maps_are():
    maps = _random_maps()
    point, z = finset("*"), free_ab(1)
    pool = [*maps, *map(_rebuilt, maps), *(g for f in maps for g in _near_misses(f)),
            values.identity_map(point), values.identity_map(z)]
    assert any(isinstance(f, FinSetMap) for f in pool) and any(isinstance(f, FinAbMap) for f in pool)
    assert len(pool) > 100
    for f in pool:
        for g in pool:
            assert (map_key(f) == map_key(g)) == (f == g)


def test_map_key_tells_the_near_misses_apart():
    f = finset_map(finset("a", "b"), finset("0", "1"), {"a": "0", "b": "1"})
    g = finset_map(finset("a", "b"), finset("0", "1", "2"), {"a": "0", "b": "1"})
    assert map_key(f) != map_key(g)
    z2 = FinAbObj(1, ((2,),))
    h = FinAbMap(free_ab(1), free_ab(1), ((1,),))
    k = FinAbMap(free_ab(1), z2, ((1,),))
    assert map_key(h) != map_key(k)
    assert map_key(values.identity_map(finset("*"))) != map_key(values.identity_map(free_ab(1)))


def _wedge(value, depth):
    """A constant tower on `value` glued along the constant tower on a point."""
    point = finset("*") if isinstance(value, FinSetObj) else free_ab(1)
    leg = (finset_map(point, value, {"*": value.elements[0]}) if isinstance(value, FinSetObj)
           else values.finab_map(point, value, [[1]] + [[0]] * (value.rank - 1)))
    shape = poset_category(("s", "w"), [("w", "s")])
    nodes = {"s": Tower.constant(value, depth), "w": Tower.constant(point, depth)}
    edges = {"s<s": LevelMorphism.identity(nodes["s"]),
             "w<w": LevelMorphism.identity(nodes["w"]),
             "w<s": LevelMorphism(nodes["w"], nodes["s"], (leg,) * (depth + 1))}
    return shape, nodes, edges


def test_a_missing_edge_is_an_input_error():
    shape, nodes, edges = _wedge(finset("0", "1"), 2)
    del edges["w<s"]
    with pytest.raises(EngineError, match="diagram misses edge 'w<s'"):
        tower_colimit(shape, nodes, edges, 2)
    with pytest.raises(EngineError, match="diagram misses edge 'w<s'"):
        tower_colimit(shape, nodes, edges, 2, {})


def _raise(self):
    raise AssertionError("a map was hashed")


@pytest.mark.parametrize("value", [finset("0", "1"), free_ab(2)], ids=["finset", "finab"])
def test_tower_colimit_hashes_no_map(monkeypatch, value):
    shape, nodes, edges = _wedge(value, 3)
    expected = tower_colimit(shape, nodes, edges, 3)
    monkeypatch.setattr(FinSetMap, "__hash__", _raise)
    monkeypatch.setattr(FinAbMap, "__hash__", _raise)
    res = tower_colimit(shape, nodes, edges, 3)
    assert res.tower == expected.tower
    assert [r.cocone for r in res.levels] == [r.cocone for r in expected.levels]


def _counting(monkeypatch, name, modules):
    calls = []
    original = getattr(values, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("value", [finset("*"), free_ab(1)], ids=["point", "Z"])
def test_repeated_levels_share_colimit_bond_and_component(monkeypatch, value):
    spec = converging_sequence_site(6)
    a = constant_precosheaf(spec, value, 4, site_points(spec))
    sieve = next(s for s in generated_sieves(spec, "X", 3) if s.members)
    colimits = _counting(monkeypatch, "finite_colimit", (values,))
    t = tensor_with_sieve(a, sieve)
    monkeypatch.undo()
    assert len(colimits) == 1
    levels, bonds, comps = t.colimit.levels, t.tower.bonds, t.compare.components
    assert all(r is levels[0] for r in levels)
    assert all(b is bonds[0] for b in bonds)
    assert all(c is comps[0] for c in comps)
    # the shared bond and component are the ones built without sharing
    cat = spec.category
    bond = values.out_map(levels[0], {m: (a.values[cat.morphism(m).src].bonds[0],
                                          levels[0].cocone[m]) for m in levels[0].cocone},
                          levels[0].obj)
    assert bond == bonds[0]
    comp = values.out_map(levels[0], {m: a.action[m].components[0] for m in levels[0].cocone},
                          a.values[sieve.target].levels[0])
    assert comp == comps[0]


def test_a_constant_tower_morphism_checks_one_square(monkeypatch):
    two, three = finset("0", "1"), finset("a", "b", "c")
    f = finset_map(two, three, {"0": "a", "1": "b"})
    calls = _counting(monkeypatch, "commutes", (towers,))
    LevelMorphism(Tower.constant(two, 5), Tower.constant(three, 5), (f,) * 6)
    assert len(calls) == 1


def test_a_distinct_failing_square_after_repeated_ones_is_named(monkeypatch):
    two, three = finset("0", "1"), finset("a", "b", "c")
    f = finset_map(two, three, {"0": "a", "1": "b"})
    g = finset_map(two, three, {"0": "a", "1": "c"})
    calls = _counting(monkeypatch, "commutes", (towers,))
    with pytest.raises(EngineError, match="squares fail at level 2"):
        LevelMorphism(Tower.constant(two, 3), Tower.constant(three, 3), (f, f, f, g))
    assert len(calls) == 2


def test_cosheafify_of_the_point_counts(monkeypatch):
    modules = (values, towers, cosheaf)
    squares = _counting(monkeypatch, "commutes", modules)
    maps_out = _counting(monkeypatch, "out_map", modules)
    spec = converging_sequence_site(8)
    result = cosheafify(constant_precosheaf(spec, finset("*"), 4, site_points(spec)), 4)
    assert result.report.verdict == "PASS"
    assert len(squares) <= 3000      # 4,396 when every repeated square was decided again
    assert len(maps_out) <= 1400     # 1,656 when every repeated level built its own


def _counting_pushforward(monkeypatch):
    calls = []
    original = cosheaf._pushforward

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(cosheaf, "_pushforward", counting)
    return calls


@pytest.mark.parametrize("value", [finset("*"), free_ab(1)], ids=["point", "Z"])
def test_plus_action_components_repeat_the_level_below(monkeypatch, value):
    spec = converging_sequence_site(10)
    a = constant_precosheaf(spec, value, 4, site_points(spec))
    pushes = _counting_pushforward(monkeypatch)
    p1 = cosheaf.plus_cosheaf(a, 4)
    first = len(pushes)
    p2 = cosheaf.plus_cosheaf(p1.precosheaf, 4)
    monkeypatch.undo()
    # 614 each when every distinct p built its own action components
    assert (first, len(pushes) - first) == (374, 374)
    cat = spec.category
    reused = 0
    for plus, source in ((p1, a), (p2, p1.precosheaf)):
        for m in cat.morphisms:
            comps = plus.precosheaf.action[m.id].components
            for j, p in enumerate(plus.phi[1:], 1):
                if comps[j] is not comps[j - 1]:
                    continue
                reused += 1
                # a reused component is the one the level builds unshared
                assert comps[j] == cosheaf._pushforward(
                    source, tensor_with_sieve(source, plus.sieves[m.src][p]),
                    tensor_with_sieve(source, plus.sieves[m.dst][p]), m.id, p)
    assert reused



def test_an_action_out_of_an_empty_sieve_follows_its_target_level():
    # e has the empty cover, so its tensor is the same initial colimit at
    # every level, with no cocone component to tell the levels apart; the
    # target levels of x differ, so no component repeats the one below
    spec = SiteSpec(poset_category(("e", "x"), [("e", "x")]),
                    Coverage({"e": (Cover("e", ()),), "x": (Cover("x", ("x<x",)),)}))
    levels = (finset("a"), finset("a", "b"), finset("a", "b", "c"))
    grow = Tower(levels, (finset_map(levels[1], levels[0], {"a": "a", "b": "a"}),
                          finset_map(levels[2], levels[1], {"a": "a", "b": "b", "c": "b"})))
    point = Tower.constant(finset("a"), 2)
    into = LevelMorphism(point, grow, tuple(finset_map(finset("a"), level, {"a": "a"})
                                            for level in levels))
    a = Precosheaf(spec, FINSET, 2, {"e": point, "x": grow},
                   {"e<e": LevelMorphism.identity(point), "x<x": LevelMorphism.identity(grow),
                    "e<x": into})
    plus = cosheaf.plus_cosheaf(a, 2)
    assert plus.phi == (0, 1, 2)
    comps = plus.precosheaf.action["e<x"].components
    assert [len(f.dst.elements) for f in comps] == [1, 2, 3]
    assert [len(f.src.elements) for f in comps] == [0, 0, 0]


def test_an_action_out_of_a_finer_sieve_is_built_again():
    # T keeps its maximal sieve, so its plus levels, and the cocone
    # components the action on U<T reads there, repeat level 0; U's sieve
    # shrinks to {W1, W2} at level 1, so that action is built again there,
    # while the one on W1<T, whose source sieve stays, repeats level 0
    cat = poset_category(["T", "U", "W1", "W2"], [("W1", "U"), ("W2", "U"), ("U", "T")])

    def cover(target, *pieces):
        return Cover(target, tuple(f"{p}<{target}" for p in pieces), ())

    chain = CoverChain("U", (cover("U", "U"), cover("U", "W1", "W2")),
                       (((0, "W1<U"), (0, "W2<U")),))
    spec = SiteSpec(cat, Coverage({u: (cover(u, u),) for u in cat.objects}, {"U": chain}),
                    poset=True)
    plus = cosheaf.plus_cosheaf(constant_precosheaf(spec, finset("*"), 1), 1)
    assert plus.phi == (0, 1)
    top = plus.precosheaf.values["T"].levels
    assert top[1] is top[0]
    action = plus.precosheaf.action
    assert [len(f.src.elements) for f in action["U<T"].components] == [1, 2]
    assert action["W1<T"].components[1] is action["W1<T"].components[0]


def _recording(built):
    def build(j):
        built.append(j)
        return ["level", j]
    return build


def test_levelwise_always_builds_level_zero():
    a = object()
    for keys in ([(a,)], [()], [(a, a)]):
        built = []
        assert towers._levelwise(keys, _recording(built)) == [["level", 0]]
        assert built == [0]
    assert towers._levelwise([], _recording([])) == []


def test_levelwise_builds_once_per_run_of_repeated_keys():
    a, b = object(), object()
    built = []
    keys = [(a, b), (a, b), (b, a), (b, a), (b, a), (a, b), (a, b, a)]
    out = towers._levelwise(iter(keys), _recording(built))
    assert built == [0, 2, 5, 6]
    assert [r[1] for r in out] == [0, 0, 2, 2, 2, 5, 6]
    assert out[1] is out[0] and out[3] is out[2] and out[4] is out[2]


def test_levelwise_rebuilds_on_equal_but_distinct_objects():
    built = []
    keys = [(finset("a"), free_ab(1)), (finset("a"), free_ab(1))]
    assert keys[0] == keys[1] and keys[0][0] is not keys[1][0]
    towers._levelwise(keys, _recording(built))
    assert built == [0, 1]
    # one distinct object among repeated ones is enough
    point = finset("a")
    built = []
    towers._levelwise([(point, point), (point, finset("a"))], _recording(built))
    assert built == [0, 1]


@pytest.mark.parametrize("value", [finset("0", "1"), free_ab(2)], ids=["finset", "finab"])
def test_map_out_and_plus_actions_hash_no_map(monkeypatch, value):
    spec = converging_sequence_site(4)
    expected = cosheaf.plus_cosheaf(constant_precosheaf(spec, value, 3, site_points(spec)), 3)
    fresh = constant_precosheaf(spec, value, 3, site_points(spec))
    monkeypatch.setattr(FinSetMap, "__hash__", _raise)
    monkeypatch.setattr(FinAbMap, "__hash__", _raise)
    res = cosheaf.plus_cosheaf(fresh, 3)
    monkeypatch.undo()
    assert res.phi == expected.phi
    assert res.precosheaf.values == expected.precosheaf.values
    assert res.precosheaf.action == expected.precosheaf.action
    assert res.counit.components == expected.counit.components


def test_a_failing_abelian_square_after_repeated_ones_is_named(monkeypatch):
    z = free_ab(1)
    one, two = values.identity_map(z), values.finab_map(z, z, [[2]])
    calls = _counting(monkeypatch, "commutes", (towers,))
    with pytest.raises(EngineError, match="squares fail at level 2"):
        LevelMorphism(Tower.constant(z, 3), Tower.constant(z, 3), (one, one, one, two))
    assert len(calls) == 2
