"""Work shared along a site and along a plus lineage.

Comma categories depend only on the site and the sieve, so the site keeps
one per sieve and reads composites off its own category.  Level colimits
depend only on the level diagram, so a precosheaf, its plus and its double
plus keep one store of them.  Each test pins the shared result to what the
unshared construction gives, or pins who may share with whom.
"""

import gc
import itertools
import os
import pickle
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import finsite
from finsite import towers, values
from finsite.category import (Cover, Coverage, FiniteCategory, Morphism, Sieve, SiteSpec,
                              _comma_bases, comma_of_sieve, generated_sieves, poset_category)
from finsite.cosheaf import (constant_precosheaf, cosheafify, plus_cosheaf,
                             tensor_with_sieve, truncate_precosheaf)
from finsite.errors import EngineError, SiteError
from finsite.randsuite import random_site
from finsite.sheaf import Presheaf, hom_with_sieve, opposite_category
from finsite.spaces import (FiniteSpace, converging_sequence_site, open_site, pseudocircle,
                            site_points)
from finsite.towers import LevelMorphism, Tower, is_iso_at_depth, tower_colimit
from finsite.values import FINSET, finset, finset_map, free_ab, hom_set


def _eager_comma(cat, sieve):
    """The comma category as a full table: (objects, morphisms, identity,
    composition), built pair by pair."""
    members = tuple(sorted(sieve.members))
    morphisms, identity, base = [], {}, {}
    for m1 in members:
        for m2 in members:
            for beta in cat.hom(cat.morphism(m1).src, cat.morphism(m2).src):
                if cat.compose(m2, beta.id) == m1:
                    mid = f"{beta.id}|{m1}>{m2}"
                    morphisms.append(Morphism(mid, m1, m2))
                    base[mid] = beta.id
                    if m1 == m2 and beta.id == cat.id_of(cat.morphism(m1).src):
                        identity[m1] = mid
    comp = {}
    for g in morphisms:
        for f in morphisms:
            if f.dst == g.src:
                comp[(g.id, f.id)] = f"{cat.compose(base[g.id], base[f.id])}|{f.src}>{g.dst}"
    return members, tuple(morphisms), identity, comp


def _sites():
    rng = random.Random(11)
    return [random_site(rng) for _ in range(8)] + [converging_sequence_site(6)]


def _nonempty_sieves(spec, depth=3):
    return [s for u in spec.category.objects for s in generated_sieves(spec, u, depth)
            if s.members]


def test_comma_of_sieve_returns_the_same_object_on_a_repeat():
    spec = converging_sequence_site(6)
    for sieve in _nonempty_sieves(spec):
        first = comma_of_sieve(spec, sieve)
        assert comma_of_sieve(spec, Sieve(sieve.target, frozenset(sieve.members))) is first


def test_comma_of_sieve_equals_the_eager_table():
    checked = 0
    for spec in _sites():
        for sieve in _nonempty_sieves(spec):
            comma = comma_of_sieve(spec, sieve)
            objects, morphisms, identity, comp = _eager_comma(spec.category, sieve)
            assert comma.objects == objects
            assert comma.morphisms == morphisms
            assert dict(comma.identity) == identity
            assert dict(comma.composition) == comp
            assert list(comma.composition) == list(comp)
            assert len(comma.composition) == len(comp)
            assert comma.check_axioms() == []
            checked += 1
    assert checked > 50


def test_opposite_of_a_comma_swaps_its_table():
    for spec in _sites()[:3]:
        for sieve in _nonempty_sieves(spec, 0):
            comma = comma_of_sieve(spec, sieve)
            op = opposite_category(comma)
            assert dict(op.composition) == {(f, g): gf for (g, f), gf
                                            in _eager_comma(spec.category, sieve)[3].items()}
            assert op.check_axioms() == []


def test_comma_closure_is_still_checked_at_construction():
    # e∘e is declared to be m, whose endpoints are wrong: the comma of the
    # sieve {m} over t is not closed under composition
    cat = FiniteCategory(("t", "x"),
                         (Morphism("id:t", "t", "t"), Morphism("id:x", "x", "x"),
                          Morphism("m", "x", "t"), Morphism("e", "x", "x")),
                         {"t": "id:t", "x": "id:x"},
                         {("m", "e"): "m", ("e", "e"): "m"})
    spec = SiteSpec(cat, Coverage({"t": (Cover("t", ("m",)),)}))
    with pytest.raises(SiteError, match="comma category not closed: missing 'm|m>m'"):
        comma_of_sieve(spec, Sieve("t", frozenset({"m"})))


def test_pickled_site_carries_an_empty_comma_memo():
    spec = converging_sequence_site(6)
    sieves = _nonempty_sieves(spec)
    commas = [comma_of_sieve(spec, s) for s in sieves]
    assert spec._commas
    copy = pickle.loads(pickle.dumps(spec))
    assert copy._commas == {}
    assert copy == spec
    again = [comma_of_sieve(copy, s) for s in sieves]
    assert [(c.objects, c.morphisms) for c in again] == [(c.objects, c.morphisms) for c in commas]
    assert len(spec._commas) == len(copy._commas)   # the original keeps its memo


def _assert_eager(spec, sieve):
    comma = comma_of_sieve(spec, sieve)
    objects, morphisms, identity, comp = _eager_comma(spec.category, sieve)
    assert comma.objects == objects
    assert comma.morphisms == morphisms
    assert dict(comma.identity) == identity
    assert list(comma.composition) == list(comp)
    assert dict(comma.composition) == comp
    assert comma.check_axioms() == []
    # the arrow index, built on first use, scans `morphisms` in order
    for u in comma.objects:
        assert comma.into(u) == tuple(m for m in comma.morphisms if m.dst == u)
        assert comma.out_of(u) == tuple(m for m in comma.morphisms if m.src == u)
    # one base id per comma morphism, in order, each the site's own id string
    bases = _comma_bases(spec, sieve)
    assert len(bases) == len(comma.morphisms)
    for m, b in zip(comma.morphisms, bases):
        assert m.id == f"{b}|{m.src}>{m.dst}"
        assert spec.category.morphism(b).id is b
    return comma


def _all_sieves(cat, u):
    """Every nonempty member set over u that is closed under precomposition."""
    into = [m.id for m in cat.into(u)]
    out = []
    for mask in range(1, 2 ** len(into)):
        members = frozenset(m for i, m in enumerate(into) if mask >> i & 1)
        if all(cat.compose(m, g.id) in members
               for m in members for g in cat.into(cat.morphism(m).src)):
            out.append(Sieve(u, members))
    return out


def _idempotent_monoid():
    # one object, morphisms {1, e} with e∘e = e: a non-identity idempotent
    return FiniteCategory(("*",), (Morphism("1", "*", "*"), Morphism("e", "*", "*")),
                          {"*": "1"}, {("e", "e"): "e"})


def _parallel_pair():
    # f, g: a ⇉ b (its sieves over b are those of the two-object a ⇉ b), and
    # h: b -> c with h∘f = h∘g = k, so a comma over c has parallel morphisms
    return FiniteCategory(
        ("a", "b", "c"),
        (Morphism("1a", "a", "a"), Morphism("1b", "b", "b"), Morphism("1c", "c", "c"),
         Morphism("f", "a", "b"), Morphism("g", "a", "b"), Morphism("h", "b", "c"),
         Morphism("k", "a", "c")),
        {"a": "1a", "b": "1b", "c": "1c"},
        {("h", "f"): "k", ("h", "g"): "k"})


@pytest.mark.parametrize("build", [_idempotent_monoid, _parallel_pair])
def test_comma_of_sieve_equals_the_eager_table_off_posets(build):
    cat = build()
    assert cat.check_axioms() == []
    spec = SiteSpec(cat, Coverage({}))
    checked = 0
    for u in cat.objects:
        for sieve in _all_sieves(cat, u):
            _assert_eager(spec, sieve)
            checked += 1
    assert checked >= 2


def test_comma_keeps_parallel_morphisms_and_idempotents():
    monoid = SiteSpec(_idempotent_monoid(), Coverage({}))
    comma = comma_of_sieve(monoid, Sieve("*", frozenset({"e"})))
    assert [m.id for m in comma.morphisms] == ["1|e>e", "e|e>e"]
    assert comma.identity == {"e": "1|e>e"}
    assert comma.compose("e|e>e", "e|e>e") == "e|e>e"
    pair = SiteSpec(_parallel_pair(), Coverage({}))
    comma = comma_of_sieve(pair, Sieve("c", frozenset({"1c", "h", "k"})))
    assert [m.id for m in comma.hom("k", "h")] == ["f|k>h", "g|k>h"]


def test_comma_skips_a_composite_with_the_wrong_source():
    # p∘r is declared to be p, whose source is x, not src(r) = y
    cat = FiniteCategory(("t", "x", "y"),
                         (Morphism("1t", "t", "t"), Morphism("1x", "x", "x"),
                          Morphism("1y", "y", "y"), Morphism("p", "x", "t"),
                          Morphism("q", "y", "t"), Morphism("r", "y", "x")),
                         {"t": "1t", "x": "1x", "y": "1y"}, {("p", "r"): "p"})
    comma = _assert_eager(SiteSpec(cat, Coverage({})), Sieve("t", frozenset({"p", "q"})))
    assert [m.id for m in comma.morphisms] == ["1x|p>p", "1y|q>q"]


def _open_site_sieves():
    spec = open_site(pseudocircle())
    return spec, _nonempty_sieves(spec, 0)


def _monoid_sieves():
    spec = SiteSpec(_idempotent_monoid(), Coverage({}))
    return spec, _all_sieves(spec.category, "*")


@pytest.mark.parametrize("build", [_open_site_sieves, _monoid_sieves])
def test_a_dropped_site_frees_its_categories_without_the_collector(build):
    # a lazy table holds its category's indexes, never the category, so
    # reference counting alone frees a site once it is dropped
    gc.disable()
    try:
        spec, sieves = build()
        a = constant_precosheaf(spec, free_ab(1), 0)
        commas = [comma_of_sieve(spec, s) for s in sieves]
        for s in sieves:
            tensor_with_sieve(a, s)
        assert spec.category.check_axioms() == []
        assert all(comma.check_axioms() == [] for comma in commas)
        refs = [weakref.ref(spec.category), weakref.ref(commas[-1])]
        del spec, sieves, a, commas
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def _spaces():
    fence = FiniteSpace(tuple("abcdef"), frozenset({("a", "b"), ("c", "b"), ("c", "d"),
                                                    ("e", "d"), ("e", "f")}))
    sphere = FiniteSpace(tuple("abcdef"), frozenset((lo, hi) for lo, hi in
                                                    itertools.product("ab", "cdef"))
                         | frozenset(itertools.product("cd", "ef")))
    antichain = FiniteSpace(tuple("abcd"), frozenset())
    return fence, sphere, antichain


@pytest.mark.parametrize("policy", ["generated", "all-irredundant"])
def test_comma_of_sieve_equals_the_eager_table_on_open_sites(policy):
    checked = 0
    for space in _spaces():
        spec = open_site(space, policy)
        for sieve in _nonempty_sieves(spec, 0):
            _assert_eager(spec, sieve)
            checked += 1
    assert checked > 40


def _sieve_site():
    # the poset t > x > y, plus z > y off to the side
    return SiteSpec(poset_category("txyz", [("x", "t"), ("y", "x"), ("y", "z")]),
                    Coverage({}))


def test_sieve_checks_still_run_at_comma_construction():
    spec = _sieve_site()
    with pytest.raises(SiteError, match="sieve member 'y<z' does not land in 't'"):
        comma_of_sieve(spec, Sieve("t", frozenset({"x<t", "y<t", "y<z"})))
    with pytest.raises(SiteError, match="sieve not closed under precomposition at 'x<t'"):
        comma_of_sieve(spec, Sieve("t", frozenset({"x<t"})))
    # every target is checked before the first closure check
    with pytest.raises(SiteError, match="does not land in"):
        comma_of_sieve(spec, Sieve("t", frozenset({"x<t", "y<z"})))


_TWO_BAD = """
from finsite.category import Coverage, Sieve, SiteSpec, comma_of_sieve, poset_category
from finsite.errors import SiteError
# x < a, ..., g < t
spec = SiteSpec(poset_category("abcdefgtx", [(u, "t") for u in "abcdefg"]
                               + [("x", u) for u in "abcdefg"]), Coverage({}))
for members in ({"a<t", "b<b", "c<c", "d<d", "e<e"}, {"a<t", "c<t", "e<t", "g<t"}):
    try:
        comma_of_sieve(spec, Sieve("t", frozenset(members)))
    except SiteError as exc:
        print(exc)
"""


def test_sieve_errors_name_the_first_bad_member_under_any_hash_seed():
    src = str(Path(finsite.__file__).resolve().parents[1])
    out = []
    for seed in ("0", "4242"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-c", _TWO_BAD], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        out.append(run.stdout)
    assert out[0] == out[1] == ("sieve member 'b<b' does not land in 't'\n"
                                "sieve not closed under precomposition at 'a<t'\n")


# ---------------------------------------------------------------------------
# level colimits along a plus lineage


def _diagram_key(diagram):
    return (diagram.shape.objects, diagram.shape.morphisms,
            tuple(sorted(diagram.nodes.items())), tuple(sorted(diagram.edges.items())))


def _counting_colimits(monkeypatch):
    keys = []
    original = values.finite_colimit

    def counting(diagram, *args, **kwargs):
        keys.append(_diagram_key(diagram))
        return original(diagram, *args, **kwargs)

    monkeypatch.setattr(values, "finite_colimit", counting)
    return keys


@pytest.mark.parametrize("value", [finset("*"), free_ab(1)], ids=["point", "Z"])
def test_cosheafify_colimits_each_level_diagram_once(monkeypatch, value):
    spec = converging_sequence_site(8)
    a = constant_precosheaf(spec, value, 4, site_points(spec))
    keys = _counting_colimits(monkeypatch)
    result = cosheafify(a, 4)
    assert result.report.verdict == "PASS"
    assert keys and len(keys) == len(set(keys))


def test_a_plus_lineage_keeps_one_colimit_store():
    spec = converging_sequence_site(8)
    a = constant_precosheaf(spec, finset("*"), 4, site_points(spec))
    p1 = plus_cosheaf(a)
    assert p1.precosheaf._colimits is a._colimits
    result = cosheafify(a, 4)
    assert result.plus2.precosheaf._colimits is a._colimits
    assert truncate_precosheaf(a, 2)._colimits is a._colimits


def test_precosheaves_built_apart_share_nothing(monkeypatch):
    spec = converging_sequence_site(8)
    sieves = [s for u in spec.category.objects for s in generated_sieves(spec, u, 4)]
    nonempty = sum(1 for s in sieves if s.members)
    built = []
    for _ in range(2):
        a = constant_precosheaf(spec, finset("*"), 4, site_points(spec))
        keys = _counting_colimits(monkeypatch)
        tensors = [tensor_with_sieve(a, s) for s in sieves if s.members]
        monkeypatch.undo()
        assert len(keys) == nonempty   # the second precosheaf reuses nothing of the first
        built.append((a, {id(r) for t in tensors for r in t.colimit.levels}))
    (a, first), (b, second) = built
    assert a._colimits is not b._colimits
    assert not first & second


def _wedge(depth):
    point = finset("*")
    two = finset("0", "1")
    shape = poset_category(("s", "w"), [("w", "s")])
    nodes = {"s": Tower.constant(two, depth), "w": Tower.constant(point, depth)}
    edges = {"s<s": LevelMorphism.identity(nodes["s"]),
             "w<w": LevelMorphism.identity(nodes["w"]),
             "w<s": LevelMorphism(nodes["w"], nodes["s"],
                                  (finset_map(point, two, {"*": "0"}),) * (depth + 1))}
    return shape, nodes, edges


def test_tower_colimit_store_serves_a_later_call(monkeypatch):
    shape, nodes, edges = _wedge(3)
    store = {}
    first = tower_colimit(shape, nodes, edges, 3, store)
    keys = _counting_colimits(monkeypatch)
    second = tower_colimit(shape, nodes, edges, 3, store)
    assert keys == []
    assert all(x is y for x, y in zip(first.levels, second.levels))
    assert second.tower == first.tower


def test_tower_colimit_needs_the_identity_edges():
    shape, nodes, edges = _wedge(2)
    del edges["w<w"]
    with pytest.raises(EngineError, match="misses edge 'w<w'"):
        tower_colimit(shape, nodes, edges, 2)
    shape, nodes, edges = _wedge(2)
    edges["s<s"] = LevelMorphism.identity(Tower.constant(finset("0", "1", "2"), 2))
    with pytest.raises(EngineError, match="edge 's<s' has wrong endpoints"):
        tower_colimit(shape, nodes, edges, 2)


# ---------------------------------------------------------------------------
# the finite-set iso search builds its composites once per level


def _lagging(depth):
    """X_k = {0..k} with bonds x -> max(x - 2, 0), into the constant point:
    the image of X_i in X_j is one point exactly when i >= 2j, so the span
    search for level j runs through j + 1 candidates."""
    levels = tuple(finset(*map(str, range(k + 1))) for k in range(depth + 1))
    bonds = tuple(finset_map(levels[k + 1], levels[k],
                             {str(x): str(max(x - 2, 0)) for x in range(k + 2)})
                  for k in range(depth))
    point = finset("*")
    return LevelMorphism(Tower(levels, bonds), Tower.constant(point, depth),
                         tuple(finset_map(lv, point, {e: "*" for e in lv.elements})
                               for lv in levels))


def test_finset_iso_search_compose_calls_grow_linearly(monkeypatch):
    for d in (6, 12, 24):
        f = _lagging(d)
        calls = []
        original = towers.compose

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(towers, "compose", counting)
        verdict = is_iso_at_depth(f, d)
        monkeypatch.undo()
        assert verdict.spans == tuple((j, 2 * j) for j in range(d // 2 + 1))
        assert verdict.obstruction == d // 2 + 1 and not verdict.iso
        assert len(calls) <= 2 * (d + 1), (d, len(calls))


def _walk(t, i, j, x):
    for k in range(i - 1, j - 1, -1):
        x = t.bonds[k](x)
    return x


def _oracle_iso(f, d, margin=2):
    """The span search of is_iso_at_depth by brute force over every
    u: Y_i -> X_j, for strict finite-set morphisms."""
    ceiling = max(0, d - margin)
    spans = []
    for j in range(ceiling + 1):
        for i in range(j, d + 1):
            fi, fj = f.components[i], f.components[j]
            if any(all(u(fi(x)) == _walk(f.src, i, j, x) for x in f.src.levels[i].elements)
                   and all(fj(u(y)) == _walk(f.dst, i, j, y) for y in f.dst.levels[i].elements)
                   for u in hom_set(f.dst.levels[i], f.src.levels[j])):
                spans.append((j, i))
                break
        else:
            return False, tuple(spans), j
    for j in range(ceiling + 1, d + 1):
        image = {f.components[j](_walk(f.src, d, j, x)) for x in f.src.levels[d].elements}
        if not {_walk(f.dst, d, j, y) for y in f.dst.levels[d].elements} <= image:
            return False, tuple(spans), j
    return True, tuple(spans), None


def _random_tower(rng, depth):
    levels = [finset(*map(str, range(rng.randint(1, 3)))) for _ in range(depth + 1)]
    bonds = [finset_map(levels[k + 1], levels[k],
                        {e: rng.choice(levels[k].elements) for e in levels[k + 1].elements})
             for k in range(depth)]
    return Tower(tuple(levels), tuple(bonds))


def _random_strict_morphisms(rng, x, y):
    """Strict morphisms x -> y found by extending random components level by level."""
    comps = [rng.choice(hom_set(x.levels[0], y.levels[0]))]
    for k in range(x.depth):
        fits = [g for g in hom_set(x.levels[k + 1], y.levels[k + 1])
                if all(comps[k](x.bonds[k](e)) == y.bonds[k](g(e)) for e in x.levels[k + 1].elements)]
        if not fits:
            return None
        comps.append(rng.choice(fits))
    return LevelMorphism(x, y, tuple(comps))


def test_finset_iso_verdicts_match_brute_force():
    rng = random.Random(5)
    seen = set()
    tried = 0
    while tried < 60:
        depth = rng.randint(2, 4)
        x = _random_tower(rng, depth)
        y = x if rng.random() < 0.3 else _random_tower(rng, depth)
        f = _random_strict_morphisms(rng, x, y)
        if f is None:
            continue
        tried += 1
        verdict = is_iso_at_depth(f, depth)
        assert (verdict.iso, verdict.spans, verdict.obstruction) == _oracle_iso(f, depth)
        seen.add(verdict.iso)
    assert seen == {True, False}


def test_comma_edges_follow_base_ids_that_contain_bars():
    # comma morphism ids are `b|m1>m2`; the base id b is read by its known
    # length, so object names with "|" in them do not cut it short
    cat = poset_category(("x|y", "z"), [("x|y", "z")])
    spec = SiteSpec(cat, Coverage({"x|y": (Cover("x|y", ("x|y<x|y",)),),
                                   "z": (Cover("z", ("x|y<z",)),)}), poset=True)
    sieve = Sieve("z", frozenset({"x|y<z"}))
    a = constant_precosheaf(spec, finset("*"), 0)
    assert tensor_with_sieve(a, sieve).tower.levels[0] == finset("q0")
    g = finset("0", "1")
    ident = {e: e for e in g.elements}
    p = Presheaf(spec, FINSET, {u: g for u in cat.objects},
                 {m.id: finset_map(g, g, ident) for m in cat.morphisms})
    assert len(hom_with_sieve(p, sieve).obj.elements) == 2
