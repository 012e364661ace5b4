"""Chain checks: `values.chains_equal` and `towers.chains_equal_at_depth`
against the composite-building oracle, the constructions that use them in
place of `then` and composite maps, and the refinement-search memo."""

import functools
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsite import intmat, towers
from finsite.category import (Coverage, SiteSpec, poset_category, pullback_sieve,
                              refinement_search, sieve_levels)
from finsite.cosheaf import (Precosheaf, PrecosheafMorphism, constant_precosheaf,
                             identity_morphism, is_smooth, plus_cosheaf, tensor_with_sieve)
from finsite.errors import EngineError
from finsite.randsuite import random_finab_precosheaf, random_finset_precosheaf, random_site
from finsite.spaces import converging_sequence_site
from finsite.towers import LevelMorphism, Tower, chains_equal_at_depth, equal_at_depth
from finsite.values import (FINAB, FINSET, FinAbMap, FinAbObj, FinSetMap, chains_equal, compose,
                            cyclic, finset, finset_map, free_ab, hom_set, identity_map,
                            maps_equal)

from test_square_checks import _plus_relations, _random_map

Z = free_ab(1)
ZERO = FinAbObj(0)


def _composite(chain):
    """The oracle: the chain's composite, built map by map."""
    return functools.reduce(lambda f, g: compose(g, f), chain)


def _agree(first, second):
    verdict = chains_equal(first, second)
    assert verdict == maps_equal(_composite(first), _composite(second))
    return verdict


# ---------------------------------------------------------------------------
# values.chains_equal


def _diagram_chains(seed, category):
    """Composable chains of length 1 to 3 of the level-0 edge maps of the
    seeded random precosheaf of tests/test_universal_maps.py."""
    rng = random.Random(seed)
    spec = random_site(rng)
    make = random_finset_precosheaf if category == FINSET else random_finab_precosheaf
    a = make(spec, rng)
    cat = spec.category
    edges = [(m, a.action[m.id].components[0]) for m in cat.morphisms]
    chains = [[(m,) for m, _ in edges]]
    for _ in range(2):
        chains.append([c + (m,) for c in chains[-1] for m, _ in edges if c[-1].dst == m.src])
    by_id = dict((m.id, f) for m, f in edges)
    out = [tuple(by_id[m.id] for m in c) for level in chains for c in level]
    return out, rng


def _variants(chain, rng):
    """Chains to compare with `chain`: random maps through the same middle
    objects, one factor shifted by target relations, and shorter chains
    across the same ends."""
    for _ in range(2):
        other = tuple(_random_map(f.src, f.dst, rng) for f in chain)
        if None not in other:
            yield other
        i = rng.randrange(len(chain))
        swapped = _random_map(chain[i].src, chain[i].dst, rng)
        if swapped is not None:
            yield chain[:i] + (swapped,) + chain[i + 1:]
    i = rng.randrange(len(chain))
    yield chain[:i] + (_plus_relations(chain[i], rng),) + chain[i + 1:]
    direct = _random_map(chain[0].src, chain[-1].dst, rng)
    if direct is not None:
        yield (direct,)
    yield (_composite(chain),)


@pytest.mark.parametrize("category", [FINSET, FINAB])
def test_chains_equal_agrees_with_composite_oracle(category):
    seen = {1: set(), 2: set(), 3: set()}
    for seed in range(12):
        chains, rng = _diagram_chains(seed, category)
        sample = rng.sample(chains, min(40, len(chains)))
        for chain in sample:
            same_ends = [c for c in chains if c[0].src == chain[0].src and c[-1].dst == chain[-1].dst]
            for other in rng.sample(same_ends, min(3, len(same_ends))):
                seen[len(chain)].add(_agree(chain, other))
            for other in _variants(chain, rng):
                seen[len(chain)].add(_agree(chain, other))
                _agree(other, chain)
    assert seen == {1: {True, False}, 2: {True, False}, 3: {True, False}}


def test_chains_through_a_rank_zero_middle_level():
    into_zero, out_of_zero = FinAbMap(Z, ZERO, ()), FinAbMap(ZERO, cyclic(2), ((),))
    zero = FinAbMap(Z, cyclic(2), ((0,),))
    one = FinAbMap(Z, cyclic(2), ((1,),))
    three = FinAbMap(Z, cyclic(2), ((3,),))
    assert _agree((into_zero, out_of_zero), (zero,))
    assert not _agree((into_zero, out_of_zero), (one,))
    assert _agree((into_zero, out_of_zero, identity_map(cyclic(2))), (FinAbMap(Z, Z, ((2,),)), one))
    assert _agree((one,), (three,))  # congruent modulo the relations of Z/2
    # chains with other ends are never equal
    assert not _agree((into_zero,), (identity_map(Z),))
    assert not _agree((zero,), (FinAbMap(Z, cyclic(3), ((0,),)),))


def test_chains_through_an_empty_middle_level():
    empty, a, two = finset(), finset("a"), finset("0", "1")
    out_of_empty = FinSetMap(empty, two, ())
    assert _agree((FinSetMap(empty, a, ()), finset_map(a, two, {"a": "0"})), (out_of_empty,))
    assert _agree((identity_map(empty), FinSetMap(empty, empty, ()), out_of_empty), (out_of_empty,))
    to_zero, to_one = finset_map(a, two, {"a": "0"}), finset_map(a, two, {"a": "1"})
    swap = finset_map(two, two, {"0": "1", "1": "0"})
    assert _agree((to_zero, swap), (to_one,))
    assert not _agree((to_zero, swap, swap), (to_one,))


# ---------------------------------------------------------------------------
# towers.chains_equal_at_depth


def _finset_towers():
    """Three finite-set towers with non-identity bonds."""
    x = Tower((finset("a", "b"), finset("a", "b", "c"), finset("a", "b", "c")),
              (finset_map(finset("a", "b", "c"), finset("a", "b"), {"a": "a", "b": "b", "c": "b"}),
               finset_map(finset("a", "b", "c"), finset("a", "b", "c"),
                          {"a": "a", "b": "c", "c": "c"})))
    y = Tower((finset("0", "1"), finset("0", "1")),
              (finset_map(finset("0", "1"), finset("0", "1"), {"0": "0", "1": "0"}),))
    z = Tower.constant(finset("0", "1"), 1)
    return x, y, z


def _level_morphisms(x, y, pools):
    """Every level morphism x -> y whose component j is drawn from pools[j]
    (the squares decide which exist)."""
    out = []
    for comps in itertools.product(*pools):
        try:
            out.append(LevelMorphism(x, y, comps))
        except EngineError:
            pass
    return out


def _finset_morphisms(x, y):
    return _level_morphisms(x, y, [hom_set(x.levels[j], y.levels[j]) for j in range(y.depth + 1)])


def _finab_morphisms(x, y):
    """Every level morphism x -> y whose components are the scalars 0..5."""
    return _level_morphisms(x, y, [[FinAbMap(x.levels[j], y.levels[j], ((k,),)) for k in range(6)]
                                   for j in range(y.depth + 1)])


def test_chains_equal_at_depth_agrees_with_then_oracle():
    x, y, z = _finset_towers()
    pairs = list(itertools.product(_finset_morphisms(x, y), _finset_morphisms(y, z)))
    seen = set()
    for (f1, g1), (f2, g2) in itertools.product(pairs, repeat=2):
        verdict = chains_equal_at_depth((f1, g1), (f2, g2))
        assert verdict == equal_at_depth(f1.then(g1), f2.then(g2))
        assert chains_equal_at_depth((f1, g1), (f2.then(g2),)) == verdict
        seen.add(verdict)
    assert seen == {True, False}


def test_chains_equal_at_depth_agrees_with_then_oracle_on_abelian_towers():
    # X: Z <-2- Z <-5- Z, Y: Z/6 constant
    x = Tower((Z, Z, Z), (FinAbMap(Z, Z, ((2,),)), FinAbMap(Z, Z, ((5,),))))
    y = Tower.constant(cyclic(6), 2)
    pairs = list(itertools.product(_finab_morphisms(x, y), _finab_morphisms(y, y)))
    seen = set()
    for (f1, g1), (f2, g2) in itertools.product(pairs, repeat=2):
        verdict = chains_equal_at_depth((f1, g1), (f2, g2))
        assert verdict == equal_at_depth(f1.then(g1), f2.then(g2))
        assert chains_equal_at_depth((f1, g1), (f2.then(g2),)) == verdict
        seen.add(verdict)
    assert seen == {True, False}


def test_chains_equal_at_depth_on_identity_like_and_identity_chains():
    """On x, the endomorphism whose level-1 component is the top bond is not
    the identity, but it agrees with it on the image of the top level."""
    x, _, _ = _finset_towers()
    ident = LevelMorphism.identity(x)
    collapse = LevelMorphism(x, x, (ident.components[0], finset_map(
        x.levels[1], x.levels[1], {"a": "a", "b": "c", "c": "c"}), ident.components[2]))
    assert collapse != ident
    assert chains_equal_at_depth((collapse,), (ident,))
    assert chains_equal_at_depth((collapse,), ())
    assert chains_equal_at_depth((collapse, collapse), ())
    assert chains_equal_at_depth((collapse, ident, collapse), (collapse.then(collapse),))
    assert chains_equal_at_depth((), (ident,), 1)


def test_chains_equal_at_depth_keeps_the_errors_of_then():
    x, y, z = _finset_towers()
    f, g = _finset_morphisms(x, y)[0], _finset_morphisms(y, z)[0]
    with pytest.raises(EngineError, match="not composable"):
        chains_equal_at_depth((g, f), (g, f))
    with pytest.raises(EngineError, match="endpoint mismatch"):
        chains_equal_at_depth((f, g), (f,))
    with pytest.raises(EngineError, match="endpoint mismatch"):
        chains_equal_at_depth((f,), ())


# ---------------------------------------------------------------------------
# one level decides: chains_equal_at_depth against a per-level oracle


def _per_level_oracle(first, second, depth):
    """maps_equal of the two composites' representatives at every level up
    to the working depth; an empty chain is the identity of the source."""
    src = (first or second)[0].src
    f, g = (functools.reduce(LevelMorphism.then, chain) if chain else LevelMorphism.identity(src)
            for chain in (first, second))
    d = f.dst.depth if depth is None else min(depth, f.dst.depth)
    return all(maps_equal(f.component_from_depth(j), g.component_from_depth(j))
               for j in range(d + 1))


# nonzero first: the simplest drawn abelian map is not the zero map
ENTRIES = st.sampled_from((1, 0, -1, 2, -2))


@st.composite
def _source_towers(draw, category, d):
    """Any tower: level sizes or ranks and bonds drawn freely (abelian
    levels are free)."""
    if category == FINSET:
        levels = [finset(*(f"x{i}" for i in range(draw(st.integers(1, 3))))) for _ in range(d + 1)]
        bonds = tuple(FinSetMap(hi, lo, tuple((e, draw(st.sampled_from(lo.elements)))
                                              for e in hi.elements))
                      for lo, hi in zip(levels, levels[1:]))
    else:
        levels = [free_ab(draw(st.integers(0, 2))) for _ in range(d + 1)]
        bonds = tuple(FinAbMap(hi, lo, tuple(tuple(draw(ENTRIES) for _ in range(hi.rank))
                                             for _ in range(lo.rank)))
                      for lo, hi in zip(levels, levels[1:]))
    return Tower(tuple(levels), bonds)


@st.composite
def _split_towers(draw, category, d, torsion):
    """A tower whose level j + 1 is level j times (finite sets) or plus
    (abelian) a new factor, with the projections as bonds.  Returns the
    tower and, for abelian values, the modulus of each top generator (0 for
    a free one; all free unless `torsion`)."""
    if category == FINSET:
        levels = [finset(*(str(i) for i in range(draw(st.integers(1, 2)))))]
        bonds = []
        for _ in range(d):
            lo, k = levels[-1], draw(st.integers(1, 2))
            hi = finset(*(f"{e}.{i}" for e in lo.elements for i in range(k)))
            levels.append(hi)
            bonds.append(FinSetMap(hi, lo, tuple((f"{e}.{i}", e)
                                                  for e in lo.elements for i in range(k))))
        return Tower(tuple(levels), tuple(bonds)), ()
    ranks = [draw(st.integers(0, 2))]
    for _ in range(d):
        ranks.append(ranks[-1] + draw(st.integers(0, 1)))
    moduli = tuple(draw(st.sampled_from((0, 2, 3))) if torsion else 0 for _ in range(ranks[-1]))
    torsion_gens = [i for i, n in enumerate(moduli) if n]
    levels = [FinAbObj(r, tuple(tuple(moduli[i] if i == t else 0 for t in torsion_gens
                                      if t < r) for i in range(r)))
              for r in ranks]
    bonds = tuple(FinAbMap(hi, lo, tuple(tuple(int(i == c) for c in range(hi.rank))
                                         for i in range(lo.rank)))
                  for lo, hi in zip(levels, levels[1:]))
    return Tower(tuple(levels), bonds), moduli


def _killing_rows(bond, n):
    """Rows with entries -2..2 that vanish modulo n (exactly, for n = 0) on
    the image of `bond`."""
    m, top = bond.matrix, bond.src.rank
    return [v for v in itertools.product(range(-2, 3), repeat=bond.dst.rank)
            if all((t % n if n else t) == 0
                   for t in (sum(v[i] * m[i][c] for i in range(len(v))) for c in range(top)))]


def _split_morphism(draw, x, target, like=None):
    """A level morphism x -> y into a split tower y = target[0], built
    upward: component 0 is drawn, and component j + 1 is component j after
    the source bond, paired with a drawn part in the new factor.  Returns
    the morphism and its drawn parts.  Given the drawn parts of another
    morphism as `like`, each drawn part agrees with that one on the image of
    the top source level (abelian: up to a map that vanishes there modulo
    the target relations), so the two are equal at every depth while their
    lower components may differ."""
    y, moduli = target
    comps, parts = [], []
    for j in range(y.depth + 1):
        top = x.bond_composite(x.depth, j)
        if isinstance(top, FinSetMap):
            k = len(y.levels[j].elements) // (len(y.levels[j - 1].elements) if j else 1)
            image = {top(e) for e in top.src.elements}
            part = {e: like[j][e] if like and e in image else draw(st.integers(0, k - 1))
                    for e in top.dst.elements}
            if j:
                below = compose(comps[-1], x.bonds[j - 1])
                table = tuple((e, f"{below(e)}.{part[e]}") for e in top.dst.elements)
            else:
                table = tuple((e, str(part[e])) for e in top.dst.elements)
            comps.append(FinSetMap(x.levels[j], y.levels[j], table))
        else:
            new = range(y.levels[j - 1].rank if j else 0, y.levels[j].rank)
            if like:
                part = tuple(tuple(a + b for a, b in zip(row, draw(st.sampled_from(
                    _killing_rows(top, moduli[g])))))
                    for g, row in zip(new, like[j]))
            else:
                part = tuple(tuple(draw(ENTRIES) for _ in range(x.levels[j].rank))
                             for _ in new)
            below = compose(comps[-1], x.bonds[j - 1]).matrix if j else ()
            comps.append(FinAbMap(x.levels[j], y.levels[j], tuple(below) + part))
        parts.append(part)
    return LevelMorphism(x, y, tuple(comps)), parts


@st.composite
def _endomorphisms(draw, target):
    """The identity or a drawn split morphism."""
    if draw(st.booleans()):
        return LevelMorphism.identity(target[0])
    return _split_morphism(draw, target[0], target)[0]


@st.composite
def _chain_pairs(draw):
    """Two chains with the same ends, an explicit depth or None, and whether
    the chains are equal by construction.  The second chain is made of twins
    of the first's morphisms, of fresh morphisms between the same towers, or
    is the first's composite; a chain of endomorphisms of a split tower is
    compared with the empty chain."""
    category = draw(st.sampled_from([FINSET, FINAB]))
    d = draw(st.integers(0, 3))
    depth = draw(st.none() | st.integers(0, d + 1))
    n = draw(st.integers(0, 2))
    equal = False
    if n == 0:
        target = draw(_split_towers(category, d, torsion=False))
        first = ()
        second = tuple(draw(_endomorphisms(target)) for _ in range(draw(st.integers(1, 2))))
    else:
        src = (draw(_source_towers(category, d)) if draw(st.booleans())
               else draw(_split_towers(category, d, torsion=False))[0])
        targets = [draw(_split_towers(category, d, torsion=k == n - 1)) for k in range(n)]
        sources = [src] + [t[0] for t in targets[:-1]]
        built = [_split_morphism(draw, x, t) for x, t in zip(sources, targets)]
        first = tuple(f for f, _ in built)
        kind = draw(st.sampled_from(["twin", "fresh", "composite"]))
        if kind == "twin":
            second = tuple(_split_morphism(draw, x, t, parts)[0]
                           for x, t, (_, parts) in zip(sources, targets, built))
        elif kind == "fresh":
            second = tuple(_split_morphism(draw, x, t)[0] for x, t in zip(sources, targets))
        else:
            second = (functools.reduce(LevelMorphism.then, first),)
        equal = kind != "fresh"
    if draw(st.booleans()):
        first, second = second, first
    return first, second, depth, equal


def test_one_level_decides_as_the_per_level_oracle():
    seen = set()

    @settings(derandomize=True, deadline=None, max_examples=400, database=None)
    @given(_chain_pairs())
    def decides(case):
        first, second, depth, equal = case
        verdict = chains_equal_at_depth(first, second, depth)
        assert verdict == _per_level_oracle(first, second, depth)
        assert verdict or not equal
        seen.add((max(len(first), len(second)), verdict))

    decides()
    # both verdicts on chains of either length
    assert seen == {(n, v) for n in (1, 2) for v in (True, False)}


def _two_level_site_towers():
    """Constant point values on a <= b, and towers {0} <- {0, 1} with the
    identity action."""
    spec = SiteSpec(poset_category(("a", "b"), [("a", "b")]), Coverage({}))
    point = Tower.constant(finset("p"), 1)
    pair = Tower((finset("0"), finset("0", "1")),
                 (finset_map(finset("0", "1"), finset("0"), {"0": "0", "1": "0"}),))
    return spec, point, pair


def test_a_naturality_break_at_the_top_level_is_found():
    spec, point, pair = _two_level_site_towers()
    src = Precosheaf(spec, FINSET, 1, {"a": point, "b": point},
                     {m.id: LevelMorphism.identity(point) for m in spec.category.morphisms})
    dst = Precosheaf(spec, FINSET, 1, {"a": pair, "b": pair},
                     {m.id: LevelMorphism.identity(pair) for m in spec.category.morphisms})

    def to(top):
        return LevelMorphism(point, pair, (finset_map(finset("p"), finset("0"), {"p": "0"}),
                                           finset_map(finset("p"), finset("0", "1"),
                                                      {"p": top})))

    PrecosheafMorphism(src, dst, {"a": to("1"), "b": to("1")})
    # level 0 agrees (both land on "0"); only the top level tells them apart
    with pytest.raises(EngineError, match="naturality fails on 'a<b'"):
        PrecosheafMorphism(src, dst, {"a": to("0"), "b": to("1")})


def test_a_failing_lower_square_is_found_when_the_morphism_is_built():
    two = finset("0", "1")
    x = Tower.constant(two, 2)
    swap = finset_map(two, two, {"0": "1", "1": "0"})
    # the top component is the identity's; the square at level 0 fails
    with pytest.raises(EngineError, match="squares fail at level 0"):
        LevelMorphism(x, x, (swap, identity_map(two), identity_map(two)))


# ---------------------------------------------------------------------------
# the constructions build no throw-away composite


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("g", [finset("p"), free_ab(1)])
def test_constructions_build_no_then_composite(monkeypatch, g):
    site = converging_sequence_site(6)
    a = constant_precosheaf(site, g, 3)
    grown = plus_cosheaf(a).precosheaf  # towers that grow level by level
    sieve = sieve_levels(site, "X", 3)[2]
    thens = _counting(monkeypatch, LevelMorphism, "then")
    again = constant_precosheaf(site, g, 3)
    PrecosheafMorphism(again, again, identity_morphism(again).components)
    # a tower colimit and the map out of it: no cocone leg ∘ bond composite
    composites = _counting(monkeypatch, towers, "compose")
    assert tensor_with_sieve(grown, sieve).tower.depth == 3
    assert thens == []
    assert composites == []


def test_constant_z_smoothness_multiplies_few_matrices(monkeypatch):
    # constant towers have identity bonds and the constant precosheaf has
    # identity actions; chains skip those factors (22,149 products without)
    site = converging_sequence_site(8)
    a = constant_precosheaf(site, Z, 4)
    products = _counting(monkeypatch, intmat, "mul")
    assert is_smooth(a, 4).classification == "NOT-SMOOTH"
    assert len(products) <= 3000


# ---------------------------------------------------------------------------
# the refinement-search memo


def _fresh_search(spec, v, sieve, alpha, depth):
    pulled = pullback_sieve(spec, sieve, alpha).members
    return next(((lvl, s) for lvl, s in enumerate(sieve_levels(spec, v, depth))
                 if s.members <= pulled), None)


def _search_arguments(spec, depths=(0, 1, 3)):
    """Every sieve level down to the deepest depth, each searched at every
    depth: a shallow search may miss what a deeper one finds."""
    for alpha in spec.category.morphisms:
        for sieve in dict.fromkeys(sieve_levels(spec, alpha.dst, max(depths))):
            for depth in depths:
                yield alpha.src, sieve, alpha.id, depth


def test_refinement_memo_equals_a_fresh_search():
    rng = random.Random(5)
    specs = [random_site(rng) for _ in range(8)] + [converging_sequence_site(6)]
    outcomes = set()
    for spec in specs:
        args = list(_search_arguments(spec))
        rng.shuffle(args)
        for v, sieve, alpha, depth in args + args:
            hit = refinement_search(spec, v, sieve, alpha, depth)
            assert hit == _fresh_search(spec, v, sieve, alpha, depth)
            assert refinement_search(spec, v, sieve, alpha, depth) is hit
            outcomes.add(None if hit is None else hit[0])
        assert spec._refinements
    assert {None, 0, 1, 3} <= outcomes


def test_pickled_site_carries_no_filled_refinement_memo():
    spec = converging_sequence_site(6)
    args = list(_search_arguments(spec))
    hits = [refinement_search(spec, *a) for a in args]
    assert spec._refinements
    copy = pickle.loads(pickle.dumps(spec))
    assert copy._refinements == {}
    assert [refinement_search(copy, *a) for a in args] == hits
    assert spec._refinements  # pickling leaves the original's memo alone
