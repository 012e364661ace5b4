"""The induced maps out of colimits and into limits, and direct sums, on
seeded random diagrams: every value-category diagram of a random open-set
site's precosheaf, over the whole site category."""

import random

import pytest

from finsite.errors import EngineError
from finsite.randsuite import random_finab_precosheaf, random_finset_precosheaf, random_site
from finsite.values import (FINAB, FINSET, FinAbMap, FinAbObj, FiniteDiagram, FinSetMap,
                            classify_map, compose, cyclic, direct_sum, finite_colimit,
                            finite_limit, finset, free_ab, identity_map, into_limit, inverse,
                            maps_equal, out_map, unique_map_from_initial,
                            unique_map_to_terminal)

SEEDS = range(12)


def _site_diagram(seed, category):
    """Level 0 of a seeded random precosheaf as a diagram over the site
    category, with the precosheaf and the generator for further draws."""
    rng = random.Random(seed)
    spec = random_site(rng)
    make = random_finset_precosheaf if category == FINSET else random_finab_precosheaf
    a = make(spec, rng)
    cat = spec.category
    nodes = {u: a.values[u].levels[0] for u in cat.objects}
    edges = {m.id: a.action[m.id].components[0] for m in cat.morphisms}
    return FiniteDiagram(cat, nodes, edges), a, rng


def _top(cat):
    """The whole space: the object every other object maps into."""
    return next(v for v in cat.objects if all(cat.hom(u, v) for u in cat.objects))


@pytest.mark.parametrize("category", [FINSET, FINAB])
@pytest.mark.parametrize("seed", SEEDS)
def test_out_map_of_the_cocone_is_the_identity(seed, category):
    diagram, _, _ = _site_diagram(seed, category)
    colim = finite_colimit(diagram)
    assert maps_equal(out_map(colim, colim.cocone, colim.obj), identity_map(colim.obj))


@pytest.mark.parametrize("category", [FINSET, FINAB])
@pytest.mark.parametrize("seed", SEEDS)
def test_out_map_restricts_to_each_leg(seed, category):
    diagram, a, _ = _site_diagram(seed, category)
    cat = diagram.shape
    top = _top(cat)
    # the canonical cocone into the value at the whole space
    legs = {u: a.action[cat.hom(u, top)[0].id].components[0] for u in cat.objects}
    colim = finite_colimit(diagram)
    induced = out_map(colim, legs, diagram.nodes[top])
    for u in cat.objects:
        assert maps_equal(compose(induced, colim.cocone[u]), legs[u])


def _random_map_into(obj, rng):
    """A map from a small fixed source into obj, or None when there is none."""
    if isinstance(obj, FinAbObj):
        src = free_ab(2)
        rows = tuple(tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(obj.rank))
        return FinAbMap(src, obj, rows)
    if not obj.elements:
        return None
    src = finset("s0", "s1", "s2")
    return FinSetMap(src, obj, tuple((x, rng.choice(obj.elements)) for x in src.elements))


@pytest.mark.parametrize("category", [FINSET, FINAB])
@pytest.mark.parametrize("seed", SEEDS)
def test_into_limit_is_the_unique_factorization(seed, category):
    diagram, _, rng = _site_diagram(seed, category)
    limit = finite_limit(diagram)
    assert maps_equal(into_limit(limit, limit.obj, limit.cone), identity_map(limit.obj))
    h = _random_map_into(limit.obj, rng)
    if h is None:
        return
    legs = {u: compose(limit.cone[u], h) for u in diagram.shape.objects}
    induced = into_limit(limit, h.src, legs)
    assert maps_equal(induced, h)
    for u in diagram.shape.objects:
        assert maps_equal(compose(limit.cone[u], induced), legs[u])


def _elementary_divisors(g):
    """Prime-power torsion factors (sorted) and free rank, by trial division."""
    torsion, free = g.invariants()
    out = []
    for n in torsion:
        p = 2
        while n > 1:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            if q > 1:
                out.append(q)
            p += 1
    return sorted(out), free


@pytest.mark.parametrize("seed", SEEDS)
def test_direct_sum_invariants_combine_the_summands(seed):
    diagram, _, rng = _site_diagram(seed, FINAB)
    summands = [diagram.nodes[u] for u in sorted(diagram.nodes)]
    summands += [rng.choice([cyclic(4), cyclic(6), free_ab(1), free_ab(0)])]
    summed = direct_sum(summands)
    assert summed.rank == sum(g.rank for g in summands)
    torsion, free = [], 0
    for g in summands:
        t, f = _elementary_divisors(g)
        torsion += t
        free += f
    assert _elementary_divisors(summed) == (sorted(torsion), free)


def test_direct_sum_of_nothing_is_zero():
    assert direct_sum([]) == FinAbObj(0)


@pytest.mark.parametrize("category", [FINSET, FINAB])
@pytest.mark.parametrize("seed", SEEDS)
def test_inverse_of_an_isomorphism_composes_to_identities(seed, category):
    diagram, a, _ = _site_diagram(seed, category)
    cat = diagram.shape
    top = _top(cat)
    legs = {u: a.action[cat.hom(u, top)[0].id].components[0] for u in cat.objects}
    colim = finite_colimit(diagram)
    # the shape has a terminal object, whose value is the colimit
    iso = out_map(colim, legs, diagram.nodes[top])
    inv = inverse(iso)
    assert maps_equal(compose(inv, iso), identity_map(colim.obj))
    assert maps_equal(compose(iso, inv), identity_map(diagram.nodes[top]))


@pytest.mark.parametrize("category", [FINSET, FINAB])
@pytest.mark.parametrize("seed", SEEDS)
def test_inverse_exists_exactly_for_isomorphisms(seed, category):
    """Cocone legs and the maps from the initial and to the terminal object,
    judged against classify_map's kernel and cokernel."""
    diagram, _, _ = _site_diagram(seed, category)
    top = diagram.nodes[_top(diagram.shape)]
    candidates = [*finite_colimit(diagram).cocone.values(),
                  unique_map_from_initial(category, top), unique_map_to_terminal(category, top)]
    refused = 0
    for f in candidates:
        if classify_map(f).iso:
            inv = inverse(f)
            assert maps_equal(compose(inv, f), identity_map(f.src))
            assert maps_equal(compose(f, inv), identity_map(f.dst))
        else:
            refused += 1
            with pytest.raises(EngineError, match="not an isomorphism"):
                inverse(f)
    assert refused or category == FINAB
