"""The presheaf side: sections over sieves, sheaf condition, plus, stalks."""

import pytest

from finsite.category import (Cover, Coverage, SiteSpec, distinct_covers,
                              poset_category, sieve_from_cover)
from finsite.errors import EngineError
from finsite.sheaf import (Presheaf, check_sheaf, hom_with_sieve, plus_sheaf,
                           presheaf_product, sheafify, stalk)
from finsite.spaces import (open_site, pi0_precosheaf, pseudocircle,
                            site_points)
from finsite.values import (FINAB, FINSET, category_of, classify_map, compose,
                            finab_map, finset, finset_map, free_ab, identity_map,
                            is_zero_map, maps_equal, unique_map_to_terminal)

X = "{a,b,c,d}"


def constant_presheaf(spec, g):
    vals = {u: g for u in spec.category.objects}
    action = {m.id: finset_map(g, g, {x: x for x in g.elements})
              for m in spec.category.morphisms}
    return Presheaf(spec, "finset", vals, action, site_points(spec))


def test_presheaf_rejects_values_outside_its_category():
    spec = open_site(pseudocircle())
    p = constant_presheaf(spec, finset("*"))
    with pytest.raises(EngineError):
        Presheaf(spec, "finab", p.values, p.action)


def functions_presheaf(spec, space, g):
    """U -> functions(points of U, G): the canonical sheaf of G-valued data."""
    opens = {u: next(s for s in space.opens() if ("{" + ",".join(sorted(s)) + "}") == u)
             for u in spec.category.objects}
    vals = {}
    decode = {}
    for u, s in opens.items():
        tables = []
        pts = sorted(s)
        if not pts:
            tables = [()]
        else:
            import itertools
            tables = list(itertools.product(g.elements, repeat=len(pts)))
        ids = ["(" + ",".join(f"{p}={v}" for p, v in zip(pts, t)) + ")" for t in tables]
        vals[u] = finset(*ids)
        decode[u] = {i: dict(zip(pts, t)) for i, t in zip(ids, tables)}
    action = {}
    for m in spec.category.morphisms:
        small, big = m.src, m.dst
        table = {}
        pts_small = sorted(opens[small])
        for i in vals[big].elements:
            fam = decode[big][i]
            key = "(" + ",".join(f"{p}={fam[p]}" for p in pts_small) + ")"
            table[i] = key
        action[m.id] = finset_map(vals[big], vals[small], table)
    return Presheaf(spec, "finset", vals, action, site_points(spec))


def no_meet_disjoint_site():
    """U covered by two pieces with no common subobject."""
    cat = poset_category(["U", "V1", "V2"], [("V1", "U"), ("V2", "U")])
    trivial = {u: Cover(u, (cat.id_of(u),), ()) for u in cat.objects}
    cover = Cover("U", ("V1<U", "V2<U"), ())
    covers = {u: (trivial[u],) for u in cat.objects}
    covers["U"] = (trivial["U"], cover)
    return SiteSpec(cat, Coverage(covers), name="disjoint", poset=True)


@pytest.fixture(scope="module")
def circle():
    space = pseudocircle()
    return space, open_site(space)


# ---------------------------------------------------------------------------
# hom_with_sieve


def test_sections_over_maximal_sieve_yoneda(circle):
    _, spec = circle
    pre = constant_presheaf(spec, finset("g0", "g1"))
    sieve = sieve_from_cover(spec, spec.declared_covers(X)[0])
    res = hom_with_sieve(pre, sieve)
    assert classify_map(res.restriction).iso


def test_matching_families_agree_on_the_meet(circle):
    space, spec = circle
    pre = functions_presheaf(spec, space, finset("g0", "g1"))
    arcs = spec.declared_covers(X)[1]
    res = hom_with_sieve(pre, sieve_from_cover(spec, arcs))
    # sections over the cover = functions on X = 2^4
    assert len(res.obj) == 16
    assert classify_map(res.restriction).iso


def test_sections_over_empty_sieve_terminal(circle):
    _, spec = circle
    pre = constant_presheaf(spec, finset("g0", "g1"))
    empty = [c for c in spec.declared_covers("{}") if not c.pieces][0]
    res = hom_with_sieve(pre, sieve_from_cover(spec, empty))
    assert len(res.obj) == 1


@pytest.mark.parametrize("g", [finset("g0", "g1"), free_ab(2)], ids=[FINSET, FINAB])
def test_empty_sieve_is_limited_to_the_terminal_value(circle, g):
    """Over the empty sieve the hom is the limit of the empty diagram: the
    one-point set {*} or the zero group, and plus_sheaf puts it at {}."""
    _, spec = circle
    cat = category_of(g)
    pre = Presheaf(spec, cat, {u: g for u in spec.category.objects},
                   {m.id: identity_map(g) for m in spec.category.morphisms}, site_points(spec))
    empty = [c for c in spec.declared_covers("{}") if not c.pieces][0]
    res = hom_with_sieve(pre, sieve_from_cover(spec, empty))
    if cat == FINSET:
        assert res.obj.elements == ("*",)
        assert res.restriction == unique_map_to_terminal(FINSET, g)
    else:
        assert res.obj.rank == 0
        assert res.restriction.dst == res.obj and is_zero_map(res.restriction)
    assert plus_sheaf(pre).presheaf.values["{}"] == res.obj


# ---------------------------------------------------------------------------
# check_sheaf


def test_constant_presheaf_not_sheaf_on_disjoint_cover():
    spec = no_meet_disjoint_site()
    g = finset("g0", "g1")
    vals = {u: g for u in spec.category.objects}
    action = {m.id: finset_map(g, g, {x: x for x in g.elements})
              for m in spec.category.morphisms}
    pre = Presheaf(spec, "finset", vals, action)
    report = check_sheaf(pre)
    assert report.classification == "SEPARATED"  # mono but |limit| = 4 != 2
    cover = spec.declared_covers("U")[1]
    res = hom_with_sieve(pre, sieve_from_cover(spec, cover))
    assert len(res.obj) == 4


def test_functions_presheaf_is_sheaf(circle):
    space, spec = circle
    pre = functions_presheaf(spec, space, finset("g0", "g1"))
    assert check_sheaf(pre).classification == "SHEAF"


def test_everything_is_sheaf_on_trivial_cover_site():
    cat = poset_category(["u", "v"], [("u", "v")])
    covers = {o: (Cover(o, (cat.id_of(o),), ()),) for o in cat.objects}
    spec = SiteSpec(cat, Coverage(covers), poset=True)
    g = finset("g0", "g1")
    pre = Presheaf(spec, "finset", {"u": g, "v": g},
                   {m.id: finset_map(g, g, {x: x for x in g.elements})
                    for m in cat.morphisms})
    assert check_sheaf(pre).classification == "SHEAF"


def test_constant_presheaf_on_pseudocircle_not_separated(circle):
    # the empty cover of the empty open forces the terminal value there
    _, spec = circle
    pre = constant_presheaf(spec, finset("g0", "g1"))
    report = check_sheaf(pre)
    assert report.classification == "NOT-SEPARATED"
    assert any(w["object"] == "{}" for w in report.witnesses)


# ---------------------------------------------------------------------------
# plus and sheafify


def test_unit_iso_on_sheaf(circle):
    space, spec = circle
    pre = functions_presheaf(spec, space, finset("g0", "g1"))
    res = plus_sheaf(pre)
    for u in spec.category.objects:
        assert classify_map(res.unit[u]).iso


def test_plus_of_constant_on_disjoint_cover_is_square():
    spec = no_meet_disjoint_site()
    g = finset("g0", "g1")
    pre = Presheaf(spec, "finset", {u: g for u in spec.category.objects},
                   {m.id: finset_map(g, g, {x: x for x in g.elements})
                    for m in spec.category.morphisms})
    res = plus_sheaf(pre)
    assert len(res.presheaf.values["U"]) == 4
    # separated input: one plus step already yields a sheaf
    assert check_sheaf(res.presheaf).classification == "SHEAF"


def test_sheafify_constant_gives_locally_constant(circle):
    space, spec = circle
    pi0 = pi0_precosheaf(spec, space)
    g = finset("g0", "g1")
    pre = constant_presheaf(spec, g)
    res = sheafify(pre)
    assert res.report.passed
    for u in spec.category.objects:
        comps = len(pi0.values[u].levels[0])
        assert len(res.presheaf.values[u]) == len(g) ** comps


def test_sheafify_merges_non_separated_sections():
    # two sections agreeing on a cover collapse in the plus construction
    cat = poset_category(["U", "V"], [("V", "U")])
    trivial = {u: Cover(u, (cat.id_of(u),), ()) for u in cat.objects}
    cover = Cover("U", ("V<U",), ())
    covers = {"U": (trivial["U"], cover), "V": (trivial["V"],)}
    spec = SiteSpec(cat, Coverage(covers), poset=True)
    big = finset("s1", "s2")
    small = finset("t")
    pre = Presheaf(spec, "finset", {"U": big, "V": small},
                   {"U<U": identity_map(big), "V<V": identity_map(small),
                    "V<U": finset_map(big, small, {"s1": "t", "s2": "t"})})
    assert check_sheaf(pre).classification == "NOT-SEPARATED"
    res = sheafify(pre)
    assert res.report.passed
    assert len(res.presheaf.values["U"]) == 1


def test_left_exactness_probe(circle):
    """Plus of a product of presheaves is the product of the pluses."""
    space, spec = circle
    a = constant_presheaf(spec, finset("g0", "g1"))
    b = functions_presheaf(spec, space, finset("h0", "h1"))
    prod = presheaf_product(a, b)
    plus_prod = plus_sheaf(prod)
    plus_a = plus_sheaf(a)
    plus_b = plus_sheaf(b)
    for u in spec.category.objects:
        assert len(plus_prod.presheaf.values[u]) == (
            len(plus_a.presheaf.values[u]) * len(plus_b.presheaf.values[u]))


def test_universal_property_of_sheafification(circle):
    """Morphisms into a sheaf factor uniquely through the double plus."""
    from finsite.values import hom_set
    space, spec = circle
    small = SiteSpec(spec.category, spec.coverage, spec.name, spec.poset)
    a = constant_presheaf(spec, finset("g0"))
    b = functions_presheaf(spec, space, finset("h0", "h1"))
    res = sheafify(a)
    # enumerate presheaf morphisms a -> b and a## -> b, compare counts
    def nat_transforms(src, dst):
        objs = sorted(spec.category.objects)
        pools = [hom_set(src.values[u], dst.values[u]) for u in objs]
        import itertools
        out = []
        for combo in itertools.product(*pools):
            comp = dict(zip(objs, combo))
            ok = all(
                maps_equal(compose(comp[m.src], src.action[m.id]),
                           compose(dst.action[m.id], comp[m.dst]))
                for m in spec.category.morphisms)
            if ok:
                out.append(comp)
        return out

    direct = nat_transforms(a, b)
    through = nat_transforms(res.presheaf, b)
    # precomposition with the unit is the factorization bijection
    factored = set()
    for comp in through:
        key = tuple(
            tuple(sorted(compose(comp[u], res.unit[u]).table))
            for u in sorted(spec.category.objects))
        factored.add(key)
    assert len(direct) == len(through) == len(factored)


# ---------------------------------------------------------------------------
# stalks


def test_stalk_is_value_at_minimal_open(circle):
    _, spec = circle
    pre = constant_presheaf(spec, finset("g0", "g1"))
    p = next(q for q in site_points(spec) if q.label == "pt:a")
    assert stalk(pre, p) == pre.values["{a}"]


def test_unit_induces_stalk_isos(circle):
    space, spec = circle
    pre = constant_presheaf(spec, finset("g0", "g1"))
    res = sheafify(pre)
    for p in site_points(spec):
        u_min = p.chain[-1]
        assert classify_map(res.unit[u_min]).iso


def test_stalk_of_constant_is_value(circle):
    _, spec = circle
    g = finset("g0", "g1")
    pre = constant_presheaf(spec, g)
    for p in site_points(spec):
        assert stalk(pre, p) == g
