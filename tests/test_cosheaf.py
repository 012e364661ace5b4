"""The cosheaf engine: tensors, defects, plus construction, coreflection,
costalks, local isomorphisms, smoothness."""

import hashlib
from pathlib import Path

import pytest

from finsite import cosheaf, io
from finsite.category import (Cover, CoverChain, Coverage, Sieve, SiteSpec, distinct_covers,
                              poset_category, sieve_from_cover)
from finsite.cosheaf import (PointFilter, Precosheaf, PrecosheafMorphism, check_cosheaf,
                             constant_precosheaf, coproduct, cosheaf_defect,
                             cosheafify, costalk, defect_agreement,
                             enumerate_natural_transformations, is_locally_zero,
                             is_smooth, plus_cosheaf, plus_map,
                             precosheaf_from_tables, strong_local_iso_check,
                             tensor_with_sieve, universal_factorization_check)
from finsite.errors import EngineError
from finsite.sheaf import check_sheaf, hom_into_presheaf, hom_with_sieve
from finsite.spaces import (converging_sequence_site, h0_precosheaf, open_site,
                            pi0_precosheaf, pseudocircle, site_points)
from finsite.towers import (LevelMorphism, equal_at_depth, is_iso_at_depth,
                            is_rudimentary_at_depth)
from finsite.values import (FinSetMap, classify_map, cyclic, finab_map, finset,
                            finset_map, free_ab, hom_set)

X = "{a,b,c,d}"


@pytest.fixture(scope="module")
def circle():
    space = pseudocircle()
    spec = open_site(space)
    return space, spec


@pytest.fixture(scope="module")
def circle_pi0(circle):
    space, spec = circle
    return pi0_precosheaf(spec, space)


@pytest.fixture(scope="module")
def circle_pt(circle):
    _, spec = circle
    return constant_precosheaf(spec, finset("*"), 0, site_points(spec))


@pytest.fixture(scope="module")
def conv():
    spec = converging_sequence_site(8)
    return spec


@pytest.fixture(scope="module")
def conv_pt(conv):
    return constant_precosheaf(conv, finset("*"), 6, site_points(conv))


def test_precosheaf_rejects_values_outside_its_category(circle_pt):
    with pytest.raises(EngineError):
        Precosheaf(circle_pt.site, "finab", circle_pt.depth, circle_pt.values, circle_pt.action)


# ---------------------------------------------------------------------------
# tensor_with_sieve


def test_tensor_maximal_sieve_is_iso(circle_pi0):
    a = circle_pi0
    spec = a.site
    sieve = sieve_from_cover(spec, spec.declared_covers(X)[0])
    res = tensor_with_sieve(a, sieve)
    assert classify_map(res.compare.components[0]).iso


def test_tensor_pseudocircle_arcs_glue_to_point(circle_pi0):
    a = circle_pi0
    spec = a.site
    arcs = spec.declared_covers(X)[1]
    res = tensor_with_sieve(a, sieve_from_cover(spec, arcs))
    assert len(res.tower.levels[0]) == 1
    assert classify_map(res.compare.components[0]).iso


def test_tensor_disjoint_cover_counts_components(conv, conv_pt):
    # chain covers have no common subobjects: one class per piece
    chain = conv.chain_of("X")
    for level in (0, 2, 4):
        cover = chain.cover_at(level)
        res = tensor_with_sieve(conv_pt, sieve_from_cover(conv, cover))
        assert len(res.tower.levels[level]) == len(cover.pieces)


def test_tensor_empty_sieve_is_initial(circle_pi0):
    res = tensor_with_sieve(circle_pi0, Sieve("{}", frozenset()))
    assert len(res.tower.levels[0]) == 0


def test_tensor_empty_sieve_colimit_lands_in_the_store(circle_pi0):
    res = tensor_with_sieve(circle_pi0, Sieve("{}", frozenset()))
    (stored,) = circle_pi0._colimits[("{}", frozenset())].values()
    assert stored is res.colimit.levels[0]


# ---------------------------------------------------------------------------
# cosheaf_defect and the fast/slow oracle equivalence


def test_defect_trivial_cover_iso(circle_pi0):
    spec = circle_pi0.site
    trivial = spec.declared_covers(X)[0]
    res = cosheaf_defect(circle_pi0, trivial)
    assert classify_map(res.compare.components[0]).iso


def test_defect_empty_cover_initial_object(circle_pi0, circle_pt):
    spec = circle_pi0.site
    empty = [c for c in spec.declared_covers("{}") if not c.pieces][0]
    # pi0 has the initial value at the empty open: defect iso
    res = cosheaf_defect(circle_pi0, empty)
    assert classify_map(res.compare.components[0]).iso
    # the constant point precosheaf does not: defect not epi
    res_pt = cosheaf_defect(circle_pt, empty)
    assert not classify_map(res_pt.compare.components[0]).epi


def test_fast_slow_agreement_on_pseudocircle(circle_pi0, circle_pt):
    spec = circle_pi0.site
    for a in (circle_pi0, circle_pt):
        for u in spec.category.objects:
            for cover in distinct_covers(spec, u, 0):
                if cover.has_intersections():
                    assert defect_agreement(a, cover), (u, cover.pieces)


def test_fast_slow_agreement_finab(circle):
    space, spec = circle
    h0 = h0_precosheaf(spec, space, free_ab(1))
    for u in spec.category.objects:
        for cover in distinct_covers(spec, u, 0):
            if cover.has_intersections():
                assert defect_agreement(h0, cover), (u, cover.pieces)


def test_fast_slow_agreement_on_converging_chain_covers(conv, conv_pt):
    chain = conv.chain_of("X")
    for level in (0, 1, 3):
        assert defect_agreement(conv_pt, chain.cover_at(level))


# ---------------------------------------------------------------------------
# check_cosheaf


def test_pi0_is_cosheaf(circle_pi0):
    report = check_cosheaf(circle_pi0)
    assert report.classification == "COSHEAF"
    assert report.passed


def test_h0_is_cosheaf(circle):
    space, spec = circle
    h0 = h0_precosheaf(spec, space, free_ab(1))
    assert check_cosheaf(h0).classification == "COSHEAF"


def test_constant_point_on_converging_is_coseparated_not_cosheaf(conv_pt):
    report = check_cosheaf(conv_pt, 6)
    assert report.classification == "COSEPARATED"
    assert not report.passed
    assert report.witnesses  # carries the failing cover


def test_everything_is_cosheaf_on_trivial_cover_sites():
    from finsite.category import Coverage, SiteSpec, poset_category
    cat = poset_category(["u", "v"], [("u", "v")])
    covers = {o: (Cover(o, (cat.id_of(o),), ()),) for o in cat.objects}
    spec = SiteSpec(cat, Coverage(covers), poset=True)
    a = precosheaf_from_tables(
        spec, "finset", {"u": ("p",), "v": ("q", "r")},
        {"u<u": {"p": "p"}, "v<v": {"q": "q", "r": "r"}, "u<v": {"p": "q"}})
    assert check_cosheaf(a).classification == "COSHEAF"


# ---------------------------------------------------------------------------
# plus construction and cosheafify


def test_plus_fixes_cosheaf(circle_pi0):
    plus = plus_cosheaf(circle_pi0)
    for u in circle_pi0.site.category.objects:
        assert is_iso_at_depth(plus.counit.components[u]).iso


def test_plus_counit_not_iso_on_non_cosheaf(circle_pt):
    plus = plus_cosheaf(circle_pt)
    bad = [u for u in circle_pt.site.category.objects
           if not is_iso_at_depth(plus.counit.components[u]).iso]
    assert "{}" in bad  # the empty open has the empty cover


def test_plus_growth_on_converging(conv_pt):
    plus = plus_cosheaf(conv_pt, 6)
    sizes = [len(l.elements) for l in plus.precosheaf.values["X"].levels]
    assert sizes == [2, 3, 4, 5, 6, 7, 8]
    for bond in plus.precosheaf.values["X"].bonds:
        assert classify_map(bond).epi


def test_plus_on_trivial_cover_object_is_value(conv_pt):
    plus = plus_cosheaf(conv_pt, 6)
    assert [len(l.elements) for l in plus.precosheaf.values["S3"].levels] == [1] * 7


def test_plus_is_cosheaf_when_input_coseparated(conv_pt):
    plus = plus_cosheaf(conv_pt, 6)
    assert check_cosheaf(plus.precosheaf, 6).classification == "COSHEAF"


def test_cosheafify_postconditions(circle_pt, conv_pt):
    for a, d in ((circle_pt, 0), (conv_pt, 6)):
        res = cosheafify(a, d)
        assert res.report.passed


def test_cosheafify_fixed_point_on_cosheaf(circle_pi0):
    res = cosheafify(circle_pi0)
    for u in circle_pi0.site.category.objects:
        assert is_iso_at_depth(res.counit.components[u]).iso


def test_cosheafify_pt_on_connected_finite_space_is_pi0(circle_pi0, circle_pt):
    res = cosheafify(circle_pt)
    for u in circle_pt.site.category.objects:
        assert len(res.precosheaf.values[u].levels[0]) == len(circle_pi0.values[u].levels[0])


def test_right_exactness_probe(circle_pi0, circle_pt):
    """Plus of a coproduct equals the coproduct of the pluses, levelwise."""
    both = coproduct(circle_pi0, circle_pt)
    plus_both = plus_cosheaf(both)
    plus_1 = plus_cosheaf(circle_pi0)
    plus_2 = plus_cosheaf(circle_pt)
    for u in both.site.category.objects:
        assert len(plus_both.precosheaf.values[u].levels[0]) == (
            len(plus_1.precosheaf.values[u].levels[0])
            + len(plus_2.precosheaf.values[u].levels[0]))


# ---------------------------------------------------------------------------
# costalks


def test_costalk_at_minimal_open_is_value(circle_pi0):
    t = costalk(circle_pi0, circle_pi0.point_filter("pt:a"))
    assert len(t.levels[0]) == len(circle_pi0.values["{a}"].levels[0])


def test_costalk_at_limit_point_not_rudimentary(conv_pt):
    res = cosheafify(conv_pt, 6)
    t = costalk(res.precosheaf, conv_pt.point_filter("pt:0"), 6)
    assert not is_rudimentary_at_depth(t, 6).rudimentary


def test_costalk_at_isolated_point_rudimentary_singleton(conv_pt):
    res = cosheafify(conv_pt, 6)
    t = costalk(res.precosheaf, conv_pt.point_filter("pt:1/3"), 6)
    verdict = is_rudimentary_at_depth(t, 6)
    assert verdict.rudimentary
    assert len(t.levels[-1]) == 1


# ---------------------------------------------------------------------------
# strong local isomorphisms


def test_identity_is_strong_local_iso(circle_pi0):
    from finsite.cosheaf import identity_morphism
    report = strong_local_iso_check(identity_morphism(circle_pi0), circle_pi0.points)
    assert report.passed


def test_counit_is_strong_local_iso_everywhere(circle_pt, conv_pt):
    for a, d in ((circle_pt, 0), (conv_pt, 6)):
        res = cosheafify(a, d)
        report = strong_local_iso_check(res.counit, a.points, d)
        assert report.passed, report.witnesses


def test_collapse_of_cosheafification_onto_point_is_strong_local_iso(conv, conv_pt):
    """The costalk of the cosheafified point precosheaf at the limit point is
    pro-isomorphic to the point (deep images collapse onto the tail class),
    so the collapse onto the constant point passes at every point."""
    res = cosheafify(conv_pt, 6)
    big = res.precosheaf
    comps = {}
    for u in conv.category.objects:
        tower = big.values[u]
        comps[u] = LevelMorphism(
            tower, conv_pt.values[u],
            tuple(finset_map(tower.levels[j], conv_pt.values[u].levels[j],
                             {e: "*" for e in tower.levels[j].elements})
                  for j in range(7)))
    collapse = PrecosheafMorphism(big, conv_pt, comps)
    report = strong_local_iso_check(collapse, conv_pt.points, 6)
    assert report.passed


def test_tail_indicator_inclusion_fails_exactly_at_limit_point(conv, conv_pt):
    """Adjoining an extra grain on every tail neighborhood breaks the costalk
    comparison at the limit point and nowhere else."""
    tables = {}
    action = {}
    for u in conv.category.objects:
        tables[u] = ("*", "e") if not u.startswith("S") else ("*",)
    for m in conv.category.morphisms:
        table = {"*": "*"}
        if not m.src.startswith("S") and not m.dst.startswith("S"):
            table["e"] = "e"
        action[m.id] = table
    b = precosheaf_from_tables(conv, "finset", tables, action, 6, site_points(conv))
    comps = {
        u: LevelMorphism(
            conv_pt.values[u], b.values[u],
            tuple(finset_map(conv_pt.values[u].levels[j], b.values[u].levels[j], {"*": "*"})
                  for j in range(7)))
        for u in conv.category.objects
    }
    f = PrecosheafMorphism(conv_pt, b, comps)
    # the limit point plus the isolated points whose chains reach their
    # minimum within depth 6
    pts = [p for p in conv_pt.points if p.label == "pt:0" or len(p.chain) <= 7]
    report = strong_local_iso_check(f, pts, 6)
    assert not report.passed
    assert [w["point"] for w in report.witnesses] == ["pt:0"]


def test_naturality_is_enforced(circle_pi0):
    # swapping the two components of {a,b} while fixing everything else
    # breaks the square along the inclusion of {a}
    comps = {}
    for u in circle_pi0.site.category.objects:
        lv = circle_pi0.values[u].levels[0]
        if u == "{a,b}":
            table = {"c:a": "c:b", "c:b": "c:a"}
        else:
            table = {x: x for x in lv.elements}
        comps[u] = LevelMorphism(
            circle_pi0.values[u], circle_pi0.values[u],
            (finset_map(lv, lv, table),))
    with pytest.raises(EngineError):
        PrecosheafMorphism(circle_pi0, circle_pi0, comps)


# ---------------------------------------------------------------------------
# locally zero


def conv_z(conv, depth=6):
    return constant_precosheaf(conv, free_ab(1), depth, site_points(conv))


def test_zero_precosheaf_locally_zero(conv):
    zero = constant_precosheaf(conv, free_ab(0), 4, site_points(conv))
    assert is_locally_zero(zero, zero.points, 4).passed


def test_constant_z_not_locally_zero(conv):
    z = conv_z(conv, 4)
    report = is_locally_zero(z, z.points, 4)
    assert not report.passed


def test_eventually_zero_costalk_passes(conv):
    # action along the limit-point chain becomes the zero map deep down
    z = free_ab(1)
    tables = {u: z for u in conv.category.objects}
    action = {}
    for m in conv.category.morphisms:
        if m.src == m.dst:
            action[m.id] = ((1,),)
        else:
            action[m.id] = ((0,),)
    a = precosheaf_from_tables(conv, "finab", tables, action, 4, site_points(conv))
    assert is_locally_zero(a, [a.point_filter("pt:0")], 4).passed


# ---------------------------------------------------------------------------
# smoothness


def test_pi0_is_smooth(circle_pi0):
    assert is_smooth(circle_pi0).classification == "SMOOTH"


def test_pt_smooth_on_finite_space(circle_pt):
    assert is_smooth(circle_pt).classification == "SMOOTH"


def test_pt_not_smooth_on_converging(conv_pt):
    report = is_smooth(conv_pt, 6)
    assert report.classification == "NOT-SMOOTH"
    assert any(w["object"] == "X" for w in report.witnesses)


def test_z_not_smooth_on_converging(conv):
    report = is_smooth(conv_z(conv, 4), 4)
    assert report.classification == "NOT-SMOOTH"


def test_tower_valued_input_trivially_smooth(conv_pt):
    res = cosheafify(conv_pt, 6)
    report = is_smooth(res.precosheaf, 6)
    assert report.passed
    assert "trivial" in report.trace[0]


# ---------------------------------------------------------------------------
# constant precosheaves and the universal property


def test_constant_singleton_everywhere(circle_pt):
    for t in circle_pt.values.values():
        assert len(t.levels[0]) == 1


def test_constant_z_values(conv):
    z = conv_z(conv, 2)
    for t in z.values.values():
        assert t.levels[0].invariants() == ((), 1)


def test_cosheafified_constant_equals_tensor_with_pi0(circle):
    space, spec = circle
    pts = site_points(spec)
    g = finset("g0", "g1")
    cg = cosheafify(constant_precosheaf(spec, g, 0, pts))
    pi0 = pi0_precosheaf(spec, space)
    for u in spec.category.objects:
        assert len(cg.precosheaf.values[u].levels[0]) == (
            len(g) * len(pi0.values[u].levels[0]))


def _unique_map_to_pt(b, pt):
    comps = {}
    for u in b.site.category.objects:
        comps[u] = LevelMorphism(
            b.values[u], pt.values[u],
            tuple(finset_map(b.values[u].levels[j], pt.values[u].levels[j],
                             {x: "*" for x in b.values[u].levels[j].elements})
                  for j in range(b.depth + 1)))
    return PrecosheafMorphism(b, pt, comps)


def test_universal_factorization_pi0_through_coreflection(circle_pi0, circle_pt):
    f = _unique_map_to_pt(circle_pi0, circle_pt)
    report = universal_factorization_check(circle_pt, circle_pi0, f, 0,
                                           uniqueness_bound=8)
    assert report.passed
    assert any("uniqueness: 1 factorization" in line for line in report.trace)


def test_universal_factorization_rejects_non_cosheaf(circle_pt):
    f = _unique_map_to_pt(circle_pt, circle_pt)
    with pytest.raises(EngineError):
        universal_factorization_check(circle_pt, circle_pt, f, 0)


def test_factorization_through_initial_cosheaf(circle, circle_pt):
    _, spec = circle
    empty = constant_precosheaf(spec, finset(), 0, site_points(spec))
    # all-empty values form a cosheaf (every tensor is initial); unique map in
    assert check_cosheaf(empty).classification == "COSHEAF"
    comps = {u: LevelMorphism(
        empty.values[u], circle_pt.values[u],
        (finset_map(finset(), circle_pt.values[u].levels[0], {}),))
        for u in spec.category.objects}
    f = PrecosheafMorphism(empty, circle_pt, comps)
    report = universal_factorization_check(circle_pt, empty, f, 0)
    assert report.passed


# ---------------------------------------------------------------------------
# duality bridge


def test_duality_bridge_on_demo_precosheaves(circle_pi0, conv_pt):
    for a, depth in ((circle_pi0, 0), (conv_pt, 4)):
        cosheaf_verdict = check_cosheaf(a, depth).classification == "COSHEAF"
        for size in (1, 2, 3):
            g = finset(*[f"g{i}" for i in range(size)])
            presheaf = hom_into_presheaf(a, g)
            sheaf_verdict = check_sheaf(presheaf, depth).classification == "SHEAF"
            assert sheaf_verdict == cosheaf_verdict or size == 1, (size,)
        # aggregated over all test objects the verdicts agree
        agg = all(
            check_sheaf(hom_into_presheaf(a, finset(*[f"g{i}" for i in range(s)])),
                        depth).classification == "SHEAF"
            for s in (1, 2, 3))
        assert agg == cosheaf_verdict


def test_hom_tensor_limit_duality(circle_pi0):
    """Hom(A ⊗ R, G) is in bijection with the limit of Hom(A(-), G) over R."""
    spec = circle_pi0.site
    g = finset("g0", "g1")
    presheaf = hom_into_presheaf(circle_pi0, g)
    for u in [X, "{a,b}"]:
        for cover in distinct_covers(spec, u, 0):
            sieve = sieve_from_cover(spec, cover)
            tensor = tensor_with_sieve(circle_pi0, sieve)
            lhs = len(g) ** len(tensor.tower.levels[0])
            rhs = len(hom_with_sieve(presheaf, sieve).obj.elements)
            assert lhs == rhs, (u, cover.pieces)


# ---------------------------------------------------------------------------
# the plus construction on a chain site whose action shifts need reindexing


def _lagging_chain_site():
    """U ⊇ V ⊇ W1, W2.  The chain of U reaches the cover {W1, W2} at level 1,
    the chain of V only at level 2, so the plus action on V<U is shifted."""
    cat = poset_category(["U", "V", "W1", "W2"], [("W1", "V"), ("W2", "V"), ("V", "U")])

    def cover(target, *pieces):
        return Cover(target, tuple(f"{p}<{target}" for p in pieces), ())

    chains = {
        "U": CoverChain("U", (cover("U", "U"), cover("U", "W1", "W2")),
                        (((0, "W1<U"), (0, "W2<U")),)),
        "V": CoverChain("V", (cover("V", "V"), cover("V", "V"), cover("V", "W1", "W2")),
                        (((0, "V<V"),), ((0, "W1<V"), (0, "W2<V")))),
    }
    covers = {u: (cover(u, u),) for u in cat.objects}
    return SiteSpec(cat, Coverage(covers, chains), name="lagging", poset=True)


# sha256 of the saved plus precosheaf followed by its counit components,
# recorded before plus normalization shared the tower reindexing loop
LAGGING_PLUS_DIGESTS = {
    "pt": (finset("*"), "7c3992dd4455c3fa353d5d522309d2a49023b885d9728c574c8d8485a45b760e"),
    "Z/2": (cyclic(2), "d677011b4c0c9d5a067270bfa28363de57042a48408378bc43443f99a73a31fb"),
}


@pytest.mark.parametrize("name", sorted(LAGGING_PLUS_DIGESTS))
def test_plus_on_lagging_chain_reindexes_shifts(tmp_path, monkeypatch, name):
    g, digest = LAGGING_PLUS_DIGESTS[name]
    phis = []
    normalize = cosheaf._normalize_with_reindex

    def recording(*args):
        out = normalize(*args)
        phis.append(out[1])
        return out

    monkeypatch.setattr(cosheaf, "_normalize_with_reindex", recording)
    a = constant_precosheaf(_lagging_chain_site(), g, 3)
    plus = plus_cosheaf(a)
    assert phis == [(0, 2, 2, 3)]
    path = tmp_path / "plus.json"
    io.save(plus.precosheaf, path)
    counit = repr([(u, [c.table if isinstance(c, FinSetMap) else c.matrix
                        for c in lm.components])
                   for u, lm in sorted(plus.counit.components.items())])
    assert hashlib.sha256(path.read_bytes() + counit.encode()).hexdigest() == digest
    assert cosheafify(a).report.verdict == "PASS"


@pytest.mark.parametrize("g", [finset("*"), cyclic(2)], ids=["pt", "Z/2"])
def test_plus_on_strict_site_reindexes_by_the_identity(monkeypatch, g):
    """Plus normalization runs on every site; where no action is shifted, phi
    is the identity and the plus levels and counit components are the tensor
    objects themselves."""
    phis = []
    normalize = cosheaf._normalize_with_reindex

    def recording(*args):
        out = normalize(*args)
        phis.append(out[1])
        return out

    monkeypatch.setattr(cosheaf, "_normalize_with_reindex", recording)
    a = constant_precosheaf(converging_sequence_site(4), g, 3)
    plus = plus_cosheaf(a)
    assert phis == [(0, 1, 2, 3)]
    for u in a.site.category.objects:
        tensors = [tensor_with_sieve(a, s) for s in plus.sieves[u]]
        assert all(plus.precosheaf.values[u].levels[k] is tensors[k].tower.levels[k]
                   for k in range(4))
        assert all(plus.counit.components[u].components[k] is tensors[k].compare.components[k]
                   for k in range(4))


def test_plus_result_carries_phi():
    lagging = plus_cosheaf(constant_precosheaf(_lagging_chain_site(), finset("*"), 3))
    strict = plus_cosheaf(constant_precosheaf(converging_sequence_site(4), finset("*"), 3))
    assert lagging.phi == (0, 2, 2, 3)
    assert strict.phi == (0, 1, 2, 3)


def test_lagging_chain_fixture_is_the_constant_z2_precosheaf():
    """tests/data/lagging_chain_point.json, which CI cosheafifies through the
    console script, is the constant Z/2 precosheaf on the lagging chain site."""
    path = Path(__file__).parent / "data" / "lagging_chain_point.json"
    a = io.load(path, depth=3)
    assert a == constant_precosheaf(_lagging_chain_site(), cyclic(2), 3)
    assert plus_cosheaf(a).phi == (0, 2, 2, 3)


@pytest.mark.parametrize("g", [finset("*"), finset("x", "y"), cyclic(2)],
                         ids=["pt", "{x,y}", "Z/2"])
def test_plus_map_on_lagging_chain_reads_phi(g):
    """Plus level j of a map reads sieve and tensor level phi[j], as the plus
    values do, so maps and factorizations exist where the action lags."""
    a = constant_precosheaf(_lagging_chain_site(), g, 3)
    plus = plus_cosheaf(a)
    ident = plus_map(cosheaf.identity_morphism(a), plus, plus)
    for u, lm in ident.components.items():
        assert lm.src is plus.precosheaf.values[u]
        assert equal_at_depth(lm, LevelMorphism.identity(lm.src), 3)
    # plus levels 1 and 2 are both level 2: one component object serves both
    for lm in [*plus.precosheaf.action.values(), *ident.components.values()]:
        assert lm.components[1] is lm.components[2]
    result = cosheafify(a, 3)
    report = universal_factorization_check(a, result.precosheaf, result.counit, 3)
    assert report.classification == "unique factorization"
    assert report.passed


def test_reports_give_the_depth_they_compute_at():
    """A depth beyond the input's is cut to the input's depth, and the
    report says so."""
    a = constant_precosheaf(converging_sequence_site(3), finset("*"), 2)
    result = cosheafify(a, 9)
    assert result.report.depth == 2
    report = universal_factorization_check(a, result.precosheaf, result.counit, 9)
    assert report.passed and report.depth == 2
