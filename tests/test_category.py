"""Sites, sieves, covers, comma categories, refinements."""

import random

import pytest

from finsite.category import (Cover, FiniteCategory, Morphism, Sieve,
                              SiteSpec, Coverage, comma_of_sieve,
                              common_refinement, find_refinement,
                              poset_category, pullback_sieve, sieve_from_cover,
                              sieve_levels, validate_site)
from finsite.errors import InvalidCategory
from finsite.randsuite import random_site
from finsite.spaces import (converging_sequence_site, open_site, pseudocircle,
                            FiniteSpace)


def terminal_site():
    cat = poset_category(["*"], [])
    cover = Cover("*", (cat.id_of("*"),), ())
    return SiteSpec(cat, Coverage({"*": (cover,)}), name="terminal", poset=True)


def vee_site():
    """U with two pieces V1, V2 and their meet W."""
    cat = poset_category(["U", "V1", "V2", "W"],
                         [("V1", "U"), ("V2", "U"), ("W", "V1"), ("W", "V2")])
    cover = Cover("U", ("V1<U", "V2<U"), (((0, 1), "W"),))
    trivial = {u: Cover(u, (cat.id_of(u),), ()) for u in cat.objects}
    covers = {u: (trivial[u],) for u in cat.objects}
    covers["U"] = (trivial["U"], cover)
    # pullback closure: the cover pulled to V1 is {V1}, to V2 is {V2}, to W is {W}
    return SiteSpec(cat, Coverage(covers), name="vee", poset=True)


def test_terminal_site_validates():
    assert validate_site(terminal_site()).passed


def test_pseudocircle_site_validates():
    assert validate_site(open_site(pseudocircle())).passed


def test_converging_site_validates():
    assert validate_site(converging_sequence_site(6)).passed


def test_broken_composition_reported():
    morphs = (Morphism("id:a", "a", "a"), Morphism("id:b", "b", "b"),
              Morphism("f", "a", "b"))
    identity = {"a": "id:a", "b": "id:b"}
    comp = {}  # missing nothing structural; compose handles identities
    cat = FiniteCategory(("a", "b"), morphs, identity, comp)
    assert cat.check_axioms() == []
    # now break associativity data by adding a bogus entry
    comp2 = {("f", "f"): "f"}
    cat2 = FiniteCategory(("a", "b"), morphs, identity, comp2)
    assert any("non-composable" in line for line in cat2.check_axioms())


def test_missing_stability_cover_fails_validation():
    # only cover of U is {V}, but V has no cover whose sieve fits every pullback
    cat = poset_category(["U", "V"], [("V", "U")])
    cover = Cover("U", ("V<U",), ())
    covers = {"U": (cover,)}  # V has no covers at all
    spec = SiteSpec(cat, Coverage(covers), name="bad", poset=True)
    report = validate_site(spec)
    assert not report.passed


def test_sieve_from_trivial_cover_is_maximal():
    spec = open_site(pseudocircle())
    u = "{a,b,c,d}"
    trivial = spec.declared_covers(u)[0]
    sieve = sieve_from_cover(spec, trivial)
    assert sieve.members == {m.id for m in spec.category.into(u)}


def test_sieve_from_two_piece_cover():
    spec = vee_site()
    cover = spec.declared_covers("U")[1]
    sieve = sieve_from_cover(spec, cover)
    assert sieve.members == {"V1<U", "V2<U", "W<U"}


def test_empty_cover_gives_empty_sieve():
    spec = open_site(pseudocircle())
    empty = [c for c in spec.declared_covers("{}") if not c.pieces][0]
    assert sieve_from_cover(spec, empty).members == frozenset()


def test_comma_of_maximal_sieve_is_down_set():
    spec = open_site(pseudocircle())
    u = "{a,b}"
    sieve = sieve_from_cover(spec, spec.declared_covers(u)[0])
    comma = comma_of_sieve(spec, sieve)
    assert comma.check_axioms() == []
    # objects = opens below {a,b}: {}, {a}, {b}, {a,b}
    assert len(comma.objects) == 4


def test_comma_of_span_sieve():
    spec = vee_site()
    sieve = sieve_from_cover(spec, spec.declared_covers("U")[1])
    comma = comma_of_sieve(spec, sieve)
    assert comma.check_axioms() == []
    assert set(comma.objects) == {"V1<U", "V2<U", "W<U"}
    # W maps into both pieces
    outs = {m.dst for m in comma.out_of("W<U")}
    assert outs == {"V1<U", "V2<U", "W<U"}


def test_comma_of_empty_sieve_is_empty():
    spec = open_site(pseudocircle())
    comma = comma_of_sieve(spec, Sieve("{}", frozenset()))
    assert comma.objects == ()


def test_any_cover_refines_trivial():
    spec = vee_site()
    trivial, cover = spec.declared_covers("U")
    assert find_refinement(spec, cover, trivial) is not None
    assert find_refinement(spec, trivial, cover) is None


def test_disjoint_covers_have_no_refinement():
    cat = poset_category(["U", "A", "B", "C", "D"],
                         [("A", "U"), ("B", "U"), ("C", "U"), ("D", "U")])
    c1 = Cover("U", ("A<U", "B<U"), ())
    c2 = Cover("U", ("C<U", "D<U"), ())
    spec = SiteSpec(cat, Coverage({"U": (c1, c2)}), poset=True)
    assert find_refinement(spec, c1, c2) is None


def test_converging_chain_refinements_recorded():
    spec = converging_sequence_site(6)
    chain = spec.chain_of("X")
    for k in range(len(chain.covers) - 1):
        fine, coarse = chain.covers[k + 1], chain.covers[k]
        rec = chain.refinements[k]
        found = find_refinement(spec, fine, coarse)
        assert found is not None
        for i, (j, factor) in enumerate(rec):
            if factor is None:
                assert fine.pieces[i] == coarse.pieces[j]
            else:
                assert spec.category.compose(coarse.pieces[j], factor) == fine.pieces[i]


def test_refinement_composes():
    spec = converging_sequence_site(6)
    chain = spec.chain_of("X")
    a, b, c = chain.covers[2], chain.covers[1], chain.covers[0]
    ab = find_refinement(spec, a, b)
    bc = find_refinement(spec, b, c)
    ac = find_refinement(spec, a, c)
    assert ab and bc and ac
    for i, (j, f1) in enumerate(ab):
        k, f2 = bc[j]
        # composite factor lands where the direct assignment can
        composed = spec.category.compose(f2, f1)
        assert spec.category.compose(c.pieces[k], composed) == a.pieces[i]


def test_sieve_monotone_under_refinement():
    spec = converging_sequence_site(6)
    chain = spec.chain_of("X")
    s_fine = sieve_from_cover(spec, chain.covers[2])
    s_coarse = sieve_from_cover(spec, chain.covers[1])
    assert s_fine.members <= s_coarse.members


def test_pullback_sieve_members():
    spec = vee_site()
    sieve = sieve_from_cover(spec, spec.declared_covers("U")[1])
    pulled = pullback_sieve(spec, sieve, "V1<U")
    assert pulled.members == {"V1<V1", "W<V1"}


def test_common_refinement_greedy():
    spec = open_site(pseudocircle())
    u = "{a,b,c,d}"
    best = common_refinement(spec, u)
    for cover in spec.declared_covers(u):
        assert find_refinement(spec, best, cover) is not None


def test_sieve_levels_constant_on_finite_objects():
    spec = open_site(pseudocircle())
    levels = sieve_levels(spec, "{a,b}", 4)
    assert len(levels) == 5
    assert all(s.members == levels[0].members for s in levels)


def test_poset_flag_consistency_checked():
    morphs = (Morphism("id:a", "a", "a"), Morphism("f", "a", "a"))
    identity = {"a": "id:a"}
    comp = {("f", "f"): "f"}
    cat = FiniteCategory(("a",), morphs, identity, comp)
    spec = SiteSpec(cat, Coverage({"a": (Cover("a", ("id:a",), ()),)}), poset=True)
    report = validate_site(spec)
    assert not report.passed


def test_every_generated_sieve_comma_is_a_valid_category():
    spec = open_site(pseudocircle())
    for u in spec.category.objects:
        for cover in spec.declared_covers(u):
            comma = comma_of_sieve(spec, sieve_from_cover(spec, cover))
            assert comma.check_axioms() == [], (u, cover.pieces)


def _scanned_pullback(spec, sieve, alpha):
    """The reference: every site morphism scanned for the ones into src(alpha)."""
    cat = spec.category
    a = cat.morphism(alpha)
    return frozenset(g.id for g in cat.morphisms
                     if g.dst == a.src and cat.compose(alpha, g.id) in sieve.members)


def test_pullback_sieve_equals_the_scan_of_all_morphisms():
    rng = random.Random(3)
    sites = [random_site(rng) for _ in range(8)] + [converging_sequence_site(6)]
    checked = 0
    for spec in sites:
        cat = spec.category
        for u in cat.objects:
            for sieve in sieve_levels(spec, u, 2):
                for a in cat.into(u):
                    pulled = pullback_sieve(spec, sieve, a.id)
                    assert pulled.target == a.src
                    assert pulled.members == _scanned_pullback(spec, sieve, a.id)
                    checked += 1
    assert checked > 100
