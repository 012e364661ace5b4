"""The site side by output.

Open sets, covering antichains and compatible families are enumerated by
backtracking, and `check_axioms` walks composable pairs only.  Each test
here compares one of them with a brute-force scan written in the test, which
shares no code with the engine: all subsets of points or of opens, the full
product of the node values, all M² morphism pairs.  The memos kept on the
site and the one shared empty colimit and limit are pinned by identity.
"""

import itertools
import pickle
import random
from dataclasses import fields

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from finsite import category, cosheaf, intmat, sheaf, values  # noqa: E402
from finsite.category import (FiniteCategory, Morphism, SiteSpec,  # noqa: E402
                              poset_category, sieve_from_cover, sieve_levels)
from finsite.cosheaf import (_fast_defect, check_cosheaf, constant_precosheaf,  # noqa: E402
                             cosheafify, tensor_with_sieve)
from finsite.errors import InvalidCategory  # noqa: E402
from finsite.sheaf import Presheaf, hom_with_sieve, sheafify  # noqa: E402
from finsite.spaces import (FiniteSpace, _covering_families, open_site,  # noqa: E402
                            pseudocircle, site_points)
from finsite.values import (FINAB, FINSET, finite_limit, finset, finset_map,  # noqa: E402
                            free_ab, identity_map)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=300, database=None)


# ---------------------------------------------------------------------------
# FinSet finite_limit against the full product


@st.composite
def _finset_diagrams(draw):
    """Up to four nodes of up to three elements, empty values included, and
    up to five arrows between them, endomorphisms and cycles included."""
    names = ["a", "b", "c", "d"][:draw(st.integers(0, 4))]
    nodes = {v: finset(*(str(k) for k in range(draw(st.integers(0, 3))))) for v in names}
    arrows = []
    for k in range(draw(st.integers(0, 5)) if names else 0):
        s, t = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        src, dst = nodes[s], nodes[t]
        if src.elements and not dst.elements:
            continue   # no map into the empty set
        table = {x: draw(st.sampled_from(dst.elements)) for x in src.elements}
        arrows.append((f"e{k}", s, t, finset_map(src, dst, table)))
    return nodes, arrows


def _product_families(nodes, arrows):
    """Every assignment in the product of the node values on which each
    arrow holds, as value tuples in sorted node order."""
    names = sorted(nodes)
    return sorted(combo for combo in itertools.product(*(nodes[v].elements for v in names))
                  if all(e(combo[names.index(s)]) == combo[names.index(t)]
                         for _, s, t, e in arrows))


def _assert_limit_is_the_product_scan(nodes, arrows):
    names = sorted(nodes)
    want = _product_families(nodes, arrows)
    limit = finite_limit(values._diagram(nodes, arrows), FINSET)
    got = sorted(tuple(limit.cone[v](i) for v in names) for i in limit.obj.elements)
    assert got == want
    labels = sorted("(" + ",".join(f"{v}={x}" for v, x in zip(names, fam)) + ")"
                    for fam in want) if names else ["*"]
    assert list(limit.obj.elements) == labels


@SETTINGS
@given(_finset_diagrams())
def test_finset_limit_equals_the_product_scan(diagram):
    _assert_limit_is_the_product_scan(*diagram)


def test_a_non_identity_endomorphism_rejects_families():
    # no node is a source: a's only in-edge is its own endomorphism
    a = finset("0", "1", "2")
    squash = finset_map(a, a, {"0": "0", "1": "0", "2": "2"})
    _assert_limit_is_the_product_scan({"a": a}, [("e", "a", "a", squash)])
    limit = finite_limit(values._diagram({"a": a}, [("e", "a", "a", squash)]))
    assert limit.obj.elements == ("(a=0)", "(a=2)")
    swap = finset_map(a, a, {"0": "1", "1": "0", "2": "2"})
    assert finite_limit(values._diagram({"a": a}, [("e", "a", "a", swap)])).obj.elements \
        == ("(a=2)",)


def test_a_shape_with_no_source_node():
    # a <-> b, and b -> c: every node has an in-edge
    a, b, c = finset("0", "1"), finset("0", "1", "2"), finset("0")
    arrows = [("f", "a", "b", finset_map(a, b, {"0": "1", "1": "2"})),
              ("g", "b", "a", finset_map(b, a, {"0": "0", "1": "0", "2": "1"})),
              ("h", "b", "c", finset_map(b, c, {"0": "0", "1": "0", "2": "0"}))]
    _assert_limit_is_the_product_scan({"a": a, "b": b, "c": c}, arrows)


def test_empty_values_and_the_empty_diagram():
    empty, one = finset(), finset("0")
    _assert_limit_is_the_product_scan({"a": empty, "b": one},
                                      [("f", "a", "b", finset_map(empty, one, {}))])
    assert finite_limit(values._diagram({}), FINSET).obj.elements == ("*",)


# ---------------------------------------------------------------------------
# opens and covers against subset scans


def _random_space(seed):
    """A random poset on up to 7 points, named out of order."""
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    density = rng.choice((0.25, 0.45, 0.65))
    points = [f"p{i}" for i in range(n)]
    rng.shuffle(points)   # the order runs along the list, not along the names
    pairs = {(points[i], points[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < density}
    return FiniteSpace(tuple(points), frozenset(pairs))


def _subset_opens(space):
    pts = sorted(space.points)
    found = [frozenset(s) for r in range(len(pts) + 1) for s in itertools.combinations(pts, r)
             if all(space.leq(q, p) <= (q in s) for p in s for q in pts)]
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def _subset_covers(opens, u):
    """Every subset of the nonempty opens inside u that is an antichain with
    union u, scanned as bitmasks."""
    inside = [v for v in opens if v and v <= u]
    out = []
    for mask in range(1, 1 << len(inside)):
        fam = [v for i, v in enumerate(inside) if mask >> i & 1]
        if frozenset().union(*fam) == u and not any(
                a < b for a in fam for b in fam):
            out.append(tuple(sorted(fam, key=sorted)))
    return sorted(out, key=lambda fam: (len(fam), [sorted(v) for v in fam]))


def _generated_covers(space, u):
    """The trivial cover, then the down-sets of the maximal points of u when
    they are not u itself."""
    tops = [x for x in u if not any(y != x and space.leq(x, y) for y in u)]
    core = tuple(sorted({space.down_set(x) for x in tops}, key=sorted))
    return [(u,)] if core == (u,) else [(u,), core]


SCAN_LIMIT = 13   # nonempty opens inside u: a scan of 2^13 subsets


def test_opens_and_covers_equal_the_subset_scans():
    scanned = 0
    for seed in range(60):
        space = _random_space(seed)
        opens = space.opens()
        assert opens == _subset_opens(space)
        for u in opens[1:]:
            assert _covering_families(space, opens, u, "generated") == _generated_covers(space, u)
            if sum(1 for v in opens if v and v <= u) <= SCAN_LIMIT:
                assert _covering_families(space, opens, u, "all-irredundant") \
                    == _subset_covers(opens, u)
                scanned += 1
    assert scanned > 200


def test_open_site_is_unchanged_on_the_fence_of_six():
    names = tuple("abcdef")
    fence = FiniteSpace(names, frozenset({("a", "b"), ("c", "b"), ("c", "d"),
                                          ("e", "d"), ("e", "f")}))
    site = open_site(fence, "all-irredundant")
    assert len(site.category.objects) == 21
    assert len(site.category.morphisms) == 157
    assert sum(len(site.declared_covers(u)) for u in site.category.objects) == 190
    assert category.validate_site(site).passed


# ---------------------------------------------------------------------------
# check_axioms against the M² scan


def _pair_scan(cat):
    """The axiom check over every ordered pair of morphisms."""
    bad = []
    for f in cat.morphisms:
        for g in cat.morphisms:
            if f.dst != g.src:
                if (g.id, f.id) in cat.composition:
                    bad.append(f"composition defined on non-composable ({g.id},{f.id})")
                continue
            try:
                gf = cat.compose(g.id, f.id)
            except InvalidCategory:
                bad.append(f"composition missing on ({g.id},{f.id})")
                continue
            m = cat.morphism(gf) if cat.has_morphism(gf) else None
            if m is None or m.src != f.src or m.dst != g.dst:
                bad.append(f"composite of ({g.id},{f.id}) has wrong endpoints")
    if bad:
        return bad
    for f in cat.morphisms:
        for g in cat.morphisms:
            for h in cat.morphisms:
                if f.dst == g.src and g.dst == h.src:
                    if cat.compose(h.id, cat.compose(g.id, f.id)) \
                            != cat.compose(cat.compose(h.id, g.id), f.id):
                        bad.append(f"associativity fails on ({h.id},{g.id},{f.id})")
    return bad


def _random_poset_category(rng):
    """A random poset category with a chain of three points, so that some
    composite has no identity factor."""
    n = rng.randint(3, 6)
    points = [f"q{i}" for i in range(n)]
    rng.shuffle(points)
    pairs = {(points[0], points[1]), (points[1], points[2])}
    pairs |= {(points[i], points[j]) for i in range(n) for j in range(i + 1, n)
              if rng.random() < 0.4}
    return poset_category(points, pairs)


def _corrupt(cat, rng, kinds):
    comp = dict(cat.composition)
    ids = set(cat.identity.values())
    proper = [k for k in comp if not ids & set(k)]
    for kind in kinds:
        left = sorted(k for k in proper if k in comp)
        if kind == "non-composable":
            g, f = rng.choice(sorted((g.id, f.id) for g in cat.morphisms for f in cat.morphisms
                                     if f.dst != g.src))
            comp[(g, f)] = rng.choice(cat.morphisms).id
        elif left and kind == "missing":
            del comp[rng.choice(left)]
        elif left:
            key = rng.choice(left)
            right = cat.morphism(comp[key])
            comp[key] = rng.choice([m.id for m in cat.morphisms
                                    if (m.src, m.dst) != (right.src, right.dst)])
    return FiniteCategory(cat.objects, cat.morphisms, cat.identity, comp)


def test_check_axioms_equals_the_pair_scan_on_corrupted_poset_tables():
    rng = random.Random(24)
    seen = set()
    for _ in range(120):
        cat = _random_poset_category(rng)
        assert cat.check_axioms() == _pair_scan(cat) == []
        kinds = [rng.choice(("missing", "non-composable", "wrong endpoints"))
                 for _ in range(rng.randint(1, 4))]
        broken = _corrupt(cat, rng, kinds)
        got = broken.check_axioms()
        assert got == _pair_scan(broken)
        seen |= {line.split(" ")[0] + " " + line.split(" ")[1] for line in got}
    assert seen == {"composition missing", "composition defined", "composite of"}


def test_check_axioms_equals_the_pair_scan_on_random_monoid_tables():
    # one object, endpoints always right: associativity decides
    rng = random.Random(7)
    outcomes = set()
    for _ in range(60):
        ms = ["e", "a", "b", "c"][:rng.randint(2, 4)]
        morphisms = tuple(Morphism(m, "o", "o") for m in ms)
        comp = {(g, f): rng.choice(ms) for g in ms[1:] for f in ms[1:]}
        cat = FiniteCategory(("o",), morphisms, {"o": "e"}, comp)
        got = cat.check_axioms()
        assert got == _pair_scan(cat)
        outcomes.add(bool(got))
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# memos on the site


def _pseudocircle_site():
    return open_site(pseudocircle())


def _constant_presheaf(spec):
    g = finset("0", "1")
    return Presheaf(spec, FINSET, {u: g for u in spec.category.objects},
                    {m.id: identity_map(g) for m in spec.category.morphisms}, site_points(spec))


def test_sieve_levels_reads_the_common_refinement_once(monkeypatch):
    spec = _pseudocircle_site()
    u = "{a,b,c,d}"
    first = sieve_levels(spec, u, 3)
    assert spec._common_sieves[u] is first[0]

    def refuse(*args):
        raise AssertionError("common_refinement recomputed")
    monkeypatch.setattr(category, "common_refinement", refuse)
    again = sieve_levels(spec, u, 5)
    assert all(s is first[0] for s in again) and len(again) == 6


def test_hom_with_sieve_builds_the_opposite_comma_once(monkeypatch):
    spec = _pseudocircle_site()
    a = _constant_presheaf(spec)
    sieve = sieve_from_cover(spec, spec.declared_covers("{a,b,c,d}")[-1])
    first = hom_with_sieve(a, sieve)
    shape = spec._opposite_commas[(sieve.target, sieve.members)]

    def refuse(*args):
        raise AssertionError("opposite rebuilt")
    monkeypatch.setattr(sheaf, "opposite_category", refuse)
    again = hom_with_sieve(a, sieve)
    assert spec._opposite_commas[(sieve.target, sieve.members)] is shape
    assert again.obj == first.obj and again.restriction == first.restriction


def test_a_pickled_site_starts_with_every_memo_empty():
    spec = _pseudocircle_site()
    sheafify(_constant_presheaf(spec))
    cosheafify(constant_precosheaf(spec, free_ab(1), 0, site_points(spec)), 0)
    memos = [f.name for f in fields(SiteSpec) if not f.init]
    assert {"_opposite_commas", "_common_sieves"} <= set(memos)
    assert all(getattr(spec, name) for name in memos)
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec
    assert all(getattr(copy, name) == {} for name in memos)
    assert all(getattr(spec, name) for name in memos)   # the original keeps them


def test_cosheafify_and_sheafify_build_no_comma_arrow_index():
    # tensors and Hom-with-sieve read a comma only through its objects,
    # morphisms and recorded base ids, so `into`/`out_of` are never built
    spec = _pseudocircle_site()
    sheafify(_constant_presheaf(spec))
    cosheafify(constant_precosheaf(spec, free_ab(1), 0, site_points(spec)), 0)
    shapes = [comma for comma, _ in spec._commas.values()] + list(spec._opposite_commas.values())
    assert spec._commas and spec._opposite_commas
    assert all(shape._arrows.into is None for shape in shapes)
    assert spec.category._arrows.into is not None


# ---------------------------------------------------------------------------
# one empty colimit and one empty limit per value category


def _empty_cover(spec):
    return next(c for u in spec.category.objects for c in spec.declared_covers(u)
                if not c.pieces)


@pytest.mark.parametrize("cat", [FINSET, FINAB])
def test_empty_sieves_share_the_initial_colimit(monkeypatch, cat):
    spec = _pseudocircle_site()
    values.initial_colimit.cache_clear()
    empty_colimits, zero_generators = [], []
    colimit, reduce = values.finite_colimit, intmat.reduce_presentation
    real_comma = cosheaf.comma_of_sieve

    def counting_colimit(diagram, category=None):
        if not diagram.nodes:
            empty_colimits.append(category)
        return colimit(diagram, category)

    def counting_reduce(total, columns):
        if total == 0:
            zero_generators.append(columns)
        return reduce(total, columns)

    def comma(site, sieve):
        assert sieve.members, "comma category of the empty sieve"
        return real_comma(site, sieve)
    monkeypatch.setattr(values, "finite_colimit", counting_colimit)
    monkeypatch.setattr(intmat, "reduce_presentation", counting_reduce)
    monkeypatch.setattr(cosheaf, "comma_of_sieve", comma)
    # every value has generators, so a presentation on none comes only
    # from an empty diagram: the one of the shared initial colimit
    a = constant_precosheaf(spec, finset("*") if cat == FINSET else free_ab(1), 2,
                            site_points(spec))
    check_cosheaf(a, 2)
    assert empty_colimits == [cat]
    assert len(zero_generators) == (cat == FINAB)
    assert cosheafify(a, 2).report.passed
    cover = _empty_cover(spec)
    for col in (tensor_with_sieve(a, sieve_from_cover(spec, cover)).colimit,
                _fast_defect(a, cover).colimit):
        assert all(level is values.initial_colimit(cat) for level in col.levels)
    assert empty_colimits == [cat]


def test_empty_sieves_share_the_terminal_limit(monkeypatch):
    spec = _pseudocircle_site()
    values.terminal_limit.cache_clear()
    empty_limits = []
    limit = values.finite_limit

    def counting_limit(diagram, category=None):
        if not diagram.nodes:
            empty_limits.append(category)
        return limit(diagram, category)
    monkeypatch.setattr(values, "finite_limit", counting_limit)
    a = _constant_presheaf(spec)
    assert sheafify(a).report.passed
    empty = sieve_from_cover(spec, _empty_cover(spec))
    assert hom_with_sieve(a, empty).limit is values.terminal_limit(FINSET)
    assert empty_limits == [FINSET]
    assert not any(not key[1] for key in spec._commas)   # no comma of the empty sieve


def test_the_unique_maps_read_the_shared_objects():
    z = free_ab(1)
    assert values.unique_map_from_initial(FINAB, z).src is values.initial_colimit(FINAB).obj
    assert values.unique_map_to_terminal(FINSET, finset("x")).dst \
        is values.terminal_limit(FINSET).obj
