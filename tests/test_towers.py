"""Tower (pro-object) machinery and depth-qualified verdicts."""

import itertools
import random

import pytest

from finsite.category import poset_category
from finsite.errors import EngineError
from finsite.towers import (LevelMorphism, Tower, equal_at_depth,
                            is_epi_at_depth, is_iso_at_depth,
                            is_rudimentary_at_depth, pro_hom_at_depth,
                            tower_colimit, tower_pro_zero)
from finsite.values import (FINAB, FINSET, FinAbMap, classify_map, cokernel, compose, cyclic,
                            direct_sum, express_through, finab_map, finset, finset_map,
                            free_ab, hom_set, identity_map, is_zero_map, kernel, maps_equal)


def merge_tower(depth):
    """Levels {1..k+1}, bonds merge the top two elements."""
    levels = [finset(*[str(i) for i in range(1, k + 2)]) for k in range(depth + 1)]
    bonds = []
    for k in range(depth):
        table = {}
        for i in range(1, k + 3):
            table[str(i)] = str(min(i, k + 1))
        bonds.append(finset_map(levels[k + 1], levels[k], table))
    return Tower(tuple(levels), tuple(bonds))


def two_point_rudimentary(depth):
    return Tower.constant(finset("0", "1"), depth)


def test_rudimentary_tower_constant():
    t = Tower.constant(finset("a"), 3)
    assert t.is_constant()
    assert t.depth == 3


def test_pro_hom_rudimentary_pair_counts_all_functions():
    t = Tower.constant(finset("a", "b"), 2)
    homs = pro_hom_at_depth(t, t, 2)
    assert len(homs) == 4


def test_pro_hom_merge_tower_into_two_points():
    x = merge_tower(3)
    y = two_point_rudimentary(3)
    homs = pro_hom_at_depth(x, y, 3)
    assert len(homs) == 2 ** 4


def test_pro_hom_into_singleton():
    x = merge_tower(3)
    y = Tower.constant(finset("*"), 3)
    assert len(pro_hom_at_depth(x, y, 3)) == 1


def brute_force_pro_hom_classes(x, y, depth):
    """Oracle: enumerate (shift, components) families with commuting squares,
    then quotient by bond-equalization."""
    shifts = [s for s in itertools.product(range(depth + 1), repeat=depth + 1)
              if all(s[j] <= s[j + 1] for j in range(depth))]
    raw = []
    for shift in shifts:
        pools = [hom_set(x.levels[shift[j]], y.levels[j]) for j in range(depth + 1)]
        for combo in itertools.product(*pools):
            ok = True
            for j in range(depth):
                from finsite.values import compose, maps_equal
                left = compose(combo[j], x.bond_composite(shift[j + 1], shift[j]))
                right = compose(y.bonds[j], combo[j + 1])
                if not maps_equal(left, right):
                    ok = False
                    break
            if ok:
                raw.append((shift, combo))
    # canonical form: push every component to the deepest level
    from finsite.values import compose
    seen = set()
    for shift, combo in raw:
        key = tuple(
            tuple(sorted(compose(combo[j], x.bond_composite(depth, shift[j])).table))
            for j in range(depth + 1)
        )
        seen.add(key)
    return len(seen)


def test_pro_hom_matches_brute_force_oracle():
    rng = random.Random(5)
    for _ in range(6):
        d = rng.randint(1, 2)
        lv = [finset(*[f"x{i}" for i in range(rng.randint(1, 3))]) for _ in range(d + 1)]
        bonds = [finset_map(lv[k + 1], lv[k],
                            {x: rng.choice(lv[k].elements) for x in lv[k + 1].elements})
                 for k in range(d)]
        x = Tower(tuple(lv), tuple(bonds))
        lw = [finset(*[f"y{i}" for i in range(rng.randint(1, 2))]) for _ in range(d + 1)]
        bw = [finset_map(lw[k + 1], lw[k],
                         {y: rng.choice(lw[k].elements) for y in lw[k + 1].elements})
              for k in range(d)]
        y = Tower(tuple(lw), tuple(bw))
        assert len(pro_hom_at_depth(x, y, d)) == brute_force_pro_hom_classes(x, y, d)


def test_equal_at_depth_structural_and_shallow():
    x = merge_tower(3)
    y = two_point_rudimentary(3)
    homs = pro_hom_at_depth(x, y, 3)
    f = homs[0]
    assert equal_at_depth(f, f, 3)
    distinct = [g for g in homs if not equal_at_depth(f, g, 3)]
    assert distinct


def test_equal_at_depth_distinct_constants():
    x = merge_tower(2)
    y = two_point_rudimentary(2)
    const0 = LevelMorphism.strict(
        x, y, tuple(finset_map(x.levels[j], y.levels[0], {e: "0" for e in x.levels[j].elements})
                    for j in range(3)))
    const1 = LevelMorphism.strict(
        x, y, tuple(finset_map(x.levels[j], y.levels[0], {e: "1" for e in x.levels[j].elements})
                    for j in range(3)))
    assert not equal_at_depth(const0, const1, 2)


def test_iso_identity():
    t = merge_tower(3)
    assert is_iso_at_depth(LevelMorphism.identity(t), 3).iso


def test_iso_rudimentary_matches_classify():
    a = finset("x", "y")
    b = finset("p", "q")
    for table in hom_set(a, b):
        lm = LevelMorphism.strict(Tower.constant(a, 0), Tower.constant(b, 0), (table,))
        assert is_iso_at_depth(lm, 0).iso == classify_map(table).iso


def test_growing_tower_not_iso_to_singleton():
    x = merge_tower(4)
    y = Tower.constant(finset("*"), 4)
    f = LevelMorphism.strict(
        x, y, tuple(finset_map(x.levels[j], y.levels[0], {e: "*" for e in x.levels[j].elements})
                    for j in range(5)))
    verdict = is_iso_at_depth(f, 4)
    assert not verdict.iso
    assert verdict.obstruction == 1  # level 0 is a singleton, level 1 is not


def test_collapsing_tower_is_iso_to_singleton():
    # sizes constant 2, but deep images crush to one point
    levels = [finset("s", "t") for _ in range(5)]
    bonds = [finset_map(levels[k + 1], levels[k], {"s": "s", "t": "s"}) for k in range(4)]
    x = Tower(tuple(levels), tuple(bonds))
    y = Tower.constant(finset("*"), 4)
    f = LevelMorphism.strict(
        x, y, tuple(finset_map(x.levels[j], y.levels[0], {"s": "*", "t": "*"})
                    for j in range(5)))
    assert is_iso_at_depth(f, 4).iso


def test_epi_levelwise_surjection():
    # levels {1..k+2} with merging bonds: the indicator of 1 is a tower map
    levels = [finset(*[str(i) for i in range(1, k + 3)]) for k in range(4)]
    bonds = [finset_map(levels[k + 1], levels[k],
                        {str(i): str(min(i, k + 2)) for i in range(1, k + 4)})
             for k in range(3)]
    x = Tower(tuple(levels), tuple(bonds))
    y = Tower.constant(finset("u", "v"), 3)
    f = LevelMorphism.strict(
        x, y, tuple(finset_map(x.levels[j], y.levels[0],
                               {e: ("u" if e == "1" else "v") for e in x.levels[j].elements})
                    for j in range(4)))
    assert is_epi_at_depth(f, 3).epi


def test_epi_fails_for_inclusion():
    a = Tower.constant(finset("x"), 0)
    b = Tower.constant(finset("x", "y"), 0)
    f = LevelMorphism.strict(a, b, (finset_map(a.levels[0], b.levels[0], {"x": "x"}),))
    verdict = is_epi_at_depth(f, 0)
    assert not verdict.epi


def test_epi_times_two_fails_via_z2():
    z = Tower.constant(free_ab(1), 0)
    f = LevelMorphism.strict(z, z, (finab_map(free_ab(1), free_ab(1), ((2,),)),))
    verdict = is_epi_at_depth(f, 0)
    assert not verdict.epi
    assert "Z/2" in verdict.failing


def test_rudimentary_constant():
    assert is_rudimentary_at_depth(Tower.constant(finset("a", "b"), 4), 4).rudimentary


def test_rudimentary_fails_on_merge_tower():
    verdict = is_rudimentary_at_depth(merge_tower(5), 5)
    assert not verdict.rudimentary
    assert verdict.profile == (1, 2, 3, 4, 5, 6)


def test_rudimentary_eventually_constant():
    pre = finset("a", "b", "c")
    tail = finset("a", "b")
    levels = [pre] + [tail] * 5
    bonds = [finset_map(tail, pre, {"a": "a", "b": "b"})] + [identity_map(tail)] * 4
    t = Tower(tuple(levels), tuple(bonds))
    assert is_rudimentary_at_depth(t, 5).rudimentary


def test_rudimentary_finab_growing_torsion_fails():
    # Z/2 <- Z/4 <- Z/8 <- Z/16 under the projections: invariants keep growing
    levels = [cyclic(2 ** (k + 1)) for k in range(4)]
    bonds = [finab_map(levels[k + 1], levels[k], ((1,),)) for k in range(3)]
    verdict = is_rudimentary_at_depth(Tower(tuple(levels), tuple(bonds)), 3)
    assert not verdict.rudimentary


def test_rudimentary_finab_image_stabilization_is_the_criterion():
    # The doubling tower Z <-x2- Z <-x2- ... has stabilized Mittag-Leffler
    # images (each restriction is an isomorphism of subgroups), so the
    # image-window criterion reports RUDIMENTARY; exactness is only promised
    # for eventually-constant towers.
    z = free_ab(1)
    doubling = Tower((z, z, z, z), tuple(finab_map(z, z, ((2,),)) for _ in range(3)))
    assert is_rudimentary_at_depth(doubling, 3).rudimentary


def test_tower_colimit_single_node():
    shape = poset_category(["u"], [])
    t = merge_tower(2)
    res = tower_colimit(shape, {"u": t}, {"u<u": LevelMorphism.identity(t)}, 2)
    assert [len(l.elements) for l in res.tower.levels] == [1, 2, 3]


def test_tower_colimit_coproduct_of_rudimentary():
    from finsite.category import FiniteCategory, Morphism
    shape = FiniteCategory(
        ("a", "b"),
        (Morphism("id:a", "a", "a"), Morphism("id:b", "b", "b")),
        {"a": "id:a", "b": "id:b"}, {})
    ta = Tower.constant(finset("x"), 1)
    tb = Tower.constant(finset("y", "z"), 1)
    res = tower_colimit(shape, {"a": ta, "b": tb},
                        {"id:a": LevelMorphism.identity(ta),
                         "id:b": LevelMorphism.identity(tb)}, 1)
    assert [len(l.elements) for l in res.tower.levels] == [3, 3]


def test_tower_colimit_levelwise_oracle():
    """Coequalizer of two parallel morphisms of towers equals the levelwise
    finite colimit of the truncated diagrams."""
    from finsite.category import FiniteCategory, Morphism
    from finsite.values import FiniteDiagram, finite_colimit
    morphs = (Morphism("id:s", "s", "s"), Morphism("id:t", "t", "t"),
              Morphism("f", "s", "t"), Morphism("g", "s", "t"))
    comp = {("id:s", "id:s"): "id:s", ("id:t", "id:t"): "id:t",
            ("id:t", "f"): "f", ("f", "id:s"): "f",
            ("id:t", "g"): "g", ("g", "id:s"): "g"}
    shape = FiniteCategory(("s", "t"), morphs, {"s": "id:s", "t": "id:t"}, comp)
    x = merge_tower(2)
    y = merge_tower(2)
    f = LevelMorphism.identity(x)
    # g collapses everything to the least element at each level
    g = LevelMorphism.strict(
        x, y, tuple(finset_map(x.levels[j], y.levels[j],
                               {e: "1" for e in x.levels[j].elements})
                    for j in range(3)))
    res = tower_colimit(shape, {"s": x, "t": y}, {
        "id:s": LevelMorphism.identity(x), "id:t": LevelMorphism.identity(y),
        "f": f, "g": g}, 2)
    for j in range(3):
        diag = FiniteDiagram(
            shape, {"s": x.levels[j], "t": y.levels[j]},
            {"id:s": identity_map(x.levels[j]), "id:t": identity_map(y.levels[j]),
             "f": f.components[j], "g": g.components[j]})
        oracle = finite_colimit(diag)
        assert len(res.tower.levels[j]) == len(oracle.obj)


def test_level_morphism_square_validation():
    x = merge_tower(1)
    y = two_point_rudimentary(1)
    bad = [
        finset_map(x.levels[0], y.levels[0], {"1": "0"}),
        finset_map(x.levels[1], y.levels[1], {"1": "1", "2": "1"}),
    ]
    with pytest.raises(EngineError):
        LevelMorphism.strict(x, y, tuple(bad))


def test_pro_hom_cardinality_monotone_on_builtin_family():
    x4, y4 = merge_tower(4), two_point_rudimentary(4)
    counts = [len(pro_hom_at_depth(Tower(x4.levels[: d + 1], x4.bonds[:d]),
                                   Tower(y4.levels[: d + 1], y4.bonds[:d]), d))
              for d in range(4)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_epi_agrees_with_classify_on_rudimentary():
    a = finset("x", "y")
    b = finset("p", "q")
    for table in hom_set(a, b):
        lm = LevelMorphism.strict(Tower.constant(a, 2), Tower.constant(b, 2), (table,) * 3)
        assert is_epi_at_depth(lm, 2).epi == classify_map(table).epi


def test_finab_epi_and_iso_agree_with_classify_on_rudimentary():
    z, z2 = free_ab(1), cyclic(2)
    cases = [
        finab_map(z, z, ((1,),)),
        finab_map(z, z, ((2,),)),
        finab_map(z, z2, ((1,),)),
        finab_map(z2, z2, ((0,),)),
        finab_map(free_ab(2), z, ((1, 0),)),
        finab_map(z, free_ab(2), ((1,), (0,))),
        finab_map(z, free_ab(2), ((6,), (0,))),
        finab_map(z, z, ((12,),)),
        finab_map(z2, direct_sum([z2, z]), ((1,), (0,))),
    ]
    for f in cases:
        lm = LevelMorphism.strict(Tower.constant(f.src, 2), Tower.constant(f.dst, 2),
                                  (f,) * 3)
        flags = classify_map(f)
        verdict = is_epi_at_depth(lm, 2)
        assert verdict.epi == flags.epi, f
        assert is_iso_at_depth(lm, 2).iso == flags.iso, f
        # Z detects free rank in the cokernel, Z/p a prime p dividing its torsion
        torsion, free = cokernel(f)[0].invariants()
        primes = [p for p in range(2, max(torsion, default=1) + 1)
                  if all(p % q for q in range(2, p)) and any(t % p == 0 for t in torsion)]
        assert verdict.failing == ("Z",) * (free > 0) + tuple(f"Z/{p}" for p in primes), f


def test_tower_colimit_insufficient_depth():
    """Tower colimits take strict edges only, whether a shift would exceed
    the working depth or stay within it: the plus construction strictifies
    its shifted actions before anything is colimited."""
    shape = poset_category(["u"], [])
    for depth, shift in ((3, (3, 3, 3, 3)), (2, (0, 1, 1))):
        t = Tower.constant(finset("a"), depth)
        shifted = LevelMorphism(t, t, shift, (identity_map(t.levels[0]),) * (depth + 1))
        with pytest.raises(EngineError, match="not strict"):
            tower_colimit(shape, {"u": t}, {"u<u": shifted}, 2)


# ---------------------------------------------------------------------------
# level sharing in tower_colimit: a wedge of two towers along a point


def _wedge_diagram(category, s_sizes, t_sizes):
    """Towers s and t whose level k has s_sizes[k] and t_sizes[k] elements
    (finite sets) or generators (free abelian groups), bonds forgetting the
    last ones, glued along a constant one-point tower w at the first one."""
    if category == FINSET:
        def level(n):
            return finset(*[str(i) for i in range(1, n + 1)])

        def bond(hi, lo):
            return finset_map(level(hi), level(lo), {str(i): str(min(i, lo)) for i in range(1, hi + 1)})

        point = finset("*")

        def first(n):
            return finset_map(point, level(n), {"*": "1"})
    else:
        def level(n):
            return free_ab(n)

        def bond(hi, lo):
            return finab_map(level(hi), level(lo),
                             [[int(i == k) for k in range(hi)] for i in range(lo)])

        point = free_ab(1)

        def first(n):
            return finab_map(point, level(n), [[int(i == 0)] for i in range(n)])

    def tower(sizes):
        return Tower(tuple(level(n) for n in sizes),
                     tuple(bond(sizes[k + 1], sizes[k]) for k in range(len(sizes) - 1)))

    shape = poset_category(["s", "t", "w"], [("w", "s"), ("w", "t")])
    sizes = {"s": s_sizes, "t": t_sizes}
    nodes = {u: tower(n) for u, n in sizes.items()}
    nodes["w"] = Tower.constant(point, len(s_sizes) - 1)
    edges = {f"{u}<{u}": LevelMorphism.identity(t) for u, t in nodes.items()}
    for u, n in sizes.items():
        edges[f"w<{u}"] = LevelMorphism.strict(nodes["w"], nodes[u], tuple(first(k) for k in n))
    return shape, nodes, edges


def _counting_colimits(monkeypatch):
    from finsite import values
    calls = []
    original = values.finite_colimit

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(values, "finite_colimit", counting)
    return calls


@pytest.mark.parametrize("category", [FINSET, FINAB])
def test_tower_colimit_of_constant_towers_builds_one_colimit(monkeypatch, category):
    shape, nodes, edges = _wedge_diagram(category, [2] * 5, [3] * 5)
    calls = _counting_colimits(monkeypatch)
    res = tower_colimit(shape, nodes, edges, 4)
    assert len(calls) == 1
    assert all(level == res.tower.levels[0] for level in res.tower.levels)


@pytest.mark.parametrize("category", [FINSET, FINAB])
def test_tower_colimit_sharing_matches_the_unshared_levelwise_colimit(monkeypatch, category):
    from finsite.values import FiniteDiagram, compose, finite_colimit, out_map
    s_sizes, t_sizes = [1, 2, 2, 2, 3], [1, 2, 2, 3, 3]   # only level 2 repeats level 1
    shape, nodes, edges = _wedge_diagram(category, s_sizes, t_sizes)
    oracle = [finite_colimit(FiniteDiagram(
        shape, {u: t.levels[j] for u, t in nodes.items()},
        {m: e.components[j] for m, e in edges.items()}))
        for j in range(5)]
    calls = _counting_colimits(monkeypatch)
    res = tower_colimit(shape, nodes, edges, 4)
    assert len(calls) == 4
    assert res.tower.levels == tuple(r.obj for r in oracle)
    for j in range(4):
        assert res.tower.bonds[j] == out_map(oracle[j + 1], {
            u: compose(oracle[j].cocone[u], t.bonds[j]) for u, t in nodes.items()},
            oracle[j].obj)
    assert len(res.levels) == 5
    for u in nodes:
        assert tuple(r.cocone[u] for r in res.levels) == tuple(r.cocone[u] for r in oracle)


@pytest.mark.parametrize("category", [FINSET, FINAB])
def test_tower_colimit_of_the_empty_diagram_is_the_constant_initial_tower(monkeypatch, category):
    from finsite.cosheaf import _map_out
    from finsite.values import maps_equal, unique_map_from_initial
    empty = poset_category((), ())
    target = two_point_rudimentary(3) if category == FINSET else Tower.constant(cyclic(4), 3)
    calls = _counting_colimits(monkeypatch)
    store = {}
    res = tower_colimit(empty, {}, {}, 3, store, category)
    assert len(calls) == 1
    (stored,) = store.values()
    assert all(level is stored for level in res.levels) and len(res.levels) == 4
    assert all(level.cocone == {} for level in res.levels)
    initial = unique_map_from_initial(category, target.levels[0])
    assert res.tower.levels == (initial.src,) * 4
    assert all(maps_equal(b, identity_map(initial.src)) for b in res.tower.bonds)
    out = _map_out(res, target, {})
    assert all(maps_equal(f, unique_map_from_initial(category, target.levels[j]))
               for j, f in enumerate(out.components))
    with pytest.raises(EngineError):
        tower_colimit(empty, {}, {}, None, None, category)
    with pytest.raises(EngineError):
        tower_colimit(empty, {}, {}, 3)


def test_rudimentary_finab_sees_a_zero_level():
    from finsite.values import FinAbMap, FinAbObj
    z, zero = free_ab(1), FinAbObj(0)
    # 0 <- Z <- Z <- Z: S_1 = Z -> S_0 = 0 is no isomorphism
    t = Tower((zero, z, z, z), (FinAbMap(z, zero, ()), identity_map(z), identity_map(z)))
    v = is_rudimentary_at_depth(t, 3, 3)
    assert v.verdict == "NOT-RUDIMENTARY-AT-DEPTH"
    assert v.profile == (((), 0), ((), 1), ((), 1), ((), 1))
    # Z <- Z <- Z <- 0: every image of the zero top level is zero
    t = Tower((z, z, z, zero), (identity_map(z), identity_map(z), FinAbMap(zero, z, ((),))))
    v = is_rudimentary_at_depth(t, 3, 3)
    assert v.rudimentary and v.profile == (((), 0),) * 4


# ---------------------------------------------------------------------------
# abelian iso verdicts against explicit kernel and cokernel towers


def _scalar_map(src, dst, rng, ok=lambda f: True):
    """A random well-defined multiplication-by-s map with ok(map), or None."""
    for s in rng.sample(range(6), 6):
        try:
            f = finab_map(src, dst, ((s,),))
        except EngineError:
            continue
        if ok(f):
            return f
    return None


def _random_cyclic_tower(rng, depth):
    levels = tuple(free_ab(1) if m == 0 else cyclic(m)
                   for m in (rng.choice([0, 0, 2, 3, 4, 6]) for _ in range(depth + 1)))
    return Tower(levels, tuple(_scalar_map(levels[j + 1], levels[j], rng) for j in range(depth)))


def _random_cyclic_level_morphism(rng, depth):
    """A strict morphism of towers of cyclic groups, chosen top level first
    so that every square commutes."""
    while True:
        x, y = _random_cyclic_tower(rng, depth), _random_cyclic_tower(rng, depth)
        comps = [None] * depth + [_scalar_map(x.levels[depth], y.levels[depth], rng)]
        for j in range(depth - 1, -1, -1):
            below = compose(y.bonds[j], comps[j + 1])
            comps[j] = _scalar_map(x.levels[j], y.levels[j], rng,
                                   lambda f: maps_equal(compose(f, x.bonds[j]), below))
            if comps[j] is None:
                break
        else:
            return LevelMorphism.strict(x, y, tuple(comps))


def _oracle_pro_zero(t, depth, margin):
    """The first level k up to depth - margin into which no composite of
    bonds, built one bond at a time, is the zero map."""
    for k in range(max(0, depth - margin) + 1):
        comp = identity_map(t.levels[k])
        hit = is_zero_map(comp)
        for m in range(k + 1, depth + 1):
            comp = compose(comp, t.bonds[m - 1])
            hit = hit or is_zero_map(comp)
        if not hit:
            return False, k
    return True, None


def _kernel_tower(f, depth):
    incl = [kernel(f.components[j])[1] for j in range(depth + 1)]
    bonds = tuple(FinAbMap(incl[j + 1].src, incl[j].src,
                           express_through(incl[j], compose(f.src.bonds[j], incl[j + 1])))
                  for j in range(depth))
    return Tower(tuple(i.src for i in incl), bonds)


def _cokernel_tower(f, depth):
    proj = [cokernel(f.components[j])[1] for j in range(depth + 1)]
    bonds = tuple(finab_map(proj[j + 1].dst, proj[j].dst, f.dst.bonds[j].matrix)
                  for j in range(depth))
    return Tower(tuple(p.dst for p in proj), bonds)


def _oracle_iso(f, depth, margin):
    ok, j = _oracle_pro_zero(_kernel_tower(f, depth), depth, margin)
    if not ok:
        return False, j, f"kernel tower not pro-zero at level {j}"
    ok, j = _oracle_pro_zero(_cokernel_tower(f, depth), depth, margin)
    if not ok:
        return False, j, f"cokernel tower not pro-zero at level {j}"
    for j in range(max(0, depth - margin) + 1, depth + 1):
        # the deepest target level must land in the image of the deepest source level
        _, proj = cokernel(compose(f.components[j], f.src.bond_composite(depth, j)))
        if not is_zero_map(compose(proj, f.dst.bond_composite(depth, j))):
            return False, j, f"stable target image escapes level {j}"
    return True, None, ""


def test_finab_iso_and_pro_zero_match_explicit_kernel_and_cokernel_towers():
    rng = random.Random(5)
    seen = set()
    for _ in range(120):
        depth = rng.randint(1, 4)
        f = _random_cyclic_level_morphism(rng, depth)
        kernels, cokernels = _kernel_tower(f, depth), _cokernel_tower(f, depth)
        for margin in range(4):
            v = is_iso_at_depth(f, depth, margin)
            assert (v.iso, v.obstruction, v.detail) == _oracle_iso(f, depth, margin)
            seen.add((v.detail.split(" at level")[0].split(" escapes")[0], v.obstruction))
            for t in (f.src, kernels, cokernels):
                assert tower_pro_zero(t, depth, margin) == _oracle_pro_zero(t, depth, margin)
    kinds = {kind for kind, _ in seen}
    assert kinds == {"", "kernel tower not pro-zero", "cokernel tower not pro-zero",
                     "stable target image"}
    assert {level for _, level in seen} > {None, 0, 1, 2}


# ---------------------------------------------------------------------------
# the kernel scan and the image scan first fail at different levels


def _finset_tower(levels, bonds):
    """Levels given as strings of one-letter elements, bonds as strings of
    images listed in the order of the upper level's elements."""
    objs = tuple(finset(*lv) for lv in levels)
    return Tower(objs, tuple(finset_map(objs[k + 1], objs[k], dict(zip(objs[k + 1].elements, b)))
                             for k, b in enumerate(bonds)))


def _finset_to(x, y, images):
    return LevelMorphism.strict(x, y, tuple(
        finset_map(x.levels[k], y.levels[k], dict(zip(x.levels[k].elements, im)))
        for k, im in enumerate(images)))


def test_finset_iso_reports_the_lower_first_failure_kernel_first():
    # f_1 merges a and b, and no deeper source bond separates them again; the
    # target gains q at level 2, outside every image
    x = _finset_tower(("a", "ab", "ab", "ab"), ("aa", "ab", "ab"))
    y = _finset_tower(("p", "p", "pq", "pq"), ("p", "pp", "pq"))
    v = is_iso_at_depth(_finset_to(x, y, ("p", "pp", "pp", "pp")), 3, 0)
    assert (v.iso, v.obstruction, v.spans) == (False, 1, ((0, 0),))
    assert v.detail == "no bond-inverse for level 1 within depth 3"


def test_finset_iso_reports_the_lower_first_failure_image_first():
    # f_1 misses q, and every target bond into level 1 keeps it; the source
    # merge comes only at level 2
    x = _finset_tower(("a", "a", "ab", "ab"), ("a", "aa", "ab"))
    y = _finset_tower(("p", "pq", "pq", "pq"), ("pp", "pq", "pq"))
    v = is_iso_at_depth(_finset_to(x, y, ("p", "p", "pp", "pp")), 3, 0)
    assert (v.iso, v.obstruction, v.spans) == (False, 1, ((0, 0),))
    assert v.detail == "no bond-inverse for level 1 within depth 3"


def test_finset_iso_span_reaches_the_deeper_of_the_two_levels():
    # level 0 kills its kernel at once but lands only from level 2
    x = _finset_tower(("a", "a", "a"), ("a", "a"))
    y = _finset_tower(("pq", "pq", "p"), ("pq", "p"))
    v = is_iso_at_depth(_finset_to(x, y, ("p", "p", "p")), 2, 2)
    assert v.spans == ((0, 2),) and v.iso


def _ab_tower(ranks, bonds):
    levels = tuple(free_ab(n) for n in ranks)
    return Tower(levels, tuple(finab_map(levels[k + 1], levels[k], b) for k, b in enumerate(bonds)))


def _ab_to(x, y, matrices):
    return LevelMorphism.strict(x, y, tuple(finab_map(x.levels[k], y.levels[k], m)
                                            for k, m in enumerate(matrices)))


ONE, ID2 = [[1]], [[1, 0], [0, 1]]


def test_finab_iso_names_the_kernel_when_the_cokernel_fails_lower():
    # coker f_1 = Z, kept by every target bond; ker f_2 = <(1, -1)>, kept by
    # every source bond
    x = _ab_tower((1, 1, 2, 2), (ONE, [[1, 1]], ID2))
    y = _ab_tower((1, 2, 2, 2), ([[1, 0]], ID2, ID2))
    f = _ab_to(x, y, (ONE, [[1], [0]], [[1, 1], [0, 0]], [[1, 1], [0, 0]]))
    v = is_iso_at_depth(f, 3, 0)
    assert (v.iso, v.obstruction, v.spans) == (False, 2, ())
    assert v.detail == "kernel tower not pro-zero at level 2"


def test_finab_iso_names_the_kernel_when_it_fails_lower():
    # ker f_1 = <(1, -1)>, kept by every source bond; coker f_2 = Z
    x = _ab_tower((1, 2, 2, 2), ([[1, 1]], ID2, ID2))
    y = _ab_tower((1, 1, 2, 2), (ONE, [[1, 0]], ID2))
    f = _ab_to(x, y, (ONE, [[1, 1]], [[1, 1], [0, 0]], [[1, 1], [0, 0]]))
    v = is_iso_at_depth(f, 3, 0)
    assert (v.iso, v.obstruction, v.spans) == (False, 1, ())
    assert v.detail == "kernel tower not pro-zero at level 1"
