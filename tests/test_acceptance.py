"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is exact or depth-qualified as stated; nothing is calibrated
at runtime.
"""

import itertools
import random

import pytest

from finsite.category import distinct_covers, sieve_from_cover, validate_site
from finsite.cosheaf import (PrecosheafMorphism, check_cosheaf,
                             constant_precosheaf, cosheafify,
                             defect_agreement, enumerate_natural_transformations,
                             is_locally_zero, is_smooth,
                             objectwise_cokernel, objectwise_kernel,
                             plus_cosheaf, strong_local_iso_check,
                             universal_factorization_check)
from finsite.randsuite import (random_finab_morphism, random_finab_precosheaf,
                               random_finset_precosheaf, random_presheaf,
                               random_site)
from finsite.sheaf import check_sheaf, hom_into_presheaf, plus_sheaf, sheafify
from finsite.spaces import (FiniteSpace, builtin_demos, converging_sequence_site,
                            h0_precosheaf, open_site, pi0_precosheaf,
                            pseudocircle, site_points)
from finsite.towers import (LevelMorphism, Tower, equal_at_depth, is_epi_at_depth,
                            is_iso_at_depth, is_rudimentary_at_depth,
                            pro_hom_at_depth)
from finsite.values import (classify_map, compose, finab_map, finset,
                            finset_map, free_ab, hom_set, identity_map,
                            maps_equal)

X = "{a,b,c,d}"


def report(criterion, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    print(f"[{criterion}] {state}{(' — ' + detail) if detail else ''}")
    assert ok, f"{criterion} failed: {detail}"


def connected_finite_space_instances():
    out = []
    for space in (pseudocircle(), FiniteSpace(("a", "b"), frozenset({("a", "b")}))):
        spec = open_site(space)
        out.append((space, spec))
    return out


def demo_precosheaves(depth=6):
    """(site, precosheaf, depth) for the cosheaf-side demo corpus."""
    out = []
    for demo in builtin_demos():
        if demo.kind == "check-sheaf":
            continue
        spec, data = demo.make(depth)
        out.append((demo.name, spec, data))
    return out


def test_c01_oracle_equivalence_fast_vs_slow():
    checked = 0
    for space, spec in connected_finite_space_instances():
        pi0 = pi0_precosheaf(spec, space)
        h0 = h0_precosheaf(spec, space, free_ab(1))
        for a in (pi0, h0):
            for u in spec.category.objects:
                for cover in distinct_covers(spec, u, 0):
                    if cover.has_intersections():
                        assert defect_agreement(a, cover), (u, cover.pieces)
                        checked += 1
    conv = converging_sequence_site(8)
    pt = constant_precosheaf(conv, finset("*"), 4, site_points(conv))
    for u in conv.category.objects:
        for cover in distinct_covers(conv, u, 4):
            if cover.has_intersections():
                assert defect_agreement(pt, cover), (u, cover.pieces)
                checked += 1
    rng = random.Random(0)
    for case in range(100):
        spec = random_site(rng)
        a = random_finset_precosheaf(spec, rng, max_size=4)
        for u in spec.category.objects:
            for cover in distinct_covers(spec, u, 0):
                if cover.has_intersections():
                    assert defect_agreement(a, cover), (case, u, cover.pieces)
                    checked += 1
    report("C1", True, f"fast/slow agreement on {checked} covers")


def _plus_laws(a, depth):
    plus = plus_cosheaf(a, depth)
    plus_class = check_cosheaf(plus.precosheaf, depth).classification
    base_class = check_cosheaf(a, depth).classification
    ok = plus_class in ("COSEPARATED", "COSHEAF")
    if base_class in ("COSEPARATED", "COSHEAF"):
        ok = ok and plus_class == "COSHEAF"
    counit_iso = all(
        is_iso_at_depth(plus.counit.components[u], depth).iso
        for u in a.site.category.objects)
    ok = ok and (counit_iso == (base_class == "COSHEAF"))
    return ok, base_class


def test_c02_plus_construction_laws():
    rng = random.Random(1)
    for case in range(100):
        spec = random_site(rng)
        a = random_finset_precosheaf(spec, rng)
        ok, _ = _plus_laws(a, 0)
        assert ok, f"finite-site case {case}"
    # chain suite on the six-stage model: every declared cover is visible from
    # depth 4 on, so the depth-qualified verdicts are stable across 4..6
    conv = converging_sequence_site(6)
    for case in range(6):
        a = random_finset_precosheaf(conv, random.Random(100 + case), depth=6)
        verdicts = []
        for depth in (4, 5, 6):
            ok, base = _plus_laws(a, depth)
            assert ok, f"chain case {case} depth {depth}"
            verdicts.append(base)
        assert len(set(verdicts)) == 1, f"verdict drift in chain case {case}: {verdicts}"
    conv = converging_sequence_site(8)
    pt = constant_precosheaf(conv, finset("*"), 6, site_points(conv))
    for depth in (4, 5, 6):
        ok, base = _plus_laws(pt, depth)
        assert ok and base == "COSEPARATED"
    report("C2", True, "plus laws exact on 100 finite sites, stable at depths 4..6 on chains")


def test_c03_dual_plus_laws():
    rng = random.Random(2)
    for case in range(100):
        spec = random_site(rng)
        p = random_presheaf(spec, rng)
        sp = plus_sheaf(p)
        sp_class = check_sheaf(sp.presheaf).classification
        base_class = check_sheaf(p).classification
        assert sp_class in ("SEPARATED", "SHEAF"), case
        if base_class in ("SEPARATED", "SHEAF"):
            sh = sheafify(p)
            assert check_sheaf(sh.presheaf).classification == "SHEAF", case
        unit_iso = all(classify_map(sp.unit[u]).iso for u in spec.category.objects)
        assert unit_iso == (base_class == "SHEAF"), case
        full = sheafify(p)
        assert check_sheaf(full.presheaf).classification == "SHEAF", case
    report("C3", True, "separated/sheaf/unit laws on 100 seeded presheaves")


def _unique_collapse(b, target):
    comps = {}
    for u in b.site.category.objects:
        comps[u] = LevelMorphism(
            b.values[u], target.values[u],
            tuple(finset_map(b.values[u].levels[j], target.values[u].levels[j],
                             {x: "*" for x in b.values[u].levels[j].elements})
                  for j in range(b.depth + 1)))
    return PrecosheafMorphism(b, target, comps)


def test_c04_coreflection_universal_property():
    existence = 0
    uniqueness = 0
    for space, spec in connected_finite_space_instances():
        pi0 = pi0_precosheaf(spec, space)
        pt = constant_precosheaf(spec, finset("*"), 0, site_points(spec))
        f = _unique_collapse(pi0, pt)
        rep = universal_factorization_check(pt, pi0, f, 0, uniqueness_bound=10)
        assert rep.passed
        existence += 1
        if any("uniqueness:" in t and "skipped" not in t for t in rep.trace):
            uniqueness += 1
    rng = random.Random(4)
    seen_small = 0
    for case in range(60):
        spec = random_site(rng)
        b = random_finset_precosheaf(spec, rng, max_size=2)
        if check_cosheaf(b).classification != "COSHEAF":
            continue
        a = random_finset_precosheaf(spec, rng, max_size=3)
        # any natural transformation b -> a serves as the test morphism
        candidates = enumerate_natural_transformations(b, a)
        if not candidates:
            continue
        f = candidates[0]
        rep = universal_factorization_check(a, b, f, 0)
        assert rep.passed, case
        existence += 1
        total = sum(len(b.values[u].levels[0]) for u in spec.category.objects)
        if total <= 6:
            seen_small += 1
            assert any("uniqueness: 1 factorization" in t for t in rep.trace), case
            uniqueness += 1
    assert uniqueness >= 5
    report("C4", True,
           f"existence on {existence} instances, uniqueness enumerated on {uniqueness}")


def _natural_iso_onto_coreflection(b, f, result, depth):
    """u = f++ ∘ (counit_B)^-1 and the componentwise iso verdicts."""
    from finsite.cosheaf import invert_counit, plus_map
    cb = cosheafify(b, depth)
    f1 = plus_map(f, cb.plus1, result.plus1)
    f2 = plus_map(f1, cb.plus2, result.plus2)
    u = invert_counit(cb).then(f2)
    return u


def test_c05_constant_cosheaf_theorem():
    for space, spec in connected_finite_space_instances():
        pts = site_points(spec)
        pi0 = pi0_precosheaf(spec, space)
        pt = constant_precosheaf(spec, finset("*"), 0, pts)
        result = cosheafify(pt, 0)
        f = _unique_collapse(pi0, pt)
        u = _natural_iso_onto_coreflection(pi0, f, result, 0)
        for obj in spec.category.objects:
            assert is_iso_at_depth(u.components[obj], 0).iso, obj
        # abelian version: free-on-components maps onto the constant Z
        h0 = h0_precosheaf(spec, space, free_ab(1))
        z = constant_precosheaf(spec, free_ab(1), 0, pts)
        zres = cosheafify(z, 0)
        comps = {}
        for obj in spec.category.objects:
            n = h0.values[obj].levels[0].rank
            comps[obj] = LevelMorphism(
                h0.values[obj], z.values[obj],
                (finab_map(h0.values[obj].levels[0], z.values[obj].levels[0],
                           ((1,) * n,) if n else ((),)),))
        zf = PrecosheafMorphism(h0, z, comps)
        zu = _natural_iso_onto_coreflection(h0, zf, zres, 0)
        for obj in spec.category.objects:
            assert is_iso_at_depth(zu.components[obj], 0).iso, obj
    report("C5", True,
           "cosheafify(pt) ≅ components, cosheafify(Z) ≅ free-on-components, "
           "via constructed natural isomorphisms")


def test_c06_converging_sequence_phenomenology():
    spec = converging_sequence_site(12)
    pts = site_points(spec)
    pt = constant_precosheaf(spec, finset("*"), 10, pts)
    result = cosheafify(pt, 10)
    sizes = [len(l.elements) for l in result.precosheaf.values["X"].levels]
    assert sizes == list(range(2, 13)), sizes
    assert all(b > a for a, b in zip(sizes, sizes[1:]))
    xrud = is_rudimentary_at_depth(result.precosheaf.values["X"], 10)
    assert not xrud.rudimentary
    for depth in (6, 8, 10):
        sm = is_smooth(pt, depth)
        assert sm.classification == "NOT-SMOOTH", depth
    z = constant_precosheaf(spec, free_ab(1), 10, pts)
    for depth in (6, 10):
        assert is_smooth(z, depth).classification == "NOT-SMOOTH", depth
    from finsite.cosheaf import costalk
    for depth in (6, 8, 10):
        limit_tower = costalk(result.precosheaf, pt.point_filter("pt:0"), depth)
        assert not is_rudimentary_at_depth(limit_tower, depth).rudimentary, depth
        iso_tower = costalk(result.precosheaf, pt.point_filter("pt:1/3"), depth)
        verdict = is_rudimentary_at_depth(iso_tower, depth)
        assert verdict.rudimentary, depth
        assert len(iso_tower.levels[-1]) == 1
    report("C6", True,
           f"tower sizes {sizes} at X; smoothness FAIL for pt and Z; "
           "costalks NOT-RUDIMENTARY at the limit point, singleton at 1/3; "
           "stable at depths 6..10")


def test_c07_strong_local_isomorphisms():
    for name, spec, a in demo_precosheaves(6):
        depth = min(6, a.depth)
        result = cosheafify(a, depth)
        rep = strong_local_iso_check(result.counit, a.points, depth)
        assert rep.passed, (name, rep.witnesses)
    # strong local isomorphisms between cosheaves in the corpus are isomorphisms
    space, spec = connected_finite_space_instances()[0]
    pi0 = pi0_precosheaf(spec, space)
    pt = constant_precosheaf(spec, finset("*"), 0, site_points(spec))
    result = cosheafify(pt, 0)
    u = _natural_iso_onto_coreflection(pi0, _unique_collapse(pi0, pt), result, 0)
    sli = strong_local_iso_check(u, pt.points, 0)
    assert sli.passed
    for obj in spec.category.objects:
        assert is_iso_at_depth(u.components[obj], 0).iso, obj
    # identity endomorphisms of every demo cosheafification
    conv = converging_sequence_site(8)
    cpt = constant_precosheaf(conv, finset("*"), 6, site_points(conv))
    cres = cosheafify(cpt, 6)
    from finsite.cosheaf import identity_morphism
    ident = identity_morphism(cres.precosheaf)
    sli = strong_local_iso_check(ident, cpt.points, 6)
    assert sli.passed
    for obj in conv.category.objects:
        assert is_iso_at_depth(ident.components[obj], 6).iso, obj
    report("C7", True, "coreflection counits pass at every declared point; "
           "strong local isomorphisms between corpus cosheaves are isomorphisms")


def test_c08_duality_bridge():
    instances = []
    space, spec = connected_finite_space_instances()[0]
    instances.append((pi0_precosheaf(spec, space), 0))
    instances.append((constant_precosheaf(spec, finset("*"), 0, site_points(spec)), 0))
    conv = converging_sequence_site(8)
    instances.append((constant_precosheaf(conv, finset("*"), 4, site_points(conv)), 4))
    for a, depth in instances:
        cosheaf_verdict = check_cosheaf(a, depth).classification == "COSHEAF"
        sheaf_verdicts = []
        for size in (1, 2, 3):
            g = finset(*[f"g{i}" for i in range(size)])
            sheaf_verdicts.append(
                check_sheaf(hom_into_presheaf(a, g), depth).classification == "SHEAF")
        assert all(sheaf_verdicts) == cosheaf_verdict
    report("C8", True, "cosheaf verdicts match sheaf verdicts of Hom(A, G) for |G| ≤ 3")


def test_c09_pairing_adjunctions():
    """Hom(B⊗G, A) ≅ Hom(G, Hom(B, A)) ≅ Hom(B, Hom(G, A)) and the
    representable variant, enumerated on the 2-object poset site."""
    from finsite.category import poset_category
    from finsite.values import FiniteDiagram, functor_pairings
    shape = poset_category(["s", "t"], [("s", "t")])

    def diagrams(max_size):
        for ns in range(1, max_size + 1):
            for nt in range(1, max_size + 1):
                objs = {"s": finset(*[f"s{i}" for i in range(ns)]),
                        "t": finset(*[f"t{i}" for i in range(nt)])}
                for edge in hom_set(objs["s"], objs["t"]):
                    yield FiniteDiagram(shape, objs, {
                        "s<s": identity_map(objs["s"]),
                        "t<t": identity_map(objs["t"]),
                        "s<t": edge})

    def nat_count(bb, aa):
        count = 0
        for fs in hom_set(bb.nodes["s"], aa.nodes["s"]):
            for ft in hom_set(bb.nodes["t"], aa.nodes["t"]):
                if maps_equal(compose(ft, bb.edges["s<t"]),
                              compose(aa.edges["s<t"], fs)):
                    count += 1
        return count

    def tensor_with_set(bb, g):
        objs = {u: finset(*(f"{x}|{y}" for x in bb.nodes[u].elements
                            for y in g.elements)) for u in shape.objects}
        edges = {}
        for m in shape.morphisms:
            e = bb.edges[m.id]
            edges[m.id] = finset_map(objs[m.src], objs[m.dst],
                                     {f"{x}|{y}": f"{e(x)}|{y}"
                                      for x in e.src.elements for y in g.elements})
        return FiniteDiagram(shape, objs, edges)

    def hom_g_into(aa, g):
        objs = {}
        decode = {}
        for u in shape.objects:
            maps = hom_set(g, aa.nodes[u])
            ids = tuple("h(" + ",".join(f"{x}>{f(x)}" for x in g.elements) + ")"
                        for f in maps)
            objs[u] = finset(*ids)
            decode[u] = dict(zip(ids, maps))
        edges = {}
        for m in shape.morphisms:
            e = aa.edges[m.id]
            table = {i: "h(" + ",".join(
                f"{x}>{compose(e, decode[m.src][i])(x)}" for x in g.elements) + ")"
                for i in objs[m.src].elements}
            edges[m.id] = finset_map(objs[m.src], objs[m.dst], table)
        return FiniteDiagram(shape, objs, edges)

    g = finset("g0", "g1")
    f_trivial_nodes = {"s": finset("z"), "t": finset("z")}
    f_trivial = FiniteDiagram(
        shape, f_trivial_nodes,
        {"s<s": identity_map(f_trivial_nodes["s"]),
         "t<t": identity_map(f_trivial_nodes["t"]),
         "s<t": finset_map(f_trivial_nodes["s"], f_trivial_nodes["t"], {"z": "z"})})

    checked = 0
    sample_a = list(itertools.islice(diagrams(3), 0, None, 7))[:6]
    sample_b = list(itertools.islice(diagrams(2), 0, None, 3))[:4]
    for aa in sample_a:
        for bb in sample_b:
            lhs = nat_count(tensor_with_set(bb, g), aa)
            end = functor_pairings(aa, bb, f_trivial).end
            middle = len(end) ** len(g)
            rhs = nat_count(bb, hom_g_into(aa, g))
            assert lhs == middle == rhs, (lhs, middle, rhs)
            checked += 1
    # representable variant: Hom(h^s ⊗ G, A) ≅ Hom(G, A(s))
    def representable_s():
        objs = {"s": finset("m"), "t": finset("m")}
        return FiniteDiagram(shape, objs, {
            "s<s": identity_map(objs["s"]), "t<t": identity_map(objs["t"]),
            "s<t": finset_map(objs["s"], objs["t"], {"m": "m"})})

    hs = representable_s()
    for aa in sample_a:
        lhs = nat_count(tensor_with_set(hs, g), aa)
        rhs = len(aa.nodes["s"]) ** len(g)
        assert lhs == rhs
        checked += 1
    report("C9", True, f"adjunction and representable bijections on {checked} instances")


def brute_force_pro_hom(x, y, depth):
    shifts = [s for s in itertools.product(range(depth + 1), repeat=depth + 1)
              if all(s[j] <= s[j + 1] for j in range(depth))]
    seen = set()
    for shift in shifts:
        pools = [hom_set(x.levels[shift[j]], y.levels[j]) for j in range(depth + 1)]
        for combo in itertools.product(*pools):
            good = True
            for j in range(depth):
                left = compose(combo[j], x.bond_composite(shift[j + 1], shift[j]))
                right = compose(y.bonds[j], combo[j + 1])
                if not maps_equal(left, right):
                    good = False
                    break
            if good:
                key = tuple(
                    tuple(sorted(compose(combo[j], x.bond_composite(depth, shift[j])).table))
                    for j in range(depth + 1))
                seen.add(key)
    return len(seen)


def c10_tower_pairs():
    """The eight (x, y, depth) finite-set tower pairs of C10."""
    rng = random.Random(10)
    pairs = []
    for n in range(8):
        depth = rng.randint(1, 3) if n < 6 else 4
        lx = [finset(*[f"x{i}" for i in range(rng.randint(1, 3))])
              for _ in range(depth + 1)]
        bx = [finset_map(lx[k + 1], lx[k],
                         {e: rng.choice(lx[k].elements) for e in lx[k + 1].elements})
              for k in range(depth)]
        ly = [finset(*[f"y{i}" for i in range(rng.randint(1, 2))])
              for _ in range(depth + 1)]
        by = [finset_map(ly[k + 1], ly[k],
                         {e: rng.choice(ly[k].elements) for e in ly[k + 1].elements})
              for k in range(depth)]
        pairs.append((Tower(tuple(lx), tuple(bx)), Tower(tuple(ly), tuple(by)), depth))
    return pairs


def test_c10_pro_hom_oracle():
    checked = 0
    for x, y, depth in c10_tower_pairs():
        fast = len(pro_hom_at_depth(x, y, depth))
        slow = brute_force_pro_hom(x, y, depth)
        assert fast == slow, (fast, slow, depth)
        checked += 1
    report("C10", True, f"pro-hom representatives equal brute force on {checked} towers")


# For each pair and each k up to its depth, one row per k: for every
# representative of pro_hom_at_depth(x, y, k), its is_iso_at_depth and
# is_epi_at_depth verdicts at depths 0..k, "I" for ISO, "E" for EPI and "-"
# for a failure.  Recorded when representatives still carried a shift.
PRO_HOM_VERDICTS = [
    ["-- --", "---- IEIE IEIE ----", "-----E", "-----E-E"],
    ["-- IE IE --", "---E", "---E-- ---EIE ---EIE ---E--",
     "---E---- ---E--IE ---E--IE ---E----"],
    ["-- -E -E -E -E -E -E --", "---- IEIE IEIE ----", "----IE"],
    ["IE", "IEIE", "IEIEIE"],
    ["-- --", "---- ----", "----IE", "-----E-- -----EIE -----EIE -----E--"],
    ["IE", "-E-E", "-E-E-E"],
    ["IE", "IEIE", "-E-E-- -E-EIE -E-EIE -E-E--", "-E-E---- -E-E--IE -E-E--IE -E-E----",
     "-E-E------ -E-E--IEIE -E-E--IEIE -E-E------"],
    ["-- --", "---- --IE --IE ----", "----IE", "----IE-- ----IE--",
     "-----E---- -----EIEIE -----EIEIE -----E----"],
    # Tower.constant(finset("a", "b"), 3) with itself
    ["-- IE IE --", "---- IEIE IEIE ----", "------ IEIEIE IEIEIE ------",
     "-------- IEIEIEIE IEIEIEIE --------"],
]


def _verdict_rows(x, y, depth):
    return [" ".join("".join(mark if ok else "-" for i in range(k + 1)
                             for mark, ok in (("I", is_iso_at_depth(f, i).iso),
                                              ("E", is_epi_at_depth(f, i).epi)))
                     for f in pro_hom_at_depth(x, y, k))
            for k in range(depth + 1)]


def test_pro_hom_representatives_keep_their_iso_and_epi_verdicts():
    two = Tower.constant(finset("a", "b"), 3)
    pairs = c10_tower_pairs() + [(two, two, 3)]
    assert [_verdict_rows(*pair) for pair in pairs] == PRO_HOM_VERDICTS


def test_c11_empty_cover_law():
    hits = 0
    for space, spec in connected_finite_space_instances():
        pi0 = pi0_precosheaf(spec, space)
        h0 = h0_precosheaf(spec, space, free_ab(1))
        pt = constant_precosheaf(spec, finset("*"), 0, site_points(spec))
        for a in (pi0, h0, pt):
            if check_cosheaf(a).classification == "COSHEAF":
                val = a.values["{}"].levels[0]
                if a.category == "finset":
                    assert len(val) == 0
                else:
                    assert val.is_trivial()
                hits += 1
    rng = random.Random(11)
    for case in range(60):
        spec = random_site(rng)
        if "{}" not in spec.category.objects:
            continue
        a = random_finset_precosheaf(spec, rng)
        if check_cosheaf(a).classification == "COSHEAF":
            assert len(a.values["{}"].levels[0]) == 0, case
            hits += 1
    assert hits >= 10
    report("C11", True, f"{hits} cosheaves all carry the initial value at the empty open")


def test_c12_abelian_locally_zero_criterion():
    conv = converging_sequence_site(6)
    rng = random.Random(12)
    agreements = 0
    for case in range(50):
        f = random_finab_morphism(conv, rng, depth=6)
        pts = f.src.points
        route_a = strong_local_iso_check(f, pts, 6).passed
        ker = objectwise_kernel(f)
        coker = objectwise_cokernel(f)
        route_b = (is_locally_zero(ker, pts, 6).passed
                   and is_locally_zero(coker, pts, 6).passed)
        assert route_a == route_b, (case, route_a, route_b)
        agreements += 1
    report("C12", True, f"strong-local-iso vs kernel/cokernel locally-zero on {agreements} morphisms")
