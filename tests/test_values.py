"""Value categories: exact (co)limits, SNF, classification, pairings."""

import itertools
import random

import pytest

from finsite import intmat
from finsite.category import poset_category
from finsite.errors import HeterogeneousDiagram
from finsite.values import (FINAB, FINSET, FinAbObj, FinSetObj, FiniteDiagram,
                            classify_map, compose, cyclic, finab_map,
                            finite_colimit, finite_limit, finset, finset_map,
                            free_ab, functor_pairings, hom_set, identity_map,
                            kernel, cokernel, maps_equal, set_pairings,
                            smith_normal_form)


def two_object_shape():
    return poset_category(["s", "t"], [("s", "t")])


def parallel_pair_shape():
    # two objects with two parallel non-identity arrows f, g: s -> t
    from finsite.category import FiniteCategory, Morphism
    morphs = (
        Morphism("id:s", "s", "s"), Morphism("id:t", "t", "t"),
        Morphism("f", "s", "t"), Morphism("g", "s", "t"),
    )
    identity = {"s": "id:s", "t": "id:t"}
    comp = {}
    for m in ("f", "g"):
        comp[("id:t", m)] = m
        comp[(m, "id:s")] = m
    comp[("id:s", "id:s")] = "id:s"
    comp[("id:t", "id:t")] = "id:t"
    return FiniteCategory(("s", "t"), morphs, identity, comp)


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_diag_2_3_has_invariant_factors_1_6():
    u, d, v = smith_normal_form(((2, 0), (0, 3)))
    assert intmat.diagonal_of(d) == (1, 6)
    assert intmat.mat_eq(intmat.mul(intmat.mul(u, ((2, 0), (0, 3))), v), d)


def test_snf_zero_matrix():
    u, d, v = smith_normal_form(((0, 0), (0, 0)))
    assert intmat.is_zero(d)
    assert intmat.mat_eq(u, intmat.identity(2))
    assert intmat.mat_eq(v, intmat.identity(2))


def test_snf_2_4_6_8():
    m = ((2, 4), (6, 8))
    u, d, v = smith_normal_form(m)
    assert intmat.diagonal_of(d) == (2, 4)
    assert intmat.mat_eq(intmat.mul(intmat.mul(u, m), v), d)


def test_snf_remultiplication_and_unimodularity_random():
    rng = random.Random(1)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = tuple(tuple(rng.randint(-9, 9) for _ in range(cols)) for _ in range(rows))
        u, d, v = smith_normal_form(m)
        assert intmat.mat_eq(intmat.mul(intmat.mul(u, m), v), d)
        assert abs(intmat.determinant(u)) == 1
        assert abs(intmat.determinant(v)) == 1
        diag = [x for x in intmat.diagonal_of(d) if x]
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0


def test_hermite_lattice_membership_matches_solve():
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(0, 4)
        m = tuple(tuple(rng.randint(-5, 5) for _ in range(cols)) for _ in range(rows))
        h = intmat.column_lattice_basis(m)
        for _ in range(6):
            v = tuple(rng.randint(-8, 8) for _ in range(rows))
            assert intmat.hnf_member(h, v) == intmat.lattice_member(m, v)


# ---------------------------------------------------------------------------
# colimits


def coequalizer_instance():
    shape = parallel_pair_shape()
    a = finset("a", "b")
    b = finset("1", "2", "3")
    f = finset_map(a, b, {"a": "1", "b": "2"})
    g = finset_map(a, b, {"a": "2", "b": "2"})
    edges = {"id:s": identity_map(a), "id:t": identity_map(b), "f": f, "g": g}
    return FiniteDiagram(shape, {"s": a, "t": b}, edges), f, g


def test_single_node_colimit_is_identity():
    shape = poset_category(["u"], [])
    a = finset("x", "y")
    diag = FiniteDiagram(shape, {"u": a}, {"u<u": identity_map(a)})
    res = finite_colimit(diag)
    assert len(res.obj) == 2
    assert classify_map(res.cocone["u"]).iso


def test_finset_coequalizer_two_classes():
    diag, _, _ = coequalizer_instance()
    res = finite_colimit(diag)
    assert len(res.obj) == 2
    # classes {1,2} and {3}
    q = res.cocone["t"]
    assert q("1") == q("2") and q("1") != q("3")


def naive_closure_colimit(diag):
    """Oracle: fixed-point closure of the generated equivalence relation."""
    items = [(u, x) for u in sorted(diag.nodes) for x in diag.nodes[u].elements]
    related = {frozenset([i]) for i in items}

    def cls(partition, item):
        for blk in partition:
            if item in blk:
                return blk
        raise AssertionError

    partition = {frozenset([i]) for i in items}
    changed = True
    while changed:
        changed = False
        for m in diag.shape.morphisms:
            e = diag.edges[m.id]
            for x in e.src.elements:
                b1 = cls(partition, (m.src, x))
                b2 = cls(partition, (m.dst, e(x)))
                if b1 != b2:
                    partition.discard(b1)
                    partition.discard(b2)
                    partition.add(b1 | b2)
                    changed = True
    return partition


def test_union_find_matches_naive_closure_oracle():
    rng = random.Random(3)
    for _ in range(25):
        shape = parallel_pair_shape()
        a = finset(*[f"a{i}" for i in range(rng.randint(1, 3))])
        b = finset(*[f"b{i}" for i in range(rng.randint(1, 4))])
        f = finset_map(a, b, {x: rng.choice(b.elements) for x in a.elements})
        g = finset_map(a, b, {x: rng.choice(b.elements) for x in a.elements})
        diag = FiniteDiagram(shape, {"s": a, "t": b},
                             {"id:s": identity_map(a), "id:t": identity_map(b),
                              "f": f, "g": g})
        res = finite_colimit(diag)
        oracle = naive_closure_colimit(diag)
        assert len(res.obj) == len(oracle)
        # cocones constant on oracle blocks
        for blk in oracle:
            images = set()
            for (u, x) in blk:
                images.add(res.cocone[u](x))
            assert len(images) == 1


def test_finab_coequalizer_times2_vs_zero_is_z2():
    shape = parallel_pair_shape()
    z = free_ab(1)
    f = finab_map(z, z, ((2,),))
    g = finab_map(z, z, ((0,),))
    diag = FiniteDiagram(shape, {"s": z, "t": z},
                         {"id:s": identity_map(z), "id:t": identity_map(z),
                          "f": f, "g": g})
    res = finite_colimit(diag)
    assert res.obj.invariants() == ((2,), 0)


def test_colimit_universal_property_enumerated():
    # every competing cocone factors uniquely through the colimit (FinSet)
    diag, _, _ = coequalizer_instance()
    res = finite_colimit(diag)
    target = finset("p", "q")
    for t_map in hom_set(diag.nodes["t"], target):
        s_map = compose(t_map, diag.edges["f"])
        if not maps_equal(s_map, compose(t_map, diag.edges["g"])):
            continue  # not a cocone
        mediators = [
            h for h in hom_set(res.obj, target)
            if maps_equal(compose(h, res.cocone["t"]), t_map)
            and maps_equal(compose(h, res.cocone["s"]), s_map)
        ]
        assert len(mediators) == 1


def test_heterogeneous_diagram_rejected():
    shape = poset_category(["u", "v"], [("u", "v")])
    with pytest.raises(HeterogeneousDiagram):
        FiniteDiagram(shape, {"u": finset("x"), "v": free_ab(1)}, {})


# ---------------------------------------------------------------------------
# limits


def test_empty_limit_is_terminal():
    from finsite.category import FiniteCategory
    shape = FiniteCategory((), (), {}, {})
    res = finite_limit(FiniteDiagram(shape, {}, {}), FINSET)
    assert len(res.obj) == 1
    res_ab = finite_limit(FiniteDiagram(shape, {}, {}), FINAB)
    assert res_ab.obj.is_trivial()


def test_equalizer_of_parallel_pair():
    diag, f, g = coequalizer_instance()
    res = finite_limit(diag)
    # families (x, y) with f(x) = y = g(x): only x = b
    assert len(res.obj) == 1
    assert res.cone["s"](res.obj.elements[0]) == "b"


def test_finab_kernel_of_a_map_into_zero_is_the_source():
    src = FinAbObj(2, ((0,), (2,)))  # Z + Z/2
    f = finab_map(src, FinAbObj(0), ())
    k, incl = kernel(f)
    assert k.invariants() == ((2,), 1)
    assert classify_map(incl).iso
    assert not classify_map(f).mono


def test_finab_kernel_of_times_two_is_zero():
    z = free_ab(1)
    f = finab_map(z, z, ((2,),))
    k, _ = kernel(f)
    assert k.is_trivial()


def test_limit_universal_property_enumerated():
    diag, _, _ = coequalizer_instance()
    res = finite_limit(diag)
    probe = finset("p", "q")
    for s_map in hom_set(probe, diag.nodes["s"]):
        t_map = compose(diag.edges["f"], s_map)
        if not maps_equal(t_map, compose(diag.edges["g"], s_map)):
            continue
        mediators = [
            h for h in hom_set(probe, res.obj)
            if maps_equal(compose(res.cone["s"], h), s_map)
            and maps_equal(compose(res.cone["t"], h), t_map)
        ]
        assert len(mediators) == 1


# ---------------------------------------------------------------------------
# classification


def test_classify_identity():
    a = finset("x", "y")
    flags = classify_map(identity_map(a))
    assert flags.mono and flags.epi and flags.iso


def test_classify_times_two_on_z():
    f = finab_map(free_ab(1), free_ab(1), ((2,),))
    flags = classify_map(f)
    assert flags.mono and not flags.epi
    c, _ = cokernel(f)
    assert c.invariants() == ((2,), 0)


def test_classify_surjection_not_mono():
    a, b = finset("1", "2", "3"), finset("1", "2")
    f = finset_map(a, b, {"1": "1", "2": "2", "3": "2"})
    flags = classify_map(f)
    assert flags.epi and not flags.mono


# ---------------------------------------------------------------------------
# pairings


def test_set_pairings_singleton_is_identity_like():
    g = finset("x", "y")
    p = set_pairings(g, finset("z"))
    assert len(p.tensor) == 2 and len(p.power) == 2


def test_set_pairings_counts():
    g = finset("x", "y")
    p = set_pairings(g, finset("1", "2"))
    assert len(p.tensor) == 4
    assert len(p.power) == 4


def test_ab_pairings_biproduct():
    p = set_pairings(free_ab(1), finset("1", "2", "3"))
    assert p.tensor.invariants() == ((), 3)
    assert p.power.invariants() == ((), 3)
    assert not maps_equal(p.injections[0], p.injections[1])


def _constant_set_diagram(shape, obj):
    edges = {m.id: identity_map(obj) for m in shape.morphisms}
    return FiniteDiagram(shape, {u: obj for u in shape.objects}, edges)


def test_end_coend_terminal_shape():
    shape = poset_category(["u"], [])
    a = _constant_set_diagram(shape, finset("x", "y"))
    b = _constant_set_diagram(shape, finset("1", "2"))
    f = _constant_set_diagram(shape, finset("z"))
    pairs = functor_pairings(a, b, f)
    assert len(pairs.end) == 4      # Hom(2, 2)
    assert len(pairs.coend) == 2    # 2 x 1


def _representable_diagram(shape, site_obj):
    # h^W over a poset shape: value 1 where W <= U
    nodes = {}
    for u in shape.objects:
        present = shape.has_morphism(f"{site_obj}<{u}")
        nodes[u] = finset(*(["m"] if present else []))
    edges = {}
    for m in shape.morphisms:
        edges[m.id] = finset_map(nodes[m.src], nodes[m.dst],
                                 {x: "m" for x in nodes[m.src].elements})
    return FiniteDiagram(shape, nodes, edges)


def test_covariant_yoneda_on_two_object_poset():
    shape = two_object_shape()
    h_s = _representable_diagram(shape, "s")  # h^s has value 1 everywhere
    for a_sizes in itertools.product([1, 2], repeat=2):
        nodes = {"s": finset(*[f"s{i}" for i in range(a_sizes[0])]),
                 "t": finset(*[f"t{i}" for i in range(a_sizes[1])])}
        for table in hom_set(nodes["s"], nodes["t"]):
            edges = {"s<s": identity_map(nodes["s"]),
                     "t<t": identity_map(nodes["t"]), "s<t": table}
            a = FiniteDiagram(shape, nodes, edges)
            f = _constant_set_diagram(shape, finset("z"))
            pairs = functor_pairings(a, h_s, f)
            # natural transformations h^s -> A correspond to A(s)
            assert len(pairs.end) == len(nodes["s"])


def test_hom_tensor_adjunction_cardinalities():
    # |Nat(B x G, A)| == |Hom(G, end(B, A))| on a 2-object poset
    shape = two_object_shape()
    g = finset("g0", "g1")
    b_nodes = {"s": finset("b0"), "t": finset("b0", "b1")}
    b_edges = {"s<s": identity_map(b_nodes["s"]), "t<t": identity_map(b_nodes["t"]),
               "s<t": finset_map(b_nodes["s"], b_nodes["t"], {"b0": "b0"})}
    b = FiniteDiagram(shape, b_nodes, b_edges)
    a_nodes = {"s": finset("a0", "a1"), "t": finset("a0")}
    a_edges = {"s<s": identity_map(a_nodes["s"]), "t<t": identity_map(a_nodes["t"]),
               "s<t": finset_map(a_nodes["s"], a_nodes["t"], {"a0": "a0", "a1": "a0"})}
    a = FiniteDiagram(shape, a_nodes, a_edges)
    # B (x) G objectwise
    bg_nodes = {u: finset(*(f"{x}:{y}" for x in b_nodes[u].elements for y in g.elements))
                for u in shape.objects}
    bg_edges = {}
    for m in shape.morphisms:
        e = b_edges[m.id]
        bg_edges[m.id] = finset_map(
            bg_nodes[m.src], bg_nodes[m.dst],
            {f"{x}:{y}": f"{e(x)}:{y}" for x in e.src.elements for y in g.elements})
    lhs = 0
    for fs in hom_set(bg_nodes["s"], a_nodes["s"]):
        for ft in hom_set(bg_nodes["t"], a_nodes["t"]):
            if maps_equal(compose(ft, bg_edges["s<t"]), compose(a_edges["s<t"], fs)):
                lhs += 1
    f_triv = _constant_set_diagram(shape, finset("z"))
    end = functor_pairings(a, b, f_triv).end
    rhs = len(end) ** len(g)
    assert lhs == rhs


def test_finab_colimit_cocone_commutes_randomized():
    rng = random.Random(9)
    shape = parallel_pair_shape()
    for _ in range(15):
        src = free_ab(rng.randint(0, 2))
        dst = rng.choice([free_ab(rng.randint(1, 2)), cyclic(rng.choice([2, 3]))])
        def rand_map():
            rows = [[rng.randint(-2, 2) for _ in range(src.rank)]
                    for _ in range(dst.rank)]
            return finab_map(src, dst, rows)
        f, g = rand_map(), rand_map()
        diag = FiniteDiagram(parallel_pair_shape(), {"s": src, "t": dst},
                             {"id:s": identity_map(src), "id:t": identity_map(dst),
                              "f": f, "g": g})
        res = finite_colimit(diag)
        for m in diag.shape.morphisms:
            left = compose(res.cocone[m.dst], diag.edges[m.id])
            assert maps_equal(left, res.cocone[m.src])
