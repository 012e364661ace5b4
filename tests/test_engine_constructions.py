"""Coproducts, products, pairings and tower images built with the engine's
own finite (co)limit and kernel code, checked against laws that do not share
that code (direct sums, Yoneda, co-Yoneda) and against the hand-assembled
block-matrix versions they replaced, kept here as references."""

import random

import pytest

from finsite import intmat, values
from finsite.category import FiniteCategory, Morphism, poset_category
from finsite.cosheaf import (constant_precosheaf, coproduct, cosheafify, objectwise_cokernel,
                             objectwise_kernel)
from finsite.errors import EngineError
from finsite.randsuite import random_finab_morphism, random_finab_precosheaf, random_site
from finsite.sheaf import Presheaf, opposite_category, presheaf_product
from finsite.spaces import converging_sequence_site
from finsite.towers import Tower, is_rudimentary_at_depth
from finsite.values import (FinAbMap, FinAbObj, FiniteDiagram, block_relations,
                            classify_map, cokernel, commutes, compose, cyclic, direct_sum,
                            finab_map, finset, finset_map, free_ab, functor_pairings,
                            identity_map, kernel)

# ---------------------------------------------------------------------------
# coproducts and products


def test_coproduct_keeps_every_tower_level():
    spec = converging_sequence_site(8)
    point = constant_precosheaf(spec, finset("*"), 4)
    x = cosheafify(point, 4).precosheaf
    assert [len(lv) for lv in x.values["X"].levels] == [2, 3, 4, 5, 6]
    both = coproduct(x, point)
    assert [len(lv) for lv in both.values["X"].levels] == [k + 3 for k in range(5)]


@pytest.mark.parametrize("seed", range(8))
def test_finab_coproduct_values_are_direct_sums(seed):
    rng = random.Random(seed)
    spec = random_site(rng)
    a = random_finab_precosheaf(spec, rng, 1)
    b = random_finab_precosheaf(spec, rng, 1)
    both = coproduct(a, b)
    for u in spec.category.objects:
        for j in range(2):
            want = direct_sum([a.values[u].levels[j], b.values[u].levels[j]])
            assert both.values[u].levels[j].invariants() == want.invariants()


# Z, Z/2, and Z^2 modulo (1, 2), whose ±1 relation entry the colimit reduces away
CONSTANTS = [free_ab(1), cyclic(2), FinAbObj(2, ((1,), (2,)))]


@pytest.mark.parametrize("g", CONSTANTS)
@pytest.mark.parametrize("h", CONSTANTS)
def test_finab_coproduct_of_constant_precosheaves(g, h):
    spec = random_site(random.Random(3))
    both = coproduct(constant_precosheaf(spec, g), constant_precosheaf(spec, h))
    want = direct_sum([g, h]).invariants()
    for u in spec.category.objects:
        assert both.values[u].levels[0].invariants() == want


def _constant_presheaf(spec, g):
    return Presheaf(spec, "finab", {u: g for u in spec.category.objects},
                    {m.id: identity_map(g) for m in spec.category.morphisms})


@pytest.mark.parametrize("g", CONSTANTS)
@pytest.mark.parametrize("h", CONSTANTS)
def test_finab_presheaf_product_values_are_direct_sums(g, h):
    spec = random_site(random.Random(5))
    prod = presheaf_product(_constant_presheaf(spec, g), _constant_presheaf(spec, h))
    want = direct_sum([g, h]).invariants()
    for u in spec.category.objects:
        assert prod.values[u].invariants() == want
        for m in spec.category.morphisms:
            assert classify_map(prod.action[m.id]).iso


def test_finset_presheaf_product_labels_families():
    spec = random_site(random.Random(5))
    g, h = finset("x", "y"), finset("z")
    sets = [Presheaf(spec, "finset", {u: s for u in spec.category.objects},
                     {m.id: identity_map(s) for m in spec.category.morphisms})
            for s in (g, h)]
    prod = presheaf_product(*sets)
    for u in spec.category.objects:
        assert prod.values[u].elements == ("(a=x,b=z)", "(a=y,b=z)")


# ---------------------------------------------------------------------------
# ends and coends


def _parallel_pair():
    morphs = (Morphism("id:s", "s", "s"), Morphism("id:t", "t", "t"),
              Morphism("f", "s", "t"), Morphism("g", "s", "t"))
    return FiniteCategory(("s", "t"), morphs, {"s": "id:s", "t": "id:t"}, {})


SHAPES = {
    "two": poset_category(["s", "t"], [("s", "t")]),
    "chain": poset_category(["s", "t", "u"], [("s", "t"), ("t", "u")]),
    "vee": poset_category(["s", "t", "u"], [("s", "u"), ("t", "u")]),
    "wedge": poset_category(["s", "t", "u"], [("s", "t"), ("s", "u")]),
    "parallel": _parallel_pair(),
}

FINAB_POOL = [free_ab(0), free_ab(1), free_ab(2), cyclic(2), cyclic(3), cyclic(4),
              FinAbObj(2, ((2,), (0,)))]


def _random_map(rng, src, dst):
    if isinstance(src, FinAbObj):
        for _ in range(20):
            rows = [[rng.randint(-2, 2) for _ in range(src.rank)] for _ in range(dst.rank)]
            try:
                return finab_map(src, dst, rows)
            except EngineError:
                continue
        return finab_map(src, dst, [[0] * src.rank for _ in range(dst.rank)])
    return finset_map(src, dst, {x: rng.choice(dst.elements) for x in src.elements})


def _random_functor(rng, shape, nodes):
    """A random functor with the given values: the non-identity morphisms
    that are no composite of two others get random maps."""
    nonid = [m for m in shape.morphisms if m.id != shape.id_of(m.src)]
    factor = {}
    for m in nonid:
        for g in nonid:
            for f in nonid:
                if f.dst == g.src and shape.compose(g.id, f.id) == m.id:
                    factor.setdefault(m.id, (g.id, f.id))
    edges = {shape.id_of(u): identity_map(nodes[u]) for u in shape.objects}
    for m in nonid:
        if m.id not in factor:
            edges[m.id] = _random_map(rng, nodes[m.src], nodes[m.dst])
    for m in nonid:
        if m.id in factor:
            g, f = factor[m.id]
            edges[m.id] = compose(edges[g], edges[f])
    return FiniteDiagram(shape, nodes, edges)


def _random_values(rng, shape, finab):
    if finab:
        return {u: rng.choice(FINAB_POOL) for u in shape.objects}
    return {u: finset(*(f"x{i}" for i in range(rng.randint(1, 3)))) for u in shape.objects}


def _representable(shape, s, contravariant):
    """Hom(s, -) on the shape, or Hom(-, s) on its opposite."""
    if contravariant:
        nodes = {u: finset(*(m.id for m in shape.hom(u, s))) for u in shape.objects}
        edges = {m.id: finset_map(nodes[m.dst], nodes[m.src],
                                  {h: shape.compose(h, m.id) for h in nodes[m.dst].elements})
                 for m in shape.morphisms}
        return FiniteDiagram(opposite_category(shape), nodes, edges)
    nodes = {u: finset(*(m.id for m in shape.hom(s, u))) for u in shape.objects}
    edges = {m.id: finset_map(nodes[m.src], nodes[m.dst],
                              {g: shape.compose(m.id, g) for g in nodes[m.src].elements})
             for m in shape.morphisms}
    return FiniteDiagram(shape, nodes, edges)


def _size(obj):
    return obj.invariants() if isinstance(obj, FinAbObj) else len(obj)


@pytest.mark.parametrize("finab", [False, True])
@pytest.mark.parametrize("name", sorted(SHAPES))
def test_yoneda_and_co_yoneda(name, finab):
    shape = SHAPES[name]
    rng = random.Random(f"{name}-{finab}")
    for _ in range(4):
        a = _random_functor(rng, shape, _random_values(rng, shape, finab))
        for s in shape.objects:
            hom_s = _representable(shape, s, contravariant=False)
            hom_to_s = _representable(shape, s, contravariant=True)
            assert _size(functor_pairings(a, hom_s, hom_to_s).end) == _size(a.nodes[s])
            assert _size(functor_pairings(a, hom_s, hom_to_s).coend) == _size(a.nodes[s])


def _reference_ab_pairings(g, z):
    """The block-matrix tensor = power of |Z| copies of G, with its
    injections and projections in Z order."""
    n, count = g.rank, len(z.elements)
    big = direct_sum([g] * count)
    injections, projections = [], []
    for b in range(count):
        inj = [[0] * n for _ in range(n * count)]
        proj = [[0] * (n * count) for _ in range(n)]
        for i in range(n):
            inj[b * n + i][i] = 1
            proj[i][b * n + i] = 1
        injections.append(FinAbMap(g, big, intmat.freeze(inj)))
        projections.append(FinAbMap(big, g, intmat.freeze(proj)))
    return big, injections, projections


def _from_columns(rank, columns):
    return FinAbObj(rank, tuple(tuple(c[i] for c in columns) for i in range(rank)) if columns else ())


def _reference_finab_pairings(a, b, f):
    """End and coend of abelian-valued `a`, assembled as the kernel of a
    hand-built difference matrix and the cokernel of hand-built columns."""
    shape = a.shape
    nodes = sorted(shape.objects)
    powers = {u: _reference_ab_pairings(a.nodes[u], b.nodes[u]) for u in nodes}
    starts, total, prod_rels = block_relations([powers[u][0] for u in nodes])
    offsets = dict(zip(nodes, starts))
    rows, tgt_blocks = [], []
    for m in shape.morphisms:
        am, bm = a.edges[m.id], b.edges[m.id]
        for bi, belem in enumerate(b.nodes[m.src].elements):
            tgt_blocks.append(a.nodes[m.dst])
            for i in range(a.nodes[m.dst].rank):
                row = [0] * total
                comp = compose(am, powers[m.src][2][bi])
                for jj in range(powers[m.src][0].rank):
                    row[offsets[m.src] + jj] += comp.matrix[i][jj]
                dst_proj = powers[m.dst][2][b.nodes[m.dst].elements.index(bm(belem))]
                for jj in range(powers[m.dst][0].rank):
                    row[offsets[m.dst] + jj] -= dst_proj.matrix[i][jj]
                rows.append(row)
    delta = FinAbMap(_from_columns(total, prod_rels), direct_sum(tgt_blocks), intmat.freeze(rows))
    end, _ = kernel(delta)
    tensors = {u: _reference_ab_pairings(a.nodes[u], f.nodes[u]) for u in nodes}
    starts, ctotal, rel_cols = block_relations([tensors[u][0] for u in nodes])
    coffsets = dict(zip(nodes, starts))
    for m in shape.morphisms:
        am, fm = a.edges[m.id], f.edges[m.id]
        for y in f.nodes[m.dst].elements:
            inj_src = tensors[m.src][1][f.nodes[m.src].elements.index(fm(y))]
            pushed = compose(tensors[m.dst][1][f.nodes[m.dst].elements.index(y)], am)
            for g in range(a.nodes[m.src].rank):
                col = [0] * ctotal
                for i in range(tensors[m.src][0].rank):
                    col[coffsets[m.src] + i] += inj_src.matrix[i][g]
                for i in range(tensors[m.dst][0].rank):
                    col[coffsets[m.dst] + i] -= pushed.matrix[i][g]
                rel_cols.append(col)
    return end, _from_columns(ctotal, rel_cols)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_finab_pairings_match_block_matrix_reference(name):
    shape = SHAPES[name]
    rng = random.Random(name)
    for _ in range(8):
        a = _random_functor(rng, shape, _random_values(rng, shape, True))
        b = _random_functor(rng, shape, _random_values(rng, shape, False))
        f = _random_functor(rng, opposite_category(shape),
                            _random_values(rng, shape, False))
        got = functor_pairings(a, b, f)
        end, coend = _reference_finab_pairings(a, b, f)
        assert got.end.invariants() == end.invariants()
        assert got.coend.invariants() == coend.invariants()


# ---------------------------------------------------------------------------
# the rudimentary image tower


def _reference_images(x, d):
    """Images of X_d in each X_k by their own nullspace, rank-0 levels apart."""
    images = []
    n = x.levels[d].rank
    for k in range(d + 1):
        if x.levels[k].rank == 0:
            images.append(FinAbObj(n, intmat.identity(n)))
            continue
        comp = x.bond_composite(d, k)
        lat = x.levels[k].relation_matrix()
        stacked = intmat.hstack(comp.matrix, intmat.neg(lat)) if intmat.shape(lat)[1] else comp.matrix
        null = intmat.nullspace(stacked)
        rel = tuple(row[: intmat.shape(null)[1]] for row in null[:n]) if null else ()
        images.append(FinAbObj(n, rel if rel and intmat.shape(rel)[1] else ()))
    return images


def _random_tower(rng, depth):
    levels = [rng.choice(FINAB_POOL) for _ in range(depth + 1)]
    bonds = [_random_map(rng, levels[k + 1], levels[k]) for k in range(depth)]
    return Tower(tuple(levels), tuple(bonds))


@pytest.mark.parametrize("seed", range(10))
def test_finab_rudimentary_matches_nullspace_reference(seed):
    rng = random.Random(seed)
    for _ in range(6):
        depth = rng.randint(1, 5)
        x = _random_tower(rng, depth)
        window = rng.randint(1, 3)
        images = _reference_images(x, depth)
        w = min(window, depth)
        iso = all(classify_map(FinAbMap(images[k + 1], images[k],
                                        intmat.identity(images[k + 1].rank))).iso
                  for k in range(depth - w, depth))
        verdict = is_rudimentary_at_depth(x, depth, window)
        assert verdict.profile == tuple(img.invariants() for img in images)
        assert verdict.rudimentary == iso


def test_rudimentary_sees_a_rank_zero_level():
    z, zero = free_ab(1), free_ab(0)
    t = Tower((zero, z, z, z), (FinAbMap(z, zero, ()), identity_map(z), identity_map(z)))
    verdict = is_rudimentary_at_depth(t, 3, 3)
    assert verdict.profile == tuple(img.invariants() for img in _reference_images(t, 3))
    assert not verdict.rudimentary


@pytest.mark.parametrize("depth", [1, 3, 5])
def test_rudimentary_verdict_computes_each_kernel_once(monkeypatch, depth):
    """The verdict reads the profile: one kernel per image X_depth -> X_k."""
    rng = random.Random(depth)
    towers = [_random_tower(rng, depth) for _ in range(4)]
    towers.append(Tower.constant(free_ab(2), depth))
    calls = []
    real = values.kernel

    def counting(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(values, "kernel", counting)
    for x in towers:
        calls.clear()
        is_rudimentary_at_depth(x, depth, 3)
        assert len(calls) == depth + 1


# ---------------------------------------------------------------------------
# objectwise kernels and cokernels


def _hand_levelwise(f, part):
    """Per object, the kernel or cokernel (object, map) of each component."""
    return {u: [part(c) for c in lm.components] for u, lm in f.components.items()}


@pytest.mark.parametrize("seed", range(12))
def test_objectwise_kernel_and_cokernel_match_hand_built_levelwise(seed):
    """Levels are the levelwise kernels and cokernels; the kernel's bonds and
    actions are the source's restricted along the (mono) inclusions, the
    cokernel's the target's pushed along the (epi) projections, and the
    cokernel keeps the target's matrices."""
    rng = random.Random(seed)
    spec = converging_sequence_site(4) if seed % 2 else random_site(rng)
    f = random_finab_morphism(spec, rng, 1 + seed % 3)
    cat = spec.category
    ker, coker = objectwise_kernel(f), objectwise_cokernel(f)
    for got, part, outer in ((ker, kernel, f.src), (coker, cokernel, f.dst)):
        hand = _hand_levelwise(f, part)
        mono = part is kernel
        for u in cat.objects:
            assert got.values[u].levels == tuple(obj for obj, _ in hand[u])
        arrows = [(got.values[u].bonds[j], outer.values[u].bonds[j], hand[u][j + 1][1],
                   hand[u][j][1]) for u in cat.objects for j in range(f.src.depth)]
        arrows += [(got.action[m.id].components[j], outer.action[m.id].components[j],
                    hand[m.src][j][1], hand[m.dst][j][1])
                   for m in cat.morphisms for j in range(f.src.depth + 1)]
        for induced, g, at_src, at_dst in arrows:
            if mono:
                assert commutes(at_dst, induced, g, at_src)
            else:
                assert commutes(induced, at_src, at_dst, g)
                assert induced.matrix == g.matrix


# ---------------------------------------------------------------------------
# matrices are frozen at the boundary


def test_finabmap_takes_only_tuples_of_row_tuples():
    z2 = free_ab(2)
    for bad in ([[1, 0], [0, 1]], ([1, 0], [0, 1]), ((1, 0), (0,)), ((1, 0),)):
        with pytest.raises(EngineError):
            FinAbMap(z2, z2, bad)
    assert finab_map(z2, z2, [[1, 0], [0, 1]]).matrix == ((1, 0), (0, 1))
