"""The two concrete value categories: finite sets and finitely generated
abelian groups presented by integer relation matrices.

Finite (co)limits are exact: union-find / filtered products on the set side,
Smith-normal-form kernels and cokernels on the abelian side.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping

from . import intmat
from .category import FiniteCategory
from .errors import EngineError, HeterogeneousDiagram

FINSET = "finset"
FINAB = "finab"


# ---------------------------------------------------------------------------
# finite sets


@dataclass(frozen=True)
class FinSetObj:
    elements: tuple[str, ...]
    element_set: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        element_set = frozenset(self.elements)
        if len(element_set) != len(self.elements):
            raise EngineError("duplicate elements in a finite set")
        object.__setattr__(self, "elements", tuple(sorted(self.elements)))
        object.__setattr__(self, "element_set", element_set)

    def __len__(self):
        return len(self.elements)


@dataclass(frozen=True)
class FinSetMap:
    src: FinSetObj
    dst: FinSetObj
    table: tuple[tuple[str, str], ...]
    _lookup: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mapping = dict(self.table)
        if mapping.keys() != self.src.element_set:
            raise EngineError("function table is not total on its source")
        targets = self.dst.element_set
        for v in mapping.values():
            try:
                inside = v in targets
            except TypeError:  # unhashable, so no element
                inside = False
            if not inside:
                raise EngineError(f"function value {v!r} outside the target")
        items = sorted(mapping.items())
        object.__setattr__(self, "table", tuple(items))
        object.__setattr__(self, "_lookup", dict(items))

    @property
    def mapping(self) -> dict[str, str]:
        return dict(self._lookup)

    def __call__(self, x: str) -> str:
        return self._lookup[x]


def finset(*elements: str) -> FinSetObj:
    return FinSetObj(tuple(elements))


def finset_map(src: FinSetObj, dst: FinSetObj, mapping: Mapping[str, str]) -> FinSetMap:
    return FinSetMap(src, dst, tuple(mapping.items()))


def hom_set(src: FinSetObj, dst: FinSetObj) -> list[FinSetMap]:
    """All functions src -> dst, in deterministic order."""
    if not src.elements:
        return [FinSetMap(src, dst, ())]
    out = []
    for values in itertools.product(dst.elements, repeat=len(src.elements)):
        out.append(FinSetMap(src, dst, tuple(zip(src.elements, values))))
    return out


# ---------------------------------------------------------------------------
# finitely generated abelian groups


@dataclass(frozen=True)
class FinAbObj:
    """Z^rank modulo the integer column span of `relations` (rank rows).

    Zero and duplicate relation columns are pruned at construction, so the
    stored presentation is a deterministic function of the input."""

    rank: int
    relations: intmat.Matrix = ()

    def __post_init__(self):
        rel = intmat.freeze(self.relations) if self.relations else ()
        if rel and len(rel) != self.rank:
            raise EngineError("relation matrix must have one row per generator")
        if rel and self.rank == 0:
            rel = ()
        if rel:
            rel = intmat.column_lattice_basis(intmat.prune_columns(rel))
            if rel and not rel[0]:
                rel = ()
        object.__setattr__(self, "relations", rel)

    def relation_matrix(self) -> intmat.Matrix:
        if self.relations:
            return self.relations
        return tuple(() for _ in range(self.rank))

    def lattice_contains(self, vec) -> bool:
        """Membership in the relation lattice (stored in Hermite form)."""
        if not self.relations:
            return all(x == 0 for x in vec)
        return intmat.hnf_member(self.relations, vec)

    def invariants(self) -> tuple[tuple[int, ...], int]:
        """(torsion factors > 1 in divisibility order, free rank)."""
        rel = self.relation_matrix()
        if self.rank == 0:
            return ((), 0)
        if not rel or intmat.shape(rel)[1] == 0:
            return ((), self.rank)
        _, d, _ = intmat.smith_normal_form(rel)
        diag = [x for x in intmat.diagonal_of(d) if x != 0]
        torsion = tuple(x for x in diag if x > 1)
        return (torsion, self.rank - len(diag))

    def is_trivial(self) -> bool:
        t, f = self.invariants()
        return not t and f == 0


@dataclass(frozen=True)
class FinAbMap:
    """Integer matrix between generator spaces.

    Construction checks only the shape; use finab_map() at trust boundaries
    to verify that the matrix carries source relations into the target
    relation lattice (compositions and block assemblies of well-defined maps
    are well defined and skip that solve)."""

    src: FinAbObj
    dst: FinAbObj
    matrix: intmat.Matrix

    def __post_init__(self):
        m = intmat.freeze(self.matrix) if self.matrix else tuple(() for _ in range(self.dst.rank))
        if len(m) != self.dst.rank or (m and any(len(r) != self.src.rank for r in m)):
            raise EngineError("matrix shape does not match generator counts")
        object.__setattr__(self, "matrix", m)

    def is_well_defined(self) -> bool:
        srel = self.src.relation_matrix()
        ncols = intmat.shape(srel)[1]
        if not ncols or not self.dst.rank:
            return True
        image = intmat.mul(self.matrix, srel)
        return all(
            self.dst.lattice_contains(intmat.column(image, j)) for j in range(ncols)
        )


def finab_map(src: FinAbObj, dst: FinAbObj, matrix) -> FinAbMap:
    f = FinAbMap(src, dst, intmat.freeze(matrix))
    if not f.is_well_defined():
        raise EngineError("matrix does not carry source relations into target relations")
    return f


def free_ab(n: int) -> FinAbObj:
    return FinAbObj(n, ())


def cyclic(m: int) -> FinAbObj:
    return FinAbObj(1, ((m,),))


def kernel(f: FinAbMap) -> tuple[FinAbObj, FinAbMap]:
    """Kernel presentation and its inclusion into the source."""
    n = f.src.rank
    dl = f.dst.relation_matrix()
    stacked = intmat.hstack(f.matrix, intmat.neg(dl)) if intmat.shape(dl)[1] else f.matrix
    if n == 0:
        k = FinAbObj(0)
        return k, FinAbMap(k, f.src, tuple(() for _ in range(n)))
    null = intmat.nullspace(stacked)
    gens = tuple(row[: intmat.shape(null)[1]] for row in null[:n]) if null else tuple(() for _ in range(n))
    t = intmat.shape(gens)[1] if gens else 0
    sl = f.src.relation_matrix()
    if t == 0:
        k = FinAbObj(0)
        return k, FinAbMap(k, f.src, tuple(() for _ in range(n)))
    stacked2 = intmat.hstack(gens, intmat.neg(sl)) if intmat.shape(sl)[1] else gens
    null2 = intmat.nullspace(stacked2)
    rel = tuple(row[: intmat.shape(null2)[1]] for row in null2[:t]) if null2 else ()
    k = FinAbObj(t, rel if rel and intmat.shape(rel)[1] else ())
    return k, FinAbMap(k, f.src, gens)


def cokernel(f: FinAbMap) -> tuple[FinAbObj, FinAbMap]:
    """Cokernel presentation and the projection from the target."""
    rel = intmat.hstack(f.dst.relation_matrix(), f.matrix)
    c = FinAbObj(f.dst.rank, rel if intmat.shape(rel)[1] else ())
    return c, FinAbMap(f.dst, c, intmat.identity(f.dst.rank))


# ---------------------------------------------------------------------------
# category-agnostic helpers


def category_of(obj) -> str:
    if isinstance(obj, FinSetObj):
        return FINSET
    if isinstance(obj, FinAbObj):
        return FINAB
    raise EngineError(f"not a value object: {obj!r}")


def identity_map(obj):
    if isinstance(obj, FinSetObj):
        return FinSetMap(obj, obj, tuple((x, x) for x in obj.elements))
    return FinAbMap(obj, obj, intmat.identity(obj.rank))


def compose(g, f):
    """g ∘ f (apply f first)."""
    if isinstance(f, FinSetMap):
        return FinSetMap(f.src, g.dst, tuple((x, g(f(x))) for x in f.src.elements))
    if g.dst.rank == 0 or f.src.rank == 0 or f.dst.rank == 0:
        # factoring through a trivial group: the zero map of the right shape
        return FinAbMap(f.src, g.dst, intmat.zeros(g.dst.rank, f.src.rank))
    return FinAbMap(f.src, g.dst, intmat.mul(g.matrix, f.matrix))


def maps_equal(f, g) -> bool:
    """Equality as morphisms (FinAb: congruence modulo target relations)."""
    if f.src != g.src or f.dst != g.dst:
        return False
    if isinstance(f, FinSetMap):
        return f.table == g.table
    diff = intmat.sub(f.matrix, g.matrix)
    if intmat.is_zero(diff):
        return True
    return all(f.dst.lattice_contains(intmat.column(diff, j)) for j in range(f.src.rank))


def is_zero_map(f: FinAbMap) -> bool:
    if intmat.is_zero(f.matrix):
        return True
    return all(f.dst.lattice_contains(intmat.column(f.matrix, j)) for j in range(f.src.rank))


def initial_object(category: str):
    return finset() if category == FINSET else FinAbObj(0)


def terminal_object(category: str):
    return finset("*") if category == FINSET else FinAbObj(0)


def unique_map_from_initial(category: str, dst):
    if category == FINSET:
        return FinSetMap(finset(), dst, ())
    return FinAbMap(FinAbObj(0), dst, tuple(() for _ in range(dst.rank)))


@dataclass(frozen=True)
class MapFlags:
    mono: bool
    epi: bool

    @property
    def iso(self) -> bool:
        return self.mono and self.epi


def classify_map(f) -> MapFlags:
    if isinstance(f, FinSetMap):
        values = [f(x) for x in f.src.elements]
        return MapFlags(len(set(values)) == len(values), set(values) == set(f.dst.elements))
    k, _ = kernel(f)
    c, _ = cokernel(f)
    return MapFlags(k.is_trivial(), c.is_trivial())


# ---------------------------------------------------------------------------
# finite diagrams and their (co)limits


@dataclass(frozen=True)
class FiniteDiagram:
    """A functor from a finite shape category into one value category.

    `edges` must cover every shape morphism (identities included) and respect
    the composition table exactly.  Construction verifies this; internal
    callers that derive diagrams from already-validated functors may pass
    trusted=True to skip the quadratic functoriality sweep.
    """

    shape: FiniteCategory
    nodes: Mapping[str, object]
    edges: Mapping[str, object]
    trusted: bool = False

    def __post_init__(self):
        cats = {category_of(v) for v in self.nodes.values()}
        if len(cats) > 1:
            raise HeterogeneousDiagram("heterogeneous diagram")
        for m in self.shape.morphisms:
            e = self.edges.get(m.id)
            if e is None:
                raise EngineError(f"diagram misses edge {m.id!r}")
            if e.src != self.nodes[m.src] or e.dst != self.nodes[m.dst]:
                raise EngineError(f"edge {m.id!r} has wrong endpoints")
        if self.trusted:
            return
        for u in self.shape.objects:
            if not maps_equal(self.edges[self.shape.id_of(u)], identity_map(self.nodes[u])):
                raise EngineError(f"identity of {u!r} is not the identity map")
        for g in self.shape.morphisms:
            for f in self.shape.morphisms:
                if f.dst != g.src:
                    continue
                gf = self.shape.compose(g.id, f.id)
                if not maps_equal(self.edges[gf], compose(self.edges[g.id], self.edges[f.id])):
                    raise EngineError(f"diagram not functorial on ({g.id},{f.id})")

    def category(self) -> str | None:
        for v in self.nodes.values():
            return category_of(v)
        return None


@dataclass(frozen=True)
class ColimitResult:
    obj: object
    cocone: Mapping[str, object]
    # FinAb assembly data: colimit presentations are Tietze-reduced, and maps
    # out of the colimit are assembled blockwise on the unreduced generators
    # and then pushed through `embed` (kept-generator selection matrix).
    offsets: Mapping[str, int] | None = None
    embed: intmat.Matrix | None = None
    unreduced_rank: int | None = None


def finab_out_map(level: ColimitResult, node_matrices: Mapping[str, object], dst: FinAbObj) -> FinAbMap:
    """Map out of a reduced FinAb colimit from per-node matrices."""
    n0 = level.unreduced_rank
    m1 = [[0] * n0 for _ in range(dst.rank)]
    for node, mtx in node_matrices.items():
        off = level.offsets[node]
        ncols = len(mtx[0]) if mtx and len(mtx) else 0
        for g in range(ncols):
            for i in range(dst.rank):
                m1[i][off + g] = mtx[i][g]
    reduced = intmat.mul(intmat.freeze(m1) if m1 else (), level.embed)
    return FinAbMap(level.obj, dst, reduced)


@dataclass(frozen=True)
class LimitResult:
    obj: object
    cone: Mapping[str, object]
    # decoding data for maps INTO the limit:
    families: Mapping[str, Mapping[str, str]] | None = None  # FinSet: element -> node family
    incl: object | None = None       # FinAb: kernel inclusion into the product
    product: object | None = None    # FinAb: the ambient product object
    offsets: Mapping[str, int] | None = None


def _union_find_classes(items, pairs):
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra
    groups = {}
    for x in items:
        groups.setdefault(find(x), []).append(x)
    return groups


def finite_colimit(diagram: FiniteDiagram, category: str | None = None) -> ColimitResult:
    cat = diagram.category() or category
    if cat is None:
        raise EngineError("empty diagram needs an explicit value category")
    nodes = sorted(diagram.nodes)
    if cat == FINSET:
        items = [(u, x) for u in nodes for x in diagram.nodes[u].elements]
        pairs = []
        for m in diagram.shape.morphisms:
            e = diagram.edges[m.id]
            for x in e.src.elements:
                pairs.append(((m.src, x), (m.dst, e(x))))
        groups = _union_find_classes(items, pairs)
        reps = sorted(groups)
        label = {rep: f"q{i}" for i, rep in enumerate(reps)}
        cls = {}
        for rep, members in groups.items():
            for mem in members:
                cls[mem] = label[rep]
        obj = FinSetObj(tuple(label.values()))
        cocone = {
            u: FinSetMap(diagram.nodes[u], obj, tuple((x, cls[(u, x)]) for x in diagram.nodes[u].elements))
            for u in nodes
        }
        return ColimitResult(obj, cocone)
    # FinAb: cokernel of the difference map into the node direct sum, with the
    # presentation Tietze-reduced before anything downstream sees it.
    offsets = {}
    total = 0
    for u in nodes:
        offsets[u] = total
        total += diagram.nodes[u].rank
    rel_cols = []
    for u in nodes:
        r = diagram.nodes[u].relation_matrix()
        for j in range(intmat.shape(r)[1]):
            col = [0] * total
            for i in range(diagram.nodes[u].rank):
                col[offsets[u] + i] = r[i][j]
            rel_cols.append(col)
    for m in sorted(diagram.edges):
        mor = diagram.shape.morphism(m)
        e = diagram.edges[m]
        if mor.src == mor.dst and m == diagram.shape.id_of(mor.src):
            continue  # identity edges contribute zero columns
        for g in range(e.src.rank):
            col = [0] * total
            col[offsets[mor.src] + g] -= 1
            for i in range(e.dst.rank):
                col[offsets[mor.dst] + i] += e.matrix[i][g]
            rel_cols.append(col)
    relations = tuple(tuple(c[i] for c in rel_cols) for i in range(total)) if rel_cols else ()
    relations = intmat.prune_columns(relations) if rel_cols else ()
    kept, new_rel, rewrite = intmat.reduce_presentation(total, relations)
    obj = FinAbObj(len(kept), new_rel)
    embed_rows = [[1 if kept[j] == i else 0 for j in range(len(kept))] for i in range(total)]
    embed = intmat.freeze(embed_rows) if total else ()
    cocone = {}
    for u in nodes:
        block = tuple(
            tuple(rewrite[k][offsets[u] + g] for g in range(diagram.nodes[u].rank))
            for k in range(len(kept))
        )
        cocone[u] = FinAbMap(diagram.nodes[u], obj, block)
    return ColimitResult(obj, cocone, offsets=dict(offsets), embed=embed,
                         unreduced_rank=total)


def _matching_families(diagram: FiniteDiagram, nodes):
    """Compatible families, enumerated output-sensitively.

    Assignments propagate along edges (functional constraints force targets),
    branching only on genuinely free nodes, so the cost scales with the size
    of the limit rather than with the full product."""
    edges = diagram.edges
    morphisms = diagram.shape.morphisms

    def expand(assign):
        assign = dict(assign)
        changed = True
        while changed:
            changed = False
            for m in morphisms:
                if m.src in assign:
                    want = edges[m.id](assign[m.src])
                    have = assign.get(m.dst)
                    if have is None:
                        assign[m.dst] = want
                        changed = True
                    elif have != want:
                        return
        free = [u for u in nodes if u not in assign]
        if not free:
            yield assign
            return
        u = free[0]
        for x in diagram.nodes[u].elements:
            yield from expand({**assign, u: x})

    if not nodes:
        yield {}
        return
    yield from expand({})


def finite_limit(diagram: FiniteDiagram, category: str | None = None) -> LimitResult:
    cat = diagram.category() or category
    if cat is None:
        raise EngineError("empty diagram needs an explicit value category")
    nodes = sorted(diagram.nodes)
    if cat == FINSET:
        families = sorted(
            _matching_families(diagram, nodes),
            key=lambda fam: tuple(fam[u] for u in nodes),
        )
        ids = ["(" + ",".join(f"{u}={fam[u]}" for u in nodes) + ")" for fam in families]
        obj = FinSetObj(tuple(ids))
        by_id = dict(zip(ids, families))
        cone = {
            u: FinSetMap(obj, diagram.nodes[u], tuple((i, by_id[i][u]) for i in obj.elements))
            for u in nodes
        }
        return LimitResult(obj, cone, families=by_id)
    # FinAb: kernel of the difference map out of the product.
    offsets = {}
    total = 0
    for u in nodes:
        offsets[u] = total
        total += diagram.nodes[u].rank
    prod_rels = []
    for u in nodes:
        r = diagram.nodes[u].relation_matrix()
        for j in range(intmat.shape(r)[1]):
            col = [0] * total
            for i in range(diagram.nodes[u].rank):
                col[offsets[u] + i] = r[i][j]
            prod_rels.append(col)
    prod = FinAbObj(total, tuple(tuple(c[i] for c in prod_rels) for i in range(total)) if prod_rels else ())
    rows = []
    row_offset = 0
    edge_list = sorted(diagram.edges)
    for m in edge_list:
        mor = diagram.shape.morphism(m)
        e = diagram.edges[m]
        for i in range(e.dst.rank):
            row = [0] * total
            for g in range(e.src.rank):
                row[offsets[mor.src] + g] += e.matrix[i][g]
            row[offsets[mor.dst] + i] -= 1
            rows.append(row)
        row_offset += e.dst.rank
    # target of the difference map: product over edges of the edge targets
    tgt_rels = []
    tgt_total = row_offset
    off = 0
    for m in edge_list:
        mor = diagram.shape.morphism(m)
        r = diagram.nodes[mor.dst].relation_matrix()
        for j in range(intmat.shape(r)[1]):
            col = [0] * tgt_total
            for i in range(diagram.nodes[mor.dst].rank):
                col[off + i] = r[i][j]
            tgt_rels.append(col)
        off += diagram.nodes[mor.dst].rank
    tgt = FinAbObj(tgt_total, tuple(tuple(c[i] for c in tgt_rels) for i in range(tgt_total)) if tgt_rels else ())
    delta = FinAbMap(prod, tgt, intmat.freeze(rows) if rows else tuple(() for _ in range(tgt_total)))
    k, incl = kernel(delta)
    cone = {}
    for u in nodes:
        mtx = [[0] * total for _ in range(diagram.nodes[u].rank)]
        for i in range(diagram.nodes[u].rank):
            mtx[i][offsets[u] + i] = 1
        proj = FinAbMap(prod, diagram.nodes[u], intmat.freeze(mtx))
        cone[u] = compose(proj, incl)
    return LimitResult(k, cone, incl=incl, product=prod, offsets=dict(offsets))


# ---------------------------------------------------------------------------
# pairings


@dataclass(frozen=True)
class SetPairings:
    tensor: object
    injections: tuple
    power: object
    projections: tuple


def set_pairings(g, z: FinSetObj) -> SetPairings:
    """Tensor = coproduct of |Z| copies of G; power = product of |Z| copies."""
    zs = z.elements
    if isinstance(g, FinSetObj):
        tensor = FinSetObj(tuple(f"{t}:{x}" for t in zs for x in g.elements))
        injections = tuple(
            FinSetMap(g, tensor, tuple((x, f"{t}:{x}") for x in g.elements)) for t in zs
        )
        power_elems = []
        tables = []
        for combo in itertools.product(g.elements, repeat=len(zs)):
            power_elems.append("(" + ",".join(f"{t}->{v}" for t, v in zip(zs, combo)) + ")")
            tables.append(dict(zip(zs, combo)))
        power = FinSetObj(tuple(power_elems))
        by_id = dict(zip(power_elems, tables))
        projections = tuple(
            FinSetMap(power, g, tuple((e, by_id[e][t]) for e in power.elements)) for t in zs
        )
        return SetPairings(tensor, injections, power, projections)
    n = g.rank
    count = len(zs)
    rel = g.relation_matrix()
    cols = intmat.shape(rel)[1]
    big_rel = []
    for b in range(count):
        for j in range(cols):
            col = [0] * (n * count)
            for i in range(n):
                col[b * n + i] = rel[i][j]
            big_rel.append(col)
    big = FinAbObj(n * count, tuple(tuple(c[i] for c in big_rel) for i in range(n * count)) if big_rel else ())
    injections = []
    projections = []
    for b in range(count):
        inj = [[0] * n for _ in range(n * count)]
        proj = [[0] * (n * count) for _ in range(n)]
        for i in range(n):
            inj[b * n + i][i] = 1
            proj[i][b * n + i] = 1
        injections.append(FinAbMap(g, big, intmat.freeze(inj)))
        projections.append(FinAbMap(big, g, intmat.freeze(proj)))
    return SetPairings(big, tuple(injections), big, tuple(projections))


@dataclass(frozen=True)
class FunctorPairings:
    end: object
    coend: object


def functor_pairings(a: FiniteDiagram, b: FiniteDiagram, f: FiniteDiagram) -> FunctorPairings:
    """End of Hom(B(U), A(V)) and coend of A(U) ⊗ F(V) over a shared shape.

    `a` is a covariant diagram in either value category, `b` a covariant
    FinSet diagram on the same shape, `f` a FinSet diagram on the opposite
    shape (edge for morphism m goes from the node at dst(m) to src(m)).
    """
    shape = a.shape
    if b.shape.objects != shape.objects or f.shape.objects != shape.objects:
        raise EngineError("pairing diagrams must share the shape's objects")
    cat = a.category() or FINSET
    nodes = sorted(shape.objects)
    if cat == FINSET:
        # end: families phi_U in A(U)^{B(U)} natural in U
        all_tables = []
        for u in nodes:
            all_tables.append(hom_set(b.nodes[u], a.nodes[u]))
        end_elems = []
        for combo in itertools.product(*all_tables) if nodes else [()]:
            phi = dict(zip(nodes, combo))
            ok = True
            for m in shape.morphisms:
                au, bu = a.edges[m.id], b.edges[m.id]
                left = compose(au, phi[m.src])
                right = compose(phi[m.dst], bu)
                if not maps_equal(left, right):
                    ok = False
                    break
            if ok:
                end_elems.append(
                    "(" + ";".join(
                        u + ":" + ",".join(f"{x}->{phi[u](x)}" for x in b.nodes[u].elements)
                        for u in nodes) + ")")
        end = FinSetObj(tuple(end_elems))
        # coend: quotient of ∐_U A(U) x F(U)
        items = [(u, x, y) for u in nodes for x in a.nodes[u].elements for y in f.nodes[u].elements]
        pairs = []
        for m in shape.morphisms:
            # element (x in A(src), y in F(dst)): identify (src, x, F(m)(y)) with (dst, A(m)(x), y)
            am, fm = a.edges[m.id], f.edges[m.id]
            for x in a.nodes[m.src].elements:
                for y in f.nodes[m.dst].elements:
                    pairs.append(((m.src, x, fm(y)), (m.dst, am(x), y)))
        groups = _union_find_classes(items, pairs)
        coend = FinSetObj(tuple(f"q{i}" for i in range(len(groups))))
        return FunctorPairings(end, coend)
    # FinAb values in `a`
    powers = {u: set_pairings(a.nodes[u], b.nodes[u]) for u in nodes}
    total = sum(powers[u].power.rank for u in nodes)
    offsets = {}
    acc = 0
    for u in nodes:
        offsets[u] = acc
        acc += powers[u].power.rank
    rows = []
    tgt_blocks = []
    for m in shape.morphisms:
        am, bm = a.edges[m.id], b.edges[m.id]
        for bi, belem in enumerate(b.nodes[m.src].elements):
            tgt_blocks.append(a.nodes[m.dst])
            for i in range(a.nodes[m.dst].rank):
                row = [0] * total
                # postcompose A(m) with phi_src at belem ...
                src_proj = powers[m.src].projections[bi]
                comp = compose(am, src_proj)
                for jj in range(powers[m.src].power.rank):
                    row[offsets[m.src] + jj] += comp.matrix[i][jj]
                # ... minus phi_dst at B(m)(belem)
                target_index = b.nodes[m.dst].elements.index(bm(belem))
                dst_proj = powers[m.dst].projections[target_index]
                for jj in range(powers[m.dst].power.rank):
                    row[offsets[m.dst] + jj] -= dst_proj.matrix[i][jj]
                rows.append(row)
    prod_rels = []
    for u in nodes:
        r = powers[u].power.relation_matrix()
        for j in range(intmat.shape(r)[1]):
            col = [0] * total
            for i in range(powers[u].power.rank):
                col[offsets[u] + i] = r[i][j]
            prod_rels.append(col)
    prod = FinAbObj(total, tuple(tuple(c[i] for c in prod_rels) for i in range(total)) if prod_rels else ())
    tgt_rank = sum(blk.rank for blk in tgt_blocks)
    tgt_rels = []
    base = 0
    for blk in tgt_blocks:
        r = blk.relation_matrix()
        for j in range(intmat.shape(r)[1]):
            col = [0] * tgt_rank
            for i in range(blk.rank):
                col[base + i] = r[i][j]
            tgt_rels.append(col)
        base += blk.rank
    tgt = FinAbObj(tgt_rank, tuple(tuple(c[i] for c in tgt_rels) for i in range(tgt_rank)) if tgt_rels else ())
    delta = FinAbMap(prod, tgt, intmat.freeze(rows) if rows else tuple(() for _ in range(tgt_rank)))
    end_obj, _ = kernel(delta)
    # coend: quotient of ∐_U A(U) ⊗ F(U)
    tensors = {u: set_pairings(a.nodes[u], f.nodes[u]) for u in nodes}
    ctotal = sum(tensors[u].tensor.rank for u in nodes)
    coffsets = {}
    acc = 0
    for u in nodes:
        coffsets[u] = acc
        acc += tensors[u].tensor.rank
    rel_cols = []
    for u in nodes:
        r = tensors[u].tensor.relation_matrix()
        for j in range(intmat.shape(r)[1]):
            col = [0] * ctotal
            for i in range(tensors[u].tensor.rank):
                col[coffsets[u] + i] = r[i][j]
            rel_cols.append(col)
    for m in shape.morphisms:
        am, fm = a.edges[m.id], f.edges[m.id]
        for y in f.nodes[m.dst].elements:
            yi_src = f.nodes[m.src].elements.index(fm(y))
            yi_dst = f.nodes[m.dst].elements.index(y)
            for g in range(a.nodes[m.src].rank):
                col = [0] * ctotal
                inj_src = tensors[m.src].injections[yi_src]
                for i in range(tensors[m.src].tensor.rank):
                    col[coffsets[m.src] + i] += inj_src.matrix[i][g]
                inj_dst = tensors[m.dst].injections[yi_dst]
                pushed = compose(inj_dst, am)
                for i in range(tensors[m.dst].tensor.rank):
                    col[coffsets[m.dst] + i] -= pushed.matrix[i][g]
                rel_cols.append(col)
    coend_obj = FinAbObj(ctotal, tuple(tuple(c[i] for c in rel_cols) for i in range(ctotal)) if rel_cols else ())
    return FunctorPairings(end_obj, coend_obj)


def smith_normal_form(m) -> tuple[intmat.Matrix, intmat.Matrix, intmat.Matrix]:
    """Exported through the value layer for callers that think in groups."""
    return intmat.smith_normal_form(intmat.freeze(m))


def express_through(incl: FinAbMap, g: FinAbMap) -> intmat.Matrix:
    """Matrix m with incl ∘ m ≡ g modulo the ambient relations.

    `incl` presents a subgroup of its target; raises when g does not factor."""
    amb = incl.dst
    gen = incl.matrix
    rel = amb.relation_matrix()
    stacked = intmat.hstack(gen, rel) if intmat.shape(rel)[1] else gen
    cols = []
    for j in range(g.src.rank):
        sol = intmat.solve(stacked, intmat.column(g.matrix, j))
        if sol is None:
            raise EngineError("map does not factor through the subgroup")
        cols.append(sol[: incl.src.rank])
    if not cols:
        return tuple(() for _ in range(incl.src.rank))
    return tuple(tuple(c[i] for c in cols) for i in range(incl.src.rank))
