"""The two concrete value categories: finite sets and finitely generated
abelian groups presented by integer relation matrices.

Finite (co)limits are exact: union-find / filtered products on the set side,
Smith-normal-form kernels and cokernels on the abelian side.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Mapping

from . import intmat
from .category import FiniteCategory, Morphism
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

    Construction checks only the shape, and that the matrix is a tuple of
    row tuples (it is not copied); use finab_map() at trust boundaries to
    freeze a matrix and verify that it carries source relations into the
    target relation lattice (compositions and block assemblies of
    well-defined maps are well defined and skip that solve)."""

    src: FinAbObj
    dst: FinAbObj
    matrix: intmat.Matrix

    def __post_init__(self):
        m = self.matrix
        if m == ():
            m = tuple(() for _ in range(self.dst.rank))
            object.__setattr__(self, "matrix", m)
        n = self.src.rank
        if type(m) is not tuple or len(m) != self.dst.rank or any(
                type(r) is not tuple or len(r) != n for r in m):
            raise EngineError("matrix shape does not match generator counts")

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
    if f.dst.rank == 0:  # an empty matrix has lost its column count
        return f.src, identity_map(f.src)
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


def block_relations(objs: list) -> tuple[list[int], int, list[list[int]]]:
    """The direct sum of a list of FinAb objects as (offset of each summand,
    total rank, block-diagonal relation columns in summand order)."""
    offsets = []
    total = 0
    for g in objs:
        offsets.append(total)
        total += g.rank
    columns = []
    for off, g in zip(offsets, objs):
        rel = g.relation_matrix()
        for j in range(intmat.shape(rel)[1]):
            col = [0] * total
            for i in range(g.rank):
                col[off + i] = rel[i][j]
            columns.append(col)
    return offsets, total, columns


def _from_columns(rank: int, columns) -> FinAbObj:
    return FinAbObj(rank, tuple(tuple(c[i] for c in columns) for i in range(rank)) if columns else ())


def direct_sum(objs: list) -> FinAbObj:
    _, total, columns = block_relations(objs)
    return _from_columns(total, columns)


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
    """g ∘ f (apply f first).  On abelian groups an identity factor returns
    the other factor itself."""
    if isinstance(f, FinSetMap):
        return FinSetMap(f.src, g.dst, tuple(zip(f.src.elements, _images((f, g)))))
    if g.src is g.dst and g.matrix == intmat.identity(g.src.rank):
        return f
    if f.src is f.dst and f.matrix == intmat.identity(f.src.rank):
        return g
    return FinAbMap(f.src, g.dst, _chain_matrix((f, g)))


def _images(chain) -> list:
    """Images of the chain's source elements under its composite, in element
    order (finite sets; the chain lists its maps in the order they apply)."""
    xs = chain[0].src.elements
    for f in chain:
        xs = map(f._lookup.__getitem__, xs)
    return list(xs)


def _chain_matrix(chain) -> intmat.Matrix:
    """Matrix of the chain's composite (abelian groups; the chain lists its
    maps in the order they apply).  Identity matrices are skipped, so an
    all-identity chain gives the identity of its source rank."""
    rows, cols = chain[-1].dst.rank, chain[0].src.rank
    m = None
    for f in chain:
        n = f.src.rank
        if n == 0 or rows == 0:
            # factoring through a trivial group: the zero map of the right shape
            return intmat.zeros(rows, cols)
        if n == f.dst.rank and f.matrix == intmat.identity(n):
            continue
        m = f.matrix if m is None else intmat.mul(f.matrix, m)
    return intmat.identity(cols) if m is None else m


def map_key(f) -> tuple:
    """A plain tuple that equals another map's key exactly when the two maps
    are equal as dataclasses; hashing it runs no generated dataclass code.
    The FinSet and FinAb keys differ in length, so they never meet."""
    if isinstance(f, FinSetMap):
        return (f.src.elements, f.dst.elements, f.table)
    return (f.src.rank, f.src.relations, f.dst.rank, f.dst.relations, f.matrix)


def maps_equal(f, g) -> bool:
    """Equality as morphisms (FinAb: congruence modulo target relations)."""
    return chains_equal((f,), (g,))


def _congruent(a: intmat.Matrix, b: intmat.Matrix, dst: FinAbObj, ncols: int) -> bool:
    """Whether two matrices into dst agree modulo its relations."""
    if a == b:
        return True
    diff = intmat.sub(a, b)
    return all(dst.lattice_contains(intmat.column(diff, j)) for j in range(ncols))


def chains_equal(first, second) -> bool:
    """Whether two chains of composable maps have equal composites, decided
    without building either composite.

    Each chain is a nonempty sequence of maps listed in the order they apply,
    so (f, g) stands for g ∘ f.  The verdict is that of maps_equal on the two
    composites: finite sets are compared element by element, and abelian
    groups by the chained matrix products modulo the target relations."""
    src, dst = first[0].src, first[-1].dst
    src2, dst2 = second[0].src, second[-1].dst
    # identity first: ends are nearly always the same objects, and the
    # generated dataclass __eq__ is a Python-level call
    if (src2 is not src and src2 != src) or (dst2 is not dst and dst2 != dst):
        return False
    if isinstance(src, FinSetObj):
        left, right = [f._lookup for f in first], [f._lookup for f in second]
        for x in src.elements:
            y = z = x
            for lookup in left:
                y = lookup[y]
            for lookup in right:
                z = lookup[z]
            if y != z:
                return False
        return True
    return _congruent(_chain_matrix(first), _chain_matrix(second), dst, src.rank)


def commutes(g1, f1, g2, f2) -> bool:
    """Whether g1 ∘ f1 == g2 ∘ f2: the chain check on (f1, g1) and (f2, g2)."""
    return chains_equal((f1, g1), (f2, g2))


def is_zero_map(f) -> bool:
    """Whether an abelian map is zero.  It may be given as a chain, a tuple
    of composable maps in the order they apply, whose composite is then
    never built."""
    chain = f if isinstance(f, tuple) else (f,)
    m = _chain_matrix(chain)
    return all(chain[-1].dst.lattice_contains(intmat.column(m, j))
               for j in range(chain[0].src.rank))


def kills_kernel(f):
    """The test of whether a chain out of f's source kills f's kernel.

    A chain lists its maps in the order they apply; the empty chain is the
    identity, so kills_kernel(f)(()) says whether f is mono.  Finite sets:
    the chain is constant on f's fibres.  Abelian groups: it is zero on
    kernel(f).  The fibres or the kernel are computed once, here, and no
    composite is built."""
    if isinstance(f, FinSetMap):
        fibres = {}
        if len(set(f._lookup.values())) < len(f.table):  # not mono
            for x, y in f.table:
                fibres.setdefault(y, set()).add(x)
        fibres = [xs for xs in fibres.values() if len(xs) > 1]

        def kills(chain) -> bool:
            for xs in fibres:
                for g in chain:
                    xs = {g._lookup[x] for x in xs}
                    if len(xs) == 1:
                        break
                else:
                    return False
            return True
        return kills
    _, incl = kernel(f)
    return lambda chain: is_zero_map((incl, *chain))


def lands_in_image(f):
    """The test of whether a chain into f's target lands in f's image, as
    kills_kernel: the empty chain's test says whether f is onto.  Finite
    sets: the chain's image lies in f's.  Abelian groups: the chain followed
    by the projection onto cokernel(f) is zero."""
    if isinstance(f, FinSetMap):
        image = {y for _, y in f.table}
        onto = image >= f.dst.element_set

        def lands(chain) -> bool:
            if onto or not chain:
                return onto
            ys = chain[0].src.element_set
            for g in chain:
                ys = {g._lookup[y] for y in ys}
            return ys <= image
        return lands
    coker, proj = cokernel(f)
    onto = coker.is_trivial()
    return lambda chain: onto or is_zero_map((*chain, proj))


def image_invariants(f):
    """The size of f's image (finite sets) or its invariants() (abelian
    groups: the source modulo the kernel)."""
    if isinstance(f, FinSetMap):
        return len({y for _, y in f.table})
    return FinAbObj(f.src.rank, kernel(f)[1].matrix).invariants()


@functools.cache
def initial_colimit(category: str) -> ColimitResult:
    """The colimit of the empty diagram, built once per value category."""
    return finite_colimit(_diagram({}), category)


@functools.cache
def terminal_limit(category: str) -> LimitResult:
    """The limit of the empty diagram, built once per value category; in
    finite sets its one element is labelled "*"."""
    return finite_limit(_diagram({}), category)


def unique_map_from_initial(category: str, dst):
    """The map out of the colimit of the empty diagram."""
    return out_map(initial_colimit(category), {}, dst)


def unique_map_to_terminal(category: str, src):
    """The map into the limit of the empty diagram."""
    return into_limit(terminal_limit(category), src, {})


@dataclass(frozen=True)
class MapFlags:
    mono: bool
    epi: bool

    @property
    def iso(self) -> bool:
        return self.mono and self.epi


def classify_map(f) -> MapFlags:
    return MapFlags(kills_kernel(f)(()), lands_in_image(f)(()))


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
            src, dst = self.nodes[m.src], self.nodes[m.dst]
            if (e.src is not src and e.src != src) or (e.dst is not dst and e.dst != dst):
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
    """A computed colimit; maps out of it are built by `out_map` only."""

    obj: object
    cocone: Mapping[str, object]
    # FinAb assembly data: colimit presentations are Tietze-reduced, and maps
    # out of the colimit are assembled blockwise on the unreduced generators,
    # of which the columns of the `kept` generators are then selected.
    offsets: Mapping[str, int] | None = None
    kept: tuple[int, ...] | None = None
    unreduced_rank: int | None = None


def out_map(colim: ColimitResult, node_maps: Mapping[str, object], dst):
    """The map colim.obj -> dst induced by one map node_u -> dst per node.

    A node's map may be given as a chain, a tuple of composable maps in the
    order they apply, whose composite is then never built.  The node maps
    must form a cocone over the colimit's diagram; on finite sets a class
    given two different images is refused."""
    chains = {u: f if isinstance(f, tuple) else (f,) for u, f in node_maps.items()}
    if isinstance(colim.obj, FinSetObj):
        table = {}
        for u, chain in chains.items():
            inj = colim.cocone[u]._lookup
            for x, y in zip(chain[0].src.elements, _images(chain)):
                if table.setdefault(inj[x], y) != y:
                    raise EngineError(f"node maps do not form a cocone at {u!r}")
        return FinSetMap(colim.obj, dst, tuple(table.items()))
    blocks = [[0] * colim.unreduced_rank for _ in range(dst.rank)]
    for u, chain in chains.items():
        off = colim.offsets[u]
        width = chain[0].src.rank
        matrix = _chain_matrix(chain)
        for i in range(dst.rank):
            blocks[i][off:off + width] = matrix[i]
    kept = colim.kept
    return FinAbMap(colim.obj, dst, tuple(tuple(row[k] for k in kept) for row in blocks))


@dataclass(frozen=True)
class LimitResult:
    """A computed limit; maps into it are built by `into_limit` only."""

    obj: object
    cone: Mapping[str, object]
    incl: object | None = None       # FinAb: kernel inclusion into the product
    product: object | None = None    # FinAb: the ambient product object


def _family_label(family: Mapping[str, str], nodes) -> str:
    """The element id of a compatible family; the one family of the empty
    diagram is "*"."""
    if not nodes:
        return "*"
    return "(" + ",".join(f"{u}={family[u]}" for u in nodes) + ")"


def into_limit(limit: LimitResult, src, member_maps: Mapping[str, object]):
    """The map src -> limit.obj induced by one map src -> node_u per node.

    Raises when the maps do not form a cone over the limit's diagram."""
    nodes = sorted(member_maps)
    if isinstance(limit.obj, FinSetObj):
        table = {}
        for x in src.elements:
            key = _family_label({u: member_maps[u](x) for u in nodes}, nodes)
            if key not in limit.obj.element_set:
                raise EngineError("family does not satisfy the limit constraints")
            table[x] = key
        return FinSetMap(src, limit.obj, tuple(table.items()))
    rows = [row for u in nodes for row in member_maps[u].matrix]
    to_product = FinAbMap(src, limit.product, intmat.freeze(rows))
    return FinAbMap(src, limit.obj, express_through(limit.incl, to_product))


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
    # presentation Tietze-reduced before anything downstream sees it.  The
    # sparse relation columns come in a fixed order (node relations in node
    # order, then one column per source generator of each edge by id), which
    # fixes the reduced result.
    offsets = {}
    total = 0
    columns = []
    for u in nodes:
        rel = diagram.nodes[u].relations
        if rel:
            columns.extend({total + i: row[j] for i, row in enumerate(rel) if row[j]}
                           for j in range(len(rel[0])))
        offsets[u] = total
        total += diagram.nodes[u].rank
    for m in sorted(diagram.edges):
        mor = diagram.shape.morphism(m)
        e = diagram.edges[m]
        if mor.src == mor.dst and m == diagram.shape.id_of(mor.src):
            continue  # identity edges contribute zero columns
        src_off, dst_off = offsets[mor.src], offsets[mor.dst]
        for g in range(e.src.rank):
            col = {src_off + g: -1}
            for i, row in enumerate(e.matrix):
                if row[g]:
                    col[dst_off + i] = col.get(dst_off + i, 0) + row[g]
            columns.append(col)
    kept, new_rel, rewrite = intmat.reduce_presentation(total, columns)
    obj = FinAbObj(len(kept), new_rel)
    cocone = {}
    for u in nodes:
        block = tuple(
            tuple(rewrite[k][offsets[u] + g] for g in range(diagram.nodes[u].rank))
            for k in range(len(kept))
        )
        cocone[u] = FinAbMap(diagram.nodes[u], obj, block)
    return ColimitResult(obj, cocone, offsets=offsets, kept=tuple(kept), unreduced_rank=total)


def _matching_families(diagram: FiniteDiagram, nodes):
    """Compatible families, enumerated output-sensitively.

    Branches only on nodes with no incoming non-identity edge, in `nodes`
    order, and on the least unassigned node once every unassigned node has
    one.  Each assignment is propagated along the out-edges of the nodes it
    fixes, with a worklist: an edge is checked once its source is assigned,
    which then assigns or tests its target, so every non-identity edge
    (endomorphisms included) holds on each family yielded."""
    shape = diagram.shape
    out_edges = {u: [] for u in nodes}
    has_in = set()
    for m in shape.morphisms:
        if m.id != shape.id_of(m.src):
            out_edges[m.src].append((diagram.edges[m.id]._lookup, m.dst))
            has_in.add(m.dst)
    order = sorted(nodes, key=lambda u: u in has_in)   # stable: sources first

    def propagate(assign, u):
        work = [u]
        while work:
            v = work.pop()
            x = assign[v]
            for lookup, w in out_edges[v]:
                want = lookup[x]
                have = assign.get(w)
                if have is None:
                    assign[w] = want
                    work.append(w)
                elif have != want:
                    return False
        return True

    def expand(assign, i):
        while i < len(order) and order[i] in assign:
            i += 1
        if i == len(order):
            yield assign
            return
        u = order[i]
        for x in diagram.nodes[u].elements:
            branch = {**assign, u: x}
            if propagate(branch, u):
                yield from expand(branch, i + 1)

    yield from expand({}, 0)


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
        ids = [_family_label(fam, nodes) for fam in families]
        obj = FinSetObj(tuple(ids))
        by_id = dict(zip(ids, families))
        cone = {
            u: FinSetMap(obj, diagram.nodes[u], tuple((i, by_id[i][u]) for i in obj.elements))
            for u in nodes
        }
        return LimitResult(obj, cone)
    # FinAb: kernel of the difference map out of the product.
    starts, total, prod_rels = block_relations([diagram.nodes[u] for u in nodes])
    offsets = dict(zip(nodes, starts))
    prod = _from_columns(total, prod_rels)
    rows = []
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
    # target of the difference map: product over edges of the edge targets
    tgt = direct_sum([diagram.edges[m].dst for m in edge_list])
    delta = FinAbMap(prod, tgt, intmat.freeze(rows))
    k, incl = kernel(delta)
    cone = {}
    for u in nodes:  # the projection after the inclusion: the inclusion's rows in u's block
        x = diagram.nodes[u]
        cone[u] = FinAbMap(k, x, incl.matrix[offsets[u]:offsets[u] + x.rank])
    return LimitResult(k, cone, incl=incl, product=prod)


# ---------------------------------------------------------------------------
# pairings


@dataclass(frozen=True)
class SetPairings:
    tensor: object
    injections: tuple
    power: object
    projections: tuple


def _shape(objects, arrows=()) -> FiniteCategory:
    """A category whose non-identity arrows, given as (id, source, target),
    compose with identities only; the identity of v is "id:v"."""
    identity = {v: f"id:{v}" for v in objects}
    morphisms = [Morphism(i, v, v) for v, i in identity.items()]
    morphisms.extend(Morphism(*arrow) for arrow in arrows)
    return FiniteCategory(tuple(objects), tuple(morphisms), identity, {})


def _diagram(nodes: Mapping[str, object], arrows=()) -> FiniteDiagram:
    """A diagram on `_shape`, its arrows given as (id, source node, target
    node, map).  With no arrows, its colimit is the coproduct of the nodes
    and its limit their product."""
    shape = _shape(nodes, [arrow[:3] for arrow in arrows])
    edges = {shape.id_of(v): identity_map(nodes[v]) for v in nodes}
    edges.update({i: e for i, _, _, e in arrows})
    return FiniteDiagram(shape, nodes, edges, trusted=True)


def set_pairings(g, z: FinSetObj) -> SetPairings:
    """Tensor = coproduct of |Z| copies of G; power = product of |Z| copies.
    Injections and projections are listed in Z order."""
    diagram = _diagram({t: g for t in z.elements})
    tensor = finite_colimit(diagram, category_of(g))
    power = finite_limit(diagram, category_of(g))
    return SetPairings(tensor.obj, tuple(tensor.cocone[t] for t in z.elements),
                       power.obj, tuple(power.cone[t] for t in z.elements))


@dataclass(frozen=True)
class FunctorPairings:
    end: object
    coend: object


def functor_pairings(a: FiniteDiagram, b: FiniteDiagram, f: FiniteDiagram) -> FunctorPairings:
    """End of Hom(B(U), A(V)) and coend of A(U) ⊗ F(V) over a shared shape.

    `a` is a covariant diagram in either value category, `b` a covariant
    FinSet diagram on the same shape, `f` a FinSet diagram on the opposite
    shape (edge for morphism m goes from the node at dst(m) to src(m)).

    Both are finite (co)limits (Mac Lane, CWM IX.5-6).  The end is the limit
    of A(U)^{B(U)} at node "0:U" per object U and A(dst m)^{B(src m)} at node
    "1:m" per non-identity morphism m, with an arrow into "1:m" from each
    end of m (composing with A(m) and with B(m)); the coend is the colimit
    of A(U) ⊗ F(U) and A(src m) ⊗ F(dst m) over the same arrows reversed
    (composing with F(m) and with A(m)).  Object nodes sort first, so a
    finite-set end branches on them and the morphism nodes are forced.
    """
    shape = a.shape
    if b.shape.objects != shape.objects or f.shape.objects != shape.objects:
        raise EngineError("pairing diagrams must share the shape's objects")
    cat = a.category() or FINSET
    powers = {f"0:{u}": finite_limit(_diagram({x: a.nodes[u] for x in b.nodes[u].elements}), cat)
              for u in shape.objects}
    tensors = {f"0:{u}": finite_colimit(_diagram({y: a.nodes[u] for y in f.nodes[u].elements}), cat)
               for u in shape.objects}
    end_arrows, coend_arrows = [], []
    for m in shape.morphisms:
        if m.id == shape.id_of(m.src):
            continue
        node, s, t = f"1:{m.id}", f"0:{m.src}", f"0:{m.dst}"
        am, bm, fm = a.edges[m.id], b.edges[m.id], f.edges[m.id]
        bs, ft = b.nodes[m.src].elements, f.nodes[m.dst].elements
        power = powers[node] = finite_limit(_diagram({x: a.nodes[m.dst] for x in bs}), cat)
        end_arrows += [
            (f"s:{m.id}", s, node,
             into_limit(power, powers[s].obj, {x: compose(am, powers[s].cone[x]) for x in bs})),
            (f"t:{m.id}", t, node,
             into_limit(power, powers[t].obj, {x: powers[t].cone[bm(x)] for x in bs}))]
        tensor = tensors[node] = finite_colimit(_diagram({y: a.nodes[m.src] for y in ft}), cat)
        coend_arrows += [
            (f"s:{m.id}", node, s,
             out_map(tensor, {y: tensors[s].cocone[fm(y)] for y in ft}, tensors[s].obj)),
            (f"t:{m.id}", node, t,
             out_map(tensor, {y: (am, tensors[t].cocone[y]) for y in ft}, tensors[t].obj))]
    end = finite_limit(_diagram({v: p.obj for v, p in powers.items()}, end_arrows), cat)
    coend = finite_colimit(_diagram({v: c.obj for v, c in tensors.items()}, coend_arrows), cat)
    return FunctorPairings(end.obj, coend.obj)


def smith_normal_form(m) -> tuple[intmat.Matrix, intmat.Matrix, intmat.Matrix]:
    """Exported through the value layer for callers that think in groups."""
    return intmat.smith_normal_form(intmat.freeze(m))


def inverse(f):
    """The inverse of an isomorphism; raises when f is not one."""
    if isinstance(f, FinSetMap):
        table = {f(x): x for x in f.src.elements}
        if len(table) != len(f.src) or len(table) != len(f.dst):
            raise EngineError("component is not an isomorphism")
        return FinSetMap(f.dst, f.src, tuple(table.items()))
    try:
        inv = FinAbMap(f.dst, f.src, express_through(f, identity_map(f.dst)))
        if maps_equal(compose(inv, f), identity_map(f.src)):
            return inv
    except EngineError:
        pass
    raise EngineError("component is not an isomorphism")


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
