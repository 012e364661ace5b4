"""Precosheaves on finite sites, the cosheaf condition, the pro-valued plus
construction and double-plus coreflection, costalks, strong local
isomorphisms and smoothness verdicts.

Values are towers; a precosheaf built from plain value tables gets constant
towers, and every verdict on a chain site is depth-qualified.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping

from . import intmat, values
from .category import (Cover, FiniteCategory, Morphism, Sieve, SiteSpec,
                       comma_of_sieve, distinct_covers, refinement_search,
                       sieve_from_cover, sieve_levels)
from .errors import EngineError, InsufficientDepth, SiteError
from .report import CheckReport
from .towers import (LevelMorphism, Tower, equal_at_depth, is_epi_at_depth,
                     is_iso_at_depth, is_rudimentary_at_depth, tower_pro_zero)
from .values import (FINAB, FINSET, FinAbMap, FinAbObj, FinSetMap, FinSetObj,
                     category_of, compose, identity_map, initial_object,
                     maps_equal, unique_map_from_initial)


@dataclass(frozen=True)
class PointFilter:
    """A declared down-directed neighborhood chain for one point."""

    label: str
    chain: tuple[str, ...]

    def extended(self, depth: int) -> tuple[str, ...]:
        out = list(self.chain[: depth + 1])
        while len(out) < depth + 1:
            out.append(self.chain[-1])
        return tuple(out)


def _generating_pairs(site: SiteSpec):
    """Composable pairs whose functoriality implies it for every pair.

    On a poset site it is enough to precompose with covering relations
    (Hasse edges): every inclusion factors into covering steps and the
    general square follows by induction on the factorization length.  On
    arbitrary sites all composable pairs are checked."""
    cat = site.category
    nonid = [m for m in cat.morphisms if m.id != cat.id_of(m.src)]
    if not site.poset:
        return [(g.id, f.id) for g in nonid for f in nonid if f.dst == g.src]
    strictly_below = {}
    for m in nonid:
        strictly_below.setdefault(m.dst, set()).add(m.src)
    hasse = []
    for m in nonid:
        between = strictly_below.get(m.dst, set())
        if not any(m.src in strictly_below.get(w, ()) for w in between):
            hasse.append(m)
    return [(g.id, f.id) for f in hasse for g in nonid if g.src == f.dst]


@dataclass(frozen=True)
class Precosheaf:
    site: SiteSpec
    category: str
    depth: int
    values: Mapping[str, Tower]
    action: Mapping[str, LevelMorphism]
    points: tuple[PointFilter, ...] = ()
    _tensor_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        cat = self.site.category
        for u in cat.objects:
            t = self.values.get(u)
            if t is None or t.depth != self.depth:
                raise EngineError(f"value at {u!r} missing or at the wrong depth")
        for m in cat.morphisms:
            a = self.action.get(m.id)
            if a is None:
                raise EngineError(f"action missing on {m.id!r}")
            if a.src != self.values[m.src] or a.dst != self.values[m.dst]:
                raise EngineError(f"action on {m.id!r} has wrong endpoints")
            if not a.is_strict():
                raise EngineError("precosheaf actions must be normalized to strict form")
        for u in cat.objects:
            ident = self.action[cat.id_of(u)]
            if not equal_at_depth(ident, LevelMorphism.identity(self.values[u])):
                raise EngineError(f"identity action at {u!r} is not the identity")
        for g, f in _generating_pairs(self.site):
            gf = cat.compose(g, f)
            comp = self.action[f].then(self.action[g])
            if not equal_at_depth(self.action[gf], comp):
                raise EngineError(f"functoriality fails on ({g},{f})")

    def is_rudimentary_valued(self) -> bool:
        return all(t.is_constant() for t in self.values.values())

    def point_filter(self, label: str) -> PointFilter:
        for p in self.points:
            if p.label == label:
                return p
        raise EngineError(f"unknown point {label!r}")


def _lift_finset_value(raw) -> FinSetObj:
    if isinstance(raw, FinSetObj):
        return raw
    return FinSetObj(tuple(raw))


def _lift_finab_value(raw) -> FinAbObj:
    if isinstance(raw, FinAbObj):
        return raw
    gens, rels = raw
    return FinAbObj(gens, intmat.freeze(rels) if rels else ())


def precosheaf_from_tables(site: SiteSpec, category: str, value_tables: Mapping,
                           action_tables: Mapping, depth: int = 0,
                           points: tuple[PointFilter, ...] = ()) -> Precosheaf:
    """Build a precosheaf with constant towers from plain value/action tables."""
    lift = _lift_finset_value if category == FINSET else _lift_finab_value
    objs = {u: lift(value_tables[u]) for u in site.category.objects}
    towers = {u: Tower.constant(objs[u], depth) for u in site.category.objects}
    action = {}
    for m in site.category.morphisms:
        raw = action_tables[m.id]
        if category == FINSET:
            f = raw if isinstance(raw, FinSetMap) else values.finset_map(objs[m.src], objs[m.dst], raw)
        else:
            f = raw if isinstance(raw, FinAbMap) else values.finab_map(objs[m.src], objs[m.dst], raw)
        action[m.id] = LevelMorphism.strict(towers[m.src], towers[m.dst], (f,) * (depth + 1))
    return Precosheaf(site, category, depth, towers, action, points)


def constant_precosheaf(spec: SiteSpec, g, depth: int = 0,
                        points: tuple[PointFilter, ...] = ()) -> Precosheaf:
    """All values equal to g, all actions the identity."""
    category = category_of(g)
    tables = {u: g for u in spec.category.objects}
    action = {m.id: identity_map(g) for m in spec.category.morphisms}
    return precosheaf_from_tables(spec, category, tables, action, depth, points)


@dataclass
class PrecosheafMorphism:
    src: Precosheaf
    dst: Precosheaf
    components: Mapping[str, LevelMorphism]

    def __post_init__(self):
        cat = self.src.site.category
        if self.dst.site is not self.src.site and self.dst.site != self.src.site:
            raise EngineError("precosheaf morphism across different sites")
        for u in cat.objects:
            c = self.components.get(u)
            if c is None or c.src != self.src.values[u] or c.dst != self.dst.values[u]:
                raise EngineError(f"component at {u!r} missing or mismatched")
        for m in cat.morphisms:
            left = self.src.action[m.id].then(self.components[m.dst])
            right = self.components[m.src].then(self.dst.action[m.id])
            if not equal_at_depth(left, right):
                raise EngineError(f"naturality fails on {m.id!r}")

    def then(self, other: "PrecosheafMorphism") -> "PrecosheafMorphism":
        comps = {u: self.components[u].then(other.components[u]) for u in self.components}
        return PrecosheafMorphism(self.src, other.dst, comps)


def identity_morphism(a: Precosheaf) -> PrecosheafMorphism:
    return PrecosheafMorphism(a, a, {u: LevelMorphism.identity(a.values[u]) for u in a.values})


# ---------------------------------------------------------------------------
# tensoring a precosheaf with a sieve


@dataclass(frozen=True)
class TensorResult:
    tower: Tower
    cocone: Mapping[str, LevelMorphism]
    compare: LevelMorphism  # canonical map into the value at the sieve target
    level_data: tuple = ()  # per-level ColimitResult (FinAb assembly data)


def _map_from_colimit(level_results, node_towers, src_tower, dst_tower, node_maps):
    """Strict tower map out of a levelwise colimit, from compatible node maps.

    node_maps[u] is a list of per-level value maps node_u(level j) -> dst(j).
    """
    cat = src_tower.category()
    comps = []
    for j in range(src_tower.depth + 1):
        res = level_results[j]
        if cat == FINSET:
            table = {}
            for u, t in node_towers.items():
                inj = res.cocone[u]
                f = node_maps[u][j]
                for x in t.levels[j].elements:
                    table[inj(x)] = f(x)
            comps.append(FinSetMap(src_tower.levels[j], dst_tower.levels[j], tuple(table.items())))
        else:
            node_matrices = {u: node_maps[u][j].matrix for u in node_towers}
            comps.append(values.finab_out_map(res, node_matrices, dst_tower.levels[j]))
    return LevelMorphism.strict(src_tower, dst_tower, tuple(comps))


def _levelwise_colimit(a: Precosheaf, comma: FiniteCategory):
    """Per-level finite colimits of the comma diagram, plus the node towers.

    A level whose node objects and edge maps equal those of the level below
    is the same diagram, so it shares that level's ColimitResult: a constant
    tower costs one colimit, not depth + 1."""
    site_cat = a.site.category
    node_towers = {m: a.values[site_cat.morphism(m).src] for m in comma.objects}
    bases = {cm.id: cm.id.split("|")[0] for cm in comma.morphisms}
    results = []
    prev_nodes = prev_edges = None
    for j in range(a.depth + 1):
        nodes = {m: node_towers[m].levels[j] for m in comma.objects}
        edges = {cid: a.action[base].components[j] for cid, base in bases.items()}
        if nodes == prev_nodes and edges == prev_edges:
            results.append(results[-1])
            continue
        diagram = values.FiniteDiagram(comma, nodes, edges, trusted=True)
        results.append(values.finite_colimit(diagram, a.category))
        prev_nodes, prev_edges = nodes, edges
    return results, node_towers


def tensor_with_sieve(a: Precosheaf, sieve: Sieve) -> TensorResult:
    """Colimit of the precosheaf over the sieve's comma category, with the
    canonical comparison map into the value at the sieve target."""
    key = (sieve.target, sieve.members)
    hit = a._tensor_cache.get(key)
    if hit is not None:
        return hit
    target_tower = a.values[sieve.target]
    if not sieve.members:
        obj = initial_object(a.category)
        tower = Tower.constant(obj, a.depth)
        comps = tuple(unique_map_from_initial(a.category, target_tower.levels[j])
                      for j in range(a.depth + 1))
        out = TensorResult(tower, {}, LevelMorphism.strict(tower, target_tower, comps))
        a._tensor_cache[key] = out
        return out
    comma = comma_of_sieve(a.site, sieve)
    results, node_towers = _levelwise_colimit(a, comma)
    tower = Tower(
        tuple(r.obj for r in results),
        tuple(
            _bond_between_levels(a, comma, node_towers, results, j + 1, j)
            for j in range(a.depth)
        ),
    )
    cocone = {}
    for m in comma.objects:
        comps = tuple(results[j].cocone[m] for j in range(a.depth + 1))
        cocone[m] = LevelMorphism.strict(node_towers[m], tower, comps)
    node_maps = {m: [a.action[m].components[j] for j in range(a.depth + 1)]
                 for m in comma.objects}
    compare = _map_from_colimit(results, node_towers, tower, target_tower, node_maps)
    out = TensorResult(tower, cocone, compare, tuple(results))
    a._tensor_cache[key] = out
    return out


def _bond_between_levels(a, comma, node_towers, results, j_hi, j_lo):
    cat = a.category
    hi, lo = results[j_hi], results[j_lo]
    if cat == FINSET:
        table = {}
        for m in comma.objects:
            bond = node_towers[m].bonds[j_lo]
            for x in node_towers[m].levels[j_hi].elements:
                table[hi.cocone[m](x)] = lo.cocone[m](bond(x))
        return FinSetMap(hi.obj, lo.obj, tuple(table.items()))
    node_matrices = {}
    for m in comma.objects:
        bond = node_towers[m].bonds[j_lo]
        node_matrices[m] = compose(lo.cocone[m], bond).matrix
    return values.finab_out_map(hi, node_matrices, lo.obj)


def _pushforward(a: Precosheaf, src_tensor: TensorResult, src_sieve: Sieve,
                 dst_tensor: TensorResult, alpha: str) -> list:
    """Raw per-level maps [A⊗S] -> [A⊗R] sending class (g, x) to (alpha∘g, x).

    Requires alpha ∘ S ⊆ R, which the refinement search guarantees."""
    cat = a.site.category
    if not src_sieve.members:
        return [unique_map_from_initial(a.category, dst_tensor.tower.levels[j])
                for j in range(a.depth + 1)]
    out = []
    for j in range(a.depth + 1):
        if a.category == FINSET:
            table = {}
            for g in sorted(src_sieve.members):
                tower = a.values[cat.morphism(g).src]
                target_member = cat.compose(alpha, g)
                inj_src = src_tensor.cocone[g].components[j]
                inj_dst = dst_tensor.cocone[target_member].components[j]
                for x in tower.levels[j].elements:
                    table[inj_src(x)] = inj_dst(x)
            out.append(FinSetMap(src_tensor.tower.levels[j], dst_tensor.tower.levels[j],
                                 tuple(table.items())))
        else:
            node_matrices = {}
            for g in sorted(src_sieve.members):
                target_member = cat.compose(alpha, g)
                node_matrices[g] = dst_tensor.cocone[target_member].components[j].matrix
            out.append(values.finab_out_map(src_tensor.level_data[j], node_matrices,
                                            dst_tensor.tower.levels[j]))
    return out


# ---------------------------------------------------------------------------
# the cosheaf condition


@dataclass(frozen=True)
class FastDefect:
    tower: Tower
    piece_cocone: tuple      # one LevelMorphism per piece index
    compare: LevelMorphism
    level_data: tuple = ()
    # (node name, cocone LevelMorphism, composite member id, leg morphism id)
    pair_routes: tuple = ()


@dataclass(frozen=True)
class DefectResult:
    compare: LevelMorphism


def cosheaf_defect(a: Precosheaf, cover: Cover) -> DefectResult:
    """Canonical map from the cover colimit into the value at the target,
    computed by tensoring with the generated sieve.  The cokernel fast path
    over declared intersections is the oracle that `defect_agreement` checks
    this against."""
    sieve = sieve_from_cover(a.site, cover)
    return DefectResult(tensor_with_sieve(a, sieve).compare)


def _fast_legs(cat: FiniteCategory, w: str, piece_i: str, piece_j: str):
    """Lex-smallest pair of morphisms from w into the two pieces commuting
    over the shared target."""
    cand_i = sorted(m.id for m in cat.hom(w, cat.morphism(piece_i).src))
    cand_j = sorted(m.id for m in cat.hom(w, cat.morphism(piece_j).src))
    for li in cand_i:
        for lj in cand_j:
            if cat.compose(piece_i, li) == cat.compose(piece_j, lj):
                return li, lj
    return None


def _fast_defect(a: Precosheaf, cover: Cover) -> FastDefect:
    """Cokernel of the parallel pair over declared intersections, computed as
    the colimit of a pieces-and-pairs span diagram."""
    cat = a.site.category
    inter = cover.intersection_map()
    piece_src = [cat.morphism(p).src for p in cover.pieces]
    objects = [f"p{i}" for i in range(len(cover.pieces))]
    morphs = []
    identity = {}
    for i, _ in enumerate(cover.pieces):
        identity[f"p{i}"] = f"id:p{i}"
        morphs.append(Morphism(f"id:p{i}", f"p{i}", f"p{i}"))
    pair_nodes = []
    for (i, j), w in sorted(inter.items()):
        node = f"w{i},{j}"
        legs = _fast_legs(cat, w, cover.pieces[i], cover.pieces[j])
        if legs is None:
            raise SiteError(f"declared intersection {w!r} has no commuting legs")
        objects.append(node)
        identity[node] = f"id:{node}"
        morphs.append(Morphism(f"id:{node}", node, node))
        morphs.append(Morphism(f"l:{node}>p{i}", node, f"p{i}"))
        morphs.append(Morphism(f"l:{node}>p{j}", node, f"p{j}"))
        pair_nodes.append((node, i, j, legs[0], legs[1], w))
    comp = {}
    for m in morphs:
        comp[(identity[m.dst], m.id)] = m.id
        comp[(m.id, identity[m.src])] = m.id
    shape = FiniteCategory(tuple(objects), tuple(morphs), identity, comp)
    node_towers = {f"p{i}": a.values[piece_src[i]] for i in range(len(cover.pieces))}
    edge_lm = {}
    for i, p in enumerate(cover.pieces):
        edge_lm[f"id:p{i}"] = LevelMorphism.identity(node_towers[f"p{i}"])
    for node, i, j, li, lj, w in pair_nodes:
        node_towers[node] = a.values[w]
        edge_lm[f"id:{node}"] = LevelMorphism.identity(node_towers[node])
        edge_lm[f"l:{node}>p{i}"] = a.action[li]
        edge_lm[f"l:{node}>p{j}"] = a.action[lj]
    from .towers import tower_colimit
    col = tower_colimit(shape, node_towers, edge_lm, a.depth)
    node_maps = {}
    for i, p in enumerate(cover.pieces):
        node_maps[f"p{i}"] = [a.action[p].components[j] for j in range(a.depth + 1)]
    for node, i, j, li, lj, w in pair_nodes:
        composite = cat.compose(cover.pieces[i], li)
        node_maps[node] = [a.action[composite].components[jj] for jj in range(a.depth + 1)]
    compare = _map_from_colimit(col.levels, node_towers, col.tower,
                                a.values[cover.target], node_maps)
    piece_cocone = tuple(col.cocone[f"p{i}"] for i in range(len(cover.pieces)))
    pair_routes = tuple(
        (node, col.cocone[node], cat.compose(cover.pieces[i], li), li)
        for node, i, j, li, lj, w in pair_nodes
    )
    return FastDefect(col.tower, piece_cocone, compare, col.levels, pair_routes)


def defect_agreement(a: Precosheaf, cover: Cover) -> bool:
    """The tested oracle equivalence: the cokernel fast path and the
    comma-colimit slow path are isomorphic over the value at the target.

    Constructs the two canonical comparison morphisms (pieces are sieve
    members; every member factors through its lex-smallest piece) and checks
    that they are mutually inverse levelwise and commute with the defects."""
    if not cover.has_intersections():
        raise EngineError("fast path needs declared intersections")
    sieve = sieve_from_cover(a.site, cover)
    slow = tensor_with_sieve(a, sieve)
    if not cover.pieces:
        # both paths colimit an empty diagram: the initial object
        empty = initial_object(a.category)
        return all(level == empty for level in slow.tower.levels)
    fast = _fast_defect(a, cover)
    cat = a.site.category
    # phi: fast -> slow via pieces-as-members
    phi = []
    psi = []
    for j in range(a.depth + 1):
        src_nodes = {f"p{i}": a.values[cat.morphism(p).src]
                     for i, p in enumerate(cover.pieces)}
        src_cocone = {f"p{i}": fast.piece_cocone[i] for i in range(len(cover.pieces))}
        assignments = {f"p{i}": (slow.cocone[p], None) for i, p in enumerate(cover.pieces)}
        for node, cocone_lm, member, leg in fast.pair_routes:
            src_nodes[node] = a.values[cat.morphism(member).src]
            src_cocone[node] = cocone_lm
            assignments[node] = (slow.cocone[member], None)
        phi.append(_class_transport(
            a, j,
            src_nodes=src_nodes,
            src_cocone=src_cocone,
            src_data=fast.level_data[j] if fast.level_data else None,
            src_level=fast.tower.levels[j],
            dst_level=slow.tower.levels[j],
            assignments=assignments,
        ))
        member_assign = {}
        for g in sorted(sieve.members):
            mg = cat.morphism(g)
            placed = None
            for i, p in enumerate(cover.pieces):
                mp = cat.morphism(p)
                for beta in sorted(m.id for m in cat.hom(mg.src, mp.src)):
                    if cat.compose(p, beta) == g:
                        placed = (i, beta)
                        break
                if placed:
                    break
            member_assign[g] = placed
        psi.append(_class_transport(
            a, j,
            src_nodes={g: a.values[cat.morphism(g).src] for g in sieve.members},
            src_cocone={g: slow.cocone[g] for g in sieve.members},
            src_data=slow.level_data[j] if slow.level_data else None,
            src_level=slow.tower.levels[j],
            dst_level=fast.tower.levels[j],
            assignments={
                g: (fast.piece_cocone[i], a.action[beta])
                for g, (i, beta) in member_assign.items()
            },
        ))
    ok = True
    for j in range(a.depth + 1):
        idf = identity_map(fast.tower.levels[j])
        ids = identity_map(slow.tower.levels[j])
        if not maps_equal(compose(psi[j], phi[j]), idf):
            ok = False
        if not maps_equal(compose(phi[j], psi[j]), ids):
            ok = False
        if not maps_equal(compose(slow.compare.components[j], phi[j]), fast.compare.components[j]):
            ok = False
        if not maps_equal(compose(fast.compare.components[j], psi[j]), slow.compare.components[j]):
            ok = False
    return ok


def _class_transport(a, j, src_nodes, src_cocone, src_data, src_level, dst_level, assignments):
    """Map between two colimits determined by per-node routes into the target
    colimit: assignments[node] = (target cocone LevelMorphism, pre-map or None)."""
    if a.category == FINSET:
        table = {}
        for node, tower in src_nodes.items():
            inj = src_cocone[node].components[j]
            target_lm, pre = assignments[node]
            tgt = target_lm.components[j]
            for x in tower.levels[j].elements:
                val = x if pre is None else pre.components[j](x)
                table[inj(x)] = tgt(val)
        return FinSetMap(src_level, dst_level, tuple(table.items()))
    node_matrices = {}
    for node in src_nodes:
        target_lm, pre = assignments[node]
        tgt = target_lm.components[j]
        pushed = tgt if pre is None else compose(tgt, pre.components[j])
        node_matrices[node] = pushed.matrix
    return values.finab_out_map(src_data, node_matrices, dst_level)


def check_cosheaf(a: Precosheaf, depth: int | None = None) -> CheckReport:
    """Classify every cover's defect map: iso everywhere means cosheaf, epi
    everywhere means coseparated; the first failing cover is the witness."""
    d = a.depth if depth is None else min(depth, a.depth)
    all_iso = True
    all_epi = True
    witnesses = []
    trace = []
    for u in sorted(a.site.category.objects):
        for cover in distinct_covers(a.site, u, d):
            defect = cosheaf_defect(a, cover)
            epi = is_epi_at_depth(defect.compare, d)
            iso = is_iso_at_depth(defect.compare, d)
            if not epi.epi and all_epi:
                all_epi = False
                witnesses.append({"object": u, "cover": list(cover.pieces), "failed": "epi",
                                  "detail": epi.detail})
            if not iso.iso and all_iso:
                all_iso = False
                witnesses.append({"object": u, "cover": list(cover.pieces), "failed": "iso",
                                  "detail": iso.detail})
    if all_iso:
        classification = "COSHEAF"
    elif all_epi:
        classification = "COSEPARATED"
    else:
        classification = "NOT-COSEPARATED"
    trace.append(f"classification: {classification}")
    return CheckReport(
        verdict="PASS" if all_iso else "FAIL",
        depth=d if a.site.has_chains() else None,
        classification=classification,
        witnesses=tuple(witnesses),
        trace=tuple(trace),
    )


# ---------------------------------------------------------------------------
# the plus construction


@dataclass
class PlusResult:
    precosheaf: Precosheaf
    counit: PrecosheafMorphism
    sieves: Mapping[str, list]
    tensors: Mapping[tuple, TensorResult]


def truncate_precosheaf(a: Precosheaf, depth: int) -> Precosheaf:
    """Restrict every value tower and action to the levels up to `depth`."""
    if depth >= a.depth:
        return a
    towers = {u: Tower(t.levels[: depth + 1], t.bonds[:depth]) for u, t in a.values.items()}
    action = {}
    for mid, lm in a.action.items():
        m = a.site.category.morphism(mid)
        action[mid] = LevelMorphism.strict(towers[m.src], towers[m.dst],
                                           lm.components[: depth + 1])
    return Precosheaf(a.site, a.category, depth, towers, action, a.points)


def plus_cosheaf(a: Precosheaf, depth: int | None = None) -> PlusResult:
    """The plus construction in pro-valued form.

    Per object, the limit over covering sieves is presented by the descending
    sieve levels (common refinement for finite families, chain levels
    otherwise); tower-valued inputs are handled by taking the diagonal of the
    tensor tower at each sieve level.
    """
    d = a.depth if depth is None else min(depth, a.depth)
    if d < a.depth:
        a = truncate_precosheaf(a, d)
    site = a.site
    sieves = {u: sieve_levels(site, u, d) for u in site.category.objects}
    tensors: dict[tuple, TensorResult] = {}

    def tensor_at(u, k):
        s = sieves[u][k]
        key = (u, s.members)
        if key not in tensors:
            tensors[key] = tensor_with_sieve(a, s)
        return tensors[key]

    plus_values = {}
    for u in site.category.objects:
        levels = []
        bonds = []
        for k in range(d + 1):
            levels.append(tensor_at(u, k).tower.levels[k])
        for k in range(d):
            hi = tensor_at(u, k + 1)
            lo = tensor_at(u, k)
            if sieves[u][k + 1].members == sieves[u][k].members:
                step = lo.tower.bonds[k]
                hi_to_lo_at = identity_map(hi.tower.levels[k + 1])
            else:
                push = _pushforward(a, hi, sieves[u][k + 1], lo, site.category.id_of(u))
                hi_to_lo_at = push[k + 1]
                step = lo.tower.bonds[k]
            bonds.append(compose(step, hi_to_lo_at))
        plus_values[u] = Tower(tuple(levels), tuple(bonds))

    plus_action = {}
    for m in site.category.morphisms:
        alpha = m
        comps = []
        prev_phi = 0
        shift = []
        for k in range(d + 1):
            hit = refinement_search(site, alpha.src, sieves[alpha.dst][k], alpha.id, d)
            if hit is None:
                raise SiteError(
                    f"no declared cover of {alpha.src!r} refines the pullback of "
                    f"level {k} of {alpha.dst!r} along {alpha.id!r}")
            lvl = max(k, hit[0], prev_phi)
            if lvl > d:
                raise InsufficientDepth("insufficient depth for the plus action")
            prev_phi = lvl
            shift.append(lvl)
            src_tensor = tensor_at(alpha.src, lvl)
            dst_tensor = tensor_at(alpha.dst, k)
            push = _pushforward(a, src_tensor, sieves[alpha.src][lvl], dst_tensor, alpha.id)
            step = dst_tensor.tower.bond_composite(lvl, k)
            comps.append(compose(step, push[lvl]))
        lm = LevelMorphism(plus_values[alpha.src], plus_values[alpha.dst],
                           tuple(shift), tuple(comps))
        plus_action[m.id] = lm

    strict = all(lm.is_strict() for lm in plus_action.values())
    if strict:
        plus = Precosheaf(site, a.category, d, plus_values, plus_action, a.points)
        counit_components = {
            u: LevelMorphism.strict(
                plus.values[u], a.values[u],
                tuple(tensor_at(u, k).compare.components[k] for k in range(d + 1)))
            for u in site.category.objects
        }
    else:
        plus, phi = _normalize_with_reindex(site, a.category, d, plus_values, plus_action, a.points)
        counit_components = {}
        for u in site.category.objects:
            comps = []
            for k in range(d + 1):
                c = tensor_at(u, phi[k]).compare.components[phi[k]]
                comps.append(compose(a.values[u].bond_composite(phi[k], k), c))
            counit_components[u] = LevelMorphism.strict(plus.values[u], a.values[u], tuple(comps))
    counit = PrecosheafMorphism(plus, a, counit_components)
    return PlusResult(plus, counit, sieves, tensors)


def _normalize_with_reindex(site, category, depth, towers, action, points):
    """Strictify actions by the iterated-max reindexing of their shifts."""
    phi = list(range(depth + 1))
    for _ in range(depth + 2):
        changed = False
        for lm in action.values():
            for j in range(depth + 1):
                want = lm.shift[phi[j]]
                if want > phi[j]:
                    phi[j] = want
                    changed = True
        for j in range(depth):
            if phi[j] > phi[j + 1]:
                phi[j + 1] = phi[j]
                changed = True
        if max(phi) > depth:
            raise InsufficientDepth("insufficient depth to normalize the precosheaf")
        if not changed:
            break
    else:
        raise InsufficientDepth("insufficient depth to normalize the precosheaf")
    new_towers = {}
    for u, t in towers.items():
        levels = tuple(t.levels[phi[j]] for j in range(depth + 1))
        bonds = tuple(t.bond_composite(phi[j + 1], phi[j]) for j in range(depth))
        new_towers[u] = Tower(levels, bonds)
    new_action = {}
    for mid, lm in action.items():
        m = site.category.morphism(mid)
        comps = tuple(
            compose(lm.components[phi[j]], lm.src.bond_composite(phi[j], lm.shift[phi[j]]))
            for j in range(depth + 1)
        )
        new_action[mid] = LevelMorphism.strict(new_towers[m.src], new_towers[m.dst], comps)
    return Precosheaf(site, category, depth, new_towers, new_action, points), tuple(phi)


def plus_map(f: PrecosheafMorphism, plus_src: PlusResult, plus_dst: PlusResult) -> PrecosheafMorphism:
    """The plus construction applied to a precosheaf morphism."""
    a, b = f.src, f.dst
    d = plus_src.precosheaf.depth
    site = a.site
    comps = {}
    for u in site.category.objects:
        sieves_u = plus_src.sieves[u]
        per_level = []
        for k in range(d + 1):
            s = sieves_u[k]
            src_t = plus_src.tensors[(u, s.members)]
            dst_t = plus_dst.tensors[(u, s.members)]
            if not s.members:
                per_level.append(unique_map_from_initial(a.category,
                                                         dst_t.tower.levels[k]))
            elif a.category == FINSET:
                table = {}
                for g in sorted(s.members):
                    w = site.category.morphism(g).src
                    inj_src = src_t.cocone[g].components[k]
                    inj_dst = dst_t.cocone[g].components[k]
                    fw = f.components[w].components[k]
                    for x in a.values[w].levels[k].elements:
                        table[inj_src(x)] = inj_dst(fw(x))
                per_level.append(FinSetMap(src_t.tower.levels[k], dst_t.tower.levels[k],
                                           tuple(table.items())))
            else:
                node_matrices = {}
                for g in sorted(s.members):
                    w = site.category.morphism(g).src
                    inj_dst = dst_t.cocone[g].components[k]
                    fw = f.components[w].components[k]
                    node_matrices[g] = compose(inj_dst, fw).matrix
                per_level.append(values.finab_out_map(src_t.level_data[k], node_matrices,
                                                      dst_t.tower.levels[k]))
        comps[u] = LevelMorphism.strict(plus_src.precosheaf.values[u],
                                        plus_dst.precosheaf.values[u], tuple(per_level))
    return PrecosheafMorphism(plus_src.precosheaf, plus_dst.precosheaf, comps)


@dataclass
class CosheafifyResult:
    precosheaf: Precosheaf
    counit: PrecosheafMorphism
    report: CheckReport
    plus1: PlusResult
    plus2: PlusResult


def cosheafify(a: Precosheaf, depth: int | None = None) -> CosheafifyResult:
    """Plus construction applied twice, with the composite counit and
    postcondition checks attached."""
    p1 = plus_cosheaf(a, depth)
    p2 = plus_cosheaf(p1.precosheaf, depth)
    counit = p2.counit.then(p1.counit)
    r1 = check_cosheaf(p1.precosheaf, depth)
    r2 = check_cosheaf(p2.precosheaf, depth)
    ok = r1.classification in ("COSEPARATED", "COSHEAF") and r2.classification == "COSHEAF"
    witnesses = tuple() if ok else tuple([*r1.witnesses, *r2.witnesses]) or ("postcondition failed",)
    report = CheckReport(
        verdict="PASS" if ok else "FAIL",
        depth=(depth if depth is not None else a.depth) if a.site.has_chains() else None,
        classification="coreflection postconditions",
        witnesses=witnesses,
        trace=(
            f"single plus classification: {r1.classification}",
            f"double plus classification: {r2.classification}",
        ),
    )
    return CosheafifyResult(p2.precosheaf, counit, report, p1, p2)


# ---------------------------------------------------------------------------
# costalks and local analysis


def _chain_step_morphism(site: SiteSpec, src: str, dst: str) -> str:
    if src == dst:
        return site.category.id_of(src)
    for m in sorted(mm.id for mm in site.category.hom(src, dst)):
        return m
    raise SiteError(f"point filter step {src!r} ⊆ {dst!r} has no witnessing morphism")


def costalk(a: Precosheaf, p: PointFilter, depth: int | None = None) -> Tower:
    """Diagonal tower over (filter level, tower level)."""
    d = a.depth if depth is None else min(depth, a.depth)
    chain = p.extended(d)
    for u in chain:
        if u not in a.site.category.objects:
            raise SiteError(f"point filter visits unknown object {u!r}")
    levels = tuple(a.values[chain[k]].levels[k] for k in range(d + 1))
    bonds = []
    for k in range(d):
        step = _chain_step_morphism(a.site, chain[k + 1], chain[k])
        act = a.action[step].components[k + 1]
        bonds.append(compose(a.values[chain[k]].bonds[k], act))
    return Tower(levels, tuple(bonds))


def costalk_map(f: PrecosheafMorphism, p: PointFilter, depth: int | None = None) -> LevelMorphism:
    d = f.src.depth if depth is None else min(depth, f.src.depth)
    chain = p.extended(d)
    src = costalk(f.src, p, d)
    dst = costalk(f.dst, p, d)
    comps = tuple(f.components[chain[k]].components[k] for k in range(d + 1))
    return LevelMorphism.strict(src, dst, comps)


def strong_local_iso_check(f: PrecosheafMorphism, points, depth: int | None = None) -> CheckReport:
    """PASS iff the induced costalk map is a pro-isomorphism at every point."""
    d = f.src.depth if depth is None else min(depth, f.src.depth)
    witnesses = []
    trace = []
    for p in points:
        verdict = is_iso_at_depth(costalk_map(f, p, d), d)
        trace.append(f"point {p.label}: {verdict.verdict}")
        if not verdict.iso:
            witnesses.append({"point": p.label, "obstruction": verdict.obstruction,
                              "detail": verdict.detail})
    ok = not witnesses
    return CheckReport(
        verdict="PASS" if ok else "FAIL",
        depth=d if f.src.site.has_chains() else None,
        classification="strong local isomorphism" if ok else "not a strong local isomorphism",
        witnesses=tuple(witnesses),
        trace=tuple(trace),
    )


def is_locally_zero(a: Precosheaf, points, depth: int | None = None, margin: int = 3) -> CheckReport:
    """PASS iff every costalk tower is pro-zero at depth."""
    if a.category != FINAB:
        raise EngineError("locally-zero analysis needs abelian values")
    d = a.depth if depth is None else min(depth, a.depth)
    witnesses = []
    trace = []
    for p in points:
        t = costalk(a, p, d)
        ok, obstruction = tower_pro_zero(t, d, margin)
        trace.append(f"point {p.label}: {'pro-zero' if ok else 'not pro-zero'}")
        if not ok:
            witnesses.append({"point": p.label, "level": obstruction})
    ok = not witnesses
    return CheckReport(
        verdict="PASS" if ok else "FAIL",
        depth=d if a.site.has_chains() else None,
        classification="locally zero" if ok else "not locally zero",
        witnesses=tuple(witnesses),
        trace=tuple(trace),
    )


def is_smooth(a: Precosheaf, depth: int | None = None) -> CheckReport:
    """A plain-valued precosheaf is smooth iff its coreflection stays
    plain-valued: every double-plus value must be rudimentary at depth."""
    d = a.depth if depth is None else min(depth, a.depth)
    if not a.is_rudimentary_valued():
        return CheckReport(
            verdict="PASS", depth=d if a.site.has_chains() else None,
            classification="SMOOTH",
            trace=("tower-valued input: smooth by construction (trivial pass)",))
    result = cosheafify(a, d)
    witnesses = []
    trace = []
    for u in sorted(a.site.category.objects):
        rv = is_rudimentary_at_depth(result.precosheaf.values[u], d)
        trace.append(f"{u}: {rv.verdict} profile {list(rv.profile)}")
        if not rv.rudimentary:
            witnesses.append({"object": u, "growth_profile": list(map(str, rv.profile))})
    ok = not witnesses
    return CheckReport(
        verdict="PASS" if ok else "FAIL",
        depth=d if a.site.has_chains() else None,
        classification="SMOOTH" if ok else "NOT-SMOOTH",
        witnesses=tuple(witnesses),
        trace=tuple(trace),
    )


# ---------------------------------------------------------------------------
# universal property of the coreflection


def _invert_level_morphism(lm: LevelMorphism) -> LevelMorphism:
    """Exact inverse of a levelwise isomorphism (strict towers)."""
    comps = []
    for j in range(lm.dst.depth + 1):
        f = compose(lm.components[j], lm.src.bond_composite(j, lm.shift[j]))
        if isinstance(f, FinSetMap):
            inv = {f(x): x for x in f.src.elements}
            if len(inv) != len(f.dst.elements):
                raise EngineError("component is not an isomorphism")
            comps.append(FinSetMap(f.dst, f.src, tuple(inv.items())))
        else:
            cols = []
            rel = f.dst.relation_matrix()
            stacked = intmat.hstack(f.matrix, rel) if intmat.shape(rel)[1] else f.matrix
            for i in range(f.dst.rank):
                e = tuple(1 if r == i else 0 for r in range(f.dst.rank))
                sol = intmat.solve(stacked, e)
                if sol is None:
                    raise EngineError("component is not an isomorphism")
                cols.append(sol[: f.src.rank])
            mtx = tuple(tuple(c[i] for c in cols) for i in range(f.src.rank)) if cols else ()
            comps.append(FinAbMap(f.dst, f.src, mtx if cols else tuple(() for _ in range(f.src.rank))))
    return LevelMorphism.strict(lm.dst, lm.src, tuple(comps))


def invert_counit(result: PlusResult | CosheafifyResult) -> PrecosheafMorphism:
    counit = result.counit
    comps = {u: _invert_level_morphism(counit.components[u]) for u in counit.components}
    return PrecosheafMorphism(counit.dst, counit.src, comps)


def enumerate_natural_transformations(b: Precosheaf, a: Precosheaf) -> list[PrecosheafMorphism]:
    """All natural transformations between rudimentary finite-set precosheaves
    on a finite site.  Exponential; intended for desk-scale uniqueness checks."""
    if b.category != FINSET or a.category != FINSET:
        raise EngineError("enumeration needs finite-set values")
    site = b.site.category
    objs = sorted(site.objects)
    per_obj = []
    for u in objs:
        per_obj.append(values.hom_set(b.values[u].levels[0], a.values[u].levels[0]))
    out = []
    for combo in itertools.product(*per_obj):
        comp0 = dict(zip(objs, combo))
        natural = True
        for m in site.morphisms:
            left = compose(comp0[m.dst], b.action[m.id].components[0])
            right = compose(a.action[m.id].components[0], comp0[m.src])
            if not maps_equal(left, right):
                natural = False
                break
        if not natural:
            continue
        comps = {
            u: LevelMorphism.strict(
                b.values[u], a.values[u],
                tuple(comp0[u] for _ in range(b.depth + 1)))
            for u in objs
        }
        out.append(PrecosheafMorphism(b, a, comps))
    return out


def universal_factorization_check(a: Precosheaf, b: Precosheaf, f: PrecosheafMorphism,
                                  depth: int | None = None,
                                  uniqueness_bound: int = 6) -> CheckReport:
    """Factor a morphism from a cosheaf through the coreflection and verify it.

    Builds u = f₊₊ ∘ (counit_B)⁻¹ : B -> A₊₊ and checks counit_A ∘ u == f.
    On finite-set instances with total value cardinality within the bound,
    uniqueness is verified by exhaustive enumeration."""
    if check_cosheaf(b, depth).classification != "COSHEAF":
        raise EngineError("B not a cosheaf")
    ca = cosheafify(a, depth)
    cb = cosheafify(b, depth)
    f1 = plus_map(f, cb.plus1, ca.plus1)
    f2 = plus_map(f1, cb.plus2, ca.plus2)
    section = invert_counit(cb)
    u = section.then(f2)
    composite = u.then(ca.counit)
    trace = []
    ok = all(
        equal_at_depth(composite.components[obj], f.components[obj])
        for obj in sorted(a.site.category.objects)
    )
    trace.append("existence: " + ("factorization composes to f" if ok else "composition mismatch"))
    witnesses = [] if ok else [{"failed": "existence"}]
    if ok and a.category == FINSET and not a.site.has_chains():
        total = sum(len(b.values[obj].levels[0]) for obj in a.site.category.objects)
        if total <= uniqueness_bound:
            candidates = enumerate_natural_transformations(b, ca.precosheaf)
            matching = [
                g for g in candidates
                if all(equal_at_depth(g.then(ca.counit).components[obj], f.components[obj])
                       for obj in a.site.category.objects)
            ]
            trace.append(f"uniqueness: {len(matching)} factorization(s) among "
                         f"{len(candidates)} natural transformations")
            if len(matching) != 1:
                ok = False
                witnesses.append({"failed": "uniqueness", "count": len(matching)})
        else:
            trace.append("uniqueness: skipped (instance above the enumeration bound)")
    return CheckReport(
        verdict="PASS" if ok else "FAIL",
        depth=(depth if depth is not None else a.depth) if a.site.has_chains() else None,
        classification="unique factorization" if ok else "factorization failure",
        witnesses=tuple(witnesses),
        trace=tuple(trace),
    )


# ---------------------------------------------------------------------------
# combinations used by the property suites


def coproduct(a: Precosheaf, b: Precosheaf) -> Precosheaf:
    """Objectwise coproduct with block actions (values must be rudimentary)."""
    if a.category != b.category:
        raise EngineError("coproduct across value categories")
    site = a.site
    d = a.depth
    if a.category == FINSET:
        tables = {}
        for u in site.category.objects:
            tables[u] = tuple(f"a:{x}" for x in a.values[u].levels[0].elements) + tuple(
                f"b:{x}" for x in b.values[u].levels[0].elements)
        action = {}
        for m in site.category.morphisms:
            fa = a.action[m.id].components[0]
            fb = b.action[m.id].components[0]
            table = {f"a:{x}": f"a:{fa(x)}" for x in fa.src.elements}
            table.update({f"b:{x}": f"b:{fb(x)}" for x in fb.src.elements})
            action[m.id] = table
        return precosheaf_from_tables(site, FINSET, tables, action, d, a.points)
    tables = {}
    for u in site.category.objects:
        ga, gb = a.values[u].levels[0], b.values[u].levels[0]
        ra, rb = ga.relation_matrix(), gb.relation_matrix()
        ca_, cb_ = intmat.shape(ra)[1], intmat.shape(rb)[1]
        n = ga.rank + gb.rank
        cols = []
        for j in range(ca_):
            cols.append([ra[i][j] for i in range(ga.rank)] + [0] * gb.rank)
        for j in range(cb_):
            cols.append([0] * ga.rank + [rb[i][j] for i in range(gb.rank)])
        rel = tuple(tuple(c[i] for c in cols) for i in range(n)) if cols else ()
        tables[u] = FinAbObj(n, rel)
    action = {}
    for m in site.category.morphisms:
        fa = a.action[m.id].components[0]
        fb = b.action[m.id].components[0]
        rows = []
        for i in range(fa.dst.rank):
            rows.append(list(fa.matrix[i]) + [0] * fb.src.rank)
        for i in range(fb.dst.rank):
            rows.append([0] * fa.src.rank + list(fb.matrix[i]))
        action[m.id] = intmat.freeze(rows)
    return precosheaf_from_tables(site, FINAB, tables, action, d, a.points)


def objectwise_kernel(f: PrecosheafMorphism) -> Precosheaf:
    """Kernel precosheaf of an abelian morphism, computed objectwise-levelwise."""
    return _objectwise_sub(f, kernel_side=True)


def objectwise_cokernel(f: PrecosheafMorphism) -> Precosheaf:
    return _objectwise_sub(f, kernel_side=False)


def _objectwise_sub(f: PrecosheafMorphism, kernel_side: bool) -> Precosheaf:
    a, b = f.src, f.dst
    if a.category != FINAB:
        raise EngineError("kernels and cokernels need abelian values")
    site = a.site
    d = a.depth
    towers = {}
    carriers = {}
    for u in site.category.objects:
        lvls = []
        maps = []
        for j in range(d + 1):
            comp = f.components[u].components[j]
            if kernel_side:
                k, incl = values.kernel(comp)
                lvls.append(k)
                maps.append(incl)
            else:
                c, proj = values.cokernel(comp)
                lvls.append(c)
                maps.append(proj)
        bonds = []
        for j in range(d):
            if kernel_side:
                carried = compose(a.values[u].bonds[j], maps[j + 1])
                mtx = values.express_through(maps[j], carried)
                bonds.append(FinAbMap(lvls[j + 1], lvls[j], mtx))
            else:
                bonds.append(FinAbMap(lvls[j + 1], lvls[j], b.values[u].bonds[j].matrix))
        towers[u] = Tower(tuple(lvls), tuple(bonds))
        carriers[u] = maps
    action = {}
    for m in site.category.morphisms:
        comps = []
        for j in range(d + 1):
            if kernel_side:
                step = compose(a.action[m.id].components[j], carriers[m.src][j])
                mtx = values.express_through(carriers[m.dst][j], step)
                comps.append(FinAbMap(towers[m.src].levels[j], towers[m.dst].levels[j], mtx))
            else:
                comps.append(FinAbMap(towers[m.src].levels[j], towers[m.dst].levels[j],
                                      b.action[m.id].components[j].matrix))
        action[m.id] = LevelMorphism.strict(towers[m.src], towers[m.dst], tuple(comps))
    return Precosheaf(site, FINAB, d, towers, action, a.points)
