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

from . import values
from .category import (Cover, FiniteCategory, PointFilter, Sieve, SiteSpec, _comma_bases,
                       _generating_pairs, _refinement, checked_covers, comma_of_sieve,
                       poset_category, refinement_search, sieve_from_cover, sieve_levels)
from .errors import EngineError, InsufficientDepth, SiteError
from .report import CheckReport
from .towers import (LevelMorphism, Tower, TowerColimit, _levelwise, chain_components,
                     chains_equal_at_depth, is_epi_at_depth,
                     is_iso_at_depth, is_rudimentary_at_depth, tower_colimit,
                     tower_pro_zero)
from .values import (FINAB, FINSET, FinAbMap, FinAbObj, FinSetMap, FinSetObj,
                     _shape, category_of, chains_equal, commutes, compose, identity_map,
                     out_map)


@dataclass(frozen=True)
class Precosheaf:
    site: SiteSpec
    category: str
    depth: int
    values: Mapping[str, Tower]
    action: Mapping[str, LevelMorphism]
    points: tuple[PointFilter, ...] = ()
    _tensor_cache: dict = field(default_factory=dict, repr=False, compare=False)
    # level colimits by sieve key, then by level diagram (see tower_colimit);
    # shared along a plus lineage: plus_cosheaf hands it to what it builds
    _colimits: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        cat = self.site.category
        for u in cat.objects:
            t = self.values.get(u)
            if t is None or t.depth != self.depth:
                raise EngineError(f"value at {u!r} missing or at the wrong depth")
            if t.category() != self.category:
                raise EngineError(f"value at {u!r} is not in {self.category!r}")
        for m in cat.morphisms:
            a = self.action.get(m.id)
            if a is None:
                raise EngineError(f"action missing on {m.id!r}")
            if a.src != self.values[m.src] or a.dst != self.values[m.dst]:
                raise EngineError(f"action on {m.id!r} has wrong endpoints")
        for u in cat.objects:
            if not chains_equal_at_depth((self.action[cat.id_of(u)],), ()):
                raise EngineError(f"identity action at {u!r} is not the identity")
        for g, f in _generating_pairs(self.site):
            if not chains_equal_at_depth((self.action[cat.compose(g, f)],),
                                         (self.action[f], self.action[g])):
                raise EngineError(f"functoriality fails on ({g},{f})")

    def is_rudimentary_valued(self) -> bool:
        return all(t.is_constant() for t in self.values.values())

    def point_filter(self, label: str) -> PointFilter:
        for p in self.site.points:
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
    return FinAbObj(*raw)


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
        action[m.id] = LevelMorphism(towers[m.src], towers[m.dst], (f,) * (depth + 1))
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
            if not chains_equal_at_depth((self.src.action[m.id], self.components[m.dst]),
                                         (self.components[m.src], self.dst.action[m.id])):
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
    colimit: TowerColimit
    compare: LevelMorphism  # canonical map into the value at the sieve target

    @property
    def tower(self) -> Tower:
        return self.colimit.tower


def _map_out(col: TowerColimit, dst: Tower, routes) -> LevelMorphism:
    """Tower map out of a tower colimit, from one chain of level morphisms
    per node into dst (listed in the order they apply; the composite of each
    is never built).  Components follow `towers._levelwise`, keyed by the
    colimit level, the target level and the chain components."""
    chains = [[chain_components(chain, j) for chain in routes.values()]
              for j in range(len(col.levels))]
    comps = _levelwise(
        ((colim, dst.levels[j], *(f for c in chains[j] for f in c))
         for j, colim in enumerate(col.levels)),
        lambda j: out_map(col.levels[j], dict(zip(routes, chains[j])), dst.levels[j]))
    return LevelMorphism(col.tower, dst, tuple(comps))


def tensor_with_sieve(a: Precosheaf, sieve: Sieve) -> TensorResult:
    """Colimit of the precosheaf over the sieve's comma category, with the
    canonical comparison map into the value at the sieve target.  The empty
    sieve's comma category is empty and is not built: its one level diagram
    is empty, and its store holds the shared initial colimit."""
    key = (sieve.target, sieve.members)
    hit = a._tensor_cache.get(key)
    if hit is not None:
        return hit
    store = a._colimits.setdefault(key, {})
    if sieve.members:
        comma, bases = comma_of_sieve(a.site, sieve), _comma_bases(a.site, sieve)
    else:
        comma, bases = _shape(()), ()
        store.setdefault((), values.initial_colimit(a.category))
    site_cat = a.site.category
    nodes = {m: a.values[site_cat.morphism(m).src] for m in comma.objects}
    edges = {cm.id: a.action[b] for cm, b in zip(comma.morphisms, bases)}
    col = tower_colimit(comma, nodes, edges, a.depth, store, a.category)
    out = TensorResult(col, _map_out(col, a.values[sieve.target],
                                     {m: (a.action[m],) for m in comma.objects}))
    a._tensor_cache[key] = out
    return out


def _pushforward(a: Precosheaf, src_tensor: TensorResult, dst_tensor: TensorResult,
                 alpha: str, j: int):
    """Raw level-j map [A⊗S] -> [A⊗R] sending class (g, x) to (alpha∘g, x).

    Requires alpha ∘ S ⊆ R, which the refinement search guarantees."""
    cat = a.site.category
    src, dst = src_tensor.colimit.levels[j], dst_tensor.colimit.levels[j]
    return out_map(src, {g: dst.cocone[cat.compose(alpha, g)] for g in sorted(src.cocone)},
                   dst.obj)


# ---------------------------------------------------------------------------
# the cosheaf condition


@dataclass(frozen=True)
class FastDefect:
    colimit: TowerColimit    # nodes "p<i>" per piece, "w<i>,<j>" per intersection
    compare: LevelMorphism
    # (node name, composite member id) per declared intersection
    pair_routes: tuple = ()


def cosheaf_defect(a: Precosheaf, cover: Cover) -> TensorResult:
    """Canonical map from the cover colimit into the value at the target,
    computed by tensoring with the generated sieve.  The cokernel fast path
    over declared intersections is the oracle that `defect_agreement` checks
    this against."""
    return tensor_with_sieve(a, sieve_from_cover(a.site, cover))


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
    nodes = {f"p{i}": a.values[cat.morphism(p).src] for i, p in enumerate(cover.pieces)}
    routes = {f"p{i}": (a.action[p],) for i, p in enumerate(cover.pieces)}
    arrows, edges, pair_routes = [], {}, []
    for (i, j), w in sorted(cover.intersection_map().items()):
        node = f"w{i},{j}"
        legs = _fast_legs(cat, w, cover.pieces[i], cover.pieces[j])
        if legs is None:
            raise SiteError(f"declared intersection {w!r} has no commuting legs")
        nodes[node] = a.values[w]
        for k, leg in zip((i, j), legs):
            arrows.append((f"l:{node}>p{k}", node, f"p{k}"))
            edges[f"l:{node}>p{k}"] = a.action[leg]
        member = cat.compose(cover.pieces[i], legs[0])
        pair_routes.append((node, member))
        routes[node] = (a.action[member],)
    shape = _shape(nodes, arrows)
    edges.update({shape.id_of(v): LevelMorphism.identity(t) for v, t in nodes.items()})
    # an empty cover's one level diagram is empty: the shared initial colimit
    store = None if nodes else {(): values.initial_colimit(a.category)}
    col = tower_colimit(shape, nodes, edges, a.depth, store, a.category)
    return FastDefect(col, _map_out(col, a.values[cover.target], routes), tuple(pair_routes))


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
    fast = _fast_defect(a, cover)
    members = sorted(sieve.members)
    # psi places each member at its lex-smallest (piece, factor)
    placed = _refinement(a.site.category, Cover(cover.target, tuple(members)), cover)
    for j, (fast_j, slow_j) in enumerate(zip(fast.colimit.levels, slow.colimit.levels)):
        # phi: fast -> slow via pieces-as-members
        to_slow = {f"p{i}": slow_j.cocone[p] for i, p in enumerate(cover.pieces)}
        to_slow.update((node, slow_j.cocone[member]) for node, member in fast.pair_routes)
        phi = out_map(fast_j, to_slow, slow_j.obj)
        psi = out_map(slow_j, {g: (a.action[beta].components[j], fast_j.cocone[f"p{i}"])
                               for g, (i, beta) in zip(members, placed)}, fast_j.obj)
        fast_c, slow_c = fast.compare.components[j], slow.compare.components[j]
        if not (chains_equal((phi, psi), (identity_map(fast_j.obj),))
                and chains_equal((psi, phi), (identity_map(slow_j.obj),))
                and chains_equal((phi, slow_c), (fast_c,))
                and chains_equal((psi, fast_c), (slow_c,))):
            return False
    return True


def check_cosheaf(a: Precosheaf, depth: int | None = None) -> CheckReport:
    """Classify every cover's defect map: iso everywhere means cosheaf, epi
    everywhere means coseparated; the first failing cover is the witness.

    On a thin site a cover whose sieve holds id_u is not tensored: its
    comparison is the identity, from the slice's terminal object.  Over a
    declared table it is, since that colimit's closure check is where this
    check refuses a table that is no category (`category.checked_covers`)."""
    d = a.depth if depth is None else min(depth, a.depth)
    all_iso = True
    all_epi = True
    witnesses = []
    for u in sorted(a.site.category.objects):
        for cover, _ in checked_covers(a.site, u, d):
            defect = cosheaf_defect(a, cover)
            iso = is_iso_at_depth(defect.compare, d)
            if iso.iso:  # iso implies epi at every depth
                continue
            # past the first non-epi cover no epi verdict changes the report
            if all_epi and not (epi := is_epi_at_depth(defect.compare, d)).epi:
                all_epi = False
                witnesses.append({"object": u, "cover": list(cover.pieces), "failed": "epi",
                                  "detail": epi.detail})
            if all_iso:
                all_iso = False
                witnesses.append({"object": u, "cover": list(cover.pieces), "failed": "iso",
                                  "detail": iso.detail})
    if all_iso:
        classification = "COSHEAF"
    elif all_epi:
        classification = "COSEPARATED"
    else:
        classification = "NOT-COSEPARATED"
    return CheckReport.on(a.site, d, classification, witnesses,
                          (f"classification: {classification}",))


# ---------------------------------------------------------------------------
# the plus construction


@dataclass
class PlusResult:
    precosheaf: Precosheaf
    counit: PrecosheafMorphism
    sieves: Mapping[str, list]
    phi: tuple[int, ...]  # plus level j is sieve and tensor level phi[j]


def truncate_precosheaf(a: Precosheaf, depth: int) -> Precosheaf:
    """Restrict every value tower and action to the levels up to `depth`."""
    if depth >= a.depth:
        return a
    towers = {u: t.reindexed(range(depth + 1)) for u, t in a.values.items()}
    action = {}
    for mid, lm in a.action.items():
        m = a.site.category.morphism(mid)
        action[mid] = LevelMorphism(towers[m.src], towers[m.dst],
                                    lm.components[: depth + 1])
    return Precosheaf(a.site, a.category, depth, towers, action, a.points,
                      _colimits=a._colimits)


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
    # the plus action on m at level k reads level shift[k] >= k of its source
    shifts = {}
    for m in site.category.morphisms:
        shift = []
        for k in range(d + 1):
            hit = refinement_search(site, m.src, sieves[m.dst][k], m.id, d)
            if hit is None:
                raise SiteError(
                    f"no declared cover of {m.src!r} refines the pullback of "
                    f"level {k} of {m.dst!r} along {m.id!r}")
            lvl = max(k, hit[0], shift[-1] if shift else 0)
            if lvl > d:
                raise InsufficientDepth("insufficient depth for the plus action")
            shift.append(lvl)
        shifts[m.id] = shift

    plus, phi, tensors = _normalize_with_reindex(a, sieves, shifts)
    counit_components = {}
    for u in site.category.objects:
        t = a.values[u]
        comps = tuple(tensors[u][p].compare.components[p] if p == k else
                      compose(t.bond_composite(p, k), tensors[u][p].compare.components[p])
                      for k, p in enumerate(phi))
        counit_components[u] = LevelMorphism(plus.values[u], t, comps)
    counit = PrecosheafMorphism(plus, a, counit_components)
    return PlusResult(plus, counit, sieves, phi)


def _stable_reindex(shifts, depth: int) -> tuple[int, ...]:
    """The least nondecreasing phi with phi(j) >= j and shift[phi(j)] <= phi(j)
    for every shift: phi(j) is reached from j by following the shifts, which
    never exceed depth, until none moves it."""
    phi, p = [], 0
    for j in range(depth + 1):
        p = max(p, j)
        while (q := max((shift[p] for shift in shifts), default=p)) > p:
            p = q
        phi.append(p)
    return tuple(phi)


def _normalize_with_reindex(a, sieves, shifts):
    """Build the plus precosheaf at the least phi that makes every action
    strict, from tensors at the distinct sieve levels of phi only: plus
    level j is level phi[j] of the tensor at sieve level phi[j], and at
    p = phi[j] every shift is p, so action component j is the pushforward
    at level p, which reads two level-p colimits alone: its key for
    `towers._levelwise`.  Returns the plus precosheaf, phi and those tensors."""
    phi = _stable_reindex(list(shifts.values()), a.depth)
    cat = a.site.category
    tensors = {u: {p: tensor_with_sieve(a, s[p]) for p in dict.fromkeys(phi)}
               for u, s in sieves.items()}
    towers = {}
    for u, at in tensors.items():
        bonds = []
        for lo, hi in zip(phi, phi[1:]):
            bond = at[lo].tower.bond_composite(hi, lo)
            if at[hi] is not at[lo]:  # equal sieves share one tensor
                bond = compose(bond, _pushforward(a, at[hi], at[lo], cat.id_of(u), hi))
            bonds.append(bond)
        towers[u] = Tower(tuple(at[p].tower.levels[p] for p in phi), tuple(bonds))
    action = {}
    for m in cat.morphisms:
        src_at, dst_at = tensors[m.src], tensors[m.dst]
        comps = _levelwise(
            ((src_at[p].colimit.levels[p], dst_at[p].colimit.levels[p]) for p in phi),
            lambda j: _pushforward(a, src_at[phi[j]], dst_at[phi[j]], m.id, phi[j]))
        action[m.id] = LevelMorphism(towers[m.src], towers[m.dst], tuple(comps))
    return (Precosheaf(a.site, a.category, a.depth, towers, action, a.points,
                       _colimits=a._colimits), phi, tensors)


def plus_map(f: PrecosheafMorphism, plus_src: PlusResult, plus_dst: PlusResult) -> PrecosheafMorphism:
    """The plus construction applied to a precosheaf morphism; plus level j
    reads sieve and tensor level phi[j], one component per distinct level."""
    site = f.src.site
    comps = {}
    for u in site.category.objects:
        per_level = {}
        for p in dict.fromkeys(plus_src.phi):
            s = plus_src.sieves[u][p]
            src_t = tensor_with_sieve(plus_src.counit.dst, s)
            dst_t = tensor_with_sieve(plus_dst.counit.dst, s)
            node_maps = {
                g: (f.components[site.category.morphism(g).src].components[p],
                    dst_t.colimit.levels[p].cocone[g])
                for g in sorted(s.members)}
            per_level[p] = out_map(src_t.colimit.levels[p], node_maps, dst_t.tower.levels[p])
        comps[u] = LevelMorphism(plus_src.precosheaf.values[u],
                                 plus_dst.precosheaf.values[u],
                                 tuple(per_level[p] for p in plus_src.phi))
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
    report = CheckReport.postconditions(
        "coreflection postconditions", check_cosheaf(p1.precosheaf, depth),
        check_cosheaf(p2.precosheaf, depth), ("COSEPARATED", "COSHEAF"), "COSHEAF")
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
    return LevelMorphism(src, dst, comps)


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
    classification = "not a strong local isomorphism" if witnesses else "strong local isomorphism"
    return CheckReport.on(f.src.site, d, classification, witnesses, trace)


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
    classification = "not locally zero" if witnesses else "locally zero"
    return CheckReport.on(a.site, d, classification, witnesses, trace)


def is_smooth(a: Precosheaf, depth: int | None = None) -> CheckReport:
    """A plain-valued precosheaf is smooth iff its coreflection stays
    plain-valued: every double-plus value must be rudimentary at depth.
    Only those values are read, so neither the counit nor the postcondition
    reports of `cosheafify` are built."""
    d = a.depth if depth is None else min(depth, a.depth)
    if not a.is_rudimentary_valued():
        return CheckReport.on(a.site, d, "SMOOTH",
                              trace=("tower-valued input: smooth by construction (trivial pass)",))
    top = plus_cosheaf(plus_cosheaf(a, d).precosheaf, d).precosheaf
    witnesses = []
    trace = []
    for u in sorted(a.site.category.objects):
        rv = is_rudimentary_at_depth(top.values[u], d)
        trace.append(f"{u}: {rv.verdict} profile {list(rv.profile)}")
        if not rv.rudimentary:
            witnesses.append({"object": u, "growth_profile": list(map(str, rv.profile))})
    return CheckReport.on(a.site, d, "NOT-SMOOTH" if witnesses else "SMOOTH", witnesses, trace)


# ---------------------------------------------------------------------------
# universal property of the coreflection


def invert_counit(result: PlusResult | CosheafifyResult) -> PrecosheafMorphism:
    """Exact inverse of a levelwise isomorphic counit."""
    counit = result.counit
    comps = {u: LevelMorphism(lm.dst, lm.src, tuple(map(values.inverse, lm.components)))
             for u, lm in counit.components.items()}
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
            if not commutes(comp0[m.dst], b.action[m.id].components[0],
                            a.action[m.id].components[0], comp0[m.src]):
                natural = False
                break
        if not natural:
            continue
        comps = {
            u: LevelMorphism(
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

    The factorization is u = f₊₊ ∘ (counit_B)⁻¹ : B -> A₊₊; existence checks
    counit_A ∘ u == f objectwise through the chain, without building u.
    On finite-set instances with total value cardinality within the bound,
    uniqueness is verified by exhaustive enumeration."""
    if check_cosheaf(b, depth).classification != "COSHEAF":
        raise EngineError("B not a cosheaf")
    ca = cosheafify(a, depth)
    cb = cosheafify(b, depth)
    f1 = plus_map(f, cb.plus1, ca.plus1)
    f2 = plus_map(f1, cb.plus2, ca.plus2)
    section = invert_counit(cb)
    trace = []
    ok = all(
        chains_equal_at_depth((section.components[obj], f2.components[obj],
                               ca.counit.components[obj]), (f.components[obj],))
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
                if all(chains_equal_at_depth((g.components[obj], ca.counit.components[obj]),
                                             (f.components[obj],))
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
        depth=ca.report.depth,
        classification="unique factorization" if ok else "factorization failure",
        witnesses=witnesses,
        trace=trace,
    )


# ---------------------------------------------------------------------------
# combinations used by the property suites


def coproduct(a: Precosheaf, b: Precosheaf) -> Precosheaf:
    """Objectwise coproduct: at each object the tower colimit of the two
    values over a discrete shape, with the induced actions."""
    if a.category != b.category:
        raise EngineError("coproduct across value categories")
    if a.depth != b.depth:
        raise EngineError("coproduct of precosheaves of different depths")
    pair = poset_category(("a", "b"), ())
    store = {}
    sums = {}
    for u in a.site.category.objects:
        nodes = {"a": a.values[u], "b": b.values[u]}
        edges = {pair.id_of(v): LevelMorphism.identity(t) for v, t in nodes.items()}
        sums[u] = tower_colimit(pair, nodes, edges, a.depth, store)
    action = {}
    for m in a.site.category.morphisms:
        src, dst = sums[m.src], sums[m.dst]
        action[m.id] = LevelMorphism(src.tower, dst.tower, tuple(
            out_map(s, {"a": (a.action[m.id].components[j], t.cocone["a"]),
                        "b": (b.action[m.id].components[j], t.cocone["b"])}, t.obj)
            for j, (s, t) in enumerate(zip(src.levels, dst.levels))))
    return Precosheaf(a.site, a.category, a.depth, {u: s.tower for u, s in sums.items()},
                      action, a.points)


def objectwise_kernel(f: PrecosheafMorphism) -> Precosheaf:
    """Kernel precosheaf of an abelian morphism, computed objectwise-levelwise:
    the source's bonds and actions carried through the kernel inclusions."""
    return _objectwise(f, values.kernel, f.src,
                       lambda g, incl_src, incl_dst: values.express_through(
                           incl_dst, compose(g, incl_src)))


def objectwise_cokernel(f: PrecosheafMorphism) -> Precosheaf:
    """Cokernel precosheaf: the target's bond and action matrices on the
    cokernel generators."""
    return _objectwise(f, values.cokernel, f.dst, lambda g, *_: g.matrix)


def _objectwise(f: PrecosheafMorphism, part, carrier: Precosheaf, induced) -> Precosheaf:
    """The precosheaf of `part` (kernel or cokernel) of every component of f,
    with one (object, map) pair per level; induced(g, map_src, map_dst) is
    the matrix on those objects of the carrier's bond or action g."""
    if f.src.category != FINAB:
        raise EngineError("kernels and cokernels need abelian values")
    site, d = f.src.site, f.src.depth
    towers, maps = {}, {}
    for u in site.category.objects:
        lvls, maps[u] = zip(*map(part, f.components[u].components))
        towers[u] = Tower(lvls, tuple(
            FinAbMap(lvls[j + 1], lvls[j],
                     induced(carrier.values[u].bonds[j], maps[u][j + 1], maps[u][j]))
            for j in range(d)))
    action = {}
    for m in site.category.morphisms:
        src, dst = towers[m.src], towers[m.dst]
        action[m.id] = LevelMorphism(src, dst, tuple(
            FinAbMap(src.levels[j], dst.levels[j],
                     induced(carrier.action[m.id].components[j], maps[m.src][j], maps[m.dst][j]))
            for j in range(d + 1)))
    return Precosheaf(site, FINAB, d, towers, action, f.src.points)
