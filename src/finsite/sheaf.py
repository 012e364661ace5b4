"""The presheaf side: Hom with a sieve, the sheaf condition, plus
construction, sheafification and stalks — exact on finite sites, and the
independent oracle for the cosheaf engine's duality bridge."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from . import intmat, values
from .category import (FiniteCategory, Morphism, Sieve, SiteSpec,
                       comma_of_sieve, common_refinement, distinct_covers,
                       sieve_from_cover, sieve_levels)
from .cosheaf import PointFilter, Precosheaf
from .errors import EngineError, SiteError
from .report import CheckReport
from .values import (FINAB, FINSET, FinAbMap, FinAbObj, FinSetMap, FinSetObj,
                     FiniteDiagram, classify_map, compose, express_through,
                     identity_map, maps_equal, terminal_object)


@dataclass(frozen=True)
class Presheaf:
    """Contravariant functor from the site into one value category.

    action[m] for m: U -> V is the restriction value(V) -> value(U)."""

    site: SiteSpec
    category: str
    values: Mapping[str, object]
    action: Mapping[str, object]
    points: tuple[PointFilter, ...] = ()

    def __post_init__(self):
        cat = self.site.category
        for u in cat.objects:
            if u not in self.values:
                raise EngineError(f"presheaf misses a value at {u!r}")
        for m in cat.morphisms:
            f = self.action.get(m.id)
            if f is None or f.src != self.values[m.dst] or f.dst != self.values[m.src]:
                raise EngineError(f"restriction along {m.id!r} missing or mismatched")
        for u in cat.objects:
            if not maps_equal(self.action[cat.id_of(u)], identity_map(self.values[u])):
                raise EngineError(f"identity restriction at {u!r} is not the identity")
        from .cosheaf import _generating_pairs
        for g, f in _generating_pairs(self.site):
            gf = cat.compose(g, f)
            if not maps_equal(self.action[gf], compose(self.action[f], self.action[g])):
                raise EngineError(f"contravariant functoriality fails on ({g},{f})")


def opposite_category(cat: FiniteCategory) -> FiniteCategory:
    morphs = tuple(Morphism(m.id, m.dst, m.src) for m in cat.morphisms)
    comp = {(f, g): gf for (g, f), gf in cat.composition.items()}
    return FiniteCategory(cat.objects, morphs, dict(cat.identity), comp)


@dataclass(frozen=True)
class HomResult:
    obj: object
    restriction: object          # canonical map value(target) -> limit
    limit: values.LimitResult
    members: tuple[str, ...]


def hom_with_sieve(a: Presheaf, sieve: Sieve) -> HomResult:
    """Limit of the presheaf over the sieve's comma category, with the
    canonical restriction map from the value at the target."""
    site_cat = a.site.category
    if not sieve.members:
        obj = terminal_object(a.category)
        value = a.values[sieve.target]
        if a.category == FINSET:
            restriction = FinSetMap(value, obj, tuple((x, obj.elements[0]) for x in value.elements))
        else:
            restriction = FinAbMap(value, obj, tuple(() for _ in range(0)))
        empty = values.LimitResult(obj, {})
        return HomResult(obj, restriction, empty, ())
    comma = comma_of_sieve(a.site, sieve)
    shape = opposite_category(comma)
    nodes = {m: a.values[site_cat.morphism(m).src] for m in shape.objects}
    edges = {}
    for cm in comma.morphisms:
        base = cm.id.split("|")[0]
        edges[cm.id] = a.action[base]
    diagram = FiniteDiagram(shape, nodes, edges, trusted=True)
    limit = values.finite_limit(diagram, a.category)
    members = tuple(sorted(sieve.members))
    value = a.values[sieve.target]
    member_maps = {m: a.action[m] for m in members}
    restriction = _into_limit(limit, value, member_maps, a.category)
    return HomResult(limit.obj, restriction, limit, members)


def _into_limit(limit: values.LimitResult, src, member_maps: Mapping[str, object], category: str):
    """Universal map into a computed limit from a compatible family of maps."""
    nodes = sorted(member_maps)
    if category == FINSET:
        table = {}
        for x in src.elements:
            fam = {m: member_maps[m](x) for m in nodes}
            key = "(" + ",".join(f"{m}={fam[m]}" for m in nodes) + ")"
            if key not in limit.obj.elements:
                raise EngineError("family does not satisfy the limit constraints")
            table[x] = key
        return FinSetMap(src, limit.obj, tuple(table.items()))
    rows = []
    for m in nodes:
        rows.extend(member_maps[m].matrix)
    to_product = FinAbMap(src, limit.product, intmat.freeze(rows) if rows else tuple(() for _ in range(0)))
    mtx = express_through(limit.incl, to_product)
    return FinAbMap(src, limit.obj, mtx)


def check_sheaf(a: Presheaf, depth: int = 6) -> CheckReport:
    """Restriction mono everywhere: separated; iso everywhere: sheaf."""
    all_mono = True
    all_iso = True
    witnesses = []
    for u in sorted(a.site.category.objects):
        for cover in distinct_covers(a.site, u, depth):
            res = hom_with_sieve(a, sieve_from_cover(a.site, cover))
            flags = classify_map(res.restriction)
            if not flags.mono and all_mono:
                all_mono = False
                witnesses.append({"object": u, "cover": list(cover.pieces), "failed": "mono"})
            if not flags.iso and all_iso:
                all_iso = False
                witnesses.append({"object": u, "cover": list(cover.pieces), "failed": "iso"})
    classification = "SHEAF" if all_iso else ("SEPARATED" if all_mono else "NOT-SEPARATED")
    return CheckReport(
        verdict="PASS" if all_iso else "FAIL",
        depth=depth if a.site.has_chains() else None,
        classification=classification,
        witnesses=tuple(witnesses),
        trace=(f"classification: {classification}",),
    )


@dataclass
class SheafPlusResult:
    presheaf: Presheaf
    unit: Mapping[str, object]   # components value(U) -> plus value(U)
    truncated: bool


def plus_sheaf(a: Presheaf, depth: int = 6) -> SheafPlusResult:
    """One plus step: sections over the finest generated covering sieve.

    The directed colimit over generated sieves collapses onto the common
    refinement; chain objects are evaluated at chain level = depth and the
    result is flagged truncated."""
    site = a.site
    sieves = {}
    truncated = False
    for u in site.category.objects:
        chain = site.chain_of(u)
        if chain is None:
            sieves[u] = sieve_from_cover(site, common_refinement(site, u))
        else:
            sieves[u] = sieve_levels(site, u, depth)[depth]
            truncated = True
    homs = {u: hom_with_sieve(a, sieves[u]) for u in site.category.objects}
    new_values = {u: homs[u].obj for u in site.category.objects}
    new_action = {}
    for m in site.category.morphisms:
        # restriction plus(U) -> plus(V) along m: V -> U
        u, v = m.dst, m.src
        target_members = sorted(sieves[v].members)
        member_maps = {}
        for g in target_members:
            composite = site.category.compose(m.id, g)
            if composite not in sieves[u].members:
                raise SiteError(
                    f"stability breach: {composite!r} escapes the sieve of {u!r}")
            member_maps[g] = (
                _family_component(homs[u], composite, a)
            )
        if sieves[v].members:
            new_action[m.id] = _into_limit(homs[v].limit, homs[u].obj, member_maps, a.category)
        else:
            if a.category == FINSET:
                new_action[m.id] = FinSetMap(
                    homs[u].obj, homs[v].obj,
                    tuple((x, homs[v].obj.elements[0]) for x in homs[u].obj.elements))
            else:
                new_action[m.id] = FinAbMap(homs[u].obj, homs[v].obj,
                                            tuple(() for _ in range(0)))
    plus = Presheaf(site, a.category, new_values, new_action, a.points)
    unit = {u: homs[u].restriction for u in site.category.objects}
    return SheafPlusResult(plus, unit, truncated)


def _family_component(hom: HomResult, member: str, a: Presheaf):
    """Projection of the section object onto the family value at one member."""
    if not hom.members:
        raise SiteError("projection out of an empty-sieve section object")
    return hom.limit.cone[member]


@dataclass
class SheafifyResult:
    presheaf: Presheaf
    unit: Mapping[str, object]
    report: CheckReport
    plus1: SheafPlusResult
    plus2: SheafPlusResult


def sheafify(a: Presheaf, depth: int = 6) -> SheafifyResult:
    """Plus construction applied twice, with postcondition checks."""
    p1 = plus_sheaf(a, depth)
    p2 = plus_sheaf(p1.presheaf, depth)
    unit = {u: compose(p2.unit[u], p1.unit[u]) for u in a.site.category.objects}
    r1 = check_sheaf(p1.presheaf, depth)
    r2 = check_sheaf(p2.presheaf, depth)
    ok = r1.classification in ("SEPARATED", "SHEAF") and r2.classification == "SHEAF"
    report = CheckReport(
        verdict="PASS" if ok else "FAIL",
        depth=depth if a.site.has_chains() else None,
        classification="reflection postconditions",
        witnesses=tuple() if ok else tuple([*r1.witnesses, *r2.witnesses]) or ("postcondition failed",),
        trace=(
            f"single plus classification: {r1.classification}",
            f"double plus classification: {r2.classification}",
        ),
    )
    return SheafifyResult(p2.presheaf, unit, report, p1, p2)


def stalk(a: Presheaf, p: PointFilter, depth: int = 6):
    """Colimit along the neighborhood chain; for finite chains this is the
    value at the minimal neighborhood, for rule-generated chains the
    truncated colimit (the value at the deepest visited neighborhood)."""
    chain = p.chain if len(p.chain) <= depth + 1 else p.chain[: depth + 1]
    return a.values[chain[-1]]


# ---------------------------------------------------------------------------
# the duality bridge: Hom(A, G) as a presheaf of sets


def hom_into_presheaf(a: Precosheaf, g: FinSetObj) -> Presheaf:
    """The presheaf U -> Hom_Set(A(U), G) of a rudimentary finite-set
    precosheaf; its (co)sheaf verdicts mirror the cosheaf verdicts of A."""
    if a.category != FINSET or not a.is_rudimentary_valued():
        raise EngineError("the duality bridge needs a rudimentary finite-set precosheaf")
    site = a.site

    def hom_obj(u):
        maps = values.hom_set(a.values[u].levels[0], g)
        ids = tuple(_hom_label(f) for f in maps)
        return FinSetObj(ids), {_hom_label(f): f for f in maps}

    objs = {}
    decode = {}
    for u in site.category.objects:
        objs[u], decode[u] = hom_obj(u)
    action = {}
    for m in site.category.morphisms:
        f_val = a.action[m.id].components[0]
        table = {}
        for label, h in decode[m.dst].items():
            table[label] = _hom_label(compose(h, f_val))
        action[m.id] = FinSetMap(objs[m.dst], objs[m.src], tuple(table.items()))
    return Presheaf(site, FINSET, objs, action, a.points)


def _hom_label(f: FinSetMap) -> str:
    return "[" + ",".join(f"{x}->{y}" for x, y in f.table) + "]"


def presheaf_product(a: Presheaf, b: Presheaf) -> Presheaf:
    """Objectwise product with componentwise restrictions."""
    if a.category != b.category:
        raise EngineError("product across value categories")
    site = a.site
    if a.category == FINSET:
        vals = {}
        for u in site.category.objects:
            vals[u] = FinSetObj(tuple(
                f"<{x}|{y}>" for x in a.values[u].elements for y in b.values[u].elements))
        action = {}
        for m in site.category.morphisms:
            fa, fb = a.action[m.id], b.action[m.id]
            table = {}
            for x in fa.src.elements:
                for y in fb.src.elements:
                    table[f"<{x}|{y}>"] = f"<{fa(x)}|{fb(y)}>"
            action[m.id] = FinSetMap(vals[m.dst], vals[m.src], tuple(table.items()))
        return Presheaf(site, FINSET, vals, action, a.points)
    vals = {}
    for u in site.category.objects:
        ga, gb = a.values[u], b.values[u]
        ra, rb = ga.relation_matrix(), gb.relation_matrix()
        n = ga.rank + gb.rank
        cols = []
        for j in range(intmat.shape(ra)[1]):
            cols.append([ra[i][j] for i in range(ga.rank)] + [0] * gb.rank)
        for j in range(intmat.shape(rb)[1]):
            cols.append([0] * ga.rank + [rb[i][j] for i in range(gb.rank)])
        vals[u] = FinAbObj(n, tuple(tuple(c[i] for c in cols) for i in range(n)) if cols else ())
    action = {}
    for m in site.category.morphisms:
        fa, fb = a.action[m.id], b.action[m.id]
        rows = []
        for i in range(fa.dst.rank):
            rows.append(list(fa.matrix[i]) + [0] * fb.src.rank)
        for i in range(fb.dst.rank):
            rows.append([0] * fa.src.rank + list(fb.matrix[i]))
        action[m.id] = FinAbMap(vals[m.dst], vals[m.src], intmat.freeze(rows))
    return Presheaf(site, FINAB, vals, action, a.points)
