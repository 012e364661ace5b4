"""The presheaf side: Hom with a sieve, the sheaf condition, plus
construction, sheafification and stalks — exact on finite sites, and the
independent oracle for the cosheaf engine's duality bridge."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from . import values
from .category import (FiniteCategory, Morphism, PointFilter, Sieve, SiteSpec,
                       _ThinComposition, _comma_bases, _generating_pairs, checked_covers,
                       comma_of_sieve, common_sieve, sieve_levels)
from .cosheaf import Precosheaf
from .errors import EngineError, SiteError
from .report import CheckReport
from .values import (FINSET, FinSetMap, FinSetObj, FiniteDiagram, classify_map, compose,
                     identity_map, into_limit, maps_equal)


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
            if values.category_of(self.values[u]) != self.category:
                raise EngineError(f"value at {u!r} is not in {self.category!r}")
        for m in cat.morphisms:
            f = self.action.get(m.id)
            if f is None or f.src != self.values[m.dst] or f.dst != self.values[m.src]:
                raise EngineError(f"restriction along {m.id!r} missing or mismatched")
        for u in cat.objects:
            if not maps_equal(self.action[cat.id_of(u)], identity_map(self.values[u])):
                raise EngineError(f"identity restriction at {u!r} is not the identity")
        for g, f in _generating_pairs(self.site):
            gf = cat.compose(g, f)
            if not maps_equal(self.action[gf], compose(self.action[f], self.action[g])):
                raise EngineError(f"contravariant functoriality fails on ({g},{f})")


class _OppositeComposition(Mapping):
    """A composition table read with each pair swapped: (f, g) -> g∘f."""

    def __init__(self, composition: Mapping):
        self._composition = composition

    def __getitem__(self, key):
        f, g = key
        return self._composition[(g, f)]

    def __iter__(self):
        return ((f, g) for g, f in self._composition)

    def __len__(self):
        return len(self._composition)


def opposite_category(cat: FiniteCategory) -> FiniteCategory:
    """The opposite category; the opposite of a thin category is thin."""
    morphs = tuple(Morphism(m.id, m.dst, m.src) for m in cat.morphisms)
    table = _ThinComposition() if cat.thin else _OppositeComposition(cat.composition)
    return FiniteCategory(cat.objects, morphs, dict(cat.identity), table)


@dataclass(frozen=True)
class HomResult:
    obj: object
    restriction: object          # canonical map value(target) -> limit
    limit: values.LimitResult


def hom_with_sieve(a: Presheaf, sieve: Sieve) -> HomResult:
    """Limit of the presheaf over the opposite of the sieve's comma category
    (built once per sieve and kept on the site), with the canonical
    restriction map from the value at the target.  Over the empty sieve the
    limit is the shared terminal value."""
    if sieve.members:
        key = (sieve.target, sieve.members)
        shape = a.site._opposite_commas.get(key)
        if shape is None:
            shape = a.site._opposite_commas[key] = opposite_category(comma_of_sieve(a.site, sieve))
        site_cat = a.site.category
        nodes = {m: a.values[site_cat.morphism(m).src] for m in shape.objects}
        edges = {cm.id: a.action[b] for cm, b in zip(shape.morphisms, _comma_bases(a.site, sieve))}
        limit = values.finite_limit(FiniteDiagram(shape, nodes, edges, trusted=True), a.category)
    else:
        limit = values.terminal_limit(a.category)
    restriction = into_limit(limit, a.values[sieve.target], {m: a.action[m] for m in sieve.members})
    return HomResult(limit.obj, restriction, limit)


def check_sheaf(a: Presheaf, depth: int = 6) -> CheckReport:
    """Restriction mono everywhere: separated; iso everywhere: sheaf.

    On a thin site a cover whose sieve holds id_u takes no limit: its
    restriction is the identity, from the slice's terminal object.  Over a
    declared table it does, since that comma's closure check is where this
    check refuses a table that is no category (`category.checked_covers`)."""
    all_mono = True
    all_iso = True
    witnesses = []
    for u in sorted(a.site.category.objects):
        for cover, sieve in checked_covers(a.site, u, depth):
            res = hom_with_sieve(a, sieve)
            flags = classify_map(res.restriction)
            if not flags.mono and all_mono:
                all_mono = False
                witnesses.append({"object": u, "cover": list(cover.pieces), "failed": "mono"})
            if not flags.iso and all_iso:
                all_iso = False
                witnesses.append({"object": u, "cover": list(cover.pieces), "failed": "iso"})
    classification = "SHEAF" if all_iso else ("SEPARATED" if all_mono else "NOT-SEPARATED")
    return CheckReport.on(a.site, depth, classification, witnesses,
                          (f"classification: {classification}",))


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
            sieves[u] = common_sieve(site, u)
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
            member_maps[g] = homs[u].limit.cone[composite]
        new_action[m.id] = into_limit(homs[v].limit, homs[u].obj, member_maps)
    plus = Presheaf(site, a.category, new_values, new_action, a.points)
    unit = {u: homs[u].restriction for u in site.category.objects}
    return SheafPlusResult(plus, unit, truncated)


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
    report = CheckReport.postconditions(
        "reflection postconditions", check_sheaf(p1.presheaf, depth),
        check_sheaf(p2.presheaf, depth), ("SEPARATED", "SHEAF"), "SHEAF")
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
    """Objectwise product: at each object the limit of the two values over a
    discrete shape, with the induced restrictions."""
    if a.category != b.category:
        raise EngineError("product across value categories")
    site = a.site
    prods = {u: values.finite_limit(values._diagram({"a": a.values[u], "b": b.values[u]}))
             for u in site.category.objects}
    action = {}
    for m in site.category.morphisms:
        # restriction along m: U -> V, from the product at V to the one at U
        src = prods[m.dst]
        action[m.id] = into_limit(prods[m.src], src.obj,
                                  {"a": compose(a.action[m.id], src.cone["a"]),
                                   "b": compose(b.action[m.id], src.cone["b"])})
    return Presheaf(site, a.category, {u: p.obj for u, p in prods.items()}, action, a.points)
