"""Finite topological spaces, their open-set sites, the rule-generated
converging-sequence site, and the built-in demo bundles.

Convention: a finite space is a poset of points; opens are the down-closed
sets, so the minimal open neighborhood of x is its down-set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import values
from .category import (Cover, CoverChain, Coverage, PointFilter, SiteSpec, _refinement,
                       order_closure, poset_category)
from .cosheaf import Precosheaf, constant_precosheaf, precosheaf_from_tables
from .errors import EngineError, SiteError
from .sheaf import Presheaf
from .values import FINAB, FINSET, FinAbObj, finset


@dataclass(frozen=True)
class FiniteSpace:
    points: tuple[str, ...]
    order: frozenset[tuple[str, str]]  # (a, b) means a <= b; reflexive-transitive

    def __post_init__(self):
        rel = order_closure(self.points, self.order)
        for a, b in sorted(rel):
            if a != b and (b, a) in rel:
                raise EngineError(f"specialization order not antisymmetric on {a!r},{b!r}")
        object.__setattr__(self, "order", frozenset(rel))

    def leq(self, a: str, b: str) -> bool:
        return (a, b) in self.order

    def down_set(self, x: str) -> frozenset[str]:
        return frozenset(p for p in self.points if self.leq(p, x))

    def opens(self) -> list[frozenset[str]]:
        """All down-closed subsets, smallest first, then lexicographic in
        their sorted points.

        Enumerated by output: the points are decided in a linear extension
        of the order, and a point may join only once everything below it
        has, so every branch ends in a distinct down-set."""
        below = {x: [p for p in self.points if p != x and self.leq(p, x)] for x in self.points}
        order = sorted(self.points, key=lambda x: (len(below[x]), x))
        out = []

        def grow(i, chosen):
            if i == len(order):
                out.append(frozenset(chosen))
                return
            grow(i + 1, chosen)
            x = order[i]
            if all(p in chosen for p in below[x]):
                chosen.add(x)
                grow(i + 1, chosen)
                chosen.discard(x)

        grow(0, set())
        out.sort(key=lambda s: (len(s), sorted(s)))
        return out

    def comparability_components(self, subset: frozenset[str]) -> list[frozenset[str]]:
        """Connected components of a subset under order-comparability adjacency."""
        remaining = set(subset)
        comps = []
        while remaining:
            seed = min(remaining)
            comp = {seed}
            frontier = [seed]
            while frontier:
                x = frontier.pop()
                for y in list(remaining):
                    if y not in comp and (self.leq(x, y) or self.leq(y, x)):
                        comp.add(y)
                        frontier.append(y)
            remaining -= comp
            comps.append(frozenset(comp))
        return sorted(comps, key=lambda c: sorted(c))


def open_label(s: frozenset[str]) -> str:
    return "{" + ",".join(sorted(s)) + "}"


def _inclusion(src: frozenset, dst: frozenset) -> str:
    return f"{open_label(src)}<{open_label(dst)}"


# the points of an open-set site are bounded, and so is its open lattice: at
# most the 2^10 opens any 10-point space has, which admits the 12-point fence
# (377 opens) but not the 11-point antichain (2,048)
MAX_POINTS = 12
MAX_OPENS = 2 ** 10
# and so are the declared covers of each open: the 8-point fence's largest
# open has 36,555, the 6-point antichain's top open far more
MAX_COVERS = 2 ** 16


def open_site(space: FiniteSpace, cover_policy: str = "all-irredundant") -> SiteSpec:
    """The open-set site: objects are the down-sets, morphisms the inclusions.

    Policies: "all-irredundant" declares every inclusion-irredundant family
    with the right union; "generated" declares only the trivial cover and the
    cover by minimal open neighborhoods.  Pairwise intersections are always
    declared (down-sets are closed under intersection)."""
    if len(space.points) > MAX_POINTS:
        raise SiteError(f"space exceeds the open-lattice bound ({MAX_POINTS} points)")
    opens = space.opens()
    if len(opens) > MAX_OPENS:
        raise SiteError(f"space exceeds the open-lattice bound ({len(opens)} opens, "
                        f"at most {MAX_OPENS})")
    labels = {s: open_label(s) for s in opens}
    leq_pairs = [(labels[a], labels[b]) for a in opens for b in opens if a <= b]
    cat = poset_category(sorted(labels.values()), leq_pairs)
    covers: dict[str, list[Cover]] = {}
    for u in opens:
        ulabel = labels[u]
        if not u:
            trivial = Cover(ulabel, (cat.id_of(ulabel),), ())
            empty = Cover(ulabel, (), ())
            covers[ulabel] = [trivial, empty]
            continue
        families = _covering_families(space, opens, u, cover_policy)
        built = []
        for fam in families:
            pieces = tuple(_inclusion(v, u) if v != u else cat.id_of(ulabel) for v in fam)
            inter = []
            for i in range(len(fam)):
                for j in range(i + 1, len(fam)):
                    inter.append(((i, j), labels[fam[i] & fam[j]]))
            built.append(Cover(ulabel, pieces, tuple(inter)))
        covers[ulabel] = built
    points = tuple(
        PointFilter(f"pt:{x}", (labels[space.down_set(x)],)) for x in sorted(space.points)
    )
    return SiteSpec(cat, Coverage({u: tuple(cs) for u, cs in covers.items()}, {}),
                    name=f"open-site({len(space.points)}pts,{cover_policy})", poset=True,
                    points=points)


def site_points(spec: SiteSpec) -> tuple[PointFilter, ...]:
    return spec.points


def _covering_families(space, opens, u, policy):
    """The declared covers of the open u, sorted by size, then by their
    pieces' sorted points.

    "all-irredundant": every antichain of nonempty opens inside u whose
    union is u, found by backtracking over the opens in order; an open
    comparable with one already chosen is skipped, and a branch ends when
    the opens left cannot reach u."""
    if policy == "generated":
        minimal = []
        for x in sorted(u):
            d = space.down_set(x)
            minimal.append(d)
        fam = _irredundant_core(minimal)
        out = [(u,)]
        if tuple(fam) != (u,):
            out.append(tuple(fam))
        return [tuple(sorted(f, key=sorted)) for f in out]
    if policy != "all-irredundant":
        raise SiteError(f"unknown cover policy {policy!r}")
    nonempty = [v for v in opens if v and v <= u]
    # reach[i]: the union of the opens from i on, which bounds what any
    # extension by them can still cover
    reach = [frozenset()] * (len(nonempty) + 1)
    for i in range(len(nonempty) - 1, -1, -1):
        reach[i] = reach[i + 1] | nonempty[i]
    # comparable[j]: bit k set when nonempty[k] and nonempty[j] are comparable
    comparable = [sum(1 << k for k, w in enumerate(nonempty) if v <= w or w <= v)
                  for v in nonempty]
    out = []

    def extend(i, chosen, covered, excluded):
        # excluded: a bit for each open comparable with one already chosen
        if chosen and covered == u:
            out.append(tuple(sorted(chosen, key=sorted)))
            if len(out) > MAX_COVERS:
                raise SiteError(f"open {open_label(u)} exceeds the cover bound ({MAX_COVERS})")
        for j in range(i, len(nonempty)):
            if covered | reach[j] != u:
                return
            if not excluded >> j & 1:
                chosen.append(nonempty[j])
                extend(j + 1, chosen, covered | nonempty[j], excluded | comparable[j])
                chosen.pop()

    extend(0, [], frozenset(), 0)
    out.sort(key=lambda fam: (len(fam), [sorted(v) for v in fam]))
    return out


def _irredundant_core(family):
    fam = sorted(set(family), key=sorted)
    return tuple(v for v in fam if not any(v < w for w in fam))


def pi0_precosheaf(spec: SiteSpec, space: FiniteSpace, depth: int = 0) -> Precosheaf:
    """Connected components under comparability adjacency, as a set-valued
    precosheaf on an open-set site."""
    opens = {open_label(s): s for s in space.opens()}
    comp_of = {}
    tables = {}
    for label, s in opens.items():
        comps = space.comparability_components(s)
        comp_of[label] = comps
        tables[label] = tuple(f"c:{min(sorted(c))}" for c in comps)
    action = {}
    for m in spec.category.morphisms:
        src_comps = comp_of[m.src]
        dst_comps = comp_of[m.dst]
        table = {}
        for c in src_comps:
            target = next(d for d in dst_comps if c <= d)
            table[f"c:{min(sorted(c))}"] = f"c:{min(sorted(target))}"
        action[m.id] = table
    return precosheaf_from_tables(spec, FINSET, tables, action, depth, site_points(spec))


def h0_precosheaf(spec: SiteSpec, space: FiniteSpace, g: FinAbObj, depth: int = 0) -> Precosheaf:
    """Free abelian realization: the value at U is a copy of g per component."""
    pi0 = pi0_precosheaf(spec, space, depth)
    tables = {}
    for u in spec.category.objects:
        comps = pi0.values[u].levels[0].elements
        tables[u] = values.direct_sum([g] * len(comps))
    action = {}
    for m in spec.category.morphisms:
        src_comps = pi0.values[m.src].levels[0].elements
        dst_comps = pi0.values[m.dst].levels[0].elements
        f = pi0.action[m.id].components[0]
        rows = [[0] * (g.rank * len(src_comps)) for _ in range(g.rank * len(dst_comps))]
        for si, c in enumerate(src_comps):
            di = dst_comps.index(f(c))
            for i in range(g.rank):
                rows[di * g.rank + i][si * g.rank + i] = 1
        action[m.id] = tuple(tuple(r) for r in rows)
    return precosheaf_from_tables(spec, FINAB, tables, action, depth, site_points(spec))


# ---------------------------------------------------------------------------
# the converging-sequence site


def _vlabel(k: int) -> str:
    return "X" if k == 1 else f"V{k}"


def converging_sequence_site(n: int) -> SiteSpec:
    """Finite model of a sequence converging to its limit point.

    Objects: tails V_k = {0} ∪ {1/i : i ≥ k} for k = 1..n (V_1 is the whole
    space X) and singletons S_i = {1/i}.  Each tail carries the descending
    chain of covers {V_m, S_k, ..., S_{m-1}} on a shared stage clock
    (tower level L holds the stage L+2 cover, clamped to the trivial cover
    below the first stage and at the deepest declared stage above).

    The model omits the empty open: the chain covers then have no common
    subobjects, which is what makes the gluing pattern of the real space's
    nerve poset appear at finite scale.
    """
    if n < 2:
        raise SiteError("the converging model needs at least two stages")
    vlabels = [_vlabel(k) for k in range(1, n + 1)]
    slabels = [f"S{i}" for i in range(1, n + 1)]
    leq = []
    for k in range(1, n + 1):
        for j in range(1, k + 1):
            leq.append((_vlabel(k), _vlabel(j)))  # V_k ⊆ V_j for k >= j
    for i in range(1, n + 1):
        for k in range(1, i + 1):
            leq.append((f"S{i}", _vlabel(k)))  # S_i ⊆ V_k for i >= k
    cat = poset_category(vlabels + slabels, leq)

    def stage_cover(k: int, m: int) -> Cover:
        target = _vlabel(k)
        if m <= k:
            return Cover(target, (cat.id_of(target),), ())
        m = min(m, n)
        pieces = [f"{_vlabel(m)}<{target}"] + [f"S{i}<{target}" for i in range(k, m)]
        return Cover(target, tuple(pieces), ())  # no nonempty pairwise meets

    covers = {}
    chains = {}
    for k in range(1, n + 1):
        target = _vlabel(k)
        covers[target] = (Cover(target, (cat.id_of(target),), ()),)
        if k == n:
            continue
        chain_covers = []
        refinements = []
        for level in range(n - 1):
            chain_covers.append(stage_cover(k, level + 2))
        for level in range(n - 2):
            coarse = chain_covers[level]
            fine = chain_covers[level + 1]
            refinements.append(_record_refinement(cat, fine, coarse, level + 2, level + 3))
        chains[target] = CoverChain(target, tuple(chain_covers), tuple(refinements))
    for i in range(1, n + 1):
        covers[f"S{i}"] = (Cover(f"S{i}", (cat.id_of(f"S{i}"),), ()),)

    filters = [PointFilter("pt:0", tuple(vlabels))]
    for i in range(1, n + 1):
        chain = [_vlabel(k) for k in range(1, i + 1)] + [f"S{i}"]
        filters.append(PointFilter(f"pt:1/{i}", tuple(chain)))
    return SiteSpec(cat, Coverage(covers, chains), name=f"converging({n})", poset=True,
                    points=tuple(filters))


def _record_refinement(cat, fine: Cover, coarse: Cover, coarse_stage: int, fine_stage: int):
    """Assignment for one chain step of the converging model."""
    if coarse.pieces == fine.pieces:
        return tuple((i, None) for i in range(len(fine.pieces)))
    out = _refinement(cat, fine, coarse)
    if out is None:
        raise SiteError(f"chain step {fine_stage}->{coarse_stage} does not refine")
    return out


# ---------------------------------------------------------------------------
# demo bundles


@dataclass(frozen=True)
class Demo:
    name: str
    kind: str                  # check-cosheaf | smooth | check-sheaf
    expected: str
    make: Callable             # depth -> (site or None, data object)


def pseudocircle() -> FiniteSpace:
    return FiniteSpace(("a", "b", "c", "d"),
                       frozenset({("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")}))


def builtin_demos() -> list[Demo]:
    """Named regression bundles binding the example (pre)(co)sheaves to their
    expected verdicts; names are stable strings consumed by the CLI."""

    def pi0_pseudocircle(depth):
        space = pseudocircle()
        spec = open_site(space)
        return spec, pi0_precosheaf(spec, space)

    def pt_finite_space(depth):
        space = pseudocircle()
        spec = open_site(space)
        return spec, constant_precosheaf(spec, finset("*"), 0, site_points(spec))

    def pt_converging(depth):
        spec = converging_sequence_site(max(12, depth + 2))
        return spec, constant_precosheaf(spec, finset("*"), depth, site_points(spec))

    def z_converging(depth):
        spec = converging_sequence_site(max(12, depth + 2))
        return spec, constant_precosheaf(spec, values.free_ab(1), depth, site_points(spec))

    def constant_presheaf(depth):
        space = pseudocircle()
        spec = open_site(space)
        g = finset("g0", "g1")
        vals = {u: g for u in spec.category.objects}
        action = {m.id: values.finset_map(g, g, {x: x for x in g.elements})
                  for m in spec.category.morphisms}
        return spec, Presheaf(spec, FINSET, vals, action, site_points(spec))

    return [
        Demo("pi0-pseudocircle", "check-cosheaf", "COSHEAF", pi0_pseudocircle),
        Demo("pt-finite-space-smooth", "smooth", "SMOOTH", pt_finite_space),
        Demo("pt-converging", "smooth", "NOT-SMOOTH", pt_converging),
        Demo("Z-converging", "smooth", "NOT-SMOOTH", z_converging),
        Demo("constant-presheaf-sheafify", "check-sheaf", "NOT-SHEAF", constant_presheaf),
    ]


def demo_by_name(name: str) -> Demo:
    for d in builtin_demos():
        if d.name == name:
            return d
    raise SiteError(f"unknown demo {name!r}")
