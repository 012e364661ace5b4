"""Towers (inverse sequences) over the value categories and their
depth-qualified decision procedures.

A tower X has levels X_0 .. X_d and bonds X_{k+1} -> X_k.  Every verdict
here is relative to the truncation at the working depth, and says so.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from . import intmat, values
from .category import FiniteCategory
from .errors import EngineError, InsufficientDepth
from .values import (FINSET, FinAbMap, FinAbObj, FinSetMap, FinSetObj,
                     FiniteDiagram, category_of, classify_map, compose,
                     finite_colimit, identity_map, is_zero_map, maps_equal)


@dataclass(frozen=True)
class Tower:
    levels: tuple
    bonds: tuple

    def __post_init__(self):
        if not self.levels:
            raise EngineError("a tower needs at least one level")
        if len(self.bonds) != len(self.levels) - 1:
            raise EngineError("a tower of depth d needs exactly d bonds")
        for k, b in enumerate(self.bonds):
            if b.src != self.levels[k + 1] or b.dst != self.levels[k]:
                raise EngineError(f"bond {k} has wrong endpoints")

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def category(self) -> str:
        return category_of(self.levels[0])

    def level(self, k: int):
        return self.levels[k]

    def bond_composite(self, i: int, j: int):
        """The composite X_i -> X_j for i >= j (identity when i == j)."""
        if i < j:
            raise EngineError("bond composites run downward")
        cache = self.__dict__.get("_bond_cache")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_bond_cache", cache)
        hit = cache.get((i, j))
        if hit is not None:
            return hit
        if i == j:
            out = identity_map(self.levels[i])
        else:
            out = compose(self.bond_composite(i - 1, j), self.bonds[i - 1])
        cache[(i, j)] = out
        return out

    def is_constant(self) -> bool:
        return all(maps_equal(b, identity_map(self.levels[0])) for b in self.bonds) if (
            len(set(self.levels)) == 1) else False

    @staticmethod
    def constant(obj, depth: int) -> "Tower":
        return Tower((obj,) * (depth + 1), (identity_map(obj),) * depth)


@dataclass(frozen=True)
class LevelMorphism:
    """A morphism of towers: components f_j : X_{shift[j]} -> Y_j with
    commuting squares.  shift is nondecreasing; strict morphisms have
    shift[j] == j."""

    src: Tower
    dst: Tower
    shift: tuple[int, ...]
    components: tuple

    def __post_init__(self):
        d = self.dst.depth
        if len(self.shift) != d + 1 or len(self.components) != d + 1:
            raise EngineError("one shift and one component per target level")
        for j in range(d):
            if self.shift[j] > self.shift[j + 1]:
                raise EngineError("shift must be nondecreasing")
        if self.shift[-1] > self.src.depth:
            raise EngineError("shift exceeds the source depth")
        for j, f in enumerate(self.components):
            if f.src != self.src.levels[self.shift[j]] or f.dst != self.dst.levels[j]:
                raise EngineError(f"component {j} has wrong endpoints")
        for j in range(d):
            left = compose(self.components[j], self.src.bond_composite(self.shift[j + 1], self.shift[j]))
            right = compose(self.dst.bonds[j], self.components[j + 1])
            if not maps_equal(left, right):
                raise EngineError(f"level morphism squares fail at level {j}")

    @staticmethod
    def strict(src: Tower, dst: Tower, components) -> "LevelMorphism":
        return LevelMorphism(src, dst, tuple(range(dst.depth + 1)), tuple(components))

    @staticmethod
    def identity(t: Tower) -> "LevelMorphism":
        return LevelMorphism.strict(t, t, tuple(identity_map(x) for x in t.levels))

    def is_strict(self) -> bool:
        return all(s == j for j, s in enumerate(self.shift))

    def component_from_depth(self, j: int):
        """The canonical representative X_depth -> Y_j."""
        return compose(self.components[j], self.src.bond_composite(self.src.depth, self.shift[j]))

    def then(self, other: "LevelMorphism") -> "LevelMorphism":
        """other ∘ self."""
        if self.dst is not other.src and self.dst != other.src:
            raise EngineError("level morphisms are not composable")
        shift = tuple(self.shift[other.shift[j]] for j in range(other.dst.depth + 1))
        comps = tuple(
            compose(other.components[j], self.components[other.shift[j]])
            for j in range(other.dst.depth + 1)
        )
        return LevelMorphism(self.src, other.dst, shift, comps)


def equal_at_depth(f: LevelMorphism, g: LevelMorphism, depth: int | None = None) -> bool:
    """Pro-equality of truncations: canonical depth representatives agree."""
    if f.src != g.src or f.dst != g.dst:
        raise EngineError("endpoint mismatch")
    d = f.dst.depth if depth is None else min(depth, f.dst.depth)
    for j in range(d + 1):
        if not maps_equal(f.component_from_depth(j), g.component_from_depth(j)):
            return False
    return True


def pro_hom_at_depth(x: Tower, y: Tower, depth: int) -> tuple[LevelMorphism, ...]:
    """Representatives of tower morphisms x -> y modulo bond-equalization,
    with all shifts pushed to `depth`.  Finite sets only."""
    if x.category() != FINSET or y.category() != FINSET:
        raise EngineError("non-enumerable hom; use matrix predicates instead")
    d = min(depth, x.depth, y.depth)
    xd = x.levels[d]
    out = []
    for top in values.hom_set(xd, y.levels[d]):
        comps = [None] * (d + 1)
        comps[d] = top
        for j in range(d - 1, -1, -1):
            comps[j] = compose(y.bonds[j], comps[j + 1])
        trunc_x = Tower(x.levels[: d + 1], x.bonds[:d])
        trunc_y = Tower(y.levels[: d + 1], y.bonds[:d])
        out.append(LevelMorphism(trunc_x, trunc_y, (d,) * (d + 1), tuple(comps)))
    return tuple(out)


@dataclass(frozen=True)
class IsoVerdict:
    iso: bool
    depth: int
    margin: int
    spans: tuple = ()          # (j, i) pairs certifying a local inverse
    obstruction: int | None = None
    detail: str = ""

    @property
    def verdict(self) -> str:
        return "ISO" if self.iso else "NOT-ISO-AT-DEPTH"


def _finset_local_inverse(f: LevelMorphism, j: int, i: int) -> bool:
    """True when some u: Y_i -> X_j satisfies both bond-inverse triangles."""
    if f.shift[i] > i or f.shift[j] > j:
        return False
    # components realized strictly at levels i and j
    fi = compose(f.components[i], f.src.bond_composite(i, f.shift[i]))
    fj = compose(f.components[j], f.src.bond_composite(j, f.shift[j]))
    bond_x = f.src.bond_composite(i, j)
    bond_y = f.dst.bond_composite(i, j)
    # forced part: u(f_i(x)) = bond_x(x) must be consistent
    forced = {}
    for xx in f.src.levels[i].elements:
        y = fi(xx)
        v = bond_x(xx)
        if y in forced and forced[y] != v:
            return False
        forced[y] = v
    # free part: bond_y(y) must lie in the image of f_j
    image_j = {fj(xx) for xx in f.src.levels[j].elements}
    for y in f.dst.levels[i].elements:
        if y not in forced and bond_y(y) not in image_j:
            return False
    # forced part must also satisfy the first triangle (automatic by the squares,
    # but cheap to confirm)
    for y, v in forced.items():
        if fj(v) != bond_y(y):
            return False
    return True


def strictified(f: LevelMorphism) -> LevelMorphism:
    """Equivalent strict representative, when every shift sits at or below
    its level (precompose with bonds)."""
    if f.is_strict():
        return f
    if any(f.shift[j] > j for j in range(len(f.shift))):
        raise EngineError("cannot strictify a forward-shifted level morphism")
    comps = tuple(
        compose(f.components[j], f.src.bond_composite(j, f.shift[j]))
        for j in range(f.dst.depth + 1)
    )
    return LevelMorphism.strict(f.src, f.dst, comps)


def _finab_kernel_pro_zero(f: LevelMorphism, d: int, margin: int):
    """Pro-zero test for the kernel tower, without presenting its bonds.

    The composite ker(f_i) -> ker(f_j) is zero exactly when the source bond
    composite carries the kernel generators into the relation lattice of the
    level below (kernel inclusions are monomorphisms)."""
    gens = []
    for j in range(d + 1):
        k, incl = values.kernel(f.components[j])
        gens.append(incl.matrix if k.rank else None)
    ceiling = max(0, d - margin)
    for j in range(ceiling + 1):
        hit = False
        for i in range(j, d + 1):
            if gens[i] is None:
                hit = True
                break
            carried = intmat.mul(f.src.bond_composite(i, j).matrix, gens[i])
            lvl = f.src.levels[j]
            if all(lvl.lattice_contains(intmat.column(carried, c))
                   for c in range(intmat.shape(carried)[1])):
                hit = True
                break
        if not hit:
            return False, j
    return True, None


def _finab_cokernel_pro_zero(f: LevelMorphism, d: int, margin: int):
    """Pro-zero test for the cokernel tower: the target bond composite must
    land in the cokernel's relation lattice."""
    cokers = [values.cokernel(f.components[j])[0] for j in range(d + 1)]
    ceiling = max(0, d - margin)
    for j in range(ceiling + 1):
        hit = False
        for i in range(j, d + 1):
            if cokers[i].is_trivial() or cokers[j].is_trivial():
                hit = True
                break
            bond = f.dst.bond_composite(i, j).matrix
            if all(cokers[j].lattice_contains(intmat.column(bond, c))
                   for c in range(intmat.shape(bond)[1])):
                hit = True
                break
        if not hit:
            return False, j
    return True, None


def tower_pro_zero(t: Tower, depth: int | None = None, margin: int = 3):
    """(is pro-zero at depth, obstruction level or None).

    Pro-zero: for every level k up to depth - margin some deeper bond
    composite into level k is the zero map."""
    d = t.depth if depth is None else min(depth, t.depth)
    ceiling = max(0, d - margin)
    for k in range(ceiling + 1):
        hit = False
        for m in range(k, d + 1):
            comp = t.bond_composite(m, k)
            if is_zero_map(comp):
                hit = True
                break
        if not hit:
            return False, k
    return True, None


def is_iso_at_depth(f: LevelMorphism, depth: int | None = None, margin: int = 2) -> IsoVerdict:
    """Certify that f is an isomorphism of the truncated pro-objects.

    Finite sets: for every level j up to depth - margin, search for a span
    (j, i) carrying a two-sided bond-inverse Y_i -> X_j (image condition plus
    kernel-pair condition).  Abelian values: kernel and cokernel towers must
    be pro-zero at depth.
    """
    d = f.dst.depth if depth is None else min(depth, f.dst.depth, f.src.depth)
    if f.src.category() == FINSET:
        spans = []
        ceiling = max(0, d - margin)
        for j in range(ceiling + 1):
            found = None
            for i in range(j, d + 1):
                if f.shift[i] <= i and _finset_local_inverse(f, j, i):
                    found = (j, i)
                    break
            if found is None:
                return IsoVerdict(False, d, margin, tuple(spans), j,
                                  f"no bond-inverse for level {j} within depth {d}")
            spans.append(found)
        # Margin levels lack headroom for a full bond-inverse, but the image
        # condition needs none: whatever survives the target bonds from the
        # deepest level must already be hit.
        for j in range(ceiling + 1, d + 1):
            fj = f.component_from_depth(j)
            image = {fj(x) for x in f.src.levels[d].elements}
            stable = {f.dst.bond_composite(d, j)(y) for y in f.dst.levels[d].elements}
            if not stable <= image:
                return IsoVerdict(False, d, margin, tuple(spans), j,
                                  f"stable target image escapes level {j}")
        return IsoVerdict(True, d, margin, tuple(spans))
    fs = strictified(f)
    ok_k, obs_k = _finab_kernel_pro_zero(fs, d, margin)
    if not ok_k:
        return IsoVerdict(False, d, margin, (), obs_k, f"kernel tower not pro-zero at level {obs_k}")
    ok_c, obs_c = _finab_cokernel_pro_zero(fs, d, margin)
    if not ok_c:
        return IsoVerdict(False, d, margin, (), obs_c, f"cokernel tower not pro-zero at level {obs_c}")
    # headroom-free image condition on the margin levels
    ceiling = max(0, d - margin)
    for j in range(ceiling + 1, d + 1):
        fj = fs.component_from_depth(j)
        lat = intmat.column_lattice_basis(
            intmat.hstack(fj.matrix, fs.dst.levels[j].relation_matrix()))
        stable = fs.dst.bond_composite(d, j).matrix
        for c in range(intmat.shape(stable)[1]):
            if not intmat.hnf_member(lat, intmat.column(stable, c)):
                return IsoVerdict(False, d, margin, (), j,
                                  f"stable target image escapes level {j}")
    return IsoVerdict(True, d, margin)


@dataclass(frozen=True)
class EpiVerdict:
    epi: bool
    depth: int
    failing: tuple = ()
    detail: str = ""

    @property
    def verdict(self) -> str:
        return "EPI" if self.epi else "NOT-EPI"


def default_epi_family(x: Tower, y: Tower, extra=None):
    """Rudimentary test objects per the value category.

    Finite sets: all sizes up to max level size + 1.  Abelian groups: Z and
    Z/p for every prime dividing an invariant factor at any level of either
    tower or of the canonical depth cokernel (the extra argument).
    """
    if x.category() == FINSET:
        biggest = max(len(lv) for lv in x.levels + y.levels)
        return [FinSetObj(tuple(f"g{i}" for i in range(n))) for n in range(1, biggest + 2)]
    primes = set()
    def absorb(obj):
        torsion, _ = obj.invariants()
        for t in torsion:
            m = t
            p = 2
            while p * p <= m:
                if m % p == 0:
                    primes.add(p)
                    while m % p == 0:
                        m //= p
                p += 1
            if m > 1:
                primes.add(m)
    for lv in x.levels + y.levels:
        absorb(lv)
    if extra is not None:
        absorb(extra)
    return [values.free_ab(1)] + [values.cyclic(p) for p in sorted(primes)]


def is_epi_at_depth(f: LevelMorphism, depth: int | None = None, test_family=None) -> EpiVerdict:
    """Epimorphy via Hom(-, G)-injectivity against a family of rudimentary G.

    At the truncation the pro-hom sets collapse onto the deepest level, so
    Hom(Y, G) -> Hom(X, G) is injective for every G in the finite-set family
    exactly when the canonical depth component is surjective; on the abelian
    side injectivity for G says Hom(coker, G) = 0.
    """
    d = f.dst.depth if depth is None else min(depth, f.dst.depth, f.src.depth)
    fdep = compose(f.components[d], f.src.bond_composite(d, f.shift[d]))
    if f.src.category() == FINSET:
        family = test_family or default_epi_family(f.src, f.dst)
        image = {fdep(x) for x in f.src.levels[d].elements}
        surj = image == set(f.dst.levels[d].elements)
        failing = tuple(
            f"set of size {len(g)}" for g in family if len(g) >= 2 and not surj
        )
        return EpiVerdict(surj, d, failing,
                          "precomposition injective for every test object" if surj
                          else "maps separating the image from its complement collapse")
    coker, _ = values.cokernel(fdep)
    family = test_family or default_epi_family(f.src, f.dst, coker)
    torsion, free = coker.invariants()
    failing = []
    for g in family:
        g_torsion, g_free = g.invariants()
        if g_free:  # G = Z detects free rank
            if free:
                failing.append("Z")
        else:
            p = g_torsion[0]
            if free or any(t % p == 0 for t in torsion):
                failing.append(f"Z/{p}")
    ok = not failing
    return EpiVerdict(ok, d, tuple(failing),
                      "cokernel of the depth component is trivial for the family" if ok
                      else f"cokernel invariants {torsion} free rank {free}")


@dataclass(frozen=True)
class RudVerdict:
    rudimentary: bool
    depth: int
    window: int
    profile: tuple
    stable_index: int | None = None

    @property
    def verdict(self) -> str:
        return "RUDIMENTARY" if self.rudimentary else "NOT-RUDIMENTARY-AT-DEPTH"


def _finset_image_system(t: Tower, d: int):
    images = []
    for k in range(d + 1):
        comp = t.bond_composite(d, k)
        images.append(sorted({comp(x) for x in t.levels[d].elements}))
    return images


def is_rudimentary_at_depth(x: Tower, depth: int | None = None, window: int = 3) -> RudVerdict:
    """Stabilized Mittag-Leffler image test.

    Computes S_k = image(X_depth -> X_k); rudimentary when the induced maps
    S_{k+1} -> S_k are isomorphisms throughout the trailing window (top level
    included) with stabilized cardinalities/invariants.
    """
    d = x.depth if depth is None else min(depth, x.depth)
    w = min(window, d)
    if x.category() == FINSET:
        images = _finset_image_system(x, d)
        profile = tuple(len(s) for s in images)
        for k in range(d - w, d):
            # surjective by construction; iso iff sizes agree and the bond is
            # injective on the deeper image
            src, dst = images[k + 1], images[k]
            bond = x.bonds[k]
            mapped = [bond(e) for e in src]
            if len(set(mapped)) != len(src) or len(src) != len(dst):
                return RudVerdict(False, d, w, profile)
        return RudVerdict(True, d, w, profile, stable_index=max(0, d - w))
    # FinAb: image subgroup presented on the deepest level's generators.
    images = []
    for k in range(d + 1):
        comp = x.bond_composite(d, k)
        lat = x.levels[k].relation_matrix()
        # relations of the image: z with comp·z in the relation lattice
        stacked = intmat.hstack(comp.matrix, intmat.neg(lat)) if intmat.shape(lat)[1] else comp.matrix
        null = intmat.nullspace(stacked)
        n = x.levels[d].rank
        rel = tuple(row[: intmat.shape(null)[1]] for row in null[:n]) if null else ()
        images.append(FinAbObj(n, rel if rel and intmat.shape(rel)[1] else ()))
    profile = tuple(img.invariants() for img in images)
    for k in range(d - w, d):
        ident = FinAbMap(images[k + 1], images[k], intmat.identity(images[k + 1].rank))
        flags = classify_map(ident)
        if not flags.iso:
            return RudVerdict(False, d, w, profile)
    return RudVerdict(True, d, w, profile, stable_index=max(0, d - w))


@dataclass(frozen=True)
class TowerColimit:
    tower: Tower
    cocone: Mapping[str, LevelMorphism]
    levels: tuple = ()   # per-level ColimitResult (assembly data for FinAb)


def _stable_reindex(shape: FiniteCategory, edges: Mapping[str, LevelMorphism], depth: int):
    """Nondecreasing phi with phi(j) >= shift_e(phi(j)) for every edge."""
    phi = list(range(depth + 1))
    for _ in range(depth + 2):
        changed = False
        for e in edges.values():
            for j in range(depth + 1):
                want = e.shift[phi[j]] if phi[j] <= e.dst.depth else None
                if want is None:
                    raise InsufficientDepth("insufficient depth")
                if want > phi[j]:
                    phi[j] = want
                    changed = True
        for j in range(depth):
            if phi[j] > phi[j + 1]:
                phi[j + 1] = phi[j]
                changed = True
        if max(phi) > depth:
            raise InsufficientDepth("insufficient depth")
        if not changed:
            return tuple(phi)
    raise InsufficientDepth("insufficient depth")


def tower_colimit(shape: FiniteCategory, nodes: Mapping[str, Tower],
                  edges: Mapping[str, LevelMorphism], depth: int | None = None) -> TowerColimit:
    """Levelwise finite colimit of a finite diagram of towers.

    Edges are reindexed to a common nondecreasing shift first; the result
    keeps the input depth, with bonds induced on colimit classes.
    """
    if not nodes:
        raise EngineError("empty tower diagram needs a value category; use finite_colimit")
    d = min(t.depth for t in nodes.values()) if depth is None else depth
    phi = _stable_reindex(shape, edges, d)
    cat = next(iter(nodes.values())).category()
    level_results = []
    for j in range(d + 1):
        diag_nodes = {u: nodes[u].levels[phi[j]] for u in shape.objects}
        diag_edges = {}
        for mid, e in edges.items():
            m = shape.morphism(mid)
            comp = compose(e.components[phi[j]], e.src.bond_composite(phi[j], e.shift[phi[j]]))
            diag_edges[mid] = comp
        level_results.append(finite_colimit(
            FiniteDiagram(shape, diag_nodes, diag_edges, trusted=True), cat))
    bonds = []
    for j in range(d):
        hi, lo = level_results[j + 1], level_results[j]
        bonds.append(_induced_colimit_map(shape, nodes, phi, j + 1, j, hi, lo, cat))
    tower = Tower(tuple(r.obj for r in level_results), tuple(bonds))
    cocone = {}
    for u in shape.objects:
        comps = tuple(level_results[j].cocone[u] for j in range(d + 1))
        cocone[u] = LevelMorphism(nodes[u], tower, phi, comps)
    return TowerColimit(tower, cocone, tuple(level_results))


def _induced_colimit_map(shape, nodes, phi, j_hi, j_lo, hi, lo, cat):
    """Colimit map sending class(u, x at phi(j_hi)) to class(u, bond(x))."""
    if cat == FINSET:
        table = {}
        for u in shape.objects:
            bond = nodes[u].bond_composite(phi[j_hi], phi[j_lo])
            inj_hi, inj_lo = hi.cocone[u], lo.cocone[u]
            for x in nodes[u].levels[phi[j_hi]].elements:
                table[inj_hi(x)] = inj_lo(bond(x))
        return FinSetMap(hi.obj, lo.obj, tuple(table.items()))
    node_matrices = {}
    for u in shape.objects:
        bond = nodes[u].bond_composite(phi[j_hi], phi[j_lo])
        node_matrices[u] = compose(lo.cocone[u], bond).matrix
    return values.finab_out_map(hi, node_matrices, lo.obj)
