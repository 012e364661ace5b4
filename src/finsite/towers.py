"""Towers (inverse sequences) over the value categories and their
depth-qualified decision procedures.

A tower X has levels X_0 .. X_d and bonds X_{k+1} -> X_k.  Every verdict
here is relative to the truncation at the working depth, and says so.  The
iso and rudimentary verdicts are one algorithm for both value categories:
the category-specific facts are the value layer's kernel and image tests
on chains of bonds (`values.kills_kernel`, `values.lands_in_image`) and
`values.image_invariants`.  Only report wording, the pro-hom enumeration
and the epi witnesses differ by category.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import is_
from typing import Mapping

from . import values
from .category import FiniteCategory
from .errors import EngineError, InsufficientDepth
from .values import (FINSET, FiniteDiagram, category_of, chains_equal, commutes, compose,
                     identity_map, is_zero_map, map_key, maps_equal, out_map)


@dataclass(frozen=True)
class Tower:
    levels: tuple
    bonds: tuple

    def __post_init__(self):
        if not self.levels:
            raise EngineError("a tower needs at least one level")
        if len(self.bonds) != len(self.levels) - 1:
            raise EngineError("a tower of depth d needs exactly d bonds")
        levels = self.levels
        for k, b in enumerate(self.bonds):
            # identity first: the generated dataclass __eq__ is a Python-level call
            if ((b.src is not levels[k + 1] and b.src != levels[k + 1])
                    or (b.dst is not levels[k] and b.dst != levels[k])):
                raise EngineError(f"bond {k} has wrong endpoints")

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def category(self) -> str:
        return category_of(self.levels[0])

    def bond_composite(self, i: int, j: int):
        """The composite X_i -> X_j for i >= j (identity when i == j)."""
        if i == j + 1:
            return self.bonds[j]
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

    def reindexed(self, phi) -> "Tower":
        """The tower whose level j is level phi[j] of this one, for a
        nondecreasing phi, with the bond composites between those levels as
        bonds.  Along phi = 0..d it is the truncation at d, with this tower's
        own level and bond objects."""
        return Tower(tuple(self.levels[p] for p in phi),
                     tuple(self.bond_composite(phi[j + 1], phi[j]) for j in range(len(phi) - 1)))

    def is_constant(self) -> bool:
        return all(maps_equal(b, identity_map(self.levels[0])) for b in self.bonds) if (
            len(set(self.levels)) == 1) else False

    @staticmethod
    def constant(obj, depth: int) -> "Tower":
        return Tower((obj,) * (depth + 1), (identity_map(obj),) * depth)


@lru_cache(maxsize=64)
def _strict_shift(length: int) -> tuple[int, ...]:
    """The shift of every strict level morphism into a tower of depth
    length - 1, as one shared tuple."""
    return tuple(range(length))


def _levelwise(keys, build) -> list:
    """build(j) for each level j, except that a level whose key objects are
    all the very objects (`is`) of the previous level's key takes the
    previous level's result: it is the same construction on the same inputs.
    No key is hashed or compared by value."""
    out, below = [], None
    for j, key in enumerate(keys):
        same = j and len(key) == len(below) and all(map(is_, key, below))
        out.append(out[-1] if same else build(j))
        below = key
    return out


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
            src, dst = self.src.levels[self.shift[j]], self.dst.levels[j]
            if (f.src is not src and f.src != src) or (f.dst is not dst and f.dst != dst):
                raise EngineError(f"component {j} has wrong endpoints")
        squares = [(self.components[j], self.src.bond_composite(self.shift[j + 1], self.shift[j]),
                    self.dst.bonds[j], self.components[j + 1]) for j in range(d)]

        def decide(j):
            if not commutes(*squares[j]):
                raise EngineError(f"level morphism squares fail at level {j}")
        _levelwise(squares, decide)

    @staticmethod
    def strict(src: Tower, dst: Tower, components) -> "LevelMorphism":
        return LevelMorphism(src, dst, _strict_shift(dst.depth + 1), tuple(components))

    @staticmethod
    def identity(t: Tower) -> "LevelMorphism":
        return LevelMorphism.strict(t, t, tuple(identity_map(x) for x in t.levels))

    def is_strict(self) -> bool:
        return self.shift == _strict_shift(len(self.shift))

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
    return chains_equal_at_depth((f,), (g,), depth)


def chain_components(chain, j: int):
    """The source level of a chain's composite at target level j, and the
    components that composite passes through there, in the order they apply.

    The chain lists its level morphisms in the order they apply; the result
    is what `then` would give at level j, without building it."""
    maps = []
    for lm in reversed(chain):
        maps.append(lm.components[j])
        j = lm.shift[j]
    return j, tuple(reversed(maps))


def _chain_ends(chain, src: Tower):
    for f, g in zip(chain, chain[1:]):
        if f.dst is not g.src and f.dst != g.src:
            raise EngineError("level morphisms are not composable")
    return (chain[0].src, chain[-1].dst) if chain else (src, src)


def chains_equal_at_depth(first, second, depth: int | None = None) -> bool:
    """equal_at_depth of the composites of two chains of level morphisms X ->
    Y, decided at the working depth d alone without building either
    composite.

    Each chain lists its level morphisms in the order they apply, so
    chains_equal_at_depth((f1, g1), (f2, g2)) decides
    equal_at_depth(f1.then(g1), f2.then(g2)).  An empty chain stands for the
    identity of the other chain's source.

    One level decides.  Write rep_j for a chain's representative X_top -> Y_j
    at level j.  Every level morphism's squares commute (its constructor
    checks each one), and the composite of level morphisms, shifted ones
    too, keeps commuting squares; so rep_j = Y.bond_j ∘ rep_{j+1}, and two
    chains whose representatives agree at level d agree at every level
    below it.  For abelian values they agree modulo the relations of Y_d,
    and the bonds are well defined on the quotients, so modulo those of
    every Y_j."""
    src = (first or second)[0].src
    ends = _chain_ends(first, src)
    if ends != _chain_ends(second, src):
        raise EngineError("endpoint mismatch")
    d = ends[1].depth if depth is None else min(depth, ends[1].depth)
    top = src.depth
    i, left = chain_components(first, d)
    k, right = chain_components(second, d)
    return chains_equal((src.bond_composite(top, i), *left),
                        (src.bond_composite(top, k), *right))


def pro_hom_at_depth(x: Tower, y: Tower, depth: int) -> tuple[LevelMorphism, ...]:
    """Representatives of tower morphisms x -> y modulo bond-equalization,
    with all shifts pushed to `depth`.  Finite sets only."""
    if x.category() != FINSET or y.category() != FINSET:
        raise EngineError("non-enumerable hom; use matrix predicates instead")
    d = min(depth, x.depth, y.depth)
    xd = x.levels[d]
    trunc_x, trunc_y = x.reindexed(range(d + 1)), y.reindexed(range(d + 1))
    out = []
    for top in values.hom_set(xd, y.levels[d]):
        comps = [None] * (d + 1)
        comps[d] = top
        for j in range(d - 1, -1, -1):
            comps[j] = compose(y.bonds[j], comps[j + 1])
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


def _strict_at_depth(f: LevelMorphism, depth: int | None) -> LevelMorphism:
    """The strict form of f at its working depth d, the least of `depth` and
    both tower depths: source level j becomes level t(j) = max(j, shift[j]),
    component j is precomposed with the source bonds from t(j) down to
    shift[j], and the target is truncated at d.  A strict f between towers of
    depth d is its own strict form."""
    d = min(f.src.depth, f.dst.depth, f.dst.depth if depth is None else depth)
    if f.src.depth == d == f.dst.depth and f.is_strict():
        return f
    t = tuple(max(j, f.shift[j]) for j in range(d + 1))
    comps = tuple(c if s == k else compose(c, f.src.bond_composite(k, s))
                  for c, s, k in zip(f.components, f.shift, t))
    return LevelMorphism.strict(f.src.reindexed(t), f.dst.reindexed(range(d + 1)), comps)


def _least_levels(d: int, ceiling: int, holds):
    """For each level j up to the ceiling in turn, the least level i in j..d
    where holds(i, j); the scan stops at the first j without one.  Returns
    (those levels, that j or None)."""
    found = []
    for j in range(ceiling + 1):
        for i in range(j, d + 1):
            if holds(i, j):
                found.append(i)
                break
        else:
            return found, j
    return found, None


def tower_pro_zero(t: Tower, depth: int | None = None, margin: int = 3):
    """(is pro-zero at depth, obstruction level or None).

    Pro-zero: for every level k up to depth - margin some deeper bond
    composite into level k is the zero map."""
    d = t.depth if depth is None else min(depth, t.depth)
    _, j = _least_levels(d, max(0, d - margin),
                         lambda m, k: is_zero_map(t.bond_composite(m, k)))
    return j is None, j


def is_iso_at_depth(f: LevelMorphism, depth: int | None = None, margin: int = 2) -> IsoVerdict:
    """Certify that f is an isomorphism of the truncated pro-objects.

    f is one when, for every level j up to depth - margin, some source bond
    X_i -> X_j kills the kernel of f_i and some target bond Y_i -> Y_j lands
    in the image of f_j.  Both conditions are upward-closed in i.  On finite
    sets both at one i make a bond-inverse Y_i -> X_j, and `spans` lists
    the least such (j, i); on abelian values they make the kernel and
    cokernel towers pro-zero, and the kernel is decided first.  On the
    margin levels the image condition needs no headroom: whatever survives
    the target bonds from the deepest level must already be hit.  It decides
    on the strict form of f at the working depth, the least of `depth` and
    both tower depths.
    """
    f = _strict_at_depth(f, depth)
    x, y, comps, d = f.src, f.dst, f.components, f.dst.depth
    finset = x.category() == FINSET
    ceiling = max(0, d - margin)
    # t.bonds[j:i][::-1] is the chain of t's bonds from level i down to j
    kills = list(map(values.kills_kernel, comps))
    killing, j_k = _least_levels(d, ceiling, lambda i, j: kills[i](x.bonds[j:i][::-1]))
    if j_k is not None and not finset:
        return IsoVerdict(False, d, margin, (), j_k, f"kernel tower not pro-zero at level {j_k}")
    lands = list(map(values.lands_in_image, comps))
    # scanned below the kernel's first failure only; a target bond out of a
    # level where f is onto lands, by the squares
    landing, j_l = _least_levels(d, ceiling if j_k is None else j_k - 1,
                                 lambda i, j: lands[i](()) or lands[j](y.bonds[j:i][::-1]))
    spans = tuple(enumerate(map(max, killing, landing))) if finset else ()
    if j_k is not None or j_l is not None:
        j = j_k if j_l is None else j_l
        detail = (f"no bond-inverse for level {j} within depth {d}" if finset
                  else f"cokernel tower not pro-zero at level {j}")
        return IsoVerdict(False, d, margin, spans, j, detail)
    for j in range(ceiling + 1, d + 1):
        if not values.lands_in_image(f.component_from_depth(j))(y.bonds[j:d][::-1]):
            return IsoVerdict(False, d, margin, spans, j, f"stable target image escapes level {j}")
    return IsoVerdict(True, d, margin, spans)


@dataclass(frozen=True)
class EpiVerdict:
    epi: bool
    depth: int
    failing: tuple = ()
    detail: str = ""

    @property
    def verdict(self) -> str:
        return "EPI" if self.epi else "NOT-EPI"


def _primes_dividing(n: int) -> list[int]:
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return primes + [n] if n > 1 else primes


def is_epi_at_depth(f: LevelMorphism, depth: int | None = None) -> EpiVerdict:
    """Epimorphy via Hom(-, G)-injectivity against the rudimentary G.

    At the truncation the pro-hom sets collapse onto the deepest level, so
    Hom(Y, G) -> Hom(X, G) is injective for every finite set G exactly when
    the canonical depth component is surjective; a set of size 2 detects any
    failure.  On the abelian side injectivity for G says Hom(coker, G) = 0:
    Z detects free rank in the cokernel and Z/p a prime p dividing its
    torsion.  `failing` names the test objects that detect the failure.  It
    decides on the strict form of f at the working depth, as is_iso_at_depth.
    """
    f = _strict_at_depth(f, depth)
    d = f.dst.depth
    fdep = f.components[d]
    if f.src.category() == FINSET:
        surj = values.lands_in_image(fdep)(())
        return EpiVerdict(surj, d, () if surj else ("set of size 2",),
                          "precomposition injective for every test object" if surj
                          else "maps separating the image from its complement collapse")
    coker, _ = values.cokernel(fdep)
    torsion, free = coker.invariants()
    failing = (("Z",) if free else ()) + tuple(
        f"Z/{p}" for p in _primes_dividing(torsion[-1] if torsion else 1))
    ok = not failing
    return EpiVerdict(ok, d, failing,
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


def is_rudimentary_at_depth(x: Tower, depth: int | None = None, window: int = 3) -> RudVerdict:
    """Stabilized Mittag-Leffler image test.

    S_k is the image of X_depth -> X_k, and the profile lists each one's
    size or invariants.  Rudimentary when the induced maps S_{k+1} -> S_k
    are isomorphisms throughout the trailing window (top level included).
    Each is onto, so it is one exactly when its two profile entries agree:
    for finite sets by counting, and for finitely generated abelian groups
    because they are Hopfian: equal invariants make the two isomorphic, and
    an onto map between isomorphic ones is an isomorphism.
    """
    d = x.depth if depth is None else min(depth, x.depth)
    w = min(window, d)
    profile = tuple(values.image_invariants(x.bond_composite(d, k)) for k in range(d + 1))
    ok = all(profile[k] == profile[k + 1] for k in range(d - w, d))
    return RudVerdict(ok, d, w, profile, stable_index=max(0, d - w) if ok else None)


@dataclass(frozen=True)
class TowerColimit:
    tower: Tower
    levels: tuple   # per-level ColimitResult; the cocone at level j is levels[j].cocone


def tower_colimit(shape: FiniteCategory, nodes: Mapping[str, Tower],
                  edges: Mapping[str, LevelMorphism], depth: int | None = None,
                  store: dict | None = None, category: str | None = None) -> TowerColimit:
    """Levelwise finite colimit of a finite diagram of towers with strict
    edges.

    The result keeps the input depth, with bonds induced on colimit classes.
    A shifted edge is refused: shifts arise only in the plus construction,
    which strictifies them before it builds a precosheaf.  Level colimits
    are kept in `store`, keyed by the `map_key`s of the level's edge maps in
    shape order (every object has its identity edge, so these fix the nodes
    too): a level whose diagram was colimited before, at another level or,
    when the caller passes one store for one shape, in another call, shares
    that ColimitResult.  So a constant diagram of towers costs one colimit,
    not depth + 1.  Levels and bonds follow `_levelwise`, keyed by the
    level's edge maps and by the two level colimits and the node bonds of a
    bond.  An empty diagram, given its `depth` and value `category`, has the
    constant initial tower as its colimit.
    """
    if nodes:
        category = next(iter(nodes.values())).category()
    elif depth is None or category is None:
        raise EngineError("empty tower diagram needs a depth and a value category")
    d = min(t.depth for t in nodes.values()) if depth is None else depth
    if any(t.depth < d for t in nodes.values()):
        raise InsufficientDepth("insufficient depth")
    order = tuple(m.id for m in shape.morphisms)
    for mid in order:
        if mid not in edges:  # map_key must never see a missing edge
            raise EngineError(f"diagram misses edge {mid!r}")
        if not edges[mid].is_strict():
            raise EngineError(f"edge {mid!r} is not strict")
    for u in shape.objects:
        mid = shape.id_of(u)
        if edges[mid].src is not nodes[u] and edges[mid].src != nodes[u]:
            raise EngineError(f"edge {mid!r} has wrong endpoints")
    shape_edges = tuple(edges[mid] for mid in order)
    if store is None:
        store = {}
    level_maps = [tuple(e.components[p] for e in shape_edges) for p in range(d + 1)]

    def level(p):
        key = tuple(map(map_key, level_maps[p]))
        hit = store.get(key)
        if hit is None:
            hit = store[key] = values.finite_colimit(
                FiniteDiagram(shape, {u: nodes[u].levels[p] for u in shape.objects},
                              dict(zip(order, level_maps[p])), trusted=True), category)
        return hit
    results = _levelwise(level_maps, level)
    # class(u, x at j + 1) goes to class(u, bond(x)) at level j
    bonds = _levelwise(
        ((results[j + 1], results[j], *(nodes[u].bonds[j] for u in shape.objects))
         for j in range(d)),
        lambda j: out_map(results[j + 1], {u: (nodes[u].bonds[j], results[j].cocone[u])
                                           for u in shape.objects}, results[j].obj))
    return TowerColimit(Tower(tuple(r.obj for r in results), tuple(bonds)), tuple(results))
