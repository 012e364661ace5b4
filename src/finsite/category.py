"""Finite categories, sieves, covers and coverages: the indexing side of the engine.

Everything is immutable after construction and identified by string ids, with
lexicographic tie-breaking wherever a choice has to be made, so all outputs
are deterministic.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import InvalidCategory, SiteError
from .report import CheckReport


class Morphism(NamedTuple):
    id: str
    src: str
    dst: str


@dataclass(frozen=True)
class FiniteCategory:
    """A finite category given by an explicit composition table.

    `composition` maps (second, first) to the composite: composition[(g, f)]
    is g∘f, defined exactly when src(g) == dst(f).
    """

    objects: tuple[str, ...]
    morphisms: tuple[Morphism, ...]
    identity: Mapping[str, str]
    composition: Mapping[tuple[str, str], str]
    _by_id: Mapping[str, Morphism] = field(init=False, repr=False, compare=False)
    # morphisms by dst, by src and (built on first use) by (src, dst), each in
    # `morphisms` order
    _into: Mapping[str, tuple[Morphism, ...]] = field(init=False, repr=False, compare=False)
    _out_of: Mapping[str, tuple[Morphism, ...]] = field(init=False, repr=False, compare=False)
    _hom: Mapping[tuple[str, str], tuple[Morphism, ...]] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        objects = set(self.objects)
        by_id = {}
        into, out_of = {}, {}
        for m in self.morphisms:
            if m.id in by_id:
                raise InvalidCategory(f"duplicate morphism id {m.id!r}")
            if m.src not in objects or m.dst not in objects:
                raise InvalidCategory(f"morphism {m.id!r} has unknown endpoint")
            by_id[m.id] = m
            into.setdefault(m.dst, []).append(m)
            out_of.setdefault(m.src, []).append(m)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_into", {u: tuple(ms) for u, ms in into.items()})
        object.__setattr__(self, "_out_of", {u: tuple(ms) for u, ms in out_of.items()})
        for u in self.objects:
            i = self.identity.get(u)
            if i is None or i not in by_id:
                raise InvalidCategory(f"object {u!r} lacks an identity morphism")
            if by_id[i].src != u or by_id[i].dst != u:
                raise InvalidCategory(f"identity of {u!r} has wrong endpoints")

    def morphism(self, mid: str) -> Morphism:
        return self._by_id[mid]

    def has_morphism(self, mid: str) -> bool:
        return mid in self._by_id

    def compose(self, g: str, f: str) -> str:
        """The composite g∘f (first f, then g)."""
        mf, mg = self._by_id[f], self._by_id[g]
        if mf.dst != mg.src:
            raise InvalidCategory(f"morphisms {g!r}∘{f!r} are not composable")
        if mg.id == self.identity[mg.src]:
            return f
        if mf.id == self.identity[mf.dst]:
            return g
        out = self.composition.get((g, f))
        if out is None:
            raise InvalidCategory(f"composition table missing ({g!r}, {f!r})")
        return out

    def id_of(self, u: str) -> str:
        return self.identity[u]

    def into(self, u: str) -> tuple[Morphism, ...]:
        return self._into.get(u, ())

    def out_of(self, u: str) -> tuple[Morphism, ...]:
        return self._out_of.get(u, ())

    def hom(self, src: str, dst: str) -> tuple[Morphism, ...]:
        """The morphisms src -> dst, in `morphisms` order."""
        if self._hom is None:
            hom = {}
            for m in self.morphisms:
                hom.setdefault((m.src, m.dst), []).append(m)
            object.__setattr__(self, "_hom", {k: tuple(ms) for k, ms in hom.items()})
        return self._hom.get((src, dst), ())

    def check_axioms(self) -> list[str]:
        """Exhaustive associativity/identity/totality check; returns failure strings.

        Totality walks the composable pairs through `_out_of`, and each key of
        the composition table is checked for composability once; failures
        come in (f, g) order, f first, each in `morphisms` order.  A key with
        an identity factor must hold what `compose`'s identity rule answers.
        The associativity law then reads the composites found."""
        position = {m.id: i for i, m in enumerate(self.morphisms)}
        ids = set(self.identity.values())
        found = []
        for (g_id, f_id), gf in self.composition.items():
            g, f = self._by_id.get(g_id), self._by_id.get(f_id)
            if g is None or f is None:
                continue
            at = (position[f_id], position[g_id])
            if f.dst != g.src:
                found.append((at, f"composition defined on non-composable ({g_id},{f_id})"))
            # `compose` answers an identity factor by rule, never reading the entry
            elif g_id in ids and gf != f_id:
                found.append((at, f"left identity fails on {f_id}"))
            elif f_id in ids and gf != g_id:
                found.append((at, f"right identity fails on {g_id}"))
        comp = {}
        for i, f in enumerate(self.morphisms):
            for g in self._out_of.get(f.dst, ()):
                try:
                    gf = comp[g.id, f.id] = self.compose(g.id, f.id)
                except InvalidCategory:
                    found.append(((i, position[g.id]), f"composition missing on ({g.id},{f.id})"))
                    continue
                m = self._by_id.get(gf)
                if m is None or m.src != f.src or m.dst != g.dst:
                    found.append(((i, position[g.id]),
                                  f"composite of ({g.id},{f.id}) has wrong endpoints"))
        if found:
            return [line for _, line in sorted(found, key=lambda pair: pair[0])]
        bad = []
        # a triple with an identity factor composes by `compose`'s identity
        # rule on both sides, so only triples of non-identities can fail
        for f in self.morphisms:
            if f.id in ids:
                continue
            for g in self._out_of.get(f.dst, ()):
                if g.id in ids:
                    continue
                gf = comp[g.id, f.id]
                for h in self._out_of.get(g.dst, ()):
                    if h.id not in ids and comp[h.id, gf] != comp[comp[h.id, g.id], f.id]:
                        bad.append(f"associativity fails on ({h.id},{g.id},{f.id})")
        return bad


def order_closure(elements, pairs) -> set[tuple[str, str]]:
    """The reflexive-transitive closure of `pairs`: reflexive on `elements`,
    transitive through every endpoint, including those named only in pairs."""
    above = {}
    for a, b in (*pairs, *((x, x) for x in elements)):
        above.setdefault(a, set()).add(b)
    for k in list(above):   # Warshall: k joins the allowed intermediate points
        for ups in above.values():
            if k in ups:
                ups |= above[k]
    return {(a, b) for a, ups in above.items() for b in ups}


def poset_category(objects, leq_pairs) -> FiniteCategory:
    """Category of a poset: one morphism `a<b` per related pair, ids `a<a`."""
    objs = tuple(sorted(objects))
    rel = order_closure(objs, leq_pairs)
    for a, b in sorted(rel):
        if a != b and (b, a) in rel:
            raise InvalidCategory(f"antisymmetry fails on {a!r}, {b!r}")
    def mid(a, b):
        return f"{a}<{b}"
    morphisms = tuple(Morphism(mid(a, b), a, b) for a, b in sorted(rel))
    identity = {a: mid(a, a) for a in objs}
    comp = {}
    for a, b in rel:
        for c in objs:
            if (b, c) in rel:
                comp[(mid(b, c), mid(a, b))] = mid(a, c)
    return FiniteCategory(objs, morphisms, identity, comp)


@dataclass(frozen=True)
class Sieve:
    """A set of morphisms into `target`, closed under precomposition."""

    target: str
    members: frozenset[str]


@dataclass(frozen=True)
class Cover:
    """A declared cover: morphisms into `target`, plus optional pullback data.

    `intersections` maps a piece-index pair (i, j), i < j, to the object that
    serves as the pullback of pieces i and j over the target.  Pairs whose
    pullback does not exist in the category are simply absent; None means the
    cover declares no pullback data at all (disabling the cokernel fast path).
    """

    target: str
    pieces: tuple[str, ...]
    intersections: tuple[tuple[tuple[int, int], str], ...] | None = None

    def has_intersections(self) -> bool:
        return self.intersections is not None

    def intersection_map(self) -> dict[tuple[int, int], str]:
        return dict(self.intersections or ())

    def key(self) -> tuple:
        return (self.target, self.pieces)


# assignment: fine piece index -> (coarse piece index, factor morphism id)
RefinementAssignment = tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class CoverChain:
    """A rule-generated descending chain of covers of one object.

    covers[k+1] refines covers[k]; `refinements[k]` records the assignment.
    Levels beyond the declared bound repeat the deepest cover.
    """

    target: str
    covers: tuple[Cover, ...]
    refinements: tuple[RefinementAssignment, ...]

    def __post_init__(self):
        if not self.covers:
            raise SiteError("empty cover chain")
        if len(self.refinements) != len(self.covers) - 1:
            raise SiteError("chain must record one refinement per consecutive pair")

    def cover_at(self, level: int) -> Cover:
        return self.covers[min(level, len(self.covers) - 1)]


@dataclass(frozen=True)
class Coverage:
    covers: Mapping[str, tuple[Cover, ...]]
    chains: Mapping[str, CoverChain] = field(default_factory=dict)


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


@dataclass(frozen=True)
class SiteSpec:
    category: FiniteCategory
    coverage: Coverage
    name: str = "site"
    poset: bool = False
    # the declared points (costalk and stalk filters); sites that differ only
    # in their points are equal
    points: tuple[PointFilter, ...] = field(default=(), compare=False)
    # sieve_from_cover results by cover key, refinement_search results by
    # argument, comma_of_sieve results and their opposites (see
    # sheaf.hom_with_sieve) by sieve, and common-refinement sieves by object;
    # a pickled copy starts with all five empty
    _sieves: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _refinements: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _commas: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _opposite_commas: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _common_sieves: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __getstate__(self):
        return {**self.__dict__, "_sieves": {}, "_refinements": {}, "_commas": {},
                "_opposite_commas": {}, "_common_sieves": {}}

    def declared_covers(self, u: str) -> tuple[Cover, ...]:
        return self.coverage.covers.get(u, ())

    def chain_of(self, u: str) -> CoverChain | None:
        return self.coverage.chains.get(u)

    def has_chains(self) -> bool:
        return bool(self.coverage.chains)


def sieve_from_cover(spec: SiteSpec, cover: Cover) -> Sieve:
    """The sieve generated by a cover: morphisms factoring through a piece.

    Memoized on the site by cover key."""
    key = cover.key()
    hit = spec._sieves.get(key)
    if hit is None:
        hit = spec._sieves[key] = _generated_sieve(spec.category, cover)
    return hit


def _generated_sieve(cat: FiniteCategory, cover: Cover) -> Sieve:
    if cover.target not in cat.objects:
        raise SiteError(f"cover target {cover.target!r} not in site")
    members = set()
    for p in cover.pieces:
        piece = cat.morphism(p)
        if piece.dst != cover.target:
            raise SiteError(f"cover piece {p!r} does not land in {cover.target!r}")
        members.add(p)
        for beta in cat.into(piece.src):
            members.add(cat.compose(p, beta.id))
    return Sieve(cover.target, frozenset(members))


class _CommaComposition(Mapping):
    """The composition table of a comma category, read off the base category.

    A comma morphism `b|m1>m2` names its base morphism b, so g∘f is the comma
    morphism over b_g∘b_f from src(f) to dst(g): no table is stored.  Keys
    iterate in the order an eager table would list them: for each comma
    morphism g, every f into src(g)."""

    def __init__(self, base: FiniteCategory):
        self._base = base

    def _bind(self, comma: FiniteCategory):
        """Read the comma's own indexes, once it is built.  They are held,
        not the comma itself: without a reference cycle a dropped site frees
        its comma categories at once."""
        self._by_id, self._into, self._morphisms = comma._by_id, comma._into, comma.morphisms

    def __getitem__(self, key):
        g, f = key
        mg, mf = self._by_id[g], self._by_id[f]
        if mf.dst != mg.src:
            raise KeyError(key)
        out = f"{self._base.compose(_comma_base(mg), _comma_base(mf))}|{mf.src}>{mg.dst}"
        if out not in self._by_id:
            raise KeyError(key)
        return out

    def __iter__(self):
        for g in self._morphisms:
            for f in self._into.get(g.src, ()):
                yield g.id, f.id

    def __len__(self):
        return sum(len(self._into.get(g.src, ())) for g in self._morphisms)


def _comma_base(m: Morphism) -> str:
    """The base morphism b of a comma morphism `b|m1>m2`."""
    return m.id[:len(m.id) - len(m.src) - len(m.dst) - 2]


def comma_of_sieve(spec: SiteSpec, sieve: Sieve) -> FiniteCategory:
    """The category whose objects are the members of the sieve.

    Object ids are the member morphism ids; a morphism `b|m1>m2` is a base
    morphism b with member2 ∘ b = member1.  Memoized on the site by
    (target, members); composites are read off the site category on demand.
    """
    key = (sieve.target, sieve.members)
    hit = spec._commas.get(key)
    if hit is None:
        hit = spec._commas[key] = _comma_category(spec.category, sieve)
    return hit


def _comma_category(cat: FiniteCategory, sieve: Sieve) -> FiniteCategory:
    """One pass: for each member m2 and each b into src(m2), m1 = m2∘b is both
    the sieve's closure-under-precomposition check and the comma morphism
    `b|m1>m2`.  Members are checked in sorted order, every target first."""
    members = tuple(sorted(sieve.members))
    for m in members:
        if cat.morphism(m).dst != sieve.target:
            raise SiteError(f"sieve member {m!r} does not land in {sieve.target!r}")
    src_of = {m: cat.morphism(m).src for m in members}
    identity = {m: f"{cat.identity[src_of[m]]}|{m}>{m}" for m in members}
    morphisms, base = [], {}
    for m2 in members:
        for beta in cat._into.get(src_of[m2], ()):
            m1 = cat.compose(m2, beta.id)
            if m1 not in src_of:
                raise SiteError(f"sieve not closed under precomposition at {m2!r}")
            if src_of[m1] == beta.src:   # else a malformed table: no comma morphism
                mid = f"{beta.id}|{m1}>{m2}"
                morphisms.append(Morphism(mid, m1, m2))
                base[mid] = beta.id
    morphisms.sort(key=lambda m: m.src)   # stable: by m1, then m2, then b
    comp = _CommaComposition(cat)
    comma = FiniteCategory(members, tuple(morphisms), identity, comp)
    comp._bind(comma)
    # a pair with an identity factor composes by FiniteCategory.compose's
    # identity rule, never through the table, so only the others are checked
    for g in comma.morphisms:
        id_g = identity[g.src]
        if g.id != id_g:
            bg = base[g.id]
            for f in comma._into.get(g.src, ()):
                if f.id != id_g:
                    c = f"{cat.compose(bg, base[f.id])}|{f.src}>{g.dst}"
                    if not comma.has_morphism(c):
                        raise SiteError(f"comma category not closed: missing {c!r}")
    return comma


def find_refinement(spec: SiteSpec, fine: Cover, coarse: Cover) -> RefinementAssignment | None:
    """Assignment sending each fine piece through some coarse piece, or None.

    Deterministic: for each fine piece the lexicographically smallest
    (coarse index, factor morphism id) is chosen.
    """
    if fine.target != coarse.target:
        raise SiteError("refinement requires a shared target")
    return _refinement(spec.category, fine, coarse)


def _refinement(cat: FiniteCategory, fine: Cover, coarse: Cover) -> RefinementAssignment | None:
    """find_refinement without the shared-target check."""
    out = []
    for p in fine.pieces:
        src = cat.morphism(p).src
        found = next(((j, beta) for j, q in enumerate(coarse.pieces)
                      for beta in sorted(m.id for m in cat.hom(src, cat.morphism(q).src))
                      if cat.compose(q, beta) == p), None)
        if found is None:
            return None
        out.append(found)
    return tuple(out)


def pullback_sieve(spec: SiteSpec, sieve: Sieve, alpha: str) -> Sieve:
    """The sieve alpha*R on src(alpha): morphisms g with alpha∘g in R."""
    cat = spec.category
    a = cat.morphism(alpha)
    if a.dst != sieve.target:
        raise SiteError("pullback along a morphism not into the sieve target")
    members = frozenset(
        g.id for g in cat.into(a.src) if cat.compose(alpha, g.id) in sieve.members
    )
    return Sieve(a.src, members)


def distinct_covers(spec: SiteSpec, u: str, depth: int) -> list[Cover]:
    """Declared covers of u plus the distinct chain covers through `depth`."""
    seen = set()
    out = []
    for c in spec.declared_covers(u):
        if c.key() not in seen:
            seen.add(c.key())
            out.append(c)
    chain = spec.chain_of(u)
    if chain is not None:
        for level in range(depth + 1):
            c = chain.cover_at(level)
            if c.key() not in seen:
                seen.add(c.key())
                out.append(c)
    return out


def generated_sieves(spec: SiteSpec, u: str, depth: int) -> list[Sieve]:
    return [sieve_from_cover(spec, c) for c in distinct_covers(spec, u, depth)]


def refinement_search(spec: SiteSpec, v: str, target_sieve: Sieve, alpha: str, depth: int):
    """Smallest declared presentation level of v whose sieve sits inside alpha*target_sieve.

    Returns (level, sieve) where `level` indexes the chain of v (0 for the
    common-refinement of a finite family).  None when nothing fits.
    Memoized on the site by its arguments.
    """
    key = (v, target_sieve, alpha, depth)
    if key in spec._refinements:
        return spec._refinements[key]
    pulled = pullback_sieve(spec, target_sieve, alpha)
    hit = None
    for lvl, s in enumerate(sieve_levels(spec, v, depth)):
        if s.members <= pulled.members:
            hit = lvl, s
            break
    spec._refinements[key] = hit
    return hit


def common_refinement(spec: SiteSpec, u: str) -> Cover:
    """Greedy common refinement of the declared covers of u.

    Iterates the declared covers in order, maintaining a cover refining all
    seen so far; when neither of two covers refines the other, scans the
    declared family for the first cover refining both.
    """
    covers = spec.declared_covers(u)
    if not covers:
        raise SiteError(f"object {u!r} has no declared covers")
    current = covers[0]
    for c in covers[1:]:
        if find_refinement(spec, current, c) is not None:
            continue
        if find_refinement(spec, c, current) is not None:
            current = c
            continue
        for d in covers:
            if find_refinement(spec, d, current) is not None and find_refinement(spec, d, c) is not None:
                current = d
                break
        else:
            raise SiteError(f"declared covers of {u!r} admit no common refinement")
    return current


def common_sieve(spec: SiteSpec, u: str) -> Sieve:
    """The sieve of u's common refinement, memoized on the site by object."""
    hit = spec._common_sieves.get(u)
    if hit is None:
        hit = spec._common_sieves[u] = sieve_from_cover(spec, common_refinement(spec, u))
    return hit


def sieve_levels(spec: SiteSpec, u: str, depth: int) -> list[Sieve]:
    """The descending sieve presentation of u, one sieve per level 0..depth.

    Finite-cover objects contribute a constant list (sieve of the common
    refinement); chain objects contribute the chain-generated sieves.
    """
    chain = spec.chain_of(u)
    if chain is None:
        if not spec.declared_covers(u):
            raise SiteError(f"no cofinal presentation for {u!r}")
        return [common_sieve(spec, u)] * (depth + 1)
    out = [sieve_from_cover(spec, chain.cover_at(level)) for level in range(depth + 1)]
    for k in range(depth):
        if not out[k + 1].members <= out[k].members:
            raise SiteError(f"chain of {u!r} is not refinement-monotone at level {k}")
    return out


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


def validate_site(spec: SiteSpec, depth: int = 4):
    """Exhaustive category axioms plus the finitely checkable coverage axioms.

    Checks, on the family of sieves generated by declared covers and chain
    levels up to `depth`:
      (a) every object carries the trivial cover or a refinement of it,
      (b) stability under pullback along every morphism,
      (c) local character: composing a cover with the finest covers of its
          pieces again dominates a declared sieve.
    Returns a CheckReport.
    """
    trace = []
    witnesses = []
    ok = True

    bad = spec.category.check_axioms()
    if bad:
        raise InvalidCategory("invalid category: " + "; ".join(bad[:5]))
    trace.append("category axioms: pass")

    if spec.poset:
        seen = {}
        for m in spec.category.morphisms:
            if (m.src, m.dst) in seen:
                ok = False
                witnesses.append(f"poset flag but parallel morphisms {seen[(m.src, m.dst)]},{m.id}")
            seen[(m.src, m.dst)] = m.id

    uncovered = False
    for u in spec.category.objects:
        covers = spec.declared_covers(u)
        chain = spec.chain_of(u)
        if not covers and chain is None:
            ok, uncovered = False, True
            witnesses.append(f"object {u!r} has no cover")
            continue
        for c in covers:
            for p in c.pieces:
                if not spec.category.has_morphism(p):
                    ok = False
                    witnesses.append(f"cover of {u!r} uses unknown morphism {p!r}")
        if chain is not None:
            for k in range(len(chain.covers) - 1):
                fine, coarse = chain.covers[k + 1], chain.covers[k]
                rec = chain.refinements[k]
                if len(rec) != len(fine.pieces):
                    ok = False
                    witnesses.append(f"chain of {u!r}: refinement {k} has wrong length")
                    continue
                for i, (j, factor) in enumerate(rec):
                    p, q = fine.pieces[i], coarse.pieces[j]
                    if factor is None:
                        if p != q:
                            ok = False
                            witnesses.append(f"chain of {u!r}: identity assignment on distinct pieces")
                        continue
                    if spec.category.compose(q, factor) != p:
                        ok = False
                        witnesses.append(f"chain of {u!r}: refinement {k} piece {i} does not factor")
    trace.append("coverage well-formedness: " + ("pass" if ok else "fail"))

    # (a) maximal sieve covering via the trivial cover (any cover refines it):
    # an object generates a covering sieve exactly when it has a cover, since
    # a chain always has one
    trace.append("axiom (a) trivial cover dominated: " + ("fail" if uncovered else "pass"))

    # (b) stability: pulled-back covering sieves dominate a declared sieve.
    stable = True
    for u in spec.category.objects:
        for cover in distinct_covers(spec, u, depth):
            r = sieve_from_cover(spec, cover)
            for alpha in spec.category.into(u):
                v = alpha.src
                try:
                    hit = refinement_search(spec, v, r, alpha.id, depth)
                except SiteError as exc:
                    hit = None
                    witnesses.append(str(exc))
                if hit is None:
                    stable = False
                    witnesses.append(
                        f"stability fails: cover {cover.pieces} of {u!r} pulled along {alpha.id!r}")
    ok = ok and stable
    trace.append("axiom (b) stability: " + ("pass" if stable else "fail"))

    # (c) local character on the generated family.
    local = True
    for u in spec.category.objects:
        for cover in distinct_covers(spec, u, depth):
            members = set()
            try:
                for p in cover.pieces:
                    v = spec.category.morphism(p).src
                    inner = sieve_levels(spec, v, depth)[-1]
                    for g in inner.members:
                        members.add(spec.category.compose(p, g))
            except SiteError as exc:
                local = False
                witnesses.append(str(exc))
                continue
            composite = Sieve(u, frozenset(members))
            dominated = any(s.members <= composite.members or composite.members <= s.members
                            for s in generated_sieves(spec, u, depth))
            if cover.pieces and not dominated:
                local = False
                witnesses.append(f"local character fails at {u!r} for cover {cover.pieces}")
    ok = ok and local
    trace.append("axiom (c) local character: " + ("pass" if local else "fail"))

    return CheckReport(
        depth=depth if spec.has_chains() else None,
        classification="valid site" if ok else "invalid site",
        witnesses=tuple(witnesses),
        trace=tuple(trace),
    )
