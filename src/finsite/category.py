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
    """A finite category given by a composition table.

    `composition` maps (second, first) to the composite: composition[(g, f)]
    is g∘f, defined exactly when src(g) == dst(f).  A `_ThinComposition`
    table makes the category thin: it stores nothing, and g∘f is the one
    morphism from src(f) to dst(g).
    """

    objects: tuple[str, ...]
    morphisms: tuple[Morphism, ...]
    identity: Mapping[str, str]
    composition: Mapping[tuple[str, str], str]
    _by_id: Mapping[str, Morphism] = field(init=False, repr=False, compare=False)
    # morphisms by dst and by src (shared with a lazy table) and by (src, dst),
    # each in `morphisms` order and built on first use
    _arrows: _ArrowIndex = field(init=False, repr=False, compare=False)
    _hom: Mapping[tuple[str, str], tuple[Morphism, ...]] | None = field(
        default=None, init=False, repr=False, compare=False)
    thin: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        objects = set(self.objects)
        by_id = {}
        for m in self.morphisms:
            if m.id in by_id:
                raise InvalidCategory(f"duplicate morphism id {m.id!r}")
            if m.src not in objects or m.dst not in objects:
                raise InvalidCategory(f"morphism {m.id!r} has unknown endpoint")
            by_id[m.id] = m
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_arrows", _ArrowIndex(self.morphisms))
        for u in self.objects:
            i = self.identity.get(u)
            if i is None or i not in by_id:
                raise InvalidCategory(f"object {u!r} lacks an identity morphism")
            if by_id[i].src != u or by_id[i].dst != u:
                raise InvalidCategory(f"identity of {u!r} has wrong endpoints")
        object.__setattr__(self, "thin", isinstance(self.composition, _ThinComposition))
        if isinstance(self.composition, _LazyComposition):
            self.composition._bind(self)

    def morphism(self, mid: str) -> Morphism:
        return self._by_id[mid]

    def has_morphism(self, mid: str) -> bool:
        return mid in self._by_id

    def compose(self, g: str, f: str) -> str:
        """The composite g∘f (first f, then g)."""
        mf, mg = self._by_id[f], self._by_id[g]
        if mf.dst != mg.src:
            raise InvalidCategory(f"morphisms {g!r}∘{f!r} are not composable")
        if self.thin:
            for m in (self._hom or self._index_hom()).get((mf.src, mg.dst), ()):
                return m.id
            raise InvalidCategory(f"no morphism {mf.src!r} -> {mg.dst!r} composes ({g!r}, {f!r})")
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
        return self._arrows.ready().into.get(u, ())

    def out_of(self, u: str) -> tuple[Morphism, ...]:
        return self._arrows.ready().out_of.get(u, ())

    def hom(self, src: str, dst: str) -> tuple[Morphism, ...]:
        """The morphisms src -> dst, in `morphisms` order."""
        return (self._hom or self._index_hom()).get((src, dst), ())

    def _index_hom(self):
        hom = {}
        for m in self.morphisms:
            hom.setdefault((m.src, m.dst), []).append(m)
        object.__setattr__(self, "_hom", {k: tuple(ms) for k, ms in hom.items()})
        return self._hom

    def check_axioms(self) -> list[str]:
        """Exhaustive associativity/identity/totality check; returns failure strings.

        Totality walks the composable pairs by source, and each key of
        the composition table is checked for composability once; failures
        come in (f, g) order, f first, each in `morphisms` order.  A key with
        an identity factor must hold what `compose`'s identity rule answers.
        The associativity law then reads the composites found."""
        if self.thin:
            return self._thin_axioms()
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
        out_of = self._arrows.ready().out_of
        comp = {}
        for i, f in enumerate(self.morphisms):
            for g in out_of.get(f.dst, ()):
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
            for g in out_of.get(f.dst, ()):
                if g.id in ids:
                    continue
                gf = comp[g.id, f.id]
                for h in out_of.get(g.dst, ()):
                    if h.id not in ids and comp[h.id, gf] != comp[comp[h.id, g.id], f.id]:
                        bad.append(f"associativity fails on ({h.id},{g.id},{f.id})")
        return bad

    def _thin_axioms(self) -> list[str]:
        """The axioms of a thin category, by two checks: every hom-set holds at
        most one morphism, and every composable pair f, g has a morphism
        src(f) -> dst(g).  Then the laws hold by uniqueness: id∘f and f∘id are
        morphisms with f's endpoints, so they are f, and both bracketings of
        h∘g∘f are morphisms src(f) -> dst(h), so they agree.  The second check
        compares, for each f, the objects above dst(f) with those above
        src(f); failures come in (f, g) order, each in `morphisms` order."""
        bad = [f"thin category has parallel morphisms {ms[0].id},{m.id}"
               for ms in (self._hom or self._index_hom()).values() for m in ms[1:]]
        out_of = self._arrows.ready().out_of
        above = {u: {m.dst for m in ms} for u, ms in out_of.items()}
        for f in self.morphisms:
            ups = above[f.src]
            if not above[f.dst] <= ups:
                bad.extend(f"composition missing on ({g.id},{f.id})"
                           for g in out_of[f.dst] if g.dst not in ups)
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


class _ArrowIndex:
    """A category's morphisms by dst (`into`) and by src (`out_of`), each in
    `morphisms` order, built together on first use: an engine path that
    reads a comma category only through `objects`, `morphisms` and
    `morphism()` never builds them.  The category and its lazy table share
    one index, which holds the morphisms and not the category."""

    __slots__ = ("morphisms", "into", "out_of")

    def __init__(self, morphisms: tuple[Morphism, ...]):
        self.morphisms, self.into, self.out_of = morphisms, None, None

    def ready(self) -> _ArrowIndex:
        """This index, its two maps built on the first call."""
        if self.into is None:
            into, out_of = {}, {}
            for m in self.morphisms:
                into.setdefault(m.dst, []).append(m)
                out_of.setdefault(m.src, []).append(m)
            self.into = {u: tuple(ms) for u, ms in into.items()}
            self.out_of = {u: tuple(ms) for u, ms in out_of.items()}
        return self


class _LazyComposition(Mapping):
    """A composition table computed on demand from its category's indexes.

    The category binds its table once built (`FiniteCategory.__post_init__`).
    The table holds the indexes, not the category: without a reference cycle
    a dropped site frees its categories at once.  It shares the category's
    `_ArrowIndex`, so whichever of the two reads it first builds it for both.
    Keys iterate in the order an eager table would list them: for each
    morphism g, every f into src(g).
    """

    def _bind(self, cat: FiniteCategory):
        self._by_id, self._arrows = cat._by_id, cat._arrows

    def __iter__(self):
        into = self._arrows.ready().into
        for g in self._arrows.morphisms:
            for f in into.get(g.src, ()):
                yield g.id, f.id

    def __len__(self):
        into = self._arrows.ready().into
        return sum(len(into.get(g.src, ())) for g in self._arrows.morphisms)


class _ThinComposition(_LazyComposition):
    """The composition table of a thin category: g∘f is the one morphism from
    src(f) to dst(g).  `FiniteCategory.compose` answers by the same rule
    without reading the table."""

    def __getitem__(self, key):
        g, f = key
        mg, mf = self._by_id[g], self._by_id[f]
        if mf.dst == mg.src:
            for m in self._arrows.ready().into.get(mg.dst, ()):
                if m.src == mf.src:
                    return m.id
        raise KeyError(key)

    def __eq__(self, other):
        # two thin tables with the same morphisms are the same table
        if isinstance(other, _ThinComposition):
            return self._by_id == other._by_id
        return super().__eq__(other)


def poset_category(objects, leq_pairs) -> FiniteCategory:
    """Category of a poset: one morphism `a<b` per related pair, ids `a<a`.

    The category is thin, so it stores no composition table."""
    objs = tuple(sorted(objects))
    rel = order_closure(objs, leq_pairs)
    for a, b in sorted(rel):
        if a != b and (b, a) in rel:
            raise InvalidCategory(f"antisymmetry fails on {a!r}, {b!r}")
    def mid(a, b):
        return f"{a}<{b}"
    morphisms = tuple(Morphism(mid(a, b), a, b) for a, b in sorted(rel))
    identity = {a: mid(a, a) for a in objs}
    return FiniteCategory(objs, morphisms, identity, _ThinComposition())


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
    # argument, comma_of_sieve results with their base ids (one (comma,
    # bases) entry) and their opposites (see sheaf.hom_with_sieve) by sieve,
    # and common-refinement sieves by object; a pickled copy starts with all
    # five empty
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


class _CommaComposition(_LazyComposition):
    """The composition table of a comma category, read off the base category.

    A comma morphism `b|m1>m2` lies over the base morphism b, recorded in
    `base_of` when the comma is built, so g∘f is the comma morphism over
    b_g∘b_f from src(f) to dst(g): no table is stored."""

    def __init__(self, base: FiniteCategory, base_of: Mapping[str, str]):
        self._base, self._base_of = base, base_of

    def __getitem__(self, key):
        g, f = key
        mg, mf = self._by_id[g], self._by_id[f]
        if mf.dst != mg.src:
            raise KeyError(key)
        out = f"{self._base.compose(self._base_of[g], self._base_of[f])}|{mf.src}>{mg.dst}"
        if out not in self._by_id:
            raise KeyError(key)
        return out


def comma_of_sieve(spec: SiteSpec, sieve: Sieve) -> FiniteCategory:
    """The category whose objects are the members of the sieve.

    Object ids are the member morphism ids; a morphism `b|m1>m2` is a base
    morphism b with member2 ∘ b = member1.  Memoized on the site by
    (target, members), together with its base ids (`_comma_bases`);
    composites are read off the site category on demand.
    """
    return _comma_entry(spec, sieve)[0]


def _comma_bases(spec: SiteSpec, sieve: Sieve) -> tuple[str, ...]:
    """The base morphism b of each comma morphism `b|m1>m2` of the sieve's
    comma category, in its `morphisms` order, as the site's own id strings.
    The opposite comma keeps these morphism ids in this order, so it reads
    the same tuple."""
    return _comma_entry(spec, sieve)[1]


def _comma_entry(spec: SiteSpec, sieve: Sieve) -> tuple[FiniteCategory, tuple[str, ...]]:
    key = (sieve.target, sieve.members)
    hit = spec._commas.get(key)
    if hit is None:
        hit = spec._commas[key] = _comma_category(spec.category, sieve)
    return hit


def _comma_category(cat: FiniteCategory, sieve: Sieve) -> tuple[FiniteCategory, tuple[str, ...]]:
    """The comma category of the sieve and the base id of each of its
    morphisms, in `morphisms` order.

    One pass: for each member m2 and each b into src(m2), m1 = m2∘b is both
    the sieve's closure-under-precomposition check and the comma morphism
    `b|m1>m2`.  Members are checked in sorted order, every target first.

    On a thin base, m1 is the member from src(b), if there is one, so no
    composite is taken.  The comma is then thin too, `b|m1>m2` being the one
    morphism m1 -> m2, and closed under composition by the base's
    transitivity; over any other base the closure is checked."""
    members = tuple(sorted(sieve.members))
    for m in members:
        if cat.morphism(m).dst != sieve.target:
            raise SiteError(f"sieve member {m!r} does not land in {sieve.target!r}")
    src_of = {m: cat.morphism(m).src for m in members}
    thin = cat.thin
    member_at = {s: m for m, s in src_of.items()} if thin else None
    identity = {m: f"{cat.identity[src_of[m]]}|{m}>{m}" for m in members}
    into = cat._arrows.ready().into
    morphisms, base_of = [], {}
    for m2 in members:
        for beta in into.get(src_of[m2], ()):
            m1 = member_at.get(beta.src) if thin else cat.compose(m2, beta.id)
            if m1 not in src_of:
                raise SiteError(f"sieve not closed under precomposition at {m2!r}")
            if src_of[m1] == beta.src:   # else a malformed table: no comma morphism
                mid = f"{beta.id}|{m1}>{m2}"
                morphisms.append(Morphism(mid, m1, m2))
                base_of[mid] = beta.id
    morphisms.sort(key=lambda m: m.src)   # stable: by m1, then m2, then b
    morphisms = tuple(morphisms)
    bases = tuple(base_of[m.id] for m in morphisms)
    if thin:
        return FiniteCategory(members, morphisms, identity, _ThinComposition()), bases
    comma = FiniteCategory(members, morphisms, identity, _CommaComposition(cat, base_of))
    # a pair with an identity factor composes by FiniteCategory.compose's
    # identity rule, never through the table, so only the others are checked
    comma_into = comma._arrows.ready().into
    for g in comma.morphisms:
        id_g = identity[g.src]
        if g.id != id_g:
            bg = base_of[g.id]
            for f in comma_into.get(g.src, ()):
                if f.id != id_g:
                    c = f"{cat.compose(bg, base_of[f.id])}|{f.src}>{g.dst}"
                    if not comma.has_morphism(c):
                        raise SiteError(f"comma category not closed: missing {c!r}")
    return comma, bases


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


def checked_covers(spec: SiteSpec, u: str, depth: int) -> list[tuple[Cover, Sieve]]:
    """Each distinct cover of u through `depth` with its generated sieve,
    less, on a thin site, those whose sieve holds id_u.

    Such a sieve's comma is the slice over u, whose terminal object id_u
    makes every colimit comparison and limit restriction over it an
    identity, so the cover never fails the cosheaf or the sheaf check.  The
    rule is thin-only: a declared table is a category only if `validate`
    says so, and that comma's closure check is where the checks refuse a
    non-associative one ("comma category not closed"); a thin category
    composes by rule, so it is a category by construction."""
    identity = spec.category.id_of(u) if spec.category.thin else None
    return [(c, s) for c in distinct_covers(spec, u, depth)
            if identity not in (s := sieve_from_cover(spec, c)).members]


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
    ids = set(cat.identity.values())
    nonid = [m for m in cat.morphisms if m.id not in ids]
    if not site.poset:
        return [(g.id, f.id) for g in nonid for f in cat.into(g.src) if f.id not in ids]
    strictly_below = {}
    for m in nonid:
        strictly_below.setdefault(m.dst, set()).add(m.src)
    hasse = []
    for m in nonid:
        between = strictly_below.get(m.dst, set())
        if not any(m.src in strictly_below.get(w, ()) for w in between):
            hasse.append(m)
    return [(g.id, f.id) for f in hasse for g in cat.out_of(f.dst) if g.id not in ids]


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

    return CheckReport.on(spec, depth, "valid site" if ok else "invalid site", witnesses, trace)
