"""Finite categories, sieves, covers and coverages: the indexing side of the engine.

Everything is immutable after construction and identified by string ids, with
lexicographic tie-breaking wherever a choice has to be made, so all outputs
are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

from .errors import InvalidCategory, SiteError


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
    # morphisms by dst, by src and by (src, dst), each in `morphisms` order
    _into: Mapping[str, tuple[Morphism, ...]] = field(init=False, repr=False, compare=False)
    _out_of: Mapping[str, tuple[Morphism, ...]] = field(init=False, repr=False, compare=False)
    _hom: Mapping[tuple[str, str], tuple[Morphism, ...]] = field(init=False, repr=False,
                                                                  compare=False)

    def __post_init__(self):
        objects = set(self.objects)
        by_id = {}
        into, out_of, hom = {}, {}, {}
        for m in self.morphisms:
            if m.id in by_id:
                raise InvalidCategory(f"duplicate morphism id {m.id!r}")
            if m.src not in objects or m.dst not in objects:
                raise InvalidCategory(f"morphism {m.id!r} has unknown endpoint")
            by_id[m.id] = m
            into.setdefault(m.dst, []).append(m)
            out_of.setdefault(m.src, []).append(m)
            hom.setdefault((m.src, m.dst), []).append(m)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_into", {u: tuple(ms) for u, ms in into.items()})
        object.__setattr__(self, "_out_of", {u: tuple(ms) for u, ms in out_of.items()})
        object.__setattr__(self, "_hom", {k: tuple(ms) for k, ms in hom.items()})
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

    def into(self, u: str) -> list[Morphism]:
        return list(self._into.get(u, ()))

    def out_of(self, u: str) -> list[Morphism]:
        return list(self._out_of.get(u, ()))

    def hom(self, src: str, dst: str) -> tuple[Morphism, ...]:
        """The morphisms src -> dst, in `morphisms` order."""
        return self._hom.get((src, dst), ())

    def check_axioms(self) -> list[str]:
        """Exhaustive associativity/identity/totality check; returns failure strings."""
        bad = []
        for f in self.morphisms:
            for g in self.morphisms:
                if f.dst != g.src:
                    if (g.id, f.id) in self.composition:
                        bad.append(f"composition defined on non-composable ({g.id},{f.id})")
                    continue
                try:
                    gf = self.compose(g.id, f.id)
                except InvalidCategory:
                    bad.append(f"composition missing on ({g.id},{f.id})")
                    continue
                m = self._by_id.get(gf)
                if m is None or m.src != f.src or m.dst != g.dst:
                    bad.append(f"composite of ({g.id},{f.id}) has wrong endpoints")
        if bad:
            return bad
        for f in self.morphisms:
            if self.compose(self.identity[f.dst], f.id) != f.id:
                bad.append(f"left identity fails on {f.id}")
            if self.compose(f.id, self.identity[f.src]) != f.id:
                bad.append(f"right identity fails on {f.id}")
        for f in self.morphisms:
            for g in self._out_of.get(f.dst, ()):
                for h in self._out_of.get(g.dst, ()):
                    left = self.compose(h.id, self.compose(g.id, f.id))
                    right = self.compose(self.compose(h.id, g.id), f.id)
                    if left != right:
                        bad.append(f"associativity fails on ({h.id},{g.id},{f.id})")
        return bad


def poset_category(objects, leq_pairs) -> FiniteCategory:
    """Category of a poset: one morphism `a<b` per related pair, ids `a<a`."""
    objs = tuple(sorted(objects))
    rel = {(a, b) for a, b in leq_pairs}
    for a in objs:
        rel.add((a, a))
    # transitive closure
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    for a, b in rel:
        if (b, a) in rel and a != b:
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

    def validate(self, cat: FiniteCategory):
        for mid in self.members:
            m = cat.morphism(mid)
            if m.dst != self.target:
                raise SiteError(f"sieve member {mid!r} does not land in {self.target!r}")
        for mid in self.members:
            m = cat.morphism(mid)
            for g in cat.into(m.src):
                if cat.compose(mid, g.id) not in self.members:
                    raise SiteError(f"sieve not closed under precomposition at {mid!r}")


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

    def assignment_at(self, level: int) -> RefinementAssignment:
        """Assignment from cover_at(level+1) into cover_at(level)."""
        if level < len(self.refinements):
            return self.refinements[level]
        cover = self.covers[-1]
        return tuple((i, None) for i in range(len(cover.pieces)))  # identity tail


@dataclass(frozen=True)
class Coverage:
    covers: Mapping[str, tuple[Cover, ...]]
    chains: Mapping[str, CoverChain] = field(default_factory=dict)


@dataclass(frozen=True)
class SiteSpec:
    category: FiniteCategory
    coverage: Coverage
    name: str = "site"
    poset: bool = False
    # sieve_from_cover results by cover key; a pickled copy starts empty
    _sieves: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __getstate__(self):
        return {**self.__dict__, "_sieves": {}}

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


def comma_of_sieve(spec: SiteSpec, sieve: Sieve) -> FiniteCategory:
    """The category whose objects are the members of the sieve.

    Object ids are the member morphism ids; a morphism `b|m1>m2` is a base
    morphism b with member2 ∘ b = member1.
    """
    cat = spec.category
    sieve.validate(cat)
    members = tuple(sorted(sieve.members))
    src_of = {m: cat.morphism(m).src for m in members}
    morphisms = []
    base = {}      # comma morphism id -> base morphism id
    into = {}      # comma object -> comma morphisms into it
    identity = {}
    for m1 in members:
        src1 = src_of[m1]
        for m2 in members:
            for beta in cat.hom(src1, src_of[m2]):
                if cat.compose(m2, beta.id) == m1:
                    mid = f"{beta.id}|{m1}>{m2}"
                    mor = Morphism(mid, m1, m2)
                    morphisms.append(mor)
                    base[mid] = beta.id
                    into.setdefault(m2, []).append(mor)
                    if m1 == m2 and beta.id == cat.id_of(src1):
                        identity[m1] = mid
    comp = {}
    for g in morphisms:
        bg = base[g.id]
        for f in into.get(g.src, ()):
            comp[(g.id, f.id)] = f"{cat.compose(bg, base[f.id])}|{f.src}>{g.dst}"
    for c in comp.values():
        if c not in base:
            raise SiteError(f"comma category not closed: missing {c!r}")
    return FiniteCategory(members, tuple(morphisms), identity, comp)


def find_refinement(spec: SiteSpec, fine: Cover, coarse: Cover) -> RefinementAssignment | None:
    """Assignment sending each fine piece through some coarse piece, or None.

    Deterministic: for each fine piece the lexicographically smallest
    (coarse index, factor morphism id) is chosen.
    """
    if fine.target != coarse.target:
        raise SiteError("refinement requires a shared target")
    cat = spec.category
    out = []
    for p in fine.pieces:
        mp = cat.morphism(p)
        found = None
        for j, q in enumerate(coarse.pieces):
            mq = cat.morphism(q)
            for beta in sorted(cat.hom(mp.src, mq.src)):
                if cat.compose(q, beta.id) == p:
                    found = (j, beta.id)
                    break
            if found:
                break
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
        g.id for g in cat.morphisms if g.dst == a.src and cat.compose(alpha, g.id) in sieve.members
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
    """
    pulled = pullback_sieve(spec, target_sieve, alpha)
    levels = sieve_levels(spec, v, depth)
    for lvl, s in enumerate(levels):
        if s.members <= pulled.members:
            return lvl, s
    return None


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


def sieve_levels(spec: SiteSpec, u: str, depth: int) -> list[Sieve]:
    """The descending sieve presentation of u, one sieve per level 0..depth.

    Finite-cover objects contribute a constant list (sieve of the common
    refinement); chain objects contribute the chain-generated sieves.
    """
    chain = spec.chain_of(u)
    if chain is None:
        if not spec.declared_covers(u):
            raise SiteError(f"no cofinal presentation for {u!r}")
        s = sieve_from_cover(spec, common_refinement(spec, u))
        return [s] * (depth + 1)
    out = [sieve_from_cover(spec, chain.cover_at(level)) for level in range(depth + 1)]
    for k in range(depth):
        if not out[k + 1].members <= out[k].members:
            raise SiteError(f"chain of {u!r} is not refinement-monotone at level {k}")
    return out


def validate_site(spec: SiteSpec, depth: int = 4):
    """Exhaustive category axioms plus the finitely checkable coverage axioms.

    Checks, on the family of sieves generated by declared covers and chain
    levels up to `depth`:
      (a) every object carries the trivial cover or a refinement of it,
      (b) stability under pullback along every morphism,
      (c) local character: composing a cover with the finest covers of its
          pieces again dominates a declared sieve.
    Returns a CheckReport (imported lazily to avoid a cycle).
    """
    from .report import CheckReport

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

    for u in spec.category.objects:
        covers = spec.declared_covers(u)
        chain = spec.chain_of(u)
        if not covers and chain is None:
            ok = False
            witnesses.append(f"object {u!r} has no cover")
            continue
        for c in covers:
            for p in c.pieces:
                if not spec.category.has_morphism(p):
                    ok = False
                    witnesses.append(f"cover of {u!r} uses unknown morphism {p!r}")
            if not c.pieces and any(spec.category.morphism(m.id).src != u for m in spec.category.into(u) if m.id != spec.category.id_of(u)):
                pass  # empty cover: legal only for an initial-like object; checked by use
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

    # (a) maximal sieve covering via the trivial cover (any cover refines it).
    for u in spec.category.objects:
        if distinct_covers(spec, u, depth):
            continue
        ok = False
        witnesses.append(f"object {u!r}: no generating cover")
    trace.append("axiom (a) trivial cover dominated: " + ("pass" if ok else "fail"))

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
        verdict="PASS" if ok else "FAIL",
        depth=depth if spec.has_chains() else None,
        classification="valid site" if ok else "invalid site",
        witnesses=tuple(witnesses),
        trace=tuple(trace),
    )
