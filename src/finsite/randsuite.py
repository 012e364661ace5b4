"""Seeded random sites, (pre)(co)sheaves and morphisms, plus the oracle
suite the CLI exposes.

Random precosheaves are sums of representable blocks (a block anchored at W
contributes its grains to every object W maps into), which is functorial by
construction; anchoring a block at a bottom object yields constant summands.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import values
from .category import SiteSpec, distinct_covers, validate_site
from .cosheaf import (Precosheaf, PrecosheafMorphism, check_cosheaf, coproduct,
                      defect_agreement, plus_cosheaf, precosheaf_from_tables)
from .errors import EngineError
from .report import CheckReport
from .sheaf import Presheaf, check_sheaf, plus_sheaf
from .spaces import FiniteSpace, open_site, site_points
from .towers import LevelMorphism, is_iso_at_depth
from .values import FINAB, FINSET, FinAbObj, classify_map, finset_map


_SHAPES = {
    "point": FiniteSpace(("a",), frozenset()),
    "chain2": FiniteSpace(("a", "b"), frozenset({("a", "b")})),
    "disc2": FiniteSpace(("a", "b"), frozenset()),
    "chain3": FiniteSpace(("a", "b", "c"), frozenset({("a", "b"), ("b", "c")})),
    "vee": FiniteSpace(("a", "b", "c"), frozenset({("c", "a"), ("c", "b")})),
    "wedge": FiniteSpace(("a", "b", "c"), frozenset({("a", "c"), ("b", "c")})),
}


def random_site(rng: random.Random) -> SiteSpec:
    name = rng.choice(sorted(_SHAPES))
    policy = rng.choice(["all-irredundant", "generated"])
    return open_site(_SHAPES[name], policy)


@dataclass(frozen=True)
class Block:
    anchor: str        # object id the block is anchored at
    grains: int        # number of set elements / generator count
    torsion: int       # 0 for free / a modulus for cyclic summands (FinAb)


def _random_blocks(spec: SiteSpec, rng: random.Random, max_size: int, finab: bool,
                   reaches, fallback: int) -> list[Block]:
    """One to three random blocks, trimmed from the end until no object holds
    more than `max_size` grains; `reaches(spec, anchor, u)` says whether a
    block anchored at `anchor` is present at u.  When no block survives, one
    grain is anchored at the object of index `fallback` in sorted order."""
    objs = sorted(spec.category.objects)
    blocks = []
    for _ in range(rng.randint(1, 3)):
        anchor = rng.choice(objs)
        grains = rng.randint(1, 2)
        torsion = rng.choice([0, 0, 2, 3]) if finab else 0
        blocks.append(Block(anchor, grains, torsion))
    while blocks and max(sum(b.grains for _, b in _present(spec, blocks, u, reaches))
                         for u in objs) > max_size:
        blocks.pop()
    return blocks or [Block(objs[fallback], 1, 0)]


def _reaches(spec: SiteSpec, src: str, dst: str) -> bool:
    return bool(spec.category.hom(src, dst))


def _reached_by(spec: SiteSpec, src: str, dst: str) -> bool:
    return _reaches(spec, dst, src)


def _present(spec: SiteSpec, blocks, u: str, reaches) -> list[tuple[int, Block]]:
    """The (index, block) pairs present at u, in block order."""
    return [(bi, b) for bi, b in enumerate(blocks) if reaches(spec, b.anchor, u)]


def _labels(present) -> tuple[str, ...]:
    """Element labels of the blocks present at an object: `b<index>e<grain>`."""
    return tuple(f"b{bi}e{g}" for bi, b in present for g in range(b.grains))


def random_finset_precosheaf(spec: SiteSpec, rng: random.Random, depth: int = 0,
                             max_size: int = 4) -> Precosheaf:
    blocks = _random_blocks(spec, rng, max_size, False, _reaches, 0)
    tables = {u: _labels(_present(spec, blocks, u, _reaches)) for u in spec.category.objects}
    action = {m.id: {x: x for x in tables[m.src]} for m in spec.category.morphisms}
    return precosheaf_from_tables(spec, FINSET, tables, action, depth, site_points(spec))


def random_finab_precosheaf(spec: SiteSpec, rng: random.Random, depth: int = 0,
                            max_rank: int = 3) -> Precosheaf:
    blocks = _random_blocks(spec, rng, max_rank, True, _reaches, 0)
    labels, tables = {}, {}
    for u in spec.category.objects:
        present = _present(spec, blocks, u, _reaches)
        labels[u] = _labels(present)
        # one generator per grain; a torsion block gives each of its grains a relation
        torsion = [b.torsion for _, b in present for _ in range(b.grains)]
        pinned = [k for k, t in enumerate(torsion) if t]
        rel = tuple(tuple(torsion[i] if i == k else 0 for k in pinned)
                    for i in range(len(torsion))) if pinned else ()
        tables[u] = FinAbObj(len(torsion), rel)
    # a generator goes to the generator of the same label
    action = {m.id: tuple(tuple(int(x == y) for x in labels[m.src]) for y in labels[m.dst])
              for m in spec.category.morphisms}
    return precosheaf_from_tables(spec, FINAB, tables, action, depth, site_points(spec))


def random_presheaf(spec: SiteSpec, rng: random.Random, max_size: int = 4) -> Presheaf:
    """Sums of co-representable blocks: a block anchored at W is present at
    every object mapping into W; restrictions keep labels."""
    blocks = _random_blocks(spec, rng, max_size, False, _reached_by, -1)
    vals = {u: values.FinSetObj(_labels(_present(spec, blocks, u, _reached_by)))
            for u in spec.category.objects}
    action = {}
    for m in spec.category.morphisms:
        # restriction from value(dst) to value(src): defined on shared blocks
        table = {}
        for x in vals[m.dst].elements:
            if x in vals[m.src].elements:
                table[x] = x
            else:
                raise EngineError("co-representable block escaped downward closure")
        action[m.id] = finset_map(vals[m.dst], vals[m.src], table)
    return Presheaf(spec, FINSET, vals, action, site_points(spec))


def _diagonal(src: Precosheaf, dst: Precosheaf, n: int, depth: int) -> PrecosheafMorphism:
    """n on the diagonal at every object and level: a scaled identity when
    src is dst, else (n = 1) a summand inclusion or projection."""
    comps = {}
    for u in src.site.category.objects:
        gs, gd = src.values[u].levels[0], dst.values[u].levels[0]
        mtx = [[n if i == j else 0 for j in range(gs.rank)] for i in range(gd.rank)]
        f = values.finab_map(gs, gd, mtx)
        comps[u] = LevelMorphism(src.values[u], dst.values[u], (f,) * (depth + 1))
    return PrecosheafMorphism(src, dst, comps)


def random_finab_morphism(spec: SiteSpec, rng: random.Random, depth: int = 0
                          ) -> PrecosheafMorphism:
    """A natural transformation of abelian block precosheaves: a scaled
    identity, a summand inclusion, or a summand projection."""
    a = random_finab_precosheaf(spec, rng, depth)
    kind = rng.choice(["scale", "scale", "inject", "project"])
    if kind == "scale":
        return _diagonal(a, a, rng.choice([0, 1, 2, 3, -1]), depth)
    b = random_finab_precosheaf(spec, rng, depth)
    summed = coproduct(a, b)
    if kind == "inject":
        return _diagonal(a, summed, 1, depth)
    return _diagonal(summed, a, 1, depth)


def oracle_suite(seed: int = 0, cases: int = 25):
    """Randomized cross-validation: fast/slow defect agreement and the plus
    construction laws on both sides, over seeded random open-set sites."""
    rng = random.Random(seed)
    failures = []
    trace = []
    for case in range(cases):
        spec = random_site(rng)
        if not validate_site(spec).passed:
            failures.append({"case": case, "failed": "site axioms"})
            continue
        a = random_finset_precosheaf(spec, rng)
        b = random_finab_precosheaf(spec, rng)
        for sample in (a, b):
            for u in spec.category.objects:
                for cover in distinct_covers(spec, u, 0):
                    if cover.has_intersections() and not defect_agreement(sample, cover):
                        failures.append({"case": case, "object": u,
                                         "failed": "fast/slow disagreement"})
        plus = plus_cosheaf(a)
        plus_report = check_cosheaf(plus.precosheaf)
        if plus_report.classification not in ("COSEPARATED", "COSHEAF"):
            failures.append({"case": case, "failed": "plus not coseparated"})
        base = check_cosheaf(a)
        if base.classification in ("COSEPARATED", "COSHEAF"):
            if plus_report.classification != "COSHEAF":
                failures.append({"case": case, "failed": "plus of coseparated not a cosheaf"})
        counit_iso = all(
            is_iso_at_depth(plus.counit.components[u]).iso for u in spec.category.objects
        )
        if counit_iso != (base.classification == "COSHEAF"):
            failures.append({"case": case, "failed": "counit-iso vs cosheaf mismatch"})
        p = random_presheaf(spec, rng)
        sp = plus_sheaf(p)
        sp_report = check_sheaf(sp.presheaf)
        if sp_report.classification not in ("SEPARATED", "SHEAF"):
            failures.append({"case": case, "failed": "sheaf plus not separated"})
        unit_iso = all(classify_map(sp.unit[u]).iso for u in spec.category.objects)
        if unit_iso != (check_sheaf(p).classification == "SHEAF"):
            failures.append({"case": case, "failed": "unit-iso vs sheaf mismatch"})
    trace.append(f"{cases} cases, {len(failures)} failures")
    return CheckReport(
        classification="oracle suite",
        witnesses=failures[:10],
        trace=trace,
    )
