"""Canonical JSON serialization for sites, (pre)(co)sheaves and reports.

Documents carry a top-level "kind"; saving is canonical (sorted keys, two
space indent, trailing newline) so save ∘ load ∘ save is byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import intmat, values
from .category import (Cover, CoverChain, Coverage, FiniteCategory, Morphism,
                       SiteSpec, poset_category)
from .cosheaf import PointFilter, Precosheaf, precosheaf_from_tables
from .errors import InvalidDocument
from .report import CheckReport
from .sheaf import Presheaf
from .towers import LevelMorphism, Tower
from .values import FINAB, FINSET, FinAbObj, FinSetMap, FinSetObj


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def save(value, path) -> None:
    Path(path).write_text(dumps(to_document(value)), encoding="utf-8")


def load(path, depth: int = 6):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InvalidDocument("/", f"unreadable file: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidDocument("/", f"not JSON: {exc}") from exc
    return from_document(doc, depth=depth, base=Path(path).parent)


def to_document(value) -> dict:
    if isinstance(value, SiteSpec):
        return _site_doc(value)
    if isinstance(value, Precosheaf):
        return _precosheaf_doc(value)
    if isinstance(value, Presheaf):
        return _presheaf_doc(value)
    if isinstance(value, CheckReport):
        return value.to_json()
    raise InvalidDocument("/", f"unserializable value of type {type(value).__name__}")


def from_document(doc: dict, depth: int = 6, base: Path | None = None):
    if not isinstance(doc, dict):
        raise InvalidDocument("/", "document must be an object")
    kind = doc.get("kind")
    if kind == "site":
        return _site_from(doc)
    if kind == "precosheaf":
        return _precosheaf_from(doc, depth, base)
    if kind == "presheaf":
        return _presheaf_from(doc, base)
    if kind == "report":
        return doc
    raise InvalidDocument("/kind", f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# sites


def _cover_doc(c: Cover) -> dict:
    out = {"target": c.target, "pieces": list(c.pieces)}
    if c.intersections is None:
        out["intersections"] = None
    else:
        out["intersections"] = {f"{i},{j}": w for (i, j), w in c.intersections}
    return out


def _site_doc(spec: SiteSpec) -> dict:
    cat = spec.category
    doc = {
        "kind": "site",
        "name": spec.name,
        "poset": spec.poset,
        "objects": sorted(cat.objects),
        "covers": [
            _cover_doc(c)
            for u in sorted(spec.coverage.covers)
            for c in spec.coverage.covers[u]
        ],
        "chains": [
            {
                "target": u,
                "covers": [_cover_doc(c) for c in chain.covers],
                "refinements": [
                    [[j, factor] for (j, factor) in assignment]
                    for assignment in chain.refinements
                ],
            }
            for u, chain in sorted(spec.coverage.chains.items())
        ],
    }
    points = getattr(spec, "_point_filters", ())
    if points:
        doc["points"] = [{"label": p.label, "chain": list(p.chain)} for p in points]
    if spec.poset:
        doc["leq"] = sorted(
            [m.src, m.dst] for m in cat.morphisms if m.src != m.dst
        )
    else:
        doc["morphisms"] = [
            {"id": m.id, "src": m.src, "dst": m.dst} for m in cat.morphisms
        ]
        doc["identity"] = dict(cat.identity)
        doc["composition"] = sorted([g, f, gf] for (g, f), gf in cat.composition.items())
    return doc


def _resolve_piece(cat: FiniteCategory, target: str, piece: str, ptr: str) -> str:
    if not isinstance(piece, str):
        raise InvalidDocument(ptr, f"piece must be a string, not {piece!r}")
    if cat.has_morphism(piece):
        m = cat.morphism(piece)
        if m.dst != target:
            raise InvalidDocument(ptr, f"piece {piece!r} does not land in {target!r}")
        return piece
    candidate = f"{piece}<{target}"
    if cat.has_morphism(candidate):
        return candidate
    raise InvalidDocument(ptr, f"unknown morphism or object {piece!r}")


def _cover_from(cat, raw, ptr) -> Cover:
    if not isinstance(raw, dict) or "target" not in raw or "pieces" not in raw:
        raise InvalidDocument(ptr, "cover needs target and pieces")
    target = raw["target"]
    if target not in cat.objects:
        raise InvalidDocument(ptr + "/target", f"unknown object {target!r}")
    pieces = tuple(
        _resolve_piece(cat, target, p, f"{ptr}/pieces/{i}")
        for i, p in enumerate(raw["pieces"])
    )
    inter_raw = raw.get("intersections")
    if inter_raw is None:
        inter = None
    else:
        inter = []
        for key in sorted(inter_raw):
            try:
                i, j = (int(x) for x in key.split(","))
            except ValueError:
                raise InvalidDocument(f"{ptr}/intersections/{key}", "key must be 'i,j'")
            w = inter_raw[key]
            if w not in cat.objects:
                raise InvalidDocument(f"{ptr}/intersections/{key}", f"unknown object {w!r}")
            if not 0 <= i < len(pieces) or not 0 <= j < len(pieces):
                raise InvalidDocument(f"{ptr}/intersections/{key}", "piece index out of range")
            inter.append(((i, j), w))
        inter = tuple(inter)
    return Cover(target, pieces, inter)


def _site_from(doc: dict) -> SiteSpec:
    objects = doc.get("objects")
    if not isinstance(objects, list) or not objects:
        raise InvalidDocument("/objects", "objects must be a nonempty array")
    poset = bool(doc.get("poset", False))
    if poset:
        leq = doc.get("leq", [])
        for i, pair in enumerate(leq):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise InvalidDocument(f"/leq/{i}", "pairs expected")
            for x in pair:
                if x not in objects:
                    raise InvalidDocument(f"/leq/{i}", f"unknown object {x!r}")
        cat = poset_category(objects, [tuple(p) for p in leq])
    else:
        morphs = []
        for i, m in enumerate(doc.get("morphisms", [])):
            for fieldname in ("id", "src", "dst"):
                if fieldname not in m:
                    raise InvalidDocument(f"/morphisms/{i}", f"missing {fieldname!r}")
            if m["src"] not in objects or m["dst"] not in objects:
                raise InvalidDocument(f"/morphisms/{i}", "unknown endpoint")
            morphs.append(Morphism(m["id"], m["src"], m["dst"]))
        comp = {}
        for i, triple in enumerate(doc.get("composition", [])):
            if not (isinstance(triple, list) and len(triple) == 3):
                raise InvalidDocument(f"/composition/{i}", "triples expected")
            comp[(triple[0], triple[1])] = triple[2]
        cat = FiniteCategory(tuple(objects), tuple(morphs),
                             doc.get("identity", {}), comp)
    covers: dict[str, list[Cover]] = {}
    for i, raw in enumerate(doc.get("covers", [])):
        c = _cover_from(cat, raw, f"/covers/{i}")
        covers.setdefault(c.target, []).append(c)
    chains = {}
    for i, raw in enumerate(doc.get("chains", [])):
        target = raw.get("target")
        if target not in cat.objects:
            raise InvalidDocument(f"/chains/{i}/target", f"unknown object {target!r}")
        chain_covers = tuple(
            _cover_from(cat, c, f"/chains/{i}/covers/{k}")
            for k, c in enumerate(raw.get("covers", []))
        )
        refinements = tuple(
            tuple((int(j), factor) for j, factor in assignment)
            for assignment in raw.get("refinements", [])
        )
        chains[target] = CoverChain(target, chain_covers, refinements)
    spec = SiteSpec(cat, Coverage({u: tuple(cs) for u, cs in covers.items()}, chains),
                    name=doc.get("name", "site"), poset=poset)
    raw_points = doc.get("points", [])
    if not isinstance(raw_points, list):
        raise InvalidDocument("/points", "points must be an array")
    pts = tuple(_point_from(p, f"/points/{i}") for i, p in enumerate(raw_points))
    if pts:
        object.__setattr__(spec, "_point_filters", pts)
    return spec


def _point_from(raw, ptr) -> PointFilter:
    if not (isinstance(raw, dict) and isinstance(raw.get("label"), str)
            and isinstance(raw.get("chain"), list) and raw["chain"]
            and all(isinstance(u, str) for u in raw["chain"])):
        raise InvalidDocument(ptr, "point needs a string label and a nonempty chain of object ids")
    return PointFilter(raw["label"], tuple(raw["chain"]))


# ---------------------------------------------------------------------------
# values and maps


def _value_doc(v) -> object:
    if isinstance(v, FinSetObj):
        return list(v.elements)
    if isinstance(v, FinAbObj):
        return {"generators": v.rank, "relations": [list(r) for r in v.relations]}
    raise InvalidDocument("/", f"unserializable value {v!r}")


def _map_doc(f) -> object:
    if isinstance(f, FinSetMap):
        return dict(f.table)
    return [list(r) for r in f.matrix]


def _tower_doc(t: Tower) -> dict:
    return {
        "tower": {
            "levels": [_value_doc(x) for x in t.levels],
            "bonds": [_map_doc(b) for b in t.bonds],
        }
    }


def _level_morphism_doc(lm: LevelMorphism) -> dict:
    return {"shift": list(lm.shift), "components": [_map_doc(c) for c in lm.components]}


def _precosheaf_doc(a: Precosheaf) -> dict:
    doc = {
        "kind": "precosheaf",
        "site": _site_doc(a.site),
        "category": a.category,
        "depth": a.depth,
    }
    if a.is_rudimentary_valued():
        doc["values"] = {u: _value_doc(t.levels[0]) for u, t in a.values.items()}
        doc["action"] = {m: _map_doc(lm.components[0]) for m, lm in a.action.items()}
    else:
        doc["values"] = {u: _tower_doc(t) for u, t in a.values.items()}
        doc["action"] = {m: _level_morphism_doc(lm) for m, lm in a.action.items()}
    return doc


def _presheaf_doc(a: Presheaf) -> dict:
    return {
        "kind": "presheaf",
        "site": _site_doc(a.site),
        "category": a.category,
        "values": {u: _value_doc(v) for u, v in a.values.items()},
        "action": {m: _map_doc(f) for m, f in a.action.items()},
    }


def _value_from(raw, category, ptr):
    if category == FINSET:
        if not isinstance(raw, list):
            raise InvalidDocument(ptr, "finite-set value must be an array")
        return FinSetObj(tuple(raw))
    if not isinstance(raw, dict) or "generators" not in raw:
        raise InvalidDocument(ptr, "abelian value needs generators and relations")
    rels = raw.get("relations", [])
    return FinAbObj(int(raw["generators"]), intmat.freeze(rels) if rels else ())


def _map_from(raw, src, dst, category, ptr):
    try:
        if category == FINSET:
            if not isinstance(raw, dict):
                raise InvalidDocument(ptr, "finite-set map must be a table")
            return values.finset_map(src, dst, raw)
        return values.finab_map(src, dst, raw)
    except InvalidDocument:
        raise
    except Exception as exc:
        raise InvalidDocument(ptr, str(exc)) from exc


def _site_ref(doc, base: Path | None):
    raw = doc.get("site")
    if isinstance(raw, str):
        path = Path(raw)
        if base is not None and not path.is_absolute():
            path = base / path
        site = load(path)
        if not isinstance(site, SiteSpec):
            raise InvalidDocument("/site", "referenced document is not a site")
        return site
    if isinstance(raw, dict):
        return _site_from(raw)
    raise InvalidDocument("/site", "site must be inline or a reference path")


def _precosheaf_from(doc, depth, base) -> Precosheaf:
    site = _site_ref(doc, base)
    category = doc.get("category")
    if category not in (FINSET, FINAB):
        raise InvalidDocument("/category", f"unknown category {category!r}")
    vals_raw = doc.get("values", {})
    action_raw = doc.get("action", {})
    for u in site.category.objects:
        if u not in vals_raw:
            raise InvalidDocument(f"/values/{u}", "missing value")
    if any(isinstance(v, dict) and "tower" in v for v in vals_raw.values()):
        return _tower_precosheaf_from(site, category, vals_raw, action_raw, doc)
    objs = {u: _value_from(vals_raw[u], category, f"/values/{u}") for u in site.category.objects}
    action = {}
    for m in site.category.morphisms:
        if m.id not in action_raw:
            raise InvalidDocument(f"/action/{m.id}", "missing action")
        action[m.id] = _map_from(action_raw[m.id], objs[m.src], objs[m.dst],
                                 category, f"/action/{m.id}")
    return precosheaf_from_tables(site, category, objs, action,
                                  int(doc.get("depth", depth)),
                                  getattr(site, "_point_filters", ()))


def _tower_precosheaf_from(site, category, vals_raw, action_raw, doc) -> Precosheaf:
    towers = {}
    for u in site.category.objects:
        raw = vals_raw[u]["tower"]
        levels = tuple(_value_from(v, category, f"/values/{u}/tower/levels") for v in raw["levels"])
        bonds = tuple(
            _map_from(b, levels[k + 1], levels[k], category, f"/values/{u}/tower/bonds/{k}")
            for k, b in enumerate(raw["bonds"])
        )
        towers[u] = Tower(levels, bonds)
    action = {}
    for m in site.category.morphisms:
        raw = action_raw.get(m.id)
        if raw is None:
            raise InvalidDocument(f"/action/{m.id}", "missing action")
        shift = tuple(int(s) for s in raw["shift"])
        comps = tuple(
            _map_from(c, towers[m.src].levels[shift[j]], towers[m.dst].levels[j],
                      category, f"/action/{m.id}/components/{j}")
            for j, c in enumerate(raw["components"])
        )
        action[m.id] = LevelMorphism(towers[m.src], towers[m.dst], shift, comps)
    depth = int(doc.get("depth", next(iter(towers.values())).depth))
    return Precosheaf(site, category, depth, towers, action,
                      getattr(site, "_point_filters", ()))


def _presheaf_from(doc, base) -> Presheaf:
    site = _site_ref(doc, base)
    category = doc.get("category")
    if category not in (FINSET, FINAB):
        raise InvalidDocument("/category", f"unknown category {category!r}")
    vals_raw = doc.get("values", {})
    action_raw = doc.get("action", {})
    objs = {}
    for u in site.category.objects:
        if u not in vals_raw:
            raise InvalidDocument(f"/values/{u}", "missing value")
        objs[u] = _value_from(vals_raw[u], category, f"/values/{u}")
    action = {}
    for m in site.category.morphisms:
        if m.id not in action_raw:
            raise InvalidDocument(f"/action/{m.id}", "missing action")
        action[m.id] = _map_from(action_raw[m.id], objs[m.dst], objs[m.src],
                                 category, f"/action/{m.id}")
    return Presheaf(site, category, objs, action, getattr(site, "_point_filters", ()))
