"""Canonical JSON serialization for sites, (pre)(co)sheaves and reports.

Documents carry a top-level "kind"; saving is canonical (sorted keys, two
space indent, trailing newline) so save ∘ load ∘ save is byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

import finsite

from . import intmat, values
from .category import (Cover, CoverChain, Coverage, FiniteCategory, Morphism,
                       PointFilter, SiteSpec, poset_category)
from .errors import InvalidCategory, InvalidDocument, SiteError
from .report import CheckReport
from .values import FINAB, FINSET, FinAbObj, FinSetMap, FinSetObj


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def save(value, path) -> None:
    Path(path).write_text(dumps(to_document(value)), encoding="utf-8")


def _read_json(path, ptr: str):
    """The JSON document at path; a failure to read or parse it is reported
    at ptr."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidDocument(ptr, f"unreadable file: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidDocument(ptr, f"not JSON: {exc}") from exc


def load(path, depth: int = 6):
    return from_document(_read_json(path, "/"), depth=depth, base=Path(path).parent)


def to_document(value) -> dict:
    if isinstance(value, SiteSpec):
        return _site_doc(value)
    if isinstance(value, CheckReport):
        return value.to_json()
    # the presheaf side first: saving a presheaf then loads no cosheaf module
    if isinstance(value, finsite.Presheaf):
        return _presheaf_doc(value)
    if isinstance(value, finsite.Precosheaf):
        return _precosheaf_doc(value)
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
    if spec.points:
        doc["points"] = [{"label": p.label, "chain": list(p.chain)} for p in spec.points]
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


def _array(raw, ptr, what) -> list:
    if not isinstance(raw, list):
        raise InvalidDocument(ptr, f"{what} must be an array")
    return raw


def _object(raw, ptr, what) -> dict:
    if not isinstance(raw, dict):
        raise InvalidDocument(ptr, f"{what} must be an object")
    return raw


def _string(raw, ptr, what) -> None:
    if not isinstance(raw, str):
        raise InvalidDocument(ptr, f"{what} must be a string")


def _cover_from(cat, raw, ptr) -> Cover:
    if not isinstance(raw, dict) or "target" not in raw or "pieces" not in raw:
        raise InvalidDocument(ptr, "cover needs target and pieces")
    target = raw["target"]
    if target not in cat.objects:
        raise InvalidDocument(ptr + "/target", f"unknown object {target!r}")
    pieces = tuple(
        _resolve_piece(cat, target, p, f"{ptr}/pieces/{i}")
        for i, p in enumerate(_array(raw["pieces"], ptr + "/pieces", "pieces"))
    )
    inter_raw = raw.get("intersections")
    if inter_raw is None:
        inter = None
    else:
        if not (isinstance(inter_raw, dict) and all(isinstance(k, str) for k in inter_raw)):
            raise InvalidDocument(ptr + "/intersections", "intersections must be an object")
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
    for i, u in enumerate(objects):
        _string(u, f"/objects/{i}", "object id")
    poset = bool(doc.get("poset", False))
    if poset:
        leq = _array(doc.get("leq", []), "/leq", "leq")
        for i, pair in enumerate(leq):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise InvalidDocument(f"/leq/{i}", "pairs expected")
            for x in pair:
                if x not in objects:
                    raise InvalidDocument(f"/leq/{i}", f"unknown object {x!r}")
        try:
            cat = poset_category(objects, [tuple(p) for p in leq])
        except InvalidCategory as exc:
            raise InvalidDocument("/leq", str(exc)) from exc
    else:
        morphs = []
        for i, m in enumerate(_array(doc.get("morphisms", []), "/morphisms", "morphisms")):
            _object(m, f"/morphisms/{i}", "morphism")
            for fieldname in ("id", "src", "dst"):
                if fieldname not in m:
                    raise InvalidDocument(f"/morphisms/{i}", f"missing {fieldname!r}")
            if m["src"] not in objects or m["dst"] not in objects:
                raise InvalidDocument(f"/morphisms/{i}", "unknown endpoint")
            _string(m["id"], f"/morphisms/{i}", "morphism id")
            morphs.append(Morphism(m["id"], m["src"], m["dst"]))
        comp = {}
        for i, triple in enumerate(_array(doc.get("composition", []), "/composition",
                                          "composition")):
            if not (isinstance(triple, list) and len(triple) == 3):
                raise InvalidDocument(f"/composition/{i}", "triples expected")
            for mid in triple:
                _string(mid, f"/composition/{i}", "morphism id")
            comp[(triple[0], triple[1])] = triple[2]
        identity = _object(doc.get("identity", {}), "/identity", "identity")
        for u, mid in identity.items():
            _string(mid, f"/identity/{u}", "morphism id")
        try:
            cat = FiniteCategory(tuple(objects), tuple(morphs), identity, comp)
        except InvalidCategory as exc:
            # endpoints are checked above, so a morphism fault is a duplicate id
            where = "/morphisms" if len({m.id for m in morphs}) < len(morphs) else "/identity"
            raise InvalidDocument(where, str(exc)) from exc
    covers: dict[str, list[Cover]] = {}
    for i, raw in enumerate(_array(doc.get("covers", []), "/covers", "covers")):
        c = _cover_from(cat, raw, f"/covers/{i}")
        covers.setdefault(c.target, []).append(c)
    chains = {}
    for i, raw in enumerate(_array(doc.get("chains", []), "/chains", "chains")):
        ptr = f"/chains/{i}"
        target = _object(raw, ptr, "chain").get("target")
        if target not in cat.objects:
            raise InvalidDocument(f"{ptr}/target", f"unknown object {target!r}")
        chain_covers = tuple(
            _cover_from(cat, c, f"{ptr}/covers/{k}")
            for k, c in enumerate(_array(raw.get("covers", []), ptr + "/covers", "covers"))
        )
        refinements = tuple(
            _refinement_from(assignment, f"{ptr}/refinements/{k}")
            for k, assignment in enumerate(
                _array(raw.get("refinements", []), ptr + "/refinements", "refinements"))
        )
        try:
            chains[target] = CoverChain(target, chain_covers, refinements)
        except SiteError as exc:
            raise InvalidDocument(ptr, str(exc)) from exc
    raw_points = doc.get("points", [])
    if not isinstance(raw_points, list):
        raise InvalidDocument("/points", "points must be an array")
    return SiteSpec(cat, Coverage({u: tuple(cs) for u, cs in covers.items()}, chains),
                    name=doc.get("name", "site"), poset=poset,
                    points=tuple(_point_from(p, f"/points/{i}", cat.objects)
                                 for i, p in enumerate(raw_points)))


def _refinement_from(raw, ptr) -> tuple:
    """One refinement assignment: [piece index, factor] per finer piece."""
    out = []
    for i, pair in enumerate(_array(raw, ptr, "refinement")):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise InvalidDocument(f"{ptr}/{i}", "[piece index, factor] pairs expected")
        out.append((_natural(pair[0], f"{ptr}/{i}/0", "piece index"), pair[1]))
    return tuple(out)


def _point_from(raw, ptr, objects) -> PointFilter:
    if not (isinstance(raw, dict) and isinstance(raw.get("label"), str)
            and isinstance(raw.get("chain"), list) and raw["chain"]
            and all(isinstance(u, str) for u in raw["chain"])):
        raise InvalidDocument(ptr, "point needs a string label and a nonempty chain of object ids")
    for k, u in enumerate(raw["chain"]):
        if u not in objects:
            raise InvalidDocument(f"{ptr}/chain/{k}", f"unknown object {u!r}")
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


def _tower_doc(t: finsite.Tower) -> dict:
    return {
        "tower": {
            "levels": [_value_doc(x) for x in t.levels],
            "bonds": [_map_doc(b) for b in t.bonds],
        }
    }


def _level_morphism_doc(lm: finsite.LevelMorphism) -> dict:
    return {"shift": list(range(len(lm.components))),
            "components": [_map_doc(c) for c in lm.components]}


def _precosheaf_doc(a: finsite.Precosheaf) -> dict:
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


def _presheaf_doc(a: finsite.Presheaf) -> dict:
    return {
        "kind": "presheaf",
        "site": _site_doc(a.site),
        "category": a.category,
        "values": {u: _value_doc(v) for u, v in a.values.items()},
        "action": {m: _map_doc(f) for m, f in a.action.items()},
    }


def _natural(raw, ptr, what):
    """A non-negative JSON integer (no bool, no float)."""
    if type(raw) is not int or raw < 0:
        raise InvalidDocument(ptr, f"{what} must be a non-negative integer")
    return raw


def _int_matrix(raw, ptr) -> intmat.Matrix:
    """An array of equally long arrays of JSON integers (no bool, no float)."""
    if not (isinstance(raw, list) and all(isinstance(row, list) for row in raw)
            and len({len(row) for row in raw}) <= 1):
        raise InvalidDocument(ptr, "matrix must be an array of equally long integer rows")
    for i, row in enumerate(raw):
        for k, x in enumerate(row):
            if type(x) is not int:
                raise InvalidDocument(f"{ptr}/{i}/{k}", f"matrix entry {x!r} is not an integer")
    return intmat.freeze(raw)


def _value_from(raw, category, ptr):
    if category == FINSET:
        if not (isinstance(raw, list) and all(isinstance(x, str) for x in raw)):
            raise InvalidDocument(ptr, "finite-set value must be an array of strings")
        return FinSetObj(tuple(raw))
    if not isinstance(raw, dict) or "generators" not in raw:
        raise InvalidDocument(ptr, "abelian value needs generators and relations")
    gens = _natural(raw["generators"], ptr + "/generators", "generators")
    rels = _int_matrix(raw.get("relations", []), ptr + "/relations")
    if rels and len(rels) != gens:
        raise InvalidDocument(ptr + "/relations", "relations need one row per generator")
    return FinAbObj(gens, rels)


def _map_from(raw, src, dst, category, ptr):
    try:
        if category == FINSET:
            if not isinstance(raw, dict):
                raise InvalidDocument(ptr, "finite-set map must be a table")
            return values.finset_map(src, dst, raw)
        return values.finab_map(src, dst, _int_matrix(raw, ptr))
    except InvalidDocument:
        raise
    except Exception as exc:
        raise InvalidDocument(ptr, str(exc)) from exc


def _site_ref(doc, base: Path | None):
    """A document's site, inline or named by a path relative to `base`; an
    error inside it is reported under /site."""
    raw = site = doc.get("site")
    if isinstance(raw, str):
        site = _read_json(Path(raw) if base is None else base / raw, "/site")
        if not isinstance(site, dict) or site.get("kind") != "site":
            raise InvalidDocument("/site", "referenced document is not a site")
    elif not isinstance(raw, dict):
        raise InvalidDocument("/site", "site must be inline or a reference path")
    try:
        return _site_from(site)
    except InvalidDocument as exc:
        if site is raw:
            raise InvalidDocument("/site" + exc.pointer, exc.message) from exc
        raise InvalidDocument("/site", f"in {raw} at {exc.pointer}: {exc.message}") from exc


def _header(doc, base):
    """The parts every (pre)(co)sheaf document shares: its site, its category,
    and its values and action objects, with a value for every object and an
    action for every morphism."""
    site = _site_ref(doc, base)
    category = doc.get("category")
    if category not in (FINSET, FINAB):
        raise InvalidDocument("/category", f"unknown category {category!r}")
    for key in ("values", "action"):
        if not isinstance(doc.get(key, {}), dict):
            raise InvalidDocument(f"/{key}", f"{key} must be an object")
    vals_raw, action_raw = doc.get("values", {}), doc.get("action", {})
    for u in site.category.objects:
        if u not in vals_raw:
            raise InvalidDocument(f"/values/{u}", "missing value")
    for m in site.category.morphisms:
        if m.id not in action_raw:
            raise InvalidDocument(f"/action/{m.id}", "missing action")
    return site, category, vals_raw, action_raw


def _plain_tables(site, category, vals_raw, action_raw, reverse: bool):
    """Plain values and one map per morphism; presheaf actions (`reverse`)
    run from the value at the target to the value at the source."""
    objs = {u: _value_from(vals_raw[u], category, f"/values/{u}") for u in site.category.objects}
    action = {}
    for m in site.category.morphisms:
        src, dst = (objs[m.dst], objs[m.src]) if reverse else (objs[m.src], objs[m.dst])
        action[m.id] = _map_from(action_raw[m.id], src, dst, category, f"/action/{m.id}")
    return objs, action


def _precosheaf_from(doc, depth, base) -> finsite.Precosheaf:
    site, category, vals_raw, action_raw = _header(doc, base)
    if any(isinstance(v, dict) and "tower" in v for v in vals_raw.values()):
        return _tower_precosheaf_from(site, category, vals_raw, action_raw, doc)
    objs, action = _plain_tables(site, category, vals_raw, action_raw, reverse=False)
    depth = _natural(doc.get("depth", depth), "/depth", "depth")
    return finsite.precosheaf_from_tables(site, category, objs, action, depth, site.points)


def _tower_precosheaf_from(site, category, vals_raw, action_raw, doc) -> finsite.Precosheaf:
    towers = {}
    for u in site.category.objects:
        ptr = f"/values/{u}/tower"
        raw = vals_raw[u].get("tower") if isinstance(vals_raw[u], dict) else None
        if not (isinstance(raw, dict) and isinstance(raw.get("levels"), list) and raw["levels"]
                and isinstance(raw.get("bonds"), list)
                and len(raw["bonds"]) == len(raw["levels"]) - 1):
            raise InvalidDocument(ptr, "tower needs nonempty levels and one bond fewer")
        levels = tuple(_value_from(v, category, f"{ptr}/levels/{k}")
                       for k, v in enumerate(raw["levels"]))
        bonds = tuple(
            _map_from(b, levels[k + 1], levels[k], category, f"{ptr}/bonds/{k}")
            for k, b in enumerate(raw["bonds"])
        )
        towers[u] = finsite.Tower(levels, bonds)
    depth = _natural(doc.get("depth", next(iter(towers.values())).depth), "/depth", "depth")
    for u, t in towers.items():
        if t.depth != depth:
            raise InvalidDocument(f"/values/{u}/tower", f"tower needs {depth + 1} levels")
    strict = list(range(depth + 1))
    action = {}
    for m in site.category.morphisms:
        raw, ptr = action_raw[m.id], f"/action/{m.id}"
        if not (isinstance(raw, dict) and isinstance(raw.get("components"), list)
                and len(raw["components"]) == depth + 1):
            raise InvalidDocument(ptr, "level morphism needs one component per target level")
        # precosheaf actions are strict: the shift is written, but only as the identity
        if raw.get("shift") != strict or any(type(s) is not int for s in raw["shift"]):
            raise InvalidDocument(ptr + "/shift", f"shift must be the identity {strict}")
        comps = tuple(
            _map_from(c, towers[m.src].levels[j], towers[m.dst].levels[j],
                      category, f"{ptr}/components/{j}")
            for j, c in enumerate(raw["components"])
        )
        action[m.id] = finsite.LevelMorphism(towers[m.src], towers[m.dst], comps)
    return finsite.Precosheaf(site, category, depth, towers, action, site.points)


def _presheaf_from(doc, base) -> finsite.Presheaf:
    site, category, vals_raw, action_raw = _header(doc, base)
    objs, action = _plain_tables(site, category, vals_raw, action_raw, reverse=True)
    return finsite.Presheaf(site, category, objs, action, site.points)
