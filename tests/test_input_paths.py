"""Each input fact reaches the engine by one path: strict tower actions in
documents, points declared on the site, one order closure, and the verdicts
that read only what they need."""

import dataclasses
import functools
import json
import pickle
import random

import pytest

import finsite
from finsite import cosheaf, io
from finsite.category import (CoverChain, Coverage, SiteSpec, order_closure,
                              poset_category, validate_site)
from finsite.cli import main
from finsite.cosheaf import constant_precosheaf, cosheafify, is_smooth
from finsite.errors import EngineError, InvalidCategory
from finsite.spaces import (FiniteSpace, converging_sequence_site, open_site, pseudocircle,
                            site_points)
from finsite.values import finset, free_ab


@functools.lru_cache(maxsize=None)
def _tower_document_text():
    spec = converging_sequence_site(6)
    pt = constant_precosheaf(spec, finset("*"), 3, site_points(spec))
    return io.dumps(io.to_document(cosheafify(pt, 3).precosheaf))


def test_written_tower_actions_carry_the_identity_shift():
    doc = json.loads(_tower_document_text())
    assert {tuple(a["shift"]) for a in doc["action"].values()} == {(0, 1, 2, 3)}


@pytest.mark.parametrize("morphism", ["X<X", "S1<X"])
@pytest.mark.parametrize("shift", [[0, 0, 1, 2], [0, 1, 2, 2], [1, 1, 2, 3], [0, 1, 2],
                                   [0, 1, 2, 3, 3], [0, True, 2, 3], [0, 1, 2, 3.0], "x", None])
def test_non_identity_shift_is_input_error_at_the_shift(tmp_path, capsys, morphism, shift):
    doc = json.loads(_tower_document_text())
    doc["action"][morphism]["shift"] = shift
    path = tmp_path / "shifted.json"
    path.write_text(io.dumps(doc))
    assert main(["check-cosheaf", str(path), "--depth", "3"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "INPUT-ERROR"
    assert report["witnesses"][0].startswith(f"/action/{morphism}/shift:")


def test_tower_of_the_wrong_depth_is_input_error_at_the_value(tmp_path, capsys):
    doc = json.loads(_tower_document_text())
    tower = doc["values"]["S1"]["tower"]
    tower["levels"], tower["bonds"] = tower["levels"][:2], tower["bonds"][:1]
    path = tmp_path / "short.json"
    path.write_text(io.dumps(doc))
    assert main(["check-cosheaf", str(path), "--depth", "3"]) == 2
    assert json.loads(capsys.readouterr().out)["witnesses"][0].startswith("/values/S1/tower:")


def _sites_with_points():
    return [converging_sequence_site(4), open_site(pseudocircle()),
            open_site(pseudocircle(), "generated")]


@pytest.mark.parametrize("index", range(3))
def test_site_points_survive_save_load_and_pickling(tmp_path, index):
    spec = _sites_with_points()[index]
    assert spec.points and site_points(spec) is spec.points
    path = tmp_path / "site.json"
    io.save(spec, path)
    first = path.read_bytes()
    loaded = io.load(path)
    assert loaded.points == spec.points
    io.save(loaded, path)
    assert path.read_bytes() == first
    assert pickle.loads(pickle.dumps(spec)).points == spec.points


def test_sites_that_differ_only_in_their_points_are_equal():
    spec = converging_sequence_site(4)
    bare = dataclasses.replace(spec, points=())
    assert bare.points == () and bare == spec
    assert dataclasses.replace(spec, points=spec.points[:1]) == spec


def test_point_filter_keeps_its_import_paths():
    from finsite.cosheaf import PointFilter as from_cosheaf
    from finsite.category import PointFilter as from_category
    assert finsite.PointFilter is from_cosheaf is from_category


def _fixpoint_closure(elements, pairs):
    """The closure as a plain fixpoint loop, kept here as the oracle."""
    rel = set(pairs) | {(a, a) for a in elements}
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return rel


def test_order_closure_matches_the_fixpoint_loop():
    rng = random.Random(7)
    for _ in range(1500):
        names = [f"p{i}" for i in range(rng.randint(1, 8))]
        elements = rng.sample(names, rng.randint(0, len(names)))  # others only in pairs
        pairs = [(rng.choice(names), rng.choice(names)) for _ in range(rng.randint(0, 12))]
        assert order_closure(elements, pairs) == _fixpoint_closure(elements, pairs)


def test_antisymmetry_errors_keep_their_messages():
    with pytest.raises(InvalidCategory, match=r"^antisymmetry fails on 'a', 'b'$"):
        poset_category(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    with pytest.raises(EngineError, match=r"^specialization order not antisymmetric on 'a','b'$"):
        FiniteSpace(("a", "b", "c"), frozenset({("a", "b"), ("b", "c"), ("c", "a")}))


def test_unknown_endpoint_named_only_in_pairs_is_still_reported():
    with pytest.raises(InvalidCategory, match=r"morphism 'a<z' has unknown endpoint"):
        poset_category(["a", "b"], [("a", "b"), ("b", "z")])


@pytest.mark.parametrize("value", [finset("*"), free_ab(1)])
def test_is_smooth_builds_no_postcondition_report(monkeypatch, value):
    calls = []
    original = cosheaf.check_cosheaf
    monkeypatch.setattr(cosheaf, "check_cosheaf",
                        lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs))
    spec = converging_sequence_site(6)
    report = is_smooth(constant_precosheaf(spec, value, 4, site_points(spec)), 4)
    assert report.classification == "NOT-SMOOTH"
    assert calls == []


def _with_chain(spec, target, chain):
    chains = {**spec.coverage.chains, target: chain}
    return SiteSpec(spec.category, Coverage(spec.coverage.covers, chains), name=spec.name,
                    poset=spec.poset, points=spec.points)


def test_axiom_a_passes_when_only_a_chain_refinement_is_wrong():
    spec = converging_sequence_site(4)
    chain = spec.chain_of("X")
    broken = _with_chain(spec, "X", CoverChain("X", chain.covers, ((),) + chain.refinements[1:]))
    report = validate_site(broken)
    assert report.verdict == "FAIL"
    assert "chain of 'X': refinement 0 has wrong length" in report.witnesses
    assert "coverage well-formedness: fail" in report.trace
    assert "axiom (a) trivial cover dominated: pass" in report.trace


def test_uncovered_object_fails_axiom_a_with_one_witness():
    spec = converging_sequence_site(4)
    covers = {u: cs for u, cs in spec.coverage.covers.items() if u != "S2"}
    bare = SiteSpec(spec.category, Coverage(covers, spec.coverage.chains), poset=True)
    report = validate_site(bare)
    assert report.verdict == "FAIL"
    assert [w for w in report.witnesses if "'S2'" in w and "cover" in w] == \
        ["object 'S2' has no cover"]
    assert "axiom (a) trivial cover dominated: fail" in report.trace
