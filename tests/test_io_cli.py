"""Serialization round-trips and the command-line driver."""

import functools
import json
from pathlib import Path

import pytest

from finsite import io
from finsite.cli import main
from finsite.cosheaf import constant_precosheaf, cosheafify
from finsite.errors import InvalidDocument
from finsite.spaces import (converging_sequence_site, h0_precosheaf, open_site,
                            pi0_precosheaf, pseudocircle, site_points)
from finsite.values import finset, free_ab


@pytest.fixture()
def circle_site():
    return open_site(pseudocircle())


def test_minimal_site_round_trip(tmp_path):
    from finsite.category import Cover, Coverage, SiteSpec, poset_category
    cat = poset_category(["*"], [])
    spec = SiteSpec(cat, Coverage({"*": (Cover("*", ("*<*",), ()),)}),
                    name="terminal", poset=True)
    path = tmp_path / "site.json"
    io.save(spec, path)
    first = path.read_bytes()
    again = io.load(path)
    io.save(again, path)
    assert path.read_bytes() == first


def test_pseudocircle_round_trip_deep_equality(tmp_path, circle_site):
    path = tmp_path / "circle.json"
    io.save(circle_site, path)
    loaded = io.load(path)
    assert loaded.category.objects == circle_site.category.objects
    assert loaded.category.morphisms == circle_site.category.morphisms
    for u in circle_site.category.objects:
        assert [c.pieces for c in loaded.declared_covers(u)] == \
            [c.pieces for c in circle_site.declared_covers(u)]
    io.save(loaded, path)
    second = path.read_bytes()
    io.save(io.load(path), path)
    assert path.read_bytes() == second


def test_precosheaf_round_trip(tmp_path):
    space = pseudocircle()
    spec = open_site(space)
    pi0 = pi0_precosheaf(spec, space)
    path = tmp_path / "pi0.json"
    io.save(pi0, path)
    loaded = io.load(path, depth=0)
    for u in spec.category.objects:
        assert loaded.values[u].levels[0] == pi0.values[u].levels[0]
    io.save(loaded, path)
    first = path.read_bytes()
    io.save(io.load(path, depth=0), path)
    assert path.read_bytes() == first


def test_tower_precosheaf_round_trip(tmp_path):
    spec = converging_sequence_site(6)
    pt = constant_precosheaf(spec, finset("*"), 3, site_points(spec))
    res = cosheafify(pt, 3)
    path = tmp_path / "tower.json"
    io.save(res.precosheaf, path)
    loaded = io.load(path)
    for u in spec.category.objects:
        assert loaded.values[u].levels == res.precosheaf.values[u].levels
    io.save(loaded, path)
    first = path.read_bytes()
    io.save(io.load(path), path)
    assert path.read_bytes() == first


def test_dangling_reference_reports_pointer(tmp_path):
    doc = {
        "kind": "site", "name": "bad", "poset": True,
        "objects": ["a"], "leq": [],
        "covers": [{"target": "a", "pieces": ["zz"]}],
        "chains": [],
    }
    path = tmp_path / "bad.json"
    path.write_text(io.dumps(doc))
    with pytest.raises(InvalidDocument) as err:
        io.load(path)
    assert "/covers/0/pieces/0" in str(err.value)
    assert "zz" in str(err.value)


def test_unknown_kind_rejected(tmp_path):
    path = tmp_path / "odd.json"
    path.write_text(io.dumps({"kind": "mystery"}))
    with pytest.raises(InvalidDocument):
        io.load(path)


# ---------------------------------------------------------------------------
# CLI


def test_cli_demo_pi0_exit_zero(capsys):
    code = main(["demo", "pi0-pseudocircle"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["classification"] == "COSHEAF"


def test_cli_demo_unknown_exit_two(capsys):
    code = main(["demo", "missing-demo"])
    assert code == 2


def test_cli_demo_matches_all_expected(capsys):
    for name in ["pi0-pseudocircle", "pt-finite-space-smooth",
                 "constant-presheaf-sheafify"]:
        assert main(["demo", name]) == 0, name
        capsys.readouterr()


def test_cli_smooth_on_converging_pt_exit_one(tmp_path, capsys):
    spec = converging_sequence_site(8)
    pt = constant_precosheaf(spec, finset("*"), 6, site_points(spec))
    path = tmp_path / "pt.json"
    io.save(pt, path)
    code = main(["smooth", str(path), "--depth", "6"])
    out = capsys.readouterr().out
    assert code == 1
    report = json.loads(out)
    assert report["classification"] == "NOT-SMOOTH"
    assert any(w["object"] == "X" for w in report["witnesses"])


def test_cli_validate_broken_site_exit_and_witness(tmp_path, capsys):
    doc = {
        "kind": "site", "name": "broken", "poset": False,
        "objects": ["a"],
        "morphisms": [{"id": "id:a", "src": "a", "dst": "a"},
                      {"id": "f", "src": "a", "dst": "a"}],
        "identity": {"a": "id:a"},
        "composition": [["id:a", "id:a", "id:a"],
                        ["f", "id:a", "f"], ["id:a", "f", "f"]],  # (f, f) missing
        "covers": [{"target": "a", "pieces": ["id:a"]}],
        "chains": [],
    }
    path = tmp_path / "broken.json"
    path.write_text(io.dumps(doc))
    code = main(["validate", str(path)])
    out = capsys.readouterr().out
    assert code == 2
    report = json.loads(out)
    assert report["verdict"] == "INPUT-ERROR"
    assert "(f,f)" in report["witnesses"][0]  # names the offending pair


def test_cli_check_cosheaf_and_costalk(tmp_path, capsys):
    space = pseudocircle()
    spec = open_site(space)
    pi0 = pi0_precosheaf(spec, space)
    path = tmp_path / "pi0.json"
    io.save(pi0, path)
    assert main(["check-cosheaf", str(path)]) == 0
    capsys.readouterr()
    assert main(["costalk", str(path), "--point", "pt:a"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["classification"] == "RUDIMENTARY"


def test_cli_cosheafify_writes_output(tmp_path, capsys):
    spec = converging_sequence_site(6)
    pt = constant_precosheaf(spec, finset("*"), 3, site_points(spec))
    src = tmp_path / "pt.json"
    out_path = tmp_path / "out.json"
    io.save(pt, src)
    code = main(["cosheafify", str(src), "--depth", "3", "--out", str(out_path)])
    capsys.readouterr()
    assert code == 0
    reloaded = io.load(out_path)
    assert [len(l.elements) for l in reloaded.values["X"].levels] == [2, 3, 4, 5]


def test_cli_reports_deterministic(tmp_path, capsys):
    space = pseudocircle()
    spec = open_site(space)
    pi0 = pi0_precosheaf(spec, space)
    path = tmp_path / "pi0.json"
    io.save(pi0, path)
    main(["check-cosheaf", str(path)])
    first = capsys.readouterr().out
    main(["check-cosheaf", str(path)])
    second = capsys.readouterr().out
    assert first == second


def test_cli_oracle_suite_small(capsys):
    code = main(["oracle-suite", "--seed", "0", "--cases", "3"])
    out = capsys.readouterr().out
    assert code == 0, out


@pytest.mark.parametrize("argv", [
    ["oracle-suite", "--cases", "-1"],
    ["oracle-suite", "--cases", "x"],
    ["demo", "pt-converging", "--depth", "-1"],
    ["check-cosheaf", "doc.json", "--depth", "-2"],
    ["cosheafify", "doc.json", "--depth", "-1"],
    ["costalk", "doc.json", "--point", "pt:0", "--depth", "-1"],
    ["smooth", "doc.json", "--depth", "1.5"],
])
def test_cli_negative_or_non_integer_count_is_parse_error(capsys, argv):
    flag = argv[-2]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: must be a non-negative integer" in captured.err


def test_cli_check_sheaf_and_sheafify(tmp_path, capsys):
    from finsite.sheaf import Presheaf
    from finsite.values import finset_map, finset as mkset
    spec = open_site(pseudocircle())
    g = mkset("g0", "g1")
    vals = {u: g for u in spec.category.objects}
    action = {m.id: finset_map(g, g, {x: x for x in g.elements})
              for m in spec.category.morphisms}
    pre = Presheaf(spec, "finset", vals, action, site_points(spec))
    src = tmp_path / "const.json"
    out = tmp_path / "sheafified.json"
    io.save(pre, src)
    code = main(["check-sheaf", str(src)])
    report = json.loads(capsys.readouterr().out)
    assert code == 1 and report["classification"] == "NOT-SEPARATED"
    code = main(["sheafify", str(src), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    sheafified = io.load(out)
    assert len(sheafified.values["{a,b}"].elements) == 4  # two components


def _pi0_document(tmp_path):
    space = pseudocircle()
    spec = open_site(space)
    path = tmp_path / "pi0.json"
    io.save(pi0_precosheaf(spec, space), path)
    return json.loads(path.read_text())


def _check_cosheaf_input_error(tmp_path, capsys, doc):
    path = tmp_path / "mutated.json"
    path.write_text(io.dumps(doc))
    code = main(["check-cosheaf", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["verdict"] == "INPUT-ERROR"
    return report["witnesses"][0]


@pytest.mark.parametrize("bad", [7, "x", None, [], {"label": 1, "chain": ["{a}"]},
                                 {"label": "p", "chain": "a"}, {"label": "p", "chain": [3]},
                                 {"label": "p", "chain": []}])
def test_cli_malformed_point_is_input_error(tmp_path, capsys, bad):
    doc = _pi0_document(tmp_path)
    doc["site"]["points"] = [*doc["site"]["points"], bad]
    where = len(doc["site"]["points"]) - 1
    witness = _check_cosheaf_input_error(tmp_path, capsys, doc)
    assert witness.startswith(f"/site/points/{where}:")


@pytest.mark.parametrize("bad", [[], {}, 7, None])
def test_cli_non_string_cover_piece_is_input_error(tmp_path, capsys, bad):
    doc = _pi0_document(tmp_path)
    doc["site"]["covers"][1]["pieces"][0] = bad
    witness = _check_cosheaf_input_error(tmp_path, capsys, doc)
    assert witness.startswith("/site/covers/1/pieces/0:")


@pytest.mark.parametrize("bad", [7, [1], True, "x"])
def test_cli_malformed_intersections_is_input_error(tmp_path, capsys, bad):
    doc = _pi0_document(tmp_path)
    doc["site"]["covers"][1]["intersections"] = bad
    witness = _check_cosheaf_input_error(tmp_path, capsys, doc)
    assert witness.startswith("/site/covers/1/intersections")


@pytest.mark.parametrize("bad", ["x", None, [], {}, True, -1, 1.0])
def test_cli_malformed_generators_is_input_error(tmp_path, capsys, bad):
    space = pseudocircle()
    spec = open_site(space)
    path = tmp_path / "h0.json"
    io.save(h0_precosheaf(spec, space, free_ab(1)), path)
    doc = json.loads(path.read_text())
    u = sorted(doc["values"])[0]
    doc["values"][u]["generators"] = bad
    witness = _check_cosheaf_input_error(tmp_path, capsys, doc)
    assert witness.startswith(f"/values/{u}/generators:")


@pytest.mark.parametrize("bad", ["x", 7, [[1, "a"]], {"a": 1}, [[1.5]], [[True]], None])
def test_cli_malformed_relations_is_input_error(tmp_path, capsys, bad):
    space = pseudocircle()
    path = tmp_path / "h0.json"
    io.save(h0_precosheaf(open_site(space), space, free_ab(1)), path)
    doc = json.loads(path.read_text())
    u = sorted(doc["values"])[0]
    doc["values"][u]["relations"] = bad
    witness = _check_cosheaf_input_error(tmp_path, capsys, doc)
    assert witness.startswith(f"/values/{u}/relations")


@functools.lru_cache(maxsize=None)
def _tower_document_text():
    spec = converging_sequence_site(6)
    pt = constant_precosheaf(spec, finset("*"), 3, site_points(spec))
    return io.dumps(io.to_document(cosheafify(pt, 3).precosheaf))


@pytest.mark.parametrize("bad", [7, {"levels": []}, {"levels": [["a"]], "bonds": [{}]}])
def test_cli_malformed_tower_value_is_input_error(tmp_path, capsys, bad):
    doc = json.loads(_tower_document_text())
    doc["values"]["X"] = {"tower": bad}
    witness = _check_cosheaf_input_error(tmp_path, capsys, doc)
    assert witness.startswith("/values/X/tower:")


@pytest.mark.parametrize("bad", [7, {"shift": "x", "components": []}, {"components": []},
                                 {"shift": [0, 1, 2, 3.0], "components": [{}, {}, {}, {}]},
                                 {"shift": [0, 1, 2, 9], "components": [{}, {}, {}, {}]}])
def test_cli_malformed_tower_action_is_input_error(tmp_path, capsys, bad):
    doc = json.loads(_tower_document_text())
    doc["action"]["S1<X"] = bad
    witness = _check_cosheaf_input_error(tmp_path, capsys, doc)
    assert witness.startswith("/action/S1<X")


@pytest.mark.parametrize("tower", [False, True])
@pytest.mark.parametrize("bad", ["x", [1], None, 1.5, True, -1])
def test_cli_malformed_depth_is_input_error(tmp_path, capsys, bad, tower):
    doc = json.loads(_tower_document_text()) if tower else _pi0_document(tmp_path)
    doc["depth"] = bad
    witness = _check_cosheaf_input_error(tmp_path, capsys, doc)
    assert witness.startswith("/depth:")


@pytest.mark.parametrize("key", ["values", "action"])
def test_cli_non_object_tables_are_input_errors(tmp_path, capsys, key):
    doc = _pi0_document(tmp_path)
    doc[key] = 7
    witness = _check_cosheaf_input_error(tmp_path, capsys, doc)
    assert witness.startswith(f"/{key}:")


def test_cli_non_string_set_element_is_input_error(tmp_path, capsys):
    doc = _pi0_document(tmp_path)
    u = sorted(doc["values"])[0]
    doc["values"][u] = [[]]
    witness = _check_cosheaf_input_error(tmp_path, capsys, doc)
    assert witness.startswith(f"/values/{u}:")


@functools.lru_cache(maxsize=None)
def _chain_document_text():
    spec = converging_sequence_site(4)
    return io.dumps(io.to_document(constant_precosheaf(spec, finset("*"), 2, site_points(spec))))


@pytest.mark.parametrize("path,bad", [
    (("chains",), 7), (("chains",), "x"), (("chains", 0), 7), (("chains", 0), "x"),
    (("chains", 0, "covers"), 7), (("chains", 0, "covers", 1), 7),
    (("chains", 0, "covers", 1, "pieces"), 7), (("chains", 0, "refinements"), 7),
    (("chains", 0, "refinements"), "x"), (("chains", 0, "refinements", 0), 7),
    (("chains", 0, "refinements", 0), "x"), (("chains", 0, "refinements", 0, 1), 7),
    (("chains", 0, "refinements", 0, 1), "x"), (("chains", 0, "refinements", 0, 1), [0]),
    (("chains", 0, "refinements", 0, 1, 0), None), (("chains", 0, "refinements", 0, 1, 0), "x"),
    (("chains", 0, "refinements", 0, 1, 0), 1.5), (("chains", 0, "refinements", 0, 1, 0), True),
    (("covers",), 7), (("covers",), "x"), (("covers", 0, "pieces"), 7), (("leq",), 7),
    (("leq",), {}),
])
def test_cli_malformed_site_part_is_input_error(tmp_path, capsys, path, bad):
    doc = json.loads(_chain_document_text())
    node = doc["site"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = bad
    witness = _check_cosheaf_input_error(tmp_path, capsys, doc)
    assert witness.startswith("/site" + "".join(f"/{key}" for key in path) + ":")


DATA = Path(__file__).parent / "data"


def test_site_reference_by_relative_path_gives_the_inline_report(tmp_path, capsys):
    """tests/data/pi0_by_site_reference.json is π₀ of the pseudocircle with
    its site named by a path relative to the document."""
    inline = tmp_path / "pi0.json"
    space = pseudocircle()
    io.save(pi0_precosheaf(open_site(space), space), inline)
    assert main(["check-cosheaf", str(inline)]) == 0
    expected = capsys.readouterr().out
    assert main(["check-cosheaf", str(DATA / "pi0_by_site_reference.json")]) == 0
    assert capsys.readouterr().out == expected
    assert io.load(DATA / "pi0_by_site_reference.json").site == io.load(
        DATA / "pseudocircle_site.json")


@pytest.mark.parametrize("target", ["self", "missing", "precosheaf", "report", "array",
                                    "not JSON", "not UTF-8"])
def test_site_reference_to_anything_but_a_site_is_input_error_at_site(tmp_path, capsys,
                                                                        target):
    doc = json.loads((DATA / "pi0_by_site_reference.json").read_text(encoding="utf-8"))
    path = tmp_path / "doc.json"
    referenced = {"self": "doc.json", "missing": "nowhere.json"}.get(target, "ref.json")
    doc["site"] = referenced
    path.write_text(io.dumps(doc))
    contents = {"precosheaf": io.dumps(doc).encode(), "array": b"[]", "not JSON": b"{",
                "report": io.dumps({"kind": "report"}).encode(), "not UTF-8": b"\xff{"}
    if target in contents:
        (tmp_path / referenced).write_bytes(contents[target])
    assert main(["check-cosheaf", str(path)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "INPUT-ERROR"
    assert report["witnesses"][0].startswith("/site:")


def test_document_that_is_not_utf8_is_input_error(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_bytes(b"\xff\xfe{")
    assert main(["check-cosheaf", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["witnesses"][0].startswith("/: unreadable file")


def test_cli_costalk_on_abelian_values(tmp_path, capsys):
    spec = converging_sequence_site(6)
    path = tmp_path / "z.json"
    io.save(constant_precosheaf(spec, free_ab(1), 4, site_points(spec)), path)
    assert main(["costalk", str(path), "--point", "pt:0", "--depth", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["classification"] == "RUDIMENTARY"
    assert report["trace"] == [f"level {k}: invariants [] free 1" for k in range(5)]


@pytest.mark.parametrize("command", [["cosheafify"], ["costalk", "--point", "pt:0"]])
def test_cli_reports_the_depth_it_computes_at(capsys, command):
    """tests/data/pt_plus_converging3.json is the `cosheafify --out` document
    of the constant point on converging_sequence_site(3) at depth 2: a
    tower-valued document keeps its depth, so --depth 7 works at depth 2."""
    doc = DATA / "pt_plus_converging3.json"
    assert io.load(doc, depth=7).depth == 2
    assert main([command[0], str(doc), *command[1:], "--depth", "7"]) == 0
    assert json.loads(capsys.readouterr().out)["depth"] == 2


def _bad_site_document():
    return {"kind": "site", "name": "bad", "poset": True, "objects": ["a"], "leq": [],
            "covers": [{"target": "a", "pieces": ["zz"]}], "chains": []}


def test_cli_error_in_a_referenced_site_is_at_site_and_names_it(tmp_path, capsys):
    doc = json.loads((DATA / "pi0_by_site_reference.json").read_text(encoding="utf-8"))
    doc["site"] = "bad_site.json"
    (tmp_path / "bad_site.json").write_text(io.dumps(_bad_site_document()))
    path = tmp_path / "doc.json"
    path.write_text(io.dumps(doc))
    assert main(["check-cosheaf", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["witnesses"] == [
        "/site: in bad_site.json at /covers/0/pieces/0: unknown morphism or object 'zz'"]
    # the site document on its own keeps its own pointers
    assert main(["validate", str(tmp_path / "bad_site.json")]) == 2
    assert json.loads(capsys.readouterr().out)["witnesses"] == [
        "/covers/0/pieces/0: unknown morphism or object 'zz'"]


def test_cli_error_in_an_inline_site_is_under_site(tmp_path, capsys):
    doc = _pi0_document(tmp_path)
    doc["site"] = _bad_site_document()
    witness = _check_cosheaf_input_error(tmp_path, capsys, doc)
    assert witness == "/site/covers/0/pieces/0: unknown morphism or object 'zz'"


@pytest.mark.parametrize("command", ["validate", "check-cosheaf", "costalk"])
def test_declared_point_with_unknown_object_is_input_error_at_its_pointer(tmp_path, capsys,
                                                                          command):
    doc = _pi0_document(tmp_path)
    site = doc["site"]
    site["points"] = [*site["points"], {"label": "p", "chain": [site["objects"][0], "zz"]}]
    where = f"/points/{len(site['points']) - 1}/chain/1"
    path = tmp_path / "doc.json"
    if command == "validate":
        path.write_text(io.dumps(site))
        argv = ["validate", str(path)]
    else:
        path.write_text(io.dumps(doc))
        where = "/site" + where
        argv = [command, str(path)] + (["--point", "p"] if command == "costalk" else [])
    assert main(argv) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "INPUT-ERROR"
    assert report["witnesses"] == [f"{where}: unknown object 'zz'"]


def _one_object_site(**changes):
    doc = {"kind": "site", "name": "one", "poset": False, "objects": ["a"],
           "morphisms": [{"id": "id:a", "src": "a", "dst": "a"}], "identity": {"a": "id:a"},
           "composition": [["id:a", "id:a", "id:a"]], "covers": [], "chains": []}
    return {**doc, **changes}


@pytest.mark.parametrize("site,witness", [
    (_one_object_site(morphisms=[{"id": "id:a", "src": "a", "dst": "a"}] * 2),
     "/morphisms: duplicate morphism id 'id:a'"),
    (_one_object_site(identity={}), "/identity: object 'a' lacks an identity morphism"),
    (_one_object_site(chains=[{"target": "a", "covers": []}]), "/chains/0: empty cover chain"),
    (_one_object_site(chains=[{"target": "a", "covers": [{"target": "a", "pieces": ["id:a"]}] * 2}]),
     "/chains/0: chain must record one refinement per consecutive pair"),
    (_one_object_site(poset=True, objects=["a", "b"], leq=[["a", "b"], ["b", "a"]]),
     "/leq: antisymmetry fails on 'a', 'b'"),
], ids=["duplicate id", "identity", "empty chain", "refinements", "antisymmetry"])
def test_site_constructor_errors_are_reported_at_a_pointer(tmp_path, capsys, site, witness):
    path = tmp_path / "site.json"
    path.write_text(io.dumps(site))
    assert main(["validate", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["witnesses"] == [witness]



@pytest.mark.parametrize("site,witness", [
    (_one_object_site(objects=["a", ["x"]]), "/objects/1: object id must be a string"),
    (_one_object_site(poset=True, objects=[7]), "/objects/0: object id must be a string"),
    (_one_object_site(morphisms=[{"id": ["x"], "src": "a", "dst": "a"}]),
     "/morphisms/0: morphism id must be a string"),
    (_one_object_site(identity={"a": ["id:a"]}), "/identity/a: morphism id must be a string"),
    (_one_object_site(composition=[[["x"], "id:a", "id:a"]]),
     "/composition/0: morphism id must be a string"),
    (_one_object_site(composition=[["id:a", "id:a", 7]]),
     "/composition/0: morphism id must be a string"),
], ids=["object", "poset object", "morphism id", "identity", "composition", "composite"])
def test_non_string_ids_are_input_errors_at_a_pointer(tmp_path, capsys, site, witness):
    path = tmp_path / "site.json"
    path.write_text(io.dumps(site))
    assert main(["validate", str(path)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "INPUT-ERROR"
    assert report["witnesses"] == [witness]
