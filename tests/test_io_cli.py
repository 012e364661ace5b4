"""Serialization round-trips and the command-line driver."""

import json

import pytest

from finsite import io
from finsite.cli import main
from finsite.cosheaf import constant_precosheaf, cosheafify
from finsite.errors import InvalidDocument
from finsite.spaces import (converging_sequence_site, open_site, pi0_precosheaf,
                            pseudocircle, site_points)
from finsite.values import finset


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
    assert witness.startswith(f"/points/{where}:")


@pytest.mark.parametrize("bad", [[], {}, 7, None])
def test_cli_non_string_cover_piece_is_input_error(tmp_path, capsys, bad):
    doc = _pi0_document(tmp_path)
    doc["site"]["covers"][1]["pieces"][0] = bad
    witness = _check_cosheaf_input_error(tmp_path, capsys, doc)
    assert witness.startswith("/covers/1/pieces/0:")
