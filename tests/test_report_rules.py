"""The two report rules, each stated once in `CheckReport`: a verdict on a
site is depth-qualified exactly when the site has cover chains, and the
double plus is certified by its postconditions.  Also the bound on the
declared covers of an open and the point lookup through the site."""

import json

import pytest

from finsite import io, spaces
from finsite.category import validate_site
from finsite.cli import main
from finsite.cosheaf import (Precosheaf, check_cosheaf, constant_precosheaf, cosheafify,
                             identity_morphism, is_locally_zero, is_smooth,
                             strong_local_iso_check)
from finsite.errors import SiteError
from finsite.report import CheckReport
from finsite.sheaf import Presheaf, check_sheaf, sheafify
from finsite.spaces import (FiniteSpace, converging_sequence_site, open_site, pseudocircle,
                            site_points)
from finsite.towers import LevelMorphism, Tower
from finsite.values import FINSET, finset, finset_map, free_ab, identity_map

DEPTH = 3
# (site, the depth a report on it carries)
SITES = [
    pytest.param(converging_sequence_site(4), DEPTH, id="converging4"),
    pytest.param(open_site(pseudocircle()), None, id="pseudocircle"),
]


def _point(site, depth=DEPTH):
    return constant_precosheaf(site, finset("*"), depth, site_points(site))


def _presheaf(site):
    two = finset("x", "y")
    return Presheaf(site, FINSET, {u: two for u in site.category.objects},
                    {m.id: identity_map(two) for m in site.category.morphisms}, site_points(site))


def _tower_valued(site, depth=DEPTH):
    """Identity actions on a tower whose levels shrink from two points to one."""
    two, one = finset("a", "b"), finset("*")
    levels = (one,) + (two,) * depth
    bonds = (finset_map(two, one, {"a": "*", "b": "*"}),) + (identity_map(two),) * (depth - 1)
    t = Tower(levels, bonds)
    return Precosheaf(site, FINSET, depth, {u: t for u in site.category.objects},
                      {m.id: LevelMorphism.identity(t) for m in site.category.morphisms},
                      site_points(site))


@pytest.mark.parametrize("site,expected", SITES)
def test_site_builders_carry_depth_exactly_on_chain_sites(site, expected):
    pt = _point(site)
    pts = site_points(site)
    reports = {
        "validate_site": validate_site(site, DEPTH),
        "check_cosheaf": check_cosheaf(pt, DEPTH),
        "check_sheaf": check_sheaf(_presheaf(site), DEPTH),
        "is_smooth": is_smooth(pt, DEPTH),
        "is_smooth tower-valued": is_smooth(_tower_valued(site), DEPTH),
        "strong_local_iso_check": strong_local_iso_check(identity_morphism(pt), pts, DEPTH),
        "is_locally_zero": is_locally_zero(
            constant_precosheaf(site, free_ab(1), DEPTH, pts), pts, DEPTH),
        "cosheafify": cosheafify(pt, DEPTH).report,
        "sheafify": sheafify(_presheaf(site), DEPTH).report,
    }
    assert reports["is_smooth tower-valued"].trace == (
        "tower-valued input: smooth by construction (trivial pass)",)
    assert {name: r.depth for name, r in reports.items()} == dict.fromkeys(reports, expected)


@pytest.mark.parametrize("site,expected", SITES)
def test_cli_costalk_carries_depth_exactly_on_chain_sites(tmp_path, capsys, site, expected):
    path = tmp_path / "pt.json"
    io.save(_point(site), path)
    label = site_points(site)[0].label
    assert main(["costalk", str(path), "--point", label, "--depth", str(DEPTH)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["depth"] == expected


def _report(classification, *witnesses, depth=4):
    return CheckReport(depth, classification, witnesses)


def test_passing_postconditions_carry_no_witness():
    r1 = _report("COSEPARATED", "ignored")
    r = CheckReport.postconditions("coreflection postconditions", r1, _report("COSHEAF"),
                                   ("COSEPARATED", "COSHEAF"), "COSHEAF")
    assert r.passed and r.witnesses == ()
    assert r.depth == 4 and r.classification == "coreflection postconditions"
    assert r.trace == ("single plus classification: COSEPARATED",
                       "double plus classification: COSHEAF")


def test_failing_postconditions_carry_both_checks_witnesses_in_order():
    r1 = _report("NOT-SEPARATED", "w1", "w2", depth=None)
    r2 = _report("SEPARATED", "w3")
    r = CheckReport.postconditions("reflection postconditions", r1, r2, ("SEPARATED", "SHEAF"),
                                   "SHEAF")
    assert r.witnesses == ("w1", "w2", "w3")
    assert r.depth is None
    assert r.trace == ("single plus classification: NOT-SEPARATED",
                       "double plus classification: SEPARATED")


def test_failing_postconditions_without_witnesses_say_so():
    r = CheckReport.postconditions("reflection postconditions", _report("SHEAF"),
                                   _report("SEPARATED"), ("SEPARATED", "SHEAF"), "SHEAF")
    assert r.witnesses == ("postcondition failed",)
    assert r.verdict == "FAIL"


def test_reports_store_witnesses_and_trace_as_tuples():
    r = CheckReport(classification="c", witnesses=[{"a": 1}], trace=["one", "two"])
    assert r.witnesses == ({"a": 1},) and r.trace == ("one", "two")
    r = CheckReport.on(converging_sequence_site(4), 2, "c", ["w"], (line for line in ["t"]))
    assert (r.depth, r.witnesses, r.trace) == (2, ("w",), ("t",))


def test_cover_bound_refuses_an_open_with_too_many_covers(monkeypatch):
    # the 4-point antichain's top open has 114 irredundant covers
    antichain = FiniteSpace(tuple("abcd"), frozenset())
    assert open_site(antichain, "all-irredundant").declared_covers("{a,b,c,d}")
    monkeypatch.setattr(spaces, "MAX_COVERS", 100)
    with pytest.raises(SiteError, match="cover bound"):
        open_site(antichain, "all-irredundant")


def test_cover_bound_admits_the_sites_built_elsewhere():
    # the 8-point fence's largest open, the largest any site here declares
    assert spaces.MAX_COVERS >= 36_555
    antichain = FiniteSpace(tuple("abcde"), frozenset())
    site = open_site(antichain, "all-irredundant")
    assert sum(len(site.declared_covers(u)) for u in site.category.objects) == 7_581


def test_point_filter_reads_the_sites_points():
    site = converging_sequence_site(4)
    a = constant_precosheaf(site, finset("*"), 2)
    assert a.points == ()
    assert a.point_filter("pt:0") == next(p for p in site.points if p.label == "pt:0")
