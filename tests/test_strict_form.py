"""Tower-morphism verdicts decide on the truncation at their working depth,
and a report fails exactly when it carries a witness.

`is_iso_at_depth` and `is_epi_at_depth` decide on the level morphism
truncated at the least of the requested depth and both tower depths.  So
their verdicts at depth d are the verdicts on its truncation at d, whatever
the tower depths."""

import json
import random
from pathlib import Path

import pytest

from finsite.cli import main
from finsite.report import CheckReport
from finsite.towers import (LevelMorphism, Tower, equal_at_depth, is_epi_at_depth,
                            is_iso_at_depth, pro_hom_at_depth)
from finsite.values import FinAbMap, commutes, cyclic, finset, finset_map, free_ab, hom_set

DATA = Path(__file__).resolve().parent / "data"
Z = free_ab(1)
GROUPS = (Z, cyclic(2), cyclic(3), cyclic(4), cyclic(6))


def _homs(src, dst):
    """Every map src -> dst between finite sets; the maps by the scalars
    0..5 that are well defined between rank-one groups."""
    if hasattr(src, "elements"):
        return hom_set(src, dst)
    maps = (FinAbMap(src, dst, ((k,),)) for k in range(6))
    return [f for f in maps if f.is_well_defined()]


def _random_tower(rng, finab, depth):
    if finab:
        levels = [rng.choice(GROUPS) for _ in range(depth + 1)]
    else:
        levels = [finset(*map(str, range(rng.randint(1, 3)))) for _ in range(depth + 1)]
    bonds = [rng.choice(_homs(levels[k + 1], levels[k])) for k in range(depth)]
    return Tower(tuple(levels), tuple(bonds))


def _random_morphism(rng, x, y):
    """A level morphism x -> y, its components drawn level by level among
    those that close the square below; None when no component does."""
    comps = [rng.choice(_homs(x.levels[0], y.levels[0]))]
    for j in range(y.depth):
        fits = [g for g in _homs(x.levels[j + 1], y.levels[j + 1])
                if commutes(comps[j], x.bonds[j], y.bonds[j], g)]
        if not fits:
            return None
        comps.append(rng.choice(fits))
    return LevelMorphism(x, y, tuple(comps))


def _cut(t, d):
    return Tower(t.levels[: d + 1], t.bonds[:d])


def _truncation(f, d):
    """f cut at level d by hand."""
    return LevelMorphism(_cut(f.src, d), _cut(f.dst, d), f.components[: d + 1])


@pytest.mark.parametrize("finab", [False, True], ids=["finset", "finab"])
def test_verdicts_at_depth_are_the_verdicts_on_the_truncation(finab):
    rng = random.Random(18)
    pairs, seen = 0, set()
    while pairs < 1000:
        depth = rng.randint(1, 4)
        x = _random_tower(rng, finab, depth)
        y = x if rng.random() < 0.3 else _random_tower(rng, finab, depth)
        f = _random_morphism(rng, x, y)
        if f is None:
            continue
        for d in range(depth + 1):
            t = _truncation(f, d)
            iso, epi = is_iso_at_depth(f, d), is_epi_at_depth(f, d)
            assert iso == is_iso_at_depth(t), (pairs, d)
            assert epi == is_epi_at_depth(t), (pairs, d)
            seen.add((iso.iso, epi.epi))
            pairs += 1
    # an iso is epi, and both failures occur
    assert seen == {(True, True), (False, True), (False, False)}


def test_depth_below_the_source_depth_reads_the_levels_at_that_depth():
    levels = tuple(finset(f"a{k}", f"b{k}") for k in range(3))
    bonds = tuple(finset_map(levels[k + 1], levels[k], {f"a{k + 1}": f"a{k}", f"b{k + 1}": f"b{k}"})
                  for k in range(2))
    ident = LevelMorphism.identity(Tower(levels, bonds))
    for d in range(3):
        assert is_iso_at_depth(ident, d).iso and is_epi_at_depth(ident, d).epi


def test_classes_out_of_the_deepest_level_are_iso_exactly_when_bijective():
    x = Tower.constant(finset("a", "b"), 3)
    classes = pro_hom_at_depth(x, x, 3)
    assert all(h.src == x.reindexed((3,) * 4) for h in classes)
    bijective = [len({h.components[3](e) for e in "ab"}) == 2 for h in classes]
    assert sum(bijective) == 2   # the identity and the swap
    assert sum(equal_at_depth(h, LevelMorphism.identity(h.src)) for h in classes) == 1
    for h, bij in zip(classes, bijective):
        assert is_iso_at_depth(h).iso == bij
        assert is_epi_at_depth(h).epi == bij


@pytest.mark.parametrize("finab", [False, True], ids=["finset", "finab"])
def test_a_deeper_source_leaves_the_working_depth_at_the_target(finab):
    rng = random.Random(7)
    cases = 0
    while cases < 200:
        low, high = sorted(rng.sample(range(5), 2))
        x, y = _random_tower(rng, finab, high), _random_tower(rng, finab, low)
        f = _random_morphism(rng, x, y)
        if f is None:
            continue
        assert is_iso_at_depth(f) == is_iso_at_depth(f, low) == is_iso_at_depth(f, high)
        assert is_epi_at_depth(f) == is_epi_at_depth(f, low)
        assert is_iso_at_depth(f).depth == low
        cases += 1


def test_check_cosheaf_below_the_document_depth_decides_on_the_truncation(capsys):
    """One object with its trivial cover, valued in Z <-2- Z <-2- Z: the
    identity action is an isomorphism at every depth."""
    doc = str(DATA / "doubling_tower.json")
    for depth in ("0", "1", "2", "6"):
        assert main(["check-cosheaf", doc, "--depth", depth]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["verdict"], report["classification"]) == ("PASS", "COSHEAF")


def test_a_report_fails_exactly_when_it_carries_a_witness():
    assert CheckReport().verdict == "PASS" and CheckReport(witnesses=()).passed
    assert CheckReport(depth=3).rendered_verdict() == "PASS-AT-DEPTH(3)"
    for witnesses in (("w",), ({"object": "u"},), ("a", "b")):
        report = CheckReport(depth=3, witnesses=witnesses)
        assert report.verdict == "FAIL" and not report.passed
        assert report.rendered_verdict() == "FAIL"
        assert report.to_json()["verdict"] == "FAIL"
    with pytest.raises(TypeError):
        CheckReport(verdict="PASS")
