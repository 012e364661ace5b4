"""Tower-morphism verdicts decide on one strict form at their working depth,
and a report fails exactly when it carries a witness.

A level morphism with a shift is isomorphic, as a map of pro-objects, to a
strict one once its source is reindexed.  `is_iso_at_depth` and
`is_epi_at_depth` decide on that strict form, truncated at the least of the
requested depth and both tower depths.  So on a strict morphism their
verdicts at depth d are the verdicts on its truncation at d, whatever the
tower depths, and a forward shift neither raises nor hides an iso."""

import json
import random
from pathlib import Path

import pytest

from finsite.cli import main
from finsite.report import CheckReport
from finsite.towers import (LevelMorphism, Tower, equal_at_depth, is_epi_at_depth,
                            is_iso_at_depth, pro_hom_at_depth)
from finsite.values import (FinAbMap, commutes, compose, cyclic, finset, finset_map, free_ab,
                            hom_set)

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


def _random_morphism(rng, x, y, shift):
    """A level morphism x -> y with the given shift, its components drawn
    level by level among those that close the square below; None when no
    component does."""
    comps = [rng.choice(_homs(x.levels[shift[0]], y.levels[0]))]
    for j in range(y.depth):
        down = x.bond_composite(shift[j + 1], shift[j])
        fits = [g for g in _homs(x.levels[shift[j + 1]], y.levels[j + 1])
                if commutes(comps[j], down, y.bonds[j], g)]
        if not fits:
            return None
        comps.append(rng.choice(fits))
    return LevelMorphism(x, y, tuple(shift), tuple(comps))


def _cut(t, d):
    return Tower(t.levels[: d + 1], t.bonds[:d])


def _truncation(f, d):
    """A strict f cut at level d by hand."""
    return LevelMorphism.strict(_cut(f.src, d), _cut(f.dst, d), f.components[: d + 1])


@pytest.mark.parametrize("finab", [False, True], ids=["finset", "finab"])
def test_verdicts_at_depth_are_the_verdicts_on_the_truncation(finab):
    rng = random.Random(18)
    pairs, seen = 0, set()
    while pairs < 1000:
        depth = rng.randint(1, 4)
        x = _random_tower(rng, finab, depth)
        y = x if rng.random() < 0.3 else _random_tower(rng, finab, depth)
        f = _random_morphism(rng, x, y, range(depth + 1))
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


def test_forward_shifted_classes_of_bijections_are_iso():
    x = Tower.constant(finset("a", "b"), 3)
    classes = pro_hom_at_depth(x, x, 3)
    assert all(h.shift == (3, 3, 3, 3) for h in classes)
    bijective = [len({h.components[3](e) for e in "ab"}) == 2 for h in classes]
    assert sum(bijective) == 2   # the identity and the swap
    assert sum(equal_at_depth(h, LevelMorphism.identity(h.src)) for h in classes) == 1
    for h, bij in zip(classes, bijective):
        assert is_iso_at_depth(h).iso == bij
        assert is_epi_at_depth(h).epi == bij


@pytest.mark.parametrize("shift", [(1, 2, 3, 3), (3, 3, 3, 3), (0, 2, 2, 3)])
def test_forward_shifted_abelian_identity_is_iso(shift):
    two = FinAbMap(Z, Z, ((2,),))
    t = Tower((Z,) * 4, (two,) * 3)
    f = LevelMorphism(t, t, shift, tuple(t.bond_composite(s, j) for j, s in enumerate(shift)))
    assert equal_at_depth(f, LevelMorphism.identity(t))
    for d in (None, 3):
        assert is_iso_at_depth(f, d).iso and is_epi_at_depth(f, d).epi


def _strict_form(f, d):
    """The strict form at depth d built by hand: source level j is level
    t(j) = max(j, shift[j]), and component j reads it through the source
    bonds down to shift[j]."""
    t = [max(j, f.shift[j]) for j in range(d + 1)]
    x = Tower(tuple(f.src.levels[p] for p in t),
              tuple(f.src.bond_composite(t[j + 1], t[j]) for j in range(d)))
    comps = tuple(compose(f.components[j], f.src.bond_composite(t[j], f.shift[j]))
                  for j in range(d + 1))
    return LevelMorphism.strict(x, _cut(f.dst, d), comps)


@pytest.mark.parametrize("finab", [False, True], ids=["finset", "finab"])
def test_shifted_verdicts_are_the_verdicts_on_the_strict_form(finab):
    rng = random.Random(3)
    pairs, seen = 0, set()
    while pairs < 400:
        depth = rng.randint(1, 4)
        x, y = _random_tower(rng, finab, depth), _random_tower(rng, finab, depth)
        f = _random_morphism(rng, x, y, sorted(rng.randint(0, depth) for _ in range(depth + 1)))
        if f is None:
            continue
        for d in range(depth + 1):
            strict = _strict_form(f, d)
            assert is_iso_at_depth(f, d) == is_iso_at_depth(strict), (pairs, d)
            assert is_epi_at_depth(f, d) == is_epi_at_depth(strict), (pairs, d)
            seen.add(any(s > j for j, s in enumerate(f.shift[: d + 1])))
            pairs += 1
    assert seen == {True, False}   # forward shifts among them


@pytest.mark.parametrize("finab", [False, True], ids=["finset", "finab"])
def test_a_shallower_source_sets_the_working_depth(finab):
    rng = random.Random(7)
    cases = 0
    while cases < 200:
        low, high = sorted(rng.sample(range(5), 2))
        x, y = _random_tower(rng, finab, low), _random_tower(rng, finab, high)
        shift = sorted(rng.randint(0, low) for _ in range(high + 1))
        f = _random_morphism(rng, x, y, shift)
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
