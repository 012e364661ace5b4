"""Work that the cosheaf path shares or skips, and the lookups under it.

Each test pins one piece of shared or skipped work to the behaviour it
replaces: equal results, the same order, and the same checks.
"""

import pickle
import random

import pytest

from finsite import cosheaf, values
from finsite.category import (comma_of_sieve, distinct_covers, generated_sieves,
                              sieve_from_cover)
from finsite.cosheaf import (check_cosheaf, constant_precosheaf, defect_agreement,
                             tensor_with_sieve)
from finsite.errors import EngineError
from finsite.randsuite import random_site
from finsite.spaces import (converging_sequence_site, open_site, pi0_precosheaf,
                            pseudocircle, site_points)
from finsite.values import FinSetMap, finset


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def _tensor_colimits(monkeypatch, spec, sieves, depth):
    calls = _count_calls(monkeypatch, values, "finite_colimit")
    a = constant_precosheaf(spec, finset("*"), depth, site_points(spec))
    for sieve in sieves:
        tensor_with_sieve(a, sieve)
    monkeypatch.undo()
    return len(calls)


def test_constant_tower_tensor_colimits_do_not_grow_with_depth(monkeypatch):
    spec = converging_sequence_site(8)
    sieves = [s for u in spec.category.objects for s in generated_sieves(spec, u, 4)]
    nonempty = sum(1 for s in sieves if s.members)
    at4 = _tensor_colimits(monkeypatch, spec, sieves, 4)
    at8 = _tensor_colimits(monkeypatch, spec, sieves, 8)
    assert at4 == at8 == nonempty  # one colimit per nonempty sieve


def test_constant_tower_tensor_levels_equal_level_zero():
    spec = converging_sequence_site(8)
    a = constant_precosheaf(spec, finset("*"), 4, site_points(spec))
    for sieve in generated_sieves(spec, "X", 4):
        t = tensor_with_sieve(a, sieve).tower
        assert all(level == t.levels[0] for level in t.levels)


def _covers_with_intersections(spec, depth):
    return [cover for u in spec.category.objects
            for cover in distinct_covers(spec, u, depth) if cover.has_intersections()]


def test_check_cosheaf_skips_the_fast_path(monkeypatch):
    space = pseudocircle()
    spec = open_site(space)
    assert _covers_with_intersections(spec, 0)

    def refuse(*args, **kwargs):
        raise AssertionError("check_cosheaf built the fast-path defect")

    monkeypatch.setattr(cosheaf, "_fast_defect", refuse)
    assert check_cosheaf(pi0_precosheaf(spec, space)).classification == "COSHEAF"
    spec8 = converging_sequence_site(8)
    pt = constant_precosheaf(spec8, finset("*"), 3, site_points(spec8))
    assert check_cosheaf(pt).classification == "COSEPARATED"


def test_defect_agreement_still_runs_the_fast_path(monkeypatch):
    space = pseudocircle()
    spec = open_site(space)
    a = pi0_precosheaf(spec, space)
    covers = [c for c in _covers_with_intersections(spec, 0) if c.pieces]
    calls = _count_calls(monkeypatch, cosheaf, "_fast_defect")
    assert all(defect_agreement(a, cover) for cover in covers)
    assert len(calls) == len(covers) > 0


def test_finset_map_checks_totality_and_target():
    src, dst = finset("a", "b"), finset("x")
    assert FinSetMap(src, dst, (("a", "x"), ("b", "x")))("b") == "x"
    with pytest.raises(EngineError, match="not total"):
        FinSetMap(src, dst, (("a", "x"),))
    with pytest.raises(EngineError, match="not total"):
        FinSetMap(src, dst, (("a", "x"), ("b", "x"), ("c", "x")))
    with pytest.raises(EngineError, match="outside the target"):
        FinSetMap(src, dst, (("a", "x"), ("b", "y")))
    with pytest.raises(EngineError, match="outside the target"):
        FinSetMap(src, dst, (("a", "x"), ("b", ["x"])))


def test_finset_map_lookup_is_its_table():
    f = FinSetMap(finset("a", "b", "c"), finset("x", "y"),
                  (("c", "y"), ("a", "x"), ("b", "y")))
    assert f.mapping == dict(f.table)
    f.mapping["a"] = "y"          # a copy: the map itself is unchanged
    assert f("a") == "x"
    assert [f(x) for x in f.src.elements] == ["x", "y", "y"]


def test_category_indexes_match_linear_scans():
    rng = random.Random(7)
    for _ in range(30):
        cat = random_site(rng).category
        for u in cat.objects:
            assert list(cat.into(u)) == [m for m in cat.morphisms if m.dst == u]
            assert list(cat.out_of(u)) == [m for m in cat.morphisms if m.src == u]
            for v in cat.objects:
                assert list(cat.hom(u, v)) == [m for m in cat.morphisms
                                               if m.src == u and m.dst == v]


def _comma_by_scans(cat, sieve):
    """Morphisms and composition table of the comma category, built by
    scanning every base morphism for every pair of members."""
    members = sorted(sieve.members)
    morphisms = []
    for m1 in members:
        for m2 in members:
            for beta in cat.morphisms:
                if (beta.src, beta.dst) == (cat.morphism(m1).src, cat.morphism(m2).src) \
                        and cat.compose(m2, beta.id) == m1:
                    morphisms.append((f"{beta.id}|{m1}>{m2}", m1, m2))
    comp = {}
    for g in morphisms:
        for f in morphisms:
            if f[2] == g[1]:
                base = cat.compose(g[0].split("|")[0], f[0].split("|")[0])
                comp[(g[0], f[0])] = f"{base}|{f[1]}>{g[2]}"
    return morphisms, comp


def test_comma_of_sieve_matches_linear_scans():
    rng = random.Random(3)
    for _ in range(10):
        spec = random_site(rng)
        for u in spec.category.objects:
            for sieve in generated_sieves(spec, u, 0):
                comma = comma_of_sieve(spec, sieve)
                morphisms, comp = _comma_by_scans(spec.category, sieve)
                assert [tuple(m) for m in comma.morphisms] == morphisms
                assert list(comma.composition.items()) == list(comp.items())


def test_pickled_site_carries_no_filled_sieve_memo():
    spec = converging_sequence_site(8)
    covers = [c for u in spec.category.objects for c in distinct_covers(spec, u, 4)]
    sieves = [sieve_from_cover(spec, c) for c in covers]
    assert spec._sieves
    copy = pickle.loads(pickle.dumps(spec))
    assert copy._sieves == {}
    assert copy == spec
    assert [sieve_from_cover(copy, c) for c in covers] == sieves
    assert spec._sieves  # pickling leaves the original's memo alone
