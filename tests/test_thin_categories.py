"""Thin categories compose by rule.

A poset category, the comma category of a sieve in it and the opposite of
either are thin: at most one morphism per (src, dst), so g∘f is the one
morphism from src(f) to dst(g) and no table is stored.  Each test pins the
lazy table, `compose` and the two-check `check_axioms` to an eager table
or an M² pair scan built here, on random posets.  Explicit tables (io
`composition` documents, monoids) keep the stored path.
"""

import json
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from finsite import io
from finsite.category import (FiniteCategory, Morphism, _ThinComposition, comma_of_sieve,
                              generated_sieves, poset_category)
from finsite.errors import SiteError
from finsite.sheaf import _OppositeComposition, opposite_category
from finsite.spaces import FiniteSpace, converging_sequence_site, open_site, pseudocircle
from test_lineage_sharing import _eager_comma, _idempotent_monoid
from test_site_by_output import _pair_scan

SRC = Path(__file__).resolve().parent.parent / "src"


def _random_poset(rng):
    n = rng.randint(1, 7)
    points = [f"q{i}" for i in range(n)]
    rng.shuffle(points)
    pairs = {(points[i], points[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.35}
    return poset_category(points, pairs)


def _eager_table(cat):
    """Every composable pair (g, f), for each g every f into src(g), mapped to
    the one morphism src(f) -> dst(g) found by a scan of all morphisms."""
    table = {}
    for g in cat.morphisms:
        for f in cat.morphisms:
            if f.dst == g.src:
                (gf,) = [m.id for m in cat.morphisms if (m.src, m.dst) == (f.src, g.dst)]
                table[(g.id, f.id)] = gf
    return table


def _fence(n):
    points = tuple(f"p{i}" for i in range(n))
    leq = {(points[i], points[i + 1]) if i % 2 == 0 else (points[i + 1], points[i])
           for i in range(n - 1)}
    return FiniteSpace(points, frozenset(leq))


def _thin_sites():
    return [converging_sequence_site(5), open_site(pseudocircle()),
            open_site(_fence(5), "generated")]


def test_the_poset_table_equals_the_eager_table():
    rng = random.Random(26)
    for _ in range(60):
        cat = _random_poset(rng)
        eager = _eager_table(cat)
        assert cat.thin
        assert dict(cat.composition) == eager
        assert len(cat.composition) == len(eager)
        assert set(cat.composition) == set(eager)
        assert list(cat.composition) == list(eager)
        for (g, f), gf in eager.items():
            assert cat.compose(g, f) == gf


def test_a_non_composable_pair_is_not_in_the_table():
    cat = poset_category("abc", {("a", "b"), ("b", "c")})
    assert ("a<b", "b<c") not in cat.composition
    with pytest.raises(KeyError):
        cat.composition[("a<b", "b<c")]
    assert ("b<c", "a<b") in cat.composition


def test_thin_tables_are_equal_exactly_when_their_items_are():
    rng = random.Random(3)
    for _ in range(40):
        a, b = _random_poset(rng), _random_poset(rng)
        same = dict(a.composition) == dict(b.composition)
        assert (a.composition == b.composition) == same
        assert (a == b) == (same and a.objects == b.objects)
        assert a.composition == _eager_table(a)
        assert a.composition == poset_category(a.objects, [(m.src, m.dst) for m in a.morphisms]).composition


def _drop_one(cat, rng):
    """The thin category without one non-identity morphism: some composable
    pair may then have no composite."""
    ids = set(cat.identity.values())
    proper = [m for m in cat.morphisms if m.id not in ids]
    if not proper:
        return cat
    gone = rng.choice(proper)
    return FiniteCategory(cat.objects, tuple(m for m in cat.morphisms if m != gone),
                          cat.identity, _ThinComposition())


def test_thin_check_axioms_equals_the_pair_scan_on_random_posets():
    rng = random.Random(7)
    broken = 0
    for _ in range(80):
        cat = _random_poset(rng)
        assert cat.check_axioms() == _pair_scan(cat) == []
        dropped = _drop_one(cat, rng)
        got = dropped.check_axioms()
        assert got == _pair_scan(dropped)
        broken += bool(got)
    assert broken > 10


def test_thin_check_axioms_names_parallel_morphisms():
    cat = FiniteCategory(("a", "b"), (Morphism("1a", "a", "a"), Morphism("1b", "b", "b"),
                                      Morphism("f", "a", "b"), Morphism("g", "a", "b")),
                         {"a": "1a", "b": "1b"}, _ThinComposition())
    assert cat.check_axioms() == ["thin category has parallel morphisms f,g"]


def test_a_pickled_open_site_composes_as_the_original():
    site = open_site(_fence(5), "generated")
    copy = pickle.loads(pickle.dumps(site))
    cat, again = site.category, copy.category
    assert again.thin and again == cat
    assert dict(again.composition) == dict(cat.composition)
    for g in cat.morphisms:
        for f in cat.into(g.src):
            assert again.compose(g.id, f.id) == cat.compose(g.id, f.id)


def test_the_comma_of_a_thin_site_is_thin_and_equals_the_eager_table():
    checked = 0
    for spec in _thin_sites():
        for u in spec.category.objects:
            for sieve in generated_sieves(spec, u, 3):
                if not sieve.members:
                    continue
                comma = comma_of_sieve(spec, sieve)
                objects, morphisms, identity, comp = _eager_comma(spec.category, sieve)
                assert comma.thin
                assert (comma.objects, comma.morphisms) == (objects, morphisms)
                assert dict(comma.identity) == identity
                assert list(comma.composition) == list(comp)
                assert dict(comma.composition) == comp
                assert comma.check_axioms() == []
                checked += 1
    assert checked > 40


def test_the_opposite_of_a_thin_comma_composes_as_the_swapped_eager_table():
    checked = 0
    for spec in _thin_sites():
        for u in spec.category.objects:
            for sieve in generated_sieves(spec, u, 3):
                if not sieve.members:
                    continue
                swapped = _OppositeComposition(_eager_comma(spec.category, sieve)[3])
                op = opposite_category(comma_of_sieve(spec, sieve))
                assert op.thin
                assert dict(op.composition) == dict(swapped)
                for (g, f), gf in swapped.items():
                    assert op.compose(g, f) == gf
                assert op.check_axioms() == []
                checked += 1
    assert checked > 40


def test_the_opposite_of_an_explicit_table_keeps_the_table():
    monoid = _idempotent_monoid()
    op = opposite_category(monoid)
    assert not monoid.thin and not op.thin
    assert dict(op.composition) == {(f, g): gf for (g, f), gf in monoid.composition.items()}


def test_explicit_table_documents_load_with_their_table():
    site = converging_sequence_site(3)
    doc = io.to_document(site)
    assert "leq" in doc and "composition" not in doc
    cat = site.category
    explicit = {k: doc[k] for k in doc if k != "leq"}
    explicit["poset"] = False
    explicit["morphisms"] = [{"id": m.id, "src": m.src, "dst": m.dst} for m in cat.morphisms]
    explicit["identity"] = dict(cat.identity)
    explicit["composition"] = sorted([g, f, gf] for (g, f), gf in cat.composition.items())
    loaded = io.from_document(explicit)
    assert not loaded.category.thin
    assert dict(loaded.category.composition) == dict(cat.composition)
    assert loaded.category.check_axioms() == []


def test_open_site_bound_is_twelve_points():
    space = FiniteSpace(tuple(f"p{i:02d}" for i in range(13)), frozenset())
    with pytest.raises(SiteError, match=r"open-lattice bound \(12 points\)"):
        open_site(space)


_SEED_PROBE = """
import json
from finsite import check_cosheaf, io, open_site, pi0_precosheaf, validate_site
from finsite.spaces import FiniteSpace, pseudocircle
space = FiniteSpace(tuple("abcde"), frozenset({("a", "b"), ("c", "b"), ("c", "d"), ("e", "d")}))
for s in (pseudocircle(), space):
    site = open_site(s, "generated")
    print(json.dumps(io.to_document(site), sort_keys=True))
    print(json.dumps(validate_site(site).to_json(), sort_keys=True))
    print(json.dumps(check_cosheaf(pi0_precosheaf(site, s), 0).to_json(), sort_keys=True))
"""


def test_documents_and_reports_do_not_depend_on_the_hash_seed():
    outs = []
    for seed in ("0", "4242"):
        run = subprocess.run([sys.executable, "-c", _SEED_PROBE], capture_output=True, text=True,
                             env={"PYTHONHASHSEED": seed, "PYTHONPATH": str(SRC)}, check=True)
        outs.append(run.stdout)
    assert outs[0] == outs[1]
    assert "leq" in json.loads(outs[0].splitlines()[0])
