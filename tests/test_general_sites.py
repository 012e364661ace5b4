"""Paths that only general sites take.

The paper's sites are Grothendieck sites on arbitrary finite categories, not
only posets.  The smallest category that is not a poset is the idempotent
monoid {1, e} with e∘e = e, one object with two endomorphisms: functoriality
is checked on every composable pair there, and its documents list morphisms
and a composition table.  Chain sites truncate the sheaf plus construction,
and covers that are not nested need the common-refinement scan.
"""

import pytest

from finsite import io
from finsite.category import (Cover, Coverage, SiteSpec, common_refinement, poset_category,
                              sieve_levels, validate_site)
from finsite.cosheaf import check_cosheaf, cosheafify, precosheaf_from_tables
from finsite.errors import EngineError, SiteError
from finsite.sheaf import Presheaf, check_sheaf, hom_with_sieve, plus_sheaf, sheafify
from finsite.spaces import converging_sequence_site, site_points
from finsite.values import FINAB, FINSET, finset, finset_map, identity_map

from test_lineage_sharing import _idempotent_monoid

X = finset("a", "b")
IDENTITY = {"a": "a", "b": "b"}
CONSTANT = {"a": "a", "b": "a"}   # idempotent
SWAP = {"a": "b", "b": "a"}       # not idempotent


def _idempotent_site(piece: str) -> SiteSpec:
    """The monoid {1, e} as a one-object site covered by the one piece."""
    return SiteSpec(_idempotent_monoid(), Coverage({"*": (Cover("*", (piece,)),)}),
                    name="idempotent")


def _precosheaf(spec, e):
    return precosheaf_from_tables(spec, FINSET, {"*": X}, {"1": IDENTITY, "e": e})


def _presheaf(spec, e):
    return Presheaf(spec, FINSET, {"*": X},
                    {"1": finset_map(X, X, IDENTITY), "e": finset_map(X, X, e)})


@pytest.mark.parametrize("piece", ["1", "e"])
def test_idempotent_site_is_valid_and_not_a_poset(piece):
    spec = _idempotent_site(piece)
    assert not spec.poset
    assert validate_site(spec).passed


def test_non_idempotent_action_fails_functoriality_on_both_sides():
    spec = _idempotent_site("1")
    with pytest.raises(EngineError, match=r"functoriality fails on \(e,e\)"):
        _precosheaf(spec, SWAP)
    with pytest.raises(EngineError, match=r"contravariant functoriality fails on \(e,e\)"):
        _presheaf(spec, SWAP)


@pytest.mark.parametrize("piece, e, classification, size", [
    ("1", CONSTANT, "COSHEAF", 2),
    ("e", IDENTITY, "COSHEAF", 2),
    # the cover by e glues a to b, so the defect map is not onto
    ("e", CONSTANT, "NOT-COSEPARATED", 1),
])
def test_precosheaf_on_the_idempotent_site(piece, e, classification, size):
    a = _precosheaf(_idempotent_site(piece), e)
    assert check_cosheaf(a).classification == classification
    result = cosheafify(a)
    assert result.report.passed
    assert check_cosheaf(result.precosheaf).classification == "COSHEAF"
    assert len(result.precosheaf.values["*"].levels[0].elements) == size


def test_abelian_precosheaf_on_the_idempotent_site():
    spec = _idempotent_site("e")
    a = precosheaf_from_tables(spec, FINAB, {"*": (2, ())},
                               {"1": [[1, 0], [0, 1]], "e": [[1, 0], [0, 0]]})
    assert check_cosheaf(a).classification == "NOT-COSEPARATED"
    assert check_cosheaf(cosheafify(a).precosheaf).classification == "COSHEAF"


@pytest.mark.parametrize("piece, e, classification", [
    ("1", CONSTANT, "SHEAF"),
    ("e", IDENTITY, "SHEAF"),
    ("e", CONSTANT, "NOT-SEPARATED"),
])
def test_presheaf_on_the_idempotent_site(piece, e, classification):
    p = _presheaf(_idempotent_site(piece), e)
    assert check_sheaf(p).classification == classification
    assert sheafify(p).report.passed


def test_non_poset_site_document_round_trips_byte_identically(tmp_path):
    spec = _idempotent_site("e")
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    io.save(spec, first)
    loaded = io.load(first)
    io.save(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert loaded == spec and not loaded.poset


def test_plus_sheaf_on_a_chain_site_reads_the_chain_at_depth():
    spec = converging_sequence_site(4)
    g = finset("g0", "g1")
    p = Presheaf(spec, FINSET, {u: g for u in spec.category.objects},
                 {m.id: identity_map(g) for m in spec.category.morphisms}, site_points(spec))
    sizes = {}
    for depth in (1, 2):
        result = plus_sheaf(p, depth)
        assert result.truncated
        for u in spec.coverage.chains:
            level = sieve_levels(spec, u, depth)[depth]
            assert result.presheaf.values[u] == hom_with_sieve(p, level).obj
        sizes[depth] = len(result.presheaf.values["X"].elements)
    assert sizes == {1: 8, 2: 16}


def test_common_refinement_scans_for_a_cover_refining_two_unrelated_ones():
    cat = poset_category(("U", "A", "B", "W"), [("W", "A"), ("W", "B"), ("A", "U"), ("B", "U")])
    first, second, both = (Cover("U", (f"{v}<U",)) for v in "ABW")
    spec = SiteSpec(cat, Coverage({"U": (first, second, both)}), poset=True)
    assert common_refinement(spec, "U") == both
    spec = SiteSpec(cat, Coverage({"U": (first, second)}), poset=True)
    with pytest.raises(SiteError, match="admit no common refinement"):
        common_refinement(spec, "U")
