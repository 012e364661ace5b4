"""The sparse Tietze reduction in `intmat.reduce_presentation` against the
dense reduction it replaced (kept here as the test-only reference), the
invariant factors it must preserve, a sympy cross-check of the Smith
normal form, and the colimit assembly that feeds it sparse columns."""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from finsite import intmat  # noqa: E402
from finsite.category import comma_of_sieve, generated_sieves, poset_category  # noqa: E402
from finsite.category import _comma_bases  # noqa: E402
from finsite.randsuite import random_finab_precosheaf, random_site  # noqa: E402
from finsite.spaces import converging_sequence_site  # noqa: E402
from finsite.values import (FINAB, FinAbMap, FinAbObj, FiniteDiagram,  # noqa: E402
                            block_relations, finite_colimit, free_ab)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=300, database=None)


def _dense_reduce_presentation(n, rel):
    """The reference: the dense Tietze reduction, which rescans the whole
    relation matrix for each pivot and keeps zero and repeated columns."""
    if n == 0 or not rel or not rel[0]:
        return list(range(n)), rel if rel and rel[0] else (), intmat.identity(n)
    r = [list(row) for row in rel]
    t = [list(row) for row in intmat.identity(n)]
    kept = list(range(n))
    while True:
        pivot = None
        for c in range(len(r[0]) if r and r[0] else 0):
            for i in range(len(r)):
                if r[i][c] in (1, -1):
                    pivot = (i, c)
                    break
            if pivot:
                break
        if pivot is None:
            break
        i, c = pivot
        s = r[i][c]
        ncols = len(r[0])
        for c2 in range(ncols):
            if c2 == c or r[i][c2] == 0:
                continue
            q = r[i][c2] * s
            for k in range(len(r)):
                r[k][c2] -= q * r[k][c]
        for k in range(len(r)):
            if k == i:
                continue
            coeff = -s * r[k][c]
            if coeff:
                for j in range(n):
                    t[k][j] += coeff * t[i][j]
        del t[i]
        del kept[i]
        r = [row[:c] + row[c + 1:] for row in r]
        del r[i]
        if not r or not r[0]:
            r = [[] for _ in kept]
            break
    new_rel = tuple(tuple(row) for row in r) if r and r[0] else ()
    return kept, new_rel, tuple(tuple(row) for row in t)


def _pruned(m):
    """prune_columns, with a matrix left without columns read as ()."""
    m = intmat.prune_columns(m)
    return m if m and m[0] else ()


def _dense_matrix(n, columns):
    return tuple(tuple(c[i] for c in columns) for i in range(n)) if columns and n else ()


def _expected(n, dense_columns):
    kept, new_rel, t = _dense_reduce_presentation(n, _dense_matrix(n, dense_columns))
    return kept, _pruned(new_rel), t


@st.composite
def _presentations(draw):
    """Relation columns on up to 6 generators: sparse ones with unit and
    torsion entries, dense ones, zero columns, repeats and negated repeats
    of earlier columns.  Returns (n, dense columns, sparse columns); a
    sparse column sometimes spells out its zero entries."""
    n = draw(st.integers(0, 6))
    dense = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["sparse", "sparse", "dense", "zero", "repeat", "negated"]))
        if kind in ("repeat", "negated") and dense:
            sign = -1 if kind == "negated" else 1
            dense.append([sign * x for x in draw(st.sampled_from(dense))])
        elif kind == "dense":
            dense.append([draw(st.integers(-4, 4)) for _ in range(n)])
        else:
            col = [0] * n
            if kind == "sparse" and n:
                for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)):
                    col[i] = draw(st.sampled_from([1, -1, 2, -2, 3, 6, -4]))
            dense.append(col)
    sparse = [{i: x for i, x in enumerate(c) if x or draw(st.booleans())} for c in dense]
    return n, dense, sparse


@SETTINGS
@given(_presentations())
def test_sparse_reduction_equals_the_dense_reference(case):
    n, dense, sparse = case
    assert intmat.reduce_presentation(n, sparse) == _expected(n, dense)


def _snf_invariants(rank, m):
    """(nonzero Smith diagonal, free rank) of Z^rank modulo the column span of m."""
    if not m or not m[0]:
        return (), rank
    _, d, _ = intmat.smith_normal_form(m)
    diag = tuple(x for x in intmat.diagonal_of(d) if x)
    return tuple(x for x in diag if x > 1), rank - len(diag)


@SETTINGS
@given(_presentations())
def test_reduction_preserves_the_invariant_factors(case):
    n, dense, sparse = case
    kept, new_rel, t = intmat.reduce_presentation(n, sparse)
    assert _snf_invariants(len(kept), new_rel) == _snf_invariants(n, _dense_matrix(n, dense))
    assert len(t) == len(kept) and all(len(row) == n for row in t)
    # each kept generator rewrites to itself
    for k, g in enumerate(kept):
        assert [row[g] for row in t] == [int(j == k) for j in range(len(kept))]


def _dense_colimit(diagram):
    """The reference assembly: dense relation columns (node relations, then
    one column per edge source generator, identity edges skipped), pruned,
    then the dense reduction; returns (object, kept, cocone matrices)."""
    nodes = sorted(diagram.nodes)
    starts, total, rel_cols = block_relations([diagram.nodes[u] for u in nodes])
    offsets = dict(zip(nodes, starts))
    for m in sorted(diagram.edges):
        mor = diagram.shape.morphism(m)
        e = diagram.edges[m]
        if mor.src == mor.dst and m == diagram.shape.id_of(mor.src):
            continue
        for g in range(e.src.rank):
            col = [0] * total
            col[offsets[mor.src] + g] -= 1
            for i in range(e.dst.rank):
                col[offsets[mor.dst] + i] += e.matrix[i][g]
            rel_cols.append(col)
    relations = intmat.prune_columns(_dense_matrix(total, rel_cols)) if rel_cols else ()
    kept, new_rel, t = _dense_reduce_presentation(total, relations)
    cocone = {u: tuple(tuple(t[k][offsets[u] + g] for g in range(diagram.nodes[u].rank))
                       for k in range(len(kept)))
              for u in nodes}
    return FinAbObj(len(kept), new_rel), tuple(kept), cocone, offsets


def _assert_colimit_matches_reference(diagram):
    colim = finite_colimit(diagram, FINAB)
    obj, kept, cocone, offsets = _dense_colimit(diagram)
    assert colim.obj == obj
    assert colim.kept == kept
    assert dict(colim.offsets) == offsets
    for u, matrix in cocone.items():
        assert colim.cocone[u] == FinAbMap(diagram.nodes[u], obj, matrix)


def _z_diagram_over(shape, rng):
    """Z at every object of a preorder shape; the edge u -> v multiplies by
    d(v)/d(u), where d(u) is the product of a random factor per object
    below u, so the edges compose and the colimit can carry torsion."""
    factor = {u: rng.choice([1, 1, -1, 2, -2, 3]) for u in shape.objects}
    below = {u: {m.src for m in shape.into(u)} for u in shape.objects}
    weight = {}
    for u in shape.objects:
        w = 1
        for x in below[u]:
            w *= factor[x]
        weight[u] = w
    z = free_ab(1)
    nodes = {u: z for u in shape.objects}
    edges = {m.id: FinAbMap(z, z, ((weight[m.dst] // weight[m.src],),))
             for m in shape.morphisms}
    return FiniteDiagram(shape, nodes, edges)


def _sites():
    rng = random.Random(5)
    return [random_site(rng) for _ in range(10)] + [converging_sequence_site(5)]


def test_z_diagrams_over_comma_shapes_match_the_dense_reference():
    rng = random.Random(7)
    built = 0
    for spec in _sites():
        for u in spec.category.objects:
            for sieve in generated_sieves(spec, u, 1):
                _assert_colimit_matches_reference(
                    _z_diagram_over(comma_of_sieve(spec, sieve), rng))
                built += 1
    assert built > 50


def test_z_diagrams_over_random_posets_match_the_dense_reference():
    rng = random.Random(11)
    for _ in range(60):
        objs = [f"p{i}" for i in range(rng.randint(1, 7))]
        leq = [(a, b) for i, a in enumerate(objs) for b in objs[i + 1:] if rng.random() < 0.4]
        _assert_colimit_matches_reference(_z_diagram_over(poset_category(objs, leq), rng))


def _randsuite_colimits():
    """Colimits of seeded randsuite FinAb precosheaves over the comma
    category of every generated sieve (level 0 of each tower)."""
    rng = random.Random(2)
    for spec in _sites():
        a = random_finab_precosheaf(spec, rng)
        for u in spec.category.objects:
            for sieve in generated_sieves(spec, u, 0):
                comma = comma_of_sieve(spec, sieve)
                cat = spec.category
                nodes = {m: a.values[cat.morphism(m).src].levels[0] for m in comma.objects}
                edges = {cm.id: a.action[b].components[0] for cm, b in zip(comma.morphisms, _comma_bases(spec, sieve))}
                yield FiniteDiagram(comma, nodes, edges)


def test_randsuite_colimits_match_the_dense_reference():
    count = 0
    for diagram in _randsuite_colimits():
        _assert_colimit_matches_reference(diagram)
        count += 1
    assert count > 50


def test_finite_colimit_calls_reduce_presentation_once(monkeypatch):
    """The benchmark's tracer counts `intmat.reduce_presentation` by name;
    each abelian colimit makes exactly one such call."""
    calls = []
    original = intmat.reduce_presentation

    def counting(n, columns):
        calls.append(n)
        return original(n, columns)

    monkeypatch.setattr(intmat, "reduce_presentation", counting)
    diagrams = list(_randsuite_colimits())[:40]
    for k, diagram in enumerate(diagrams, 1):
        finite_colimit(diagram, FINAB)
        assert len(calls) == k
    empty = FiniteDiagram(poset_category((), ()), {}, {})
    finite_colimit(empty, FINAB)
    assert len(calls) == len(diagrams) + 1


def _sympy_invariants(rank, m):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    if not rank or not m or not m[0]:
        return (), rank
    factors = [abs(int(x)) for x in invariant_factors(sympy.Matrix(m), domain=sympy.ZZ)]
    nonzero = [x for x in factors if x]
    return tuple(x for x in nonzero if x > 1), rank - len(nonzero)


def test_smith_normal_form_agrees_with_sympy():
    pytest.importorskip("sympy")
    rng = random.Random(13)
    for _ in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = tuple(tuple(rng.choice([0, 0, 1, -1, 2, -3, 4, 6]) for _ in range(cols))
                  for _ in range(rows))
        assert _snf_invariants(rows, m) == _sympy_invariants(rows, m), m


def test_colimit_invariants_agree_with_sympy():
    pytest.importorskip("sympy")
    count = 0
    for diagram in _randsuite_colimits():
        obj = finite_colimit(diagram, FINAB).obj
        assert obj.invariants() == _sympy_invariants(obj.rank, obj.relations)
        count += 1
    assert count > 50
