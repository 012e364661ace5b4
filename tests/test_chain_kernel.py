"""The abelian chain kernel against test-only dense references: chain
matrices with identity factors skipped, column pruning, the kept-column
selection in `out_map`, and `compose` with an identity factor."""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from finsite import intmat  # noqa: E402
from finsite.randsuite import random_finab_precosheaf, random_site  # noqa: E402
from finsite.values import (FinAbMap, FinAbObj, FiniteDiagram, _chain_matrix,  # noqa: E402
                            compose, cyclic, finite_colimit, finset, finset_map, free_ab,
                            identity_map, out_map)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=200, database=None)
ENTRIES = st.integers(-2, 2)


def _dense_chain_matrix(chain):
    """The reference: the left fold of `intmat.mul` over the whole chain,
    zero when any object on the chain has rank 0."""
    if chain[-1].dst.rank == 0 or any(f.src.rank == 0 for f in chain):
        return intmat.zeros(chain[-1].dst.rank, chain[0].src.rank)
    m = chain[0].matrix
    for f in chain[1:]:
        m = intmat.mul(f.matrix, m)
    return m


def _dense_prune_columns(m):
    """The reference: columns rebuilt one index at a time."""
    if not m:
        return m
    seen = set()
    keep = []
    for j in range(len(m[0])):
        col = tuple(row[j] for row in m)
        if all(x == 0 for x in col) or col in seen:
            continue
        seen.add(col)
        keep.append(j)
    return tuple(tuple(row[j] for j in keep) for row in m)


@st.composite
def _objects(draw, rank=None):
    """A free group or one with a relation on its first generator."""
    n = draw(st.integers(0, 3)) if rank is None else rank
    if n and draw(st.booleans()):
        return FinAbObj(n, tuple((draw(st.integers(2, 4)) if i == 0 else 0,) for i in range(n)))
    return free_ab(n)


def _matrix(draw, rows, cols):
    return tuple(tuple(draw(ENTRIES) for _ in range(cols)) for _ in range(rows))


@st.composite
def _chains(draw):
    """Chains of 1-4 composable maps mixing identity maps, identity matrices
    between different objects, other square and non-square matrices, and
    rank-0 objects."""
    src = draw(_objects())
    chain = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["identity", "identity-matrix", "square", "any"]))
        if kind == "identity":
            f = identity_map(src)
        elif kind == "identity-matrix":
            f = FinAbMap(src, draw(_objects(src.rank)), intmat.identity(src.rank))
        else:
            dst = draw(_objects(src.rank if kind == "square" else None))
            f = FinAbMap(src, dst, _matrix(draw, dst.rank, src.rank))
        chain.append(f)
        src = f.dst
    return chain


@SETTINGS
@given(_chains())
def test_chain_matrix_equals_the_dense_fold(chain):
    expected = _dense_chain_matrix(chain)
    got = _chain_matrix(chain)
    # a zero-row matrix is () either way; compare as maps of the chain's shape
    ends = (chain[0].src, chain[-1].dst)
    assert FinAbMap(*ends, got).matrix == FinAbMap(*ends, expected).matrix


@SETTINGS
@given(st.integers(0, 5).flatmap(
    lambda rows: st.integers(0, 6).flatmap(
        lambda cols: st.tuples(*[st.tuples(*[st.integers(-1, 1)] * cols)] * rows))))
def test_prune_columns_equals_the_columnwise_reference(m):
    assert intmat.prune_columns(m) == _dense_prune_columns(m)


def _embed_out_map_matrix(colim, node_maps, dst):
    """The reference: the block matrix times the kept-generator selection
    matrix, rebuilt from `kept`."""
    total, kept = colim.unreduced_rank, colim.kept
    blocks = [[0] * total for _ in range(dst.rank)]
    for u, f in node_maps.items():
        for i in range(dst.rank):
            blocks[i][colim.offsets[u]:colim.offsets[u] + f.src.rank] = f.matrix[i]
    embed = intmat.freeze([[1 if kept[j] == i else 0 for j in range(len(kept))]
                           for i in range(total)]) if total else ()
    return intmat.mul(intmat.freeze(blocks), embed)


@pytest.mark.parametrize("seed", range(12))
def test_out_map_equals_the_embed_product(seed):
    rng = random.Random(seed)
    spec = random_site(rng)
    a = random_finab_precosheaf(spec, rng)
    cat = spec.category
    diagram = FiniteDiagram(cat, {u: a.values[u].levels[0] for u in cat.objects},
                            {m.id: a.action[m.id].components[0] for m in cat.morphisms})
    colim = finite_colimit(diagram)
    cases = [(colim.obj, colim.cocone)]
    # the matrix assembly reads no cocone condition, so random maps test it too
    for dst in (free_ab(0), free_ab(rng.randint(1, 3))):
        cases.append((dst, {u: FinAbMap(g, dst, tuple(tuple(rng.randint(-2, 2) for _ in range(g.rank))
                                                      for _ in range(dst.rank)))
                            for u, g in diagram.nodes.items()}))
    for dst, node_maps in cases:
        expected = FinAbMap(colim.obj, dst, _embed_out_map_matrix(colim, node_maps, dst))
        assert out_map(colim, node_maps, dst).matrix == expected.matrix
        # the same node maps given as chains through identity maps
        chained = {u: (identity_map(f.src), f, identity_map(dst)) for u, f in node_maps.items()}
        assert out_map(colim, chained, dst).matrix == expected.matrix


@SETTINGS
@given(st.data())
def test_compose_with_an_identity_gives_the_other_factor(data):
    src, dst = data.draw(_objects()), data.draw(_objects())
    f = FinAbMap(src, dst, _matrix(data.draw, dst.rank, src.rank))
    for composite in (compose(identity_map(dst), f), compose(f, identity_map(src))):
        assert (composite.src, composite.dst, composite.matrix) == (f.src, f.dst, f.matrix)


def test_compose_with_a_finite_set_identity_gives_the_other_factor():
    a, b = finset("x", "y"), finset("p")
    f = finset_map(a, b, {"x": "p", "y": "p"})
    for composite in (compose(identity_map(b), f), compose(f, identity_map(a))):
        assert (composite.src, composite.dst, composite.table) == (f.src, f.dst, f.table)


def test_identity_matrix_between_different_objects_is_not_dropped_by_compose():
    # Z -> Z/2 with the identity matrix is no identity map: the composite
    # keeps the target Z/2
    f = FinAbMap(free_ab(1), free_ab(1), ((3,),))
    g = FinAbMap(free_ab(1), cyclic(2), intmat.identity(1))
    composite = compose(g, f)
    assert (composite.src, composite.dst, composite.matrix) == (f.src, cyclic(2), ((3,),))
