"""`values.out_map` on finite sets decides the cocone condition on the node
maps it is given: a class of the colimit given two different images is an
error naming the node, never a silent choice of one node's map."""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from finsite.category import poset_category  # noqa: E402
from finsite.errors import EngineError  # noqa: E402
from finsite.randsuite import random_finset_precosheaf, random_site  # noqa: E402
from finsite.values import (FiniteDiagram, FinSetMap, finite_colimit, finset,  # noqa: E402
                            finset_map, identity_map, out_map)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=150, database=None)


def test_the_two_node_non_cocone_is_refused_in_either_order():
    # x -> y with a |-> p; x sends a to 1 while y sends p to 0
    x, y, dst = finset("a"), finset("p", "q"), finset("0", "1")
    shape = poset_category(("x", "y"), [("x", "y")])
    diagram = FiniteDiagram(shape, {"x": x, "y": y},
                            {"x<x": identity_map(x), "y<y": identity_map(y),
                             "x<y": finset_map(x, y, {"a": "p"})})
    colim = finite_colimit(diagram)
    node_maps = {"x": finset_map(x, dst, {"a": "1"}),
                 "y": finset_map(y, dst, {"p": "0", "q": "0"})}
    for ordered in (node_maps, dict(reversed(node_maps.items()))):
        with pytest.raises(EngineError, match="node maps do not form a cocone at '[xy]'"):
            out_map(colim, ordered, dst)


def _diagram(seed):
    """Level 0 of a seeded random finite-set precosheaf over its site."""
    rng = random.Random(seed)
    spec = random_site(rng)
    a = random_finset_precosheaf(spec, rng)
    cat = spec.category
    return FiniteDiagram(cat, {u: a.values[u].levels[0] for u in cat.objects},
                         {m.id: a.action[m.id].components[0] for m in cat.morphisms})


def _restrictions(data, diagram, colim):
    """A random map h out of the colimit, as its restrictions h ∘ cocone[u]
    (plain tables), and its target."""
    dst = finset(*(str(i) for i in range(data.draw(st.integers(2, 3)))))
    h = {c: data.draw(st.sampled_from(dst.elements)) for c in colim.obj.elements}
    tables = {u: {x: h[colim.cocone[u](x)] for x in g.elements}
              for u, g in diagram.nodes.items()}
    return tables, dst


def _is_cocone(diagram, maps):
    return all(maps[m.dst](diagram.edges[m.id](x)) == maps[m.src](x)
               for m in diagram.shape.morphisms for x in diagram.nodes[m.src].elements)


@SETTINGS
@given(st.integers(0, 200), st.data())
def test_a_cocone_gives_the_map_its_table_defines(seed, data):
    diagram = _diagram(seed)
    colim = finite_colimit(diagram)
    tables, dst = _restrictions(data, diagram, colim)
    maps = {u: finset_map(diagram.nodes[u], dst, t) for u, t in tables.items()}
    assert _is_cocone(diagram, maps)
    table = {}
    for u, t in tables.items():
        for x, y in t.items():
            table[colim.cocone[u](x)] = y
    expected = FinSetMap(colim.obj, dst, tuple(table.items()))
    assert out_map(colim, maps, dst) == expected
    assert out_map(colim, dict(reversed(maps.items())), dst) == expected


@SETTINGS
@given(st.integers(0, 200), st.data())
def test_a_non_cocone_is_refused(seed, data):
    diagram = _diagram(seed)
    colim = finite_colimit(diagram)
    tables, dst = _restrictions(data, diagram, colim)
    # an element whose class holds another element: changing its image alone
    # breaks an identification, so the node maps are no cocone
    members = {}
    for u, g in diagram.nodes.items():
        for x in g.elements:
            members.setdefault(colim.cocone[u](x), []).append((u, x))
    shared = sorted(m for ms in members.values() if len(ms) > 1 for m in ms)
    assume(shared)
    u, x = data.draw(st.sampled_from(shared))
    tables[u][x] = data.draw(st.sampled_from([y for y in dst.elements if y != tables[u][x]]))
    maps = {v: finset_map(diagram.nodes[v], dst, t) for v, t in tables.items()}
    assert not _is_cocone(diagram, maps)
    for ordered in (maps, dict(reversed(maps.items()))):
        with pytest.raises(EngineError, match="node maps do not form a cocone"):
            out_map(colim, ordered, dst)
