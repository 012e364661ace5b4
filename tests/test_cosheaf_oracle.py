"""The cosheaf verdict against an oracle that shares no code with the engine.

A small finite space is drawn as a poset of points; its opens are the
down-sets under the test's own order closure, and its covers are found by
scanning families of opens.  A finite-set table on the opens is a sum of
representables U ↦ {* if W ⊆ U}, π₀(U ∩ K) for a set of points K, or a
constant two-element table, on every open or on the nonempty ones.  The
oracle takes the colimit over each cover's sieve as the components of its
(V, x) pairs and judges the comparison to A(U) bijective or surjective.  The site and the precosheaf then reach
`check_cosheaf` only as documents read by `io`, and its classification and
witnesses must be the oracle's.
"""

import itertools
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from finsite import io  # noqa: E402
from finsite.cosheaf import check_cosheaf  # noqa: E402

SETTINGS = settings(derandomize=True, deadline=None, max_examples=300, database=None)

POINTS = "abcde"


# ---------------------------------------------------------------------------
# the oracle: plain Python on frozensets of point names


def _closure(points, pairs):
    """The reflexive-transitive closure of `pairs`, (x, y) meaning x <= y."""
    leq = {(x, x) for x in points} | set(pairs)
    for k in points:
        for x in points:
            for y in points:
                if (x, k) in leq and (k, y) in leq:
                    leq.add((x, y))
    return leq


def _opens(points, leq):
    """Every down-closed subset, by a scan of all subsets of the points."""
    subsets = (frozenset(s) for r in range(len(points) + 1)
               for s in itertools.combinations(points, r))
    return sorted((s for s in subsets
                   if all(x in s for y in s for x in points if (x, y) in leq)),
                  key=lambda s: (len(s), sorted(s)))


def _label(s):
    return "{" + ",".join(sorted(s)) + "}"


def _covers(u, opens, points, leq, policy):
    """The families of opens declared to cover u: the trivial family {u}
    and, under "generated", the largest of the points' down-sets inside u;
    under "all-irredundant", every antichain of nonempty opens inside u with
    union u (the empty one for the empty open), found by scanning the
    families of pairwise incomparable opens."""
    families = {(u,)}
    if policy == "generated":
        downs = {frozenset(x for x in points if (x, y) in leq) for y in u}
        families.add(tuple(d for d in downs if not any(d < e for e in downs)))
    else:
        inside = [v for v in opens if v and v <= u]

        def scan(start, chosen):
            if frozenset().union(*chosen) == u:
                families.add(tuple(chosen))
            for i in range(start, len(inside)):
                v = inside[i]
                if all(not (v <= w or w <= v) for w in chosen):
                    scan(i + 1, chosen + [v])

        scan(0, [])
    return sorted((tuple(sorted(f, key=sorted)) for f in families),
                  key=lambda f: (len(f), [sorted(v) for v in f]))


def _table(kind, leq, params):
    """The value at each open and the map along each inclusion V ⊆ U, as
    `value(U)` and `push(V, U, x)`."""
    if kind == "representables":
        def value(u):
            return [f"r{i}" for i, w in enumerate(params) if w <= u]

        def push(v, u, x):
            return x
    elif kind == "pi0":
        def components(s):
            comps, left = [], set(s)
            while left:
                comp, frontier = set(), [min(left)]
                while frontier:
                    x = frontier.pop()
                    if x in comp:
                        continue
                    comp.add(x)
                    frontier.extend(y for y in left
                                    if (x, y) in leq or (y, x) in leq)
                left -= comp
                comps.append(comp)
            return comps

        def value(u):
            return sorted(f"c:{min(c)}" for c in components(u & params))

        def push(v, u, x):
            return next(f"c:{min(c)}" for c in components(u & params) if x[2:] in c)
    else:
        def value(u):
            return ["0", "1"] if u or params else []

        def push(v, u, x):
            return x
    return value, push


def _sieve_colimit(u, pieces, opens, value, push):
    """The colimit over the sieve of `pieces`: the components of the pairs
    (V, x), V inside some piece and x in A(V), under (V, x) ~ (V', x pushed)
    for V ⊆ V' both in the sieve; each component with its image in A(u)."""
    members = [v for v in opens if any(v <= p for p in pieces)]
    pairs = [(v, x) for v in members for x in value(v)]
    component = {pair: {pair} for pair in pairs}
    for v, w in itertools.product(members, members):
        if v <= w:
            for x in value(v):
                a, b = component[(v, x)], component[(w, push(v, w, x))]
                if a is not b:
                    a |= b
                    for pair in b:
                        component[pair] = a
    classes = {id(c): c for c in component.values()}.values()
    images = []
    for c in classes:
        v, x = min(c, key=lambda pair: (sorted(pair[0]), pair[1]))
        images.append(push(v, u, x))
    return images


def oracle_report(opens, covers, value, push):
    """The classification and the (object, pieces, failed) witnesses: the
    first cover whose comparison is not bijective, and the first that is not
    surjective, objects in label order and covers in declared order."""
    all_iso = all_epi = True
    witnesses = []
    for u in sorted(opens, key=_label):
        for pieces in covers[u]:
            images = _sieve_colimit(u, pieces, opens, value, push)
            epi = set(images) == set(value(u))
            iso = epi and len(images) == len(value(u))
            if iso:
                continue
            cover = [_label(p) for p in pieces]
            if all_epi and not epi:
                all_epi = False
                witnesses.append((_label(u), cover, "epi"))
            if all_iso:
                all_iso = False
                witnesses.append((_label(u), cover, "iso"))
    classification = "COSHEAF" if all_iso else "COSEPARATED" if all_epi else "NOT-COSEPARATED"
    return classification, witnesses


# ---------------------------------------------------------------------------
# the documents the engine reads


def _documents(opens, covers, value, push):
    """The site and precosheaf documents: a poset site on the opens with the
    oracle's covers, pieces named by their opens, and the table's values and
    actions, every inclusion `V<U` (identities `U<U`) with its map."""
    labels = {v: _label(v) for v in opens}
    site = {
        "kind": "site",
        "poset": True,
        "objects": sorted(labels.values()),
        "leq": sorted([labels[v], labels[u]] for v in opens for u in opens if v < u),
        "covers": [{"target": labels[u], "pieces": [labels[p] for p in pieces]}
                   for u in opens for pieces in covers[u]],
    }
    return {
        "kind": "precosheaf",
        "category": "finset",
        "depth": 0,
        "site": site,
        "values": {labels[u]: value(u) for u in opens},
        "action": {f"{labels[v]}<{labels[u]}": {x: push(v, u, x) for x in value(v)}
                   for v in opens for u in opens if v <= u},
    }


@st.composite
def _cases(draw):
    """A space of at most five points ("generated") or four
    ("all-irredundant"), its order drawn on index-increasing pairs so that
    it is antisymmetric, and one of the three tables on its opens."""
    policy = draw(st.sampled_from(["generated", "all-irredundant"]))
    points = POINTS[:draw(st.integers(1, 5 if policy == "generated" else 4))]
    pairs = [(x, y) for x, y in itertools.combinations(points, 2) if draw(st.booleans())]
    leq = _closure(points, pairs)
    opens = _opens(points, leq)
    kind = draw(st.sampled_from(["representables", "pi0", "constant"]))
    if kind == "representables":
        params = draw(st.lists(st.sampled_from(opens), min_size=1, max_size=3))
    elif kind == "pi0":
        params = frozenset(x for x in points if draw(st.booleans()))
    else:
        params = draw(st.booleans())  # whether the empty open holds the two elements
    return points, leq, opens, policy, kind, params


@SETTINGS
@given(_cases())
def test_check_cosheaf_matches_the_oracle(case):
    points, leq, opens, policy, kind, params = case
    covers = {u: _covers(u, opens, points, leq, policy) for u in opens}
    value, push = _table(kind, leq, params)
    expected = oracle_report(opens, covers, value, push)
    doc = json.loads(json.dumps(_documents(opens, covers, value, push)))
    report = check_cosheaf(io.from_document(doc))
    got = [(w["object"], [p.split("<")[0] for p in w["cover"]], w["failed"])
           for w in report.witnesses]
    assert (report.classification, got) == expected


def test_the_oracle_sees_each_classification():
    # on the two-point discrete space {a, b}, whose open {a,b} is covered by
    # {a} and {b}: π₀ is a cosheaf; the constant table off the empty open is
    # coseparated only (that cover's colimit has four elements over two); on
    # the empty open too, it is not coseparated (the empty cover of {} has
    # an empty colimit), and neither is the representable at {a,b}, which
    # that cover misses
    points = "ab"
    leq = _closure(points, ())
    opens = _opens(points, leq)
    covers = {u: _covers(u, opens, points, leq, "all-irredundant") for u in opens}
    verdicts = []
    for kind, params in (("pi0", frozenset(points)), ("constant", False), ("constant", True),
                         ("representables", [frozenset(points)])):
        value, push = _table(kind, leq, params)
        verdicts.append(oracle_report(opens, covers, value, push)[0])
    assert verdicts == ["COSHEAF", "COSEPARATED", "NOT-COSEPARATED", "NOT-COSEPARATED"]
