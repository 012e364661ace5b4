"""Benchmark inputs and expected answers that share no code with finsite.

The spaces are given as point lists and order pairs; the expected component
counts c(U) come from this module's own transitive closure and union-find, so
a bug in finsite's spaces or value code cannot also bend the expectation.
"""

from __future__ import annotations

import random
import string


def point_names(rng: random.Random, count: int) -> list[str]:
    """`count` distinct seeded point names (letters then a digit)."""
    names: set[str] = set()
    while len(names) < count:
        names.add(rng.choice(string.ascii_lowercase) + rng.choice(string.ascii_lowercase)
                  + rng.choice(string.digits))
    out = sorted(names)
    rng.shuffle(out)
    return out


def fence(names: list[str]) -> set[tuple[str, str]]:
    """Zigzag fence p0 < p1 > p2 < p3 ...: the odd positions are the maxima."""
    pairs = set()
    for i in range(1, len(names), 2):
        pairs.add((names[i - 1], names[i]))
        if i + 1 < len(names):
            pairs.add((names[i + 1], names[i]))
    return pairs


def sphere(names: list[str]) -> set[tuple[str, str]]:
    """McCord's minimal finite model of S^n on 2n+2 points: the n-fold
    non-Hausdorff suspension of S^0; both points of a level lie below both
    points of every higher level."""
    levels = [names[i:i + 2] for i in range(0, len(names), 2)]
    return {(a, b) for i, lo in enumerate(levels) for hi in levels[i + 1:]
            for a in lo for b in hi}


def antichain(names: list[str]) -> set[tuple[str, str]]:
    return set()


SHAPES = {"fence": fence, "sphere": sphere, "antichain": antichain}


def closure(points: list[str], pairs: set[tuple[str, str]]) -> set[tuple[str, str]]:
    """Reflexive-transitive closure (Warshall)."""
    leq = {(p, p) for p in points} | set(pairs)
    for k in points:
        for i in points:
            if (i, k) in leq:
                for j in points:
                    if (k, j) in leq:
                        leq.add((i, j))
    return leq


def down_sets(points: list[str], leq: set[tuple[str, str]]) -> list[frozenset[str]]:
    """Every down-closed subset (the opens), by brute force over subsets."""
    out = []
    for mask in range(1 << len(points)):
        s = frozenset(p for i, p in enumerate(points) if mask >> i & 1)
        if all(q in s for p in s for q in points if (q, p) in leq):
            out.append(s)
    return out


def components(subset: frozenset[str], leq: set[tuple[str, str]]) -> int:
    """c(U): comparability components of U, by union-find."""
    parent = {p: p for p in subset}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in subset:
        for b in subset:
            if (a, b) in leq:
                parent[find(a)] = find(b)
    return len({find(p) for p in subset})


def label(s: frozenset[str]) -> str:
    """Object id of an open on an open-set site: its sorted points in braces."""
    return "{" + ",".join(sorted(s)) + "}"


def expected_components(points: list[str], pairs: set[tuple[str, str]]) -> dict[str, int]:
    """Object id -> c(U) for every open of the space."""
    leq = closure(points, pairs)
    return {label(u): components(u, leq) for u in down_sets(points, leq)}
