"""The column lattice basis is a canonical form of the lattice.

Two generating sets of one integer lattice must give the identical basis.
The second set is the first under random unimodular column operations
(swaps, sign changes, adding a multiple of one column to another), with
integer combinations of its columns appended.  A seeded loop keeps the
cases the same on every run.
"""

import random

from finsite import intmat


def _random_matrix(rng):
    rows, cols = rng.randint(1, 4), rng.randint(0, 5)
    return tuple(tuple(rng.choice((0, 0, rng.randint(-6, 6))) for _ in range(cols))
                 for _ in range(rows))


def _from_columns(cols, rows):
    return tuple(tuple(c[i] for c in cols) for i in range(rows))


def _same_lattice(rng, cols, rows):
    """Another generating set of the lattice the columns span."""
    cols = [list(c) for c in cols]
    for _ in range(rng.randint(0, 8)):
        if not cols:
            break
        i, j = rng.randrange(len(cols)), rng.randrange(len(cols))
        move = rng.choice(("swap", "negate", "add"))
        if move == "swap":
            cols[i], cols[j] = cols[j], cols[i]
        elif move == "negate":
            cols[i] = [-x for x in cols[i]]
        elif i != j:
            k = rng.randint(-3, 3)
            cols[i] = [x + k * y for x, y in zip(cols[i], cols[j])]
    for _ in range(rng.randint(0, 3)):
        combo = [0] * rows
        for c in cols:
            k = rng.randint(-2, 2)
            combo = [x + k * y for x, y in zip(combo, c)]
        cols.insert(rng.randint(0, len(cols)), combo)
    return cols


def test_every_generating_set_of_a_lattice_gives_one_basis():
    rng = random.Random(2026)
    nonzero = 0
    for _ in range(1500):
        m = _random_matrix(rng)
        rows = len(m)
        cols = [list(c) for c in zip(*m)]
        basis = intmat.column_lattice_basis(m)
        other = intmat.column_lattice_basis(_from_columns(_same_lattice(rng, cols, rows), rows))
        assert other == basis, m
        assert intmat.column_lattice_basis(basis) == basis
        for c in cols:
            if any(c):
                assert intmat.lattice_member(basis, tuple(c))
        nonzero += bool(basis and basis[0])
    assert nonzero > 800
