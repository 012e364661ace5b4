"""Exact integer matrix arithmetic: products, Smith normal form, lattice solving.

Matrices are tuples of tuples of Python ints (arbitrary precision);
`reduce_presentation` alone takes sparse relation columns.  All routines
are deterministic; the Smith pivot rule is "smallest absolute
nonzero entry, row-major tie break".
"""

from __future__ import annotations

from functools import lru_cache

Matrix = tuple[tuple[int, ...], ...]


def freeze(rows) -> Matrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def shape(m: Matrix) -> tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


@lru_cache(maxsize=64)
def identity(n: int) -> Matrix:
    """The n x n identity; one shared tuple per rank while it stays cached."""
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def zeros(r: int, c: int) -> Matrix:
    return tuple((0,) * c for _ in range(r))


def mul(a: Matrix, b: Matrix) -> Matrix:
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ra == 0:
        return ()
    if ca != rb:
        raise ValueError(f"shape mismatch {shape(a)} x {shape(b)}")
    if cb == 0:
        return tuple(() for _ in range(ra))
    out = [[0] * cb for _ in range(ra)]
    for i in range(ra):
        row = a[i]
        acc = out[i]
        for k in range(ca):
            x = row[k]
            if not x:
                continue
            bk = b[k]
            if x == 1:
                for j in range(cb):
                    y = bk[j]
                    if y:
                        acc[j] += y
            else:
                for j in range(cb):
                    y = bk[j]
                    if y:
                        acc[j] += x * y
    return tuple(tuple(r) for r in out)


def sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(a, b))


def neg(a: Matrix) -> Matrix:
    return tuple(tuple(-x for x in row) for row in a)


def hstack(a: Matrix, b: Matrix) -> Matrix:
    if not a:
        return b
    if not b:
        return a
    if len(a) != len(b):
        raise ValueError("row count mismatch in hstack")
    return tuple(ra + rb for ra, rb in zip(a, b))


def column(m: Matrix, j: int) -> tuple[int, ...]:
    return tuple(row[j] for row in m)


def is_zero(m: Matrix) -> bool:
    return all(all(x == 0 for x in row) for row in m)


def prune_columns(m: Matrix) -> Matrix:
    """Drop zero and duplicate columns (deterministically, keeping first
    occurrences in order).  Used to keep relation presentations small."""
    if not m:
        return m
    seen = set()
    keep = []
    for col in zip(*m):
        if any(col) and col not in seen:
            seen.add(col)
            keep.append(col)
    return tuple(zip(*keep)) if keep else tuple(() for _ in m)


def _add_scaled(target: dict, q: int, source: dict) -> None:
    """target += q * source on sparse {index: coefficient} vectors."""
    for k, x in source.items():
        v = target.get(k, 0) + q * x
        if v:
            target[k] = v
        else:
            del target[k]


def reduce_presentation(n: int, columns):
    """Tietze reduction: eliminate generators pinned by a ±1 relation entry.

    `columns` holds one sparse relation column per relation, in order, as a
    {generator: coefficient} dict over generators 0..n-1.  The dicts are
    consumed: the reduction works on them in place.  Returns
    (kept, new_rel, T) where `kept` lists the surviving original generator
    indices, new_rel (len(kept) rows, or () without relations) presents the
    same group on them, and T (len(kept) x n) rewrites the original
    generators in the survivors, so a quotient map on the originals factors
    through T.

    Each step pivots on the lowest-index surviving column holding a ±1
    entry, at the lowest-index generator where it does; the pivot column
    clears that generator from every other column.  Zero columns and
    repeats of an earlier column are dropped on entry and whenever a step
    makes one, keeping first occurrences.  That never changes a pivot: a
    zero column has no ±1 entry and stays zero, and two equal columns
    receive the same column operations, so they stay equal until the earlier
    one becomes the pivot, which zeroes the later one.  So `kept` and T
    equal those of the same reduction on the full dense matrix, and new_rel
    is that matrix's result with zero and duplicate columns pruned, as
    FinAbObj prunes its relations anyway."""
    cols: dict[int, dict[int, int]] = {}   # surviving columns by position
    key_of: dict[int, frozenset] = {}
    first: dict[frozenset, int] = {}       # column contents -> its position
    for c, col in enumerate(columns):
        if 0 in col.values():
            col = {k: x for k, x in col.items() if x}
        key = frozenset(col.items())
        if col and key not in first:
            cols[c], key_of[c], first[key] = col, key, c
    if not cols:
        return list(range(n)), (), identity(n)
    t = {k: {k: 1} for k in range(n)}     # rewrite rows of the survivors
    while True:
        for c, col in cols.items():
            if 1 in col.values() or -1 in col.values():
                break
        else:
            break
        i = min(k for k, x in col.items() if x == 1 or x == -1)
        s = col[i]
        del cols[c]
        del first[key_of.pop(c)]
        touched = []
        for c2, col2 in cols.items():
            x = col2.get(i)
            if x:
                _add_scaled(col2, -x * s, col)
                touched.append(c2)
        # substitute generator i into the rewriting rows
        ti = t.pop(i)
        for k, x in col.items():
            if k != i:
                _add_scaled(t[k], -s * x, ti)
        # drop the columns this step zeroed or made repeats
        for c2 in touched:
            del first[key_of.pop(c2)]
        for c2 in touched:
            col2 = cols[c2]
            if not col2:
                del cols[c2]
                continue
            key = frozenset(col2.items())
            other = first.get(key)
            if other is not None and other < c2:
                del cols[c2]
                continue
            if other is not None:
                del cols[other], key_of[other]
            first[key], key_of[c2] = c2, key
    kept = sorted(t)
    rel = list(cols.values())
    new_rel = tuple(tuple(col.get(k, 0) for col in rel) for k in kept) if rel else ()
    rewrite = tuple(tuple(t[k].get(j, 0) for j in range(n)) for k in kept)
    return kept, new_rel, rewrite


def column_lattice_basis(m: Matrix) -> Matrix:
    """Canonical basis of the integer column span (column-style Hermite form).

    Column operations only, so the lattice is unchanged; at most one column
    per row survives, pivots are positive, and entries above each pivot are
    reduced, making the output a canonical form of the lattice."""
    rows, cols = shape(m)
    if rows == 0 or cols == 0:
        return tuple(() for _ in range(rows))
    work = [[m[i][j] for i in range(rows)] for j in range(cols)]
    work = [c for c in work if any(c)]
    fixed: list[list[int]] = []
    for r in range(rows):
        live = [c for c in work if c[r] != 0]
        rest = [c for c in work if c[r] == 0]
        while len(live) > 1:
            live.sort(key=lambda c: (abs(c[r]), c))
            base = live[0]
            nxt = [base]
            for c in live[1:]:
                q = c[r] // base[r]
                c2 = [x - q * y for x, y in zip(c, base)]
                if c2[r] != 0:
                    nxt.append(c2)
                elif any(c2):
                    rest.append(c2)
            live = nxt
        if live:
            piv = live[0]
            if piv[r] < 0:
                piv = [-x for x in piv]
            for f in fixed:
                q = f[r] // piv[r]
                if q:
                    for i in range(rows):
                        f[i] -= q * piv[i]
            fixed.append(piv)
        work = rest
    if not fixed:
        return tuple(() for _ in range(rows))
    return tuple(tuple(f[i] for f in fixed) for i in range(rows))


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return shape(a) == shape(b) and all(ra == rb for ra, rb in zip(a, b))


def _min_pivot(d: list[list[int]], k: int) -> tuple[int, int] | None:
    best = None
    best_val = None
    for i in range(k, len(d)):
        row = d[i]
        for j in range(k, len(row)):
            v = abs(row[j])
            if v and (best_val is None or v < best_val):
                best, best_val = (i, j), v
                if v == 1:
                    return best
    return best


def smith_normal_form(m: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Return (U, D, V) with U*M*V = D, U and V unimodular, D diagonal with
    nonnegative entries forming a divisibility chain d1 | d2 | ...

    Results are memoized: the factorization of one relation matrix backs many
    membership queries."""
    return _snf_cached(freeze(m))


@lru_cache(maxsize=4096)
def _snf_cached(m: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    nr, nc = shape(m)
    d = [list(row) for row in m]
    u = [list(row) for row in identity(nr)]
    v = [list(row) for row in identity(nc)]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row_dst += q * row_src
        d[dst] = [x + q * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for row in d:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    k = 0
    limit = min(nr, nc)
    while k < limit:
        piv = _min_pivot(d, k)
        if piv is None:
            break
        if piv[0] != k:
            swap_rows(piv[0], k)
        if piv[1] != k:
            swap_cols(piv[1], k)
        # Clear row and column k; re-pivot whenever a smaller remainder shows up.
        while True:
            dirty = False
            for i in range(k + 1, nr):
                if d[i][k]:
                    q = d[i][k] // d[k][k]
                    add_row(i, k, -q)
                    if d[i][k]:
                        swap_rows(i, k)
                        dirty = True
            for j in range(k + 1, nc):
                if d[k][j]:
                    q = d[k][j] // d[k][k]
                    add_col(j, k, -q)
                    if d[k][j]:
                        swap_cols(j, k)
                        dirty = True
            if not dirty:
                break
        # Divisibility fix-up: every remaining entry must be divisible by the pivot.
        fixed = True
        for i in range(k + 1, nr):
            for j in range(k + 1, nc):
                if d[i][j] % d[k][k] != 0:
                    add_row(k, i, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            k += 1
    for i in range(limit):
        if d[i][i] < 0:
            d[i] = [-x for x in d[i]]
            u[i] = [-x for x in u[i]]
    return freeze(u), freeze(d), freeze(v)


def diagonal_of(d: Matrix) -> tuple[int, ...]:
    nr, nc = shape(d)
    return tuple(d[i][i] for i in range(min(nr, nc)))


def determinant(m: Matrix) -> int:
    """Fraction-free Bareiss determinant of a square integer matrix."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def solve(a: Matrix, b: tuple[int, ...]) -> tuple[int, ...] | None:
    """One integer solution x of A x = b, or None if none exists."""
    nr, nc = shape(a)
    if len(b) != nr:
        raise ValueError("rhs length mismatch")
    if nc == 0:
        return () if all(x == 0 for x in b) else None
    u, d, v = smith_normal_form(a)
    c = [sum(u[i][j] * b[j] for j in range(nr)) for i in range(nr)]
    diag = diagonal_of(d)
    y = [0] * nc
    for i in range(nr):
        di = diag[i] if i < len(diag) else 0
        if di:
            if c[i] % di != 0:
                return None
            y[i] = c[i] // di
        elif c[i] != 0:
            return None
    return tuple(sum(v[i][j] * y[j] for j in range(nc)) for i in range(nc))


def lattice_member(basis: Matrix, vec: tuple[int, ...]) -> bool:
    """True when vec lies in the integer column span of basis."""
    if all(x == 0 for x in vec):
        return True
    if not basis or shape(basis)[1] == 0:
        return False
    return solve(basis, vec) is not None


def hnf_member(hnf: Matrix, vec) -> bool:
    """Membership in a lattice given by a column-Hermite basis: greedy
    reduction along the pivot rows."""
    if all(x == 0 for x in vec):
        return True
    if not hnf or shape(hnf)[1] == 0:
        return False
    rows, cols = shape(hnf)
    pivot_row = []
    for j in range(cols):
        col = [hnf[i][j] for i in range(rows)]
        pivot_row.append(next(i for i, x in enumerate(col) if x))
    v = list(vec)
    j = 0
    for r in range(rows):
        if j < cols and pivot_row[j] == r:
            piv = hnf[r][j]
            if v[r] % piv != 0:
                return False
            q = v[r] // piv
            if q:
                for i in range(r, rows):
                    v[i] -= q * hnf[i][j]
            j += 1
        elif v[r] != 0:
            return False
    return all(x == 0 for x in v)


def nullspace(a: Matrix) -> Matrix:
    """Basis (as columns) of the integer kernel {x : A x = 0}."""
    nr, nc = shape(a)
    if nc == 0:
        return zeros(0, 0)
    _, d, v = smith_normal_form(a)
    diag = diagonal_of(d)
    free = [j for j in range(nc) if j >= len(diag) or diag[j] == 0]
    if not free:
        return zeros(nc, 0)
    return tuple(tuple(v[i][j] for j in free) for i in range(nc))
