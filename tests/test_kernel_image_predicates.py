"""The value layer's kernel and image predicates on chains, and
`image_invariants`, against brute force: explicit fibres and images on
finite sets, `kernel`/`cokernel` and `is_zero_map` on the built composite
for abelian groups."""

import itertools
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from finsite.values import (FinAbMap, FinAbObj, cokernel, compose, finset,  # noqa: E402
                            finset_map, identity_map, image_invariants, is_zero_map, kernel,
                            kills_kernel, lands_in_image)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=300, database=None)


# ---------------------------------------------------------------------------
# finite sets


@st.composite
def _sets(draw, nonempty=False):
    return finset(*map(str, range(draw(st.integers(1 if nonempty else 0, 3)))))


@st.composite
def _functions(draw, src, dst):
    if not dst.elements:
        return finset_map(src, dst, {})
    return finset_map(src, dst, {x: draw(st.sampled_from(dst.elements)) for x in src.elements})


@st.composite
def _set_chain(draw, start=None, end=None):
    """0-3 composable functions out of `start` or into `end`, some of them
    identities."""
    chain = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            obj = start if end is None else end
            f = identity_map(obj)
        elif end is None:
            f = draw(_functions(start, draw(_sets(nonempty=bool(start.elements)))))
        else:
            f = draw(_functions(draw(_sets()) if end.elements else finset(), end))
        chain.append(f)
        if end is None:
            start = f.dst
        else:
            end = f.src
    return chain if end is None else chain[::-1]


def _walk(chain, x):
    for g in chain:
        x = g(x)
    return x


@st.composite
def _finset_cases(draw):
    src = draw(_sets())
    f = draw(_functions(src, draw(_sets(nonempty=bool(src.elements)))))
    return f, draw(_set_chain(start=f.src)), draw(_set_chain(end=f.dst))


@SETTINGS
@given(_finset_cases())
def test_finset_predicates_match_fibres_and_images(case):
    f, out_chain, in_chain = case
    fibres_kept = all(_walk(out_chain, x) == _walk(out_chain, z)
                      for x, z in itertools.product(f.src.elements, repeat=2) if f(x) == f(z))
    assert kills_kernel(f)(tuple(out_chain)) == fibres_kept
    image = {f(x) for x in f.src.elements}
    starts = in_chain[0].src.elements if in_chain else f.dst.elements
    assert lands_in_image(f)(tuple(in_chain)) == all(_walk(in_chain, y) in image for y in starts)
    assert image_invariants(f) == len(image)


# ---------------------------------------------------------------------------
# abelian groups: Z^n modulo moduli on the diagonal (0 for a free generator)


def _group(moduli) -> FinAbObj:
    cols = [[m if i == k else 0 for i in range(len(moduli))] for k, m in enumerate(moduli) if m]
    return FinAbObj(len(moduli), tuple(tuple(c[i] for c in cols) for i in range(len(moduli)))
                    if cols else ())


@st.composite
def _moduli(draw):
    return tuple(draw(st.sampled_from([0, 0, 2, 3, 4, 6])) for _ in range(draw(st.integers(0, 3))))


@st.composite
def _homs(draw, src, dst):
    """A well-defined map: an entry from a generator of order m into one of
    order t is a multiple of t / gcd(t, m), and zero into a free one."""
    rows = []
    for t in dst:
        row = []
        for m in src:
            a = draw(st.integers(-2, 2))
            row.append(a if not m else 0 if not t else a * (t // math.gcd(t, m)))
        rows.append(tuple(row))
    return FinAbMap(_group(src), _group(dst), tuple(rows))


@st.composite
def _ab_chain(draw, start=None, end=None):
    """0-3 composable homomorphisms out of the moduli `start` or into `end`,
    some of them identities."""
    chain = []
    for _ in range(draw(st.integers(0, 3))):
        here = start if end is None else end
        if draw(st.booleans()):
            f, there = identity_map(_group(here)), here
        else:
            there = draw(_moduli())
            f = draw(_homs(here, there) if end is None else _homs(there, here))
        chain.append(f)
        if end is None:
            start = there
        else:
            end = there
    return chain if end is None else chain[::-1]


def _composite(chain, obj):
    out = identity_map(obj)
    for g in chain:
        out = compose(g, out)
    return out


def _elements(moduli):
    return itertools.product(*(range(m) for m in moduli))


@st.composite
def _finab_cases(draw):
    src, dst = draw(_moduli()), draw(_moduli())
    f = draw(_homs(src, dst))
    return src, dst, f, draw(_ab_chain(start=src)), draw(_ab_chain(end=dst))


@SETTINGS
@given(_finab_cases())
def test_finab_predicates_match_kernel_and_cokernel(case):
    src, dst, f, out_chain, in_chain = case
    _, incl = kernel(f)
    out = _composite(out_chain, f.src)
    assert kills_kernel(f)(tuple(out_chain)) == is_zero_map(compose(out, incl))
    _, proj = cokernel(f)
    into = _composite(in_chain, in_chain[0].src if in_chain else f.dst)
    assert lands_in_image(f)(tuple(in_chain)) == is_zero_map(compose(proj, into))
    torsion, free = image_invariants(f)
    assert (torsion, free) == cokernel(incl)[0].invariants()
    if all(src):
        # a finite source: count the image's elements
        image = {tuple(sum(r * x for r, x in zip(row, xs)) % t if t else
                       sum(r * x for r, x in zip(row, xs)) for row, t in zip(f.matrix, dst))
                 for xs in _elements(src)}
        assert free == 0 and math.prod(torsion) == len(image)
