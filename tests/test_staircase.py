"""Staircase queries against brute force over exponent boxes (hypothesis)."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from germkit import (
    INFINITE,
    Staircase,
    VectorElement,
    highest_corner,
    parse_ring,
    std,
    vdim,
)

BOX = 6  # generator exponents stay below this, so a finite staircase does too


@st.composite
def monomial_modules(draw):
    """(n, rank, [(exponents, component)]): ideals and rank-2 modules in 1-4
    variables. A component closes only if every variable gets a pure power;
    the others stay open, and a module component may get no generator."""
    n = draw(st.integers(1, 4))
    rank = draw(st.sampled_from([None, 2]))
    comps = [0] if rank is None else [1, 2]
    exps = st.tuples(*[st.integers(0, BOX - 1)] * n)
    gens = draw(st.lists(st.tuples(exps, st.sampled_from(comps)), max_size=6))
    for comp in comps:
        if draw(st.booleans()):
            for v in range(n):
                e = [0] * n
                e[v] = draw(st.integers(1, BOX - 1))
                gens.append((tuple(e), comp))
    return n, rank, gens


def _components(rank):
    return [0] if rank is None else list(range(1, rank + 1))


def _standard(gens, comp, m):
    return not any(
        c == comp and all(a <= b for a, b in zip(g, m)) for g, c in gens
    )


def _brute_counts(n, rank, gens, cap):
    counts = [0] * (cap + 1)
    for comp in _components(rank):
        for m in itertools.product(range(cap + 1), repeat=n):
            if sum(m) <= cap and _standard(gens, comp, m):
                counts[sum(m)] += 1
    return counts


def _brute_exponents(n, gens, comp):
    """Standard exponents of a finite component: all lie in the box."""
    return [m for m in itertools.product(range(BOX), repeat=n)
            if _standard(gens, comp, m)]


def _brute_finite(n, rank, gens):
    """Finite iff no monomial on a coordinate axis past the box is standard."""
    for comp in _components(rank):
        for v in range(n):
            e = [0] * n
            e[v] = BOX
            if _standard(gens, comp, tuple(e)):
                return False
    return True


def _basis(n, rank, gens):
    ring = parse_ring("ring 32003 (%s) ds" % ",".join("abcd"[:n]))
    if rank is None:
        return std([ring.monomial(e) for e, _ in gens])
    return std([VectorElement.unit(ring, rank, c) * ring.monomial(e)
                for e, c in gens])


@settings(max_examples=150, deadline=None, database=None)
@given(monomial_modules(), st.integers(-1, 8))
def test_counts_by_degree_match_brute_force(module, cap):
    n, rank, gens = module
    stair = Staircase(n, rank, gens)
    assert stair.counts_by_degree(cap) == _brute_counts(n, rank, gens, cap)


@settings(max_examples=150, deadline=None, database=None)
@given(monomial_modules())
def test_listing_dimension_and_corner_match_brute_force(module):
    n, rank, gens = module
    stair = Staircase(n, rank, gens)
    finite = _brute_finite(n, rank, gens)
    assert stair.is_finite() == finite
    basis = _basis(n, rank, gens) if gens else None
    if not finite:
        if basis is not None:
            assert vdim(basis) is INFINITE
            if rank is None:
                assert highest_corner(basis) is INFINITE
        return
    per_comp = [_brute_exponents(n, gens, c) for c in _components(rank)]
    for comp, want in zip(_components(rank), per_comp):
        assert sorted(stair.std_exponents(comp)) == want
    monos = [m for want in per_comp for m in want]
    assert sum(stair.counts_by_degree()) == len(monos)
    if basis is not None:
        assert vdim(basis) == len(monos)
        if rank is None:
            assert highest_corner(basis) == 1 + max(map(sum, monos), default=-1)
