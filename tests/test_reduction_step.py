"""The fused reduction step and the code cut of the jet truncation.

A reduction step adds m * x^delta * tail to the work polynomial in one pass
over the reducer tail; under a degree bound only the suffix of the ascending
tail at or above a code cut survives, and exponent overflow is one test of
the tail's per-variable maximum. These tests hold each shortcut against the
plain formula it replaces: shift every tail code, keep the terms of degree
below the bound, add them into a dict, and OR every shifted code against the
overflow mask. The work polynomial reduces its residues mod p and skips
cancelled codes only when it is read, so the step is compared on the terms
read from it. A reducer is made monic on integer numerators, which is held
against scaling the field values by the inverse of the leading coefficient.
The cut needs total degree, negated, as the top field of a code, which the
layout's deg_top records; its degree extremes are held against a scan over
every code.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germkit import RingContext, normal_form, parse_poly, spoly
from germkit.errors import ExponentOverflow
from germkit.coeff import field_for
from germkit.ring import POSITION_OVER_TERM, _scale
from germkit.stdbasis import _HUGE, _cut, _Entry, _integral, _monic, _over, _WorkPoly

SEED = 20261

# (ring, rank) pairs whose finite degree bounds the cut must realize
CUT_LAYOUTS = [
    (RingContext(32003, ("x", "y", "z"), "ds"), None),
    (RingContext(32003, ("x", "y", "z"), "ls"), None),
    (RingContext(32003, ("x", "y", "z"), "ds"), 2),
    (RingContext(32003, ("x", "y", "z"), "ws(1,1,1)"), None),
]


def _layout(ring, rank):
    return ring.layout if rank is None else ring.module_layout


def _encode(lay, rank, exps, comp):
    return lay.encode(exps, comp if rank is not None else None)


@settings(max_examples=400, deadline=None)
@given(
    which=st.integers(0, len(CUT_LAYOUTS) - 1),
    exps=st.tuples(*[st.integers(0, 3000)] * 3),
    comp=st.integers(1, 2),
    bound=st.integers(1, 4096),
)
def test_cut_holds_exactly_the_terms_below_the_bound(which, exps, comp, bound):
    ring, rank = CUT_LAYOUTS[which]
    lay = _layout(ring, rank)
    code = _encode(lay, rank, exps, comp)
    assert (code >= _cut(lay, bound)) == (sum(exps) < bound)


NAMES = ("x", "y", "z")
POT_DS = RingContext(32003, NAMES, "ds", module_rule=POSITION_OVER_TERM)
POT_DP = RingContext(32003, NAMES, "dp", module_rule=POSITION_OVER_TERM)

# layouts whose top field is the total degree itself
DEGREE_FIRST = [
    RingContext(32003, NAMES, "dp").layout,
    RingContext(32003, NAMES, "Dp").layout,
    RingContext(32003, NAMES, "wp(1,1,1)").layout,
    RingContext(32003, NAMES, "dp").module_layout,
]

# layouts with no degree at the top; a module position over term sorts the
# component above every form
SCANNED = [
    RingContext(32003, NAMES, "dp(1),ds(2)").layout,
    RingContext(32003, NAMES, "ws(2,1,1)").layout,
    RingContext(32003, NAMES, "wp(1,2,3)").layout,
    RingContext(32003, NAMES, "lp").layout,
    POT_DS.module_layout,
    POT_DP.module_layout,
]


def test_cut_layouts_are_exactly_the_jet_eligible_ones():
    for ring, rank in CUT_LAYOUTS:
        assert _layout(ring, rank).deg_top == -1
        assert _cut(_layout(ring, rank), _HUGE) is None
    # here degree is not the most significant field, so a cut would be wrong
    for lay in DEGREE_FIRST:
        assert lay.deg_top == 1
    for lay in SCANNED:
        assert lay.deg_top == 0
    # the scalar layouts of position-over-term rings keep degree on top
    assert POT_DS.layout.deg_top == -1
    assert POT_DP.layout.deg_top == 1


@pytest.mark.parametrize(
    "lay",
    [_layout(ring, rank) for ring, rank in CUT_LAYOUTS] + DEGREE_FIRST + SCANNED,
)
def test_degree_extremes_match_a_scan(lay):
    rng = random.Random(SEED)
    module = lay.comp_div_shift is not None
    for _ in range(300):
        codes = [lay.encode(tuple(rng.randint(0, 9) for _ in range(3)),
                            rng.randint(1, 3) if module else None)
                 for _ in range(rng.randint(1, 8))]
        degrees = [lay.degree(c) for c in codes]
        assert lay.max_degree(codes) == max(degrees)
        assert lay.min_degree(codes) == min(degrees)


@pytest.mark.parametrize("lay", [_layout(ring, rank) for ring, rank in CUT_LAYOUTS]
                         + DEGREE_FIRST + SCANNED)
@pytest.mark.parametrize("p", [0, 2, 101])
def test_top_degree_reads_the_nonzero_terms_only(lay, p):
    # a numerator that cancelled, to 0 or to a multiple of p, is no term;
    # where the layout reads the degree at an extreme code it drops such a
    # code from the dict
    rng = random.Random(SEED + p)
    module = lay.comp_div_shift is not None
    dropped = 0
    for _ in range(300):
        terms = {}
        for _ in range(rng.randint(0, 8)):
            code = lay.encode(tuple(rng.randint(0, 9) for _ in range(3)),
                              rng.randint(1, 3) if module else None)
            terms[code] = rng.choice([0, 1, -3, 7]) * rng.choice([1, p or 5])
        live = [c for c, v in terms.items() if (v % p if p else v)]
        wp = _WorkPoly(p, 1, terms.items())
        want = lay.max_degree(live) if live else None
        assert wp.top_degree(lay) == want
        assert set(live) <= set(wp.terms)
        dropped += len(wp.terms) < len(terms)
    assert (dropped > 0) == (lay.deg_top != 0)


# ---------------------------------------------------------------------------
# the fused step against the reference formula


def _random_coeff(rng, p):
    if p:
        return rng.randrange(1, p)
    return Fraction(rng.choice([-7, -3, -1, 1, 2, 5]), rng.choice([1, 1, 2, 3, 4]))


def _checked_monic(terms, p):
    """_monic of the field values `terms`, checked against the field route:
    every coefficient times the inverse of the leading one.  Over Q the
    denominator L is the least common denominator of the results."""
    field = field_for(p)
    monic = lead, codes, big_l, nums = _monic(_integral(terms)[1], p)
    want = _scale(terms, field.inv(terms[0][1]), field)
    assert _over([(lead, big_l), *zip(codes[::-1], nums[::-1])], big_l, p) == want
    if not p:
        assert big_l == lcm(*[v.denominator for _, v in want])
    return monic


def _random_entry(rng, ring, rank, p, max_exp):
    """A reducer with a lead of degree 1 and up to 12 tail terms, made monic
    (over Q the lead may be negative or fractional)."""
    lay = _layout(ring, rank)
    comp = rng.randint(1, 2)
    codes = {_encode(lay, rank, (1, 0, 0), comp)}
    for _ in range(rng.randint(0, 12)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(3))
        if sum(exps) > 1:
            codes.add(_encode(lay, rank, exps, comp))
    codes = sorted(codes, reverse=True)
    terms = [(c, _random_coeff(rng, p)) for c in codes]
    entry = _Entry(_checked_monic(terms, p), lay, 0)
    return entry, comp


def _reference_step(work, den, entry, delta, h, bound, lay, p):
    """The step as a plain formula: rescale by L/q, shift every tail code,
    keep degree < bound, and add into a copy of the dict."""
    codes, big_l, nums = entry.tail(delta, None, lay, False)
    q = gcd(big_l, h)
    a = big_l // q
    out = {c: v * a for c, v in work.items()} if a != 1 else dict(work)
    m = -(h // q)
    for c, v in zip(codes, nums):
        nc = c + delta
        if lay.degree(nc) >= bound:
            continue
        s = out.get(nc, 0) + m * v
        if p:
            s %= p
        if s:
            out[nc] = s
        else:
            out.pop(nc, None)
    return out, den * a


def _fused_step(work, den, entry, delta, h, bound, lay, p):
    """The step as _weak_nf takes it: the cut tail, one add_shifted; its
    terms as they are read, reduced mod p and nonzero."""
    wp = _WorkPoly(p, den, list(work.items()))
    codes, big_l, nums = entry.tail(delta, _cut(lay, bound), lay, bound > 4096)
    q = gcd(big_l, h)
    if q != big_l:
        wp.rescale(big_l // q)
    wp.add_shifted(codes, nums, delta, -(h // q))
    return dict(wp.descending()), wp.den


@pytest.mark.parametrize("p", [32003, 0, 2, 101])
def test_fused_step_matches_the_reference_formula(p):
    rng = random.Random(SEED + p)
    mismatches = rescaled = cancelled = 0
    for trial in range(600):
        ring, rank = CUT_LAYOUTS[trial % len(CUT_LAYOUTS)]
        lay = _layout(ring, rank)
        entry, comp = _random_entry(rng, ring, rank, p, 6)
        mult = tuple(rng.randint(0, 3) for _ in range(3))
        delta = lay.encode(mult) - lay.code_one
        bound = rng.choice([2, 3, 5, 8, 12, _HUGE])
        h = rng.randrange(1, p) if p else rng.choice([1, 2, 3, 6, -4, 9])
        # a work polynomial that meets the shifted tail, sometimes with the
        # exact negation of a shifted term, so that terms merge and cancel
        codes, big_l, nums = entry.tail(delta, None, lay, False)
        den = 1 if p else rng.choice([1, 2, 6])
        q = gcd(big_l, h)
        work = {}
        for c, v in zip(codes, nums):
            if rng.random() < 0.5:
                nc = c + delta
                if rng.random() < 0.5:
                    w = (h // q) * v * (big_l // q)
                    work[nc] = w % p if p else w
                else:
                    work[nc] = rng.randrange(1, p) if p else rng.randint(-9, 9) or 1
        for _ in range(rng.randint(0, 4)):
            exps = tuple(rng.randint(0, 6) for _ in range(3))
            work[_encode(lay, rank, exps, comp)] = rng.randrange(1, p) if p else 5
        want = _reference_step(work, den, entry, delta, h, bound, lay, p)
        got = _fused_step(work, den, entry, delta, h, bound, lay, p)
        mismatches += want != got
        rescaled += got[1] != den
        cancelled += len(got[0]) < len(set(work) | {c + delta for c in codes
                                                   if lay.degree(c + delta) < bound})
    assert mismatches == 0
    assert cancelled > 0
    assert (rescaled > 0) == (p == 0)


@pytest.mark.parametrize("p", [0, 101])
def test_a_dead_code_is_dropped_only_when_new(p):
    # codes 10 and 20 are dead: 10 is already a term and keeps adding up,
    # 20 would be new and is dropped, and 30 comes in
    wp = _WorkPoly(p, 1, [(10, 4)], {10, 20})
    wp.add_shifted([7, 17, 27], [1, 2, 3], 3, 5)
    assert wp.descending() == [(30, 15), (10, 9)]
    assert sorted(wp.heap) == [-30, -10]


@pytest.mark.parametrize("which", range(len(CUT_LAYOUTS)))
def test_overflow_test_matches_the_or_over_shifted_codes(which):
    ring, rank = CUT_LAYOUTS[which]
    lay = _layout(ring, rank)
    rng = random.Random(SEED + which)
    top = (1 << 16) - 1
    raised = 0
    for trial in range(400):
        comp = rng.randint(1, 2)
        codes = {_encode(lay, rank, (1, 0, 0), comp)}
        for _ in range(rng.randint(1, 8)):
            exps = tuple(rng.randint(top - 300, top) if rng.random() < 0.3
                         else rng.randint(0, 40) for _ in range(3))
            codes.add(_encode(lay, rank, exps, comp))
        codes = sorted(codes, reverse=True)
        entry = _Entry(_monic([(c, 1) for c in codes], 32003), lay, 0)
        delta = lay.encode(tuple(rng.randint(0, 400) for _ in range(3))) - lay.code_one
        overflows = any((c + delta) & lay.exp_overflow_mask for c in codes[1:])
        try:
            entry.tail(delta, None, lay, True)
        except ExponentOverflow:
            raised += 1
            assert overflows
        else:
            assert not overflows
    assert 0 < raised < 400


@pytest.mark.parametrize("p", [2, 101])
@pytest.mark.parametrize("ordering", ["dp", "ds"])
def test_a_sum_to_a_multiple_of_p_reads_as_no_term(p, ordering):
    # the residues a work polynomial adds up are reduced only when read:
    # y's numerator below sums to 1 - (p + 1) = -p, and in the s-polynomial
    # to 1 - 1 = 0
    ring = RingContext(p, ("a", "b", "c", "y", "d"), ordering)
    u, v, w = (1, 1, 1) if p == 2 else (50, 50, 2)
    f = parse_poly("a+b+c+y+d", ring)
    reducers = [parse_poly(text, ring)
                for text in ("a+%d*y" % u, "b+%d*y" % v, "c+%d*y" % w)]
    d = parse_poly("d", ring)
    for got in (normal_form(f, reducers),
                spoly(parse_poly("a+y+d", ring), parse_poly("a+y", ring))):
        assert got == d
        assert all(coeff for _, coeff in got._terms)
