"""Coefficient fields: exact rationals and prime fields."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germkit import (
    OmegaPresentation,
    PrimeField,
    RationalField,
    field_for,
    jacobian_minors,
    normal_form,
    parse_poly,
    parse_ring,
    spoly,
    std,
)
from germkit.coeff import QQ
from germkit.errors import DivisionByZero, InvalidCharacteristic, ResourceExhausted


def test_field_for_dispatch():
    assert field_for(0).characteristic == 0
    assert field_for(32003).characteristic == 32003
    with pytest.raises(InvalidCharacteristic):
        field_for(4)
    with pytest.raises(InvalidCharacteristic):
        field_for(-3)


def test_rational_basics():
    F = RationalField()
    half = F.coerce(Fraction(1, 2))
    third = F.coerce(Fraction(1, 3))
    assert F.add(half, third) == Fraction(5, 6)
    assert F.mul(half, third) == Fraction(1, 6)
    assert F.sub(F.one, half) == half
    assert F.div(F.one, third) == 3
    assert F.neg(half) == Fraction(-1, 2)
    assert F.inv(Fraction(-2, 7)) == Fraction(-7, 2)
    with pytest.raises(DivisionByZero):
        F.inv(F.zero)


def test_prime_field_arithmetic():
    F = PrimeField(7)
    assert F.coerce(9) == 2
    assert F.coerce(-1) == 6
    assert F.add(5, 4) == 2
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.div(1, 2) == 4
    assert F.neg(0) == 0
    with pytest.raises(DivisionByZero):
        F.inv(0)


def test_prime_field_fermat_inverses():
    F = PrimeField(32003)
    for a in (1, 2, 3, 12345, 32002):
        assert F.mul(a, F.inv(a)) == 1


def test_coerce_fraction_into_prime_field():
    F = PrimeField(13)
    v = F.coerce(Fraction(1, 2))
    assert F.mul(v, 2) == 1
    with pytest.raises(DivisionByZero):
        F.coerce(Fraction(1, 13))


# ---------------------------------------------------------------------------
# the canonical form over Q: an int exactly when the value is integral


def _assert_canonical(value):
    if type(value) is not int:
        assert type(value) is Fraction and value.denominator != 1, repr(value)


def _assert_terms_canonical(element):
    for c, *_ in element.terms():
        _assert_canonical(c)


_RATIONALS = st.one_of(
    st.integers(-12, 12),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


@settings(max_examples=300, deadline=None)
@given(a=_RATIONALS, b=_RATIONALS)
def test_rational_field_operations_keep_the_canonical_form(a, b):
    a, b = QQ.coerce(a), QQ.coerce(b)
    _assert_canonical(a)
    _assert_canonical(b)
    for got, want in ((QQ.add(a, b), Fraction(a) + b), (QQ.sub(a, b), Fraction(a) - b),
                      (QQ.mul(a, b), Fraction(a) * b), (QQ.neg(a), -Fraction(a))):
        _assert_canonical(got)
        assert got == want
    if b:
        _assert_canonical(QQ.div(a, b))
        assert QQ.div(a, b) == Fraction(a) / b
    if a:
        _assert_canonical(QQ.inv(a))
        assert QQ.inv(a) == 1 / Fraction(a)


@pytest.mark.parametrize("got, want", [
    (lambda: QQ.div(4, 2), 2),
    (lambda: QQ.div(-6, 3), -2),
    (lambda: QQ.inv(-1), -1),
    (lambda: QQ.inv(Fraction(1, 3)), 3),
    (lambda: QQ.div(1, 3), Fraction(1, 3)),
    (lambda: QQ.coerce(Fraction(6, 3)), 2),
    (lambda: QQ.zero, 0),
    (lambda: QQ.one, 1),
])
def test_rational_field_examples(got, want):
    value = got()
    assert value == want and type(value) is type(want)


def test_rational_field_refuses_floats():
    with pytest.raises(TypeError):
        QQ.coerce(0.5)


@pytest.mark.parametrize("text, want", [("3/1", 3), ("-4/2", -2), ("6/4", Fraction(3, 2))])
def test_parsed_constants_are_canonical(text, want):
    ring = parse_ring("0 (x,y) dp")
    (c, _), = parse_poly(text, ring).terms()
    assert c == want and type(c) is type(want)
    (c, _), = parse_poly(text + "*x", ring).terms()
    assert c == want and type(c) is type(want)


_RING = parse_ring("0 (x,y,z) ds")
_TERMS = st.lists(st.tuples(st.tuples(*[st.integers(0, 3)] * 3), _RATIONALS),
                  min_size=1, max_size=5)


def _poly(ring, terms):
    out = ring.zero()
    for exps, c in terms:
        out = out + ring.monomial(exps[:ring.n], c)
    return out


@settings(max_examples=100, deadline=None)
@given(ft=_TERMS, gt=_TERMS, e=st.integers(0, 3))
def test_polynomial_arithmetic_keeps_the_canonical_form(ft, gt, e):
    f, g = _poly(_RING, ft), _poly(_RING, gt)
    results = [f, g, f + g, f - g, f * g, f ** e, f * Fraction(2, 3), 3 - f]
    results += [f.partial(i) for i in range(3)]
    results += jacobian_minors(f, g)
    if f:
        results.append(f.monic())
    # the germ needs equations vanishing at the origin
    f0, g0 = f - f.constant_term(), g - g.constant_term()
    if f0 and g0:
        for k in (2, 3):
            results += OmegaPresentation(f0, g0, k).generators
    for r in results:
        _assert_terms_canonical(r)


@settings(max_examples=60, deadline=None)
@given(ft=_TERMS, gt=_TERMS, ht=_TERMS, local=st.booleans())
def test_engine_outputs_keep_the_canonical_form(ft, gt, ht, local):
    ring = parse_ring("0 (x,y) ds" if local else "0 (x,y) dp")
    f, g, h = (_poly(ring, t) for t in (ft, gt, ht))
    if f and g:
        _assert_terms_canonical(spoly(f, g))
    try:
        basis = std([f, g], ceiling=2000)
        nf = normal_form(h, basis, ceiling=2000)
    except ResourceExhausted:
        return
    for r in (*basis.generators, nf):
        _assert_terms_canonical(r)
