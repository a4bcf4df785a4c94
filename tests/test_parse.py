"""Front end: ring declarations, expressions, serialization, job files."""

import random

import pytest

from germkit import parse_job, parse_poly, parse_ring, serialize
from germkit.errors import ExponentOverflow, ParseError
from germkit.parse import parse_orderings

SEED = 71


def test_ring_declaration_forms():
    r1 = parse_ring("ring 0 (x,y,z) ds")
    assert r1.characteristic == 0
    assert r1.variables == ("x", "y", "z")
    assert r1.ordering.token() == "ds"
    r2 = parse_ring("32003 (x,y) dp")  # leading keyword optional
    assert r2.characteristic == 32003
    r3 = parse_ring("ring 0 (a,b,c) dp(2),ds(1)")
    assert r3.ordering.token() == "dp(2),ds(1)"
    r4 = parse_ring("ring 0 (x,y,z) wp(1,2,3)")
    assert r4.ordering.token() == "wp(1,2,3)"


def test_ordering_list_splits_where_blocks_cover_all_variables():
    specs = parse_orderings("ds,ls,dp(1),ds(1),wp(2,3)", 2)
    assert [s.token() for s in specs] == ["ds", "ls", "dp(1),ds(1)", "wp(2,3)"]
    with pytest.raises(ParseError) as e:
        parse_orderings("ds,dp(1)", 2)
    assert "cover 1 of 2" in str(e.value)
    with pytest.raises(ParseError):
        parse_orderings("ds,", 2)


def test_expression_grammar():
    ring = parse_ring("ring 0 (x,y,z) dp")
    p = parse_poly("x^2 - 2*x*y + y^2", ring)
    assert p == parse_poly("(x-y)^2", ring)
    assert parse_poly("-(x+y)", ring) == -parse_poly("x+y", ring)
    assert parse_poly("3", ring) == ring.constant(3)
    assert serialize(parse_poly("1/2*x", ring)) == "1/2*x"
    assert parse_poly("x*(y+z)", ring) == parse_poly("x*y+x*z", ring)
    assert parse_poly("x^0", ring) == ring.constant(1)
    assert parse_poly("2^3*x", ring) == parse_poly("8*x", ring)


@pytest.mark.parametrize("text, column", [("3^65536", 3), ("(x+1)^65536", 7)])
def test_literal_powers_stay_in_the_exponent_range(text, column):
    ring = parse_ring("ring 0 (x,y) dp")
    with pytest.raises(ExponentOverflow) as e:
        parse_poly(text, ring)
    assert str(e.value) == (
        "exponent 65536 out of range [0, 2^16) (line 1, column %d)" % column)
    # the largest exponent in range still parses
    assert parse_poly("3^65535", ring) == ring.constant(3 ** 65535)


def test_parse_errors_carry_position():
    ring = parse_ring("ring 0 (x,y) dp")
    with pytest.raises(ParseError) as e:
        parse_poly("x + q", ring)
    assert "q" in str(e.value)
    with pytest.raises(ParseError):
        parse_poly("x ^ -2", ring)
    with pytest.raises(ParseError):
        parse_poly("x y", ring)  # implicit multiplication
    with pytest.raises(ParseError):
        parse_poly("(x", ring)
    with pytest.raises(ParseError):
        parse_poly("1/0", ring)


def test_serialize_is_canonical_and_parseable():
    ring = parse_ring("ring 0 (x,y,z) ds")
    p = parse_poly("z^3 + x*y - y^4", ring)
    text = serialize(p)
    assert text == "x*y+z^3-y^4"  # leading term first, unit coefficients bare
    assert parse_poly(text, ring) == p
    assert serialize(ring.zero()) == "0"


@pytest.mark.parametrize("tok", ["dp", "Dp", "lp", "ds", "ls"])
def test_round_trip_random(tok):
    ring = parse_ring("ring 0 (x,y,z) %s" % tok)
    rng = random.Random(SEED)
    for _ in range(300):
        p = ring.zero()
        for _ in range(rng.randint(0, 7)):
            exps = tuple(rng.randint(0, 6) for _ in range(3))
            p = p + ring.monomial(exps, rng.randint(-9, 9))
        assert parse_poly(serialize(p), ring) == p


def test_round_trip_rational_coefficients():
    from fractions import Fraction

    ring = parse_ring("ring 0 (x,y) dp")
    p = ring.monomial((1, 0), Fraction(3, 7)) + ring.monomial((0, 2), Fraction(-1, 2))
    assert parse_poly(serialize(p), ring) == p


def test_job_format():
    text = """
# a job
ring 0 (x,y,z) ds
f = x*y+z^3;       # binding
g = x*z+y*z^2+y^4;
tjurina;
milnor f, g;
"""
    statements = parse_job(text)
    kinds = [k for k, _, _ in statements]
    assert kinds == ["ring", "bind", "bind", "command", "command"]
    assert statements[1][1] == ("f", "x*y+z^3")
    assert statements[3][1] == ("tjurina", [])
    assert statements[4][1] == ("milnor", ["f", "g"])
    assert statements[4][2] == 7  # line numbers survive


def test_job_format_errors():
    with pytest.raises(ParseError):
        parse_job("2bad = x;")
    with pytest.raises(ParseError):
        parse_job("f = ;")
    with pytest.raises(ParseError):
        parse_job("milnor f,,g;")
