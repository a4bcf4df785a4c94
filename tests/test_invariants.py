"""Singularity invariants: mu, tau, multiplicity, quasi-homogeneity."""

from fractions import Fraction

import pytest

from germkit import (
    INFINITE,
    HypersurfaceGerm,
    SpaceCurveGerm,
    find_weights,
    ft_germ,
    full_report,
    is_quasihomogeneous,
    milnor,
    multiplicity,
    parse_poly,
    parse_ring,
    serialize,
    tjurina,
    weighted_degree_homogeneous,
    zariski_family,
)
from germkit.errors import (
    ModeOrderingMismatch,
    NonIsolated,
    ParameterOutOfRange,
    WrongVariableCount,
)


def _germ(text, names="x,y", char=0):
    ring = parse_ring("ring %d (%s) ds" % (char, names))
    return HypersurfaceGerm(parse_poly(text, ring))


# ---------------------------------------------------------------------------
# hypersurfaces


def test_a1_node():
    g = _germ("x^2+y^2")
    assert milnor(g) == 1 and tjurina(g) == 1 and multiplicity(g) == 2


def test_cusp():
    g = _germ("x^2+y^3")
    assert milnor(g) == 2 and tjurina(g) == 2
    assert is_quasihomogeneous(g) == "yes"


@pytest.mark.parametrize("a,b", [(2, 3), (3, 4), (2, 7), (4, 5)])
def test_brieskorn_plane_curves(a, b):
    g = _germ("x^%d+y^%d" % (a, b))
    want = (a - 1) * (b - 1)
    assert milnor(g) == want
    assert tjurina(g) == want
    assert multiplicity(g) == min(a, b)


@pytest.mark.parametrize("a,b,c", [(2, 3, 5), (3, 3, 3), (2, 2, 2)])
def test_brieskorn_surfaces(a, b, c):
    g = _germ("x^%d+y^%d+z^%d" % (a, b, c), names="x,y,z")
    assert milnor(g) == (a - 1) * (b - 1) * (c - 1)
    assert is_quasihomogeneous(g) == "yes"


def test_semi_quasihomogeneous_deformation():
    # higher-order term drops tau below mu but leaves mu at the principal part
    g = _germ("x^4+y^5+x^2*y^3")
    assert milnor(g) == 12
    assert tjurina(g) == 11
    assert is_quasihomogeneous(g) == "no"
    assert find_weights(g.f) is None


def test_non_isolated_singularity():
    g = _germ("x*y", names="x,y,z")
    assert milnor(g) is INFINITE
    with pytest.raises(NonIsolated):
        is_quasihomogeneous(g)


def test_char_p_is_undetermined():
    g = _germ("x^2+y^3", char=32003)
    assert is_quasihomogeneous(g) == "undetermined"


def test_germ_validation():
    ring = parse_ring("ring 0 (x,y) ds")
    with pytest.raises(ParameterOutOfRange):
        HypersurfaceGerm(parse_poly("1+x", ring))
    with pytest.raises(ModeOrderingMismatch):
        HypersurfaceGerm(parse_poly("x", parse_ring("ring 0 (x,y) dp")))


# ---------------------------------------------------------------------------
# weights


def test_find_weights_brieskorn():
    ring = parse_ring("ring 0 (x,y) ds")
    f = parse_poly("x^2+y^3", ring)
    assert find_weights(f) == (Fraction(1, 2), Fraction(1, 3))


def test_find_weights_certificate_property():
    ring = parse_ring("ring 0 (x,y,z) ds")
    for text in ("x^2+y^3+z^5", "x*y+z^4", "x^2*y+y^4+z^3"):
        f = parse_poly(text, ring)
        w = find_weights(f)
        assert w is not None
        assert all(wi > 0 for wi in w)
        assert weighted_degree_homogeneous(f, w)


def test_find_weights_underdetermined_pins_midpoint():
    ring = parse_ring("ring 0 (x,y) ds")
    f = parse_poly("x^2", ring)
    w = find_weights(f)
    assert w is not None and w[0] == Fraction(1, 2) and w[1] > 0
    assert weighted_degree_homogeneous(f, w)


# ---------------------------------------------------------------------------
# space curves


def test_ft_germ_construction():
    germ = ft_germ(5, 4)
    assert serialize(germ.f) == "x*y+z^3"
    assert serialize(germ.g) == "x*z+y*z^2+y^4"
    with pytest.raises(ParameterOutOfRange):
        ft_germ(4, 4)
    with pytest.raises(ParameterOutOfRange):
        ft_germ(5, 3)
    with pytest.raises(ParameterOutOfRange):
        ft_germ(5, 6)


@pytest.mark.parametrize("k,l", [(5, 4), (6, 4), (6, 5), (7, 7), (8, 8)])
def test_ft_invariants(k, l):
    germ = ft_germ(k, l)
    assert milnor(germ) == k + l + 2
    assert tjurina(germ) == k + l + 1
    assert is_quasihomogeneous(germ) == "no"


def test_plane_cusp_as_space_curve():
    ring = parse_ring("ring 0 (x,y,z) ds")
    germ = SpaceCurveGerm(parse_poly("z", ring), parse_poly("x^2+y^3", ring))
    assert milnor(germ) == 2
    assert tjurina(germ) == 2
    assert multiplicity(germ) == 2
    assert is_quasihomogeneous(germ) == "yes"


def test_smooth_curve():
    ring = parse_ring("ring 0 (x,y,z) ds")
    germ = SpaceCurveGerm(parse_poly("x", ring), parse_poly("y", ring))
    assert milnor(germ) == 0
    assert tjurina(germ) == 0
    assert multiplicity(germ) == 1


def test_space_curve_validation():
    ring = parse_ring("ring 0 (x,y) ds")
    with pytest.raises(WrongVariableCount):
        SpaceCurveGerm(parse_poly("x", ring), parse_poly("y", ring))


# ---------------------------------------------------------------------------
# the deformation family


def test_ft_germ_in_a_given_ring():
    germ = ft_germ(5, 4, ring=parse_ring("ring 0 (a,b,c) ds"))
    assert serialize(germ.f) == "a*b+c^3"
    assert milnor(germ) == 11
    with pytest.raises(WrongVariableCount):
        ft_germ(5, 4, ring=parse_ring("ring 0 (a,b) ds"))


def test_zariski_family_shape():
    f0 = zariski_family(40, 30, 8, 0)
    f1 = zariski_family(40, 30, 8, 1)
    assert len(f0) == 6 and len(f1) == 8
    assert f0.order() == 17 and f1.order() == 16
    with pytest.raises(ParameterOutOfRange):
        zariski_family(40, 30, 2, 0)


def test_zariski_multiplicities():
    for t, want in ((0, 17), (1, 16)):
        germ = HypersurfaceGerm(zariski_family(40, 30, 8, t))
        assert multiplicity(germ) == want


def test_zariski_central_fibre_milnor():
    ring = parse_ring("ring 32003 (x,y,z) ds")
    germ = HypersurfaceGerm(zariski_family(40, 30, 8, 0, ring=ring))
    assert milnor(germ) == 10661


def test_full_report():
    report = full_report(ft_germ(5, 4))
    assert report.mu == 11
    assert report.tau == 10
    assert report.multiplicity == 5
    assert report.quasi_homogeneous == "no"
    assert report.characteristic == 0
    data = report.to_json()
    assert data["mu"] == 11 and data["quasi_homogeneous"] == "no"


def test_full_report_flags_char_p():
    report = full_report(ft_germ(5, 4, ring=parse_ring("ring 32003 (x,y,z) ds")))
    assert report.quasi_homogeneous == "undetermined"
    assert report.note
