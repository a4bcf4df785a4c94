"""Differential forms and exactness of the Poincare complex."""

import random
from fractions import Fraction

import pytest

from germkit import poincare
from germkit import (
    DifferentialForm,
    OmegaPresentation,
    VectorElement,
    exactness_report,
    exterior_derivative,
    ft_germ,
    omega_dimension,
    parse_poly,
    parse_ring,
    reiffen_condition_1,
    reiffen_condition_2,
    wedge,
)
from germkit.errors import (
    DegreeOverflow,
    NonIsolated,
    ParameterOutOfRange,
    ResourceExhausted,
    WrongVariableCount,
)
from germkit.poincare import MAX_CONDITION1_ORDER

SEED = 424


@pytest.fixture
def ring():
    return parse_ring("ring 0 (x,y,z) ds")


def _rand_poly(rng, ring, terms=3, deg=3):
    p = ring.zero()
    for _ in range(rng.randint(0, terms)):
        e = [0, 0, 0]
        for _ in range(rng.randint(0, deg)):
            e[rng.randrange(3)] += 1
        p = p + ring.monomial(tuple(e), rng.randint(-4, 4))
    return p


def _rand_form(rng, ring, degree):
    width = (1, 3, 3, 1)[degree]
    return DifferentialForm(
        ring, degree, tuple(_rand_poly(rng, ring) for _ in range(width))
    )


# ---------------------------------------------------------------------------
# the exterior algebra


def test_form_validation(ring):
    with pytest.raises(DegreeOverflow):
        DifferentialForm(ring, 4, (ring.zero(),))
    with pytest.raises(ParameterOutOfRange):
        DifferentialForm(ring, 1, (ring.zero(),))
    with pytest.raises(WrongVariableCount):
        DifferentialForm(parse_ring("ring 0 (x,y) ds"), 0, (0,))


def test_gradient_curl_divergence(ring):
    x, y, z = (ring.variable(i) for i in range(3))
    f = DifferentialForm.function(x * y + z * z * z)
    df = exterior_derivative(f)
    assert df.coeffs == (y, x, 3 * z * z)
    ddf = exterior_derivative(df)
    assert ddf.is_zero
    with pytest.raises(DegreeOverflow):
        exterior_derivative(DifferentialForm.zero(ring, 3))


def test_wedge_small_cases(ring):
    x, y, z = (ring.variable(i) for i in range(3))
    dx = DifferentialForm(ring, 1, (ring.constant(1), ring.zero(), ring.zero()))
    dy = DifferentialForm(ring, 1, (ring.zero(), ring.constant(1), ring.zero()))
    dz = DifferentialForm(ring, 1, (ring.zero(), ring.zero(), ring.constant(1)))
    assert wedge(dx, dy).coeffs[2] == ring.constant(1)  # dx^dy slot
    assert wedge(dy, dx).coeffs[2] == ring.constant(-1)
    assert wedge(dx, dx).is_zero
    top = wedge(wedge(dx, dy), dz)
    assert top.degree == 3 and top.coeffs[0] == ring.constant(1)
    with pytest.raises(DegreeOverflow):
        wedge(top, dx)


def test_calculus_properties_random(ring):
    rng = random.Random(SEED)
    for _ in range(120):
        a = _rand_form(rng, ring, rng.choice([0, 1]))
        assert exterior_derivative(exterior_derivative(a)).is_zero
    for _ in range(120):
        ka, kb = rng.choice([(0, 1), (1, 1), (1, 2), (0, 2)])
        a, b = _rand_form(rng, ring, ka), _rand_form(rng, ring, kb)
        left = wedge(a, b)
        right = wedge(b, a)
        if (ka * kb) % 2:
            right = -right
        assert left == right
    for _ in range(120):
        ka, kb = rng.choice([(0, 0), (0, 1), (1, 0), (1, 1)])
        a, b = _rand_form(rng, ring, ka), _rand_form(rng, ring, kb)
        tail = wedge(a, exterior_derivative(b))
        if ka % 2:
            tail = -tail
        assert exterior_derivative(wedge(a, b)) == wedge(
            exterior_derivative(a), b
        ) + tail


def test_form_str_mentions_basis(ring):
    one = DifferentialForm(ring, 2, (ring.constant(1), ring.zero(), ring.zero()))
    assert "dy^dz" in str(one)


# ---------------------------------------------------------------------------
# Omega dimensions. The goldens were frozen from an independent dense
# rank computation over the rationals (monomial multiples of the relation
# generators, truncated at increasing jets until the count stabilized).


def _oracle_omega_dim(f, g, k, jet):
    """dim Omega^k by brute-force row reduction over Q, truncated at `jet`."""
    ring = f.ring
    width = (1, 3, 3, 1)[k]
    monos = [()]
    for _ in range(3):
        monos = [m + (e,) for m in monos for e in range(jet - sum(m))]
    monos = sorted(m for m in monos if sum(m) < jet)
    col = {(i, m): j for j, (i, m) in enumerate(
        (i, m) for i in range(width) for m in monos
    )}

    pres = OmegaPresentation(f, g, k)
    rows = []
    for gen in pres.generators:
        for m in monos:
            shifted = [ring.monomial(m) * c for c in gen.components()]
            row = [Fraction(0)] * len(col)
            hit = False
            for i, p in enumerate(shifted):
                for coeff, exps in p.terms():
                    if sum(exps) < jet:
                        row[col[(i, exps)]] = Fraction(coeff)
                        hit = True
            if hit:
                rows.append(row)
    # plain Gauss over Q
    rank = 0
    ncols = len(col)
    pivots = {}
    for row in rows:
        for c in range(ncols):
            if not row[c]:
                continue
            if c in pivots:
                piv = pivots[c]
                factor = row[c] / piv[c]
                for j in range(c, ncols):
                    row[j] -= factor * piv[j]
            else:
                pivots[c] = row
                rank += 1
                break
    return len(col) - rank


def test_omega_dims_ft54_match_frozen_oracle():
    germ = ft_germ(5, 4)
    assert omega_dimension(germ.f, germ.g, 2) == 12
    assert omega_dimension(germ.f, germ.g, 3) == 1
    # the oracle stabilizes at these values for consecutive jets
    assert _oracle_omega_dim(germ.f, germ.g, 3, 6) == 1
    assert _oracle_omega_dim(germ.f, germ.g, 3, 7) == 1


def test_omega_dims_cusp(ring):
    f = parse_poly("z", ring)
    g = parse_poly("x^2+y^3", ring)
    assert omega_dimension(f, g, 2) == 2
    assert omega_dimension(f, g, 3) == 0
    assert _oracle_omega_dim(f, g, 2, 6) == 2
    assert _oracle_omega_dim(f, g, 2, 8) == 2


def test_omega_presentation_generator_counts(ring):
    f = parse_poly("x*y+z^3", ring)
    g = parse_poly("x*z+y*z^2+y^4", ring)
    # h*omega over {f,g} plus dh^eta over {f,g}: 2*C(3,k) + 2*C(3,k-1)
    assert len(OmegaPresentation(f, g, 2).generators) == 2 * 3 + 2 * 3
    assert len(OmegaPresentation(f, g, 3).generators) == 2 * 1 + 2 * 3
    with pytest.raises(ParameterOutOfRange):
        OmegaPresentation(f, g, 1)


def _wedge_generators(h, k):
    """dh ^ w over the basis (k-1)-forms w, by the generic wedge."""
    ring = h.ring
    dh = exterior_derivative(DifferentialForm.function(h))
    width = (1, 3, 3, 1)[k - 1]
    out = []
    for i in range(width):
        w = DifferentialForm(ring, k - 1, tuple(int(j == i) for j in range(width)))
        out.append(VectorElement.from_components(wedge(dh, w).coeffs,
                                                 rank=(1, 3, 3, 1)[k]))
    return out


@pytest.mark.parametrize("char", [0, 2, 7, 32003])
def test_omega_generators_equal_the_wedge_route(char):
    ring = parse_ring("ring %d (x,y,z) ds" % char)
    rng = random.Random(SEED + char)
    pairs = [(germ.f, germ.g) for germ in
             (ft_germ(k, l, ring) for k, l in [(5, 4), (7, 5), (9, 9)])]
    while len(pairs) < 12:
        f, g = (p - p.constant_term() for p in (_rand_poly(rng, ring),
                                                 _rand_poly(rng, ring)))
        if f and g:
            pairs.append((f, g))
    for f, g in pairs:
        for k in (2, 3):
            pres = OmegaPresentation(f, g, k)
            # the h * omega generators come first, one per basis k-form
            tail = pres.generators[2 * pres.rank:]
            assert list(tail) == _wedge_generators(f, k) + _wedge_generators(g, k)


# ---------------------------------------------------------------------------
# Reiffen conditions


def test_condition_2_on_ft_germs():
    for k, l in [(5, 4), (6, 4)]:
        germ = ft_germ(k, l)
        res = reiffen_condition_2(germ.f, germ.g)
        assert res.holds
        assert res.mu == k + l + 2
        assert res.mu == res.dim_omega2 - res.dim_omega3


def test_condition_1_auto_on_ft54():
    germ = ft_germ(5, 4)
    res = reiffen_condition_1(germ.f, germ.g)
    assert res.verified and res.order == 3
    assert "verified-to-order" in res.label()


def test_condition_1_explicit_orders_are_monotone():
    germ = ft_germ(5, 4)
    auto = reiffen_condition_1(germ.f, germ.g)
    for n in range(auto.order + 1):
        step = reiffen_condition_1(germ.f, germ.g, n)
        assert step.verified  # verified at N implies verified below N


def test_condition_1_order_zero_is_vacuous(ring):
    res = reiffen_condition_1(parse_poly("x", ring), parse_poly("y", ring), 0)
    assert res.verified and res.order == 0 and "vacuous" in res.note


def _literal_condition_1(f, g, order):
    """(verdict, span dimension) of condition 1 built from its definition:
    the rows are the truncations below `order` of d(m*h * w), computed as
    (m*h).partial(i) for every monomial m of degree <= order."""
    ring = f.ring

    def truncated(p):
        return {e: c for c, e in p.terms() if sum(e) < order}

    span = poincare._SparseSpan(ring.field)
    for m in poincare._monomials_up_to(order):
        for h in (f, g):
            q = ring.monomial(m) * h
            for i in range(3):
                row = truncated(q.partial(i))
                if row:
                    span.insert(row)
    verified = span.contains(truncated(f)) and span.contains(truncated(g))
    return verified, len(span.pivots)


def _condition_1_with_span(f, g, order, monkeypatch):
    """(verdict, span dimension) of reiffen_condition_1 itself."""
    spans = []

    class Recorded(poincare._SparseSpan):
        def __init__(self, field):
            super().__init__(field)
            spans.append(self)

    with monkeypatch.context() as mp:
        mp.setattr(poincare, "_SparseSpan", Recorded)
        res = reiffen_condition_1(f, g, order)
    assert res.order == order
    return res.verified, sum(len(s.pivots) for s in spans)


def _rand_germ_poly(rng, ring):
    """A nonzero polynomial without constant term, degree at most 5."""
    while True:
        p = ring.zero()
        for _ in range(rng.randint(1, 4)):
            e = [0, 0, 0]
            for _ in range(rng.randint(1, 5)):
                e[rng.randrange(3)] += 1
            p = p + ring.monomial(tuple(e), rng.randint(-4, 4))
        if p:
            return p


@pytest.mark.parametrize("char", [0, 2, 7, 32003])
def test_condition_1_rows_match_the_literal_definition(char, monkeypatch):
    # in characteristic 2 and 7 some derivatives vanish term by term, which
    # the rows must drop exactly as Polynomial.partial does
    ring = parse_ring("ring %d (x,y,z) ds" % char)
    rng = random.Random(SEED + char)
    for _ in range(6):
        f, g = _rand_germ_poly(rng, ring), _rand_germ_poly(rng, ring)
        assert reiffen_condition_1(f, g, 0).verified
        for order in range(1, 7):
            got = _condition_1_with_span(f, g, order, monkeypatch)
            assert got == _literal_condition_1(f, g, order), (f, g, order)


def test_condition_1_refutation_in_characteristic_two(monkeypatch):
    # every ft-corpus germ verifies, so a span too large would change no
    # output there; this pair refutes, and so does the literal span
    ring = parse_ring("ring 2 (x,y,z) ds")
    f, g = parse_poly("x*y^2", ring), parse_poly("z+x*y*z", ring)
    assert reiffen_condition_1(f, g, 5).label() == "refuted-at-order 5"
    got = _condition_1_with_span(f, g, 5, monkeypatch)
    assert got == _literal_condition_1(f, g, 5)
    assert not got[0]


def test_condition_1_refusals():
    germ = ft_germ(5, 4)
    with pytest.raises(ResourceExhausted, match="refused at order 65"):
        reiffen_condition_1(germ.f, germ.g, MAX_CONDITION1_ORDER + 1)
    with pytest.raises(ParameterOutOfRange):
        reiffen_condition_1(germ.f, germ.g, -1)


def test_non_isolated_pair_raises(ring):
    # the combined ideal (x^2, x^3) + j = (x): no pure y or z power
    with pytest.raises(NonIsolated, match=r"<f,g> \+ j\(f\) \+ j\(g\)"):
        reiffen_condition_1(parse_poly("x^2", ring), parse_poly("x^3", ring))


def test_exactness_report_ft54():
    germ = ft_germ(5, 4)
    report = exactness_report(germ.f, germ.g)
    assert report.verdict == "exact-up-to-order-3"
    assert report.quasi_homogeneous == "no"
    assert report.mu == 11
    data = report.to_json()
    assert data["verdict"] == "exact-up-to-order-3"
    assert data["mu"] == 11
    assert data["dim_omega2"] == 12 and data["dim_omega3"] == 1


def test_exactness_report_quasihomogeneous_cusp(ring):
    report = exactness_report(parse_poly("z", ring), parse_poly("x^2+y^3", ring))
    assert report.verdict.startswith("exact-up-to-order-")
    assert report.quasi_homogeneous == "yes"
    assert report.mu == 2
