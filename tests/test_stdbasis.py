"""Standard basis engine: reduction, bases, staircases, jets."""

import random
import time
from fractions import Fraction

import pytest

from germkit import (
    INFINITE,
    HypersurfaceGerm,
    RingContext,
    Staircase,
    Strategy,
    VectorElement,
    ecart,
    ft_germ,
    highest_corner,
    is_member,
    jet_dimensions,
    kbase,
    local_vdim,
    milnor,
    normal_form,
    parse_poly,
    parse_ring,
    serialize,
    spoly,
    std,
    vdim,
    zariski_family,
)
from germkit.errors import (
    ExponentOverflow,
    InfiniteDimensional,
    ModeOrderingMismatch,
    ParameterOutOfRange,
    ResourceExhausted,
    ZeroPolynomial,
)
from germkit.acceptance import _oracle_vdim
from germkit.coeff import PrimeField, RationalField
from germkit.ring import POSITION_OVER_TERM
from germkit import stdbasis
from germkit.stdbasis import PAIR_SELECTIONS, _basis_corner

SEED = 20259


def _ring(tok, char=0, names="x,y,z"):
    return parse_ring("ring %d (%s) %s" % (char, names, tok))


def _lead_set(basis):
    return sorted(exps for exps, _ in basis.leading_exponents())


# ---------------------------------------------------------------------------
# ecart and s-polynomials


def test_ecart_examples():
    loc = _ring("ds", names="x")
    assert ecart(parse_poly("x-x^2", loc)) == 1
    glob = _ring("dp")
    assert ecart(parse_poly("x+y", glob)) == 0
    assert ecart(parse_poly("x^2*y+z^3", glob)) == 0  # homogeneous
    with pytest.raises(ZeroPolynomial):
        ecart(glob.zero())


def test_spoly_examples():
    ring = _ring("dp", names="x,y")
    f = parse_poly("x^2+y", ring)
    g = parse_poly("x*y+1", ring)
    assert spoly(f, g) == parse_poly("y^2-x", ring)
    assert spoly(f, f).is_zero
    h = spoly(parse_poly("x^2+y", ring), parse_poly("y^2+x", ring))
    assert ring.compare(h.lead_exponents, (2, 2)) < 0


@pytest.mark.parametrize(
    "tok, f, g, want",
    [
        # leads x*e2 and y*e2: y*f - x*g
        ("ds", ("y^2", "x+y^3"), ("x^2", "y+x^2"), ("y^3-x^3", "y^4-x^3")),
        # leads x^2*e1 and x*y*e1: y*f - x*g
        ("dp", ("x^2+y", "x"), ("x*y", "y^2+1"), ("y^2", "x*y-x*y^2-x")),
    ],
    ids=["ds", "dp"],
)
def test_spoly_of_module_elements(tok, f, g, want):
    ring = _ring(tok, names="x,y")

    def vec(parts):
        return VectorElement.from_components([parse_poly(s, ring) for s in parts])

    assert spoly(vec(f), vec(g)) == vec(want)


# ---------------------------------------------------------------------------
# normal form


def test_mora_normal_form_unit_factor():
    ring = _ring("ds", names="x")
    f = parse_poly("x-x^2", ring)
    assert normal_form(parse_poly("x", ring), [f]).is_zero


def test_buchberger_normal_form():
    ring = _ring("dp", names="x,y")
    g = parse_poly("x^2-1", ring)
    assert normal_form(parse_poly("x^2*y", ring), [g]) == parse_poly("y", ring)


def test_buchberger_normal_form_is_exact_over_q():
    # x^2 + y - (x + 1/2*y)(x - 1/2*y) = 1/4*y^2 + y, no scalar multiple of it
    ring = _ring("dp", names="x,y")
    g = parse_poly("x-1/2*y", ring)
    assert normal_form(parse_poly("x^2+y", ring), [g]) == parse_poly("1/4*y^2+y", ring)


def test_mora_normal_form_is_exact_over_q():
    # x*y - y*(x + 1/2*y^2) = -1/2*y^3; the reducer's ecart exceeds that of
    # x*y, so x*y joins the reducers first, and y^3 is divisible by neither
    ring = _ring("ds", names="x,y")
    g = parse_poly("x+1/2*y^2", ring)
    assert normal_form(parse_poly("x*y", ring), [g]) == parse_poly("-1/2*y^3", ring)


@pytest.mark.parametrize("char", [0, 32003])
def test_reduction_step_past_the_exponent_range_raises(char):
    # under lp, x leads x + y^60000; cancelling x*y^10000 needs y^70000
    ring = _ring("lp", char, "x,y")
    g = parse_poly("x+y^60000", ring)
    with pytest.raises(ExponentOverflow):
        normal_form(parse_poly("x*y^10000", ring), [g])
    with pytest.raises(ExponentOverflow):
        spoly(g, parse_poly("x*y^10000+1", ring))


def test_buchberger_mode_needs_global_ordering():
    ring = _ring("ds", names="x,y")
    with pytest.raises(ModeOrderingMismatch):
        std([parse_poly("x+y^2", ring)], mode="buchberger")


def test_membership_by_construction():
    rng = random.Random(SEED)
    for tok in ("dp", "ds"):
        ring = _ring(tok)
        for _ in range(20):
            def rand(maxdeg, terms):
                p = ring.zero()
                for _ in range(rng.randint(1, terms)):
                    e = [0, 0, 0]
                    for _ in range(rng.randint(0, maxdeg)):
                        e[rng.randrange(3)] += 1
                    p = p + ring.monomial(tuple(e), rng.randint(-3, 3))
                return p

            g1, g2 = rand(3, 3), rand(3, 3)
            if not g1 or not g2:
                continue
            f = rand(2, 2) * g1 + rand(2, 2) * g2
            if not f:
                continue
            basis = std([g1, g2])
            assert is_member(f, basis)


# ---------------------------------------------------------------------------
# std


def test_monomial_ideal_is_its_own_basis():
    ring = _ring("lp", names="x,y")
    basis = std([parse_poly("x^2", ring), parse_poly("y^3", ring)])
    assert _lead_set(basis) == [(0, 3), (2, 0)]


def test_unit_factor_collapses_locally():
    ring = _ring("ds", names="x,y")
    basis = std([parse_poly("x-x^2", ring)])
    assert _lead_set(basis) == [(1, 0)]


def test_ft54_tjurina_ideal_staircase():
    from germkit import ft_germ

    germ = ft_germ(5, 4)
    basis = std([germ.f, germ.g] + list(germ.minors()))
    assert vdim(basis) == 10  # tau


def test_generators_are_members():
    ring = _ring("ds")
    gens = [
        parse_poly("x*y+z^3", ring),
        parse_poly("x*z+y*z^2+y^4", ring),
        parse_poly("x^2-y^5+z^4", ring),
    ]
    basis = std(gens)
    for g in gens:
        assert is_member(g, basis)


def test_minimality_no_lead_divides_another():
    ring = _ring("ds")
    gens = [parse_poly(s, ring) for s in ("x^2+y^3", "x*y-z^4", "z^2-x*y^2")]
    basis = std(gens)
    leads = _lead_set(basis)
    for a in leads:
        for b in leads:
            if a != b:
                assert not all(x <= y for x, y in zip(a, b))


def test_strategy_invariance_spot_check():
    # under dp the product criterion discards pairs too; tails may differ
    # between strategies, leading ideals may not
    for tok in ("ds", "dp", "ls", "dp(1),ds(2)"):
        ring = _ring(tok)
        gens = [parse_poly(s, ring) for s in ("x^2+y^3", "x*y-z^4", "z^2-x*y^2")]
        leads = {tuple(_lead_set(std(gens, Strategy(pair)))) for pair in PAIR_SELECTIONS}
        assert len(leads) == 1


def _random_poly(rng, ring, max_terms, max_deg, coefficients):
    """A sum of up to max_terms terms of degrees 1..max_deg, with
    coefficients drawn from the given sequence."""
    p = ring.zero()
    for _ in range(rng.randint(1, max_terms)):
        e = [0] * ring.n
        for _ in range(rng.randint(1, max_deg)):
            e[rng.randrange(ring.n)] += 1
        p = p + ring.monomial(tuple(e), rng.choice(coefficients))
    return p


def _random_std_inputs(rng, count, char=32003, coefficients=range(1, 32003),
                       max_terms=3, max_deg=4):
    """Random ideals under dp, ds, ls and dp(1),ds(2), and rank-2 modules
    under ds (one degree lower), in turn."""
    for k in range(count):
        tok = ("dp", "ds", "ls", "dp(1),ds(2)", "module")[k % 5]
        if tok == "module":
            ring = _ring("ds", char, "x,y")
            gens = [
                VectorElement.from_components(
                    [_random_poly(rng, ring, max_terms, max_deg - 1, coefficients)
                     for _ in range(2)]
                )
                for _ in range(rng.randint(2, 4))
            ]
        else:
            names = "x,y,z" if tok == "dp(1),ds(2)" else rng.choice(["x,y", "x,y,z"])
            ring = _ring(tok, char, names)
            gens = [
                _random_poly(rng, ring, max_terms, max_deg, coefficients)
                for _ in range(rng.randint(2, 4))
            ]
        yield [g for g in gens if g]


# Over Q a reduction step rescales the work polynomial whenever the
# reducer's tail has denominators, and tangent-cone snapshots get fractional
# tails. Two terms of degree at most 3 keep the Mora runs short: the reduction
# ceiling bounds steps, not coefficient growth, which larger inputs show.
RATIONALS = (Fraction(1, 2), Fraction(-1, 2), Fraction(3, 4), Fraction(-2, 3),
             Fraction(5, 3), 1, -1, 2)


def _rational_std_inputs(rng, count):
    return _random_std_inputs(rng, count, 0, RATIONALS, max_terms=2, max_deg=3)


def _assert_spoly_criterion(inputs, minimum):
    """Every s-polynomial of two output generators in one component reduces
    to 0; at least `minimum` inputs finish within the reduction ceiling."""
    checked = 0
    for gens in inputs:
        if not gens:
            continue
        try:
            basis = std(gens, ceiling=5000)
            comps = [c for _, c in basis.leading_exponents()]
            out = list(basis)
            remainders = [
                normal_form(spoly(out[i], out[j]), basis, ceiling=5000)
                for i in range(len(out))
                for j in range(i)
                if comps[i] == comps[j]
            ]
        except ResourceExhausted:
            continue  # a few unbounded Mora runs outgrow the ceiling
        assert not any(remainders), [str(g) for g in gens]
        checked += 1
    assert checked >= minimum


def test_std_output_passes_the_spoly_criterion():
    """Buchberger/Mora criterion, independent of the pair criteria."""
    _assert_spoly_criterion(_random_std_inputs(random.Random(SEED), 600), 590)


def test_std_output_passes_the_spoly_criterion_over_q():
    _assert_spoly_criterion(_rational_std_inputs(random.Random(SEED), 600), 600)


MERSENNE_61 = 2 ** 61 - 1


def _mod_image(g, ring):
    """g with every coefficient mapped into ring, a copy of g's ring over F_p
    (ring.monomial maps each one with PrimeField.coerce)."""
    if isinstance(g, VectorElement):
        return VectorElement.from_components(
            [_mod_image(c, ring) for c in g.components()], g.rank
        )
    return sum((ring.monomial(e, c) for c, e in g.terms()), ring.zero())


def test_std_over_q_maps_onto_std_mod_p():
    """Modular-image oracle: over a large prime the elementary steps of a
    run over Q map one to one, so std and normal_form commute with the map
    into F_p."""
    rng = random.Random(SEED + 1)
    for gens in _rational_std_inputs(rng, 200):
        if not gens:
            continue
        ring = gens[0].ring
        ring_p = RingContext(MERSENNE_61, ring.variables, ring.ordering)
        basis = std(gens, ceiling=5000)
        basis_p = std([_mod_image(g, ring_p) for g in gens], ceiling=5000)
        assert [_mod_image(g, ring_p) for g in basis] == list(basis_p)
        # an element of the ideal plus one drawn like the generators
        f = gens[-1] + gens[0] * _random_poly(rng, ring, 2, 2, RATIONALS)
        if isinstance(f, VectorElement):
            f = f + VectorElement.from_components(
                [_random_poly(rng, ring, 2, 2, RATIONALS) for _ in range(2)]
            )
        else:
            f = f + _random_poly(rng, ring, 2, 3, RATIONALS)
        assert _mod_image(normal_form(f, basis), ring_p) == normal_form(
            _mod_image(f, ring_p), basis_p
        )


@pytest.mark.parametrize(
    "germ, mu",
    [
        (lambda ring: HypersurfaceGerm(zariski_family(16, 12, 4, 1, ring=ring)), 891),
        (lambda ring: ft_germ(5, 4, ring=ring), 11),
        (lambda ring: ft_germ(8, 8, ring=ring), 18),
        (lambda ring: ft_germ(12, 7, ring=ring), 21),
    ],
    ids=["zariski-16-12-4-t1", "ft-5-4", "ft-8-8", "ft-12-7"],
)
def test_milnor_over_q_equals_milnor_mod_a_large_prime(germ, mu):
    assert [milnor(germ(_ring("ds", char))) for char in (0, MERSENNE_61)] == [mu, mu]


def test_buchberger_against_sympy():
    import sympy

    xs = sympy.symbols("x y z")
    ring = _ring("dp")
    cases = [
        ("x^2+y", "x*y-1", "z-1"),
        ("x^3-y^2", "y^3-x*z", "x*y-z^2"),
        ("x^2+y^2+z^2-1", "x*y-z", "y*z-x"),
    ]
    # random ideals over Q in 2-3 variables, where the product criterion fires
    rng = random.Random(SEED)
    for _ in range(40):
        small = _ring("dp", names=rng.choice(["x,y", "x,y,z"]))
        gens = [
            _random_poly(rng, small, 3, 3, (-3, -2, -1, 1, 2, 3))
            for _ in range(rng.randint(2, 3))
        ]
        cases.append(tuple(serialize(g) for g in gens if g))
    for texts in cases:
        ours = std([parse_poly(t, ring) for t in texts], mode="buchberger")
        theirs = sympy.groebner(
            [sympy.sympify(t.replace("^", "**")) for t in texts],
            *xs,
            order="grevlex",
        )
        lead = sorted(
            tuple(int(e) for e in p.LM(order="grevlex").exponents)
            for p in theirs.polys
        )
        assert _lead_set(ours) == lead, texts
        # global std returns the reduced basis, which is unique
        want = sorted(sorted((tuple(m), Fraction(int(c.p), int(c.q))) for m, c in
                             p.to_field().quo_ground(p.LC(order="grevlex")).terms())
                      for p in theirs.polys)
        assert _basis_terms(ours) == want, texts


def _basis_terms(basis):
    """Each generator's (exponents, coefficient) terms, sorted, in sorted
    order: a basis as data that does not depend on its order."""
    lay = basis.layout
    return sorted(sorted((lay.decode_exps(code), Fraction(v)) for code, v in g._terms)
                  for g in basis)


def _assert_reduced(basis):
    """Monic generators, and no term of one divisible by the lead of
    another (in the same component, for a module)."""
    lay = basis.layout
    leads = [g._terms[0][0] for g in basis]
    for g in basis:
        lead, coefficient = g._terms[0]
        assert coefficient == 1
        assert [m for m in leads if lay.divides(m, lead)] == [lead]
        assert not any(lay.divides(m, code) for code, _ in g._terms[1:] for m in leads)


def test_global_std_is_one_reduced_basis_under_every_strategy():
    # the signature loop takes its elements in signature order whatever the
    # pair selection, and the basis it returns is the reduced one
    gens = _katsura(4, _ring("dp", 0, "u0,u1,u2,u3,u4"))
    runs = [std(gens, Strategy(pair)) for pair in PAIR_SELECTIONS]
    _assert_reduced(runs[0])
    assert len({tuple(map(str, basis)) for basis in runs}) == 1
    assert len({(b.stats.pairs, b.stats.discarded, b.stats.reductions)
                for b in runs}) == 1


@pytest.mark.parametrize("char", (32003, 0))
def test_signature_counts_on_katsura4(char):
    # (J-pairs formed, J-pairs dropped, elementary steps): a J-pair is
    # dropped by the syzygy or cover criterion, or for a J-pair of smaller
    # lcm at its signature, and the steps include the interreduction; the
    # pair queue of tangent-cone reduction takes (171, 137, 1723) and
    # (105, 77, 1228) on the same inputs
    for gens, want in ((_katsura4(char)[0], (120, 105, 487)),
                       (_katsura4_linear_first(char)[0], (91, 81, 290))):
        stats = std(gens).stats
        assert (stats.pairs, stats.discarded, stats.reductions) == want


def test_the_ceiling_counts_every_j_pair():
    # a J-pair formed counts toward the ceiling as a step does, so a run
    # that forms many pairs and reduces few is bounded too
    gens = _katsura4(32003)[0]
    stats = std(gens).stats
    work = stats.pairs + stats.reductions
    with pytest.raises(ResourceExhausted, match="ceiling of %d " % (work - 1)):
        std(gens, ceiling=work - 1)
    assert std(gens, ceiling=work).stats.reductions == stats.reductions


@pytest.mark.parametrize("tok, rule", [
    ("dp", None), ("Dp", POSITION_OVER_TERM), ("lp", None), ("lp", POSITION_OVER_TERM),
])
def test_global_modules_agree_with_tangent_cone_reduction(tok, rule):
    # the signature loop on rank-2 modules, which have no principal
    # syzygies: the same leading module as the pair queue, every input in
    # the span, the s-polynomial criterion, and a reduced basis
    rng = random.Random(SEED + 7)
    ring = RingContext(32003, ("x", "y"), tok, module_rule=rule)
    done = 0
    for _ in range(40):
        gens = [VectorElement.from_components(
            [_random_poly(rng, ring, 2, 3, range(1, 32003)) for _ in range(2)])
            for _ in range(rng.randint(2, 4))]
        basis = std(gens)
        try:
            mora = std(gens, mode="mora", ceiling=5000)
        except ResourceExhausted:
            continue
        assert _lead_set(basis) == _lead_set(mora)
        assert not any(normal_form(g, basis) for g in gens)
        assert not any(normal_form(g, mora, ceiling=5000) for g in basis)
        out = list(basis)
        comps = [c for _, c in basis.leading_exponents()]
        assert not any(normal_form(spoly(out[i], out[j]), basis)
                       for i in range(len(out)) for j in range(i)
                       if comps[i] == comps[j])
        _assert_reduced(basis)
        done += 1
    assert done >= 30


def test_reduction_ceiling():
    ring = _ring("ds")
    gens = [parse_poly("x*y+z^3", ring), parse_poly("x*z+y*z^2+y^4", ring)]
    with pytest.raises(ResourceExhausted):
        std(gens + [parse_poly("x^2-y^5+z^4", ring)], ceiling=3)


def test_coefficient_bound_over_q():
    # tangent-cone reduction of this pair doubles the bit length of the work
    # polynomial's denominator about every 10 steps: without the bound step
    # 170 holds a denominator of 1.96 M bits, and 200 steps take minutes
    ring = parse_ring("0 (x,y) ds")
    f = parse_poly("-11*x^2*y+8*x*y^2+5/4*x^3*y-6*x^2*y^3-5*x^3*y^3", ring)
    g = parse_poly("-2*x-3*x*y^2-3*x*y^3+3*x^2*y^3-4/5*x^3*y^3", ring)
    t0 = time.perf_counter()
    with pytest.raises(ResourceExhausted, match="coefficient bound of 65536 bits"):
        std([f, g], ceiling=2000)
    assert time.perf_counter() - t0 < 1.0


def test_a_negative_ceiling_is_refused():
    # x^2, y^3 form no pair, so no step would ever test the ceiling
    ring = _ring("ds", names="x,y")
    gens = [parse_poly("x^2", ring), parse_poly("y^3", ring)]
    xy = parse_poly("x*y", ring)
    for call in (lambda c: std(gens, ceiling=c),
                 lambda c: std([ring.zero()], ceiling=c),
                 lambda c: normal_form(xy, gens, ceiling=c),
                 lambda c: local_vdim(gens, ceiling=c)):
        with pytest.raises(ParameterOutOfRange, match="ceiling"):
            call(-1)
    # a ceiling of 0 allows runs that take no step
    assert vdim(std(gens, ceiling=0)) == 6
    assert local_vdim(gens, ceiling=0)[0] == 6
    assert normal_form(xy, gens, ceiling=0) == xy


def test_is_member_checks_the_ceiling_before_the_zero_shortcut():
    ring = _ring("ds", names="x,y")
    basis = std([parse_poly("x^2", ring), parse_poly("y^3", ring)])
    for f in (ring.zero(), parse_poly("x*y", ring)):
        with pytest.raises(ParameterOutOfRange, match="ceiling"):
            is_member(f, basis, ceiling=-1)
    assert is_member(ring.zero(), basis, ceiling=0)


# ---------------------------------------------------------------------------
# the engine's coefficient arithmetic


def _katsura(n, ring):
    """Katsura-n in u0..un."""
    def u(k):
        return "u%d" % abs(k) if abs(k) <= n else None
    texts = ["+".join("%s*%s" % (u(i), u(m - i)) for i in range(-n, n + 1)
                      if u(i) and u(m - i)) + "-u%d" % m for m in range(n)]
    texts.append("u0+" + "+".join("2*u%d" % i for i in range(1, n + 1)) + "-1")
    return [parse_poly(t, ring) for t in texts]


def _katsura4(char):
    return _katsura(4, _ring("dp", char, "u0,u1,u2,u3,u4")), None


def _ft88_tjurina():
    return ft_germ(8, 8).tjurina_generators(), 32


def _snapshot_run(char):
    # unbounded tangent-cone reduction that adds 9 snapshots of the work
    # polynomial to its reducers
    ring = _ring("dp(1),ds(2)", char)
    return [parse_poly(t, ring) for t in ("2*y+3*z^3+x*y", "z-1/2*y^2+x*z^2",
                                          "x^2-y*z")], None


FIELD_METHODS = ("add", "sub", "mul", "div", "neg", "inv")


@pytest.mark.parametrize("case", [
    pytest.param(lambda: _katsura4(0), id="katsura4-dp-q"),
    pytest.param(lambda: _katsura4(32003), id="katsura4-dp-32003"),
    pytest.param(_ft88_tjurina, id="ft88-tjurina-jet32-ds-q"),
    pytest.param(lambda: _snapshot_run(0), id="tangent-cone-q"),
    pytest.param(lambda: _snapshot_run(32003), id="tangent-cone-32003"),
])
def test_the_engine_makes_no_coefficient_field_call(case, monkeypatch):
    # coefficients enter the engine as integer numerators and leave it as
    # field values, with no field arithmetic in between
    gens, jet = case()
    f = gens[0] * gens[-1] + gens[1]
    calls = []

    def counted(method):
        def wrapper(*args):
            calls.append(method.__name__)
            return method(*args)
        return wrapper

    for cls in (RationalField, PrimeField):
        for name in FIELD_METHODS:
            monkeypatch.setattr(cls, name, counted(getattr(cls, name)))
    basis = std(gens, jet=jet)
    nf = normal_form(f, basis)
    s = spoly(gens[0], gens[1])
    assert calls == []
    monkeypatch.undo()
    assert len(basis) > 1 and s
    if jet is None:
        assert not nf  # f lies in the ideal


def test_least_ecart_rule_keeps_unbounded_tangent_cone_reduction_short():
    # without a degree bound a step reduces by a divisor of least ecart
    # (Mora's rule): this run takes 2 066 steps, where taking the first
    # divisor of ecart at most the remainder's (the first divisor of all
    # when there is none) takes 8 982
    ring = _ring("dp(1),ds(2)", 32003)
    gens = [parse_poly(s, ring) for s in ("2*x*y+1/2*x*z^2+z^2", "-x*y^2-1/2*x*z^2",
                                          "x+5/3*x*y*z+5/3*y^2*z", "2*x^2*y+1/2*x*z-x*y*z")]
    basis = std(gens, ceiling=4000)
    assert _lead_set(basis) == [(0, 0, 2), (0, 4, 1), (1, 0, 0)]


# ---------------------------------------------------------------------------
# the pair queue


def _katsura4_linear_first(char):
    # the generator order of the benchmark's Katsura ideals
    gens = _katsura(4, _ring("dp", char, "u0,u1,u2,u3,u4"))
    return gens[-1:] + gens[:-1], None


@pytest.mark.parametrize("case", [
    pytest.param(lambda: _katsura4_linear_first(32003), id="katsura4-dp-32003"),
    pytest.param(_ft88_tjurina, id="ft88-tjurina-jet32-ds-q"),
])
def test_equal_sugar_pairs_go_smaller_lcm_first(case, monkeypatch):
    # each pair reduced has the least (sugar, lcm) of the pairs queued then:
    # codes keep the ordering, so among equal sugars the smaller lcm goes
    # first (the normal strategy), under local orderings too; the pair queue
    # serves tangent-cone runs only, so the global ideal runs in mode mora
    gens, jet = case()
    engines = []
    steps = []
    init = stdbasis._StdEngine.__init__
    spoly_terms = stdbasis._spoly_terms

    def recording_init(self, *args):
        init(self, *args)
        engines.append(self)

    def recording_spoly_terms(ei, ej, lcm_code, lay, *rest):
        (engine,) = engines

        def key(a, b, code):
            d = lay.degree(code)
            return max(a.sugar + d - a.deg, b.sugar + d - b.deg), code

        entries = engine.entries
        steps.append((key(ei, ej, lcm_code),
                      [key(entries[i], entries[j], code)
                       for (i, j), code in engine.pairs.items()]))
        return spoly_terms(ei, ej, lcm_code, lay, *rest)

    monkeypatch.setattr(stdbasis._StdEngine, "__init__", recording_init)
    monkeypatch.setattr(stdbasis, "_spoly_terms", recording_spoly_terms)
    std(gens, jet=jet, mode="mora")
    ties = 0
    for reduced, queued in steps:
        assert all(reduced <= k for k in queued)
        ties += any(k[0] == reduced[0] for k in queued)
    assert ties


@pytest.mark.parametrize("pair, linear_first, want", [
    ("sugar", True, (105, 77, 1228)),
    ("min-lcm-degree", True, (105, 77, 1228)),
    # fifo keeps the order insert makes the pairs in: by the newer entry,
    # then by its partner
    ("fifo", True, (105, 77, 1456)),
    ("fifo", False, (171, 137, 1723)),
])
def test_pair_queue_counts_on_katsura4(pair, linear_first, want):
    # tangent-cone reduction of a global ideal: the pair queue, with the
    # product criterion, since every variable is global
    gens = (_katsura4_linear_first if linear_first else _katsura4)(32003)[0]
    stats = std(gens, Strategy(pair), mode="mora").stats
    assert (stats.pairs, stats.discarded, stats.reductions) == want


# ---------------------------------------------------------------------------
# staircase queries


def test_vdim_examples():
    ring = _ring("ds", names="x,y")
    assert vdim(std([parse_poly("x^2", ring), parse_poly("y^3", ring)])) == 6
    assert vdim(std([parse_poly("x", ring)])) is INFINITE
    assert vdim(std([parse_poly("3*x^2", ring), parse_poly("5*y^4", ring)])) == 8


def test_kbase_examples():
    ring = _ring("ds", names="x,y")
    basis = std([parse_poly("x^2", ring), parse_poly("y^2", ring)])
    assert sorted(serialize(m) for m in kbase(basis)) == ["1", "x", "x*y", "y"]
    tiny = std([parse_poly("x", ring), parse_poly("y", ring)])
    assert [serialize(m) for m in kbase(tiny)] == ["1"]
    mixed = std([parse_poly(s, ring) for s in ("x^2", "x*y", "y^3")])
    assert sorted(serialize(m) for m in kbase(mixed)) == ["1", "x", "y", "y^2"]
    with pytest.raises(InfiniteDimensional):
        kbase(std([parse_poly("x", ring)]))


def test_highest_corner_examples():
    ring = _ring("ds", names="x,y")
    assert highest_corner(std([parse_poly("x^2", ring), parse_poly("y^2", ring)])) == 3
    assert highest_corner(std([parse_poly("x", ring), parse_poly("y", ring)])) == 1
    assert (
        highest_corner(std([parse_poly("3*x^2", ring), parse_poly("5*y^4", ring)]))
        == 5
    )
    assert highest_corner(std([parse_poly("x", ring)])) is INFINITE


def test_membership_local_versus_global():
    loc = _ring("ds", names="x,y")
    glob = _ring("dp", names="x,y")
    fl = parse_poly("x-x^2", loc)
    fg = parse_poly("x-x^2", glob)
    assert is_member(parse_poly("x", loc), std([fl]))
    assert not is_member(parse_poly("x", glob), std([fg]))


def test_normal_form_cuts_at_the_corner_of_a_finite_staircase():
    # std needs 10 steps here, but the tangent-cone reduction of three of
    # the generators' s-polynomials against the basis ran past 30 000 steps
    # uncut; the corner's power of the maximal ideal lies in the ideal, so
    # the terms there are dropped and membership stays exact (the ceiling
    # counts steps: 0 allows none)
    ring = _ring("ls", 32003)
    g = [parse_poly(t, ring) for t in (
        "8702*x+16324*x^3+25776*x*y*z^2", "25919*x^2*y",
        "14978*x^2+9842*x*y^2+9959*y^2*z^2", "21874*y+6459*z+24841*x^2",
    )]
    basis = std(g)
    assert highest_corner(basis) == 4
    assert normal_form(spoly(g[2], g[0]), basis, ceiling=1).is_zero
    assert normal_form(spoly(g[3], g[2]), basis, ceiling=1).is_zero
    s = spoly(g[2], g[1])
    assert normal_form(s, basis, ceiling=0).is_zero
    assert is_member(s, basis, ceiling=0)
    _, jet_basis = local_vdim(g)
    assert normal_form(s, jet_basis, ceiling=0).is_zero
    # below the corner a standard monomial stays
    z = parse_poly("z", ring)
    assert normal_form(z + s, basis, ceiling=0) == z
    assert not is_member(z, basis)


def test_an_uncertified_jet_basis_is_refused():
    # cut at jet 32, x - y^40 is x, which is not in the ideal; the counts of
    # the truncated staircase do not certify a corner, so nothing bounds the
    # reduction and the basis is refused, even for the zero element
    ring = _ring("ds", 32003, names="x,y")
    f = parse_poly("x-y^40", ring)
    x = parse_poly("x", ring)
    truncated = std([f], jet=32)
    for query in (normal_form, is_member):
        for g in (x, ring.zero()):
            with pytest.raises(ValueError, match="does not certify"):
                query(g, truncated)
    assert not is_member(x, std([f]))
    # a certified jet basis answers as the untruncated basis does
    gens = [f, parse_poly("y^45", ring)]
    _, certified = local_vdim(gens)
    assert certified.jet is not None
    full = std(gens)
    for text in ("x", "y^44", "y^45", "x*y^3-y^43", "x+y^44"):
        g = parse_poly(text, ring)
        assert normal_form(g, certified) == normal_form(g, full)
        assert is_member(g, certified) == is_member(g, full)


def test_euler_relation_membership():
    ring = _ring("ds", names="x,y")
    jacobian = std([parse_poly("3*x^2", ring), parse_poly("5*y^4", ring)])
    assert is_member(parse_poly("x^3+y^5", ring), jacobian)


def test_staircase_counts_gap_free():
    ring = _ring("ds")
    gens = [parse_poly(s, ring) for s in ("x^3", "y^4", "z^2", "x*y^2*z")]
    st = std(gens).staircase()
    corner = highest_corner(std(gens))
    counts = st.counts_by_degree(corner)
    assert counts[-1] == 0
    nonzero = [d for d, c in enumerate(counts) if c]
    assert nonzero == list(range(nonzero[-1] + 1))  # gap-free interval
    assert sum(counts) == vdim(std(gens))


# ---------------------------------------------------------------------------
# jets


def test_jet_run_matches_untruncated():
    ring = _ring("ds")
    gens = [parse_poly(s, ring) for s in ("x^2+y^3", "x*y-z^4", "z^2-x*y^2")]
    full = std(gens)
    want = vdim(full)
    jb = std(gens, jet=highest_corner(full) + 1)
    counts, certified = jet_dimensions(jb)
    assert certified
    assert sum(counts) == want
    assert highest_corner(jb) == highest_corner(full)


def test_jet_below_corner_is_not_certified():
    ring = _ring("ds", names="x,y")
    gens = [parse_poly("x^3", ring), parse_poly("y^3", ring)]
    jb = std(gens, jet=3)  # true corner is 5
    counts, certified = jet_dimensions(jb)
    assert not certified
    with pytest.raises(ValueError):
        highest_corner(jb)


def test_local_vdim_drives_jets():
    ring = _ring("ds")
    gens = [parse_poly(s, ring) for s in ("x^2+y^3", "x*y-z^4", "z^2-x*y^2")]
    value, basis = local_vdim(gens)
    assert value == vdim(std(gens))
    assert basis.jet is not None


def test_local_vdim_stats_cover_every_rung():
    # this Tjurina ideal's pure powers x^29, y^7, z^4 guess a first jet of
    # 39, where its leads still span an infinite staircase: jets 39 -> 78
    ring = _ring("ds", char=32003)
    germ = HypersurfaceGerm(parse_poly("x^30+y^8+z^5+x*y^3*z^2+y^2*z^3", ring))
    gens = germ.tjurina_generators()
    value, basis = local_vdim(gens)
    assert (value, basis.jet) == (499, 78)
    rungs = [std(gens, jet=k).stats for k in (39, 78)]
    for name in ("pairs", "discarded", "reductions"):
        assert getattr(basis.stats, name) == sum(getattr(s, name) for s in rungs)
    assert basis.stats.pairs > rungs[-1].pairs


def test_next_jet_is_one_past_the_rung_corner():
    # the pure powers x^199, y^6 of this Jacobian guess a first jet of 205;
    # the leads of that failed rung span a finite staircase, whose corner
    # bounds the true one: the second rung certifies below twice the first
    ring = _ring("ds", char=32003, names="x,y")
    gens = HypersurfaceGerm(parse_poly("x^200+y^7+x^5*y^3", ring)).jacobian()
    first = std(gens, jet=205)
    assert not jet_dimensions(first)[1]
    st = first.staircase()
    assert st.is_finite()
    corner = 1 + max(d for d, c in enumerate(st.counts_by_degree()) if c)
    value, basis = local_vdim(gens)
    assert value == 429  # Kouchnirenko: 2 * 635/2 - 200 - 7 + 1
    assert basis.jet == corner + 1 < 2 * 205
    second = std(gens, jet=basis.jet)
    assert basis.stats.reductions == first.stats.reductions + second.stats.reductions


def _rung_log(monkeypatch):
    """Record (jet, reductions, pairs) of every std call local_vdim makes."""
    log = []
    run = stdbasis.std

    def recording(*args, **kwargs):
        basis = run(*args, **kwargs)
        log.append((kwargs.get("jet"), basis.stats.reductions, basis.stats.pairs))
        return basis

    monkeypatch.setattr(stdbasis, "std", recording)
    return log


@pytest.mark.parametrize("a, b, c", [(20, 15, 9), (40, 3, 3), (12, 12, 13)])
def test_brieskorn_pham_certifies_in_one_rung(a, b, c, monkeypatch):
    # the top standard monomial of the Milnor algebra of x^a + y^b + z^c is
    # x^(a-2) y^(b-2) z^(c-2), so the first jet a+b+c-4 that the pure powers
    # guess certifies, for the Jacobian and the Tjurina ideal alike
    ring = _ring("ds", char=32003)
    germ = HypersurfaceGerm(parse_poly("x^%d+y^%d+z^%d" % (a, b, c), ring))
    assert a + b + c - 4 > stdbasis.FIRST_JET
    log = _rung_log(monkeypatch)
    for gens in (germ.jacobian(), germ.tjurina_generators()):
        log.clear()
        value, basis = local_vdim(gens)
        assert value == (a - 1) * (b - 1) * (c - 1)
        assert [jet for jet, _, _ in log] == [a + b + c - 4] == [basis.jet]


def _omega2(k, l):
    from germkit import OmegaPresentation

    germ = ft_germ(k, l, RingContext(32003, ("x", "y", "z"), "ds"))
    return OmegaPresentation(germ.f, germ.g, 2).generators


@pytest.mark.parametrize("gens", [
    pytest.param(lambda: ft_germ(8, 8).tjurina_generators(), id="ft88-tjurina"),
    pytest.param(lambda: ft_germ(12, 10).tjurina_generators(), id="ft1210-tjurina"),
    pytest.param(lambda: _omega2(10, 8), id="ft108-omega2"),
    # the guess is 32 exactly, and the ladder runs 32 -> 64
    pytest.param(lambda: HypersurfaceGerm(parse_poly(
        "x^20+y^10+z^6+x^2*y^2*z^2+x^6*y^2", _ring("ds", char=32003))).jacobian(),
        id="guess32-milnor"),
    # no pure power of z: no guess, and the ladder runs to MAX_JET
    pytest.param(lambda: HypersurfaceGerm(parse_poly(
        "x^2+y^3+x*y*z", _ring("ds", char=32003))).jacobian()[:2],
        id="no-guess-infinite"),
])
def test_a_guess_at_most_first_jet_keeps_the_ladder(gens, monkeypatch):
    # the guess may only raise the first jet: where it is absent or at most
    # FIRST_JET, the ladder is the one forced to start at FIRST_JET
    gens = gens()
    assert stdbasis._first_jet(gens) == stdbasis.FIRST_JET
    log = _rung_log(monkeypatch)
    want = local_vdim(gens)[0]
    guessed = log[:]
    log.clear()
    monkeypatch.setattr(stdbasis, "_first_jet", lambda gens: stdbasis.FIRST_JET)
    assert local_vdim(gens)[0] == want
    assert guessed == log
    assert guessed[0][0] == stdbasis.FIRST_JET


def test_a_guess_above_max_jet_is_clamped(monkeypatch):
    # the guess 4000 + 200 - 2 + 2 is past MAX_JET: the one rung at MAX_JET
    # fails, and the untruncated run decides
    ring = _ring("ds", names="x,y")
    gens = [parse_poly("x^4000", ring), parse_poly("y^200", ring)]
    assert stdbasis._first_jet(gens) == stdbasis.MAX_JET
    log = _rung_log(monkeypatch)
    value, basis = local_vdim(gens)
    assert value == 800000 and basis.jet is None
    assert [jet for jet, _, _ in log] == [stdbasis.MAX_JET, None]


def test_module_guess_needs_every_pure_power_per_component():
    # the guess is the largest over the components without a unit term, and
    # a component that lacks some variable's pure power leaves no guess
    ring = _ring("ds", char=32003, names="x,y")

    def vec(*parts):
        return VectorElement.from_components([parse_poly(s, ring) for s in parts])

    first = [vec("x^40", "0"), vec("y^40", "x^50+x*y^60")]
    assert stdbasis._first_jet(first) == stdbasis.FIRST_JET
    assert stdbasis._first_jet(first + [vec("0", "y^45")]) == 40 + 40 - 2 + 2 + 15
    assert stdbasis._first_jet(first + [vec("0", "1+y")]) == 40 + 40 - 2 + 2


def test_corner_tightening_on_oversized_jet():
    # bound 128 with a staircase topping out below 20: the run must shrink
    # its own bound once its leads span a finite staircase, without
    # changing any answer
    from germkit import ft_germ

    germ = ft_germ(8, 8)
    gens = [germ.f, germ.g] + list(germ.minors())
    want = vdim(std(gens))
    jb = std(gens, jet=128)
    counts, certified = jet_dimensions(jb)
    assert certified
    assert sum(counts) == want


def test_module_corner_tightening_on_oversized_jet():
    # the same for a term-over-position module: the Omega^2 presentation
    from germkit import OmegaPresentation, ft_germ

    germ = ft_germ(8, 8)
    gens = OmegaPresentation(germ.f, germ.g, 2).generators
    jb = std(gens, jet=128)
    counts, certified = jet_dimensions(jb)
    assert certified
    assert counts == std(gens).staircase().counts_by_degree(127)


def test_vdim_queries_reject_jet_bases():
    ring = _ring("ds", names="x,y")
    jb = std([parse_poly("x^2", ring), parse_poly("y^2", ring)], jet=8)
    with pytest.raises(ValueError):
        vdim(jb)
    with pytest.raises(ValueError):
        kbase(jb)


# ---------------------------------------------------------------------------
# staircase object


def test_staircase_pure_powers_and_finiteness():
    st = Staircase(2, None, [((2, 0), 0), ((0, 3), 0)])
    assert st.is_finite()
    assert st.pure_power_degrees(0) == [2, 3]
    assert len(st.std_exponents(0)) == 6
    open_st = Staircase(2, None, [((2, 0), 0)])
    assert not open_st.is_finite()


def test_module_vdim_per_component():
    ring = _ring("ds", names="x,y")
    x, y = ring.variable(0), ring.variable(1)
    gens = [
        VectorElement.unit(ring, 2, 1) * x,
        VectorElement.unit(ring, 2, 1) * y,
        VectorElement.unit(ring, 2, 2) * (x * x),
        VectorElement.unit(ring, 2, 2) * (y * y),
    ]
    basis = std(gens)
    assert vdim(basis) == 1 + 4  # {1} in slot 1, {1, x, y, xy} in slot 2


# ---------------------------------------------------------------------------
# modules position over term: the component sorts above every form, so the
# degree of a term says nothing about its place and every degree is scanned


def _pot_ring(names=("x", "y")):
    return RingContext(32003, names, "ds", module_rule=POSITION_OVER_TERM)


def _vec(ring, *parts):
    return VectorElement.from_components([parse_poly(s, ring) for s in parts])


def test_pot_ecart_is_the_textbook_one():
    ring = _pot_ring()
    # the lead x*e1 has degree 1 and the term x^3*e1 degree 3
    assert ecart(_vec(ring, "x+x^3", "y")) == 2
    assert ecart(_vec(ring, "x", "y+y^4")) == 3


def test_pot_std_of_a_unit_module_is_short():
    ring = _pot_ring()
    gens = [_vec(ring, "3517+20220*y^3", "0"),
            _vec(ring, "19570*y+16080*x*y^3", "4138+5655*y")]
    basis = std(gens, ceiling=1000)
    assert vdim(basis) == 0
    assert basis.stats.reductions <= 10


def test_pot_std_of_a_non_isolated_module_stays_in_range():
    ring = _pot_ring()
    gens = [_vec(ring, "18550+7867*x^3*y^3", "13597"),
            _vec(ring, "26863*y^3", "17068*y+15742*x^3*y^2")]
    assert vdim(std(gens, ceiling=1000)) == INFINITE


def test_jets_need_degree_as_the_top_field():
    ring = _pot_ring()
    with pytest.raises(ModeOrderingMismatch):
        std([_vec(ring, "x", "y")], jet=8)
    with pytest.raises(ModeOrderingMismatch):
        std([parse_poly("x+y^2", _ring("ws(2,1)", 32003, "x,y"))], jet=8)
    # ws with unit weights packs like ds, so its ladder runs
    ws = _ring("ws(1,1)", 0, "x,y")
    value, basis = local_vdim([parse_poly("x^2", ws), parse_poly("y^3", ws)])
    assert value == 6 and basis.jet is not None


@pytest.mark.parametrize("tok", ("ds", "dp"))
def test_jet_is_checked_before_an_all_zero_input_returns(tok):
    ring = _ring(tok, 32003, "x,y")
    for jet in (0, -3):
        with pytest.raises(ValueError, match="jet must be a positive integer"):
            std([ring.zero()], jet=jet)
    if tok == "dp":
        with pytest.raises(ModeOrderingMismatch):
            std([ring.zero()], jet=4)
    else:
        assert len(std([ring.zero()], jet=4)) == 0


ORACLE_SEED = 20262
ORACLE_CEILING = 500


def _random_module_terms(rng, n):
    """Two to five rank-2 generators, each component a sum of up to three
    terms of exponents at most 2 (constants included) over F_32003."""
    return [[[(tuple(rng.randint(0, 2) for _ in range(n)), rng.randrange(1, 32003))
              for _ in range(rng.randint(0, 3))] for _ in range(2)]
            for _ in range(rng.randint(2, 5))]


def _module(ring, data):
    return [VectorElement.from_components(
        [sum((ring.monomial(e, c) for e, c in terms), ring.zero()) for terms in comps])
        for comps in data]


def _vdim_within_ceiling(gens):
    try:
        value, _ = local_vdim(gens, ceiling=ORACLE_CEILING)
    except ResourceExhausted:
        return None
    return value


def test_pot_vdim_equals_top_vdim_on_random_modules():
    # term over position runs the jet ladder, position over term one
    # untruncated tangent-cone run with other leads; the quotients agree
    rng = random.Random(ORACLE_SEED)
    checked = finite = 0
    for _ in range(200):
        names = ("x", "y", "z")[: rng.choice((2, 3))]
        data = _random_module_terms(rng, len(names))
        top = _vdim_within_ceiling(_module(RingContext(32003, names, "ds"), data))
        pot = _vdim_within_ceiling(_module(_pot_ring(names), data))
        if top is None or pot is None:
            continue
        assert top == pot, data
        checked += 1
        finite += top != INFINITE
    assert checked >= 100 and finite >= 25, (checked, finite)


def test_local_vdim_of_random_modules_matches_the_dense_oracle():
    # the carried staircase counts change per component by colon ideals, so
    # rank-2 term-over-position modules check them against linear algebra;
    # the corner's power of the maximal ideal times the free module lies in
    # the span, so the oracle's jet one past it sees the whole quotient
    rng = random.Random(ORACLE_SEED + 1)
    checked = 0
    for _ in range(300):
        names = ("x", "y", "z")[: rng.choice((2, 3))]
        ring = RingContext(32003, names, "ds")
        gens = [g for g in _module(ring, _random_module_terms(rng, len(names))) if g]
        try:
            value, basis = local_vdim(gens, ceiling=ORACLE_CEILING)
        except ResourceExhausted:
            continue
        if value == INFINITE:
            continue
        corner = _basis_corner(basis)
        assert value == _oracle_vdim(gens, corner + 1, 32003), [str(g) for g in gens]
        checked += 1
    assert checked >= 45, checked


def test_local_vdim_builds_no_generators(monkeypatch):
    # the dimension and the staircase come from the leads the run kept; the
    # output polynomials are built only when generators is read
    import germkit.stdbasis as sb

    calls = []
    over = sb._over
    monkeypatch.setattr(sb, "_over", lambda *a: calls.append(a) or over(*a))
    value, basis = local_vdim(ft_germ(8, 8).tjurina_generators())
    assert (value, basis.jet) == (17, 32)
    assert calls == []
    basis.generators
    assert len(calls) == len(basis)


@pytest.mark.parametrize("decl, polys", [
    ("0 (x,y,z) ds", None),
    ("0 (x,y) dp", ["2*x^2+4*y", "x*y-1/2"]),
    ("32003 (x,y) ls", ["x^3+y^5-2*x*y", "3*x*y^2+y^4"]),
])
def test_lazy_generators_match_eager_ones(decl, polys):
    ring = parse_ring(decl)
    gens = (ft_germ(8, 8, ring).tjurina_generators() if polys is None
            else [parse_poly(s, ring) for s in polys])
    eager = std(gens)
    eager_gens = eager.generators
    lazy = std(gens)
    answers = [lazy.leading_exponents(), kbase(lazy), len(lazy)]
    assert answers == [eager.leading_exponents(), kbase(eager), len(eager)]
    h = parse_poly("x^4+x*y^3-1/3*y^2" if ring.characteristic == 0 else "x^4+y^2", ring)
    assert normal_form(h, lazy) == normal_form(h, eager)
    assert lazy.generators == eager_gens
    assert list(lazy) == list(eager) == list(eager_gens)
