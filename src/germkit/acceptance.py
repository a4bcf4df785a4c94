"""Acceptance suite: the numerical reproductions and property checks this
package promises, in one runnable registry.

Each criterion is a function returning (passed, detail lines); the runner
wraps it with timing and a stated wall-clock budget where one applies.
`germkit selftest` prints one line per criterion, and the pytest suite
asserts them one test per criterion. Randomized criteria draw from a
seeded generator so reruns are reproducible.
"""

import random
import time

from .invariants import (
    HypersurfaceGerm,
    find_weights,
    ft_germ,
    milnor,
    multiplicity,
    tjurina,
    zariski_family,
)
from .parse import parse_poly, parse_ring, serialize
from .poincare import (
    DifferentialForm,
    exterior_derivative,
    omega_dimension,
    reiffen_condition_1,
    reiffen_condition_2,
    wedge,
)
from .record import FrozenRecord
from .ring import order_of
from .stdbasis import (
    PAIR_SELECTIONS,
    Strategy,
    highest_corner,
    local_vdim,
    normal_form,
    std,
)

DEFAULT_SEED = 20250819

ALL_STRATEGIES = tuple(Strategy(p) for p in PAIR_SELECTIONS)


class CriterionResult(FrozenRecord):
    __slots__ = ("number", "title", "passed", "elapsed", "details")

    def __init__(self, number, title, passed, elapsed, details):
        super().__init__(number, title, passed, elapsed, details)

    def line(self):
        return "criterion %d (%s): %s in %.1fs" % (
            self.number,
            self.title,
            "PASS" if self.passed else "FAIL",
            self.elapsed,
        )


# ---------------------------------------------------------------------------
# shared helpers


def _leading_exponent_set(basis):
    return tuple(sorted(exps for exps, _ in basis.leading_exponents()))


def _random_poly(rng, ring, max_terms, max_deg, zero_ok=False):
    n = ring.n
    terms = {}
    for _ in range(rng.randint(0 if zero_ok else 1, max_terms)):
        exps = [0] * n
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(n)] += 1
        c = rng.randint(-4, 4)
        if c:
            terms[tuple(exps)] = terms.get(tuple(exps), 0) + c
    p = ring.zero()
    for exps, c in terms.items():
        p = p + ring.monomial(exps, c)
    return p


def _rank_mod_p(rows, p):
    """Row rank of an integer matrix over F_p by sparse elimination: each
    row, as a dict from column to nonzero residue, is reduced from its least
    column up by the pivot rows found so far, which are monic and keyed by
    their least column, and becomes one itself unless it reduces to zero."""
    pivots = {}
    for row in rows:
        r = {c: v % p for c, v in enumerate(row) if v % p}
        while r:
            c = min(r)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(r[c], p - 2, p)
                pivots[c] = {k: v * inv % p for k, v in r.items()}
                break
            m = r[c]
            for k, v in piv.items():
                s = (r.get(k, 0) - m * v) % p
                if s:
                    r[k] = s
                else:
                    del r[k]
    return len(pivots)


def _monomials_below(n, cap):
    """All exponent tuples in n variables of total degree < cap, sorted."""
    out = [()]
    for _ in range(n):
        out = [m + (e,) for m in out for e in range(cap - sum(m))]
    return sorted(m for m in out if sum(m) < cap)


def _oracle_vdim(gens, jet, p):
    """dim of R^r/(M + m^jet R^r) by dense linear algebra over F_p, for an
    ideal M (r = 1) or a submodule of rank r.

    Every element of the quotient is a combination of monomials (times basis
    vectors) of degree below the jet, and M contributes the rows m*g for
    multipliers m of degree at most the jet; anything further lands inside
    m^jet.
    """
    ring = gens[0].ring
    rank = getattr(gens[0], "rank", None)
    below = _monomials_below(ring.n, jet)
    cols = {key: i for i, key in enumerate(
        (m, k) for k in (range(1, rank + 1) if rank else (None,)) for m in below)}
    mults = _monomials_below(ring.n, jet + 1)
    rows = []
    for g in gens:
        terms = g.terms() if rank else [(c, e, None) for c, e in g.terms()]
        for m in mults:
            row = [0] * len(cols)
            hit = False
            for c, e, k in terms:
                s = tuple(a + b for a, b in zip(e, m))
                if sum(s) < jet:
                    row[cols[s, k]] = int(c)
                    hit = True
            if hit:
                rows.append(row)
    return len(cols) - _rank_mod_p(rows, p)


# ---------------------------------------------------------------------------
# criteria


def criterion_1_zariski(rng):
    """Zariski family reproduction, exact values within the time budget."""
    details = []
    ok = True
    ring = parse_ring("ring 32003 (x,y,z) ds")
    expected = {0: (17, 10661), 1: (16, 10655)}
    for t, (want_m, want_mu) in expected.items():
        germ = HypersurfaceGerm(zariski_family(40, 30, 8, t, ring=ring))
        m = multiplicity(germ)
        t0 = time.perf_counter()
        mu = milnor(germ)
        dt = time.perf_counter() - t0
        good = m == want_m and mu == want_mu and dt <= 120.0
        ok = ok and good
        details.append(
            "t=%d: multiplicity %d (want %d), mu %s (want %d) in %.1fs%s"
            % (t, m, want_m, mu, want_mu, dt, "" if good else "  <-- FAIL")
        )
    return ok, details


def criterion_2_ft_grid(rng):
    """mu = k+l+2 and tau = k+l+1 on the whole valid grid below 8."""
    details = []
    ok = True
    for k in range(5, 9):
        for l in range(4, k + 1):
            germ = ft_germ(k, l)
            mu, tau = milnor(germ), tjurina(germ)
            good = mu == k + l + 2 and tau == k + l + 1
            ok = ok and good
            if not good:
                details.append(
                    "FT(%d,%d): mu %s tau %s  <-- FAIL (want %d, %d)"
                    % (k, l, mu, tau, k + l + 2, k + l + 1)
                )
    details.append("14 germs checked, mu = k+l+2 and tau = k+l+1 throughout")
    return ok, details


def criterion_3_saito(rng):
    """mu = tau on a corpus of certified weighted-homogeneous germs."""
    corpus = []
    R2 = parse_ring("ring 0 (x,y) ds")
    for a, b in [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (2, 7)]:
        corpus.append(parse_poly("x^%d+y^%d" % (a, b), R2))
    R3 = parse_ring("ring 0 (x,y,z) ds")
    for a, b, c in [(2, 3, 5), (2, 3, 7), (3, 3, 3), (2, 2, 2), (2, 4, 5)]:
        corpus.append(parse_poly("x^%d+y^%d+z^%d" % (a, b, c), R3))
    details = []
    ok = True
    for f in corpus:
        w = find_weights(f)
        germ = HypersurfaceGerm(f)
        mu, tau = milnor(germ), tjurina(germ)
        good = w is not None and mu == tau
        ok = ok and good
        if not good:
            details.append("%s: weights %s mu %s tau %s  <-- FAIL" % (f, w, mu, tau))
    details.append("%d Brieskorn germs certified, mu = tau on each" % len(corpus))
    return ok, details


def criterion_4_reiffen(rng):
    """Reiffen conditions on the FT germs: exact complex despite mu != tau."""
    details = []
    ok = True
    for k, l in [(5, 4), (6, 4), (6, 5), (8, 8)]:
        germ = ft_germ(k, l)
        c2 = reiffen_condition_2(germ.f, germ.g)
        c1 = reiffen_condition_1(germ.f, germ.g)
        tau = tjurina(germ)
        good = (
            c2.holds
            and c2.mu == k + l + 2
            and c1.verified
            and c1.order > 0
            and c2.mu != tau
        )
        ok = ok and good
        details.append(
            "FT(%d,%d): mu %d = %d - %d, condition1 %s, tau %d%s"
            % (
                k,
                l,
                c2.mu,
                c2.dim_omega2,
                c2.dim_omega3,
                c1.label(),
                tau,
                "" if good else "  <-- FAIL",
            )
        )
    return ok, details


def _check_ordering_axioms(rng, ring, pairs):
    n = ring.n
    for _ in range(pairs):
        a = tuple(rng.randint(0, 9) for _ in range(n))
        b = tuple(rng.randint(0, 9) for _ in range(n))
        c = tuple(rng.randint(0, 5) for _ in range(n))
        s = ring.compare(a, b)
        if (s == 0) != (a == b):
            return "compare(%s, %s) = %d breaks totality" % (a, b, s)
        if s != -ring.compare(b, a):
            return "compare not antisymmetric on %s, %s" % (a, b)
        shifted = ring.compare(
            tuple(x + y for x, y in zip(a, c)), tuple(x + y for x, y in zip(b, c))
        )
        if s != shifted:
            return "compare not multiplicative on %s, %s by %s" % (a, b, c)
    return None


def criterion_5_engine_properties(rng):
    """Engine property suite: axioms, mode agreement, oracle, membership,
    strategy invariance."""
    details = []

    # (a) ordering axioms
    kinds = ["dp", "Dp", "lp", "ds", "ls", "wp(1,2,3)", "ws(2,1,1)"]
    for tok in kinds:
        ring = parse_ring("ring 0 (x,y,z) %s" % tok)
        bad = _check_ordering_axioms(rng, ring, 10000)
        if bad:
            return False, ["ordering %s: %s" % (tok, bad)]
    details.append("(a) ordering axioms hold on 10^4 pairs for %d kinds" % len(kinds))

    # (b) Buchberger vs Mora on random global ideals
    for i in range(100):
        n = rng.choice([2, 3])
        ring = parse_ring("ring 32003 (%s) dp" % ",".join("xyz"[:n]))
        gens = []
        for _ in range(rng.randint(1, 3)):
            p = _random_poly(rng, ring, 4, 4)
            if p:
                gens.append(p)
        if not gens:
            continue
        lb = _leading_exponent_set(std(gens, mode="buchberger"))
        lm = _leading_exponent_set(std(gens, mode="mora"))
        if lb != lm:
            return False, ["mode disagreement on instance %d: %s" % (i, gens)]
    details.append("(b) Buchberger and Mora leading ideals agree on 100 ideals")

    # (c) vdim against the dense truncated-linear-algebra oracle
    for i in range(50):
        n = rng.choice([2, 3])
        ring = parse_ring("ring 32003 (%s) ds" % ",".join("xyz"[:n]))
        gens = []
        for v in range(n):
            a = rng.randint(2, 4)
            exps = [0] * n
            exps[v] = a
            p = ring.monomial(exps)
            tail = _random_poly(rng, ring, 2, a + 2, zero_ok=True)
            # keep the pure power leading: strip tail terms of degree <= a
            for c, e in tail.terms():
                if sum(e) > a:
                    p = p + ring.monomial(e, c)
            gens.append(p)
        if rng.random() < 0.5:
            extra = _random_poly(rng, ring, 3, 4, zero_ok=True)
            if extra and not extra.constant_term():
                gens.append(extra)
        value, basis = local_vdim(gens)
        corner = highest_corner(basis)
        for jet in (corner + 1, corner + 2):
            want = _oracle_vdim(gens, jet, 32003)
            if want != value:
                return False, [
                    "vdim oracle mismatch on instance %d: %s vs %s at jet %d"
                    % (i, value, want, jet)
                ]
    details.append("(c) vdim matches the dense oracle on 50 local ideals")

    # (d) membership soundness
    done = 0
    for i in range(200):
        if done == 100:
            break
        tok = "ds" if i % 2 else "dp"
        n = rng.choice([2, 3])
        ring = parse_ring("ring 32003 (%s) %s" % (",".join("xyz"[:n]), tok))
        g1 = _random_poly(rng, ring, 3, 3)
        g2 = _random_poly(rng, ring, 3, 3)
        if not g1 or not g2:
            continue
        h1 = _random_poly(rng, ring, 2, 2, zero_ok=True)
        h2 = _random_poly(rng, ring, 2, 2, zero_ok=True)
        f = h1 * g1 + h2 * g2
        if not f:
            continue
        if normal_form(f, std([g1, g2])):
            return False, ["membership failure: NF != 0 on instance %d" % i]
        done += 1
    details.append("(d) NF(h1*g1 + h2*g2, std) = 0 on %d instances" % done)

    # (e) strategy invariance on the FT corpus (tjurina ideals)
    checked = 0
    for k, l in [(5, 4), (6, 5), (8, 8)]:
        germ = ft_germ(k, l)
        gens = [germ.f, germ.g] + list(germ.minors())
        leads = None
        for strat in ALL_STRATEGIES:
            cur = _leading_exponent_set(std(gens, strat))
            if leads is None:
                leads = cur
            elif cur != leads:
                return False, [
                    "strategy %s changes the leading ideal of FT(%d,%d)"
                    % (strat, k, l)
                ]
        checked += 1
    details.append(
        "(e) leading ideals invariant across %d strategies on %d ideals"
        % (len(ALL_STRATEGIES), checked)
    )
    return True, details


def criterion_6_calculus(rng):
    """Form calculus properties and the Omega^3 dual-route agreement."""
    ring = parse_ring("ring 0 (x,y,z) ds")

    def rform(k):
        return DifferentialForm(
            ring,
            k,
            tuple(
                _random_poly(rng, ring, 3, 3, zero_ok=True)
                for _ in range(len(DifferentialForm.zero(ring, k).coeffs))
            ),
        )

    for _ in range(400):
        a = rform(rng.choice([0, 1]))
        dd = exterior_derivative(exterior_derivative(a))
        if not dd.is_zero:
            return False, ["d(d(a)) != 0 for %r" % a]
    for _ in range(300):
        ka, kb = rng.choice([(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (2, 1)])
        a, b = rform(ka), rform(kb)
        left = wedge(a, b)
        right = wedge(b, a)
        if ka * kb % 2:
            right = -right
        if left != right:
            return False, ["anticommutativity fails at degrees %d,%d" % (ka, kb)]
    for _ in range(300):
        ka, kb = rng.choice([(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0)])
        a, b = rform(ka), rform(kb)
        left = exterior_derivative(wedge(a, b))
        right = wedge(exterior_derivative(a), b)
        tail = wedge(a, exterior_derivative(b))
        if ka % 2:
            tail = -tail
        if left != right + tail:
            return False, ["Leibniz fails at degrees %d,%d" % (ka, kb)]
    details = ["d.d = 0, anticommutativity, Leibniz on 10^3 random forms"]

    pairs = [("z", "x^2+y^3"), ("x", "y")]
    for k, l in [(5, 4), (6, 5), (8, 8)]:
        germ = ft_germ(k, l)
        pairs.append((serialize(germ.f), serialize(germ.g)))
    for ftxt, gtxt in pairs:
        f, g = parse_poly(ftxt, ring), parse_poly(gtxt, ring)
        module_route = omega_dimension(f, g, 3)
        ideal = [f, g] + [f.partial(i) for i in range(3)] + [
            g.partial(i) for i in range(3)
        ]
        ideal_route, _ = local_vdim(ideal)
        if module_route != ideal_route:
            return False, [
                "Omega^3 route disagreement on (%s, %s): %s vs %s"
                % (ftxt, gtxt, module_route, ideal_route)
            ]
    details.append("Omega^3 module route equals ideal route on %d germs" % len(pairs))
    return True, details


def criterion_7_front_end(rng):
    """Parse/serialize round-trips and the paper expressions."""
    details = []
    for tok in ("dp", "Dp", "lp", "ds", "ls"):
        ring = parse_ring("ring 0 (x,y,z) %s" % tok)
        for i in range(1000):
            p = _random_poly(rng, ring, 6, 8, zero_ok=True)
            if parse_poly(serialize(p), ring) != p:
                return False, ["round-trip failure under %s: %s" % (tok, p)]
    details.append("serialize/parse round-trips on 10^3 polynomials x 5 orderings")

    ring = parse_ring("ring 0 (x,y,z) ds")
    f54 = parse_poly("x*y+z^3", ring)
    g54 = parse_poly("x*z+y*z^2+y^4", ring)
    germ = ft_germ(5, 4)
    if f54 != germ.f or g54 != germ.g:
        return False, ["FT(5,4) text does not match the constructor"]

    caption = "x^40+y^30+z^24+x^10*y^7+x^7*y^7*z^3+x^6*y^8*(y^2+%s*x)^2"
    for t, want_order, want_terms in ((0, 17, 6), (1, 16, 8)):
        p = parse_poly(caption % t, ring)
        q = zariski_family(40, 30, 8, t)
        q = parse_poly(serialize(q), ring)  # rebuild in this ring context
        good = p == q and order_of(p) == want_order and len(p) == want_terms
        if not good:
            return False, [
                "caption formula at t=%d: order %d, %d terms" % (t, order_of(p), len(p))
            ]
    details.append("paper expressions parse to the constructed polynomials")
    return True, details


# ---------------------------------------------------------------------------
# registry and runner

CRITERIA = (
    (1, "Zariski family reproduction", criterion_1_zariski, None),
    (2, "FT grid mu and tau", criterion_2_ft_grid, 10.0),
    (3, "Saito consistency", criterion_3_saito, None),
    (4, "Reiffen exactness on FT germs", criterion_4_reiffen, 60.0),
    (5, "engine property suite", criterion_5_engine_properties, 300.0),
    (6, "calculus properties", criterion_6_calculus, None),
    (7, "front-end round-trips", criterion_7_front_end, None),
)


def run_criterion(number, seed=DEFAULT_SEED):
    for num, title, fn, budget in CRITERIA:
        if num == number:
            rng = random.Random(seed + number)
            t0 = time.perf_counter()
            passed, details = fn(rng)
            elapsed = time.perf_counter() - t0
            if budget is not None and elapsed > budget:
                passed = False
                details = list(details) + [
                    "budget exceeded: %.1fs > %.1fs" % (elapsed, budget)
                ]
            return CriterionResult(num, title, passed, elapsed, tuple(details))
    raise ValueError("no criterion %r" % (number,))


def run_all(seed=DEFAULT_SEED, out=None):
    """Run every criterion; print one line each to `out`; return results."""
    results = []
    for num, _, _, _ in CRITERIA:
        res = run_criterion(num, seed)
        results.append(res)
        if out is not None:
            print(res.line(), file=out)
            for d in res.details:
                print("    " + d, file=out)
    return results
