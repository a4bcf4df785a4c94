"""Singularity invariants of isolated germs.

A germ carries its defining equations in a local ring; Milnor and Tjurina
numbers come out of standard-basis dimension counts, quasi-homogeneity out
of the numerical criterion of Saito (mu = tau), and multiplicity out of
the tangent cone. The two parametric families used as primary workloads
live here as constructors.
"""

from fractions import Fraction

from .errors import (
    ModeOrderingMismatch,
    NonIsolated,
    ParameterOutOfRange,
    RingMismatch,
    WrongVariableCount,
    ZeroPolynomial,
)
from .parse import parse_ring
from .record import FrozenRecord
from .ring import jacobian_minors, order_of
from .stdbasis import DEFAULT_CEILING, INFINITE, Staircase, local_vdim, std


# ---------------------------------------------------------------------------
# germ types


class HypersurfaceGerm:
    """The germ (V(f), 0) of a hypersurface in a local ring."""

    __slots__ = ("ring", "f")

    def __init__(self, f):
        if not f:
            raise ZeroPolynomial("a hypersurface germ needs a nonzero equation")
        ring = f.ring
        if not ring.is_local:
            raise ModeOrderingMismatch("hypersurface germs need a local ordering")
        if f.constant_term():
            raise ParameterOutOfRange("the equation does not vanish at the origin")
        self.ring = ring
        self.f = f

    def jacobian(self):
        """The partial derivatives of f, zeros included."""
        return [self.f.partial(i) for i in range(self.ring.n)]

    def tjurina_generators(self):
        """f and its partial derivatives: the ideal whose quotient has dim tau."""
        return [self.f] + self.jacobian()

    def __repr__(self):
        return "HypersurfaceGerm(%s)" % (self.f,)


class SpaceCurveGerm:
    """The germ (V(f, g), 0) of a complete-intersection curve in 3-space."""

    __slots__ = ("ring", "f", "g")

    def __init__(self, f, g):
        if not f or not g:
            raise ZeroPolynomial("a space-curve germ needs two nonzero equations")
        ring = f.ring
        if g.ring != ring:
            raise RingMismatch("the two equations live in different rings")
        if ring.n != 3:
            raise WrongVariableCount("space-curve germs need exactly 3 variables")
        if not ring.is_local:
            raise ModeOrderingMismatch("space-curve germs need a local ordering")
        if f.constant_term() or g.constant_term():
            raise ParameterOutOfRange("the equations do not vanish at the origin")
        self.ring = ring
        self.f = f
        self.g = g

    def minors(self):
        """The three 2x2 minors of the Jacobian matrix of (f, g)."""
        return jacobian_minors(self.f, self.g)

    def tjurina_generators(self):
        """f, g and the three Jacobian minors: the ideal whose quotient has dim tau."""
        return [self.f, self.g] + list(self.minors())

    def swapped(self):
        """The same curve with the roles of the two equations exchanged."""
        return SpaceCurveGerm(self.g, self.f)

    def __repr__(self):
        return "SpaceCurveGerm(%s, %s)" % (self.f, self.g)


class InvariantReport(FrozenRecord):
    """Summary of the invariants of one germ.

    `quasi_homogeneous` is one of "yes", "no" or "undetermined"; the note
    explains any undetermined verdict. mu and tau may be INFINITE.
    """

    __slots__ = (
        "mu", "tau", "multiplicity", "quasi_homogeneous", "characteristic", "note"
    )

    def __init__(self, mu, tau, multiplicity, quasi_homogeneous, characteristic,
                 note=""):
        super().__init__(mu, tau, multiplicity, quasi_homogeneous, characteristic,
                         note)

    def to_json(self):
        return {
            "mu": _dim_json(self.mu),
            "tau": _dim_json(self.tau),
            "multiplicity": self.multiplicity,
            "quasi_homogeneous": self.quasi_homogeneous,
            "characteristic": self.characteristic,
            "note": self.note,
        }


def _dim_json(value):
    return "infinite" if value == INFINITE else int(value)


# ---------------------------------------------------------------------------
# dimension-count invariants


def milnor_hypersurface(germ, *, strategy=None, ceiling=DEFAULT_CEILING):
    """mu = vdim of the Jacobian ideal; INFINITE flags a non-isolated point."""
    value, _ = local_vdim(germ.jacobian(), strategy=strategy, ceiling=ceiling)
    return value


def tjurina_hypersurface(germ, *, strategy=None, ceiling=DEFAULT_CEILING):
    """tau = vdim of the ideal spanned by f and its partial derivatives."""
    value, _ = local_vdim(germ.tjurina_generators(), strategy=strategy, ceiling=ceiling)
    return value


def milnor_space_curve(germ, *, strategy=None, ceiling=DEFAULT_CEILING):
    """mu of a space curve from the minor formula.

    The formula is the difference of two dimension counts and is not
    symmetric in f and g: the subtrahend uses the partial derivatives of f
    alone. Use milnor_both_orientations when both equations are singular
    and the intended order is unclear.
    """
    m1, m2, m3 = germ.minors()
    first, _ = local_vdim(
        [germ.f, m1, m2, m3], strategy=strategy, ceiling=ceiling
    )
    if first == INFINITE:
        return INFINITE
    second, _ = local_vdim(
        [germ.f.partial(i) for i in range(3)], strategy=strategy, ceiling=ceiling
    )
    if second == INFINITE:
        # the difference is meaningless here; the other orientation may work
        raise NonIsolated(
            "the critical locus of the first equation is positive dimensional; "
            "try the swapped orientation"
        )
    return first - second


def tjurina_space_curve(germ, *, strategy=None, ceiling=DEFAULT_CEILING):
    """tau = vdim of the ideal of f, g and the three Jacobian minors."""
    value, _ = local_vdim(germ.tjurina_generators(), strategy=strategy, ceiling=ceiling)
    return value


def milnor_both_orientations(germ, *, strategy=None, ceiling=DEFAULT_CEILING):
    """mu for (f, g) and for (g, f); equal values settle the asymmetry."""
    return (
        milnor_space_curve(germ, strategy=strategy, ceiling=ceiling),
        milnor_space_curve(germ.swapped(), strategy=strategy, ceiling=ceiling),
    )


def milnor(germ, *, strategy=None, ceiling=DEFAULT_CEILING):
    if isinstance(germ, SpaceCurveGerm):
        return milnor_space_curve(germ, strategy=strategy, ceiling=ceiling)
    return milnor_hypersurface(germ, strategy=strategy, ceiling=ceiling)


def tjurina(germ, *, strategy=None, ceiling=DEFAULT_CEILING):
    if isinstance(germ, SpaceCurveGerm):
        return tjurina_space_curve(germ, strategy=strategy, ceiling=ceiling)
    return tjurina_hypersurface(germ, strategy=strategy, ceiling=ceiling)


# ---------------------------------------------------------------------------
# multiplicity


def multiplicity(germ, *, strategy=None, ceiling=DEFAULT_CEILING):
    """Multiplicity of the germ at the origin.

    For a hypersurface this is the order of the equation. For a curve it
    is the degree of the tangent cone, read off the leading ideal of
    (f, g): the Hilbert function of the quotient stabilizes at the number
    of infinite monomial rays of the staircase, and that count is the sum,
    over the axes, of the dimension of the staircase projected along the
    axis (the sum of its per-degree counts).
    """
    if isinstance(germ, HypersurfaceGerm):
        return order_of(germ.f)
    basis = std([germ.f, germ.g], strategy, ceiling=ceiling)
    leads = [exps for exps, _ in basis.leading_exponents()]
    total = 0
    for axis in range(3):
        proj = [
            tuple(e for v, e in enumerate(exps) if v != axis) for exps in leads
        ]
        flat = Staircase(2, None, [(p, 0) for p in proj])
        if not flat.is_finite():
            raise NonIsolated("the two equations do not define an isolated curve")
        total += sum(flat.counts_by_degree())
    return total


# ---------------------------------------------------------------------------
# quasi-homogeneity


def is_quasihomogeneous(germ, *, strategy=None, ceiling=DEFAULT_CEILING):
    """"yes"/"no" by the mu = tau criterion; "undetermined" over F_p.

    The numerical equivalence behind the verdict is certified in
    characteristic zero only, so any positive characteristic yields
    "undetermined" regardless of the counts.
    """
    return _quasihomogeneity_given_mu(germ, None, strategy=strategy, ceiling=ceiling)


def _quasihomogeneity_given_mu(germ, mu, *, strategy=None, ceiling=DEFAULT_CEILING):
    """is_quasihomogeneous, reusing mu when the caller already computed it."""
    if germ.ring.characteristic:
        return "undetermined"
    if mu is None:
        mu = milnor(germ, strategy=strategy, ceiling=ceiling)
    if mu == INFINITE:
        raise NonIsolated("quasi-homogeneity needs an isolated singularity")
    tau_ = tjurina(germ, strategy=strategy, ceiling=ceiling)
    return "yes" if mu == tau_ else "no"


def find_weights(f):
    """Positive rational weights giving every term of f weighted degree 1.

    Solves the linear system over the exponent vectors of f exactly. A
    solvable but underdetermined system is pinned down deterministically:
    free weights are fixed one at a time to the midpoint of their feasible
    interval (computed by Fourier-Motzkin elimination), or to the lower
    bound plus one when unbounded above. Returns None when no positive
    solution exists in the given coordinates; that is not a proof of
    non-quasi-homogeneity, since coordinate changes are not searched.
    """
    if not f:
        raise ZeroPolynomial("the zero polynomial has no weight vector")
    ring = f.ring
    n = ring.n
    lay = ring.layout
    alphas = sorted(set(lay.decode_exps(code) for code, _ in f._terms))
    rows = [[Fraction(e) for e in a] + [Fraction(1)] for a in alphas]

    # Gauss-Jordan over the rationals
    pivots = {}  # column -> row
    r = 0
    for col in range(n):
        pr = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [v / rows[r][col] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[r])]
        pivots[col] = r
        r += 1
    for i in range(r, len(rows)):
        if rows[i][n]:
            return None  # inconsistent

    free = [col for col in range(n) if col not in pivots]
    # strict inequalities a.wf < b over the free weights; positivity of the
    # pivot weight w_p = b_p - sum a_pj wf_j reads sum a_pj wf_j < b_p
    ineqs = []
    for col, row_i in pivots.items():
        ineqs.append(([rows[row_i][j] for j in free], rows[row_i][n]))
    for j in range(len(free)):
        coeff = [Fraction(0)] * len(free)
        coeff[j] = Fraction(-1)
        ineqs.append((coeff, Fraction(0)))  # -wf_j < 0

    values = [None] * len(free)
    for j in range(len(free)):
        reduced = list(ineqs)
        for k in range(len(free) - 1, j, -1):
            reduced = _eliminate(reduced, k)
            if reduced is None:
                return None
        lo, hi = None, None
        for coeff, b in reduced:
            c = coeff[j]
            if c > 0 and (hi is None or b / c < hi):
                hi = b / c
            elif c < 0 and (lo is None or b / c > lo):
                lo = b / c
        if lo is None:
            lo = Fraction(0)
        if hi is not None and lo >= hi:
            return None
        val = lo + 1 if hi is None else (lo + hi) / 2
        values[j] = val
        ineqs = [
            (coeff[:j] + [Fraction(0)] + coeff[j + 1 :], b - coeff[j] * val)
            for coeff, b in ineqs
        ]
        if any(not any(c) and b <= 0 for c, b in ineqs):
            return None

    weights = [None] * n
    for j, col in enumerate(free):
        weights[col] = values[j]
    for col, row_i in pivots.items():
        weights[col] = rows[row_i][n] - sum(
            rows[row_i][free[j]] * values[j] for j in range(len(free))
        )
    if any(w <= 0 for w in weights):
        return None
    assert f.weighted_degree(weights) == 1
    return tuple(weights)


def _eliminate(ineqs, k):
    """Fourier-Motzkin step: drop variable k from strict inequalities."""
    keep, pos, neg = [], [], []
    for coeff, b in ineqs:
        c = coeff[k]
        if not c:
            keep.append((coeff, b))
        elif c > 0:
            pos.append(([v / c for v in coeff], b / c))
        else:
            neg.append(([v / -c for v in coeff], b / -c))
    for pc, pb in pos:
        for nc, nb in neg:
            coeff = [a + x for a, x in zip(pc, nc)]
            coeff[k] = Fraction(0)
            b = pb + nb
            if not any(coeff) and b <= 0:
                return None  # 0 < b <= 0 is infeasible
            keep.append((coeff, b))
    return keep


# ---------------------------------------------------------------------------
# example families


def ft_germ(k, l, ring=None):
    """The space curve with equations xy + z^(l-1) and xz + yz^2 + y^(k-1).

    Its invariants are mu = k + l + 2 and tau = k + l + 1, so the curve is
    never quasi-homogeneous in the valid parameter range. The default ring
    is characteristic 0 with the ds ordering; any ring must be local.
    """
    if not (4 <= l <= k and 5 <= k):
        raise ParameterOutOfRange("ft_germ needs 4 <= l <= k and 5 <= k")
    x, y, z = _three_variables(ring)
    return SpaceCurveGerm(x * y + z ** (l - 1), x * z + y * z ** 2 + y ** (k - 1))


def _three_variables(ring):
    """The variables of a family's ring, by default ring 0 (x,y,z) ds."""
    if ring is None:
        ring = parse_ring("ring 0 (x,y,z) ds")
    if ring.n != 3:
        raise WrongVariableCount("the family lives in 3 variables")
    return (ring.variable(i) for i in range(3))


def zariski_family(a, b, c, t, ring=None):
    """One member of the deformation family of surface germs.

    F_t = x^a + y^b + z^(3c) + x^(c+2) y^(c-1) + x^(c-1) y^(c-1) z^3
        + x^(c-2) y^c (y^2 + t x)^2,
    fully expanded with the parameter substituted. The default ring is
    characteristic 0 with the ds ordering.
    """
    if a < 1 or b < 1 or c < 3:
        raise ParameterOutOfRange("zariski_family needs a, b >= 1 and c >= 3")
    x, y, z = _three_variables(ring)
    tc = x.ring.constant(t)
    return (
        x ** a
        + y ** b
        + z ** (3 * c)
        + x ** (c + 2) * y ** (c - 1)
        + x ** (c - 1) * y ** (c - 1) * z ** 3
        + x ** (c - 2) * y ** c * (y ** 2 + tc * x) ** 2
    )


# ---------------------------------------------------------------------------
# aggregate report


def full_report(germ, *, strategy=None, ceiling=DEFAULT_CEILING):
    """All invariants of one germ in a single report."""
    p = germ.ring.characteristic
    mu = milnor(germ, strategy=strategy, ceiling=ceiling)
    tau_ = tjurina(germ, strategy=strategy, ceiling=ceiling)
    mult = multiplicity(germ, strategy=strategy, ceiling=ceiling)
    note = ""
    if p:
        qh = "undetermined"
        note = (
            "computed over characteristic %d; the mu = tau criterion is "
            "certified in characteristic zero only" % p
        )
    elif mu == INFINITE or tau_ == INFINITE:
        qh = "undetermined"
        note = "the singularity is not isolated"
    else:
        qh = "yes" if mu == tau_ else "no"
    return InvariantReport(
        mu=mu,
        tau=tau_,
        multiplicity=mult,
        quasi_homogeneous=qh,
        characteristic=p,
        note=note,
    )
