"""Differential forms in three variables and exactness of the Poincare
complex of a space-curve germ.

Polynomial k-forms are stored against fixed bases chosen so that the wedge
and the exterior derivative take the cross-product, curl and divergence
shapes of vector calculus. On top of them sit presentations of the modules
Omega^k of a complete-intersection curve (V(f,g),0), their dimensions, and
Reiffen's two conditions: containment of <f,g>*Omega^3 in d(<f,g>*Omega^2),
decided up to a jet order by linear algebra, and the dimension equation
mu = dim Omega^2 - dim Omega^3.
"""

from .errors import (
    DegreeOverflow,
    NonIsolated,
    ParameterOutOfRange,
    ResourceExhausted,
    RingMismatch,
    WrongVariableCount,
)
from .invariants import (
    SpaceCurveGerm,
    _dim_json,
    _quasihomogeneity_given_mu,
    milnor_space_curve,
)
from .record import FrozenRecord
from .ring import Polynomial, VectorElement
from .stdbasis import DEFAULT_CEILING, INFINITE, highest_corner, local_vdim

_FORM_RANK = (1, 3, 3, 1)

# Refusal threshold for the condition-1 linear algebra: the multiplier
# count grows cubically in the order, and far before this line the jet
# certificate has stopped telling anyone anything new.
MAX_CONDITION1_ORDER = 64


# ---------------------------------------------------------------------------
# forms


class DifferentialForm:
    """A polynomial k-form on three-space, k in {0, 1, 2, 3}.

    Coefficients follow the canonical ordered bases: 1 for k = 0, then
    (dx, dy, dz), then (dy^dz, dz^dx, dx^dy), then dx^dy^dz, written here
    for variables named x, y, z. The 2-form basis is cyclic so that the
    derivative of a 2-form is the divergence of its coefficient vector.
    """

    __slots__ = ("ring", "degree", "coeffs")

    def __init__(self, ring, degree, coeffs):
        if ring.n != 3:
            raise WrongVariableCount("differential forms need exactly 3 variables")
        if not isinstance(degree, int) or not 0 <= degree <= 3:
            raise DegreeOverflow("form degree %r outside 0..3" % (degree,))
        coeffs = tuple(
            c if isinstance(c, Polynomial) else ring.constant(c) for c in coeffs
        )
        if len(coeffs) != _FORM_RANK[degree]:
            raise ParameterOutOfRange(
                "a %d-form needs %d coefficients, got %d"
                % (degree, _FORM_RANK[degree], len(coeffs))
            )
        for c in coeffs:
            if c.ring != ring:
                raise RingMismatch("form coefficients live in different rings")
        self.ring = ring
        self.degree = degree
        self.coeffs = coeffs

    @classmethod
    def zero(cls, ring, degree):
        return cls(ring, degree, (ring.zero(),) * _FORM_RANK[degree])

    @classmethod
    def function(cls, h):
        """The 0-form given by a polynomial."""
        return cls(h.ring, 0, (h,))

    @property
    def is_zero(self):
        return not any(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def _check(self, other):
        if not isinstance(other, DifferentialForm):
            raise TypeError("expected a DifferentialForm")
        if self.ring != other.ring:
            raise RingMismatch("forms live in different rings")
        if self.degree != other.degree:
            raise DegreeOverflow(
                "cannot combine a %d-form with a %d-form"
                % (self.degree, other.degree)
            )

    def __eq__(self, other):
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ring, self.degree, self.coeffs))

    def __add__(self, other):
        self._check(other)
        return DifferentialForm(
            self.ring,
            self.degree,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other):
        self._check(other)
        return DifferentialForm(
            self.ring,
            self.degree,
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self):
        return DifferentialForm(
            self.ring, self.degree, tuple(-a for a in self.coeffs)
        )

    def __mul__(self, other):
        """Scale by a polynomial or a scalar."""
        if isinstance(other, DifferentialForm):
            raise TypeError("use wedge() for products of forms")
        return DifferentialForm(
            self.ring, self.degree, tuple(c * other for c in self.coeffs)
        )

    __rmul__ = __mul__

    def basis_labels(self):
        x, y, z = self.ring.variables
        if self.degree == 0:
            return ("1",)
        if self.degree == 1:
            return ("d" + x, "d" + y, "d" + z)
        if self.degree == 2:
            return ("d%s^d%s" % (y, z), "d%s^d%s" % (z, x), "d%s^d%s" % (x, y))
        return ("d%s^d%s^d%s" % (x, y, z),)

    def __str__(self):
        if self.degree == 0:
            return str(self.coeffs[0])
        parts = [
            "(%s)*%s" % (c, lab)
            for c, lab in zip(self.coeffs, self.basis_labels())
            if c
        ]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return "DifferentialForm(%d, %s)" % (self.degree, self)


def wedge(a, b):
    """Exterior product with the orientation dx^dy^dz = 1."""
    if not isinstance(a, DifferentialForm) or not isinstance(b, DifferentialForm):
        raise TypeError("wedge expects two DifferentialForms")
    if a.ring != b.ring:
        raise RingMismatch("forms live in different rings")
    k = a.degree + b.degree
    if k > 3:
        raise DegreeOverflow(
            "wedge of a %d-form and a %d-form exceeds 3 variables"
            % (a.degree, b.degree)
        )
    ring = a.ring
    if a.degree == 0:
        return DifferentialForm(ring, k, tuple(a.coeffs[0] * c for c in b.coeffs))
    if b.degree == 0:
        return DifferentialForm(ring, k, tuple(b.coeffs[0] * c for c in a.coeffs))
    u, v = a.coeffs, b.coeffs
    if a.degree == 1 and b.degree == 1:
        # cross product: dx^dy lands on the third 2-form basis slot
        return DifferentialForm(
            ring,
            2,
            (
                u[1] * v[2] - u[2] * v[1],
                u[2] * v[0] - u[0] * v[2],
                u[0] * v[1] - u[1] * v[0],
            ),
        )
    # 1-form against 2-form in either order: both signs are +1
    return DifferentialForm(ring, 3, (u[0] * v[0] + u[1] * v[1] + u[2] * v[2],))


def exterior_derivative(a):
    """The C-linear differential d with the fixed orientation."""
    if not isinstance(a, DifferentialForm):
        raise TypeError("exterior_derivative expects a DifferentialForm")
    ring = a.ring
    if a.degree == 3:
        raise DegreeOverflow("there is no nonzero 4-form in three variables")
    if a.degree == 0:
        h = a.coeffs[0]
        return DifferentialForm(ring, 1, tuple(h.partial(i) for i in range(3)))
    c = a.coeffs
    if a.degree == 1:
        # curl
        return DifferentialForm(
            ring,
            2,
            (
                c[2].partial(1) - c[1].partial(2),
                c[0].partial(2) - c[2].partial(0),
                c[1].partial(0) - c[0].partial(1),
            ),
        )
    # divergence
    return DifferentialForm(
        ring, 3, (c[0].partial(0) + c[1].partial(1) + c[2].partial(2),)
    )


# ---------------------------------------------------------------------------
# Omega^k presentations


class OmegaPresentation:
    """Generators of the submodule cutting Omega^k_{X,0} out of free Omega^k.

    For the curve X = V(f, g) the module Omega^k_{X,0} is the quotient of
    the free module of k-forms by <f,g>*Omega^k + df^Omega^{k-1} +
    dg^Omega^{k-1}; the generator list realizes exactly those
    2*C(3,k) + 2*C(3,k-1) elements in the fixed basis.
    """

    __slots__ = ("ring", "k", "f", "g", "rank", "generators")

    def __init__(self, f, g, k):
        if k not in (2, 3):
            raise ParameterOutOfRange("Omega presentations exist for k in {2, 3}")
        germ = SpaceCurveGerm(f, g)
        ring = germ.ring
        rank = _FORM_RANK[k]
        gens = []
        for h in (f, g):
            for i in range(1, rank + 1):
                gens.append(VectorElement.unit(ring, rank, i) * h)
        # dh ^ w for each basis (k-1)-form w, straight from the partials:
        # against dy^dz, dz^dx, dx^dy it is h_x, h_y, h_z, and against dx,
        # dy, dz it is the cross product of the gradient with e_i
        zero = ring.zero()
        for h in (f, g):
            hx, hy, hz = (h.partial(i) for i in range(3))
            if k == 3:
                forms = ((hx,), (hy,), (hz,))
            else:
                forms = ((zero, hz, -hy), (-hz, zero, hx), (hy, -hx, zero))
            gens.extend(VectorElement.from_components(w, rank=rank) for w in forms)
        self.ring = ring
        self.k = k
        self.f = f
        self.g = g
        self.rank = rank
        self.generators = tuple(gens)

    def __repr__(self):
        return "OmegaPresentation(k=%d, %d generators)" % (
            self.k,
            len(self.generators),
        )


def omega_dimension(f, g, k, *, strategy=None, ceiling=DEFAULT_CEILING):
    """dim of Omega^k_{X,0} for X = V(f, g), k in {2, 3}; INFINITE if so.

    Computed as the vector-space dimension of the free module of k-forms
    modulo the OmegaPresentation, through a module standard basis. For
    k = 3 the quotient is also C{x,y,z}/(<f,g> + j(f) + j(g)); acceptance
    criterion 6 checks that the two routes agree.
    """
    pres = OmegaPresentation(f, g, k)
    value, _ = local_vdim(pres.generators, strategy=strategy, ceiling=ceiling)
    return value


# ---------------------------------------------------------------------------
# Reiffen's conditions


class Condition1Result(FrozenRecord):
    """Outcome of the containment test, truncated at a jet order."""

    __slots__ = ("verified", "order", "note")

    def __init__(self, verified, order, note=""):
        super().__init__(verified, order, note)

    def label(self):
        word = "verified-to-order" if self.verified else "refuted-at-order"
        return "%s %d" % (word, self.order)

    def to_json(self):
        out = {"status": self.label(), "verified": self.verified, "order": self.order}
        if self.note:
            out["note"] = self.note
        return out


class Condition2Result(FrozenRecord):
    """Outcome of mu = dim Omega^2 - dim Omega^3, with the witnesses."""

    __slots__ = ("holds", "mu", "dim_omega2", "dim_omega3")

    def __init__(self, holds, mu, dim_omega2, dim_omega3):
        super().__init__(holds, mu, dim_omega2, dim_omega3)

    def to_json(self):
        return {
            "holds": self.holds,
            "mu": _dim_json(self.mu),
            "dim_omega2": _dim_json(self.dim_omega2),
            "dim_omega3": _dim_json(self.dim_omega3),
        }


class _SparseSpan:
    """Row space over a coefficient field, columns keyed by exponent tuples.

    Pivot columns are chosen as the maximal key present, which makes the
    whole elimination deterministic without any global column indexing.
    """

    __slots__ = ("field", "pivots")

    def __init__(self, field):
        self.field = field
        self.pivots = {}

    def _reduce(self, row):
        pivots = self.pivots
        sub = self.field.sub
        mul = self.field.mul
        while row:
            col = max(row)
            piv = pivots.get(col)
            if piv is None:
                return row
            c0 = row.pop(col)
            for c, v in piv.items():
                if c == col:
                    continue
                nv = sub(row.get(c, self.field.zero), mul(c0, v))
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
        return row

    def insert(self, row):
        row = self._reduce(row)
        if not row:
            return False
        col = max(row)
        inv = self.field.inv(row[col])
        mul = self.field.mul
        self.pivots[col] = {c: mul(inv, v) for c, v in row.items()}
        return True

    def contains(self, row):
        return not self._reduce(dict(row))


def _jet_terms(p, order):
    """(exponents, degree, coefficient) of the terms of p of degree <= order."""
    lay = p.ring.layout
    out = []
    for code, c in p._terms:
        d = lay.degree(code)
        if d <= order:
            out.append((lay.decode_exps(code), d, c))
    return out


def _monomials_up_to(bound):
    out = []
    for a in range(bound + 1):
        for b in range(bound + 1 - a):
            for c in range(bound + 1 - a - b):
                out.append((a, b, c))
    out.sort()
    return out


def reiffen_condition_1(f, g, order="auto", *, strategy=None, ceiling=DEFAULT_CEILING):
    """Reiffen's first condition: <f,g>*Omega^3 inside d(<f,g>*Omega^2).

    Decided modulo the order-th power of the maximal ideal: the span V of
    the truncations below degree `order` of d(m*h*w), over monomials m of
    degree <= order, h in {f, g} and basis 2-forms w, is compared against
    the truncations of f*dx^dy^dz and g*dx^dy^dz. Membership gives
    "verified-to-order N", an up-to-order certificate rather than an
    unconditional proof; a miss refutes the containment outright, since
    multipliers beyond the order only contribute above the truncation.
    order="auto" resolves to the highest corner of <f,g> + j(f) + j(g)
    plus 2, so the quotient in which membership is decided is already
    stable.

    The rows of V are read off the terms of f and g of degree <= order:
    d(m*h * dy^dz) = (m*h)_x dx^dy^dz, and cyclically, so the row of m, h
    and variable i is {m+t-e_i: (m_i+t_i)*c} over the terms c*x^t of h with
    deg m + deg t <= order, without the zero values (m_i+t_i zero in the
    field). Distinct terms of h stay distinct in m*h, so no two terms of a
    row collide.
    """
    germ = SpaceCurveGerm(f, g)
    ring = germ.ring
    if order == "auto":
        omega3_gens = [f, g]
        omega3_gens.extend(f.partial(i) for i in range(3))
        omega3_gens.extend(g.partial(i) for i in range(3))
        value, basis = local_vdim(omega3_gens, strategy=strategy, ceiling=ceiling)
        if value is INFINITE:
            raise NonIsolated(
                "the quotient by <f,g> + j(f) + j(g) is not finite "
                "dimensional; pass an explicit truncation order instead of auto"
            )
        order = highest_corner(basis) + 2
    if not isinstance(order, int) or order < 0:
        raise ParameterOutOfRange("truncation order must be a non-negative integer")
    if order > MAX_CONDITION1_ORDER:
        raise ResourceExhausted(
            "condition-1 linear algebra refused at order %d (limit %d)"
            % (order, MAX_CONDITION1_ORDER)
        )
    if order == 0:
        return Condition1Result(
            True,
            0,
            "vacuous: every form is congruent to zero modulo the zeroth power",
        )
    field = ring.field
    mul = field.mul
    scale = [field.coerce(k) for k in range(order + 1)]
    jets = (_jet_terms(f, order), _jet_terms(g, order))
    span = _SparseSpan(field)
    for m in _monomials_up_to(order):
        room = order - sum(m)
        for terms in jets:
            shifted = [
                (tuple(a + b for a, b in zip(m, e)), c)
                for e, d, c in terms
                if d <= room
            ]
            for i in range(3):
                row = {}
                for s, c in shifted:
                    v = mul(c, scale[s[i]])
                    if v:
                        row[s[:i] + (s[i] - 1,) + s[i + 1:]] = v
                if row:
                    span.insert(row)
    verified = all(
        span.contains({e: c for e, d, c in terms if d < order}) for terms in jets
    )
    return Condition1Result(verified, order)


def reiffen_condition_2(f, g, *, strategy=None, ceiling=DEFAULT_CEILING):
    """Reiffen's second condition: mu = dim Omega^2 - dim Omega^3."""
    germ = SpaceCurveGerm(f, g)
    mu = milnor_space_curve(germ, strategy=strategy, ceiling=ceiling)
    if mu is INFINITE:
        raise NonIsolated("the Milnor number is not finite")
    d2 = omega_dimension(f, g, 2, strategy=strategy, ceiling=ceiling)
    d3 = omega_dimension(f, g, 3, strategy=strategy, ceiling=ceiling)
    if d2 is INFINITE or d3 is INFINITE:
        raise NonIsolated("an Omega dimension is not finite")
    return Condition2Result(d2 - d3 == mu, mu, d2, d3)


# ---------------------------------------------------------------------------
# the combined report


class ExactnessReport(FrozenRecord):
    """Both Reiffen conditions plus the quasi-homogeneity verdict.

    The Poincare complex of the germ is exact precisely when both
    conditions hold; with condition (1) certified only up to a jet order
    the verdict is "exact-up-to-order-N". Keeping quasi-homogeneity in the
    same artifact makes the interesting phenomenon (exact complex on a
    germ that is not quasi-homogeneous) visible at a glance.
    """

    __slots__ = (
        "condition1", "condition2", "verdict", "quasi_homogeneous", "characteristic"
    )

    def __init__(self, condition1, condition2, verdict, quasi_homogeneous,
                 characteristic):
        super().__init__(condition1, condition2, verdict, quasi_homogeneous,
                         characteristic)

    @property
    def mu(self):
        return self.condition2.mu

    def to_json(self):
        return {
            "condition1": self.condition1.to_json(),
            "condition2": self.condition2.to_json(),
            "order": self.condition1.order,
            "mu": _dim_json(self.condition2.mu),
            "dim_omega2": _dim_json(self.condition2.dim_omega2),
            "dim_omega3": _dim_json(self.condition2.dim_omega3),
            "verdict": self.verdict,
            "quasi_homogeneous": self.quasi_homogeneous,
            "characteristic": self.characteristic,
        }


def exactness_report(f, g, order="auto", *, strategy=None, ceiling=DEFAULT_CEILING):
    """Exactness of the Poincare complex of (V(f,g), 0), per Reiffen.

    The verdict is exact-up-to-order-N when condition (2) holds exactly
    and condition (1) is verified at order N >= 1; a refutation of either
    yields not-exact; a vacuous order-0 certificate leaves the report
    inconclusive.
    """
    germ = SpaceCurveGerm(f, g)
    c1 = reiffen_condition_1(f, g, order, strategy=strategy, ceiling=ceiling)
    c2 = reiffen_condition_2(f, g, strategy=strategy, ceiling=ceiling)
    qh = _quasihomogeneity_given_mu(germ, c2.mu, strategy=strategy, ceiling=ceiling)
    if not c1.verified or not c2.holds:
        verdict = "not-exact"
    elif c1.order == 0:
        verdict = "inconclusive"
    else:
        verdict = "exact-up-to-order-%d" % c1.order
    return ExactnessReport(c1, c2, verdict, qh, germ.ring.characteristic)
