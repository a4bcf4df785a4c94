"""Rings, monomial orderings, sparse polynomials and free-module vectors.

A monomial (or module term) is packed into a single integer so that

  * comparing two packed codes with ``<`` realizes the ring's monomial
    ordering (descending integer = descending monomial),
  * multiplying monomials is one integer addition (plus a mask test that
    catches exponent overflow), and
  * divisibility is a subtract-and-mask test.

The packing is derived per ring from the ordering's matrix of linear forms:
every supported ordering (lex/deglex/degrevlex, their negative variants,
weighted versions, and block compositions) compares by a chain of integer
linear forms in the exponents, so each form gets a fixed-width field in the
code, most significant first, with an offset making the stored value
non-negative. Below the ordering fields the code carries the total degree
and the raw exponents; module terms additionally carry the component twice
(once where the module rule sorts it, once next to the exponents for the
divisibility test). Exponents are capped at 2**16 per variable.

Whether total degree is the top field, and in which direction, is read off
the layout itself (``_Layout.deg_top``): +1 when the first form is the
degree and nothing sorts above it (dp, Dp, wp(1,...,1), their modules term
over position), -1 when it is minus the degree (ds, ls, ws(1,...,1)), and 0
otherwise (lp, mixed orderings, other weights, every module position over
term). Degree extremes, the ecart and the jet truncation all follow from it.
"""

from fractions import Fraction

from .coeff import field_for
from .errors import (
    BadOrdering,
    DimensionMismatch,
    DuplicateVariable,
    ExponentOverflow,
    IndexOutOfRange,
    ModuleRankMismatch,
    RingMismatch,
    UnknownVariable,
    WrongVariableCount,
    ZeroElement,
    ZeroPolynomial,
)
from .record import FrozenRecord

_EXP_BITS = 18
_EXP_LIMIT = 1 << 16
_COMP_BITS = 17
_COMP_LIMIT = 1 << 16

LEX = "lex"
DEGLEX = "deglex"
DEGREVLEX = "degrevlex"
NEG_DEGLEX = "neg-deglex"
NEG_DEGREVLEX = "neg-degrevlex"
WEIGHTED = "weighted"
NEG_WEIGHTED = "neg-weighted"

_GLOBAL_KINDS = frozenset((LEX, DEGLEX, DEGREVLEX, WEIGHTED))
_LOCAL_KINDS = frozenset((NEG_DEGLEX, NEG_DEGREVLEX, NEG_WEIGHTED))
_WEIGHTED_KINDS = frozenset((WEIGHTED, NEG_WEIGHTED))

_KIND_TO_TOKEN = {
    DEGREVLEX: "dp",
    DEGLEX: "Dp",
    LEX: "lp",
    NEG_DEGREVLEX: "ds",
    NEG_DEGLEX: "ls",
    WEIGHTED: "wp",
    NEG_WEIGHTED: "ws",
}
TOKEN_TO_KIND = {v: k for k, v in _KIND_TO_TOKEN.items()}

TERM_OVER_POSITION = "term-over-position"
POSITION_OVER_TERM = "position-over-term"


class Block(FrozenRecord):
    """One ordering block covering ``size`` consecutive variables."""

    __slots__ = ("kind", "size", "weights")

    def __init__(self, kind, size, weights=None):
        if kind not in _GLOBAL_KINDS and kind not in _LOCAL_KINDS:
            raise BadOrdering("unknown ordering kind %r" % (kind,))
        if not isinstance(size, int) or size < 1:
            raise BadOrdering("block size must be a positive integer")
        if kind in _WEIGHTED_KINDS:
            if (
                weights is None
                or len(weights) != size
                or any(not isinstance(x, int) or x < 1 for x in weights)
            ):
                raise BadOrdering(
                    "weighted block needs %d positive integer weights" % size
                )
            weights = tuple(weights)
        elif weights is not None:
            raise BadOrdering("weights apply only to weighted blocks")
        super().__init__(kind, size, weights)

    @property
    def is_global(self):
        return self.kind in _GLOBAL_KINDS

    def token(self, with_size):
        base = _KIND_TO_TOKEN[self.kind]
        if self.kind in _WEIGHTED_KINDS:
            return "%s(%s)" % (base, ",".join(str(w) for w in self.weights))
        if with_size:
            return "%s(%d)" % (base, self.size)
        return base


class OrderingSpec(FrozenRecord):
    """Block ordering plus the rule for module components.

    Blocks partition the variable list in declaration order. The module rule
    decides whether the component index or the monomial is compared first;
    in both cases a lower component index wins ties.
    """

    __slots__ = ("blocks", "module_rule")

    def __init__(self, blocks, module_rule=TERM_OVER_POSITION):
        blocks = tuple(blocks)
        if not blocks or not all(isinstance(b, Block) for b in blocks):
            raise BadOrdering("ordering needs at least one Block")
        if module_rule not in (TERM_OVER_POSITION, POSITION_OVER_TERM):
            raise BadOrdering("unknown module rule %r" % (module_rule,))
        super().__init__(blocks, module_rule)

    @property
    def total_size(self):
        return sum(b.size for b in self.blocks)

    @property
    def is_global(self):
        return all(b.is_global for b in self.blocks)

    @property
    def is_local(self):
        return not any(b.is_global for b in self.blocks)

    def token(self):
        with_size = len(self.blocks) > 1
        return ",".join(b.token(with_size) for b in self.blocks)

    def with_module_rule(self, rule):
        return OrderingSpec(self.blocks, rule)

    def rows(self):
        """Matrix of linear forms realizing the ordering, top row first."""
        n = self.total_size
        rows = []
        start = 0
        for b in self.blocks:
            span = list(range(start, start + b.size))
            start += b.size
            sign = 1 if b.is_global else -1
            if b.kind == LEX:
                for v in span:
                    rows.append(_unit_row(n, v, 1))
                continue
            head = [0] * n
            weights = b.weights if b.weights is not None else (1,) * b.size
            for v, w in zip(span, weights):
                head[v] = sign * w
            rows.append(head)
            if b.kind in (DEGLEX, NEG_DEGLEX):
                for v in span[:-1]:
                    rows.append(_unit_row(n, v, 1))
            else:
                # revlex tie-break: the later variable with the smaller
                # exponent wins, so compare negated exponents from the end.
                for v in reversed(span[1:]):
                    rows.append(_unit_row(n, v, -1))
        return rows


def _unit_row(n, v, sign):
    row = [0] * n
    row[v] = sign
    return row


class _Layout:
    """Field layout of packed codes for one ring (scalar or module)."""

    __slots__ = (
        "n",
        "rows",
        "exp_shifts",
        "deg_shift",
        "deg_mask",
        "key_shifts",
        "key_offsets",
        "comp_sort_shift",
        "comp_div_shift",
        "code_one",
        "deg_top",
        "exp_overflow_mask",
        "div_check_mask",
        "var_deltas",
    )

    def __init__(self, n, rows, with_component, position_over_term):
        fields = []  # (kind, payload), most significant first
        if with_component and position_over_term:
            fields.append(("comp_sort", None))
        for i in range(len(rows)):
            fields.append(("key", i))
        if with_component and not position_over_term:
            fields.append(("comp_sort", None))
        fields.append(("deg", None))
        if with_component:
            fields.append(("comp_div", None))
        for v in range(n):
            fields.append(("exp", v))

        widths = []
        offsets = []
        deg_width = (2 * n * (_EXP_LIMIT - 1)).bit_length() + 1
        for kind, payload in fields:
            if kind == "key":
                bound = sum(abs(c) for c in rows[payload]) * (_EXP_LIMIT - 1)
                w = (2 * bound).bit_length() + 2
                widths.append(w)
                offsets.append(1 << (w - 1))
            elif kind == "deg":
                widths.append(deg_width)
                offsets.append(0)
            elif kind in ("comp_sort", "comp_div"):
                widths.append(_COMP_BITS)
                offsets.append(0)
            else:
                widths.append(_EXP_BITS)
                offsets.append(0)

        shifts = [0] * len(fields)
        pos = 0
        for i in range(len(fields) - 1, -1, -1):
            shifts[i] = pos
            pos += widths[i]

        self.n = n
        self.rows = [tuple(r) for r in rows]
        self.exp_shifts = [0] * n
        self.key_shifts = [0] * len(rows)
        self.key_offsets = [0] * len(rows)
        self.comp_sort_shift = None
        self.comp_div_shift = None
        code_one = 0
        for (kind, payload), shift, off in zip(fields, shifts, offsets):
            if kind == "exp":
                self.exp_shifts[payload] = shift
            elif kind == "key":
                self.key_shifts[payload] = shift
                self.key_offsets[payload] = off
                code_one += off << shift
            elif kind == "deg":
                self.deg_shift = shift
                self.deg_mask = (1 << deg_width) - 1
            elif kind == "comp_sort":
                self.comp_sort_shift = shift
            else:
                self.comp_div_shift = shift
        self.code_one = code_one
        # +1 (-1) when the top field is the total degree (minus it), so the
        # degree extremes of a set of codes sit at its greatest and least
        # code; 0 when callers must scan
        top = set(rows[0]) if fields[0] == ("key", 0) else None
        self.deg_top = 1 if top == {1} else -1 if top == {-1} else 0

        mask = 0
        for s in self.exp_shifts:
            mask |= 0b11 << (s + 16)
        self.exp_overflow_mask = mask
        if with_component:
            mask |= ((1 << _COMP_BITS) - 1) << self.comp_div_shift
        self.div_check_mask = mask
        # multiplying by the i-th variable adds var_deltas[i] to a code
        self.var_deltas = [
            self.encode(tuple(1 if j == i else 0 for j in range(n))) - code_one
            for i in range(n)
        ]

    def encode(self, exps, comp=None):
        if len(exps) != self.n:
            raise DimensionMismatch(
                "expected %d exponents, got %d" % (self.n, len(exps))
            )
        code = 0
        deg = 0
        for v, e in enumerate(exps):
            if e < 0 or e >= _EXP_LIMIT:
                raise ExponentOverflow("exponent %d out of range [0, 2^16)" % (e,))
            code += e << self.exp_shifts[v]
            deg += e
        code += deg << self.deg_shift
        for i, row in enumerate(self.rows):
            val = self.key_offsets[i]
            for v, c in enumerate(row):
                if c:
                    val += c * exps[v]
            code += val << self.key_shifts[i]
        if comp is not None:
            code += comp << self.comp_div_shift
            code += (_COMP_LIMIT - comp) << self.comp_sort_shift
        return code

    def decode_exps(self, code):
        return tuple((code >> s) & 0x3FFFF for s in self.exp_shifts)

    def degree(self, code):
        return (code >> self.deg_shift) & self.deg_mask

    def max_degree(self, codes):
        """The largest total degree among codes, given in any order."""
        if self.deg_top:
            return self.degree(max(codes) if self.deg_top > 0 else min(codes))
        shift = self.deg_shift
        mask = self.deg_mask
        return max((code >> shift) & mask for code in codes)

    def min_degree(self, codes):
        """The least total degree among codes, given in any order."""
        if self.deg_top:
            return self.degree(min(codes) if self.deg_top > 0 else max(codes))
        shift = self.deg_shift
        mask = self.deg_mask
        return min((code >> shift) & mask for code in codes)

    def component(self, code):
        return (code >> self.comp_div_shift) & 0x1FFFF

    def divides(self, a, b):
        """Does monomial code a divide code b (same component for modules)?"""
        return not (b - a) & self.div_check_mask


# ---------------------------------------------------------------------------
# ring context


class RingContext:
    """Polynomial ring: characteristic, ordered variables, monomial ordering."""

    def __init__(self, characteristic, variables, ordering, module_rule=None):
        self.field = field_for(characteristic)
        self.characteristic = characteristic
        variables = tuple(variables)
        if not variables:
            raise BadOrdering("need at least one variable")
        if len(set(variables)) != len(variables):
            raise DuplicateVariable("duplicate variable in %r" % (variables,))
        self.variables = variables
        self.n = len(variables)
        if isinstance(ordering, str):
            from .parse import parse_ordering_tokens

            ordering = parse_ordering_tokens(ordering, self.n)
        if module_rule is not None:
            ordering = ordering.with_module_rule(module_rule)
        if ordering.total_size != self.n:
            raise BadOrdering(
                "ordering covers %d variables, ring has %d"
                % (ordering.total_size, self.n)
            )
        self.ordering = ordering
        self.ordering_token = ordering.token()
        rows = ordering.rows()
        self.layout = _Layout(self.n, rows, False, False)
        self._module_layout = None
        self._var_index = {name: i for i, name in enumerate(variables)}

    @property
    def module_layout(self):
        if self._module_layout is None:
            self._module_layout = _Layout(
                self.n,
                self.ordering.rows(),
                True,
                self.ordering.module_rule == POSITION_OVER_TERM,
            )
        return self._module_layout

    @property
    def is_global(self):
        return self.ordering.is_global

    @property
    def is_local(self):
        return self.ordering.is_local

    def _key(self):
        return (self.characteristic, self.variables, self.ordering)

    def __eq__(self, other):
        return isinstance(other, RingContext) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "RingContext(%d, %r, %r)" % (
            self.characteristic,
            ",".join(self.variables),
            self.ordering_token,
        )

    def var_index(self, name):
        try:
            return self._var_index[name]
        except KeyError:
            raise UnknownVariable("no variable %r in %r" % (name, self.variables))

    # -- constructors ------------------------------------------------------

    def zero(self):
        return Polynomial(self, [])

    def constant(self, value):
        c = self.field.coerce(value)
        if not c:
            return Polynomial(self, [])
        return Polynomial(self, [(self.layout.code_one, c)])

    def variable(self, name_or_index):
        i = name_or_index
        if isinstance(i, str):
            i = self.var_index(i)
        if not 0 <= i < self.n:
            raise IndexOutOfRange("variable index %r" % (name_or_index,))
        exps = tuple(1 if j == i else 0 for j in range(self.n))
        return self.monomial(exps)

    def monomial(self, exps, coeff=1):
        c = self.field.coerce(coeff)
        if not c:
            return Polynomial(self, [])
        return Polynomial(self, [(self.layout.encode(tuple(exps)), c)])

    # -- ordering ----------------------------------------------------------

    def compare(self, exps_a, exps_b):
        """-1, 0 or 1 as the first monomial is smaller, equal or greater."""
        a = self.layout.encode(tuple(exps_a))
        b = self.layout.encode(tuple(exps_b))
        return (a > b) - (a < b)

    def monomial_key(self, exps):
        """Sort key: ascending key = ascending monomial order."""
        return self.layout.encode(tuple(exps))


# ---------------------------------------------------------------------------
# term-list arithmetic (shared by Polynomial and VectorElement)


def _merge_add(t1, t2, field):
    out = []
    i = j = 0
    n1 = len(t1)
    n2 = len(t2)
    add = field.add
    while i < n1 and j < n2:
        e1 = t1[i]
        e2 = t2[j]
        if e1[0] > e2[0]:
            out.append(e1)
            i += 1
        elif e1[0] < e2[0]:
            out.append(e2)
            j += 1
        else:
            s = add(e1[1], e2[1])
            if s:
                out.append((e1[0], s))
            i += 1
            j += 1
    if i < n1:
        out.extend(t1[i:])
    if j < n2:
        out.extend(t2[j:])
    return out


def _scale(terms, c, field):
    if not c:
        return []
    mul = field.mul
    return [(code, mul(c, coeff)) for code, coeff in terms]


def _neg(terms, field):
    neg = field.neg
    return [(code, neg(coeff)) for code, coeff in terms]


def _mul_term_lists(t1, t2, layout, field):
    if not t1 or not t2:
        return []
    acc = {}
    one = layout.code_one
    over = layout.exp_overflow_mask
    mul = field.mul
    add = field.add
    for c1, k1 in t1:
        base = c1 - one
        for c2, k2 in t2:
            code = base + c2
            if code & over:
                raise ExponentOverflow("monomial product exceeds exponent range")
            prev = acc.get(code)
            if prev is None:
                acc[code] = mul(k1, k2)
            else:
                acc[code] = add(prev, mul(k1, k2))
    terms = [(code, c) for code, c in acc.items() if c]
    terms.sort(reverse=True)
    return terms


class Polynomial:
    """Sparse polynomial; terms strictly descending in the ring ordering."""

    __slots__ = ("ring", "_terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self._terms = terms

    # -- basic queries -----------------------------------------------------

    def __bool__(self):
        return bool(self._terms)

    @property
    def is_zero(self):
        return not self._terms

    def __len__(self):
        return len(self._terms)

    def terms(self):
        """List of (coefficient, exponent tuple), leading term first."""
        decode = self.ring.layout.decode_exps
        return [(c, decode(code)) for code, c in self._terms]

    @property
    def lead_exponents(self):
        if not self._terms:
            raise ZeroPolynomial("zero polynomial has no leading term")
        return self.ring.layout.decode_exps(self._terms[0][0])

    def total_degree(self):
        if not self._terms:
            raise ZeroPolynomial("degree of the zero polynomial")
        return self.ring.layout.max_degree(code for code, _ in self._terms)

    def order(self):
        """Least total degree of a term (the multiplicity of the germ)."""
        if not self._terms:
            raise ZeroPolynomial("order of the zero polynomial")
        return self.ring.layout.min_degree(code for code, _ in self._terms)

    def constant_term(self):
        one = self.ring.layout.code_one
        for code, c in self._terms:
            if code == one:
                return c
        return self.ring.field.zero

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatch("operands live in different rings")

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self):
        return hash((self.ring, tuple(self._terms)))

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.constant(other)
        self._check(other)
        return Polynomial(self.ring, _merge_add(self._terms, other._terms, self.ring.field))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, _neg(self._terms, self.ring.field))

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.constant(other)
        self._check(other)
        return Polynomial(
            self.ring,
            _merge_add(self._terms, _neg(other._terms, self.ring.field), self.ring.field),
        )

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, VectorElement):
            return NotImplemented
        if not isinstance(other, Polynomial):
            c = self.ring.field.coerce(other)
            return Polynomial(self.ring, _scale(self._terms, c, self.ring.field))
        self._check(other)
        return Polynomial(
            self.ring,
            _mul_term_lists(self._terms, other._terms, self.ring.layout, self.ring.field),
        )

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial powers take non-negative integers")
        result = self.ring.constant(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base2 = base * base if e > 1 else base
            base, e = base2, e >> 1
        return result

    def monic(self):
        if not self._terms:
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        lc = self._terms[0][1]
        field = self.ring.field
        if lc == field.one:
            return self
        inv = field.inv(lc)
        return Polynomial(self.ring, _scale(self._terms, inv, field))

    # -- calculus / maps ----------------------------------------------------

    def partial(self, var):
        """Partial derivative; in characteristic p multiples of p vanish."""
        ring = self.ring
        v = ring.var_index(var) if isinstance(var, str) else var
        if not 0 <= v < ring.n:
            raise IndexOutOfRange("variable index %r" % (var,))
        lay = ring.layout
        field = ring.field
        shift = lay.exp_shifts[v]
        delta = lay.var_deltas[v]
        out = []
        for code, c in self._terms:
            e = (code >> shift) & 0x3FFFF
            if not e:
                continue
            nc = field.mul(c, field.coerce(e))
            if nc:
                out.append((code - delta, nc))
        return Polynomial(ring, out)

    def weighted_degree(self, weights):
        """Common weighted degree of all terms, or None if they disagree."""
        ring = self.ring
        if len(weights) != ring.n:
            raise DimensionMismatch("need %d weights" % ring.n)
        if not self._terms:
            raise ZeroPolynomial("weighted degree of the zero polynomial")
        ws = [Fraction(w) for w in weights]
        common = None
        for _, exps in self.terms():
            d = sum(w * e for w, e in zip(ws, exps))
            if common is None:
                common = d
            elif common != d:
                return None
        return common

    def __str__(self):
        return render_polynomial(self)

    def __repr__(self):
        return "<poly %s>" % (self,)


def order_of(f):
    """Least total degree among the terms of f (germ multiplicity)."""
    return f.order()


def weighted_degree_homogeneous(f, weights):
    """True iff every term of f has the same weighted degree."""
    return f.weighted_degree(weights) is not None


def jacobian_minors(f, g):
    """The three 2x2 minors of the Jacobian of (f, g) in three variables.

    Rows are (f, g); column pairs come in the order (1,2), (1,3), (2,3).
    """
    ring = f.ring
    if ring.n != 3:
        raise WrongVariableCount("jacobian minors need exactly 3 variables")
    if g.ring != ring:
        raise RingMismatch("operands live in different rings")
    fx, fy, fz = (f.partial(i) for i in range(3))
    gx, gy, gz = (g.partial(i) for i in range(3))
    return (fx * gy - fy * gx, fx * gz - fz * gx, fy * gz - fz * gy)


# ---------------------------------------------------------------------------
# free-module elements


class VectorElement:
    """Element of a free module over the ring, components indexed from 1."""

    __slots__ = ("ring", "rank", "_terms")

    def __init__(self, ring, rank, terms):
        if rank < 1 or rank >= _COMP_LIMIT:
            raise IndexOutOfRange("module rank %r out of range" % (rank,))
        self.ring = ring
        self.rank = rank
        self._terms = terms

    @classmethod
    def from_components(cls, components, rank=None):
        """Build from a sequence of polynomials, one per component."""
        comps = list(components)
        if not comps:
            raise ModuleRankMismatch("need at least one component")
        ring = comps[0].ring
        rank = rank if rank is not None else len(comps)
        if len(comps) > rank:
            raise ModuleRankMismatch("more components than rank")
        lay = ring.module_layout
        terms = []
        for i, p in enumerate(comps, start=1):
            if p.ring != ring:
                raise RingMismatch("components live in different rings")
            for code, c in p._terms:
                exps = ring.layout.decode_exps(code)
                terms.append((lay.encode(exps, i), c))
        terms.sort(reverse=True)
        return cls(ring, rank, terms)

    @classmethod
    def unit(cls, ring, rank, component):
        if not 1 <= component <= rank:
            raise IndexOutOfRange("component %d out of 1..%d" % (component, rank))
        lay = ring.module_layout
        one = ring.field.one
        return cls(ring, rank, [(lay.encode((0,) * ring.n, component), one)])

    def __bool__(self):
        return bool(self._terms)

    @property
    def is_zero(self):
        return not self._terms

    def __len__(self):
        return len(self._terms)

    def terms(self):
        """List of (coefficient, exponents, component), leading first."""
        lay = self.ring.module_layout
        return [(c, lay.decode_exps(code), lay.component(code)) for code, c in self._terms]

    def components(self):
        """Tuple of polynomials, one per component."""
        ring = self.ring
        lay = ring.module_layout
        buckets = [[] for _ in range(self.rank)]
        for code, c in self._terms:
            comp = lay.component(code)
            buckets[comp - 1].append((ring.layout.encode(lay.decode_exps(code)), c))
        out = []
        for terms in buckets:
            terms.sort(reverse=True)
            out.append(Polynomial(ring, terms))
        return tuple(out)

    @property
    def lead(self):
        if not self._terms:
            raise ZeroElement("zero module element has no leading term")
        lay = self.ring.module_layout
        code, c = self._terms[0]
        return (c, lay.decode_exps(code), lay.component(code))

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatch("operands live in different rings")
        if self.rank != other.rank:
            raise ModuleRankMismatch("ranks %d and %d differ" % (self.rank, other.rank))

    def __eq__(self, other):
        if not isinstance(other, VectorElement):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.rank == other.rank
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.ring, self.rank, tuple(self._terms)))

    def __add__(self, other):
        self._check(other)
        return VectorElement(
            self.ring, self.rank, _merge_add(self._terms, other._terms, self.ring.field)
        )

    def __neg__(self):
        return VectorElement(self.ring, self.rank, _neg(self._terms, self.ring.field))

    def __sub__(self, other):
        self._check(other)
        return VectorElement(
            self.ring,
            self.rank,
            _merge_add(self._terms, _neg(other._terms, self.ring.field), self.ring.field),
        )

    def __mul__(self, other):
        """Scale by a scalar or by a ring polynomial."""
        ring = self.ring
        if isinstance(other, VectorElement):
            raise TypeError("cannot multiply two module elements")
        if not isinstance(other, Polynomial):
            c = ring.field.coerce(other)
            return VectorElement(ring, self.rank, _scale(self._terms, c, ring.field))
        if other.ring != ring:
            raise RingMismatch("operands live in different rings")
        # the polynomial's codes re-encoded in the module layout carry no
        # component, so the product's codes keep the vector's components
        mlay = ring.module_layout
        decode = ring.layout.decode_exps
        recoded = [(mlay.encode(decode(code)), c) for code, c in other._terms]
        return VectorElement(
            ring, self.rank, _mul_term_lists(self._terms, recoded, mlay, ring.field)
        )

    __rmul__ = __mul__

    def __str__(self):
        return "[%s]" % ", ".join(str(p) for p in self.components())

    def __repr__(self):
        return "<vector %s>" % (self,)


# ---------------------------------------------------------------------------
# text rendering (the canonical form the parser accepts back)


def _render_monomial(ring, exps):
    parts = []
    for name, e in zip(ring.variables, exps):
        if e == 1:
            parts.append(name)
        elif e:
            parts.append("%s^%d" % (name, e))
    return "*".join(parts)


def render_polynomial(poly):
    """Canonical text form: terms in ordering-descending sequence."""
    if not poly._terms:
        return "0"
    field = poly.ring.field
    out = []
    for i, (c, exps) in enumerate(poly.terms()):
        if field.characteristic == 0 and c < 0:
            sign = "-"
            mag = -c
        else:
            sign = "+"
            mag = c
        mono = _render_monomial(poly.ring, exps)
        if not mono:
            body = field.to_str(mag)
        elif mag == field.one:
            body = mono
        else:
            body = "%s*%s" % (field.to_str(mag), mono)
        if i == 0:
            out.append(body if sign == "+" else "-" + body)
        else:
            out.append(sign + body)
    return "".join(out)
