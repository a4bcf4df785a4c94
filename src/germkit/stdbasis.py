"""Standard bases for ideals and submodules in any monomial ordering.

Global orderings use Buchberger reduction; local and mixed orderings use the
tangent-cone method: an ecart-guided weak normal form in which the work
polynomial itself joins the reducer set whenever every eligible reducer has
a larger ecart. That self-extension is what makes reduction terminate in
local rings, where naive division can cycle forever.

The work polynomial of a reduction is kept in a dict of terms with a heap of
its codes, so that long reductions against short reducers pay per step only
for the terms the reducer adds, never a merge with the whole remainder. A
step is one pass over the reducer tail: each code is shifted, its numerator
scaled and the result added to the dict, with no intermediate list and no
reduction mod p; residues are reduced when they are read, and a code that
cancels stays in the dict until it is popped. Under a jet's degree bound the
terms that survive are a suffix of the ascending tail, found by one
bisection against a code cut, and exponent overflow is one test of the
tail's per-variable maximum exponents. A lead whose reducer keeps no tail
term under the bound is a monomial that the span holds modulo the bound;
the run records it as dead, and a dead monomial that a later step would
bring in is dropped on the way, which is not a step.

Reduction is fraction-free: the work polynomial and every reducer hold
integer numerators over one common denominator each (over a prime field the
residues themselves, over the denominator 1), and a step over Q is a
pseudo-division on those integers. A reducer is held once, in that form: a
new element is made monic by one gcd (one inverse over F_p) on the integers
its reduction left. Field values are formed only where inputs enter and
results leave (_integral and _over), so every value std, normal_form and spoly
return is the exact one, an int where it is integral. std keeps its minimal
entries and forms their values when StandardBasis.generators is first read.
"""

import bisect
import heapq
import time
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    ComponentMismatch,
    ExponentOverflow,
    InfiniteDimensional,
    ModeOrderingMismatch,
    ModuleRankMismatch,
    ParameterOutOfRange,
    ResourceExhausted,
    RingMismatch,
    ZeroElement,
    ZeroPolynomial,
)
from .record import FrozenRecord, Record
from .ring import Polynomial, VectorElement

INFINITE = float("inf")
DEFAULT_CEILING = 10 ** 8
# local_vdim's first jet, unless the generators' pure powers guess higher
# (see _first_jet); most small inputs certify at it
FIRST_JET = 32
MAX_JET = 4096  # local_vdim's last jet before it runs untruncated
# the largest common denominator, in bits, of a work polynomial over Q; past
# it _weak_nf gives up, since reduction over Q can double it every few steps
MAX_COEFF_BITS = 1 << 16
_HUGE = 1 << 60


PAIR_SELECTIONS = ("sugar", "min-lcm-degree", "fifo")


class Strategy(FrozenRecord):
    """The one tuning knob of std; every choice computes the same ideal.

    pair_selection: one of PAIR_SELECTIONS, the key of the pair queue:
    `sugar` takes the least sugar and `min-lcm-degree` the least lcm degree,
    each breaking ties by the smaller lcm in the monomial ordering (the
    normal strategy); `fifo` takes the pairs in the order they were made.

    The reducer a step uses is no knob: the mode decides it (see _weak_nf).
    Nor are the Gebauer-Moeller chain and product criteria, which std
    always applies, since switching one off never made a run faster.
    """

    __slots__ = ("pair_selection",)

    def __init__(self, pair_selection="sugar"):
        if pair_selection not in PAIR_SELECTIONS:
            raise ValueError("bad pair selection %r" % (pair_selection,))
        super().__init__(pair_selection)

    @classmethod
    def from_text(cls, text):
        """Parse a comma list such as 'fifo'; the last token wins and an
        empty list keeps the default."""
        fields = {}
        for raw in text.split(","):
            tok = raw.strip()
            if tok in PAIR_SELECTIONS:
                fields["pair_selection"] = tok
            elif tok:
                raise ValueError("unknown strategy token %r" % tok)
        return cls(**fields)

    def to_json(self):
        return {"pair_selection": self.pair_selection}


class Stats(Record):
    __slots__ = ("pairs", "discarded", "reductions", "millis")

    def __init__(self, pairs=0, discarded=0, reductions=0, millis=0):
        super().__init__(pairs, discarded, reductions, millis)

    def to_json(self):
        return {
            "pairs": self.pairs,
            "discarded": self.discarded,
            "reductions": self.reductions,
            "millis": self.millis,
        }

    def add(self, other):
        self.pairs += other.pairs
        self.discarded += other.discarded
        self.reductions += other.reductions
        self.millis += other.millis


# ---------------------------------------------------------------------------
# work-polynomial accumulator


class _WorkPoly:
    """The work polynomial of a reduction: integer numerators over the
    common denominator `den`, in a dict from code to numerator, and a
    max-heap (negated codes) of every code added.

    add_shifted is the one way terms come in: a reducer tail is shifted,
    scaled and added term by term, so a reduction step costs the length of
    the tail and no merge.  Over F_p the numerators are residues, reduced
    mod p only when read, and `den` stays 1.  A code whose numerator
    cancels (to 0, or to a multiple of p) stays in the dict and the heap
    until it is popped, and reading skips it.  A code in `dead`, a set of
    monomials the span holds modulo the caller's degree bound, is dropped
    when a tail would bring it in.
    """

    __slots__ = ("terms", "heap", "p", "den", "dead")

    def __init__(self, p, den, terms=(), dead=frozenset()):
        self.terms = dict(terms)
        self.heap = [-c for c in self.terms]
        heapq.heapify(self.heap)
        self.p = p
        self.den = den
        self.dead = dead

    def add_shifted(self, codes, nums, delta, m):
        """Add m * x^delta * (codes, nums): every code shifted by delta, every
        numerator times m, and no shifted code that is new and dead."""
        terms = self.terms
        get = terms.get
        heap = self.heap
        push = heapq.heappush
        dead = self.dead
        for c, v in zip(codes, nums):
            c += delta
            g = get(c)
            if g is None:
                if c in dead:
                    continue
                terms[c] = m * v
                push(heap, -c)
            else:
                terms[c] = g + m * v

    def rescale(self, a):
        """Multiply every numerator and the denominator by a."""
        terms = self.terms
        for c, v in terms.items():
            terms[c] = v * a
        self.den *= a

    def descending(self):
        """The nonzero (code, numerator) terms, reduced mod p over F_p,
        leading term first."""
        p = self.p
        if p:
            return sorted([(c, r) for c, v in self.terms.items() if (r := v % p)],
                          reverse=True)
        return sorted([t for t in self.terms.items() if t[1]], reverse=True)

    def top_degree(self, lay):
        """The largest degree of a nonzero term, or None when there is none.
        Where the layout finds it at an extreme code, a cancelled code met
        there leaves the dict and the lookup repeats."""
        terms = self.terms
        p = self.p
        if lay.deg_top:
            extreme = max if lay.deg_top > 0 else min
            while terms:
                c = extreme(terms)
                v = terms[c]
                if v % p if p else v:
                    return lay.degree(c)
                del terms[c]
            return None
        live = [c for c, v in terms.items() if (v % p if p else v)]
        return lay.max_degree(live) if live else None


# ---------------------------------------------------------------------------
# entries


class _Entry:
    __slots__ = (
        "lead",
        "lead_exps",
        "deg",
        "comp",
        "ecart",
        "sugar",
        "seq",
        "codes",
        "den",
        "nums",
        "rmax",
    )

    def __init__(self, monic, lay, seq, sugar=None, ecart_=None):
        """A monic reducer from _monic's (lead, ascending tail codes, L,
        numerators `nums` over `den` = L, which is 1 over F_p); sugar and
        ecart default to the element's own."""
        lead, codes, self.den, self.nums = monic
        self.lead = lead
        self.codes = codes
        self.lead_exps = lay.decode_exps(lead)
        self.deg = lay.degree(lead)
        self.comp = lay.component(lead) if lay.comp_div_shift is not None else None
        if sugar is None or ecart_ is None:
            # the tail ascends, so where the top field is minus the degree
            # its first code has the largest
            top = (lay.degree(codes[0] if codes else lead) if lay.deg_top < 0
                   else lay.max_degree([lead, *codes]))
            if sugar is None:
                sugar = top
            if ecart_ is None:
                ecart_ = top - self.deg
        self.ecart = ecart_
        self.sugar = sugar
        self.seq = seq
        self.rmax = None  # code of the tail's per-variable maximum exponents

    def tail(self, delta, cut, lay, check):
        """(codes, L, numerators) of the tail terms that shifted by delta
        stay at or above the code cut (all of them when cut is None), in
        ascending order: the tail is the numerators over L, their least
        common denominator until a bound move cuts the tail (see
        _StdEngine._tighten_corner), and a common one after.  With check
        set, raises ExponentOverflow when a shifted exponent leaves the
        packed range."""
        rc = self.codes
        rn = self.nums
        if not rc:
            return rc, self.den, rn
        if check:
            # exponent fields are 18 bits wide and both addends are below
            # 2^16, so no carry crosses a field: some shifted exponent
            # overflows exactly when the shifted maximum does
            if self.rmax is None:
                self.rmax = sum(max((c >> s) & 0x3FFFF for c in rc) << s
                                for s in lay.exp_shifts)
            if (self.rmax + delta) & lay.exp_overflow_mask:
                raise ExponentOverflow("monomial product exceeds exponent range")
        if cut is not None:
            lo = bisect.bisect_left(rc, cut - delta)
            if lo:
                return rc[lo:], self.den, rn[lo:]
        return rc, self.den, rn

    def values(self, p):
        """The terms as field values, leading term first."""
        tail = zip(reversed(self.codes), reversed(self.nums))
        return _over([(self.lead, self.den), *tail], self.den, p)


def _scan_key(e):
    """Mora's scan order: least ecart first, ties to the shortest tail
    (cheaper to apply; a monomial reducer deletes the term outright), then
    to the older entry."""
    return (e.ecart, len(e.codes), e.seq)


def _layout_for(obj):
    if isinstance(obj, VectorElement):
        return obj.ring.module_layout
    return obj.ring.layout


def _rank_of(obj):
    return obj.rank if isinstance(obj, VectorElement) else None


def _raw(obj):
    return obj._terms


def _wrap(ring, terms, rank):
    if rank is None:
        return Polynomial(ring, terms)
    return VectorElement(ring, rank, terms)


# ---------------------------------------------------------------------------
# public single-step operations


def ecart(f):
    """Total degree minus degree of the leading monomial."""
    terms = _raw(f)
    if not terms:
        raise (ZeroElement if isinstance(f, VectorElement) else ZeroPolynomial)(
            "ecart of zero"
        )
    lay = _layout_for(f)
    return lay.max_degree(code for code, _ in terms) - lay.degree(terms[0][0])


def spoly(f, g):
    """S-polynomial: leading terms are lifted to their lcm and cancelled."""
    if type(f) is not type(g):
        raise ModuleRankMismatch("cannot pair a polynomial with a module element")
    if f.ring != g.ring:
        raise RingMismatch("operands live in different rings")
    tf = _raw(f)
    tg = _raw(g)
    if not tf or not tg:
        raise ZeroPolynomial("s-polynomial of zero")
    ring = f.ring
    lay = _layout_for(f)
    rank = None
    if isinstance(f, VectorElement):
        if f.rank != g.rank:
            raise ModuleRankMismatch("ranks differ")
        rank = f.rank
        if lay.component(tf[0][0]) != lay.component(tg[0][0]):
            raise ComponentMismatch("leading components differ")
    p = ring.field.characteristic
    ef = _Entry(_monic(_integral(tf)[1], p), lay, 0)
    eg = _Entry(_monic(_integral(tg)[1], p), lay, 1)
    lcm_code = lay.encode(tuple(map(max, ef.lead_exps, eg.lead_exps)), ef.comp)
    s = _spoly_terms(ef, eg, lcm_code, lay, p, None, True)
    return _wrap(ring, _over(s.descending(), s.den, p), rank)


# ---------------------------------------------------------------------------
# the elementary step


def _monic(terms, p):
    """(lead, ascending tail codes, L, numerators over L) of the monic form
    of `terms`, descending (code, integer numerator) pairs over any common
    denominator.  Over F_p the numerators are multiplied by the lead's
    inverse and L is 1.  Over Q all are divided by their gcd, signed like
    the lead; what is left of the lead is L, the least common denominator
    of the monic coefficients."""
    lead, h = terms[0]
    tail = terms[:0:-1]
    codes = [c for c, _ in tail]
    if p:
        inv = pow(h, p - 2, p)
        return lead, codes, 1, [v * inv % p for _, v in tail]
    g = gcd(h, *[v for _, v in tail])
    if h < 0:
        g = -g
    return lead, codes, h // g, [v // g for _, v in tail]


def _integral(terms):
    """(D, terms over D): D is the least common denominator of the
    coefficients and each becomes its integer numerator over D. Residues
    are ints, whose denominator is 1, and stay the same int objects."""
    den = lcm(*{v.denominator for _, v in terms})
    if den == 1:
        return 1, [(c, v.numerator) for c, v in terms]
    return den, [(c, v.numerator * (den // v.denominator)) for c, v in terms]


def _over(terms, den, p):
    """The field values of integer numerators over den (inverse of _integral):
    over Q an int where den divides the numerator, a Fraction elsewhere."""
    if den == 1:
        return terms
    if not p:
        return [(c, Fraction(v, den) if v % den else v // den) for c, v in terms]
    inv = pow(den, p - 2, p)
    return [(c, v * inv % p) for c, v in terms]


def _cut(lay, bound):
    """The least code of degree below bound, or None for no bound.  A finite
    bound exists only in layouts with deg_top -1, whose most significant
    field is key_offsets[0] - degree, so degree < bound exactly when
    code >= cut."""
    if bound >= _HUGE:
        return None
    return (lay.key_offsets[0] - bound + 1) << lay.key_shifts[0]


def _spoly_terms(ei, ej, lcm_code, lay, p, cut, check, dead=frozenset()):
    """S-polynomial of two monic entries at the lcm code of their leads,
    truncated at the code cut (see _Entry.tail for it and check), as a
    _WorkPoly with the dead monomials `dead`; the leads cancel, so only
    tails are shifted. Codes are affine in the exponents, so lcm_code - lead
    is the shift."""
    di = lcm_code - ei.lead
    dj = lcm_code - ej.lead
    ci, li, ni = ei.tail(di, cut, lay, check)
    cj, lj, nj = ej.tail(dj, cut, lay, check)
    q = gcd(li, lj)
    out = _WorkPoly(p, li // q * lj, (), dead)
    out.add_shifted(ci, ni, di, lj // q)
    out.add_shifted(cj, nj, dj, -(li // q))
    return out


# ---------------------------------------------------------------------------
# weak normal form


def _weak_nf(bucket, entries, lay, p, mora, counter, ceiling, bound, sugar,
             cache=None, ranks=None):
    """Reduce the _WorkPoly `bucket` until its lead is irreducible; returns
    (terms, den, sugar): the descending (code, integer numerator) terms of
    the result over the denominator den (residues over 1 over F_p).

    A step cancels the lead numerator H against a reducer tail N/L: with
    q = gcd(L, H) the work polynomial is multiplied by L/q (when that is not
    1) and -(H/q) * N is added at the shifted codes in one pass
    (add_shifted), which is exact and needs no gcd per term.  Over F_p,
    L = 1, so a step adds the plain -H * N with no gcd at all, and the
    lead is reduced mod p when it is popped.  Under a degree bound only the
    tail's suffix at or above the code cut is added (_Entry.tail), and past
    a bound of 4096 one test of the tail's maximum exponents guards the
    packed exponent range.  Over Q a rescale that takes `den` past
    MAX_COEFF_BITS bits raises ResourceExhausted, as the ceiling does.

    `entries` is read-only and in insertion order.  The mode decides which
    divisor of the lead a step reduces by:

    - In tangent-cone mode without a degree bound, one of least ecart
      (Mora's rule), since termination needs a divisor of ecart at most the
      remainder's whenever one exists: the scan is a local copy of `entries`
      sorted by (ecart, length, seq), and the first divisor in it wins.  When
      its ecart exceeds the current ecart, a snapshot of the work polynomial
      joins that copy in key order for later leads to reduce against.
    - Under a degree bound, the divisor whose shifted tail keeps the fewest
      terms below the bound, ties going to the older entry.  Every divisor
      is sound there, since strict descent through the finitely many
      monomials below the bound terminates.  It is the first divisor in
      the ranking that `ranks` holds for the lead's degree (_Ranks, built
      here over `entries` when the caller passes none), so a step stops
      there instead of testing every entry.
    - Otherwise (Buchberger), the oldest divisor.

    Under a cut, a lead whose reducer keeps no tail term joins the
    bucket's set of dead monomials: x^delta times the reducer is that
    monomial modulo the bound, so add_shifted may drop it from then on.
    The bound only falls, so the set stays true for the rest of the run.

    Outside tangent-cone mode a dict `cache` may remember each lead code's
    choice as (entry, delta, index of its first tail code at or above the
    cut, number of entries seen).  Without a cut it stays valid, since no
    later entry displaces the oldest divisor; under a cut it serves while
    no entry has arrived since, and a stale one is ranked again.  The owner
    clears the cache and replaces `ranks` whenever the bound moves, which
    is when entry tails and ecarts change.
    """
    extend = mora and bound >= _HUGE
    cut = ranks.cut if ranks is not None else _cut(lay, bound)
    check = bound > 4096
    terms = bucket.terms
    heap = bucket.heap
    pop = heapq.heappop
    check_mask = lay.div_check_mask
    deg_shift = lay.deg_shift
    deg_mask = lay.deg_mask
    if extend:
        cache = None  # snapshots are local to this call
        scan = sorted(entries, key=_scan_key)
    elif cut is not None:
        if ranks is None:
            ranks = _Ranks(entries, lay, cut, max((e.ecart for e in entries), default=0))
        lists = ranks.lists
        top = ranks.top
        shift = ranks.shift
    get = cache.get if cache is not None else {}.get
    dead = bucket.dead
    seen_all = len(entries)
    limit = ceiling - counter.reductions  # steps this call may take
    reds = 0

    while True:
        # the lead; codes that cancelled are popped and skipped
        while heap:
            hcode = -pop(heap)
            hcoeff = terms.pop(hcode, 0)
            if p:
                hcoeff %= p
            if hcoeff:
                break
        else:
            counter.reductions += reds
            return [], bucket.den, sugar

        got = get(hcode)
        if got is not None and (cut is None or got[3] == seen_all):
            best, delta, lo, _ = got
            rc = best.codes
            rn = best.nums
            rden = best.den
            if lo:
                rc = rc[lo:]
                rn = rn[lo:]
        else:
            if ranks is not None:
                r = (hcode - cut) >> shift
                if r > top:
                    r = top
                ranked = lists.get(r)
                if ranked is None:
                    ranked = ranks.build(r)
                best = _choose(hcode, ranked, check_mask)
            elif not extend:
                best = None
                for e in entries:
                    if not (hcode - e.lead) & check_mask:
                        best = e
                        break
            else:
                top_deg = bucket.top_degree(lay)
                h_ecart = 0
                if top_deg is not None:
                    h_ecart = max(top_deg - lay.degree(hcode), 0)
                best = None
                for e in scan:
                    if not (hcode - e.lead) & check_mask:
                        best = e
                        break
                if best is not None and best.ecart > h_ecart:
                    # self-extension is what makes unbounded local reduction
                    # terminate: every cheaper reduction is exhausted, so
                    # remember the current state for later leads to reduce against
                    snap = _monic([(hcode, hcoeff), *bucket.descending()], p)
                    snap = _Entry(snap, lay, _HUGE + len(scan), sugar, h_ecart)
                    bisect.insort(scan, snap, key=_scan_key)

            if best is None:
                tail = bucket.descending()
                tail.insert(0, (hcode, hcoeff))
                counter.reductions += reds
                return tail, bucket.den, sugar

            delta = hcode - best.lead
            rc, rden, rn = best.tail(delta, cut, lay, check)
            if not rc and cut is not None:
                dead.add(hcode)
            if cache is not None:
                cache[hcode] = (best, delta, len(best.codes) - len(rc), seen_all)

        # h -= (hcoeff / lc(best)) * quotient * best   (best is monic); the
        # quotient's code offset is the difference of the two lead codes
        if rden == 1:
            m = -hcoeff
        else:
            q = gcd(rden, hcoeff)
            if q != rden:
                bucket.rescale(rden // q)
                if bucket.den.bit_length() > MAX_COEFF_BITS:
                    counter.reductions += reds
                    raise ResourceExhausted(
                        "coefficient bound of %d bits exceeded over Q"
                        % MAX_COEFF_BITS
                    )
            m = -(hcoeff // q)
        if rc:
            bucket.add_shifted(rc, rn, delta, m)
        s2 = best.sugar + ((delta >> deg_shift) & deg_mask)
        if s2 > sugar:
            sugar = s2
        reds += 1
        if reds > limit:
            counter.reductions += reds
            raise ResourceExhausted(
                "reduction ceiling of %d elementary steps exceeded" % ceiling
            )


def _choose(hcode, ranked, check_mask):
    """The reducer of the lead hcode under a cut, or None: the first divisor
    in `ranked`, the (kept, seq, entry) ranking for hcode's degree (see
    _Ranks)."""
    for _, _, e in ranked:
        if not (hcode - e.lead) & check_mask:
            return e
    return None


class _Ranks:
    """The entries that can divide a lead under a cut, ranked per degree.

    Shifted onto a lead h of degree below the bound, a tail code c of an
    entry with lead l stays at or above the cut exactly when
    deg c - deg l <= r, where r = bound - 1 - deg h.  So the number of tail
    terms a divisor keeps depends on h only through r, and lists[r], the
    entries of lead degree at most deg h sorted by (terms kept at r, seq),
    has as its first divisor of h the one that keeps the fewest terms, ties
    going to the older entry.  Past an entry's ecart its whole tail
    survives, so r is clamped at `top`, the largest ecart.  A list is built
    the first time its r is asked for, and add puts a new entry into every
    list held; the owner makes a new _Ranks whenever the bound moves, which
    is when tails and ecarts change.
    """

    __slots__ = ("entries", "cut", "shift", "top", "lists")

    def __init__(self, entries, lay, cut, top):
        self.entries = entries  # the owner's list, which add follows
        self.cut = cut
        self.shift = lay.key_shifts[0]  # above it: minus the degree
        self.top = top  # at least the largest ecart of a lead above the cut
        self.lists = {}

    def build(self, r):
        # leads of degree at most bound - 1 - r: codes at or above low
        s = self.shift
        low = self.cut + (r << s)
        ranked = self.lists[r] = sorted([
            (len(e.codes), e.seq, e) if r >= e.ecart else _kept(e, r, s)
            for e in self.entries if e.lead >= low])
        return ranked

    def add(self, e):
        if self.lists:
            s = self.shift
            whole = len(e.codes), e.seq, e
            last = (e.lead - self.cut) >> s  # the largest r e can serve
            for r, ranked in self.lists.items():
                if r <= last:
                    bisect.insort(ranked, whole if r >= e.ecart else _kept(e, r, s))
        if e.ecart > self.top:
            self.top = e.ecart


def _kept(e, r, s):
    """(tail terms of e kept at r, seq, e) for r below e's ecart; the codes
    of degree at most deg lead + r are those at or above the cut below."""
    rc = e.codes
    return len(rc) - bisect.bisect_left(rc, ((e.lead >> s) - r) << s), e.seq, e


# ---------------------------------------------------------------------------
# the algorithm


class _StdEngine:
    def __init__(self, ring, rank, strategy, mora, ceiling, jet=None):
        self.ring = ring
        self.rank = rank
        self.lay = ring.layout if rank is None else ring.module_layout
        self.strategy = strategy
        self.mora = mora
        self.ceiling = ceiling
        self.stats = Stats()
        self.entries = []
        self.pairs = {}  # (i, j) -> lcm code
        # the pair queue: (key, lcm, t, i) for the pair of entry t with an
        # older entry i; see insert
        self.heap = []
        self.product_applies = ring.is_global
        self.bound = jet if jet is not None else _HUGE
        self.cut = _cut(self.lay, self.bound)
        self.cut_at_corner = self.lay.deg_top == -1
        self.minimal = []  # the entries with minimal leads, in arrival order
        # the (component, variable) pairs with no pure-power lead yet; the
        # staircase of the leads is finite exactly when none is left
        comps = (0,) if rank is None else range(1, rank + 1)
        self.open_axes = {(c, v) for c in comps for v in range(ring.n)}
        # standard monomials of the minimal leads per degree 0..bound-1,
        # summed over components; None while the staircase is infinite
        self.counts = None
        # lead code -> the reducer _weak_nf chose for it (see there), and the
        # entries ranked for each lead degree under the cut; both are valid
        # while the bound, and with it every entry's tail and ecart, stands
        self.reducers = {}
        # the monomials the span holds modulo the bound (see _weak_nf); the
        # bound only falls, so they stay dead for the whole run
        self.dead = set()
        self.ranks = None if self.cut is None else _Ranks(self.entries, self.lay,
                                                          self.cut, 0)

    # -- truncation bookkeeping -----------------------------------------

    def _tighten_corner(self, entry, old):
        """Shrink the truncation bound to the corner of the current leads,
        now that `entry` has joined the minimal leads `old`.

        The leads found so far generate a monomial submodule of the leading
        module, so every monomial of degree at or above its corner is a lead
        multiple and cutting there loses nothing below the jet.  An infinite
        staircase has a standard monomial in every degree, so it has no
        corner: while some component lacks a pure power of some variable
        (open_axes, kept by insert) this returns at once.  The run counts
        the staircase itself, into `counts` (degrees below the bound): once,
        from the minimal leads, when the last axis closes (_count_leads),
        and after that by subtraction, since the standard monomials a new
        minimal lead m removes are m times those of the colon ideal (old
        leads of m's component : m).  Counts up to a cap below the top of
        the staircase prove the corner only when their top slot is empty;
        they are cut at the corner when the bound moves there.
        """
        if self.open_axes:
            return
        counts = self.counts
        if counts is None:
            counts = self.counts = self._count_leads()
        else:
            m = entry.lead_exps
            d = sum(m)
            colon = [tuple([a - b if a > b else 0 for a, b in zip(e.lead_exps, m)])
                     for e in old if e.comp == entry.comp]
            lost = _degree_counts(colon, self.ring.n, len(counts) - 1 - d)
            for j, v in enumerate(lost, d):
                counts[j] -= v
        corner = _corner(counts)
        if corner == self.bound:
            return
        del counts[corner:]
        self.bound = corner
        self.cut = cut = _cut(self.lay, corner)
        self.reducers.clear()
        lay = self.lay
        top = 0
        for e in self.entries:
            if e.lead < cut:
                continue  # inert: divides no surviving term
            lo = bisect.bisect_left(e.codes, cut)
            if lo:
                e.codes = e.codes[lo:]
                e.nums = e.nums[lo:]
                e.rmax = None
                e.ecart = lay.degree(e.codes[0]) - e.deg if e.codes else 0
            if e.ecart > top:
                top = e.ecart
        self.ranks = _Ranks(self.entries, lay, cut, top)

    def _count_leads(self):
        """The per-degree standard-monomial counts of the minimal leads'
        finite staircase, up to the bound or up to the staircase's top
        degree where that is lower: the largest sum of a component's pure
        powers minus n, over the components without a unit lead."""
        n = self.ring.n
        by_comp = {}
        for e in self.minimal:
            by_comp.setdefault(e.comp, []).append(e.lead_exps)
        # a component's minimal leads hold one pure power of each variable,
        # or they are the unit alone
        top = max((sum(sum(g) for g in gens if sum(g) == max(g)) - n
                   for gens in by_comp.values() if any(gens[0])), default=-1)
        cap = min(self.bound - 1, top)
        counts = [0] * (cap + 1)
        for gens in by_comp.values():
            for j, v in enumerate(_degree_counts(gens, n, cap)):
                counts[j] += v
        return counts

    # -- pair bookkeeping -------------------------------------------------

    def insert(self, monic, sugar):
        """Add a monic element, as _monic returns it, and update the pairs
        (Gebauer-Moeller).

        The lcm code of the new lead with each entry of its component is
        computed once; the new pairs and the deletion of old pairs both read
        it. Codes are affine in the exponents, so an lcm is the entry's lead
        shifted by the variable deltas of the new lead's excess exponents.
        """
        lay = self.lay
        entries = self.entries
        t = len(entries)
        entry = _Entry(monic, lay, t, sugar)
        lead = entry.lead
        exps = entry.lead_exps
        comp = entry.comp
        deltas = lay.var_deltas
        lcms = {
            i: e.lead + sum((a - b) * d for a, b, d in zip(exps, e.lead_exps, deltas)
                            if a > b)
            for i, e in enumerate(entries)
            if e.comp == comp
        }
        # the s-polynomial of two monomials is identically zero
        new = [i for i in lcms if entry.codes or entries[i].codes]
        self.stats.pairs += len(new)

        # every term of an s-polynomial sits at or above its lcm's degree, so
        # a pair whose lcm is at or above the bound truncates to zero; such an
        # lcm divides only lcms above the bound too, so dropping it first
        # leaves the chain test below with the same survivors
        shift = lay.deg_shift  # lay.degree, inlined
        mask = lay.deg_mask
        bound = self.bound
        by_lcm = {}
        for i in new:
            c = lcms[i]
            if (c >> shift) & mask < bound:
                by_lcm.setdefault(c, []).append(i)
            else:
                self.stats.discarded += 1

        # one representative per equal-lcm class; the class dies when another
        # new lcm strictly divides its own (chain), or, when every variable
        # is global, when one of its leads is coprime to the new one
        # (product: for local leads a divisor can sit above the tail).  A
        # strict divisor has a lower degree, so the classes are taken by
        # degree and each is tested against the ones of lower degree only
        check = lay.div_check_mask
        ranked = sorted([((c >> shift) & mask, c) for c in by_lcm])
        survivors = []
        lower = 0  # ranked[:lower] are the classes of lower degree
        for k, (deg_lcm, lcm_code) in enumerate(ranked):
            if ranked[lower][0] < deg_lcm:
                lower = k
            members = by_lcm[lcm_code]
            chained = lower and any(not (lcm_code - lj) & check
                                    for _, lj in ranked[:lower])
            if chained or self.product_applies and any(
                lcm_code == entries[i].lead + lead - lay.code_one for i in members
            ):
                self.stats.discarded += len(members)
                continue
            survivors.append((members[0], deg_lcm))
            self.stats.discarded += len(members) - 1

        # old pairs whose lcm the new lead strictly refines die
        dead = [
            (i, j)
            for (i, j), lcm_code in self.pairs.items()
            if not (lcm_code - lead) & check
            and lcms[i] != lcm_code
            and lcms[j] != lcm_code
        ]
        for key in dead:
            del self.pairs[key]
        self.stats.discarded += len(dead)

        entries.append(entry)
        if self.ranks is not None:
            self.ranks.add(entry)
        # a new lead that no minimal lead divides is minimal itself, and the
        # leads it divides stop being so; only a new minimal lead can close
        # an axis or move the corner
        old = self.minimal
        if all((lead - e.lead) & check for e in old):
            self.minimal = [e for e in old if (e.lead - lead) & check]
            self.minimal.append(entry)
            if self.cut_at_corner:
                axes = [v for v, a in enumerate(exps) if a]
                c = comp or 0
                if not axes:  # a unit lead: the component's staircase is empty
                    self.open_axes = {k for k in self.open_axes if k[0] != c}
                elif len(axes) == 1:
                    self.open_axes.discard((c, axes[0]))
                self._tighten_corner(entry, old)
        # the queue key: sugar, or lcm degree, then the lcm (codes keep the
        # ordering, so the smaller lcm goes first: the normal strategy); fifo
        # and the remaining ties keep the order insert makes the pairs in
        selection = self.strategy.pair_selection
        for i, deg_lcm in survivors:
            if deg_lcm >= self.bound:  # the corner above may have moved it
                self.stats.discarded += 1
                continue
            lcm_code = lcms[i]
            if selection == "sugar":
                other = entries[i]
                k0 = max(other.sugar + deg_lcm - other.deg,
                         sugar + deg_lcm - entry.deg)
            elif selection == "min-lcm-degree":
                k0 = deg_lcm
            else:
                k0 = lcm_code = 0
            self.pairs[(i, t)] = lcms[i]
            heapq.heappush(self.heap, (k0, lcm_code, t, i))

    def run(self, seeds):
        """Seeds are (integer numerator terms, sugar) pairs."""
        lay = self.lay
        p = self.ring.field.characteristic
        for terms, sugar in seeds:
            cut = self.cut  # an earlier seed may have moved it
            if cut is not None:  # keep the terms of degree below the bound
                terms = [t for t in terms if t[0] >= cut]
            if terms:
                self.insert(_monic(terms, p), sugar)
        while self.heap:
            _, _, j, i = heapq.heappop(self.heap)
            lcm_code = self.pairs.pop((i, j), None)
            if lcm_code is None:
                continue  # discarded while queued
            deg_lcm = lay.degree(lcm_code)
            if deg_lcm >= self.bound:
                # the bound may have tightened since the pair was queued
                self.stats.discarded += 1
                continue
            ei = self.entries[i]
            ej = self.entries[j]
            s_poly = _spoly_terms(ei, ej, lcm_code, lay, p, self.cut, self.bound > 4096,
                                  self.dead)
            sug = max(
                ei.sugar + deg_lcm - ei.deg,
                ej.sugar + deg_lcm - ej.deg,
            )
            # the s-polynomial and every tail suffix added to it sit at or
            # above the cut, which moves only in insert
            nf, _, sug = _weak_nf(
                s_poly,
                self.entries,
                lay,
                p,
                self.mora,
                self.stats,
                self.ceiling,
                self.bound,
                sug,
                self.reducers,
                self.ranks,
            )
            if nf:
                self.insert(_monic(nf, p), sug)

    def minimal_entries(self):
        """The entries with minimal leads (the first of equal ones), leading
        lead first."""
        return sorted(self.minimal, key=lambda e: -e.lead)


class StandardBasis:
    """Result of std: minimal monic generators plus run statistics.

    The run's minimal entries are kept as they are, and `generators` turns
    them into polynomials the first time it is read; leading_exponents and
    the staircase read the entries' leads, so a caller that only counts (as
    local_vdim's callers do) never builds a generator.

    When `jet` is set the basis describes the ideal plus the jet-th power of
    the maximal ideal; leading terms are exact below degree `jet` only, and
    dimension queries go through jet_dimensions (highest_corner accepts the
    basis once its counts certify).

    `counts` are the per-degree standard-monomial counts that the run kept
    of its finite staircase (see _StdEngine._tighten_corner), from degree 0
    up to the jet or, without one, to the corner; every later degree below
    the jet counts zero.  They are None where the run kept none: for global
    orderings and for an infinite staircase.  vdim, highest_corner,
    jet_dimensions and normal_form read them; only kbase, and the queries
    on a basis without counts, build the Staircase.
    """

    def __init__(self, ring, rank, entries, stats, jet=None, counts=None):
        self.ring = ring
        self.rank = rank
        self._entries = tuple(entries)  # the minimal _Entry objects, leading first
        self._generators = None
        self.stats = stats
        self.jet = jet
        self.counts = counts
        self._staircase = None

    @property
    def generators(self):
        if self._generators is None:
            p = self.ring.field.characteristic
            self._generators = tuple(_wrap(self.ring, e.values(p), self.rank)
                                     for e in self._entries)
        return self._generators

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self._entries)

    @property
    def layout(self):
        return self.ring.layout if self.rank is None else self.ring.module_layout

    def leading_exponents(self):
        """Minimal generators of the leading module: (exponents, component)."""
        return [(e.lead_exps, e.comp or 0) for e in self._entries]

    def staircase(self):
        if self._staircase is None:
            self._staircase = Staircase(
                self.ring.n, self.rank, self.leading_exponents()
            )
        return self._staircase


def _uses_mora(mode, ring, ceiling):
    """Validate a std/normal_form mode and ceiling; True when the mode means
    tangent-cone reduction."""
    if ceiling < 0:
        raise ParameterOutOfRange("reduction ceiling must be non-negative")
    if mode not in ("auto", "buchberger", "mora"):
        raise ValueError("mode must be auto, buchberger or mora")
    if mode == "buchberger" and not ring.is_global:
        raise ModeOrderingMismatch("buchberger mode needs a global ordering")
    return mode == "mora" or (mode == "auto" and not ring.is_global)


def std(
    generators,
    strategy=None,
    *,
    mode="auto",
    ceiling=DEFAULT_CEILING,
    jet=None,
):
    """Standard basis of the span of `generators` (list of one kind).

    mode 'auto' picks Buchberger for global orderings and the tangent-cone
    reduction otherwise; 'buchberger' insists and raises for non-global
    orderings; 'mora' always uses tangent-cone reduction (valid anywhere).

    Where the first form of the (module) ordering is minus the degree, as
    under ds, ls or ws(1,...,1) and their modules term over position
    (deg_top -1 in ring.py), once the leads found so far span a finite
    staircase, terms at or above its corner (the least degree whose
    monomials are all lead multiples) are discarded on the fly; this never
    changes the leading module or the staircase, only the tails.

    jet=K computes a standard basis of the input plus the K-th power of the
    maximal ideal (every term of degree >= K is dropped throughout); the
    leading data is exact below degree K. It needs such an ordering, and
    dimension queries then go through jet_dimensions.
    """
    generators = list(generators)
    if not generators:
        raise ZeroPolynomial("std of an empty generator list")
    gens = [g for g in generators if g]
    first = (gens or generators)[0]
    ring = first.ring
    rank = _rank_of(first)
    mora = _uses_mora(mode, ring, ceiling)
    if not gens:
        return StandardBasis(ring, rank, (), Stats(), jet)
    for g in gens:
        if g.ring != ring:
            raise RingMismatch("generators live in different rings")
        if isinstance(g, VectorElement) != (rank is not None):
            raise ModuleRankMismatch("mixed polynomials and module elements")
        if rank is not None and g.rank != rank:
            raise ModuleRankMismatch("module ranks differ")
    if strategy is None:
        strategy = Strategy()

    if jet is not None:
        if not isinstance(jet, int) or jet < 1:
            raise ValueError("jet must be a positive integer")
        if _layout_for(first).deg_top != -1:
            raise ModeOrderingMismatch(
                "jet truncation needs an ordering whose first form is minus "
                "the degree"
            )

    t0 = time.perf_counter()
    engine = _StdEngine(ring, rank, strategy, mora, ceiling, jet)
    max_degree = engine.lay.max_degree
    engine.run([(_integral(g._terms)[1], max_degree(code for code, _ in g._terms))
                for g in gens])
    kept = engine.minimal_entries()
    engine.stats.millis = int((time.perf_counter() - t0) * 1000)
    return StandardBasis(ring, rank, kept, engine.stats, jet, engine.counts)


def normal_form(f, reducers, mode="auto", ceiling=DEFAULT_CEILING):
    """Weak normal form of f against a reducer list or StandardBasis.

    The result is zero or has a leading term divisible by no reducer lead;
    the mode's rule picks each step's reducer (see _weak_nf), list order
    standing for age.  Against a StandardBasis whose (module) ordering's
    first form is minus the degree (see std) and whose staircase is finite,
    every term at or above its corner is dropped, from f and throughout: the
    corner's power of the maximal ideal lies in the span, so the result
    still differs from f by an element of the span and is zero exactly for
    its members.
    """
    ring = f.ring
    rank = _rank_of(f)
    mora = _uses_mora(mode, ring, ceiling)
    bound = _HUGE
    if isinstance(reducers, StandardBasis):
        if reducers.layout.deg_top == -1:
            corner = _basis_corner(reducers)
            if corner is not None and corner != INFINITE:
                bound = corner
        reducers = list(reducers.generators)
    p = ring.field.characteristic
    lay = _layout_for(f)
    entries = []
    for k, g in enumerate(reducers):
        if not g:
            continue
        if g.ring != ring:
            raise RingMismatch("reducers live in different rings")
        if (isinstance(g, VectorElement) != (rank is not None)) or (
            rank is not None and g.rank != rank
        ):
            raise ModuleRankMismatch("reducers do not match the element")
        entries.append(_Entry(_monic(_integral(g._terms)[1], p), lay, k))
    counter = Stats()
    init = f._terms
    sugar = lay.max_degree(code for code, _ in init) if init else 0
    cut = _cut(lay, bound)
    if cut is not None:
        init = [t for t in init if t[0] >= cut]
    out, den, _ = _weak_nf(
        _WorkPoly(p, *_integral(init), set()),
        entries,
        lay,
        p,
        mora,
        counter,
        ceiling,
        bound,
        sugar,
    )
    return _wrap(ring, _over(out, den, p), rank)


def is_member(f, basis, ceiling=DEFAULT_CEILING):
    """Membership in the span of a standard basis (weak normal form test)."""
    if f.ring != basis.ring:
        raise RingMismatch("element and basis live in different rings")
    _uses_mora("mora", f.ring, ceiling)
    return not f or not normal_form(f, basis, mode="mora", ceiling=ceiling)


# ---------------------------------------------------------------------------
# staircase queries


class Staircase:
    """Monomial data of a leading module: minimal generators per component.

    Every query slices a component's monomial ideal by the first exponent
    (see _runs). Dimension, corner and jet queries on a basis whose run
    kept no counts (StandardBasis.counts) read the per-degree counts of
    counts_by_degree; only std_exponents, which kbase needs, lists
    monomials.
    """

    def __init__(self, n, rank, lead_exponents):
        self.n = n
        self.rank = rank
        comps = {}
        for exps, comp in lead_exponents:
            comps.setdefault(comp, []).append(tuple(exps))
        self.gens = {c: _minimalize_monomials(v) for c, v in comps.items()}

    def components(self):
        if self.rank is None:
            return (0,)
        return tuple(range(1, self.rank + 1))

    def pure_power_degrees(self, comp):
        """Per variable: least pure-power exponent present, or None."""
        out = [None] * self.n
        for exps in self.gens.get(comp, ()):
            nz = [v for v, e in enumerate(exps) if e]
            if len(nz) == 1:
                v = nz[0]
                if out[v] is None or exps[v] < out[v]:
                    out[v] = exps[v]
        return out

    def contains_origin(self, comp):
        return any(not any(e) for e in self.gens.get(comp, ()))

    def is_finite(self):
        """Finite staircase iff every component has a pure power per variable."""
        for comp in self.components():
            if self.contains_origin(comp):
                continue
            pures = self.pure_power_degrees(comp)
            if any(p is None for p in pures):
                return False
        return True

    def _top_bound(self):
        """No standard monomial of a finite staircase has degree above the
        largest sum of pure powers minus n over its non-unit components."""
        if not self.is_finite():
            raise InfiniteDimensional("quotient is not finite dimensional")
        return max(
            (sum(self.pure_power_degrees(c)) - self.n
             for c in self.components() if not self.contains_origin(c)),
            default=-1,
        )

    def std_exponents(self, comp):
        """Exponent tuples outside the component's leading ideal (finite only)."""
        return _std_listing(self.gens.get(comp, ()), self.n, self._top_bound())

    def counts_by_degree(self, cap=None):
        """Standard monomials per total degree 0..cap, summed over components;
        cap defaults to the top-degree bound of a finite staircase."""
        if cap is None:
            cap = self._top_bound()
        per_comp = [_degree_counts(self.gens.get(c, ()), self.n, cap)
                    for c in self.components()]
        return [sum(col) for col in zip(*per_comp)]


def _minimalize_monomials(monos):
    out = []
    for m in sorted(set(monos), key=lambda e: (sum(e), e)):
        keep = True
        for g in out:
            for a, b in zip(g, m):
                if a > b:
                    break
            else:
                keep = False
                break
        if keep:
            out.append(m)
    return out


def _runs(gens, cap):
    """Slice a monomial ideal by the first exponent: yields (lo, hi, rest)
    for each run of equal slices from 0 up to cap. For lo <= a < hi, x0^a * m
    is standard iff m is standard for rest, the tails of the generators with
    first exponent <= lo (a list grown in place). Stops at a pure power of
    x0, past which every slice is the unit ideal."""
    gens = sorted(gens)
    rest = []
    lo = i = 0
    while lo <= cap:
        while i < len(gens) and gens[i][0] <= lo:
            tail = gens[i][1:]
            i += 1
            if not any(tail):
                return
            rest.append(tail)
        hi = gens[i][0] if i < len(gens) else cap + 1
        yield lo, hi, rest
        lo = hi


def _degree_counts(gens, n, cap):
    """Standard monomials of the ideal of `gens` in n >= 1 variables, per
    degree 0..cap. A run's slice is counted once; shifted by every a in
    [lo, hi) it adds c[d-hi+1] + ... + c[d-lo] at degree d, a running window
    sum. In one variable the least power generates, and every lower power
    is standard."""
    if n == 1:
        top = min(min((g[0] for g in gens), default=cap + 1), cap + 1)
        return [1] * top + [0] * (cap + 1 - top)
    counts = [0] * (cap + 1)
    for lo, hi, rest in _runs(gens, cap):
        c = _degree_counts(rest, n - 1, cap - lo)
        width = hi - lo
        w = 0
        for j, v in enumerate(c):
            w += v
            if j >= width:
                w -= c[j - width]
            counts[lo + j] += w
    return counts


def _std_listing(gens, n, cap):
    """Standard exponent tuples of a finite staircase whose standard
    monomials all have degree <= cap, by the slicing of _degree_counts."""
    if n == 0:
        return [()]
    out = []
    for lo, hi, rest in _runs(gens, cap):
        tails = _std_listing(rest, n - 1, cap - lo)
        out.extend((a,) + m for a in range(lo, hi) for m in tails)
    return out


def _corner(counts):
    """Standard degrees run without a gap from 0, so the degree just past
    the top one is the number of degrees that carry a count."""
    return sum(map(bool, counts))


def vdim(basis):
    """Dimension of the quotient by the leading module; INFINITE if not finite."""
    if basis.jet is not None:
        raise ValueError("basis is jet-truncated; use jet_dimensions")
    if basis.counts is not None:
        return sum(basis.counts)
    st = basis.staircase()
    return sum(st.counts_by_degree()) if st.is_finite() else INFINITE


def kbase(basis):
    """Monomial basis of the quotient, ascending in the (module) ordering."""
    if basis.jet is not None:
        raise ValueError("basis is jet-truncated; use jet_dimensions")
    st = basis.staircase()
    ring = basis.ring
    if basis.rank is None:
        monos = st.std_exponents(0)
        monos.sort(key=ring.monomial_key)
        return [ring.monomial(m) for m in monos]
    lay = ring.module_layout
    codes = sorted(
        lay.encode(m, c) for c in st.components() for m in st.std_exponents(c)
    )
    one = ring.field.one
    return [VectorElement(ring, basis.rank, [(code, one)]) for code in codes]


def highest_corner(basis):
    """Least N with every monomial of degree >= N in the leading ideal.

    A jet-truncated basis is accepted when its counts certify (as every
    basis local_vdim returns does); its corner lies below the jet.
    """
    if basis.rank is not None:
        raise ModuleRankMismatch("highest corner is defined for ideals")
    corner = _basis_corner(basis)
    if corner is None:
        raise ValueError("jet-truncated basis does not certify its corner")
    return corner


def _basis_corner(basis):
    """The corner of a basis's staircase: INFINITE when the staircase is
    infinite, None for a jet-truncated basis whose counts do not certify."""
    if basis.jet is not None:
        counts, certified = jet_dimensions(basis)
        return _corner(counts) if certified else None
    if basis.counts is not None:
        return _corner(basis.counts)
    st = basis.staircase()
    return _corner(st.counts_by_degree()) if st.is_finite() else INFINITE


def jet_dimensions(basis):
    """Per-degree standard-monomial counts of a jet-truncated basis.

    Returns (counts, certified) where counts[d] is the number of standard
    monomials of degree d for 0 <= d < jet. Standard-monomial degrees of any
    submodule form a gap-free interval, so a zero in the top slot certifies
    that the counts are complete: their sum is the true vdim.  The counts
    are the ones the run kept (StandardBasis.counts); only a basis without
    them has its staircase counted here.
    """
    if basis.jet is None:
        raise ValueError("basis was not jet-truncated")
    if basis.counts is None:
        counts = basis.staircase().counts_by_degree(basis.jet - 1)
    else:
        counts = basis.counts + [0] * (basis.jet - len(basis.counts))
    return counts, counts[-1] == 0


def _first_jet(gens):
    """The first jet of local_vdim's ladder: a guess from the generators'
    pure powers. Per component, take the least pure power x_v^a_v among
    the terms for each variable; the monomial ideal they span has its
    corner at sum(a_v) - n + 1, and a jet one past it is the guess, the
    largest over the components without a unit term. When one of those
    components lacks some variable's pure power there is no guess.

    For a Brieskorn-Pham germ x^a + y^b + z^c the top standard monomial of
    the Milnor algebra is x^(a-2) y^(b-2) z^(c-2), so the guess is the
    first jet that certifies. It is only a guess: one too low costs one
    rung, and one too high is cut back to the corner once the staircase
    closes (_StdEngine._tighten_corner). It may only raise the first jet
    above FIRST_JET: on ideals of space curves it falls short of the true
    corner, and a low first rung is then wasted.
    """
    lay = _layout_for(gens[0])
    rank = _rank_of(gens[0])
    n = lay.n
    shift = lay.deg_shift
    mask = lay.deg_mask
    exp_shifts = lay.exp_shifts
    cshift = lay.comp_div_shift
    least = {}  # component -> {variable: least pure-power exponent}
    units = set()  # components with a term of degree 0
    for g in gens:
        for code, _ in g._terms:
            d = (code >> shift) & mask
            c = (code >> cshift) & 0x1FFFF if cshift else 0
            if not d:
                units.add(c)
                continue
            for v, s in enumerate(exp_shifts):
                if (code >> s) & 0x3FFFF == d:  # x_v^d
                    pures = least.setdefault(c, {})
                    if pures.get(v, d) >= d:
                        pures[v] = d
                    break
    jet = FIRST_JET
    for c in (0,) if rank is None else range(1, rank + 1):
        if c in units:
            continue
        pures = least.get(c, ())
        if len(pures) < n:
            return FIRST_JET
        jet = max(jet, sum(pures.values()) - n + 2)
    return min(jet, MAX_JET)


def local_vdim(generators, *, strategy=None, ceiling=DEFAULT_CEILING):
    """(vdim, basis) of the span of `generators`, under any ordering.

    This is the dimension entry point: it always equals vdim(std(...)).
    Where the first form of the (module) ordering is minus the degree (see
    std) it runs jets of increasing order, each modulo the jet-th power of
    the maximal ideal; once the top degree carries no standard monomial the
    count is exact and is returned with its (jet-truncated) basis, which
    highest_corner accepts. The first jet is FIRST_JET, or higher where the
    generators' pure powers guess so (_first_jet); each next one is one past
    the corner of the staircase that the failed rung's leads span, or twice
    the jet while that staircase is infinite.
    Every other ordering, an all-zero input, or a ladder past MAX_JET gets
    one untruncated run, which decides INFINITE honestly. The returned
    basis's stats cover every run made.
    """
    generators = list(generators)
    gens = [g for g in generators if g]
    total = Stats()
    if gens and _layout_for(gens[0]).deg_top == -1:
        k = _first_jet(gens)
        while k <= MAX_JET:
            basis = std(gens, strategy, ceiling=ceiling, jet=k)
            total.add(basis.stats)
            counts, ok = jet_dimensions(basis)
            if ok:
                basis.stats = total
                return sum(counts), basis
            # the leads below the jet are leads of the input, so the corner
            # of the staircase they span bounds the true corner, and a jet
            # one past it certifies; a run that kept no counts saw an
            # infinite staircase
            if basis.counts is None:
                k = 2 * k
            else:
                k = min(_corner(basis.staircase().counts_by_degree()) + 1, 2 * k)
    basis = std(generators, strategy, ceiling=ceiling)
    total.add(basis.stats)
    basis.stats = total
    return vdim(basis), basis
