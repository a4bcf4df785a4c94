"""The reducer choice of std's weak normal form, and the engine's
bookkeeping behind it.

Under a degree bound a step reduces by the divisor whose shifted tail keeps
the fewest terms below the bound, ties going to the older entry.  How many
terms a divisor keeps depends on the lead only through its degree, so the
engine ranks its entries once per lead degree and a step takes the first
divisor in that ranking.  These tests hold every choice under a cut
against a brute-force minimum, the held rankings against a fresh sort,
the identity they rest on against the code cut, a run that holds its
rankings against one that ranks afresh at every step, the rankings as
replaced when the bound moves, and local_vdim against the dense
linear-algebra oracle.  The corner tightening skips the
staircase while some component lacks a pure power of some variable, and
counts the staircase once and then by subtraction; the last tests hold
that set against the staircase at every call, and a run against one that
builds, asks and counts the staircase every time.  A monomial the engine
records as dead is held against an entry that deletes it with nothing left
below the final bound, and a run that drops such monomials against one
that records none.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import germkit.stdbasis as sb
from germkit import (
    INFINITE,
    HypersurfaceGerm,
    OmegaPresentation,
    RingContext,
    Strategy,
    VectorElement,
    ft_germ,
    local_vdim,
    milnor,
    parse_poly,
    std,
    tjurina,
    zariski_family,
)
from germkit.acceptance import _oracle_vdim
from germkit.errors import ResourceExhausted
from germkit.stdbasis import PAIR_SELECTIONS

PRIMES = (32003, 101)


def _poly(draw, ring, p, max_exp):
    """A sum of one to four terms of positive degree over F_p."""
    exps = st.tuples(*[st.integers(0, max_exp)] * ring.n).filter(any)
    terms = draw(st.lists(st.tuples(exps, st.integers(1, p - 1)),
                          min_size=1, max_size=4))
    f = ring.zero()
    for e, c in terms:
        f = f + ring.monomial(e, c)
    return f


@st.composite
def std_inputs(draw, kinds=("ds", "ls", "module"), jets=st.integers(3, 40)):
    """(generators, strategy, jet) over F_p: an ideal in x, y, z under ds or
    ls, or a rank-2 module in x, y under ds, with a jet drawn from `jets`
    (a jet above the corner makes the run tighten its bound); an ideal
    under dp has no jet."""
    p = draw(st.sampled_from(PRIMES))
    kind = draw(st.sampled_from(kinds))
    strategy = Strategy(draw(st.sampled_from(PAIR_SELECTIONS)))
    count = draw(st.integers(2, 4))
    if kind == "module":
        ring = RingContext(p, ("x", "y"), "ds")
        gens = [VectorElement.from_components([_poly(draw, ring, p, 3)
                                               for _ in range(2)])
                for _ in range(count)]
    else:
        ring = RingContext(p, ("x", "y", "z"), kind)
        gens = [_poly(draw, ring, p, 3) for _ in range(count)]
    gens = [g for g in gens if g]
    jet = None if kind == "dp" else draw(jets)
    return gens, strategy, jet


class _NoStore(dict):
    """Held rankings that store nothing, so each step under a cut ranks
    afresh."""

    def __setitem__(self, key, value):
        pass


def _uncached(monkeypatch):
    init = sb._Ranks.__init__

    def patched(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.lists = _NoStore()

    monkeypatch.setattr(sb._Ranks, "__init__", patched)


def _surviving(e, delta, cut):
    return sum(1 for code in e.codes if code + delta >= cut)


def _check_choice(engine, hcode, best, steps):
    """best, the reducer of the lead hcode, is the divisor whose shifted
    tail keeps the fewest terms at or above the cut, ties to the older."""
    lay, cut, entries = engine.lay, engine.cut, engine.entries
    assert cut is not None
    counts = [(_surviving(e, hcode - e.lead, cut), k)
              for k, e in enumerate(entries) if lay.divides(e.lead, hcode)]
    if not counts:
        assert best is None
        return
    fewest, oldest = min(counts)
    assert best is entries[oldest], (fewest, counts)
    steps.append(fewest)


@settings(max_examples=100, deadline=None, database=None)
@given(std_inputs())
def test_the_chosen_divisor_keeps_the_fewest_terms(case):
    gens, strategy, jet = case
    if not gens:
        return
    choose = sb._choose
    init = sb._StdEngine.__init__
    engines = []
    steps = []

    def patched(self, *args, **kwargs):
        init(self, *args, **kwargs)
        engines.append(self)

    def checked(hcode, ranked, check_mask):
        best = choose(hcode, ranked, check_mask)
        _check_choice(engines[-1], hcode, best, steps)
        return best

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sb._StdEngine, "__init__", patched)
        mp.setattr(sb, "_choose", checked)
        basis = std(gens, strategy, jet=jet)
    # under a cut every step ranks, so every step's reducer was checked
    assert len(steps) == basis.stats.reductions


# random layouts whose top field is minus the degree: ds, ls and
# ws(1,...,1), scalar or term over position
@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_kept_terms_depend_on_the_lead_only_through_its_degree(data):
    n = data.draw(st.integers(1, 4))
    ordering = data.draw(st.sampled_from(("ds", "ls", "ws(%s)" % ",".join("1" * n))))
    ring = RingContext(32003, ("x", "y", "z", "w")[:n], ordering)
    rank = data.draw(st.sampled_from((None, 2, 3)))
    lay = ring.layout if rank is None else ring.module_layout
    assert lay.deg_top == -1
    exps = st.tuples(*[st.integers(0, 2000)] * n)
    comp = data.draw(st.integers(1, rank)) if rank else None
    l_exps = data.draw(exps)
    h_exps = tuple(a + b for a, b in zip(l_exps, data.draw(exps)))
    c_exps = data.draw(exps)
    c_comp = data.draw(st.integers(1, rank)) if rank else None
    lead = lay.encode(l_exps, comp)
    h = lay.encode(h_exps, comp)
    c = lay.encode(c_exps, c_comp)
    bound = data.draw(st.integers(1, 4 * 2000 * n))
    assert lay.divides(lead, h)
    r = bound - 1 - sum(h_exps)
    assert (c + (h - lead) >= sb._cut(lay, bound)) == (sum(c_exps) - sum(l_exps) <= r)
    # the entry takes its top degree from its first tail code, since the
    # tail ascends
    tail = data.draw(st.lists(exps, max_size=4))
    codes = sorted({lay.encode(e, comp) for e in tail + [l_exps]}, reverse=True)
    e = sb._Entry(sb._monic([(code, 1) for code in codes], 32003), lay, 0)
    assert e.deg == lay.degree(codes[0])
    assert e.ecart == max(map(lay.degree, codes)) - e.deg


def _run(gens, strategy, jet):
    try:
        basis = std(gens, strategy, jet=jet, ceiling=5000)
    except ResourceExhausted:
        return None  # an unbounded Mora run that outgrew the ceiling
    return ([g._terms for g in basis],
            (basis.stats.pairs, basis.stats.discarded, basis.stats.reductions))


@settings(max_examples=120, deadline=None, database=None)
@given(std_inputs(kinds=("ds", "ls", "module", "dp"),
                  jets=st.one_of(st.none(), st.integers(3, 40))))
def test_the_cache_changes_no_choice(case):
    gens, strategy, jet = case
    if not gens:
        return
    cached = _run(gens, strategy, jet)
    with pytest.MonkeyPatch.context() as mp:
        _uncached(mp)
        assert _run(gens, strategy, jet) == cached


@pytest.mark.parametrize("jet", (20, None), ids=("jet20", "no-jet"))
def test_nothing_is_remembered_under_a_cut(jet, monkeypatch):
    # under a cut every step ranks by the current bound: the rankings are
    # replaced when the bound tightens to the corner (5 here), and no
    # reducer is remembered across steps
    engines = []
    init = sb._StdEngine.__init__

    def patched(self, *args, **kwargs):
        init(self, *args, **kwargs)
        engines.append(self)

    monkeypatch.setattr(sb._StdEngine, "__init__", patched)
    basis = std(ft_germ(5, 4).tjurina_generators(), jet=jet)
    engine = engines[-1]
    assert engine.bound == 5 and basis.stats.reductions > 0
    assert engine.ranks.cut == engine.cut
    assert not hasattr(engine, "reducers")


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_local_vdim_matches_the_dense_oracle(p, data):
    # the pure powers make the quotient finite and put m^(a+b+c-2) in the
    # ideal, so the oracle's jet there sees the whole quotient
    kind = data.draw(st.sampled_from(("ds", "ls")))
    ring = RingContext(p, ("x", "y", "z"), kind)
    powers = data.draw(st.tuples(*[st.integers(1, 4)] * 3))
    gens = [ring.monomial(tuple(a if v == k else 0 for v in range(3)), 1)
            for k, a in enumerate(powers)]
    gens += [_poly(data.draw, ring, p, 3) for _ in range(data.draw(st.integers(1, 3)))]
    value, _ = local_vdim(gens)
    assert value == _oracle_vdim(gens, sum(powers) - 2, p)


# ---------------------------------------------------------------------------
# the pure-power bookkeeping of the corner tightening


def _staircase(engine):
    return sb.Staircase(engine.ring.n, engine.rank,
                        [(e.lead_exps, e.comp or 0) for e in engine.minimal])


def _checked_corner(monkeypatch, calls):
    """Every corner call asserts that open axes remain exactly when the
    staircase of the current leads is infinite."""
    tighten = sb._StdEngine._tighten_corner

    def checked(self, entry, old):
        assert bool(self.open_axes) == (not _staircase(self).is_finite())
        calls.append(bool(self.open_axes))
        tighten(self, entry, old)

    monkeypatch.setattr(sb._StdEngine, "_tighten_corner", checked)


def _recounted(monkeypatch):
    """Every corner call builds the staircase and asks it whether it is
    finite, in place of the open axes, and counts it afresh below the
    bound, in place of the counts the engine carries."""
    tighten = sb._StdEngine._tighten_corner

    def recounted(self, entry, old):
        kept = self.open_axes
        self.open_axes = set() if _staircase(self).is_finite() else {None}
        self.counts = None
        try:
            tighten(self, entry, old)
        finally:
            self.open_axes = kept

    def staircase_counts(self):
        st = _staircase(self)
        return st.counts_by_degree(min(self.bound - 1, st._top_bound()))

    monkeypatch.setattr(sb._StdEngine, "_tighten_corner", recounted)
    monkeypatch.setattr(sb._StdEngine, "_count_leads", staircase_counts)


@settings(max_examples=120, deadline=None, database=None)
@given(std_inputs(jets=st.one_of(st.none(), st.integers(3, 40))))
def test_open_axes_remain_exactly_while_the_staircase_is_infinite(case):
    gens, strategy, jet = case
    if not gens:
        return
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        _checked_corner(mp, calls)
        checked = _run(gens, strategy, jet)
    with pytest.MonkeyPatch.context() as mp:
        _recounted(mp)
        assert _run(gens, strategy, jet) == checked


def _unit_lead_module():
    """Rank 2 over (x, y) under ds: component 1 meets the pure power y^2,
    then the unit lead of 1 + x; component 2 ends with a finite staircase."""
    ring = RingContext(32003, ("x", "y"), "ds")
    one, x, y = (ring.monomial(e) for e in ((0, 0), (1, 0), (0, 1)))
    zero = ring.zero()
    return [VectorElement.from_components(c) for c in (
        (y**2, zero), (one + x, y**2), (zero, x**2 + y**3), (zero, x * y**2))]


def _omega(k, l, degree):
    germ = ft_germ(k, l)
    return OmegaPresentation(germ.f, germ.g, degree).generators


@pytest.mark.parametrize("gens", [
    pytest.param(_omega(5, 4, 2), id="ft54-omega2"),
    pytest.param(_omega(5, 4, 3), id="ft54-omega3"),
    pytest.param(_omega(8, 8, 2), id="ft88-omega2"),
    pytest.param(_omega(8, 8, 3), id="ft88-omega3"),
    pytest.param(_unit_lead_module(), id="unit-lead-module"),
])
def test_open_axes_on_presentations_and_a_unit_lead(gens, monkeypatch):
    def result():
        value, basis = local_vdim(gens)
        stats = basis.stats
        return (value, [g._terms for g in basis],
                (stats.pairs, stats.discarded, stats.reductions))

    calls = []
    with monkeypatch.context() as mp:
        _checked_corner(mp, calls)
        checked = result()
    # the ladder meets both an infinite and a finite staircase
    assert set(calls) == {True, False}
    with monkeypatch.context() as mp:
        _recounted(mp)
        assert result() == checked


# ---------------------------------------------------------------------------
# the staircase counts the engine carries

COUNTS_SEED = 20263


def _random_counts_input(rng):
    """An ideal or a rank-2/3 term-over-position module in 2 or 3 variables
    under ds, ls or ws(1,...,1), over F_32003, F_101 or Q, with a jet from 4
    to 16; half the draws carry a pure power of every variable in every
    component, so that their staircases are finite."""
    char = rng.choice((32003, 101, 0))
    n = rng.choice((2, 3))
    ordering = rng.choice(("ds", "ls", "ws(%s)" % ",".join("1" * n)))
    ring = RingContext(char, ("x", "y", "z")[:n], ordering)
    rank = rng.choice((None, 2, 3))
    coeffs = range(1, min(char or 10, 32003))

    def poly(max_deg, lowest=1):
        f = ring.zero()
        for _ in range(rng.randint(1, 3)):
            e = [0] * n
            for _ in range(rng.randint(lowest, max_deg)):
                e[rng.randrange(n)] += 1
            f = f + ring.monomial(tuple(e), rng.choice(coeffs))
        return f

    comps = (None,) if rank is None else range(rank)
    gens = []
    for _ in range(rng.randint(2, 4)):
        parts = [poly(4) for _ in comps]
        gens.append(parts[0] if rank is None else VectorElement.from_components(parts))
    if rng.random() < 0.5:
        for k in comps:
            for v in range(n):
                a = rng.randint(1, 5)
                e = tuple(a if w == v else 0 for w in range(n))
                f = ring.monomial(e) + poly(a + 2, a + 1)
                if rank is not None:
                    f = VectorElement.from_components(
                        [f if j == k else ring.zero() for j in comps])
                gens.append(f)
    return [g for g in gens if g], rng.randint(4, 16)


def _checked_counts(monkeypatch, seen):
    """After every insert the counts the engine carries equal a fresh count
    of the staircase of its minimal leads below the bound; the engine
    carries none exactly while that staircase is infinite.  `seen` collects
    (counted, subtracted, tightened) per insert: whether the insert counted
    the staircase, shrank counts it had, and moved the bound."""
    insert = sb._StdEngine.insert

    def checked(self, terms, sugar):
        before = None if self.counts is None else list(self.counts)
        bound = self.bound
        insert(self, terms, sugar)
        if not self.cut_at_corner:
            return
        st = _staircase(self)
        if self.counts is None:
            assert not st.is_finite()
            return
        assert len(self.counts) == self.bound
        assert self.counts == st.counts_by_degree(self.bound - 1)
        seen.append((before is None,
                     before is not None and self.counts != before[:self.bound],
                     self.bound < bound))

    monkeypatch.setattr(sb._StdEngine, "insert", checked)


def _assert_basis_counts(basis):
    """The counts a basis carries, and every query that reads them, agree
    with a fresh count of its staircase."""
    st = sb.Staircase(basis.ring.n, basis.rank, basis.leading_exponents())
    if basis.counts is None:
        assert not st.is_finite()
    if basis.jet is not None:
        assert sb.jet_dimensions(basis) == (
            lambda c: (c, c[-1] == 0))(st.counts_by_degree(basis.jet - 1))
        return
    finite = st.is_finite()
    if basis.counts is not None:
        # up to the corner, past which the staircase has no monomial
        full = st.counts_by_degree()
        assert basis.counts == full[:sb._corner(full)] and not any(
            full[len(basis.counts):])
    assert sb.vdim(basis) == (sum(st.counts_by_degree()) if finite else INFINITE)
    corner = sb._corner(st.counts_by_degree()) if finite else INFINITE
    assert sb._basis_corner(basis) == corner
    if basis.rank is None:
        assert sb.highest_corner(basis) == corner


def test_carried_counts_equal_a_fresh_count():
    rng = random.Random(COUNTS_SEED)
    inputs = [_random_counts_input(rng) for _ in range(240)]
    inputs.append((_unit_lead_module(), 6))
    # x^2, y^3 under a jet of 16: the bound tightens to the corner, 4
    ring = RingContext(32003, ("x", "y"), "ds")
    inputs.append(([ring.monomial((2, 0)), ring.monomial((0, 3))], 16))
    seen = []
    untruncated = 0
    with pytest.MonkeyPatch.context() as mp:
        _checked_counts(mp, seen)
        for gens, jet in inputs:
            if not gens:
                continue
            _assert_basis_counts(std(gens, jet=jet))
            if gens[0].ring.characteristic:
                try:
                    basis = std(gens, ceiling=2000)
                except ResourceExhausted:
                    continue
                _assert_basis_counts(basis)
                untruncated += 1
    counted, subtracted, tightened = map(sum, zip(*seen))
    assert untruncated >= 120, untruncated
    assert counted >= 180 and subtracted >= 150 and tightened >= 250, (
        counted, subtracted, tightened)


def _staircase_calls(monkeypatch, calls):
    counts_by_degree = sb.Staircase.counts_by_degree

    def counted(self, *args):
        calls.append(args)
        return counts_by_degree(self, *args)

    monkeypatch.setattr(sb.Staircase, "counts_by_degree", counted)


@pytest.mark.parametrize("run, want", [
    pytest.param(lambda: tjurina(ft_germ(10, 8)), 0, id="ft108-tjurina"),
    pytest.param(lambda: local_vdim(_omega(10, 8, 2)), 0, id="ft108-omega2"),
    pytest.param(lambda: milnor(HypersurfaceGerm(zariski_family(
        16, 12, 4, 1, ring=RingContext(32003, ("x", "y", "z"), "ds")))), 0,
        id="zariski16-12-4-t1-milnor"),
    pytest.param(lambda: milnor(HypersurfaceGerm(parse_poly(
        "x^200+y^7+x^5*y^3", RingContext(32003, ("x", "y"), "ds")))), 1,
        id="x200-y7-milnor"),
])
def test_certifying_rungs_count_no_staircase(run, want, monkeypatch):
    # a certifying rung reads the counts its run kept: the Zariski member
    # certifies at the jet its pure powers guess, and x^200+y^7+x^5*y^3
    # counts a staircase once, for the next jet after its failed first rung
    calls = []
    _staircase_calls(monkeypatch, calls)
    run()
    assert len(calls) == want, calls


# ---------------------------------------------------------------------------
# the monomials the engine drops as dead

DEAD_SEED = 20265


class _Forgetful(set):
    """A dead set that records nothing, so no monomial is ever dropped."""

    def add(self, code):
        pass


def test_dead_monomials_are_held_by_an_entry_modulo_the_final_bound(monkeypatch):
    # a dead code is x^delta times the lead of an entry whose tail, shifted
    # by delta, lies wholly at or past the bound; dropping such codes moves
    # no lead and no count
    rng = random.Random(DEAD_SEED)
    inputs = [_random_counts_input(rng) for _ in range(150)]
    engines = []
    init = sb._StdEngine.__init__

    def patched(self, *args, **kwargs):
        init(self, *args, **kwargs)
        engines.append(self)

    def forgetful(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.dead = _Forgetful()

    def leads_and_counts(basis):
        return basis.leading_exponents(), basis.counts

    recorded = runs = 0
    for gens, jet in inputs:
        if not gens:
            continue
        with monkeypatch.context() as mp:
            mp.setattr(sb._StdEngine, "__init__", patched)
            basis = std(gens, jet=jet)
        engine = engines[-1]
        lay, cut = engine.lay, engine.cut
        for code in engine.dead:
            assert any(lay.divides(e.lead, code)
                       and all(c + code - e.lead < cut for c in e.codes)
                       for e in engine.entries), code
        recorded += len(engine.dead)
        runs += bool(engine.dead)
        with monkeypatch.context() as mp:
            mp.setattr(sb._StdEngine, "__init__", forgetful)
            assert leads_and_counts(std(gens, jet=jet)) == leads_and_counts(basis)
    assert runs >= 60 and recorded >= 1000, (runs, recorded)


# ---------------------------------------------------------------------------
# the rankings the engine holds under a cut


def _kept_at(lay, e, r):
    return sum(1 for code in e.codes if lay.degree(code) - e.deg <= r)


def _check_ranks(engine, held):
    """The engine's rankings equal a fresh sort, by (tail terms kept at r,
    seq), of the entries of lead degree at most bound - 1 - r, and r is
    clamped at the largest ecart of a lead above the cut."""
    ranks = engine.ranks
    if ranks is None:
        assert engine.cut is None
        return
    lay, cut, bound = engine.lay, engine.cut, engine.bound
    assert ranks.cut == cut
    assert ranks.top == max((e.ecart for e in engine.entries if e.lead >= cut),
                            default=0)
    for r, ranked in ranks.lists.items():
        assert 0 <= r <= ranks.top
        fresh = sorted((_kept_at(lay, e, r), e.seq, e) for e in engine.entries
                       if e.deg <= bound - 1 - r)
        assert ranked == fresh
        held.append(len(ranked))


RANKS_SEED = 20264


def test_held_rankings_equal_a_fresh_sort(monkeypatch):
    rng = random.Random(RANKS_SEED)
    inputs = [_random_counts_input(rng) for _ in range(150)]
    inputs.append((_unit_lead_module(), 6))
    held = []
    joined = moved = 0
    engines = []
    insert = sb._StdEngine.insert
    weak_nf = sb._weak_nf

    def checked_insert(self, terms, sugar):
        nonlocal joined, moved
        ranks = self.ranks
        sizes = {} if ranks is None else {r: len(v) for r, v in ranks.lists.items()}
        insert(self, terms, sugar)
        _check_ranks(self, held)
        if ranks is None:
            return
        if self.ranks is ranks:
            joined += sum(len(v) > sizes[r] for r, v in ranks.lists.items())
        else:
            moved += 1

    def checked_weak_nf(*args, **kwargs):
        out = weak_nf(*args, **kwargs)
        _check_ranks(engines[-1], held)
        return out

    init = sb._StdEngine.__init__

    def patched(self, *args, **kwargs):
        init(self, *args, **kwargs)
        engines.append(self)

    monkeypatch.setattr(sb._StdEngine, "__init__", patched)
    monkeypatch.setattr(sb._StdEngine, "insert", checked_insert)
    monkeypatch.setattr(sb, "_weak_nf", checked_weak_nf)
    for gens, jet in inputs:
        if gens:
            std(gens, jet=jet)
    # many rankings were checked, new entries joined held ones, and held
    # ones were dropped when the bound moved
    assert len(held) >= 1000 and joined >= 100 and moved >= 100, (
        len(held), joined, moved)
