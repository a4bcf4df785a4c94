"""The reducer choice of std's weak normal form, and the engine's
bookkeeping behind it.

Under a degree bound a step reduces by the divisor whose shifted tail keeps
the fewest terms below the bound, ties going to the older entry; the engine
remembers each lead code's choice and later tests only the entries that
arrived since. These tests hold the choice against a brute-force minimum,
a cached run against one whose cache never stores anything, and local_vdim
against the dense linear-algebra oracle. The corner tightening skips the
staircase while some component lacks a pure power of some variable; the
last tests hold that set against the staircase at every call, and a run
against one that builds and asks the staircase every time.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import germkit.stdbasis as sb
from germkit import (
    OmegaPresentation,
    RingContext,
    Strategy,
    VectorElement,
    ft_germ,
    local_vdim,
    std,
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
    """A reducer cache that forgets every choice, so each step scans."""

    def __setitem__(self, key, value):
        pass


def _uncached(monkeypatch):
    init = sb._StdEngine.__init__

    def patched(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.reducers = _NoStore()

    monkeypatch.setattr(sb._StdEngine, "__init__", patched)


def _surviving(e, delta, cut):
    return sum(1 for code, _ in e.terms[1:] if code + delta >= cut)


@settings(max_examples=100, deadline=None, database=None)
@given(std_inputs())
def test_the_chosen_divisor_keeps_the_fewest_terms(case):
    gens, strategy, jet = case
    if not gens:
        return
    ring = gens[0].ring
    lay = ring.module_layout if isinstance(gens[0], VectorElement) else ring.layout
    choose = sb._choose
    steps = []

    def checked(hcode, got, entries, cut, *rest):
        best = choose(hcode, got, entries, cut, *rest)
        assert got is None and cut is not None
        counts = [(_surviving(e, hcode - e.lead, cut), k)
                  for k, e in enumerate(entries) if lay.divides(e.lead, hcode)]
        if not counts:
            assert best is None
            return best
        fewest, oldest = min(counts)
        assert best is entries[oldest], (fewest, counts)
        steps.append(fewest)
        return best

    with pytest.MonkeyPatch.context() as mp:
        _uncached(mp)
        mp.setattr(sb, "_choose", checked)
        basis = std(gens, strategy, jet=jet)
    assert len(steps) == basis.stats.reductions


def _run(gens, strategy, jet):
    try:
        basis = std(gens, strategy, jet=jet, ceiling=5000)
    except ResourceExhausted:
        return None  # an unbounded Mora run that outgrew the ceiling
    return ([g._terms for g in basis],
            (basis.stats.pairs, basis.stats.discarded, basis.stats.reductions))


# without a jet a local run tightens its bound at every new corner, which
# must drop every remembered choice
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

    def checked(self):
        assert bool(self.open_axes) == (not _staircase(self).is_finite())
        calls.append(bool(self.open_axes))
        tighten(self)

    monkeypatch.setattr(sb._StdEngine, "_tighten_corner", checked)


def _recounted(monkeypatch):
    """Every corner call builds the staircase and asks it whether it is
    finite, in place of the open axes."""
    tighten = sb._StdEngine._tighten_corner

    def recounted(self):
        kept = self.open_axes
        self.open_axes = set() if _staircase(self).is_finite() else {None}
        try:
            tighten(self)
        finally:
            self.open_axes = kept

    monkeypatch.setattr(sb._StdEngine, "_tighten_corner", recounted)


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
