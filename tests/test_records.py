"""The small value classes: equality, hashing, repr, immutability, pickling
and constructor validation."""

import pickle

import pytest

from germkit.acceptance import CriterionResult
from germkit.errors import BadOrdering
from germkit.invariants import INFINITE, InvariantReport
from germkit.poincare import Condition1Result, Condition2Result, ExactnessReport
from germkit.ring import (
    DEGREVLEX,
    NEG_DEGREVLEX,
    NEG_WEIGHTED,
    POSITION_OVER_TERM,
    TERM_OVER_POSITION,
    Block,
    OrderingSpec,
)
from germkit.stdbasis import Stats, Strategy

_C1 = Condition1Result(True, 5)
_C2 = Condition2Result(True, 4, 10, 6)

# (make, a different value of the same class, the repr of make())
CASES = [
    (lambda: Block(NEG_DEGREVLEX, 3), Block(NEG_DEGREVLEX, 2),
     "Block(kind='neg-degrevlex', size=3, weights=None)"),
    (lambda: Block(NEG_WEIGHTED, 2, [2, 3]), Block(NEG_WEIGHTED, 2, [3, 2]),
     "Block(kind='neg-weighted', size=2, weights=(2, 3))"),
    (lambda: OrderingSpec([Block(NEG_DEGREVLEX, 3)]),
     OrderingSpec([Block(NEG_DEGREVLEX, 3)], POSITION_OVER_TERM),
     "OrderingSpec(blocks=(Block(kind='neg-degrevlex', size=3, weights=None),), "
     "module_rule='term-over-position')"),
    (lambda: Strategy(), Strategy("fifo"), "Strategy(pair_selection='sugar')"),
    (lambda: Stats(1, 2, 3, 4), Stats(),
     "Stats(pairs=1, discarded=2, reductions=3, millis=4)"),
    (lambda: InvariantReport(INFINITE, 3, 2, "yes", 0),
     InvariantReport(INFINITE, 3, 2, "yes", 0, "why"),
     "InvariantReport(mu=inf, tau=3, multiplicity=2, quasi_homogeneous='yes', "
     "characteristic=0, note='')"),
    (lambda: Condition1Result(False, 3, "note"), Condition1Result(False, 3),
     "Condition1Result(verified=False, order=3, note='note')"),
    (lambda: Condition2Result(True, 4, 10, 6), Condition2Result(False, 4, 10, 7),
     "Condition2Result(holds=True, mu=4, dim_omega2=10, dim_omega3=6)"),
    (lambda: ExactnessReport(_C1, _C2, "exact-up-to-order-5", "no", 0),
     ExactnessReport(_C1, _C2, "exact-up-to-order-5", "no", 32003),
     "ExactnessReport(condition1=Condition1Result(verified=True, order=5, "
     "note=''), condition2=Condition2Result(holds=True, mu=4, dim_omega2=10, "
     "dim_omega3=6), verdict='exact-up-to-order-5', quasi_homogeneous='no', "
     "characteristic=0)"),
    (lambda: CriterionResult(1, "title", True, 1.5, ("a", 2)),
     CriterionResult(1, "title", False, 1.5, ("a", 2)),
     "CriterionResult(number=1, title='title', passed=True, elapsed=1.5, "
     "details=('a', 2))"),
]


@pytest.mark.parametrize("make, other, text", CASES,
                         ids=[text.split("(")[0] for _, _, text in CASES])
def test_record_semantics(make, other, text):
    a, b = make(), make()
    assert a == b and not a != b
    assert a != other
    # like a dataclass, a record leaves comparison with any other class,
    # another record class included, to the other operand
    for o in (object(), *(o for _, o, _ in CASES if type(o) is not type(a))):
        assert a.__eq__(o) is NotImplemented
    assert repr(a) == text
    assert pickle.loads(pickle.dumps(a)) == a
    field = text.split("(", 1)[1].split("=", 1)[0]
    if isinstance(a, Stats):
        # the engine counts into Stats, so it is mutable and unhashable
        with pytest.raises(TypeError):
            hash(a)
        setattr(a, field, 7)
        assert a != b
        return
    assert hash(a) == hash(b)
    assert hash(pickle.loads(pickle.dumps(a))) == hash(a)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(other, field))
    with pytest.raises(AttributeError):
        a.extra = 1
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b


@pytest.mark.parametrize("make, error, message", [
    (lambda: Block(DEGREVLEX, 0), BadOrdering, "block size must be a positive integer"),
    (lambda: Block("nope", 1), BadOrdering, "unknown ordering kind 'nope'"),
    (lambda: Block(NEG_WEIGHTED, 2, (1,)), BadOrdering,
     "weighted block needs 2 positive integer weights"),
    (lambda: Block(DEGREVLEX, 2, (1, 1)), BadOrdering,
     "weights apply only to weighted blocks"),
    (lambda: OrderingSpec([]), BadOrdering, "ordering needs at least one Block"),
    (lambda: OrderingSpec([Block(DEGREVLEX, 1)], "bogus"), BadOrdering,
     "unknown module rule 'bogus'"),
    (lambda: Strategy("bogus"), ValueError, "bad pair selection 'bogus'"),
])
def test_record_validation(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message


def test_with_module_rule_returns_a_validated_copy():
    spec = OrderingSpec([Block(NEG_DEGREVLEX, 2)])
    pot = spec.with_module_rule(POSITION_OVER_TERM)
    assert pot is not spec
    assert (pot.blocks, pot.module_rule) == (spec.blocks, POSITION_OVER_TERM)
    assert spec.module_rule == TERM_OVER_POSITION
    with pytest.raises(BadOrdering, match="unknown module rule 'bogus'"):
        spec.with_module_rule("bogus")
