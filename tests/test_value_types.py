"""The contract of the hand-written value types and records.

Equal values compare and hash equal (they key caches and memo tables),
immutable types refuse assignment, the interval invariant lo <= hi holds at
construction, defaulted dicts are never shared, and the kernel types survive
pickling and deep copies.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from cfindep.bigreal.dyadic import Dyadic
from cfindep.bigreal.interval import ComplexInterval, DyadicInterval
from cfindep.bigreal.poly import IntPoly
from cfindep.catalog import catalog
from cfindep.cfcore import _RATIONAL, CFValueEnclosure, GaussianRational, initial_state
from cfindep.cli import RunConfig
from cfindep.criteria import ConditionReport
from cfindep.numfield import characteristic_polynomial, embeddings, is_algebraic_integer
from cfindep.sequences import KINDS, Decomposition, phi_field, spec, sqrt2_field


def _iv(lo, hi):
    return DyadicInterval(Dyadic(lo), Dyadic(hi))


def _immutables():
    f = sqrt2_field()
    return [
        Dyadic(3, 1),
        _iv(1, 2),
        ComplexInterval(_iv(1, 2), _iv(0, 0)),
        IntPoly.of(-2, 0, 1),
        f.generator(),
        embeddings(f, 64),
        initial_state(1),
        CFValueEnclosure(_iv(1, 2), 3, "nested-convergents"),
        GaussianRational.of(1, 2),
        Decomposition(1, Fraction(1), Fraction(0), Fraction(1)),
        spec("constant", value=Fraction(2)),
        KINDS["constant"],
        _RATIONAL,
        catalog()["ex1"],
    ]


@pytest.mark.parametrize("obj", _immutables(), ids=lambda o: type(o).__name__)
def test_immutable_types_refuse_assignment(obj):
    name = next(iter(obj.__slots__ if hasattr(obj, "__slots__") else vars(obj)))
    before = getattr(obj, name)
    with pytest.raises(AttributeError):
        setattr(obj, name, None)
    with pytest.raises(AttributeError):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    assert getattr(obj, name) is before


def test_equal_values_are_equal_and_hash_equal():
    f = sqrt2_field()
    pairs = [
        (Dyadic(4, 0), Dyadic(1, 2)),
        (Dyadic(0, 7), Dyadic()),
        (_iv(2, 4), DyadicInterval(Dyadic(1, 1), Dyadic(1, 2))),
        (IntPoly((1, 2, 0, 0)), IntPoly.of(1, 2)),
        (f.element([1, 2]), f.generator() * 2 + 1),
        (spec("constant", value=Fraction(2)), spec("constant", value=Fraction(4, 2))),
        (GaussianRational.of(1), GaussianRational(Fraction(1), Fraction(0))),
        (CFValueEnclosure(_iv(1, 2), 3, "k"), CFValueEnclosure(_iv(1, 2), 3, "k")),
    ]
    for a, b in pairs:
        assert a == b and not a != b and hash(a) == hash(b), (a, b)
    assert Dyadic(1, 2) != Dyadic(1, 3) and Dyadic(1, 2) != 4
    assert _iv(1, 2) != _iv(1, 3) and IntPoly.of(1, 2) != IntPoly.of(1, 3)
    assert spec("constant", value=Fraction(2)) != spec("constant", value=Fraction(3))
    # a field element's equality names its field, not only its coordinates
    assert f.generator() != phi_field().generator()
    assert len({Dyadic(4, 0), Dyadic(1, 2), Dyadic(2, 1)}) == 1


def test_inverted_interval_raises():
    with pytest.raises(ValueError, match="inverted interval"):
        DyadicInterval(Dyadic(3), Dyadic(1))
    with pytest.raises(ValueError):
        DyadicInterval(Dyadic(1, -100), Dyadic(-1, 200))
    d = Dyadic(5, -3)
    assert DyadicInterval(d, d).is_point()


def test_defaulted_dicts_are_not_shared():
    a, b = RunConfig("list-examples"), RunConfig("list-examples")
    assert a == b
    a.params["N"] = 3
    assert b.params == {} and a != b
    assert a.sequences is not b.sequences and a.output is not b.output
    r1, r2 = ConditionReport("x", "pass", 1, []), ConditionReport("x", "pass", 1, [])
    assert r1 == r2
    r1.notes["k"] = 1
    assert r2.notes == {} and r1 != r2


@pytest.mark.parametrize("obj", [
    Dyadic(-7, -40),
    Dyadic(),
    _iv(-3, 5),
    IntPoly.of(14, -8, 1),
], ids=repr)
def test_pickle_and_deepcopy_round_trip(obj):
    for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
        assert type(twin) is type(obj) and twin == obj and hash(twin) == hash(obj)


def test_complex_box_pickles():
    box = ComplexInterval(_iv(1, 2), _iv(-1, 0))
    twin = pickle.loads(pickle.dumps(box))
    assert (twin.re, twin.im) == (box.re, box.im)


def test_rational_elements_are_integral_exactly_when_their_minimal_polynomial_is():
    f = sqrt2_field()
    for q in (Fraction(0), Fraction(7), Fraction(-3), Fraction(7, 2), Fraction(-1, 3)):
        x = f.from_rational(q)
        assert characteristic_polynomial(x) == [q * q, -2 * q, 1]  # (t - q)^2
        assert is_algebraic_integer(x) == (q.denominator == 1)

