"""The six record classes: equal by value, hashable, immutable, and their
constructor checks."""

import copy
import pickle
from fractions import Fraction as Fr

import pytest

from wittpolar import samples
from wittpolar.cowitt import CoWittElement, witness_search
from wittpolar.etale import Decomposition, IdempotentResult, decompose
from wittpolar.fgl import BivariateLaw, PTypicalLog, group_law
from wittpolar.gfq import gf_build
from wittpolar.wittmod import WittVector, w_add, witt

F2 = gf_build(2, 1)
A = samples.trunc_nil_polar(F2, 3)
B = samples.split_polar(F2, 2)
LOG = PTypicalLog(2, 4, (Fr(1), Fr(1, 2), Fr(1, 4)))


#: (class, make, field, other): make() builds a fresh record equal to the
#: last one, `field` names one of its fields, and `other` differs from it
RECORDS = [
    (WittVector, lambda: witt(A, [(1, 0), (0, 1)]), "coords",
     witt(A, [(1, 0), (1, 1)])),
    (CoWittElement, lambda: CoWittElement(A, (0, 1), {-1: (1, 0)}, (1, 1)),
     "tail", CoWittElement(A, (0, 1), {-2: (1, 0)}, (2, 1))),
    (IdempotentResult, lambda: IdempotentResult((1, 0), 1, B), "e",
     IdempotentResult((0, 1), 1, B)),
    (Decomposition, lambda: decompose(B), "factors",
     decompose(samples.field_ext_polar(F2, 2))),
    (PTypicalLog, lambda: PTypicalLog(2, 4, (Fr(1), Fr(1, 2), Fr(1, 4))),
     "coeffs", PTypicalLog(2, 4, (Fr(1), Fr(1, 2)))),
    (BivariateLaw, lambda: group_law(LOG, 4), "terms", group_law(LOG, 3)),
]


@pytest.mark.parametrize("cls, make, field, other", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_records_are_equal_by_value_hashable_and_immutable(cls, make, field,
                                                           other):
    x, y = make(), make()
    assert type(x) is cls and type(other) is cls
    assert x is not y and x == y and not x != y
    assert hash(x) == hash(y) and len({x, y}) == 1
    assert x != other and other != x
    assert x != (x,) and x != getattr(x, field)
    value = getattr(x, field)
    with pytest.raises(AttributeError):
        setattr(x, field, value)
    with pytest.raises(AttributeError):
        delattr(x, field)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert getattr(x, field) is value and x == y
    for z in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(z) is cls and z == x and hash(z) == hash(x)


def test_an_algebra_copies_and_pickles_after_use():
    # after `w_add` the algebra holds its compiled mu kernel and plans;
    # a copy is rebuilt from (field, dim, mu) and compiles its own
    x, y = witt(B, [(1, 0), (0, 1)]), witt(B, [(1, 1), (1, 0)])
    total = w_add(x, y)
    for C in (copy.copy(B), copy.deepcopy(B), pickle.loads(pickle.dumps(B))):
        assert type(C) is type(B) and C is not B
        assert C == B and hash(C) == hash(B)
        assert (w_add(witt(C, x.coords), witt(C, y.coords))
                == witt(C, total.coords))


def test_record_defaults_and_keywords():
    assert CoWittElement(A, (0, 0)).exceptions == {}
    assert CoWittElement(A, (0, 0)).witness == (0, 0)
    # the witness keyword is accepted and ignored: the witness is searched
    x = CoWittElement(algebra=A, tail=[0, 1], exceptions={0: [1, 0]},
                      witness=[1, 1])
    assert (x.tail, x.exceptions, x.witness) == ((0, 1), {0: (1, 0)}, (0, 2))
    assert x.witness == witness_search(x)
    assert WittVector(algebra=A, coords=((1, 0),)) == witt(A, [(1, 0)])


def test_cowitt_equality_ignores_the_witness_and_tail_copies():
    x = CoWittElement(A, (0, 1), {-1: (1, 0), -2: (0, 1)}, (2, 1))
    y = CoWittElement(A, (0, 1), {-1: (1, 0)}, (0, 0))
    assert x == y and hash(x) == hash(y)
    assert x.exceptions == {-1: (1, 0)}


@pytest.mark.parametrize("tail, exceptions, message", [
    ((0, 1, 0), {}, "tail dimension mismatch"),
    ((0, 1), {-1: (1, 0, 0)}, "entry dimension mismatch"),
    ((0, 1), {1: (1, 0)}, "exception indices must be <= 0"),
])
def test_cowitt_constructor_checks(tail, exceptions, message):
    with pytest.raises(ValueError, match=message):
        CoWittElement(A, tail, exceptions)


@pytest.mark.parametrize("p, prec, coeffs, message", [
    (4, 4, (Fr(1), Fr(1, 4)), "4 is not prime"),
    (2, 4, (Fr(2), Fr(1, 2)), "l_0 must be 1"),
    (2, 4, (Fr(1), Fr(1, 2), Fr(1, 4), Fr(1, 8)), "beyond precision 4"),
])
def test_ptypical_log_constructor_checks(p, prec, coeffs, message):
    with pytest.raises(ValueError, match=message):
        PTypicalLog(p, prec, coeffs)
