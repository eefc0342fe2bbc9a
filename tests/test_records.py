"""Record classes: field equality and hashing, refused assignment,
validation, repr, and copies."""

import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction as F

import pytest

import asep2l
from asep2l.ensemble import Distribution
from asep2l.lattice import LatticePath, Occupation
from asep2l.oracle import Rates, build_generator
from asep2l.qcalc import BasisElement, QPolynomial
from asep2l.record import Record, _refuse
from asep2l.recursions import Failure, VerificationReport
from asep2l.sampler import SampleBatch
from asep2l.weights import ModelParams

P = ModelParams(F(1, 2), 1, 2)

# (record, the same fields given otherwise, a record differing in one
# field, the record's fields in order; a lone field stands alone)
FROZEN = {
    "Occupation": (Occupation(3, 5), Occupation(length=3, word=5), Occupation(4, 5), (3, 5)),
    "ModelParams": (
        ModelParams(F(1, 2), 1, 2),
        ModelParams(q=F(2, 4), A=F(1), B=2),
        ModelParams(F(1, 2), 1, 3),
        (F(1, 2), 1, 2),
    ),
    "Rates": (
        Rates(F(1, 2), 1, 0, F(1, 3), F(1, 2)),
        Rates(alpha=F(1, 2), beta=F(1), gamma=0, delta=F(2, 6), q=F(1, 2)),
        Rates(F(1, 2), 1, 0, F(1, 3), 0),
        (F(1, 2), 1, 0, F(1, 3), F(1, 2)),
    ),
    "QPolynomial": (
        QPolynomial([1, 2]),
        QPolynomial(coeffs=(F(1), F(4, 2), 0)),
        QPolynomial([1, 3]),
        (F(1), F(2)),
    ),
    "BasisElement": (
        BasisElement(2, [1]),
        BasisElement(depth=2, coeffs=(F(1), 0)),
        BasisElement(3, [1]),
        (2, (F(1),)),
    ),
}
FIRST_FIELD = {
    "Occupation": "length",
    "ModelParams": "q",
    "Rates": "alpha",
    "QPolynomial": "coeffs",
    "BasisElement": "depth",
}


@pytest.mark.parametrize("name", sorted(FROZEN))
class TestFrozenRecords:
    def test_field_equality_and_hash(self, name):
        record, same, other, fields = FROZEN[name]
        assert record == same and hash(record) == hash(same) == hash(fields)
        assert record != other
        assert record != fields
        assert len({record, same, other}) == 2

    def test_assignment_is_refused(self, name):
        record, same, _, _ = FROZEN[name]
        field = FIRST_FIELD[name]
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(same, field))
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert record == same

    def test_copies_are_equal(self, name):
        record = FROZEN[name][0]
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record


# (value, an equal value built otherwise, a different value) of the records
# that keep their own equality and hash, and of the mutable GeneratorMatrix
VALUES = {
    "Distribution": (
        Distribution("ab", [1, 3]),
        Distribution("ab", [F(1, 2), F(3, 2)]),
        Distribution("ab", [1, 1]),
    ),
    "LatticePath": (
        LatticePath([0, 1, 0]),
        LatticePath((0, 1, 0)),
        LatticePath([0, -1, 0]),
    ),
    "GeneratorMatrix": (
        build_generator(2, Rates(1, 1, 0, 0, 0)),
        build_generator(2, Rates(1, 1, 0, 0, 0)),
        build_generator(2, Rates(1, 1, 0, 0, F(1, 2))),
    ),
}
FROZEN_VALUES = ["Distribution", "LatticePath"]


@pytest.mark.parametrize("name", sorted(VALUES))
class TestValueTypes:
    def test_equality(self, name):
        value, same, other = VALUES[name]
        assert value == same and value != other

    def test_copies_restore_every_slot(self, name):
        value = VALUES[name][0]
        for twin in (
            copy.copy(value),
            copy.deepcopy(value),
            pickle.loads(pickle.dumps(value)),
        ):
            assert twin == value and twin is not value
            assert twin._fields(twin) == value._fields(value)

    def test_new_attributes_are_refused(self, name):
        with pytest.raises(AttributeError):
            VALUES[name][0].extra = 1


@pytest.mark.parametrize("name", FROZEN_VALUES)
def test_frozen_value_types_refuse_assignment(name):
    value, same, _ = VALUES[name]
    assert hash(value) == hash(same) == hash(copy.deepcopy(value))
    for field in type(value).__slots__:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(same, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert value == same


def test_every_slotted_class_is_a_record():
    for info in pkgutil.iter_modules(asep2l.__path__):
        module = importlib.import_module(f"asep2l.{info.name}")
        for cls in vars(module).values():
            if not isinstance(cls, type) or cls.__module__ != module.__name__:
                continue
            if "__slots__" in vars(cls):
                assert issubclass(cls, Record), cls
            assert vars(cls).get("__setattr__", _refuse) is _refuse, cls


def test_fractions_are_stored():
    p = ModelParams(0, 1, 2)
    assert all(type(v) is F for v in (p.q, p.A, p.B))
    r = Rates(1, 1, 0, 0, 0)
    assert all(type(v) is F for v in (r.alpha, r.beta, r.gamma, r.delta, r.q))


@pytest.mark.parametrize(
    "make",
    [
        lambda: Occupation(-1, 0),
        lambda: Occupation(2, 4),
        lambda: Occupation(0, 1),
        lambda: ModelParams(1, 1, 1),
        lambda: ModelParams(F(1, 2), -1, 1),
        lambda: ModelParams(F(1, 2), 1, F(-1, 3)),
        lambda: Rates(1, 1, 0, F(-1, 2), 0),
        lambda: ModelParams("x", 1, 1),
    ],
)
def test_invalid_fields_raise_value_error(make):
    with pytest.raises(ValueError):
        make()


def test_repr():
    assert repr(P) == "ModelParams(q=Fraction(1, 2), A=Fraction(1, 1), B=Fraction(2, 1))"
    assert repr(Rates(1, 0, 0, 0, 0)) == (
        "Rates(alpha=Fraction(1, 1), beta=Fraction(0, 1), gamma=Fraction(0, 1), "
        "delta=Fraction(0, 1), q=Fraction(0, 1))"
    )
    assert repr(Occupation(3, 5)) == "Occupation('101')"
    assert repr(Occupation(0, 0)) == "Occupation('')"
    assert repr(Failure({}, F(1), 2)) == "Failure(inputs={}, lhs=Fraction(1, 1), rhs=2)"


def test_sample_batch_equality():
    draws = ((Occupation(1, 0), Occupation(1, 1)),)
    batch = SampleBatch(1, P, 7, draws)
    same = SampleBatch(L=1, params=ModelParams(F(1, 2), 1, 2), seed=7, draws=draws)
    assert batch == same
    assert hash(batch) == hash(SampleBatch(1, P, 7, draws))
    assert batch != SampleBatch(1, P, 8, draws)
    assert batch.count == 1


def test_verification_report_equality():
    report = VerificationReport("bulk", "L1=0,L2=0", P)
    assert report == VerificationReport(identity="bulk", sizes="L1=0,L2=0", params=P)
    other = VerificationReport("bulk", "L1=0,L2=0", P)
    assert report.failures == [] and report.failures is not other.failures
    report.check(F(1), F(2), {"n": 1})
    assert report.instances == 1 and not report.passed
    assert report != other
    assert report == VerificationReport(
        "bulk", "L1=0,L2=0", P, 1, [Failure({"n": 1}, F(1), F(2))]
    )
    with pytest.raises(TypeError):
        hash(report)
