"""The `Record` base against a frozen dataclass reference (`conftest.dataclass_twin`),
over every result class of the library."""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest
from conftest import dataclass_twin

from fermatcalc import bounds, fermat_hodge, idealcalc, multipoly
from fermatcalc.bounds import BoundReport, DivisorScanReport
from fermatcalc.exactnum import CyclotomicNumber, zeta
from fermatcalc.fermat_hodge import (CertificateRow, CompleteIntersectionReport, PairingResult,
                                     PlaneContainment, ProductClassSpec, RationalityCertificate,
                                     RationalityScanReport, SpecialFamilyResult, SquareMembership)
from fermatcalc.idealcalc import DegreeSlice, FermatContext, GroebnerResult, HilbertProfile, _Reduction
from fermatcalc.multipoly import MonomialOrder, Polynomial
from fermatcalc.record import Record

Z = zeta(10)
ONE = CyclotomicNumber.one()
X = Polynomial.variable(4, 0)
Y = Polynomial.variable(4, 1).scale(Z) + Polynomial.variable(4, 3)
ROW = CertificateRow(((0, 1), (2, 3)), (1, 3), Z, None, "irrational")
SPEC = ProductClassSpec((Z, -Z), ONE)
BOUND = BoundReport(2, 2, 3, "attains-linear-minimum", 2, (X, Y))
CERTIFICATE = RationalityCertificate((ROW,), "counterexample", ROW)
SQUARE = SquareMembership(True, ((0, 1, (0, 0, 0, 0), ONE), (2, 3, (1, 0, 0, 0), -Z)))

# keyword arguments of one instance per result class, in field order
SAMPLES = {
    MonomialOrder: dict(priority=(2, 0, 1)),
    FermatContext: dict(n=2, d=5),
    DegreeSlice: dict(degree=1, basis=(X, Y)),
    HilbertProfile: dict(dims=(1, 4, 4, 1)),
    _Reduction: dict(vars(_Reduction.avoiding([Z]))),
    GroebnerResult: dict(basis=(X, Y), added=(Y,), truncated=False),
    DivisorScanReport: dict(
        n=2, d=5, sigma=6, min_value=2, min_count=6, second_min=3, second_count=28,
        assertions=(True, True, False, True), min_attainers=(((0, 0, 3, 3), 6),),
        second_attainers=(((0, 1, 2, 3), 24), ((0, 2, 2, 2), 4)), exchange_checks=1204,
    ),
    BoundReport: dict(vars(BOUND)),
    ProductClassSpec: dict(a=(Z, Z**3), c_lambda=ONE / 3, pairing=((0, 2), (1, 3))),
    PairingResult: dict(c=Z, intersection=Z * -4, c_rational=None, intersection_rational=Fraction(-4, 3)),
    CertificateRow: dict(vars(ROW)),
    RationalityCertificate: dict(vars(CERTIFICATE)),
    RationalityScanReport: dict(d=5, a=Z, direct=True, scan=True, witness=(1, 3, Z + 1),
                                cross_ratio=-1 - Z**2 - Z**8, cross_ratio_rational=False),
    PlaneContainment: dict(contained=True, residual=Polynomial.zero(4), quotients=(X, Y),
                           generators=(X, Y), socle=1, socle_ok=True),
    SquareMembership: dict(vars(SQUARE)),
    CompleteIntersectionReport: dict(generators=(X, Y), dims=(1, 4, 1), socle=1, socle_ok=True,
                                     square=SQUARE, tangent=BOUND),
    SpecialFamilyResult: dict(spec=SPEC, certificate=CERTIFICATE, j1_dim=2, normalization_alpha=(1, 1)),
}
# a changed field that the class's __post_init__ accepts
VALID_CHANGES = {
    MonomialOrder: dict(priority=(0, 1, 2)),
    FermatContext: dict(d=7),
    HilbertProfile: dict(dims=(1, 1)),
    ProductClassSpec: dict(pairing=None),
}
CLASSES = pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)


def hash_or_error(value):
    try:
        return hash(value)
    except TypeError:  # a field holds a Polynomial, which is unhashable
        return TypeError


def test_every_result_class_is_sampled():
    records = {v for m in (bounds, fermat_hodge, idealcalc, multipoly) for v in vars(m).values()
               if isinstance(v, type) and issubclass(v, Record) and v is not Record}
    assert records == set(SAMPLES) and len(records) == 17


@CLASSES
def test_repr_equality_and_hash_match_the_reference(cls):
    kwargs = SAMPLES[cls]
    twin = dataclass_twin(cls)
    record, reference = cls(**kwargs), twin(**kwargs)
    assert tuple(vars(record)) == tuple(f.name for f in dataclasses.fields(twin))
    assert repr(record) == repr(reference)
    assert record == cls(*kwargs.values()) and reference == twin(*kwargs.values())
    assert not record != cls(**kwargs)
    assert record != reference and reference != record
    assert record.__eq__(reference) is NotImplemented is reference.__eq__(record)
    assert hash_or_error(record) == hash_or_error(reference)


def test_unequal_fields_compare_unequal():
    assert FermatContext(2, 5) != FermatContext(2, 7)
    assert MonomialOrder((0, 1)) != MonomialOrder((1, 0))
    assert BoundReport(1, 2, 3, "above") != BoundReport(1, 2, 3, "above", 0)
    assert len({FermatContext(2, 5), FermatContext(2, 5), FermatContext(4, 5)}) == 2


def test_keyword_construction_and_defaults():
    for cls in (BoundReport, dataclass_twin(BoundReport)):
        report = cls(bound_second=3, classification="above", value=4, bound_linear=2)
        assert (report.j1_dim, report.j1_basis) == (None, None)
        assert report == cls(4, 2, 3, "above", None, None) == cls(4, 2, 3, classification="above")
    for cls in (ProductClassSpec, dataclass_twin(ProductClassSpec)):
        assert cls(c_lambda=ONE, a=(Z,)).pairing is None
        assert cls((Z,), ONE, ((0, 1), (2, 3))).pairing == ((0, 1), (2, 3))
    assert repr(BoundReport(4, 2, 3, "above")) == repr(dataclass_twin(BoundReport)(4, 2, 3, "above"))


@CLASSES
def test_missing_or_extra_arguments_raise_type_error(cls):
    kwargs = SAMPLES[cls]
    first, *_ = kwargs
    values = list(kwargs.values())
    calls = [
        lambda c: c(**{k: v for k, v in kwargs.items() if k != first}),  # missing
        lambda c: c(*values, 0),  # one positional too many
        lambda c: c(**kwargs, extra=0),  # unknown keyword
        lambda c: c(values[0], **kwargs),  # a field given twice
        lambda c: c(),
    ]
    for call in calls:
        for c in (cls, dataclass_twin(cls)):
            with pytest.raises(TypeError):
                call(c)


@CLASSES
def test_assignment_and_deletion_raise_attribute_error(cls):
    for instance in (cls(**SAMPLES[cls]), dataclass_twin(cls)(**SAMPLES[cls])):
        for name in (*SAMPLES[cls], "not_a_field"):
            with pytest.raises(AttributeError):
                setattr(instance, name, 0)
            with pytest.raises(AttributeError):
                delattr(instance, name)
        assert vars(instance) == SAMPLES[cls]


@pytest.mark.parametrize("cls, args, message", [
    (FermatContext, (3, 5), "dimension n must be a positive even integer"),
    (FermatContext, (2, 2), "degree d must be at least 3"),
    (HilbertProfile, ((1, 2, 3, 1),), "profile is not symmetric"),
    (HilbertProfile, ((1, 2, 2),), "profile ends must be 1-dimensional"),
    (MonomialOrder, ((0, 0, 1),), "priority must be a permutation"),
    (ProductClassSpec, ((Z,), CyclotomicNumber.zero()), "scale must be nonzero"),
], ids=["odd-n", "small-d", "asymmetric", "ends", "not-a-permutation", "zero-scale"])
def test_post_init_refusals_match_the_reference(cls, args, message):
    errors = []
    for c in (cls, dataclass_twin(cls)):
        with pytest.raises(ValueError, match=message) as info:
            c(*args)
        errors.append(str(info.value))
    assert errors[0] == errors[1]


@CLASSES
def test_replace_matches_the_reference(cls):
    kwargs = SAMPLES[cls]
    record, reference = cls(**kwargs), dataclass_twin(cls)(**kwargs)
    assert record.replace() == record and record.replace() is not record
    *_, last = kwargs
    changes = VALID_CHANGES.get(cls, {last: "changed"})
    changed = record.replace(**changes)
    assert changed != record and vars(changed) == {**kwargs, **changes}
    assert repr(changed) == repr(dataclasses.replace(reference, **changes))
    with pytest.raises(TypeError):
        record.replace(not_a_field=0)


def test_replace_runs_post_init_again():
    for ctx in (FermatContext(2, 5), dataclass_twin(FermatContext)(2, 5)):
        change = ctx.replace if isinstance(ctx, Record) else lambda **kw: dataclasses.replace(ctx, **kw)
        assert change(d=7).d == 7
        with pytest.raises(ValueError, match="positive even"):
            change(n=3)
    report = BOUND.replace(j1_dim=None, j1_basis=None)
    assert report == BoundReport(2, 2, 3, "attains-linear-minimum")


@CLASSES
def test_pickle_and_deepcopy_round_trip(cls):
    record = cls(**SAMPLES[cls])
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(copied) is cls and copied == record and repr(copied) == repr(record)
        assert hash_or_error(copied) == hash_or_error(record)
        with pytest.raises(AttributeError):
            setattr(copied, next(iter(SAMPLES[cls])), 0)


def test_fields_need_defaults_after_the_first_default():
    with pytest.raises(TypeError, match="without a default follows"):
        class Broken(Record):
            a: int = 0
            b: int
