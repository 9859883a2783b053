"""The immutable value records: frozen fields, field-wise == and hash."""

from fractions import Fraction

import pytest

from conecert import cones, linearization, tilt
from conecert._record import Record
from conecert.exact import AngleDeg, Interval, QuadraticSurd

F = Fraction

# One instance of each record class, built from scratch on every call.
RECORDS = {
    Interval: lambda: Interval(F(1, 3), F(1, 2)),
    QuadraticSurd: lambda: QuadraticSurd(1, 2, 8),
    AngleDeg: lambda: AngleDeg(120),
    cones.TwoValuePoint: lambda: cones.TwoValuePoint(2, 3, F(1), F(-1, 2)),
    cones.SupResult: lambda: cones.SupResult(
        QuadraticSurd(0, F(1, 6), 6), F(1, 6), cones.TwoValuePoint(1, 1, F(1), F(-1)), "enumeration", True
    ),
    cones.BruteForceResult: lambda: cones.BruteForceResult(0.4, (0.6, -0.8), 10_000, 37),
    cones.ConeParams: lambda: cones.ConeParams(4, F(14, 33), F(1, 15), 1, F(1, 6)),
    cones.ConstraintReport: lambda: cones.constraint_holds(cones.calibrated_defaults(5)),
    cones.NThetaRow: lambda: cones.NThetaRow(F(90), F(95), 7, Interval(94, 95)),
    cones.NThetaTable: lambda: cones.NThetaTable(
        (cones.NThetaRow(F(90), F(180), 7, Interval(180, 180)),), F(1, 1000)
    ),
    cones.OptimizeResult: lambda: cones.optimize_params(5),
    cones.N3Report: lambda: cones.n3_coefficients(F(1, 10)),
    linearization.CertifiedRatioReport: lambda: linearization.CertifiedRatioReport(3.9, 4.1, True, True),
    tilt.TiltParams: lambda: tilt.TiltParams(AngleDeg(120), F(1, 2), 3),
    tilt.IdentityCampaignResult: lambda: tilt.IdentityCampaignResult(1000, 0.0, 1e-16, 2e-16, 1.0, 0),
    tilt.AppendixCampaignResult: lambda: tilt.AppendixCampaignResult(1000, 1e-2, True, 0.1, 0.2, 0.3, 0.4, 0.5, 0),
}


def test_every_record_class_is_covered():
    assert set(Record.__subclasses__()) == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_fields_are_frozen(cls):
    record = RECORDS[cls]()
    assert not hasattr(record, "__dict__")
    for name in cls.__slots__:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_with_equal_fields_are_equal_with_equal_hashes(cls):
    first, second = RECORDS[cls](), RECORDS[cls]()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1


def test_record_equality_is_field_wise_and_class_strict():
    assert Interval(0, 1) != Interval(0, 2)
    assert hash(Interval(0, 1)) == hash((F(0), F(1)))
    assert hash(AngleDeg(30)) == hash((Interval(30, 30),))
    # A record never equals another type, even one with the same fields.
    assert Interval(1, 1) != (F(1), F(1))
    assert QuadraticSurd(2) != F(2)


def test_record_repr_names_each_field():
    assert repr(Interval(1, 2)) == "Interval(lo=Fraction(1, 1), hi=Fraction(2, 1))"
    assert repr(AngleDeg(90)) == "AngleDeg(value=Interval(lo=Fraction(90, 1), hi=Fraction(90, 1)))"


def test_constructors_keep_their_validation():
    with pytest.raises(ValueError, match="out of order"):
        Interval(2, 1)
    with pytest.raises(ValueError, match="out of"):
        AngleDeg(181)
    with pytest.raises(cones.ConeParamsError, match="infeasible"):
        cones.ConeParams(4, 1, F(1, 2), 1, F(1, 6))
    with pytest.raises(ValueError, match="k must lie in"):
        tilt.TiltParams(120, 2, 4)
    # Keyword arguments and defaults work as before.
    assert tilt.TiltParams(theta=120, k=1, n=4).k == 1
    assert QuadraticSurd(0, 1, 8) == QuadraticSurd(rational=0, coeff=2, radicand=2)
    assert cones.SupResult(Interval(0, 1), F(1), cones.TwoValuePoint(1, 1, 1, 0), "x", True).candidates == ()
