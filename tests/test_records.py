"""The record classes: positional and keyword construction, defaults,
refused assignment on the immutable ones, and TrialConfig's checks."""

import time
from fractions import Fraction

import pytest

from quasifold import (Chart, CocycleReport, Facet, Fan, InputDocument,
                       Matrix, NormalFanResult, OrbitRow, RationalDomain,
                       TrialConfig, TrialFailure, TrialReport,
                       ValidationReport, VerificationSummary, Vertex)

RATIONAL = RationalDomain()
ONE = RATIONAL.one()
IDENTITY = Matrix.identity(RATIONAL, 2)
FAN = Fan(1, [[ONE]], [(1,)])

# per record: its fields in constructor order, and one value for each
RECORDS = {
    Chart: ((1, 2), [[Fraction(1), Fraction(0), Fraction(1)],
                     [Fraction(0), Fraction(1), Fraction(1, 2)]], RATIONAL, 2),
    CocycleReport: (2, 0, ()),
    OrbitRow: (1, 1, 2),
    Facet: ((ONE, ONE), ONE),
    Vertex: ((ONE, ONE), (1, 2)),
    NormalFanResult: (FAN, ()),
    ValidationReport: (True, (), True, (), True, 0, False, 0, 0, 0, "note"),
    TrialConfig: (5, 1, 1e-6, 2, Fraction(3, 2)),
    TrialFailure: ("factorization", ((1,),), 3, "mismatch", 0.5, 0),
    InputDocument: (RATIONAL, None, FAN, None, None, {"seed": 1}, "doc"),
    VerificationSummary: ({},),
}


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_immutable_records_construct_and_refuse_assignment(record):
    values = RECORDS[record]
    by_position = record(*values)
    by_keyword = record(**dict(zip(record._fields, values)))
    assert by_position == by_keyword and tuple(by_position) == values
    for field, value in zip(record._fields, values):
        assert getattr(by_keyword, field) is value
        with pytest.raises(AttributeError):
            setattr(by_keyword, field, value)
    with pytest.raises(AttributeError):
        by_keyword.extra = 1
    assert by_keyword._replace(**{record._fields[0]: values[0]}) == by_keyword


def test_record_defaults_and_properties():
    assert ValidationReport(*RECORDS[ValidationReport][:-1]).probe_note == ""
    assert ValidationReport(*RECORDS[ValidationReport]).passed
    assert TrialConfig() == (100, 0, 1e-9, 3, None)
    assert TrialConfig(samples=7)._replace(seed=2) == (7, 2, 1e-9, 3, None)
    first = InputDocument(RATIONAL, None)
    assert (first.fan, first.polytope, first.witnesses, first.name) == (
        None, None, None, None)
    assert first.options == {} and InputDocument(RATIONAL, None).options \
        is not first.options
    # a chart is its payload rows [C | L]; its Matrices are views
    chart = Chart(*RECORDS[Chart])
    assert chart.coordinates == IDENTITY and chart.coordinates.col_labels == (1, 2)
    assert [x.text() for x in chart.lattice_exponents.entries] == ["1", "1/2"]
    assert [x.text() for x in chart.group_exponents.entries] == ["0", "1/2"]
    assert CocycleReport(2, 0, ()).passed
    assert not CocycleReport(2, 0, (("pair", (1,), (2,)),)).passed
    report = NormalFanResult(FAN, ("v",))
    assert report.table() == (((1,), "v"),)


def test_trial_report_is_mutable():
    report = TrialReport("factorization")
    assert (report.trials, report.max_deviation, report.failures,
            report.skipped) == (0, 0.0, (), ())
    # a trial fails when its residual reaches the tolerance
    cfg = TrialConfig(seed=9, tolerance=0.5)
    report.record((1,), 0, cfg, 0.25)
    report.record((1,), 1, cfg, 0.75)
    assert (report.trials, report.max_deviation) == (2, 0.25)
    assert report.failures == (
        TrialFailure("factorization", (1,), 1, "mismatch", 0.75, 9),)
    with pytest.raises(FloatingPointError, match="a residual is nan"):
        report.record((1,), 2, cfg, float("nan"))
    # a report built with counts and skipped pairs records on top of them
    report = TrialReport(check="factorization", trials=3, max_deviation=0.4,
                         failures=(), skipped=(((1,), (2,), 1),))
    report.record((2,), 0, cfg, 0.45)
    report.record((2,), 1, cfg, 0.5)
    assert (report.trials, report.max_deviation, report.failures,
            report.skipped) == (5, 0.45, (TrialFailure(
                "factorization", (2,), 1, "mismatch", 0.5, 9),),
                (((1,), (2,), 1),))
    assert not report.passed
    assert not VerificationSummary({"factorization": report}).passed
    with pytest.raises(AttributeError):
        report.extra = 1


def test_trial_report_records_failures_in_linear_time():
    # a tuple grown by concatenation copies every failure at each record:
    # 40,000 of them took seconds where a list takes hundredths
    report = TrialReport("factorization")
    cfg = TrialConfig(tolerance=0.5)
    start = time.perf_counter()
    for trial in range(40_000):
        report.record((1,), trial, cfg, 1.0)
    elapsed = time.perf_counter() - start
    assert type(report.failures) is tuple
    assert len(report.failures) == report.trials == 40_000
    assert report.failures[-1].trial == 39_999
    assert elapsed < 1.0, elapsed


@pytest.mark.parametrize("overrides, message", [
    ({"samples": 0}, "samples must be >= 1 (--samples), got 0"),
    ({"tolerance": 0.0},
     "tolerance must be finite and positive (--tolerance), got 0.0"),
    ({"tolerance": float("inf")},
     "tolerance must be finite and positive (--tolerance), got inf"),
    ({"word_length": 0}, "word length must be >= 1 (--word-length), got 0"),
])
def test_trial_config_refuses_bad_values(overrides, message):
    with pytest.raises(ValueError) as err:
        TrialConfig(**overrides)
    assert str(err.value) == message
    fields = dict(zip(TrialConfig._fields, TrialConfig()))
    fields.update(overrides)
    with pytest.raises(ValueError):
        TrialConfig(*fields.values())
