"""The package's seven record classes behave as value types: built
positionally or by keyword, compared within their class, hashed when
frozen, shown as ``Name(field=value, ...)``, and carried intact through
pickle, ``copy.copy`` and ``copy.deepcopy``, so that diagrams and results
can be sent to worker processes."""

import copy
import pickle

import pytest

from tiedbracket.catalog import FixtureEntry, parse_diagram
from tiedbracket.diagram import Complexity, TiedDiagram
from tiedbracket.engine import AJStateSummary, OrderedStrategy, RandomStrategy, StateSum
from tiedbracket.laurent import LOOP

TIED_HOPF = parse_diagram("pd: X[1,3,2,4] X[3,1,4,2]\ncolors: 1 2\nloops: 2")

# class, field names, field values, frozen (and then hashable unless a
# field is a dict)
RECORDS = [
    (Complexity, ("total", "illegal"), (2, 1), True),
    (TiedDiagram, ("crossings", "arc_color", "free_loops"),
     (TIED_HOPF.crossings, TIED_HOPF.arc_color, TIED_HOPF.free_loops), True),
    (AJStateSummary, ("k", "gamma", "crossings_left", "code"), (3, 2, 1, "-1,1,0"), True),
    (StateSum, ("entries",), ([(AJStateSummary(2, 1), LOOP)],), False),
    (OrderedStrategy, (), (), True),
    (RandomStrategy, ("seed",), (3,), True),
    (FixtureEntry,
     ("name", "pd", "colors", "loops", "expected_bracket", "diff_partner",
      "expected_difference", "source", "meta"),
     ("hopf", "X[1,3,2,4] X[3,1,4,2]", [1, 2], [2], LOOP, "other", -LOOP, "table", "note"),
     False),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


def build(cls, values):
    return cls(*copy.deepcopy(values))


@pytest.mark.parametrize("cls, fields, values, frozen", RECORDS, ids=IDS)
def test_records_build_positionally_and_by_keyword(cls, fields, values, frozen):
    by_position = build(cls, values)
    by_keyword = cls(**dict(zip(fields, copy.deepcopy(values))))
    assert by_position == by_keyword
    assert tuple(getattr(by_keyword, f) for f in fields) == values
    with pytest.raises(TypeError):
        cls(*values, None)


def test_record_defaults():
    d = TiedDiagram(TIED_HOPF.crossings)
    assert (d.arc_color, d.free_loops) == ({}, ())
    assert TiedDiagram(()).arc_color is not TiedDiagram(()).arc_color
    s = AJStateSummary(2, 1)
    assert (s.crossings_left, s.code) == (0, None)
    e = FixtureEntry(name="hopf", pd="X[1,3,2,4] X[3,1,4,2]")
    assert (e.colors, e.loops, e.expected_bracket, e.diff_partner) == ([], [], None, None)
    assert (e.expected_difference, e.source, e.meta) == (None, "", "")
    assert FixtureEntry("a", "").colors is not FixtureEntry("a", "").colors


@pytest.mark.parametrize("cls, fields, values, frozen", RECORDS, ids=IDS)
def test_records_compare_within_their_class(cls, fields, values, frozen):
    r = build(cls, values)
    assert r == build(cls, values) and not r != build(cls, values)
    assert r != values
    subclass = type("Sub", (cls,), {})
    assert r != build(subclass, values) and build(subclass, values) != r
    if fields:
        other = list(values)
        other[0] = {Complexity: 3, TiedDiagram: (), AJStateSummary: 4, StateSum: [],
                    RandomStrategy: 4, FixtureEntry: "other"}[cls]
        assert r != build(cls, other)


@pytest.mark.parametrize("cls, fields, values, frozen", RECORDS, ids=IDS)
def test_record_hashes(cls, fields, values, frozen):
    r = build(cls, values)
    if frozen and not any(isinstance(v, dict) for v in values):
        assert hash(r) == hash(build(cls, values))
        assert len({r, build(cls, values)}) == 1
    else:
        with pytest.raises(TypeError):
            hash(r)


@pytest.mark.parametrize("cls, fields, values, frozen", RECORDS, ids=IDS)
def test_record_assignment(cls, fields, values, frozen):
    r = build(cls, values)
    for name in fields or ("seed",):
        if frozen:
            with pytest.raises(AttributeError):
                setattr(r, name, 0)
            with pytest.raises(AttributeError):
                delattr(r, name)
        else:
            setattr(r, name, 0)
            assert getattr(r, name) == 0
    assert tuple(getattr(r, f) for f in fields) == (
        values if frozen else (0,) * len(fields)
    )


@pytest.mark.parametrize("cls, fields, values, frozen", RECORDS, ids=IDS)
def test_record_repr(cls, fields, values, frozen):
    shown = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(build(cls, values)) == f"{cls.__name__}({shown})"


ROUND_TRIPS = [
    ("pickle", lambda r, p: pickle.loads(pickle.dumps(r, p))),
    ("copy", lambda r, p: copy.copy(r)),
    ("deepcopy", lambda r, p: copy.deepcopy(r)),
]
ROUND_TRIPPED = {
    "parsed-diagram": TIED_HOPF,
    "OrderedStrategy": OrderedStrategy(),
    "RandomStrategy": RandomStrategy(3),
    "Complexity": Complexity(2, 1),
    "AJStateSummary": AJStateSummary(2, 1),
    "coded-AJStateSummary": AJStateSummary(3, 2, 1, "-1,1,0"),
    "StateSum": build(StateSum, RECORDS[3][2]),
    "FixtureEntry": build(FixtureEntry, RECORDS[6][2]),
}


@pytest.mark.parametrize("how, trip", ROUND_TRIPS, ids=[h for h, _ in ROUND_TRIPS])
@pytest.mark.parametrize("record", ROUND_TRIPPED.values(), ids=ROUND_TRIPPED)
def test_records_round_trip(how, trip, record):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = trip(record, protocol)
        assert type(back) is type(record) and back == record
        assert repr(back) == repr(record)
    if how == "deepcopy" and isinstance(record, TiedDiagram):
        assert back.arc_color is not record.arc_color
        assert back.validate() == record.validate()
