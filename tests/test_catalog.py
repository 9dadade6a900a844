import pytest

from tiedbracket.catalog import (
    DiagramSyntaxError,
    fixture,
    ingest_linkinfo_pd,
    load_catalog,
    parse_diagram,
)
from tiedbracket.diagram import random_diagram
from tiedbracket.engine import double_bracket
from tiedbracket.laurent import parse_poly


def test_parse_tied_hopf():
    d = parse_diagram("pd: X[1,3,2,4] X[3,1,4,2]\ncolors: 1 2")
    assert len(d.crossings) == 2
    assert d.n_colors == 2
    assert double_bracket(d) == parse_poly("-A^4 - A^2 - c - A^-2 - A^-4")


def test_parse_loops_only():
    d = parse_diagram("loops: 1 2")
    assert d.component_count() == 2 and d.n_colors == 2


def test_parse_colors_default_classical():
    d = parse_diagram("pd: X[1,3,2,4] X[3,1,4,2]")
    assert d.n_colors == 1


def test_parse_errors():
    with pytest.raises(DiagramSyntaxError):
        parse_diagram("pd: X[1,3,2]")
    with pytest.raises(DiagramSyntaxError):
        parse_diagram("")
    with pytest.raises(DiagramSyntaxError):
        parse_diagram("pd: Y[1,2,3,4]")
    with pytest.raises(DiagramSyntaxError):
        parse_diagram("nonsense")
    with pytest.raises(DiagramSyntaxError):
        parse_diagram("pd: X[1,3,2,4]\npd: X[3,1,4,2]")


def test_ingest_linkinfo():
    assert ingest_linkinfo_pd("PD[X[1,3,2,4],X[3,1,4,2]]") == "pd: X[1,3,2,4] X[3,1,4,2]"
    assert (
        ingest_linkinfo_pd("PD[ X[1,3,2,4] ,\n  X[3,1,4,2] ]")
        == "pd: X[1,3,2,4] X[3,1,4,2]"
    )
    with pytest.raises(DiagramSyntaxError):
        ingest_linkinfo_pd("PD[Y[1,2,3,4]]")
    with pytest.raises(DiagramSyntaxError):
        ingest_linkinfo_pd("X[1,2,3,4]")


def test_render_round_trip():
    for seed in range(15):
        d = random_diagram(seed, seed % 5 + 1, seed % 3 + 1, seed % 2)
        again = parse_diagram(str(d))
        assert again.canonical_code() == d.canonical_code()


def test_catalog_loads_required_fixtures():
    names = {e.name for e in load_catalog()}
    required = {
        "unknot", "hopf", "tiedHopf12", "trefoil",
        "L11n304", "L11n412",
        "L11n358", "L11n418", "L11n356", "L11n434",
        "L11n325", "L11n424", "L10n79", "L10n95",
    }
    assert required <= names


def test_catalog_provenance_notes():
    for e in load_catalog():
        if e.expected_bracket is not None or e.expected_difference is not None:
            assert e.source, f"{e.name} lacks a provenance note"


def test_catalog_expected_values_verify():
    # full re-verification of every recorded expectation (selftest mode)
    fixtures = {e.name: e for e in load_catalog()}
    for e in fixtures.values():
        if e.expected_bracket is not None:
            assert double_bracket(e.diagram()) == e.expected_bracket, e.name
        if e.diff_partner is not None:
            diff = double_bracket(e.diagram()) - double_bracket(
                fixtures[e.diff_partner].diagram()
            )
            assert diff == e.expected_difference, e.name
            assert not diff.is_zero()


def test_fixture_lookup():
    assert fixture("unknot").expected_bracket == parse_poly("1")
    with pytest.raises(KeyError):
        fixture("no-such-link")


def test_table_fixtures_are_three_component_links():
    for name in ("L11n304", "L11n412", "L10n79", "L10n95"):
        d = fixture(name).diagram()
        assert len(d.components()) == 3
        assert d.n_colors == 3
