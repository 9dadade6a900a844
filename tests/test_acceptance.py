"""Acceptance suite: every release criterion at its stated tolerance
(which is exactness everywhere), one PASS line printed per criterion.

The golden constants are frozen here *independently* of the catalog data
file, so a corrupted catalog cannot silently pass.
"""

import time

from tiedbracket import selftest
from tiedbracket.catalog import load_catalog
from tiedbracket.engine import double_bracket, tied_jones, writhe
from tiedbracket.laurent import parse_poly

# Published value of <<L11n304>> = <<L11n412>> with the finest partition.
GOLDEN_PAIR_BRACKET = (
    "A^19 - 3A^15 - A^13*c + 2A^13 + 2A^11*c + 6A^11 + 4A^9*c + A^7*c^2 - 2A^7*c - 4A^7"
    " - A^5*c - A^3*c^2 + 2A^3*c + 6A^3 - 2A - 4c/A - 11/A - 5c/A^3 - 4/A^3 - c^2/A^5"
    " + 2/A^5 - c/A^7 - 2/A^7 - 2c/A^9 - 7/A^9 - c/A^11 - 2/A^11 + 3/A^13 + c/A^15 - 1/A^17"
)

# Published difference polynomials <<D1>> - <<D2>>, one row per unoriented
# pair; the repeated-orientation row shares the first entry.
TABLE_DIFFERENCES = {
    ("L11n358", "L11n418"): (
        "A^17 + A^15*c + A^15 + A^13*c - A^13 - 2A^11*c - A^9*c + 2A^7*c - 2A^7 - A^5*c"
        " - A^5 - 3A^3*c - A^3 + 3c/A + 1/A + c/A^3 + 1/A^3 - 2c/A^5 + 2/A^5 + c/A^7"
        " + 2c/A^9 - c/A^11 + 1/A^11 - c/A^13 - 1/A^13 - 1/A^15"
    ),
    ("L11n356", "L11n434"): (
        "-A^13 - A^11*c + 2A^9 + 3A^7*c - 3A^3*c - A + 2c/A - 1/A^3 - 3c/A^5 + 3c/A^9"
        " + 2/A^11 - c/A^13 - 1/A^15"
    ),
    ("L11n325", "L11n424"): (
        "A^19 + A^17*c - A^15 - 2A^13*c + 2A^13 + 2A^11*c + 2A^9*c - 2A^9 - 4A^7*c - A^7"
        " - 3A^5*c - 2A^5 + 2A^3*c + 3A*c - 2c/A + 1/A - 2c/A^3 + 2/A^3 + 4c/A^5 + 2c/A^7"
        " + 2/A^7 - 2c/A^9 + 1/A^9 - c/A^11 - 2/A^11 - 1/A^13"
    ),
    ("L10n79", "L10n95"): (
        "-A^18 - A^16*c + A^12*c - 2A^12 - 2A^10*c - A^8*c + 2A^6*c + A^6 + 2A^4*c + 2A^4"
        " + A^2 - c + 2 + 2c/A^2 + c/A^4 - 2c/A^6 - c/A^8 - 2/A^8 - 1/A^10"
    ),
}


def _report(result: selftest.CriterionResult):
    print(f"\n{'PASS' if result.passed else 'FAIL'}  {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def _fixtures():
    return {e.name: e for e in load_catalog()}


def test_criterion_1_golden_equality():
    fx = _fixtures()
    golden = parse_poly(GOLDEN_PAIR_BRACKET)
    t0 = time.perf_counter()
    a = double_bracket(fx["L11n304"].diagram())
    b = double_bracket(fx["L11n412"].diagram())
    dt = time.perf_counter() - t0
    assert a == golden, "L11n304 bracket differs from the published polynomial"
    assert b == golden, "L11n412 bracket differs from the published polynomial"
    assert dt < 30, "expected runtime of seconds per diagram"
    _report(selftest.check_golden_pair())


def test_criterion_2_table_regression():
    fx = _fixtures()
    for (n1, n2), text in TABLE_DIFFERENCES.items():
        expected = parse_poly(text)
        diff = double_bracket(fx[n1].diagram()) - double_bracket(fx[n2].diagram())
        assert not diff.is_zero(), f"{n1} vs {n2} not distinguished"
        assert diff == expected, f"{n1} - {n2} differs from the published row"
    # the repeated-orientation rows pair the same diagrams with the same
    # difference; the bracket is orientation-blind, so the check is shared
    assert fx["L11n358"].meta and "{1,1}" in fx["L11n358"].meta
    _report(selftest.check_table1())


def test_criterion_3_classical_oracle_equivalence():
    _report(selftest.check_classical_oracle())


def test_criterion_4_jones_calibration():
    fx = _fixtures()
    trefoil = fx["trefoil"].diagram()
    # known Jones polynomial of the table trefoil: -t^-4 + t^-3 + t^-1 at t = A^-4
    assert tied_jones(trefoil) == parse_poly("-A^16 + A^12 + A^4")
    _report(selftest.check_jones_calibration())


def test_criterion_5_tree_independence():
    import tiedbracket

    t0 = time.perf_counter()
    result = selftest.check_tree_independence(trials=100, seed=0)
    dt = time.perf_counter() - t0
    _report(result)
    # the minute budget is a property of the shipped configuration; a
    # forced pure-Python fallback still must be *correct* above
    if tiedbracket.BACKEND_NAME == "compiled":
        assert dt < 60, f"independence run took {dt:.0f}s, expected under a minute"


def test_criterion_6_axiom_suite():
    _report(selftest.check_axioms(200))


def test_criterion_7_hand_derived_value():
    _report(selftest.check_hand_derived_hopf())


def test_criterion_8_complexity_monotonicity():
    _report(selftest.check_monotonicity(1000))


def test_golden_pair_jones_transfers():
    # equal writhes, so the tied Jones polynomials coincide as well
    fx = _fixtures()
    a, b = fx["L11n304"].diagram(), fx["L11n412"].diagram()
    assert writhe(a) == writhe(b)
    assert tied_jones(a) == tied_jones(b)


def test_catalog_corruption_fails_selftest(tmp_path, monkeypatch):
    # a corrupted expected value must turn the criterion red
    import tiedbracket.catalog as cat

    entries = load_catalog()

    def poisoned():
        out = []
        for e in entries:
            if e.name == "L11n304":
                e = cat.FixtureEntry(
                    name=e.name, pd=e.pd, colors=e.colors, loops=e.loops,
                    expected_bracket=parse_poly("A + 1"),
                    diff_partner=e.diff_partner,
                    expected_difference=e.expected_difference,
                    source=e.source, meta=e.meta,
                )
            out.append(e)
        return out

    monkeypatch.setattr(cat, "load_catalog", poisoned)
    monkeypatch.setattr(selftest, "load_catalog", poisoned)
    result = selftest.check_golden_pair()
    assert not result.passed
