import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tiedbracket.cli import main

TIED_HOPF = "pd: X[1,3,2,4] X[3,1,4,2]\ncolors: 1 2"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bracket_unknot_file(tmp_path, capsys):
    f = tmp_path / "unknot.txt"
    f.write_text("loops: 1\n")
    code, out, _ = run(capsys, "bracket", str(f))
    assert code == 0 and out.strip() == "1"


def test_bracket_inline_tied_hopf(capsys):
    code, out, _ = run(capsys, "bracket", TIED_HOPF)
    assert code == 0
    assert out.strip() == "-A^4 - A^2 - c - A^-2 - A^-4"


def test_bracket_inline_keys_in_any_case(capsys):
    # the reader lowercases keys, so inline text is recognized as it reads it
    for text in ("PD: X[1,3,2,4] X[3,1,4,2]\ncolors: 1 2",
                 "colors: 1 2\n  Pd : X[1,3,2,4] X[3,1,4,2]"):
        code, out, _ = run(capsys, "bracket", text)
        assert code == 0 and out.strip() == "-A^4 - A^2 - c - A^-2 - A^-4"
    code, out, _ = run(capsys, "bracket", "LOOPS: 1 2")
    assert code == 0 and out.strip() == "c"


def test_bracket_fixture_golden(capsys):
    code, out, _ = run(capsys, "bracket", "--fixture", "L11n304")
    assert code == 0
    assert out.strip().startswith("A^19 - 3A^15 + 2A^13 - A^13*c")


def test_bracket_json_round_trip(capsys):
    from tiedbracket.laurent import BivariateLaurent, parse_poly

    code, out, _ = run(capsys, "bracket", "--json", TIED_HOPF)
    assert code == 0
    data = json.loads(out)
    assert BivariateLaurent.from_json(data) == parse_poly("-A^4 - A^2 - c - A^-2 - A^-4")


def test_bracket_parse_failure_exit_1(capsys):
    code, _, err = run(capsys, "bracket", "pd: X[1,2,3]")
    assert code == 1 and "error" in err


def test_bracket_unreadable_path_exit_1(tmp_path, capsys):
    # a directory, and a file that is not UTF-8 text
    binary = tmp_path / "diagram.bin"
    binary.write_bytes(b"loops: 1\n\xff\xfe\n")
    for path in (tmp_path, binary):
        code, out, err = run(capsys, "bracket", str(path))
        assert code == 1 and out == "" and err.startswith("error:") and str(path) in err
        assert "Traceback" not in err


def test_bracket_needs_exactly_one_input(capsys):
    code, _, err = run(capsys, "bracket")
    assert code == 1
    code, _, err = run(capsys, "bracket", TIED_HOPF, "--fixture", "unknot")
    assert code == 1


def test_kauffman_multicolor_rejected(capsys):
    code, _, err = run(capsys, "kauffman", TIED_HOPF)
    assert code == 1 and "color" in err


def test_jones_orientation(capsys):
    code, out, _ = run(capsys, "jones", "--fixture", "trefoil")
    assert code == 0 and "-A^16 + A^12 + A^4" in out
    code, out, _ = run(capsys, "jones", "--fixture", "hopf", "--orientation", "+-")
    assert code == 0
    code, _, err = run(capsys, "jones", "--fixture", "hopf", "--orientation", "+1")
    assert code == 1  # needs two flags


def test_states_footer_matches_bracket(capsys):
    code, out, _ = run(capsys, "states", TIED_HOPF)
    assert code == 0
    assert out.strip().splitlines()[-1] == "total: -A^4 - A^2 - c - A^-2 - A^-4"


def test_states_crossingless_unlink(capsys):
    code, out, _ = run(capsys, "states", "loops: 1 2")
    assert code == 0
    rows = [l for l in out.splitlines() if l and "f(s)" not in l and not l.startswith("total")]
    assert len(rows) == 1
    assert out.strip().splitlines()[-1] == "total: c"


def test_states_json(capsys):
    code, out, _ = run(capsys, "states", "--json", TIED_HOPF)
    data = json.loads(out)
    assert code == 0
    assert data["total"] == [[4, 0, -1], [2, 0, -1], [0, 1, -1], [-2, 0, -1], [-4, 0, -1]]


def test_tree_dot_node_counts(capsys):
    code, out, _ = run(capsys, "tree", "--dot", "loops: 1")
    assert code == 0 and out.count("label=") == 1

    code, out, _ = run(capsys, "tree", "--dot", "pd: X[1,1,2,2]")
    assert out.count('[label="(') == 3 and 'label="A"' in out and 'label="A⁻¹"' in out

    code, out, _ = run(capsys, "tree", "--dot", TIED_HOPF)
    assert out.count('[label="(') == 8  # root + 3 children + 4 grandchildren

    code, out, err = run(capsys, "tree", "--dot", "pd:")
    assert code == 1 and out == "" and "empty diagram" in err


def test_tree_truncation(capsys):
    code, out, _ = run(capsys, "tree", "--dot", "--max-nodes", "4", "--fixture", "trefoil")
    assert code == 0 and "truncated" in out
    assert out.count('[label="(') == 4


def test_tree_max_nodes_below_one(capsys):
    for n in ("0", "-3"):
        code, out, err = run(capsys, "tree", "--max-nodes", n, "--fixture", "trefoil")
        assert code == 1 and out == "" and err.startswith("error:") and "--max-nodes" in err


def test_tree_offers_no_json(capsys):
    # its machine-readable form is --dot: --json is refused, not ignored
    with pytest.raises(SystemExit) as exc:
        main(["tree", "--fixture", "tiedHopf12", "--json"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "--json" in out.err


def test_tree_text_mode(capsys):
    code, out, _ = run(capsys, "tree", "pd: X[1,1,2,2]")
    assert code == 0
    assert "(1,1)" in out and "--A-->" in out

    code, out, _ = run(capsys, "tree", "--fixture", "tiedHopf12")
    assert code == 0
    assert out.splitlines() == [
        "(2,1)",
        "  ---1--> (2,0)",
        "  --δ--> (1,1)",
        "    --A--> (0,0)",
        "    --A⁻¹--> (0,0)",
        "  --δ--> (1,1)",
        "    --A--> (0,0)",
        "    --A⁻¹--> (0,0)",
    ]


def test_distinguish_same_diagram(capsys):
    code, out, _ = run(capsys, "distinguish", TIED_HOPF, TIED_HOPF)
    assert code == 0
    assert "difference: 0" in out and "NOT DISTINGUISHED" in out


def test_distinguish_golden_pair(capsys):
    code, out, _ = run(capsys, "distinguish", "--fixture-a", "L11n304", "--fixture-b", "L11n412")
    assert code == 0
    assert "NOT DISTINGUISHED" in out


def test_distinguish_table_pair(capsys):
    code, out, _ = run(
        capsys, "distinguish", "--fixture-a", "L11n358", "--fixture-b", "L11n418"
    )
    assert code == 0
    assert "verdict: DISTINGUISHED" in out
    assert out.splitlines()[0].startswith("difference: A^17 + A^15 + A^15*c")


def test_distinguish_needs_exactly_one_diagram_each(capsys):
    code, out, err = run(
        capsys, "distinguish", TIED_HOPF, "--fixture-a", "hopf", "--fixture-b", "hopf"
    )
    assert code == 1 and out == ""
    assert "give exactly one diagram" in err


def test_distinguish_fixture_a_and_inline_b(capsys):
    # the diagram argument fills side B when side A names a fixture
    code, out, err = run(capsys, "distinguish", "--fixture-a", "hopf", TIED_HOPF)
    assert code == 0 and err == ""
    assert out.splitlines()[:2] == ["difference: A^2 + c + A^-2", "verdict: DISTINGUISHED"]
    code, out, _ = run(capsys, "distinguish", "--fixture-a", "tiedHopf12", TIED_HOPF)
    assert code == 0 and "NOT DISTINGUISHED" in out
    # two diagram arguments and a fixture are one diagram too many
    code, out, err = run(capsys, "distinguish", TIED_HOPF, TIED_HOPF, "--fixture-b", "hopf")
    assert code == 1 and out == ""
    assert "give exactly one diagram per side" in err
    # and a side with neither is one too few
    code, out, err = run(capsys, "distinguish", "--fixture-a", "hopf")
    assert code == 1 and out == ""
    assert "give exactly one diagram per side" in err


def test_distinguish_oriented_writhes(capsys):
    code, out, _ = run(
        capsys, "distinguish", "--oriented", "3", "3",
        "--fixture-a", "L11n358", "--fixture-b", "L11n418", "--json",
    )
    data = json.loads(out)
    assert data["distinguished"] and data["jones_verdict_transfers"]
    assert data["writhes"] == [3, 3]


def test_selftest_filter(capsys):
    code, out, _ = run(capsys, "selftest", "--filter", "hand-derived")
    assert code == 0
    assert out.startswith("PASS") and "hand-derived-hopf" in out


def test_selftest_fast_subset(capsys):
    code, out, _ = run(capsys, "selftest", "--filter", "jones")
    assert code == 0 and "jones-calibration" in out


def test_selftest_filter_matching_nothing(capsys):
    code, out, err = run(capsys, "selftest", "--filter", "nosuch")
    assert code == 1 and out == "" and err.startswith("error:") and "nosuch" in err


def test_selftest_trials_below_one(capsys):
    for n in ("0", "-1"):
        code, out, err = run(capsys, "selftest", "--filter", "tree", "--trials", n)
        assert code == 1 and out == "" and err.startswith("error:") and "--trials" in err


def test_selftest_failure_exits_2(capsys, monkeypatch):
    from tiedbracket import selftest

    def broken():
        return False, "forced failure"

    monkeypatch.setattr(selftest, "CRITERIA", [("hand-derived-hopf", broken)])
    code, out, _ = run(capsys, "selftest")
    assert code == 2 and out.startswith("FAIL")


def test_run_all_runs_every_criterion_in_order(capsys, monkeypatch):
    from tiedbracket import selftest

    criteria = [
        ("first", lambda: (True, "fine")),
        ("second", lambda: (False, "forced failure")),
        ("third", lambda: (True, "ran after a failure")),
    ]
    monkeypatch.setattr(selftest, "CRITERIA", criteria)
    assert selftest.run_all() is False
    lines = capsys.readouterr().out.splitlines()
    expected = [
        r"PASS  first              fine  \[\d+\.\d\ds\]",
        r"FAIL  second             forced failure  \[\d+\.\d\ds\]",
        r"PASS  third              ran after a failure  \[\d+\.\d\ds\]",
    ]
    assert len(lines) == len(expected)
    for line, pattern in zip(lines, expected):
        assert re.fullmatch(pattern, line), line


def test_run_all_rejects_a_pattern_that_selects_nothing(capsys, monkeypatch):
    from tiedbracket import selftest

    def never_run():
        raise AssertionError("ran a criterion the pattern does not select")

    monkeypatch.setattr(selftest, "CRITERIA", [("first", never_run)])
    with pytest.raises(ValueError, match="nosuch"):
        selftest.run_all(pattern="nosuch")
    assert capsys.readouterr().out == ""


def test_states_seeded_table_matches_bracket(capsys):
    _, out, _ = run(capsys, "bracket", "--fixture", "L10n95", "--json")
    bracket = json.loads(out)
    tables = []
    for seed in ((), ("--seed", "7")):
        code, out, _ = run(capsys, "states", "--fixture", "L10n95", *seed, "--json")
        assert code == 0
        tables.append(json.loads(out))
    assert tables[1]["total"] == bracket
    codes = [sorted(row["code"] for row in table["states"]) for table in tables]
    assert codes[1] == codes[0]


def test_states_negative_seed(capsys):
    code, out, err = run(capsys, "states", "--fixture", "trefoil", "--seed", "-1")
    assert code == 1 and out == "" and err.startswith("error:") and "--seed" in err


def test_cli_imports_only_what_it_runs():
    # a one-shot command pays for every module it imports, in a fresh
    # interpreter without site (which may load modules of its own)
    probe = (
        "import sys, tiedbracket.cli, tiedbracket.selftest\n"
        "loaded = [m for m in ('dataclasses', 'inspect', 'typing', 'importlib.resources')"
        " if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "assert len(tiedbracket.load_catalog()) == 20\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_fixtures_read_the_catalog_once(monkeypatch, capsys):
    # one parse of the catalog for each command, whether it names one
    # fixture or one on each side
    from tiedbracket import catalog

    calls = []
    parse = catalog._parse_catalog

    def counted(text):
        calls.append(1)
        return parse(text)

    monkeypatch.setattr(catalog, "_parse_catalog", counted)
    for argv, parses in (
        (["bracket", "--fixture", "trefoil"], 1),
        (["distinguish", "--fixture-a", "L11n304", "--fixture-b", "L11n412"], 1),
        (["distinguish", "--fixture-a", "hopf", TIED_HOPF], 1),
        (["distinguish", TIED_HOPF, TIED_HOPF], 0),
    ):
        calls.clear()
        code, _, _ = run(capsys, *argv)
        assert code == 0 and len(calls) == parses, argv
