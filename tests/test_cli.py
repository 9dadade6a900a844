import json

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


def test_selftest_trials_below_one(capsys):
    for n in ("0", "-1"):
        code, out, err = run(capsys, "selftest", "--filter", "tree", "--trials", n)
        assert code == 1 and out == "" and err.startswith("error:") and "--trials" in err


def test_selftest_failure_exits_2(capsys, monkeypatch):
    from tiedbracket import selftest

    def broken():
        return selftest.CriterionResult("hand-derived-hopf", False, "forced failure")

    monkeypatch.setattr(selftest, "CRITERIA", [("hand-derived-hopf", broken)])
    code, out, _ = run(capsys, "selftest")
    assert code == 2 and out.startswith("FAIL")


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
