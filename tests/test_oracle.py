"""Cross-checks between the three independent evaluation routes:
the kernel-backed resolution engine, the naive recursive expander, and the
classical Kauffman state enumeration."""

import itertools

from tiedbracket.diagram import TiedDiagram, random_diagram
from tiedbracket.engine import (
    double_bracket,
    kauffman_bracket,
    naive_double_bracket,
    tied_jones,
    writhe,
)
from tiedbracket.catalog import fixture
from tiedbracket.laurent import parse_poly


def test_naive_matches_engine_small():
    for seed in range(30):
        d = random_diagram(seed, seed % 5 + 1, seed % 3 + 1, seed % 2)
        assert naive_double_bracket(d) == double_bracket(d), f"seed {seed}"


def test_naive_tied_hopf_frozen():
    d = TiedDiagram.from_pd([(1, 3, 2, 4), (3, 1, 4, 2)], [1, 2])
    assert naive_double_bracket(d) == parse_poly("-A^4 - A^2 - c - A^-2 - A^-4")


def test_kauffman_matches_engine_random():
    for seed in range(40):
        d = random_diagram(1000 + seed, seed % 9 + 1, 1, seed % 3)
        lhs = double_bracket(d)
        assert lhs == kauffman_bracket(d), f"seed {seed}"
        assert all(c == 0 for (_, c), _ in lhs.terms().items())


def test_classical_specialization():
    # on single-color input the c-substitution is the identity
    for seed in range(10):
        d = random_diagram(2000 + seed, seed % 6 + 1)
        v = double_bracket(d)
        assert v.substitute_c_loop() == v


def test_substitution_relates_tied_to_classical():
    # merging all blocks of a tied diagram classicalizes the bracket:
    # <<D with one block>> equals <<D tied>> with every c replaced by the
    # loop value only when the partition drops; check the catalog pair.
    d12 = fixture("tiedHopf12").diagram()
    d11 = TiedDiagram(d12.crossings, {a: 1 for a in d12.arc_color}, d12.free_loops)
    assert double_bracket(d12).substitute_c_loop() == double_bracket(d11)


def _renamings(d):
    m = d.n_colors
    for perm in itertools.permutations(range(1, m + 1)):
        yield TiedDiagram(
            d.crossings,
            {a: perm[c - 1] for a, c in d.arc_color.items()},
            tuple(perm[c - 1] for c in d.free_loops),
        ).normalized_colors()


def _mirror(d):
    return TiedDiagram(
        tuple((s1, s2, s3, s0) for s0, s1, s2, s3 in d.crossings),
        dict(d.arc_color),
        d.free_loops,
    )


def test_color_renaming_invariance_on_fixtures():
    # Permuting the color indices leaves the bracket unchanged on every
    # catalog fixture.  This is a property of (realizable) tied links, not
    # of arbitrary slot structures; see test_theorems_need_realizability.
    from tiedbracket.catalog import load_catalog

    for e in load_catalog():
        d = e.diagram()
        if d.n_colors < 2:
            continue
        base = double_bracket(d)
        for renamed in _renamings(d):
            assert double_bracket(renamed) == base, e.name


def test_mirror_inverts_a_on_fixtures():
    # The mirror image (all crossings switched) maps A -> 1/A on every
    # catalog fixture.
    from tiedbracket.catalog import load_catalog

    for e in load_catalog():
        d = e.diagram()
        v = double_bracket(d)
        vm = double_bracket(_mirror(d))
        assert vm.terms() == {(-a, c): k for (a, c), k in v.terms().items()}, e.name


def test_theorems_need_realizability():
    # Renaming invariance and mirror symmetry are theorems about tied
    # links; on non-planar random slot structures the resolution calculus
    # can (and does) violate both.  Freeze one witness of each so nobody
    # "fixes" the fixture tests above into unsound global assertions.
    d = random_diagram(3000, 6, 3)
    base = double_bracket(d)
    assert any(double_bracket(r) != base for r in _renamings(d))
    d = random_diagram(3003, 6, 3)
    v = double_bracket(d)
    vm = double_bracket(_mirror(d))
    assert vm.terms() != {(-a, c): k for (a, c), k in v.terms().items()}


def test_jones_equal_for_golden_pair():
    a, b = fixture("L11n304").diagram(), fixture("L11n412").diagram()
    assert writhe(a) == writhe(b)
    assert tied_jones(a) == tied_jones(b)
