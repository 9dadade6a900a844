import pytest

from tiedbracket import _backend, _kernel_py
from tiedbracket.catalog import load_catalog
from tiedbracket.diagram import TiedDiagram, random_diagram, unknot
from tiedbracket.engine import (
    AJStateSummary,
    EmptyDiagramError,
    MultiColorInputError,
    OrderedStrategy,
    RandomStrategy,
    StateSum,
    _prepare,
    double_bracket,
    independence_check,
    kauffman_bracket,
    resolve,
    state_value,
    tied_jones,
    writhe,
)
from tiedbracket.laurent import C, DELTA, LOOP, ONE, BivariateLaurent, parse_poly

HOPF = [(1, 3, 2, 4), (3, 1, 4, 2)]
TIED_HOPF_VALUE = parse_poly("-A^4 - A^2 - c - A^-2 - A^-4")


def tied_hopf():
    return TiedDiagram.from_pd(HOPF, [1, 2])


def test_state_value_instances():
    assert state_value(AJStateSummary(1, 1)) == ONE
    assert state_value(AJStateSummary(2, 2)) == C
    assert state_value(AJStateSummary(3, 2)) == C * LOOP == parse_poly("-A^2*c - A^-2*c")
    with pytest.raises(ValueError):
        AJStateSummary(1, 2)
    with pytest.raises(ValueError):
        state_value((0, 0))


def test_resolve_crossingless():
    ss = resolve(TiedDiagram((), {}, (1, 2)))
    assert len(ss.entries) == 1
    summary, weight = ss.entries[0]
    assert (summary.k, summary.gamma, summary.crossings_left) == (2, 2, 0)
    assert weight == ONE
    assert ss.total() == C


def test_resolve_tied_hopf_leaves():
    ss = resolve(tied_hopf())
    got = {((s.k, s.gamma, s.crossings_left), str(w)) for s, w in ss.entries}
    expected = {
        ((2, 2, 2), "-1"),
        ((2, 1, 0), "A^2 + 1"),
        ((1, 1, 0), "1 + A^-2"),
        ((1, 1, 0), "A^2 + 1"),
        ((2, 1, 0), "1 + A^-2"),
    }
    assert len(ss.entries) == 5
    assert got == expected
    assert ss.total() == TIED_HOPF_VALUE


def test_resolve_with_codes_matches_kernel():
    # the diagram-level walk picks the kernel's crossings, seeded draws
    # included, and counts each leaf's colors, where the kernel's leaf walk
    # leaves gamma = m - dpow to the engine
    strategies = [
        OrderedStrategy(),
        OrderedStrategy((4, 2, 0, 3, 1)),
        RandomStrategy(0),
        RandomStrategy(5),
    ]
    for seed in range(20):
        d = random_diagram(seed, 5, seed % 5 + 1, seed % 4)
        m = d.n_colors
        for strategy in strategies:
            leaves = _backend.kernel.resolve_leaves(*_prepare(d, strategy))
            coded = resolve(d, strategy, codes=True)
            assert [(s.k, s.gamma, s.crossings_left) for s, _ in coded.entries] == [
                (k, m - dpow, left) for k, left, _, _, dpow in leaves
            ]
            assert [w for _, w in coded.entries] == [
                BivariateLaurent.monomial(apow, 0, sign) * DELTA**dpow
                for _, _, sign, apow, dpow in leaves
            ]
            assert all(s.code is not None for s, _ in coded.entries)


def test_resolve_grouping_preserves_total():
    d = TiedDiagram.from_pd([(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)])
    ss = resolve(d, codes=True)
    assert ss.grouped().total() == ss.total() == double_bracket(d)


def test_mixed_and_classical_states_structure():
    # a 2-color diagram whose resolution passes through mixed-color states
    # and classical (single-color) subtrees
    quads = [
        (1, 4, 2, 5), (2, 6, 3, 7), (9, 3, 10, 4),
        (10, 5, 11, 6), (7, 11, 8, 12), (8, 12, 1, 9),
    ]
    d = TiedDiagram.from_pd(quads, [1, 2])
    ss = resolve(d)
    gammas = {s.gamma for s, _ in ss.entries}
    assert 2 in gammas  # states keeping both colors, possibly with legal crossings
    assert 1 in gammas  # states reached after the color blocks merged
    assert any(s.crossings_left > 0 for s, _ in ss.entries if s.gamma == 2)


def test_double_bracket_examples():
    assert double_bracket(unknot()) == ONE
    assert double_bracket(TiedDiagram((), {}, (1, 2))) == C
    assert double_bracket(TiedDiagram((), {}, (1, 100))) == C
    assert double_bracket(tied_hopf()) == TIED_HOPF_VALUE


def test_double_bracket_strategies_agree():
    d = tied_hopf()
    default = double_bracket(d)
    assert double_bracket(d, OrderedStrategy((1, 0))) == default
    assert double_bracket(d, RandomStrategy(7)) == default
    with pytest.raises(ValueError):
        double_bracket(d, OrderedStrategy((0, 0)))
    with pytest.raises(ValueError):
        RandomStrategy(-1)
    with pytest.raises(ValueError, match="integer"):
        RandomStrategy(1.5)


@pytest.mark.parametrize(
    "pd, colors, loops, expected",
    [
        ([], None, [1] * 255, LOOP**254),
        ([], None, [1] * 256, LOOP**255),
        ([], None, [1] * 300, LOOP**299),
        (HOPF, [1, 2], [1] * 260, TIED_HOPF_VALUE * LOOP**260),
        ([], None, range(1, 66), C**64),
        ([], None, range(1, 131), C**129),
        (HOPF, [1, 2], range(3, 103), TIED_HOPF_VALUE * C**100),
        # arc colors above every loop color: numbered first, they stay small
        (HOPF, [301, 302], range(1, 301), TIED_HOPF_VALUE * C**300),
    ],
)
def test_kernel_limits(request, pd, colors, loops, expected):
    # many loops and many colors get exact values on both kernels
    d = TiedDiagram.from_pd(pd, colors, loops)
    for kernel in (_kernel_py, request.getfixturevalue("compiled_kernel")):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_backend, "kernel", kernel)
            assert double_bracket(d) == expected


def test_empty_diagram_rejected():
    empty = TiedDiagram((), {}, ())
    for fn in (double_bracket, kauffman_bracket, resolve):
        with pytest.raises(EmptyDiagramError):
            fn(empty)


def test_kauffman_requires_one_color():
    with pytest.raises(MultiColorInputError):
        kauffman_bracket(tied_hopf())


def test_kauffman_examples():
    assert kauffman_bracket(unknot()) == ONE
    assert kauffman_bracket(TiedDiagram.from_pd(HOPF, [1, 1])) == parse_poly("-A^4 - A^-4")
    trefoil = TiedDiagram.from_pd([(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)])
    assert kauffman_bracket(trefoil) == parse_poly("A^7 - A^3 - A^-5")


def test_writhe():
    assert writhe(unknot()) == 0
    hopf = TiedDiagram.from_pd(HOPF, [1, 1])
    assert abs(writhe(hopf)) == 2
    # reversing every component leaves the writhe unchanged
    for seed in range(10):
        d = random_diagram(seed, seed % 5 + 1)
        n = len(d.components())
        assert writhe(d, [1] * n) == writhe(d, [-1] * n)
    with pytest.raises(ValueError):
        writhe(hopf, [1])


def test_tied_jones():
    assert tied_jones(unknot()) == ONE
    # single-color diagrams: the tied normalization is the classical one
    d = TiedDiagram.from_pd([(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)])
    w = writhe(d)
    sign = -1 if w % 2 else 1
    expected = parse_poly(f"{'-' if sign < 0 else ''}A^{-3 * w}") * kauffman_bracket(d)
    assert tied_jones(d) == expected


def test_independence_check():
    assert independence_check(TiedDiagram((), {}, (1, 1)), trials=3)
    assert independence_check(tied_hopf(), trials=100)
    for trials in (0, -4):
        with pytest.raises(ValueError, match="at least 1"):
            independence_check(tied_hopf(), trials=trials)


def grouped_map(d, strat):
    ss = resolve(d, strat, codes=True, group=True)
    return {s.code: (s.k, s.gamma, s.crossings_left, w) for s, w in ss.entries}


def test_formal_sum_strategy_independence():
    # not just the polynomial: the grouped state sum itself (states
    # identified by canonical code) is independent of the resolution order
    diagrams = [tied_hopf(), TiedDiagram.from_pd([(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)])]
    diagrams += [random_diagram(seed, 5, seed % 3 + 1) for seed in range(6)]
    for d in diagrams:
        base = grouped_map(d, OrderedStrategy())
        for seed in (1, 2):
            assert grouped_map(d, RandomStrategy(seed)) == base


@pytest.mark.parametrize("entry", load_catalog(), ids=lambda e: e.name)
def test_state_table_strategy_independence_on_catalog(entry):
    # the paper's per-state theorem: each AJ-state's weight, not only the
    # total, is the same for every resolution tree
    d = entry.diagram()
    base = grouped_map(d, OrderedStrategy())
    for strategy in (RandomStrategy(1), RandomStrategy(2**64 + 5)):
        assert grouped_map(d, strategy) == base


def test_statesum_grouped_merges_by_summary():
    entries = [
        (AJStateSummary(1, 1, 0), ONE),
        (AJStateSummary(1, 1, 0), ONE),
        (AJStateSummary(2, 1, 0), -ONE),
    ]
    grouped = StateSum(list(entries)).grouped()
    assert len(grouped.entries) == 2
    assert grouped.total() == StateSum(entries).total()
