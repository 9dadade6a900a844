import random
import sys
import tracemalloc
from itertools import product, zip_longest

import pytest
from tree_reference import reference_sum, reference_tree, reordered

from tiedbracket import _backend, _kernel_py, diagram
from tiedbracket.catalog import load_catalog, parse_diagram
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
    resolution_tree,
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
        AJStateSummary(0, 0)


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
    # the reference walk on diagrams picks the kernels' crossings, seeded
    # draws included, and counts each leaf's colors and loops, where the
    # pure-Python kernel's leaf walk leaves gamma = m - dpow and the free
    # loops to the engine; the ungrouped resolve, on byte states, returns
    # the reference's leaves, in stored order, in another and under seeds
    for seed in range(20):
        stored = random_diagram(seed, 5, seed % 5 + 1, seed % 4)
        m, loops = stored.n_colors, len(stored.free_loops)
        for d, strategy in [
            (stored, OrderedStrategy()),
            (reordered(stored, (4, 2, 0, 3, 1)), OrderedStrategy()),
            (stored, RandomStrategy(0)),
            (stored, RandomStrategy(5)),
        ]:
            leaves = _kernel_py.resolve_leaves(*_prepare(d, strategy))
            coded = reference_sum(d, strategy, codes=True)
            assert resolve(d, strategy, codes=True).entries == coded.entries
            assert [(s.k, s.gamma, s.crossings_left) for s, _ in coded.entries] == [
                (k + loops, m - dpow, left) for k, left, _, _, dpow in leaves
            ]
            assert [w for _, w in coded.entries] == [
                BivariateLaurent.monomial(apow, 0, sign) * DELTA**dpow
                for _, _, sign, apow, dpow in leaves
            ]
            assert all(s.code is not None for s, _ in coded.entries)


def assert_tree_matches_reference(d, strategy):
    for mine, ref in zip_longest(resolution_tree(d, strategy), reference_tree(d, strategy)):
        assert mine is not None and ref is not None, "the trees differ in size"
        node, parent, label, complexity, weight, leaf = mine
        r_node, r_parent, r_label, cur, r_weight, r_leaf = ref
        assert (node, parent, label, weight) == (r_node, r_parent, r_label, r_weight)
        assert complexity == cur.complexity()
        assert (leaf is not None) == r_leaf
        if r_leaf:
            assert leaf.canonical_code() == cur.canonical_code()


def test_resolution_tree_matches_the_diagram_walk():
    # node by node: the byte walk and the reference walk on diagrams grow
    # the same tree, under orders and seeds (one past 2^64), with many
    # loops and colors
    for seed in range(60):
        d = random_diagram(seed, seed % 7 + 1, seed % 5 + 1, seed % 4)
        assert_tree_matches_reference(reordered(d, reversed(range(len(d.crossings)))), OrderedStrategy())
        for strategy in (OrderedStrategy(), RandomStrategy(3), RandomStrategy(2**64 + 11)):
            assert_tree_matches_reference(d, strategy)


@pytest.mark.parametrize("entry", load_catalog(), ids=lambda e: e.name)
def test_resolution_tree_matches_the_diagram_walk_on_catalog(entry):
    # the default order and the seed past 2^64: a check takes up to 3 s
    # per catalog tree, so the reversed order and the other seed are left
    # to the random diagrams above
    for strategy in (OrderedStrategy(), RandomStrategy(2**64 + 11)):
        assert_tree_matches_reference(entry.diagram(), strategy)


def test_resolution_tree_memory_stays_below_the_tree():
    # A full walk of L11n418's 33,022 nodes keeps its distinct states and
    # the stack, not one record per node (2.9 MB when it kept weights).
    d = next(e for e in load_catalog() if e.name == "L11n418").diagram()
    tracemalloc.start()
    try:
        nodes = sum(1 for _ in resolution_tree(d))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nodes == 33_022
    assert peak < 2_000_000, f"peak {peak / 1e6:.2f} MB"


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
    assert double_bracket(reordered(d, (1, 0))) == default
    assert double_bracket(d, RandomStrategy(7)) == default
    with pytest.raises(ValueError):
        RandomStrategy(-1)
    for seed in (1.5, True):
        with pytest.raises(ValueError, match="integer"):
            RandomStrategy(seed)


@pytest.mark.parametrize("strategy", [5, None, "random", (1, 0)], ids=repr)
def test_non_strategies_are_refused(strategy):
    # an order is the stored one or a seed: anything else is refused, and
    # before the diagram, empty or malformed, is looked at
    d = tied_hopf()
    calls = [
        lambda: double_bracket(d, strategy),
        lambda: resolve(d, strategy),
        lambda: resolve(d, strategy, codes=True, group=True),
        lambda: next(resolution_tree(d, strategy)),
        lambda: _prepare(d, strategy),
        lambda: double_bracket(TiedDiagram((), {}, ()), strategy),
        lambda: double_bracket(TiedDiagram(((1, 2, 3, 4),), {}, ()), strategy),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="strategy"):
            call()
    # and the stored order takes no permutation
    with pytest.raises(TypeError, match="OrderedStrategy"):
        OrderedStrategy((1, 0))


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
    # many loops and many colors get exact values on both kernels, in
    # the default order and under a seed
    d = TiedDiagram.from_pd(pd, colors, loops)
    for kernel in (_kernel_py, request.getfixturevalue("compiled_kernel")):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_backend, "kernel", kernel)
            assert double_bracket(d) == expected
            assert double_bracket(d, RandomStrategy(1)) == expected


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
    for orientation in ([1], [True, -1], [1.0, -1]):
        with pytest.raises(ValueError):
            writhe(hopf, orientation)


# The writhe of each catalog fixture under every orientation, in the order
# of itertools.product((1, -1), repeat=components): 103 frozen values.
WRITHES = {
    "unknot": [0],
    "unlink2_tied": [0],
    "unlink2_shared": [0],
    "kink_a": [1, 1],
    "kink_b": [-1, -1],
    "hopf": [-2, 2, 2, -2],
    "tiedHopf12": [-2, 2, 2, -2],
    "tiedHopf21": [-2, 2, 2, -2],
    "trefoil": [-3, -3],
    "figure8": [0, 0],
    "L11n304": [5, -7, -7, -3, -3, -7, -7, 5],
    "L11n412": [5, -3, -7, -7, -7, -7, -3, 5],
    "L11n358": [7, 3, -5, -1, -1, -5, 3, 7],
    "L11n418": [-1, 7, 3, -5, -5, 3, 7, -1],
    "L11n356": [5, 1, -7, -3, -3, -7, 1, 5],
    "L11n434": [-3, 5, -7, 1, 1, -7, 5, -3],
    "L11n325": [1, 1, -3, -3, -3, -3, 1, 1],
    "L11n424": [-3, 1, 1, -3, -3, 1, 1, -3],
    "L10n79": [-6, 6, 6, -6, -6, 6, 6, -6],
    "L10n95": [-6, 10, -2, -2, -2, -2, 10, -6],
}


def test_writhe_of_every_fixture_under_every_orientation():
    got = {}
    for e in load_catalog():
        d = e.diagram()
        flags = product((1, -1), repeat=len(d.components()))
        got[e.name] = [writhe(d, list(f)) for f in flags]
    assert got == WRITHES


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
    for trials in (0, -4, True, 2.5):
        with pytest.raises(ValueError, match="at least 1"):
            independence_check(tied_hopf(), trials=trials)
    for seed in (1.5, True):
        with pytest.raises(ValueError, match="integer"):
            independence_check(tied_hopf(), seed=seed)


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


def test_an_op_builds_the_strand_map_at_most_twice(monkeypatch):
    # parse_diagram traces the components on one strand map, and
    # double_bracket validates on another, which the key is built from,
    # on the text of the diagram and of its reorderings, and under a seed
    calls = []
    darts = diagram._darts

    def counted(crossings):
        calls.append(crossings)
        return darts(crossings)

    for name, module in list(sys.modules.items()):  # wherever the package imported it
        if name.startswith("tiedbracket") and getattr(module, "_darts", None) is darts:
            monkeypatch.setattr(module, "_darts", counted)
    texts = [e.diagram_text() for e in load_catalog()]
    texts += [str(random_diagram(s, s % 8 + 1, s % 3 + 1, s % 2)) for s in range(30)]
    rng = random.Random(0)
    for text in texts:
        d = parse_diagram(text)
        n = len(d.crossings)
        reorders = [str(reordered(d, perm)) for perm in (reversed(range(n)), rng.sample(range(n), n))]
        runs = [(text, OrderedStrategy()), (text, RandomStrategy(1))] + [(t, OrderedStrategy()) for t in reorders]
        for t, strategy in runs:
            calls.clear()
            double_bracket(parse_diagram(t), strategy)
            assert len(calls) <= 2, (t, strategy)
