"""The memoized walk of `_kernel_py.resolve_sum` against the tree of
`resolution_tree`, in the default order and under seeds; the memoized
AJ-state table against the reference tree walk on diagrams
(`tree_reference`), and the summaries it builds from its leaf keys
against those of the leaf diagrams, also on many loops and colors; that
it walks no tree, builds no diagram and runs the code search once a
distinct leaf, with the strings of the reference search
(`code_reference`); `_memo_walk` and `_tree_walk` on a hand-made DAG,
`_memo_walk` on a chain of shared histograms that ends in a merge, and
its packed groups at their bounds;
how many states each memo expands; that each edge's drop is the fall of
the rank of the memo walks and that a walk frees the states it has
expanded; the seeded pick rule, its spread over seeds and its seed
modulo 2^64, and the reference's CRC-32 against binascii's;
the pick and smoothing against a plain one (`kernel_reference`), the
keys the engine builds and the partner keys against the reference's
encoding and the relabelled keys they replaced;
closures whose tree only the memo can afford, on both kernels, up to the
byte labels' bound; and that the memo, the code search and
`double_bracket` leave no reference cycles."""

import binascii
import gc
import random
import signal
import tracemalloc
from collections import Counter
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import code_reference
import kernel_reference
from torus import torus_2, torus_2_closed_form
from tree_reference import leaf_sum, reference_sum, reordered, summary

from tiedbracket import _backend, _kernel_py, diagram, engine
from tiedbracket.catalog import load_catalog
from tiedbracket.cli import main
from tiedbracket.diagram import DiagramError, TiedDiagram, random_diagram
from tiedbracket.engine import (
    AJStateSummary,
    OrderedStrategy,
    RandomStrategy,
    StateSum,
    _prepare,
    double_bracket,
    kauffman_bracket,
    resolution_tree,
    resolve,
)
from tiedbracket.laurent import LOOP


HOPF = [(1, 3, 2, 4), (3, 1, 4, 2)]
FOUR_HOPFS = [tuple(a + 4 * h for a in rec) for h in range(4) for rec in HOPF]
# Two seeds, one past 2^64, which the draw takes mod 2^64.
SEEDED = (RandomStrategy(3), RandomStrategy(2**64 + 11))
CATALOG = load_catalog()


def tree_sum(d, strategy):
    """The leaves of `resolution_tree`, summed per (apow, dpow, k), where
    k leaves out the free loops of ``d``, as the kernels do."""
    out = {}
    for *_, (sign, apow, dpow), leaf in resolution_tree(d, strategy):
        if leaf is not None:
            key = (apow, dpow, leaf.component_count() - len(d.free_loops))
            out[key] = out.get(key, 0) + sign
    return {key: v for key, v in out.items() if v}


def assert_memo_matches_tree(d, strategy=OrderedStrategy()):
    assert _kernel_py.resolve_sum(*_prepare(d, strategy)) == tree_sum(d, strategy)


@given(st.data(), st.integers(0, 10_000), st.integers(1, 7), st.integers(1, 4), st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_memo_matches_tree_walk(data, seed, n, n_colors, n_loops):
    d = random_diagram(seed, n, n_colors, n_loops)
    assert_memo_matches_tree(d)
    perm = data.draw(st.permutations(range(n)))
    assert_memo_matches_tree(reordered(d, perm))
    for strategy in SEEDED:
        assert_memo_matches_tree(d, strategy)


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
def test_memo_matches_tree_walk_on_catalog(entry):
    for strategy in (OrderedStrategy(),) + SEEDED:
        assert_memo_matches_tree(entry.diagram(), strategy)


def assert_state_table_matches_tree(d, strategy=OrderedStrategy()):
    # against the reference walk on diagrams, walked once for both tables
    coded = reference_sum(d, strategy, codes=True)
    uncoded = StateSum(
        [(AJStateSummary(s.k, s.gamma, s.crossings_left), w) for s, w in coded.entries]
    )
    for codes, tree in ((True, coded), (False, uncoded)):
        memo = resolve(d, strategy, codes=codes)
        assert memo.entries == tree.grouped().entries
    # each settled leaf: its summary from the leaf key is the one of the
    # diagram that `resolution_tree` decodes for it
    root, tag, expand, settle, key_summary, diagram = engine._states(d, strategy, "the AJ-state table")
    for *_, leaf in _kernel_py._memo_walk(root, expand, tag):
        leaf = settle(leaf)
        for codes in (True, False):
            assert key_summary(leaf, codes) == summary(diagram(leaf), codes)


@given(st.integers(0, 10_000), st.integers(1, 7), st.integers(1, 5), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
# a free loop of an arc color that a delta branch merges into another:
# the loops must start in the root's tag, not join the leaves after the walk
@example(seed=0, n=4, n_colors=2, n_loops=2)
# loops of a color that merges into a color that merges again: the merges
# settle from the highest color down, so the loops follow the whole chain
@example(seed=13, n=4, n_colors=3, n_loops=3)
def test_state_table_matches_tree_walk(seed, n, n_colors, n_loops):
    d = random_diagram(seed, n, n_colors, n_loops)
    assert_state_table_matches_tree(reordered(d, reversed(range(n))))
    for strategy in (OrderedStrategy(),) + SEEDED:
        assert_state_table_matches_tree(d, strategy)


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
def test_state_table_matches_tree_walk_on_catalog(entry):
    assert_state_table_matches_tree(entry.diagram())


def test_state_table_takes_colors_past_the_code_points():
    # the memo key spells colors as code points, which end at 0x10FFFF
    tied_hopf = TiedDiagram.from_pd([(1, 3, 2, 4), (3, 1, 4, 2)], [5, 2_000_000])
    loop = TiedDiagram((), {}, (3_000_000,))
    for d in (tied_hopf, loop):
        assert_state_table_matches_tree(d)


@pytest.mark.parametrize(
    "pd, colors, loops",
    [
        ([], None, [1] * 300),
        ([], None, range(1, 131)),
        # 260 loops of an arc color: a key longer than 255 bytes
        (HOPF, [1, 2], [1] * 260),
        # loops of colors no arc carries stay out of the states
        (HOPF, [301, 302], range(1, 301)),
        # the delta branches merge color 2 into 1, and its loops follow
        (HOPF, [1, 2], [1, 2, 2]),
        # four Hopf links of eight colors with twenty loops of those colors:
        # the widest loop and merge fields of the table's layout
        (FOUR_HOPFS, list(range(1, 9)), [c % 8 + 1 for c in range(20)]),
    ],
)
def test_state_table_takes_many_loops_and_colors(pd, colors, loops):
    d = TiedDiagram.from_pd(pd, colors, loops)
    for strategy in (OrderedStrategy(),) + SEEDED:
        assert_state_table_matches_tree(d, strategy)
    assert resolve(d).total() == double_bracket(d)


# A hand-made DAG for `_memo_walk`: a state's children as (child, sign,
# apow, dpow, dtag), or a leaf's tag; `with_drops` packs each edge into the
# shape that `_memo_walk` takes, with its drop.
# "s" is reached by paths of different weights, one of them twice from
# "y"; the two paths to "z" cancel, so the leaf "c" below it must not
# appear, and "w" cancels the path r-x-s-a at the leaf "a"; "y" and its
# first edge shift tags.
DAG = {
    "r": [("x", 1, 1, 0, 0), ("y", 1, -1, 0, 1), ("w", 1, 1, 0, 0)],
    "x": [("s", 1, 1, 0, 0), ("z", 1, 0, 0, 0)],
    "y": [("s", -1, 0, 1, 2), ("s", 1, 2, 0, 0)],
    "w": [("z", -1, 0, 0, 0), ("a", -1, 2, 0, 0)],
    "s": [("a", 1, 1, 0, 0), ("b", 1, -1, 0, 1)],
    "z": [("c", 1, 0, 1, 0)],
    "a": 10,
    "b": 20,
    "c": 30,
}


# A single-parent chain of two -1 edges, r-p-q, whose pending sign and
# shift compose; q is the first parent of m and of o, and o's push turns
# m's pending histogram into a dict of its own.
CHAIN = {
    "r": [("p", -1, 1, 0, 1)],
    "p": [("q", -1, 0, 1, 2)],
    "q": [("m", 1, 1, 0, 0), ("o", 1, -1, 0, 0)],
    "o": [("m", 1, -1, 0, 1)],
    "m": [("t", 1, 0, 0, 0)],
    "t": 5,
}


def height(dag):
    """The rank of ``dag``'s nodes for `_memo_walk`: the length of the
    longest path down to a leaf, which falls along every edge."""

    @cache
    def h(node):
        kids = dag[node]
        return 0 if type(kids) is int else 1 + max(h(child) for child, *_ in kids)

    return h


def with_drops(dag):
    """``dag`` with each edge as `_memo_walk` takes it: (child, shift,
    sign, drop), the weight and dtag packed into the shift and the drop
    the fall of `height`."""
    h = height(dag)

    def packed(node, child, sign, apow, dpow, dtag):
        shift = (dtag << _kernel_py._TAG) + (apow << _kernel_py._APOW) + dpow
        return child, shift, sign, h(node) - h(child)

    return {
        node: kids if type(kids) is int else [packed(node, *edge) for edge in kids]
        for node, kids in dag.items()
    }


def dag_tree_sum(dag, node, weight=(1, 0, 0, 0), out=None):
    """The leaves of the tree that ``dag`` unfolds to, expanded path by
    path, summed per (apow, dpow, tag) without zero counts."""
    out = {} if out is None else out
    sign, apow, dpow, tags = weight
    kids = dag[node]
    if type(kids) is int:
        group = (apow, dpow, tags + kids)
        out[group] = out.get(group, 0) + sign
    else:
        for child, s, a, d, t in kids:
            dag_tree_sum(dag, child, (sign * s, apow + a, dpow + d, tags + t), out)
    return {group: count for group, count in out.items() if count}


@pytest.mark.parametrize("root", ["r", "a"])
def test_memo_walk_matches_the_unfolded_tree(root):
    expanded = []
    dag = with_drops(DAG)

    def expand(node):
        expanded.append(node)
        return dag[node]

    got = _kernel_py._memo_walk(root, expand)
    assert 0 not in got.values()
    assert got == dag_tree_sum(DAG, root)
    if root == "r":
        # each state expanded once
        assert sorted(expanded) == sorted(DAG)
        assert got[(0, 1, 13)] == -1 and got[(-2, 1, 24)] == -1
        assert (3, 0, 10) not in got and all(t != 30 for _, _, t in got)
    else:
        assert expanded == ["a"] and got == {(0, 0, 10): 1}


def test_memo_walk_composes_a_chain_and_merges_it():
    expanded = []
    dag = with_drops(CHAIN)

    def expand(node):
        expanded.append(node)
        return dag[node]

    got = _kernel_py._memo_walk("r", expand)
    # r-p-q-m-t and r-p-q-o-m-t, each of sign (-1)(-1)
    assert got == dag_tree_sum(CHAIN, "r") == {(2, 1, 8): 1, (-1, 1, 9): 1}
    assert expanded == ["r", "p", "q", "o", "m", "t"]


def bounds_dag(steps=127):
    """A DAG at the bounds of `_memo_walk`'s packed groups, which hold
    0 <= dpow < 512 and -256 <= apow < 256 on every path and any tag; the
    kernels' walks keep |apow| + dpow <= 127 (MAX_KEY_ARCS // 2 crossings).

    Two chains of ``steps`` edges reach apow +127 and, with dpow 127,
    -127; tags and dtags pass 2^18; on the ladder of 8 steps below "l0",
    two of the three edges of each step cancel, as do their paths.
    """
    dag = {"r": [("u0", 1, 0, 0, 0), ("d0", -1, 0, 0, 3 << 18), ("d0", 1, 0, 0, 0), ("l0", 1, 0, 0, 1 << 30)]}
    for i in range(steps):
        dag[f"u{i}"] = [(f"u{i + 1}", 1, 1, 0, 0)]
        dag[f"d{i}"] = [(f"d{i + 1}", 1, -1, 1, 0)]
    dag[f"u{steps}"] = (1 << 18) + 5
    dag[f"d{steps}"] = 1 << 19
    for i in range(8):
        dag[f"l{i}"] = [(f"l{i + 1}", 1, 1, 0, 0), (f"l{i + 1}", -1, 1, 0, 0), (f"l{i + 1}", 1, -1, 0, 1)]
    dag["l8"] = 7
    return dag


def test_memo_walk_packs_groups_up_to_their_bounds():
    dag = bounds_dag()
    got = _kernel_py._memo_walk("r", with_drops(dag).__getitem__)
    assert got == dag_tree_sum(dag, "r") == {
        (127, 0, (1 << 18) + 5): 1,
        (-127, 127, (3 << 18) + (1 << 19)): -1,
        (-127, 127, 1 << 19): 1,
        (-8, 0, (1 << 30) + 8 + 7): 1,
    }


# The 18 nodes of the tree that DAG unfolds to from "r", in preorder, as
# (key, parent, edge).
DAG_TREE = [
    ("r", None, None),
    ("x", 0, (1, 1, 0)),
    ("s", 1, (1, 1, 0)),
    ("a", 2, (1, 1, 0)),
    ("b", 2, (1, -1, 0)),
    ("z", 1, (1, 0, 0)),
    ("c", 5, (1, 0, 1)),
    ("y", 0, (1, -1, 0)),
    ("s", 7, (-1, 0, 1)),
    ("a", 8, (1, 1, 0)),
    ("b", 8, (1, -1, 0)),
    ("s", 7, (1, 2, 0)),
    ("a", 11, (1, 1, 0)),
    ("b", 11, (1, -1, 0)),
    ("w", 0, (1, 1, 0)),
    ("z", 14, (-1, 0, 0)),
    ("c", 15, (1, 0, 1)),
    ("a", 14, (-1, 2, 0)),
]


@pytest.mark.parametrize("root", ["r", "a"])
def test_tree_walk_unfolds_the_dag(root):
    expanded = []
    dag = with_drops(DAG)

    def expand(node):
        expanded.append(node)
        return dag[node]

    nodes = list(_kernel_py._tree_walk(root, expand))
    assert all(kids == dag[key] for *_, key, kids in nodes)
    leaves = {}
    for _, _, (sign, apow, dpow), dtags, _, tag in nodes:
        if type(tag) is int:
            group = (apow, dpow, dtags + tag)
            leaves[group] = leaves.get(group, 0) + sign
    assert {group: count for group, count in leaves.items() if count} == dag_tree_sum(DAG, root)
    # each state expanded once, however many paths reach it
    assert sorted(expanded) == sorted({key for *_, key, _ in nodes})
    if root == "r":
        assert sorted(expanded) == sorted(DAG)
        assert [(key, parent, edge) for parent, edge, _, _, key, _ in nodes] == DAG_TREE
    else:
        assert nodes == [(None, None, (1, 0, 0), 0, "a", 10)]


def expanded(monkeypatch, module, run):
    """The states `_memo_walk`, as ``module`` calls it, expands during
    ``run()``, in the order it expands them."""
    walk, calls = module._memo_walk, []

    def counted(root, expand, tag=0):
        def counted_expand(key):
            calls.append(key)
            return expand(key)

        return walk(root, counted_expand, tag)

    with monkeypatch.context() as mp:
        mp.setattr(module, "_memo_walk", counted)
        run()
    return calls


def test_memo_keys_merge_the_same_states(monkeypatch):
    # The table's states are the kernel's: a state that also held its
    # loops would split states and expand more of them; one that merges
    # states with different subtrees gives a wrong table.
    def table_and_walk(d, strategy):
        table = expanded(monkeypatch, engine, lambda: resolve(d, strategy, codes=True))
        walk = expanded(
            monkeypatch, _kernel_py, lambda: _kernel_py.resolve_sum(*_prepare(d, strategy))
        )
        assert table == walk
        return len(table), len(walk)

    for strategy in (OrderedStrategy(),) + SEEDED:
        for d in walked_diagrams():
            table_and_walk(d, strategy)
    d = next(e for e in CATALOG if e.name == "L11n418").diagram()
    assert table_and_walk(d, OrderedStrategy()) == (923, 923)
    # seeded walks of 2-strand closures, which share few states
    seeded = [table_and_walk(torus_2(n), RandomStrategy(1))[0] for n in (8, 16, 24)]
    assert seeded == [32, 261, 3210]


def test_code_and_state_table_leave_no_garbage_cycles():
    # Each call's memo, closures and search state must be freed by
    # reference counting alone, not left to the cyclic collector.
    d = next(e for e in CATALOG if e.name == "L11n418").diagram()
    gc.collect()
    gc.disable()
    try:
        d.canonical_code()
        assert gc.collect() == 0
        resolve(d, codes=True)
        assert gc.collect() == 0
        double_bracket(d)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_state_table_encodes_each_distinct_leaf_once(monkeypatch):
    # of the 16,522 leaves of L11n418's tree, 43 distinct ones carry
    # weight: the table runs the code search once on each leaf key and
    # merges them into 32 entries
    calls = []
    code = engine._canonical_code

    def counted(*args):
        calls.append(1)
        return code(*args)

    monkeypatch.setattr(engine, "_canonical_code", counted)
    d = next(e for e in CATALOG if e.name == "L11n418").diagram()
    assert len(resolve(d, codes=True).entries) == 32
    assert len(calls) == 43


def test_code_search_matches_the_reference(monkeypatch):
    # every search that canonical_code and the AJ-state table run gives
    # the reference search's string: on the fixtures, and on random
    # diagrams with loops of an arc color and of a new color, ordered and
    # seeded
    calls = []
    search = diagram._canonical_code

    def checked(*args):
        code = search(*args)
        assert code == code_reference.canonical_code(*args), args
        calls.append(args[0])
        return code

    monkeypatch.setattr(diagram, "_canonical_code", checked)
    monkeypatch.setattr(engine, "_canonical_code", checked)
    diagrams = [e.diagram() for e in CATALOG]
    for s in range(60):
        d = random_diagram(s, s % 9 + 1, s % 3 + 1, s % 2)
        colors = sorted(set(d.arc_color.values()))
        new = len(colors) + 1
        diagrams.append(TiedDiagram(d.crossings, d.arc_color, d.free_loops + (colors[s % len(colors)], new, new)))
    for d in diagrams:
        d.canonical_code()
        for strategy in (OrderedStrategy(), *SEEDED):
            resolve(d, strategy, codes=True)
    assert sum(n > 0 for n in calls) > 1200 and max(calls) >= 10


def test_state_table_builds_no_diagram(monkeypatch):
    # the table summarizes its leaves from their keys: no leaf, and no
    # loop of a color that no arc carries, is rebuilt as a diagram
    diagrams = [e.diagram() for e in CATALOG]
    diagrams += [random_diagram(s, s % 8 + 1, s % 4 + 1, s % 3) for s in range(20)]
    diagrams.append(TiedDiagram.from_pd(HOPF, [2, 3], [1, 2, 3, 3]))
    built = []
    init = TiedDiagram.__init__

    def counted(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(TiedDiagram, "__init__", counted)
    for d in diagrams:
        for codes in (True, False):
            resolve(d, codes=codes)
    assert built == []


def test_resolve_walks_no_tree(monkeypatch):
    # the table is the memo walk alone: with the tree walk gone it is the
    # same table, and it has no ungrouped form to fall back to
    diagrams = [e.diagram() for e in CATALOG]
    diagrams += [random_diagram(s, s % 8 + 1, s % 4 + 1, s % 3) for s in range(20)]
    cases = [
        (d, strategy, codes)
        for d in diagrams
        for strategy in (OrderedStrategy(),) + SEEDED
        for codes in (True, False)
    ]
    tables = [resolve(d, strategy, codes=codes) for d, strategy, codes in cases]

    def no_tree(*args):
        raise AssertionError("resolve walked the tree")

    monkeypatch.setattr(engine, "_tree_walk", no_tree)
    assert [resolve(d, strategy, codes=codes) for d, strategy, codes in cases] == tables
    for d in diagrams:
        assert resolve(d) == resolve(d, group=True)
        with pytest.raises(ValueError, match="resolution_tree"):
            resolve(d, group=False)


def test_seeded_leaves_ignore_arc_names():
    # The memo shares one subtree among states that differ only in arc
    # names, so a seeded tree must not depend on them.
    for seed in range(30):
        d = random_diagram(seed, seed % 7 + 2, seed % 3 + 1, seed % 3)
        arcs = sorted(d.used_arcs())
        names = random.Random(seed).sample(range(100, 200), len(arcs))
        renamed = d.relabel_arcs(dict(zip(arcs, names)))
        strategy = RandomStrategy(seed)
        assert leaf_sum(renamed, strategy, codes=True).entries == leaf_sum(d, strategy, codes=True).entries


@pytest.mark.parametrize(
    "entry", [e for e in CATALOG if e.name.startswith(("L10", "L11"))], ids=lambda e: e.name
)
def test_seeds_pick_differently_at_the_root(entry):
    key = _prepare(entry.diagram(), OrderedStrategy())[0]
    picks = {assert_smoothing_matches_reference(key, seed) for seed in range(10)}
    assert len(picks) >= 2


def illegal_crossings(key):
    n = len(key) // 10
    return [x for x in range(n) if key[9 * n + x] <= key[8 * n + x]]


@pytest.mark.parametrize(
    "entry",
    [e for e in CATALOG if len(illegal_crossings(_prepare(e.diagram(), OrderedStrategy())[0])) >= 2],
    ids=lambda e: e.name,
)
def test_seeds_spread_the_pick_at_the_root(entry):
    # seeds 0..999 pick each of the L illegal crossings 1000/L times, give
    # or take half
    key = _prepare(entry.diagram(), OrderedStrategy())[0]
    illegal = illegal_crossings(key)
    picks = Counter(kernel_reference.pick(key, seed)[0] for seed in range(1000))
    assert set(picks) <= set(illegal)
    assert all(500 <= picks[x] * len(illegal) <= 1500 for x in illegal), picks


def test_seeds_pick_independently_in_two_states():
    # A draw whose seed flipped the picks of all states alike, as XOR of
    # the key's CRC into the seed would, gives two of the four pairs.
    key = _prepare(next(e for e in CATALOG if e.name == "L11n304").diagram(), OrderedStrategy())[0]
    expand = _kernel_py._expander(-1, _kernel_py._components, _kernel_py._COUNT)
    states = []

    def visit(key):
        if len(illegal_crossings(key)) == 2:
            states.append(key)
        return expand(key)

    _kernel_py._memo_walk(key, visit)
    # the first two states of two illegal crossings that the ordered walk expands
    a, b = states[:2]
    pairs = Counter((kernel_reference.pick(a, seed), kernel_reference.pick(b, seed)) for seed in range(1000))
    assert len(pairs) == 4 and min(pairs.values()) >= 150, pairs


def test_seeds_count_mod_2_64():
    # a seed and the seed plus 2^64 pick alike on every state of their
    # walks, and give one tree; the trees of 10 and 11 crossings take
    # seconds, so only the walks cover them
    diagrams = [e.diagram() for e in CATALOG]
    diagrams += [random_diagram(s, s % 7 + 1, s % 3 + 1, s % 3) for s in range(20)]
    for seed in (0, 5, 2**63):
        first = _kernel_py._expander(seed, _kernel_py._components, _kernel_py._COUNT)
        second = _kernel_py._expander(seed + 2**64, _kernel_py._components, _kernel_py._COUNT)

        def visit(key):
            assert second(key) == first(key)
            return first(key)

        for d in diagrams:
            _kernel_py._memo_walk(_prepare(d, OrderedStrategy())[0], visit)
            if len(d.crossings) <= 8:
                trees = [list(resolution_tree(d, RandomStrategy(s))) for s in (seed, seed + 2**64)]
                assert trees[0] == trees[1]


def test_reference_crc_is_binascii_crc():
    # the reference's CRC-32, bit by bit, is the one of the kernels
    rng = random.Random(0)
    sizes = [0, 1, 8, 1016] + [rng.randrange(1017) for _ in range(60)]
    for size in sizes:
        data = rng.randbytes(size)
        assert kernel_reference.crc32(data) == binascii.crc32(data), size


# A layout of the AJ-state table's shape (`engine._states`): a loop field
# of 8 bits for each color, and merge fields of 8 bits above them.
TABLE_LAYOUT = ([1 << 8 * c for c in range(256)], [1 << 8 * 256 + 8 * c for c in range(256)])


def assert_smoothing_matches_reference(key, seed):
    """The expander's leaf or children on ``key``, under the layout of
    `resolve_sum` and the table's, against the reference pick and
    smoothing; returns the pick."""
    pick = kernel_reference.pick(key, seed)
    n = len(key) // 10
    for circles, merges in (_kernel_py._COUNT, TABLE_LAYOUT):
        got = _kernel_py._expander(seed, _kernel_py._components, (circles, merges))(key)
        if pick[0] < 0:
            assert got == _kernel_py._components(key)
            continue
        # the tag change: the circles closed, of the over strand's color i,
        # and on a delta branch the merge of the under strand's color j into i
        i, j = key[9 * n + pick[0]], key[8 * n + pick[0]]
        want = []
        for child, sign, apow, dpow, closed, drop in kernel_reference.children(key, *pick):
            dtag = closed * circles[i] + dpow * (i + 1) * merges[j]
            want.append((child, (dtag << _kernel_py._TAG) + (apow << _kernel_py._APOW) + dpow, sign, drop))
        assert got == want
    return pick


def walked_diagrams():
    """The catalog and 100 random diagrams."""
    diagrams = [e.diagram() for e in CATALOG]
    return diagrams + [random_diagram(s, s % 8 + 1, s % 4 + 1, s % 3) for s in range(100)]


def expanded_keys(strategy, visit):
    """Call ``visit(key)`` on every state the kernel's memo walk expands
    on `walked_diagrams` under ``strategy``, on the crossingless key, and
    on the root of 508 slots of torus_2(127), the most a key holds, and
    its children."""
    expand = _kernel_py._expander(engine._seed(strategy), _kernel_py._components, _kernel_py._COUNT)

    def visited(key):
        visit(key)
        return expand(key)

    for d in walked_diagrams():
        _kernel_py._memo_walk(_prepare(d, strategy)[0], visited)
    root = _prepare(torus_2(127), strategy)[0]
    for key in (b"", root, *(child for child, *_ in expand(root))):
        visit(key)


STRATEGY_IDS = ["ordered", "seed3", "seed2^64+11"]


@pytest.mark.parametrize("strategy", (OrderedStrategy(),) + SEEDED, ids=STRATEGY_IDS)
def test_pick_and_children_match_the_reference(strategy):
    seed = engine._seed(strategy)
    expanded_keys(strategy, lambda key: assert_smoothing_matches_reference(key, seed))


def test_keys_follow_the_arcs():
    # the key `engine._encode` builds from the strand map is the one of the
    # diagram's slots, labelled densely by arc, and the colors of its arcs
    for d in walked_diagrams():
        for e in (d, reordered(d, reversed(range(len(d.crossings))))):
            slots, colors, _ = kernel_reference.slot_lists(e)
            assert _prepare(e, OrderedStrategy())[0] == kernel_reference.encode(slots, colors)


@pytest.mark.parametrize("strategy", (OrderedStrategy(),) + SEEDED, ids=STRATEGY_IDS)
def test_partner_keys_merge_what_relabelled_keys_merge(strategy):
    # a partner key stands for one relabelled key (`kernel_reference.canonical`)
    # and the other way round, on every state the walks expand
    relabelled, partner = {}, {}

    def visit(key):
        slots, colors = kernel_reference.decode(key)
        assert kernel_reference.encode(slots, colors) == key
        old = kernel_reference.canonical(slots, colors)
        assert relabelled.setdefault(key, old) == old
        assert partner.setdefault(old, key) == key

    expanded_keys(strategy, visit)
    assert len(relabelled) == len(partner) > 1000


def shuffled(d):
    """``d`` with its crossings reordered by a shuffle seeded by their number."""
    n = len(d.crossings)
    return reordered(d, random.Random(n).sample(range(n), n))


# Orders of a diagram, as the diagram to walk and its strategy: the stored
# order, a seeded shuffle of the crossings, and the seeds of SEEDED.
ORDERS = {
    "ordered": lambda d: (d, OrderedStrategy()),
    "permuted": lambda d: (shuffled(d), OrderedStrategy()),
    "seed3": lambda d: (d, SEEDED[0]),
    "seed2^64+11": lambda d: (d, SEEDED[1]),
}


@pytest.mark.parametrize("order", list(ORDERS))
def test_rank_falls_along_every_edge(order):
    # The memo walks place each child at its parent's rank less the drop
    # that the branch gives, and take states in falling rank, so that each
    # comes after all its parents: every drop must be the fall of `_rank`,
    # and above 0, on the kernel's states and on the engine's, whose loops
    # ride in the tags.
    rank = _kernel_py._rank
    drops = set()

    def checked(expand):
        def expand_checked(key):
            kids = expand(key)
            if type(kids) is not int:
                for child, *_, drop in kids:
                    assert drop == rank(key) - rank(child) > 0
                    drops.add(drop)
            return kids

        return expand_checked

    for d in walked_diagrams():
        d, strategy = ORDERS[order](d)
        expand = checked(_kernel_py._expander(engine._seed(strategy), _kernel_py._components, _kernel_py._COUNT))
        _kernel_py._memo_walk(_prepare(d, strategy)[0], expand)
        root, tag, expand_state, *_ = engine._states(d, strategy, "the AJ-state table")
        _kernel_py._memo_walk(root, checked(expand_state), tag)
    # the children of the root of 127 crossings, the most a key holds
    d, strategy = ORDERS[order](torus_2(127))
    checked(_kernel_py._expander(engine._seed(strategy), _kernel_py._components, _kernel_py._COUNT))(
        _prepare(d, strategy)[0]
    )
    # flips, type-1 smoothings, and delta branches whose color merge makes
    # other crossings illegal
    assert {1, 127, 128, 129} <= drops


def test_memo_walk_frees_what_it_has_taken():
    # a seeded walk of 3,210 states, each freed once expanded
    args = _prepare(torus_2(24), RandomStrategy(1))
    tracemalloc.start()
    try:
        _kernel_py.resolve_sum(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_seeds_draw_distinct_trees():
    # the seeds `independence_check` draws from its own seed 0
    d = next(e for e in CATALOG if e.name == "L10n95").diagram()
    state, trees = 0, set()
    for _ in range(30):
        state, z = _kernel_py._mix(state)
        # whole nodes, leaf diagrams included
        trees.add(tuple(resolution_tree(d, RandomStrategy(z >> 1))))
    assert len(trees) == 30


@pytest.mark.parametrize("name", ["python", "compiled"])
def test_memo_resolves_a_long_torus_closure(request, monkeypatch, name):
    # The sign convention of the crossings, fixed against the state sum.
    eps = [
        e for e in (1, -1)
        if all(LOOP * kauffman_bracket(torus_2(n)) == torus_2_closed_form(n, e) for n in range(1, 9))
    ]
    assert eps == [-1]
    trefoil = next(e for e in CATALOG if e.name == "trefoil").diagram()
    assert LOOP * double_bracket(trefoil) == torus_2_closed_form(3, -1)

    def give_up(signum, frame):
        raise TimeoutError("the ordered walk fell back to the 2^30-leaf tree")

    kernel = _kernel_py if name == "python" else request.getfixturevalue("compiled_kernel")
    monkeypatch.setattr(_backend, "kernel", kernel)
    previous = signal.signal(signal.SIGALRM, give_up)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        value = double_bracket(torus_2(30))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert LOOP * value == torus_2_closed_form(30, -1)
    # past the 64 arcs the compiled kernel once took, up to the byte labels'
    # 254 arcs, with counts past 64 bits, and no further
    for n in (40, 127):
        assert LOOP * double_bracket(torus_2(n)) == torus_2_closed_form(n, -1)
    with pytest.raises(DiagramError, match="kernel supports at most 127 crossings"):
        double_bracket(torus_2(128))


def test_state_table_takes_a_closure_past_the_kernel_bound():
    # 80 arcs, past the 64 the compiled kernel once took, and 254, the most
    # the byte labels take
    for n in (40, 127):
        assert LOOP * resolve(torus_2(n)).total() == torus_2_closed_form(n, -1)


def test_byte_walks_refuse_256_arcs(capsys):
    d = torus_2(128)
    # the table and the tree walk spell arc labels as bytes in every order
    for strategy in (OrderedStrategy(), RandomStrategy(1)):
        with pytest.raises(DiagramError, match="at most 127 crossings"):
            resolve(d, strategy, codes=True)
        with pytest.raises(DiagramError, match="at most 127 crossings"):
            next(resolution_tree(d, strategy))
    for args in (["bracket"], ["states", "--seed", "1"], ["tree", "--max-nodes", "3"]):
        assert main([*args, str(torus_2(130))]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:") and "127 crossings" in out.err
