"""The memoized walk of `_kernel_py.resolve_sum` against the tree of
`resolution_tree`, in the default order and under seeds; the memoized
AJ-state table against the reference tree walk on diagrams
(`tree_reference`), also on many loops and colors; `_memo_walk` and
`_tree_walk` on a hand-made DAG, `_memo_walk` on a chain of shared
histograms that ends in a merge, and its packed groups at their bounds;
how many states each memo expands; that each edge's drop is the fall of
the rank of the memo walks and that a walk frees the states it has
expanded; the seeded pick rule;
the pick and smoothing against a plain one (`kernel_reference`), the
keys the engine builds and the partner keys against the reference's
encoding and the relabelled keys they replaced;
closures whose tree only the memo can afford, on both kernels, up to the
byte labels' bound; and that the memo, the code search and
`double_bracket` leave no reference cycles."""

import gc
import random
import signal
import tracemalloc
from dataclasses import replace
from functools import cache
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import kernel_reference
from torus import torus_2, torus_2_closed_form
from tree_reference import reference_sum, reordered

from tiedbracket import _backend, _kernel_py, engine
from tiedbracket.catalog import load_catalog
from tiedbracket.cli import main
from tiedbracket.diagram import DiagramError, TiedDiagram, random_diagram
from tiedbracket.engine import (
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
    uncoded = StateSum([(replace(s, code=None), w) for s, w in coded.entries])
    for codes, tree in ((True, coded), (False, uncoded)):
        memo = resolve(d, strategy, codes=codes, group=True)
        assert memo.entries == tree.grouped().entries


@given(st.integers(0, 10_000), st.integers(1, 7), st.integers(1, 5), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
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
        # the delta branches repaint the loops of color 2 as 1
        (HOPF, [1, 2], [1, 2, 2]),
    ],
)
def test_state_table_takes_many_loops_and_colors(pd, colors, loops):
    d = TiedDiagram.from_pd(pd, colors, loops)
    for strategy in (OrderedStrategy(),) + SEEDED:
        assert_state_table_matches_tree(d, strategy)
    assert resolve(d, group=True).total() == double_bracket(d)


# A hand-made DAG for `_memo_walk`: a state's children as (child, sign,
# apow, dpow, dtag), or a leaf's tag; `with_drops` adds each edge's drop.
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
    """``dag`` with each edge's drop for `_memo_walk`, the fall of `height`."""
    h = height(dag)
    return {
        node: kids if type(kids) is int else [(*edge, h(node) - h(edge[0])) for edge in kids]
        for node, kids in dag.items()
    }


def dag_tree_sum(dag, node, weight=(1, 0, 0, 0), out=None):
    """The leaves of the tree that ``dag`` unfolds to, expanded path by
    path, summed per (tag, apow, dpow) without zero counts."""
    out = {} if out is None else out
    sign, apow, dpow, tags = weight
    kids = dag[node]
    if type(kids) is int:
        group = (tags + kids, apow, dpow)
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
        assert got[(13, 0, 1)] == -1 and got[(24, -2, 1)] == -1
        assert (10, 3, 0) not in got and all(t != 30 for t, _, _ in got)
    else:
        assert expanded == ["a"] and got == {(10, 0, 0): 1}


def test_memo_walk_composes_a_chain_and_merges_it():
    expanded = []
    dag = with_drops(CHAIN)

    def expand(node):
        expanded.append(node)
        return dag[node]

    got = _kernel_py._memo_walk("r", expand)
    # r-p-q-m-t and r-p-q-o-m-t, each of sign (-1)(-1)
    assert got == dag_tree_sum(CHAIN, "r") == {(8, 2, 1): 1, (9, -1, 1): 1}
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
        ((1 << 18) + 5, 127, 0): 1,
        ((3 << 18) + (1 << 19), -127, 127): -1,
        (1 << 19, -127, 127): 1,
        ((1 << 30) + 8 + 7, -8, 0): 1,
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
            group = (dtags + tag, apow, dpow)
            leaves[group] = leaves.get(group, 0) + sign
    assert {group: count for group, count in leaves.items() if count} == dag_tree_sum(DAG, root)
    # each state expanded once, however many paths reach it
    assert sorted(expanded) == sorted({key for *_, key, _ in nodes})
    if root == "r":
        assert sorted(expanded) == sorted(DAG)
        assert [(key, parent, edge) for parent, edge, _, _, key, _ in nodes] == DAG_TREE
    else:
        assert nodes == [(None, None, (1, 0, 0), 0, "a", 10)]


def count_expanded(monkeypatch, module, run):
    """The states `_memo_walk`, as ``module`` calls it, expands during ``run()``."""
    walk, calls = module._memo_walk, []

    def counted(root, expand):
        def counted_expand(key):
            calls.append(key)
            return expand(key)

        return walk(root, counted_expand)

    with monkeypatch.context() as mp:
        mp.setattr(module, "_memo_walk", counted)
        run()
    return len(calls)


def test_memo_keys_merge_the_same_states(monkeypatch):
    # A key that splits states expands more of them; one that merges
    # states with different subtrees gives a wrong table.
    d = next(e for e in CATALOG if e.name == "L11n418").diagram()
    table = count_expanded(monkeypatch, engine, lambda: resolve(d, codes=True, group=True))
    walk = count_expanded(
        monkeypatch, _kernel_py, lambda: _kernel_py.resolve_sum(*_prepare(d, OrderedStrategy()))
    )
    assert (table, walk) == (1266, 923)


def test_code_and_state_table_leave_no_garbage_cycles():
    # Each call's memo, closures and search state must be freed by
    # reference counting alone, not left to the cyclic collector.
    d = next(e for e in CATALOG if e.name == "L11n418").diagram()
    gc.collect()
    gc.disable()
    try:
        d.canonical_code()
        assert gc.collect() == 0
        resolve(d, codes=True, group=True)
        assert gc.collect() == 0
        double_bracket(d)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_state_table_encodes_each_distinct_leaf_once(monkeypatch):
    # of the 16,522 leaves of L11n418's tree, 43 distinct ones carry weight
    calls = []
    code = TiedDiagram.canonical_code

    def counted(self):
        calls.append(1)
        return code(self)

    monkeypatch.setattr(TiedDiagram, "canonical_code", counted)
    d = next(e for e in CATALOG if e.name == "L11n418").diagram()
    assert len(resolve(d, codes=True, group=True).entries) == 32
    assert len(calls) < 100


def test_seeded_leaves_ignore_arc_names():
    # The memo shares one subtree among states that differ only in arc
    # names, so a seeded tree must not depend on them.
    for seed in range(30):
        d = random_diagram(seed, seed % 7 + 2, seed % 3 + 1, seed % 3)
        arcs = sorted(d.used_arcs())
        names = random.Random(seed).sample(range(100, 200), len(arcs))
        renamed = d.relabel_arcs(dict(zip(arcs, names)))
        strategy = RandomStrategy(seed)
        assert resolve(renamed, strategy, codes=True).entries == resolve(d, strategy, codes=True).entries


@pytest.mark.parametrize(
    "entry", [e for e in CATALOG if e.name.startswith(("L10", "L11"))], ids=lambda e: e.name
)
def test_seeds_pick_differently_at_the_root(entry):
    key = _prepare(entry.diagram(), OrderedStrategy())[0]
    picks = {_kernel_py._pick(key, seed) for seed in range(10)}
    assert len(picks) >= 2


def assert_smoothing_matches_reference(key, seed):
    pick = _kernel_py._pick(key, seed)
    assert pick == kernel_reference.pick(key, seed)
    if pick[0] >= 0:
        assert _kernel_py._children(key, *pick) == kernel_reference.children(key, *pick)


def walked_diagrams():
    """The catalog and 100 random diagrams."""
    diagrams = [e.diagram() for e in CATALOG]
    return diagrams + [random_diagram(s, s % 8 + 1, s % 4 + 1, s % 3) for s in range(100)]


def expanded_keys(strategy, visit):
    """Call ``visit(key)`` on every state the kernel's memo walk expands
    on `walked_diagrams` under ``strategy``, on the crossingless key and
    on the root of 508 slots of torus_2(127)."""
    expand = _kernel_py._expander(engine._seed(strategy))

    def visited(key):
        visit(key)
        return expand(key)

    for d in walked_diagrams():
        _kernel_py._memo_walk(_prepare(d, strategy)[0], visited)
    for key in (b"", _prepare(torus_2(127), strategy)[0]):
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
    # do not change the rank.
    rank = _kernel_py._rank
    drops = set()

    def checked(expand, key=lambda state: state):
        def expand_checked(state):
            kids = expand(state)
            if type(kids) is not int:
                for child, *_, drop in kids:
                    assert drop == rank(key(state)) - rank(key(child)) > 0
                    drops.add(drop)
            return kids

        return expand_checked

    for d in walked_diagrams():
        d, strategy = ORDERS[order](d)
        expand = checked(_kernel_py._expander(engine._seed(strategy)))
        _kernel_py._memo_walk(_prepare(d, strategy)[0], expand)
        root, expand_state, _ = engine._states(d, strategy, "the AJ-state table")
        _kernel_py._memo_walk(root, checked(expand_state, itemgetter(0)))
    # the children of the root of 127 crossings, the most a key holds
    d, strategy = ORDERS[order](torus_2(127))
    checked(_kernel_py._expander(engine._seed(strategy)))(_prepare(d, strategy)[0])
    # flips, type-1 smoothings, and delta branches whose repaint makes
    # other crossings illegal
    assert {1, 127, 128, 129} <= drops


def test_memo_walk_frees_what_it_has_taken():
    # a seeded walk of 3,481 states, each freed once expanded
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
        trees.add(tuple(resolve(d, RandomStrategy(z >> 1)).entries))
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
        assert LOOP * resolve(torus_2(n), group=True).total() == torus_2_closed_form(n, -1)


def test_byte_walks_refuse_256_arcs(capsys):
    d = torus_2(128)
    # the table and the tree walk spell arc labels as bytes in every order
    for strategy in (OrderedStrategy(), RandomStrategy(1)):
        for group in (True, False):
            with pytest.raises(DiagramError, match="at most 127 crossings"):
                resolve(d, strategy, codes=True, group=group)
    for args in (["bracket"], ["states", "--seed", "1"], ["tree", "--max-nodes", "3"]):
        assert main([*args, str(torus_2(130))]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:") and "127 crossings" in out.err
