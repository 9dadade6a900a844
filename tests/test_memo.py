"""The memoized walk of `_kernel_py.resolve_sum` against the tree walk, in
the default order and under seeds; the memoized AJ-state table against the
reference tree walk on diagrams (`tree_reference`), also on many loops and
colors; `_memo_walk` on a hand-made DAG; how many states each memo
expands; the seeded pick rule; closures whose tree only the memo can
afford, up to the byte labels' bound; and that the memo, the code search
and `double_bracket` leave no reference cycles."""

import gc
import random
import signal
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tree_reference import reference_sum

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
    resolve,
)
from tiedbracket.laurent import LOOP, BivariateLaurent


HOPF = [(1, 3, 2, 4), (3, 1, 4, 2)]
# Two seeds, one past 2^64, which the draw takes mod 2^64.
SEEDED = (RandomStrategy(3), RandomStrategy(2**64 + 11))
CATALOG = load_catalog()


def tree_sum(slots, colors, loops, seed):
    """The tree walk's leaves, summed per (apow, dpow, k)."""
    out = {}
    for k, _, sign, apow, dpow in _kernel_py.resolve_leaves(slots, colors, loops, seed):
        key = (apow, dpow, k)
        out[key] = out.get(key, 0) + sign
    return {key: v for key, v in out.items() if v}


def assert_memo_matches_tree(d, strategy=OrderedStrategy()):
    args = _prepare(d, strategy)
    assert _kernel_py.resolve_sum(*args) == tree_sum(*args)


@given(st.data(), st.integers(0, 10_000), st.integers(1, 7), st.integers(1, 4), st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_memo_matches_tree_walk(data, seed, n, n_colors, n_loops):
    d = random_diagram(seed, n, n_colors, n_loops)
    assert_memo_matches_tree(d)
    perm = tuple(data.draw(st.permutations(range(n))))
    assert_memo_matches_tree(d, OrderedStrategy(perm))
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
    reversed_order = OrderedStrategy(tuple(reversed(range(len(d.crossings)))))
    for strategy in (OrderedStrategy(), reversed_order) + SEEDED:
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
# apow, dpow, dtag), or a leaf's tag.  "s" is reached by paths of different
# weights, one of them twice from "y"; the two paths to "z" cancel, so
# the leaf "c" below it must not appear, and "w" cancels the path r-x-s-a
# at the leaf "a"; "y" and its first edge shift tags.
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

    def expand(node):
        expanded.append(node)
        kids = DAG[node]
        return kids if type(kids) is int else [(c, c, *w) for c, *w in kids]

    flat = _kernel_py._memo_walk(root, root, expand)
    it = iter(flat)
    got = {(t, a, d): count for t, a, d, count in zip(it, it, it, it)}
    assert len(got) * 4 == len(flat) and 0 not in got.values()
    assert got == dag_tree_sum(DAG, root)
    if root == "r":
        # each state expanded once
        assert sorted(expanded) == sorted(DAG)
        assert got[(13, 0, 1)] == -1 and got[(24, -2, 1)] == -1
        assert (10, 3, 0) not in got and all(t != 30 for t, _, _ in got)
    else:
        assert expanded == ["a"] and flat == [10, 0, 0, 1]


def count_expanded(monkeypatch, module, run):
    """The states `_memo_walk`, as ``module`` calls it, expands during ``run()``."""
    walk, calls = module._memo_walk, []

    def counted(root, state, expand):
        def counted_expand(s):
            calls.append(s)
            return expand(s)

        return walk(root, state, counted_expand)

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
    # the tree walk encodes all 16,522 leaves of L11n418
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
        assert _kernel_py.resolve_leaves(*_prepare(renamed, strategy)) == _kernel_py.resolve_leaves(
            *_prepare(d, strategy)
        )


@pytest.mark.parametrize(
    "entry", [e for e in CATALOG if e.name.startswith(("L10", "L11"))], ids=lambda e: e.name
)
def test_seeds_pick_differently_at_the_root(entry):
    slots, colors, _, _ = _prepare(entry.diagram(), OrderedStrategy())
    slots, colors = _kernel_py._canonical(bytes(slots), bytes(colors))
    picks = {_kernel_py._pick(slots, colors, len(slots) // 4, seed) for seed in range(10)}
    assert len(picks) >= 2


def test_seeds_draw_distinct_trees():
    # the seeds `independence_check` draws from its own seed 0
    d = next(e for e in CATALOG if e.name == "L10n95").diagram()
    state, trees = 0, set()
    for _ in range(30):
        state, z = _kernel_py._mix(state)
        trees.add(tuple(_kernel_py.resolve_leaves(*_prepare(d, RandomStrategy(z >> 1)))))
    assert len(trees) == 30


def torus_2(n):
    """The closure of the 2-strand braid sigma_1^n, all components colored 1."""
    left, right = 1, 2
    quads = []
    for c in range(n):
        nw, ne = 3 + 2 * c, 4 + 2 * c
        quads.append((left, right, ne, nw))  # under-strand from bottom left to top right
        left, right = nw, ne
    close = {left: 1, right: 2}
    return TiedDiagram.from_pd([tuple(close.get(a, a) for a in q) for q in quads])


def torus_2_closed_form(n, eps):
    """LOOP * <T(2, n)> = A^(eps n) LOOP^2 + (-A^(-3 eps))^n - A^(eps n)."""
    a_n = BivariateLaurent.monomial(eps * n)
    return a_n * LOOP * LOOP + BivariateLaurent.monomial(-3 * eps * n, 0, (-1) ** n) - a_n


def test_memo_resolves_a_long_torus_closure(monkeypatch):
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

    monkeypatch.setattr(_backend, "kernel", _kernel_py)
    previous = signal.signal(signal.SIGALRM, give_up)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        value = double_bracket(torus_2(30))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert LOOP * value == torus_2_closed_form(30, -1)


def test_state_table_takes_a_closure_past_the_kernel_bound():
    # 80 arcs, past the kernels' 64
    d = torus_2(40)
    with pytest.raises(DiagramError):
        double_bracket(d)
    assert LOOP * resolve(d, group=True).total() == torus_2_closed_form(40, -1)
    # 254 arcs, the most the byte labels take
    assert LOOP * resolve(torus_2(127), group=True).total() == torus_2_closed_form(127, -1)


def test_byte_walks_refuse_256_arcs(capsys):
    d = torus_2(128)
    # the table and the tree walk spell arc labels as bytes in every order
    for strategy in (OrderedStrategy(), RandomStrategy(1)):
        for group in (True, False):
            with pytest.raises(DiagramError, match="at most 127 crossings"):
                resolve(d, strategy, codes=True, group=group)
    for args in (["states", "--seed", "1"], ["tree", "--max-nodes", "3"]):
        assert main([*args, str(torus_2(130))]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:") and "127 crossings" in out.err
