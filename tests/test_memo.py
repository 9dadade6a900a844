"""The memoized walk of `_kernel_py.resolve_sum` against the tree walk, in
the default order and under seeds; the memoized AJ-state table against the
diagram-level tree walk; the seeded pick rule; and a closure whose tree
only the memo can afford."""

import random
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiedbracket import _backend, _kernel_py
from tiedbracket.catalog import load_catalog
from tiedbracket.diagram import TiedDiagram, random_diagram
from tiedbracket.engine import (
    OrderedStrategy,
    RandomStrategy,
    _prepare,
    double_bracket,
    kauffman_bracket,
    resolve,
)
from tiedbracket.laurent import LOOP, BivariateLaurent


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
    memo = resolve(d, strategy, codes=True, group=True)
    assert memo.entries == resolve(d, strategy, codes=True).grouped().entries


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
    slots, colors, _ = _kernel_py._canonical(slots, colors)
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
