"""A resolution-tree walk on `TiedDiagram`s, the reference of the byte walk.

`engine.resolution_tree` walks the tree on byte states
(`_kernel_py._tree_walk` over `engine._states`).  This walk shares no
smoothing code with it: it smooths a `TiedDiagram` at every node
(`smooth_type1`, `smooth_type2`) and counts circles and colors on the
diagrams.  It takes the pick rule from `kernel_reference.pick`, which
the walks must follow for the two trees to be the same tree.  Both walk the stored
order of the crossings, or a seeded draw; `reordered` gives a diagram
another stored order.  Its leaves are summarized on their diagrams
(`summary`), which the AJ-state table does on its leaf keys.
"""

from kernel_reference import pick
from tiedbracket.diagram import TiedDiagram
from tiedbracket.engine import (
    AJStateSummary,
    OrderedStrategy,
    StateSum,
    _prepare,
    resolution_tree,
)
from tiedbracket.laurent import DELTA, BivariateLaurent


def _key(cur):
    """The partner key of ``cur``, as `engine._encode` spells it, with
    its colors numbered from 0 in order: what the picks
    (`kernel_reference.pick`) read of a state."""
    slots = [a for rec in cur.crossings for a in rec]
    ends = {}
    for s, a in enumerate(slots):
        ends[a] = ends.get(a, 0) + s
    partner = [ends[a] - s for s, a in enumerate(slots)]
    number = {c: i for i, c in enumerate(sorted({cur.arc_color[a] for a in slots}))}
    strand = [number[cur.arc_color[a]] for a in slots]
    return (
        bytes(t // 4 for t in partner)
        + bytes(t % 4 for t in partner)
        + bytes(strand[0::4])
        + bytes(strand[1::4])
    )


# The branches of each relation, in the order the smoothings return their
# terms: (label, sign, apow, dpow) with the weight sign * A^apow * delta^dpow.
_TYPE2 = (("-1", -1, 0, 0), ("δ", 1, 0, 1), ("δ", 1, 0, 1))  # two, zero, one
_TYPE1 = (("A", 1, 1, 0), ("A⁻¹", 1, -1, 0))  # bar0, bar1


def _smoothings(cur, x, x_type2):
    """The children of smoothing crossing ``x`` of ``cur``, in the kernels'
    order (two, zero, one; or A, A⁻¹), as ``(label, diagram, sign, apow,
    dpow)``."""
    if x_type2:
        terms, branches = cur.smooth_type2(x), _TYPE2
    else:
        terms, branches = cur.smooth_type1(x), _TYPE1
    return [(label, child, *weight) for child, (label, *weight) in zip(terms, branches)]


def summary(leaf, codes):
    """The summary of the AJ-state ``leaf``, a diagram, with its canonical
    code if ``codes``: what `engine.resolve` gives it from its leaf key."""
    return AJStateSummary(
        leaf.component_count(),
        leaf.n_colors,
        len(leaf.crossings),
        leaf.canonical_code() if codes else None,
    )


def reordered(d, perm):
    """``d`` with its crossings reordered: crossing ``perm[i]`` becomes
    crossing i.  The engine walks the stored order; this is how a test
    asks for another one."""
    return TiedDiagram(tuple(d.crossings[i] for i in perm), d.arc_color, d.free_loops)


def reference_tree(d, strategy=OrderedStrategy()):
    """Expand the resolution tree of ``d`` on diagrams, depth-first.

    Yields every node in preorder as ``(node, parent, label, diagram,
    (sign, apow, dpow), is_leaf)``, numbered and labelled as
    `engine.resolution_tree` numbers and labels them.
    """
    _, seed = _prepare(d, strategy)  # validates the strategy and d
    stack = [(None, "", d, 1, 0, 0)]
    node = 0
    while stack:
        parent, label, cur, sign, apow, dpow = stack.pop()
        x, x_type2 = pick(_key(cur), seed)
        yield node, parent, label, cur, (sign, apow, dpow), x < 0
        if x >= 0:
            # Pushed in reverse so that children pop in the kernels' order.
            for c_label, child, c_sign, c_apow, c_dpow in reversed(_smoothings(cur, x, x_type2)):
                stack.append((node, c_label, child, sign * c_sign, apow + c_apow, dpow + c_dpow))
        node += 1


def _weight(sign, apow, dpow):
    return BivariateLaurent.monomial(apow, 0, sign) * DELTA**dpow


def reference_sum(d, strategy=OrderedStrategy(), codes=False):
    """The leaves of `reference_tree` with their weights, depth-first;
    grouped, the AJ-state table that `engine.resolve` returns."""
    return StateSum(
        [
            (summary(cur, codes), _weight(*weight))
            for _, _, _, cur, weight, leaf in reference_tree(d, strategy)
            if leaf
        ]
    )


def leaf_sum(d, strategy=OrderedStrategy(), codes=False):
    """The leaves of `engine.resolution_tree` with their weights, as
    `reference_sum` lists them."""
    return StateSum(
        [
            (summary(leaf, codes), _weight(*weight))
            for *_, weight, leaf in resolution_tree(d, strategy)
            if leaf is not None
        ]
    )
