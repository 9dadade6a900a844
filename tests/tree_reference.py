"""A resolution-tree walk on `TiedDiagram`s, the reference of the byte walk.

`engine.resolution_tree` and the ungrouped `engine.resolve` walk the tree
on byte states (`_kernel_py._tree_walk` over `engine._states`).  This walk
shares no smoothing code with them: it smooths a `TiedDiagram` at every node
(`smooth_type1`, `smooth_type2`) and counts circles and colors on the
diagrams.  It borrows only the pick rule (`_kernel_py._pick`), which it
must follow for the two trees to be the same tree.
"""

from tiedbracket._kernel_py import _pick
from tiedbracket.diagram import BAR0, BAR1, ONE, TWO, ZERO
from tiedbracket.engine import OrderedStrategy, StateSum, _branch_weight, _ordered, _seed, _summary


def _key(cur):
    """The partner key of ``cur``, as `_kernel_py._key` spells it, with
    its colors numbered from 0 in order: what the picks
    (`_kernel_py._pick`) read of a state."""
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


def _smoothings(cur, x, x_type2):
    """The children of smoothing crossing ``x`` of ``cur``, in the kernels'
    order (two, zero, one; or A, A⁻¹), as ``(label, diagram, sign, apow,
    dpow)`` with the branch weight sign * A^apow * delta^dpow."""
    if x_type2:
        return (
            ("-1", cur.smooth_type2(x, TWO), -1, 0, 0),
            ("δ", cur.smooth_type2(x, ZERO), 1, 0, 1),
            ("δ", cur.smooth_type2(x, ONE), 1, 0, 1),
        )
    return (
        ("A", cur.smooth_type1(x, BAR0), 1, 1, 0),
        ("A⁻¹", cur.smooth_type1(x, BAR1), 1, -1, 0),
    )


def reference_tree(d, strategy=OrderedStrategy()):
    """Expand the resolution tree of ``d`` on diagrams, depth-first.

    Yields every node in preorder as ``(node, parent, label, diagram,
    (sign, apow, dpow), is_leaf)``, numbered and labelled as
    `engine.resolution_tree` numbers and labels them.
    """
    d = _ordered(d, strategy)
    seed = _seed(strategy)
    stack = [(None, "", d, 1, 0, 0)]
    node = 0
    while stack:
        parent, label, cur, sign, apow, dpow = stack.pop()
        x, x_type2 = _pick(_key(cur), seed)
        yield node, parent, label, cur, (sign, apow, dpow), x < 0
        if x >= 0:
            # Pushed in reverse so that children pop in the kernels' order.
            for c_label, child, c_sign, c_apow, c_dpow in reversed(_smoothings(cur, x, x_type2)):
                stack.append((node, c_label, child, sign * c_sign, apow + c_apow, dpow + c_dpow))
        node += 1


def reference_sum(d, strategy=OrderedStrategy(), codes=False):
    """The leaves of `reference_tree` with their weights: what the
    ungrouped `engine.resolve` returns."""
    return StateSum(
        [
            (_summary(cur, codes), _branch_weight(*weight))
            for _, _, _, cur, weight, leaf in reference_tree(d, strategy)
            if leaf
        ]
    )
