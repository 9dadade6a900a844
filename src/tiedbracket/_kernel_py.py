"""Pure-Python resolution kernel.

The spec of the compiled kernel (`_kernel_c`): both expose `resolve_sum`,
run the same memo walk over the same keys and must produce identical
results, seeded picks included.  The engine picks one at import time; see
`_backend`.

Diagrams arrive pre-encoded: `slots` is a flat list of 4*n arc ids (dense,
0-based, at most MAX_KEY_ARCS arcs), `colors` maps arc id -> non-negative
color (below 256; the engine numbers arc colors in order, so they stay
below the number of arcs), and only the length of `loops`, the free
loops, matters.  A non-negative `seed` requests a seeded order, and
`seed = -1` the default one.

Inside, a state is its key, as in the compiled kernel: one `bytes` of 6
bytes a crossing, the slots with their arcs relabelled by first
appearance, then the colors of those arcs.  `_unpack` splits a key into
its slots and a color table, arc label -> color, padded once to the 256
bytes of `bytes.translate`.  The helpers below act on them and serve
`resolve_sum` and the engine's diagram walks (`engine._states`) alike:
`_pick` chooses the crossing to smooth from the strand colors of
`_strands`; `_children` smooths it, repainting the table for the delta
branches, and returns each child's key (`_canonical`) with the colors of
the circles the smoothing closed.  `_components` counts a leaf's
components.  Byte labels bound every walk of both kernels: fewer than
256 arcs (MAX_KEY_ARCS).

Leaf weights are products of the branch labels A, 1/A, -1 and
delta = A + 1/A, so they compress to a triple (sign, apow, dpow).  The
aggregated form sums the leaves' signs per (apow, dpow, k).

`resolve_sum` and the compiled kernel do not track the colors of closed
circles, because a leaf's color count gamma follows from dpow.  The
components of a diagram carry one color each; a type-1 smoothing glues
strands of one color and a circle it closes keeps its color, so the set
of colors is unchanged.  Only the two delta branches of a type-2
crossing change colors: they repaint the under strand's color j as the
over strand's i, two distinct colors in use, so each removes exactly
one.  A leaf reached through dpow delta branches of a diagram with m
colors thus has gamma = m - dpow, which the engine applies.

A node's pick depends only on its state: the live slots and their
colors.  The default order (`seed = -1`) takes the first mixed-color
illegal crossing in stored order, else the first same-color one.  A seed
takes the illegal crossing, in stored order, at `_draw(seed, rel)`
modulo their number, where rel is the slots relabelled by first
appearance.  Colors stay out of the draw, so a walker of `TiedDiagram`s,
which renumbers colors after each merge, draws the same values (the
tests keep one as the reference of the engine's tree walk).  Every
resolution tree gives the same value, so a seeded tree need only be some
valid tree, not one drawn from a sequential random stream.

A walk's states are defined once, by ``expand(key)``: a leaf's tag, an
int, or the state's children as ``(key, sign, apow, dpow, dtag)``.  For
`resolve_sum` that is `_expander(seed)`, and two drivers walk it.  The
memo loop `_memo_walk` walks the tree as a DAG under every seed: it
expands each key once.  Then, from the root down, each state passes the
histogram of its paths from the root, (circles closed, apow, dpow) with
counts, to its children, shifted by the branch weight and by the circles
the smoothing closed; a leaf adds its own components to give k.  A
histogram's groups are packed into one int each, in bit fields that
hold any walk within MAX_KEY_ARCS, where |apow| and dpow stay at most
127.  It returns the leaves' histogram as a dict, and the memo lives for
one call.  The tree loop `_tree_walk` yields every node of the tree in
preorder, expanding each key once too, but visiting it again on every
path.  `resolve_leaves` is `resolve_sum`'s tree without the memo: it
lists every leaf in depth-first order.  The engine's AJ-state table, its
`resolution_tree` (behind ``tiedbracket tree``) and its ungrouped
`resolve` run the same two drivers over the engine's states, which add
the colors of the state's loops to each key.  Neither the engine nor the
compiled kernel needs a leaf list: the benchmark replays `resolve_leaves`
to count leaves, until a counter of `resolve_sum` does that.
"""

# Arc labels are bytes in the relabelled states and in the seeded draw.
MAX_KEY_ARCS = 255

_MASK64 = (1 << 64) - 1
# Below 2^56, so that a C twin can read rel byte by byte in a u64.
_DRAW_MOD = (1 << 56) - 5
_RANGE = bytes(range(256))
_BYTE = [_RANGE[b : b + 1] for b in range(256)]
# The bit fields of `_memo_walk`'s histogram groups: dpow, apow, tag.
_APOW = 9
_TAG = 18


def _mix(state):
    """One splitmix64 step; returns (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return state, z


def _draw(seed, rel):
    """The seeded draw of a state: rel, its slots relabelled by first
    appearance, read as a big-endian integer mod _DRAW_MOD and XORed into
    the seed, then one splitmix64 step (which takes the seed mod 2^64)."""
    return _mix(seed ^ int.from_bytes(rel, "big") % _DRAW_MOD)[1]


def _unpack(key):
    """A key's slots and its colors as a table: arc label -> color,
    zero-padded to the 256 bytes of `bytes.translate`."""
    n = len(key) // 6
    return key[: 4 * n], key[4 * n :].ljust(256, b"\0")


def _strands(slots, table):
    """The colors of the under strands and of the over strands of the
    crossings, as two `bytes`, one byte a crossing."""
    return slots[0::4].translate(table), slots[1::4].translate(table)


def _pick(slots, table, seed):
    """The pick of a state; returns (x, is_type2), x = -1 for a leaf.

    ``table`` is the state's color table (`_unpack`).  seed < 0 is the
    default order: the first mixed-color illegal crossing, else the first
    same-color one.  Otherwise ``slots`` must be relabelled
    by first appearance, and the pick is the illegal crossing, in stored
    order, at the state's draw modulo their number.
    """
    under, over = _strands(slots, table)
    if under == over:  # one color: every crossing is illegal, of type 1
        if not under:
            return -1, False
        return (0 if seed < 0 else _draw(seed, slots) % len(under)), False
    if seed < 0:
        first1 = -1
        for i, (cu, co) in enumerate(zip(under, over)):
            if co == cu:
                if first1 < 0:
                    first1 = i
            elif co < cu:
                return i, True
        return first1, False
    illegal = [i for i, (cu, co) in enumerate(zip(under, over)) if co <= cu]
    if not illegal:
        return -1, False
    x = illegal[_draw(seed, slots) % len(illegal)]
    return x, over[x] < under[x]


def _repaint(slots, table, x):
    """The recoloring of the delta branches of type-2 crossing x, as the
    arguments of `bytes.replace`: the under strand's color j becomes the
    over strand's i."""
    return _BYTE[table[slots[4 * x]]], _BYTE[table[slots[4 * x + 1]]]


def _children(slots, table, x, x_type2):
    """The children of smoothing crossing x, in the kernels' order: two
    (the flipped crossing), zero, one; or A, 1/A.

    Each child is (key, closed, sign, apow, dpow): its key (`_canonical`),
    the colors of the circles the smoothing closed and the branch weight
    sign * A^apow * delta^dpow.  The A-smoothing glues {s0-s1, s2-s3} of
    crossing x, the others {s0-s3, s1-s2}.  Gluing two ends of distinct
    arcs renames one arc as the other; gluing the two ends of one arc
    closes a circle.  The delta branches repaint first (`_repaint`): the
    under strand's color j is above the over strand's, so j >= 1 and the
    table's zero padding stays zero.
    """
    s = 4 * x
    s0, s1, s2, s3 = slots[s : s + 4]
    rest = slots[:s] + slots[s + 4 :]
    out = []
    weights = (1, 1, 0), (1, -1, 0)
    if x_type2:
        flipped = slots[:s] + slots[s + 1 : s + 4] + slots[s : s + 1] + slots[s + 4 :]
        out.append((_canonical(flipped, table), b"", -1, 0, 0))
        table = table.replace(*_repaint(slots, table, x))
        weights = (1, 0, 1), (1, 0, 1)
    for (p, q, r, t), weight in zip(((s0, s1, s2, s3), (s0, s3, s1, s2)), weights):
        child, closed = rest, b""
        if p == q:
            closed = table[p : p + 1]
        else:
            child = child.replace(_BYTE[q], _BYTE[p])
            if r == q:
                r = p
            if t == q:
                t = p
        if r == t:
            closed += table[r : r + 1]
        else:
            child = child.replace(_BYTE[t], _BYTE[r])
        out.append((_canonical(child, table), closed, *weight))
    return out


def _canonical(slots, table):
    """The key of a state: its slots with the live arcs relabelled by first
    appearance, then the colors of those arcs in their new order, as one
    `bytes` of 6 bytes a crossing.  ``table`` maps arc labels to colors,
    as `_unpack` gives it.

    Every live arc occurs twice among the slots, so the slots take the
    first two thirds of the key and no two states share it.
    """
    order = bytes(dict.fromkeys(slots))
    return slots.translate(bytes.maketrans(order, _RANGE[: len(order)])) + order.translate(table)


def _key(slots, colors):
    """The key of a diagram given as arc ids and arc colors, lists of ints."""
    return _canonical(bytes(slots), bytes(colors).ljust(256, b"\0"))


def _components(slots, n_arcs):
    """The components of a leaf whose arcs are labelled below ``n_arcs``:
    the two ends of each strand join."""
    parent = list(range(n_arcs))
    k = len(slots) >> 1
    for s in range(0, len(slots), 4):
        for a, b in ((slots[s], slots[s + 2]), (slots[s + 1], slots[s + 3])):
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if a != b:
                parent[b] = a
                k -= 1
    return k


def _memo_walk(root, expand):
    """Walk a resolution tree as a DAG from the key ``root``; return the
    histogram ``{(tag, apow, dpow): count}`` of its leaves, without zero
    counts.

    A state is its key, and equal keys must stand for isomorphic subtrees.
    ``expand(key)`` returns a leaf's tag, an int, or the state's children
    as ``(key, sign, apow, dpow, dtag)``: the branch weight sign * A^apow *
    delta^dpow and a shift of the tags below.  A leaf reached by a path
    counts once at its tag plus the path's dtags, with the product of the
    path's weights.

    Two passes.  The first expands each key once, depth-first, numbers the
    states in post-order and keeps only their edges, ``(child, sign,
    shift)`` with the rest of the edge packed as below, or the leaf's tag.
    The second visits the states in reverse post-order, a topological
    order with the root first.  Each state then holds the histogram of its
    paths from the root, (dtags, apow, dpow) -> count, complete since its
    parents came before; it pushes that, shifted by each edge, into its
    children, or into the output at a leaf, and is freed.  Each histogram
    is thus merged once per out-edge and lives only from its first
    parent's visit to its own.

    A histogram's groups are ints, dtags << _TAG | (apow + 256) << _APOW |
    dpow, so an edge shifts them by one addition and the output is
    decoded once.  This is exact while every path keeps 0 <= dpow < 512
    and -256 <= apow < 256; a walk's tags may take any int.  A smoothing
    of the kernels removes a crossing or adds nothing to apow and dpow,
    so their walks, of at most MAX_KEY_ARCS // 2 = 127 crossings, keep
    |apow| + dpow <= 127.
    """
    index = {}
    edges = []
    # Stack entries: (key, None) expands a state;
    # (key, kids) numbers it once its children are numbered.
    stack = [(root, None)]
    while stack:
        key, kids = stack.pop()
        if kids is not None:
            index[key] = len(edges)
            edges.append(
                [(index[k], sign, (t << _TAG) + (a << _APOW) + d) for k, sign, a, d, t in kids]
            )
            continue
        if key in index:
            continue
        kids = expand(key)
        if type(kids) is int:
            index[key] = len(edges)
            edges.append(kids << _TAG)
            continue
        stack.append((key, kids))
        for c in kids:
            if c[0] not in index:
                stack.append((c[0], None))
    del index  # the push reads indices only; free the keys first

    paths = [None] * len(edges)
    paths[-1] = {256 << _APOW: 1}
    out = {}
    for i in range(len(edges) - 1, -1, -1):
        hist, paths[i] = paths[i], None
        kids = edges[i]
        if type(kids) is int:
            for group, count in hist.items():
                group += kids
                out[group] = out.get(group, 0) + count
            continue
        for child, sign, shift in kids:
            acc = paths[child]
            if acc is None:
                acc = paths[child] = {}
            for group, count in hist.items():
                if count:
                    group += shift
                    acc[group] = acc.get(group, 0) + sign * count
    return {
        (g >> _TAG, (g >> _APOW & 511) - 256, g & 511): count for g, count in out.items() if count
    }


def _tree_walk(root, expand):
    """Walk the tree that `_memo_walk` walks as a DAG, from the key
    ``root``, node by node; yield every node in preorder as ``(parent,
    edge, weight, dtags, key, kids)``.

    ``expand`` is `_memo_walk`'s.  ``parent`` is the index of the parent's
    yield (None at the root), ``edge`` the weight (sign, apow, dpow) of the
    branch from the parent (None at the root), ``weight`` and ``dtags``
    the product of the weights and the sum of the dtags on the path from
    the root, and ``kids`` what ``expand(key)`` returned: a leaf's tag or
    the children.  Each distinct key is expanded once, when the walk first
    reaches it, and its children are kept until the walk ends.
    """
    expanded = {}
    # Stack entries: (parent, edge, weight, dtags, key).
    stack = [(None, None, (1, 0, 0), 0, root)]
    node = 0
    while stack:
        parent, edge, weight, dtags, key = stack.pop()
        kids = expanded.get(key)
        if kids is None:
            kids = expanded[key] = expand(key)
        yield parent, edge, weight, dtags, key, kids
        if type(kids) is not int:
            sign, apow, dpow = weight
            # Pushed in reverse so that children pop in the kernels' order.
            for child, c_sign, c_apow, c_dpow, dtag in reversed(kids):
                c_weight = (sign * c_sign, apow + c_apow, dpow + c_dpow)
                stack.append((node, (c_sign, c_apow, c_dpow), c_weight, dtags + dtag, child))
        node += 1


def _expander(seed):
    """The states of `resolve_sum`, as the ``expand`` of `_memo_walk` and
    `_tree_walk`: a key's children, tagged with the circles each smoothing
    closed, or a leaf's components."""

    def expand(key):
        slots, table = _unpack(key)
        x, x_type2 = _pick(slots, table, seed)
        if x < 0:
            return _components(slots, len(slots) >> 1)
        return [
            (child, sign, apow, dpow, len(closed))
            for child, closed, sign, apow, dpow in _children(slots, table, x, x_type2)
        ]

    return expand


def resolve_sum(slots, colors, loops, seed=-1):
    """Resolve completely; return {(apow, dpow, k): signed leaf count}.

    `_memo_walk` over the keys of `_canonical`, tagging each path with the
    circles its smoothings closed; a leaf adds its components.
    """
    groups = _memo_walk(_key(slots, colors), _expander(seed))
    return {(apow, dpow, k + len(loops)): count for (k, apow, dpow), count in groups.items()}


def resolve_leaves(slots, colors, loops, seed=-1):
    """Resolve completely; return [(k, crossings_left, sign, apow, dpow)]
    in depth-first leaf order: `resolve_sum`'s tree without the memo."""
    walk = _tree_walk(_key(slots, colors), _expander(seed))
    return [
        (len(loops) + dtags + tag, len(key) // 6, *weight)
        for _, _, weight, dtags, key, tag in walk
        if type(tag) is int
    ]
