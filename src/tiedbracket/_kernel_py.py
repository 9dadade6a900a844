"""Pure-Python resolution kernel.

Hot path shared with the compiled kernel (`_kernel_c`): both expose the
same two functions and must produce identical results, including the
leaf order and the seeded picks.  The engine picks one at import time;
see `_backend`.

Diagrams arrive pre-encoded: `slots` is a flat list of 4*n arc ids (dense,
0-based, at most MAX_ARCS arcs), `colors` maps arc id -> non-negative
color (below 256; the engine numbers arc colors in order, so they stay
below MAX_ARCS), and only the length of `loops`, the free loops, matters.
A non-negative `seed` requests a seeded order, and `seed = -1` the
default one.

Inside, a state is two `bytes`: its slots and the colors of its arcs,
indexed by arc label.  The helpers below act on that encoding and serve
`resolve_sum`, the tree walk `_walk` and the engine's AJ-state table
(`engine._state_table`) alike: `_pick` chooses the crossing to smooth,
`_children` smooths it (through `_glue`, which also reports the colors
of the circles it closes) and `_canonical` relabels a state's arcs by
first appearance.  The tree walk and the table add a third `bytes`, the
colors of the state's loops, which `_smooth` carries through a
smoothing.  Byte labels bound the walks that relabel, and those that
carry loop colors: fewer than 256 arcs (MAX_KEY_ARCS).

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
tests keep one as the reference of `_walk`).  Every resolution tree
gives the same value, so a seeded tree need only be some valid tree, not
one drawn from a sequential random stream.

`resolve_sum` therefore walks the tree as a DAG under every seed: it keys
each state by its canonical slots and colors and expands each key once.
Then, from the root down, each state passes the histogram of its paths
from the root, (circles closed, apow, dpow) with counts, to its
children, shifted by the branch weight and by the circles the smoothing
closed; a leaf adds its own components to give k.  The memo loop is
`_memo_walk`, which the AJ-state table shares with tags of distinct
leaves in place of k.  The memo lives for one call.

`_walk` is the one tree walk: it yields every node in preorder with its
state and pick.  The engine's `resolution_tree` (behind ``tiedbracket
tree``) and its ungrouped `resolve` read it, and so does `resolve_leaves`,
which promises every leaf in depth-first order.  The engine does not call
`resolve_leaves`: it is the spec of the compiled kernel's leaf walk for
the parity tests, and the benchmark replays it to count leaves, until a
counter of `resolve_sum` does that.
"""

MAX_ARCS = 64
# Arc labels are bytes in the relabelled states and in the seeded draw.
MAX_KEY_ARCS = 255

_MASK64 = (1 << 64) - 1
# Below 2^56, so that a C twin can read rel byte by byte in a u64.
_DRAW_MOD = (1 << 56) - 5
_RANGE = bytes(range(256))
_BYTE = [_RANGE[b : b + 1] for b in range(256)]


def _mix(state):
    """One splitmix64 step; returns (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return state, z


def resolve_leaves(slots, colors, loops, seed=-1):
    """Resolve completely; return [(k, crossings_left, sign, apow, dpow)]
    in depth-first leaf order.

    Only the number of loops counts here, so they enter `_walk` as color 0,
    which no repaint replaces.
    """
    walk = _walk(bytes(slots), bytes(colors), bytes(len(loops)), seed)
    return [
        _leaf(slots, colors, len(loops), len(slots) >> 2, *weight)
        for _, weight, slots, colors, loops, x in walk
        if x < 0
    ]


def _pick_ordered(slots, colors, n):
    """The default order: the first mixed-color illegal crossing, else the
    first same-color one.  Returns (x, is_type2), x = -1 for a leaf."""
    first1 = -1
    for i in range(n):
        cu = colors[slots[4 * i]]
        co = colors[slots[4 * i + 1]]
        if co == cu:
            if first1 < 0:
                first1 = i
        elif co < cu:
            return i, True
    return first1, False


def _draw(seed, rel):
    """The seeded draw of a state: rel, its slots relabelled by first
    appearance, read as a big-endian integer mod _DRAW_MOD and XORed into
    the seed, then one splitmix64 step (which takes the seed mod 2^64)."""
    return _mix(seed ^ int.from_bytes(rel, "big") % _DRAW_MOD)[1]


def _pick(slots, colors, n, seed):
    """The pick of a state; returns (x, is_type2), x = -1 for a leaf.

    seed < 0 is the default order.  Otherwise ``slots`` must be relabelled
    by first appearance, and the pick is the illegal crossing, in stored
    order, at the state's draw modulo their number.
    """
    if seed < 0:
        return _pick_ordered(slots, colors, n)
    illegal = []
    for i in range(n):
        cu = colors[slots[4 * i]]
        co = colors[slots[4 * i + 1]]
        if co <= cu:
            illegal.append((i, co < cu))
    if not illegal:
        return -1, False
    return illegal[_draw(seed, slots) % len(illegal)]


def _repaint(slots, colors, x):
    """The recoloring of the delta branches of type-2 crossing x, as the
    arguments of `bytes.replace`: the under strand's color j becomes the
    over strand's i."""
    return _BYTE[colors[slots[4 * x]]], _BYTE[colors[slots[4 * x + 1]]]


def _children(slots, colors, x, x_type2):
    """The children of smoothing crossing x, in the kernels' order: two
    (the flipped crossing), zero, one; or A, 1/A.

    Each child is (slots, colors, closed, sign, apow, dpow): ``closed``
    holds the colors of the circles the smoothing closed, and the branch
    weight is sign * A^apow * delta^dpow.
    """
    if x_type2:
        repaint = _repaint(slots, colors, x)
        s = 4 * x
        flipped = slots[:s] + slots[s + 1 : s + 4] + slots[s : s + 1] + slots[s + 4 :]
        return (
            (flipped, colors, b"", -1, 0, 0),
            (*_glue(slots, colors, x, True, repaint), 1, 0, 1),
            (*_glue(slots, colors, x, False, repaint), 1, 0, 1),
        )
    return (
        (*_glue(slots, colors, x, True, None), 1, 1, 0),
        (*_glue(slots, colors, x, False, None), 1, -1, 0),
    )


def _glue(slots, colors, x, a_pairing, repaint):
    """Remove crossing x, reconnect its ends, optionally repaint a color.

    a_pairing=True glues {s0-s1, s2-s3} (the A-smoothing), else {s0-s3, s1-s2}.
    Gluing two ends of distinct arcs renames one arc as the other; gluing
    the two ends of one arc closes a circle.  ``repaint`` is None or the
    pair of `_repaint`.  Returns (slots, colors, closed): the colors, after
    the repaint, of the circles closed.
    """
    s = 4 * x
    s0, s1, s2, s3 = slots[s : s + 4]
    new_slots = slots[:s] + slots[s + 4 :]
    if a_pairing:
        p, q, r, t = s0, s1, s2, s3
    else:
        p, q, r, t = s0, s3, s1, s2
    if repaint is not None:
        colors = colors.replace(*repaint)

    closed = b""
    if p == q:
        closed = colors[p : p + 1]
    else:
        new_slots = new_slots.replace(_BYTE[q], _BYTE[p])
        if r == q:
            r = p
        if t == q:
            t = p
    if r == t:
        closed += colors[r : r + 1]
    else:
        new_slots = new_slots.replace(_BYTE[t], _BYTE[r])
    return new_slots, colors, closed


def _smooth(slots, colors, loops, x, x_type2):
    """`_children` with the colors of each child's loops: a list of
    ``(slots, colors, loops, sign, apow, dpow)``.

    ``loops`` holds colors sorted, as a multiset.  A delta branch repaints
    them as it repaints the arcs, and the circles the smoothing closed join
    them.
    """
    out = []
    for c_slots, c_colors, closed, sign, apow, dpow in _children(slots, colors, x, x_type2):
        c_loops = loops
        if dpow:
            c_loops = c_loops.replace(*_repaint(slots, colors, x))
        if dpow or closed:
            c_loops = bytes(sorted(c_loops + closed))
        out.append((c_slots, c_colors, c_loops, sign, apow, dpow))
    return out


def _canonical(slots, colors):
    """Relabel live arcs by first appearance; return (slots, colors), the
    colors those of the live arcs in their new order.

    Every live arc occurs twice among the slots, so the slots take two
    thirds of ``slots + colors`` and no two states share that key.
    """
    order = bytes(dict.fromkeys(slots))
    return (
        slots.translate(bytes.maketrans(order, _RANGE[: len(order)])),
        order.translate(colors.ljust(256, b"\0")),
    )


def _memo_walk(root, state, expand):
    """Walk a resolution tree as a DAG; return the histogram of its leaves
    as a flat list [tag, apow, dpow, count, ...] without zero counts.

    ``root`` keys ``state``, and equal keys must stand for isomorphic
    subtrees.  ``expand(state)`` returns a leaf's tag, an int, or the
    state's children as ``(key, state, sign, apow, dpow, dtag)``: the
    branch weight sign * A^apow * delta^dpow and a shift of the tags below.
    A leaf reached by a path counts once at its tag plus the path's dtags,
    with the product of the path's weights.

    Two passes.  The first expands each key once, depth-first, numbers the
    states in post-order and keeps only their edges: ``(child, sign, apow,
    dpow, dtag)`` tuples, or the leaf's tag.  The second visits the states
    in reverse post-order, a topological order with the root first.  Each
    state then holds the histogram ``{(dtags, apow, dpow): count}`` of its
    paths from the root, complete since its parents came before; it pushes
    that, shifted by each edge, into its children, or into the output at a
    leaf, and is freed.  Each histogram is thus merged once per out-edge
    and lives only from its first parent's visit to its own.  Edges and
    histogram keys are short tuples; CPython keeps up to 2000 freed tuples
    of each length below 20 for reuse, so a walk of any size leaves at
    most a few hundred KB behind.
    """
    index = {}
    edges = []
    # Stack entries: (key, state, None) expands a state;
    # (key, None, kids) numbers it once its children are numbered.
    stack = [(root, state, None)]
    while stack:
        key, state, kids = stack.pop()
        if kids is not None:
            index[key] = len(edges)
            edges.append([(index[c[0]], *c[2:]) for c in kids])
            continue
        if key in index:
            continue
        kids = expand(state)
        if type(kids) is int:
            index[key] = len(edges)
            edges.append(kids)
            continue
        stack.append((key, None, kids))
        for c in kids:
            if c[0] not in index:
                stack.append((c[0], c[1], None))
    del index  # the push reads indices only; free the keys first

    paths = [None] * len(edges)
    paths[-1] = {(0, 0, 0): 1}
    out = {}
    for i in range(len(edges) - 1, -1, -1):
        hist, paths[i] = paths[i], None
        kids = edges[i]
        if type(kids) is int:
            for (t, a, d), count in hist.items():
                group = (t + kids, a, d)
                out[group] = out.get(group, 0) + count
            continue
        for child, sign, apow, dpow, dtag in kids:
            acc = paths[child]
            if acc is None:
                acc = paths[child] = {}
            for (t, a, d), count in hist.items():
                if count:
                    group = (t + dtag, a + apow, d + dpow)
                    acc[group] = acc.get(group, 0) + sign * count
    flat = []
    for group, count in out.items():
        if count:
            flat += group
            flat.append(count)
    return flat


def resolve_sum(slots, colors, loops, seed=-1):
    """Resolve completely; return {(apow, dpow, k): signed leaf count}.

    `_memo_walk` over canonical states (`_canonical`), tagging each path
    with the circles its smoothings closed; a leaf adds its components.
    """

    def expand(state):
        slots, colors = state
        n = len(slots) >> 2
        x, x_type2 = _pick(slots, colors, n, seed)
        if x < 0:
            return _leaf(slots, colors, 0, n, 1, 0, 0)[0]
        children = []
        for c_slots, c_colors, closed, sign, apow, dpow in _children(slots, colors, x, x_type2):
            child = _canonical(c_slots, c_colors)
            children.append((child[0] + child[1], child, sign, apow, dpow, len(closed)))
        return children

    root = _canonical(bytes(slots), bytes(colors))
    it = iter(_memo_walk(root[0] + root[1], root, expand))
    return {(apow, dpow, k + len(loops)): count for k, apow, dpow, count in zip(it, it, it, it)}


def _walk(slots, colors, loops, seed):
    """Walk the resolution tree of a state depth-first; yield every node in
    preorder as ``(parent, (sign, apow, dpow), slots, colors, loops, x)``.

    ``parent`` is the index of the parent's yield (None at the root), the
    triple is the weight sign * A^apow * delta^dpow of the branch from the
    root, ``loops`` holds the sorted colors of the state's loops (see
    `_smooth`) and x is the pick, -1 at a leaf.  Under a seed the state
    is relabelled by first appearance before its pick, as the draw reads
    it.  Children are smoothed only when the generator resumes after their
    parent.
    """
    # Stack entries: (parent, weight, slots, colors, loops).
    stack = [(None, (1, 0, 0), slots, colors, loops)]
    node = 0
    while stack:
        parent, weight, slots, colors, loops = stack.pop()
        if seed >= 0:
            slots, colors = _canonical(slots, colors)
        x, x_type2 = _pick(slots, colors, len(slots) >> 2, seed)
        yield parent, weight, slots, colors, loops, x
        if x >= 0:
            sign, apow, dpow = weight
            # Pushed in reverse so that children pop in the kernels' order.
            for c_slots, c_colors, c_loops, c_sign, c_apow, c_dpow in reversed(
                _smooth(slots, colors, loops, x, x_type2)
            ):
                stack.append(
                    (node, (sign * c_sign, apow + c_apow, dpow + c_dpow), c_slots, c_colors, c_loops)
                )
        node += 1


def _leaf(slots, colors, loop_count, n, sign, apow, dpow):
    parent = list(range(len(colors)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for x in range(n):
        ra, rb = find(slots[4 * x]), find(slots[4 * x + 2])
        if ra != rb:
            parent[rb] = ra
        ra, rb = find(slots[4 * x + 1]), find(slots[4 * x + 3])
        if ra != rb:
            parent[rb] = ra

    k = loop_count + len({find(arc) for arc in slots})
    return (k, n, sign, apow, dpow)
