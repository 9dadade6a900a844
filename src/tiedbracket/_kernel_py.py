"""Pure-Python resolution kernel.

The spec of the compiled kernel (`_kernel_c`): both expose `resolve_sum`,
run the same memo walk over the same keys and must produce identical
results, seeded picks included.  The engine picks one at import time; see
`_backend`.

Diagrams arrive pre-encoded: `slots` is a flat list of 4*n arc ids (dense,
0-based, at most MAX_KEY_ARCS arcs), each in two slots, `colors` maps arc
id -> non-negative color (below 256; the engine numbers arc colors in
order, so they stay below the number of arcs), and only the length of
`loops`, the free loops, matters.  Both kernels raise the same ValueError
for arguments not shaped like a diagram (`_key`).  A non-negative `seed`
requests a seeded order, and `seed = -1` the default one.

Inside, a state is its key, as in the compiled kernel: one `bytes` of 10
bytes a crossing, which names no arc.  Slot 4c + k (k = 0..3) of the key's
crossings lies on one arc with another slot, its partner 4c' + k'; the key
holds c' for each slot, then k' for each slot, then the color of each
crossing's under strand (slots 0 and 2), then of its over strand (slots 1
and 3).  That is one state per slot structure and coloring, as the
slots with their arcs relabelled by first appearance and the colors of
those arcs would be, but a smoothing need not relabel: `_children` joins
the partners of the slots it glues, deletes the crossing and lowers the
crossing indices above it with one `bytes.translate` (`_SHIFT`).  The
helpers below serve `resolve_sum` and the engine's diagram walks
(`engine._states`) alike: `_key` builds a diagram's key, `_pick` chooses
the crossing to smooth from the strand colors (`_strands`), `_children`
smooths it, repainting the colors for the delta branches, and returns
each child's key with the number of circles the smoothing closed,
`_components` counts a leaf's components and `_arcs` names a leaf's
arcs again.  Byte crossing indices bound every walk of both kernels: at
most 127 crossings, fewer than 256 arcs (MAX_KEY_ARCS).

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

A node's pick depends only on its state: the key.  The default order
(`seed = -1`) takes the first mixed-color illegal crossing in stored
order, else the first same-color one.  A seed takes the illegal crossing,
in stored order, at `_draw(seed, partners)` modulo their number, where
partners is the key's first 8n bytes.  Colors stay out of the draw, so a
walker of `TiedDiagram`s, which renumbers colors after each merge, draws
the same values (the tests keep one as the reference of the engine's tree
walk).  Every resolution tree gives the same value, so a seeded tree need
only be some valid tree, not one drawn from a sequential random stream.

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

# Arc labels are bytes in the arguments, crossing indices bytes in the keys.
MAX_KEY_ARCS = 255

_MASK64 = (1 << 64) - 1
# Below 2^56, so that a C twin can read the partners byte by byte in a u64.
_DRAW_MOD = (1 << 56) - 5
_RANGE = bytes(range(256))
# _SHIFT[x] lowers the crossing indices above x by one (`bytes.translate`).
_SHIFT = [_RANGE[: x + 1] + _RANGE[x:255] for x in range(MAX_KEY_ARCS // 2)]
# The kernels' argument check, word for word; C ints bound the loops.
_MAX_LOOPS = (1 << 30) - 1
_BAD_ARGUMENTS = (
    "kernel takes 4 slots per crossing, each arc of the colors in two slots or none "
    f"and each strand of one color, at most {MAX_KEY_ARCS // 2} crossings, "
    f"{MAX_KEY_ARCS} arcs and {_MAX_LOOPS} loops"
)
# The bit fields of `_memo_walk`'s histogram groups: dpow, apow, tag.
_APOW = 9
_TAG = 18


def _smoothings(a_weight, weight):
    """The two smoothings of each crossing x, as (the two slot pairs they
    glue, sign, apow, dpow): the A-smoothing glues {s0-s1, s2-s3}, the
    other {s0-s3, s1-s2}, with branch weights sign * A^apow * delta^dpow."""
    return [
        ((((s, s + 1), (s + 2, s + 3)), *a_weight), (((s, s + 3), (s + 1, s + 2)), *weight))
        for s in range(0, 4 * (MAX_KEY_ARCS // 2), 4)
    ]


# Those of a type-1 crossing, A and 1/A; the delta branches of a type-2 one.
_TYPE1 = _smoothings((1, 1, 0), (1, -1, 0))
_TYPE2 = _smoothings((1, 0, 1), (1, 0, 1))


def _mix(state):
    """One splitmix64 step; returns (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return state, z


def _draw(seed, partners):
    """The seeded draw of a state: its key's partner bytes read as a
    big-endian integer mod _DRAW_MOD and XORed into the seed, then one
    splitmix64 step (which takes the seed mod 2^64)."""
    return _mix(seed ^ int.from_bytes(partners, "big") % _DRAW_MOD)[1]


def _strands(key):
    """The colors of the under strands and of the over strands of a key's
    crossings, as two `bytes`, one byte a crossing."""
    n = len(key) // 10
    return key[8 * n : 9 * n], key[9 * n :]


def _arcs(key):
    """The slots of a key with their arcs labelled by first appearance,
    and the color of each arc, as two lists."""
    n = len(key) // 10
    m = 4 * n
    slots = [-1] * m
    colors = []
    for s in range(m):
        if slots[s] < 0:
            slots[s] = slots[4 * key[s] + key[m + s]] = len(colors)
            # under strands at slots 0 and 2, over strands at 1 and 3
            colors.append(key[8 * n + n * (s & 1) + (s >> 2)])
    return slots, colors


def _pick(key, seed):
    """The pick of a state; returns (x, is_type2), x = -1 for a leaf.

    seed < 0 is the default order: the first mixed-color illegal crossing,
    else the first same-color one.  Otherwise the pick is the illegal
    crossing, in stored order, at the state's draw modulo their number.
    """
    under, over = _strands(key)
    n = len(under)
    if under == over:  # one color: every crossing is illegal, of type 1
        if not n:
            return -1, False
        return (0 if seed < 0 else _draw(seed, key[: 8 * n]) % n), False
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
    x = illegal[_draw(seed, key[: 8 * n]) % len(illegal)]
    return x, over[x] < under[x]


def _children(key, x, x_type2):
    """The children of smoothing crossing x, in the kernels' order: two
    (the flipped crossing), zero, one; or A, 1/A.

    Each child is (key, sign, apow, dpow, closed), as `_memo_walk`'s
    ``expand`` returns it: its key, the branch weight sign * A^apow *
    delta^dpow and the number of circles the smoothing closed, all of the
    over strand's color.  The A-smoothing glues {s0-s1, s2-s3} of
    crossing x, the others {s0-s3, s1-s2}.  Gluing two slots joins their
    partners, or closes a circle when they are each other's partners;
    then x's four slots go and the crossings above x move down by one.
    The flipped crossing is x turned by one slot, with its two colors
    swapped.  The delta branches repaint the under strand's color j as
    the over strand's i, so a circle closes in color i either way.
    """
    n = len(key) // 10
    m = 4 * n
    s = 4 * x
    # each slot's partner: its crossing, its slot number; each crossing's strand colors
    crossings, slots, colors = key[:m], key[m : 2 * m], key[2 * m :]
    out = []
    smoothings = _TYPE1
    if x_type2:
        c, q = bytearray(crossings), bytearray(slots)
        for k in range(4):  # new slot k is old slot k + 1; old slot j of x, new j - 1
            o = s + (k + 1) % 4
            t = 4 * crossings[o] + slots[o]
            if t >> 2 == x:
                t = s + (t - 1 & 3)
            else:
                q[t] = k
            c[s + k] = t >> 2
            q[s + k] = t & 3
        j, i = colors[x : x + 1], colors[n + x : n + x + 1]
        flipped = colors[:x] + i + colors[x + 1 : n + x] + j + colors[n + x + 1 :]
        out.append((b"".join((c, q, flipped)), -1, 0, 0, 0))
        colors = colors.replace(j, i)
        smoothings = _TYPE2
    colors = colors[:x] + colors[x + 1 : n + x] + colors[n + x + 1 :]
    shift = _SHIFT[x]
    for pairs, sign, apow, dpow in smoothings[x]:
        c, q = bytearray(crossings), bytearray(slots)
        closed = 0
        for a, b in pairs:
            ta = 4 * c[a] + q[a]
            if ta == b:
                closed += 1
                continue
            tb = 4 * c[b] + q[b]
            c[ta] = c[b]
            q[ta] = q[b]
            c[tb] = c[a]
            q[tb] = q[a]
        del c[s : s + 4]
        del q[s : s + 4]
        out.append((b"".join((c.translate(shift), q, colors)), sign, apow, dpow, closed))
    return out


def _key(slots, colors):
    """The key of a diagram given as arc ids and arc colors, lists of
    ints.  ValueError (`_BAD_ARGUMENTS`) unless the slots come in fours,
    each arc of ``colors`` lies in two slots or none, and the two slots
    of each strand have one color, as the compiled kernel checks them."""
    slots, colors = bytes(slots), bytes(colors)
    m = len(slots)
    key = bytearray(2 * m)
    first = {}
    for s, a in enumerate(slots):
        t = first.pop(a, None)
        if t is None:
            first[a] = s
        else:
            key[s], key[m + s], key[t], key[m + t] = t >> 2, t & 3, s >> 2, s & 3
    bad = m % 4 or len(colors) > MAX_KEY_ARCS or first or 2 * len(set(slots)) != m
    if not bad:
        table = colors.ljust(256, b"\0")
        under, over, under2, over2 = (slots[k::4].translate(table) for k in range(4))
        bad = max(slots, default=-1) >= len(colors) or under != under2 or over != over2
    if bad:
        raise ValueError(_BAD_ARGUMENTS)
    return bytes(key) + under + over


def _components(key):
    """The components of a leaf: each walks from a slot along its strand
    to the slot across and on to that slot's partner, until it closes."""
    m = len(key) // 10 * 4
    seen = bytearray(m)
    k = 0
    for s in range(m):
        if not seen[s]:
            k += 1
            while not seen[s]:
                s ^= 2
                seen[s] = seen[s ^ 2] = 1
                s = 4 * key[s] + key[m + s]
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
        x, x_type2 = _pick(key, seed)
        if x < 0:
            return _components(key)
        return _children(key, x, x_type2)

    return expand


def resolve_sum(slots, colors, loops, seed=-1):
    """Resolve completely; return {(apow, dpow, k): signed leaf count}.

    `_memo_walk` over the keys of `_key`, tagging each path with the
    circles its smoothings closed; a leaf adds its components.
    """
    if len(loops) > _MAX_LOOPS:
        raise ValueError(_BAD_ARGUMENTS)
    groups = _memo_walk(_key(slots, colors), _expander(seed))
    return {(apow, dpow, k + len(loops)): count for (k, apow, dpow), count in groups.items()}


def resolve_leaves(slots, colors, loops, seed=-1):
    """Resolve completely; return [(k, crossings_left, sign, apow, dpow)]
    in depth-first leaf order: `resolve_sum`'s tree without the memo."""
    walk = _tree_walk(_key(slots, colors), _expander(seed))
    return [
        (len(loops) + dtags + tag, len(key) // 10, *weight)
        for _, _, weight, dtags, key, tag in walk
        if type(tag) is int
    ]
