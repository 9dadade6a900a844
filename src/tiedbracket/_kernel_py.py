"""Pure-Python resolution kernel.

The spec of the compiled kernel (`_kernel_c`): both expose `resolve_sum`,
run the same memo walk over the same keys and must produce identical
results, seeded picks included.  The engine picks one at import time; see
`_backend`.

A diagram arrives as its key alone, which the engine builds once from the
strand map (`engine._encode`): a free loop only multiplies the bracket by
a loop factor, so the engine adds the loops to each leaf's k.  A state is
its key in both kernels: one `bytes` of 10 bytes a crossing,
which names no arc.  Slot 4c + k (k = 0..3) of the key's
crossings lies on one arc with another slot, its partner 4c' + k'; the key
holds c' for each slot, then k' for each slot, then the color of each
crossing's under strand (slots 0 and 2), then of its over strand (slots 1
and 3).  That is one state per slot structure and coloring, and a
smoothing need not relabel: `_children` joins the partners of the slots it
glues, deletes the crossing and lowers the crossing indices above it with
one `bytes.translate` (`_SHIFT`).  Both kernels refuse, with the same
TypeError or ValueError, arguments that are no such key (`_check`): byte
crossing indices and the bit fields of `_memo_walk` bound every walk at
MAX_CROSSINGS = 127 crossings.  A non-negative `seed` requests a seeded
order, and `seed = -1` the default one.  The helpers below serve
`resolve_sum` and the engine's diagram walks (`engine._states`) alike:
`_pick` chooses the crossing to smooth from the strand colors
(`_strands`), `_children` smooths it, repainting the colors for the delta
branches, and returns each child's key with the number of circles the
smoothing closed and the fall of its rank (`_rank`), `_components` counts
a leaf's components and `_arcs` names a leaf's arcs again.

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
int, or the state's children as ``(key, sign, apow, dpow, dtag, drop)``.
For `resolve_sum` that is `_expander(seed)`, and two drivers walk it.
The memo loop `_memo_walk` walks the tree as a DAG under every seed, in
one pass in falling complexity (`_rank`): the paper's (crossings, illegal
crossings), which every smoothing lowers, by the ``drop`` that the branch
already knows, so the walk ranks no key itself.  It takes each key
once, when all its parents have passed it the histogram of its paths
from the root, (circles closed, apow, dpow) with counts; it expands the
key and passes that histogram on to the children, shifted by the branch
weight and by the circles the smoothing closed, and forgets the key.  A
child with one parent shares that parent's histogram with a pending
shift and sign instead of a copy.  A leaf adds its own components to
give k.  A histogram's groups are packed into one int each, in bit fields
that hold any walk within MAX_CROSSINGS, where |apow| and dpow stay at
most MAX_CROSSINGS.  It returns the leaves' histogram as a dict.  The tree loop `_tree_walk` yields every node of
the tree in preorder, expanding each key once too, but visiting it
again on every path.  `resolve_leaves` is `resolve_sum`'s tree without the memo: it
lists every leaf in depth-first order.  The engine's AJ-state table, its
`resolution_tree` (behind ``tiedbracket tree``) and its ungrouped
`resolve` run the same two drivers over the engine's states, which add
the colors of the state's loops to each key.  Neither the engine nor the
compiled kernel needs a leaf list: the benchmark replays `resolve_leaves`
to count leaves, until a counter of `resolve_sum` does that.
"""

from operator import eq, itemgetter, le

# Crossing indices are bytes in the keys, and `_rank` counts illegal
# crossings below 128.
MAX_CROSSINGS = 127

_MASK64 = (1 << 64) - 1
# Below 2^56, so that a C twin can read the partners byte by byte in a u64.
_DRAW_MOD = (1 << 56) - 5
_RANGE = bytes(range(256))
# _SHIFT[x] lowers the crossing indices above x by one (`bytes.translate`).
_SHIFT = [_RANGE[: x + 1] + _RANGE[x:255] for x in range(MAX_CROSSINGS)]
# The kernels' argument check (`_check`), word for word.
_BAD_ARGUMENTS = (
    f"kernel takes a key of 10 bytes a crossing, at most {MAX_CROSSINGS} crossings, "
    "each slot paired with another slot of its color"
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
        for s in range(0, 4 * MAX_CROSSINGS, 4)
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

    Each child is (key, sign, apow, dpow, closed, drop), as `_memo_walk`'s
    ``expand`` returns it: its key, the branch weight sign * A^apow *
    delta^dpow, the number of circles the smoothing closed, all of the
    over strand's color, and the amount by which the rank (`_rank`) falls.
    The A-smoothing glues {s0-s1, s2-s3} of crossing x, the others
    {s0-s3, s1-s2}.  Gluing two slots joins their partners, or closes a
    circle when they are each other's partners; then x's four slots go
    and the crossings above x move down by one.  The flipped crossing is
    x turned by one slot, with its two colors swapped: x turns legal, a
    drop of 1.  A type-1 smoothing removes the illegal x and changes no
    color, a drop of 129.  The delta branches repaint the under strand's
    color j as the over strand's i, so a circle closes in color i either
    way, and the repaint may change which other crossings are illegal:
    they drop by 128 plus the illegal crossings before, less those after.
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
        out.append((b"".join((c, q, flipped)), -1, 0, 0, 0, 1))
        illegal = sum(map(le, colors[n:], colors[:n]))
        colors = colors.replace(j, i)
        smoothings = _TYPE2
    colors = colors[:x] + colors[x + 1 : n + x] + colors[n + x + 1 :]
    drop = 128 + illegal - sum(map(le, colors[n - 1 :], colors[: n - 1])) if x_type2 else 129
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
        out.append((b"".join((c.translate(shift), q, colors)), sign, apow, dpow, closed, drop))
    return out


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


def _rank(key):
    """The complexity of a state, (crossings, illegal crossings), as one
    int, n * 128 + illegal: each smoothing lowers it, by the drop that
    `_children` gives."""
    under, over = _strands(key)
    return len(under) * 128 + sum(map(le, over, under))


def _memo_walk(root, expand):
    """Walk a resolution tree as a DAG from the key ``root``; return the
    histogram ``{(tag, apow, dpow): count}`` of its leaves, without zero
    counts.

    A state is its key, and equal keys must stand for isomorphic subtrees.
    ``expand(key)`` returns a leaf's tag, an int, or the state's children
    as ``(key, sign, apow, dpow, dtag, drop)``: the branch weight sign *
    A^apow * delta^dpow, a shift of the tags below and the amount, above
    0, by which the state's rank exceeds the child's.  A leaf reached by a
    path counts once at its tag plus the path's dtags, with the product of
    the path's weights.  The rank is an int that falls along every edge,
    as `_rank` does for the kernels' keys, where a smoothing removes a
    crossing or, flipping one, makes it legal; the walk places the root at
    0 and each child at its parent's rank less the drop, so every path to
    a state must give it the same rank.

    One pass, in falling rank, which is a topological order with the root
    first.  ``paths`` maps each state met but not yet expanded to the
    histogram of its paths from the root, (dtags, apow, dpow) -> count,
    and ``ranks`` lists those states by rank.  The walk takes the states
    of the highest rank left; when it takes one, every parent has a higher
    rank and has pushed its paths, so the histogram is complete.  It pops
    that histogram, expands the state once, and pushes the histogram,
    shifted by each edge, into each child, or into the output at a leaf.
    No state comes back once taken, since every edge lowers the rank, so
    ``paths`` is the memo and a taken state is freed.

    Most states have one parent, so a push copies nothing until it must.
    A child met for the first time joins the list of its rank and holds
    its parent's histogram as ``(hist, shift, sign)``: its paths are those
    of ``hist``, each group shifted by ``shift`` and its count times
    ``sign``.  ``hist`` is a dict that no push writes again, as it belongs
    to a state already taken, so any number of states may share it, and
    down a chain of single parents the shifts add and the signs multiply.
    Only a second push into a state builds it a dict of its own, to which
    further pushes add.

    A histogram's groups are ints, dtags << _TAG | (apow + 256) << _APOW |
    dpow, so an edge shifts them by one addition and the output is
    decoded once.  This is exact while every path keeps 0 <= dpow < 512
    and -256 <= apow < 256; a walk's tags may take any int.  A smoothing
    of the kernels removes a crossing or adds nothing to apow and dpow,
    so their walks, of at most MAX_CROSSINGS = 127 crossings, keep
    |apow| + dpow <= 127.
    """
    paths = {root: ({256 << _APOW: 1}, 0, 1)}
    ranks = {0: [root]}
    out = {}
    while ranks:
        rank = max(ranks)
        for key in ranks.pop(rank):
            hist = paths.pop(key)
            if type(hist) is dict:
                shift, sign = 0, 1
            else:
                hist, shift, sign = hist
            kids = expand(key)
            if type(kids) is int:
                shift += kids << _TAG
                for group, count in hist.items():
                    group += shift
                    out[group] = out.get(group, 0) + sign * count
                continue
            for child, c_sign, apow, dpow, dtag, drop in kids:
                c_shift = shift + (dtag << _TAG) + (apow << _APOW) + dpow
                c_sign *= sign
                acc = paths.get(child)
                if acc is None:
                    paths[child] = (hist, c_shift, c_sign)
                    ranks.setdefault(rank - drop, []).append(child)
                    continue
                if type(acc) is tuple:
                    first, f_shift, f_sign = acc
                    acc = paths[child] = {g + f_shift: f_sign * n for g, n in first.items() if n}
                for group, count in hist.items():
                    if count:
                        group += c_shift
                        acc[group] = acc.get(group, 0) + c_sign * count
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
            for child, c_sign, c_apow, c_dpow, dtag, _ in reversed(kids):
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


def _check(key, seed):
    """Refuse what the kernels cannot take, as the compiled kernel does:
    TypeError unless ``key`` is bytes and ``seed`` an int; ValueError
    (`_BAD_ARGUMENTS`) unless the key has 10 bytes a crossing and at most
    MAX_CROSSINGS crossings, each slot's partner is another slot whose
    partner it is, and the two ends of each arc have one color."""
    for i, value, kind in ((1, key, bytes), (2, seed, int)):
        if not isinstance(value, kind):
            name = "None" if value is None else type(value).__name__
            raise TypeError(f"argument {i} must be {kind.__name__}, not {name}")
    n, rest = divmod(len(key), 10)
    m = 4 * n
    bad = rest or n > MAX_CROSSINGS
    if n and not bad:
        bad = max(key[:m]) >= n or max(key[m : 2 * m]) > 3
    if n and not bad:
        partner = [4 * c + k for c, k in zip(key[:m], key[m : 2 * m])]
        back = itemgetter(*partner)
        color = bytearray(m)  # the color of each slot's strand
        color[0::4] = color[2::4] = key[8 * n : 9 * n]
        color[1::4] = color[3::4] = key[9 * n :]
        slots = range(m)
        bad = any(map(eq, partner, slots)) or back(partner) != tuple(slots) or back(color) != tuple(color)
    if bad:
        raise ValueError(_BAD_ARGUMENTS)


def resolve_sum(key, seed=-1):
    """Resolve completely; return {(apow, dpow, k): signed leaf count}.

    `_memo_walk` from ``key``, tagging each path with the circles its
    smoothings closed; a leaf adds its components.  Arguments are checked
    as the compiled kernel checks them (`_check`).
    """
    _check(key, seed)
    groups = _memo_walk(key, _expander(seed))
    return {(apow, dpow, k): count for (k, apow, dpow), count in groups.items()}


def resolve_leaves(key, seed=-1):
    """Resolve completely; return [(k, crossings_left, sign, apow, dpow)]
    in depth-first leaf order: `resolve_sum`'s tree without the memo."""
    _check(key, seed)
    walk = _tree_walk(key, _expander(seed))
    return [
        (dtags + tag, len(key) // 10, *weight)
        for _, _, weight, dtags, key, tag in walk
        if type(tag) is int
    ]
