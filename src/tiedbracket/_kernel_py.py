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
smoothing need not relabel: it joins the partners of the slots it glues,
deletes the crossing and lowers the crossing indices above it with one
`bytes.translate` (`_SHIFT`).  Both kernels refuse, with the same
TypeError or ValueError, arguments that are no such key (`_check`): byte
crossing indices and the bit fields of `_memo_walk` bound every walk at
MAX_CROSSINGS = 127 crossings.  A non-negative `seed` requests a seeded
order, and `seed = -1` the default one.  One expander, `_expander`,
defines the states of every walk, `resolve_sum`'s and the engine's
diagram walks (`engine._states`) alike: it picks the crossing to smooth,
smooths it and returns the children, or a leaf's tag.  `_components`
counts a leaf's components, for `resolve_sum`'s k and for the summaries
of the AJ-state table, which the engine builds from the leaf keys, and
`_arcs` names a leaf's arcs again, for the leaf diagrams of
`resolution_tree`.

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
order, else the first same-color one.  A seed draws among the L illegal
crossings, in stored order.  A walk mixes its seed once, by one
splitmix64 step (`_mix`, which takes the seed modulo 2^64); each state
XORs the CRC-32 of its key's first 8n bytes, its partners, into that
and multiplies by 0x9E3779B97F4A7C15 modulo 2^64, and bits 32-63 of the
product, times L and shifted right by 32, index the pick.  The multiply
carries the CRC into the bits that pick: XOR alone would leave them the
seed's, and under one seed every state of L illegal crossings would pick
the same one.  Colors stay out of the draw, so a walker of
`TiedDiagram`s, which renumbers colors after each merge, draws the same
values (the tests keep one as the reference of the engine's tree walk).
Every resolution tree gives the same value, so a seeded tree need only
be some valid tree, not one drawn from a sequential random stream.

A walk's states are defined once, by ``expand(key)``: a leaf's tag, an
int, or the state's children as ``(key, shift, sign, drop)``, where
``shift`` packs the branch weight sign * A^apow * delta^dpow and the
change ``dtag`` of the tags below into one int, ``(dtag << _TAG) + (apow
<< _APOW) + dpow``, in the bit fields of `_memo_walk`'s groups, so that a
walk adds it as it is.  `_expander(seed, leaf, layout)` builds it, with a
``leaf`` that gives a leaf key's tag and a ``layout`` of the tags that
sets each child's dtag: `resolve_sum` counts circles in its tags and
records no merges (`_COUNT`); the AJ-state table keeps a loop field for
each color and the color merges of the delta branches (`engine._states`).
Two drivers walk it.  The memo loop `_memo_walk` walks the tree as a DAG
under every seed, in one pass in falling complexity (`_rank`): the
paper's (crossings, illegal crossings), which every smoothing lowers, by
the ``drop`` that the branch already knows, so the walk ranks no key
itself.  It takes each key once, when all its parents have passed it the
histogram of its paths from the root, (tag, apow, dpow) with counts; it
expands the key and passes that histogram on to the children, shifted by
each child's shift, and forgets the key.  A child with one parent shares
that parent's histogram with a pending shift and sign instead of a copy.
A leaf adds its own tag: for `resolve_sum` its components, which give k.
A histogram's groups are packed into one int each, in bit fields that
hold any walk within MAX_CROSSINGS, where |apow| and dpow stay at most
MAX_CROSSINGS.  It returns the leaves' histogram as a dict keyed (apow,
dpow, tag), which for `resolve_sum` is the compiled kernel's (apow, dpow,
k).  The tree loop `_tree_walk` yields every node of the tree in
preorder, expanding each key once too, but visiting it again on every
path; it decodes the packed shifts as `_memo_walk` decodes its output
(`_unpack`).  `resolve_leaves` is `resolve_sum`'s tree without the memo:
it lists every leaf in depth-first order.  The engine's AJ-state table
(`resolve`, on `_memo_walk`) and its `resolution_tree` (behind
``tiedbracket tree``, on `_tree_walk`) run the same two drivers over the
same keys, whose tags also carry the colors of the paths' loops.  In
every walk a ``dtag`` is an int that the drivers add to the tags below:
what a color merge does to the loops is the engine's to resolve, once
per leaf.  Neither the engine nor the compiled kernel needs a leaf list:
the benchmark replays `resolve_leaves` to count leaves, until a counter
of `resolve_sum` does that.
"""

# binascii is always built; zlib, whose crc32 is the same, is optional.
from binascii import crc32
from itertools import compress
from operator import eq, itemgetter, le

# Crossing indices are bytes in the keys, and `_rank` counts illegal
# crossings below 128.
MAX_CROSSINGS = 127

_MASK64 = (1 << 64) - 1
_RANGE = bytes(range(256))
# _SHIFT[x] lowers the crossing indices above x by one (`bytes.translate`).
_SHIFT = [_RANGE[: x + 1] + _RANGE[x:255] for x in range(MAX_CROSSINGS)]
# The kernels' argument check (`_check`), word for word.
_BAD_ARGUMENTS = (
    f"kernel takes a key of 10 bytes a crossing, at most {MAX_CROSSINGS} crossings, "
    "each slot paired with another slot of its color"
)
# The bit fields of `_memo_walk`'s histogram groups and of a child's
# shift: dpow, apow, tag.  A group holds apow + 256, so that it is never
# negative (`_ORIGIN`).
_APOW = 9
_TAG = 18
_ORIGIN = 256 << _APOW
# The slot pairs that the two smoothings of each crossing x glue: the
# A-smoothing {s0-s1, s2-s3}, the other {s0-s3, s1-s2}.
_GLUES = [(((s, s + 1), (s + 2, s + 3)), ((s, s + 3), (s + 1, s + 2))) for s in range(0, 4 * MAX_CROSSINGS, 4)]
# The shifts of a type-1 crossing's branches, A and 1/A.
_TYPE1 = (1 << _APOW, -1 << _APOW)
# The layout of `resolve_sum`'s tags (`_expander`): a circle of any color
# adds 1, and a color merge adds nothing.
_COUNT = ((1,) * 256, (0,) * 256)


def _unpack(group):
    """A packed group of `_memo_walk`, or a shift plus _ORIGIN, as (apow,
    dpow, tag)."""
    return (group >> _APOW & 511) - 256, group & 511, group >> _TAG


def _mix(state):
    """One splitmix64 step; returns (new_state, output).  `_expander`'s
    seeded draw mixes its seed with it once a walk."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return state, z


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


def _expander(seed, leaf, layout):
    """The states of a walk, as the ``expand`` of `_memo_walk` and
    `_tree_walk`: ``leaf(key)``, an int, at a leaf, else the children of
    the pick, in the kernels' order: two (the flipped crossing), zero,
    one; or A, 1/A.

    The pick: seed < 0 is the default order, the first mixed-color
    illegal crossing, else the first same-color one.  Otherwise it is the
    illegal crossing, in stored order, that the state's draw indexes (see
    the module's docstring).

    Each child is (key, shift, sign, drop), as `_memo_walk` takes it: its
    key; the branch weight sign * A^apow * delta^dpow and the tag change
    ``dtag`` packed into ``shift``; and the amount by which the rank
    (`_rank`) falls.  ``layout`` is ``(circles, merges)``, two sequences
    indexed by color: a circle of color i closed by the smoothing adds
    ``circles[i]`` to dtag, and a delta branch, which merges the under
    strand's color j into the over strand's i, adds ``(i + 1) *
    merges[j]``.  Every circle a smoothing closes takes the over strand's
    color.  The A-smoothing glues {s0-s1, s2-s3} of crossing x, the
    others {s0-s3, s1-s2}.  Gluing two slots joins their partners, or
    closes a circle when they are each other's partners; then x's four
    slots go and the crossings above x move down by one.  The flipped
    crossing is x turned by one slot, with its two colors swapped: x
    turns legal, a drop of 1.  A type-1 smoothing removes the illegal x
    and changes no color, a drop of 129.  The delta branches repaint the
    under strand's color j as the over strand's i, and the repaint may
    change which other crossings are illegal: they drop by 128 plus the
    illegal crossings before, less those after.
    """
    circles, merges = layout
    ordered = seed < 0
    mixed = _mix(seed)[1]

    def expand(key):
        n = len(key) // 10
        m = 4 * n
        # each slot's partner: its crossing, its slot number; each crossing's strand colors
        crossings, slots, colors = key[:m], key[m : 2 * m], key[2 * m :]
        under, over = colors[:n], colors[n:]
        x_type2 = False
        if ordered:
            if under == over:  # every crossing is illegal, of type 1
                x = 0 if n else -1
            else:
                x = -1
                for y, (cu, co) in enumerate(zip(under, over)):
                    if co < cu:
                        x, x_type2 = y, True
                        break
                    if co == cu and x < 0:
                        x = y
            if x < 0:
                return leaf(key)
        else:
            illegal = range(n) if under == over else list(compress(range(n), map(le, over, under)))
            if not illegal:
                return leaf(key)
            # the draw: bits 32-63 of the product, scaled to the number of illegal crossings
            z = (crc32(key[: 2 * m]) ^ mixed) * 0x9E3779B97F4A7C15 >> 32 & 0xFFFFFFFF
            x = illegal[z * len(illegal) >> 32]
            x_type2 = over[x] < under[x]
        s = 4 * x
        circle = circles[over[x]] << _TAG
        out = []
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
            out.append((b"".join((c, q, flipped)), 0, -1, 1))
            n_illegal = sum(map(le, over, under))
            colors = colors.replace(j, i)
            delta = 1 + ((i[0] + 1) * merges[j[0]] << _TAG)
            weights = (delta, delta)
        else:
            weights = _TYPE1
        colors = colors[:x] + colors[x + 1 : n + x] + colors[n + x + 1 :]
        drop = 128 + n_illegal - sum(map(le, colors[n - 1 :], colors[: n - 1])) if x_type2 else 129
        shift = _SHIFT[x]
        for pairs, weight in zip(_GLUES[x], weights):
            c, q = bytearray(crossings), bytearray(slots)
            for a, b in pairs:
                ca = c[a]
                qa = q[a]
                ta = 4 * ca + qa
                if ta == b:  # a circle closes
                    weight += circle
                    continue
                cb = c[b]
                qb = q[b]
                c[ta] = cb
                q[ta] = qb
                tb = 4 * cb + qb
                c[tb] = ca
                q[tb] = qa
            del c[s : s + 4]
            del q[s : s + 4]
            out.append((b"".join((c.translate(shift), q, colors)), weight, 1, drop))
        return out

    return expand


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
    `_expander` gives."""
    n = len(key) // 10
    return n * 128 + sum(map(le, key[9 * n :], key[8 * n : 9 * n]))


def _memo_walk(root, expand, tag=0):
    """Walk a resolution tree as a DAG from the key ``root``; return the
    histogram ``{(apow, dpow, tag): count}`` of its leaves, without zero
    counts.

    A state is its key, and equal keys must stand for isomorphic subtrees.
    ``expand(key)`` returns a leaf's tag, an int, or the state's children
    as ``(key, shift, sign, drop)``: the branch weight sign * A^apow *
    delta^dpow and the int ``dtag`` added to the tags below, packed as
    ``shift = (dtag << _TAG) + (apow << _APOW) + dpow``, and the amount,
    above 0, by which the state's rank exceeds the child's.  A path's tag
    starts at ``tag``, the root's, and adds each dtag on it.  A leaf
    reached by a path counts once at its tag plus the path's tag, with
    the product of the path's weights.  The rank is an int that falls
    along every edge, as `_rank` does for the kernels' keys, where a
    smoothing removes a crossing or, flipping one, makes it legal; the
    walk places the root at 0 and each child at its parent's rank less
    the drop, so every path to a state must give it the same rank.

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
    decoded once (`_unpack`).  This is exact while every path keeps 0 <=
    dpow < 512 and -256 <= apow < 256; a walk's tags may take any int.  A
    smoothing of the kernels removes a crossing or adds nothing to apow
    and dpow, so their walks, of at most MAX_CROSSINGS = 127 crossings,
    keep |apow| + dpow <= 127.
    """
    paths = {root: ({(tag << _TAG) + _ORIGIN: 1}, 0, 1)}
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
            for child, c_shift, c_sign, drop in kids:
                c_shift += shift
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
    return {_unpack(g): count for g, count in out.items() if count}


def _tree_walk(root, expand, tag=0):
    """Walk the tree that `_memo_walk` walks as a DAG, from the key
    ``root``, node by node; yield every node in preorder as ``(parent,
    edge, weight, dtags, key, kids)``.

    ``expand`` and ``tag`` are `_memo_walk`'s.  ``parent`` is the index of
    the parent's yield (None at the root), ``edge`` the weight (sign,
    apow, dpow) of the branch from the parent (None at the root),
    ``weight`` the product of the weights on the path from the root and
    ``dtags`` the path's tag: ``tag`` plus each dtag on the path, and
    ``kids`` what ``expand(key)`` returned: a leaf's tag or the
    children.  A path's weight and tag are packed as `_memo_walk`'s
    groups and decoded at each node (`_unpack`).  Each distinct key is
    expanded once, when the walk first reaches it, and its children are
    kept until the walk ends.
    """
    expanded = {}
    # Stack entries: (parent, edge, sign, packed path, key).
    stack = [(None, None, 1, (tag << _TAG) + _ORIGIN, root)]
    node = 0
    while stack:
        parent, edge, sign, path, key = stack.pop()
        kids = expanded.get(key)
        if kids is None:
            kids = expanded[key] = expand(key)
        apow, dpow, dtags = _unpack(path)
        yield parent, edge, (sign, apow, dpow), dtags, key, kids
        if type(kids) is not int:
            # Pushed in reverse so that children pop in the kernels' order.
            for child, shift, c_sign, _ in reversed(kids):
                edge = (c_sign, *_unpack(shift + _ORIGIN)[:2])
                stack.append((node, edge, sign * c_sign, path + shift, child))
        node += 1


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
    return _memo_walk(key, _expander(seed, _components, _COUNT))


def resolve_leaves(key, seed=-1):
    """Resolve completely; return [(k, crossings_left, sign, apow, dpow)]
    in depth-first leaf order: `resolve_sum`'s tree without the memo."""
    _check(key, seed)
    walk = _tree_walk(key, _expander(seed, _components, _COUNT))
    return [
        (dtags + tag, len(key) // 10, *weight)
        for _, _, weight, dtags, key, tag in walk
        if type(tag) is int
    ]
