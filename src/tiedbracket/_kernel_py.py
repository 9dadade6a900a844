"""Pure-Python resolution kernel.

Hot path shared with the compiled kernel (`_kernel_c`): both expose the
same two functions and must produce identical results, including the
leaf order and the seeded picks.  The engine picks one at import time;
see `_backend`.

Diagrams arrive pre-encoded: `slots` is a flat list of 4*n arc ids (dense,
0-based, at most MAX_ARCS arcs), `colors` maps arc id -> non-negative
color (below 256 for the memo key; the engine numbers arc colors in
order, so they stay below MAX_ARCS), and only the length of `loops`, the
free loops, matters.  A non-negative `seed` requests a seeded order, and
`seed = -1` the default one.

Leaf weights are products of the branch labels A, 1/A, -1 and
delta = A + 1/A, so they compress to a triple (sign, apow, dpow).  The
aggregated form sums the leaves' signs per (apow, dpow, k).

No kernel tracks the colors of closed circles, because a leaf's color
count gamma follows from dpow.  The components of a diagram carry one
color each; a type-1 smoothing glues strands of one color and a circle it
closes keeps its color, so the set of colors is unchanged.  Only the two
delta branches of a type-2 crossing change colors: they repaint the under
strand's color j as the over strand's i, two distinct colors in use, so
each removes exactly one.  A leaf reached through dpow delta branches of
a diagram with m colors thus has gamma = m - dpow, which the engine
applies.

A node's pick depends only on its state: the live slots and their colors.
The default order (`seed = -1`) takes the first mixed-color illegal
crossing in stored order, else the first same-color one.  A seed takes
the illegal crossing, in stored order, at `_draw(seed, rel)` modulo their
number, where rel is the slots relabelled by first appearance.  Colors
stay out of the draw, so the engine's diagram walker, which renumbers
colors after each merge, draws the same values.  Every resolution tree
gives the same value, so a seeded tree need only be some valid tree, not
one drawn from a sequential random stream.

`resolve_sum` therefore walks the tree as a DAG under every seed: it keys
each state by rel and the colors of its arcs, and computes each key's
histogram of (apow, dpow, k) once, relative to the state: k leaves out
the loops counted above it.  Parents shift a child's
histogram by the branch weight and by the circles the smoothing closed.
The memo lives for one call.  `resolve_leaves`, which promises every leaf
in depth-first order, stays a tree walk.
"""

MAX_ARCS = 64

_MASK64 = (1 << 64) - 1
# Below 2^56, so that a C twin can read rel byte by byte in a u64.
_DRAW_MOD = (1 << 56) - 5


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
    in depth-first leaf order."""
    return list(_walk(slots, colors, len(loops), seed))


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
    return _mix(seed ^ int.from_bytes(bytes(rel), "big") % _DRAW_MOD)[1]


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


def _children(slots, colors, loop_count, x, x_type2, sign, apow, dpow):
    """The children of smoothing crossing x, in the kernels' order:
    two (the flipped crossing), zero, one; or A, 1/A."""
    if x_type2:
        i = colors[slots[4 * x + 1]]
        j = colors[slots[4 * x]]
        flipped = list(slots)
        s0, s1, s2, s3 = slots[4 * x : 4 * x + 4]
        flipped[4 * x : 4 * x + 4] = (s1, s2, s3, s0)
        return (
            (flipped, colors, loop_count, -sign, apow, dpow),
            _glue(slots, colors, loop_count, x, True, j, i, sign, apow, dpow + 1),
            _glue(slots, colors, loop_count, x, False, j, i, sign, apow, dpow + 1),
        )
    return (
        _glue(slots, colors, loop_count, x, True, -1, -1, sign, apow + 1, dpow),
        _glue(slots, colors, loop_count, x, False, -1, -1, sign, apow - 1, dpow),
    )


def _canonical(slots, colors):
    """Relabel live arcs by first appearance; return (slots, colors, key).

    The key is the relabelled slots followed by the colors of the live
    arcs.  Every live arc occurs twice among the slots, so the slots take
    two thirds of the key and no two states share one.
    """
    label = [-1] * len(colors)
    out = []
    live_colors = []
    for arc in slots:
        r = label[arc]
        if r < 0:
            r = label[arc] = len(live_colors)
            live_colors.append(colors[arc])
        out.append(r)
    return out, live_colors, bytes(out) + bytes(live_colors)


def resolve_sum(slots, colors, loops, seed=-1):
    """Resolve completely; return {(apow, dpow, k): signed leaf count}.

    The tree is walked as a DAG.  Each canonical state's histogram is a
    flat list [apow, dpow, k, count, ...] without zero counts, relative to
    the state: weight 1 and no loops counted yet.  Lists, not tuples:
    CPython keeps up to 2000 freed tuples of each length below 20 for
    reuse, so freeing a memo of short tuples would keep their memory for
    the rest of the process.
    """
    memo = {}
    slots, colors, root = _canonical(slots, colors)
    # Stack entries: (key, slots, colors, None) expands a state;
    # (key, None, None, kids) sums its children, which are done by then.
    stack = [(root, slots, colors, None)]
    while stack:
        key, slots, colors, kids = stack.pop()
        if kids is not None:
            acc = {}
            for c_key, sign, apow, dpow, closed in kids:
                it = iter(memo[c_key])
                for a, d, k, count in zip(it, it, it, it):
                    group = (a + apow, d + dpow, k + closed)
                    acc[group] = acc.get(group, 0) + sign * count
            flat = []
            for group, count in acc.items():
                if count:
                    flat += group
                    flat.append(count)
            memo[key] = flat
            continue
        if key in memo:
            continue
        n = len(slots) >> 2
        x, x_type2 = _pick(slots, colors, n, seed)
        if x < 0:
            memo[key] = [0, 0, _leaf(slots, colors, 0, n, 1, 0, 0)[0], 1]
            continue
        # Children come back with the branch weight and the circles their
        # smoothing closed, relative to this state.
        kids = []
        pending = []
        for c_slots, c_colors, closed, sign, apow, dpow in _children(
            slots, colors, 0, x, x_type2, 1, 0, 0
        ):
            c_slots, c_colors, c_key = _canonical(c_slots, c_colors)
            kids.append((c_key, sign, apow, dpow, closed))
            if c_key not in memo:
                pending.append((c_key, c_slots, c_colors, None))
        stack.append((key, None, None, kids))
        stack.extend(pending)
    it = iter(memo[root])
    return {(apow, dpow, k + len(loops)): count for apow, dpow, k, count in zip(it, it, it, it)}


def _walk(slots, colors, n_loops, seed):
    # Stack entries: (slots, colors, loop_count, sign, apow, dpow).
    stack = [(list(slots), list(colors), n_loops, 1, 0, 0)]
    while stack:
        slots, colors, loop_count, sign, apow, dpow = stack.pop()
        n = len(slots) >> 2
        if seed >= 0:
            slots, colors, _ = _canonical(slots, colors)
        x, x_type2 = _pick(slots, colors, n, seed)
        if x < 0:
            yield _leaf(slots, colors, loop_count, n, sign, apow, dpow)
            continue
        # Pushed in reverse so that children pop in the kernels' order.
        stack.extend(reversed(_children(slots, colors, loop_count, x, x_type2, sign, apow, dpow)))


def _glue(slots, colors, loop_count, x, a_pairing, j, i, sign, apow, dpow):
    """Remove crossing x, reconnect its ends, optionally repaint color j as i.

    a_pairing=True glues {s0-s1, s2-s3} (the A-smoothing), else {s0-s3, s1-s2}.
    """
    s0, s1, s2, s3 = slots[4 * x : 4 * x + 4]
    new_slots = slots[: 4 * x] + slots[4 * x + 4 :]
    if a_pairing:
        p, q, r, t = s0, s1, s2, s3
    else:
        p, q, r, t = s0, s3, s1, s2

    if p == q:
        loop_count += 1
    else:
        for idx, arc in enumerate(new_slots):
            if arc == q:
                new_slots[idx] = p
        if r == q:
            r = p
        if t == q:
            t = p
    if r == t:
        loop_count += 1
    else:
        for idx, arc in enumerate(new_slots):
            if arc == t:
                new_slots[idx] = r

    if j >= 0:
        colors = [i if c == j else c for c in colors]
    return (new_slots, colors, loop_count, sign, apow, dpow)


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
