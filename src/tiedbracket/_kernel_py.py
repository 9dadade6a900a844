"""Pure-Python resolution kernel.

Hot path shared with the compiled kernel (`_kernel_c`): both expose the
same two functions and must produce identical results, including the
leaf order and the seeded random choices.  The engine picks one at import
time; see `_backend`.

Diagrams arrive pre-encoded: `slots` is a flat list of 4*n arc ids (dense,
0-based, at most MAX_ARCS arcs), `colors` maps arc id -> 0-based color
(< MAX_COLORS), `loops` lists free-loop colors; the engine rejects larger
inputs before they get here.  A random strategy is requested by a
non-negative `seed`; `seed = -1` scans crossings in stored order and
smooths the first mixed-color illegal crossing, else the first same-color
one (the default resolution order).

Leaf weights are products of the branch labels A, 1/A, -1 and
delta = A + 1/A, so they compress to a triple (sign, apow, dpow).  The
aggregated form sums the leaves' signs per (apow, dpow, k, gamma).

`resolve_sum` in the default order walks the tree as a DAG.  There a
node's pick, and so its whole subtree, depends only on its state: the
live slots, their colors and the colors of the circles closed so far.
Arc ids do not matter, so `_memo_sum` keys each state by its slots
relabelled by first appearance, the colors of those arcs and the loop
mask, and computes each key's histogram of (apow, dpow, k, gamma) once,
relative to the state: k leaves out the loops counted above it.  Parents
shift a child's histogram by the branch weight and by the circles the
smoothing closed.  The memo lives for one call.  Two walks stay tree
walks: `resolve_leaves`, which promises every leaf in depth-first order,
and seeded walks, whose picks come from one sequential splitmix stream,
so that a subtree depends on the draws made before it and not only on
its state.
"""

MAX_ARCS = 64
MAX_COLORS = 64  # colors index the bits of the compiled kernel's 64-bit masks

_MASK64 = (1 << 64) - 1


def _mix(state):
    """One splitmix64 step; returns (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return state, z


def resolve_sum(slots, colors, loops, seed=-1):
    """Resolve completely; return {(apow, dpow, k, gamma): signed leaf count}."""
    if seed < 0:
        return _memo_sum(slots, colors, loops)
    out = {}
    for k, gamma, _, sign, apow, dpow in _walk(slots, colors, loops, seed):
        key = (apow, dpow, k, gamma)
        out[key] = out.get(key, 0) + sign
    return {key: v for key, v in out.items() if v}


def resolve_leaves(slots, colors, loops, seed=-1):
    """Resolve completely; return [(k, gamma, crossings_left, sign, apow, dpow)]
    in depth-first leaf order."""
    return list(_walk(slots, colors, loops, seed))


def _mask(loops):
    """The loop colors as a bit mask."""
    mask = 0
    for c in loops:
        mask |= 1 << c
    return mask


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


def _children(slots, colors, loop_count, loop_mask, x, x_type2, sign, apow, dpow):
    """The children of smoothing crossing x, in the kernels' order:
    two (the flipped crossing), zero, one; or A, 1/A."""
    if x_type2:
        i = colors[slots[4 * x + 1]]
        j = colors[slots[4 * x]]
        flipped = list(slots)
        s0, s1, s2, s3 = slots[4 * x : 4 * x + 4]
        flipped[4 * x : 4 * x + 4] = (s1, s2, s3, s0)
        return (
            (flipped, colors, loop_count, loop_mask, -sign, apow, dpow),
            _glue(slots, colors, loop_count, loop_mask, x, True, j, i, sign, apow, dpow + 1),
            _glue(slots, colors, loop_count, loop_mask, x, False, j, i, sign, apow, dpow + 1),
        )
    return (
        _glue(slots, colors, loop_count, loop_mask, x, True, -1, -1, sign, apow + 1, dpow),
        _glue(slots, colors, loop_count, loop_mask, x, False, -1, -1, sign, apow - 1, dpow),
    )


def _canonical(slots, colors, loop_mask):
    """Relabel live arcs by first appearance; return (slots, colors, key).

    The key is the relabelled slots, the colors of the live arcs and the
    loop mask as 8 bytes.  Every live arc occurs twice among the slots, so
    the slots take two thirds of the rest and no two states share a key.
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
    return out, live_colors, bytes(out) + bytes(live_colors) + loop_mask.to_bytes(8, "little")


def _memo_sum(slots, colors, loops):
    """`resolve_sum` in the default order, walked as a DAG.

    Each canonical state's histogram is a flat list [apow, dpow, k, gamma,
    count, ...] without zero counts, relative to the state: weight 1 and
    no loops counted yet.  Lists, not tuples: CPython keeps up to 2000
    freed tuples of each length below 20 for reuse, so freeing a memo of
    short tuples would keep their memory for the rest of the process.
    """
    memo = {}
    loop_mask = _mask(loops)
    slots, colors, root = _canonical(slots, colors, loop_mask)
    # Stack entries: (key, slots, colors, loop_mask, None) expands a state;
    # (key, None, None, None, kids) sums its children, which are done by then.
    stack = [(root, slots, colors, loop_mask, None)]
    while stack:
        key, slots, colors, loop_mask, kids = stack.pop()
        if kids is not None:
            acc = {}
            for c_key, sign, apow, dpow, closed in kids:
                it = iter(memo[c_key])
                for a, d, k, g, count in zip(it, it, it, it, it):
                    group = (a + apow, d + dpow, k + closed, g)
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
        x, x_type2 = _pick_ordered(slots, colors, n)
        if x < 0:
            k, gamma = _leaf(slots, colors, 0, loop_mask, n, 1, 0, 0)[:2]
            memo[key] = [0, 0, k, gamma, 1]
            continue
        # Children come back with the branch weight and the circles their
        # smoothing closed, relative to this state.
        kids = []
        pending = []
        for c_slots, c_colors, closed, c_mask, sign, apow, dpow in _children(
            slots, colors, 0, loop_mask, x, x_type2, 1, 0, 0
        ):
            c_slots, c_colors, c_key = _canonical(c_slots, c_colors, c_mask)
            kids.append((c_key, sign, apow, dpow, closed))
            if c_key not in memo:
                pending.append((c_key, c_slots, c_colors, c_mask, None))
        stack.append((key, None, None, None, kids))
        stack.extend(pending)
    it = iter(memo[root])
    n_loops = len(loops)
    return {(apow, dpow, k + n_loops, gamma): count
            for apow, dpow, k, gamma, count in zip(it, it, it, it, it)}


def _walk(slots, colors, loops, seed):
    rng = seed
    random_pick = seed >= 0

    # Stack entries: (slots, colors, loop_count, loop_mask, sign, apow, dpow).
    stack = [(list(slots), list(colors), len(loops), _mask(loops), 1, 0, 0)]
    while stack:
        slots, colors, loop_count, loop_mask, sign, apow, dpow = stack.pop()
        n = len(slots) >> 2

        if random_pick:
            illegal = []
            for i in range(n):
                cu = colors[slots[4 * i]]
                co = colors[slots[4 * i + 1]]
                if co <= cu:
                    illegal.append((i, co < cu))
            x = -1
            if illegal:
                rng, z = _mix(rng)
                x, x_type2 = illegal[z % len(illegal)]
        else:
            x, x_type2 = _pick_ordered(slots, colors, n)

        if x < 0:
            yield _leaf(slots, colors, loop_count, loop_mask, n, sign, apow, dpow)
            continue
        # Pushed in reverse so that children pop in the kernels' order.
        stack.extend(reversed(_children(slots, colors, loop_count, loop_mask,
                                        x, x_type2, sign, apow, dpow)))


def _glue(slots, colors, loop_count, loop_mask, x, a_pairing, j, i, sign, apow, dpow):
    """Remove crossing x, reconnect its ends, optionally repaint color j as i.

    a_pairing=True glues {s0-s1, s2-s3} (the A-smoothing), else {s0-s3, s1-s2}.
    """
    s0, s1, s2, s3 = slots[4 * x : 4 * x + 4]
    new_slots = slots[: 4 * x] + slots[4 * x + 4 :]
    if a_pairing:
        p, q, r, t = s0, s1, s2, s3
    else:
        p, q, r, t = s0, s3, s1, s2

    circle_colors = []
    if p == q:
        circle_colors.append(colors[p])
    else:
        for idx, arc in enumerate(new_slots):
            if arc == q:
                new_slots[idx] = p
        if r == q:
            r = p
        if t == q:
            t = p
    if r == t:
        circle_colors.append(colors[r])
    else:
        for idx, arc in enumerate(new_slots):
            if arc == t:
                new_slots[idx] = r

    if j >= 0:
        colors = [i if c == j else c for c in colors]
        if (loop_mask >> j) & 1:
            loop_mask = (loop_mask & ~(1 << j)) | (1 << i)
        circle_colors = [i if c == j else c for c in circle_colors]
    loop_count += len(circle_colors)
    for c in circle_colors:
        loop_mask |= 1 << c
    return (new_slots, colors, loop_count, loop_mask, sign, apow, dpow)


def _leaf(slots, colors, loop_count, loop_mask, n, sign, apow, dpow):
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

    seen = 0
    color_mask = loop_mask
    k = loop_count
    for arc in slots:
        root = find(arc)
        bit = 1 << root
        if not (seen & bit):
            seen |= bit
            k += 1
            color_mask |= 1 << colors[root]
    gamma = color_mask.bit_count()
    return (k, gamma, n, sign, apow, dpow)
