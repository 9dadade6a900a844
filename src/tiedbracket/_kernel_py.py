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
    out = {}
    for k, gamma, _, sign, apow, dpow in _walk(slots, colors, loops, seed):
        key = (apow, dpow, k, gamma)
        out[key] = out.get(key, 0) + sign
    return {key: v for key, v in out.items() if v}


def resolve_leaves(slots, colors, loops, seed=-1):
    """Resolve completely; return [(k, gamma, crossings_left, sign, apow, dpow)]
    in depth-first leaf order."""
    return list(_walk(slots, colors, loops, seed))


def _walk(slots, colors, loops, seed):
    loop_count = len(loops)
    loop_mask = 0
    for c in loops:
        loop_mask |= 1 << c
    rng = seed
    random_pick = seed >= 0

    # Stack entries: (slots, colors, loop_count, loop_mask, sign, apow, dpow).
    stack = [(list(slots), list(colors), loop_count, loop_mask, 1, 0, 0)]
    while stack:
        slots, colors, loop_count, loop_mask, sign, apow, dpow = stack.pop()
        n = len(slots) >> 2

        x = -1
        x_type2 = True
        if random_pick:
            illegal = []
            for i in range(n):
                cu = colors[slots[4 * i]]
                co = colors[slots[4 * i + 1]]
                if co <= cu:
                    illegal.append((i, co < cu))
            if illegal:
                rng, z = _mix(rng)
                x, x_type2 = illegal[z % len(illegal)]
        else:
            first1 = -1
            for i in range(n):
                cu = colors[slots[4 * i]]
                co = colors[slots[4 * i + 1]]
                if co == cu:
                    if first1 < 0:
                        first1 = i
                elif co < cu:
                    x = i
                    break
            if x < 0 and first1 >= 0:
                x, x_type2 = first1, False

        if x < 0:
            yield _leaf(slots, colors, loop_count, loop_mask, n, sign, apow, dpow)
            continue

        if x_type2:
            i = colors[slots[4 * x + 1]]
            j = colors[slots[4 * x]]
            # Children pushed in reverse so they pop as [two, zero, one].
            stack.append(_glue(slots, colors, loop_count, loop_mask, x, False,
                               j, i, sign, apow, dpow + 1))
            stack.append(_glue(slots, colors, loop_count, loop_mask, x, True,
                               j, i, sign, apow, dpow + 1))
            flipped = list(slots)
            s0, s1, s2, s3 = slots[4 * x : 4 * x + 4]
            flipped[4 * x : 4 * x + 4] = (s1, s2, s3, s0)
            stack.append((flipped, colors, loop_count, loop_mask, -sign, apow, dpow))
        else:
            stack.append(_glue(slots, colors, loop_count, loop_mask, x, False,
                               -1, -1, sign, apow - 1, dpow))
            stack.append(_glue(slots, colors, loop_count, loop_mask, x, True,
                               -1, -1, sign, apow + 1, dpow))


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
    parent = list(range(MAX_ARCS))

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
